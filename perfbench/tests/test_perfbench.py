"""Tests of the benchmark's own machinery, at small scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import diff  # noqa: E402
import floor  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER, TIMED, conservation, layer_metrics  # noqa: E402
from ledger import TARGETS, Ledger, Target  # noqa: E402
from repro.core.experiment import run_experiment  # noqa: E402
from repro.core.figures import SMALL as SMALL_SCALE  # noqa: E402
from repro.units import MIB  # noqa: E402

SMALL = dict(capacity_bytes=SMALL_SCALE.capacity_bytes,
             duration_capacity_writes=SMALL_SCALE.duration_capacity_writes,
             sample_interval=SMALL_SCALE.sample_interval)
SMALL_OPS = {"lsm-update-pool4": 3000, "lsm-readmix-zipf": 1500,
             "btree-fleet-precond": 1500}


def small_spec(workload: str, seed: int = 1):
    return replace(workloads.spec_for(workload, seed), max_ops=SMALL_OPS[workload],
                   **SMALL)


def small_harness(workload: str, seed: int = 1, **overrides) -> run.Harness:
    harness = run.Harness(workload, seed)
    harness.spec = replace(small_spec(workload, seed), **overrides)
    harness.reference = None
    return harness


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_wrappers_are_transparent(workload):
    spec = small_spec(workload)
    plain = run_experiment(spec).to_dict()
    with Ledger() as ledger:
        traced = run_experiment(spec).to_dict()
    assert ledger.fold().nspans > 0
    assert traced == plain


def test_uninstall_restores_every_attribute():
    import importlib

    def current():
        out = {}
        for t in TARGETS:
            module = importlib.import_module(t.module)
            for owner in ([getattr(module, o, None) for o in t.owners]
                          if t.owners else [module]):
                if owner is not None:
                    out[(t.module, id(owner), t.attr)] = vars(owner).get(t.attr)
        return out

    before = current()
    with Ledger():
        assert current() != before
    assert current() == before


def test_seed_changes_the_fingerprint():
    spec = small_spec("lsm-readmix-zipf")
    first = workloads.fingerprint(run_experiment(spec))[0]
    again = workloads.fingerprint(run_experiment(spec))[0]
    other = workloads.fingerprint(run_experiment(replace(spec, seed=2)))[0]
    assert first == again
    assert first != other


def test_out_of_space_counts_as_failed_ops():
    harness = small_harness("lsm-update-pool4", capacity_bytes=8 * MIB,
                            dataset_fraction=0.9, max_ops=None)
    harness.run(run.phase_probe())
    assert harness.failed > 0
    assert 0 < harness.failed / harness.attempted < 1


def test_missing_targets_are_reported_absent():
    ledger = Ledger([
        Target("gone.cls", "repro.lsm.store", ("NoSuchStore",), "put"),
        Target("gone.module", "repro.no_such_module", (), "run"),
        Target("lsm.put", "repro.lsm.store", ("LSMStore",), "put"),
    ])
    with ledger:
        assert ledger.absent == ["gone.cls", "gone.module"]


def test_fold_self_time_and_requests():
    ledger = Ledger([])
    inner = ledger.wrap(lambda: sum(range(1000)), "fs.pread")
    engine = ledger.wrap(lambda: [inner(), inner()], "lsm.get")
    driver = ledger.wrap(lambda: [engine(), engine()], "workload.run_workload")
    ledger.span("experiment.run", driver)
    fold = ledger.fold()
    assert fold.nspans == 1 + 1 + 2 + 4
    assert fold.self_sum_s == pytest.approx(fold.root_s, rel=1e-12)
    assert (fold.self_s >= 0).all()
    is_ = lambda *names: (lambda n: n in names)  # noqa: E731
    assert fold.count_under(is_("lsm.get"), is_("workload.run_workload")) == 2
    assert fold.count_in_request(is_("fs.pread"), is_("lsm.get")) == 4
    assert list(ledger.req) == [-1, -1, 0, 0, 0, 1, 1, 1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_conserves_and_reports_every_metric(workload):
    harness = small_harness(workload)
    plain = harness.run(run.phase_probe())
    rec = harness.run(Ledger())
    assert rec["digest"] == plain["digest"]
    assert conservation(rec["fold"], rec["stacks"], rec["wall_s"]) == []
    metrics = layer_metrics(rec["fold"], rec["stacks"], rec["result"])
    assert list(metrics) == [name for name, _ in PER_LAYER]
    rerun = harness.run(Ledger())
    again = layer_metrics(rerun["fold"], rerun["stacks"], rerun["result"])
    assert {k: v for k, v in again.items() if k not in TIMED} == \
        {k: v for k, v in metrics.items() if k not in TIMED}
    assert harness.problems == [] and harness.failed == 0


def test_checkpoints_cut_repetitions_alike_and_are_transparent():
    harness = small_harness("lsm-update-pool4")
    plain = harness.run(run.phase_probe())
    with floor.Checkpoints() as checkpoints:
        recs = [harness.run(run.phase_probe(), checkpoints) for _ in range(3)]
    assert checkpoints.absent == []
    assert {rec["digest"] for rec in recs} == {plain["digest"]}
    warmup, first, second = (rec["timeline"] for rec in recs)
    assert warmup.signature[1] == 0  # no calibration inside the first one
    assert first.signature == second.signature
    assert 0 < first.signature[1] <= first.calibration.size == floor.CAL_SAMPLES
    assert first.chunks.size > 100
    # The chunks of the whole experiment add up to its wall time less
    # the calibration passes cut out of it.
    (start, end), = first.phases["experiment.run"]
    assert float(first.chunks[start:end].sum()) == pytest.approx(
        recs[1]["wall_s"] - first.calibration[:first.signature[1]].sum(),
        rel=1e-4)
    assert harness.problems == []


def test_noise_floor_takes_each_chunk_from_its_fastest_repetition():
    def timeline(chunks, cal_scale=1.0):
        return floor.Timeline(np.array(chunks, dtype=np.float32),
                              {"a": [(0, 2)], "b": [(2, 3)]},
                              np.full(3, floor.CAL_REF * cal_scale), ("same",))

    noise = floor.NoiseFloor(window=2)
    noise.add(timeline([9.0, 9.0, 9.0], 9.0))  # warm-up, left out
    noise.add(timeline([1.0, 4.0, 2.0]))
    noise.add(timeline([3.0, 2.0, 1.0]))
    (est,) = noise.estimates()
    assert est == pytest.approx({"a": 3.0, "b": 1.0})
    # A host twice as slow (calibration loop too) reads the same.
    slow = floor.NoiseFloor(window=2)
    for cal_scale in (9.0, 2.0, 2.0):
        slow.add(timeline([2.0, 8.0, 4.0], cal_scale))
    assert slow.estimates() == [pytest.approx({"a": 5.0, "b": 2.0})]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lsm-update-pool4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_diff_reports_count_deltas(tmp_path, capsys):
    def record(path, seed, trace, scale):
        names = [m[0] for m in (run.E2E if not trace else PER_LAYER)]
        samples = {n: [scale * (i + 1.0) for i in range(3)] for n in names}
        path.write_text(json.dumps({
            "workload": "w", "seed": seed, "trace": trace, "samples": samples,
            "attempted": 10, "failed": 0}))
        return str(path)

    base = [record(tmp_path / "b0", 1, 0, 1.0), record(tmp_path / "b1", 1, 1, 1.0)]
    change = [record(tmp_path / "c0", 1, 0, 2.0), record(tmp_path / "c1", 1, 1, 2.0)]
    assert diff.main(["--base", *base, "--change", *change]) == 0
    out = capsys.readouterr().out
    assert "fleet.router.calls" in out and "delta +1..+1" in out
    assert "run_ops_per_s" in out


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
