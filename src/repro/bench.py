"""Wall-clock throughput benchmark and perf-regression harness.

``repro bench`` measures how fast the simulator itself runs — not the
simulated metrics, which are pinned elsewhere — on a grid of cells:
the paper's fig-2 update workload (sequential load + uniform updates
until host writes reach a capacity multiple, §3.2) on the inline
runner, a scan-mix variant (25% reads / 25% scans) and a read-only
variant (get-only measured phase) exercising the natively batched
read/scan paths (DESIGN.md §7.3), and 4- and 16-client pooled cells
driving the batched event-scheduler client — including a pooled LSM
scan-mix cell that pins the scan merge under concurrency (DESIGN.md
§7.2; the 16-client cell keeps the event-aware ``until`` in the
deep-interleave regime where per-op engine cost dominates — DESIGN.md
§8).  Results are written to ``BENCH_throughput.json`` so every PR
extends a recorded perf trajectory (DESIGN.md §6).

``repro profile`` wraps any one of these cells in cProfile and prints
the top functions, so perf PRs locate hot spots instead of guessing
(DESIGN.md §8).

Three kinds of numbers are recorded per case:

* **wall**: wall-clock seconds for the load and measured phases, and
  derived ops/sec and simulated-flash-pages/sec.  Machine-dependent:
  comparable along one machine's trajectory, not across machines.
* **speedup_vs_scalar**: batched driver vs the seed's scalar
  (one-op-at-a-time) driver, measured back to back in the same
  process.  A machine-independent ratio — the regression signal for
  the batching layer itself.
* **sim**: a fingerprint of the simulated outcome (virtual clock,
  op counts, SMART byte counters, WA-D, sample count).  Fully
  deterministic; any drift vs the committed baseline means the
  simulation's behaviour changed, which a perf PR must never do.

:func:`check_regression` enforces exactly that split: sim fingerprints
must match bit for bit, the scalar-vs-batched speedup may not regress
by more than the threshold, and absolute ops/sec regressions beyond
the threshold are warnings by default, promoted to failures under
``--strict-wall`` (the CI perf-smoke mode).  Every report embeds
:func:`machine_metadata`; a baseline produced on a different machine
triggers an explanatory warning so strict-wall noise is diagnosable,
and the threshold absorbs ordinary cross-machine spread.  Baselines
are refreshed with ``repro bench --suite perf`` — one warmup pass per
cell plus at least three timed iterations (DESIGN.md §8.3, §12).
"""

from __future__ import annotations

import fnmatch
import json
import os
import platform
import time
from dataclasses import replace
from typing import Any

import numpy as np

from repro.core.experiment import Engine, build_stack
from repro.core.figures import SCALES, Scale, spec_for
from repro.core.metrics import MetricsCollector
from repro.core.report import render_table
from repro.obs.tracer import NULL_TRACER, Tracer, attach_tracer
from repro.sim.clients import ClientPool
from repro.workload.runner import load_sequential, run_workload

#: v2 adds the scan-mix and 4-client pooled cells (DESIGN.md §7) and
#: per-cell latency percentiles in the pooled fingerprint.  The
#: 16-client pooled cells (DESIGN.md §8) extend the grid without
#: changing the record shape, so the schema is unchanged.
SCHEMA_VERSION = 2

#: Engines benchmarked, in report order.
ENGINES = (Engine.LSM, Engine.BTREE)

#: Concurrent clients in the pooled cells.
POOL_CLIENTS = 4
POOL16_CLIENTS = 16

#: Named workload shapes shared by the bench grid and ``repro
#: profile`` (spec overrides on top of the fig-2 update experiment).
WORKLOADS: dict[str, dict] = {
    "update": {},
    "scanmix": {"read_fraction": 0.25, "scan_fraction": 0.25},
    "readonly": {"read_fraction": 1.0},
}


def bench_case(engine: Engine, scale: Scale, batch: bool = True,
               workload_name: str = "update", nclients: int = 1,
               tracer=None, **overrides) -> dict[str, Any]:
    """Run one bench cell for one engine; returns the record.

    Mirrors :func:`repro.core.experiment.run_experiment`'s phases but
    times the load and measured phases separately with a wall clock.
    ``nclients > 1`` drives the measured phase through the
    :class:`~repro.sim.clients.ClientPool` (``batch`` selects its
    batched or scalar client); the load phase is always batched — it
    is identical under both drivers and not part of the comparison.
    ``tracer`` attaches a flight recorder to the stack, enabled for
    the measured phase (used by :func:`measure_trace_overhead`).
    """
    spec = spec_for(scale, engine, **overrides)
    if nclients > 1:
        spec = replace(spec, nclients=nclients)
    clock, ssd, _device, _partition, fs, store, iostat, _trace = build_stack(spec)
    attach_tracer(tracer, clock=clock, ssd=ssd, store=store)
    workload = spec.workload()
    collector = MetricsCollector(
        clock=clock, ssd=ssd, iostat=iostat, fs=fs, store=store,
        dataset_bytes=workload.dataset_bytes,
    )
    wall_start = time.perf_counter()
    load = load_sequential(store, workload, batch=batch if nclients == 1 else True)
    wall_loaded = time.perf_counter()
    ssd.drain()
    collector.start_measurement()
    if tracer is not None:
        tracer.enable()
    target = int(spec.duration_capacity_writes * spec.capacity_bytes)
    run_clock_start = clock.now
    stop_when = lambda: collector.host_bytes_written() >= target  # noqa: E731
    # A write-free measured phase (e.g. the readonly cell) never moves
    # the host-bytes-written stop condition; bound it by op count
    # instead, sized like the write target (same ops a pure-update run
    # of the cell would issue).
    max_ops = None
    if workload.read_fraction + workload.scan_fraction >= 1.0:
        max_ops = max(1, target // workload.value_bytes)
    pool = None
    if nclients > 1:
        pool = ClientPool(
            store, workload, nclients, seed=spec.seed, stop_when=stop_when,
            sample_interval=spec.sample_interval, on_sample=collector.sample,
            max_ops=max_ops, ssd=ssd, batch=batch,
            tracer=tracer if tracer is not None else NULL_TRACER,
        )
        outcome = pool.run()
    else:
        outcome = run_workload(
            store, workload, seed=spec.seed, stop_when=stop_when,
            sample_interval=spec.sample_interval, on_sample=collector.sample,
            max_ops=max_ops, batch=batch,
        )
    wall_done = time.perf_counter()

    load_wall = wall_loaded - wall_start
    run_wall = wall_done - wall_loaded
    smart = ssd.smart
    nand_pages = smart.nand_bytes_written // ssd.page_size
    suffix = f"-pool{nclients}" if nclients > 1 else ""
    sim = {
        "load_ops": load.ops_issued,
        "run_ops": outcome.ops_issued,
        "virtual_clock_seconds": clock.now,
        "run_virtual_seconds": clock.now - run_clock_start,
        "host_bytes_written": smart.host_bytes_written,
        "nand_bytes_written": smart.nand_bytes_written,
        "host_write_requests": smart.host_write_requests,
        "wa_d": ssd.device_write_amplification(),
        "samples": len(collector.samples),
        "out_of_space": outcome.out_of_space or load.out_of_space,
    }
    if pool is not None:
        # Per-op latencies pin the batched pool's interleaving: any
        # reordering of client operations would move a percentile.
        latencies = outcome.latencies
        sim["latency_p50"] = latencies.percentile(50)
        sim["latency_p99"] = latencies.percentile(99)
        sim["per_client_ops"] = list(outcome.per_client_ops)
    return {
        "name": f"fig2-{workload_name}{suffix}-{engine.value}",
        "engine": engine.value,
        "wall": {
            "load_seconds": load_wall,
            "run_seconds": run_wall,
            "total_seconds": load_wall + run_wall,
            "load_ops_per_sec": load.ops_issued / max(load_wall, 1e-9),
            "run_ops_per_sec": outcome.ops_issued / max(run_wall, 1e-9),
            "sim_pages_per_sec": nand_pages / max(load_wall + run_wall, 1e-9),
        },
        # Deterministic fingerprint: identical across machines and
        # across the batched/scalar drivers (the equivalence contract).
        "sim": sim,
    }


#: The bench grid: (workload_name, nclients, spec overrides, engines).
#: ``engines`` restricts a cell to a subset of :data:`ENGINES` (None
#: means every engine).  The scan-mix and readonly cells exercise the
#: natively batched read/scan paths (DESIGN.md §7.3); the pooled cells
#: exercise the batched multi-client driver at moderate and deep queue
#: depth, with the pooled scan-mix cell pinning the LSM scan merge
#: under concurrency.  Pooled
#: speedups compare the measured phase only (the load is shared).
CELLS: tuple[tuple[str, int, dict, tuple[Engine, ...] | None], ...] = (
    ("update", 1, WORKLOADS["update"], None),
    ("scanmix", 1, WORKLOADS["scanmix"], None),
    ("readonly", 1, WORKLOADS["readonly"], None),
    ("update", POOL_CLIENTS, WORKLOADS["update"], None),
    ("scanmix", POOL_CLIENTS, WORKLOADS["scanmix"], (Engine.LSM,)),
    ("update", POOL16_CLIENTS, WORKLOADS["update"], None),
)


def cell_name(engine: Engine, workload_name: str, nclients: int) -> str:
    """The record name a (engine, workload, nclients) cell produces."""
    suffix = f"-pool{nclients}" if nclients > 1 else ""
    return f"fig2-{workload_name}{suffix}-{engine.value}"


def machine_metadata() -> dict[str, Any]:
    """Provenance of the machine a report was produced on.

    Recorded in every report so strict-wall comparisons across
    machines are diagnosable (a mismatch demotes wall noise to an
    explained warning) rather than silently noisy.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "node": platform.node(),
    }


def run_suite(scale_name: str, repeat: int = 2, cases_glob: str | None = None,
              warmup: int = 0) -> dict[str, Any]:
    """Benchmark every engine and cell at one scale; returns the suite.

    Each cell runs the batched *and* scalar drivers ``repeat`` times
    (best wall time wins on both sides — the usual best-of-N noise
    guard, symmetric so the speedup ratio is not biased by a single
    unlucky scalar run); the two drivers' sim fingerprints are
    asserted identical on the spot.  ``cases_glob`` restricts the grid
    to cells whose name matches the glob (DESIGN.md §8.3), so perf
    iteration on one cell doesn't pay for the whole grid; ``warmup`` runs
    that many unrecorded batched+scalar passes per cell first (page
    cache, allocator pools and JIT-ish numpy dispatch settle before
    anything is timed — the perf suite's noise guard).
    """
    scale = SCALES[scale_name]
    cases = []
    for engine in ENGINES:
        for workload_name, nclients, overrides, engines in CELLS:
            if engines is not None and engine not in engines:
                continue
            name = cell_name(engine, workload_name, nclients)
            if cases_glob and not fnmatch.fnmatch(name, cases_glob):
                continue
            best: dict[str, Any] | None = None
            scalar: dict[str, Any] | None = None
            for _ in range(max(0, warmup)):
                bench_case(engine, scale, batch=True,
                           workload_name=workload_name,
                           nclients=nclients, **overrides)
                bench_case(engine, scale, batch=False,
                           workload_name=workload_name,
                           nclients=nclients, **overrides)
            for _ in range(max(1, repeat)):
                record = bench_case(engine, scale, batch=True,
                                    workload_name=workload_name,
                                    nclients=nclients, **overrides)
                if best is None or (record["wall"]["total_seconds"]
                                    < best["wall"]["total_seconds"]):
                    best = record
                record = bench_case(engine, scale, batch=False,
                                    workload_name=workload_name,
                                    nclients=nclients, **overrides)
                if scalar is None or (record["wall"]["total_seconds"]
                                      < scalar["wall"]["total_seconds"]):
                    scalar = record
            if scalar["sim"] != best["sim"]:
                raise AssertionError(
                    f"batched and scalar drivers diverged for {best['name']}: "
                    f"{scalar['sim']} != {best['sim']}"
                )
            # Pooled cells compare the measured phase only: the load is
            # batched on both sides, so including it would dilute the
            # driver comparison.
            wall_key = "run_seconds" if nclients > 1 else "total_seconds"
            best["speedup_vs_scalar"] = (
                scalar["wall"][wall_key] / max(best["wall"][wall_key], 1e-9)
            )
            # Both scalar figures are recorded so the committed record
            # can reproduce the speedup from its own fields.
            best["scalar_wall_seconds"] = scalar["wall"][wall_key]
            best["scalar_wall_total_seconds"] = scalar["wall"]["total_seconds"]
            cases.append(best)
    return {"scale": scale_name, "cases": cases}


def measure_trace_overhead(scale_name: str = "small",
                           repeat: int = 2) -> dict[str, Any]:
    """Tracer-off vs tracer-on wall cost of one pooled LSM cell.

    Runs the 4-client update cell with no tracer and with a full
    flight recorder (ring sink), best-of-``repeat`` on both sides, and
    asserts the sim fingerprints are identical — tracing must observe,
    never perturb.  The overhead fraction is machine-independent-ish
    (same process, back to back) and is recorded in the bench report
    so the zero-overhead-when-off claim stays an measured number
    rather than a comment.
    """
    scale = SCALES[scale_name]
    off: dict[str, Any] | None = None
    on: dict[str, Any] | None = None
    events = 0
    for _ in range(max(1, repeat)):
        record = bench_case(Engine.LSM, scale, batch=True,
                            nclients=POOL_CLIENTS, **WORKLOADS["update"])
        if off is None or (record["wall"]["run_seconds"]
                           < off["wall"]["run_seconds"]):
            off = record
        tracer = Tracer()
        record = bench_case(Engine.LSM, scale, batch=True,
                            nclients=POOL_CLIENTS, tracer=tracer,
                            **WORKLOADS["update"])
        events = sum(1 for _ in tracer.events())
        tracer.close()
        if on is None or (record["wall"]["run_seconds"]
                          < on["wall"]["run_seconds"]):
            on = record
    if off["sim"] != on["sim"]:
        raise AssertionError(
            f"tracing changed the simulation: {off['sim']} != {on['sim']}"
        )
    off_s = off["wall"]["run_seconds"]
    on_s = on["wall"]["run_seconds"]
    return {
        "cell": off["name"],
        "scale": scale_name,
        "off_run_seconds": off_s,
        "on_run_seconds": on_s,
        "overhead_fraction": on_s / max(off_s, 1e-9) - 1.0,
        "events": events,
    }


def run_bench(smoke: bool = False, repeat: int = 2, suite: str = "std",
              cases_glob: str | None = None) -> dict[str, Any]:
    """Produce the full benchmark report (the BENCH_throughput payload).

    ``smoke`` runs only the small-scale suite (the CI job); a full run
    records both the small and default scales so a later smoke run can
    always be compared against the committed baseline.  ``suite="perf"``
    is the dedicated perf runner (DESIGN.md §8.3): one warmup pass per
    cell and at least three timed iterations, for walls stable enough
    to commit as a strict-wall baseline.  ``cases_glob`` restricts the
    grid to matching cell names.
    """
    warmup = 0
    if suite == "perf":
        warmup = 1
        repeat = max(repeat, 3)
    elif suite != "std":
        raise ValueError(f"unknown bench suite {suite!r} (std, perf)")
    suites = {"smoke": run_suite("small", repeat=repeat,
                                 cases_glob=cases_glob, warmup=warmup)}
    if not smoke:
        suites["default"] = run_suite("default", repeat=repeat,
                                      cases_glob=cases_glob, warmup=warmup)
    report = {
        "schema": SCHEMA_VERSION,
        "workload": "fig2-cells",
        "suites": suites,
        # Additive keys below: absent from older baselines; tolerated
        # by check_regression (which compares sim + speedup + wall
        # fields, using "machine" only to explain wall noise).
        "suite": suite,
        "machine": machine_metadata(),
    }
    if cases_glob is None:
        # A filtered run is a perf-iteration artifact, not a baseline:
        # skip the overhead probe and mark the report partial.
        report["trace_overhead"] = measure_trace_overhead(
            "small", repeat=repeat)
    else:
        report["cases_glob"] = cases_glob
    return report


def profile_case(engine: Engine, scale_name: str, workload_name: str = "update",
                 nclients: int = 1, batch: bool = True, top: int = 30,
                 sort: str = "cumulative", nshards: int = 1,
                 arrival: str | None = None, arrival_rate: float = 0.0,
                 queue_cap: int = 0) -> str:
    """cProfile one bench cell; returns the rendered top-N table.

    The cell is the same load + measured run :func:`bench_case` times,
    so a profile line can be matched one-to-one against the bench
    numbers it explains.  ``sort`` is any :mod:`pstats` sort key
    (``cumulative`` ranks call trees, ``tottime`` ranks function
    bodies).  Remember that instrumentation inflates this codebase's
    per-call costs roughly 2-5x: use profiles to *rank* hot spots and
    uninstrumented ``repro bench`` walls to decide if a change paid
    off (DESIGN.md §8).

    ``nshards > 1`` (or an ``arrival`` process) profiles the fleet
    path instead: the whole sharded experiment — router, per-shard
    stacks, open-loop sources when requested — runs under the profiler
    via :func:`~repro.core.experiment.run_experiment`, so hot spots
    can be ranked under the open-loop driver, not just closed-loop
    pools.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    if nshards > 1 or arrival is not None:
        from repro.core.experiment import run_experiment

        overrides = dict(WORKLOADS[workload_name])
        overrides["nshards"] = nshards
        if arrival is not None:
            overrides["arrival"] = arrival
            overrides["arrival_rate"] = arrival_rate
            if queue_cap:
                overrides["queue_cap"] = queue_cap
        else:
            overrides["nclients"] = nclients
        spec = spec_for(SCALES[scale_name], Engine(engine), **overrides)
        wall_start = time.perf_counter()
        profiler.enable()
        result = run_experiment(spec)
        profiler.disable()
        wall = time.perf_counter() - wall_start
        suffix = f"-shards{nshards}" + (f"-{arrival}" if arrival else "")
        header = (
            f"profile of fig2-{workload_name}{suffix}-{Engine(engine).value} "
            f"(scale {scale_name}, fleet path)\n"
            f"profiled run (cProfile overhead INCLUDED — do not compare "
            f"against `repro bench` walls): total {wall:.3f}s, "
            f"{result.ops_issued:,} ops issued\n"
        )
    else:
        overrides = WORKLOADS[workload_name]
        profiler.enable()
        record = bench_case(Engine(engine), SCALES[scale_name], batch=batch,
                            workload_name=workload_name, nclients=nclients,
                            **overrides)
        profiler.disable()
        wall = record["wall"]
        header = (
            f"profile of {record['name']} (scale {scale_name}, "
            f"{'batched' if batch else 'scalar'} driver)\n"
            f"profiled run (cProfile overhead INCLUDED — do not compare "
            f"against `repro bench` walls): load {wall['load_seconds']:.3f}s, "
            f"run {wall['run_seconds']:.3f}s, "
            f"{wall['run_ops_per_sec']:,.0f} run ops/s\n"
        )
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(top)
    return header + stream.getvalue()


def check_regression(current: dict[str, Any], baseline: dict[str, Any],
                     threshold: float = 0.30,
                     strict_wall: bool = False) -> tuple[list[str], list[str]]:
    """Compare a fresh report against a baseline.

    Returns ``(problems, warnings)``:

    * sim fingerprints must match exactly (simulation behaviour is
      deterministic — any drift is a correctness regression): problem;
    * the batched-vs-scalar speedup must not regress by more than
      *threshold* (machine-independent): problem;
    * absolute run-phase ops/sec beyond *threshold*: warning by
      default — it only means something when baseline and run share a
      machine — promoted to a problem with ``strict_wall``.
    """
    problems: list[str] = []
    warnings: list[str] = []
    base_machine = baseline.get("machine")
    cur_machine = current.get("machine")
    if base_machine and cur_machine and base_machine != cur_machine:
        diffs = sorted(
            k for k in set(base_machine) | set(cur_machine)
            if base_machine.get(k) != cur_machine.get(k)
        )
        warnings.append(
            "baseline was produced on a different machine "
            f"({', '.join(diffs)} differ): wall-clock comparisons are "
            "cross-machine and may be noisy"
        )
    if baseline.get("schema") != current.get("schema"):
        problems.append(
            f"schema mismatch: baseline {baseline.get('schema')} "
            f"vs current {current.get('schema')}"
        )
        return problems, warnings
    for suite_name, suite in current["suites"].items():
        base_suite = baseline["suites"].get(suite_name)
        if base_suite is None:
            continue
        base_cases = {c["name"]: c for c in base_suite["cases"]}
        for case in suite["cases"]:
            base = base_cases.get(case["name"])
            if base is None:
                continue
            name = f"{suite_name}/{case['name']}"
            if case["sim"] != base["sim"]:
                diffs = [
                    f"{k}: {base['sim'][k]} -> {case['sim'][k]}"
                    for k in case["sim"]
                    if case["sim"][k] != base["sim"].get(k)
                ]
                problems.append(f"{name}: sim fingerprint drifted ({'; '.join(diffs)})")
            floor = base["speedup_vs_scalar"] * (1.0 - threshold)
            if case["speedup_vs_scalar"] < floor:
                problems.append(
                    f"{name}: batched-vs-scalar speedup regressed "
                    f"x{base['speedup_vs_scalar']:.2f} -> "
                    f"x{case['speedup_vs_scalar']:.2f} (floor x{floor:.2f})"
                )
            ops_floor = base["wall"]["run_ops_per_sec"] * (1.0 - threshold)
            if case["wall"]["run_ops_per_sec"] < ops_floor:
                message = (
                    f"{name}: run throughput regressed "
                    f"{base['wall']['run_ops_per_sec']:,.0f} -> "
                    f"{case['wall']['run_ops_per_sec']:,.0f} ops/s "
                    f"(floor {ops_floor:,.0f})"
                )
                (problems if strict_wall else warnings).append(message)
    return problems, warnings


def render_bench(report: dict[str, Any]) -> str:
    """Human-readable table of a benchmark report."""
    sections = []
    for suite_name, suite in report["suites"].items():
        rows = []
        for case in suite["cases"]:
            wall = case["wall"]
            rows.append([
                case["name"],
                f"{wall['total_seconds']:.3f}",
                f"{wall['load_ops_per_sec']:,.0f}",
                f"{wall['run_ops_per_sec']:,.0f}",
                f"{wall['sim_pages_per_sec']:,.0f}",
                f"x{case['speedup_vs_scalar']:.2f}",
                f"{case['sim']['wa_d']:.2f}",
            ])
        sections.append(render_table(
            ["case", "wall s", "load ops/s", "run ops/s",
             "sim pages/s", "vs scalar", "WA-D"],
            rows,
            title=f"bench[{suite_name}] {report['workload']} "
                  f"(scale {suite['scale']})",
        ))
    overhead = report.get("trace_overhead")
    if overhead:
        sections.append(
            f"trace overhead [{overhead['cell']}]: "
            f"off {overhead['off_run_seconds']:.3f}s, "
            f"on {overhead['on_run_seconds']:.3f}s "
            f"(+{overhead['overhead_fraction'] * 100.0:.1f}%, "
            f"{overhead['events']:,} events)"
        )
    return "\n\n".join(sections)


def load_report(path: str) -> dict[str, Any]:
    """Read a benchmark report from disk."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def save_report(report: dict[str, Any], path: str) -> None:
    """Write a benchmark report to disk (stable key order)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
