#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lsm-update-pool4 --seed 1 \\
        --seconds 20 --trace 0 [--out run.json] [--record]

``--trace 0`` repeats the workload's full experiment through the public
``ExperimentSpec`` → ``run_experiment`` entry point until ``--seconds``
of host time have passed.  No layer is traced: only the phase
boundaries (``build_stack``, the load, the measured-phase driver) and
the calls into the SSD model are stamped.  The first repetition warms
up; the phase times of the others are noise-floor estimates scaled
to a reference host speed (``floor.py``: chunk by chunk the fastest of
``WINDOW`` repetitions, times a calibration loop's reference time over
its time in those repetitions), and the end-to-end metrics are medians
over those estimates.  The raw per-repetition figures (calibration
pauses included) are printed beside them.

``--trace 1`` alternates untraced and traced repetitions for the same
time.  The traced one wraps the public entry points of every layer
(``ledger.py``) and reports the per-layer metrics (``layers.py``):
exact counts, and self times as medians over the traced repetitions.

Either way the run checks correctness: every repetition's simulated
fingerprint must agree (and equal ``reference.json`` for the recorded
seed), each stack's ``check_invariants()`` must pass, and in traced
runs the ledger must conserve pages and time and leave the fingerprint
unchanged.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out``
writes the full record (every sample) for ``diff.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metrics: (name, unit, better).  ``failed_op_frac`` is
#: reported beside them and carried by ``attempted``/``failed``.
E2E = [
    ("run_ops_per_s", "ops/s", "higher"),
    ("load_ops_per_s", "ops/s", "higher"),
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("nand_pages_per_s", "pages/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
]
#: Repetitions per noise-floor estimate (``floor.py``).
WINDOW = 4
#: Extra stack builds after each repetition, so a window has more
#: set-up samples than repetitions (``setup_s``).
SETUP_BUILDS = 5
PHASES = {"setup.build_stack", "workload.load_sequential",
          "workload.run_workload", "sim.run", "fleet.run"}
DRIVER_SPANS = ("workload.run_workload", "sim.run", "fleet.run")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Deadline:
    """Repeat while another repetition is expected to fit in *seconds*.

    The first repetition always runs; each later one starts only if the
    median repetition so far would still end within the budget, so a
    run measures for at most about ``--seconds``.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.last = time.perf_counter()
        self.durations: list[float] = []
        self.started = False

    def another(self) -> bool:
        now = time.perf_counter()
        if not self.started:
            self.started = True
            return True
        self.durations.append(now - self.last)
        self.last = now
        return now - self.start + statistics.median(self.durations) <= self.seconds


class Harness:
    """Runs one workload's experiments and checks each one."""

    def __init__(self, workload: str, seed: int):
        from repro.core import experiment
        import workloads

        self.experiment = experiment
        self.workloads = workloads
        self.spec = workloads.spec_for(workload, seed)
        ref = workloads.load_reference()
        self.reference = (ref["fingerprints"].get(workload)
                          if ref.get("seed") == seed else None)
        self.digests: set[str] = set()
        self.summary: dict | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, ledger, checkpoints=None) -> dict:
        """One experiment with *ledger* installed; returns its record.

        With *checkpoints* (a :class:`floor.Checkpoints` installed around
        the call) the record carries the repetition's ``timeline``.
        """
        experiment = self.experiment
        build_stack = experiment.build_stack
        stacks: list = []
        specs: list = []

        def capture(*args, **kwargs):
            stack = build_stack(*args, **kwargs)
            stacks.append(stack)
            specs.append(args[0])
            return stack

        gc.collect()
        experiment.build_stack = capture
        try:
            with ledger:
                result = ledger.span("experiment.run", experiment.run_experiment,
                                     self.spec)
        finally:
            experiment.build_stack = build_stack
        fold = ledger.fold()
        wall = fold.root_s
        timeline = None
        if checkpoints is not None:
            timeline = checkpoints.timeline([
                (ledger.names[n], s, e)
                for n, s, e in zip(ledger.name, ledger.start, ledger.end)])
        ledger.reset()

        digest, summary = self.workloads.fingerprint(result)
        problems = self._invariants(stacks)
        if self.reference is not None and digest != self.reference["digest"]:
            problems.append(f"fingerprint {digest[:12]} != reference "
                            f"{self.reference['digest'][:12]}: {summary} vs "
                            f"{self.reference['summary']}")
        if self.digests and digest not in self.digests:
            problems.append(f"fingerprint {digest[:12]} differs between "
                            f"repetitions: {summary} vs {self.summary}")
        self.digests.add(digest)
        self.summary = summary

        load_ops = int(fold.sum("units", lambda n: n == "workload.load_sequential"))
        attempted = self.workloads.attempted_ops(result, load_ops)
        failed = self.workloads.failed_ops(result)
        self.attempted += attempted
        self.failed += failed

        load_s = fold.sum("total_s", lambda n: n == "workload.load_sequential")
        run_s = fold.sum("total_s", lambda n: n in DRIVER_SPANS)
        page = stacks[0][1].page_size
        rec = {
            "result": result, "fold": fold, "stacks": stacks, "wall_s": wall,
            "digest": digest, "attempted": attempted, "failed": failed,
            "timeline": timeline, "load_ops": load_ops, "specs": specs,
            "nand_pages": result.smart["nand_bytes_written"] / page,
            "e2e": {
                "run_ops_per_s": result.ops_issued / run_s if run_s else 0.0,
                "load_ops_per_s": load_ops / load_s if load_s else 0.0,
                "setup_s": fold.sum("total_s", lambda n: n == "setup.build_stack"),
                "wall_s": wall,
                "nand_pages_per_s": result.smart["nand_bytes_written"] / page / wall,
            },
        }
        self.fail(rec, problems)
        return rec

    def fail(self, rec: dict, problems: list[str]) -> None:
        """Record failed checks; every op of a failed repetition fails."""
        if problems:
            self.problems += problems
            self.failed += rec["attempted"] - rec["failed"]
            rec["failed"] = rec["attempted"]

    def time_builds(self, specs: list, count: int) -> list[float]:
        """Host seconds of *count* more builds of an experiment's stacks."""
        build_stack = self.experiment.build_stack
        samples = []
        for _ in range(count):
            gc.collect()
            start = time.perf_counter()
            for spec in specs:
                build_stack(spec)
            samples.append(time.perf_counter() - start)
        return samples

    @staticmethod
    def _invariants(stacks: list) -> list[str]:
        """Call every captured stack's public ``check_invariants()``."""
        problems = []
        for shard, stack in enumerate(stacks):
            ssd, fs, store = stack[1], stack[4], stack[5]
            checks = [("store", store), ("fs", fs), ("allocator", fs.allocator)]
            if ssd.ftl is not None:
                checks.append(("ftl", ssd.ftl))
            for label, obj in checks:
                try:
                    obj.check_invariants()
                except Exception as exc:  # any violation fails the run
                    problems.append(f"shard {shard} {label} invariant: {exc!r}")
        return problems


def phase_probe():
    """A ledger over the phase boundaries only: a few spans per run."""
    from ledger import TARGETS, Ledger

    return Ledger([t for t in TARGETS if t.name in PHASES])


def run_untraced(harness: Harness, seconds: float):
    """(samples, raw): noise-floor metric samples and raw per-repetition ones."""
    from floor import Checkpoints, NoiseFloor

    probe = phase_probe()
    floor = NoiseFloor(WINDOW)
    raw: dict[str, list[float]] = {name: [] for name, _, _ in E2E[:-1]}
    peak_rss: list[float] = []
    checkpoints = Checkpoints()
    deadline = Deadline(seconds)
    while deadline.another():
        with checkpoints:
            rec = harness.run(probe, checkpoints)
        if not peak_rss:
            # One experiment's peak, before the timelines pile up.
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        rec["timeline"].extra["setup.build_stack"] = harness.time_builds(
            rec["specs"], SETUP_BUILDS)
        floor.add(rec["timeline"])
        for name, value in rec["e2e"].items():
            raw[name].append(value)
    samples: dict[str, list[float]] = {name: [] for name, _, _ in E2E}
    for est in floor.estimates():
        samples["setup_s"].append(est["setup.build_stack"])
        run_s = sum(est.get(name, 0.0) for name in DRIVER_SPANS)
        load_s = est.get("workload.load_sequential", 0.0)
        wall = est["experiment.run"]
        samples["run_ops_per_s"].append(rec["result"].ops_issued / run_s
                                        if run_s else 0.0)
        samples["load_ops_per_s"].append(rec["load_ops"] / load_s if load_s else 0.0)
        samples["wall_s"].append(wall)
        samples["nand_pages_per_s"].append(rec["nand_pages"] / wall)
    samples["peak_rss_mib"] = peak_rss
    return samples, raw


def run_traced(harness: Harness, seconds: float):
    from layers import TIMED, conservation, layer_metrics
    from ledger import Ledger

    probe = phase_probe()
    ledger = Ledger()
    samples: dict[str, list[float]] = {}
    overhead: list[float] = []
    counts = None
    absent: list[str] = []
    deadline = Deadline(seconds)
    while deadline.another():
        plain = harness.run(probe)
        traced = harness.run(ledger)
        absent = ledger.absent
        problems = conservation(traced["fold"], traced["stacks"], traced["wall_s"])
        if traced["digest"] != plain["digest"]:
            problems.append("the traced fingerprint differs from the untraced one")
        overhead.append(traced["wall_s"] / plain["wall_s"] - 1.0)
        metrics = layer_metrics(traced["fold"], traced["stacks"], traced["result"])
        exact = {k: v for k, v in metrics.items() if k not in TIMED}
        if counts is not None and exact != counts:
            moved = sorted(k for k in exact if exact[k] != counts[k])
            problems.append(f"layer counts differ between traced repetitions: {moved}")
        counts = exact
        harness.fail(traced, problems)
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    return samples, overhead, absent


def report(title: str, samples: dict[str, list[float]], units: dict[str, str]) -> None:
    print(f"{title:<36} {'median':>14} {'unit':<13} {'IQR/med':>8} {'n':>3}")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<36} {med:>14.6g} {units[name]:<13} {spread:>8.2%} "
              f"{len(values):>3}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="write the full record (JSON) here")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's fingerprint as the reference")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the simulator sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(workloads.WORKLOADS)}")
    harness = Harness(args.workload, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    overhead: list[float] = []
    absent: list[str] = []
    raw: dict[str, list[float]] = {}
    if args.trace:
        from layers import PER_LAYER

        samples, overhead, absent = run_traced(harness, args.seconds)
        units = dict(PER_LAYER)
        names = [name for name, _ in PER_LAYER]
    else:
        samples, raw = run_untraced(harness, args.seconds)
        units = {name: unit for name, unit, _ in E2E}
        names = [name for name, _, _ in E2E]
    report("metric", samples, units)
    if raw:
        report("raw per repetition (advisory)", raw, units)
    frac = harness.failed / harness.attempted if harness.attempted else 1.0
    print(f"{'failed_op_frac':<36} {frac:>14.6g} {'ratio':<13} "
          f"({harness.failed} of {harness.attempted} ops)")
    if overhead:
        q1, med, q3 = quartiles(overhead)
        print(f"trace_overhead (advisory): {med:+.1%} "
              f"[q1 {q1:+.1%}, q3 {q3:+.1%}, n={len(overhead)}]")
    if absent:
        print("absent (reported as 0): " + ", ".join(absent))
    digest = sorted(harness.digests)[0] if len(harness.digests) == 1 else None
    if harness.reference is None:
        note = "no reference for this seed"
    elif digest == harness.reference["digest"]:
        note = "matches the reference"
    else:
        note = "DIFFERS from the reference"
    print(f"fingerprint {digest or 'INCONSISTENT'} ({note})")
    for problem in harness.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not harness.problems

    if args.record and correct and digest:
        workloads.record_reference(args.workload, args.seed, digest, harness.summary)
    metrics = {name: {"value": quartiles(samples[name])[1], "unit": units[name]}
               for name in names}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "correct": correct,
            "attempted": harness.attempted, "failed": harness.failed,
            "fingerprint": digest, "samples": samples, "raw": raw, "units": units,
            "trace_overhead": overhead, "absent": absent,
            "problems": harness.problems,
        }, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": harness.attempted,
                      "failed": harness.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
