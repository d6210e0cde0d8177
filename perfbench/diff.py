#!/usr/bin/env python3
"""Compare two sets of benchmark records, layer by layer.

Usage (from the repository root)::

    python3 perfbench/diff.py --base parent/*.json --change change/*.json

Each file is a record written by ``run.py --out``.  For every workload
the diff prints

* each end-to-end metric (untraced records): the median of the runs'
  medians on both sides with quartiles, the relative change, the
  metric's bound from ``BENCHMARK.json`` and a verdict;
* each per-layer count (traced records): the exact delta, seed by seed
  for the seeds both sides ran, with the end-to-end metrics and
  workloads the layer is predicted to move (``layers.LAYER_MAP``);
* each per-layer self time: the median over all traced repetitions on
  both sides, with quartiles.

It reads only the benchmark's own records.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from layers import TIMED, predicted
from run import E2E, quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: list[str]) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace)."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def bounds() -> dict[str, float]:
    if not BENCHMARK.exists():
        return {}
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def verdict(base: list[float], change: list[float], better: str,
            bound: float | None) -> str:
    """Regression / gain / unresolved, by the benchmark's own rules."""
    bq, cq = quartiles(base), quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
    spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
    all_better = (min(sign * c for c in change) > max(sign * b for b in base))
    if bound is not None and spread > bound and not all_better:
        return "unresolved (base spread wider than the bound)"
    if bound is not None and gain < -bound:
        return "REGRESSION (worse than the bound)"
    if gain > spread and all_better:
        return "gain (every change run better)"
    return "no change beyond noise"


def diff_e2e(base: list[dict], change: list[dict], limits: dict[str, float]) -> None:
    print(f"  end to end (base {len(base)} runs, change {len(change)} runs)")
    for name, unit, better in E2E:
        b = [statistics.median(r["samples"][name]) for r in base]
        c = [statistics.median(r["samples"][name]) for r in change]
        bq, cq = quartiles(b), quartiles(c)
        rel = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        bound = limits.get(name)
        print(f"    {name:<18} {_fmt(bq):>34} -> {_fmt(cq):>34} {unit:<8} "
              f"{rel:+7.2%}  bound {bound if bound is not None else '-'}: "
              f"{verdict(b, c, better, bound)}")
    for side, records in (("base", base), ("change", change)):
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"    failed_op_frac ({side}): {failed}/{attempted}")


def diff_layers(base: list[dict], change: list[dict]) -> None:
    bseed = {r["seed"]: r for r in base}
    cseed = {r["seed"]: r for r in change}
    seeds = sorted(set(bseed) & set(cseed))
    names = list(base[0]["samples"])
    print(f"  per-layer counts, change - base, seeds {seeds}")
    moved = 0
    for name in names:
        if name in TIMED:
            continue
        deltas = [cseed[s]["samples"][name][0] - bseed[s]["samples"][name][0]
                  for s in seeds if name in cseed[s]["samples"]]
        if any(deltas):
            moved += 1
            moves = "; ".join(f"{m} on {', '.join(w)}"
                              for m, w in predicted(name).items())
            print(f"    {name:<32} {bseed[seeds[0]]['samples'][name][0]:>14.6g} "
                  f"delta {min(deltas):+.6g}..{max(deltas):+.6g}"
                  f"   (predicted to move: {moves or '-'})")
    if not moved:
        print("    (no count moved)")
    print("  per-layer self time, median [q1, q3] over traced repetitions")
    for name in names:
        if name not in TIMED:
            continue
        b = [v for r in base for v in r["samples"][name]]
        c = [v for r in change for v in r["samples"][name]]
        if not any(b) and not any(c):
            continue
        bq, cq = quartiles(b), quartiles(c)
        print(f"    {name:<32} {_fmt(bq):>34} -> {_fmt(cq):>34} s "
              f"({cq[1] - bq[1]:+.4g} s)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    limits = bounds()
    for workload in sorted({w for w, _ in base} | {w for w, _ in change}):
        print(f"== {workload}")
        for trace, show in ((0, lambda b, c: diff_e2e(b, c, limits)),
                            (1, diff_layers)):
            b, c = base.get((workload, trace)), change.get((workload, trace))
            if b and c:
                show(b, c)
            elif b or c:
                print(f"  trace={trace}: records on one side only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
