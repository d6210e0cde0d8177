"""Per-layer metrics derived from one traced run, plus the ledger checks.

Layer names follow the host-stack split in DESIGN.md §1: driver
(``workload`` runner, ``sim`` ClientPool, ``fleet`` pool and router),
engine (``lsm`` / ``btree``), filesystem (``fs``), ``block`` layer and
``flash`` (SSD timing model, FTL, GC).  Every metric is named
``<module>.<metric>``.  Counts are deterministic and repeat exactly;
``*.self_s`` values are host seconds and advisory.
"""

from __future__ import annotations

from ledger import ENGINE_PREFIXES, Fold


def _prefix(*prefixes: str):
    return lambda name: name.startswith(prefixes)


def _exact(*names: str):
    return lambda name: name in names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Engine calls proper: the engine tier minus its inner components.
_ENGINE_SPAN = lambda n: n.startswith(ENGINE_PREFIXES) and not n.startswith(  # noqa: E731
    ("lsm.compaction.", "lsm.bloom.", "btree.pager."))
_BLOCK_IO = _exact("block.write_pages", "block.write_range", "block.read_range")
_SSD_WRITE = _exact("flash.ssd.write_pages", "flash.ssd.write_range")
_SSD_READ = _exact("flash.ssd.read_range")

#: Every per-layer metric with its unit, in report order.
PER_LAYER: list[tuple[str, str]] = [
    ("workload.self_s", "s"),
    ("workload.engine_calls", "count"),
    ("workload.ops_per_engine_call", "ops/call"),
    ("sim.self_s", "s"),
    ("sim.engine_calls", "count"),
    ("sim.ops_per_engine_call", "ops/call"),
    ("fleet.self_s", "s"),
    ("fleet.router.calls", "count"),
    ("fleet.engine_calls", "count"),
    ("fleet.failed_ops", "count"),
    ("lsm.put_many.calls", "count"),
    ("lsm.put_many.self_s", "s"),
    ("lsm.compaction.runs", "count"),
    ("lsm.compaction.self_s", "s"),
    ("lsm.compaction.bytes_rewritten", "bytes"),
    ("lsm.wa_a", "ratio"),
    ("lsm.get_many.calls", "count"),
    ("lsm.get_many.self_s", "s"),
    ("lsm.bloom.probes", "count"),
    ("lsm.reads_per_get", "reads/get"),
    ("lsm.scan_many.calls", "count"),
    ("lsm.scan_many.self_s", "s"),
    ("lsm.self_s", "s"),
    ("btree.put.calls", "count"),
    ("btree.put.self_s", "s"),
    ("btree.get.calls", "count"),
    ("btree.get.self_s", "s"),
    ("btree.put_many.calls", "count"),
    ("btree.put_many.self_s", "s"),
    ("btree.get_many.calls", "count"),
    ("btree.get_many.self_s", "s"),
    ("btree.pager.reads", "count"),
    ("btree.pager.writes", "pages"),
    ("btree.cache.hit_rate", "ratio"),
    ("btree.reads_per_get", "reads/get"),
    ("btree.self_s", "s"),
    ("fs.append.calls", "count"),
    ("fs.append.self_s", "s"),
    ("fs.pwrite.calls", "count"),
    ("fs.pwrite.self_s", "s"),
    ("fs.pread.calls", "count"),
    ("fs.pread.self_s", "s"),
    ("fs.allocator.calls", "count"),
    ("fs.allocator.self_s", "s"),
    ("fs.pages_per_write_call", "pages/call"),
    ("fs.self_s", "s"),
    ("block.write_pages.calls", "count"),
    ("block.write_range.calls", "count"),
    ("block.read_range.calls", "count"),
    ("block.self_s", "s"),
    ("block.pages_per_request", "pages/req"),
    ("block.uncovered_calls", "count"),
    ("flash.ssd.write.calls", "count"),
    ("flash.ssd.write.self_s", "s"),
    ("flash.ssd.read.calls", "count"),
    ("flash.ssd.read.self_s", "s"),
    ("flash.ssd.uncovered_pages", "pages"),
    ("flash.ftl.self_s", "s"),
    ("flash.gc.reclaims", "count"),
    ("flash.gc.pages_moved", "pages"),
    ("flash.gc.moved_per_reclaim", "pages/reclaim"),
    ("flash.wa_d", "ratio"),
    ("setup.self_s", "s"),
    ("experiment.self_s", "s"),
    ("ledger.spans", "count"),
]

#: Which end-to-end metric, on which workload, each layer metric should
#: move: (metric-name prefixes, {end-to-end metric: [workloads]}).  A
#: later change cites these names when it predicts where a gain shows.
LAYER_MAP: list[tuple[tuple[str, ...], dict[str, list[str]]]] = [
    (("workload.",), {"run_ops_per_s": ["lsm-readmix-zipf"],
                      "load_ops_per_s": ["lsm-update-pool4", "lsm-readmix-zipf",
                                         "btree-fleet-precond"]}),
    (("sim.",), {"run_ops_per_s": ["lsm-update-pool4"]}),
    (("fleet.",), {"run_ops_per_s": ["btree-fleet-precond"],
                   "failed_op_frac": ["btree-fleet-precond"]}),
    (("lsm.put_many.", "lsm.compaction.", "lsm.wa_a"),
     {"run_ops_per_s": ["lsm-update-pool4"]}),
    (("lsm.get_many.", "lsm.bloom.", "lsm.reads_per_get", "lsm.scan_many."),
     {"run_ops_per_s": ["lsm-readmix-zipf"]}),
    (("btree.",), {"run_ops_per_s": ["btree-fleet-precond"],
                   "load_ops_per_s": ["btree-fleet-precond"]}),
    (("fs.append.", "fs.allocator.", "fs.pages_per_write_call", "block.write"),
     {"run_ops_per_s": ["lsm-update-pool4"]}),
    (("fs.pread.", "block.read"), {"run_ops_per_s": ["lsm-readmix-zipf"]}),
    (("fs.", "block."), {"run_ops_per_s": ["lsm-update-pool4",
                                          "lsm-readmix-zipf"]}),
    (("flash.",), {"run_ops_per_s": ["btree-fleet-precond"],
                   "setup_s": ["btree-fleet-precond"]}),
    (("setup.",), {"setup_s": ["lsm-update-pool4", "lsm-readmix-zipf",
                               "btree-fleet-precond"]}),
]


def predicted(metric: str) -> dict[str, list[str]]:
    """The end-to-end metrics and workloads *metric* should move."""
    for prefixes, moves in LAYER_MAP:
        if metric.startswith(prefixes):
            return moves
    return {}


#: Metrics that are host seconds (advisory); all others are counts or
#: ratios of counts and must repeat exactly for one seed.
TIMED = frozenset(name for name, unit in PER_LAYER if unit == "s")


def layer_metrics(fold: Fold, stacks: list, result) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced experiment.

    *stacks* are the ``build_stack`` return tuples of the experiment
    (one per shard); *result* its :class:`ExperimentResult`.
    """
    s, under = fold.sum, fold.count_under
    m: dict[str, float] = {}
    for driver, names in (("workload", _prefix("workload.")),
                          ("sim", _exact("sim.run")),
                          ("fleet", _exact("fleet.run"))):
        calls = under(_ENGINE_SPAN, names)
        m[f"{driver}.engine_calls"] = calls
        if driver != "fleet":
            m[f"{driver}.self_s"] = s("self_s", names)
            m[f"{driver}.ops_per_engine_call"] = _ratio(s("units", names), calls)
    m["fleet.self_s"] = s("self_s", _prefix("fleet."))
    m["fleet.router.calls"] = s("calls", _prefix("fleet.router."))
    fleet = result.fleet or {}
    m["fleet.failed_ops"] = float(fleet.get("rejected", 0) + fleet.get("failed", 0)
                                  + fleet.get("timeouts", 0))

    for op in ("put_many", "get_many", "scan_many"):
        m[f"lsm.{op}.calls"] = s("calls", _exact(f"lsm.{op}"))
        m[f"lsm.{op}.self_s"] = s("self_s", _exact(f"lsm.{op}"))
    m["lsm.compaction.runs"] = s("calls", _exact("lsm.compaction.run"))
    m["lsm.compaction.self_s"] = s("self_s", _exact("lsm.compaction.run"))
    stores = [stack[5] for stack in stacks]
    m["lsm.compaction.bytes_rewritten"] = float(sum(
        st.executor.stats.bytes_written for st in stores
        if hasattr(st, "executor")))
    lsm = any(hasattr(st, "executor") for st in stores)
    m["lsm.wa_a"] = result.steady.wa_a if lsm and result.steady else 0.0
    m["lsm.bloom.probes"] = s("units", _prefix("lsm.bloom."))
    gets = result.kv_ops.get("gets", 0)
    m["lsm.reads_per_get"] = _ratio(fold.count_in_request(
        _exact("fs.pread"), _exact("lsm.get", "lsm.get_many")), gets) if lsm else 0.0
    m["lsm.self_s"] = s("self_s", _prefix("lsm."))

    for op in ("put", "get", "put_many", "get_many"):
        m[f"btree.{op}.calls"] = s("calls", _exact(f"btree.{op}"))
        m[f"btree.{op}.self_s"] = s("self_s", _exact(f"btree.{op}"))
    m["btree.pager.reads"] = s("calls", _exact("btree.pager.read"))
    m["btree.pager.writes"] = s("units", _prefix("btree.pager.write"))
    caches = [st.cache for st in stores if hasattr(st, "cache")]
    hits = sum(c.hits for c in caches)
    m["btree.cache.hit_rate"] = _ratio(hits, hits + sum(c.misses for c in caches))
    m["btree.reads_per_get"] = _ratio(fold.count_in_request(
        _exact("btree.pager.read"), _exact("btree.get", "btree.get_many")),
        gets) if caches else 0.0
    m["btree.self_s"] = s("self_s", _prefix("btree."))

    for op in ("append", "pwrite", "pread"):
        m[f"fs.{op}.calls"] = s("calls", _exact(f"fs.{op}"))
        m[f"fs.{op}.self_s"] = s("self_s", _exact(f"fs.{op}"))
    m["fs.allocator.calls"] = s("calls", _prefix("fs.allocator."))
    m["fs.allocator.self_s"] = s("self_s", _prefix("fs.allocator."))
    fs_writes = _exact("fs.append", "fs.pwrite")
    m["fs.pages_per_write_call"] = _ratio(
        under(_exact("block.write_pages", "block.write_range"), fs_writes, "units"),
        s("calls", fs_writes))
    m["fs.self_s"] = s("self_s", _prefix("fs."))

    for op in ("write_pages", "write_range", "read_range"):
        m[f"block.{op}.calls"] = s("calls", _exact(f"block.{op}"))
    m["block.self_s"] = s("self_s", _prefix("block."))
    m["block.pages_per_request"] = _ratio(s("units", _BLOCK_IO), s("calls", _BLOCK_IO))
    # Calls that reached the block layer without passing the
    # filesystem (e.g. the B+Tree pager's cached device ranges).
    m["block.uncovered_calls"] = s("calls", _BLOCK_IO) - under(_BLOCK_IO, _prefix("fs."))

    for kind, names in (("write", _SSD_WRITE), ("read", _SSD_READ)):
        m[f"flash.ssd.{kind}.calls"] = s("calls", names)
        m[f"flash.ssd.{kind}.self_s"] = s("self_s", names)
    ssd_io = lambda n: _SSD_WRITE(n) or _SSD_READ(n)  # noqa: E731
    # Pages that reached the SSD without passing the block layer (the
    # drive-state preconditioning writes the SSD directly).
    m["flash.ssd.uncovered_pages"] = s("units", ssd_io) - under(
        ssd_io, _prefix("block."), "units")
    m["flash.ftl.self_s"] = s("self_s", _prefix("flash.ftl."))
    smart = result.smart
    m["flash.gc.reclaims"] = float(smart["gc_reclaims"])
    m["flash.gc.pages_moved"] = float(smart["gc_pages_moved"])
    m["flash.gc.moved_per_reclaim"] = _ratio(smart["gc_pages_moved"],
                                             smart["gc_reclaims"])
    m["flash.wa_d"] = _ratio(smart["nand_bytes_written"], smart["host_bytes_written"])
    m["setup.self_s"] = s("self_s", _prefix("setup."))
    m["experiment.self_s"] = s("self_s", _exact("experiment.run"))
    m["ledger.spans"] = float(fold.nspans)
    return {name: m[name] for name, _ in PER_LAYER}


def conservation(fold: Fold, stacks: list, wall_s: float) -> list[str]:
    """The ledger's own checks; returns one message per violation.

    * Pages counted at the flash boundary equal the SMART host pages
      written and read (summed over the experiment's SSDs).
    * Pages counted at the block boundary plus the pages that bypassed
      it equal the flash-boundary pages (by construction of
      ``flash.ssd.uncovered_pages``, so only the first check can fail).
    * Per-span self times sum to the traced wall time (the root span,
      the benchmark's own ``run_experiment`` call).
    """
    problems = []
    ssds = [stack[1] for stack in stacks]
    page = ssds[0].page_size if ssds else 1
    smart_w = sum(ssd.smart.host_bytes_written for ssd in ssds) // page
    smart_r = sum(ssd.smart.host_bytes_read for ssd in ssds) // page
    flash_w = int(fold.sum("units", _SSD_WRITE))
    flash_r = int(fold.sum("units", _SSD_READ))
    if flash_w != smart_w:
        problems.append(f"flash-boundary pages written {flash_w} != SMART {smart_w}")
    if flash_r != smart_r:
        problems.append(f"flash-boundary pages read {flash_r} != SMART {smart_r}")
    if abs(fold.self_sum_s - wall_s) > 1e-9 * max(wall_s, 1.0):
        problems.append(f"self times sum to {fold.self_sum_s:.9f} s, "
                        f"traced wall is {wall_s:.9f} s")
    return problems
