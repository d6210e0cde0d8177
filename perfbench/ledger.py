"""Outside-in span ledger: wraps the public entry points of each layer.

The ledger patches public functions and methods of the simulator's
layer classes from outside the program (``install`` / ``uninstall``),
so the program itself carries no tracing code.  Every wrapped call
records one span: name, start, end, parent span and request id.  All
spans under one driver→engine call share that call's request id.

Spans live in flat typed arrays (about 40 bytes each) and are folded
into per-layer counts and self times only when the run ends.  A span's
self time is its duration minus the time its child spans cover; since
the simulator is single-threaded, children nest strictly inside their
parent, so the covered time is the sum of the children's durations.

A wrapped class or function that no longer exists (a later change may
delete a kernel twin or merge drivers) is recorded as *absent*; its
metrics read 0 and the run goes on.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

#: Span-name prefixes of the engine tier.  A span with one of these
#: prefixes whose parent is not itself an engine span starts a new
#: request: it and every span beneath it share one request id.
ENGINE_PREFIXES = ("lsm.", "btree.", "fleet.store.")


def _len_arg1(args, kwargs, result) -> int:
    return len(args[1])


def _npages_arg2(args, kwargs, result) -> int:
    npages = args[2] if len(args) > 2 else kwargs["npages"]
    return max(0, int(npages))


def _driver_ops(args, kwargs, result) -> int:
    """Ops a driver call completed (its outcome's ``ops_issued``)."""
    return int(result.ops_issued)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:owner.attr`` → span ``name``.

    ``owners`` lists alternative class names (e.g. the array and scalar
    allocator kernels); every one that exists is wrapped.  ``owners``
    empty means ``attr`` is a module-level function.  ``units`` extracts
    a per-call work count (pages, keys, ops) from the call.
    """

    name: str
    module: str
    owners: tuple[str, ...]
    attr: str
    units: Callable | None = None


def _methods(prefix, module, owners, attrs, units=None):
    owners = (owners,) if isinstance(owners, str) else tuple(owners)
    return [Target(f"{prefix}.{attr}", module, owners, attr,
                   (units or {}).get(attr)) for attr in attrs]


_KV = ("put", "get", "delete", "scan", "put_many", "get_many",
       "delete_many", "scan_many", "flush")
_KEYS = {m: _len_arg1 for m in ("put_many", "get_many", "delete_many",
                                "scan_many")}
_PAGES = {"write_pages": _len_arg1, "write_range": _npages_arg2,
          "read_range": _npages_arg2}

#: Every wrapped entry point, outermost layer first (DESIGN.md §1).
TARGETS: list[Target] = [
    Target("setup.build_stack", "repro.core.experiment", (), "build_stack"),
    Target("workload.load_sequential", "repro.core.experiment", (),
           "load_sequential", _driver_ops),
    Target("workload.run_workload", "repro.core.experiment", (),
           "run_workload", _driver_ops),
    Target("sim.run", "repro.sim.clients", ("ClientPool",), "run",
           _driver_ops),
    Target("fleet.run", "repro.fleet.pool", ("FleetPool",), "run",
           _driver_ops),
    *_methods("fleet.router", "repro.fleet.router",
              ("HashRouter", "RangeRouter"), ("shard_for", "shards_for")),
    *_methods("fleet.store", "repro.fleet.sharded", "ShardedStore", _KV,
              _KEYS),
    *_methods("lsm", "repro.lsm.store", "LSMStore", _KV, _KEYS),
    Target("lsm.compaction.run", "repro.lsm.compaction",
           ("CompactionExecutor",), "run"),
    Target("lsm.bloom.may_contain", "repro.lsm.bloom", ("BloomFilter",),
           "may_contain", lambda a, k, r: 1),
    Target("lsm.bloom.may_contain_many", "repro.lsm.bloom", ("BloomFilter",),
           "may_contain_many", _len_arg1),
    Target("lsm.bloom.may_contain_hashed", "repro.lsm.bloom",
           ("BloomFilter",), "may_contain_hashed", _len_arg1),
    *_methods("btree", "repro.btree.store", "BTreeStore", _KV, _KEYS),
    Target("btree.pager.read", "repro.btree.pager", ("Pager",), "read",
           lambda a, k, r: 1),
    Target("btree.pager.write_new", "repro.btree.pager", ("Pager",),
           "write_new", lambda a, k, r: 1),
    Target("btree.pager.write_at", "repro.btree.pager", ("Pager",),
           "write_at", lambda a, k, r: 1),
    Target("btree.pager.write_slots", "repro.btree.pager", ("Pager",),
           "write_slots", _len_arg1),
    *_methods("fs", "repro.fs.filesystem", "ExtentFilesystem",
              ("create", "delete", "append", "reserve", "pwrite", "pread")),
    *_methods("fs.allocator", "repro.fs.allocator",
              ("ArrayExtentAllocator", "ScalarExtentAllocator"),
              ("alloc", "free", "free_many")),
    *_methods("block", "repro.block.device", "BlockDevice",
              ("write_pages", "write_range", "read_range", "trim_range"),
              _PAGES),
    *_methods("flash.ssd", "repro.flash.ssd", "SSD",
              ("write_pages", "write_range", "read_range", "trim_range"),
              _PAGES),
    *_methods("flash.ftl", "repro.flash.ftl", "FlashTranslationLayer",
              ("write_pages", "write_range", "read_range", "trim_range")),
]


class Ledger:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, targets: list[Target] | None = None):
        self.targets = TARGETS if targets is None else targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._engine = array("b")  # per name id: engine-tier span?
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.reset()

    # -- span store ------------------------------------------------------
    def reset(self) -> None:
        """Drop all recorded spans (wrappers stay installed)."""
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("q")
        self._stack: list[int] = []
        self._next_req = 0

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._engine.append(name.startswith(ENGINE_PREFIXES))
        return nid

    def wrap(self, fn: Callable, name: str, units: Callable | None = None):
        """Return *fn* wrapped so each call records one span."""
        nid = self._name_id(name)
        engine = bool(self._engine[nid])
        ledger = self

        def traced(*args, **kwargs):
            i = len(ledger.name)
            stack = ledger._stack
            parent = stack[-1] if stack else -1
            if engine and (parent < 0 or not ledger._engine[ledger.name[parent]]):
                req = ledger._next_req
                ledger._next_req += 1
            else:
                req = ledger.req[parent] if parent >= 0 else -1
            ledger.name.append(nid)
            ledger.parent.append(parent)
            ledger.req.append(req)
            ledger.units.append(0)
            ledger.end.append(0.0)
            stack.append(i)
            ledger.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger.end[i] = perf_counter()
                stack.pop()
            if units is not None:
                ledger.units[i] = units(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside one span named *name*."""
        return self.wrap(fn, name)(*args, **kwargs)

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        if self._patches:
            raise RuntimeError("ledger already installed")
        self.absent = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(target.name)
                continue
            owners = [getattr(module, o, None) for o in target.owners] \
                if target.owners else [module]
            found = False
            for owner in owners:
                if owner is None:
                    continue
                fn = getattr(owner, target.attr, None)
                if fn is None or not callable(fn) or \
                        inspect.isgeneratorfunction(fn):
                    continue
                own = target.attr in vars(owner)
                self._patches.append((owner, target.attr, vars(owner).get(target.attr), own))
                setattr(owner, target.attr, self.wrap(fn, target.name, target.units))
                found = True
            if not found:
                self.absent.append(target.name)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- folding -----------------------------------------------------------
    def fold(self) -> "Fold":
        """Per-span-name totals of the spans recorded so far."""
        return Fold(self)


class Fold:
    """Vectorised per-name aggregates over a ledger's spans."""

    def __init__(self, ledger: Ledger):
        self.names = list(ledger.names)
        n = len(self.names)
        name = np.array(ledger.name, dtype=np.int32)
        parent = np.array(ledger.parent, dtype=np.int32)
        req = np.array(ledger.req, dtype=np.int32)
        units = np.array(ledger.units, dtype=np.int64)
        dur = np.array(ledger.end, dtype=np.float64) - np.array(ledger.start,
                                                                  dtype=np.float64)
        self.nspans = int(name.size)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=name.size)
        self_time = dur - covered
        self.calls = np.bincount(name, minlength=n)
        self.self_s = np.bincount(name, weights=self_time, minlength=n)
        self.total_s = np.bincount(name, weights=dur, minlength=n)
        self.units = np.bincount(name, weights=units, minlength=n).astype(np.int64)
        self.root_s = float(dur[~has_parent].sum())
        self.self_sum_s = float(self_time.sum())
        # The parent name of every span (-1 at the roots) and the name
        # of the request root each span belongs to.
        pname = np.full(name.size, -1, dtype=np.int64)
        pname[has_parent] = name[parent[has_parent]]
        self._name, self._pname, self._units = name, pname, units
        # A request's first span is its root: children start later.
        root_name = np.full(ledger._next_req, -1, dtype=np.int64)
        live = np.flatnonzero(req >= 0)
        if live.size:
            first = live[np.unique(req[live], return_index=True)[1]]
            root_name[req[first]] = name[first]
        self._req = req
        self._root_name = root_name

    def _ids(self, pattern: Callable[[str], bool]) -> np.ndarray:
        return np.array([i for i, s in enumerate(self.names) if pattern(s)],
                        dtype=np.int64)

    def sum(self, what: str, pattern: Callable[[str], bool]) -> float:
        """Sum *what* (calls/self_s/total_s/units) over matching names."""
        ids = self._ids(pattern)
        return float(getattr(self, what)[ids].sum()) if ids.size else 0.0

    def count_under(self, child: Callable[[str], bool],
                    parent: Callable[[str], bool], what: str = "calls") -> float:
        """Calls (or units) of *child* spans whose direct parent matches."""
        cids, pids = self._ids(child), self._ids(parent)
        if not cids.size or not pids.size:
            return 0.0
        mask = np.isin(self._name, cids) & np.isin(self._pname, pids)
        return float(mask.sum() if what == "calls" else self._units[mask].sum())

    def count_in_request(self, child: Callable[[str], bool],
                         root: Callable[[str], bool]) -> float:
        """Calls of *child* spans inside requests whose root matches."""
        cids, rids = self._ids(child), self._ids(root)
        if not cids.size or not rids.size or not self._root_name.size:
            return 0.0
        mask = np.isin(self._name, cids) & (self._req >= 0)
        roots = self._root_name[self._req[mask]]
        return float(np.isin(roots, rids).sum())
