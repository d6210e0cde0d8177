"""Drives a key-value store with a workload on the virtual clock.

The runner is the paper's single user thread (§3.2): operations are
issued in order, each advancing the virtual clock by its latency, and
a sampling callback fires at a fixed virtual-time interval so metrics
become a time series (the paper's 10-minute averages map to our
sampling windows; see DESIGN.md §2).

Batched execution (DESIGN.md §6): by default keys and op types are
drawn with one RNG call per ``CHECK_EVERY`` window and dispatched as
runs through the engines' batch API (``put_many`` & co.).  The window
draw and run segmentation live in the shared batch planner
(:class:`repro.workload.plan.BatchPlanner`, DESIGN.md §7): the key and
op-draw substreams are independent generators and numpy's bulk draws
consume them exactly like the equivalent scalar draws, so the batched
driver issues a bit-identical op stream, clock, and metrics to the
seed's one-op-at-a-time loop (``batch=False``, kept as the equivalence
oracle).  Sampling stays exact because batch calls stop at the
``until`` boundary — right after the op that crosses it, where the
scalar loop would have fired the callback.

Multi-client workloads are driven by :class:`repro.sim.clients.
ClientPool` on the discrete-event scheduler (DESIGN.md §4); it
consumes the same planner (or :func:`issue_one_op`, its scalar
oracle), so a one-client pool issues the exact operation stream of
this runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import rng as rng_mod
from repro.errors import ConfigError, NoSpaceError
from repro.kv.api import KVStore
from repro.kv.values import seeds_for, value_for
from repro.workload.keys import KeyChooser, make_chooser
from repro.workload.plan import (READ, SCAN, UPDATE, BatchPlanner, draw_op,
                                 update_seeds)
from repro.workload.spec import WorkloadSpec


#: How often (in completed ops) drivers re-evaluate ``stop_when``.
#: Shared with the client pool so both drivers stop at the same op
#: counts (part of the bit-identical seed-compatibility contract).
#: It is also the batched driver's generation window: keys/op-draws
#: are drawn once per window, so the stop checks land on the same op
#: counts in both drivers.
CHECK_EVERY = 64

#: Keys ingested per batch call during the sequential load phase.
LOAD_CHUNK = 4096


@dataclass
class RunOutcome:
    """What happened during a (partial) workload run."""

    ops_issued: int = 0
    out_of_space: bool = False
    load_seconds: float = 0.0


def load_sequential(store: KVStore, spec: WorkloadSpec,
                    batch: bool = True) -> RunOutcome:
    """Ingest all keys in sequential order (the paper's load phase).

    ``batch=True`` (default) ingests through the engines' ``put_many``
    in :data:`LOAD_CHUNK` slices — bit-identical to the scalar loop,
    which ``batch=False`` preserves as the equivalence oracle.
    """
    outcome = RunOutcome()
    start = store.clock.now
    try:
        if batch:
            vlen = spec.value_bytes
            for lo in range(0, spec.nkeys, LOAD_CHUNK):
                keys = np.arange(lo, min(spec.nkeys, lo + LOAD_CHUNK),
                                 dtype=np.int64)
                outcome.ops_issued += store.put_many(keys, seeds_for(keys, 0), vlen)
        else:
            for key in range(spec.nkeys):
                store.put(key, value_for(key, 0, spec.value_bytes))
                outcome.ops_issued += 1
        store.flush()
    except NoSpaceError as exc:
        outcome.ops_issued += getattr(exc, "ops_done", 0)
        outcome.out_of_space = True
    outcome.load_seconds = store.clock.now - start
    return outcome


def validate_sampling(sample_interval: float | None,
                      on_sample: Callable[[], None] | None) -> None:
    """Fail fast on inconsistent sampling arguments.

    ``sample_interval`` without ``on_sample`` used to surface as a
    ``TypeError`` mid-run at the first boundary; both mismatches are
    rejected at call time instead.
    """
    if (sample_interval is None) != (on_sample is None):
        raise ConfigError(
            "sample_interval and on_sample must be passed together "
            f"(got sample_interval={sample_interval!r}, "
            f"on_sample={'set' if on_sample else None!r})"
        )
    if sample_interval is not None and sample_interval <= 0:
        raise ConfigError("sample_interval must be positive")


def apply_op(
    store: KVStore,
    spec: WorkloadSpec,
    kind: int,
    key: int,
    version: int,
) -> tuple[int, float]:
    """Execute one already-drawn operation; returns (version, latency).

    The execution half of the shared op-issue path (the drawing half is
    :func:`repro.workload.plan.draw_op`): every scalar driver — the
    inline runner, the closed-loop client pool, and the open-loop fleet
    sources — lands here, so an op of a given kind always touches the
    store the same way.  The returned latency is the op's user-visible
    latency, the same value the engines append into a batch call's
    ``latencies`` sink — so scalar- and batch-driven latency series are
    bit-identical.
    """
    if kind == READ:
        latency, _value = store.get(key)
    elif kind == SCAN:
        latency, _pairs = store.scan(key, spec.scan_length)
    elif kind == UPDATE:
        latency = store.put(key, value_for(key, version, spec.value_bytes))
        version += 1
    else:  # DELETE
        latency = store.delete(key)
    return version, latency


def issue_one_op(
    store: KVStore,
    spec: WorkloadSpec,
    chooser: KeyChooser,
    op_rng: np.random.Generator,
    version: int,
) -> tuple[int, float]:
    """Issue one operation of *spec*; returns (next version, latency).

    Composition of the shared draw (:func:`~repro.workload.plan.
    draw_op`) and execute (:func:`apply_op`) halves; kept as the scalar
    oracle the batched drivers are pinned against.
    """
    kind, key = draw_op(spec, chooser, op_rng)
    return apply_op(store, spec, kind, key, version)


def run_workload(
    store: KVStore,
    spec: WorkloadSpec,
    seed: int = rng_mod.DEFAULT_SEED,
    stop_when: Callable[[], bool] = lambda: False,
    sample_interval: float | None = None,
    on_sample: Callable[[], None] | None = None,
    max_ops: int | None = None,
    batch: bool = True,
) -> RunOutcome:
    """Run the measured phase until *stop_when* (or *max_ops*).

    ``on_sample`` fires whenever the virtual clock crosses a sampling
    boundary.  Returns the run outcome; an out-of-space condition ends
    the run and is reported rather than raised (the paper reports
    RocksDB running out of space for large datasets, §4.4).

    ``batch=False`` selects the seed's one-op-at-a-time loop; the
    default batched driver is bit-identical to it (module docstring).
    """
    validate_sampling(sample_interval, on_sample)
    clock = store.clock
    key_rng = rng_mod.substream(seed, "workload-keys")
    op_rng = rng_mod.substream(seed, "workload-ops")
    chooser = make_chooser(spec.distribution, spec.nkeys, key_rng)
    outcome = RunOutcome()
    version = 1
    next_sample = clock.now + sample_interval if sample_interval else None

    if not batch:
        try:
            while True:
                if max_ops is not None and outcome.ops_issued >= max_ops:
                    break
                if outcome.ops_issued % CHECK_EVERY == 0 and stop_when():
                    break
                version, _latency = issue_one_op(store, spec, chooser,
                                                 op_rng, version)
                outcome.ops_issued += 1
                next_sample = _after_op_sample(clock, next_sample,
                                               sample_interval, on_sample)
        except NoSpaceError:
            outcome.out_of_space = True
        return outcome

    # Batched driver: the shared planner draws one RNG window per
    # CHECK_EVERY ops and segments it into runs of same-type ops,
    # dispatched through the store's batch API.
    planner = BatchPlanner(spec, chooser, op_rng)
    vlen = spec.value_bytes
    scan_length = spec.scan_length
    try:
        while True:
            if max_ops is not None and outcome.ops_issued >= max_ops:
                break
            if outcome.ops_issued % CHECK_EVERY == 0 and stop_when():
                break
            n = CHECK_EVERY
            if max_ops is not None:
                n = min(n, max_ops - outcome.ops_issued)
            for run in planner.plan(n):
                nrun = len(run)
                if run.kind == UPDATE:
                    run_keys = run.keys
                    run_seeds = update_seeds(run_keys, version)
                    offset = 0
                    while offset < nrun:
                        took = store.put_many(run_keys[offset:], run_seeds[offset:],
                                              vlen, until=next_sample)
                        version += took
                        offset += took
                        outcome.ops_issued += took
                        next_sample = _after_op_sample(clock, next_sample,
                                                       sample_interval, on_sample)
                elif run.kind == READ:
                    offset = 0
                    while offset < nrun:
                        took = store.get_many(run.keys[offset:], until=next_sample)
                        offset += took
                        outcome.ops_issued += took
                        next_sample = _after_op_sample(clock, next_sample,
                                                       sample_interval, on_sample)
                elif run.kind == SCAN:
                    offset = 0
                    while offset < nrun:
                        took = store.scan_many(run.keys[offset:], scan_length,
                                               until=next_sample)
                        offset += took
                        outcome.ops_issued += took
                        next_sample = _after_op_sample(clock, next_sample,
                                                       sample_interval, on_sample)
                else:  # DELETE run
                    offset = 0
                    while offset < nrun:
                        took = store.delete_many(run.keys[offset:], until=next_sample)
                        offset += took
                        outcome.ops_issued += took
                        next_sample = _after_op_sample(clock, next_sample,
                                                       sample_interval, on_sample)
    except NoSpaceError as exc:
        outcome.ops_issued += getattr(exc, "ops_done", 0)
        outcome.out_of_space = True
    return outcome


def _after_op_sample(clock, next_sample, sample_interval, on_sample):
    """The per-op boundary check both drivers share.

    Fires ``on_sample`` when the clock reached the boundary and returns
    the next one.  Batch calls return control right after the crossing
    op (their ``until`` contract), so the callback observes the same
    store state as in the scalar loop.
    """
    if next_sample is not None and clock.now >= next_sample:
        on_sample()
        next_sample += sample_interval
        if next_sample <= clock.now:
            # A stall carried the clock past several boundaries;
            # resynchronize instead of firing empty windows.
            next_sample = clock.now + sample_interval
    return next_sample
