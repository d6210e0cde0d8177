"""The LSM-tree key-value store (the RocksDB model).

Write path: WAL append (buffered) + memtable insert; a full memtable
becomes immutable and is flushed to L0 as background device work;
compactions keep the levels shaped.  The user thread is throttled only
through the write-stall model: when the device backlog (our proxy for
"compaction is behind") exceeds the soft limit, writes are delayed;
past the hard limit they wait for the backlog to drain — RocksDB's
slowdown/stop conditions.  This is what binds user throughput to
device bandwidth / (WA-A x WA-D) at steady state, producing the
dynamics of Fig 2a.

Read path: memtable, immutable memtables, L0 newest-to-oldest, then
one file per sorted level; bloom filters (memory-resident) gate the
data-block reads.

In event-driven mode (``attach_scheduler``, DESIGN.md §4.2) flushes
and compactions are not run inline: a memtable rotation enqueues a
background job that acquires the single background-worker resource,
flushes the oldest immutable memtable and then runs compactions one
picker round per event — device work lands on the timeline when the
"background thread" gets to it, and the write path only takes over
(flushing inline, RocksDB's stop condition) once too many immutable
memtables pile up.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left

import numpy as np

from repro.core.clock import VirtualClock
from repro.errors import ConfigError, NoSpaceError, StoreClosedError
from repro.flash.ssd import mean_write_backlog
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.api import KVStore, as_int_list
from repro.kv.stats import KVStats
from repro.kv.values import Value
from repro.lsm.compaction import CompactionExecutor, CompactionPicker
from repro.lsm.config import LSMConfig
from repro.lsm.memtable import KIND_DELETE, KIND_PUT, MemTable
from repro.lsm.sstable import split_into_tables
from repro.lsm.version import Version
from repro.lsm.wal import WriteAheadLog
from repro.obs.tracer import NULL_TRACER

class LSMStore(KVStore):
    """A leveled LSM tree over the simulated filesystem."""

    name = "lsm"

    def __init__(self, fs: ExtentFilesystem, clock: VirtualClock,
                 config: LSMConfig | None = None):
        self.fs = fs
        self.clock = clock
        self.config = config or LSMConfig()
        self._stats = KVStats()
        self._next_seq = 1  # global write sequence (int, so batches can reserve ranges)
        self._table_ids = itertools.count(1)
        self._wal_ids = itertools.count(1)
        self.version = Version(self.config)
        self.picker = CompactionPicker(self.config)
        self.executor = CompactionExecutor(self.fs, self.config,
                                           self._next_table_id)
        self.memtable = MemTable(self.config)
        self.wal = WriteAheadLog(self.fs, self.config, next(self._wal_ids)) \
            if self.config.wal_enabled else None
        self._immutables: list[tuple[MemTable, WriteAheadLog | None]] = []
        self._closed = False
        self.flushed_bytes = 0  # memtable flush traffic (part of WA-A)
        self.stall_seconds = 0.0  # cumulative write-stall time
        self.scheduler = None  # event-driven background work when attached
        self._bg_worker = None  # FIFO background-thread resource
        self.inline_takeovers = 0  # write-path flushes forced by pile-up
        self._replay_ssd = None  # memoized device resolution (False = n/a)
        # Cached batch-write constants per write kind (frozen config +
        # record geometry for the last-seen vlen; DESIGN.md §8).
        self._put_consts = None
        self._del_consts = None
        self.tracer = NULL_TRACER  # flight recorder (repro.obs)
        # Crash tracking (repro.faults): log_id -> ordered WAL records,
        # maintained only when enable_crash_tracking() was called.
        self._crash = None

    # ------------------------------------------------------------------
    # KVStore interface
    # ------------------------------------------------------------------
    def put(self, key: int, value: Value) -> float:
        """Insert/update a key."""
        self._ensure_open()
        tracer = self.tracer
        tr_on = tracer.enabled
        if tr_on:
            t0 = self.clock.now
            tracer.op_begin()
        latency = self.config.cpu_overhead
        if self.wal is not None:
            wal_latency = self.wal.append(self.config.key_bytes + value.length)
            latency += wal_latency
            if tr_on and wal_latency > 0.0:
                tracer.span("wal_append", "lsm", t0, wal_latency,
                            {"bytes": self.config.key_bytes + value.length})
            if self._crash is not None:
                self._crash.setdefault(self.wal.log_id, []).append(
                    (key, value.seed, value.length, KIND_PUT,
                     self.config.key_bytes + value.length
                     + self.config.wal_entry_overhead))
        seq = self._next_seq
        self._next_seq = seq + 1
        self.memtable.put(key, seq, value.seed, value.length)
        self._stats.puts += 1
        self._stats.user_bytes_written += self.config.key_bytes + value.length
        latency += self._after_write()
        if tr_on:
            tracer.op_end("update", t0, latency)
        self.clock.advance(latency)
        return latency

    def delete(self, key: int) -> float:
        """Write a tombstone for a key."""
        self._ensure_open()
        tracer = self.tracer
        tr_on = tracer.enabled
        if tr_on:
            t0 = self.clock.now
            tracer.op_begin()
        latency = self.config.cpu_overhead
        if self.wal is not None:
            wal_latency = self.wal.append(self.config.key_bytes)
            latency += wal_latency
            if tr_on and wal_latency > 0.0:
                tracer.span("wal_append", "lsm", t0, wal_latency,
                            {"bytes": self.config.key_bytes})
            if self._crash is not None:
                self._crash.setdefault(self.wal.log_id, []).append(
                    (key, 0, 0, KIND_DELETE,
                     self.config.key_bytes + self.config.wal_entry_overhead))
        seq = self._next_seq
        self._next_seq = seq + 1
        self.memtable.delete(key, seq)
        self._stats.deletes += 1
        self._stats.user_bytes_written += self.config.key_bytes
        latency += self._after_write()
        if tr_on:
            tracer.op_end("delete", t0, latency)
        self.clock.advance(latency)
        return latency

    def get(self, key: int) -> tuple[float, Value | None]:
        """Point lookup."""
        self._ensure_open()
        tracer = self.tracer
        tr_on = tracer.enabled
        if tr_on:
            t0 = self.clock.now
            tracer.op_begin()
        latency = self.config.cpu_overhead
        entry = self._find(key)
        value = None
        if entry is not None:
            read_latency, found = entry
            latency += read_latency
            value = found
        self._stats.gets += 1
        if value is not None:
            self._stats.user_bytes_read += self.config.key_bytes + value.length
        if tr_on:
            tracer.op_end("read", t0, latency)
        self.clock.advance(latency)
        return latency, value

    def scan(self, start_key: int, count: int) -> tuple[float, list[tuple[int, Value]]]:
        """Ordered range scan of up to *count* live pairs."""
        self._ensure_open()
        tracer = self.tracer
        tr_on = tracer.enabled
        if tr_on:
            t0 = self.clock.now
            tracer.op_begin()
        latency = self.config.cpu_overhead
        results: list[tuple[int, Value]] = []
        heap: list[tuple[int, int, int, object]] = []
        tie = itertools.count()

        def push(source) -> None:
            try:
                key, seq, vseed, vlen, kind = next(source)
            except StopIteration:
                return
            # Highest seq first within a key: invert seq for the heap.
            heapq.heappush(heap, (key, -seq, next(tie), (vseed, vlen, kind, source)))

        consumed: dict[object, list[int]] = {}
        for source in self._scan_sources(start_key, consumed):
            push(source)

        last_key = None
        while heap and len(results) < count:
            key, _negseq, _tie, (vseed, vlen, kind, source) = heapq.heappop(heap)
            push(source)
            if key == last_key:
                continue  # older version of an already-emitted key
            last_key = key
            if kind == KIND_PUT:
                results.append((key, Value(vseed, vlen)))
                self._stats.user_bytes_read += self.config.key_bytes + vlen

        latency += self._charge_scan_reads(consumed)
        self._stats.scans += 1
        if tr_on:
            tracer.op_end("scan", t0, latency)
        self.clock.advance(latency)
        return latency, results

    # ------------------------------------------------------------------
    # Batch API (bit-identical to the scalar loops; DESIGN.md §6)
    # ------------------------------------------------------------------
    def put_many(self, keys, vseeds, vlens, until: float | None = None,
                 latencies: list | None = None) -> int:
        """Batched puts: bulk memtable upsert + batched WAL accounting.

        Between device events (WAL write-outs, memtable rotations) a
        put's only side effects are pure accounting plus the write-stall
        penalty, so runs of ops are applied as one dict update while the
        clock/penalty recurrence is replayed op by op with the scalar
        path's exact arithmetic.  Ops that trigger device work go
        through the scalar :meth:`put` itself.
        """
        if not isinstance(vlens, int):
            return KVStore.put_many(self, keys, vseeds, vlens, until, latencies)
        return self._write_many(keys, vseeds, vlens, until, latencies, False)

    def delete_many(self, keys, until: float | None = None,
                    latencies: list | None = None) -> int:
        """Batched tombstones (see :meth:`put_many`)."""
        return self._write_many(keys, None, 0, until, latencies, True)

    def get_many(self, keys, until: float | None = None,
                 latencies: list | None = None) -> int:
        """Batched point lookups (DESIGN.md §7.3).

        Lookups never mutate the tree, so the active memtable is a
        loop invariant; each key then takes the per-op probe of
        :meth:`get` (memtable, immutables, L0 in order, one table per
        sorted level, bloom-gated) with the same latency arithmetic.
        """
        self._ensure_open()
        n = len(keys)
        if n == 0:
            return 0
        clock = self.clock
        cpu = self.config.cpu_overhead
        key_bytes = self.config.key_bytes
        stats = self._stats
        append = None if latencies is None else latencies.append
        keys_list = as_int_list(keys)
        memtable_get = self.memtable.get
        find = self._find
        tracer = self.tracer
        tr_on = tracer.enabled
        done = 0
        try:
            for i in range(n):
                key = keys_list[i]
                if tr_on:
                    t0 = clock.now
                    tracer.op_begin()
                read_latency = 0.0
                entry = memtable_get(key)
                if entry is not None:
                    # Memtable hit: no device work, constant CPU.
                    _seq, _vseed, vlen, kind = entry
                    if kind == KIND_PUT:
                        stats.user_bytes_read += key_bytes + vlen
                else:
                    found = find(key)
                    if found is not None:
                        read_latency, value = found
                        if value is not None:
                            stats.user_bytes_read += key_bytes + value.length
                latency = cpu + read_latency
                stats.gets += 1
                if tr_on:
                    tracer.op_end("read", t0, latency)
                clock.advance(latency)
                done += 1
                if append is not None:
                    append(latency)
                if until is not None and clock.now >= until:
                    break
        except NoSpaceError as exc:
            exc.ops_done = done
            raise
        return done

    def scan_many(self, start_keys, count: int, until: float | None = None,
                  latencies: list | None = None) -> int:
        """Batched range scans with cursor reuse (DESIGN.md §7.3).

        Scans never mutate the tree, so one ``scan_many`` call shares
        a single snapshot of the scan sources across all its scans:
        the memtables' key-ordered entry lists (built once, bisected
        per scan — the scalar path re-sorts a selection per scan) and
        the manifest's table list.  Each scan then replays the scalar
        merge exactly: same heap order, same per-source one-ahead
        pulls, same per-table consumed windows, same sequential reads
        charged in the same order.
        """
        self._ensure_open()
        n = len(start_keys)
        if n == 0:
            return 0
        clock = self.clock
        cpu = self.config.cpu_overhead
        stats = self._stats
        append = None if latencies is None else latencies.append
        keys_list = as_int_list(start_keys)
        tables = [table for _level, table in self.version.all_tables()]
        snapshots = [self.memtable.sorted_items()]
        for memtable, _wal in self._immutables:
            snapshots.append(memtable.sorted_items())
        tracer = self.tracer
        tr_on = tracer.enabled
        done = 0
        try:
            for i in range(n):
                if tr_on:
                    t0 = clock.now
                    tracer.op_begin()
                latency = cpu + self._scan_once(keys_list[i], count,
                                                snapshots, tables)
                stats.scans += 1
                if tr_on:
                    tracer.op_end("scan", t0, latency)
                clock.advance(latency)
                done += 1
                if append is not None:
                    append(latency)
                if until is not None and clock.now >= until:
                    break
        except NoSpaceError as exc:
            exc.ops_done = done
            raise
        return done

    def _scan_once(self, start_key: int, count: int,
                   snapshots: list, tables: list) -> float:
        """One scan over shared cursors; returns the charged read latency.

        Mirrors :meth:`scan`'s merge bit for bit: sources enter the
        heap in the same order, each pop immediately pulls the
        source's next entry (the one-ahead lookahead that defines the
        consumed windows), duplicate keys are suppressed newest-seq
        first, and the consumed windows are charged as one sequential
        read per table in source order.
        """
        heap: list = []
        tie = itertools.count()
        push = heapq.heappush
        for skeys, sitems in snapshots:
            pos = bisect_left(skeys, start_key)
            if pos < len(skeys):
                seq, _vseed, vlen, kind = sitems[pos]
                push(heap, (skeys[pos], -seq, next(tie),
                            (vlen, kind, (skeys, sitems, [pos + 1]))))
        consumed: list[tuple] = []
        for table in tables:
            if table.max_key < start_key:
                continue
            first = int(np.searchsorted(table.keys, start_key))
            window = [first, first]
            consumed.append((table, window))
            if first < table.nentries:
                window[1] = first + 1
                push(heap, (int(table.keys[first]), -int(table.seqs[first]),
                            next(tie), (int(table.vlens[first]),
                                        int(table.kinds[first]),
                                        (table, window))))
        key_bytes = self.config.key_bytes
        stats = self._stats
        last_key = None
        nresults = 0
        while heap and nresults < count:
            key, _negseq, _tie, (vlen, kind, source) = heapq.heappop(heap)
            if len(source) == 3:  # memtable cursor: (keys, items, [pos])
                skeys, sitems, cursor = source
                pos = cursor[0]
                if pos < len(skeys):
                    cursor[0] = pos + 1
                    seq, _vseed, nvlen, nkind = sitems[pos]
                    push(heap, (skeys[pos], -seq, next(tie),
                                (nvlen, nkind, source)))
            else:  # table cursor: (table, window)
                table, window = source
                idx = window[1]
                if idx < table.nentries:
                    window[1] = idx + 1
                    push(heap, (int(table.keys[idx]), -int(table.seqs[idx]),
                                next(tie), (int(table.vlens[idx]),
                                            int(table.kinds[idx]), source)))
            if key == last_key:
                continue  # older version of an already-emitted key
            last_key = key
            if kind == KIND_PUT:
                nresults += 1
                stats.user_bytes_read += key_bytes + vlen
        latency = 0.0
        for table, (first, end) in consumed:
            if end <= first:
                continue
            offset = int(table._offsets[first])
            nbytes = int(table._offsets[end]) - offset
            read_latency, _ = self.fs.pread(
                table.filename, offset, min(nbytes, table.data_bytes - offset))
            latency += read_latency
        return latency

    def _write_many(self, keys, vseeds, vlen: int, until: float | None,
                    latencies: list | None, delete: bool) -> int:
        """Shared batched write path for puts and deletes.

        Works in every driver mode (DESIGN.md §7.2): between device
        events a write's only side effects are pure accounting plus the
        stall penalty, and inside one batch call no other scheduler
        event can run, so the busy horizon — the scalar ``busy_until``
        or the per-channel ``write_busy`` vector — is a constant and
        the clock/penalty recurrence is replayed locally with the
        scalar path's exact arithmetic (step-local capture time
        accumulates advances identically since the §7 clock refactor).
        Ops that trigger device work (WAL write-out, memtable rotation)
        go through the scalar path, which also spawns the event-mode
        background jobs; an event-aware ``until`` then stops the batch
        right after them.
        """
        if self._closed:
            self._ensure_open()
        n = len(keys)
        if n == 0:
            return 0
        ssd = self._replay_ssd
        if ssd is None:
            ssd = self._resolve_replay_ssd()
        if ssd is False:
            if delete:
                return KVStore.delete_many(self, keys, until, latencies)
            return KVStore.put_many(self, keys, vseeds, vlen, until, latencies)

        # Per-call setup is hot at queue depth (interleaving cuts
        # segments down to a few ops), so everything derivable from the
        # frozen config *and the call shape* — including the per-record
        # sizes, which depend only on (delete, vlen) — is cached as one
        # tuple per write kind and re-derived only when vlen changes.
        consts = self._del_consts if delete else self._put_consts
        if consts is None or consts[0] != vlen:
            config = self.config
            key_bytes = config.key_bytes
            payload = key_bytes if delete else key_bytes + vlen
            consts = (
                vlen, config.cpu_overhead, config.backlog_soft_limit,
                config.backlog_hard_limit, config.slowdown_factor,
                key_bytes, config.memtable_bytes, config.wal_buffer_bytes,
                config.l0_stop_files, payload,
                key_bytes + config.entry_overhead + (0 if delete else vlen),
                payload + config.wal_entry_overhead,
            )
            if delete:
                self._del_consts = consts
            else:
                self._put_consts = consts
        (_, cpu, soft, hard, slowdown, key_bytes, memtable_bytes,
         wal_buffer_bytes, l0_stop_files, payload, entry_bytes,
         wal_record) = consts
        clock = self.clock
        stats = self._stats
        keys_list = keys if type(keys) is list else as_int_list(keys)
        seeds_list = None if vseeds is None else (
            vseeds if type(vseeds) is list else as_int_list(vseeds))
        tracer = self.tracer
        tr_on = tracer.enabled
        wkind = "delete" if delete else "update"

        if n == 1:
            # Single-op fast path — the shape the batched pool sends
            # while interleave-bound (DESIGN.md §8): a one-op call
            # returns after its op no matter what `until` says, so the
            # live-bound snapshot and the window scaffolding vanish,
            # and the capacity checks are two comparisons instead of
            # two divisions.  Arithmetic is the window loop's, term
            # for term.
            key = keys_list[0]
            wal = self.wal
            memtable = self.memtable
            if (wal is None or wal._buffered + wal_record < wal_buffer_bytes) \
                    and memtable.approximate_bytes + entry_bytes < memtable_bytes:
                capturing = clock._capturing
                now = clock._step_now if capturing else clock._now
                l0_stop = len(self.version.levels[0]) >= l0_stop_files
                channels = ssd._channels
                if channels is None:
                    backlog = ssd.scalar_busy_until - now
                    if backlog < 0.0:
                        backlog = 0.0
                else:
                    backlog = 0.0 if channels.write_max <= now \
                        else mean_write_backlog(channels.write_busy, now)
                if backlog > hard or l0_stop:
                    penalty = max(0.0, backlog - hard)
                    penalty += (hard - soft) * slowdown
                elif backlog > soft:
                    penalty = (backlog - soft) * slowdown
                else:
                    penalty = 0.0
                if penalty != 0.0:
                    self.stall_seconds += penalty
                latency = cpu + penalty
                if tr_on:
                    tracer.op_write(wkind, now, latency, penalty)
                seq = self._next_seq
                self._next_seq = seq + 1
                if delete:
                    memtable._entries[key] = (seq, 0, 0, KIND_DELETE)
                    stats.deletes += 1
                else:
                    memtable._entries[key] = (seq, seeds_list[0], vlen,
                                              KIND_PUT)
                    stats.puts += 1
                memtable.approximate_bytes += entry_bytes
                if wal is not None:
                    wal._buffered += wal_record
                    if self._crash is not None:
                        self._crash.setdefault(wal.log_id, []).append(
                            (key, 0 if delete else seeds_list[0],
                             0 if delete else vlen,
                             KIND_DELETE if delete else KIND_PUT, wal_record))
                stats.user_bytes_written += payload
                now += latency
                if capturing:
                    if now > clock._step_now:
                        clock._step_now = now
                elif now > clock._now:
                    clock._now = now
                if latencies is not None:
                    latencies.append(latency)
                return 1
            # Device-work boundary: the scalar path performs the WAL
            # write-out / rotation with exact semantics.
            try:
                if delete:
                    latency = self.delete(key)
                else:
                    latency = self.put(key, Value(seeds_list[0], vlen))
            except NoSpaceError as exc:
                exc.ops_done = 0
                raise
            if latencies is not None:
                latencies.append(latency)
            return 1

        append = None if latencies is None else latencies.append
        done = 0
        try:
            while done < n:
                cap = n - done
                wal = self.wal
                memtable = self.memtable
                if wal is not None:
                    # capacity_for, inlined (the next record past this
                    # cap triggers the buffered write-out).
                    wal_cap = (wal_buffer_bytes - 1 - wal._buffered) // wal_record
                    if wal_cap < cap:
                        cap = wal_cap
                mem_cap = (memtable_bytes - 1
                           - memtable.approximate_bytes) // entry_bytes
                if mem_cap < cap:
                    cap = mem_cap
                if cap <= 0:
                    # The next op triggers a WAL write-out or a memtable
                    # rotation: run it through the scalar path, which
                    # performs the device work with exact semantics.
                    if delete:
                        latency = self.delete(keys_list[done])
                    else:
                        latency = self.put(keys_list[done],
                                           Value(seeds_list[done], vlen))
                    done += 1
                    if append is not None:
                        append(latency)
                    if until is not None and clock.now >= until:
                        break
                    continue

                # Replay the scalar clock/stall recurrence locally: no
                # device work can occur inside this run, so the busy
                # horizon and the L0 stop condition are constants — and
                # the replay schedules no events, so a live until proxy
                # can be snapshotted to a plain float for the window.
                # The clock read/advance pair inlines the capture
                # protocol (shared with Scheduler.run; see
                # VirtualClock.begin_step).
                capturing = clock._capturing
                now = clock._step_now if capturing else clock._now
                if until is None or type(until) is float:
                    bound = until
                else:
                    bound = until.snapshot()
                l0_stop = len(self.version.levels[0]) >= l0_stop_files
                channels = ssd._channels
                if channels is None:
                    busy = ssd.scalar_busy_until
                    idle = busy <= now
                else:
                    write_busy = channels.write_busy
                    wmax = channels.write_max  # exact max(write_busy)
                    idle = wmax <= now
                took = 0
                if idle and not l0_stop:
                    # Zero backlog stays zero: per-op latency is the
                    # constant CPU cost (accumulated op by op, so float
                    # rounding matches the scalar path).
                    if bound is None and append is None and not tr_on:
                        for _ in range(cap):
                            now += cpu
                        took = cap
                    else:
                        for _ in range(cap):
                            if tr_on:
                                tracer.op_write(wkind, now, cpu, 0.0)
                            now += cpu
                            took += 1
                            if append is not None:
                                append(cpu)
                            if bound is not None and now >= bound:
                                break
                elif channels is None:
                    stall = self.stall_seconds
                    for _ in range(cap):
                        backlog = busy - now
                        if backlog < 0.0:
                            backlog = 0.0
                        if backlog > hard or l0_stop:
                            penalty = max(0.0, backlog - hard)
                            penalty += (hard - soft) * slowdown
                        elif backlog > soft:
                            penalty = (backlog - soft) * slowdown
                        else:
                            penalty = 0.0
                        stall += penalty
                        if tr_on:
                            tracer.op_write(wkind, now, cpu + penalty, penalty)
                        now += cpu + penalty
                        took += 1
                        if append is not None:
                            append(cpu + penalty)
                        if bound is not None and now >= bound:
                            break
                    self.stall_seconds = stall
                else:
                    # Channel mode: the stall input is the mean
                    # per-channel write backlog — the *same function*
                    # the device model uses (mean_write_backlog, shared
                    # with ChannelTimeline.backlog), so the two cannot
                    # drift.  Once the replay clock passes the max
                    # horizon every remaining term is an exact 0.0 and
                    # the sum is skipped outright.
                    stall = self.stall_seconds
                    for _ in range(cap):
                        backlog = 0.0 if now >= wmax \
                            else mean_write_backlog(write_busy, now)
                        if backlog > hard or l0_stop:
                            penalty = max(0.0, backlog - hard)
                            penalty += (hard - soft) * slowdown
                        elif backlog > soft:
                            penalty = (backlog - soft) * slowdown
                        else:
                            penalty = 0.0
                        stall += penalty
                        if tr_on:
                            tracer.op_write(wkind, now, cpu + penalty, penalty)
                        now += cpu + penalty
                        took += 1
                        if append is not None:
                            append(cpu + penalty)
                        if bound is not None and now >= bound:
                            break
                    self.stall_seconds = stall

                first_seq = self._next_seq
                self._next_seq = first_seq + took
                if delete:
                    if took == 1:
                        # memtable.delete, inlined with the entry size
                        # already in hand (the queue-depth hot path
                        # lands here once per interleaved op).
                        memtable._entries[keys_list[done]] = \
                            (first_seq, 0, 0, KIND_DELETE)
                        memtable.approximate_bytes += entry_bytes
                    else:
                        memtable.bulk_delete(keys_list[done:done + took],
                                             first_seq)
                    stats.deletes += took
                else:
                    if took == 1:
                        # memtable.put, inlined (see the delete branch).
                        memtable._entries[keys_list[done]] = \
                            (first_seq, seeds_list[done], vlen, KIND_PUT)
                        memtable.approximate_bytes += entry_bytes
                    else:
                        memtable.bulk_put(keys_list[done:done + took], first_seq,
                                          seeds_list[done:done + took], vlen)
                    stats.puts += took
                if wal is not None:
                    wal._buffered += took * wal_record  # bulk_append, inlined
                    if self._crash is not None:
                        crash_log = self._crash.setdefault(wal.log_id, [])
                        if delete:
                            for k in keys_list[done:done + took]:
                                crash_log.append((k, 0, 0, KIND_DELETE,
                                                  wal_record))
                        else:
                            for k, s in zip(keys_list[done:done + took],
                                            seeds_list[done:done + took]):
                                crash_log.append((k, s, vlen, KIND_PUT,
                                                  wal_record))
                stats.user_bytes_written += took * payload
                # clock.advance_to(now), inlined: `now` only grew from
                # the value read above, so the past-time guard is the
                # same comparison.
                if capturing:
                    if now > clock._step_now:
                        clock._step_now = now
                elif now > clock._now:
                    clock._now = now
                done += took
                # `now` is the clock after advance_to, so the boundary
                # check can reuse the local instead of re-reading it.
                if bound is not None and now >= bound:
                    break
        except NoSpaceError as exc:
            exc.ops_done = done
            raise
        return done

    def _resolve_replay_ssd(self):
        """Resolve and memoize the SSD behind the filesystem.

        Returns the SSD, or ``False`` when the write replay cannot
        apply (no SSD in the device stack, or it runs on a different
        clock — both fixed at construction time, so the verdict is
        cached for the per-op hot path).
        """
        device = self.fs.device
        while not hasattr(device, "ssd"):
            device = getattr(device, "parent", None)
            if device is None:
                self._replay_ssd = False
                return False
        ssd = device.ssd
        if ssd.clock is not self.clock:
            ssd = False
        self._replay_ssd = ssd
        return ssd

    def flush(self) -> None:
        """Flush the memtable and run compactions to completion."""
        self._ensure_open()
        if self.wal is not None:
            self.wal.sync()
        if len(self.memtable):
            self._rotate_memtable()
        self._flush_immutables()
        self._run_compactions()

    def close(self) -> None:
        """Flush everything and refuse further operations."""
        if self._closed:
            return
        self.flush()
        self._closed = True

    @property
    def stats(self) -> KVStats:
        """Cumulative application-level statistics."""
        return self._stats

    @property
    def disk_bytes_used(self) -> int:
        """Filesystem space occupied (the store owns its filesystem)."""
        return self.fs.used_bytes

    def attach_scheduler(self, scheduler) -> None:
        """Run flushes/compactions as scheduled background tasks."""
        from repro.sim.resources import Resource

        self.scheduler = scheduler
        self._bg_worker = Resource(scheduler, capacity=1, name="lsm-bg")

    # ------------------------------------------------------------------
    # Crash recovery (fault injection; DESIGN.md §11)
    # ------------------------------------------------------------------
    def enable_crash_tracking(self) -> None:
        """Record WAL records so :meth:`crash_and_recover` can replay.

        Tracking costs one dict append per write, so it is opt-in: the
        fleet enables it only for shards scheduled to be killed.
        """
        self._crash = {}

    def crash_and_recover(self) -> tuple[float, set[int]]:
        """Kill the store at the current instant and rebuild from disk.

        Volatile state — the active and immutable memtables plus every
        WAL's unwritten buffer tail — is discarded.  Recovery reads
        each live WAL file, replays its durable records (oldest log
        first, newest record winning per key) into a fresh memtable
        that is flushed to L0, then installs an empty memtable and a
        fresh WAL.  Returns ``(recovery_seconds, lost_keys)``:
        *lost_keys* are the keys whose newest write sat in a lost
        buffer tail, so their reads may now return an older durable
        version — exactly RocksDB's contract with unsynced WAL writes
        after a power cut.  The caller schedules the recovery time;
        the store does not advance the clock itself.
        """
        if self._crash is None:
            raise ConfigError(
                "crash_and_recover requires enable_crash_tracking() "
                "before the writes to be recovered")
        fs = self.fs
        live = list(self._immutables)
        live.append((self.memtable, self.wal))
        replay: list = []
        lost_status: dict[int, bool] = {}
        latency = 0.0
        for memtable, wal in live:
            if wal is None:
                # No WAL: the whole memtable was volatile.
                for key in memtable._entries:
                    lost_status[key] = True
                continue
            records = self._crash.get(wal.log_id, [])
            # The buffer tail never reached the device: walk back from
            # the end until the unwritten bytes are accounted for.
            buffered = wal._buffered
            cut = len(records)
            while buffered > 0 and cut > 0:
                cut -= 1
                buffered -= records[cut][4]
            for i, rec in enumerate(records):
                lost_status[rec[0]] = i >= cut
            replay.extend(records[:cut])
            size = fs.file_size(wal.filename)
            if size:
                read_latency, _ = fs.pread(wal.filename, 0, size)
                latency += read_latency
        # Drop the volatile state and the replayed logs.
        for _memtable, wal in live:
            if wal is not None:
                wal._buffered = 0
                wal.discard()
                self._crash.pop(wal.log_id, None)
        self._immutables = []
        rebuilt = MemTable(self.config)
        seq = self._next_seq
        for key, vseed, vlen, kind, _nbytes in replay:
            if kind == KIND_PUT:
                rebuilt.put(key, seq, vseed, vlen)
            else:
                rebuilt.delete(key, seq)
            seq += 1
        self._next_seq = seq
        latency += self.config.cpu_overhead * len(replay)
        if len(rebuilt):
            # Make the replayed state durable immediately (flush to
            # L0), so a second crash cannot lose it again.
            self._flush_one(rebuilt, None)
            self._run_compactions()
        self.memtable = MemTable(self.config)
        self.wal = WriteAheadLog(fs, self.config, next(self._wal_ids)) \
            if self.config.wal_enabled else None
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("crash_recover", "fault", {
                "replayed": len(replay),
                "lost_keys": sum(lost_status.values()),
                "seconds": latency,
            })
        lost = {key for key, is_lost in lost_status.items() if is_lost}
        return latency, lost

    # ------------------------------------------------------------------
    # Write-path internals
    # ------------------------------------------------------------------
    def _after_write(self) -> float:
        """Rotate/flush/compact as needed; return stall penalty."""
        if self.memtable.full:
            self._rotate_memtable()
            if self.scheduler is None:
                self._flush_inline()
            elif len(self._immutables) > self.config.max_immutable_memtables:
                # Too many immutables awaiting the background worker:
                # the write path stops and catches up inline.
                self.inline_takeovers += 1
                self._flush_inline()
            else:
                self.scheduler.spawn(self._background_job(), label="lsm-flush")
        return self._stall_penalty()

    def _flush_inline(self) -> None:
        """Flush + compact on the write path (no scheduler / takeover).

        The flush's device work is background work whose latency is
        *not* part of the triggering op's user-visible latency, so the
        op attribution context is suspended around it — its flash reads
        and writes show up as their own trace spans, never as op
        components (DESIGN.md §9.2).
        """
        tracer = self.tracer
        if tracer.enabled:
            tracer.op_suspend()
            try:
                self._flush_immutables()
                self._run_compactions()
            finally:
                tracer.op_resume()
        else:
            self._flush_immutables()
            self._run_compactions()

    def _rotate_memtable(self) -> None:
        self._immutables.append((self.memtable, self.wal))
        self.memtable = MemTable(self.config)
        if self.config.wal_enabled:
            self.wal = WriteAheadLog(self.fs, self.config, next(self._wal_ids))

    def _flush_immutables(self) -> None:
        while self._immutables:
            memtable, wal = self._immutables.pop(0)
            self._flush_one(memtable, wal)

    def _flush_one(self, memtable: MemTable, wal: WriteAheadLog | None) -> None:
        if wal is not None:
            wal.sync()
        arrays = memtable.sorted_arrays()
        if len(arrays[0]):
            before = self.flushed_bytes
            for table in split_into_tables(self._next_table_id, self.config, *arrays):
                self.fs.create(table.filename)
                self.fs.append(table.filename, table.data_bytes, background=True)
                self.flushed_bytes += table.data_bytes
                self.version.add(0, table)
            tracer = self.tracer
            if tracer.enabled:
                tracer.instant("memtable_flush", "lsm", {
                    "bytes": self.flushed_bytes - before,
                    "entries": len(arrays[0]),
                })
        if wal is not None:
            wal.discard()
            if self._crash is not None:
                self._crash.pop(wal.log_id, None)

    def _run_compactions(self) -> None:
        while (compaction := self.picker.pick(self.version)) is not None:
            self.executor.run(compaction, self.version)

    def _background_job(self):
        """One scheduled flush + follow-up compactions (event mode).

        The job queues on the background-worker resource (flushes and
        compactions serialize, like a one-thread RocksDB background
        pool) and yields between compaction rounds so each lands as its
        own event on the timeline.
        """
        yield self._bg_worker.request()
        try:
            if self._immutables:
                memtable, wal = self._immutables.pop(0)
                self._flush_one(memtable, wal)
            while (compaction := self.picker.pick(self.version)) is not None:
                self.executor.run(compaction, self.version)
                yield 0.0
        finally:
            self._bg_worker.release()

    def _stall_penalty(self) -> float:
        """RocksDB-style slowdown/stop based on device backlog."""
        backlog = self.fs.device.backlog_seconds()
        config = self.config
        penalty = 0.0
        if backlog > config.backlog_hard_limit or \
                len(self.version.levels[0]) >= config.l0_stop_files:
            penalty = max(0.0, backlog - config.backlog_hard_limit)
            penalty += (config.backlog_hard_limit - config.backlog_soft_limit) \
                * config.slowdown_factor
        elif backlog > config.backlog_soft_limit:
            penalty = (backlog - config.backlog_soft_limit) * config.slowdown_factor
        self.stall_seconds += penalty
        tracer = self.tracer
        if tracer.enabled and penalty > 0.0:
            tracer.add("write_stall", penalty)
            tracer.instant("write_stall", "lsm", {
                "backlog_s": backlog, "penalty_s": penalty,
                "l0_files": len(self.version.levels[0]),
            })
        return penalty

    # ------------------------------------------------------------------
    # Read-path internals
    # ------------------------------------------------------------------
    def _find(self, key: int) -> tuple[float, Value | None] | None:
        """Locate the newest version of *key*; None if unknown."""
        entry = self.memtable.get(key)
        if entry is not None:
            return 0.0, self._to_value(entry)
        for memtable, _wal in reversed(self._immutables):
            entry = memtable.get(key)
            if entry is not None:
                return 0.0, self._to_value(entry)
        latency = 0.0
        for table in self.version.levels[0]:
            if not table.may_contain(key):
                continue
            idx = table.find(key)
            latency += self._charge_block_read(table, max(idx, 0))
            if idx >= 0:
                return latency, self._entry_value(table, idx)
        for level in range(1, self.config.num_levels):
            table = self.version.find_table(level, key) if self.version.levels[level] else None
            if table is None or not table.may_contain(key):
                continue
            idx = table.find(key)
            latency += self._charge_block_read(table, max(idx, 0))
            if idx >= 0:
                return latency, self._entry_value(table, idx)
        return (latency, None) if latency else None

    def _charge_block_read(self, table, idx: int) -> float:
        offset, nbytes = table.read_extent(idx)
        read_latency, _ = self.fs.pread(table.filename, offset, nbytes)
        return read_latency

    def _entry_value(self, table, idx: int) -> Value | None:
        _key, _seq, vseed, vlen, kind = table.entry(idx)
        if kind == KIND_DELETE:
            return None
        return Value(vseed, vlen)

    @staticmethod
    def _to_value(entry: tuple[int, int, int, int]) -> Value | None:
        _seq, vseed, vlen, kind = entry
        if kind == KIND_DELETE:
            return None
        return Value(vseed, vlen)

    def _scan_sources(self, start_key: int, consumed: dict):
        """Iterators over every data source, each yielding
        (key, seq, vseed, vlen, kind) in key order."""

        def from_memtable(memtable: MemTable):
            def generate():
                for key, (seq, vseed, vlen, kind) in memtable.range_items(start_key):
                    yield key, seq, vseed, vlen, kind
            return generate()

        yield from_memtable(self.memtable)
        for memtable, _wal in self._immutables:
            yield from_memtable(memtable)

        def from_table(table):
            first = int(np.searchsorted(table.keys, start_key))
            window = [first, first]
            consumed[table] = window

            def generate():
                for idx in range(first, table.nentries):
                    window[1] = idx + 1
                    yield table.entry(idx)
            return generate()

        for _level, table in self.version.all_tables():
            if table.max_key >= start_key:
                yield from_table(table)

    def _charge_scan_reads(self, consumed: dict) -> float:
        """One sequential read per table for the entries a scan consumed."""
        latency = 0.0
        for table, (first, end) in consumed.items():
            if end <= first:
                continue
            offset = int(table._offsets[first])
            nbytes = int(table._offsets[end]) - offset
            read_latency, _ = self.fs.pread(table.filename, offset, min(nbytes, table.data_bytes - offset))
            latency += read_latency
        return latency

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _next_table_id(self) -> int:
        return next(self._table_ids)

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError("the LSM store is closed")

    def check_invariants(self) -> None:
        """Verify manifest and table consistency (test support)."""
        self.version.check_invariants()
        for _level, table in self.version.all_tables():
            table.check_invariants()
            assert self.fs.exists(table.filename)
            assert self.fs.file_size(table.filename) == table.data_bytes
