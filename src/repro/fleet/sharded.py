"""A router-fronted store over N independent shards (DESIGN.md §10.1).

:class:`ShardedStore` presents the :class:`~repro.kv.api.KVStore`
interface over a fleet of per-shard engine instances, each owning its
own SSD, filesystem and background work on the *shared* virtual clock.
Scalar ops route by key through the fleet's :class:`~repro.fleet.
router.Router`; the batch methods segment their inputs into maximal
consecutive same-shard runs and dispatch each run through the owning
shard's native batch path, preserving op order (and therefore clock
advancement, ``until`` semantics and ``ops_done`` accounting) exactly
as the inherited scalar loop would.  With one shard every call
delegates whole-batch to the only shard — which is what makes a
1-shard sharded store bit-identical to its bare store (pinned by tests).

:class:`FleetSSD` and :class:`FleetFilesystem` are the matching
read-side facades: they aggregate SMART counters and space accounting
across shards so :class:`~repro.core.metrics.MetricsCollector` (and
the experiment layer's peak-utilization bookkeeping) observe the fleet
as one device, unchanged.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import NoSpaceError
from repro.flash.smart import SmartAttributes
from repro.fleet.router import Router
from repro.kv.api import KVStore, as_int_list
from repro.kv.stats import KVStats
from repro.kv.values import Value


class ShardedStore(KVStore):
    """Routes every operation to the shard owning its key."""

    name = "sharded"

    def __init__(self, shards: Sequence[KVStore], router: Router, clock):
        self.shards = list(shards)
        self.router = router
        self.clock = clock

    # -- scalar ops (route by key) -------------------------------------
    def put(self, key: int, value: Value) -> float:
        return self.shards[self.router.shard_for(key)].put(key, value)

    def get(self, key: int):
        return self.shards[self.router.shard_for(key)].get(key)

    def delete(self, key: int) -> float:
        return self.shards[self.router.shard_for(key)].delete(key)

    def scan(self, start_key: int, count: int):
        # Scans are shard-local: they route by start key and return
        # that shard's key range only (a fleet-global merge would serve
        # no measurement purpose — the paper's scan cost model is
        # per-structure, and cross-shard fan-out would need its own
        # latency model to mean anything).
        return self.shards[self.router.shard_for(start_key)].scan(start_key, count)

    # -- batch ops (segment into consecutive same-shard runs) ----------
    def _run_batches(self, keys, dispatch, until, latencies):
        """Shared batch driver: same-shard segments, in input order."""
        keys = as_int_list(keys)
        n = len(keys)
        clock = self.clock
        shard_for = self.router.shard_for
        done = 0
        i = 0
        try:
            while i < n:
                shard = shard_for(keys[i])
                j = i + 1
                while j < n and shard_for(keys[j]) == shard:
                    j += 1
                took = dispatch(self.shards[shard], keys, i, j,
                                until, latencies)
                done += took
                if took < j - i:
                    break  # the shard call stopped at `until`
                if until is not None and clock.now >= until:
                    break
                i = j
        except NoSpaceError as exc:
            exc.ops_done = done + getattr(exc, "ops_done", 0)
            raise
        return done

    def put_many(self, keys, vseeds, vlens, until=None, latencies=None):
        vseeds = as_int_list(vseeds)
        scalar_vlen = isinstance(vlens, int)

        def dispatch(shard, keys, i, j, until, latencies):
            vl = vlens if scalar_vlen else vlens[i:j]
            return shard.put_many(keys[i:j], vseeds[i:j], vl, until, latencies)

        return self._run_batches(keys, dispatch, until, latencies)

    def get_many(self, keys, until=None, latencies=None):
        def dispatch(shard, keys, i, j, until, latencies):
            return shard.get_many(keys[i:j], until, latencies)

        return self._run_batches(keys, dispatch, until, latencies)

    def delete_many(self, keys, until=None, latencies=None):
        def dispatch(shard, keys, i, j, until, latencies):
            return shard.delete_many(keys[i:j], until, latencies)

        return self._run_batches(keys, dispatch, until, latencies)

    def scan_many(self, start_keys, count, until=None, latencies=None):
        def dispatch(shard, keys, i, j, until, latencies):
            return shard.scan_many(keys[i:j], count, until, latencies)

        return self._run_batches(start_keys, dispatch, until, latencies)

    # -- lifecycle / accounting (fan out) ------------------------------
    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

    def attach_scheduler(self, scheduler) -> None:
        for shard in self.shards:
            shard.attach_scheduler(scheduler)

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    @property
    def stats(self) -> KVStats:
        total = KVStats()
        for shard in self.shards:
            s = shard.stats
            total.puts += s.puts
            total.gets += s.gets
            total.deletes += s.deletes
            total.scans += s.scans
            total.user_bytes_written += s.user_bytes_written
            total.user_bytes_read += s.user_bytes_read
        return total

    @property
    def disk_bytes_used(self) -> int:
        return sum(shard.disk_bytes_used for shard in self.shards)


class FleetSSD:
    """SMART/lifecycle facade summing over the shards' SSDs."""

    def __init__(self, ssds: Sequence):
        self.ssds = list(ssds)

    @property
    def smart(self) -> SmartAttributes:
        total = SmartAttributes()
        for ssd in self.ssds:
            for name, value in ssd.smart.as_dict().items():
                setattr(total, name, getattr(total, name) + value)
        return total

    def enable_channel_timing(self) -> None:
        for ssd in self.ssds:
            ssd.enable_channel_timing()

    def drain(self) -> float:
        return max((ssd.drain() for ssd in self.ssds), default=0.0)


class _FleetAllocator:
    """Aggregated allocator view (peak pages / total pages)."""

    def __init__(self, filesystems):
        self._filesystems = filesystems

    @property
    def peak_used_pages(self) -> int:
        # Per-shard peaks need not be simultaneous; the sum is the
        # standard conservative fleet peak (documented in DESIGN §10.3).
        return sum(fs.allocator.peak_used_pages for fs in self._filesystems)

    @property
    def npages(self) -> int:
        return sum(fs.allocator.npages for fs in self._filesystems)


class FleetFilesystem:
    """Space-accounting facade summing over the shards' filesystems."""

    def __init__(self, filesystems: Sequence):
        self.filesystems = list(filesystems)
        self.allocator = _FleetAllocator(self.filesystems)

    @property
    def used_bytes(self) -> int:
        return sum(fs.used_bytes for fs in self.filesystems)

    @property
    def peak_used_bytes(self) -> int:
        return sum(fs.peak_used_bytes for fs in self.filesystems)

    def utilization(self) -> float:
        used = sum(fs.used_pages for fs in self.filesystems)
        total = sum(fs.allocator.npages for fs in self.filesystems)
        return used / total if total else 0.0
