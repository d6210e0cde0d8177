"""LSM batched read edge cases: heap scan merge and per-op probes.

Two stores receive the identical write history; one serves each read
batch through ``scan_many`` / ``get_many``, the other through the
per-op ``scan`` / ``get`` loop.  Per-op latencies, stats counters and
the virtual clock must match exactly (``==``, no tolerance), and the
bytes a batch reports as read must equal a plain-dict model's answer.
The edge cases kept from the retired array merge (keys and sequence
numbers beyond its packing range, tombstone pile-ups, exhausted
sources, zero-count scans) now run against the heap merge.
"""

from __future__ import annotations

from repro.block.device import BlockDevice
from repro.core.clock import VirtualClock
from repro.flash.ssd import SSD
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.values import Value
from repro.lsm.config import LSMConfig
from repro.lsm.store import LSMStore
from repro.rng import substream
from tests.conftest import make_tiny_config

#: Keys from here up did not fit the retired scan-composite packing.
HUGE_KEY = 1 << 22


def make_store(**config_overrides) -> LSMStore:
    clock = VirtualClock()
    ssd = SSD(make_tiny_config(nblocks=128), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    params = dict(
        memtable_bytes=8 * 1024,
        max_bytes_for_level_base=16 * 1024,
        target_file_bytes=8 * 1024,
    )
    params.update(config_overrides)
    return LSMStore(fs, clock, LSMConfig(**params))


def make_pair(**config_overrides) -> tuple[LSMStore, LSMStore]:
    return make_store(**config_overrides), make_store(**config_overrides)


def populate(stores, nkeys: int = 400, seed: int = 17,
             key_of=lambda i: i) -> dict[int, int]:
    """Identical multi-level write history on every store; returns the
    model (key -> live value length)."""
    rng = substream(seed, "scan-kernel")
    keys = [key_of(int(k)) for k in rng.integers(0, nkeys, size=900)]
    model: dict[int, int] = {}
    for i, key in enumerate(keys):
        for store in stores:
            if i % 11 == 10:
                store.delete(key)
            else:
                store.put(key, Value(key * 7 + i, 40 + (i % 5)))
        if i % 11 == 10:
            model.pop(key, None)
        else:
            model[key] = 40 + (i % 5)
    # The history crossed several memtable rotations, so reads see
    # memtable + immutables + multiple levels.
    assert stores[0].version.total_files > 1
    return model


def state(store: LSMStore) -> tuple:
    stats = store._stats
    return (store.clock.now, stats.user_bytes_read, stats.gets, stats.scans,
            store.fs.device.ssd.smart.host_bytes_read)


def scan_bytes(store: LSMStore, model: dict, start_keys, count) -> int:
    """Bytes the model says a scan batch returns."""
    key_bytes = store.config.key_bytes
    live = sorted(model)
    total = 0
    for start in start_keys:
        hits = [k for k in live if k >= start][:max(count, 0)]
        total += sum(key_bytes + model[k] for k in hits)
    return total


def assert_scans_identical(batched, single, start_keys, count,
                           model: dict | None = None) -> None:
    before = batched._stats.user_bytes_read
    lat_b: list = []
    assert batched.scan_many(start_keys, count, latencies=lat_b) == \
        len(start_keys)
    lat_s = [single.scan(key, count)[0] for key in start_keys]
    assert lat_b == lat_s
    assert state(batched) == state(single)
    if model is not None:
        assert batched._stats.user_bytes_read - before == \
            scan_bytes(batched, model, start_keys, count)


class TestScanMergeEquivalence:
    def test_scans_identical_across_levels(self):
        batched, single = make_pair()
        model = populate([batched, single])
        rng = substream(23, "scan-starts")
        starts = [int(k) for k in rng.integers(0, 450, size=60)]
        for count in (1, 7, 100):
            assert_scans_identical(batched, single, starts, count, model)

    def test_zero_count_still_charges_active_tables(self):
        """count <= 0 returns nothing but consumes one entry per active
        table (the merge's initial one-ahead push): one read each."""
        batched, single = make_pair()
        model = populate([batched, single])
        smart = batched.fs.device.ssd.smart
        for start in (0, 100, 399):
            active = sum(1 for _lvl, t in batched.version.all_tables()
                         if t.max_key >= start)
            before = smart.host_read_requests
            assert_scans_identical(batched, single, [start], 0, model)
            assert smart.host_read_requests - before >= active

    def test_scans_interleaved_with_writes(self):
        batched, single = make_pair()
        model = populate([batched, single], nkeys=200)
        rng = substream(29, "interleave")
        for round_ in range(10):
            key = int(rng.integers(0, 250))
            for store in (batched, single):
                store.put(key, Value(round_, 48))
            model[key] = 48
            assert_scans_identical(batched, single,
                                   [key, key // 2, 0], 25, model)

    def test_gets_and_probe_planning_identical(self):
        batched, single = make_pair()
        model = populate([batched, single])
        rng = substream(31, "gets")
        # Mix of present, deleted and absent keys.
        keys = [int(k) for k in rng.integers(0, 600, size=64)]
        before = batched._stats.user_bytes_read
        lat_b: list = []
        assert batched.get_many(keys, latencies=lat_b) == len(keys)
        lat_s = []
        for key in keys:
            latency, value = single.get(key)
            lat_s.append(latency)
            assert (value.length if value else None) == model.get(key)
        assert lat_b == lat_s
        assert state(batched) == state(single)
        key_bytes = batched.config.key_bytes
        assert batched._stats.user_bytes_read - before == sum(
            key_bytes + model[k] for k in keys if k in model)


class TestOverflowFallback:
    def test_huge_keys_fall_back_to_scalar_merge(self):
        batched, single = make_pair()
        model = populate([batched, single], key_of=lambda i: i + HUGE_KEY)
        assert_scans_identical(batched, single,
                               [HUGE_KEY, HUGE_KEY + 100], 30, model)


class TestWideningWindow:
    def test_tombstone_runs_force_widening(self):
        """The first ``count + 1`` merged entries are all tombstones:
        the merge must skip the whole run to find live keys."""
        batched, single = make_pair(memtable_bytes=512 * 1024)
        for store in (batched, single):
            for key in range(60):
                store.put(key, Value(key, 32))
            for key in range(50):
                store.delete(key)
        model = {key: 32 for key in range(50, 60)}
        # All in one memtable: 50 leading tombstones, then puts.
        assert_scans_identical(batched, single, [0], 2, model)
        assert_scans_identical(batched, single, [0, 10, 49, 50], 5, model)

    def test_exhaustion_without_boundary_stops_clean(self):
        """Fewer live keys than requested: the merge drains every
        source and stops at the true result count."""
        batched, single = make_pair(memtable_bytes=512 * 1024)
        for store in (batched, single):
            for key in range(8):
                store.put(key, Value(key, 32))
        model = {key: 32 for key in range(8)}
        assert_scans_identical(batched, single, [0, 4], 100, model)


class TestSequenceOverflowGuard:
    def test_seq_span_exceeded_falls_back(self):
        """Sequence numbers past 2^40 order like any others."""
        batched, single = make_pair()
        for store in (batched, single):
            store.put(1, Value(1, 32))
            store._next_seq = (1 << 40) + 1
            store.put(1, Value(2, 40))
            store.put(2, Value(3, 32))
        assert_scans_identical(batched, single, [0], 5, {1: 40, 2: 32})
