"""Functional and property tests for the LSM store."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.block.device import BlockDevice
from repro.core.clock import VirtualClock
from repro.errors import StoreClosedError
from repro.flash.ssd import SSD
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.values import Value, value_for
from repro.lsm.config import LSMConfig
from repro.lsm.store import LSMStore
from tests.conftest import make_tiny_config


def make_store(clock=None, **config_overrides):
    clock = clock or VirtualClock()
    ssd = SSD(make_tiny_config(nblocks=128), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    config = LSMConfig(
        memtable_bytes=8 * 1024,
        max_bytes_for_level_base=16 * 1024,
        target_file_bytes=8 * 1024,
        **config_overrides,
    )
    return LSMStore(fs, clock, config)


class TestBasicOperations:
    def test_put_get_roundtrip(self):
        store = make_store()
        store.put(1, Value(100, 50))
        _lat, value = store.get(1)
        assert value == Value(100, 50)

    def test_get_missing_returns_none(self):
        store = make_store()
        _lat, value = store.get(99)
        assert value is None

    def test_update_returns_newest(self):
        store = make_store()
        store.put(1, Value(100, 50))
        store.put(1, Value(200, 60))
        _lat, value = store.get(1)
        assert value == Value(200, 60)

    def test_delete_hides_key(self):
        store = make_store()
        store.put(1, Value(100, 50))
        store.delete(1)
        _lat, value = store.get(1)
        assert value is None

    def test_delete_survives_flush(self):
        store = make_store()
        store.put(1, Value(100, 50))
        store.flush()
        store.delete(1)
        store.flush()
        _lat, value = store.get(1)
        assert value is None

    def test_reads_after_flush_hit_sstables(self):
        store = make_store()
        for key in range(200):
            store.put(key, Value(key, 64))
        store.flush()
        assert store.version.total_files > 0
        for key in (0, 73, 199):
            _lat, value = store.get(key)
            assert value == Value(key, 64)

    def test_latencies_positive_and_clock_advances(self):
        store = make_store()
        before = store.clock.now
        latency = store.put(1, Value(1, 100))
        assert latency > 0
        assert store.clock.now == pytest.approx(before + latency)

    def test_closed_store_rejects_ops(self):
        store = make_store()
        store.close()
        with pytest.raises(StoreClosedError):
            store.put(1, Value(1, 1))
        store.close()  # idempotent

    def test_stats_accumulate(self):
        store = make_store()
        store.put(1, Value(1, 100))
        store.get(1)
        store.delete(1)
        store.scan(0, 10)
        assert store.stats.puts == 1
        assert store.stats.gets == 1
        assert store.stats.deletes == 1
        assert store.stats.scans == 1
        assert store.stats.user_bytes_written > 0


class TestScans:
    def test_scan_ordered(self):
        store = make_store()
        for key in (5, 1, 9, 3, 7):
            store.put(key, Value(key, 32))
        _lat, results = store.scan(0, 10)
        assert [k for k, _ in results] == [1, 3, 5, 7, 9]

    def test_scan_start_and_count(self):
        store = make_store()
        for key in range(20):
            store.put(key, Value(key, 32))
        _lat, results = store.scan(5, 4)
        assert [k for k, _ in results] == [5, 6, 7, 8]

    def test_scan_sees_newest_version_across_levels(self):
        store = make_store()
        for key in range(100):
            store.put(key, Value(key, 64))
        store.flush()
        store.put(50, Value(9999, 64))
        _lat, results = store.scan(50, 1)
        assert results[0] == (50, Value(9999, 64))

    def test_scan_skips_tombstones(self):
        store = make_store()
        for key in range(10):
            store.put(key, Value(key, 32))
        store.flush()
        store.delete(4)
        _lat, results = store.scan(0, 10)
        assert [k for k, _ in results] == [0, 1, 2, 3, 5, 6, 7, 8, 9]


class TestTreeMechanics:
    def test_compactions_happen_under_load(self):
        store = make_store()
        for key in range(2000):
            store.put(key % 500, value_for(key % 500, key, 64))
        assert store.executor.stats.compactions + store.executor.stats.trivial_moves > 0
        store.check_invariants()

    def test_write_amplification_above_one(self):
        store = make_store()
        for key in range(2000):
            store.put(key % 500, value_for(key % 500, key, 64))
        store.flush()
        host = store.fs.device.ssd.smart.host_bytes_written
        assert host > store.stats.user_bytes_written

    def test_sequential_load_uses_trivial_moves(self):
        store = make_store()
        for key in range(3000):
            store.put(key, Value(key, 64))
        assert store.executor.stats.trivial_moves > 0

    def test_all_data_survives_heavy_churn(self):
        store = make_store()
        expected = {}
        for i in range(3000):
            key = (i * 37) % 400
            value = value_for(key, i, 48)
            store.put(key, value)
            expected[key] = value
        store.flush()
        store.check_invariants()
        for key, value in list(expected.items())[:100]:
            _lat, got = store.get(key)
            assert got == value, f"key {key}"

    def test_wal_disabled_still_correct(self):
        store = make_store(wal_enabled=False)
        for key in range(500):
            store.put(key, Value(key, 64))
        _lat, value = store.get(123)
        assert value == Value(123, 64)

    def test_tombstones_dropped_at_bottom(self):
        store = make_store()
        for key in range(300):
            store.put(key, Value(key, 64))
        for key in range(300):
            store.delete(key)
        store.flush()
        # After full compaction the dataset is gone; files should carry
        # (almost) no tombstones for deleted keys anymore.
        assert store.executor.stats.tombstones_dropped > 0


#: Single ops: (kind, key, value length).
_SINGLE_OPS = st.tuples(
    st.sampled_from(["put", "delete", "get"]),
    st.integers(0, 80),
    st.integers(0, 120),
)
#: Batched ops: (kind, keys, value length or scan count); "flush"
#: forces the memtable out so batches also meet SSTables.
_BATCH_OPS = st.tuples(
    st.sampled_from(["put_many", "delete_many", "get_many", "scan_many",
                     "flush"]),
    st.lists(st.integers(0, 80), min_size=1, max_size=24),
    st.integers(0, 120),
)


def _model_bytes(store, model: dict, keys) -> int:
    """User bytes a read of *keys* returns according to the model."""
    key_bytes = store.config.key_bytes
    return sum(key_bytes + model[key].length for key in keys if key in model)


class TestPropertyBased:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(st.one_of(_SINGLE_OPS, _BATCH_OPS), min_size=1,
                        max_size=200))
    def test_store_matches_dict_model(self, ops):
        store = make_store()
        model: dict[int, Value] = {}
        stats = store.stats
        for i, (kind, arg, n) in enumerate(ops):
            if kind == "put":
                value = Value(i + 1, n)
                store.put(arg, value)
                model[arg] = value
            elif kind == "delete":
                store.delete(arg)
                model.pop(arg, None)
            elif kind == "get":
                _lat, got = store.get(arg)
                assert got == model.get(arg)
                continue
            elif kind == "put_many":
                seeds = [1000 * (i + 1) + j for j in range(len(arg))]
                assert store.put_many(arg, seeds, n) == len(arg)
                model.update((key, Value(seed, n))
                             for key, seed in zip(arg, seeds))
            elif kind == "delete_many":
                assert store.delete_many(arg) == len(arg)
                for key in arg:
                    model.pop(key, None)
            elif kind == "get_many":
                before = stats.user_bytes_read
                assert store.get_many(arg) == len(arg)
                assert stats.user_bytes_read - before == \
                    _model_bytes(store, model, arg)
            elif kind == "scan_many":
                count = n % 17
                live = sorted(model)
                before = stats.user_bytes_read
                assert store.scan_many(arg, count) == len(arg)
                assert stats.user_bytes_read - before == sum(
                    _model_bytes(store, model,
                                 [k for k in live if k >= start][:count])
                    for start in arg)
            else:
                store.flush()
            if kind in ("put", "delete"):
                continue
            # After every batch: the whole store reads back as the model.
            store.check_invariants()
            _lat, scanned = store.scan(0, 10_000)
            assert dict(scanned) == model
        store.flush()
        store.check_invariants()
        for key, value in model.items():
            _lat, got = store.get(key)
            assert got == value
        _lat, scanned = store.scan(0, 10_000)
        assert dict(scanned) == model
