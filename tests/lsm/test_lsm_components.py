"""Unit tests for LSM components: memtable, bloom, sstable, version."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.lsm.bloom import BloomFilter
from repro.lsm.config import LSMConfig
from repro.lsm.memtable import KIND_DELETE, KIND_PUT, MemTable
from repro.lsm.sstable import SSTable, split_into_tables
from repro.lsm.version import Version


def make_sstable(keys, table_id=1, config=None, seq_start=0):
    config = config or LSMConfig()
    keys = np.asarray(sorted(keys), dtype=np.int64)
    n = len(keys)
    return SSTable(
        table_id,
        config,
        keys,
        np.arange(seq_start, seq_start + n, dtype=np.int64),
        np.zeros(n, dtype=np.uint64),
        np.full(n, 100, dtype=np.int64),
        np.zeros(n, dtype=np.int8),
    )


class TestMemTable:
    def test_put_get(self):
        mt = MemTable(LSMConfig())
        mt.put(5, seq=1, vseed=7, vlen=100)
        assert mt.get(5) == (1, 7, 100, KIND_PUT)
        assert mt.get(6) is None

    def test_update_keeps_single_entry(self):
        mt = MemTable(LSMConfig())
        mt.put(5, 1, 7, 100)
        mt.put(5, 2, 8, 200)
        assert len(mt) == 1
        assert mt.get(5) == (2, 8, 200, KIND_PUT)

    def test_delete_records_tombstone(self):
        mt = MemTable(LSMConfig())
        mt.put(5, 1, 7, 100)
        mt.delete(5, 2)
        assert mt.get(5) == (2, 0, 0, KIND_DELETE)

    def test_fullness_accounting(self):
        config = LSMConfig(memtable_bytes=10_000)
        mt = MemTable(config)
        assert not mt.full
        for i in range(200):
            mt.put(i, i, 0, 100)
            if mt.full:
                break
        assert mt.full
        assert mt.approximate_bytes >= 10_000

    def test_sorted_arrays_order(self):
        mt = MemTable(LSMConfig())
        for key in (9, 3, 7, 1):
            mt.put(key, key, 0, 10)
        keys, seqs, _vseeds, _vlens, _kinds = mt.sorted_arrays()
        assert list(keys) == [1, 3, 7, 9]
        assert list(seqs) == [1, 3, 7, 9]

    def test_sorted_arrays_empty(self):
        keys, *_rest = MemTable(LSMConfig()).sorted_arrays()
        assert len(keys) == 0

    def test_range_items(self):
        mt = MemTable(LSMConfig())
        for key in (5, 1, 9):
            mt.put(key, key, 0, 10)
        items = mt.range_items(4)
        assert [k for k, _ in items] == [5, 9]


def vectorized_probe(bloom: BloomFilter, keys: np.ndarray) -> np.ndarray:
    """Membership through the numpy bit positions ``add_many`` sets."""
    return bloom._bits[bloom._positions(keys)].all(axis=1)


class TestBloom:
    def test_no_false_negatives(self):
        bloom = BloomFilter(1000, 10)
        keys = np.arange(0, 5000, 5, dtype=np.int64)
        bloom.add_many(keys)
        assert all(bloom.may_contain(int(k)) for k in keys.tolist())
        assert vectorized_probe(bloom, keys).all()

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(2000, 10)
        bloom.add_many(np.arange(2000, dtype=np.int64))
        probes = range(1_000_000, 1_020_000)
        fpr = sum(map(bloom.may_contain, probes)) / len(probes)
        assert fpr < 0.05  # ~1% expected at 10 bits/key

    def test_empty_filter_rejects(self):
        bloom = BloomFilter(100, 10)
        assert not bloom.may_contain(42)

    def test_scalar_probe_matches_vectorized(self):
        # The Python-int fast path of may_contain must agree with the
        # numpy path on every key, including negatives and the 64-bit
        # extremes (two's-complement wrap in the mixer).
        bloom = BloomFilter(500, 10)
        rng = np.random.default_rng(2)
        added = rng.integers(-(2**62), 2**62, size=500, dtype=np.int64)
        bloom.add_many(added)
        probes = np.concatenate([
            added[:100],
            rng.integers(-(2**63), 2**63 - 1, size=2000, dtype=np.int64),
            np.array([0, -1, 2**63 - 1, -(2**63)], dtype=np.int64),
        ])
        vectorized = vectorized_probe(bloom, probes)
        for key, expected in zip(probes.tolist(), vectorized.tolist()):
            assert bloom.may_contain(key) == expected

    def test_invalid_bits_rejected(self):
        with pytest.raises(ConfigError):
            BloomFilter(10, 0)


class TestSSTable:
    def test_requires_sorted_unique(self):
        with pytest.raises(ConfigError):
            make_sstable([3, 3, 5])

    def test_requires_nonempty(self):
        config = LSMConfig()
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ConfigError):
            SSTable(1, config, empty, empty, empty.astype(np.uint64), empty,
                    np.empty(0, dtype=np.int8))

    def test_find_and_entry(self):
        table = make_sstable([2, 4, 6])
        assert table.find(4) == 1
        assert table.find(5) == -1
        key, _seq, _vseed, vlen, kind = table.entry(1)
        assert key == 4 and vlen == 100 and kind == KIND_PUT

    def test_metadata(self):
        table = make_sstable([2, 4, 6])
        assert (table.min_key, table.max_key, table.nentries) == (2, 6, 3)
        config = LSMConfig()
        assert table.data_bytes == 3 * (config.key_bytes + config.entry_overhead + 100)

    def test_overlaps(self):
        table = make_sstable([10, 20])
        assert table.overlaps(5, 10)
        assert table.overlaps(15, 16)
        assert not table.overlaps(21, 30)
        assert not table.overlaps(0, 9)

    def test_read_extent_within_file(self):
        table = make_sstable(range(0, 500, 2))
        for idx in (0, 100, 249):
            offset, nbytes = table.read_extent(idx)
            assert 0 <= offset < table.data_bytes
            assert offset + nbytes <= table.data_bytes
            assert nbytes > 0

    def test_split_into_tables_respects_target(self):
        config = LSMConfig(target_file_bytes=10_000)
        n = 1000
        counter = iter(range(1, 100))
        tables = split_into_tables(
            lambda: next(counter),
            config,
            np.arange(n, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            np.zeros(n, dtype=np.uint64),
            np.full(n, 100, dtype=np.int64),
            np.zeros(n, dtype=np.int8),
        )
        assert sum(t.nentries for t in tables) == n
        for table in tables:
            table.check_invariants()
        # Strictly increasing, non-overlapping pieces.
        for left, right in zip(tables, tables[1:]):
            assert left.max_key < right.min_key

    def test_split_empty_returns_nothing(self):
        config = LSMConfig()
        empty = np.empty(0, dtype=np.int64)
        result = split_into_tables(
            lambda: 1, config, empty, empty, empty.astype(np.uint64), empty,
            np.empty(0, dtype=np.int8),
        )
        assert result == []


class TestVersion:
    def test_l0_ordering_newest_first(self):
        version = Version(LSMConfig())
        a, b = make_sstable([1], 1), make_sstable([2], 2)
        version.add(0, a)
        version.add(0, b)
        assert version.levels[0] == [b, a]

    def test_sorted_level_insertion(self):
        version = Version(LSMConfig())
        t1, t2, t3 = make_sstable([50, 60], 1), make_sstable([10, 20], 2), make_sstable([80], 3)
        for t in (t1, t2, t3):
            version.add(1, t)
        assert version.levels[1] == [t2, t1, t3]
        version.check_invariants()

    def test_level_bytes_tracked(self):
        version = Version(LSMConfig())
        t = make_sstable([1, 2, 3])
        version.add(1, t)
        assert version.level_bytes(1) == t.data_bytes
        version.remove(1, t)
        assert version.level_bytes(1) == 0

    def test_overlapping_on_sorted_level(self):
        version = Version(LSMConfig())
        tables = [make_sstable([i * 100, i * 100 + 50], i + 1) for i in range(5)]
        for t in tables:
            version.add(1, t)
        hits = version.overlapping(1, 120, 260)
        assert hits == [tables[1], tables[2]]
        assert version.overlapping(1, 55, 95) == []

    def test_find_table(self):
        version = Version(LSMConfig())
        t1, t2 = make_sstable([0, 10], 1), make_sstable([100, 110], 2)
        version.add(1, t1)
        version.add(1, t2)
        assert version.find_table(1, 5) is t1
        assert version.find_table(1, 105) is t2
        assert version.find_table(1, 50) is None
        assert version.find_table(1, -5) is None

    def test_deepest_nonempty(self):
        version = Version(LSMConfig())
        assert version.deepest_nonempty_level() == -1
        version.add(3, make_sstable([1]))
        assert version.deepest_nonempty_level() == 3

    def test_overlap_violation_caught(self):
        version = Version(LSMConfig())
        version.add(1, make_sstable([0, 100], 1))
        version.add(1, make_sstable([50, 150], 2))
        with pytest.raises(AssertionError):
            version.check_invariants()
