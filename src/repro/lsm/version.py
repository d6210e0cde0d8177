"""The LSM tree's level manifest (RocksDB's "version").

L0 holds flushed memtables, newest first, with overlapping key ranges.
L1 and deeper hold sorted runs: files with pairwise-disjoint key
ranges, kept ordered by ``min_key`` so point lookups and overlap
queries are binary searches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

from repro.errors import ConfigError
from repro.lsm.config import LSMConfig
from repro.lsm.sstable import SSTable


class Version:
    """Mutable manifest: which SSTables live on which level."""

    def __init__(self, config: LSMConfig):
        self.config = config
        self.levels: list[list[SSTable]] = [[] for _ in range(config.num_levels)]
        self._level_bytes = [0] * config.num_levels
        self._min_keys: list[list[int]] = [[] for _ in range(config.num_levels)]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, level: int, table: SSTable) -> None:
        """Install a table on a level (front of L0, sorted for L1+)."""
        self._check_level(level)
        if level == 0:
            self.levels[0].insert(0, table)
        else:
            idx = bisect_right(self._min_keys[level], table.min_key)
            self.levels[level].insert(idx, table)
            self._min_keys[level].insert(idx, table.min_key)
        self._level_bytes[level] += table.data_bytes

    def remove(self, level: int, table: SSTable) -> None:
        """Uninstall a table from a level."""
        self._check_level(level)
        idx = self.levels[level].index(table)
        del self.levels[level][idx]
        if level > 0:
            del self._min_keys[level][idx]
        self._level_bytes[level] -= table.data_bytes

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def level_bytes(self, level: int) -> int:
        """Serialized bytes currently on a level."""
        self._check_level(level)
        return self._level_bytes[level]

    @property
    def total_bytes(self) -> int:
        """Serialized bytes across all levels."""
        return sum(self._level_bytes)

    @property
    def total_files(self) -> int:
        """Number of live SSTables."""
        return sum(len(level) for level in self.levels)

    def all_tables(self):
        """Iterate over (level, table) pairs, top level first."""
        for level, tables in enumerate(self.levels):
            for table in tables:
                yield level, table

    def overlapping(self, level: int, min_key: int, max_key: int) -> list[SSTable]:
        """Tables on *level* whose key range intersects [min_key, max_key]."""
        self._check_level(level)
        if level == 0:
            return [t for t in self.levels[0] if t.overlaps(min_key, max_key)]
        # Sorted level: candidates start at the last file whose min_key
        # is <= max_key and extend left while ranges still intersect.
        tables = self.levels[level]
        lo = bisect_left(self._min_keys[level], min_key)
        if lo > 0 and tables[lo - 1].max_key >= min_key:
            lo -= 1
        hi = bisect_right(self._min_keys[level], max_key)
        return tables[lo:hi]

    def find_table(self, level: int, key: int) -> SSTable | None:
        """The unique table on a sorted level that may hold *key*."""
        self._check_level(level)
        if level == 0:
            raise ConfigError("find_table is for sorted levels; probe L0 in order")
        idx = bisect_right(self._min_keys[level], key) - 1
        if idx < 0:
            return None
        table = self.levels[level][idx]
        return table if key <= table.max_key else None

    def deepest_nonempty_level(self) -> int:
        """Index of the deepest level with data, or -1 when empty."""
        for level in range(self.config.num_levels - 1, -1, -1):
            if self.levels[level]:
                return level
        return -1

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify manifest consistency; raises ``AssertionError`` on bugs."""
        for level, tables in enumerate(self.levels):
            assert self._level_bytes[level] == sum(t.data_bytes for t in tables)
            if level == 0:
                continue
            assert self._min_keys[level] == [t.min_key for t in tables]
            for left, right in zip(tables, tables[1:]):
                assert left.max_key < right.min_key, (
                    f"L{level} files overlap: "
                    f"[{left.min_key},{left.max_key}] vs "
                    f"[{right.min_key},{right.max_key}]"
                )

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.config.num_levels:
            raise ConfigError(f"level {level} out of range")


# Re-export for callers that only need ordered insertion helpers.
__all__ = ["Version", "insort"]
