"""The in-memory write buffer of the LSM engine (§2.1.1).

Incoming writes are buffered here; when the memtable reaches its
configured size it is made immutable and flushed to L0 as an SSTable.
Entries carry a global sequence number so that flush/compaction can
order versions of the same key.
"""

from __future__ import annotations

import numpy as np

from repro.lsm.config import LSMConfig

KIND_PUT = 0
KIND_DELETE = 1


class MemTable:
    """A mutable buffer of the newest writes, keyed by integer key."""

    __slots__ = ("config", "_entries", "approximate_bytes", "_sorted_cache")

    def __init__(self, config: LSMConfig):
        self.config = config
        # key -> (seq, vseed, vlen, kind); a plain dict because each key
        # keeps only its newest in-memtable version, like a skiplist
        # with upserts would.
        self._entries: dict[int, tuple[int, int, int, int]] = {}
        self.approximate_bytes = 0
        self._sorted_cache: tuple | None = None  # see sorted_items()

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key: int, seq: int, vseed: int, vlen: int) -> None:
        """Record a put; accounting grows by the full entry size."""
        self._entries[key] = (seq, vseed, vlen, KIND_PUT)
        self.approximate_bytes += self.config.key_bytes + self.config.entry_overhead + vlen

    def delete(self, key: int, seq: int) -> None:
        """Record a tombstone."""
        self._entries[key] = (seq, 0, 0, KIND_DELETE)
        self.approximate_bytes += self.config.key_bytes + self.config.entry_overhead

    def get(self, key: int) -> tuple[int, int, int, int] | None:
        """Newest in-memtable entry for *key*, or None."""
        return self._entries.get(key)

    @property
    def full(self) -> bool:
        """Whether the memtable reached its flush threshold."""
        return self.approximate_bytes >= self.config.memtable_bytes

    # ------------------------------------------------------------------
    # Bulk write path (DESIGN.md §6)
    # ------------------------------------------------------------------
    def capacity_for(self, entry_bytes: int) -> int:
        """Entries of *entry_bytes* each that keep the memtable below
        its flush threshold (the next op after these triggers
        rotation, exactly like the scalar ``full`` check)."""
        remaining = self.config.memtable_bytes - 1 - self.approximate_bytes
        return max(0, remaining // entry_bytes)

    def bulk_put(self, keys: list[int], first_seq: int,
                 vseeds: list[int], vlen: int) -> None:
        """Batched equal-size puts as one dict update.

        Equivalent to ``put(keys[i], first_seq + i, vseeds[i], vlen)``
        for every *i*; callers bound the batch with
        :meth:`capacity_for` so no rotation is skipped.
        """
        n = len(keys)
        self._entries.update(zip(keys, zip(
            range(first_seq, first_seq + n), vseeds, (vlen,) * n, (KIND_PUT,) * n
        )))
        self.approximate_bytes += n * (
            self.config.key_bytes + self.config.entry_overhead + vlen
        )

    def bulk_delete(self, keys: list[int], first_seq: int) -> None:
        """Batched tombstones as one dict update (see :meth:`bulk_put`)."""
        n = len(keys)
        self._entries.update(zip(keys, zip(
            range(first_seq, first_seq + n), (0,) * n, (0,) * n, (KIND_DELETE,) * n
        )))
        self.approximate_bytes += n * (self.config.key_bytes + self.config.entry_overhead)

    def sorted_arrays(self) -> tuple[np.ndarray, ...]:
        """Entries as (keys, seqs, vseeds, vlens, kinds), sorted by key.

        This is the flush representation consumed by the SSTable
        builder.
        """
        if not self._entries:
            empty64 = np.empty(0, dtype=np.int64)
            return (empty64, empty64.copy(), np.empty(0, dtype=np.uint64),
                    empty64.copy(), np.empty(0, dtype=np.int8))
        keys = np.fromiter(self._entries.keys(), dtype=np.int64, count=len(self._entries))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        rows = list(self._entries.values())
        seqs = np.fromiter((r[0] for r in rows), dtype=np.int64, count=len(rows))[order]
        # Value seeds are full-range 64-bit hashes, hence unsigned.
        vseeds = np.fromiter((r[1] for r in rows), dtype=np.uint64, count=len(rows))[order]
        vlens = np.fromiter((r[2] for r in rows), dtype=np.int64, count=len(rows))[order]
        kinds = np.fromiter((r[3] for r in rows), dtype=np.int8, count=len(rows))[order]
        return keys, seqs, vseeds, vlens, kinds

    def range_items(self, start_key: int) -> list[tuple[int, tuple[int, int, int, int]]]:
        """Entries with key >= start_key, ordered by key (for scans)."""
        selected = [(k, v) for k, v in self._entries.items() if k >= start_key]
        selected.sort(key=lambda kv: kv[0])
        return selected

    def sorted_items(self) -> tuple[list[int], list[tuple[int, int, int, int]]]:
        """All entries as parallel (keys, entries) lists, key-ordered.

        The batched scan path uses this as a bisectable cursor shared
        by consecutive scans, instead of re-sorting a
        :meth:`range_items` selection per scan (DESIGN.md §7.3).  The
        snapshot is memoized on the memtable and validated against
        ``approximate_bytes``, which grows on *every* mutation: puts
        and tombstones both add at least ``key_bytes``, which
        :class:`~repro.lsm.config.LSMConfig` validates as positive.
        So scans reuse one sort until the next write, and immutable
        memtables reuse it forever.  Keys are unique, so sorting the
        item pairs orders exactly like sorting by key.
        """
        cache = self._sorted_cache
        if cache is not None and cache[0] == self.approximate_bytes:
            return cache[1], cache[2]
        items = sorted(self._entries.items())
        keys = [k for k, _v in items]
        values = [v for _k, v in items]
        self._sorted_cache = (self.approximate_bytes, keys, values)
        return keys, values
