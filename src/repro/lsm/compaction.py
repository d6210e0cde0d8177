"""Leveled compaction: picking and executing merges (§2.1.1).

Compaction is the LSM tree's source of application-level write
amplification: merging a level into the next rewrites all overlapping
data.  The picker follows RocksDB's leveled strategy (L0 by file
count, deeper levels by size ratio, round-robin key cursors); the
executor performs real array merges, drops superseded versions and
(at the bottom of the tree) tombstones, and performs all file I/O
through the simulated filesystem as *background* device work.

Non-overlapping inputs are moved without I/O ("trivial move", as in
RocksDB) — this is what makes the sequential load phase produce the
near-sequential device writes the paper observes (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fs.filesystem import ExtentFilesystem
from repro.lsm.config import LSMConfig
from repro.lsm.memtable import KIND_DELETE
from repro.lsm.sstable import SSTable, split_into_tables
from repro.lsm.version import Version
from repro.obs.tracer import NULL_TRACER

#: Merge-order composite ``key * _SEQ_SPAN + (_SEQ_SPAN-1 - seq)``: keys
#: below _KEY_SPAN and seqs below _SEQ_SPAN fit an int64.
_SEQ_SPAN = 1 << 40
_KEY_SPAN = 1 << 22


@dataclass
class Compaction:
    """A planned compaction job."""

    level: int
    output_level: int
    inputs: list[SSTable]
    next_inputs: list[SSTable]

    @property
    def is_trivial_move(self) -> bool:
        """No overlap with the output level: files can be reassigned."""
        if self.next_inputs:
            return False
        # Inputs must also be pairwise disjoint (always true for L1+;
        # checked for L0) so the output level stays a sorted run.
        ordered = sorted(self.inputs, key=lambda t: t.min_key)
        return all(a.max_key < b.min_key for a, b in zip(ordered, ordered[1:]))


@dataclass
class CompactionStats:
    """I/O accounting of executed compactions."""

    compactions: int = 0
    trivial_moves: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    entries_merged: int = 0
    entries_dropped: int = 0
    tombstones_dropped: int = 0


class CompactionPicker:
    """Chooses the next compaction, if any is needed."""

    def __init__(self, config: LSMConfig):
        self.config = config
        self._cursor_keys: dict[int, int] = {}

    def pick(self, version: Version) -> Compaction | None:
        """Return the most urgent compaction or None when shaped."""
        l0 = version.levels[0]
        if len(l0) >= self.config.l0_compaction_trigger:
            inputs = list(l0)
            min_key = min(t.min_key for t in inputs)
            max_key = max(t.max_key for t in inputs)
            next_inputs = version.overlapping(1, min_key, max_key)
            return Compaction(0, 1, inputs, next_inputs)

        best_level = -1
        best_score = 1.0
        for level in range(1, self.config.num_levels - 1):
            if not version.levels[level]:
                continue
            score = version.level_bytes(level) / self.config.level_target_bytes(level)
            if score > best_score:
                best_level, best_score = level, score
        if best_level < 0:
            return None
        table = self._next_file(version, best_level)
        next_inputs = version.overlapping(best_level + 1, table.min_key, table.max_key)
        return Compaction(best_level, best_level + 1, [table], next_inputs)

    def _next_file(self, version: Version, level: int) -> SSTable:
        """Round-robin over the level's key space (RocksDB's cursor)."""
        tables = version.levels[level]
        cursor = self._cursor_keys.get(level, -(2**62))
        chosen = None
        for table in tables:  # sorted by min_key
            if table.min_key > cursor:
                chosen = table
                break
        if chosen is None:
            chosen = tables[0]  # wrap around
        self._cursor_keys[level] = chosen.min_key
        return chosen


class CompactionExecutor:
    """Runs compactions against the filesystem and manifest."""

    def __init__(self, fs: ExtentFilesystem, config: LSMConfig, next_table_id):
        self.fs = fs
        self.config = config
        self.next_table_id = next_table_id
        self.stats = CompactionStats()
        self.tracer = NULL_TRACER  # flight recorder (repro.obs)

    def run(self, compaction: Compaction, version: Version) -> None:
        """Execute one compaction job (trivial move or merge)."""
        if compaction.is_trivial_move:
            self._trivial_move(compaction, version)
            return
        stats = self.stats
        before_read = stats.bytes_read
        before_written = stats.bytes_written
        self._merge(compaction, version)
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("compaction", "lsm", {
                "level": compaction.level,
                "output_level": compaction.output_level,
                "inputs": len(compaction.inputs) + len(compaction.next_inputs),
                "bytes_read": stats.bytes_read - before_read,
                "bytes_written": stats.bytes_written - before_written,
            })

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _trivial_move(self, compaction: Compaction, version: Version) -> None:
        for table in compaction.inputs:
            version.remove(compaction.level, table)
            version.add(compaction.output_level, table)
        self.stats.trivial_moves += 1

    def _merge(self, compaction: Compaction, version: Version) -> None:
        inputs = compaction.inputs + compaction.next_inputs
        # Read every input (background device reads: compaction threads).
        for table in inputs:
            self.fs.pread(table.filename, 0, table.data_bytes)
            self.stats.bytes_read += table.data_bytes

        keys = np.concatenate([t.keys for t in inputs])
        seqs = np.concatenate([t.seqs for t in inputs])
        vseeds = np.concatenate([t.vseeds for t in inputs])
        vlens = np.concatenate([t.vlens for t in inputs])
        kinds = np.concatenate([t.kinds for t in inputs])

        # Sort by key, newest version first, then keep first occurrence.
        order = self._merge_order(keys, seqs)
        keys, seqs, vseeds, vlens, kinds = (
            keys[order], seqs[order], vseeds[order], vlens[order], kinds[order],
        )
        newest = np.empty(len(keys), dtype=bool)
        newest[0] = True
        np.not_equal(keys[1:], keys[:-1], out=newest[1:])
        dropped = int(len(keys) - newest.sum())

        # Tombstones can be dropped once nothing deeper could hold the key.
        drop_tombstones = compaction.output_level >= version.deepest_nonempty_level()
        keep = newest.copy()
        tombstones_dropped = 0
        if drop_tombstones:
            tombstone = kinds == KIND_DELETE
            tombstones_dropped = int((newest & tombstone).sum())
            keep &= ~tombstone

        outputs = split_into_tables(
            self.next_table_id,
            self.config,
            keys[keep], seqs[keep], vseeds[keep], vlens[keep], kinds[keep],
        )
        for table in outputs:
            self.fs.create(table.filename)
            self.fs.append(table.filename, table.data_bytes, background=True)
            self.stats.bytes_written += table.data_bytes

        # Install outputs, then retire inputs (transiently using space
        # for both, like RocksDB — visible in disk-utilization peaks).
        for table in compaction.inputs:
            version.remove(compaction.level, table)
        for table in compaction.next_inputs:
            version.remove(compaction.output_level, table)
        for table in outputs:
            version.add(compaction.output_level, table)
        for table in inputs:
            self.fs.delete(table.filename)

        self.stats.compactions += 1
        self.stats.entries_merged += len(keys)
        self.stats.entries_dropped += dropped
        self.stats.tombstones_dropped += tombstones_dropped

    @staticmethod
    def _merge_order(keys: np.ndarray, seqs: np.ndarray) -> np.ndarray:
        """Permutation sorting by (key asc, seq desc), ties in input order.

        Both columns are packed into one int64 composite, ``key * 2^40
        + (2^40-1 - seq)``, and ordered by a single stable argsort.  The
        inputs are k concatenated sorted runs (each SSTable's keys are
        strictly increasing, so each run is strictly increasing in the
        composite too), which timsort's run detection merges in
        near-linear time: several times faster than the two-pass
        ``np.lexsort((-seqs, keys))`` it equals (DESIGN.md §12).  Keys
        >= 2^22 or seqs >= 2^40 would overflow the packing and take the
        lexsort instead — far beyond any workload here.
        """
        if keys.size and (
            int(keys.min()) >= 0
            and int(keys.max()) < _KEY_SPAN
            and int(seqs.min()) >= 0
            and int(seqs.max()) < _SEQ_SPAN
        ):
            comp = keys * _SEQ_SPAN + (_SEQ_SPAN - 1 - seqs)
            return np.argsort(comp, kind="stable")
        return np.lexsort((-seqs, keys))
