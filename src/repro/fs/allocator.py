"""Extent allocator for the simulated filesystem.

Three strategies are provided:

* **scatter** (default): allocations are taken from a pseudo-randomly
  chosen free extent (weighted by size).  This models an aged ext4:
  space freed by deleted files is reused at effectively arbitrary
  positions, so a workload that constantly creates and deletes files
  (the LSM engine's SSTables) both covers the *whole* LBA space over
  time (Fig 4 of the paper) and produces a random overwrite pattern at
  device level — the pattern for which garbage collection exhibits the
  utilization-dependent WA-D the paper measures (Figs 2c, 3c, 5b).
* **next-fit** (ablation): a rotor walks the address space and wraps.
  This produces a *cyclic sequential* overwrite pattern whose WA-D is
  ~1 regardless of utilization — a useful contrast showing how much
  the filesystem's reuse policy matters
  (``benchmarks/bench_ablation_allocator.py``).
* **first-fit** (ablation): always allocate at the lowest possible
  address, keeping the file footprint compact.

The free list is a sorted Python list of extent starts plus a
start -> length dict (and a length list parallel to the starts, which
the scatter pivot weights by); every strategy carves and coalesces
extent by extent.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain

import numpy as np

from repro.errors import ConfigError, NoSpaceError

Extent = tuple[int, int]  # (start_page, npages)

STRATEGIES = ("scatter", "next-fit", "first-fit")


class ScalarExtentAllocator:
    """Tracks free extents over ``[0, npages)`` and hands out space."""

    def __init__(self, npages: int, strategy: str = "scatter", seed: int = 0):
        if npages <= 0:
            raise ConfigError("allocator needs a positive page count")
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown allocation strategy {strategy!r}")
        self.npages = npages
        self.strategy = strategy
        self._rng = np.random.default_rng(seed)
        self._starts: list[int] = [0]
        self._lens: dict[int, int] = {0: npages}
        # Extent lengths in _starts order: the scatter strategy weights
        # every allocation by extent size, and rebuilding that vector
        # from the dict dominated allocation cost on fragmented
        # filesystems.  Kept strictly parallel to _starts.
        self._len_list: list[int] = [npages]
        self._rotor = 0
        self.free_pages = npages
        self.peak_used_pages = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, npages: int, contiguous: bool = False) -> list[Extent]:
        """Allocate *npages*, returning the extents granted.

        With ``contiguous=True`` a single extent is returned or
        :class:`NoSpaceError` is raised; otherwise the request may be
        satisfied by multiple extents.
        """
        if npages <= 0:
            raise ConfigError("allocation size must be positive")
        if npages > self.free_pages:
            raise NoSpaceError(
                f"requested {npages} pages but only {self.free_pages} free"
            )
        if contiguous:
            return [self._alloc_contiguous(npages)]
        granted: list[Extent] = []
        remaining = npages
        while remaining > 0:
            extent = self._take_some(remaining)
            granted.append(extent)
            remaining -= extent[1]
        return granted

    def free(self, start: int, npages: int) -> None:
        """Return an extent to the free pool, coalescing neighbours."""
        idx = self._check_freeable(start, npages)
        freed = npages  # only the newly freed pages count toward free_pages
        # Coalesce with successor.
        if idx < len(self._starts) and self._starts[idx] == start + npages:
            npages += self._lens.pop(self._starts[idx])
            del self._starts[idx]
            del self._len_list[idx]
        # Coalesce with predecessor.
        if idx > 0:
            prev_start = self._starts[idx - 1]
            if prev_start + self._lens[prev_start] == start:
                self._lens[prev_start] += npages
                self._len_list[idx - 1] += npages
                self.free_pages += freed
                return
        self._starts.insert(idx, start)
        self._len_list.insert(idx, npages)
        self._lens[start] = npages
        self.free_pages += freed

    def free_many(self, extents: list[Extent]) -> None:
        """Free a batch of extents (file deletion), all or nothing.

        The whole batch is validated before anything is freed: every
        extent non-empty and inside the address space, no two extents
        of the batch overlapping, none overlapping a free extent.  Only
        then are the extents freed one by one, so a rejected batch
        leaves the free list and ``free_pages`` untouched.
        """
        batch = sorted(extents)
        for start, npages in batch:
            self._check_freeable(start, npages)
        for (start, npages), (next_start, _) in zip(batch, batch[1:]):
            if start + npages > next_start:
                raise ConfigError("double free: extents in the batch overlap")
        for start, npages in extents:
            self.free(start, npages)

    def _check_freeable(self, start: int, npages: int) -> int:
        """Raise unless ``[start, start+npages)`` is a non-empty, in-range
        extent overlapping no free extent; return its free-list index."""
        if npages <= 0:
            raise ConfigError("freed extent must be non-empty")
        if start < 0 or start + npages > self.npages:
            raise ConfigError("freed extent outside address space")
        idx = bisect_right(self._starts, start)
        if idx > 0:
            prev_start = self._starts[idx - 1]
            if prev_start + self._lens[prev_start] > start:
                raise ConfigError("double free: extent overlaps a free extent")
        if idx < len(self._starts) and start + npages > self._starts[idx]:
            raise ConfigError("double free: extent overlaps a free extent")
        return idx

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def free_extents(self) -> list[Extent]:
        """All free extents sorted by start (a copy)."""
        return [(s, self._lens[s]) for s in self._starts]

    def largest_free_extent(self) -> int:
        """Size of the largest free extent in pages (0 when full)."""
        if not self._starts:
            return 0
        return max(self._lens.values())

    def check_invariants(self) -> None:
        """Verify internal consistency; raises ``AssertionError`` on bugs."""
        assert self._starts == sorted(self._starts)
        assert set(self._starts) == set(self._lens)
        assert self._len_list == [self._lens[s] for s in self._starts], \
            "length cache out of sync with the free-extent list"
        total = 0
        prev_end = -1
        for start in self._starts:
            length = self._lens[start]
            assert length > 0
            assert start > prev_end, "free extents overlap or are uncoalesced"
            assert start + length <= self.npages
            prev_end = start + length - 1
            total += length
        assert total == self.free_pages

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _scatter_pivot(self) -> int:
        """Size-weighted random extent index (uniform over free pages).

        This inlines ``rng.choice(count, p=weights / weights.sum())``
        — same arithmetic, same single ``random()`` draw, so the extent
        stream is bit-identical (pinned by a test) — without choice's
        per-call validation overhead.
        """
        weights = np.array(self._len_list, dtype=np.float64)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self._rng.random(), side="right"))

    def _scan_order(self):
        """Indices into the free-extent list in allocation-scan order.

        Returns a lazy iterable: the callers stop at the first usable
        extent (for scatter that is the pivot itself), so materializing
        the whole order — two list builds per allocation — was pure
        overhead on the flush path (DESIGN.md §8).
        """
        count = len(self._starts)
        if self.strategy == "first-fit" or not self._starts:
            return range(count)
        if self.strategy == "scatter":
            # Start from the size-weighted pivot, then continue
            # round-robin so large requests can gather multiple extents.
            pivot = self._scatter_pivot()
            return chain(range(pivot, count), range(pivot))
        pivot = bisect_left(self._starts, self._rotor)
        if pivot > 0:
            prev = self._starts[pivot - 1]
            if prev + self._lens[prev] > self._rotor:
                pivot -= 1  # rotor points inside the previous extent
        return chain(range(pivot, count), range(pivot))

    def _alloc_contiguous(self, npages: int) -> Extent:
        for idx in self._scan_order():
            start = self._starts[idx]
            length = self._lens[start]
            take_from = start
            if self.strategy == "next-fit" and start < self._rotor < start + length:
                take_from = self._rotor
                if start + length - take_from < npages:
                    take_from = start  # tail too small: use the extent head
            if start + length - take_from >= npages:
                self._carve(start, take_from, npages)
                return (take_from, npages)
        raise NoSpaceError(
            f"no contiguous extent of {npages} pages "
            f"(largest free: {self.largest_free_extent()})"
        )

    def _take_some(self, limit: int) -> Extent:
        if self.strategy == "scatter" and self._starts:
            # The pivot extent always has room (its weight is its
            # size), so the generic scan collapses to one draw + carve.
            pivot = self._scatter_pivot()
            start = self._starts[pivot]
            take = self._len_list[pivot]
            if take > limit:
                take = limit
            self._carve(start, start, take)
            return (start, take)
        for idx in self._scan_order():
            start = self._starts[idx]
            length = self._lens[start]
            take_from = start
            if self.strategy == "next-fit" and start < self._rotor < start + length:
                take_from = self._rotor
            available = start + length - take_from
            take = min(limit, available)
            if take > 0:
                self._carve(start, take_from, take)
                return (take_from, take)
        raise NoSpaceError("free accounting drifted: no extent found")

    def _carve(self, extent_start: int, take_from: int, take: int) -> None:
        """Remove [take_from, take_from+take) from the free extent at
        *extent_start*, splitting it as needed."""
        length = self._lens[extent_start]
        idx = bisect_left(self._starts, extent_start)
        del self._starts[idx]
        del self._len_list[idx]
        del self._lens[extent_start]
        head = take_from - extent_start
        tail = (extent_start + length) - (take_from + take)
        if head > 0:
            self._starts.insert(idx, extent_start)
            self._len_list.insert(idx, head)
            self._lens[extent_start] = head
            idx += 1
        if tail > 0:
            tail_start = take_from + take
            self._starts.insert(idx, tail_start)
            self._len_list.insert(idx, tail)
            self._lens[tail_start] = tail
        self.free_pages -= take
        self.peak_used_pages = max(self.peak_used_pages, self.npages - self.free_pages)
        end = take_from + take
        self._rotor = 0 if end >= self.npages else end


#: The public name of the allocator.  The class keeps its historical
#: name, which the per-layer ledger (``perfbench/ledger.py``) wraps.
ExtentAllocator = ScalarExtentAllocator
