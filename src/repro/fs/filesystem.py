"""Extent-based filesystem over a block device / partition.

This is the ext4 stand-in of the reproduction (§3.5 of the paper).
Files are lists of extents; the allocator policy decides where new
extents land (see :mod:`repro.fs.allocator`).  Two paper-relevant
semantics are modeled explicitly:

* ``nodiscard`` (default, like the paper's mount options): deleting a
  file frees its extents in the filesystem but does **not** TRIM them
  on the device, so the SSD keeps treating the stale pages as valid
  until they are overwritten — a key ingredient of the LSM engine's
  device-level write amplification;
* ``discard=True`` (ablation): deletions TRIM the freed extents.

Filesystem metadata overhead is not modeled; the paper states it is
negligible relative to the multi-GB datasets (§3.3).

For functional tests the filesystem can optionally retain file
contents in memory (``record_data=True``); engines run with accounting
only, since key-value payloads are represented by (seed, length)
descriptors rather than real bytes.

File extent tables are array-backed (parallel int64 start/length
columns with a cached cumulative page count).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FileExistsError_, FileNotFoundError_, FilesystemError
from repro.fs.allocator import Extent, ExtentAllocator


class FileMeta:
    """Metadata of one file: its extents (in file order) and byte size.

    Extents live in a pair of parallel growable int64 arrays; the
    cumulative page count per extent is cached as an int64 column and
    invalidated by every extent mutation.
    """

    __slots__ = ("name", "size_bytes", "data", "_es", "_el", "_ne",
                 "_pages", "_cum")

    def __init__(self, name: str, data: bytearray | None = None):
        self.name = name
        self.size_bytes = 0
        self.data = data
        self._es = np.empty(4, dtype=np.int64)  # extent device starts
        self._el = np.empty(4, dtype=np.int64)  # parallel lengths
        self._ne = 0
        self._pages = 0
        self._cum: np.ndarray | None = None

    @property
    def npages(self) -> int:
        """Pages allocated to the file."""
        return self._pages

    @property
    def nextents(self) -> int:
        """Number of (coalesced) extents backing the file."""
        return self._ne

    @property
    def extents(self) -> list[Extent]:
        """The extent table as (start, npages) tuples (a copy)."""
        ne = self._ne
        return list(zip(self._es[:ne].tolist(), self._el[:ne].tolist()))

    def cumulative(self) -> np.ndarray:
        """``cumulative()[i]`` = pages in extents[0..i]; cached."""
        if self._cum is None:
            self._cum = np.cumsum(self._el[:self._ne])
        return self._cum

    # ------------------------------------------------------------------
    # Extent mutation
    # ------------------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = self._es.size
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        es = np.empty(cap, dtype=np.int64)
        el = np.empty(cap, dtype=np.int64)
        ne = self._ne
        es[:ne] = self._es[:ne]
        el[:ne] = self._el[:ne]
        self._es, self._el = es, el

    def push_extent(self, extent: Extent) -> None:
        """Append one extent, merging with the previous if adjacent."""
        self._cum = None
        self._pages += extent[1]
        ne = self._ne
        if ne:
            last_start = int(self._es[ne - 1])
            last_len = int(self._el[ne - 1])
            if last_start + last_len == extent[0]:
                self._el[ne - 1] = last_len + extent[1]
                return
        self._grow(ne + 1)
        self._es[ne] = extent[0]
        self._el[ne] = extent[1]
        self._ne = ne + 1


class ExtentFilesystem:
    """A minimal extent filesystem exposing the operations engines need."""

    def __init__(self, device, strategy: str = "scatter", discard: bool = False,
                 record_data: bool = False, seed: int = 0):
        self.device = device
        self.page_size = device.page_size
        self.allocator = ExtentAllocator(device.npages, strategy=strategy,
                                         seed=seed)
        self.discard = discard
        self.record_data = record_data
        self._files: dict[str, FileMeta] = {}
        # Retry-with-backoff over transient device errors (fault
        # injection; repro.faults.RetryPolicy).  None — the default —
        # keeps every write on the direct submission path.
        self.retry = None

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------
    def create(self, name: str) -> None:
        """Create an empty file."""
        if name in self._files:
            raise FileExistsError_(f"file {name!r} already exists")
        self._files[name] = FileMeta(
            name, data=bytearray() if self.record_data else None
        )

    def exists(self, name: str) -> bool:
        """Whether the named file exists."""
        return name in self._files

    def delete(self, name: str) -> None:
        """Delete a file, freeing its extents (TRIM only if ``discard``)."""
        meta = self._lookup(name)
        extents = meta.extents
        self.allocator.free_many(extents)
        if self.discard:
            for start, length in extents:
                self.device.trim_range(start, length)
        del self._files[name]

    def list_files(self) -> list[str]:
        """Names of all files, sorted."""
        return sorted(self._files)

    def file_size(self, name: str) -> int:
        """Byte size of the named file."""
        return self._lookup(name).size_bytes

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def append(self, name: str, data_or_size: bytes | int,
               background: bool = False) -> float:
        """Append bytes (or an abstract byte count) to a file.

        New pages are allocated as needed; a partially filled tail page
        is rewritten (the read-modify-write a real filesystem performs
        with direct I/O).  Returns host-visible latency.
        """
        meta = self._lookup(name)
        nbytes = data_or_size if isinstance(data_or_size, int) else len(data_or_size)
        if nbytes <= 0:
            return 0.0
        if self.record_data:
            if isinstance(data_or_size, int):
                meta.data.extend(b"\0" * nbytes)
            else:
                meta.data.extend(data_or_size)

        old_size = meta.size_bytes
        new_size = old_size + nbytes
        page_size = self.page_size
        old_pages = _ceil_div(old_size, page_size)
        new_pages = _ceil_div(new_size, page_size)
        if new_pages > old_pages:
            self._push_new_extents(meta, new_pages - old_pages)
        meta.size_bytes = new_size

        # Pages touched: the (possibly partial) page containing old EOF
        # through the last page of the new EOF.
        first_page = old_size // page_size
        return self._write_file_pages(meta, first_page, new_pages - first_page,
                                      background)

    def reserve(self, name: str, nbytes: int) -> None:
        """Extend a file by *nbytes* without writing (``fallocate``).

        The allocated pages stay unwritten on the device until a
        ``pwrite`` touches them — pre-allocated-but-unused space does
        not count as valid data for garbage collection, exactly like a
        real fallocate over a trimmed range.
        """
        meta = self._lookup(name)
        if nbytes <= 0:
            return
        if self.record_data:
            meta.data.extend(b"\0" * nbytes)
        old_pages = _ceil_div(meta.size_bytes, self.page_size)
        new_size = meta.size_bytes + nbytes
        new_pages = _ceil_div(new_size, self.page_size)
        if new_pages > old_pages:
            self._push_new_extents(meta, new_pages - old_pages)
        meta.size_bytes = new_size

    def pwrite(self, name: str, offset: int, data_or_size: bytes | int,
               background: bool = False) -> float:
        """Write within (or extending) a file at a byte offset."""
        meta = self._lookup(name)
        nbytes = data_or_size if isinstance(data_or_size, int) else len(data_or_size)
        if nbytes <= 0:
            return 0.0
        if offset < 0 or offset > meta.size_bytes:
            raise FilesystemError(
                f"pwrite at offset {offset} beyond EOF {meta.size_bytes} of {name!r}"
            )
        end = offset + nbytes
        latency = 0.0
        if end > meta.size_bytes:
            # Grow first (allocating pages), then overwrite in place below;
            # the grown region's write is charged by append.
            grow = end - meta.size_bytes
            latency += self.append(name, grow, background=background)
            nbytes -= grow
            end = offset + nbytes
            if nbytes <= 0:
                if self.record_data and not isinstance(data_or_size, int):
                    self._patch_data(meta, offset, data_or_size)
                return latency
        if self.record_data and not isinstance(data_or_size, int):
            self._patch_data(meta, offset, data_or_size)
        first_page = offset // self.page_size
        last_page = _ceil_div(end, self.page_size)
        latency += self._write_file_pages(meta, first_page,
                                          last_page - first_page, background)
        return latency

    def _push_new_extents(self, meta: FileMeta, npages: int) -> None:
        """Allocate *npages* and append the granted extents to *meta*."""
        for extent in self.allocator.alloc(npages):
            meta.push_extent(extent)

    def _write_file_pages(self, meta: FileMeta, first_page: int, count: int,
                          background: bool) -> float:
        """Submit a file page range to the device.

        A range inside one extent — the overwhelmingly common shape —
        is submitted as a consecutive device range (no page-list
        materialization anywhere down the stack); only extent-spanning
        ranges build the explicit page list.  Device accounting is
        identical either way: one host request for the same pages.
        """
        run = self._single_run(meta, first_page, count)
        retry = self.retry
        if run is not None:
            if retry is not None:
                return retry.run(lambda: self.device.write_range(
                    run[0], run[1], background=background))
            return self.device.write_range(run[0], run[1], background=background)
        if retry is not None:
            lpns = self._file_lpns(meta, first_page, count)
            return retry.run(
                lambda: self.device.write_pages(lpns, background=background))
        return self.device.write_pages(
            self._file_lpns(meta, first_page, count), background=background
        )

    def contiguous_device_range(self, name: str) -> tuple[int, int] | None:
        """(device_start, npages) when the file occupies one extent.

        Fixed-footprint hot files (the B+Tree's pre-allocated journal
        ring) cache this translation and submit their page writes as
        device ranges directly — exactly the range ``pwrite`` would
        compute, minus the per-record resolution.  Returns None for
        multi-extent files; callers must then go through ``pwrite``.
        The cache is sound only while the file is neither extended nor
        deleted, which a ring guarantees by construction.
        """
        meta = self._lookup(name)
        if meta.nextents == 1:
            return (int(meta._es[0]), int(meta._el[0]))
        return None

    def page_run(self, name: str, first_page: int,
                 count: int) -> tuple[int, int] | None:
        """Device range of file pages [first_page, first_page+count), or
        None when the range spans extents.

        Once allocated, a file page's device location never changes
        (extents are only appended, and appending can only merge into
        the tail extent without moving it), so fixed-slot writers (the
        B+Tree pager) may cache this resolution for files they never
        truncate or delete and submit device ranges directly.
        """
        return self._single_run(self._lookup(name), first_page, count)

    def pread(self, name: str, offset: int, nbytes: int) -> tuple[float, bytes | None]:
        """Read a byte range; returns (latency, data-or-None).

        Data is returned only when the filesystem records contents.
        """
        meta = self._lookup(name)
        if nbytes <= 0:
            return 0.0, b"" if self.record_data else None
        if offset < 0 or offset + nbytes > meta.size_bytes:
            raise FilesystemError(
                f"pread [{offset}, {offset + nbytes}) beyond EOF "
                f"{meta.size_bytes} of {name!r}"
            )
        first_page = offset // self.page_size
        last_page = _ceil_div(offset + nbytes, self.page_size)
        count = last_page - first_page
        run = self._single_run(meta, first_page, count)
        if run is not None:
            latency = self.device.read_range(*run)
        else:
            latency = 0.0
            for start, length in self._file_runs(meta, first_page, count):
                latency += self.device.read_range(start, length)
        data = bytes(meta.data[offset : offset + nbytes]) if self.record_data else None
        return latency, data

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def used_pages(self) -> int:
        """Pages currently allocated to files."""
        return self.allocator.npages - self.allocator.free_pages

    @property
    def used_bytes(self) -> int:
        """Bytes of allocated space (page granularity, like ``df``)."""
        return self.used_pages * self.page_size

    @property
    def peak_used_bytes(self) -> int:
        """High-water mark of allocated space (the paper reports the
        *maximum* utilization for RocksDB, whose usage oscillates)."""
        return self.allocator.peak_used_pages * self.page_size

    @property
    def free_bytes(self) -> int:
        """Bytes of unallocated space."""
        return self.allocator.free_pages * self.page_size

    @property
    def capacity_bytes(self) -> int:
        """Total filesystem capacity in bytes."""
        return self.allocator.npages * self.page_size

    def utilization(self) -> float:
        """Fraction of the filesystem capacity allocated to files."""
        return self.used_pages / self.allocator.npages

    def file_device_pages(self, name: str) -> np.ndarray:
        """All device pages of a file, in file order (for tests/traces)."""
        meta = self._lookup(name)
        return np.asarray(self._file_lpns(meta, 0, meta.npages), dtype=np.int64)

    def check_invariants(self) -> None:
        """Verify allocator/file consistency; raises on bugs."""
        self.allocator.check_invariants()
        claimed: set[int] = set()
        for meta in self._files.values():
            for start, length in meta.extents:
                pages = range(start, start + length)
                overlap = claimed.intersection(pages)
                assert not overlap, f"files share pages {sorted(overlap)[:4]}"
                claimed.update(pages)
            assert meta.npages == sum(l for _, l in meta.extents)
            assert meta.npages >= _ceil_div(meta.size_bytes, self.page_size)
        free = {
            page
            for start, length in self.allocator.free_extents()
            for page in range(start, start + length)
        }
        assert not claimed.intersection(free), "allocated pages marked free"
        assert len(claimed) + len(free) == self.allocator.npages

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _lookup(self, name: str) -> FileMeta:
        if name not in self._files:
            raise FileNotFoundError_(f"no such file: {name!r}")
        return self._files[name]

    #: Page counts up to this are submitted as Python-int lists when
    #: they fall inside one extent run — the dominant shape of journal
    #: records and page reconciliations, where numpy round-trips cost
    #: more than the I/O bookkeeping itself.
    SMALL_IO_PAGES = 8

    def _single_run(self, meta: FileMeta, first_page: int,
                    count: int) -> tuple[int, int] | None:
        """(device_start, count) when the page range sits in one extent,
        else None (callers fall back to the multi-run path)."""
        ne = meta._ne
        if ne == 1:
            # One-extent files (the pre-allocated journal ring, small
            # logs) resolve with pure arithmetic.
            if first_page + count > meta._pages:
                raise FilesystemError(
                    f"file {meta.name!r} has no pages for requested range"
                )
            return (int(meta._es[0]) + first_page, count)
        cum = meta.cumulative()
        if ne == 0 or first_page + count > int(cum[-1]):
            raise FilesystemError(
                f"file {meta.name!r} has no pages for requested range"
            )
        idx = int(cum.searchsorted(first_page, side="right"))
        preceding = int(cum[idx - 1]) if idx > 0 else 0
        skip = first_page - preceding
        if skip + count <= int(meta._el[idx]):
            return (int(meta._es[idx]) + skip, count)
        return None

    def _file_runs(self, meta: FileMeta, first_page: int, count: int):
        """Yield (device_start, length) runs covering file pages
        [first_page, first_page+count)."""
        if count <= 0:
            return
        cum = meta.cumulative()
        if meta._ne == 0 or first_page + count > int(cum[-1]):
            raise FilesystemError(
                f"file {meta.name!r} has no pages for requested range"
            )
        idx = int(cum.searchsorted(first_page, side="right"))
        skip = first_page - (int(cum[idx - 1]) if idx > 0 else 0)
        remaining = count
        while remaining > 0:
            start = int(meta._es[idx])
            length = int(meta._el[idx])
            take = min(length - skip, remaining)
            yield (start + skip, take)
            remaining -= take
            skip = 0
            idx += 1

    def _file_lpns(self, meta: FileMeta, first_page: int, count: int):
        """Device pages for a file range: a Python-int list for small
        single-run requests, an int64 array otherwise."""
        if count <= self.SMALL_IO_PAGES:
            run = self._single_run(meta, first_page, count)
            if run is not None:
                start, length = run
                return list(range(start, start + length))
        runs = list(self._file_runs(meta, first_page, count))
        if len(runs) == 1:
            start, length = runs[0]
            return np.arange(start, start + length, dtype=np.int64)
        return np.concatenate(
            [np.arange(s, s + l, dtype=np.int64) for s, l in runs]
        )

    def _patch_data(self, meta: FileMeta, offset: int, data: bytes) -> None:
        end = offset + len(data)
        if len(meta.data) < end:
            meta.data.extend(b"\0" * (end - len(meta.data)))
        meta.data[offset:end] = data


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)
