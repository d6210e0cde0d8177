"""Noise-floor host times from identical repetitions of one experiment.

On a shared host a process runs at full speed most of the time, but for
stretches of a few milliseconds to minutes a neighbour slows it by up
to about half.  A whole-experiment wall time integrates those
stretches, so its median moves with whatever the host was doing while
the run lasted.

The simulator is deterministic: every repetition of one seed performs
the same calls in the same order.  :class:`Checkpoints` stamps the host
clock at every call into the SSD model's public I/O methods, which
every workload reaches many thousand times per repetition, and the
phase probe's spans (``build_stack``, load, driver, the whole
``run_experiment``) mark the phase boundaries among those stamps.  The
stamps cut each repetition into the same short chunks of work.

:class:`NoiseFloor` takes, chunk by chunk, the fastest of ``window``
repetitions and sums those minima per phase.  A chunk lasts well under a
millisecond, so at least one of the repetitions almost always ran it at
full speed.  The sum is the phase's host time without the neighbours'
interference.  The window size is fixed, since a minimum over more
repetitions reads lower, and its repetitions are spread over the whole
run, so a slow stretch of several seconds cannot cover all of them.

Some slow stretches last longer than a whole run and slow every chunk
alike.  So every ``interval``-th stamp also times one pass of a fixed
calibration loop, a miniature of the simulator's own mix of work,
about ``CAL_SAMPLES`` per repetition, spread over the whole of it; the
pause is cut out of the timeline.  Calibration sample i does
the same work in every repetition, so the same fastest-of-the-window
rule gives the loop's time in that window.  Every estimate is scaled by
``CAL_REF`` over it: the metrics read host seconds on a host whose
calibration loop takes ``CAL_REF`` (about a quiet 2-vCPU x86 VM), so a
change that makes the program faster moves them and a busier neighbour
moves them much less.

The first repetition only counts the stamps, to fix ``interval``.  If
the SSD class or its methods are gone, the phases are single chunks,
the calibration runs after each repetition, and the estimate falls back
to the fastest repetition of each phase.
"""

from __future__ import annotations

import gc
import heapq
import importlib
from array import array
from bisect import bisect_left
from time import perf_counter

import numpy as np

#: The SSD model's public I/O methods, stamped at each call.
MODULE, OWNER = "repro.flash.ssd", "SSD"
METHODS = ("write_pages", "write_range", "read_range", "trim_range")
#: Host seconds of one calibration loop that the metrics are scaled to,
#: and the loop's samples per repetition.
CAL_REF = 0.0002
CAL_SAMPLES = 150


class _Entry:
    __slots__ = ("key", "seq", "value")

    def __init__(self, key: int, seq: int, value: int):
        self.key, self.seq, self.value = key, seq, value


def _calibration_loop() -> int:
    """A fixed miniature of the simulator's host work.

    A memtable of small objects, a sorted run, bisect lookups, a heap
    merge, a few small-array sorts and some string building: the kinds
    of work a neighbour slows the simulator's host time through.  It
    depends on nothing in the program, so a change to the program
    leaves it alone.
    """
    memtable: dict[int, _Entry] = {}
    for i in range(300):
        key = (i * 2654435761) & 0xFFFF
        old = memtable.get(key)
        if old is None or i > old.seq:
            memtable[key] = _Entry(key, i, i & 0xFF)
    keys = [e.key for e in sorted(memtable.values(), key=lambda e: e.key)]
    found = 0
    for probe in range(0, 0x10000, 331):
        j = bisect_left(keys, probe)
        found += j < len(keys) and keys[j] == probe
    merged = list(heapq.merge(keys[::2], keys[1::2]))
    a = np.fromiter(merged, dtype=np.int64, count=len(merged))
    for _ in range(4):
        a = np.cumsum(a[np.argsort(a, kind="stable")] & 0xFFFF)
    text = ",".join(str(k) for k in keys[:64])
    return found + len(text) + int(a[-1])


def calibrate_once() -> tuple[float, float]:
    """(start, seconds) of one pass of the calibration loop, GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _calibration_loop()
        return start, perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_scale(calibration: list[np.ndarray]) -> float:
    """``CAL_REF`` over the loop's time, sample by sample fastest of these."""
    return CAL_REF / float(np.minimum.reduce(calibration).mean())


class Checkpoints:
    """Host timestamps at every call into the SSD model's I/O methods."""

    def __init__(self):
        self.interval = 0  # stamps between calibration passes; 0 = none yet
        self.stamps = array("d")
        self.cal_start = array("d")
        self.cal_s = array("d")
        self._left = 0
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def install(self) -> None:
        self.absent = []
        try:
            owner = getattr(importlib.import_module(MODULE), OWNER, None)
        except ImportError:
            owner = None
        for attr in METHODS:
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None or not callable(fn):
                self.absent.append(f"{OWNER}.{attr}")
                continue
            self._patches.append((owner, attr, vars(owner).get(attr),
                                  attr in vars(owner)))
            setattr(owner, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def __enter__(self) -> "Checkpoints":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn):
        stamp = self.stamps.append
        checkpoints = self

        def stamped(*args, **kwargs):
            checkpoints._left -= 1
            if checkpoints._left == 0:
                checkpoints._calibrate()
            stamp(perf_counter())
            return fn(*args, **kwargs)

        stamped.__wrapped__ = fn
        return stamped

    def _calibrate(self) -> None:
        start, seconds = calibrate_once()
        self.cal_start.append(start)
        self.cal_s.append(seconds)
        self._left = self.interval

    def timeline(self, spans: list[tuple[str, float, float]]) -> "Timeline":
        """This repetition's chunks, cut at the stamps and at *spans*.

        *spans* are the phase probe's ``(name, start, end)`` triples.
        Calibration pauses are cut out; if fewer than ``CAL_SAMPLES``
        passes ran inside the repetition, the rest run now.  The first
        call fixes ``interval`` from the stamp count.  The stamps are
        cleared for the next repetition.
        """
        # Host time with the calibration pauses cut out.
        paused = np.concatenate([[0.0], np.cumsum(self.cal_s)])
        cal_start = np.array(self.cal_start, dtype=np.float64)

        def unpaused(t: np.ndarray) -> np.ndarray:
            return t - paused[np.searchsorted(cal_start, t, side="right")]

        count = len(self.stamps)
        stamps = unpaused(np.array(self.stamps, dtype=np.float64))
        starts = unpaused(np.array([s for _, s, _ in spans], dtype=np.float64))
        ends = unpaused(np.array([e for _, _, e in spans], dtype=np.float64))
        # Where each boundary falls among the stamps: a stamp that reads
        # the same instant as a span's start ran after it, one that
        # reads its end ran before it.
        at_start = np.searchsorted(stamps, starts, side="left")
        at_end = np.searchsorted(stamps, ends, side="right")
        # Stamp i sorts at 2i+1, a boundary before stamp k at 2k; ties
        # between boundaries go by time.
        keys = np.concatenate([2 * np.arange(stamps.size) + 1, 2 * at_start,
                               2 * at_end])
        values = np.concatenate([stamps, starts, ends])
        order = np.lexsort((values, keys))
        slot = np.empty(order.size, dtype=np.int64)
        slot[order] = np.arange(order.size)
        slots = slot[stamps.size:]
        nb = len(spans)
        phases: dict[str, list[tuple[int, int]]] = {}
        for i, (name, _, _) in enumerate(spans):
            phases.setdefault(name, []).append((int(slots[i]), int(slots[nb + i])))

        inside = len(self.cal_s)
        calibration = list(self.cal_s) + [calibrate_once()[1] for _ in
                                          range(CAL_SAMPLES - inside)]
        del self.stamps[:], self.cal_start[:], self.cal_s[:]
        if not self.interval and count:
            self.interval = max(1, -(-count // CAL_SAMPLES))
        self._left = self.interval
        signature = (int(stamps.size), inside, tuple(int(s) for s in slots))
        return Timeline(np.diff(values[order]).astype(np.float32), phases,
                        np.array(calibration), signature)


class Timeline:
    """One repetition cut into chunks: ``chunks[i]`` lasts from event i to i+1."""

    def __init__(self, chunks: np.ndarray, phases: dict[str, list[tuple[int, int]]],
                 calibration: np.ndarray, signature: tuple):
        self.chunks = chunks
        self.phases = phases
        self.calibration = calibration
        self.signature = signature
        #: Phase name -> more host-second samples of that phase, timed
        #: apart from the repetition (e.g. extra stack builds).
        self.extra: dict[str, list[float]] = {}


class NoiseFloor:
    """Per-phase host seconds, chunk by chunk fastest of *window* repetitions."""

    def __init__(self, window: int):
        self.window = window
        self.timelines: list[Timeline] = []

    def add(self, timeline: Timeline) -> None:
        self.timelines.append(timeline)

    def _windows(self) -> list[list[Timeline]]:
        """Windows of timed repetitions whose chunks line up.

        The first repetition warms up and counts only if it is the only
        one.  With n timed repetitions, window j takes repetitions j,
        j+w, j+2w, ... (w = n // window), so each window spreads over
        the whole run.  Repetitions whose chunks do not line up with the
        first timed one (which deterministic code never produces) are
        left out.
        """
        timed = self.timelines[1:] or self.timelines
        same = [t for t in timed if t.signature == timed[0].signature]
        groups = max(1, len(same) // self.window)
        return [same[j::groups][:self.window] for j in range(groups if same else 0)]

    def estimates(self) -> list[dict[str, float]]:
        """One ``{phase: scaled seconds}`` per window of repetitions.

        A phase with ``extra`` samples reads the fastest of them over the
        window's repetitions instead of its chunks.
        """
        out = []
        for members in self._windows():
            scale = host_scale([t.calibration for t in members])
            floor = np.minimum.reduce([t.chunks for t in members]).astype(np.float64)
            cum = np.concatenate([[0.0], np.cumsum(floor)]) * scale
            est = {name: float(sum(cum[b] - cum[a] for a, b in ranges))
                   for name, ranges in members[0].phases.items()}
            for name in members[0].extra:
                est[name] = scale * min(min(t.extra[name]) for t in members)
            out.append(est)
        return out
