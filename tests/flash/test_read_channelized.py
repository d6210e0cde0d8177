"""The channelized read fold against closed-form completion times.

Page *start + i* of a read is served by channel ``(start + i) %
channels``.  Each touched channel finishes at ``max(busy, now) +
pages_on_channel * page_read_time`` (times the degrade factor on the
degraded channel while ``start <= now < end``), and the read completes
with its slowest channel.  On an idle device that is
``ceil(npages / channels) * page_read_time`` after ``now``.
"""

from __future__ import annotations

import pytest

from repro.core.clock import VirtualClock
from repro.faults.plan import FaultPlan
from repro.flash.ssd import SSD
from repro.rng import substream
from tests.conftest import make_tiny_config


def make_channel_ssd(**config_overrides) -> SSD:
    ssd = SSD(make_tiny_config(**config_overrides), VirtualClock())
    ssd.enable_channel_timing()
    return ssd


def timeline_state(ssd: SSD) -> tuple:
    channels = ssd._channels
    return (list(channels.busy), list(channels.write_busy),
            channels.busy_max, channels.write_max)


def pages_per_channel(start: int, npages: int, nchannels: int) -> dict:
    counts: dict[int, int] = {}
    for page in range(start, start + npages):
        counts[page % nchannels] = counts.get(page % nchannels, 0) + 1
    return counts


def latency_for(ssd: SSD, npages: int, service: float) -> float:
    cfg = ssd.config
    return (cfg.read_latency + npages * cfg.page_size / cfg.bus_bytes_per_s
            + service)


def assert_read_as_modeled(ssd: SSD, start: int, npages: int) -> float:
    """Read and check latency and horizons against the per-channel
    formula applied to the pre-read horizons; returns the service time
    (completion - now)."""
    cfg = ssd.config
    channels = ssd._channels
    now = ssd.clock.now
    busy = list(channels.busy)
    degrade = ssd.faults.degrade
    completion = now
    for c, pages in pages_per_channel(start, npages, len(busy)).items():
        seconds = pages * cfg.page_read_time
        if degrade is not None and c == degrade.channel \
                and degrade.start <= now < degrade.end:
            seconds *= degrade.factor
        busy[c] = max(busy[c], now) + seconds
        completion = max(completion, busy[c])
    write_state = (list(channels.write_busy), channels.write_max)
    service = completion - now
    assert ssd.read_range(start, npages) == latency_for(ssd, npages, service)
    assert channels.busy == busy
    assert channels.busy_max == max(busy)
    assert (channels.write_busy, channels.write_max) == write_state
    return service


class TestReadChannelizedEquivalence:
    @pytest.mark.parametrize("npages", [1, 3, 7, 8, 9, 16, 61, 256])
    def test_striping_shapes_identical(self, npages):
        """Below, at, and above the channel count (8), aligned or not."""
        ssd = make_channel_ssd()
        prt = ssd.config.page_read_time
        nchannels = ssd.config.channels
        # Idle device: the fullest channel holds ceil(npages / channels).
        service = assert_read_as_modeled(ssd, 5, npages)
        assert service == -(-npages // nchannels) * prt
        cumulative = pages_per_channel(5, npages, nchannels)
        for start in (0, npages):
            service = assert_read_as_modeled(ssd, start, npages)
            for c, pages in pages_per_channel(start, npages, nchannels).items():
                cumulative[c] = cumulative.get(c, 0) + pages
            touched = pages_per_channel(start, npages, nchannels)
            assert service == pytest.approx(
                max(cumulative[c] for c in touched) * prt, rel=1e-12)

    def test_zero_and_negative_page_reads_are_free(self):
        ssd = make_channel_ssd()
        before = timeline_state(ssd)
        assert ssd.read_range(0, 0) == 0.0
        assert ssd.read_range(0, -3) == 0.0
        assert timeline_state(ssd) == before

    def test_single_channel_device(self):
        ssd = make_channel_ssd(channels=1)
        prt = ssd.config.page_read_time
        total = 0
        for start, npages in [(0, 1), (3, 5), (0, 40)]:
            total += npages  # one FIFO: every page queues behind the last
            service = assert_read_as_modeled(ssd, start, npages)
            assert service == pytest.approx(total * prt, rel=1e-12)

    def test_randomized_interleaving_identical(self):
        """Reads and writes interleaved: reads queue behind busy channels."""
        ssd = make_channel_ssd()
        rng = substream(7, "read-fold")
        for _ in range(300):
            start = int(rng.integers(0, 512))
            npages = int(rng.integers(1, 48))
            if rng.random() < 0.3:
                ssd.write_range(start, npages)
            else:
                assert_read_as_modeled(ssd, start, npages)
            if rng.random() < 0.2:
                ssd.clock.advance(float(rng.random()) * 1e-3)

    def test_busy_max_monotone_and_tracks_oracle(self):
        ssd = make_channel_ssd()
        rng = substream(11, "busy-max")
        last = ssd._channels.busy_max
        for _ in range(200):
            ssd.read_range(int(rng.integers(0, 256)), int(rng.integers(1, 32)))
            channels = ssd._channels
            assert channels.busy_max >= last
            assert channels.busy_max == max(channels.busy)
            last = channels.busy_max
            if rng.random() < 0.3:
                ssd.clock.advance(float(rng.random()) * 1e-3)


class TestDegradeWindowEquivalence:
    FACTOR = 8.0

    def make_ssd(self, start: float, seconds: float) -> SSD:
        ssd = make_channel_ssd()
        ssd.faults = FaultPlan(
            {"degrade": {"channel": 2, "start": start,
                         "seconds": seconds, "factor": self.FACTOR}},
            substream(3, "degrade"),
        )
        return ssd

    def test_inside_window_scales_the_degraded_channel(self):
        ssd = self.make_ssd(start=0.0, seconds=1.0)
        prt = ssd.config.page_read_time
        # 16 aligned pages: two per channel, channel 2's scaled by 8.
        assert assert_read_as_modeled(ssd, 0, 16) == 2 * self.FACTOR * prt
        # Channel 2 then leads: later reads touching it complete there.
        assert assert_read_as_modeled(ssd, 2, 3) == pytest.approx(
            3 * self.FACTOR * prt, rel=1e-12)
        assert assert_read_as_modeled(ssd, 7, 9) == pytest.approx(
            4 * self.FACTOR * prt, rel=1e-12)
        busy = ssd._channels.busy
        assert busy[2] == max(busy)

    def test_boundary_now_equals_start_is_inside(self):
        """The window is half-open [start, end): now == start scales."""
        ssd = self.make_ssd(start=0.5, seconds=1.0)
        ssd.clock.advance(0.5)
        prt = ssd.config.page_read_time
        assert assert_read_as_modeled(ssd, 0, 16) == pytest.approx(
            2 * self.FACTOR * prt, rel=1e-9)
        assert_read_as_modeled(ssd, 1, 7)
        busy = ssd._channels.busy
        assert busy[2] == max(busy)

    def test_boundary_now_equals_end_is_outside(self):
        ssd = self.make_ssd(start=0.0, seconds=0.25)
        ssd.clock.advance(0.25)
        prt = ssd.config.page_read_time
        assert assert_read_as_modeled(ssd, 0, 16) == pytest.approx(
            2 * prt, rel=1e-9)
        assert_read_as_modeled(ssd, 1, 7)
        # No scaling: every lane of an aligned 16-page read adds the
        # same service time, so no channel's horizon stands out.
        busy = ssd._channels.busy
        assert busy[2] == busy[3]

    def test_before_and_after_window_identical(self):
        ssd = self.make_ssd(start=0.5, seconds=0.1)
        prt = ssd.config.page_read_time
        assert assert_read_as_modeled(ssd, 0, 16) == 2 * prt  # before
        ssd.clock.advance(1.0)
        assert assert_read_as_modeled(ssd, 0, 16) == pytest.approx(
            2 * prt, rel=1e-9)  # after: idle again, unscaled
