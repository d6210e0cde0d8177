"""Full-experiment fingerprints, pinned.

Each spec exercises one or more of the former array/scalar kernel
sites — the device-write tail, compaction merge, LSM scan merge and
point-probe path, the channelized read fold and the B+Tree leaf walk
(DESIGN.md §12) — or one driver shape of the experiment pipeline:
inline, one- and multi-client pool, one- and two-shard open-loop
fleets, the chaos shape (faults plus a shard kill) and the LBA trace.
The sha256 of each serialized result (every sample, SMART counter,
latency percentile, per-client op count, fleet summary and the
virtual-clock load/run seconds) was recorded before the pipeline
shapes were merged into one; every shape must reproduce it exactly.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.experiment import Engine, ExperimentSpec, run_experiment
from repro.units import MIB

FAST = dict(
    capacity_bytes=24 * MIB,
    duration_capacity_writes=1.0,
    sample_interval=0.05,
    max_ops=12_000,
)


def _fingerprint(spec: ExperimentSpec) -> str:
    record = run_experiment(spec).to_dict()
    blob = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestKernelEquivalence:
    @pytest.mark.parametrize("engine, expected", [
        (Engine.LSM,
         "90deb04475905a36a97df2c8d37c0b6ed321ad3776a5a4c0b2ace17e68c034fb"),
        (Engine.BTREE,
         "5cccc886bb1a9d47b2ce6f8945bb803e662776e3364a6aea59795cd46ffbe21c"),
    ], ids=["lsm", "btree"])
    def test_closed_loop_identical(self, engine, expected):
        spec = ExperimentSpec(engine=engine, **FAST)
        assert _fingerprint(spec) == expected

    def test_pooled_identical(self):
        spec = ExperimentSpec(engine=Engine.LSM, nclients=4, **FAST)
        assert _fingerprint(spec) == (
            "f15fdae314a369c0d88aaf9c594de282c2c8b0469d7d74848adcb14125837f63")

    @pytest.mark.parametrize("engine, expected", [
        (Engine.LSM,
         "10b7c3638e6ce61faaf7e0b787aa4986ac02cbd3ad5075e20a3bc40fc9eea671"),
        (Engine.BTREE,
         "20d98215ded9c2205134c5b8c08490b8c8a9f0ff2870330cbd9c239e2650a85f"),
    ], ids=["lsm", "btree"])
    def test_read_only_identical(self, engine, expected):
        # Pure-get measured phase: the point-probe and channelized-read
        # paths with no write interference.
        spec = ExperimentSpec(engine=engine, read_fraction=1.0, **FAST)
        assert _fingerprint(spec) == expected

    @pytest.mark.parametrize("engine, expected", [
        (Engine.LSM,
         "4e7808ce9dee34de9134e18b6e1119542231f00718bd0d4f43c832e991ca7c4f"),
        (Engine.BTREE,
         "e0eef795ae0878d7756a996c8a9621635e4ce7addcc9b0c8ce8c6eb62925cc8c"),
    ], ids=["lsm", "btree"])
    def test_scan_mix_identical(self, engine, expected):
        # Scan-heavy mix: the LSM heap merge and the B+Tree leaf walk.
        spec = ExperimentSpec(engine=engine, read_fraction=0.25,
                              scan_fraction=0.25, **FAST)
        assert _fingerprint(spec) == expected

    def test_pooled_scan_mix_identical(self):
        spec = ExperimentSpec(engine=Engine.LSM, nclients=4,
                              read_fraction=0.25, scan_fraction=0.25,
                              distribution="zipfian", **FAST)
        assert _fingerprint(spec) == (
            "43798a07f18f690380aad1ff5c91711fc2717c4e29ef2f85d46c774fd99a438d")

    def test_fleet_identical(self):
        spec = ExperimentSpec(engine=Engine.LSM, nshards=2, nclients=4, **FAST)
        assert _fingerprint(spec) == (
            "d13da012f758350cff3f008d5bfb5b3b98cab67a8a36e0182b181d95e4794f82")

    def test_one_client_pool_identical(self):
        spec = ExperimentSpec(engine=Engine.LSM, driver="pool", **FAST)
        assert _fingerprint(spec) == (
            "95e2601c38be44a98dc01e69dba1647d2e93881eb67c0d4a665c0e4323e48f08")

    def test_lba_trace_identical(self):
        spec = ExperimentSpec(engine=Engine.LSM, trace_lba=True, **FAST)
        assert _fingerprint(spec) == (
            "1b6f29fb3d69cd3e9da95b56a6493390cb16f9917ad0fdd1786de09dc6f1dcbb")

    def test_one_shard_open_loop_identical(self):
        spec = ExperimentSpec(engine=Engine.BTREE, arrival="poisson",
                              arrival_rate=4000.0, queue_cap=16, **FAST)
        assert _fingerprint(spec) == (
            "0b185b0770d58f363ef071f93665d29132695e32ce4438f54072c958c5fd5389")

    @pytest.mark.parametrize("engine, expected", [
        (Engine.LSM,
         "3f000f7a183de00589f297f89e912299737bfdc32348d7167753a076412010cb"),
        (Engine.BTREE,
         "ae4b75945ffd97faa94a60cf751bd0695266a00a5a2cc4bf0945c5867b8ce9fb"),
    ], ids=["lsm", "btree"])
    def test_chaos_fleet_identical(self, engine, expected):
        # The chaos preset's shape: two open-loop shards, a flaky
        # device and a mid-run kill of shard 0.
        spec = ExperimentSpec(engine=engine, nshards=2, arrival="poisson",
                              arrival_rate=4000.0, queue_cap=16,
                              op_timeout_ms=50.0, read_fraction=0.25,
                              faults={"read": 0.05, "program": 0.02,
                                      "latency": 0.05,
                                      "read_penalty_ms": 2.0},
                              kill_at=0.05, **FAST)
        assert _fingerprint(spec) == expected

    def test_kernel_mode_not_in_stable_hash(self):
        # The kernel switch was never part of a spec's identity, so
        # removing it must leave every stable_hash (and with it
        # campaign resume) unchanged.
        spec = ExperimentSpec(engine=Engine.LSM, **FAST)
        assert spec.stable_hash() == "456df1bcf05227e7"
