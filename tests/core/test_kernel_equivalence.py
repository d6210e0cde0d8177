"""Full-experiment fingerprints of the kernel sites, pinned.

Each spec exercises one or more of the former array/scalar kernel
sites — the device-write tail, compaction merge, LSM scan merge and
point-probe path, the channelized read fold and the B+Tree leaf walk
(DESIGN.md §12).  Both implementations of every site were pinned
bit-identical on these specs, and the sha256 of each serialized result
(every sample, SMART counter, latency percentile and per-client op
count; host wall times removed) was recorded then.  The one remaining
implementation per site must reproduce each fingerprint exactly.
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
    record.pop("load_seconds")  # host wall time: the only legitimate delta
    record.pop("run_seconds")
    blob = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestKernelEquivalence:
    @pytest.mark.parametrize("engine, expected", [
        (Engine.LSM,
         "b1d7f58d771e7a9066669c529aec48a25d86e047d392c162e373a456e0d543aa"),
        (Engine.BTREE,
         "2a14943053abb210140de73d157b7aba27c6c14f6ef5891431fb31bd4b4acaf1"),
    ], ids=["lsm", "btree"])
    def test_closed_loop_identical(self, engine, expected):
        spec = ExperimentSpec(engine=engine, **FAST)
        assert _fingerprint(spec) == expected

    def test_pooled_identical(self):
        spec = ExperimentSpec(engine=Engine.LSM, nclients=4, **FAST)
        assert _fingerprint(spec) == (
            "0c5835076c3069bc5d54044b2a94871c0c4e736466a64c5bb573804ea54c4ad1")

    @pytest.mark.parametrize("engine, expected", [
        (Engine.LSM,
         "7fcff6a530d0930d9ce55c030cd053b7e24fe903db73b0dbede77c42a79cd0f6"),
        (Engine.BTREE,
         "43f09bbc92c89aff0fd3ff1cd4609882ff592cdf78dfb5df696626e9069b739a"),
    ], ids=["lsm", "btree"])
    def test_read_only_identical(self, engine, expected):
        # Pure-get measured phase: the point-probe and channelized-read
        # paths with no write interference.
        spec = ExperimentSpec(engine=engine, read_fraction=1.0, **FAST)
        assert _fingerprint(spec) == expected

    @pytest.mark.parametrize("engine, expected", [
        (Engine.LSM,
         "b33ac5f32df69024044c8c54135baf4e5ed98e865aaf97cd7e9317f7813f45b7"),
        (Engine.BTREE,
         "e70e2d4edf22f4fa028b1e96cff461db88b8a15745745c7f8bbbbdf2952054ea"),
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
            "68e677314926c53ffdb2f9926312e3e132aa61a2fae1b127e300afc4c2a74964")

    def test_fleet_identical(self):
        spec = ExperimentSpec(engine=Engine.LSM, nshards=2, nclients=4, **FAST)
        assert _fingerprint(spec) == (
            "e32ee8076b61758595c20b6baf9f48de8ec2a7310016c18a6697273173623a8f")

    def test_kernel_mode_not_in_stable_hash(self):
        # The kernel switch was never part of a spec's identity, so
        # removing it must leave every stable_hash (and with it
        # campaign resume) unchanged.
        spec = ExperimentSpec(engine=Engine.LSM, **FAST)
        assert spec.stable_hash() == "456df1bcf05227e7"
