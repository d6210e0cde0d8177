"""Batched-vs-scalar ClientPool equivalence (DESIGN.md §7).

The batched pool client issues operation segments through the engines'
batch API with an event-scheduler-aware ``until``; the scalar client
(one op per event) is the seed oracle.  For any client count the two
must be *bit-identical* at the op, latency, and full-experiment level:
same operations at the same virtual times in the same global order,
hence the same clock, SMART counters, per-client op counts, per-op
latency series, and sample series.
"""

from __future__ import annotations

from dataclasses import asdict

import json

import pytest

from repro.core.experiment import Engine, ExperimentSpec, build_stack, run_experiment
from repro.sim.clients import ClientPool
from repro.units import MIB
from repro.workload.runner import load_sequential, run_workload

FAST = dict(
    capacity_bytes=24 * MIB,
    dataset_fraction=0.3,
    duration_capacity_writes=50.0,
    sample_interval=0.05,
    max_ops=2500,
)

MIXED = dict(read_fraction=0.25, scan_fraction=0.1, delete_fraction=0.05,
             scan_length=20)

ENGINES = (Engine.LSM, Engine.BTREE)


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, default=str)


def pool_outcome(engine: Engine, nclients: int, batch: bool, **overrides):
    spec = ExperimentSpec(engine=engine, nclients=nclients, **FAST, **overrides)
    clock, ssd, _device, _partition, _fs, store, _iostat, _trace = build_stack(spec)
    load_sequential(store, spec.workload())
    ssd.drain()
    pool = ClientPool(store, spec.workload(), nclients, seed=7,
                      max_ops=spec.max_ops, ssd=ssd, batch=batch)
    outcome = pool.run()
    return outcome, clock, ssd, store


class TestPoolEquivalence:
    """Satellite 4: n-client batched == scalar pool, bit for bit."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("nclients", (1, 4))
    def test_counts_clock_smart_and_latencies(self, engine, nclients):
        scalar, clock_a, ssd_a, store_a = pool_outcome(engine, nclients,
                                                       batch=False, **MIXED)
        batched, clock_b, ssd_b, store_b = pool_outcome(engine, nclients,
                                                        batch=True, **MIXED)
        assert batched.ops_issued == scalar.ops_issued
        assert batched.per_client_ops == scalar.per_client_ops
        assert clock_b.now == clock_a.now  # bit-identical, not approx
        assert ssd_b.smart.as_dict() == ssd_a.smart.as_dict()
        assert asdict(store_b.stats.snapshot()) == asdict(store_a.stats.snapshot())
        # Latency series, not just percentiles: every op's latency in
        # completion order, per client.
        for client in range(nclients):
            assert batched.latencies.series(client).tolist() == \
                scalar.latencies.series(client).tolist()
        for q in (50, 95, 99):
            assert batched.latencies.percentile(q) == \
                scalar.latencies.percentile(q)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_channel_timing_case(self, engine):
        # nclients > 1 with an attached SSD turns on per-channel device
        # timing; the batched client must interleave identically there.
        scalar, clock_a, ssd_a, _sa = pool_outcome(engine, 4, batch=False)
        batched, clock_b, ssd_b, _sb = pool_outcome(engine, 4, batch=True)
        assert ssd_a.channel_timing_enabled and ssd_b.channel_timing_enabled
        assert clock_b.now == clock_a.now
        assert ssd_b.smart.as_dict() == ssd_a.smart.as_dict()
        assert batched.latencies.percentile(99) == scalar.latencies.percentile(99)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("nclients", (1, 4))
    def test_full_experiment_record_identical(self, engine, nclients):
        spec = ExperimentSpec(engine=engine, nclients=nclients,
                              driver="pool", **FAST, **MIXED)
        scalar = run_experiment(spec, batched=False)
        batched = run_experiment(spec, batched=True)
        assert canonical(scalar) == canonical(batched)
        assert batched.samples == scalar.samples


class TestSeedCompatibilityBatched:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_client_batched_pool_matches_inline_runner(self, engine):
        """Acceptance: 1-client batched pool == seed inline runner."""
        spec = ExperimentSpec(engine=engine, **FAST)
        clock_a = build_stack(spec)
        clock_a, ssd_a, _d, _p, _f, store_a, _i, _t = clock_a
        load_sequential(store_a, spec.workload())
        ssd_a.drain()
        legacy = run_workload(store_a, spec.workload(), seed=7,
                              max_ops=spec.max_ops)
        batched, clock_b, ssd_b, store_b = pool_outcome(engine, 1, batch=True)
        assert batched.ops_issued == legacy.ops_issued
        assert clock_b.now == clock_a.now
        assert ssd_b.smart.as_dict() == ssd_a.smart.as_dict()
        assert asdict(store_b.stats.snapshot()) == asdict(store_a.stats.snapshot())

    def test_driver_pool_spec_field(self):
        """driver='pool' routes a 1-client experiment through the pool
        (bit-identical) and records latencies."""
        inline = run_experiment(ExperimentSpec(engine=Engine.LSM, **FAST))
        pooled = run_experiment(ExperimentSpec(engine=Engine.LSM,
                                               driver="pool", **FAST))
        assert pooled.ops_issued == inline.ops_issued
        assert pooled.run_seconds == inline.run_seconds
        assert pooled.samples == inline.samples
        assert pooled.smart == inline.smart
        assert inline.client_latencies is None
        assert pooled.client_latencies is not None
        assert pooled.client_latencies.count() == pooled.ops_issued

    def test_driver_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ExperimentSpec(driver="turbo")
        with pytest.raises(ConfigError):
            ExperimentSpec(driver="inline", nclients=2)


class TestOutOfSpaceBatched:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_out_of_space_equivalent(self, engine):
        spec = ExperimentSpec(
            engine=engine, capacity_bytes=24 * MIB, dataset_fraction=0.85,
            duration_capacity_writes=60.0, sample_interval=0.05, nclients=4,
        )
        scalar = run_experiment(spec, batched=False)
        batched = run_experiment(spec, batched=True)
        assert batched.out_of_space and scalar.out_of_space
        assert canonical(scalar) == canonical(batched)
