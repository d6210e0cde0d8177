"""The benchmark's workloads and their correctness fingerprints.

Every workload runs at FULL scale: a 400 MiB SSD1 (the paper's 400 GB
drive at 1/1000), a dataset of 50% of capacity with 4000-byte values,
loaded sequentially before the measured phase.  The seed is the
benchmark's ``--seed`` and goes to :attr:`ExperimentSpec.seed`.

Simulated outputs (virtual clock, kv op counts, SMART counters, WA-A,
WA-D, latency percentiles, the fleet summary) repeat exactly for one
seed.  They are not speed metrics; hashed, they are the workload's
correctness fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.experiment import Engine, ExperimentResult, ExperimentSpec
from repro.flash.state import DriveState
from repro.units import MIB

#: Measured-phase ops of the read mix.  Its writes are too sparse for
#: the host-bytes stop rule to end it in a benchmark-sized run.
READMIX_OPS = 30_000
#: Open-loop arrival rate of the B+Tree fleet (simulated ops/s).  Both
#: shards sustain it: no op is rejected or times out.
FLEET_RATE = 1000.0
#: Offered ops of the fleet's measured phase, about a third of what the
#: host-bytes stop rule would run, so several repetitions fit in a run.
FLEET_OPS = 20_000

_FULL = dict(ssd="ssd1", capacity_bytes=400 * MIB, dataset_fraction=0.5,
             value_bytes=4000, sample_interval=0.5)

WORKLOADS: dict[str, dict] = {
    # Uniform updates on a trimmed drive through 4 closed-loop clients
    # (paper Fig. 2), until host writes reach 3.5x capacity so WA-D
    # levels off.  Host time goes to the write path and the ClientPool.
    "lsm-update-pool4": dict(engine=Engine.LSM, drive_state=DriveState.TRIMMED,
                             nclients=4, duration_capacity_writes=3.5),
    # Zipfian 75% gets / 5% scans of 50 / 20% updates, one inline
    # client: the read path dominates, while the updates keep memtable
    # snapshots and compactions turning over.
    "lsm-readmix-zipf": dict(engine=Engine.LSM, drive_state=DriveState.TRIMMED,
                             distribution="zipfian", read_fraction=0.75,
                             scan_fraction=0.05, scan_length=50,
                             max_ops=READMIX_OPS),
    # 50% gets / 50% uniform updates on a preconditioned drive (paper
    # Pitfall 3), two hash-routed shards fed by open-loop Poisson
    # arrivals: the only workload through the fleet driver and the
    # B+Tree engine, with the FTL and GC in steady state.
    "btree-fleet-precond": dict(engine=Engine.BTREE,
                                drive_state=DriveState.PRECONDITIONED,
                                read_fraction=0.5, nshards=2, router="hash",
                                arrival="poisson", arrival_rate=FLEET_RATE,
                                max_ops=FLEET_OPS),
}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def spec_for(workload: str, seed: int) -> ExperimentSpec:
    """The full-scale :class:`ExperimentSpec` of a named workload."""
    return ExperimentSpec(name=f"perfbench/{workload}", seed=seed,
                          **_FULL, **WORKLOADS[workload])


def fingerprint(result: ExperimentResult) -> tuple[str, dict]:
    """(digest, summary) of a run's simulated outputs.

    The digest hashes the whole JSON record of the result, sampled time
    series included; floats serialise by ``repr`` so they hash exactly.
    The summary keeps the headline fields readable for a mismatch report.
    """
    record = result.to_dict(include_samples=True)
    record.pop("attribution", None)
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    latency = record["latency"] or {}
    summary = {
        "clock_s": result.load_seconds + result.run_seconds,
        "kv_ops": dict(result.kv_ops),
        "host_bytes_written": result.smart["host_bytes_written"],
        "nand_bytes_written": result.smart["nand_bytes_written"],
        "wa_d": result.steady.wa_d if result.steady else None,
        "wa_a": result.steady.wa_a if result.steady else None,
        "p50": latency.get("p50"),
        "p99": latency.get("p99"),
        "goodput": (result.fleet or {}).get("goodput"),
    }
    return digest, summary


def failed_ops(result: ExperimentResult) -> int:
    """Ops that failed: out of space, or fleet rejections/failures/timeouts."""
    fleet = result.fleet or {}
    return (int(result.out_of_space) + fleet.get("rejected", 0)
            + fleet.get("failed", 0) + fleet.get("timeouts", 0))


def attempted_ops(result: ExperimentResult, load_ops: int) -> int:
    """Ops the run attempted: the load, plus every measured op offered."""
    fleet = result.fleet or {}
    measured = fleet.get("offered", result.ops_issued)
    return load_ops + measured + int(result.out_of_space)


def load_reference() -> dict:
    """The recorded fingerprints: ``{"seed": n, "fingerprints": {...}}``."""
    if not REFERENCE_PATH.exists():
        return {"seed": None, "fingerprints": {}}
    return json.loads(REFERENCE_PATH.read_text())


def record_reference(workload: str, seed: int, digest: str, summary: dict) -> None:
    """Store a workload's fingerprint for *seed* as the reference."""
    ref = load_reference()
    if ref.get("seed") not in (None, seed):
        raise ValueError(f"reference is recorded for seed {ref['seed']}, not {seed}")
    ref["seed"] = seed
    ref.setdefault("fingerprints", {})[workload] = {"digest": digest,
                                                    "summary": summary}
    REFERENCE_PATH.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
