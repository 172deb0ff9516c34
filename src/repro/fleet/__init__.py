"""repro.fleet: multi-vehicle orchestration for the SACK reproduction.

The paper evaluates SACK on one vehicle; this package opens the
fleet-scale workload its deployment story implies.  It runs **N
independent vehicle kernels** (each a full ``repro.kernel`` + LSM stack +
SDS/SSM/APE pipeline) on one virtual clock, under a fleet-side control
plane:

* :mod:`repro.fleet.bundle` — signed OTA policy bundles (SACK policy +
  bridged AppArmor profiles under one signature).
* :mod:`repro.fleet.rollout` — the staged rollout state machine: canary →
  percentage waves → full, with per-vehicle apply/ack, health gating and
  automatic fleet-wide rollback on a blown error budget.  Staging runs
  the bundle's policy through the :mod:`repro.verify` proof gate first —
  a policy that fails any static safety property never reaches a canary.
* :mod:`repro.fleet.bus` — the V2X event bus: topic- and geo-filtered
  situation events with seeded latency and loss, injected into
  neighbouring vehicles' SDS sensor streams.
* :mod:`repro.fleet.vehicle` — one fleet member: an IVI world plus its
  V2X receiver, connectivity state, and bundle lifecycle.
* :mod:`repro.fleet.orchestrator` — the deterministic virtual-clock
  scheduler; a seeded 100-vehicle run is bit-for-bit reproducible.
* :mod:`repro.fleet.backend` — the host that owns the vehicles, their
  shared policy cache and their checkpoints.
* :mod:`repro.fleet.report` — fleet-wide aggregation of ``repro.obs``
  metrics, audit records, and per-vehicle fingerprints.
* :mod:`repro.fleet.resilience` — the vehicle supervisor: checkpoint /
  restore recovery for crashed vehicle kernels, restart backoff and
  quarantine, and control-plane deadline/retry guards.

See ``docs/fleet.md``.
"""

from .bundle import (BundleCheck, BundleError, BundleSigner,
                     BundleVerificationError, PolicyBundle,
                     SIGNED_FIELDS_ALL, run_bundle_checks, verify_bundle)
from .bus import BusRecord, V2xBus, V2xMessage
from .orchestrator import (Fleet, FleetConfig, FleetRunResult,
                           ScriptedDriver, TrafficDriver)
from .report import FleetReport, aggregate_metrics
from .resilience import (CheckpointStore, ControlPlaneGuard, EpochJournal,
                         RestartPolicy, VehicleSupervisor,
                         CRASHED, QUARANTINED, RUNNING)
from .telemetry import (FleetTelemetry, SloAlert, SloEngine, SloSpec,
                        TelemetryAggregator, default_slos, parse_slo)
from .rollout import (ProofRefusedError, RolloutController, RolloutPlan,
                      RolloutState, VehicleAck, VehiclePhase, Wave,
                      default_rollout_plan)
from .vehicle import FleetVehicle, V2xAlertDetector

__all__ = [
    "BundleCheck", "BundleError", "BundleSigner",
    "BundleVerificationError", "PolicyBundle", "SIGNED_FIELDS_ALL",
    "run_bundle_checks", "verify_bundle",
    "BusRecord", "V2xBus", "V2xMessage",
    "Fleet", "FleetConfig", "FleetRunResult", "ScriptedDriver",
    "TrafficDriver",
    "FleetReport", "aggregate_metrics",
    "FleetTelemetry", "SloAlert", "SloEngine", "SloSpec",
    "TelemetryAggregator", "default_slos", "parse_slo",
    "CheckpointStore", "ControlPlaneGuard", "EpochJournal",
    "RestartPolicy", "VehicleSupervisor",
    "CRASHED", "QUARANTINED", "RUNNING",
    "ProofRefusedError", "RolloutController", "RolloutPlan",
    "RolloutState", "VehicleAck", "VehiclePhase", "Wave",
    "default_rollout_plan",
    "FleetVehicle", "V2xAlertDetector",
]
