"""Fleet crash resilience: supervisor, checkpoint/restore, quarantine.

One vehicle kernel dying must not kill a 100-vehicle run.  This module
layers a **vehicle supervisor** on the epoch-barrier scheduler:

* **Crash detection** — the deterministic fault points
  :data:`~repro.faults.points.FLEET_VEHICLE_CRASH` and
  :data:`~repro.faults.points.FLEET_SHARD_STALL` are decided at the
  barrier in sorted vehicle order (never by shard index, so the outcome
  is worker-count independent), and any unhandled exception a vehicle
  tick raises is caught by the host and converted into a crash
  instead of aborting :meth:`~repro.fleet.orchestrator.Fleet.run`.

* **Checkpoint/restore** — while armed, the supervisor snapshots each
  vehicle (kernel + SSM + situation epoch + SDS state, one ``deepcopy`` of
  the whole object graph) every :attr:`FleetConfig.checkpoint_interval_epochs`
  completed epochs.  A restore deep-copies the stored checkpoint and
  **replays** the journaled epochs between checkpoint and crash — driver
  actions, delivered V2X copies, rollout commands at their journaled
  timestamps, tick phases, transition drains — so the restored vehicle is
  bit-identical to the wreck it replaces (runtime-verified: invariant
  I10).  Epochs spent dead are *not* replayed: the vehicle was offline,
  so queued bus copies and the rollout resync path (I8) catch it up
  through the same mechanics a reconnecting straggler uses.

* **Restart policy** — exponential backoff in virtual-clock epochs with
  a cap, then **quarantine**: the vehicle is permanently offline,
  excluded from rollout wave membership and health math
  (:meth:`~repro.fleet.rollout.RolloutController.exclude`), and its
  bundle version is frozen — invariant I9 checks it never regresses.

* **Control-plane deadlines** — bus delivery, the rollout step, and the
  health poll run through :class:`ControlPlaneGuard`: a per-call virtual
  deadline, bounded retries with exponential backoff (summed as
  simulated ``penalty_ns``), and a deterministic skip-this-epoch
  degradation when retries are exhausted.

Everything here runs on the fleet virtual clock and the fleet fault
plan's seeded RNG; with no ``fleet:*`` crash rules armed the supervisor
draws nothing, records nothing into the report, and the fleet
fingerprint is byte-identical to a build without this module.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..faults import points as fault_points
from ..obs.hub import Observability
from ..obs.tracepoints import (FLEET_CHECKPOINT_TP, FLEET_CONTROL_TIMEOUT_TP,
                               FLEET_CRASH_TP, FLEET_QUARANTINE_TP,
                               FLEET_RESTORE_TP)

#: Supervisor states of one vehicle.
RUNNING = "running"
CRASHED = "crashed"
QUARANTINED = "quarantined"


# -- epoch journal -------------------------------------------------------------

@dataclasses.dataclass
class EpochRecord:
    """Everything one epoch barrier handed the vehicles (for replay)."""

    epoch: int
    start_ns: int
    #: Driver actions applied, in application order: (vehicle_id, action).
    actions: List[Tuple[str, str]] = dataclasses.field(default_factory=list)
    #: Bus copies delivered: vehicle_id -> messages in delivery order.
    deliveries: Dict[str, list] = dataclasses.field(default_factory=dict)
    #: Rollout commands applied: vehicle_id -> [(bundle, now_ns), ...].
    commands: Dict[str, list] = dataclasses.field(default_factory=dict)
    #: Vehicles whose tick phase was skipped (shard stall) this epoch.
    stalled: Set[str] = dataclasses.field(default_factory=set)


def replay_epoch(vehicle, record: Optional[EpochRecord],
                 epoch_ticks: int, dt_s: float, fleet_key: bytes,
                 cruise_accel_ms2: float, with_ticks: bool) -> None:
    """Re-execute one journaled epoch against *vehicle*.

    Mirrors the barrier order in ``Fleet.run_epoch`` exactly — actions,
    deliveries, commands, ticks, drain — but publishes nothing back to
    the bus: the original run already published the fleet-visible side
    of these epochs.
    """
    if record is None:
        return
    from .vehicle import apply_driver_action
    for vid, action in record.actions:
        if vid == vehicle.vehicle_id:
            apply_driver_action(vehicle, action, cruise_accel_ms2)
    for message in record.deliveries.get(vehicle.vehicle_id, ()):
        vehicle.deliver(message)
    for bundle, now_ns in record.commands.get(vehicle.vehicle_id, ()):
        vehicle.apply_bundle(bundle, fleet_key, now_ns=now_ns)
    if with_ticks and vehicle.vehicle_id not in record.stalled:
        for _ in range(epoch_ticks):
            vehicle.tick(dt_s=dt_s)
    vehicle.drain_transitions()


class EpochJournal:
    """Bounded ring of :class:`EpochRecord`, keyed by epoch index.

    The journal only needs to span from a vehicle's newest checkpoint to
    its crash epoch; anything older ages out.  A crash whose replay range
    fell off the ring cannot be restored faithfully — the supervisor
    quarantines instead of guessing.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"journal capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._records: Dict[int, EpochRecord] = {}

    def begin(self, epoch: int, start_ns: int) -> EpochRecord:
        record = EpochRecord(epoch=epoch, start_ns=start_ns)
        self._records[epoch] = record
        while len(self._records) > self.capacity:
            del self._records[min(self._records)]
        return record

    def get(self, epoch: int) -> Optional[EpochRecord]:
        return self._records.get(epoch)

    def covers(self, first_epoch: int, last_epoch: int) -> bool:
        """Are all records in [first_epoch, last_epoch] present?"""
        return all(e in self._records
                   for e in range(first_epoch, last_epoch + 1))

    def __len__(self) -> int:
        return len(self._records)


# -- checkpoints ---------------------------------------------------------------

@dataclasses.dataclass
class VehicleCheckpoint:
    """One copy-on-write snapshot: state after ``epoch`` completed."""

    vehicle_id: str
    epoch: int                  # last fully completed epoch (-1 = boot)
    vehicle: object             # deep copy of the FleetVehicle
    digest: str                 # state digest at snapshot time


class CheckpointStore:
    """Latest checkpoint per vehicle (one generation is enough: the
    journal is what bridges checkpoint to crash)."""

    def __init__(self):
        self._latest: Dict[str, VehicleCheckpoint] = {}
        self.taken = 0

    def take(self, vehicle, epoch: int) -> VehicleCheckpoint:
        ckpt = VehicleCheckpoint(
            vehicle_id=vehicle.vehicle_id, epoch=epoch,
            vehicle=copy.deepcopy(vehicle),
            digest=vehicle.state_digest())
        self._latest[vehicle.vehicle_id] = ckpt
        self.taken += 1
        return ckpt

    def get(self, vehicle_id: str) -> Optional[VehicleCheckpoint]:
        return self._latest.get(vehicle_id)

    def materialize(self, vehicle_id: str):
        """A fresh working copy of the stored checkpoint (the stored
        snapshot stays pristine for the next restore attempt)."""
        ckpt = self._latest[vehicle_id]
        return copy.deepcopy(ckpt.vehicle)

    def to_rows(self) -> List[Dict[str, object]]:
        return [{"vehicle": vid, "epoch": ckpt.epoch,
                 "digest": ckpt.digest}
                for vid, ckpt in sorted(self._latest.items())]


# -- restart policy ------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RestartPolicy:
    """Backoff/quarantine knobs, all in virtual-clock epochs."""

    max_restarts: int = 3
    backoff_base_epochs: int = 1
    backoff_cap_epochs: int = 8

    def __post_init__(self):
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff_base_epochs < 1:
            raise ValueError("backoff_base_epochs must be >= 1")

    def backoff_epochs(self, crash_count: int) -> int:
        """Epochs to wait before restart attempt *crash_count* (1-based):
        base, 2*base, 4*base, ... capped."""
        exp = self.backoff_base_epochs << max(0, crash_count - 1)
        return min(self.backoff_cap_epochs, exp)

    def exhausted(self, crash_count: int) -> bool:
        return crash_count > self.max_restarts


# -- control-plane guard -------------------------------------------------------

class ControlPlaneGuard:
    """Timeout/retry/backoff around serial control-plane calls.

    Each call gets a virtual deadline; the ``fleet:control_timeout``
    fault point (arg = call name) decides deterministically whether an
    attempt blows it.  A timed-out attempt adds deadline + backoff to
    ``penalty_ns`` (simulated time, fingerprinted under
    ``resilience.control``) and retries; when retries are exhausted
    the call is *skipped* for this epoch — deliveries stay queued on the
    bus, rollout acks stay pending, health gating reuses nothing — and
    the fleet degrades instead of wedging.
    """

    def __init__(self, plan, obs: Optional[Observability] = None,
                 retries: int = 2, deadline_ns: int = 20_000_000,
                 backoff_base_ns: int = 5_000_000):
        self.plan = plan
        self.obs = obs
        self.retries = retries
        self.deadline_ns = deadline_ns
        self.backoff_base_ns = backoff_base_ns
        #: Simulated ns of deadline+backoff spent on timed-out attempts.
        self.penalty_ns = 0
        self.stats: Dict[str, int] = {
            "calls": 0, "timeouts": 0, "retries": 0, "exhausted": 0}

    def call(self, name: str, now_ns: int, func: Callable[[], object],
             ) -> Tuple[bool, object]:
        """Run *func* under the deadline; returns ``(ok, result)``.

        ``ok`` is False only when every attempt timed out; the caller
        must then skip this control-plane step for the epoch.
        """
        if not self.plan.rules:
            return True, func()       # nothing armed: zero-overhead path
        self.stats["calls"] += 1
        for attempt in range(1, self.retries + 2):
            timed_out = self.plan.should_fail(
                fault_points.FLEET_CONTROL_TIMEOUT, now_ns, arg=name)
            if not timed_out:
                return True, func()
            self.stats["timeouts"] += 1
            penalty = self.deadline_ns \
                + self.backoff_base_ns * (1 << (attempt - 1))
            self.penalty_ns += penalty
            if self.obs is not None:
                self.obs.metrics.counter("fleet_control_timeouts",
                                         {"call": name}).inc()
                tp = self.obs.tracepoints.get(FLEET_CONTROL_TIMEOUT_TP)
                if tp.callbacks:
                    tp.emit(call=name, attempt=attempt)
            if attempt <= self.retries:
                self.stats["retries"] += 1
        self.stats["exhausted"] += 1
        return False, None

    def summary(self) -> Dict[str, int]:
        return dict(self.stats, penalty_ns=self.penalty_ns)


# -- per-vehicle supervisor record ---------------------------------------------

@dataclasses.dataclass
class VehicleStatus:
    """What the supervisor knows about one vehicle."""

    vehicle_id: str
    state: str = RUNNING
    crashes: int = 0
    stalls: int = 0
    crash_epoch: Optional[int] = None
    crash_reason: str = ""
    #: True when the crash hit mid-tick (wreck partially mutated, so the
    #: I10 wreck-vs-restored comparison is skipped for this incident).
    mid_tick: bool = False
    restore_due_epoch: Optional[int] = None
    #: Completed recoveries: (crash_epoch, restore_epoch).
    restores: List[Tuple[int, int]] = dataclasses.field(default_factory=list)
    quarantine_epoch: Optional[int] = None
    quarantine_reason: str = ""
    #: Bundle version frozen at quarantine time (I9 reference value).
    frozen_version: object = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"state": self.state,
                                  "crashes": self.crashes}
        if self.stalls:
            out["stalls"] = self.stalls
        if self.restores:
            out["restores"] = list(self.restores)
        if self.state == CRASHED:
            out["crash_epoch"] = self.crash_epoch
            out["restore_due_epoch"] = self.restore_due_epoch
        if self.state == QUARANTINED:
            out["quarantine_epoch"] = self.quarantine_epoch
            out["quarantine_reason"] = self.quarantine_reason
            out["frozen_version"] = self.frozen_version
        return out


class VehicleSupervisor:
    """Crash detection, checkpoint/restore, backoff, and quarantine.

    Owned by :class:`~repro.fleet.orchestrator.Fleet`; every decision is
    made at the epoch barrier in sorted vehicle order, from the fleet
    fault plan's seeded RNG — nothing here depends on worker count or
    wall time.
    """

    def __init__(self, fleet, policy: Optional[RestartPolicy] = None,
                 checkpoint_interval_epochs: int = 4,
                 journal_capacity: int = 64,
                 control_retries: int = 2,
                 control_deadline_ns: int = 20_000_000):
        if checkpoint_interval_epochs < 1:
            raise ValueError("checkpoint_interval_epochs must be >= 1")
        self.fleet = fleet
        self.policy = policy or RestartPolicy()
        self.checkpoint_interval = checkpoint_interval_epochs
        self.journal = EpochJournal(journal_capacity)
        self.status: Dict[str, VehicleStatus] = {
            vid: VehicleStatus(vid) for vid in fleet.ids}
        #: Scenario-forced crashes: vehicle_id -> epoch to crash at.
        self._forced_crash: Dict[str, int] = {}
        self.stalled_this_epoch: Set[str] = set()
        self._ever_active = False
        self.obs = fleet.obs
        self.guard = ControlPlaneGuard(fleet.fleet_plan, obs=self.obs,
                                       retries=control_retries,
                                       deadline_ns=control_deadline_ns)
        #: I10 skips incidents whose wreck is partially mutated; count
        #: them so a soak can prove the check actually ran.
        self.i10_checked = 0
        self.i10_skipped = 0
        #: Consecutive epochs each vehicle has carried a per-vehicle SLO
        #: burn-rate alert (telemetry pipeline feeds this).
        self._slo_strikes: Dict[str, int] = {}

    # -- enablement --------------------------------------------------------
    def _has_crash_rules(self) -> bool:
        for rule in self.fleet.fleet_plan.rules:
            if rule.point in (fault_points.FLEET_VEHICLE_CRASH,
                              fault_points.FLEET_SHARD_STALL):
                return True
        return False

    @property
    def active(self) -> bool:
        """Checkpoints/journal replay only run when something can crash
        (crash/stall rules armed, a forced crash pending, or the config
        asks for always-on checkpointing) — an idle supervisor costs one
        attribute check per epoch and leaves the fingerprint untouched."""
        return (self._ever_active or self._forced_crash
                or getattr(self.fleet.config, "always_checkpoint", False)
                or self._has_crash_rules())

    # -- state queries -----------------------------------------------------
    def is_dead(self, vehicle_id: str) -> bool:
        return self.status[vehicle_id].state != RUNNING

    def is_quarantined(self, vehicle_id: str) -> bool:
        return self.status[vehicle_id].state == QUARANTINED

    def quarantined_ids(self) -> List[str]:
        return sorted(vid for vid, st in self.status.items()
                      if st.state == QUARANTINED)

    def crashed_ids(self) -> List[str]:
        return sorted(vid for vid, st in self.status.items()
                      if st.state == CRASHED)

    # -- scenario hooks ----------------------------------------------------
    def schedule_crash(self, vehicle_id: str,
                       epoch: Optional[int] = None) -> None:
        if vehicle_id not in self.status:
            raise KeyError(vehicle_id)
        self._forced_crash[vehicle_id] = \
            self.fleet.epoch_index if epoch is None else epoch

    # -- the barrier-start step --------------------------------------------
    def begin_epoch(self) -> None:
        """Restores due, forced crashes, crash/stall draws — in that
        order, each in sorted vehicle order."""
        self.stalled_this_epoch = set()
        if not self.active:
            return
        self._ever_active = True
        fleet = self.fleet
        epoch = fleet.epoch_index
        # Late arming: a vehicle that has never been checkpointed gets a
        # baseline snapshot before anything can kill it this epoch.
        for vid in fleet.ids:
            if self.status[vid].state == RUNNING \
                    and fleet.host.checkpoint_meta(vid) is None:
                self._checkpoint(vid, epoch - 1)
        for vid in self.crashed_ids():
            st = self.status[vid]
            if st.restore_due_epoch is not None \
                    and epoch >= st.restore_due_epoch:
                self._restore(vid, epoch)
        for vid, at_epoch in sorted(self._forced_crash.items()):
            if epoch >= at_epoch and self.status[vid].state == RUNNING:
                del self._forced_crash[vid]
                self._crash(vid, epoch, reason="forced", mid_tick=False)
        if fleet.fleet_plan.rules:
            for vid in fleet.ids:
                if self.status[vid].state != RUNNING:
                    continue
                if fleet.fleet_plan.should_fail(
                        fault_points.FLEET_VEHICLE_CRASH,
                        fleet.sim_now_ns, arg=vid):
                    self._crash(vid, epoch, reason="fault injection",
                                mid_tick=False)
            for vid in fleet.ids:
                if self.status[vid].state != RUNNING:
                    continue
                if fleet.fleet_plan.should_fail(
                        fault_points.FLEET_SHARD_STALL,
                        fleet.sim_now_ns, arg=vid):
                    self.stalled_this_epoch.add(vid)
                    self.status[vid].stalls += 1
                    self.obs.metrics.counter("fleet_shard_stalls").inc()

    # -- mid-tick exceptions -----------------------------------------------
    def absorb_tick_failures(self, failures: Dict[str, str]) -> None:
        """Convert the tick phase's failures — ``{vehicle_id: "Type:
        message"}`` as every host reports them — into crashes, in sorted
        vehicle order."""
        if not failures:
            return
        self._ever_active = True
        for vid in sorted(failures):
            if self.status[vid].state == RUNNING:
                self._crash(vid, self.fleet.epoch_index,
                            reason=f"tick exception ({failures[vid]})",
                            mid_tick=True)

    # -- the barrier-end step ----------------------------------------------
    def end_epoch(self) -> None:
        """Periodic checkpoints after the epoch completed."""
        if not self.active:
            return
        epoch = self.fleet.epoch_index     # just-completed epoch
        if (epoch + 1) % self.checkpoint_interval != 0:
            return
        for vid in self.fleet.ids:
            if self.status[vid].state == RUNNING:
                self._checkpoint(vid, epoch)

    # -- crash / checkpoint / restore / quarantine -------------------------
    def _checkpoint(self, vehicle_id: str, epoch: int) -> None:
        span = self.obs.spans.start_span("fleet.checkpoint", stage="fleet",
                                         attributes={"vehicle": vehicle_id,
                                                     "epoch": epoch})
        t0 = time.perf_counter_ns()
        self.fleet.host.checkpoint_take(vehicle_id, epoch)
        self.obs.metrics.histogram("fleet_checkpoint_cpu_ns").record(
            time.perf_counter_ns() - t0)
        self.obs.metrics.counter("fleet_checkpoints").inc()
        tp = self.obs.tracepoints.get(FLEET_CHECKPOINT_TP)
        if tp.callbacks:
            tp.emit(vehicle=vehicle_id, epoch=epoch)
        self.obs.spans.end_span(span)

    def _crash(self, vehicle_id: str, epoch: int, reason: str,
               mid_tick: bool) -> None:
        st = self.status[vehicle_id]
        st.crashes += 1
        st.state = CRASHED
        st.crash_epoch = epoch
        st.crash_reason = reason
        st.mid_tick = mid_tick
        self.obs.metrics.counter("fleet_vehicle_crashes").inc()
        tp = self.obs.tracepoints.get(FLEET_CRASH_TP)
        if tp.callbacks:
            tp.emit(vehicle=vehicle_id, epoch=epoch, reason=reason)
        if self.policy.exhausted(st.crashes):
            self._quarantine(vehicle_id, epoch,
                             f"max restarts exceeded "
                             f"({st.crashes - 1} of "
                             f"{self.policy.max_restarts} used)")
            return
        st.restore_due_epoch = epoch \
            + self.policy.backoff_epochs(st.crashes)

    def _restore(self, vehicle_id: str, epoch: int) -> None:
        st = self.status[vehicle_id]
        meta = self.fleet.host.checkpoint_meta(vehicle_id)
        if meta is None:
            self._quarantine(vehicle_id, epoch, "no checkpoint available")
            return
        ckpt_epoch = meta[0]
        assert st.crash_epoch is not None
        # Full replay: every complete epoch after the checkpoint and
        # before the crash.  A mid-tick crash additionally replays the
        # crash epoch's barrier work (delivered V2X copies, commands)
        # without its tick phase — that work already left the bus and
        # must not be lost.
        last_full = st.crash_epoch - 1
        first = ckpt_epoch + 1
        barrier_only = st.crash_epoch if st.mid_tick else None
        journal_last = barrier_only if barrier_only is not None \
            else last_full
        if first <= journal_last \
                and not self.journal.covers(first, journal_last):
            self._quarantine(vehicle_id, epoch,
                             f"journal gap (need epochs "
                             f"{first}..{journal_last})")
            return
        span = self.obs.spans.start_span(
            "fleet.restore", stage="fleet",
            attributes={"vehicle": vehicle_id,
                        "crash_epoch": st.crash_epoch,
                        "restore_epoch": epoch})
        t0 = time.perf_counter_ns()
        # The host materializes the checkpoint, replays the journaled
        # window, swaps the restored vehicle in, and re-baselines with a
        # fresh checkpoint at epoch-1: the dead window [crash, epoch-1]
        # was never executed, so a later replay must not span it.
        result = self.fleet.host.restore_vehicle(
            vehicle_id,
            [self.journal.get(e) for e in range(first, last_full + 1)],
            self.journal.get(barrier_only)
            if barrier_only is not None else None,
            baseline_epoch=epoch - 1)
        replayed = result["replayed"]
        if st.mid_tick:
            self.i10_skipped += 1
        else:
            self.i10_checked += 1
            if result["restored_digest"] != result["wreck_digest"]:
                self.fleet.violations.append(
                    f"epoch {epoch}: I10:restore-divergence: "
                    f"{vehicle_id} restored from checkpoint e{ckpt_epoch} "
                    f"+ {replayed} replayed epoch(s) digests to "
                    f"{result['restored_digest'][:16]} but the wreck "
                    f"digests to {result['wreck_digest'][:16]}")
        self.fleet._last_health[vehicle_id] = result["health"]
        epoch_duration_ns = int(self.fleet.config.epoch_ticks
                                * self.fleet.config.dt_s * 1e9)
        downtime_ns = (epoch - st.crash_epoch) * epoch_duration_ns
        self.obs.metrics.histogram("fleet_restore_latency_ns").record(
            downtime_ns)
        self.obs.metrics.histogram("fleet_restore_cpu_ns").record(
            time.perf_counter_ns() - t0)
        self.obs.metrics.counter("fleet_restores").inc()
        tp = self.obs.tracepoints.get(FLEET_RESTORE_TP)
        if tp.callbacks:
            tp.emit(vehicle=vehicle_id, crash_epoch=st.crash_epoch,
                    restore_epoch=epoch, attempt=st.crashes,
                    replayed_epochs=replayed)
        self.obs.spans.end_span(span)
        st.restores.append((st.crash_epoch, epoch))
        st.state = RUNNING
        st.crash_epoch = None
        st.crash_reason = ""
        st.mid_tick = False
        st.restore_due_epoch = None

    def note_slo_alerts(self, alerted_ids, epoch: int) -> None:
        """Telemetry feed: vehicles carrying a per-vehicle SLO alert at
        this barrier.  After ``config.slo_quarantine_epochs`` consecutive
        alerted epochs a vehicle is quarantined through the same path as
        a crash-loop (0 = SLO breaches never quarantine)."""
        threshold = getattr(self.fleet.config, "slo_quarantine_epochs", 0)
        alerted = set(alerted_ids)
        for vid in list(self._slo_strikes):
            if vid not in alerted:
                del self._slo_strikes[vid]
        if not threshold:
            return
        for vid in sorted(alerted):
            if self.status[vid].state != RUNNING:
                continue
            self._slo_strikes[vid] = self._slo_strikes.get(vid, 0) + 1
            if self._slo_strikes[vid] >= threshold:
                self._ever_active = True
                self._quarantine(
                    vid, epoch,
                    reason=f"slo burn-rate breach for "
                    f"{self._slo_strikes[vid]} consecutive epoch(s)")
                del self._slo_strikes[vid]

    def _quarantine(self, vehicle_id: str, epoch: int,
                    reason: str) -> None:
        st = self.status[vehicle_id]
        st.state = QUARANTINED
        st.quarantine_epoch = epoch
        st.quarantine_reason = reason
        st.frozen_version = self.fleet.host.bundle_version(vehicle_id)
        st.restore_due_epoch = None
        self.fleet.controller.exclude(vehicle_id)
        self.obs.metrics.counter("fleet_quarantined").inc()
        tp = self.obs.tracepoints.get(FLEET_QUARANTINE_TP)
        if tp.callbacks:
            tp.emit(vehicle=vehicle_id, epoch=epoch, reason=reason)

    # -- invariants --------------------------------------------------------
    def check_invariants(self) -> None:
        """I9: a quarantined vehicle's policy version is frozen and the
        control plane no longer addresses it."""
        fleet = self.fleet
        for vid in self.quarantined_ids():
            st = self.status[vid]
            version = fleet.host.bundle_version(vid)
            if version != st.frozen_version:
                fleet.violations.append(
                    f"epoch {fleet.epoch_index}: I9:quarantine-regressed: "
                    f"{vid} moved from v{st.frozen_version} to "
                    f"v{version} while quarantined")
            if vid in fleet.controller.fleet_ids:
                fleet.violations.append(
                    f"epoch {fleet.epoch_index}: I9:quarantine-addressed: "
                    f"{vid} still in the rollout roster")

    # -- reporting ---------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        return {
            "crashes": sum(st.crashes for st in self.status.values()),
            "restores": sum(len(st.restores)
                            for st in self.status.values()),
            "stalls": sum(st.stalls for st in self.status.values()),
            "quarantined": len(self.quarantined_ids()),
        }

    def mean_restore_latency_ns(self) -> float:
        """Mean crash-to-restore downtime on the virtual clock."""
        epoch_duration_ns = int(self.fleet.config.epoch_ticks
                                * self.fleet.config.dt_s * 1e9)
        latencies = [(restore - crash) * epoch_duration_ns
                     for st in self.status.values()
                     for crash, restore in st.restores]
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    def summary(self) -> Dict[str, object]:
        """Fingerprint-safe roll-up; empty when nothing ever happened,
        so a fault-free run's report payload is unchanged."""
        counts = self.counts()
        control = self.guard.summary()
        if not any(counts.values()) and not control["timeouts"]:
            return {}
        out: Dict[str, object] = dict(counts)
        out["quarantined_ids"] = self.quarantined_ids()
        out["checkpoints"] = self.fleet.host.checkpoints_taken
        out["i10_checked"] = self.i10_checked
        out["i10_skipped"] = self.i10_skipped
        out["mean_restore_latency_ns"] = int(
            self.mean_restore_latency_ns())
        if control["timeouts"]:
            out["control"] = {k: control[k]
                              for k in ("calls", "timeouts", "retries",
                                        "exhausted", "penalty_ns")}
        out["per_vehicle"] = {
            vid: st.to_dict() for vid, st in sorted(self.status.items())
            if st.crashes or st.stalls or st.state != RUNNING}
        return out
