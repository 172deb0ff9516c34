"""One fleet member: a full IVI world plus its fleet-side adapters.

A :class:`FleetVehicle` owns an independent simulated kernel (VFS, LSM
stack, SACKfs, SDS — everything :func:`~repro.vehicle.ivi.build_ivi_world`
assembles) and adds what fleet membership requires:

* a **V2X receiver**: delivered bus messages surface as a ``v2x_alert``
  *sensor* in the vehicle's own SDS sweep, so neighbour situations enter
  the pipeline exactly where local sensors do — detected, written through
  SACKfs, enforced by the SSM;
* **connectivity**: an offline vehicle receives no bus copies, no rollout
  commands, and sends no acks (the radio queues for it);
* the **bundle lifecycle**: verify → apply (through the real SACKfs
  policy-load path) → ack, with the last committed bundle retained for
  rollback.  The apply is all-or-nothing: a bundle whose policy load
  fails leaves the previous profiles, policy and SSM in force.

The vehicles of one fleet host share one
:class:`~repro.lsm.policycache.PolicyCache`, so each bundle text is
parsed and compiled once per host, not once per vehicle.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from ..faults import points as fault_points
from ..faults.plan import FaultPlan, random_plan
from ..kernel.errors import KernelError
from ..lsm.policycache import PolicyCache
from ..sack import events as ev
from ..sds.detectors import Detector
from ..sds.sensors import Sensor
from ..vehicle.ivi import build_ivi_world, sack_mode
from .bundle import BundleVerificationError, PolicyBundle, verify_bundle
from .rollout import VehicleAck

#: Default V2X topics every vehicle listens on.
DEFAULT_TOPICS: Tuple[str, ...] = ("crash", "crash_cleared")

#: Ticks an unconfirmed alert persists before self-clearing (a lost
#: ``crash_cleared`` must not leave followers in emergency forever).
ALERT_TTL_TICKS = 80

#: Braking applied on a crash alert from the platoon ahead (m/s²).
ALERT_BRAKE_MS2 = -6.0

#: Acceleration of a vehicle pulling away: at boot, and on ``start``.
CRUISE_ACCEL_MS2 = 3.0


def apply_driver_action(vehicle: "FleetVehicle", action: str) -> None:
    """Apply one scenario-driver action to a vehicle's dynamics.

    Module-level (not a host method) so both the barrier and a replayed
    journal epoch execute the exact same code path.
    """
    dyn = vehicle.world.dynamics
    if action == "start":
        dyn.start_engine()
        dyn.accelerate(CRUISE_ACCEL_MS2)
    elif action == "cruise":
        dyn.cruise()
    elif action == "brake":
        dyn.accelerate(-4.0)
    elif action == "crash":
        dyn.crash()
    elif action == "clear":
        dyn.clear_emergency()
        vehicle.clear_alert()
    elif action == "stop_engine":
        dyn.stop_engine()
    elif action == "driver_leaves":
        dyn.set_driver_present(False)
    elif action == "driver_returns":
        dyn.set_driver_present(True)
    else:
        raise ValueError(f"unknown driver action {action!r}")


class _V2xReceiverSensor(Sensor):
    """Surfaces the active V2X alert topic in the SDS sample sweep."""

    name = "v2x_alert"

    def __init__(self):
        self.active_topic = ""

    def sample(self, dynamics) -> str:
        return self.active_topic


class V2xAlertDetector(Detector):
    """Edge-triggered mapping from V2X alerts to situation events.

    A rising ``crash`` alert emits ``crash_detected`` — the follower's
    SSM transitions to *emergency* because of a neighbour's crash, the
    paper's situation-awareness story at platoon scale.  The falling
    edge emits ``emergency_cleared`` only if this detector raised the
    alarm (a vehicle in emergency from its *own* crash must not be
    cleared by a neighbour's recovery).
    """

    name = "v2x_alert"

    #: topic -> situation event emitted on the rising edge.
    RISING = {"crash": ev.CRASH_DETECTED}

    def __init__(self):
        self._active = ""
        self._raised = False

    def update(self, samples, now_ns: int) -> List[str]:
        topic = str(samples.get("v2x_alert", "") or "")
        if topic == self._active:
            return []
        previous, self._active = self._active, topic
        if topic and topic in self.RISING and not previous:
            self._raised = True
            return [self.RISING[topic]]
        if not topic and self._raised:
            self._raised = False
            return [ev.EMERGENCY_CLEARED]
        return []

    def resync(self) -> None:
        # A live alert must re-edge into the freshly loaded SSM.
        self._active = ""
        self._raised = False


def _restore_profiles(db, before: Dict[str, object]) -> None:
    """Put *db* back to the profiles in *before* (name -> profile): the
    changed ones return in one swap, profiles added since are dropped."""
    changed = [profile for name, profile in before.items()
               if db.get(name) is not profile]
    db.replace_profiles(changed)
    for name in db.profile_names():
        if name not in before:
            db.remove_profile(name)


class FleetVehicle:
    """One vehicle in the fleet: world + V2X + connectivity + bundles."""

    def __init__(self, vehicle_id: str, index: int, seed: int,
                 mode: str = "independent",
                 start_km: float = 0.0,
                 fault_intensity: float = 0.0,
                 policy_text: Optional[str] = None,
                 alert_ttl_ticks: int = ALERT_TTL_TICKS,
                 policy_cache: Optional[PolicyCache] = None):
        config = sack_mode(mode)
        self.vehicle_id = vehicle_id
        self.index = index
        self.seed = seed
        self.mode = mode
        self.start_km = start_km
        self.alert_ttl_ticks = alert_ttl_ticks
        #: Per-vehicle fault plan, seeded from the fleet seed and the
        #: vehicle index so every vehicle draws an independent stream.
        self.fault_plan: Optional[FaultPlan] = None
        if fault_intensity > 0:
            self.fault_plan = random_plan(seed, intensity=fault_intensity)
        kwargs = {}
        if policy_text is not None:
            kwargs["policy_text"] = policy_text
        self.world = build_ivi_world(config, fault_plan=self.fault_plan,
                                     policy_cache=policy_cache, **kwargs)
        self.receiver = _V2xReceiverSensor()
        self.world.sds.add_sensor(self.receiver)
        self.world.sds.detectors.append(V2xAlertDetector())

        self.online = True
        self.tick_count = 0
        self._alert_expires_at: Optional[int] = None
        #: Transitions observed since fleet start, surviving the SSM
        #: replacement a policy (bundle) load performs.
        self.transition_log: List[Tuple[str, str, str, int]] = []
        self._seen_ssm = self._ssm()
        self._seen_transitions = self._seen_ssm.transition_count
        #: Bundle lifecycle: committed = last known-good, applied version.
        self.bundle_version: Optional[int] = None
        self.committed_bundle: Optional[PolicyBundle] = None
        self.apply_log: List[Tuple[int, str]] = []   # (version, outcome)
        self.rejected_bundles = 0

    # -- basic accessors ---------------------------------------------------
    def _ssm(self):
        module = self.world.sack or self.world.bridge
        return module.ssm

    @property
    def situation(self) -> Optional[str]:
        return self.world.situation

    @property
    def position_km(self) -> float:
        return self.start_km + self.world.dynamics.position_km

    # -- faults ------------------------------------------------------------
    def fault_points(self) -> List[str]:
        """The fault points this vehicle's own plan can fire, sorted.

        The bundle apply reads the vehicle's plan whenever it runs.  The
        world's SDS, SACKfs channel and AppArmor bridge were handed the
        plan at boot, so they read one only when the vehicle booted with
        it.  Fleet-level points (V2X, connectivity, crashes, the control
        plane) are read from the fleet's plan, never a vehicle's.
        """
        points = {fault_points.FLEET_BUNDLE_APPLY_FAIL}
        if self.world.fault_plan is not None:
            points.update((fault_points.SDS_SENSOR_DROPOUT,
                           fault_points.SDS_SENSOR_STUCK,
                           fault_points.SDS_SENSOR_SPIKE,
                           fault_points.SACKFS_WRITE_EIO,
                           fault_points.SACKFS_WRITE_EAGAIN,
                           fault_points.SACKFS_SHORT_WRITE,
                           fault_points.SACKFS_CORRUPT,
                           fault_points.POLICY_LOAD_FAIL))
            if self.world.bridge is not None:
                points.add(fault_points.BRIDGE_RELOAD_FAIL)
        return sorted(points)

    # -- time --------------------------------------------------------------
    def tick(self, dt_s: float = 0.1) -> List[str]:
        """One vehicle tick: alert TTL, then dynamics + SDS; the kernel
        clock's advance fires the staleness watchdog if it is due."""
        self.tick_count += 1
        if (self._alert_expires_at is not None
                and self.tick_count >= self._alert_expires_at):
            self.clear_alert()
        return self.world.run_sds(1, dt_s=dt_s)

    def drain_transitions(self) -> List[Tuple[str, str, str, int]]:
        """SSM transitions since the last drain (event, from, to, at_ns).

        The SSM's history is a bounded ring and a policy load swaps the
        SSM out entirely, so draining keys off ``transition_count`` and
        resets when the machine was replaced; everything drained is also
        appended to :attr:`transition_log`."""
        ssm = self._ssm()
        if ssm is not self._seen_ssm:
            self._seen_ssm = ssm
            self._seen_transitions = 0
        total = ssm.transition_count
        fresh_count = total - self._seen_transitions
        self._seen_transitions = total
        if fresh_count <= 0:
            return []
        history = list(ssm.history)
        fresh = [(t.event.name, t.from_state, t.to_state, t.at_ns)
                 for t in history[-min(fresh_count, len(history)):]]
        self.transition_log.extend(fresh)
        return fresh

    # -- V2X ---------------------------------------------------------------
    def deliver(self, message) -> str:
        """A bus copy arrives: inject into the SDS's sensor stream.

        Returns what the vehicle did about it (``"braked"``,
        ``"alerted"``, ``"cleared"``, or ``""``) so the fleet can
        publish follow-on events like ``emergency_brake``."""
        if message.topic == "crash":
            self.receiver.active_topic = "crash"
            self._alert_expires_at = self.tick_count + self.alert_ttl_ticks
            dyn = self.world.dynamics
            if dyn.engine_on and dyn.is_moving and not dyn.crashed:
                dyn.accelerate(ALERT_BRAKE_MS2)
                return "braked"
            return "alerted"
        if message.topic == "crash_cleared":
            self.clear_alert()
            return "cleared"
        return ""

    def clear_alert(self) -> None:
        self.receiver.active_topic = ""
        self._alert_expires_at = None

    # -- bundles -----------------------------------------------------------
    def apply_bundle(self, bundle: PolicyBundle, key: bytes,
                     now_ns: int = 0) -> VehicleAck:
        """Verify and apply *bundle*; returns the ack for the control
        plane.  A verification failure is a refusal (the bundle never
        touches the kernel); an apply failure after verification leaves
        the previous profiles and policy enforcing: SACKfs loads
        transactionally, and the profiles the bundle replaced are
        swapped back."""
        try:
            verify_bundle(bundle, key)
        except BundleVerificationError as exc:
            self.rejected_bundles += 1
            self.apply_log.append((bundle.version, "refused"))
            return VehicleAck(vehicle_id=self.vehicle_id,
                              version=bundle.version, ok=False,
                              detail=f"verification failed: {exc}")
        plan = self.fault_plan
        if plan is not None and plan.should_fail(
                fault_points.FLEET_BUNDLE_APPLY_FAIL, now_ns,
                arg=self.vehicle_id):
            self.apply_log.append((bundle.version, "apply_failed"))
            return VehicleAck(vehicle_id=self.vehicle_id,
                              version=bundle.version, ok=False,
                              detail="injected apply failure")
        db = (self.world.apparmor.policy
              if bundle.apparmor_profiles and self.world.apparmor is not None
              else None)
        before = ({name: db.get(name) for name in db.profile_names()}
                  if db is not None else {})
        try:
            if db is not None:
                for text in bundle.apparmor_profiles.values():
                    db.load_text(text)
            self.world.load_policy(bundle.policy_text)
        except (KernelError, ValueError) as exc:
            # A failed load — SACKfs reports a bridge profile reload
            # dying mid load as EIO — leaves the previous policy in
            # force; swapping back the profiles the bundle's texts
            # replaced (which lack the live state's bridged rules) keeps
            # enforcement consistent with it.  The control plane just
            # sees a failed ack to re-offer.
            if db is not None:
                _restore_profiles(db, before)
            self.apply_log.append((bundle.version, "apply_failed"))
            return VehicleAck(vehicle_id=self.vehicle_id,
                              version=bundle.version, ok=False,
                              detail=f"apply failed: {exc}")
        self.bundle_version = bundle.version
        self.committed_bundle = bundle
        self.apply_log.append((bundle.version, "applied"))
        return VehicleAck(vehicle_id=self.vehicle_id,
                          version=bundle.version, ok=True,
                          detail="applied")

    # -- recovery ----------------------------------------------------------
    def state_digest(self) -> str:
        """Deterministic digest of everything access control decided on.

        Used by the supervisor's I10 check: a vehicle restored from a
        checkpoint plus journal replay must digest identically to the
        wreck it replaces.  Covers situation, dynamics, V2X alert state,
        bundle lifecycle, and the SSM/SACKfs counters; deliberately
        excludes :attr:`online` (a fleet-side flag the supervisor flips)
        and host-timing data.
        """
        dyn = self.world.dynamics
        fs = self.world.sackfs
        ssm = self._ssm()
        payload = json.dumps({
            "vehicle": self.vehicle_id,
            "tick_count": self.tick_count,
            "situation": self.situation or "",
            "alert_topic": self.receiver.active_topic,
            "alert_expires_at": self._alert_expires_at,
            "dyn": [repr(dyn.speed_kmh), repr(dyn.position_km),
                    repr(dyn.commanded_accel_ms2), dyn.engine_on,
                    dyn.driver_present, dyn.crashed,
                    repr(dyn.elapsed_s)],
            "transitions": self.transition_log,
            "bundle_version": self.bundle_version,
            "apply_log": self.apply_log,
            "rejected_bundles": self.rejected_bundles,
            "ssm": [ssm.events_processed, ssm.events_ignored,
                    ssm.transition_count],
            "sackfs": [fs.events_received, fs.events_accepted,
                       fs.events_rejected],
            "now_ns": self.world.kernel.obs.now_ns,
        }, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- health ------------------------------------------------------------
    def health_snapshot(self) -> Dict[str, object]:
        """Deterministic health counters for rollout gating and roll-up."""
        fs = self.world.sackfs
        totals = self.world.kernel.obs.metrics.counter_totals(
            ("lsm_denials_total", "sack_failsafe_engagements_total",
             "sack_transition_rollbacks_total"))
        return {
            "vehicle": self.vehicle_id,
            "online": self.online,
            "situation": self.situation or "",
            "bundle_version": self.bundle_version,
            "denials": totals["lsm_denials_total"],
            "failsafe_engagements":
                totals["sack_failsafe_engagements_total"],
            "rollbacks": totals["sack_transition_rollbacks_total"],
            "watchdog_engaged": (fs.watchdog is not None
                                 and fs.watchdog.ssm.failsafe_engaged),
            "events_accepted": fs.events_accepted,
            "events_rejected": fs.events_rejected,
            "rejected_bundles": self.rejected_bundles,
        }
