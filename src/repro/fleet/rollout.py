"""The staged OTA rollout state machine.

The control plane pushes a signed bundle in **waves** — canary →
percentage stages → full fleet — gating each wave on vehicle health
(denial-rate spikes, watchdog/failsafe engagements, apply failures).
A wave that blows its error budget triggers an automatic **fleet-wide
rollback** to the last committed bundle.

The controller is deliberately *pure*: it holds no vehicle references
and draws no randomness.  Each epoch the orchestrator feeds it acks,
health deltas, and connectivity, and it returns the commands to send.
That makes the machine property-testable on its own (see
``tests/fleet/test_rollout.py``):

* from any reachable in-progress state, a rollback completes;
* no vehicle is ever told to run a bundle newer than the newest version
  the control plane has offered, and every converged vehicle runs either
  the committed or the staged version — never anything else;
* a vehicle that disappears mid-rollout is re-offered the fleet's
  current target when it reconnects (chaos invariant I8).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Dict, List, Optional, Sequence, Tuple

from .bundle import PolicyBundle


class ProofRefusedError(RuntimeError):
    """The proof gate refused a staged bundle before the canary wave.

    Carries the gate's :class:`~repro.verify.gate.GateDecision` so the
    caller (and ``sackctl fleet rollout``) can show which properties the
    bundle's policy violates and the first counterexample.
    """

    def __init__(self, message: str, decision=None):
        super().__init__(message)
        self.decision = decision


class RolloutState(enum.Enum):
    IDLE = "idle"
    IN_PROGRESS = "in_progress"
    COMPLETE = "complete"
    ROLLING_BACK = "rolling_back"
    ROLLED_BACK = "rolled_back"


class VehiclePhase(enum.Enum):
    UNTOUCHED = "untouched"
    OFFERED = "offered"
    APPLIED = "applied"
    FAILED = "failed"
    REVERT_OFFERED = "revert_offered"
    REVERTED = "reverted"


@dataclasses.dataclass(frozen=True)
class Wave:
    """One rollout stage: the *cumulative* fleet fraction it reaches."""

    name: str
    fraction: float
    soak_epochs: int = 1
    error_budget: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"wave fraction must be in (0, 1]: "
                             f"{self.fraction}")
        if self.soak_epochs < 0 or self.error_budget < 0:
            raise ValueError("soak_epochs/error_budget must be >= 0")


#: Per-vehicle denial-count increase per epoch above which an applied
#: vehicle counts against the wave's error budget.
MAX_DENIAL_DELTA = 25


@dataclasses.dataclass(frozen=True)
class RolloutPlan:
    """Wave schedule plus the SLO gate switch.

    The health gate always counts a denial-rate spike
    (:data:`MAX_DENIAL_DELTA`), an engaged watchdog and a failsafe entry
    against the wave's error budget.
    """

    waves: Tuple[Wave, ...]
    #: Count SLO burn-rate alerts (``slo_alerts`` in the health deltas,
    #: fed by the fleet telemetry pipeline) as gate breaches.
    gate_on_slo: bool = True

    def __post_init__(self):
        if not self.waves:
            raise ValueError("a rollout plan needs at least one wave")
        last = 0.0
        for wave in self.waves:
            if wave.fraction <= last:
                raise ValueError("wave fractions must strictly increase")
            last = wave.fraction
        if last != 1.0:
            raise ValueError("the final wave must reach the full fleet "
                             "(fraction 1.0)")


def default_rollout_plan() -> RolloutPlan:
    """Canary (one vehicle's worth) → 25% → full fleet."""
    return RolloutPlan(waves=(
        Wave("canary", 0.01, soak_epochs=2, error_budget=0),
        Wave("early", 0.25, soak_epochs=1, error_budget=1),
        Wave("full", 1.0, soak_epochs=1, error_budget=2),
    ))


@dataclasses.dataclass(frozen=True)
class VehicleAck:
    """A vehicle's response to an apply/revert command."""

    vehicle_id: str
    version: int
    ok: bool
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class Command:
    """One control-plane instruction for one vehicle."""

    vehicle_id: str
    action: str                 # "apply" | "revert"
    bundle: PolicyBundle


class RolloutController:
    """Drives one staged rollout across a fixed fleet roster."""

    def __init__(self, plan: RolloutPlan, fleet_ids: Sequence[str],
                 committed: Optional[PolicyBundle] = None,
                 proof_gate=None):
        self.plan = plan
        self.fleet_ids: List[str] = sorted(fleet_ids)
        if not self.fleet_ids:
            raise ValueError("fleet roster is empty")
        self.committed = committed
        #: Optional :class:`~repro.verify.gate.ProofGate`: when set,
        #: :meth:`stage` refuses any bundle whose policy fails the
        #: static safety proofs — fleet-wide, before the canary wave.
        self.proof_gate = proof_gate
        #: ``(version, reason)`` for every bundle the gate refused.
        self.refusals: List[Tuple[int, str]] = []
        self.target: Optional[PolicyBundle] = None
        self.state = RolloutState.IDLE
        self.wave_index = 0
        self.phase: Dict[str, VehiclePhase] = {
            vid: VehiclePhase.UNTOUCHED for vid in self.fleet_ids}
        #: Epochs the current wave has been fully applied and healthy.
        self._wave_soaked = 0
        #: Cumulative gate failures charged to the current wave.
        self._wave_failures = 0
        self.history: List[Tuple[int, str]] = []
        self._epoch = 0
        self._max_offered = committed.version if committed else -1

    # -- introspection -----------------------------------------------------
    @property
    def committed_version(self) -> Optional[int]:
        return self.committed.version if self.committed else None

    @property
    def target_version(self) -> Optional[int]:
        return self.target.version if self.target else None

    @property
    def max_offered_version(self) -> int:
        """The newest version this control plane has *ever* offered.

        An ever-max, not the current target: after a rollback, an
        offline straggler may legitimately still hold the withdrawn
        version until it reconnects and reverts — what it must never
        hold is a version the control plane never published.
        """
        return self._max_offered

    def wave_members(self, index: Optional[int] = None) -> List[str]:
        """Cumulative membership of wave *index* (sorted, deterministic)."""
        if self.target is None:
            return []
        idx = self.wave_index if index is None else index
        idx = min(idx, len(self.plan.waves) - 1)
        count = max(1, math.ceil(self.plan.waves[idx].fraction
                                 * len(self.fleet_ids)))
        return self.fleet_ids[:count]

    def _log(self, message: str) -> None:
        self.history.append((self._epoch, message))

    # -- lifecycle ---------------------------------------------------------
    def stage(self, bundle: PolicyBundle) -> None:
        """Begin rolling *bundle* out."""
        if self.state in (RolloutState.IN_PROGRESS,
                          RolloutState.ROLLING_BACK):
            raise RuntimeError(f"rollout already {self.state.value}")
        if (self.committed is not None
                and bundle.version <= self.committed.version):
            raise ValueError(
                f"staged version {bundle.version} must be newer than "
                f"committed {self.committed.version}")
        if self.proof_gate is not None:
            decision = self.proof_gate.evaluate_bundle(bundle)
            if not decision.passed:
                self.refusals.append((bundle.version, decision.summary))
                self._log(f"REFUSED v{bundle.version} before canary: "
                          f"{decision.summary}")
                raise ProofRefusedError(
                    f"bundle v{bundle.version} refused by the proof "
                    f"gate: {decision.summary}", decision=decision)
        self.target = bundle
        self._max_offered = max(self._max_offered, bundle.version)
        self.state = RolloutState.IN_PROGRESS
        self.wave_index = 0
        self._wave_soaked = 0
        self._wave_failures = 0
        self.phase = {vid: VehiclePhase.UNTOUCHED
                      for vid in self.fleet_ids}
        self._log(f"staged v{bundle.version} "
                  f"({len(self.plan.waves)} wave(s))")

    def exclude(self, vehicle_id: str) -> None:
        """Drop *vehicle_id* from the roster (quarantine).

        The vehicle stops counting toward wave membership, health
        gating, and resync — a quarantined canary must not pin a wave in
        IN_PROGRESS forever.  Unknown ids are ignored (idempotent).
        """
        if vehicle_id not in self.phase:
            return
        self.fleet_ids.remove(vehicle_id)
        del self.phase[vehicle_id]
        self._log(f"{vehicle_id} excluded from rollout (quarantined)")

    def abort(self) -> None:
        """Operator-initiated rollback (same path as a blown budget)."""
        if self.state in (RolloutState.IN_PROGRESS,
                          RolloutState.COMPLETE):
            self._start_rollback("operator abort")

    def _start_rollback(self, reason: str) -> None:
        self.state = RolloutState.ROLLING_BACK
        self._log(f"ROLLBACK: {reason}")

    # -- the per-epoch step ------------------------------------------------
    def step(self, acks: Sequence[VehicleAck],
             health: Optional[Dict[str, Dict[str, object]]] = None,
             online: Optional[Dict[str, bool]] = None,
             epoch: Optional[int] = None) -> List[Command]:
        """Consume this epoch's acks/health; return commands to dispatch.

        *health* maps vehicle id → per-epoch deltas (``denial_delta``,
        ``watchdog_engaged``, ``failsafe_delta``); *online* maps vehicle
        id → connectivity.  Both default to healthy/connected.
        """
        self._epoch = self._epoch + 1 if epoch is None else epoch
        health = health or {}
        online = online if online is not None else {}
        self._absorb_acks(acks)
        if self.state is RolloutState.IN_PROGRESS:
            return self._step_wave(health, online)
        if self.state is RolloutState.ROLLING_BACK:
            return self._step_rollback(online)
        if self.state in (RolloutState.ROLLED_BACK,
                          RolloutState.COMPLETE):
            # Straggler convergence (I8): reconnecting vehicles are
            # brought to the fleet's settled bundle.
            return self._resync_commands(online)
        return []

    def _is_online(self, vid: str, online: Dict[str, bool]) -> bool:
        return online.get(vid, True)

    def _absorb_acks(self, acks: Sequence[VehicleAck]) -> None:
        for ack in sorted(acks, key=lambda a: a.vehicle_id):
            if ack.vehicle_id not in self.phase:
                continue
            if self.state in (RolloutState.ROLLING_BACK,
                              RolloutState.ROLLED_BACK):
                if ack.version == self.committed_version and ack.ok:
                    self.phase[ack.vehicle_id] = VehiclePhase.REVERTED
                    self._log(f"{ack.vehicle_id} reverted to "
                              f"v{ack.version}")
                elif not ack.ok:
                    # A failed revert stays outstanding; keep offering.
                    self.phase[ack.vehicle_id] = VehiclePhase.APPLIED
                    self._log(f"{ack.vehicle_id} revert failed: "
                              f"{ack.detail}")
                continue
            if self.state is RolloutState.COMPLETE:
                # Straggler catch-up acks after the rollout settled.
                if ack.ok and ack.version == self.committed_version:
                    self.phase[ack.vehicle_id] = VehiclePhase.APPLIED
                    self._log(f"{ack.vehicle_id} caught up to "
                              f"v{ack.version}")
                continue
            if self.target is None or ack.version != self.target.version:
                continue
            if ack.ok:
                self.phase[ack.vehicle_id] = VehiclePhase.APPLIED
                self._log(f"{ack.vehicle_id} applied v{ack.version}")
            else:
                self.phase[ack.vehicle_id] = VehiclePhase.FAILED
                self._wave_failures += 1
                self._log(f"{ack.vehicle_id} failed v{ack.version}: "
                          f"{ack.detail}")

    def _gate_failures(self, health: Dict[str, Dict[str, object]]) -> int:
        """Health-gate breaches among this wave's applied vehicles."""
        breaches = 0
        for vid in self.wave_members():
            if self.phase[vid] is not VehiclePhase.APPLIED:
                continue
            h = health.get(vid)
            if not h:
                continue
            if int(h.get("denial_delta", 0)) > MAX_DENIAL_DELTA:
                breaches += 1
                self._log(f"{vid} denial-rate breach "
                          f"({h.get('denial_delta')} > "
                          f"{MAX_DENIAL_DELTA})")
            elif h.get("watchdog_engaged"):
                breaches += 1
                self._log(f"{vid} watchdog engaged under v"
                          f"{self.target_version}")
            elif int(h.get("failsafe_delta", 0)) > 0:
                breaches += 1
                self._log(f"{vid} failsafe engaged under v"
                          f"{self.target_version}")
            elif self.plan.gate_on_slo and \
                    int(h.get("slo_alerts", 0)) > 0:
                breaches += 1
                self._log(f"{vid} SLO burn-rate breach under v"
                          f"{self.target_version} "
                          f"({h.get('slo_alerts')} alert(s))")
        return breaches

    def _step_wave(self, health: Dict[str, Dict[str, object]],
                   online: Dict[str, bool]) -> List[Command]:
        assert self.target is not None
        wave = self.plan.waves[self.wave_index]
        members = self.wave_members()
        self._wave_failures += self._gate_failures(health)
        if self._wave_failures > wave.error_budget:
            self._start_rollback(
                f"wave '{wave.name}' blew its error budget "
                f"({self._wave_failures} > {wave.error_budget})")
            return self._step_rollback(online)

        commands: List[Command] = []
        for vid in members:
            phase = self.phase[vid]
            if not self._is_online(vid, online):
                continue
            if phase in (VehiclePhase.UNTOUCHED, VehiclePhase.FAILED):
                # First offer, or a retry after a nack (each nack has
                # already been charged to the wave's error budget).
                self.phase[vid] = VehiclePhase.OFFERED
                commands.append(Command(vid, "apply", self.target))
            elif phase is VehiclePhase.OFFERED:
                # Offer outstanding (ack lost, or the vehicle was
                # offline between offer and ack): re-offer (I8).
                commands.append(Command(vid, "apply", self.target))

        # The wave is done once every member has ACKED the apply; a
        # member that applied and then dropped offline does not stall
        # the wave, but an unreachable member that never applied does.
        applied = [vid for vid in members
                   if self.phase[vid] is VehiclePhase.APPLIED]
        if len(applied) == len(members) and not commands:
            self._wave_soaked += 1
            if self._wave_soaked > wave.soak_epochs:
                self._advance_wave(online)
        return commands

    def _advance_wave(self, online: Dict[str, bool]) -> None:
        assert self.target is not None
        wave = self.plan.waves[self.wave_index]
        self._log(f"wave '{wave.name}' complete "
                  f"({len(self.wave_members())} vehicle(s))")
        if self.wave_index + 1 < len(self.plan.waves):
            self.wave_index += 1
            self._wave_soaked = 0
            self._wave_failures = 0
            return
        self.committed = self.target
        self.target = None
        self.state = RolloutState.COMPLETE
        self._log(f"rollout complete: committed v"
                  f"{self.committed.version}")

    def _step_rollback(self, online: Dict[str, bool]) -> List[Command]:
        commands: List[Command] = []
        if self.committed is None:
            # Nothing to revert to; vehicles keep their boot policy and
            # the rollout simply ends.
            self.target = None
            self.state = RolloutState.ROLLED_BACK
            self._log("rolled back to boot policy (no committed bundle)")
            return commands
        outstanding = []
        for vid in self.fleet_ids:
            phase = self.phase[vid]
            if phase in (VehiclePhase.APPLIED, VehiclePhase.OFFERED,
                         VehiclePhase.FAILED,
                         VehiclePhase.REVERT_OFFERED):
                if self._is_online(vid, online):
                    outstanding.append(vid)
                    self.phase[vid] = VehiclePhase.REVERT_OFFERED
                    commands.append(Command(vid, "revert", self.committed))
                # An offline vehicle does not pin the fleet in
                # ROLLING_BACK; once settled, the resync path (I8)
                # reverts it on reconnect.
        if not outstanding:
            self.target = None
            self.state = RolloutState.ROLLED_BACK
            self._log(f"fleet rolled back to v{self.committed.version}")
        return commands

    def _resync_commands(self, online: Dict[str, bool]) -> List[Command]:
        """Bring reconnecting stragglers to the settled bundle (I8)."""
        if self.committed is None:
            return []
        commands: List[Command] = []
        rolled_back = self.state is RolloutState.ROLLED_BACK
        for vid in self.fleet_ids:
            phase = self.phase[vid]
            if not self._is_online(vid, online):
                continue
            outstanding = phase in (VehiclePhase.OFFERED,
                                    VehiclePhase.FAILED,
                                    VehiclePhase.REVERT_OFFERED)
            if rolled_back:
                # APPLIED means the vehicle still runs the withdrawn
                # target — it must revert too.
                outstanding = outstanding or phase is VehiclePhase.APPLIED
            else:
                # COMPLETE: a vehicle that was offline for the whole
                # rollout (never offered) still needs the new bundle.
                outstanding = outstanding or phase is VehiclePhase.UNTOUCHED
            if outstanding:
                commands.append(Command(
                    vid, "revert" if rolled_back else "apply",
                    self.committed))
        return commands

    # -- reporting ---------------------------------------------------------
    def status_lines(self) -> List[str]:
        lines = [f"rollout: {self.state.value}"
                 + (f" (wave {self.wave_index + 1}/"
                    f"{len(self.plan.waves)} "
                    f"'{self.plan.waves[self.wave_index].name}')"
                    if self.state is RolloutState.IN_PROGRESS else ""),
                 f"committed: "
                 f"{'v%d' % self.committed.version if self.committed else 'none'}"
                 f"  target: "
                 f"{'v%d' % self.target.version if self.target else 'none'}"]
        counts: Dict[str, int] = {}
        for phase in self.phase.values():
            counts[phase.value] = counts.get(phase.value, 0) + 1
        lines.append("vehicles: " + ", ".join(
            f"{k}={v}" for k, v in sorted(counts.items())))
        for version, reason in self.refusals:
            lines.append(f"refused: v{version} — {reason}")
        return lines

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "state": self.state.value,
            "wave_index": self.wave_index,
            "committed_version": self.committed_version,
            "target_version": self.target_version,
            "phases": {vid: phase.value
                       for vid, phase in sorted(self.phase.items())},
            "history": [f"e{epoch}: {msg}"
                        for epoch, msg in self.history],
        }
        if self.refusals:
            # Key is conditional: a gate-free rollout serialises (and
            # fingerprints) byte-identically to pre-gate builds.
            doc["refusals"] = [{"version": version, "reason": reason}
                               for version, reason in self.refusals]
        return doc
