"""The fleet scheduler: N vehicle kernels on one deterministic clock.

The fleet advances in **epochs**.  Within an epoch every vehicle is
independent — its kernel, LSM stack, and SDS tick with no cross-vehicle
interaction — so the per-vehicle work shards freely across a worker
pool.  Every cross-vehicle effect happens at the **epoch barrier**, in
sorted vehicle order, on the fleet's own virtual clock:

* connectivity decisions (the ``fleet:vehicle_offline`` fault point),
* V2X bus deliveries into vehicles' SDS sensor streams,
* rollout commands, bundle applies, and ack collection,
* scenario driver actions (crashes, recoveries, driver changes).

Because nothing a vehicle does mid-epoch can observe another vehicle,
and every barrier resolution is ordered and seeded, a run's outcome is
**independent of worker count**: `workers=1` and `workers=8` produce
bit-identical :meth:`~repro.fleet.report.FleetReport.fingerprint`\\ s.

Two backends exist, both routed through a **host**
(:mod:`repro.fleet.backend`).  ``serial`` ticks every vehicle in this
process; ``process`` shards vehicles across ``workers`` persistent
worker processes, each running the same in-process host over its
shard.  ``workers`` only sizes that process pool; the serial backend
ignores it.

The fleet keeps one clock, ``sim_now_ns``: simulated time, which drives
every deadline, window and fingerprint.  Speed is measured in host
time, outside the fleet — see "Measuring fleet speed" in
docs/fleet.md.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import points as fault_points
from ..faults.plan import FaultPlan
from ..obs.hub import Observability
from .backend import create_host
from .bundle import PolicyBundle
from .bus import V2xBus
from .report import FleetReport, aggregate_metrics
from .resilience import RestartPolicy, VehicleSupervisor
from .telemetry import FleetTelemetry, SloSpec
from .rollout import (RolloutController, RolloutPlan, RolloutState,
                      VehicleAck, default_rollout_plan)
from .vehicle import DEFAULT_TOPICS, MODE_CONFIGS, FleetVehicle

#: Scenario-driver RNG domain separator.
_DRIVER_SALT = 0xD21FE

#: How many consecutive settled barriers a connected vehicle may diverge
#: from the committed bundle before I8 flags it (apply/ack needs one
#: round-trip; reconnection catch-up needs two).
_I8_GRACE_BARRIERS = 3


class ScriptedDriver:
    """Replays an explicit scenario: ``(epoch, vehicle_id, action)``.

    Actions: ``start``, ``cruise``, ``brake``, ``crash``, ``clear``,
    ``stop_engine``, ``driver_leaves``, ``driver_returns``.
    """

    def __init__(self, script: Sequence[Tuple[int, str, str]] = ()):
        self._by_epoch: Dict[int, List[Tuple[str, str]]] = {}
        for epoch, vid, action in script:
            self._by_epoch.setdefault(epoch, []).append((vid, action))

    def at(self, epoch: int, vehicle_id: str,
           action: str) -> "ScriptedDriver":
        self._by_epoch.setdefault(epoch, []).append((vehicle_id, action))
        return self

    def actions(self, epoch: int,
                vehicle_ids: Sequence[str]) -> List[Tuple[str, str]]:
        return sorted(self._by_epoch.get(epoch, []))


class TrafficDriver:
    """Seeded random traffic: rare crashes, eventual recoveries.

    One RNG, advanced in sorted vehicle order at each barrier — the
    draw sequence never depends on worker count or dict order.
    """

    def __init__(self, seed: int, crash_probability: float = 0.004,
                 clear_probability: float = 0.15,
                 driver_change_probability: float = 0.0):
        self.rng = random.Random(seed ^ _DRIVER_SALT)
        self.crash_probability = crash_probability
        self.clear_probability = clear_probability
        self.driver_change_probability = driver_change_probability
        self._crashed: Dict[str, bool] = {}

    def actions(self, epoch: int,
                vehicle_ids: Sequence[str]) -> List[Tuple[str, str]]:
        acts: List[Tuple[str, str]] = []
        for vid in sorted(vehicle_ids):
            roll = self.rng.random()
            if self._crashed.get(vid):
                if roll < self.clear_probability:
                    self._crashed[vid] = False
                    acts.append((vid, "clear"))
                continue
            if roll < self.crash_probability:
                self._crashed[vid] = True
                acts.append((vid, "crash"))
            elif self.driver_change_probability and \
                    roll < (self.crash_probability
                            + self.driver_change_probability):
                acts.append((vid, "driver_leaves" if roll * 1e6 % 2 < 1
                             else "driver_returns"))
        return acts


@dataclasses.dataclass
class FleetConfig:
    """Everything that shapes one fleet run (all seeded, no wall time)."""

    n_vehicles: int = 10
    seed: int = 0
    workers: int = 1                   # process-pool size; serial ignores it
    epoch_ticks: int = 10
    dt_s: float = 0.1
    mode: str = "independent"          # enforcement backend per vehicle
    spacing_km: float = 0.15           # platoon gap at boot
    cruise_accel_ms2: float = 3.0
    start_moving: bool = True
    topics: Tuple[str, ...] = DEFAULT_TOPICS
    bus_range_km: float = 0.5
    bus_latency_ms: Tuple[float, float] = (20.0, 80.0)
    #: Max overdue V2X copies held per offline subscriber (drop-oldest).
    v2x_offline_queue_limit: int = 64
    vehicle_fault_intensity: float = 0.0
    policy_text: Optional[str] = None  # None = DEFAULT_SACK_POLICY
    rollout_plan: Optional[RolloutPlan] = None
    fleet_key: bytes = b"sack-fleet-signing-key"
    #: Run every staged bundle's policy through the static model checker
    #: (:class:`repro.verify.gate.ProofGate`) before the canary wave; a
    #: violating bundle is refused fleet-wide with the failing properties
    #: recorded in the rollout history.  Decisions are digest-cached, so
    #: re-staging the same policy costs nothing.
    proof_gate: bool = True
    backend: str = "serial"            # "serial" | "process"
    # -- crash resilience (see repro.fleet.resilience) ----------------------
    #: Completed epochs between copy-on-write vehicle checkpoints.
    checkpoint_interval_epochs: int = 4
    #: Restarts before a crashing vehicle is quarantined.
    max_restarts: int = 3
    #: Virtual-clock backoff before restart attempt N: base * 2^(N-1).
    restart_backoff_epochs: int = 1
    restart_backoff_cap_epochs: int = 8
    #: Epoch records retained for restore replay.
    journal_capacity_epochs: int = 64
    #: Control-plane call deadline/retry knobs (virtual ns).
    control_retries: int = 2
    control_deadline_ns: int = 20_000_000
    #: Checkpoint even with no crash faults armed (``sackctl fleet
    #: checkpoint`` uses this; it does not change the fingerprint).
    always_checkpoint: bool = False
    # -- streaming telemetry (see repro.fleet.telemetry) --------------------
    #: Snapshot every vehicle kernel at each barrier and run the SLO
    #: engine.  Off by default: disabled runs fingerprint byte-identically
    #: to pre-telemetry builds.
    telemetry: bool = False
    telemetry_short_window_epochs: int = 3
    telemetry_long_window_epochs: int = 12
    #: Aggregator cardinality budget: max (vehicle, series) pairs
    #: tracked fleet-wide; beyond it, drop-and-count.
    telemetry_max_series: int = 4096
    #: Armed objectives; empty = :func:`repro.fleet.telemetry.default_slos`.
    slos: Tuple[SloSpec, ...] = ()
    #: Consecutive alerted epochs before a per-vehicle SLO breach
    #: quarantines the vehicle (0 = never quarantine on SLO).
    slo_quarantine_epochs: int = 0

    ACCEPTED_BACKENDS = ("serial", "process")

    def __post_init__(self):
        if self.n_vehicles < 1:
            raise ValueError("n_vehicles must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backend not in self.ACCEPTED_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; accepted backends: "
                f"{', '.join(self.ACCEPTED_BACKENDS)}")
        if self.mode not in MODE_CONFIGS:
            raise ValueError(
                f"unknown fleet mode {self.mode!r}; accepted modes: "
                f"{', '.join(sorted(MODE_CONFIGS))}")
        if self.checkpoint_interval_epochs < 1:
            raise ValueError("checkpoint_interval_epochs must be >= 1")
        if self.journal_capacity_epochs < 1:
            raise ValueError("journal_capacity_epochs must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.telemetry_short_window_epochs < 1 or \
                self.telemetry_long_window_epochs \
                < self.telemetry_short_window_epochs:
            raise ValueError(
                "need 1 <= telemetry_short_window_epochs "
                "<= telemetry_long_window_epochs")
        if self.telemetry_max_series < 1:
            raise ValueError("telemetry_max_series must be >= 1")
        if self.slo_quarantine_epochs < 0:
            raise ValueError("slo_quarantine_epochs must be >= 0")


@dataclasses.dataclass
class FleetRunResult:
    """What :meth:`Fleet.run` hands back."""

    epochs_run: int
    report: FleetReport

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def fingerprint(self) -> str:
        return self.report.fingerprint()


class Fleet:
    """N vehicle kernels + bus + control plane on one virtual clock."""

    def __init__(self, config: FleetConfig, driver=None):
        self.config = config
        self.driver = driver if driver is not None \
            else TrafficDriver(config.seed)
        #: Fleet-level fault plan: connectivity, ack loss, V2X drops.
        self.fleet_plan = FaultPlan(config.seed ^ 0xF1EE7)
        self.bus = V2xBus(seed=config.seed,
                          range_km=config.bus_range_km,
                          latency_bounds_ms=config.bus_latency_ms,
                          fault_plan=self.fleet_plan,
                          offline_queue_limit=
                          config.v2x_offline_queue_limit)
        #: Deterministic constructor specs; the host builds the actual
        #: vehicle objects (in this process, or in its workers).
        self._vehicle_specs: List[Dict[str, object]] = []
        for index in range(config.n_vehicles):
            vid = f"veh{index:03d}"
            self._vehicle_specs.append(dict(
                vehicle_id=vid, index=index,
                seed=(config.seed * 1_000_003) ^ (index + 1),
                mode=config.mode,
                start_km=index * config.spacing_km,
                fault_intensity=config.vehicle_fault_intensity,
                policy_text=config.policy_text))
            self.bus.subscribe(vid, config.topics)
        self.ids: List[str] = [str(spec["vehicle_id"])
                               for spec in self._vehicle_specs]
        plan = config.rollout_plan or default_rollout_plan()
        #: Proof gate for OTA admission (None when disabled).  Imported
        #: lazily: a gate-free fleet never pulls in the checker stack.
        self.proof_gate = None
        if config.proof_gate:
            from ..verify.gate import ProofGate
            self.proof_gate = ProofGate()
        self.controller = RolloutController(plan, self.ids,
                                            proof_gate=self.proof_gate)
        self.sim_now_ns = 0
        self.epoch_index = 0
        self.violations: List[str] = []
        self.offline_epochs: Dict[str, int] = {vid: 0 for vid in self.ids}
        self._forced_offline: Dict[str, int] = {}    # vid -> until epoch
        self._pending_acks: List[VehicleAck] = []
        self._health_deltas: Dict[str, Dict[str, object]] = {}
        #: Execution backend: owns the vehicles (and, for ``process``,
        #: the worker pool + per-vehicle read mirrors).
        self.host = create_host(config)
        try:
            self._last_health: Dict[str, Dict[str, object]] = \
                self.host.boot(self._vehicle_specs)
        except BaseException:
            self.host.close()       # reap any workers already forked
            raise
        self._i8_strikes: Dict[str, int] = {vid: 0 for vid in self.ids}
        #: Fleet-level observability (metrics, spans, tracepoints) shared
        #: by the supervisor and the telemetry pipeline, stamped on the
        #: fleet virtual clock (:attr:`now_ns`).  Kept out of the vehicle
        #: kernels so per-kernel roll-ups (and fingerprints) never move.
        self.obs = Observability(clock=self)
        self.obs.spans.enable()
        #: Crash supervisor: checkpoints, restores, quarantine, and the
        #: control-plane deadline guard (idle until faults are armed).
        self.supervisor = VehicleSupervisor(
            self,
            policy=RestartPolicy(
                max_restarts=config.max_restarts,
                backoff_base_epochs=config.restart_backoff_epochs,
                backoff_cap_epochs=config.restart_backoff_cap_epochs),
            checkpoint_interval_epochs=config.checkpoint_interval_epochs,
            journal_capacity=config.journal_capacity_epochs,
            control_retries=config.control_retries,
            control_deadline_ns=config.control_deadline_ns)
        #: Streaming telemetry pipeline (None unless enabled, so a
        #: disabled fleet is byte-identical to pre-telemetry builds).
        self.telemetry: Optional[FleetTelemetry] = \
            FleetTelemetry(self) if config.telemetry else None

    @property
    def now_ns(self) -> int:
        """The fleet virtual clock, as the fleet obs hub reads it."""
        return self.sim_now_ns

    @property
    def vehicles(self) -> Dict[str, FleetVehicle]:
        """The vehicle objects by id — empty under ``process``, whose
        vehicles live in the workers."""
        return self.host.vehicles

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (the process backend's workers).

        Idempotent; a no-op for the in-process backends.  Daemon workers
        die with the interpreter anyway, so a missed close leaks nothing
        past process exit — but a long-lived caller should close (or use
        the fleet as a context manager)."""
        self.host.close()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- scenario hooks ----------------------------------------------------
    def stage_rollout(self, bundle: PolicyBundle) -> None:
        """Begin rolling *bundle* out.

        With the proof gate enabled (the default), a bundle whose policy
        violates any static safety property raises
        :class:`~repro.fleet.rollout.ProofRefusedError` here — before
        any vehicle, canary included, is offered it.
        """
        self.controller.stage(bundle)

    def force_offline(self, vehicle_id: str, epochs: int) -> None:
        """Drop *vehicle_id*'s connectivity for the next *epochs* epochs."""
        self._forced_offline[vehicle_id] = self.epoch_index + epochs

    def force_crash(self, vehicle_id: str,
                    epoch: Optional[int] = None) -> None:
        """Kill *vehicle_id*'s kernel at the given (default: next)
        barrier; the supervisor restores or quarantines it."""
        self.supervisor.schedule_crash(vehicle_id, epoch)

    def arm_vehicle_fault(self, vehicle_id: str, point: str,
                          **knobs) -> None:
        """Arm a fault rule on one vehicle's own plan (creating one)."""
        if vehicle_id not in self.offline_epochs:
            raise KeyError(vehicle_id)
        self.host.arm_fault(vehicle_id, point, knobs)

    # -- barrier pieces ----------------------------------------------------
    def _connectivity(self) -> Dict[str, bool]:
        online: Dict[str, bool] = {}
        for vid in self.ids:
            if self.supervisor.is_dead(vid):
                # Crashed/quarantined: off the air, and no offline-fault
                # draw (a dead radio cannot also flake).
                online[vid] = False
                self.offline_epochs[vid] += 1
                continue
            down = False
            until = self._forced_offline.get(vid)
            if until is not None:
                if self.epoch_index < until:
                    down = True
                else:
                    del self._forced_offline[vid]
            if not down and self.fleet_plan.rules:
                down = self.fleet_plan.should_fail(
                    fault_points.FLEET_VEHICLE_OFFLINE,
                    self.sim_now_ns, arg=vid)
            online[vid] = not down
            if down:
                self.offline_epochs[vid] += 1
        self.host.set_online(online)
        return online

    def _positions(self) -> Dict[str, float]:
        return self.host.positions()

    def _deliver_bus(self, online: Dict[str, bool],
                     record=None) -> None:
        ok, due = self.supervisor.guard.call(
            "v2x_delivery", self.sim_now_ns,
            lambda: self.bus.deliver_due(self.sim_now_ns, online))
        if not ok:
            due = {}      # copies stay queued; the radio retries next epoch
        positions = self._positions()
        if record is not None:
            for vid, messages in due.items():
                if messages:
                    record.deliveries[vid] = list(messages)
        # Always call the host, even with nothing due: the process
        # backend's delivery round trip also carries the held online
        # flags and driver actions.  Delivery itself draws no RNG, so
        # emitting the follow-on publishes after the host returns is
        # bit-identical to the old interleaved loop.
        reactions = self.host.deliver(due)
        for vid, messages in due.items():
            for message, reaction in zip(messages, reactions[vid]):
                if reaction == "braked":
                    # Follow-on event: hard braking is itself a
                    # situation neighbours may care about.
                    self.bus.publish("emergency_brake", vid,
                                     positions[vid], self.sim_now_ns,
                                     payload={"cause": message.topic},
                                     positions=positions)

    def _dispatch_rollout(self, online: Dict[str, bool],
                          record=None) -> None:
        acks = self._pending_acks
        ok, commands = self.supervisor.guard.call(
            "rollout_step", self.sim_now_ns,
            lambda: self.controller.step(
                acks, health=self._health_deltas,
                online=online, epoch=self.epoch_index))
        if not ok:
            return        # acks stay pending and are re-fed next epoch
        self._pending_acks = []
        applicable = [command for command in commands
                      if online.get(command.vehicle_id, True)]
        # All applies go to the host in one batch; the ack-drop draws
        # come from the fleet plan's RNG *after* the applies, in command
        # order — the applies themselves draw nothing from it, so the
        # fleet-plan draw sequence matches the old interleaved loop.
        applied = self.host.apply_commands(applicable, self.sim_now_ns)
        for command, ack in zip(applicable, applied):
            if record is not None:
                record.commands.setdefault(
                    command.vehicle_id, []).append(
                        (command.bundle, self.sim_now_ns))
            if self.fleet_plan.rules and self.fleet_plan.should_fail(
                    fault_points.FLEET_ACK_DROP, self.sim_now_ns,
                    arg=command.vehicle_id):
                continue                  # controller re-offers (I8)
            self._pending_acks.append(ack)

    def _tick_vehicles(self) -> None:
        cfg = self.config
        sup = self.supervisor
        # Dead vehicles don't tick; stalled ones miss this phase only.
        live = [vid for vid in self.ids if not sup.is_dead(vid)]
        tickable = [vid for vid in live
                    if vid not in sup.stalled_this_epoch]
        frame_spec = None
        if self.telemetry is not None:
            # The frame the collector will want *after* the clock
            # advances: this epoch's index, end-of-epoch timestamp.
            frame_spec = (self.epoch_index,
                          self.sim_now_ns
                          + int(cfg.epoch_ticks * cfg.dt_s * 1e9))
        sup.absorb_tick_failures(self.host.tick(tickable, live, frame_spec))

    def _publish_transitions(self) -> None:
        positions = self._positions()
        for vid in self.ids:
            if self.supervisor.is_dead(vid):
                continue        # a wreck publishes nothing
            for event, from_state, to_state in [
                    (t[0], t[1], t[2])
                    for t in self.host.drain_transitions(vid)]:
                if to_state == "emergency" and from_state != "emergency":
                    self.bus.publish("crash", vid, positions[vid],
                                     self.sim_now_ns,
                                     payload={"event": event},
                                     positions=positions)
                elif from_state == "emergency" and to_state != "emergency":
                    self.bus.publish("crash_cleared", vid,
                                     positions[vid], self.sim_now_ns,
                                     payload={"event": event},
                                     positions=positions)

    def _collect_health(self) -> None:
        def poll() -> Dict[str, Dict[str, object]]:
            deltas: Dict[str, Dict[str, object]] = {}
            for vid in self.ids:
                if self.supervisor.is_dead(vid):
                    continue    # can't poll a dead kernel
                snap = self.host.health_snapshot(vid)
                last = self._last_health[vid]
                deltas[vid] = {
                    "denial_delta": int(snap["denials"])
                    - int(last["denials"]),
                    "failsafe_delta": int(snap["failsafe_engagements"])
                    - int(last["failsafe_engagements"]),
                    "watchdog_engaged": bool(snap["watchdog_engaged"]),
                }
                self._last_health[vid] = snap
            return deltas

        ok, deltas = self.supervisor.guard.call(
            "health_poll", self.sim_now_ns, poll)
        # Exhausted poll: gate on nothing this epoch (deltas unknown).
        self._health_deltas = deltas if ok else {}

    def _telemetry_step(self) -> None:
        """Barrier telemetry: snapshot kernels, run SLOs, feed gating.

        Runs after :meth:`_collect_health` so SLO alerts ride the same
        health deltas the next epoch's rollout step consumes.
        """
        tel = self.telemetry
        if tel is None:
            return
        alerts = tel.collect(self.epoch_index)
        per_vehicle = set()
        for alert in alerts:
            if alert.vehicle_id:
                per_vehicle.add(alert.vehicle_id)
                targets = [alert.vehicle_id]
            else:
                # Fleet-scope breach: charge every polled vehicle so a
                # canary wave in flight sees the burn.
                targets = list(self._health_deltas)
            for vid in targets:
                health = self._health_deltas.get(vid)
                if health is not None:
                    health["slo_alerts"] = \
                        int(health.get("slo_alerts", 0)) + 1
        self.supervisor.note_slo_alerts(per_vehicle, self.epoch_index)

    def _check_invariants(self, online: Dict[str, bool]) -> None:
        ctl = self.controller
        for vid in self.ids:
            if self.supervisor.is_dead(vid):
                continue        # I8 applies to live vehicles; I9 covers
            version = self.host.bundle_version(vid)
            if version is not None and version > ctl.max_offered_version:
                self.violations.append(
                    f"epoch {self.epoch_index}: I8:version-ahead: {vid} "
                    f"runs v{version} but control plane never offered "
                    f"past v{ctl.max_offered_version}")
            settled = ctl.state in (RolloutState.COMPLETE,
                                    RolloutState.ROLLED_BACK)
            diverged = (settled and online.get(vid, True)
                        and ctl.committed is not None
                        and version != ctl.committed.version)
            if diverged:
                self._i8_strikes[vid] += 1
                if self._i8_strikes[vid] == _I8_GRACE_BARRIERS:
                    self.violations.append(
                        f"epoch {self.epoch_index}: I8:diverged: {vid} "
                        f"online but stuck on "
                        f"{'v%s' % version if version is not None else 'boot policy'} "
                        f"!= committed v{ctl.committed.version}")
            else:
                self._i8_strikes[vid] = 0

    # -- the epoch loop ----------------------------------------------------
    def run_epoch(self) -> None:
        sup = self.supervisor
        # Barrier start: due restores, forced crashes, crash/stall draws.
        sup.begin_epoch()
        record = None
        if sup.active:
            record = sup.journal.begin(self.epoch_index, self.sim_now_ns)
            record.stalled = set(sup.stalled_this_epoch)
        online = self._connectivity()
        actions = [(vid, action) for vid, action
                   in self.driver.actions(self.epoch_index, self.ids)
                   if not sup.is_dead(vid)]  # the wreck takes no input
        self.host.apply_actions(actions)
        if record is not None:
            record.actions.extend(actions)
        self._deliver_bus(online, record)
        self._dispatch_rollout(online, record)
        self._tick_vehicles()
        self.sim_now_ns += int(self.config.epoch_ticks
                               * self.config.dt_s * 1e9)
        self._publish_transitions()
        self._collect_health()
        self._telemetry_step()
        self._check_invariants(online)
        sup.check_invariants()
        sup.end_epoch()
        self.epoch_index += 1

    def run(self, epochs: int) -> FleetRunResult:
        for _ in range(epochs):
            self.run_epoch()
        return FleetRunResult(epochs_run=self.epoch_index,
                              report=self.report())

    # -- roll-up -----------------------------------------------------------
    def report(self) -> FleetReport:
        rows = self.host.report_rows()
        transitions: Dict[str, List[Tuple[str, str, str, int]]] = {
            vid: list(rows[vid]["transitions"]) for vid in self.ids}
        metrics = aggregate_metrics(rows[vid]["metrics"]
                                    for vid in self.ids)
        return FleetReport(
            seed=self.config.seed,
            n_vehicles=self.config.n_vehicles,
            epochs=self.epoch_index,
            workers=self.config.workers,
            mode=self.config.mode,
            sim_duration_ns=self.sim_now_ns,
            final_situations={vid: str(rows[vid]["situation"])
                              for vid in self.ids},
            transitions=transitions,
            bundle_versions={vid: rows[vid]["bundle_version"]
                             for vid in self.ids},
            apply_logs={vid: list(rows[vid]["apply_log"])
                        for vid in self.ids},
            health={vid: self._last_health[vid] for vid in self.ids},
            counters=metrics["counters"],
            bus_stats=self.bus.stats_dict(),
            bus_tail=[r.to_line() for r in self.bus.tail(200)],
            rollout=self.controller.to_dict(),
            violations=list(self.violations),
            offline_epochs=dict(self.offline_epochs),
            resilience=self.supervisor.summary(),
            gauges=metrics["gauges"],
            histograms=metrics["histograms"],
            telemetry=self.telemetry.summary()
            if self.telemetry is not None else {},
        )
