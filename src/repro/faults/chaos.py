"""The chaos harness: seeded fault scenarios with fail-closed invariants.

``run_chaos(seed, ticks)`` assembles a full IVI world, arms a seeded
:func:`~repro.faults.plan.random_plan` across every fault point, and drives
a seeded scenario — drives, parks, crashes, driver comings and goings, SDS
kill/revive windows, policy reloads — while checking the fail-closed
invariants **every tick** (definitions shared with the static model
checker via :mod:`repro.verify.properties`):

I1  the SSM's current state is always one the policy defines;
I2  SSM accounting holds: every processed event is exactly one of
    transitioned / ignored / failed;
I3  SACKfs counters are monotone and every received write is accounted
    for (accepted, rejected, or a heartbeat);
I4  guarded resources never open up: an unprivileged app's door-control
    attempt is denied in *every* situation state, no matter which faults
    fired;
I5  enforcement follows tracking: the APE's active ruleset (independent
    mode) or the live AppArmor profiles (bridge mode) agree with the
    SSM's current state;
I6  when the failsafe is engaged, the machine actually sits in the
    policy-declared failsafe state;
I7  every committed transition advances the LSM stack's situation epoch.

Everything — fault decisions, scenario actions, event timing — runs on
seeded RNGs and the virtual clock, so one seed replays bit-for-bit:
:meth:`ChaosReport.fingerprint` hashes the transition history, the final
counters, and the audit trail, and must be identical across runs of the
same seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Dict, List, Optional, Tuple

from . import points as fault_points
from ..kernel.errors import KernelError
from ..verify.properties import runtime_checks
from .plan import FaultPlan, random_plan
from .points import InjectedFault

#: Scenario-RNG domain separator (keeps action draws independent of the
#: fault plan's draws for the same seed).
_SCENARIO_SALT = 0xC4A05

#: World builds tried before a boot-time policy-load fault is fatal.
BOOT_ATTEMPTS = 3

@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant breach observed by the harness."""

    tick: int
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"tick {self.tick}: {self.invariant}: {self.detail}"


@dataclasses.dataclass
class ChaosReport:
    """Everything one chaos run produced, ready to compare or render."""

    seed: int
    ticks: int
    mode: str
    final_state: str
    transitions: List[Tuple[str, str, str, int]]
    stats: Dict[str, object]
    fault_report: Dict[str, Dict[str, int]]
    audit_text: str
    violations: List[Violation]
    actions: List[str]
    #: Per-trace (trace_id, root span name, span count) from the span
    #: tracer — fingerprinted, so a tracing regression (missing spans,
    #: nondeterministic IDs) breaks the determinism checks loudly.
    spans: List[Tuple[str, str, int]] = dataclasses.field(
        default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def fingerprint(self) -> str:
        """Deterministic digest of the run (same seed ⇒ same value)."""
        payload = json.dumps({
            "seed": self.seed,
            "ticks": self.ticks,
            "mode": self.mode,
            "final_state": self.final_state,
            "transitions": self.transitions,
            "stats": self.stats,
            "faults": self.fault_report,
            "audit": self.audit_text,
            "spans": self.spans,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "ticks": self.ticks,
            "mode": self.mode,
            "final_state": self.final_state,
            "transitions": len(self.transitions),
            "faults_injected": sum(v["injected"]
                                   for v in self.fault_report.values()),
            "violations": [str(v) for v in self.violations],
            "fingerprint": self.fingerprint(),
            "stats": self.stats,
            "traces": len(self.spans),
        }

    def summary_lines(self) -> List[str]:
        lines = [f"seed {self.seed} mode {self.mode} ticks {self.ticks}: "
                 f"{len(self.transitions)} transitions, "
                 f"{sum(v['injected'] for v in self.fault_report.values())} "
                 f"faults injected, final state {self.final_state}"]
        for point, counts in sorted(self.fault_report.items()):
            if counts["injected"]:
                lines.append(f"  fault {point}: {counts['injected']}/"
                             f"{counts['calls']} calls")
        if self.violations:
            lines.append(f"  INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    {v}" for v in self.violations)
        else:
            lines.append("  all fail-closed invariants held")
        lines.append(f"  fingerprint {self.fingerprint()}")
        return lines


class _InvariantChecker:
    """Per-tick fail-closed checks over one world.

    The check functions themselves live in the shared registry
    (:mod:`repro.verify.properties`) — the same definitions the static
    model checker cross-references — so the runtime and static layers
    can never drift.  This class only binds them to one world and
    timestamps whatever they find.
    """

    def __init__(self, world):
        self.world = world
        #: Cross-tick state for the checks (previous counter snapshot).
        self._ctx: Dict[str, object] = {}
        self._checks = runtime_checks("chaos")
        self.violations: List[Violation] = []

    def check(self, tick: int) -> None:
        for check in self._checks:
            for invariant, detail in check(self.world, self._ctx):
                self.violations.append(Violation(tick, invariant, detail))


def _install_listener_fault(world, plan: FaultPlan) -> None:
    """Arm the generic in-kernel listener fault on the live SSM."""
    module = world.sack or world.bridge
    ssm = module.ssm if module is not None else None
    if ssm is None:
        return
    clock = world.kernel.clock

    def chaos_listener(transition) -> None:
        if plan.should_fail(fault_points.SSM_LISTENER_FAIL, clock.now_ns):
            obs = getattr(world.kernel, "obs", None)
            if obs is not None:
                obs.fault_injected(fault_points.SSM_LISTENER_FAIL)
            raise InjectedFault(fault_points.SSM_LISTENER_FAIL,
                                f"listener refused "
                                f"{transition.to_state!r}")

    ssm.add_listener(chaos_listener)


def run_chaos(seed: int, ticks: int = 200, mode: str = "independent",
              intensity: float = 0.05,
              plan: Optional[FaultPlan] = None) -> ChaosReport:
    """One seeded chaos scenario; returns the full report.

    *mode* selects the enforcement backend: ``independent`` (SACK's own
    LSM + APE) or ``apparmor`` (the SACK-enhanced-AppArmor bridge).
    """
    from ..vehicle.ivi import DEFAULT_SACK_POLICY, build_ivi_world, \
        sack_mode
    config = sack_mode(mode)
    if plan is None:
        plan = random_plan(seed, intensity=intensity)
    scenario = random.Random(seed ^ _SCENARIO_SALT)

    for attempt in range(BOOT_ATTEMPTS):
        try:
            world = build_ivi_world(config, fault_plan=plan)
            break
        except KernelError:
            # An injected fault refused the boot-time policy load; boot
            # again, as an init system would (the plan keeps counting,
            # so the retry draws afresh).
            if attempt == BOOT_ATTEMPTS - 1:
                raise
    # Chaos always runs with span tracing on: span-ID sequences are part
    # of the fingerprint, so a nondeterministic tracer fails loudly here.
    world.kernel.obs.spans.enable()
    _install_listener_fault(world, plan)
    checker = _InvariantChecker(world)
    live_sds = world.sds
    actions: List[str] = []

    def act(name: str) -> None:
        actions.append(name)

    for tick in range(ticks):
        roll = scenario.random()
        dyn = world.dynamics
        if roll < 0.02 and not dyn.crashed:
            dyn.crash()
            act("crash")
        elif roll < 0.04 and dyn.crashed:
            dyn.clear_emergency()
            act("clear_emergency")
        elif roll < 0.08:
            dyn.set_driver_present(not dyn.driver_present)
            act("toggle_driver")
        elif roll < 0.12:
            if dyn.engine_on:
                dyn.accelerate(-4.0) if dyn.is_moving else dyn.stop_engine()
                act("slow_or_stop")
            else:
                dyn.start_engine()
                dyn.accelerate(3.0)
                act("start_and_go")
        elif roll < 0.15:
            # SDS kill/revive window: the channel goes silent.
            if world.sds is None:
                world.sds = live_sds
                act("revive_sds")
            else:
                world.sds = None
                act("kill_sds")
        elif roll < 0.16:
            # Administrative policy reload mid-drive.
            try:
                world.load_policy(DEFAULT_SACK_POLICY)
            except KernelError:
                act("policy_reload_failed")
            else:
                _install_listener_fault(world, plan)
                act("policy_reload")
        else:
            act("cruise")
        world.run_sds(1)
        checker.check(tick)

    module = world.sack or world.bridge
    ssm = module.ssm if module is not None else None
    stats: Dict[str, object] = {}
    if world.sackfs is not None:
        fs = world.sackfs
        stats["sackfs"] = {
            "events_received": fs.events_received,
            "events_accepted": fs.events_accepted,
            "events_rejected": fs.events_rejected,
            "heartbeats_received": fs.heartbeats_received,
        }
        if fs.watchdog is not None:
            stats["watchdog"] = {
                "engagements": fs.watchdog.engagements,
                "engaged": int(fs.watchdog.ssm.failsafe_engaged)}
    if ssm is not None:
        stats["ssm"] = ssm.stats()
    sds = live_sds
    if sds is not None:
        summary = sds.stats.summary()
        # Latencies come from the host's perf counter — keep them out of
        # the (fingerprinted) report.
        stats["sds"] = {k: v for k, v in summary.items()
                        if not k.endswith("latency_us")}

    transitions = []
    if ssm is not None:
        transitions = [(t.event.name, t.from_state, t.to_state, t.at_ns)
                       for t in ssm.history]

    audit_text = ""
    span_summaries: List[Tuple[str, str, int]] = []
    obs = getattr(world.kernel, "obs", None)
    if obs is not None:
        audit_text = obs.audit.to_text()
        span_summaries = obs.spans.span_summaries()

    return ChaosReport(
        seed=seed, ticks=ticks, mode=mode,
        final_state=ssm.current_name if ssm is not None else "",
        transitions=transitions, stats=stats,
        fault_report=plan.report(), audit_text=audit_text,
        violations=checker.violations, actions=actions,
        spans=span_summaries)


def run_soak(seeds, ticks: int = 200, mode: str = "independent",
             intensity: float = 0.05) -> List[ChaosReport]:
    """Run a chaos scenario per seed; returns every report."""
    return [run_chaos(seed, ticks=ticks, mode=mode, intensity=intensity)
            for seed in seeds]
