"""The shared property registry: runtime invariants + static proofs.

Single source of truth for what "safe" means, consumed by two layers:

* the **runtime** side — the chaos harness's per-tick fail-closed checks
  I1–I10 (:data:`RUNTIME_INVARIANTS`; the chaos checker imports its check
  functions from here, so the dynamic layer can never drift from this
  registry);
* the **static** side — the safety properties P1–P5
  (:data:`STATIC_PROPERTIES`) the model checker proves over every
  reachable ``(revision, state)`` node of a
  :class:`~repro.verify.model.PolicyModel`.

Each runtime invariant names its static counterparts (``static_ids``) and
vice versa (``runtime_ids``): I4's per-tick KOFFEE probe is the sampled
shadow of P2's exhaustive proof, I5's consistency check of P5's
equivalence proof, I6 of P3, I5/I7 of P4.  I2/I3 (counter accounting)
and I8–I10 (fleet convergence, quarantine, restore fidelity) are
inherently runtime and have no static analog.

Runtime check functions take ``(world, ctx)`` — ``ctx`` is a small dict
that persists across ticks (monotonicity needs the previous counter
snapshot) — and return ``(invariant_label, detail)`` pairs.  Static check
functions take a model and return
:class:`~repro.verify.counterexample.Counterexample` objects.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from .counterexample import AccessRequest, Counterexample
from .model import PolicyModel

#: Situation events that signal an emergency (P1's trigger set).
EMERGENCY_EVENTS = ("crash_detected",)

#: The KOFFEE attack path (CVE-2020-8539): a compromised infotainment
#: app actuating the door lock directly.
KOFFEE_SUBJECT = "media_app"
KOFFEE_PATH = "/dev/car/door"
KOFFEE_CMD = "DOOR_UNLOCK"

#: The rescue daemon's emergency door actions (the case-study workload).
RESCUE_SUBJECT = "rescue_daemon"
RESCUE_CMDS = ("DOOR_LOCK", "DOOR_UNLOCK")


# ---------------------------------------------------------------------------
# Runtime invariants (the chaos harness's per-tick checks)
# ---------------------------------------------------------------------------

def _ssm_of(world):
    module = world.sack or world.bridge
    return module.ssm if module is not None else None


def _check_state_defined(world, ctx) -> List[Tuple[str, str]]:
    ssm = _ssm_of(world)
    if ssm is None:
        return []
    if ssm.current_name not in {s.name for s in ssm.states}:
        return [("I1:state-defined",
                 f"current state {ssm.current_name!r} not in policy")]
    return []


def _check_ssm_accounting(world, ctx) -> List[Tuple[str, str]]:
    ssm = _ssm_of(world)
    if ssm is None:
        return []
    buckets = (ssm.transition_count + ssm.events_ignored
               + ssm.transitions_failed)
    if ssm.events_processed != buckets:
        return [("I2:ssm-accounting",
                 f"processed={ssm.events_processed} != "
                 f"transitions+ignored+failed={buckets}")]
    return []


def _check_sackfs_counters(world, ctx) -> List[Tuple[str, str]]:
    """I3, both halves in check order: accounting, then monotonicity."""
    failures: List[Tuple[str, str]] = []
    fs = world.sackfs
    if fs is not None:
        accounted = (fs.events_accepted + fs.events_rejected
                     + fs.heartbeats_received)
        if accounted < fs.events_received:
            failures.append(("I3:sackfs-accounting",
                             f"received={fs.events_received} > "
                             f"accepted+rejected+heartbeats={accounted}"))
    ssm = _ssm_of(world)
    counters = {}
    if fs is not None:
        counters.update(received=fs.events_received,
                        accepted=fs.events_accepted,
                        rejected=fs.events_rejected,
                        heartbeats=fs.heartbeats_received)
    if ssm is not None:
        counters.update(processed=ssm.events_processed,
                        transitions=ssm.transition_count,
                        ignored=ssm.events_ignored,
                        failed=ssm.transitions_failed,
                        rollbacks=ssm.rollback_count)
    last = ctx.setdefault("last_counters", {})
    for name, value in counters.items():
        prev = last.get(name)
        # Counters reset on policy reload (a new SSM); only flag
        # decreases for counters that cannot legitimately reset.
        if prev is not None and value < prev and name in (
                "received", "accepted", "rejected", "heartbeats"):
            failures.append(("I3:monotone",
                             f"counter {name} went {prev} -> {value}"))
    ctx["last_counters"] = counters
    return failures


def _check_fail_closed_access(world, ctx) -> List[Tuple[str, str]]:
    """I4: media_app can never actuate the door, whatever just broke."""
    from ..kernel.errors import KernelError
    from ..vehicle.devices import DOOR_UNLOCK
    try:
        world.device_ioctl("media_app", "door", DOOR_UNLOCK, 0)
    except KernelError:
        return []
    return [("I4:fail-closed",
             f"media_app unlocked the door in state "
             f"{world.situation!r}")]


def _check_enforcement_agrees(world, ctx) -> List[Tuple[str, str]]:
    ssm = _ssm_of(world)
    if ssm is None:
        return []
    failures: List[Tuple[str, str]] = []
    if world.sack is not None:
        ape = world.sack.ape
        if ape is not None and ape.current_state != ssm.current_name:
            failures.append(("I5:ape-agrees",
                             f"APE enforces {ape.current_state!r} but SSM "
                             f"is in {ssm.current_name!r}"))
    if world.bridge is not None:
        failures.extend(("I5:bridge-agrees", problem)
                        for problem in world.bridge.verify_consistency())
    return failures


def _check_failsafe_state(world, ctx) -> List[Tuple[str, str]]:
    ssm = _ssm_of(world)
    if ssm is None or not ssm.failsafe_engaged:
        return []
    expected = ssm.failsafe_state or ssm.current_name
    if ssm.current_name != expected:
        return [("I6:failsafe-state",
                 f"failsafe engaged but state is "
                 f"{ssm.current_name!r}, not {expected!r}")]
    return []


def _check_epoch_advances(world, ctx) -> List[Tuple[str, str]]:
    """I7: every committed transition advances the situation epoch.

    Transitions, rollbacks and failsafe settles all reach the SSM's
    listeners, and the epoch bump rides the last of them.  If the SSM
    (the same machine as at the previous check) committed more
    transitions since then than the epoch advanced, a situation change
    escaped the epoch, and with it every consumer that keys on it.
    """
    framework = getattr(world, "framework", None)
    ssm = _ssm_of(world)
    if framework is None or ssm is None:
        return []
    failures: List[Tuple[str, str]] = []
    mark = ctx.get("epoch_mark")
    if mark is not None and mark[0] is ssm:
        moved = ssm.transition_count - mark[1]
        bumped = framework.epoch - mark[2]
        if moved > bumped:
            failures.append(("I7:epoch-advances",
                             f"{moved} transition(s) committed but "
                             f"the epoch advanced {bumped}"))
    ctx["epoch_mark"] = (ssm, ssm.transition_count, framework.epoch)
    return failures


@dataclasses.dataclass(frozen=True)
class RuntimeInvariant:
    """One runtime invariant: identity, prose, and (optionally) its check.

    ``check`` is ``(world, ctx) -> [(label, detail), ...]``; invariants
    enforced elsewhere than the per-tick chaos loop (fleet convergence,
    supervisor quarantine/restore) carry ``check=None`` and exist here
    for the registry's cross-reference and documentation value.
    """

    inv_id: str
    label: str
    title: str
    summary: str
    location: str                       # "chaos" | "fleet" | "supervisor"
    static_ids: Tuple[str, ...] = ()
    check: Optional[Callable] = None


RUNTIME_INVARIANTS: Tuple[RuntimeInvariant, ...] = (
    RuntimeInvariant(
        "I1", "I1:state-defined", "State always defined",
        "The SSM's current state is always one the policy defines.",
        "chaos", static_ids=(), check=_check_state_defined),
    RuntimeInvariant(
        "I2", "I2:ssm-accounting", "SSM event accounting",
        "Every processed event is exactly one of transitioned / ignored "
        "/ failed.", "chaos", static_ids=(), check=_check_ssm_accounting),
    RuntimeInvariant(
        "I3", "I3:sackfs-accounting", "SACKfs counter discipline",
        "SACKfs counters are monotone and every received write is "
        "accounted for (accepted, rejected, or a heartbeat).",
        "chaos", static_ids=(), check=_check_sackfs_counters),
    RuntimeInvariant(
        "I4", "I4:fail-closed", "Guarded resources never open up",
        "An unprivileged app's door-control attempt is denied in every "
        "situation state, no matter which faults fired.",
        "chaos", static_ids=("P2:koffee-unreachable",),
        check=_check_fail_closed_access),
    RuntimeInvariant(
        "I5", "I5:ape-agrees", "Enforcement follows tracking",
        "The APE's active ruleset (independent mode) or the live "
        "AppArmor profiles (bridge mode) agree with the SSM's current "
        "state.", "chaos",
        static_ids=("P4:cache-coherence", "P5:bridge-equivalence"),
        check=_check_enforcement_agrees),
    RuntimeInvariant(
        "I6", "I6:failsafe-state", "Failsafe means failsafe",
        "When the failsafe is engaged, the machine actually sits in the "
        "policy-declared failsafe state.",
        "chaos", static_ids=("P3:failsafe-reachable",),
        check=_check_failsafe_state),
    RuntimeInvariant(
        "I7", "I7:epoch-advances", "Transitions advance the epoch",
        "Every committed transition (rollbacks and failsafe settles "
        "included) advances the LSM stack's situation epoch.",
        "chaos", static_ids=("P4:cache-coherence",),
        check=_check_epoch_advances),
    RuntimeInvariant(
        "I8", "I8:fleet-convergence", "Fleet convergence",
        "After a completed rollout every healthy vehicle runs the "
        "staged bundle version.", "fleet", static_ids=()),
    RuntimeInvariant(
        "I9", "I9:quarantine-frozen", "Quarantine freezes state",
        "A quarantined vehicle takes no further bundles or events until "
        "released.", "supervisor", static_ids=()),
    RuntimeInvariant(
        "I10", "I10:restore-fidelity", "Restore fidelity",
        "A vehicle restored from a checkpoint replays to exactly the "
        "checkpointed situation state and counters.",
        "supervisor", static_ids=()),
)

_RUNTIME_BY_ID: Dict[str, RuntimeInvariant] = {
    inv.inv_id: inv for inv in RUNTIME_INVARIANTS}


def runtime_invariant(inv_id: str) -> RuntimeInvariant:
    """Look up one invariant by id (``"I4"``) or label prefix."""
    inv = _RUNTIME_BY_ID.get(inv_id)
    if inv is None:
        inv = _RUNTIME_BY_ID.get(inv_id.split(":", 1)[0])
    if inv is None:
        raise KeyError(f"unknown runtime invariant {inv_id!r}")
    return inv


def runtime_checks(location: str = "chaos") -> List[Callable]:
    """The ordered per-tick check functions enforced at *location*.

    Order matters and is part of the contract: I4 probes the door
    through the real kernel (audit records, denial counters), so the
    chaos fingerprints depend on these running in registry order.
    """
    return [inv.check for inv in RUNTIME_INVARIANTS
            if inv.location == location and inv.check is not None]


# ---------------------------------------------------------------------------
# Static safety properties (the model checker's proof obligations)
# ---------------------------------------------------------------------------

def _p1_rescue_never_denied(model: PolicyModel) -> List[Counterexample]:
    from ..sack.policy.model import RuleOp
    violations: List[Counterexample] = []
    for rev_id in model.rev_order:
        emergency = model.emergency_states(rev_id, EMERGENCY_EVENTS)
        for node in model.nodes_of(rev_id):
            if node.state not in emergency:
                continue
            for name in RESCUE_CMDS:
                cmd = model.ioctl_cmds.get(name)
                if cmd is None:
                    continue
                if model.decision(node, RESCUE_SUBJECT, KOFFEE_PATH,
                                  RuleOp.IOCTL, cmd):
                    continue
                violations.append(model.counterexample(
                    "P1:rescue-never-denied", node,
                    expected="allow", actual="deny",
                    detail=f"rescue daemon denied {name} on the door in "
                           f"emergency state {node.state!r}",
                    request=AccessRequest(
                        RESCUE_SUBJECT, KOFFEE_PATH, RuleOp.IOCTL.value,
                        cmd=cmd, cmd_name=name)))
    return violations


def _p2_koffee_unreachable(model: PolicyModel) -> List[Counterexample]:
    from ..sack.policy.model import RuleOp
    violations: List[Counterexample] = []
    cmd = model.ioctl_cmds.get(KOFFEE_CMD)
    if cmd is None:
        return violations
    for node in model.nodes:
        if not model.decision(node, KOFFEE_SUBJECT, KOFFEE_PATH,
                              RuleOp.IOCTL, cmd):
            continue
        if model.ruleset(node).governs(KOFFEE_PATH):
            why = "an allow rule grants the attack path"
        else:
            why = ("the door node is outside every guard — ungoverned "
                   "paths are allowed by design, so guard it")
        violations.append(model.counterexample(
            "P2:koffee-unreachable", node,
            expected="deny", actual="allow",
            detail=f"media_app can issue DOOR_UNLOCK in state "
                   f"{node.state!r}: {why}",
            request=AccessRequest(
                KOFFEE_SUBJECT, KOFFEE_PATH, RuleOp.IOCTL.value,
                cmd=cmd, cmd_name=KOFFEE_CMD)))
    return violations


def _p3_failsafe_reachable(model: PolicyModel) -> List[Counterexample]:
    from .counterexample import STEP_FAILSAFE
    violations: List[Counterexample] = []
    for rev_id in model.rev_order:
        rev = model.revisions[rev_id]
        policy = rev.policy
        entry = next(iter(model.nodes_of(rev_id)))
        if policy.failsafe is None:
            violations.append(model.counterexample(
                "P3:failsafe-reachable", entry,
                expected="failsafe declared", actual="none",
                detail=f"policy {policy.name!r} declares no failsafe "
                       f"state (add 'failsafe <state> after <ms>ms;')"))
            continue
        if policy.failsafe not in {s.name for s in policy.states}:
            violations.append(model.counterexample(
                "P3:failsafe-reachable", entry,
                expected="failsafe defined", actual="undefined",
                detail=f"failsafe state {policy.failsafe!r} is not a "
                       f"defined state"))
            continue
        deadline = policy.failsafe_deadline_ms
        if deadline is None or deadline <= 0:
            violations.append(model.counterexample(
                "P3:failsafe-reachable", entry,
                expected="bounded staleness", actual="unbounded",
                detail=f"failsafe {policy.failsafe!r} has no positive "
                       f"staleness bound (declare 'after <ms>ms')"))
            continue
        for node in model.nodes_of(rev_id):
            if node.state == policy.failsafe:
                continue
            if any(e.kind == STEP_FAILSAFE
                   for e in model.edges.get(node, ())):
                continue
            violations.append(model.counterexample(
                "P3:failsafe-reachable", node,
                expected="failsafe edge", actual="missing",
                detail=f"no degradation edge from {node.state!r} to the "
                       f"failsafe state {policy.failsafe!r}"))
    return violations


def _p4_cache_coherence(model: PolicyModel) -> List[Counterexample]:
    """The APE, driven into each node's state through its SSM, enforces
    exactly the model's ruleset: ``MR_current = g(f(SS_current))``.

    The model decides with a compiled ruleset object, so identity with
    it is the whole proof; comparing that object's decisions with its
    own could never fail.
    """
    from ..sack.ape import AdaptivePolicyEnforcer
    violations: List[Counterexample] = []
    for rev_id in model.rev_order:
        rev = model.revisions[rev_id]
        ssm = rev.policy.build_ssm()
        ape = AdaptivePolicyEnforcer(rev.compiled, ssm)
        for node in model.nodes_of(rev_id):
            if ssm.current_name != node.state:
                ssm.force_state(node.state)
            if ape.current_state != node.state:
                violations.append(model.counterexample(
                    "P4:cache-coherence", node,
                    expected=node.state, actual=ape.current_state,
                    detail=f"the APE did not follow its SSM into "
                           f"{node.state!r}"))
            elif ape.current_ruleset is not model.ruleset(node):
                violations.append(model.counterexample(
                    "P4:cache-coherence", node,
                    expected=f"{rev_id}'s compiled ruleset",
                    actual="a ruleset from another compile",
                    detail=f"the APE enforces a {node.state!r} ruleset "
                           f"that is not the one {rev_id} compiled"))
    return violations


def _p5_bridge_equivalence(model: PolicyModel) -> List[Counterexample]:
    from ..apparmor.globs import glob_match
    from ..apparmor.profile import FilePerm, Profile
    from ..kernel.devices import ioctl_is_write
    from ..sack.apparmor_bridge import mac_rule_to_path_rule
    from ..sack.policy.model import RuleOp
    violations: List[Counterexample] = []
    read_cmds = [(name, num) for name, num in model.ioctl_cmds.items()
                 if not ioctl_is_write(num)]
    write_cmds = [(name, num) for name, num in model.ioctl_cmds.items()
                  if ioctl_is_write(num)]
    # The bridge's fidelity level: AppArmor file rules cannot filter
    # individual ioctl commands, only the _IOC direction.  Equivalence is
    # therefore checked per permission *class*: the bridge grants a class
    # iff independent SACK grants at least one of its members.
    classes = (
        ("read", FilePerm.READ,
         [(RuleOp.READ, None, None)]
         + [(RuleOp.IOCTL, name, num) for name, num in read_cmds]),
        ("write", FilePerm.WRITE,
         [(RuleOp.WRITE, None, None), (RuleOp.CREATE, None, None),
          (RuleOp.UNLINK, None, None)]
         + [(RuleOp.IOCTL, name, num) for name, num in write_cmds]),
        ("exec", FilePerm.EXEC, [(RuleOp.EXEC, None, None)]),
        ("mmap", FilePerm.MMAP, [(RuleOp.MMAP, None, None)]),
    )
    for node in model.nodes:
        rev = model.revisions[node.revision]
        rules = rev.policy.rules_for_state(node.state)
        ruleset = model.ruleset(node)
        for subject in model.subjects:
            profile = Profile(subject)
            for rule in rules:
                if rule.subject is None \
                        or glob_match(rule.subject, subject):
                    profile.add_rule(
                        mac_rule_to_path_rule(rule, model.ioctl_symbols))
            for path in model.objects:
                if not ruleset.governs(path):
                    # The bridge only rewrites what SACK governs; base
                    # profile content is out of scope here.
                    continue
                for label, perm, members in classes:
                    decisions = [
                        (op, name, num,
                         model.decision(node, subject, path, op, num))
                        for op, name, num in members]
                    indep = any(d[3] for d in decisions)
                    bridged = bool(profile.effective_perms(path) & perm)
                    if indep == bridged:
                        continue
                    witness = next((d for d in decisions if d[3]),
                                   decisions[0])
                    op, name, num, _ = witness
                    violations.append(model.counterexample(
                        "P5:bridge-equivalence", node,
                        expected=f"both {'allow' if indep else 'deny'}",
                        actual=f"independent="
                               f"{'allow' if indep else 'deny'}, "
                               f"bridge={'allow' if bridged else 'deny'}",
                        detail=f"{label}-class access for {subject!r} at "
                               f"{path} diverges between independent "
                               f"SACK and the AppArmor bridge in state "
                               f"{node.state!r}",
                        request=AccessRequest(subject, path, op.value,
                                              cmd=num, cmd_name=name)))
    return violations


@dataclasses.dataclass(frozen=True)
class StaticProperty:
    """One proof obligation over the full reachable model."""

    prop_id: str
    title: str
    summary: str
    runtime_ids: Tuple[str, ...]
    check: Callable  # (PolicyModel) -> List[Counterexample]


STATIC_PROPERTIES: Tuple[StaticProperty, ...] = (
    StaticProperty(
        "P1:rescue-never-denied", "Rescue daemon never denied",
        "In every reachable emergency state (crash-entered or failsafe), "
        "the rescue daemon may lock and unlock the doors.",
        runtime_ids=(), check=_p1_rescue_never_denied),
    StaticProperty(
        "P2:koffee-unreachable", "KOFFEE attack path unreachable",
        "No reachable (revision, state) node lets media_app issue "
        "DOOR_UNLOCK on /dev/car/door.",
        runtime_ids=("I4",), check=_p2_koffee_unreachable),
    StaticProperty(
        "P3:failsafe-reachable", "Failsafe reachable from everywhere",
        "A failsafe state with a positive staleness bound is declared "
        "and reachable from every reachable state via the degradation "
        "edge.", runtime_ids=("I6",), check=_p3_failsafe_reachable),
    StaticProperty(
        "P4:cache-coherence", "Enforced ruleset follows the state",
        "Driven into every reachable state through its SSM, the APE "
        "follows it and enforces the very ruleset the model decides "
        "with (its revision's compiled ruleset for that state): the "
        "per-state ruleset swap is coherent with the situation.",
        runtime_ids=("I5", "I7"), check=_p4_cache_coherence),
    StaticProperty(
        "P5:bridge-equivalence", "Bridge equivalent to independent SACK",
        "Independent SACK and SACK-enhanced AppArmor produce equivalent "
        "decisions everywhere, at the bridge's documented fidelity "
        "(per permission class; AppArmor cannot filter single ioctl "
        "commands).", runtime_ids=("I5",), check=_p5_bridge_equivalence),
)

_STATIC_BY_ID: Dict[str, StaticProperty] = {
    p.prop_id: p for p in STATIC_PROPERTIES}
_STATIC_BY_SHORT: Dict[str, StaticProperty] = {
    p.prop_id.split(":", 1)[0]: p for p in STATIC_PROPERTIES}


def static_properties() -> List[StaticProperty]:
    """All registered static properties, in registry (proof) order."""
    return list(STATIC_PROPERTIES)


def static_property(prop_id: str) -> StaticProperty:
    """Look up one property by full id or short id (``"P2"``)."""
    prop = _STATIC_BY_ID.get(prop_id) or _STATIC_BY_SHORT.get(prop_id)
    if prop is None:
        raise KeyError(f"unknown static property {prop_id!r}")
    return prop
