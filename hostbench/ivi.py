"""Single-vehicle workloads: ``ivi-steady`` and ``situation-churn``.

Both drive one IVI world (:func:`repro.vehicle.ivi.build_ivi_world`) from
one closed-loop client: an app issues an access, waits for the verdict,
and only then issues the next.  An *access* is ``open`` -> ``read``,
``write`` or ``ioctl`` -> ``close``; a denial anywhere ends it with the
expected ``EACCES``/``EPERM``.

Every scheduled access carries a verdict computed before timing starts by
:class:`VerdictOracle`, from a separately parsed copy of the policy and
profiles, never from the world being measured.
"""

from __future__ import annotations

import random
import time
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apparmor import FilePerm, glob_match, parse_profiles
from repro.kernel import Errno, KernelError, OpenFlags
from repro.kernel.devices import ioctl_is_write
from repro.sack import mac_rule_to_path_rule
from repro.sack.policy import RuleOp, compile_policy, parse_policy
from repro.vehicle.devices import (DOOR_LOCK, DOOR_UNLOCK, ENGINE_START,
                                   ENGINE_STOP, IOCTL_SYMBOLS, VOLUME_GET,
                                   VOLUME_SET, WINDOW_SET)
from repro.vehicle.ivi import (DEFAULT_SACK_POLICY, IVI_APPARMOR_PROFILES,
                               EnforcementConfig, build_ivi_world)

# Actions performed between open and close.
READ, WRITE, IOCTL = 0, 1, 2

#: errnos that mean "the security stack refused" (an expected denial).
DENIED = (Errno.EACCES, Errno.EPERM)

#: The six IVI tasks, in the order schedules index them.
TASKS = ("media_app", "nav_app", "volume_service", "ignition_service",
         "rescue_daemon", "sds")
MEDIA_APP, NAV_APP, VOLUME_SERVICE, IGNITION, RESCUE, SDS = range(6)

#: Device nodes whose drivers implement ``read``.
READABLE_DEVICES = ("door", "window", "audio", "speedometer")

INITIAL_STATE = "parking_with_driver"

#: Capacity of the LSM framework's AVC in the shipped configuration.
AVC_CAPACITY = 8192

Access = Tuple[int, str, int, int, int, object, bool]
"""``(task, path, open flags, action, ioctl cmd, arg, expect_allowed)``;
*arg* is the written bytes or the ioctl argument."""


def media_paths(albums: int, tracks: int) -> List[str]:
    return [f"/var/media/a{a:03d}/t{t:03d}.ogg"
            for a in range(albums) for t in range(tracks)]


def populate_media(world, paths: Sequence[str]) -> None:
    """Create the media tree (world-writable, outside SACK's guard)."""
    vfs = world.kernel.vfs
    for directory in sorted({p.rsplit("/", 1)[0] for p in paths}):
        vfs.makedirs(directory)
    for path in paths:
        vfs.create_file(path, mode=0o666)


def do_access(kernel, task, path: str, flags: int, action: int, cmd: int,
              arg) -> bool:
    """One access; True when allowed, False when the stack denied it.

    Any other failure raises: it is a broken operation, not a verdict.
    """
    try:
        fd = kernel.sys_open(task, path, flags)
    except KernelError as exc:
        if exc.errno in DENIED:
            return False
        raise
    try:
        if action == READ:
            kernel.sys_read(task, fd, 64)
        elif action == WRITE:
            kernel.sys_write(task, fd, arg)
        else:
            kernel.sys_ioctl(task, fd, cmd, arg)
    except KernelError as exc:
        if exc.errno in DENIED:
            return False
        raise
    finally:
        kernel.sys_close(task, fd)
    return True


class VerdictOracle:
    """Expected verdicts from the policy's compiled per-state rulesets.

    Independent SACK decides from ``compile_policy(...).ruleset_for(state)``
    directly.  SACK-enhanced AppArmor decides from the AppArmor profiles
    with the state's rules translated in, so the oracle parses its own
    copy of the profiles and adds the translated rules of the state's
    compiled ruleset.
    """

    def __init__(self, config: EnforcementConfig,
                 policy_text: str = DEFAULT_SACK_POLICY,
                 profiles_text: str = IVI_APPARMOR_PROFILES):
        self.config = config
        self.policy = parse_policy(policy_text)
        self.compiled = compile_policy(self.policy,
                                       ioctl_symbols=IOCTL_SYMBOLS)
        self._static = {p.name: p for p in parse_profiles(profiles_text)}
        self._profiles: Dict[Tuple[str, str], object] = {}

    def _profile(self, task: str, state: str):
        key = (task, state)
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._static[task].clone()
            if task in self.policy.targets:
                ruleset = self.compiled.ruleset_for(state)
                seen = set()
                for table in (ruleset.allow_by_op, ruleset.deny_by_op):
                    for rules in table.values():
                        for rule in rules:
                            source = rule.source
                            if id(source) in seen:
                                continue
                            seen.add(id(source))
                            if (source.subject is None
                                    or glob_match(source.subject, task)):
                                profile.add_rule(mac_rule_to_path_rule(
                                    source, IOCTL_SYMBOLS))
            self._profiles[key] = profile
        return profile

    def allows(self, state: str, task: str, path: str, flags: int,
               action: int, cmd: int = 0) -> bool:
        writes_on_open = bool(flags & (OpenFlags.O_WRONLY | OpenFlags.O_RDWR))
        if action == IOCTL:
            action_writes = ioctl_is_write(cmd)
        else:
            action_writes = action == WRITE
        if self.config is EnforcementConfig.SACK_INDEPENDENT:
            ruleset = self.compiled.ruleset_for(state)
            open_op = RuleOp.WRITE if writes_on_open else RuleOp.READ
            if not ruleset.check(open_op, path, task):
                return False
            if action == IOCTL:
                return ruleset.check(RuleOp.IOCTL, path, task, cmd)
            return ruleset.check(RuleOp.WRITE if action_writes
                                 else RuleOp.READ, path, task)
        profile = self._profile(task, state)
        open_perm = FilePerm.WRITE if writes_on_open else FilePerm.READ
        action_perm = FilePerm.WRITE if action_writes else FilePerm.READ
        return (profile.allows_file(path, open_perm)
                and profile.allows_file(path, action_perm))

    def access(self, state: str, task: int, path: str, flags: int,
               action: int, cmd: int = 0, arg=0) -> Access:
        """A schedule entry with its expected verdict filled in."""
        allowed = self.allows(state, TASKS[task], path, flags, action, cmd)
        return (task, path, int(flags), action, cmd, arg, allowed)


class Failures:
    """Failed-operation count plus the first few descriptions."""

    def __init__(self, keep: int = 5):
        self.count = 0
        self.keep = keep
        self.examples: List[str] = []

    def add(self, detail: str) -> None:
        self.count += 1
        if len(self.examples) < self.keep:
            self.examples.append(detail)


def check_verdict(failures: Failures, access: Access, outcome,
                  where: str) -> None:
    """Record a failure when *outcome* (True/False/exception) is wrong."""
    if isinstance(outcome, BaseException):
        failures.add(f"{where}: {TASKS[access[0]]} {access[1]}: "
                     f"{type(outcome).__name__}: {outcome}")
    elif outcome is not access[6]:
        failures.add(f"{where}: {TASKS[access[0]]} {access[1]} "
                     f"action={access[3]} cmd={access[4]:#x}: "
                     f"{'allowed' if outcome else 'denied'}, expected "
                     f"{'allowed' if access[6] else 'denied'}")


def _stack_counters(framework) -> Dict[str, int]:
    core = framework.avc.core
    return {"avc_hits": core.hits, "avc_misses": core.misses,
            "epoch_bumps": core.epoch_bumps,
            "dtable_hits": framework.dtable.hits}


# -- ivi-steady ------------------------------------------------------------------------

STEADY_WHY = (
    "One SACK-enhanced-AppArmor IVI world (the Table II configuration) "
    "whose situation never leaves parking_with_driver.  The kernel "
    "syscall path, the LSM bitmap and AVC fast path, and the AppArmor "
    "walk on misses and denials do almost all the work; the SSM, SDS, "
    "SACKfs and bridge reload do none.")

#: Media tree: more (task, path) pairs than the AVC holds.
STEADY_ALBUMS, STEADY_TRACKS = 240, 100
#: Zipf exponent of media popularity.
STEADY_ZIPF = 0.6
#: Accesses in one unit: the sequence every replay issues.
STEADY_UNIT = 20_000

#: (kind, share of accesses)
STEADY_MIX = (("media_read", 0.50), ("media_write", 0.15),
              ("media_foreign", 0.05), ("dev_read", 0.14),
              ("dev_ioctl", 0.13), ("dev_write", 0.03))

STEADY_IOCTLS = (
    (MEDIA_APP, "audio", VOLUME_GET), (MEDIA_APP, "audio", VOLUME_SET),
    (VOLUME_SERVICE, "audio", VOLUME_SET),
    (VOLUME_SERVICE, "audio", VOLUME_GET), (NAV_APP, "audio", VOLUME_GET),
    (RESCUE, "door", DOOR_UNLOCK), (RESCUE, "window", WINDOW_SET),
    (IGNITION, "engine", ENGINE_START), (IGNITION, "engine", ENGINE_STOP),
    (MEDIA_APP, "door", DOOR_LOCK),
)

STEADY_DOOR_WRITES = ((RESCUE, b"lock"), (MEDIA_APP, b"unlock"),
                      (NAV_APP, b"lock"))


class SteadySchedule:
    def __init__(self, seed: int, entries: List[Access], media: List[str]):
        self.seed = seed
        self.entries = entries
        self.media = media

    @property
    def distinct_pairs(self) -> int:
        return len({(e[0], e[1]) for e in self.entries})


def steady_schedule(seed: int, length: int = STEADY_UNIT
                    ) -> SteadySchedule:
    """The seeded access sequence for ``ivi-steady``."""
    rng = random.Random(seed)
    oracle = VerdictOracle(EnforcementConfig.SACK_APPARMOR)
    media = media_paths(STEADY_ALBUMS, STEADY_TRACKS)
    by_rank = list(media)
    rng.shuffle(by_rank)
    cum, total = [], 0.0
    for rank in range(len(by_rank)):
        total += 1.0 / (rank + 1) ** STEADY_ZIPF
        cum.append(total)
    picks = rng.choices(by_rank, cum_weights=cum, k=length)
    kinds = rng.choices([kind for kind, _share in STEADY_MIX],
                        weights=[share for _kind, share in STEADY_MIX],
                        k=length)

    def entry(task, path, flags, action, cmd=0, arg=0) -> Access:
        return oracle.access(INITIAL_STATE, task, path, flags, action, cmd,
                             arg)

    entries: List[Access] = []
    for i, kind in enumerate(kinds):
        if kind == "media_read":
            entries.append(entry(MEDIA_APP, picks[i], OpenFlags.O_RDONLY,
                                 READ))
        elif kind == "media_write":
            entries.append(entry(MEDIA_APP, picks[i], OpenFlags.O_WRONLY,
                                 WRITE, arg=b"frame-%04d" % (i % 10000)))
        elif kind == "media_foreign":
            task = rng.choice((NAV_APP, VOLUME_SERVICE, IGNITION, RESCUE,
                               SDS))
            entries.append(entry(task, picks[i], OpenFlags.O_RDONLY, READ))
        elif kind == "dev_read":
            entries.append(entry(
                rng.randrange(len(TASKS)),
                f"/dev/car/{rng.choice(READABLE_DEVICES)}",
                OpenFlags.O_RDONLY, READ))
        elif kind == "dev_ioctl":
            task, device, cmd = rng.choice(STEADY_IOCTLS)
            arg = rng.randrange(101) if cmd in (VOLUME_SET,
                                                WINDOW_SET) else 0
            entries.append(entry(task, f"/dev/car/{device}",
                                 OpenFlags.O_RDONLY, IOCTL, cmd, arg))
        else:
            task, data = rng.choice(STEADY_DOOR_WRITES)
            entries.append(entry(task, "/dev/car/door", OpenFlags.O_WRONLY,
                                 WRITE, arg=data))
    return SteadySchedule(seed, entries, media)


class IviEnv:
    """A booted world plus the handles the client loop needs."""

    def __init__(self, world):
        self.world = world
        self.kernel = world.kernel
        self.tasks = [world.tasks[name] for name in TASKS]
        self.module = world.sack or world.bridge

    @property
    def ssm(self):
        return self.module.ssm


def steady_setup(schedule: SteadySchedule) -> IviEnv:
    world = build_ivi_world(EnforcementConfig.SACK_APPARMOR)
    populate_media(world, schedule.media)
    return IviEnv(world)


class UnitResult:
    """What one replay of a workload's unit of work measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failures = Failures()
        #: Throughput work done: accesses, or vehicle ticks.
        self.work = 0
        #: Per-operation host ns, in operation order.
        self.samples: Dict[str, array] = {}
        #: Program counters; identical in every replay of one schedule.
        self.counters: Dict[str, int] = {}
        self.properties: Dict[str, Optional[float]] = {}
        #: Set-up times measured inside the unit (fleet rounds).
        self.setup_ns: List[int] = []


def _time_accesses(env: IviEnv, entries: Sequence[Access], ctx,
                   samples: array, failures: Failures, op_base: int) -> int:
    """Issue *entries* one after another; returns the denials seen."""
    kernel = env.kernel
    tasks = env.tasks
    clock = time.perf_counter_ns
    denied = 0
    for k, access in enumerate(entries):
        task, path, flags, action, cmd, arg, expect = access
        ctx.op = op_base + k
        t0 = clock()
        try:
            outcome = do_access(kernel, tasks[task], path, flags, action,
                                cmd, arg)
        except Exception as exc:  # a broken operation: count it, go on
            outcome = exc
        samples.append(clock() - t0)
        if outcome is not expect:
            check_verdict(failures, access, outcome, "access")
        if outcome is False:
            denied += 1
    return denied


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def steady_unit(env: IviEnv, schedule: SteadySchedule, ctx,
                limit: Optional[int] = None) -> UnitResult:
    """Issue the scheduled accesses (the first *limit* of them)."""
    result = UnitResult()
    samples = array("q")
    entries = schedule.entries[:limit]
    transitions0 = env.ssm.transition_count
    denied = _time_accesses(env, entries, ctx, samples, result.failures, 0)
    result.work = len(entries)
    result.attempted = len(entries) + 1
    result.samples["access"] = samples
    # The unit-level check: the situation never moved.
    if (env.ssm.transition_count != transitions0
            or env.ssm.current_name != INITIAL_STATE):
        result.failures.add(
            f"situation moved: {env.ssm.transition_count - transitions0} "
            f"transition(s), now {env.ssm.current_name}")
    counters = _stack_counters(env.world.framework)
    counters["syscalls"] = sum(env.kernel.syscall_counts.values())
    counters["transitions"] = env.ssm.transition_count - transitions0
    result.counters = counters
    result.properties = {
        "denial_share": denied / len(entries),
        "avc_hit_ratio": _ratio(counters["avc_hits"],
                                counters["avc_hits"]
                                + counters["avc_misses"]),
        "pairs_per_avc_slot": schedule.distinct_pairs / AVC_CAPACITY,
        "accesses_per_transition": None,
        "transitions_per_epoch": None,
    }
    return result


# -- situation-churn ---------------------------------------------------------------

CHURN_WHY = (
    "One independent-SACK IVI world with its SDS (the Fig. 3(b) and E5 "
    "configuration) whose seeded dynamics changes visit all four Fig. 2 "
    "states.  Every cycle runs sensors, detectors, the SACKfs write, the "
    "SSM transition, the APE swap and an AVC epoch bump, and every burst "
    "starts on a cold AVC: the write side of the layers ivi-steady reads.")

CHURN_ALBUMS, CHURN_TRACKS = 8, 32
#: Situation changes in one unit, rounded up to whole excursion blocks.
CHURN_CYCLES = 1200
#: Ordinary accesses after each probe.
CHURN_BURST = 8
#: SDS polls allowed before a change counts as not landed.
CHURN_MAX_POLLS = 8

#: change -> state it must land in.
CHANGE_TARGET = {
    "start": "driving",
    "park": INITIAL_STATE,
    "driver_leaves": "parking_without_driver",
    "driver_returns": INITIAL_STATE,
    "crash": "emergency",
    "clear": INITIAL_STATE,
}

#: Excursions from parking_with_driver and back, with how many of each a
#: block holds.  Every seed shuffles the same blocks, so the mix of
#: changes (and with it the cost of a cycle) does not depend on the seed.
#: A crash only happens with the driver aboard: clearing it returns to
#: parking_with_driver, which must match who is in the seat.
CHURN_EXCURSIONS = (
    (("start", "park"), 4),
    (("start", "crash", "clear"), 1),
    (("driver_leaves", "driver_returns"), 3),
    (("crash", "clear"), 2),
)

#: state -> the probe whose verdict entering that state flips.
CHURN_PROBES = {
    "emergency": (RESCUE, "door", DOOR_UNLOCK),
    "driving": (VOLUME_SERVICE, "audio", VOLUME_SET),
    INITIAL_STATE: (VOLUME_SERVICE, "audio", VOLUME_SET),
    "parking_without_driver": (VOLUME_SERVICE, "audio", VOLUME_SET),
}

CHURN_BURST_IOCTLS = (
    (MEDIA_APP, "audio", VOLUME_GET), (MEDIA_APP, "audio", VOLUME_SET),
    (VOLUME_SERVICE, "audio", VOLUME_SET),
    (VOLUME_SERVICE, "audio", VOLUME_GET), (NAV_APP, "audio", VOLUME_GET),
    (RESCUE, "door", DOOR_LOCK), (RESCUE, "window", WINDOW_SET),
    (MEDIA_APP, "door", DOOR_UNLOCK),
)


def apply_change(dynamics, change: str) -> None:
    """Move the vehicle's physical state; the SDS has to notice."""
    if change == "start":
        dynamics.start_engine()
        dynamics.accelerate(3.0)
    elif change == "park":
        dynamics.stop_engine()
        dynamics.accelerate(-4.0)
    elif change == "driver_leaves":
        dynamics.set_driver_present(False)
    elif change == "driver_returns":
        dynamics.set_driver_present(True)
    elif change == "crash":
        dynamics.crash()
    elif change == "clear":
        dynamics.clear_emergency()
    else:
        raise ValueError(f"unknown change {change!r}")


class ChurnSchedule:
    def __init__(self, seed: int, cycles: list, media: List[str]):
        self.seed = seed
        #: ``(change, target state, probe access, burst accesses)``
        self.cycles = cycles
        self.media = media

    @property
    def distinct_pairs(self) -> int:
        pairs = set()
        for _change, _state, probe, burst in self.cycles:
            pairs.add((probe[0], probe[1]))
            pairs.update((a[0], a[1]) for a in burst)
        return len(pairs)


def churn_schedule(seed: int, cycles: int = CHURN_CYCLES) -> ChurnSchedule:
    """Seeded shuffles of excursion blocks over the Fig. 2 states."""
    rng = random.Random(seed)
    oracle = VerdictOracle(EnforcementConfig.SACK_INDEPENDENT)
    media = media_paths(CHURN_ALBUMS, CHURN_TRACKS)

    def burst_access(state: str) -> Access:
        roll = rng.random()
        if roll < 0.35:
            return oracle.access(state, rng.choice((MEDIA_APP, NAV_APP)),
                                 rng.choice(media), OpenFlags.O_RDONLY,
                                 READ)
        if roll < 0.65:
            return oracle.access(
                state, rng.randrange(len(TASKS)),
                f"/dev/car/{rng.choice(READABLE_DEVICES)}",
                OpenFlags.O_RDONLY, READ)
        if roll < 0.95:
            task, device, cmd = rng.choice(CHURN_BURST_IOCTLS)
            arg = rng.randrange(101) if cmd in (VOLUME_SET,
                                                WINDOW_SET) else 0
            return oracle.access(state, task, f"/dev/car/{device}",
                                 OpenFlags.O_RDONLY, IOCTL, cmd, arg)
        return oracle.access(state, RESCUE, "/dev/car/door",
                             OpenFlags.O_WRONLY, WRITE, arg=b"lock")

    def probe(old: str, new: str) -> Access:
        task, device, cmd = CHURN_PROBES[new]
        arg = rng.randrange(101) if cmd == VOLUME_SET else 0
        before = oracle.access(old, task, f"/dev/car/{device}",
                               OpenFlags.O_RDONLY, IOCTL, cmd, arg)
        after = oracle.access(new, task, f"/dev/car/{device}",
                              OpenFlags.O_RDONLY, IOCTL, cmd, arg)
        if before[6] == after[6]:
            raise AssertionError(f"probe for {old} -> {new} does not flip")
        return after

    block = [changes for changes, count in CHURN_EXCURSIONS
             for _ in range(count)]
    out = []
    state = INITIAL_STATE
    while len(out) < cycles:
        rng.shuffle(block)
        for change in (c for changes in block for c in changes):
            new = CHANGE_TARGET[change]
            out.append((change, new, probe(state, new),
                        [burst_access(new) for _ in range(CHURN_BURST)]))
            state = new
    return ChurnSchedule(seed, out, media)


def churn_setup(schedule: ChurnSchedule) -> IviEnv:
    world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
    populate_media(world, schedule.media)
    # Prime the detectors: their first sweep only learns the baseline.
    world.run_sds(1)
    return IviEnv(world)


def churn_unit(env: IviEnv, schedule: ChurnSchedule, ctx,
               limit: Optional[int] = None) -> UnitResult:
    """Change the situation, wait for it, probe, burst: per cycle."""
    result = UnitResult()
    access_samples = array("q")
    situation_samples = array("q")
    cycle_samples = array("q")
    failures = result.failures
    world = env.world
    kernel = env.kernel
    tasks = env.tasks
    dynamics = world.dynamics
    ssm = env.ssm
    clock = time.perf_counter_ns
    denied = accesses = transitions = 0
    for index, (change, target, probe, burst) in enumerate(
            schedule.cycles[:limit]):
        apply_change(dynamics, change)
        before = ssm.transition_count
        ctx.op = result.attempted
        t0 = clock()
        polls = 0
        while ssm.current_name != target and polls < CHURN_MAX_POLLS:
            world.run_sds(1)
            polls += 1
        t_probe = clock()
        try:
            outcome = do_access(kernel, tasks[probe[0]], probe[1], probe[2],
                                probe[3], probe[4], probe[5])
        except Exception as exc:  # a broken operation: count it, go on
            outcome = exc
        t1 = clock()
        situation_samples.append(t1 - t0)
        access_samples.append(t1 - t_probe)
        if change == "start":
            dynamics.cruise()
        moved = ssm.transition_count - before
        transitions += moved
        result.attempted += 2          # the situation change and the probe
        if moved != 1 or ssm.current_name != target:
            failures.add(f"cycle {index}: {change} gave {moved} "
                         f"transition(s), state {ssm.current_name}, "
                         f"expected {target}")
        check_verdict(failures, probe, outcome, f"cycle {index} probe")
        denied += outcome is False
        t2 = clock()
        denied += _time_accesses(env, burst, ctx, access_samples, failures,
                                 result.attempted)
        cycle_samples.append(t1 - t0 + clock() - t2)
        result.attempted += len(burst)
        accesses += 1 + len(burst)
    result.work = accesses
    result.samples["access"] = access_samples
    result.samples["situation"] = situation_samples
    result.samples["cycle"] = cycle_samples
    counters = _stack_counters(world.framework)
    counters["syscalls"] = sum(kernel.syscall_counts.values())
    counters["transitions"] = transitions
    counters["sds_events"] = world.sds.stats.events_sent
    result.counters = counters
    result.properties = {
        "denial_share": denied / accesses,
        "avc_hit_ratio": _ratio(counters["avc_hits"],
                                counters["avc_hits"]
                                + counters["avc_misses"]),
        "pairs_per_avc_slot": schedule.distinct_pairs / AVC_CAPACITY,
        "accesses_per_transition": _ratio(accesses, transitions),
        "transitions_per_epoch": None,
    }
    return result
