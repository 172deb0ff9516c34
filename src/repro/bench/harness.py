"""Benchmark harness: the paper's parameter sweeps.

Drives the sweeps behind Table II, Table III, Fig. 3(a), Fig. 3(b), the
situation awareness latency measurement, and our ablations (E9-E11).
Every world is :func:`~repro.vehicle.ivi.build_stack`'s: a booted kernel
with one :class:`~repro.vehicle.ivi.EnforcementConfig`'s stack and its
SACK policy written through SACKfs, without the IVI car.  Every
best-of measurement (the LMBench sweeps, Fig. 3(b), E9-E11 and the smoke
suite's telemetry and verify cells) goes through one loop,
:func:`_best_of_sweep`; E5 reports a distribution, not a best-of.
"""

from __future__ import annotations

import functools
import operator
import time
from typing import (Callable, Dict, Hashable, List, Mapping, Optional,
                    Sequence, Tuple, TypeVar)

from ..kernel import Kernel, OpenFlags, SocketFamily
from ..lsm import HookLatency, HookStats, hook_latency_summary
from ..sack import SituationEvent, format_policy
from ..sack.policy.model import (MacRule, RuleDecision, RuleOp,
                                 SackPermission, SackPolicy)
from ..sack.ssm import TransitionRule
from ..sack.states import SituationState, StateSpace
from ..vehicle.ivi import (DEFAULT_SACK_POLICY, EnforcementConfig,
                           SecurityStack, build_stack)
from .lmbench import (FILE_OP_BENCHES, TABLE2_BENCHES, BenchResult,
                      LmbenchSuite)
from .timing import latency_summary_us

#: Table II's stacks, the AppArmor baseline first.
TABLE2_STACKS = (EnforcementConfig.APPARMOR,
                 EnforcementConfig.SACK_APPARMOR,
                 EnforcementConfig.SACK_INDEPENDENT)

World = TypeVar("World")
Sample = TypeVar("Sample")


def _cost(sample) -> float:
    """What best-of minimises: a latency as is, a bandwidth negated."""
    if isinstance(sample, BenchResult):
        return sample.value if sample.smaller_is_better else -sample.value
    return sample


def _best_of_sweep(builders: Mapping[Hashable, Callable[[], World]],
                   measures: Mapping[str, Callable[[World], Sample]],
                   repetitions: int) -> Dict[Hashable, Dict[str, Sample]]:
    """The one measurement loop: ``{key: {measure: best sample}}``.

    Every repetition builds a fresh world per key (a kernel instance's
    memory layout is fixed at build time, so reusing one would bake its
    allocation luck into every sample) and runs each measure on every
    world before the next measure, so drift (frequency scaling, GC,
    page cache) hits every column alike.  The key order rotates per
    repetition so no column always runs first (cold) or last (warm).
    Interference on a shared host is additive, so the best sample is
    the noise-robust estimate: the minimum of a latency (a number, or a
    smaller-is-better :class:`BenchResult`), the maximum of a bandwidth,
    as LMBench itself reports.
    """
    keys = list(builders)
    if not keys or repetitions < 1:
        raise ValueError(f"need a world and a repetition, got {len(keys)} "
                         f"world(s) and {repetitions} repetition(s)")
    best: Dict[Hashable, Dict[str, Sample]] = {key: {} for key in keys}
    for rep in range(repetitions):
        worlds = {key: build() for key, build in builders.items()}
        shift = rep % len(keys)
        order = keys[shift:] + keys[:shift]
        for name, measure in measures.items():
            for key in order:
                sample = measure(worlds[key])
                kept = best[key].get(name)
                if kept is None or _cost(sample) < _cost(kept):
                    best[key][name] = sample
    return best


def _lmbench_sweep(builders: Mapping[Hashable, Callable[[], SecurityStack]],
                   benches: Sequence[str], scale: float, repetitions: int
                   ) -> Dict[Hashable, Dict[str, BenchResult]]:
    """:func:`_best_of_sweep` of LMBench *benches* on *builders*' stacks."""
    return _best_of_sweep(
        {key: lambda build=build: LmbenchSuite(build().kernel, scale=scale)
         for key, build in builders.items()},
        {bench: operator.methodcaller(f"bench_{bench}") for bench in benches},
        repetitions)


# -- Table II -------------------------------------------------------------------

def run_lmbench(configs: Sequence[EnforcementConfig] = TABLE2_STACKS,
                benches: Optional[List[str]] = None,
                scale: float = 1.0, repetitions: int = 5
                ) -> Dict[str, Dict[str, BenchResult]]:
    """LMBench across stacks (Table II's data), keyed by config value."""
    return _lmbench_sweep(
        {config.value: functools.partial(build_stack, config,
                                         with_ubuntu_profiles=True)
         for config in configs},
        benches or TABLE2_BENCHES, scale, repetitions)


def run_hook_latency_breakdown(
        configs: Sequence[EnforcementConfig] = TABLE2_STACKS,
        benches: Optional[List[str]] = None, scale: float = 0.1
        ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-hook latency histograms under the LMBench workload.

    Runs the suite once per stack with a :class:`HookLatency` probe
    attached and reports, per stack and per LSM hook, the merged
    ``{count, mean_ns, p50_ns, p99_ns, max_ns}`` summary of its
    histograms.  This is the observability
    counterpart of :func:`run_hook_census`: the census says how often
    each hook runs, this says how long it takes when it does.
    """
    breakdown: Dict[str, Dict[str, Dict[str, float]]] = {}
    for config in configs:
        stack = build_stack(config, with_ubuntu_profiles=True)
        if stack.framework is None:
            breakdown[config.value] = {}
            continue
        HookLatency().attach(stack.kernel.obs)
        LmbenchSuite(stack.kernel, scale=scale).run(benches)
        breakdown[config.value] = hook_latency_summary(
            stack.kernel.obs.metrics)
    return breakdown


def run_hook_census(configs: Sequence[EnforcementConfig] = TABLE2_STACKS,
                    benches: Optional[List[str]] = None,
                    scale: float = 0.1) -> Dict[str, Dict[str, int]]:
    """Deterministic complement to the wall-clock tables.

    Runs the suite once per stack with a :class:`HookStats` probe
    attached and reports, per stack: total syscalls issued, total LSM
    hook invocations, and hook invocations attributable to the SACK
    module.  These counts are exact and noise-free — they explain *why*
    the wall-clock deltas are small (how much extra code actually runs).
    The probe attaches before the SACK policy is activated, so the
    activation's own hook calls are counted too.
    """
    census: Dict[str, Dict[str, int]] = {}
    for config in configs:
        stack = build_stack(config, policy_text=None,
                            with_ubuntu_profiles=True)
        stats = HookStats().attach(stack.kernel.obs)
        stack.activate(DEFAULT_SACK_POLICY)
        LmbenchSuite(stack.kernel, scale=scale).run(benches)
        syscalls = sum(stack.kernel.syscall_counts.values())
        hook_calls = stats.total_calls()
        sack_calls = sum(v for k, v in stats.calls.items()
                         if k.startswith("sack."))
        census[config.value] = {
            "syscalls": syscalls,
            "hook_calls": hook_calls,
            "sack_hook_calls": sack_calls,
            "hooks_per_syscall_x100": (hook_calls * 100 // syscalls
                                       if syscalls else 0),
        }
    return census


# -- Table III: rule-count sweep ---------------------------------------------------

def make_synthetic_policy(n_rules: int, n_states: int = 2,
                          name: str = "synthetic") -> SackPolicy:
    """A policy with *n_rules* MAC rules spread over *n_states* states.

    Mirrors the paper's Table III setup: the test policies follow the
    Fig. 1 template (device-path rules under a /dev/car guard), scaled up.
    """
    if n_states < 1:
        raise ValueError("need at least one state")
    states = StateSpace([SituationState(f"s{i}", i)
                         for i in range(n_states)])
    transitions = [TransitionRule(event=f"go_s{(i + 1) % n_states}",
                                  from_state=f"s{i}",
                                  to_state=f"s{(i + 1) % n_states}")
                   for i in range(n_states)]
    permissions = {}
    per_rules = {}
    state_per: Dict[str, set] = {f"s{i}": set() for i in range(n_states)}
    ops = [RuleOp.READ, RuleOp.WRITE, RuleOp.IOCTL]
    for i in range(n_rules):
        perm_name = f"P{i}"
        permissions[perm_name] = SackPermission(perm_name)
        rule = MacRule(decision=RuleDecision.ALLOW, op=ops[i % len(ops)],
                       path_glob=f"/dev/car/unit{i}")
        per_rules[perm_name] = [rule]
        state_per[f"s{i % n_states}"].add(perm_name)
    return SackPolicy(states=states, initial="s0", transitions=transitions,
                      permissions=permissions, state_per=state_per,
                      per_rules=per_rules, guards=["/dev/car/**"],
                      name=name)


def build_rule_count_world(n_rules: int) -> SecurityStack:
    """SACK-enhanced-AppArmor world carrying *n_rules* SACK rules.

    ``n_rules == 0`` is the baseline: AppArmor with no SACK module at all
    (Table III's '0' column)."""
    if n_rules == 0:
        return build_stack(EnforcementConfig.APPARMOR,
                           with_ubuntu_profiles=True)
    return build_stack(EnforcementConfig.SACK_APPARMOR,
                       policy_text=format_policy(
                           make_synthetic_policy(n_rules)),
                       with_ubuntu_profiles=True)


def run_rule_sweep(rule_counts: Sequence[int] = (0, 10, 100, 500, 1000),
                   benches: Optional[List[str]] = None,
                   repetitions: int = 3, scale: float = 1.0
                   ) -> Dict[int, Dict[str, BenchResult]]:
    """Table III: LMBench at several SACK policy sizes (the paper
    averages 30 runs; best-of over interleaved runs resists the load
    bursts a shared host injects into small samples)."""
    return _lmbench_sweep(
        {count: functools.partial(build_rule_count_world, count)
         for count in rule_counts},
        benches or TABLE2_BENCHES, scale, repetitions)


# -- Fig. 3(a): situation-state count sweep ------------------------------------------

def build_state_count_world(n_states: int, n_rules_per_state: int = 2
                            ) -> SecurityStack:
    """Independent SACK with an *n_states* policy (Fig. 3(a) setup)."""
    policy = make_synthetic_policy(n_states * n_rules_per_state,
                                   n_states=n_states,
                                   name=f"states-{n_states}")
    return build_stack(EnforcementConfig.SACK_INDEPENDENT,
                       policy_text=format_policy(policy))


def run_state_sweep(state_counts: Sequence[int] = (2, 5, 10, 25, 50, 100),
                    scale: float = 1.0, repetitions: int = 3
                    ) -> Dict[object, Dict[str, BenchResult]]:
    """Fig. 3(a): file-operation overhead vs number of situation states.

    Returns results for the no-LSM baseline (key ``"baseline"``) and each
    state count.
    """
    builders: Dict[Hashable, Callable[[], SecurityStack]] = {
        "baseline": functools.partial(build_stack, EnforcementConfig.NO_LSM)}
    for count in state_counts:
        builders[count] = functools.partial(build_state_count_world, count)
    return _lmbench_sweep(builders, FILE_OP_BENCHES, scale, repetitions)


# -- Fig. 3(b): transition-frequency sweep ---------------------------------------------

SPEED_POLICY = """
policy speed_gate;
initial low_speed;

states {
  low_speed = 0;
  high_speed = 1;
}

transitions {
  low_speed -> high_speed on speed_high;
  high_speed -> low_speed on speed_low;
}

permissions {
  CRITICAL_FILE "critical-file access, low speed only";
  TELEMETRY;
}

state_per {
  low_speed: CRITICAL_FILE, TELEMETRY;
  high_speed: TELEMETRY;
}

per_rules {
  CRITICAL_FILE {
    allow read /etc/vehicle/critical.conf;
    allow write /etc/vehicle/critical.conf;
  }
  TELEMETRY {
    allow read /dev/car/**;
  }
}

guard /etc/vehicle/critical.conf;
guard /dev/car/**;
"""


def run_frequency_sweep(periods_ms: Sequence[float] = (1, 10, 100, 1000),
                        accesses: int = 20000, repetitions: int = 3
                        ) -> Dict[object, Dict[str, float]]:
    """Fig. 3(b): overhead of transitioning at millisecond granularity.

    The workload reads a critical file that only the low-speed state may
    touch; the SSM flips between high/low speed every *period_ms* of
    virtual time (events injected through SACKfs, as the SDS would).
    Accesses that land in the high-speed state are denied — that is the
    semantics — so the workload alternates between the critical file and a
    telemetry file to keep every access legal while state flips.

    Returns per-period dict with ``ns_per_access``, ``transitions``, and
    ``overhead_pct`` relative to a never-transitioning run (key
    ``"baseline"``), best of *repetitions* through :func:`_best_of_sweep`.
    """
    transitions_of: Dict[object, int] = {}

    def build(key) -> Tuple[Kernel, object]:
        kernel = build_stack(EnforcementConfig.SACK_INDEPENDENT,
                             policy_text=SPEED_POLICY).kernel
        kernel.vfs.makedirs("/etc/vehicle")
        kernel.vfs.create_file("/etc/vehicle/critical.conf")
        kernel.write_file(kernel.procs.init, "/etc/vehicle/critical.conf",
                          b"threshold=1\n")
        kernel.vfs.makedirs("/dev/car")
        kernel.vfs.create_file("/dev/car/telemetry")
        return kernel, key

    def run(world: Tuple[Kernel, object]) -> float:
        kernel, key = world
        task = kernel.procs.init
        crit_fd = kernel.sys_open(task, "/etc/vehicle/critical.conf",
                                  OpenFlags.O_RDONLY)
        telem_fd = kernel.sys_open(task, "/dev/car/telemetry",
                                   OpenFlags.O_RDONLY)
        # Each access advances virtual time by 100 µs (a 10 kHz access
        # rate), so the default 20000 accesses span 2 s of virtual time —
        # enough for transitions even at the 1000 ms period.
        access_cost_ns = 100_000
        period_ns = None if key == "baseline" else int(key * 1e6)
        next_flip = kernel.clock.now_ns + period_ns if period_ns else None
        high = False
        transitions = 0
        start = time.perf_counter_ns()
        for i in range(accesses):
            kernel.clock.advance_ns(access_cost_ns)
            if next_flip is not None and kernel.clock.now_ns >= next_flip:
                event = "speed_low" if high else "speed_high"
                kernel.write_file(task,
                                  "/sys/kernel/security/SACK/events",
                                  f"{event}\n".encode(), create=False)
                high = not high
                transitions += 1
                next_flip += period_ns
            fd = telem_fd if high else crit_fd
            kernel.sys_lseek(task, fd, 0)
            kernel.sys_read(task, fd, 16)
        elapsed = time.perf_counter_ns() - start
        kernel.sys_close(task, crit_fd)
        kernel.sys_close(task, telem_fd)
        transitions_of[key] = transitions
        return elapsed / accesses

    best = _best_of_sweep(
        {key: functools.partial(build, key)
         for key in ("baseline", *periods_ms)},
        {"ns_per_access": run}, repetitions)
    base_ns = best["baseline"]["ns_per_access"]
    return {key: {"ns_per_access": row["ns_per_access"],
                  "transitions": transitions_of[key],
                  "overhead_pct":
                      (row["ns_per_access"] - base_ns) / base_ns * 100.0}
            for key, row in best.items()}


# -- E5: situation awareness latency ---------------------------------------------------

LATENCY_EVENTS = ["crash_detected", "emergency_cleared", "vehicle_started",
                  "vehicle_parked"]


def run_event_latency(samples_per_event: int = 200
                      ) -> Dict[str, Dict[str, float]]:
    """Per-event-type user→kernel latency through SACKfs + accuracy."""
    stack = build_stack(EnforcementConfig.SACK_INDEPENDENT)
    kernel = stack.kernel
    task = kernel.procs.init
    ssm = stack.sack.ssm
    out: Dict[str, Dict[str, float]] = {}
    for event_name in LATENCY_EVENTS:
        latencies = []
        delivered = 0
        for _ in range(samples_per_event):
            before = ssm.events_processed
            start = time.perf_counter_ns()
            kernel.write_file(task, "/sys/kernel/security/SACK/events",
                              f"{event_name}\n".encode(), create=False)
            latencies.append(time.perf_counter_ns() - start)
            if ssm.events_processed == before + 1:
                delivered += 1
        out[event_name] = {
            **latency_summary_us(latencies),
            "accuracy_pct": delivered / samples_per_event * 100.0,
        }
    return out


# -- E9 ablation: event transport channels ----------------------------------------------

def run_transport_ablation(samples: int = 500) -> Dict[str, float]:
    """Per-event latency (µs): SACKfs vs AF_UNIX vs TCP relay.

    The socket channels model the alternative the paper rejects for C1: a
    user-space relay daemon receives the event over a socket and then
    still has to inject it into the kernel — an extra hop and two extra
    copies per event.

    The three channels run interleaved through :func:`_best_of_sweep`:
    *samples* events each, in 10 rounds of one block per channel on a
    fresh world, in an order that rotates per round.  Each channel
    reports its best round's mean.
    """
    event_line = b"speed_high\n"
    events = "/sys/kernel/security/SACK/events"

    def direct():
        kernel = build_stack(EnforcementConfig.SACK_INDEPENDENT).kernel
        task = kernel.procs.init
        return lambda: kernel.write_file(task, events, event_line,
                                         create=False)

    def relay(family: SocketFamily, addr):
        kernel = build_stack(EnforcementConfig.SACK_INDEPENDENT).kernel
        task = kernel.procs.init
        server = kernel.sys_socket(task, family)
        kernel.sys_bind(task, server, addr)
        kernel.sys_listen(task, server)
        client = kernel.sys_socket(task, family)
        kernel.sys_connect(task, client, addr)
        conn = kernel.sys_accept(task, server)

        def once():
            kernel.sys_send(task, client, event_line)
            data = kernel.sys_recv(task, conn, 64)
            kernel.write_file(task, events, data, create=False)
        return once

    rounds = min(10, samples)
    block = max(1, samples // rounds)

    def per_event_us(once: Callable[[], None]) -> float:
        start = time.perf_counter_ns()
        for _ in range(block):
            once()
        return (time.perf_counter_ns() - start) / block / 1e3

    best = _best_of_sweep(
        {"sackfs_us": direct,
         "af_unix_relay_us": functools.partial(
             relay, SocketFamily.AF_UNIX, "/tmp/relay.sock"),
         "tcp_relay_us": functools.partial(
             relay, SocketFamily.AF_INET, ("127.0.0.1", 48000))},
        {"us": per_event_us}, rounds)
    return {key: row["us"] for key, row in best.items()}


# -- E11: ABAC baseline comparison (Varshith et al.) -------------------------------------

def run_baseline_comparison(rule_counts: Sequence[int] = (10, 100, 500),
                            accesses: int = 10000
                            ) -> Dict[int, Dict[str, float]]:
    """Per-access check cost: ABAC baseline vs independent SACK.

    Both worlds guard ``/dev/car/**`` with *n* rules and the workload
    reads one governed file.  ABAC evaluates subject + environment
    attributes against the rule list per access; SACK consults the
    precompiled current-state ruleset.  Returns ns/access per approach,
    best of 3 through :func:`_best_of_sweep`, every (rule count,
    approach) world fresh each repetition and in a rotating order.
    """
    from ..abac import AbacEffect, AbacLsm, AbacPolicy, AbacRule
    from ..lsm import boot_kernel

    probe = "/dev/car/probe"

    def build_abac(count: int) -> Kernel:
        abac = AbacLsm()
        kernel, _ = boot_kernel([abac])
        rules = [AbacRule(AbacEffect.PERMIT, frozenset({RuleOp.READ}),
                          f"/dev/car/unit{i}", hour_range=(0, 24))
                 for i in range(count - 1)]
        rules.append(AbacRule(AbacEffect.PERMIT, frozenset({RuleOp.READ}),
                              probe))
        abac.load_policy(AbacPolicy(rules, guards=["/dev/car/**"]))
        kernel.vfs.makedirs("/dev/car")
        kernel.vfs.create_file(probe, mode=0o666)
        return kernel

    def build_sack(count: int) -> Kernel:
        policy = make_synthetic_policy(count, n_states=2)
        # Ensure the probe path is readable in the initial state.
        policy.permissions["PROBE"] = SackPermission("PROBE")
        policy.per_rules["PROBE"] = [MacRule(
            RuleDecision.ALLOW, RuleOp.READ, probe)]
        policy.state_per["s0"].add("PROBE")
        kernel = build_stack(EnforcementConfig.SACK_INDEPENDENT,
                             policy_text=format_policy(policy)).kernel
        kernel.vfs.makedirs("/dev/car")
        kernel.vfs.create_file(probe, mode=0o666)
        return kernel

    def per_access_ns(kernel: Kernel) -> float:
        task = kernel.procs.init
        fd = kernel.sys_open(task, probe)
        for _ in range(accesses // 10):
            kernel.sys_read(task, fd, 8)  # warmup
        start = time.perf_counter_ns()
        for _ in range(accesses):
            kernel.sys_read(task, fd, 8)
        elapsed = (time.perf_counter_ns() - start) / accesses
        kernel.sys_close(task, fd)
        return elapsed

    best = _best_of_sweep(
        {(count, name): functools.partial(build, count)
         for count in rule_counts
         for name, build in (("abac_ns", build_abac), ("sack_ns", build_sack))},
        {"ns": per_access_ns}, 3)
    out: Dict[int, Dict[str, float]] = {}
    for count in rule_counts:
        row = {name: best[count, name]["ns"]
               for name in ("abac_ns", "sack_ns")}
        out[count] = {**row, "ratio": row["abac_ns"] / row["sack_ns"]}
    return out


# -- E10 ablation: transition cost, independent vs bridge ------------------------------

def _flip_us(stack: SecurityStack, start: int, transitions: int) -> float:
    """Mean µs per transition of *transitions* alternating s0/s1 events,
    the *start*-th of the alternation first."""
    ssm = stack.module.ssm
    clock = stack.kernel.clock
    began = time.perf_counter_ns()
    for i in range(start, start + transitions):
        ssm.process_event(SituationEvent(name=f"go_s{(i + 1) % 2}"),
                          now_ns=clock.now_ns)
    return (time.perf_counter_ns() - began) / transitions / 1e3


def run_transition_cost_ablation(rule_counts: Sequence[int] = (10, 100, 500,
                                                               1000),
                                 transitions: int = 200
                                 ) -> Dict[int, Dict[str, float]]:
    """Per-transition cost (µs) of the two enforcement prototypes.

    Independent SACK swaps a precompiled ruleset pointer
    (``independent_us``).  The bridge's first entry into a state
    translates the state's rules and stages its profile set
    (``bridge_first_us``: the first transition of a fresh stack on a
    fresh host); every later entry installs the kept set (``bridge_us``:
    the mean over *transitions* once both states have been entered,
    as is ``independent_us``).  Each is the best of 5 through
    :func:`_best_of_sweep`, every (rule count, prototype) stack fresh
    each repetition and in a rotating order.  ``ratio`` is
    ``bridge_us`` over ``independent_us``.  The crossover against check
    frequency is the design trade-off discussed in DESIGN.md §5.
    """
    prototypes = {"independent": EnforcementConfig.SACK_INDEPENDENT,
                  "bridge": EnforcementConfig.SACK_APPARMOR}
    texts = {count: format_policy(make_synthetic_policy(count))
             for count in rule_counts}
    # A fresh stack entered s0 at load: the first flip enters s1, and
    # every flip after it re-enters a state.
    best = _best_of_sweep(
        {(count, name): functools.partial(build_stack, config,
                                          policy_text=texts[count])
         for count in rule_counts for name, config in prototypes.items()},
        {"first_us": lambda stack: _flip_us(stack, 0, 1),
         "us": lambda stack: _flip_us(stack, 1, transitions)}, 5)
    out: Dict[int, Dict[str, float]] = {}
    for count in rule_counts:
        independent_us = best[count, "independent"]["us"]
        bridge_us = best[count, "bridge"]["us"]
        out[count] = {"independent_us": independent_us,
                      "bridge_first_us": best[count, "bridge"]["first_us"],
                      "bridge_us": bridge_us,
                      "ratio": bridge_us / independent_us
                      if independent_us else float("inf")}
    return out
