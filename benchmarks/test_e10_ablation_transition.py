"""E10 (ablation) — transition cost: independent SACK vs SACK-enhanced
AppArmor, as a function of policy size.

Independent SACK pays at *check* time (a guard/rule lookup per hook) but
transitions are an O(1) pointer swap; the bridge's check path is vanilla
AppArmor but every transition reloads profiles: its first entry into a
state translates the rules and stages the state's profile set, and each
later entry swaps the kept set in again.  This is the design trade-off
DESIGN.md §5 calls out; the crossover against transition frequency
follows from these numbers.
"""

import pytest

from repro.bench import run_transition_cost_ablation
from repro.bench.harness import make_synthetic_policy
from repro.lsm import boot_kernel
from repro.sack import SackLsm, SituationEvent
from repro.vehicle.devices import IOCTL_SYMBOLS

RULE_COUNTS = (10, 100, 500, 1000)


def test_transition_cost_sweep(benchmark, show):
    holder = {}

    def run():
        holder["out"] = run_transition_cost_ablation(
            rule_counts=RULE_COUNTS, transitions=200)
        return holder["out"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    out = holder["out"]

    lines = ["Transition cost: independent vs bridge (us/transition)",
             f"  {'rules':>8} {'independent':>13} {'bridge 1st':>11} "
             f"{'bridge':>10} {'ratio':>8}"]
    for count in RULE_COUNTS:
        row = out[count]
        lines.append(f"  {count:>8} {row['independent_us']:>13.1f} "
                     f"{row['bridge_first_us']:>11.1f} "
                     f"{row['bridge_us']:>10.1f} {row['ratio']:>7.1f}x")
    show("\n".join(lines))

    # Slope bounds: a bridged re-entry swaps in the state's kept profile
    # set, so like independent SACK's pointer swap it stays flat over
    # 10..1000 rules (the first entry, which translates, still grows).
    assert out[1000]["bridge_us"] <= out[10]["bridge_us"] * 3
    assert out[1000]["independent_us"] < out[10]["independent_us"] * 5
    # The bridge is always the more expensive transition.
    assert all(out[c]["ratio"] > 1 for c in RULE_COUNTS)


def test_independent_transition(benchmark):
    """A single independent-SACK transition (SSM + APE remap)."""
    sack = SackLsm()
    kernel, _ = boot_kernel([sack])
    sack.load_policy(make_synthetic_policy(100),
                     ioctl_symbols=IOCTL_SYMBOLS)
    ssm = sack.ssm
    counter = {"i": 0}

    def flip():
        counter["i"] += 1
        target = f"s{counter['i'] % 2}"
        ssm.process_event(SituationEvent(name=f"go_{target}"))

    benchmark(flip)
    assert sack.ape.remap_count > 0


def test_compile_time_vs_policy_size(benchmark, show):
    """Ablation of the State->Permission->MAC double indirection: the
    compile step precomputes g(f(s)) for every state; measure its cost at
    a representative policy size (it is paid once per policy load)."""
    from repro.sack import compile_policy
    policy = make_synthetic_policy(500, n_states=10)

    def compile_it():
        return compile_policy(policy, ioctl_symbols=IOCTL_SYMBOLS)

    compiled = benchmark(compile_it)
    assert compiled.total_rules() >= 500
