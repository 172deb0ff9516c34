"""Chaos suite cells must move the situation state machine.

Invariants I1-I10 checked over an SSM that never leaves its initial
state prove nothing about transitions, so a chaos cell that commits no
transition fails instead of reporting a clean run.  Every shipped chaos
cell runs in ``tests/cli/test_benchcli_suite.py``'s suite run.
"""

import pytest

from repro.bench.suite import _run_chaos_cell


def test_zero_transition_cell_fails():
    # Seed 7 commits no transition in its first 120 ticks.
    with pytest.raises(RuntimeError, match="no SSM transition"):
        _run_chaos_cell({"seed": 7, "ticks": 120, "mode": "independent",
                         "fault_intensity": 0.05})
