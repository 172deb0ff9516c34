"""Chaos suite cells must move the situation state machine.

Invariants I1-I10 checked over an SSM that never leaves its initial
state prove nothing about transitions, so a chaos cell that commits no
transition fails instead of reporting a clean run.
"""

from pathlib import Path

import pytest

from repro.bench.suite import (_run_chaos_cell, expand_cells,
                               load_suite_config)

CONFIGS = Path(__file__).resolve().parents[2] / "benchmarks" / "configs"


def test_zero_transition_cell_fails():
    # Seed 7 commits no transition in its first 120 ticks.
    with pytest.raises(RuntimeError, match="no SSM transition"):
        _run_chaos_cell({"seed": 7, "ticks": 120, "mode": "independent",
                         "fault_intensity": 0.05})


@pytest.mark.parametrize("suite", ["smoke.yaml"])
def test_shipped_chaos_cells_transition(suite):
    cells = [cell for cell in expand_cells(load_suite_config(
        str(CONFIGS / suite))) if cell.workload == "chaos"]
    assert cells
    for cell in cells:
        metrics, _ = _run_chaos_cell(cell.param_dict)
        assert metrics["chaos_transitions"] > 0, cell.cell_id
