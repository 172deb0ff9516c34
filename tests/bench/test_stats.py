"""Tests for benchmark statistics helpers."""

import pytest

from repro.bench.stats import pct_delta


class TestScalars:
    def test_pct_delta(self):
        assert pct_delta(100, 103) == pytest.approx(3.0)
        assert pct_delta(100, 97) == pytest.approx(-3.0)
        assert pct_delta(0, 50) == 0.0
