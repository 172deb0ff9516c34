"""Tests for benchmark statistics helpers."""

import pytest

from repro.bench.lmbench import BenchResult
from repro.bench.stats import best_result, pct_delta


class TestScalars:
    def test_pct_delta(self):
        assert pct_delta(100, 103) == pytest.approx(3.0)
        assert pct_delta(100, 97) == pytest.approx(-3.0)
        assert pct_delta(0, 50) == 0.0


class TestResultMerging:
    @staticmethod
    def _runs(unit, smaller_is_better):
        return [BenchResult("b", v, unit, 10, smaller_is_better)
                for v in (20.0, 10.0, 90.0)]

    def test_best_latency_is_the_minimum(self):
        best = best_result(self._runs("ns/op", True))
        assert best.value == 10.0
        assert best.unit == "ns/op" and best.iterations == 10

    def test_best_bandwidth_is_the_maximum(self):
        assert best_result(self._runs("MB/s", False)).value == 90.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            best_result([])
