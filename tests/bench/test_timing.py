"""Tests for the shared timing/percentile helpers."""

import pytest

from repro.bench.timing import (best_of, latency_summary_us, percentile,
                                summarize_ns)


class TestBestOf:
    def test_returns_minimum_elapsed(self):
        calls = []
        assert best_of(lambda: calls.append(1), reps=4) >= 0.0
        assert len(calls) == 4

    def test_zero_reps_rejected(self):
        with pytest.raises(ValueError):
            best_of(lambda: None, reps=0)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(100))
        assert percentile(values, 0.0) == 0
        assert percentile(values, 0.5) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 99

    def test_unsorted_input(self):
        assert percentile([5, 1, 3], 0.5) == 3

    def test_empty_and_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestSummaries:
    def test_summarize_ns_fields(self):
        summary = summarize_ns([100, 200, 300, 400])
        assert summary["count"] == 4
        assert summary["mean_ns"] == 250
        assert summary["p50_ns"] == 300
        assert summary["p99_ns"] == 400
        assert summary["max_ns"] == 400

    def test_single_sample(self):
        summary = summarize_ns([7])
        assert summary["p50_ns"] == summary["p99_ns"] == 7

    def test_latency_summary_us_converts(self):
        out = latency_summary_us([1000, 2000, 3000])
        assert out["mean_us"] == pytest.approx(2.0)
        assert out["p50_us"] == pytest.approx(2.0)
        assert out["p99_us"] == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_ns([])
