"""Tests for the per-host parsed-policy cache."""

import copy

import pytest

from repro.lsm.policycache import PolicyCache


def _builder(log, value):
    return lambda: log.append(value) or value


def test_builds_once_per_key():
    cache, built = PolicyCache(), []
    for _ in range(3):
        assert cache.get("a", _builder(built, "A")) == "A"
    assert built == ["A"]


def test_keeps_the_most_recently_used_entries():
    cache, built = PolicyCache(), []
    for i in range(PolicyCache.CAPACITY):
        cache.get(i, _builder(built, i))
    cache.get(0, _builder(built, 0))          # a hit: 0 is now newest
    cache.get("new", _builder(built, "new"))  # full: drops 1, the oldest
    cache.get(0, _builder(built, 0))
    cache.get(1, _builder(built, 1))
    assert built == list(range(PolicyCache.CAPACITY)) + ["new", 1]


def test_a_failed_build_caches_nothing():
    cache, calls = PolicyCache(), []

    def bad():
        calls.append(1)
        raise ValueError("no")

    for _ in range(2):
        with pytest.raises(ValueError):
            cache.get("k", bad)
    assert len(calls) == 2


def test_deepcopy_shares_the_cache():
    cache = PolicyCache()
    holder = {"cache": cache}
    assert copy.deepcopy(holder)["cache"] is cache
