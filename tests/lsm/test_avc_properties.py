"""Hypothesis properties for the AVC core (the SELinux AVC's LRU).

The safety argument for caching access decisions rests on one property:
under *any* interleaving of ``lookup``/``insert``/``bump_epoch``/``flush``,
the cache never returns an entry whose epoch differs from the current
one.  These tests drive :class:`repro.selinux.avc.AvcCore` with arbitrary
operation sequences against a deliberately naive model and check that
every hit is justified.
"""

from hypothesis import given, settings, strategies as st

from repro.selinux.avc import AvcCore

KEYS = st.integers(min_value=0, max_value=9)
VALUES = st.integers(min_value=1, max_value=7)

OPS = st.one_of(
    st.tuples(st.just("insert"), KEYS, VALUES),
    st.tuples(st.just("lookup"), KEYS, st.just(0)),
    st.tuples(st.just("bump"), st.just(0), st.just(0)),
    st.tuples(st.just("flush"), st.just(0), st.just(0)),
)


@given(ops=st.lists(OPS, max_size=300),
       capacity=st.integers(min_value=1, max_value=16))
@settings(max_examples=200, deadline=None)
def test_hit_implies_current_epoch_coverage(ops, capacity):
    """A hit only ever serves the value last written for its key, and
    only when that write happened in the current epoch.

    The model ignores capacity (a superset of what the core may hold),
    so the implication is one-directional: every core hit must be
    justified by the model; a core miss is always legal (eviction).
    """
    core = AvcCore(capacity=capacity)
    model = {}  # key -> (epoch_written, value)
    epoch = 0
    for op, key, value in ops:
        if op == "insert":
            core.insert(key, value)
            model[key] = (epoch, value)
        elif op == "lookup":
            hit, got = core.lookup(key)
            if hit:
                model_epoch, written = model.get(key, (None, None))
                assert model_epoch == epoch, \
                    f"hit on {key} from epoch {model_epoch}, now {epoch}"
                assert got == written
        elif op == "bump":
            core.bump_epoch()
            epoch += 1
        elif op == "flush":
            core.flush()
            model.clear()
        assert len(core) <= capacity


@given(ops=st.lists(OPS, max_size=300))
@settings(max_examples=100, deadline=None)
def test_counters_are_consistent(ops):
    core = AvcCore(capacity=8)
    lookups = 0
    for op, key, value in ops:
        if op == "insert":
            core.insert(key, value)
        elif op == "lookup":
            core.lookup(key)
            lookups += 1
        elif op == "bump":
            core.bump_epoch()
        elif op == "flush":
            core.flush()
    assert core.hits + core.misses == lookups
    assert core.hits >= 0 and core.misses >= 0
    assert core.stale_drops <= core.misses


@given(churn=st.lists(KEYS, min_size=1, max_size=200),
       capacity=st.integers(min_value=1, max_value=8))
@settings(max_examples=100, deadline=None)
def test_lru_churn_preserves_correctness(churn, capacity):
    """Under pure insert/lookup churn every hit returns the value last
    written for that key — eviction may cost hits, never correctness."""
    core = AvcCore(capacity=capacity)
    written = {}
    for i, key in enumerate(churn):
        if i % 2 == 0:
            core.insert(key, i)
            written[key] = i
        else:
            hit, value = core.lookup(key)
            if hit:
                assert value == written[key]
        assert len(core) <= capacity
