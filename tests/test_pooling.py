import datetime as dt
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koalition.polls import Poll, validate_poll
from koalition.pooling import NoPollsError, PoolingConfig, largest_remainder, pool

DAY = dt.timedelta(days=1)
AS_OF = dt.date(2018, 3, 5)


def make_poll(registry, pollster, date, n, named_shares):
    return validate_poll(
        Poll(pollster, date, n, dict(zip(registry.named_ids, named_shares))), registry
    )


def test_largest_remainder_exact_case():
    out = largest_remainder(np.array([400.0, 380.0, 180.0, 40.0]), 1000)
    assert list(out) == [400, 380, 180, 40]


def test_largest_remainder_tie_goes_to_earlier_index():
    out = largest_remainder(np.array([1.5, 1.5, 1.0]), 5)
    assert list(out) == [2, 2, 1]
    out = largest_remainder(np.array([1.5, 1.5, 1.0]), 4)
    assert list(out) == [2, 1, 1]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=9))
def test_largest_remainder_sums_exactly(ideals):
    total = int(np.floor(sum(ideals) + 0.5))
    out = largest_remainder(np.array(ideals), total)
    assert out.sum() == total
    assert (out >= 0).all()


def test_single_poll_exact_counts(two_party_registry):
    registry = two_party_registry
    poll = validate_poll(
        Poll("P", AS_OF, 1000, {"a": 0.40, "b": 0.38, "other": 0.18}), registry
    )
    # named shares 0.40/0.38, explicit other 0.18 + residual 0.04
    pooled = pool([poll], registry, AS_OF)
    assert pooled.counts == {"a": 400, "b": 380, "other": 220}
    assert pooled.n_eff == 1000
    assert sum(pooled.counts.values()) == pooled.n_eff


def test_spec_rounding_example(registry):
    poll = make_poll(registry, "P", AS_OF, 1000, (0.40, 0.38, 0.18, 0.0, 0.0, 0.0))
    pooled = pool([poll], registry, AS_OF)
    assert pooled.counts["union"] == 400
    assert pooled.counts["spd"] == 380
    assert pooled.counts["gruene"] == 180
    assert pooled.counts["other"] == 40
    assert pooled.n_eff == 1000


def test_newest_poll_per_pollster_wins(registry):
    shares = (0.3, 0.2, 0.1, 0.1, 0.1, 0.1)
    old = make_poll(registry, "P", AS_OF - 4 * DAY, 800, shares)
    new = make_poll(registry, "P", AS_OF, 600, shares)
    pooled = pool([old, new], registry, AS_OF)
    assert pooled.n_eff == 600
    assert pooled.polls_used == (("P", AS_OF),)


@pytest.mark.parametrize(
    "first, second",
    [((600, (0.3, 0.2, 0.1, 0.1, 0.1, 0.1)), (800, (0.3, 0.2, 0.1, 0.1, 0.1, 0.1))),
     ((700, (0.3, 0.25, 0.1, 0.1, 0.1, 0.1)), (700, (0.3, 0.2, 0.1, 0.1, 0.1, 0.1)))],
    ids=["sample-size", "shares"],
)
def test_same_day_polls_of_one_pollster_tie_break_on_content(registry, first, second):
    # The smaller (sample size, shares) key wins, whichever poll comes first.
    # Shares compare in party-id order, where these first differ at
    # "other": 0.05 against 0.1.
    kept = make_poll(registry, "P", AS_OF, *first)
    dropped = make_poll(registry, "P", AS_OF, *second)
    want = pool([kept], registry, AS_OF)
    assert pool([kept, dropped], registry, AS_OF) == want
    assert pool([dropped, kept], registry, AS_OF) == want
    assert want != pool([dropped], registry, AS_OF)


def test_window_boundaries(registry):
    shares = (0.3, 0.2, 0.1, 0.1, 0.1, 0.1)
    at_edge = make_poll(registry, "Edge", AS_OF - 14 * DAY, 500, shares)  # excluded
    inside = make_poll(registry, "In", AS_OF - 13 * DAY, 500, shares)
    today = make_poll(registry, "Today", AS_OF, 500, shares)
    future = make_poll(registry, "Future", AS_OF + DAY, 500, shares)
    pooled = pool([at_edge, inside, today, future], registry, AS_OF, window_days=14)
    assert {p for p, _ in pooled.polls_used} == {"In", "Today"}


def test_empty_window_raises(registry):
    poll = make_poll(registry, "P", AS_OF - 30 * DAY, 500, (0.3, 0.2, 0.1, 0.1, 0.1, 0.1))
    with pytest.raises(NoPollsError) as err:
        pool([poll], registry, AS_OF)
    assert err.value.as_of == AS_OF
    assert err.value.window_days == 14


def test_dependence_factor_halves_two_identical_pollsters(registry):
    shares = (0.40, 0.38, 0.18, 0.0, 0.0, 0.0)
    a = make_poll(registry, "A", AS_OF, 500, shares)
    b = make_poll(registry, "B", AS_OF, 500, shares)
    pooled = pool([a, b], registry, AS_OF, dependence_factor=0.5)
    single = pool([a], registry, AS_OF)
    assert pooled.n_eff == 500
    assert pooled.counts == single.counts


def test_order_invariance(registry):
    rnd = random.Random(7)
    polls = [
        make_poll(registry, f"P{i % 4}", AS_OF - (i % 10) * DAY, 400 + 37 * i,
                  (0.29, 0.2, 0.12, 0.09, 0.1, 0.13))
        for i in range(12)
    ]
    base = pool(polls, registry, AS_OF)
    for _ in range(5):
        rnd.shuffle(polls)
        assert pool(polls, registry, AS_OF) == base


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=5),
    factor=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
def test_counts_always_sum_to_n_eff(registry, sizes, factor):
    polls = [
        make_poll(registry, f"P{i}", AS_OF - (i % 3) * DAY, n,
                  (0.31, 0.17, 0.12, 0.1, 0.1, 0.13))
        for i, n in enumerate(sizes)
    ]
    pooled = pool(polls, registry, AS_OF, dependence_factor=factor)
    assert sum(pooled.counts.values()) == pooled.n_eff
    assert len({p for p, _ in pooled.polls_used}) == len(pooled.polls_used)


def test_pooling_config_validation():
    with pytest.raises(ValueError):
        PoolingConfig(window_days=0)
    with pytest.raises(ValueError):
        PoolingConfig(dependence_factor=0.0)
    with pytest.raises(ValueError):
        PoolingConfig(dependence_factor=1.5)
