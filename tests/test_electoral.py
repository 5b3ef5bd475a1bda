import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import highest_averages, some_proper_subset_wins, threshold

from koalition import electoral
from koalition.electoral import (
    MAX_HOUSE_SIZE,
    ElectionRules,
    Workspace,
    allocate_many,
    elect_many,
)
from koalition.engine import EventSpec, _event_hits, estimate_poe
from koalition.posterior import DirichletPosterior

RULES = ElectionRules()


def elect_one(shares):
    """elect_many on a one-row block: (eligible parties, seats, hung).

    shares maps each party, the other bucket "other" among them, to its share.
    """
    parties = tuple(shares)
    row = np.array([[shares[p]] for p in parties])
    other = parties.index("other")
    eligible, seats, hung = elect_many(row, RULES, other, Workspace(1, len(parties)))
    return (
        {p for p, e in zip(parties, eligible[:, 0]) if e},
        dict(zip(parties, seats[:, 0].tolist())),
        bool(hung[0]),
    )


def reference_seats(shares):
    """The reference threshold, then brute-force seats for every party."""
    eligible = threshold(shares, RULES.threshold, "other")
    seats = highest_averages([eligible.get(p, 0.0) for p in shares], RULES.house_size)
    return dict(zip(shares, seats))


def majority_hits(rows, coalition, house_size):
    """engine._event_hits of a coalition majority on hand-made seat rows.

    rows maps party to its seats per row; returns (hits, subset hits).
    """
    parties = tuple(rows)
    seats = np.array([rows[p] for p in parties], dtype=np.int16)  # one row per party
    event = EventSpec("coalition-majority", tuple(coalition))
    cols = [parties.index(p) for p in coalition]
    return _event_hits(event, cols, seats > 0, seats, ~seats.any(axis=0), house_size)


# ---------------------------------------------------------------- threshold

def test_threshold_renormalizes_spec_example():
    shares = {"a": 0.40, "b": 0.38, "c": 0.18, "other": 0.04}
    eligible, seats, hung = elect_one(shares)
    assert eligible == {"a", "b", "c"} and not hung
    assert seats == reference_seats(shares)
    assert sum(seats.values()) == RULES.house_size and seats["other"] == 0


def test_threshold_boundary_is_strict_below():
    shares = {"a": 0.05, "b": 0.90, "other": 0.05}
    eligible, seats, _ = elect_one(shares)
    assert "a" in eligible and seats["a"] > 0  # exactly 5% enters
    assert seats == reference_seats(shares)
    shares = {"a": 0.049999, "b": 0.900001, "other": 0.05}
    eligible, seats, _ = elect_one(shares)
    assert "a" not in eligible and seats["a"] == 0
    assert seats == reference_seats(shares)


def test_threshold_other_never_eligible():
    eligible, seats, hung = elect_one({"a": 0.50, "other": 0.50})
    assert eligible == {"a"} and not hung
    assert seats == {"a": RULES.house_size, "other": 0}


def test_threshold_all_below_gives_hung():
    shares = {"a": 0.04, "b": 0.03, "other": 0.93}
    eligible, seats, hung = elect_one(shares)
    assert eligible == set() and hung
    assert seats == {"a": 0, "b": 0, "other": 0}


# ---------------------------------------------------------------- allocation

def test_allocation_spec_example():
    assert allocate_many(np.array([[0.48, 0.32, 0.20]]), 10).tolist() == [[5, 3, 2]]


def test_allocation_monopoly():
    assert allocate_many(np.array([[1.0]]), 598).tolist() == [[598]]


def test_allocation_even_split_tie():
    assert allocate_many(np.array([[0.5, 0.5]]), 2).tolist() == [[1, 1]]
    # the tie falls to the earlier party
    assert allocate_many(np.array([[0.5, 0.5]]), 3).tolist() == [[2, 1]]


def test_allocation_hung_is_all_zero():
    assert allocate_many(np.zeros((1, 2)), 598).tolist() == [[0, 0]]


def test_allocation_fills_universe_with_zeros():
    assert allocate_many(np.array([[1.0, 0.0]]), 5).tolist() == [[5, 0]]


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    k=st.integers(min_value=1, max_value=6),
    house=st.integers(min_value=1, max_value=50),
    method=st.sampled_from(["sainte-lague", "dhondt"]),
)
def test_allocator_matches_brute_force(data, k, house, method):
    raw = data.draw(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=k, max_size=k)
    )
    shares = np.array(raw) / np.sum(raw)
    got = list(allocate_many(shares[None, :], house, method)[0])
    assert got == highest_averages(shares, house, method)


@st.composite
def near_tie_row(draw, k, house, method):
    """A row whose start lands on an integer, an ulp from one, or near one.

    Some parties get shares (n - 1/2) / h (Sainte-Lague) or n / (h + l/2)
    (D'Hondt, l parties with a positive share), nudged by at most one ulp
    or by a start offset of +-10^u, u in [-11, -8], on both sides of
    electoral._NEAR_INTEGER; one party takes the rest. Further parties
    copy a tie share or get 0.
    """
    positive = draw(st.integers(min_value=1, max_value=k))
    multiplier = house if method == "sainte-lague" else house + positive / 2
    offset = 0.5 if method == "sainte-lague" else 0.0
    ties = []
    for _ in range(positive - 1):
        if ties and draw(st.booleans()):
            ties.append(draw(st.sampled_from(ties)))  # duplicated share
            continue
        n = draw(st.integers(min_value=1, max_value=max(1, house // positive)))
        nudge = draw(st.sampled_from([-1, 0, 1, "start"]))
        if nudge == "start":
            sign = draw(st.sampled_from([-1.0, 1.0]))
            share = (n - offset + sign * 10.0 ** draw(st.floats(-11, -8))) / multiplier
        else:
            share = (n - offset) / multiplier
            if nudge:
                share = float(np.nextafter(share, nudge * np.inf))
        ties.append(share)
    rest = 1.0 - sum(ties)
    assume(rest > 0.0)
    row = np.zeros(k)
    cols = draw(st.permutations(range(k)))[:positive]
    row[list(cols)] = ties + [rest]
    return row


@st.composite
def ordinary_row(draw, k):
    """Random shares with zeros and duplicated values; all-zero rows are hung."""
    pool = draw(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=3)
    )
    values = st.one_of(st.just(0.0), st.sampled_from(pool))
    return np.array(draw(st.lists(values, min_size=k, max_size=k)))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    k=st.integers(min_value=1, max_value=13),
    house=st.integers(min_value=1, max_value=630),
    method=st.sampled_from(["sainte-lague", "dhondt"]),
)
def test_allocator_batch_matches_brute_force_at_near_ties(data, k, house, method):
    rows = data.draw(
        st.lists(
            st.one_of(near_tie_row(k, house, method), ordinary_row(k)),
            min_size=1,
            max_size=6,
        )
    )
    got = allocate_many(np.vstack(rows), house, method)
    for row, seats in zip(rows, got):
        want = [0] * k if not row.any() else highest_averages(
            row, house, method
        )
        assert list(seats) == want, f"{row.tolist()} -> {seats.tolist()} != {want}"


def test_allocator_start_near_but_off_an_integer():
    # Starts 5.000000002, 1.0000000005 and 5.4999999975: near integers, but
    # further from them than an ulp.
    shares = np.array([[0.4500000002, 0.05000000005000001, 0.49999999975000003]])
    assert highest_averages(shares[0], 10, "sainte-lague") == [4, 1, 5]
    assert allocate_many(shares, 10, "sainte-lague").tolist() == [[4, 1, 5]]


def test_safety_net_mends_float_near_tie(monkeypatch):
    # 0.24999999999999997 * 10 + 0.5 lands an ulp below 3, so the start is
    # [2, 2, 6] with the right total; but party 0's third quotient ties
    # party 1's second in float and wins on column order.
    shares = np.array([[0.24999999999999997, 0.15, 0.6000000000000001]])
    seen = []
    net = electoral._safety_net

    def spy(sub_shares, sub_seats, method, guard):
        before = sub_seats.T.tolist()
        net(sub_shares, sub_seats, method, guard)
        seen.append((before, sub_seats.T.tolist()))

    monkeypatch.setattr(electoral, "_safety_net", spy)
    got = allocate_many(shares, 10)
    assert seen == [([[2, 2, 6]], [[3, 1, 6]])]
    assert got.tolist() == [highest_averages(shares[0], 10)]


@pytest.mark.parametrize("method", ["sainte-lague", "dhondt"])
def test_safety_net_sees_only_near_integer_rows(monkeypatch, method):
    # Dirichlet rows start off the integers and often need repair; small
    # integer vote counts put many starts exactly on an integer.
    rng = np.random.default_rng(11)
    house = 10
    rows = np.vstack([
        rng.dirichlet(np.ones(5), size=300),
        rng.integers(0, 4, size=(300, 5)).astype(float),
    ])
    rows = rows[rows.sum(axis=1) > 0]
    shares = rows / rows.sum(axis=1, keepdims=True)
    positive = shares > 0
    if method == "sainte-lague":
        x = shares * house + 0.5
    else:
        x = shares * (house + 0.5 * positive.sum(axis=1))[:, None]
    frac = x - np.floor(x)
    near = (((frac < 1e-9) | (frac > 1 - 1e-9)) & positive).any(axis=1)
    repaired = np.floor(x).sum(axis=1) != house
    assert near.any() and (repaired & ~near).any()

    seen = []
    net = electoral._safety_net

    def spy(sub_shares, sub_seats, method, guard):
        seen.append(sub_shares.T.copy())
        net(sub_shares, sub_seats, method, guard)

    monkeypatch.setattr(electoral, "_safety_net", spy)
    got = allocate_many(rows, house, method)
    assert len(seen) == 1
    assert np.array_equal(seen[0], shares[near])
    for row, seats in zip(rows, got):
        assert list(seats) == highest_averages(row, house, method)


def test_allocator_scale_invariance():
    rng = np.random.default_rng(5)
    rows = rng.dirichlet(np.ones(5), size=300)
    base = allocate_many(rows, 598)
    for c in (2.0, 0.25, 7.3):
        assert np.array_equal(allocate_many(rows * c, 598), base)


def test_allocator_batch_equals_rowwise():
    rng = np.random.default_rng(6)
    rows = rng.dirichlet(np.ones(4), size=200)
    batch = allocate_many(rows, 99)
    single = np.vstack([allocate_many(rows[i : i + 1], 99) for i in range(200)])
    assert np.array_equal(batch, single)


def test_allocator_seat_totals_exact():
    rng = np.random.default_rng(7)
    rows = rng.dirichlet(np.ones(6), size=500)
    assert (allocate_many(rows, 598).sum(axis=1) == 598).all()


# ---------------------------------------------------------------- majorities

def test_has_majority_boundaries():
    # strictly more than half the house: 300 of 598 is the edge case
    for seats, hits in ((299, 0), (300, 1), (0, 0), (598, 1)):
        rows = {"a": [seats], "b": [598 - seats]}
        assert majority_hits(rows, ("a",), 598) == (hits, 0)
    rows = {"a": [299, 300, 0, 598], "b": [299, 298, 598, 0]}
    assert majority_hits(rows, ("a",), 598) == (2, 0)


def test_coalition_seats_sums_and_errors():
    # A coalition of s seats wins a house of 2s - 1 and loses one of 2s,
    # so the hits pin its seat sum.
    rows = {"a": [5], "b": [3], "c": [2]}
    for coalition, total in ((("a", "c"), 7), (("a", "b", "c"), 10)):
        assert majority_hits(rows, coalition, 2 * total - 1)[0] == 1
        assert majority_hits(rows, coalition, 2 * total)[0] == 0
    post = DirichletPosterior(parties=("a", "b", "other"), alpha=(5.0, 3.0, 2.0),
                              other_id="other")
    with pytest.raises(ValueError, match="unknown-party"):
        estimate_poe(post, RULES, EventSpec("coalition-majority", ("a", "zz")), 1000, 0)


def test_coalition_seats_monotone_in_members():
    rng = np.random.default_rng(8)
    seats = allocate_many(rng.dirichlet(np.ones(5), size=50), 40)
    for row in seats:
        rows = dict(zip("abcde", ([s] for s in row.tolist())))
        assert majority_hits(rows, ("a", "b", "c"), 40)[0] >= majority_hits(rows, ("a", "b"), 40)[0]


def test_subset_sufficient_cases():
    rows = {"a": [310], "b": [40], "c": [10], "d": [238]}
    assert majority_hits(rows, ("a", "b", "c"), 598) == (1, 1)  # {a} alone suffices
    assert majority_hits(rows, ("a", "b"), 598) == (1, 1)
    assert majority_hits(rows, ("a",), 598) == (1, 0)  # no proper subset
    # only the full coalition reaches 300 of 598
    balanced = {"a": [150], "b": [140], "c": [20], "d": [288]}
    assert majority_hits(balanced, ("a", "b", "c"), 598) == (1, 0)
    both = {p: rows[p] + balanced[p] for p in rows}
    assert majority_hits(both, ("a", "b", "c"), 598) == (2, 1)


def test_subset_sufficient_matches_drop_weakest_reduction():
    # _event_hits counts only the coalition minus its weakest member; the
    # reference enumerates every proper subset.
    rng = np.random.default_rng(9)
    house = 101
    seats = allocate_many(rng.dirichlet(np.ones(5), size=200), house)
    for row in seats:
        coalition = tuple(rng.choice(list("abcde"), size=3, replace=False))
        want = some_proper_subset_wins(dict(zip("abcde", row.tolist())), coalition, house)
        rows = dict(zip("abcde", ([s] for s in row.tolist())))
        assert majority_hits(rows, coalition, house)[1] == want


def test_rules_validation():
    with pytest.raises(ValueError):
        ElectionRules(threshold=0.5)
    with pytest.raises(ValueError):
        ElectionRules(house_size=0)
    with pytest.raises(ValueError):
        ElectionRules(method="quota")


def test_house_size_bound_keeps_int16_seats():
    rules = ElectionRules(house_size=MAX_HOUSE_SIZE, method="dhondt")
    with pytest.raises(ValueError, match="house_size"):
        ElectionRules(house_size=MAX_HOUSE_SIZE + 1)
    # the D'Hondt start overshoots by up to l/2 seats; at the bound a
    # 13-party row still fits int16 and gets the whole house
    shares = np.full((1, 13), 1.0)
    seats = allocate_many(shares, rules.house_size, rules.method)
    assert seats.dtype == np.int16
    assert int(seats.sum()) == MAX_HOUSE_SIZE
    with pytest.raises(ValueError, match="int16"):
        allocate_many(np.ones((1, 4)), np.iinfo(np.int16).max - 1, "dhondt")
