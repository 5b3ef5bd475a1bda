import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koalition import electoral
from koalition.electoral import (
    MAX_HOUSE_SIZE,
    ElectionRules,
    SeatAllocation,
    allocate_many,
    allocate_seats,
    apply_threshold,
    coalition_seats,
    has_majority,
    subset_sufficient,
)

RULES = ElectionRules()


def brute_force_highest_averages(shares, house, method="sainte-lague"):
    """Enumerate every quotient, sort by (-q, party index), take the top."""
    r = np.asarray(shares, dtype=float)
    r = r / r.sum()
    entries = []
    for k, s in enumerate(r):
        for j in range(1, house + 1):
            div = (2 * j - 1) if method == "sainte-lague" else j
            entries.append((-(s / div), k, j))
    entries.sort()
    seats = [0] * len(r)
    for _, k, _ in entries[:house]:
        seats[k] += 1
    return seats


# ---------------------------------------------------------------- threshold

def test_threshold_renormalizes_spec_example():
    shares = {"a": 0.40, "b": 0.38, "c": 0.18, "other": 0.04}
    out = apply_threshold(shares, RULES, other_id="other")
    total = 0.40 + 0.38 + 0.18
    assert out == {"a": 0.40 / total, "b": 0.38 / total, "c": 0.18 / total}
    assert sum(out.values()) == pytest.approx(1.0, abs=1e-12)


def test_threshold_boundary_is_strict_below():
    shares = {"a": 0.05, "b": 0.90, "other": 0.05}
    out = apply_threshold(shares, RULES, other_id="other")
    assert "a" in out  # exactly 5% enters
    shares = {"a": 0.049999, "b": 0.900001, "other": 0.05}
    out = apply_threshold(shares, RULES, other_id="other")
    assert "a" not in out


def test_threshold_other_never_eligible():
    shares = {"a": 0.50, "other": 0.50}
    out = apply_threshold(shares, RULES, other_id="other")
    assert out == {"a": 1.0}


def test_threshold_all_below_gives_hung():
    shares = {"a": 0.04, "b": 0.03, "other": 0.93}
    assert apply_threshold(shares, RULES, other_id="other") == {}


# ---------------------------------------------------------------- allocation

def test_allocation_spec_example():
    out = allocate_seats({"a": 0.48, "b": 0.32, "c": 0.20},
                         ElectionRules(house_size=10))
    assert out.seats == {"a": 5, "b": 3, "c": 2}
    assert out.eligible == {"a", "b", "c"}


def test_allocation_monopoly():
    out = allocate_seats({"a": 1.0}, RULES)
    assert out.seats == {"a": 598}


def test_allocation_even_split_tie():
    out = allocate_seats({"a": 0.5, "b": 0.5}, ElectionRules(house_size=2))
    assert out.seats == {"a": 1, "b": 1}
    out = allocate_seats({"a": 0.5, "b": 0.5}, ElectionRules(house_size=3))
    assert out.seats == {"a": 2, "b": 1}  # tie falls to the earlier party


def test_allocation_hung_is_all_zero():
    out = allocate_seats({}, RULES, parties=("a", "b"))
    assert out.hung
    assert out.seats == {"a": 0, "b": 0}


def test_allocation_fills_universe_with_zeros():
    out = allocate_seats({"a": 1.0}, ElectionRules(house_size=5), parties=("a", "b"))
    assert out.seats == {"a": 5, "b": 0}


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
    assert got == brute_force_highest_averages(shares, house, method)


@st.composite
def near_tie_row(draw, k, house, method):
    """A row whose start lands exactly on, or an ulp from, an integer.

    Some parties get shares (n - 1/2) / h (Sainte-Lague) or n / (h + l/2)
    (D'Hondt, l parties with a positive share), nudged by at most one ulp;
    one party takes the rest. Further parties copy a tie share or get 0.
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
        share = (n - offset) / multiplier
        nudge = draw(st.sampled_from([-1, 0, 1]))
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
        want = [0] * k if not row.any() else brute_force_highest_averages(
            row, house, method
        )
        assert list(seats) == want, f"{row.tolist()} -> {seats.tolist()} != {want}"


def test_safety_net_mends_float_near_tie(monkeypatch):
    # 0.24999999999999997 * 10 + 0.5 lands an ulp below 3, so the start is
    # [2, 2, 6] with the right total; but party 0's third quotient ties
    # party 1's second in float and wins on column order.
    shares = np.array([[0.24999999999999997, 0.15, 0.6000000000000001]])
    seen = []
    net = electoral._safety_net

    def spy(sub_shares, sub_seats, method, guard):
        before = sub_seats.tolist()
        net(sub_shares, sub_seats, method, guard)
        seen.append((before, sub_seats.tolist()))

    monkeypatch.setattr(electoral, "_safety_net", spy)
    got = allocate_many(shares, 10)
    assert seen == [([[2, 2, 6]], [[3, 1, 6]])]
    assert got.tolist() == [brute_force_highest_averages(shares[0], 10)]


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
        seen.append(sub_shares.copy())
        net(sub_shares, sub_seats, method, guard)

    monkeypatch.setattr(electoral, "_safety_net", spy)
    got = allocate_many(rows, house, method)
    assert len(seen) == 1
    assert np.array_equal(seen[0], shares[near])
    for row, seats in zip(rows, got):
        assert list(seats) == brute_force_highest_averages(row, house, method)


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
    assert not has_majority(299, RULES)
    assert has_majority(300, RULES)
    assert not has_majority(0, RULES)
    assert has_majority(598, RULES)


def test_coalition_seats_sums_and_errors():
    alloc = SeatAllocation(seats={"a": 5, "b": 3, "c": 2}, eligible=frozenset("abc"))
    assert coalition_seats(alloc, ("a", "c")) == 7
    assert coalition_seats(alloc, ("a", "b", "c")) == 10
    with pytest.raises(ValueError, match="unknown-party"):
        coalition_seats(alloc, ("a", "zz"))


def test_coalition_seats_monotone_in_members():
    rng = np.random.default_rng(8)
    for _ in range(50):
        shares = rng.dirichlet(np.ones(5))
        alloc = allocate_seats(dict(zip("abcde", shares)), ElectionRules(house_size=40))
        assert coalition_seats(alloc, ("a", "b", "c")) >= coalition_seats(alloc, ("a", "b"))


def test_subset_sufficient_cases():
    rules = RULES
    alloc = SeatAllocation(
        seats={"a": 310, "b": 40, "c": 10, "d": 238}, eligible=frozenset("abcd")
    )
    assert subset_sufficient(alloc, ("a", "b", "c"), rules)  # {a} alone suffices
    assert subset_sufficient(alloc, ("a", "b"), rules)
    assert not subset_sufficient(alloc, ("a",), rules)  # no proper subset
    # only the full coalition reaches 300 of 598
    balanced = SeatAllocation(
        seats={"a": 150, "b": 140, "c": 20, "d": 288}, eligible=frozenset("abcd")
    )
    assert has_majority(coalition_seats(balanced, ("a", "b", "c")), rules)
    assert not subset_sufficient(balanced, ("a", "b", "c"), rules)


def test_subset_sufficient_matches_drop_weakest_reduction():
    rng = np.random.default_rng(9)
    rules = ElectionRules(house_size=101)
    for _ in range(200):
        shares = rng.dirichlet(np.ones(5))
        alloc = allocate_seats(dict(zip("abcde", shares)), rules)
        coalition = tuple(rng.choice(list("abcde"), size=3, replace=False))
        member = np.array([alloc.seats[p] for p in coalition])
        fast = 2 * (member.sum() - member.min()) > rules.house_size
        assert subset_sufficient(alloc, coalition, rules) == fast


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
