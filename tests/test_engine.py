import datetime as dt
import gc
import math
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta

from koalition import engine
from koalition.electoral import ElectionRules, apply_threshold, allocate_seats
from koalition.engine import (
    MIN_DRAWS,
    EventSpec,
    estimate_poe,
    sample_parliaments,
    seat_distribution,
    share_bands,
)
from koalition.pooling import NoPollsError
from koalition.polls import Poll, validate_poll
from koalition.posterior import DirichletPosterior, posterior_at

AS_OF = dt.date(2018, 3, 5)
DAY = dt.timedelta(days=1)
BLOCK = 4096  # draws per Philox block, the unit of parallel work
SIM_FIELDS = ("shares", "eligible", "seats", "hung")

RULES = ElectionRules()
# threshold-free odd house for analytic two-party checks
OPEN_RULES = ElectionRules(threshold=0.0, house_size=599)


@pytest.fixture(scope="module")
def german_posterior():
    alpha = {
        "union": 660.5, "spd": 340.5, "gruene": 240.5, "fdp": 200.5,
        "linke": 200.5, "afd": 260.5, "other": 100.5,
    }
    return DirichletPosterior(
        parties=tuple(alpha), alpha=tuple(alpha.values()), other_id="other"
    )


def two_party(a_counts, b_counts):
    return DirichletPosterior(
        parties=("a", "b", "other"),
        alpha=(a_counts + 0.5, b_counts + 0.5, 0.5),
        other_id="other",
    )


def test_event_spec_validation():
    with pytest.raises(ValueError):
        EventSpec("coalition-majority", ())
    with pytest.raises(ValueError):
        EventSpec("strongest-party", ("a", "b"))
    with pytest.raises(ValueError):
        EventSpec("winner", ("a",))
    with pytest.raises(ValueError):
        EventSpec("coalition-majority", ("a", "a"))


def test_insufficient_draws_refused(german_posterior):
    with pytest.raises(ValueError, match="insufficient-draws"):
        estimate_poe(german_posterior, RULES, EventSpec("coalition-majority", ("spd",)),
                     999, seed=1)


def test_complement_identity_exact(german_posterior):
    event = EventSpec("coalition-majority", ("union", "spd"))
    complement = EventSpec("coalition-majority", ("union", "spd"), negate=True)
    r = estimate_poe(german_posterior, RULES, event, 50_000, seed=42)
    rn = estimate_poe(german_posterior, RULES, complement, 50_000, seed=42)
    assert r.hits + rn.hits == 50_000
    assert r.probability + rn.probability == 1.0


def test_two_party_majority_matches_beta_tail():
    m = 100_000
    for a, b, seed in ((491, 509, 1), (520, 480, 2), (500, 500, 3)):
        post = two_party(a, b)
        r = estimate_poe(post, OPEN_RULES,
                         EventSpec("coalition-majority", ("a",)), m, seed=seed)
        analytic = beta.sf(0.5, a + 0.5, b + 0.5)
        stderr = max(r.mc_stderr, 1e-12)
        assert abs(r.probability - analytic) <= 3 * stderr


def test_coalition_monotone_on_shared_draws(german_posterior):
    small = estimate_poe(german_posterior, RULES,
                         EventSpec("coalition-majority", ("spd", "gruene")),
                         20_000, seed=5)
    large = estimate_poe(german_posterior, RULES,
                         EventSpec("coalition-majority", ("spd", "gruene", "fdp")),
                         20_000, seed=5)
    assert large.probability >= small.probability
    assert large.hits >= small.hits


def test_subset_probability_bounded(german_posterior):
    result = estimate_poe(german_posterior, RULES,
                          EventSpec("coalition-majority", ("union", "spd", "fdp")),
                          20_000, seed=6)
    assert 0.0 <= result.subset_probability <= result.probability <= 1.0


def test_subset_probability_zero_for_single_party(german_posterior):
    result = estimate_poe(german_posterior, RULES,
                          EventSpec("coalition-majority", ("union",)), 10_000, seed=6)
    assert result.subset_probability == 0.0


def test_full_partition_is_certain(german_posterior):
    event = EventSpec("coalition-majority", tuple(german_posterior.parties))
    result = estimate_poe(german_posterior, RULES, event, 10_000, seed=7)
    assert result.probability == 1.0
    assert result.mc_stderr == 0.0


def test_mc_stderr_consistent(german_posterior):
    r = estimate_poe(german_posterior, RULES,
                     EventSpec("coalition-majority", ("union", "fdp")), 10_000, seed=8)
    assert r.mc_stderr == pytest.approx(
        math.sqrt(r.probability * (1 - r.probability) / r.m), abs=1e-12
    )


def test_party_above_threshold_event(german_posterior):
    sure = estimate_poe(german_posterior, RULES,
                        EventSpec("party-above-threshold", ("union",)), 5_000, seed=9)
    assert sure.probability == 1.0
    other = estimate_poe(german_posterior, RULES,
                         EventSpec("party-above-threshold", ("other",)), 5_000, seed=9)
    assert other.probability == 0.0  # the residual bucket is never eligible


def test_strongest_party_probabilities_partition(german_posterior):
    m = 20_000
    total_hits = 0
    for pid in german_posterior.parties:
        r = estimate_poe(german_posterior, RULES,
                         EventSpec("strongest-party", (pid,)), m, seed=10)
        total_hits += r.hits
    # ties and hung draws are no one's win, so the sum never exceeds m
    assert total_hits <= m
    union = estimate_poe(german_posterior, RULES,
                         EventSpec("strongest-party", ("union",)), m, seed=10)
    assert union.probability > 0.99


def test_engine_agrees_with_scalar_mechanics(collect_simulation, german_posterior):
    m = 2_000
    sim = collect_simulation(german_posterior, RULES, m, seed=11)
    for i in (0, 17, 917, 1999):
        shares = dict(zip(german_posterior.parties, sim.shares[i]))
        eligible = apply_threshold(shares, RULES, other_id="other")
        alloc = allocate_seats(eligible, RULES, parties=german_posterior.parties)
        assert alloc.seats == {
            p: int(s) for p, s in zip(german_posterior.parties, sim.seats[i])
        }


def _seat_shares(sim, coalition):
    """The coalition's seat share per draw, as seat_distribution computes it."""
    cols = [sim.parties.index(p) for p in coalition]
    return sim.seats[:, cols].sum(axis=1) / sim.rules.house_size


def test_simulation_bytes_do_not_depend_on_workers(
    monkeypatch, collect_simulation, german_posterior
):
    # Up to four threads whatever this machine's core count, switching
    # often, so the blocks of one run interleave as much as they can.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    m = 3 * BLOCK + 5
    coalition = ("union", "spd")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [collect_simulation(german_posterior, RULES, m, 31, w) for w in (1, 2, 4)]
        dists = [seat_distribution(german_posterior, RULES, coalition, m, 31, w)
                 for w in (1, 2, 4)]
    finally:
        sys.setswitchinterval(interval)
    for sim in runs[1:]:
        for name in SIM_FIELDS:
            assert getattr(sim, name).tobytes() == getattr(runs[0], name).tobytes(), name
    results = [
        (_seat_shares(sim, coalition).tobytes(), dist.density.tobytes(), dist.ci95)
        for sim, dist in zip(runs, dists)
    ]
    assert results[1] == results[0] and results[2] == results[0]


def test_simulation_prefix_stable_through_mechanics(collect_simulation, german_posterior):
    full = collect_simulation(german_posterior, RULES, 3 * BLOCK + 5, 31, 2)
    short = collect_simulation(german_posterior, RULES, BLOCK + 7, 31, 1)
    for name in SIM_FIELDS:
        want = getattr(full, name)[: BLOCK + 7]
        assert getattr(short, name).tobytes() == want.tobytes(), name


def test_simulation_holds_no_full_size_temporary(collect_simulation, german_posterior):
    # Besides its outputs, a run may hold only block-sized buffers; one
    # m x K float array beside them would exceed the slack allowed here.
    m = 60 * BLOCK
    tracemalloc.start()
    try:
        sim = collect_simulation(german_posterior, RULES, m, seed=32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = sum(getattr(sim, name).nbytes for name in SIM_FIELDS)
    assert peak - outputs < sim.shares.nbytes / 2


def _traced_seat_distribution(posterior, m, seed):
    """seat_distribution under tracemalloc: (peak, retained).

    retained is what stays allocated once the result has been dropped.
    """
    # A small run first, so that one-time lazy set-up is not measured.
    seat_distribution(posterior, RULES, ("union", "spd"), MIN_DRAWS, seed)
    tracemalloc.start()
    try:
        dist = seat_distribution(posterior, RULES, ("union", "spd"), m, seed)
        _, peak = tracemalloc.get_traced_memory()
        del dist
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, retained


def test_seat_distribution_holds_one_float_per_draw(german_posterior):
    # Beside its one float per draw only block buffers and the KDE's
    # working copies exist; the (m, K) shares alone would exceed this bound.
    m = 60 * BLOCK
    peak, _ = _traced_seat_distribution(german_posterior, m, 34)
    assert peak - m * 8 < m * len(german_posterior.parties) * 8 / 4


@pytest.mark.parametrize("coalition, message", [
    (("union", "spd", "union"), "duplicate party"),
    ((), "must not be empty"),
])
def test_seat_distribution_rejects_a_coalition_no_event_accepts(
    german_posterior, coalition, message
):
    with pytest.raises(ValueError, match=message):
        seat_distribution(german_posterior, RULES, coalition, MIN_DRAWS, 1)


def test_seat_distribution_keeps_nothing_alive(german_posterior):
    # No cache: once the result is dropped, the run's memory is gone.
    m = 60 * BLOCK
    _, retained = _traced_seat_distribution(german_posterior, m, 35)
    assert retained < m * 8 / 4


def test_seat_distribution_series_keeps_no_draws(german_posterior):
    # A series keeps each date's grid and density, never its m draws:
    # three dates together retain less than a quarter of one date's floats.
    m = 60 * BLOCK
    dates = [AS_OF, AS_OF + DAY, AS_OF + 2 * DAY]
    seat_distribution(german_posterior, RULES, ("union", "spd"), MIN_DRAWS, 36)
    tracemalloc.start()
    try:
        points, _ = engine.per_date(
            dates, lambda date: german_posterior,
            lambda post: seat_distribution(post, RULES, ("union", "spd"), m, 36),
        )
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == len(dates)
    assert retained < m * 8 / 4


def test_seat_distribution_consistency(collect_simulation, german_posterior):
    m = 20_000
    coalition = ("union", "spd")
    dist = seat_distribution(german_posterior, RULES, coalition, m, seed=13)
    poe = estimate_poe(german_posterior, RULES,
                       EventSpec("coalition-majority", coalition), m, seed=13)
    shares = _seat_shares(collect_simulation(german_posterior, RULES, m, 13), coalition)
    assert dist.majority_mass == poe.probability
    assert dist.majority_mass == float((shares > 0.5).mean())


def test_seat_distribution_quantiles_nearest_rank(collect_simulation, german_posterior):
    m = 5_000
    dist = seat_distribution(german_posterior, RULES, ("union",), m, seed=14)
    sim = collect_simulation(german_posterior, RULES, m, 14)
    ordered = np.sort(_seat_shares(sim, ("union",)))
    assert dist.ci95[0] == ordered[math.ceil(0.025 * m) - 1]
    assert dist.ci95[1] == ordered[math.ceil(0.975 * m) - 1]
    assert dist.ci95[0] <= dist.ci95[1]


def test_seat_distribution_density_integrates_to_one(german_posterior):
    dist = seat_distribution(german_posterior, RULES, ("union", "fdp"), 20_000, seed=15)
    integral = np.trapezoid(dist.density, dist.grid)
    assert integral == pytest.approx(1.0, abs=1e-3)
    assert (dist.density >= 0).all()


def test_density_is_the_one_product_kernel_estimate():
    # The kernel matrix is built a few grid rows at a time; each density
    # float is still the one-product estimate's, also when there are more
    # distinct seat shares than rows in a chunk.
    grid = np.linspace(0.0, 1.0, engine.DENSITY_GRID_POINTS)
    rng = np.random.default_rng(3)
    for house in (598, 2000):
        values = np.round(rng.normal(0.5, 0.1, 50_000).clip(0.0, 1.0) * house) / house
        uniq, counts = np.unique(values, return_counts=True)
        sd = values.std(ddof=1)
        ordered = np.sort(values)
        bw = engine._silverman_bandwidth(ordered, sd)
        centers = np.concatenate([uniq, -uniq, 2.0 - uniq])
        w = np.tile(counts / values.size, 3)
        z = (grid[:, None] - centers[None, :]) / bw
        whole = (np.exp(-0.5 * z * z) @ w) / (bw * math.sqrt(2.0 * math.pi))
        assert uniq.size > engine._KDE_ROWS
        assert np.array_equal(engine._kde_reflected(ordered, sd, grid), whole)


def _summaries_by_unique_and_percentile(draws):
    """Density, ci95 and majority mass by np.unique, np.percentile, the std
    in draw order, a sorted nearest rank and a > 0.5 count."""
    uniq, counts = np.unique(draws, return_counts=True)
    sd = float(draws.std(ddof=1))
    q75, q25 = np.percentile(draws, [75, 25])
    spread = [s for s in (sd, float(q75 - q25) / 1.34) if s > 0]
    bw = engine._BW_FLOOR
    if spread:
        bw = max(bw, 0.9 * min(spread) * draws.size ** (-0.2))
    grid = np.linspace(0.0, 1.0, engine.DENSITY_GRID_POINTS)
    centers = np.concatenate([uniq, -uniq, 2.0 - uniq])
    w = np.tile(counts / draws.size, 3)
    density = np.empty(grid.size)
    for lo in range(0, grid.size, engine._KDE_ROWS):
        z = (grid[lo:lo + engine._KDE_ROWS, None] - centers[None, :]) / bw
        density[lo:lo + engine._KDE_ROWS] = np.exp(-0.5 * z * z) @ w
    density /= bw * math.sqrt(2.0 * math.pi)
    return density, _nearest_rank_band(draws), int((draws > 0.5).sum()) / draws.size


@settings(max_examples=60, deadline=None)
@given(
    house=st.one_of(st.integers(1, 16383), st.sampled_from([1, 2, 3, 598, 16383])),
    m=st.sampled_from([MIN_DRAWS, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
    shape=st.sampled_from(["normal", "uniform", "ends", "all-equal"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_seat_shares_sorted_in_place_give_the_unique_and_percentile_summaries(
    house, m, shape, seed
):
    # The coalition's seat totals are fed straight to seat_distribution's
    # block hook, in reverse block order; the summaries it reads from its
    # sorted sample must equal those of the formulas above, bit for bit.
    rng = np.random.default_rng(seed)
    if shape == "normal":  # clipped, so totals of 0 and h are common
        center, scale = rng.integers(0, house + 1), rng.uniform(0.5, house)
        totals = np.clip(np.round(rng.normal(center, scale, m)), 0, house).astype(np.int16)
    elif shape == "uniform":
        totals = rng.integers(0, house + 1, m).astype(np.int16)
    elif shape == "ends":
        totals = rng.choice(np.array([0, house], dtype=np.int16), m)
    else:
        totals = np.full(m, rng.choice([0, house, rng.integers(0, house + 1)]), np.int16)

    def run_simulation(posterior, rules, m_, seed_, workers=1, *, on_block):
        for lo in reversed(range(0, m, BLOCK)):
            block = totals[lo : lo + BLOCK]
            seats = np.stack([block, house - block], axis=1).astype(np.int16)
            on_block(lo, lo + block.size, None, None, seats, None)

    post = DirichletPosterior(parties=("a", "b"), alpha=(1.0, 1.0))
    rules = ElectionRules(threshold=0.0, house_size=house)
    with mock.patch.object(engine, "run_simulation", run_simulation):
        dist = seat_distribution(post, rules, ("a",), m, seed=0)
    density, ci95, majority_mass = _summaries_by_unique_and_percentile(totals / house)
    assert dist.density.tobytes() == density.tobytes()
    assert dist.ci95 == ci95
    assert dist.majority_mass == majority_mass


def test_seat_distribution_subthreshold_party_degenerate(collect_simulation):
    # party a sits ~21 sigma below the 5% threshold: no draw crosses
    post = DirichletPosterior(
        parties=("a", "b", "other"), alpha=(200.5, 9600.5, 200.5), other_id="other"
    )
    dist = seat_distribution(post, RULES, ("a",), 2_000, seed=16)
    sim = collect_simulation(post, RULES, 2_000, 16)
    assert (_seat_shares(sim, ("a",)) == 0.0).all()
    assert dist.ci95 == (0.0, 0.0)
    assert dist.majority_mass == 0.0


def test_seat_distribution_full_house(collect_simulation, german_posterior):
    dist = seat_distribution(
        german_posterior, RULES, german_posterior.parties, 2_000, seed=17
    )
    sim = collect_simulation(german_posterior, RULES, 2_000, 17)
    assert (_seat_shares(sim, german_posterior.parties) == 1.0).all()
    assert dist.ci95 == (1.0, 1.0) and dist.majority_mass == 1.0


def test_sample_parliaments_prefix_and_determinism(collect_simulation, german_posterior):
    parls = sample_parliaments(german_posterior, RULES, 6, seed=18)
    again = sample_parliaments(german_posterior, RULES, 6, seed=18)
    assert parls == again
    assert len(parls) == 6
    sim = collect_simulation(german_posterior, RULES, 2_000, seed=18)
    for i, alloc in enumerate(parls):
        assert alloc.seats == {
            p: int(s) for p, s in zip(german_posterior.parties, sim.seats[i])
        }
        assert sum(alloc.seats.values()) == RULES.house_size


def test_sample_parliaments_concentration_limit():
    post = DirichletPosterior(
        parties=("a", "b", "other"),
        alpha=(0.52e12, 0.40e12, 0.08e12),
        other_id="other",
    )
    alloc = sample_parliaments(post, OPEN_RULES, 1, seed=19)[0]
    expected = allocate_seats(
        apply_threshold({"a": 0.52, "b": 0.40, "other": 0.08}, OPEN_RULES, "other"),
        OPEN_RULES,
        parties=("a", "b", "other"),
    )
    assert alloc.seats == expected.seats


def make_poll(registry, pollster, date, n=1000):
    shares = dict(zip(registry.named_ids, (0.33, 0.17, 0.12, 0.10, 0.10, 0.13)))
    return validate_poll(Poll(pollster, date, n, shares), registry)


def nowcast_of(polls, registry):
    """per_date's posterior_of for a nowcast series: each date's posterior."""
    return lambda date: posterior_at(polls, registry, date)


def test_poe_series_constant_polls_flat(registry):
    polls = [make_poll(registry, "P", AS_OF)]
    event = EventSpec("coalition-majority", ("union", "spd"))
    points, _ = engine.per_date(
        [AS_OF, AS_OF + DAY, AS_OF + 2 * DAY], nowcast_of(polls, registry),
        lambda post: estimate_poe(post, RULES, event, 2_000, 20),
    )
    probs = {r.probability for _, r in points}
    assert len(points) == 3
    assert len(probs) == 1  # same pooled input, same seed: identical PoE


def test_poe_series_skips_empty_dates(registry):
    polls = [make_poll(registry, "P", AS_OF)]
    event = EventSpec("coalition-majority", ("union",))
    points, skipped = engine.per_date(
        [AS_OF - 60 * DAY, AS_OF], nowcast_of(polls, registry),
        lambda post: estimate_poe(post, RULES, event, 2_000, 21),
    )
    assert skipped == (AS_OF - 60 * DAY,)
    assert [d for d, _ in points] == [AS_OF]


def test_poe_series_no_data(registry):
    polls = [make_poll(registry, "P", AS_OF)]
    event = EventSpec("coalition-majority", ("union",))
    with pytest.raises(ValueError, match="no-data"):
        engine.per_date([AS_OF - 90 * DAY], nowcast_of(polls, registry),
                        lambda post: estimate_poe(post, RULES, event, 2_000, 1))


def test_poe_series_requires_sorted_dates(registry):
    polls = [make_poll(registry, "P", AS_OF)]
    event = EventSpec("coalition-majority", ("union",))
    with pytest.raises(ValueError, match="ascending"):
        engine.per_date([AS_OF, AS_OF - DAY], nowcast_of(polls, registry),
                        lambda post: estimate_poe(post, RULES, event, 2000, 1))


def _posterior_of(polled):
    """A posterior_of stub: the date's ordinal where it is polled, else no polls."""

    def posterior_of(date):
        if date not in polled:
            raise NoPollsError(date, 14)
        return date.toordinal()

    return posterior_of


def test_per_date_returns_points_and_skipped_dates_in_order():
    dates = [AS_OF + i * DAY for i in range(6)]
    polled = {dates[1], dates[3], dates[4]}
    points, skipped = engine.per_date(dates, _posterior_of(polled), lambda p: -p)
    assert points == tuple((d, -d.toordinal()) for d in dates if d in polled)
    assert skipped == (dates[0], dates[2], dates[5])


def test_per_date_takes_a_one_shot_iterator():
    dates = [AS_OF + i * DAY for i in range(3)]
    points, skipped = engine.per_date(iter(dates), _posterior_of(set(dates)), lambda p: p)
    assert points == tuple((d, d.toordinal()) for d in dates)
    assert skipped == ()


def test_per_date_no_data_when_every_date_is_skipped():
    with pytest.raises(ValueError, match="no-data"):
        engine.per_date([AS_OF, AS_OF + DAY], _posterior_of(set()), lambda p: p)


def test_per_date_requires_ascending_dates_before_any_work():
    calls = []
    with pytest.raises(ValueError, match="ascending"):
        engine.per_date([AS_OF + DAY, AS_OF], calls.append, calls.append)
    assert calls == []


def test_distribution_series_mirrors_poe_series(registry):
    polls = [make_poll(registry, "P", AS_OF), make_poll(registry, "Q", AS_OF - 3 * DAY)]
    dates = [AS_OF - 3 * DAY, AS_OF]
    dists, _ = engine.per_date(
        dates, nowcast_of(polls, registry),
        lambda post: seat_distribution(post, RULES, ("union", "spd"), 2_000, 22),
    )
    assert len(dists) == 2
    event = EventSpec("coalition-majority", ("union", "spd"))
    poes, _ = engine.per_date(dates, nowcast_of(polls, registry),
                              lambda post: estimate_poe(post, RULES, event, 2_000, 22))
    for (d1, dist), (d2, poe) in zip(dists, poes):
        assert d1 == d2
        assert dist.majority_mass == poe.probability


def test_poe_invariant_under_registry_permutation(german_posterior):
    # party-keyed draw streams make probabilities exactly order-independent
    order = ("spd", "afd", "union", "linke", "gruene", "fdp", "other")
    alpha_map = dict(zip(german_posterior.parties, german_posterior.alpha))
    permuted = DirichletPosterior(
        parties=order,
        alpha=tuple(alpha_map[p] for p in order),
        other_id="other",
    )
    event = EventSpec("coalition-majority", ("union", "spd"))
    base = estimate_poe(german_posterior, RULES, event, 20_000, seed=24)
    swapped = estimate_poe(permuted, RULES, event, 20_000, seed=24)
    assert base.probability == swapped.probability
    assert base.subset_probability == swapped.subset_probability


def test_hung_fraction_diagnostic():
    # every party hovers below the threshold: most draws are hung
    post = DirichletPosterior(
        parties=("a", "b", "other"),
        alpha=(30.5, 30.5, 940.5),
        other_id="other",
    )
    summary = estimate_poe(post, RULES, [EventSpec("coalition-majority", ("a", "b"))],
                           2_000, seed=23)
    assert summary.hung_fraction > 0.99
    result = summary.events[0]
    assert result.probability <= 0.01  # hung draws count as no majority


def _nearest_rank_band(values):
    ordered = np.sort(values)
    n = values.size
    return (float(ordered[max(1, math.ceil(0.025 * n)) - 1]),
            float(ordered[min(n, math.ceil(0.975 * n)) - 1]))


def _materialized_hits(sim, event):
    # The event definitions written out on the whole simulation.
    cols = [sim.parties.index(p) for p in event.parties]
    h = sim.rules.house_size
    subset = np.zeros(sim.m, dtype=bool)
    if event.kind == "coalition-majority":
        member = sim.seats[:, cols].astype(np.int64)
        mask = 2 * member.sum(axis=1) > h
        if len(cols) > 1 and not event.negate:
            subset = 2 * (member.sum(axis=1) - member.min(axis=1)) > h
    elif event.kind == "party-above-threshold":
        mask = sim.eligible[:, cols[0]]
    else:
        others = np.delete(sim.seats, cols[0], axis=1).max(axis=1)
        mask = (sim.seats[:, cols[0]] > others) & ~sim.hung
    if event.negate:
        mask = ~mask
    return int(mask.sum()), int(subset.sum())


NEAR_THRESHOLD = DirichletPosterior(
    parties=("a", "b", "c", "other"), alpha=(60.5, 55.5, 50.5, 835.5), other_id="other"
)


@pytest.mark.parametrize("method", ["sainte-lague", "dhondt"])
@pytest.mark.parametrize("case", ["german", "near-threshold"])
def test_streamed_poe_equals_the_materialized_simulation(
    monkeypatch, collect_simulation, german_posterior, method, case
):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    if case == "german":
        post = german_posterior
        rules = ElectionRules(method=method)
        coalitions = [("union", "spd"), ("spd", "gruene", "fdp"), ("union",),
                      post.parties]
    else:  # hung draws, and seat ties in a small house
        post = NEAR_THRESHOLD
        rules = ElectionRules(house_size=11, method=method)
        coalitions = [("a", "b"), ("a", "b", "c"), ("c",)]
    events = [EventSpec("coalition-majority", c, negate=n)
              for c in coalitions for n in (False, True)]
    events += [EventSpec(kind, (p,), negate=n)
               for kind in ("party-above-threshold", "strongest-party")
               for p in post.parties for n in (False, True)]
    for m in (1000, BLOCK, BLOCK + 1, 3 * BLOCK + 5):
        sim = collect_simulation(post, rules, m, seed=41)
        want_bands = {p: _nearest_rank_band(sim.shares[:, col])
                      for col, p in enumerate(post.parties)}
        want_hits = [_materialized_hits(sim, event) for event in events]
        for workers in (1, 2, 4):
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                summary = estimate_poe(post, rules, events, m, 41, workers,
                                       bands=True)
            finally:
                sys.setswitchinterval(interval)
            assert summary.hung == int(sim.hung.sum())
            assert summary.bands == want_bands
            got = [(r.hits, r.subset_hits) for r in summary.events]
            assert got == want_hits, (m, workers)
    if case == "near-threshold":
        assert 0 < summary.hung < m  # the hung path was exercised


def test_share_bands_need_no_rules(german_posterior):
    bands = share_bands(german_posterior, 5000, 3, workers=2)
    draws = engine.sample_shares(german_posterior, 5000, 3).draws
    for col, p in enumerate(german_posterior.parties):
        assert bands[p] == _nearest_rank_band(draws[:, col])
    assert bands == estimate_poe(german_posterior, RULES, (), 5000, 3, bands=True).bands
    with pytest.raises(ValueError, match="insufficient-draws"):
        share_bands(german_posterior, 999, 3)


TIE_VALUES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, np.inf, -np.inf]),
                       st.floats(-5.0, 5.0, allow_nan=False))


def _rescan_of(blocks, calls):
    # A rescan feeding the same blocks again, recording that it ran.
    def rescan(add):
        calls.append(len(blocks))
        for block in blocks:
            add(block)

    return rescan


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(TIE_VALUES, min_size=1, max_size=300),
    cuts=st.lists(st.integers(0, 300), max_size=12),
    order=st.randoms(use_true_random=False),
    stream=st.sampled_from(["shuffled", "ascending", "descending", "zigzag", "two-valued"]),
    rank_frac=st.floats(0.0, 1.0),
)
def test_rank_selector_matches_sort_in_any_block_order(values, cuts, order, stream, rank_frac):
    values = np.array(values)
    if stream in ("ascending", "descending"):
        values = np.sort(values)[:: 1 if stream == "ascending" else -1]
    elif stream == "zigzag":  # smallest, largest, second smallest, ...
        ordered = np.sort(values)
        values = np.empty_like(ordered)
        values[0::2] = ordered[: (ordered.size + 1) // 2]
        values[1::2] = ordered[::-1][: ordered.size // 2]
    elif stream == "two-valued":
        values = np.where(values < np.sort(values)[values.size // 2], 0.25, 0.5)
    n = values.size
    blocks = np.split(values, sorted(c % (n + 1) for c in cuts))
    if stream == "shuffled":
        order.shuffle(blocks)
    rank = min(n - 1, int(rank_frac * n))
    # An 8-value block makes the buffers small enough to be cut many times;
    # the band reducer also sees every column negated, in the same blocks.
    with mock.patch.object(engine, "BLOCK", 8):
        smallest = engine._RankSelector(rank)
        largest = engine._RankSelector(rank)
        bands = engine._Bands(n, 2)
        chunks = []
        for block in blocks:
            for lo in range(0, block.size, 8):
                chunk = block[lo : lo + 8]
                smallest.add(chunk)
                largest.add(-chunk)
                chunks.append(np.stack([chunk, -chunk], axis=1))
                bands.add(chunks[-1])
        got = bands.ci95(_rescan_of(chunks, []))
    ordered = np.sort(values)
    assert smallest.value() == ordered[rank]
    assert -largest.value() == ordered[n - 1 - rank]
    low, high = _nearest_rank_band(values)
    assert got == [(low, high), (-high, -low)]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(5000, 20000),
    block=st.integers(64, 512),
    descending=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bands_of_a_sorted_stream_take_a_second_pass(n, block, descending, seed):
    # In a sorted stream the first values seen do not predict where the
    # quantile lies, so a bracket misses it; the second pass still finds
    # the exact order statistic. Two more columns of the same reducer
    # arrive shuffled and in the opposite order: the shuffled column's
    # tails hold while the sorted columns' tails miss.
    rng = np.random.default_rng(seed)
    values = np.sort(rng.random((n, 3)), axis=0)
    if descending:
        values = values[::-1]
    columns = np.stack([values[:, 0], rng.permutation(values[:, 1]), values[::-1, 2]], axis=1)
    want = [_nearest_rank_band(column) for column in columns.T]
    blocks = [columns[lo : lo + block] for lo in range(0, n, block)]
    calls = []
    with mock.patch.object(engine, "BLOCK", block):
        bands = engine._Bands(n, 3)
        for chunk in blocks:
            bands.add(chunk)
        assert bands.ci95(_rescan_of(blocks, calls)) == want
        assert calls == [len(blocks)]  # one second pass, over every block


@pytest.mark.parametrize("workers", [1, 2])
def test_engine_bands_settle_missed_brackets_by_sampling_again(
    monkeypatch, german_posterior, workers
):
    # A margin of one rank makes the brackets miss, so both engine entry
    # points take their second pass: the shares sampled once more.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    m = 3 * BLOCK + 5
    draws = engine.sample_shares(german_posterior, m, 17).draws
    want = {p: _nearest_rank_band(draws[:, col])
            for col, p in enumerate(german_posterior.parties)}
    sample, calls = engine.sample_shares, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return sample(*args, **kwargs)

    monkeypatch.setattr(engine, "sample_shares", counted)
    monkeypatch.setattr(engine, "_margin", lambda seen: 1)
    assert share_bands(german_posterior, m, 17, workers) == want
    assert calls == [m, m]
    del calls[:]
    summary = estimate_poe(german_posterior, RULES, (), m, 17, workers, bands=True)
    assert summary.bands == want
    assert calls == [m, m]


def test_band_of_one_party_stays_small_at_2_26_values():
    # Only the brackets are kept: O(BLOCK + sqrt(n)) values, where a
    # selector of the rank-th smallest would hold 2 x 27 MB.
    n = 1 << 26
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        bands = engine._Bands(n, 1)
        for _ in range(n // BLOCK):
            bands.add(rng.random((BLOCK, 1)))
        (low, high), = bands.ci95(lambda add: pytest.fail("a bracket missed"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert 0.0249 < low < 0.0251 and 0.9749 < high < 0.9751


def test_poe_bands_need_little_beyond_the_block_workspaces():
    # Thirteen parties at m = 1e6: a selector per tail held ~11 MB.
    post = DirichletPosterior(
        parties=tuple(f"p{i}" for i in range(13)),
        alpha=tuple(float(a) for a in np.linspace(20.5, 400.5, 13)),
    )
    events = [EventSpec("coalition-majority", ("p11", "p12"))]
    peaks = {}
    for bands in (False, True):
        tracemalloc.start()
        try:
            estimate_poe(post, RULES, events, 1_000_000, 5, bands=bands)
            _, peaks[bands] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[True] - peaks[False] <= 1.5 * 2**20


def test_streamed_poe_holds_no_full_size_array(german_posterior):
    # Every event and every party band, yet the pass needs far less than
    # one m x K float array: block buffers and a bracket per band.
    m = 60 * BLOCK
    events = [EventSpec("coalition-majority", ("union", "spd")),
              EventSpec("strongest-party", ("union",))]
    tracemalloc.start()
    try:
        estimate_poe(german_posterior, RULES, events, m, 33, bands=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * len(german_posterior.parties) * 8 / 4
