"""Property tests of the reproducibility contract and of the streamed
reducers' exact identities, through the block kernel.

Random posteriors, rules, draw counts at the block boundaries and seeds at
the domain edges; the blocks pass through the sampler, the threshold and
the allocator exactly as in every command. m and K stay small, so no
example starts a long run or more than four threads.
"""

import math
import os
import sys
from unittest import mock

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from koalition.electoral import METHODS, ElectionRules
from koalition.engine import EventSpec, estimate_poe, seat_distribution, share_bands
from koalition.posterior import BLOCK, SEED_BOUND, DirichletPosterior

FIELDS = ("eligible", "seats", "hung")
ALPHA = st.floats(min_value=-3.0, max_value=6.0).map(lambda e: 10.0**e)
SEEDS = st.one_of(
    st.integers(0, SEED_BOUND - 1),
    st.sampled_from([0, 1, (1 << 53) + 1, (1 << 63) - 1, 1 << 63, SEED_BOUND - 1]),
)


@st.composite
def posteriors(draw):
    k = draw(st.integers(2, 20))
    parties = tuple(f"party-{i}" for i in range(k))
    with_other = draw(st.booleans())
    alpha = tuple(draw(st.lists(ALPHA, min_size=k, max_size=k)))
    return DirichletPosterior(parties, alpha, other_id=parties[-1] if with_other else None)


RULES = st.builds(
    ElectionRules,
    threshold=st.floats(min_value=0.0, max_value=0.2),
    house_size=st.integers(1, 700),
    method=st.sampled_from(METHODS),
)


def _interleaved(run):
    """run(workers) at workers 1, 2 and 4, whatever this machine's core
    count, switching threads often so that blocks interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(os, "cpu_count", lambda: 8):
            return [run(w) for w in (1, 2, 4)]
    finally:
        sys.setswitchinterval(interval)


def _outcome(collect, posterior, rules, m, seed, workers=1):
    """The run's eligible, seats and hung, or the error it ends with.

    Every party's Gamma draw of a row can underflow when all alphas are
    tiny; that refusal is part of the contract and must not depend on
    the worker count either.
    """
    try:
        sim = collect(posterior, rules, m, seed, workers)
    except ValueError as exc:
        return str(exc)
    return {name: getattr(sim, name) for name in FIELDS}


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return all(a[name].tobytes() == b[name].tobytes() for name in FIELDS)


@settings(max_examples=60, deadline=None)
@given(
    posterior=posteriors(),
    rules=RULES,
    m=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 4 * BLOCK + 1]),
    seed=SEEDS,
    data=st.data(),
)
def test_reproducibility_contract(collect_simulation, posterior, rules, m, seed, data):
    runs = _interleaved(lambda w: _outcome(collect_simulation, posterior, rules, m, seed, w))
    full = runs[0]
    assert _same(runs[1], full) and _same(runs[2], full)
    if isinstance(full, str):
        event("refused: every Gamma draw of a row underflowed")
        return

    # Prefix stability: the first k of m draws are a run of k.
    k = data.draw(st.integers(1, m), label="prefix")
    prefix = _outcome(collect_simulation, posterior, rules, k, seed)
    assert _same(prefix, {name: full[name][:k] for name in FIELDS})

    # Draws are keyed by party id: a party permutation permutes the columns.
    order = data.draw(st.permutations(range(len(posterior.parties))), label="order")
    permuted = DirichletPosterior(
        tuple(posterior.parties[i] for i in order),
        tuple(posterior.alpha[i] for i in order),
        other_id=posterior.other_id,
    )
    moved = _outcome(collect_simulation, permuted, rules, m, seed)
    assert moved["hung"].tobytes() == full["hung"].tobytes()
    for name in ("eligible", "seats"):
        assert np.array_equal(moved[name], full[name][:, list(order)]), name


def _nearest_rank_band(values):
    ordered = np.sort(values)
    n = values.size
    return (float(ordered[max(1, math.ceil(0.025 * n)) - 1]),
            float(ordered[min(n, math.ceil(0.975 * n)) - 1]))


def _reduced(posterior, rules, events, coalition, m, seed, workers):
    """Every streamed reducer's result for one run, or the error it ends with."""
    try:
        summary = estimate_poe(posterior, rules, events, m, seed, workers, bands=True)
        bands = share_bands(posterior, m, seed, workers)
        dist = seat_distribution(posterior, rules, coalition, m, seed, workers)
    except ValueError as exc:
        return str(exc)
    return summary, bands, (dist.density.tobytes(), dist.ci95, dist.majority_mass)


@settings(max_examples=40, deadline=None)
@given(
    posterior=posteriors(),
    rules=RULES,
    m=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, 4 * BLOCK + 1]),
    seed=SEEDS,
    data=st.data(),
)
def test_streamed_reducers_keep_the_exact_identities(
    collect_simulation, posterior, rules, m, seed, data
):
    # A chain of nested coalitions, each with its complement; the seat
    # distribution is taken for one of them.
    order = data.draw(st.permutations(posterior.parties), label="order")
    chain = [tuple(order[: i + 1]) for i in range(len(order))]
    events = [EventSpec("coalition-majority", c, negate=n) for c in chain for n in (False, True)]
    j = data.draw(st.integers(0, len(chain) - 1), label="coalition")
    runs = _interleaved(
        lambda w: _reduced(posterior, rules, events, chain[j], m, seed, w))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    if isinstance(runs[0], str):
        event("refused: every Gamma draw of a row underflowed")
        return
    summary, bands, (_, ci95, majority_mass) = runs[0]

    hits = [r.hits for r in summary.events[::2]]
    for r, complement in zip(summary.events[::2], summary.events[1::2]):
        assert r.hits + complement.hits == m
        assert r.probability + complement.probability == 1.0
    assert hits == sorted(hits)  # a larger coalition wins whenever a smaller one does
    assert majority_mass == summary.events[2 * j].probability

    sim = collect_simulation(posterior, rules, m, seed)
    want = {p: _nearest_rank_band(sim.shares[:, col]) for col, p in enumerate(posterior.parties)}
    assert summary.bands == want and bands == want
    cols = [posterior.parties.index(p) for p in chain[j]]
    assert ci95 == _nearest_rank_band(sim.seats[:, cols].sum(axis=1) / rules.house_size)
