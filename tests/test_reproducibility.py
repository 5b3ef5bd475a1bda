"""Property test of the reproducibility contract through the block kernel.

Random posteriors, rules, draw counts at the block boundaries and seeds at
the domain edges; the blocks pass through the sampler, the threshold and
the allocator exactly as in every command. m and K stay small, so no
example starts a long run or more than four threads.
"""

import os
import sys
from unittest import mock

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from koalition.electoral import METHODS, ElectionRules
from koalition.posterior import BLOCK, SEED_BOUND, DirichletPosterior

FIELDS = ("eligible", "seats", "hung")
ALPHA = st.floats(min_value=-3.0, max_value=6.0).map(lambda e: 10.0**e)
SEEDS = st.one_of(
    st.integers(0, SEED_BOUND - 1),
    st.sampled_from([0, 1, (1 << 53) + 1, (1 << 63) - 1, 1 << 63, SEED_BOUND - 1]),
)


@st.composite
def posteriors(draw):
    k = draw(st.integers(2, 13))
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
    m=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
    seed=SEEDS,
    data=st.data(),
)
def test_reproducibility_contract(collect_simulation, posterior, rules, m, seed, data):
    # Worker invariance, with up to four threads whatever this machine's
    # core count, switching often so that blocks interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(os, "cpu_count", lambda: 8):
            runs = [_outcome(collect_simulation, posterior, rules, m, seed, w)
                    for w in (1, 2, 4)]
    finally:
        sys.setswitchinterval(interval)
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
