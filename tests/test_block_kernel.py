"""The block kernel against its reference, with its buffers reused.

reference_mechanics computes the threshold and the allocation with plain
expressions that make every temporary afresh. elect_many fills one
workspace per thread instead, so a block must never see what an earlier
block left in it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koalition.electoral import (
    METHODS,
    ElectionRules,
    Workspace,
    _safety_net,
    allocate_many,
    elect_many,
)
from koalition.engine import run_simulation
from koalition.posterior import BLOCK, DirichletPosterior

NEAR_INTEGER = 1e-9


def _signposts(method, counts):
    return 2.0 * counts - 1.0 if method == "sainte-lague" else counts


def _reference_jump(shares, house_size, method):
    positive = shares > 0.0
    if method == "sainte-lague":
        x = shares * house_size + 0.5
    else:
        x = shares * (house_size + 0.5 * positive.sum(axis=1))[:, None]
    seats = x.astype(np.int16)
    frac = np.subtract(x, seats, out=x)
    near = ((frac < NEAR_INTEGER) | (frac > 1.0 - NEAR_INTEGER)) & positive
    return seats, near.any(axis=1)


def _reference_repair(shares, seats, deficit, method):
    k = shares.shape[1]
    for step in range(1, int(np.abs(deficit).max(initial=0)) + 1):
        over = int(np.searchsorted(deficit, -step, side="right"))
        under = int(np.searchsorted(deficit, step, side="left"))
        if under < deficit.size:
            held = seats[under:]
            gain = shares[under:] / _signposts(method, held + 1)
            cols = np.argmax(gain, axis=1)
            held[np.arange(held.shape[0]), cols] += 1
        if over:
            held = seats[:over]
            loss = np.where(
                held > 0,
                shares[:over] / _signposts(method, np.maximum(held, 1)),
                np.inf,
            )
            cols = k - 1 - np.argmin(loss[:, ::-1], axis=1)
            held[np.arange(over), cols] -= 1


def reference_allocate_many(shares, house_size, method):
    m, k = shares.shape
    totals = shares.sum(axis=1, keepdims=True)
    live = totals[:, 0] > 0.0
    with np.errstate(invalid="ignore"):
        shares = shares / totals
    shares[~live] = 0.0
    seats, near = _reference_jump(shares, house_size, method)
    deficit = house_size - seats.sum(axis=1)
    deficit[~live] = 0
    off = np.flatnonzero(deficit)
    if off.size:
        off = off[np.argsort(deficit[off], kind="stable")]
        sub_seats = seats[off]
        _reference_repair(shares[off], sub_seats, deficit[off], method)
        seats[off] = sub_seats
    near_rows = np.flatnonzero(near)
    if near_rows.size:
        sub_seats = seats[near_rows]
        _safety_net(shares[near_rows], sub_seats, method, guard=house_size + k + 1)
        seats[near_rows] = sub_seats
    return seats


def reference_mechanics(shares, parties, other_id, rules):
    eligible = shares >= rules.threshold
    if other_id is not None:
        eligible[:, parties.index(other_id)] = False
    masked = np.where(eligible, shares, 0.0)
    totals = masked.sum(axis=1, keepdims=True)
    hung = totals[:, 0] == 0.0
    renorm = np.divide(masked, totals, out=masked, where=totals > 0)
    seats = reference_allocate_many(renorm, rules.house_size, rules.method)
    return eligible, seats, hung


def _block(rng, n, k):
    """n share rows as the sampler gives them: non-negative, summing to ~1.

    A third are Dirichlet rows, a third small integer counts (exact
    quotient ties and zero shares) and a third Dirichlet rows with
    entries zeroed, as a Gamma draw that underflows leaves them.
    """
    kind = rng.integers(0, 3, size=n)
    rows = rng.dirichlet(rng.uniform(0.05, 5.0, size=k), size=n)
    counts = rng.integers(0, 4, size=(n, k)).astype(float)
    rows[kind == 1] = counts[kind == 1]
    rows[kind == 2] *= rng.random((int((kind == 2).sum()), k)) > 0.4
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


BLOCK_SIZES = st.lists(st.integers(1, BLOCK), max_size=2).map(
    lambda extra: [BLOCK, 5, BLOCK] + extra  # a tail after a full block and back
)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(2, 13),
    method=st.sampled_from(METHODS),
    threshold=st.sampled_from([0.0, 0.05, 0.2]),
    with_other=st.booleans(),
    sizes=BLOCK_SIZES,
    seed=st.integers(0, 2**32 - 1),
)
def test_reused_workspace_matches_the_reference(k, method, threshold, with_other, sizes, seed):
    rng = np.random.default_rng(seed)
    parties = tuple(f"p{i}" for i in range(k))
    other_id = parties[-1] if with_other else None
    rules = ElectionRules(threshold=threshold, house_size=int(rng.integers(1, 700)),
                          method=method)
    other = parties.index(other_id) if with_other else None
    ws = Workspace(BLOCK, k)
    for n in sizes:
        shares = _block(rng, n, k)
        before = shares.tobytes()
        got = elect_many(shares, rules, other, ws)
        want = reference_mechanics(shares, parties, other_id, rules)
        assert shares.tobytes() == before
        for name, g, w in zip(("eligible", "seats", "hung"), got, want):
            assert g.tobytes() == w.tobytes(), (name, n)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(2, 13),
    method=st.sampled_from(METHODS),
    sizes=BLOCK_SIZES,
    seed=st.integers(0, 2**32 - 1),
)
def test_allocate_many_with_a_reused_workspace(k, method, sizes, seed):
    # Unnormalized rows, some all zero (hung): the public allocator keeps
    # its input and its answer whether or not it is handed a workspace.
    rng = np.random.default_rng(seed)
    house = int(rng.integers(1, 700))
    ws = Workspace(BLOCK, k)
    for n in sizes:
        rows = _block(rng, n, k) * rng.uniform(0.5, 3.0, size=(n, 1))
        rows[rng.random(n) < 0.05] = 0.0
        before = rows.tobytes()
        got = allocate_many(rows, house, method, workspace=ws)
        assert rows.tobytes() == before
        assert got.tobytes() == reference_allocate_many(rows, house, method).tobytes()
        assert got.tobytes() == allocate_many(rows, house, method).tobytes()


def test_allocate_many_refuses_a_small_workspace():
    with pytest.raises(ValueError, match="workspace"):
        allocate_many(np.ones((5, 3)), 10, workspace=Workspace(4, 3))
    with pytest.raises(ValueError, match="workspace"):
        allocate_many(np.ones((5, 3)), 10, workspace=Workspace(5, 4))


def test_repeated_streamed_simulation_reuses_its_block_memory():
    # Block temporaries made afresh are handed back to the OS by the heap
    # trim and faulted in again, ~330 minor faults per block at K=13. A
    # second run in the same process, after the first has warmed the
    # heap, must reuse its buffers instead.
    resource = pytest.importorskip("resource")
    means = (25.0, 19.0, 12.0, 9.0, 6.8, 5.8, 5.3, 4.8, 4.3, 3.0, 2.0, 1.5, 1.5)
    posterior = DirichletPosterior(
        parties=tuple(f"p{i:02d}" for i in range(12)) + ("other",),
        alpha=tuple(0.5 + 20.0 * mean for mean in means),
        other_id="other",
    )
    rules = ElectionRules(house_size=630, method="dhondt")
    blocks = 100

    def hook(*block):
        pass

    run_simulation(posterior, rules, blocks * BLOCK, 1, on_block=hook)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_simulation(posterior, rules, blocks * BLOCK, 2, on_block=hook)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 50 * blocks
