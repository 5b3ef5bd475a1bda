"""The block kernel against its reference, with its buffers reused.

reference_mechanics computes the threshold and the allocation with plain
expressions that make every temporary afresh. elect_many fills one
workspace per thread instead, and its input as the allocator's scratch,
so a run must never see what an earlier run left in them.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koalition.electoral import (
    METHODS,
    ElectionRules,
    Workspace,
    allocate_many,
    elect_many,
    row_totals,
)
from koalition.engine import run_simulation
from koalition.posterior import BLOCK, RUN, DirichletPosterior

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


def _reference_safety_net(shares, seats, method, guard):
    m, k = shares.shape
    rows = np.arange(m)
    for _ in range(guard):
        gain = shares / _signposts(method, seats + 1)
        gain_col = np.argmax(gain, axis=1)
        loss = np.where(seats > 0, shares / _signposts(method, np.maximum(seats, 1)), np.inf)
        loss_col = k - 1 - np.argmin(loss[:, ::-1], axis=1)
        gain_val, loss_val = gain[rows, gain_col], loss[rows, loss_col]
        swap = (gain_val > loss_val) | ((gain_val == loss_val) & (gain_col < loss_col))
        if not swap.any():
            return
        seats[swap, gain_col[swap]] += 1
        seats[swap, loss_col[swap]] -= 1


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
        _reference_safety_net(shares[near_rows], sub_seats, method, house_size + k + 1)
        seats[near_rows] = sub_seats
    return seats


def reference_mechanics(shares, parties, other_id, rules):
    eligible = (shares > 0.0) & (shares >= rules.threshold)
    if other_id is not None:
        eligible[:, parties.index(other_id)] = False
    masked = np.where(eligible, shares, 0.0)
    hung = masked.sum(axis=1) == 0.0
    seats = reference_allocate_many(masked, rules.house_size, rules.method)
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


BLOCK_SIZES = st.lists(st.integers(1, RUN * BLOCK), max_size=2).map(
    lambda extra: [RUN * BLOCK, 5, BLOCK] + extra  # a tail after a full run and back
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
    ws = Workspace(RUN * BLOCK, k)
    for n in sizes:
        shares = _block(rng, n, k)
        want = reference_mechanics(shares, parties, other_id, rules)
        got = elect_many(shares.T.copy(), rules, other, ws)  # it overwrites its input
        for name, g, w in zip(("eligible", "seats", "hung"), got, want):
            assert g.T.tobytes() == w.tobytes(), (name, n)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(2, 13),
    method=st.sampled_from(METHODS),
    sizes=BLOCK_SIZES,
    seed=st.integers(0, 2**32 - 1),
)
def test_allocate_many_with_a_reused_workspace(k, method, sizes, seed):
    # Unnormalized rows, some all zero (hung): the public allocator keeps
    # its answer whether or not it is handed a workspace, and without one
    # it keeps its input; with one, the input is its scratch.
    rng = np.random.default_rng(seed)
    house = int(rng.integers(1, 700))
    ws = Workspace(RUN * BLOCK, k)
    for n in sizes:
        rows = _block(rng, n, k) * rng.uniform(0.5, 3.0, size=(n, 1))
        rows[rng.random(n) < 0.05] = 0.0
        before = rows.tobytes()
        want = allocate_many(rows, house, method)
        assert rows.tobytes() == before
        assert want.tobytes() == reference_allocate_many(rows, house, method).tobytes()
        got = allocate_many(rows.copy(), house, method, workspace=ws)
        assert got.tobytes() == want.tobytes()


def test_allocate_many_with_a_workspace_keeps_a_row_major_input():
    # Only C-contiguous party rows, shares.T, are the allocator's scratch:
    # a C-ordered (m, K) input is copied once, and the caller's rows kept.
    rng = np.random.default_rng(3)
    rows = _block(rng, BLOCK, 13) * rng.uniform(0.5, 3.0, size=(BLOCK, 1))
    before = rows.tobytes()
    got = allocate_many(rows, 598, "dhondt", workspace=Workspace(RUN * BLOCK, 13))
    assert rows.tobytes() == before
    assert got.tobytes() == allocate_many(rows, 598, "dhondt").tobytes()


def test_allocate_many_refuses_a_small_workspace():
    with pytest.raises(ValueError, match="workspace"):
        allocate_many(np.ones((5, 3)), 10, workspace=Workspace(4, 3))
    with pytest.raises(ValueError, match="workspace"):
        allocate_many(np.ones((5, 3)), 10, workspace=Workspace(5, 4))


@settings(max_examples=80, deadline=None)
@given(
    k=st.one_of(st.integers(1, 300),
                st.sampled_from([7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 256, 257])),
    n=st.sampled_from([1, 5, BLOCK - 1, BLOCK, BLOCK + 1, RUN * BLOCK]),
    zeros=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    decades=st.sampled_from([0, 3, 30, 300]),
    signed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_totals_replay_numpys_row_sums(k, n, zeros, decades, signed, seed):
    # The sampler's and the allocator's one row sum, over party rows, is
    # numpy's own sum of the row-major matrix, bit for bit: exact zeros
    # (masked shares), magnitudes decades apart, signed zeros and values.
    rng = np.random.default_rng(seed)
    a = rng.gamma(0.5, size=(n, k)) * 10.0 ** rng.integers(-decades, decades + 1, size=(n, k))
    a[rng.random((n, k)) < zeros] = 0.0
    if signed:
        a *= rng.choice([-1.0, 1.0], size=(n, k))
    want = np.sum(a, axis=1)
    got = row_totals(np.ascontiguousarray(a.T), np.full(n, np.nan), np.empty(3 * n))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [8, 13, 20])
def test_totals_shares_and_seats_do_not_depend_on_the_layout(k):
    # np.sum(axis=1) sums a row-major row pairwise but an F-ordered one
    # term by term, which differs from 8 parties on; the allocator's row
    # totals, and every quotient after them, must not.
    rng = np.random.default_rng(k)
    rows = rng.gamma(rng.uniform(0.05, 5.0, size=k), size=(RUN * BLOCK, k))
    results = []
    for layout in ("C", "F"):
        ws = Workspace(RUN * BLOCK, k)
        seats = allocate_many(np.array(rows, order=layout), 598, "dhondt", workspace=ws)
        results.append([ws.totals.tobytes(), ws.shares.tobytes(), seats.tobytes()])
    assert results[0] == results[1]


# Twelve parties and "other", four of them near the 5% threshold, under
# D'Hondt: the threshold and the repair passes both do work.
MEANS_13 = (25.0, 19.0, 12.0, 9.0, 6.8, 5.8, 5.3, 4.8, 4.3, 3.0, 2.0, 1.5, 1.5)
POSTERIOR_13 = DirichletPosterior(
    parties=tuple(f"p{i:02d}" for i in range(12)) + ("other",),
    alpha=tuple(0.5 + 20.0 * mean for mean in MEANS_13),
    other_id="other",
)
DHONDT_630 = ElectionRules(house_size=630, method="dhondt")


def test_repeated_streamed_simulation_reuses_its_block_memory():
    # Block temporaries made afresh are handed back to the OS by the heap
    # trim and faulted in again, ~330 minor faults per block at K=13. A
    # second run in the same process, after the first has warmed the
    # heap, must reuse its buffers instead.
    resource = pytest.importorskip("resource")
    blocks = 100

    def hook(*block):
        pass

    run_simulation(POSTERIOR_13, DHONDT_630, blocks * BLOCK, 1, on_block=hook)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_simulation(POSTERIOR_13, DHONDT_630, blocks * BLOCK, 2, on_block=hook)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 50 * blocks


def test_a_thread_holds_two_float_run_buffers():
    # One thread's working set: the sampler's run of shares and the
    # workspace's normalized shares, (RUN * BLOCK, K) floats each, the
    # int16 seats and the repair's gathered seats (which also hold the
    # start's positive and near flags), and the bool
    # eligible flags. The allocator's scratch
    # is the sampler's run itself. The slack, 5 bytes per cell, covers the
    # row-sized buffers and the temporaries; a third float run buffer
    # adds 8.
    cells = RUN * BLOCK * len(POSTERIOR_13.parties)
    held = 2 * 8 * cells + 2 * 2 * cells + cells
    run_simulation(POSTERIOR_13, DHONDT_630, BLOCK, 1, on_block=lambda *run: None)
    tracemalloc.start()
    try:
        run_simulation(POSTERIOR_13, DHONDT_630, 60 * BLOCK, 1, on_block=lambda *run: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < held + 5 * cells
