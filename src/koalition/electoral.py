"""German-style election mechanics: the threshold and seat allocation.

Seat allocation uses highest averages (Sainte-Lague/Schepers by default,
divisors 1, 3, 5, ...; D'Hondt available behind the same signature). The
allocator is vectorized over simulation draws and follows the
jump-and-step procedure for divisor methods (Pukelsheim, Proportional
Representation, 2017, ch. 4). It jumps to floor(share * h + 1/2) for
Sainte-Lague and floor(share * (h + l/2)) for D'Hondt, l being the number
of parties with a positive share in the row; most rows then already hold
h seats. Only the rows whose total is off step to h with greedy
add/remove moves, which keep the start a prefix of the quotient order. A
float safety net then re-checks only the rows whose start lies within
1e-9 of an integer, the only ones where float rounding can disagree with
the quotient order. The result is the classic one-seat-at-a-time method
exactly for the row's shares as normalized in floats, ties going to the
earlier party. Where quotients tie exactly in rational arithmetic (rows
of small integer counts), the rounding of that division can break the
tie instead. Seats are int16, which bounds the house at MAX_HOUSE_SIZE
(16383): the D'Hondt start can overshoot by l/2 seats.

Threshold semantics: a party with share strictly below the threshold is
excluded, so a party at exactly 5% enters parliament. A party with a zero
share never enters, even at threshold 0, so a parliament is hung exactly
when no party is eligible. The residual
"other" bucket is never eligible regardless of its size, because it
aggregates many small parties none of which clears the threshold alone.

Both rules run on whole runs of draws as (K, n) party rows, one
contiguous row per party, as the sampler draws them: the threshold, the
row totals, the divide, the jump, the repair and the safety net all work
along those rows, and eligibility and seats come back as party rows, so
no run data is transposed or copied back. What a parliament's seats mean
for a coalition (a majority is strictly more than half the house) is
decided only in engine, where each event is counted.

row_totals, the one sum of a share row, walks numpy's pairwise
summation over party rows, so every row's total is what np.sum(axis=1)
of the row-major matrix gives, bit for bit, whatever the memory layout.
The sampler normalizes its draws with row_totals and allocate_many its
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ElectionRules",
    "SeatAllocation",
    "Workspace",
    "allocate_many",
    "elect_many",
    "row_totals",
]

METHODS = ("sainte-lague", "dhondt")

DEFAULT_THRESHOLD = 0.05
DEFAULT_HOUSE_SIZE = 598
DEFAULT_METHOD = "sainte-lague"
# int16 seat counts hold the D'Hondt start, which can reach h + l/2 seats
# for l parties; half the int16 range leaves room for any l up to 2^15.
_INT16_MAX = np.iinfo(np.int16).max
MAX_HOUSE_SIZE = _INT16_MAX // 2
# A start closer than this to an integer is a possible float near-tie and
# gets the safety net; see allocate_many.
_NEAR_INTEGER = 1e-9
# _best's orders, (better, pick): a strict > keeps the earlier party on a
# tie for the most, and <= takes the later party for the least.
_MOST = (np.greater, np.maximum)
_LEAST = (np.less_equal, np.minimum)
# The smallest positive double: a share at least this large is positive.
_SMALLEST_POSITIVE = math.ulp(0.0)
# numpy's pairwise summation adds fewer than 8 terms one by one and up to
# this many in 8 interleaved accumulators, and splits longer sums in two.
_PAIRWISE_BLOCK = 128


@dataclass(frozen=True)
class ElectionRules:
    threshold: float = DEFAULT_THRESHOLD
    house_size: int = DEFAULT_HOUSE_SIZE
    method: str = DEFAULT_METHOD

    def __post_init__(self):
        if not (0.0 <= self.threshold < 0.5):
            raise ValueError("threshold must be in [0, 0.5)")
        if not (1 <= self.house_size <= MAX_HOUSE_SIZE):
            raise ValueError(f"house_size must be in [1, {MAX_HOUSE_SIZE}]")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")


@dataclass(frozen=True)
class SeatAllocation:
    """Seats per party for one parliament; hung when nothing is eligible."""

    seats: dict[str, int]
    eligible: frozenset[str]

    @property
    def hung(self) -> bool:
        return not self.eligible


class Workspace:
    """Reusable buffers for electing runs of up to `rows` draws of k parties.

    elect_many and allocate_many fill them with out= instead of making
    their temporaries afresh, so a thread that elects run after run keeps
    the same memory. A run of n draws uses the first k * n values of each
    (k, rows) buffer as C-ordered (k, n) party rows: eligible and seats,
    which elect_many returns; shares, the row sum's temporaries, the seat
    start and its fractions, then the repair's gathered shares; gathered,
    the start's positive and near flags as its two bool halves, then the
    repair's gathered seats. totals holds each draw's total before
    normalization, which happens in the rows allocate_many is given. One
    thread uses it at a time.
    """

    def __init__(self, rows: int, k: int):
        self.eligible = np.empty((k, rows), dtype=bool)
        self.hung = np.empty(rows, dtype=bool)
        self.shares = np.empty((k, rows))
        self.totals = np.empty(rows)
        self.seats = np.empty((k, rows), dtype=np.int16)
        self.gathered = np.empty((k, rows), dtype=np.int16)


def _rows(buffer, n):
    # The first k * n values of a C-contiguous (k, ...) buffer as party rows.
    return buffer.reshape(-1)[: len(buffer) * n].reshape(len(buffer), n)


def _pairwise_sum(leaf, terms: slice, size: int):
    """numpy's sum of the terms [terms.start, terms.stop), from leaf(node),
    numpy's sum of the terms of a node slice of at most size >= 128 of them.

    numpy adds more than 128 contiguous terms pairwise (Higham, SIAM J.
    Sci. Comput. 14(4), 1993): it splits them at half the count, rounded
    down to a multiple of 8, and adds the two halves' sums, each of which
    is numpy's sum of that half alone. Walking the same split down to
    nodes of at most size terms and adding their leaf sums gives numpy's
    sum bit for bit. A leaf may return an array, which then holds the sum
    of its node and every later one.
    """
    n = terms.stop - terms.start
    if n <= size:
        return leaf(terms)
    middle = terms.start + n // 2 - n // 2 % 8
    total = _pairwise_sum(leaf, slice(terms.start, middle), size)
    total += _pairwise_sum(leaf, slice(middle, terms.stop), size)
    return total


def row_totals(by_party: np.ndarray, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """The total of each share row, from the (K, n) party rows by_party.

    out[i] is the sum of by_party[:, i], equal bit for bit to
    np.sum(a, axis=1)[i] for the C-ordered (n, K) matrix a = by_party.T,
    whatever by_party's memory layout. numpy sums a C-ordered row with
    _pairwise_sum's split, which this walks a party row at a time down to
    leaves of at most 128 rows; numpy sums a leaf's fewer than 8 terms one
    by one, and more in 8 accumulators of every eighth term, added in
    pairs, then the rest one by one; np.add.reduce adds the total to +0.0.
    out is an (n,) float64 array. From K = 8 on, the sum needs three
    row-length temporaries: the first 3n values of spare, a C-contiguous
    float64 array. Above K = 128 it makes one more per leaf after the first.
    """
    n = by_party.shape[1]

    def leaf(node):
        rows = by_party[node]
        total = out if node.start == 0 else np.empty(n)
        whole = len(rows) - len(rows) % 8
        if not whole:
            total.fill(-0.0)
            for row in rows:
                total += row
            return total

        def accumulator(j, buffer):
            # Terms j, j + 8, j + 16, ... added in order; a lone term as it is.
            if whole == 8:
                return rows[j]
            np.add(rows[j], rows[j + 8], out=buffer)
            for row in rows[j + 16 : whole : 8]:
                buffer += row
            return buffer

        a, b, c = spare.reshape(-1)[: 3 * n].reshape(3, n)
        np.add(accumulator(0, total), accumulator(1, a), out=total)
        np.add(accumulator(2, a), accumulator(3, b), out=a)
        total += a
        np.add(accumulator(4, a), accumulator(5, b), out=a)
        np.add(accumulator(6, b), accumulator(7, c), out=b)
        a += b
        total += a
        for row in rows[whole:]:
            total += row
        return total

    _pairwise_sum(leaf, slice(0, len(by_party)), _PAIRWISE_BLOCK)
    out += 0.0
    return out


def _quotients(method, shares, counts):
    # shares divided by the divisor for winning seat number counts (>= 1),
    # in place in the float array counts: counts for D'Hondt, 2 * counts - 1
    # for Sainte-Lague. Seat counts are exact in float64, and so is 2c - 1.
    if method == "sainte-lague":
        np.multiply(counts, 2.0, out=counts)
        np.subtract(counts, 1.0, out=counts)
    return np.divide(shares, counts, out=counts)


def _jump(shares, house_size, method, ws):
    # Floor of share times the multiplier: h + 1/2 rounding for
    # Sainte-Lague, h + l/2 for D'Hondt with l parties of positive share.
    # In exact arithmetic this is a divisor-method apportionment of its own
    # total h', off from h by less than l/2 seats. Also returns the draws
    # with a positive-share entry within _NEAR_INTEGER of an integer.
    k, n = shares.shape
    x = _rows(ws.shares, n)  # the start, then its fractions
    positive, near = _rows(ws.gathered.view(bool), 2 * n).reshape(2, k, n)
    np.greater(shares, 0.0, out=positive)
    if method == "sainte-lague":
        np.multiply(shares, house_size, out=x)
        np.add(x, 0.5, out=x)
    else:
        # uint16 counts as many parties as int16 seats allow.
        multiplier = np.add.reduce(positive, axis=0, dtype=np.uint16) * 0.5
        multiplier += house_size
        np.multiply(shares, multiplier, out=x)
    seats = _rows(ws.seats, n)
    np.copyto(seats, x, casting="unsafe")  # x >= 0, so truncation is the floor
    frac = np.subtract(x, seats, out=x)
    np.less(frac, _NEAR_INTEGER, out=near)
    near &= positive
    # positive keeps only its entries near the integer above, then joins near.
    np.greater(frac, 1.0 - _NEAR_INTEGER, out=positive, where=positive)
    near |= positive
    return seats, np.flatnonzero(np.logical_or.reduce(near, axis=0))


def _best(values, order):
    # Each draw's best party in the float (k, n) party rows values, and its
    # value, by a running comparison along the rows, with no draw-major copy:
    # party j takes the draws where better(its value, the best so far).
    better, pick = order
    value = values[0].copy()
    party = np.zeros(len(value), dtype=np.intp)
    wins = np.empty(len(value), dtype=bool)
    for j in range(1, len(values)):
        better(values[j], value, out=wins)
        pick(value, values[j], out=value)
        np.copyto(party, j, where=wins)
    return party, value


def _repair(normalized, seats, deficit, method, ws):
    # Greedy one-seat steps, in place in the (k, m) seats: add the strongest
    # unheld quotient on draws short of the house, drop the weakest held one
    # on draws above it. The draws off the house, sorted by deficit, have
    # their shares gathered into ws.shares once; those still off by >= step
    # seats are a leading (over) and a trailing (under) slice, so no pass
    # re-scans finished draws. Each pass gathers the seats it reads into
    # ws.gathered and writes its quotients over normalized.
    off = np.flatnonzero(deficit)
    if not off.size:
        return
    off = off[np.argsort(deficit[off], kind="stable")]
    deficit = deficit[off]
    n = off.size
    # mode="clip" only keeps take from buffering: off is in range.
    shares = np.take(normalized, off, axis=1, out=_rows(ws.shares, n), mode="clip")
    for step in range(1, max(-int(deficit[0]), int(deficit[-1])) + 1):
        over = int(np.searchsorted(deficit, -step, side="right"))
        under = int(np.searchsorted(deficit, step, side="left"))
        if under < n:
            draws = off[under:]
            held = np.take(seats, draws, axis=1, out=_rows(ws.gathered, n - under), mode="clip")
            gain = np.add(held, 1, out=_rows(normalized, n - under))
            seats[_best(_quotients(method, shares[:, under:], gain), _MOST)[0], draws] += 1
        if over:
            draws = off[:over]
            held = np.take(seats, draws, axis=1, out=_rows(ws.gathered, over), mode="clip")
            loss = _quotients(method, shares[:, :over], np.maximum(held, 1, out=_rows(normalized, over)))
            np.putmask(loss, held == 0, np.inf)
            seats[_best(loss, _LEAST)[0], draws] -= 1


def _safety_net(shares, seats, method, guard):
    # Swap any held seat that a stronger unheld quotient should displace,
    # in place, until the seats are the top of the quotient order.
    for _ in range(guard):
        gain_party, gain_val = _best(_quotients(method, shares, seats + 1.0), _MOST)
        loss = np.where(seats > 0, _quotients(method, shares, np.maximum(seats, 1.0)), np.inf)
        loss_party, loss_val = _best(loss, _LEAST)
        swap = (gain_val > loss_val) | ((gain_val == loss_val) & (gain_party < loss_party))
        if not swap.any():
            break
        draws = np.flatnonzero(swap)
        seats[gain_party[draws], draws] += 1
        seats[loss_party[draws], draws] -= 1


def allocate_many(
    shares: np.ndarray,
    house_size: int,
    method: str = DEFAULT_METHOD,
    *,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Allocate seats for every row of an (m, K) share matrix.

    Ineligible parties carry zero entries; all-zero rows are hung and
    receive zero seats. Rows are renormalized internally, by their
    row_totals, so neither the totals nor the seats depend on the
    matrix's memory layout. The seats are those of sequential
    highest-averages assignment on the normalized float shares, ties
    going to the lower column index; on a row whose quotients tie
    exactly only in rational arithmetic, the division's rounding can
    break the tie, so scaling a row can then move a seat. Returns int16
    seats; house_size + K/2 must fit in int16.

    The allocator normalizes shares.T, K party rows of m draws, in place.
    With a workspace and C-contiguous party rows, as elect_many hands
    them, that is shares' own memory: a writable float64 array, which is
    overwritten. Otherwise, and always without a workspace, it is one
    party-major copy, and shares is never modified. workspace, when
    given, must have at least m rows and exactly K parties: the
    temporaries are then its buffers, filled with out=, and the seats
    returned are the transposed view of its seats' party rows, valid
    until the workspace is used again.

    Raises:
        ValueError: for an unknown method, a house that overflows int16
            seats or a workspace too small for shares.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    by_party = np.atleast_2d(np.asarray(shares, dtype=float)).T
    k, m = by_party.shape
    if house_size + k / 2 > _INT16_MAX:
        raise ValueError(f"house_size {house_size} with {k} parties overflows int16 seats")
    if workspace is None or not by_party.flags.c_contiguous:
        by_party = by_party.copy()  # the scratch: the caller's shares are kept
    if workspace is None:
        workspace = Workspace(m, k)
    elif workspace.seats.shape[0] != k or workspace.seats.shape[1] < m:
        raise ValueError(f"workspace too small for {m} rows of {k} parties")
    totals = row_totals(by_party, workspace.totals[:m], workspace.shares)
    with np.errstate(invalid="ignore"):
        normalized = np.divide(by_party, totals, out=by_party)
    dead = np.flatnonzero(~(totals > 0.0))
    normalized[:, dead] = 0.0
    seats, near = _jump(normalized, house_size, method, workspace)
    # int16 sums: a start holds at most h + K/2 seats, which fits.
    deficit = house_size - np.add.reduce(seats, axis=0, dtype=np.int16)
    deficit[dead] = 0

    # Step only the draws whose total is off, and check only the near ones.
    # Why skipping the other draws is exact: the brute-force oracle orders
    # every quotient by (-share/divisor, party), and the result must be
    # the top-h prefix of that order. In a start whose positive-share
    # entries all sit at least _NEAR_INTEGER from an integer, every held
    # quotient exceeds 1/(2h) (Sainte-Lague) or 1/(h + l/2) (D'Hondt) and
    # every unheld one falls below it, by a relative gap of at least
    # ~1e-9/(h + K/2). Float64 rounding is far smaller, so the start is a
    # top-h' prefix of the float order too. A greedy add takes the next
    # entry of the order (the first party on ties) and a greedy remove
    # drops the last one (the last party on ties), so repair keeps it a
    # prefix, and a repaired draw that was not near ends as the top-h
    # prefix already. The safety net converges to that unique prefix, so
    # it could not move a seat in any draw but the near ones.
    near_shares = normalized[:, near]  # a copy: repair overwrites normalized
    _repair(normalized, seats, deficit, method, workspace)
    if near.size:
        sub_seats = seats[:, near]
        _safety_net(near_shares, sub_seats, method, guard=house_size + k + 1)
        seats[:, near] = sub_seats
    return seats.T


def elect_many(
    by_party: np.ndarray, rules: ElectionRules, other: int | None, workspace: Workspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The threshold, then allocate_many, for every draw of a run of (K, n)
    party rows: (eligible, seats, hung), eligible and seats (K, n).

    A party is eligible when its share is positive and at least the
    threshold, and its row is not other, the "other" bucket's row or
    None. The party rows are masked in place, ineligible entries set to 0,
    and go to allocate_many as their (n, K) transposed view: it
    normalizes each draw once, and a divisor method depends only on a
    draw's ratios. A draw is hung, totals 0 and gets no seats exactly
    when no party is eligible. by_party must be a writable float64 array;
    C-ordered, as the sampler's run buffer is, it is the allocator's
    scratch and holds no shares once this returns. The results are views
    of workspace (at least n rows, K parties), each party's row
    contiguous, valid until its next use.
    """
    n = by_party.shape[1]
    limit = max(rules.threshold, _SMALLEST_POSITIVE)
    eligible = np.greater_equal(by_party, limit, out=_rows(workspace.eligible, n))
    if other is not None:
        eligible[other] = False
    # shares * eligible is np.where(eligible, shares, 0.0) bit for bit:
    # shares are finite and >= 0, so x * 1.0 == x and x * 0.0 == +0.0.
    np.multiply(by_party, eligible, out=by_party)
    seats = allocate_many(by_party.T, rules.house_size, rules.method, workspace=workspace)
    hung = np.equal(workspace.totals[:n], 0.0, out=workspace.hung[:n])
    return eligible, seats.T, hung
