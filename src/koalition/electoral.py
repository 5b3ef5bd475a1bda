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

Both rules run on whole blocks of draws: elect_many takes a run as (K, n)
party rows, as the sampler draws it, and returns eligibility and seats as
party rows too. Only this module knows that the allocator works row-major:
it reads the rows' (n, K) transposed view, and elect_many copies its seats
back into party rows once per run. What a parliament's seats mean for a
coalition (a majority is strictly more than half the house) is decided
only in engine, where each event is counted.

row_totals is the one sum of a share row, over party rows: it replays
numpy's pairwise summation, so every row's total is what np.sum(axis=1)
of the row-major matrix gives, bit for bit, whatever the memory layout.
The sampler normalizes its draws with it and allocate_many its rows.
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
    """Reusable buffers for electing up to `rows` share rows of k parties.

    elect_many and allocate_many fill them with out= instead of making
    their temporaries afresh, so a thread that elects run after run keeps
    the same memory. The allocator's buffers are row-major, (rows, k);
    elect_many's eligible and party_seats are party-major, (k, rows). The
    allocator's one float scratch is not here: it is the memory of the
    caller's share rows, which allocate_many overwrites, read row-major,
    once it has normalized them into shares. The scratch holds the start
    x and its fractions, then the repair's gathered shares; the normalized
    shares double as the row totals' temporaries and then as the repair's
    quotients, and the start's positive and near flags are two bool
    halves of the repair's gathered seats, whose memory, once the
    allocator is done, holds party_seats. After allocate_many, totals
    holds each row's total before normalization. One thread uses it at a
    time.
    """

    def __init__(self, rows: int, k: int):
        self.eligible = np.empty((k, rows), dtype=bool)
        self.hung = np.empty(rows, dtype=bool)
        self.shares = np.empty((rows, k))
        self.totals = np.empty(rows)
        self.seats = np.empty((rows, k), dtype=np.int16)
        self.gathered = np.empty((rows, k), dtype=np.int16)
        self.positive, self.near = self.gathered.view(bool).reshape(2, rows, k)
        self.party_seats = self.gathered.reshape(k, rows)


def _pairwise_into(by_party, out, spare):
    # numpy's pairwise_sum into out, a party row per term; the first 3n
    # values of spare are three row-length temporaries.
    k, n = by_party.shape
    if k < 8:
        out.fill(-0.0)
        for row in by_party:
            out += row
        return
    if k <= _PAIRWISE_BLOCK:
        whole = k - k % 8

        def accumulator(j, buffer):
            # Terms j, j + 8, j + 16, ... added in order; a lone term as it is.
            if whole == 8:
                return by_party[j]
            np.add(by_party[j], by_party[j + 8], out=buffer)
            for row in by_party[j + 16 : whole : 8]:
                buffer += row
            return buffer

        a, b, c = spare.reshape(-1)[: 3 * n].reshape(3, n)
        np.add(accumulator(0, out), accumulator(1, a), out=out)
        np.add(accumulator(2, a), accumulator(3, b), out=a)
        out += a
        np.add(accumulator(4, a), accumulator(5, b), out=a)
        np.add(accumulator(6, b), accumulator(7, c), out=b)
        a += b
        out += a
        for row in by_party[whole:]:
            out += row
        return
    half = k // 2 - k // 2 % 8
    _pairwise_into(by_party[:half], out, spare)
    right = np.empty(n)
    _pairwise_into(by_party[half:], right, spare)
    out += right


def row_totals(by_party: np.ndarray, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """The total of each share row, from the (K, n) party rows by_party.

    out[i] is the sum of by_party[:, i], equal bit for bit to
    np.sum(a, axis=1)[i] for the C-ordered (n, K) matrix a = by_party.T,
    whatever by_party's memory layout. numpy sums a C-ordered row with
    its pairwise summation (Higham, SIAM J. Sci. Comput. 14(4), 1993),
    which this replays a party row at a time: fewer than 8 terms one by
    one, up to 128 in 8 accumulators of every eighth term, added in pairs,
    then the rest one by one, and more split in two at half the count
    rounded down to a multiple of 8; np.add.reduce adds that to +0.0.
    out is an (n,) float64 array. From K = 8 on, the sum needs three
    row-length temporaries: the first 3n values of spare, a C-contiguous
    float64 array. Above K = 128 it makes one more per split.
    """
    _pairwise_into(by_party, out, spare)
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


def _jump(shares, house_size, method, ws, x):
    # Floor of share times the multiplier: h + 1/2 rounding for
    # Sainte-Lague, h + l/2 for D'Hondt with l parties of positive share.
    # In exact arithmetic this is a divisor-method apportionment of its own
    # total h', off from h by less than l/2 seats. Also returns the rows
    # with a positive-share entry within _NEAR_INTEGER of an integer. x is
    # a float buffer of the shares' shape for the start and its fractions.
    n, k = shares.shape
    positive = np.greater(shares, 0.0, out=ws.positive[:n])
    if method == "sainte-lague":
        np.multiply(shares, house_size, out=x)
        np.add(x, 0.5, out=x)
    else:
        # Integer row sums, here and for the deficit, come from einsum:
        # their order cannot change them, and it walks short rows several
        # times faster than .sum(axis=1).
        multiplier = np.einsum("ij->i", positive, dtype=np.intp) * 0.5
        multiplier += house_size
        np.multiply(shares, multiplier[:, None], out=x)
    seats = ws.seats[:n]
    np.copyto(seats, x, casting="unsafe")  # x >= 0, so truncation is the floor
    frac = np.subtract(x, seats, out=x)
    near = np.less(frac, _NEAR_INTEGER, out=ws.near[:n])
    near &= positive
    # positive keeps only its entries near the integer above, then joins near.
    np.greater(frac, 1.0 - _NEAR_INTEGER, out=positive, where=positive)
    near |= positive
    # Near entries are rare: find their rows from the flat indices.
    rows = np.unique(np.flatnonzero(near) // k) if near.any() else np.empty(0, np.intp)
    return seats, rows


def _repair(shares, seats, deficit, method, work):
    # Greedy one-seat steps, in place: add the strongest unheld quotient on
    # rows short of the house, drop the weakest held one on rows above it.
    # Rows come sorted by deficit, so the rows still off by >= step seats
    # are a leading (over) and a trailing (under) slice: the set shrinks on
    # every pass and no pass copies or re-scans the finished rows. work is
    # a float buffer of at least the rows' shape for the quotients.
    n, k = shares.shape
    for step in range(1, max(-int(deficit[0]), int(deficit[-1]), 0) + 1):
        over = int(np.searchsorted(deficit, -step, side="right"))
        under = int(np.searchsorted(deficit, step, side="left"))
        if under < n:
            held = seats[under:]
            gain = _quotients(method, shares[under:], np.add(held, 1, out=work[: n - under]))
            cols = np.argmax(gain, axis=1)  # first max: earlier party wins ties
            held[np.arange(n - under), cols] += 1
        if over:
            # Columns reversed, so argmin's first min is the last in party
            # order: the later party loses its seat first on ties.
            held = seats[:over, ::-1]
            loss = _quotients(method, shares[:over, ::-1], np.maximum(held, 1, out=work[:over]))
            np.putmask(loss, held == 0, np.inf)
            cols = k - 1 - np.argmin(loss, axis=1)
            seats[np.arange(over), cols] -= 1


def _safety_net(shares, seats, method, guard):
    # Swap any held seat that a stronger unheld quotient should displace,
    # in place, until the seats are the top of the quotient order.
    m, k = shares.shape
    for _ in range(guard):
        gain = _quotients(method, shares, seats + 1.0)
        gain_col = np.argmax(gain, axis=1)
        gain_val = gain[np.arange(m), gain_col]
        loss = np.where(seats > 0, _quotients(method, shares, np.maximum(seats, 1.0)), np.inf)
        loss_col = k - 1 - np.argmin(loss[:, ::-1], axis=1)
        loss_val = loss[np.arange(m), loss_col]
        swap = (gain_val > loss_val) | ((gain_val == loss_val) & (gain_col < loss_col))
        if not swap.any():
            break
        rows = np.flatnonzero(swap)
        seats[rows, gain_col[rows]] += 1
        seats[rows, loss_col[rows]] -= 1


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

    workspace, when given, must have at least m rows and exactly K
    columns: the (m, K) temporaries are then its buffers, filled with
    out=, and the returned seats are a view of workspace.seats, valid
    until the workspace is used again. One divide, transposing when
    shares is the transposed view of party rows, writes the normalized
    shares into workspace.shares. The float scratch is then the memory of
    shares, read row-major, which must be a writable float64 array: it is
    overwritten once it has been read. Without a workspace, one is made
    for the call, with a copy of shares as its scratch, and shares is
    never modified.

    Raises:
        ValueError: for an unknown method, a house that overflows int16
            seats or a workspace too small for shares.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    shares = np.asarray(shares, dtype=float)
    if workspace is None:
        shares = shares.copy()  # the scratch: the caller's shares are kept
    shares = np.atleast_2d(shares)
    m, k = shares.shape
    if house_size + k / 2 > _INT16_MAX:
        raise ValueError(f"house_size {house_size} with {k} parties overflows int16 seats")
    if workspace is None:
        workspace = Workspace(m, k)
    elif workspace.seats.shape[0] < m or workspace.seats.shape[1] != k:
        raise ValueError(f"workspace too small for {m} rows of {k} parties")
    # The normalized shares' buffer is free until the divide: it holds
    # the sum's temporaries.
    totals = row_totals(shares.T, workspace.totals[:m], workspace.shares)
    normalized = workspace.shares[:m]
    with np.errstate(invalid="ignore"):
        np.divide(shares, totals[:, None], out=normalized)
    dead = np.flatnonzero(~(totals > 0.0))
    normalized[dead] = 0.0

    # The shares' values are in normalized now; their memory, read
    # row-major, is the scratch (a copy only for a non-contiguous input).
    scratch = np.ravel(shares, order="K").reshape(m, k)
    seats, near_rows = _jump(normalized, house_size, method, workspace, scratch)
    # int16 sums: a start holds at most h + K/2 seats, which fits.
    deficit = np.einsum("ij->i", seats)
    np.subtract(house_size, deficit, out=deficit)
    deficit[dead] = 0

    # Step only the rows whose total is off, and check only the near ones.
    # Why skipping the other rows is exact: the brute-force oracle orders
    # every quotient by (-share/divisor, column), and the result must be
    # the top-h prefix of that order. In a start whose positive-share
    # entries all sit at least _NEAR_INTEGER from an integer, every held
    # quotient exceeds 1/(2h) (Sainte-Lague) or 1/(h + l/2) (D'Hondt) and
    # every unheld one falls below it, by a relative gap of at least
    # ~1e-9/(h + K/2). Float64 rounding is far smaller, so the start is a
    # top-h' prefix of the float order too. A greedy add takes the next
    # entry of the order (argmax, first column on ties) and a greedy
    # remove drops the last one (argmin from the right), so repair keeps
    # it a prefix, and a repaired row that was not near ends as the top-h
    # prefix already. The safety net converges to that unique prefix, so
    # it could not move a seat in any row but the near ones.
    near_shares = normalized[near_rows]  # a copy: repair reuses the buffer
    off = np.flatnonzero(deficit)
    if off.size:
        off = off[np.argsort(deficit[off], kind="stable")]
        n = off.size
        # mode="clip" only keeps take from buffering: off is in range.
        sub_seats = np.take(seats, off, axis=0, out=workspace.gathered[:n], mode="clip")
        sub_shares = np.take(normalized, off, axis=0, out=scratch[:n], mode="clip")
        _repair(sub_shares, sub_seats, deficit[off], method, normalized)
        seats[off] = sub_seats
    if near_rows.size:
        sub_seats = seats[near_rows]
        _safety_net(near_shares, sub_seats, method, guard=house_size + k + 1)
        seats[near_rows] = sub_seats
    return seats


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
    draw's ratios. Its row-major seats are then copied into
    workspace.party_seats. A draw is hung, totals 0 and gets no seats
    exactly when no party is eligible. by_party must be a writable
    float64 array: it is overwritten, as the allocator's scratch, and
    holds no shares once this returns. The results are views of
    workspace (at least n rows, K parties), each party's row contiguous,
    valid until its next use.
    """
    n = by_party.shape[1]
    limit = max(rules.threshold, _SMALLEST_POSITIVE)
    eligible = np.greater_equal(by_party, limit, out=workspace.eligible[:, :n])
    if other is not None:
        eligible[other] = False
    # shares * eligible is np.where(eligible, shares, 0.0) bit for bit:
    # shares are finite and >= 0, so x * 1.0 == x and x * 0.0 == +0.0.
    np.multiply(by_party, eligible, out=by_party)
    seats = allocate_many(by_party.T, rules.house_size, rules.method, workspace=workspace)
    party_seats = workspace.party_seats[:, :n]
    np.copyto(party_seats, seats.T)
    hung = np.equal(workspace.totals[:n], 0.0, out=workspace.hung[:n])
    return eligible, party_seats, hung
