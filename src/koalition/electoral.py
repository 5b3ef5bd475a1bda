"""German-style election mechanics: threshold, seat allocation, majorities.

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
exactly, including tie-breaks by party order. Seats are int16, which
bounds the house at MAX_HOUSE_SIZE (16383): the D'Hondt start can
overshoot by l/2 seats.

Threshold semantics: a party with share strictly below the threshold is
excluded, so a party at exactly 5% enters parliament. The residual
"other" bucket is never eligible regardless of its size, because it
aggregates many small parties none of which clears the threshold alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ElectionRules",
    "SeatAllocation",
    "Workspace",
    "allocate_many",
    "allocate_seats",
    "apply_threshold",
    "coalition_seats",
    "elect_many",
    "has_majority",
    "subset_sufficient",
]

METHODS = ("sainte-lague", "dhondt")

DEFAULT_THRESHOLD = 0.05
DEFAULT_HOUSE_SIZE = 598
# int16 seat counts hold the D'Hondt start, which can reach h + l/2 seats
# for l parties; half the int16 range leaves room for any l up to 2^15.
_INT16_MAX = np.iinfo(np.int16).max
MAX_HOUSE_SIZE = _INT16_MAX // 2
# A start closer than this to an integer is a possible float near-tie and
# gets the safety net; see allocate_many.
_NEAR_INTEGER = 1e-9


@dataclass(frozen=True)
class ElectionRules:
    threshold: float = DEFAULT_THRESHOLD
    house_size: int = DEFAULT_HOUSE_SIZE
    method: str = "sainte-lague"

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


def apply_threshold(
    shares: Mapping[str, float],
    rules: ElectionRules,
    other_id: str | None = None,
) -> dict[str, float]:
    """Drop sub-threshold parties and the other bucket, then renormalize.

    Returns the eligible parties (input order preserved) with shares
    rescaled to sum 1. An empty dict flags a hung outcome; it is a valid
    state, not an error.
    """
    eligible = {
        pid: share
        for pid, share in shares.items()
        if pid != other_id and share >= rules.threshold
    }
    total = sum(eligible.values())
    if total <= 0.0:
        return {}
    return {pid: share / total for pid, share in eligible.items()}


class Workspace:
    """Reusable buffers for electing up to `rows` share rows of k parties.

    elect_many and allocate_many fill them with out= instead of making
    their temporaries afresh, so a thread that elects block after block
    keeps the same memory. Buffers whose uses never overlap share memory:
    scratch holds the thresholded shares, then the start x and its
    fractions, then the repair's gathered shares; the normalized shares
    double as the repair's quotients. One thread uses it at a time.
    """

    def __init__(self, rows: int, k: int):
        self.eligible = np.empty((rows, k), dtype=bool)
        self.hung = np.empty(rows, dtype=bool)
        self.scratch = np.empty((rows, k))
        self.shares = np.empty((rows, k))
        self.totals = np.empty((rows, 1))
        self.positive = np.empty((rows, k), dtype=bool)
        self.near = np.empty((rows, k), dtype=bool)
        self.seats = np.empty((rows, k), dtype=np.int16)
        self.gathered = np.empty((rows, k), dtype=np.int16)


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
    # total h', off from h by less than l/2 seats. Also returns the rows
    # with a positive-share entry within _NEAR_INTEGER of an integer.
    n, k = shares.shape
    positive = np.greater(shares, 0.0, out=ws.positive[:n])
    x = ws.scratch[:n]
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
    near |= frac > 1.0 - _NEAR_INTEGER
    near &= positive
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
    method: str = "sainte-lague",
    *,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Allocate seats for every row of an (m, K) share matrix.

    Ineligible parties carry zero entries; all-zero rows are hung and
    receive zero seats. Rows are renormalized internally, so scaling a
    row by a positive constant cannot change its allocation. Ties break
    toward the lower column index, matching sequential highest-averages
    assignment. Returns int16 seats; house_size + K/2 must fit in int16.

    shares is never modified. workspace, when given, must have at least m
    rows and exactly K columns: the (m, K) temporaries are then its
    buffers, filled with out=, and the returned seats are a view of
    workspace.seats, valid until the workspace is used again. shares is
    read only before any buffer is written, so it may be a view of
    workspace.scratch. Without one, a workspace is made for the call.

    Raises:
        ValueError: for an unknown method, a house that overflows int16
            seats or a workspace too small for shares.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    shares = np.atleast_2d(np.asarray(shares, dtype=float))
    m, k = shares.shape
    if house_size + k / 2 > _INT16_MAX:
        raise ValueError(f"house_size {house_size} with {k} parties overflows int16 seats")
    if workspace is None:
        workspace = Workspace(m, k)
    elif workspace.seats.shape[0] < m or workspace.seats.shape[1] != k:
        raise ValueError(f"workspace too small for {m} rows of {k} parties")
    totals = np.sum(shares, axis=1, keepdims=True, out=workspace.totals[:m])
    normalized = workspace.shares[:m]
    with np.errstate(invalid="ignore"):
        np.divide(shares, totals, out=normalized)
    dead = np.flatnonzero(~(totals[:, 0] > 0.0))
    normalized[dead] = 0.0

    seats, near_rows = _jump(normalized, house_size, method, workspace)
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
        sub_shares = np.take(normalized, off, axis=0, out=workspace.scratch[:n], mode="clip")
        _repair(sub_shares, sub_seats, deficit[off], method, normalized)
        seats[off] = sub_seats
    if near_rows.size:
        sub_seats = seats[near_rows]
        _safety_net(near_shares, sub_seats, method, guard=house_size + k + 1)
        seats[near_rows] = sub_seats
    return seats


def elect_many(
    shares: np.ndarray, rules: ElectionRules, other: int | None, workspace: Workspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """apply_threshold and allocate_many for every row of an (n, K) share
    matrix: (eligible, seats, hung).

    A party is eligible when its share is at least the threshold and its
    column is not other, the "other" bucket's column or None. A row with
    no eligible party is hung and gets no seats. shares is never
    modified; the results are views of workspace (at least n rows, K
    columns), valid until its next use.
    """
    n = shares.shape[0]
    eligible = np.greater_equal(shares, rules.threshold, out=workspace.eligible[:n])
    if other is not None:
        eligible[:, other] = False
    # shares * eligible is np.where(eligible, shares, 0.0) bit for bit:
    # shares are finite and >= 0, so x * 1.0 == x and x * 0.0 == +0.0.
    masked = np.multiply(shares, eligible, out=workspace.scratch[:n])
    totals = np.sum(masked, axis=1, keepdims=True, out=workspace.totals[:n])
    hung = np.equal(totals[:, 0], 0.0, out=workspace.hung[:n])
    # In place; a hung row's 0/0 is NaN, and allocate_many gives a row
    # whose total is not > 0 zero seats.
    with np.errstate(invalid="ignore"):
        renorm = np.divide(masked, totals, out=masked)
    seats = allocate_many(renorm, rules.house_size, rules.method, workspace=workspace)
    return eligible, seats, hung


def allocate_seats(
    eligible_shares: Mapping[str, float],
    rules: ElectionRules,
    parties: Sequence[str] | None = None,
) -> SeatAllocation:
    """Allocate the full house among eligible parties.

    parties, when given, fixes the universe of the seat map (zero-filled
    for non-eligible members); it defaults to the eligible parties.
    """
    universe = tuple(parties) if parties is not None else tuple(eligible_shares)
    if not eligible_shares:
        return SeatAllocation(seats={p: 0 for p in universe}, eligible=frozenset())
    row = np.array([[eligible_shares.get(p, 0.0) for p in universe]])
    seats = allocate_many(row, rules.house_size, rules.method)[0]
    return SeatAllocation(
        seats={p: int(s) for p, s in zip(universe, seats)},
        eligible=frozenset(eligible_shares),
    )


def coalition_seats(alloc: SeatAllocation, coalition: Iterable[str]) -> int:
    total = 0
    for pid in coalition:
        if pid not in alloc.seats:
            raise ValueError(f"unknown-party: {pid!r}")
        total += alloc.seats[pid]
    return total


def has_majority(seats: int, rules: ElectionRules) -> bool:
    """Strictly more than half the house; 300 of 598 is the edge case."""
    return 2 * seats > rules.house_size


def subset_sufficient(
    alloc: SeatAllocation, coalition: Iterable[str], rules: ElectionRules
) -> bool:
    """True when some proper subset of the coalition already has a majority.

    Enumerates proper subsets outright; coalitions are small. (The maximal
    proper-subset sum is the coalition minus its weakest member, which the
    Monte-Carlo engine uses as a fast path; this function stays the
    independent reference.)
    """
    members = tuple(coalition)
    if not members:
        raise ValueError("coalition must not be empty")
    for size in range(1, len(members)):
        for subset in combinations(members, size):
            if has_majority(coalition_seats(alloc, subset), rules):
                return True
    return False
