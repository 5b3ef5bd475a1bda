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
    "allocate_many",
    "allocate_seats",
    "apply_threshold",
    "coalition_seats",
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


def _signposts(method: str, counts: np.ndarray) -> np.ndarray:
    # Divisor for winning the counts-th seat; counts >= 1. Sainte-Lague's
    # 2 * counts - 1 is taken in float64, where int16 counts cannot wrap.
    if method == "sainte-lague":
        return 2.0 * counts - 1.0
    return counts


def _jump(shares, house_size, method):
    # Floor of share times the multiplier: h + 1/2 rounding for
    # Sainte-Lague, h + l/2 for D'Hondt with l parties of positive share.
    # In exact arithmetic this is a divisor-method apportionment of its own
    # total h', off from h by less than l/2 seats. Also flags the rows with
    # a positive-share entry within _NEAR_INTEGER of an integer.
    positive = shares > 0.0
    if method == "sainte-lague":
        x = shares * house_size + 0.5
    else:
        x = shares * (house_size + 0.5 * positive.sum(axis=1))[:, None]
    seats = x.astype(np.int16)  # x >= 0, so truncation is the floor
    frac = np.subtract(x, seats, out=x)
    near = ((frac < _NEAR_INTEGER) | (frac > 1.0 - _NEAR_INTEGER)) & positive
    return seats, near.any(axis=1)


def _repair(shares, seats, deficit, method):
    # Greedy one-seat steps, in place: add the strongest unheld quotient on
    # rows short of the house, drop the weakest held one on rows above it.
    # Rows come sorted by deficit, so the rows still off by >= step seats
    # are a leading (over) and a trailing (under) slice: the set shrinks on
    # every pass and no pass copies or re-scans the finished rows.
    k = shares.shape[1]
    for step in range(1, int(np.abs(deficit).max(initial=0)) + 1):
        over = int(np.searchsorted(deficit, -step, side="right"))
        under = int(np.searchsorted(deficit, step, side="left"))
        if under < deficit.size:
            held = seats[under:]
            gain = shares[under:] / _signposts(method, held + 1)
            cols = np.argmax(gain, axis=1)  # first max: earlier party wins ties
            held[np.arange(held.shape[0]), cols] += 1
        if over:
            held = seats[:over]
            loss = np.where(
                held > 0,
                shares[:over] / _signposts(method, np.maximum(held, 1)),
                np.inf,
            )
            # last min: the later party loses its seat first on ties
            cols = k - 1 - np.argmin(loss[:, ::-1], axis=1)
            held[np.arange(over), cols] -= 1


def _safety_net(shares, seats, method, guard):
    # Swap any held seat that a stronger unheld quotient should displace,
    # in place, until the seats are the top of the quotient order.
    m, k = shares.shape
    for _ in range(guard):
        gain = shares / _signposts(method, seats + 1)
        gain_col = np.argmax(gain, axis=1)
        gain_val = gain[np.arange(m), gain_col]
        loss = np.where(
            seats > 0, shares / _signposts(method, np.maximum(seats, 1)), np.inf
        )
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
) -> np.ndarray:
    """Allocate seats for every row of an (m, K) share matrix.

    Ineligible parties carry zero entries; all-zero rows are hung and
    receive zero seats. Rows are renormalized internally, so scaling a
    row by a positive constant cannot change its allocation. Ties break
    toward the lower column index, matching sequential highest-averages
    assignment. Returns int16 seats; house_size + K/2 must fit in int16.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    shares = np.atleast_2d(np.asarray(shares, dtype=float))
    m, k = shares.shape
    if house_size + k / 2 > _INT16_MAX:
        raise ValueError(f"house_size {house_size} with {k} parties overflows int16 seats")
    totals = shares.sum(axis=1, keepdims=True)
    live = totals[:, 0] > 0.0
    with np.errstate(invalid="ignore"):
        shares = shares / totals
    shares[~live] = 0.0

    seats, near = _jump(shares, house_size, method)
    deficit = house_size - seats.sum(axis=1)
    deficit[~live] = 0

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
    off = np.flatnonzero(deficit)
    if off.size:
        off = off[np.argsort(deficit[off], kind="stable")]
        sub_seats = seats[off]
        _repair(shares[off], sub_seats, deficit[off], method)
        seats[off] = sub_seats
    near_rows = np.flatnonzero(near)
    if near_rows.size:
        sub_seats = seats[near_rows]
        _safety_net(shares[near_rows], sub_seats, method, guard=house_size + k + 1)
        seats[near_rows] = sub_seats
    return seats


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
