"""Monte-Carlo engine: posterior draws -> parliaments -> event probabilities.

All quantities for one (posterior, rules, m, seed) tuple are computed from
the same deterministic draws, so identities like PoE(E) + PoE(not E) == 1
and majority_mass == PoE(coalition majority) hold exactly, draw for draw.
A hung parliament (no party passes the threshold) counts as "no majority"
for every coalition and is reported separately in diagnostics.

Every result streams through run_simulation: each 4096-draw block is
thresholded and allocated on the thread that drew it and handed to a
per-block reducer there. estimate_poe adds each block's event counts to
one total, estimate_poe and share_bands keep two brackets per party
band, seat_distribution one seat share per draw while it runs and
sample_parliaments the k rows it returns; no m x K array and no cache
outlives a call. Each thread of a call reuses one electoral.Workspace
for the threshold and the allocator, so no block makes its own
temporaries. Every party's 95% share band comes from two brackets, one
per band end, fed a block at a time: each keeps O(sqrt(m)) values and
is exact, because a bracket that misses its quantile is detected and
settled by a second pass over the same values, which the counter-based
draws reproduce. seat_distribution instead sorts its m seat shares in
place once and reads the density, the 95% interval and the majority
mass from that one sorted sample. per_date is the one series API: every
per-date figure and the forecast module's fan chart pass it a posterior
per date and an estimate, such as estimate_poe or seat_distribution,
and keep what that returns.
"""

from __future__ import annotations

import datetime as dt
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .electoral import ElectionRules, SeatAllocation, Workspace, elect_many
from .pooling import NoPollsError
from .posterior import BLOCK, DirichletPosterior, sample_shares

__all__ = [
    "EventSpec",
    "PoEResult",
    "SeatShareDistribution",
    "Summary",
    "estimate_poe",
    "run_simulation",
    "sample_parliaments",
    "seat_distribution",
    "share_bands",
    "per_date",
]

EVENT_KINDS = ("coalition-majority", "party-above-threshold", "strongest-party")

MIN_DRAWS = 1000
# The most draws the CLI accepts (hours of sampling): a fixed bound, so a
# larger count is refused alike on every host, not by a failed allocation.
MAX_DRAWS = 10**10
# The most parliaments the CLI draws: each is a SeatAllocation object of
# about 1 KB, so a larger count is refused, not built.
MAX_PARLIAMENTS = 10**4
DENSITY_GRID_POINTS = 512

# Bandwidth floor for degenerate (point-mass) seat distributions, in seat
# share units; keeps the density finite instead of a delta spike.
_BW_FLOOR = 1e-4
# The density's kernel matrix is built this many grid rows at a time, so
# its memory grows with the distinct seat shares 16 times slower. A
# multiple of 16 rows keeps BLAS computing every row as in one product.
_KDE_ROWS = 32


@dataclass(frozen=True)
class EventSpec:
    """A political event whose probability is of interest.

    kind "coalition-majority" takes one or more parties; the other kinds
    take exactly one. negate flips the event, evaluated on the same draws.
    """

    kind: str
    parties: tuple[str, ...]
    negate: bool = False

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"kind must be one of {EVENT_KINDS}")
        if not self.parties:
            raise ValueError("parties must not be empty")
        if self.kind != "coalition-majority" and len(self.parties) != 1:
            raise ValueError(f"{self.kind} takes exactly one party")
        if len(set(self.parties)) != len(self.parties):
            raise ValueError("duplicate party in event")


@dataclass(frozen=True)
class PoEResult:
    probability: float
    mc_stderr: float
    subset_probability: float
    m: int
    seed: int
    hits: int
    subset_hits: int


@dataclass(frozen=True)
class Summary:
    """What a report needs from one simulation: counts and party bands.

    events holds one PoEResult per requested event, in request order;
    hung counts the draws in which no party passed the threshold; bands
    maps each party to the nearest-rank 2.5% and 97.5% quantiles of its
    share (empty unless requested).
    """

    m: int
    events: tuple[PoEResult, ...]
    hung: int
    bands: dict[str, tuple[float, float]]

    @property
    def hung_fraction(self) -> float:
        return self.hung / self.m


@dataclass(frozen=True)
class SeatShareDistribution:
    """A coalition's seat-share density on a fixed grid, with its summaries.

    Only the summaries are kept, not the draws behind them, so a series
    of these holds 2 x 512 floats per date whatever m is.
    """

    grid: np.ndarray
    density: np.ndarray
    ci95: tuple[float, float]
    majority_mass: float

    def __post_init__(self):
        for arr in (self.grid, self.density):
            arr.flags.writeable = False


def _column(parties: tuple[str, ...], party_id: str) -> int:
    try:
        return parties.index(party_id)
    except ValueError:
        raise ValueError(f"unknown-party: {party_id!r}") from None


def run_simulation(
    posterior: DirichletPosterior,
    rules: ElectionRules,
    m: int,
    seed: int,
    workers: int = 1,
    *,
    on_block,
) -> None:
    """Sample m share vectors and elect a parliament from each.

    Each 4096-draw block goes through elect_many on the thread that
    sampled it and is handed there to on_block(lo, hi, shares, eligible,
    seats, hung) for the rows [lo, hi); its arrays are valid only during
    the call, and nothing is kept or returned. Blocks may arrive in any
    order, each exactly once; every step works row by row, so the worker
    count never changes a row. Each thread makes one electoral.Workspace
    (1.26 MB at K=13) on its first block of the call and reuses it for
    the rest.
    """
    parties, other_id = posterior.parties, posterior.other_id
    other = None if other_id is None else parties.index(other_id)
    local = threading.local()

    def elect(lo, hi, shares):
        ws = getattr(local, "ws", None)
        if ws is None:
            ws = local.ws = Workspace(BLOCK, len(parties))
        on_block(lo, hi, shares, *elect_many(shares, rules, other, ws))

    sample_shares(posterior, m, seed, workers, on_block=elect)


def _require_draws(m: int) -> None:
    # Below this the Monte-Carlo error is too large to report honestly.
    if m < MIN_DRAWS:
        raise ValueError(f"insufficient-draws: need m >= {MIN_DRAWS}, got {m}")


class _RankSelector:
    """The rank-th smallest of rank + 1 or more values fed at most BLOCK
    at a time, exactly.

    The buffer of 2 * (rank + 1) + BLOCK slots starts with rank + 1 copies
    of the first cut, +inf, which cannot change the answer. When a block
    does not fit, the buffer is partitioned in place down to its rank + 1
    smallest values and the cut becomes the largest of them. The cut never
    falls below the rank-th smallest of everything seen, and rank + 1 kept
    values lie at or below it, so the answer does not depend on the block
    order, block size or tie pattern. The selector allocates nothing once
    made; its caller serializes add.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.buffer = np.empty(2 * (rank + 1) + BLOCK)
        self.buffer[: rank + 1] = np.inf
        self.size = rank + 1

    def add(self, values: np.ndarray) -> None:
        if self.size + values.size > self.buffer.size:
            self.buffer[: self.size].partition(self.rank)
            self.size = self.rank + 1
        self.buffer[self.size : self.size + values.size] = values
        self.size += values.size

    def value(self) -> float:
        return float(np.partition(self.buffer[: self.size], self.rank)[self.rank])


def _ci95_ranks(n: int) -> tuple[int, int]:
    # The 0-based ranks of the nearest-rank 2.5% and 97.5% quantiles of n values.
    return max(1, math.ceil(0.025 * n)) - 1, min(n, math.ceil(0.975 * n)) - 1


def _margin(seen: int) -> int:
    # Six binomial standard deviations of a 2.5% quantile's rank among the
    # values seen so far, plus one.
    return math.ceil(6.0 * math.sqrt(seen * 0.025 * 0.975)) + 1


class _Tail:
    """A bracket around the rank-th smallest of n values y; see _Bands.

    It keeps the bracket [lo, hi], exact counts of the values below lo,
    equal to lo, kept inside and equal to hi, and every value strictly
    inside, in a buffer of its own.
    """

    def __init__(self, rank: int, n: int):
        self.rank, self.n = rank, n
        self.lo, self.hi = -math.inf, math.inf
        self.below = self.at_lo = self.size = self.at_hi = 0
        self.kept = np.empty(4 * (_margin(n) + 1))

    def add(self, values: np.ndarray, seen: int) -> None:
        """Count a block's candidates, its values y <= hi, and keep those
        inside; seen counts the values fed so far, this block included."""
        values.sort()  # runs: below lo, at lo, inside, at hi
        below, at_hi = values.searchsorted((self.lo, self.hi))
        past_lo = values.searchsorted(self.lo, "right")
        at_hi = max(at_hi, past_lo)  # if hi == lo, its copies count at lo
        inside = values[past_lo:at_hi]
        self.below += below
        self.at_lo += past_lo - below
        self.at_hi += values.size - at_hi
        if self.size + values.size > self.kept.size:
            self._narrow(inside, seen)
        else:
            self.kept[self.size : self.size + inside.size] = inside
            self.size += inside.size

    def _narrow(self, inside: np.ndarray, seen: int) -> None:
        # Pool the values inside with the kept ones and narrow the bracket
        # to their order statistics around the target's expected place.
        pooled = np.concatenate((self.kept[: self.size], inside))
        if pooled.size == 0:
            return
        lo, hi = self.lo, self.hi
        margin = _margin(seen)
        target = self.rank * seen / self.n - self.below - self.at_lo
        a = min(max(math.floor(target) - margin, 0), pooled.size - 1)
        b = min(max(math.ceil(target) + margin, a), pooled.size - 1)
        pooled.partition((a, b))
        if a > 0:  # the copies of the old lo now lie below
            lo = float(pooled[a])
            self.below += self.at_lo + np.count_nonzero(pooled < lo)
            self.at_lo = np.count_nonzero(pooled == lo)
        if b < pooled.size - 1:  # the copies of the old hi now lie above
            hi = float(pooled[b])
            self.at_hi = np.count_nonzero(pooled == hi) if hi > lo else 0
        pooled = pooled[(pooled > lo) & (pooled < hi)]
        self.lo, self.hi = lo, hi
        self.size = pooled.size
        self.kept[: self.size] = pooled

    def end(self) -> float | tuple[float, float, int]:
        """The target if the counts place it at an end or among the kept
        values; else (side, cut, rank): the target is then the rank-th
        smallest of side * y over the values with side * y > cut."""
        place = self.rank - self.below  # the target's place past the values below lo
        if place < 0:  # the largest but -place - 1 of the values below lo
            return -1.0, -self.lo, -place - 1
        place -= self.at_lo
        if place < 0:
            return self.lo
        if place < self.size:
            return float(np.partition(self.kept[: self.size], place)[place])
        place -= self.size
        if place < self.at_hi:
            return self.hi
        return 1.0, self.hi, place - self.at_hi


class _Bands:
    """Nearest-rank 2.5% and 97.5% quantiles of each of the k columns of
    n rows fed at most BLOCK rows at a time, exactly.

    Each column has two tails, each a _Tail bracket of its own. The low
    tail selects the r-th smallest value y = x; the high tail the
    matching smallest of y = -x, which is exact and reverses the order,
    ties included. Each block hands a tail only its candidates, the
    values y <= hi; the high tail negates only those. The bracket starts
    open. When a tail's buffer would overflow, it narrows to the kept
    values' order statistics around the rank the target should have
    among the values seen so far, plus _margin of them on each side:
    values that fall below lo are counted, those above hi are dropped,
    and copies of an end are counted, so ties take no room. The bracket
    only narrows, so the counts stay exact whatever the block order. A
    buffer of 4 * (_margin(n) + 1) values per tail holds the bracket:
    O(sqrt(n)), and never more. After a narrowing, at most
    2 * _margin(seen) + 2 values lie strictly inside: they sit between
    pooled order statistics at most 2 * margin + 1 ranks apart, and if
    neither end moves, the pool itself is at most that large. As seen <= n,
    that is at most half the buffer, which therefore never grows.

    At the end, a tail whose counts place its target at an end or among
    the kept values holds it. For a stream in random order that fails
    about once in 10^9 narrowings, for a sorted one it is likely; either
    way it is detected and the target is selected in a second pass over
    the same values, among those on the side the counts name.
    """

    def __init__(self, n: int, k: int):
        low, high = _ci95_ranks(n)
        self.tails = [(_Tail(low, n), _Tail(n - 1 - high, n)) for _ in range(k)]
        self.seen = 0
        self.lock = threading.Lock()

    def add(self, block: np.ndarray) -> None:
        """Take a rows x k block, one tail at a time under one lock."""
        with self.lock:
            self.seen += block.shape[0]
            for c, (low, high) in enumerate(self.tails):
                x = block[:, c]
                low.add(x[x <= low.hi], self.seen)
                y = x[x >= -high.hi]
                high.add(np.negative(y, out=y), self.seen)

    def ci95(self, rescan) -> list[tuple[float, float]]:
        """(2.5%, 97.5%) per column.

        rescan(add) must call add with every block of the same values
        again, in any order; it runs only if some bracket missed its
        target.
        """
        ends, missed = {}, {}
        for c, pair in enumerate(self.tails):
            for sign, tail in zip((1.0, -1.0), pair):
                end = tail.end()
                if isinstance(end, tuple):  # select over z = side * sign * x
                    side, cut, rank = end
                    missed[c, sign] = side * sign, cut, _RankSelector(rank)
                else:
                    ends[c, sign] = sign * end

        def add(block):
            with self.lock:
                for (c, _), (factor, cut, selector) in missed.items():
                    z = factor * block[:, c]
                    z = z[z > cut]
                    for lo in range(0, z.size, BLOCK):
                        selector.add(z[lo : lo + BLOCK])

        if missed:
            rescan(add)
        for key, (factor, _, selector) in missed.items():
            ends[key] = factor * selector.value()
        return [(ends[c, 1.0], ends[c, -1.0]) for c in range(len(self.tails))]


def _event_hits(event, cols, eligible, by_party, hung, house_size) -> tuple[int, int]:
    """Hits and subset hits of one event over the rows of a block.

    by_party holds the block's seats transposed, one contiguous row per
    party, so each member's seats are read in one pass.
    """
    # For integer seats, 2 * s > h exactly when s > h // 2; every sum here
    # is at most h, so the int16 arithmetic cannot wrap.
    half = house_size // 2
    if event.kind == "coalition-majority":
        total = by_party[cols[0]].copy()
        weakest = total.copy()
        for col in cols[1:]:
            total += by_party[col]
            np.minimum(weakest, by_party[col], out=weakest)
        mask = total > half
    elif event.kind == "party-above-threshold":
        mask = eligible[:, cols[0]]
    else:  # strongest-party: strictly more seats than every other party
        top = by_party.max(axis=0)
        unique_top = (by_party == top).sum(axis=0) == 1
        mask = (by_party[cols[0]] == top) & unique_top & ~hung
    hits = int(np.count_nonzero(mask))
    if event.negate:
        hits = mask.size - hits
    # Best proper subset = coalition minus its weakest member; seats are
    # non-negative, so checking that one subset covers all of them. For the
    # same reason a subset majority implies the full coalition's majority,
    # so "some proper subset wins" and "subset wins while the coalition
    # also wins" are the same event; no separate definition is needed.
    if event.kind != "coalition-majority" or event.negate or len(cols) < 2:
        return hits, 0
    return hits, int(np.count_nonzero(total - weakest > half))


def _poe_result(hits: int, subset_hits: int, m: int, seed: int) -> PoEResult:
    p = hits / m
    return PoEResult(
        probability=p,
        mc_stderr=math.sqrt(p * (1.0 - p) / m),
        subset_probability=subset_hits / m,
        m=m,
        seed=seed,
        hits=hits,
        subset_hits=subset_hits,
    )


def estimate_poe(
    posterior: DirichletPosterior,
    rules: ElectionRules,
    event: EventSpec | Sequence[EventSpec],
    m: int,
    seed: int,
    workers: int = 1,
    *,
    bands: bool = False,
) -> PoEResult | Summary:
    """Probability of an event over m draws, with its MC error.

    event is one EventSpec, which gives its PoEResult, or a sequence of
    them, which gives a Summary of all of them from the same draws: a
    PoEResult per event, the hung count and, with bands, every party's
    95% share band. Each 4096-draw block is sampled, thresholded and
    allocated on the thread that drew it and reduced there, while it is
    cache-hot, to integer hits per event, added to one total under a
    lock, and to a bracket around each band end; no m x K array exists.
    The counts are integers and the bands exact order statistics, so the
    result equals the one computed from every draw at once and never
    depends on the worker count. The brackets hold O(sqrt(m)) values per
    party and tail (0.78 MB in all at m=1e6 and 13 parties). In the rare
    case that a bracket misses its quantile, the shares alone are sampled
    again to settle it.

    Raises:
        ValueError: "insufficient-draws" when m < 1000, below which the
            standard error is too large to report honestly; "unknown-party"
            when an event names a party the posterior lacks.
    """
    _require_draws(m)
    single = isinstance(event, EventSpec)
    events = (event,) if single else tuple(event)
    parties = posterior.parties
    cols = [[_column(parties, p) for p in e.parties] for e in events]
    party_bands = _Bands(m, len(parties)) if bands else None
    # hung, then hits and subset hits per event: integer sums, which do
    # not depend on the order in which blocks finish.
    totals = [0] * (1 + 2 * len(events))
    lock = threading.Lock()

    def on_block(lo, hi, shares, eligible, seats, hung):
        if party_bands is not None:
            party_bands.add(shares)
        by_party = np.ascontiguousarray(seats.T)
        counts = [int(np.count_nonzero(hung))]
        for e, c in zip(events, cols):
            counts += _event_hits(e, c, eligible, by_party, hung, rules.house_size)
        with lock:
            totals[:] = map(sum, zip(totals, counts))

    run_simulation(posterior, rules, m, seed, workers, on_block=on_block)
    results = tuple(
        _poe_result(totals[1 + 2 * i], totals[2 + 2 * i], m, seed)
        for i in range(len(events))
    )
    if single:
        return results[0]
    return Summary(
        m=m,
        events=results,
        hung=totals[0],
        bands=_band_dict(party_bands, posterior, m, seed, workers) if bands else {},
    )


def _band_dict(party_bands, posterior, m, seed, workers) -> dict[str, tuple[float, float]]:
    # A bracket that missed is settled from the same m draws sampled again,
    # shares only.
    def rescan(add):
        sample_shares(posterior, m, seed, workers, on_block=lambda lo, hi, shares: add(shares))

    return dict(zip(posterior.parties, party_bands.ci95(rescan)))


def share_bands(
    posterior: DirichletPosterior, m: int, seed: int, workers: int = 1
) -> dict[str, tuple[float, float]]:
    """Each party's nearest-rank 95% share band over m streamed draws.

    Shares only: no threshold and no seats. The bands equal those of
    estimate_poe(..., bands=True) for the same posterior, m and seed.

    Raises:
        ValueError: "insufficient-draws" when m < 1000.
    """
    _require_draws(m)
    bands = _Bands(m, len(posterior.parties))
    sample_shares(posterior, m, seed, workers, on_block=lambda lo, hi, shares: bands.add(shares))
    return _band_dict(bands, posterior, m, seed, workers)


def _silverman_bandwidth(ordered: np.ndarray, sd: float) -> float:
    q75, q25 = np.percentile(ordered, [75, 25])
    iqr = float(q75 - q25)
    spread_candidates = [s for s in (sd, iqr / 1.34) if s > 0]
    if not spread_candidates:
        return _BW_FLOOR
    return max(_BW_FLOOR, 0.9 * min(spread_candidates) * ordered.size ** (-0.2))


def _kde_reflected(ordered: np.ndarray, sd: float, grid: np.ndarray) -> np.ndarray:
    """Gaussian KDE on [0, 1] with boundary reflection at both ends.

    ordered is the sample sorted ascending and sd its standard deviation.
    Seat shares take at most house_size + 1 distinct values, so each run
    of equal values in ordered becomes one point weighted by its length;
    the result is identical to the unbinned estimate.
    """
    n = ordered.size
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    uniq = ordered[starts]
    weights = np.diff(starts, append=n) / n
    bw = _silverman_bandwidth(ordered, sd)
    centers = np.concatenate([uniq, -uniq, 2.0 - uniq])
    w = np.concatenate([weights, weights, weights])
    dens = np.empty(grid.size)
    for lo in range(0, grid.size, _KDE_ROWS):
        z = (grid[lo:lo + _KDE_ROWS, None] - centers[None, :]) / bw
        dens[lo:lo + _KDE_ROWS] = np.exp(-0.5 * z * z) @ w
    return dens / (bw * math.sqrt(2.0 * math.pi))


def seat_distribution(
    posterior: DirichletPosterior,
    rules: ElectionRules,
    coalition: tuple[str, ...],
    m: int,
    seed: int,
    workers: int = 1,
) -> SeatShareDistribution:
    """Distribution of the coalition's joint seat share over shared draws.

    Each block is reduced on its thread to the coalition's seat share per
    draw. Those m floats are all the run keeps. They are sorted in place
    once, and the density, the nearest-rank ci95 and the majority mass
    are read from the sorted sample before the call returns.
    """
    _require_draws(m)
    EventSpec("coalition-majority", coalition)  # rejects an empty or repeated coalition
    cols = [_column(posterior.parties, p) for p in coalition]
    draws = np.empty(m)

    def on_block(lo, hi, shares, eligible, seats, hung):
        draws[lo:hi] = seats[:, cols].sum(axis=1) / rules.house_size

    run_simulation(posterior, rules, m, seed, workers, on_block=on_block)
    sd = float(draws.std(ddof=1))  # numpy sums it in draw order: before the sort
    draws.sort()
    low, high = _ci95_ranks(m)
    grid = np.linspace(0.0, 1.0, DENSITY_GRID_POINTS)
    return SeatShareDistribution(
        grid=grid,
        density=_kde_reflected(draws, sd, grid),
        ci95=(float(draws[low]), float(draws[high])),
        majority_mass=(m - int(np.searchsorted(draws, 0.5, "right"))) / m,
    )


def sample_parliaments(
    posterior: DirichletPosterior,
    rules: ElectionRules,
    k: int,
    seed: int,
) -> list[SeatAllocation]:
    """First k parliaments of the deterministic draw stream, fully allocated.

    Because the stream is prefix-stable, these are exactly the first k
    draws any larger run with the same seed would process. The k rows are
    allocated before the first block is sampled.
    """
    if k < 1:
        raise ValueError("need k >= 1 parliaments")
    parties = posterior.parties
    eligible = np.empty((k, len(parties)), dtype=bool)
    seats = np.empty((k, len(parties)), dtype=np.int16)

    def on_block(lo, hi, shares, block_eligible, block_seats, hung):
        eligible[lo:hi] = block_eligible
        seats[lo:hi] = block_seats

    run_simulation(posterior, rules, k, seed, on_block=on_block)
    return [
        SeatAllocation(
            seats={p: int(s) for p, s in zip(parties, row_seats)},
            eligible=frozenset(p for p, flag in zip(parties, row_eligible) if flag),
        )
        for row_seats, row_eligible in zip(seats, eligible)
    ]


def per_date(dates, posterior_of, estimate) -> tuple[tuple, tuple[dt.date, ...]]:
    """(date, estimate(posterior_of(date))) per date, and the dates skipped
    because posterior_of raised NoPollsError for an empty poll window.

    This is the one series API. A nowcast series passes posterior_at for
    each date, a forecast series that posterior inflated to election day;
    estimate is any per-posterior result, e.g. estimate_poe for a PoE
    timeline or seat_distribution for a ridgeline. Only what estimate
    returns is kept per date, never the draws behind it.

    Raises:
        ValueError: "dates must be ascending"; "no-data" when every date
            is skipped.
    """
    dates = list(dates)  # once: an iterator would be spent by the check
    if dates != sorted(dates):
        raise ValueError("dates must be ascending")
    points, skipped = [], []
    for date in dates:
        try:
            posterior = posterior_of(date)
        except NoPollsError:
            skipped.append(date)
            continue
        points.append((date, estimate(posterior)))
    if not points:
        raise ValueError("no-data: every requested date has an empty poll window")
    return tuple(points), tuple(skipped)
