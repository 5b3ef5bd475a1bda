"""Monte-Carlo engine: posterior draws -> parliaments -> event probabilities.

All quantities for one (posterior, rules, m, seed) tuple are computed from
the same deterministic draws, so identities like PoE(E) + PoE(not E) == 1
and majority_mass == PoE(coalition majority) hold exactly, draw for draw.
A hung parliament (no party passes the threshold) counts as "no majority"
for every coalition and is reported separately in diagnostics.

Every result streams through run_simulation: each 4096-draw block is
thresholded and allocated on the thread that drew it and handed to a
per-block reducer there. estimate_poe and share_bands keep event counts
and party-band candidates, seat_distribution one seat share per draw
while it runs and sample_parliaments the k rows it returns; no m x K
array and no cache outlives a call. per_date is the one series API:
every per-date figure and the forecast module's fan chart pass it a
posterior per date and an estimate, such as estimate_poe or
seat_distribution, and keep what that returns.
"""

from __future__ import annotations

import datetime as dt
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .electoral import ElectionRules, SeatAllocation, allocate_many
from .pooling import NoPollsError
from .posterior import BLOCK, DirichletPosterior, sample_shares

__all__ = [
    "EventSpec",
    "PoEResult",
    "SeatShareDistribution",
    "Summary",
    "estimate_poe",
    "nearest_rank_ci95",
    "run_simulation",
    "sample_parliaments",
    "seat_distribution",
    "share_bands",
    "per_date",
]

EVENT_KINDS = ("coalition-majority", "party-above-threshold", "strongest-party")

MIN_DRAWS = 1000
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


def _mechanics(shares, parties, other_id, rules):
    """Threshold + renormalize + allocate, vectorized over draw rows."""
    eligible = shares >= rules.threshold
    if other_id is not None:
        eligible[:, parties.index(other_id)] = False
    masked = np.where(eligible, shares, 0.0)
    totals = masked.sum(axis=1, keepdims=True)
    hung = totals[:, 0] == 0.0
    # In place: rows with a zero total are all zeros already.
    renorm = np.divide(masked, totals, out=masked, where=totals > 0)
    seats = allocate_many(renorm, rules.house_size, rules.method)
    return eligible, seats, hung


def run_simulation(
    posterior: DirichletPosterior,
    rules: ElectionRules,
    m: int,
    seed: int,
    workers: int = 1,
    *,
    on_block,
) -> None:
    """Sample m share vectors and push each through threshold + allocation.

    Each 4096-draw block is thresholded and allocated on the thread that
    sampled it and handed there to on_block(lo, hi, shares, eligible,
    seats, hung) for the rows [lo, hi); its arrays are valid only during
    the call, and nothing is kept or returned. Blocks may arrive in any
    order, each exactly once. Every step works row by row, so the worker
    count never influences a row, only how fast it appears.
    """
    parties, other_id = posterior.parties, posterior.other_id

    def mechanics(lo, hi, shares):
        on_block(lo, hi, shares, *_mechanics(shares, parties, other_id, rules))

    sample_shares(posterior, m, seed, workers, on_block=mechanics, keep=False)


def _require_draws(m: int) -> None:
    # Below this the Monte-Carlo error is too large to report honestly.
    if m < MIN_DRAWS:
        raise ValueError(f"insufficient-draws: need m >= {MIN_DRAWS}, got {m}")


class _RankSelector:
    """The rank-th smallest (or largest) of values fed in blocks, exactly.

    Values go into a buffer of 2 * (rank + 1) + BLOCK slots. When a block
    does not fit, buffer and block are partitioned down to their rank + 1
    smallest values and the cut becomes the largest of them. The cut never falls
    below the rank-th smallest of everything seen, and rank + 1 kept
    values lie at or below it, so a later value at or beyond the cut can
    be dropped without changing the answer. The result is therefore the
    same for any block order, block size and tie pattern.
    """

    def __init__(self, rank: int, largest: bool = False):
        self.rank = rank
        self.largest = largest
        self.buffer = np.empty(2 * (rank + 1) + BLOCK)
        self.size = 0
        self.cut = None
        self.lock = threading.Lock()

    def _candidates(self, values: np.ndarray) -> np.ndarray:
        cut = self.cut
        if cut is None:
            return values
        return values[values > cut] if self.largest else values[values < cut]

    def add(self, values: np.ndarray) -> None:
        # Filtering against a cut that another thread has since lowered
        # only keeps a few values too many.
        values = self._candidates(values)
        with self.lock:
            if self.size + values.size <= self.buffer.size:
                self.buffer[self.size : self.size + values.size] = values
                self.size += values.size
                return
            kept = self.buffer[: self.size]
            pool = np.concatenate((kept, values)) if self.size else values
            # The pool outgrows the buffer, so it holds more than rank + 1.
            keep = self.rank + 1
            j = pool.size - keep if self.largest else self.rank
            pool = np.partition(pool, j)
            pool = pool[j:] if self.largest else pool[:keep]
            self.cut = pool[0] if self.largest else pool[-1]
            self.buffer[:keep] = pool
            self.size = keep

    def value(self) -> float:
        j = self.size - 1 - self.rank if self.largest else self.rank
        return float(np.partition(self.buffer[: self.size], j)[j])


class _Band:
    """Nearest-rank 2.5% and 97.5% quantiles of n values fed in blocks."""

    def __init__(self, n: int):
        lo = max(1, math.ceil(0.025 * n)) - 1
        hi = min(n, math.ceil(0.975 * n)) - 1
        self.low = _RankSelector(lo)
        self.high = _RankSelector(n - 1 - hi, largest=True)

    def add(self, values: np.ndarray) -> None:
        self.low.add(values)
        self.high.add(values)

    def ci95(self) -> tuple[float, float]:
        return self.low.value(), self.high.value()


def nearest_rank_ci95(values: np.ndarray) -> tuple[float, float]:
    """Nearest-rank 2.5% and 97.5% quantiles of a 1-d sample.

    Both are exact order statistics, found by partial selection instead
    of a full sort; this is the streamed band selector fed one block.
    """
    band = _Band(values.size)
    band.add(values)
    return band.ci95()


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
    cache-hot, to integer hits per event and band candidates per party;
    no m x K array exists. The counts are integers and the bands exact
    order statistics, so the result equals the one computed from every
    draw at once and never depends on the worker count. The
    band buffers hold about 5% of the draws per party and are allocated
    before the first block.

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
    party_bands = [_Band(m) for _ in parties] if bands else []
    # One row per block: hung, then hits and subset hits per event. Each
    # block writes only its own row, so the totals need no lock and do
    # not depend on the order in which blocks finish.
    counts = np.zeros(((m + BLOCK - 1) // BLOCK, 1 + 2 * len(events)), dtype=np.int64)

    def on_block(lo, hi, shares, eligible, seats, hung):
        for col, band in enumerate(party_bands):
            band.add(shares[:, col])
        by_party = np.ascontiguousarray(seats.T)
        row = counts[lo // BLOCK]
        row[0] = np.count_nonzero(hung)
        for i, e in enumerate(events):
            row[1 + 2 * i : 3 + 2 * i] = _event_hits(
                e, cols[i], eligible, by_party, hung, rules.house_size
            )

    run_simulation(posterior, rules, m, seed, workers, on_block=on_block)
    totals = [int(t) for t in counts.sum(axis=0)]
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
        bands={pid: band.ci95() for pid, band in zip(parties, party_bands)},
    )


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
    bands = [_Band(m) for _ in posterior.parties]

    def on_block(lo, hi, shares):
        for col, band in enumerate(bands):
            band.add(shares[:, col])

    sample_shares(posterior, m, seed, workers, on_block=on_block, keep=False)
    return {pid: band.ci95() for pid, band in zip(posterior.parties, bands)}


def _silverman_bandwidth(values: np.ndarray) -> float:
    n = values.size
    sd = float(values.std(ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    spread_candidates = [s for s in (sd, iqr / 1.34) if s > 0]
    if not spread_candidates:
        return _BW_FLOOR
    return max(_BW_FLOOR, 0.9 * min(spread_candidates) * n ** (-0.2))


def _kde_reflected(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gaussian KDE on [0, 1] with boundary reflection at both ends.

    Seat shares take at most house_size + 1 distinct values, so the draws
    are collapsed to weighted unique points first; the result is identical
    to the unbinned estimate.
    """
    uniq, counts = np.unique(values, return_counts=True)
    weights = counts / values.size
    bw = _silverman_bandwidth(values)
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
    draw. Those m floats are all the run keeps, and only until the density,
    the nearest-rank ci95 and the majority mass have been read from them.
    """
    _require_draws(m)
    cols = [_column(posterior.parties, p) for p in coalition]
    draws = np.empty(m)

    def on_block(lo, hi, shares, eligible, seats, hung):
        draws[lo:hi] = seats[:, cols].sum(axis=1) / rules.house_size

    run_simulation(posterior, rules, m, seed, workers, on_block=on_block)
    grid = np.linspace(0.0, 1.0, DENSITY_GRID_POINTS)
    return SeatShareDistribution(
        grid=grid,
        density=_kde_reflected(draws, grid),
        ci95=nearest_rank_ci95(draws),
        majority_mass=int((draws > 0.5).sum()) / m,
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
    if list(dates) != sorted(dates):
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
