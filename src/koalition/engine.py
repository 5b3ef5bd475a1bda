"""Monte-Carlo engine: posterior draws -> parliaments -> event probabilities.

All quantities for one (posterior, rules, m, seed) tuple are computed from
a single shared simulation, so identities like PoE(E) + PoE(not E) == 1
and majority_mass == PoE(coalition majority) hold exactly, draw for draw.
A hung parliament (no party passes the threshold) counts as "no majority"
for every coalition and is reported separately in diagnostics.
"""

from __future__ import annotations

import datetime as dt
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .electoral import ElectionRules, SeatAllocation, allocate_many
from .pooling import NoPollsError, PoolingConfig, pool
from .polls import PartyRegistry, Poll
from .posterior import (
    DEFAULT_PRIOR_ALPHA,
    DirichletPosterior,
    posterior_from,
    sample_shares,
)

__all__ = [
    "EventSpec",
    "PoEResult",
    "PoESeries",
    "DistributionSeries",
    "SeatShareDistribution",
    "Simulation",
    "estimate_poe",
    "nearest_rank_ci95",
    "run_simulation",
    "sample_parliaments",
    "seat_distribution",
    "poe_series",
    "distribution_series",
]

EVENT_KINDS = ("coalition-majority", "party-above-threshold", "strongest-party")

MIN_DRAWS = 1000
DENSITY_GRID_POINTS = 512

# Bandwidth floor for degenerate (point-mass) seat distributions, in seat
# share units; keeps the density finite instead of a delta spike.
_BW_FLOOR = 1e-4


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
class SeatShareDistribution:
    draws: np.ndarray
    grid: np.ndarray
    density: np.ndarray
    ci95: tuple[float, float]
    majority_mass: float

    def __post_init__(self):
        for arr in (self.draws, self.grid, self.density):
            arr.flags.writeable = False


@dataclass(frozen=True)
class Simulation:
    """Shared per-draw state: shares, eligibility, int16 seats, hung flags."""

    parties: tuple[str, ...]
    rules: ElectionRules
    m: int
    seed: int
    shares: np.ndarray
    eligible: np.ndarray
    seats: np.ndarray
    hung: np.ndarray

    def __post_init__(self):
        for arr in (self.shares, self.eligible, self.seats, self.hung):
            arr.flags.writeable = False

    @property
    def hung_fraction(self) -> float:
        return int(self.hung.sum()) / self.m

    def column(self, party_id: str) -> int:
        try:
            return self.parties.index(party_id)
        except ValueError:
            raise ValueError(f"unknown-party: {party_id!r}") from None


_SIM_CACHE: OrderedDict = OrderedDict()
_SIM_CACHE_SIZE = 4


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


def _simulate(posterior, rules, m, seed, workers) -> Simulation:
    # The outputs are allocated up front and filled block by block on the
    # sampling thread, so no m x K temporary ever exists beside them.
    parties, other_id = posterior.parties, posterior.other_id
    eligible = np.empty((m, len(parties)), dtype=bool)
    seats = np.empty((m, len(parties)), dtype=np.int16)
    hung = np.empty(m, dtype=bool)

    def on_block(lo, hi, shares):
        eligible[lo:hi], seats[lo:hi], hung[lo:hi] = _mechanics(
            shares, parties, other_id, rules
        )

    matrix = sample_shares(posterior, m, seed, workers=workers, on_block=on_block)
    return Simulation(
        parties=parties,
        rules=rules,
        m=m,
        seed=seed,
        shares=matrix.draws,
        eligible=eligible,
        seats=seats,
        hung=hung,
    )


def run_simulation(
    posterior: DirichletPosterior,
    rules: ElectionRules,
    m: int,
    seed: int,
    workers: int = 1,
) -> Simulation:
    """Sample m share vectors and push each through threshold + allocation.

    Each 4096-draw block is thresholded and allocated on the thread that
    sampled it, straight into the preallocated eligibility, seat and hung
    arrays; the shares are the sampler's own output, not a copy. Every
    step works row by row, so the worker count never influences the
    output, only how fast it appears. Results are memoized on
    (posterior, rules, m, seed).
    """
    key = (posterior, rules, m, seed)
    cached = _SIM_CACHE.get(key)
    if cached is not None:
        _SIM_CACHE.move_to_end(key)
        return cached

    sim = _simulate(posterior, rules, m, seed, workers)
    _SIM_CACHE[key] = sim
    if len(_SIM_CACHE) > _SIM_CACHE_SIZE:
        _SIM_CACHE.popitem(last=False)
    return sim


def _event_mask(sim: Simulation, event: EventSpec) -> np.ndarray:
    if event.kind == "coalition-majority":
        cols = [sim.column(p) for p in event.parties]
        total = sim.seats[:, cols].sum(axis=1)
        mask = 2 * total > sim.rules.house_size
    elif event.kind == "party-above-threshold":
        mask = sim.eligible[:, sim.column(event.parties[0])].copy()
    else:  # strongest-party: strictly more seats than every other party
        col = sim.column(event.parties[0])
        top = sim.seats.max(axis=1)
        unique_top = (sim.seats == top[:, None]).sum(axis=1) == 1
        mask = (sim.seats[:, col] == top) & unique_top & ~sim.hung
    if event.negate:
        mask = ~mask
    return mask


def _subset_mask(sim: Simulation, event: EventSpec) -> np.ndarray:
    # Best proper subset = coalition minus its weakest member; seats are
    # non-negative, so checking that one subset covers all of them. For the
    # same reason a subset majority implies the full coalition's majority,
    # so "some proper subset wins" and "subset wins while the coalition
    # also wins" are the same event; no separate definition is needed.
    if event.kind != "coalition-majority" or event.negate or len(event.parties) < 2:
        return np.zeros(sim.m, dtype=bool)
    cols = [sim.column(p) for p in event.parties]
    member = sim.seats[:, cols]
    best = member.sum(axis=1) - member.min(axis=1)
    return 2 * best > sim.rules.house_size


def estimate_poe(
    posterior: DirichletPosterior,
    rules: ElectionRules,
    event: EventSpec,
    m: int,
    seed: int,
    workers: int = 1,
) -> PoEResult:
    """Probability of the event over m shared draws, with its MC error.

    Raises:
        ValueError: "insufficient-draws" when m < 1000, below which the
            standard error is too large to report honestly.
    """
    if m < MIN_DRAWS:
        raise ValueError(f"insufficient-draws: need m >= {MIN_DRAWS}, got {m}")
    sim = run_simulation(posterior, rules, m, seed, workers=workers)
    hits = int(_event_mask(sim, event).sum())
    subset_hits = int(_subset_mask(sim, event).sum())
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


def nearest_rank_ci95(values: np.ndarray) -> tuple[float, float]:
    """Nearest-rank 2.5% and 97.5% quantiles of a 1-d sample.

    Both are exact order statistics, found by partial selection instead
    of a full sort.
    """
    n = values.size
    lo = max(1, math.ceil(0.025 * n)) - 1
    hi = min(n, math.ceil(0.975 * n)) - 1
    selected = np.partition(values, (lo, hi))
    return float(selected[lo]), float(selected[hi])


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
    z = (grid[:, None] - centers[None, :]) / bw
    dens = (np.exp(-0.5 * z * z) @ w) / (bw * math.sqrt(2.0 * math.pi))
    return dens


def seat_distribution(
    posterior: DirichletPosterior,
    rules: ElectionRules,
    coalition: tuple[str, ...],
    m: int,
    seed: int,
    workers: int = 1,
) -> SeatShareDistribution:
    """Distribution of the coalition's joint seat share over shared draws."""
    if m < MIN_DRAWS:
        raise ValueError(f"insufficient-draws: need m >= {MIN_DRAWS}, got {m}")
    sim = run_simulation(posterior, rules, m, seed, workers=workers)
    cols = [sim.column(p) for p in coalition]
    draws = sim.seats[:, cols].sum(axis=1) / rules.house_size
    grid = np.linspace(0.0, 1.0, DENSITY_GRID_POINTS)
    return SeatShareDistribution(
        draws=draws,
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
    draws any larger run with the same seed would process.
    """
    if k < 1:
        raise ValueError("need k >= 1 parliaments")
    sim = _simulate(posterior, rules, k, seed, workers=1)
    out = []
    for i in range(k):
        out.append(
            SeatAllocation(
                seats={p: int(s) for p, s in zip(sim.parties, sim.seats[i])},
                eligible=frozenset(
                    p for p, flag in zip(sim.parties, sim.eligible[i]) if flag
                ),
            )
        )
    return out


@dataclass(frozen=True)
class PoESeries:
    points: tuple[tuple[dt.date, PoEResult], ...]
    skipped: tuple[dt.date, ...]


@dataclass(frozen=True)
class DistributionSeries:
    points: tuple[tuple[dt.date, SeatShareDistribution], ...]
    skipped: tuple[dt.date, ...]


def _posterior_at(
    polls: list[Poll],
    registry: PartyRegistry,
    as_of: dt.date,
    pooling: PoolingConfig,
    prior_alpha,
) -> DirichletPosterior:
    pooled = pool(
        polls, registry, as_of, pooling.window_days, pooling.dependence_factor
    )
    return posterior_from(pooled, registry, prior_alpha)


def poe_series(
    polls: list[Poll],
    registry: PartyRegistry,
    dates: list[dt.date],
    rules: ElectionRules,
    event: EventSpec,
    pooling: PoolingConfig = PoolingConfig(),
    prior_alpha=DEFAULT_PRIOR_ALPHA,
    m: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> PoESeries:
    """PoE re-estimated per date; dates with an empty poll window are skipped.

    Raises:
        ValueError: "no-data" when every date has an empty window.
    """
    if list(dates) != sorted(dates):
        raise ValueError("dates must be ascending")
    points, skipped = [], []
    for date in dates:
        try:
            posterior = _posterior_at(polls, registry, date, pooling, prior_alpha)
        except NoPollsError:
            skipped.append(date)
            continue
        points.append((date, estimate_poe(posterior, rules, event, m, seed, workers)))
    if not points:
        raise ValueError("no-data: every requested date has an empty poll window")
    return PoESeries(points=tuple(points), skipped=tuple(skipped))


def distribution_series(
    polls: list[Poll],
    registry: PartyRegistry,
    dates: list[dt.date],
    rules: ElectionRules,
    coalition: tuple[str, ...],
    pooling: PoolingConfig = PoolingConfig(),
    prior_alpha=DEFAULT_PRIOR_ALPHA,
    m: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> DistributionSeries:
    """Seat-share distribution per date; same skipping rules as poe_series."""
    if list(dates) != sorted(dates):
        raise ValueError("dates must be ascending")
    points, skipped = [], []
    for date in dates:
        try:
            posterior = _posterior_at(polls, registry, date, pooling, prior_alpha)
        except NoPollsError:
            skipped.append(date)
            continue
        points.append(
            (date, seat_distribution(posterior, rules, coalition, m, seed, workers))
        )
    if not points:
        raise ValueError("no-data: every requested date has an empty poll window")
    return DistributionSeries(points=tuple(points), skipped=tuple(skipped))
