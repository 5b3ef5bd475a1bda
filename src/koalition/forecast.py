"""Extrapolate a nowcast to election day by inflating its uncertainty.

There is no model of how the electoral mood will actually move; what a
forecast can honestly add to a nowcast is wider uncertainty, growing with
the distance to election day. This module shrinks the data content of the
posterior by s(h) = 1 / (1 + h / tau) for a horizon of h days: the prior
is kept and the evidence counts are scaled down, so the mean is nearly
preserved while every marginal variance strictly increases with h.

Unforeseeable campaign events (a late scandal, a resignation) are outside
any such scheme; the widened bands quantify drift of the current mood,
never news that has not happened yet.

The module keeps no date loop. fan_chart_data runs through
engine.per_date, and so does any election-day series: its posterior_of
inflates each date's nowcast to election day.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

from .engine import per_date, share_bands
from .pooling import NoPollsError, PoolingConfig
from .polls import PartyRegistry, Poll
from .posterior import DEFAULT_PRIOR_ALPHA, DirichletPosterior, check_prior, posterior_at

__all__ = [
    "FanChart",
    "FanPoint",
    "ForecastSpec",
    "fan_chart_data",
    "inflate",
    "shrink_factor",
]

DEFAULT_TAU_DAYS = 60.0


@dataclass(frozen=True)
class ForecastSpec:
    election_date: dt.date
    as_of: dt.date
    tau: float = DEFAULT_TAU_DAYS

    def __post_init__(self):
        if self.election_date < self.as_of:
            raise ValueError("past-election: election_date is before as_of")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and > 0")

    @property
    def horizon_days(self) -> int:
        return (self.election_date - self.as_of).days


def shrink_factor(horizon_days: float, tau: float) -> float:
    """s(h) = 1 / (1 + h / tau): 1 at h = 0, 1/2 at h = tau, -> 0."""
    if horizon_days < 0:
        raise ValueError("past-election: negative horizon")
    return 1.0 / (1.0 + horizon_days / tau)


def inflate(
    posterior: DirichletPosterior,
    spec: ForecastSpec,
    prior_alpha: float = DEFAULT_PRIOR_ALPHA,
) -> DirichletPosterior:
    """Shrink the posterior's data content for the spec's full horizon.

    prior + s * (alpha - prior) with s = shrink_factor(horizon_days, tau),
    for the one prior_alpha of every party; at zero horizon the posterior
    itself is returned.

    Single-step only: inflating by h1 and then treating the result as
    fresh data for another h2 is NOT the same as inflating by h1 + h2
    (s(h1) * s(h2) != s(h1 + h2)). Always inflate the original nowcast
    once, by the total horizon.

    Raises:
        ValueError: "bad-prior" from posterior.check_prior; when an alpha
            lies below the prior, so the posterior carries negative data
            content.
    """
    check_prior(prior_alpha, len(posterior.alpha))
    if spec.horizon_days == 0:
        # Exact identity at zero horizon; recomputing prior + (alpha - prior)
        # could perturb the last bit.
        return posterior
    if any(a < prior_alpha for a in posterior.alpha):
        raise ValueError("posterior alpha below prior: data content negative")
    s = shrink_factor(spec.horizon_days, spec.tau)
    return DirichletPosterior(
        parties=posterior.parties,
        alpha=tuple(prior_alpha + s * (a - prior_alpha) for a in posterior.alpha),
        other_id=posterior.other_id,
        source=posterior.source,
    )


@dataclass(frozen=True)
class FanPoint:
    date: dt.date
    mean: float
    lo: float
    hi: float


@dataclass(frozen=True)
class FanChart:
    parties: tuple[str, ...]
    points: dict[str, tuple[FanPoint, ...]]
    as_of: dt.date
    election_date: dt.date
    skipped: tuple[dt.date, ...]


def fan_chart_data(
    polls: list[Poll],
    registry: PartyRegistry,
    spec: ForecastSpec,
    pooling: PoolingConfig = PoolingConfig(),
    prior_alpha: float = DEFAULT_PRIOR_ALPHA,
    *,
    grid_days: int,
    m: int,
    seed: int,
    workers: int = 1,
) -> FanChart:
    """Per-party mean and 95% band from the first poll through election day.

    The grid runs through engine.per_date. Its posterior_of gives dates
    up to as_of the nowcast posterior of that date, and dates beyond it
    the as_of posterior inflated for the elapsed horizon, so the band can
    only widen to the right of as_of. Grid dates before as_of whose poll
    window is empty are listed in skipped. The grid step and each date's
    m draws at seed have no defaults here: the caller's settings own them.
    """
    if not polls:
        raise NoPollsError(spec.as_of, pooling.window_days)
    if grid_days < 1:
        raise ValueError("grid_days must be >= 1")

    # Day ordinals, so that a step past the last representable date ends
    # the grid instead of overflowing.
    start = min(p.publish_date for p in polls).toordinal()
    as_of, election = spec.as_of.toordinal(), spec.election_date.toordinal()
    ordinals = [*range(start, as_of, grid_days), as_of,
                *range(as_of + grid_days, election, grid_days)]
    if election > as_of:
        ordinals.append(election)
    dates = [dt.date.fromordinal(d) for d in ordinals]

    base = posterior_at(polls, registry, spec.as_of, pooling, prior_alpha)

    def posterior_of(date):
        if date <= spec.as_of:
            return posterior_at(polls, registry, date, pooling, prior_alpha)
        horizon = ForecastSpec(election_date=date, as_of=spec.as_of, tau=spec.tau)
        return inflate(base, horizon, prior_alpha)

    def band(posterior):
        # Shares only: the fan needs no threshold and no seats.
        means, bands = posterior.mean(), share_bands(posterior, m, seed, workers)
        return {pid: (means[pid], *bands[pid]) for pid in posterior.parties}

    points, skipped = per_date(dates, posterior_of, band)
    return FanChart(
        parties=registry.ids,
        points={
            pid: tuple(FanPoint(date, *by_party[pid]) for date, by_party in points)
            for pid in registry.ids
        },
        as_of=spec.as_of,
        election_date=spec.election_date,
        skipped=skipped,
    )
