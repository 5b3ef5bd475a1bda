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

The module works on posteriors and dates alone: each posterior carries
its prior. It keeps no date loop; fan_chart_data runs through
engine.per_date, as does any election-day series of inflated nowcasts.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, replace
from typing import Callable

from .engine import per_date, share_bands
from .posterior import DirichletPosterior

__all__ = [
    "FanChart",
    "FanPoint",
    "ForecastSpec",
    "check_tau",
    "fan_chart_data",
    "fan_ordinals",
    "inflate",
    "shrink_factor",
]

DEFAULT_TAU_DAYS = 60.0
# The most dates a fan chart simulates: a daily grid over more than two
# years. Each date is one simulation and adds ~2.2 KB of memory and
# ~290 B of SVG, so a longer grid is refused, not run for hours.
MAX_FAN_DATES = 1000


@dataclass(frozen=True)
class ForecastSpec:
    election_date: dt.date
    as_of: dt.date
    tau: float = DEFAULT_TAU_DAYS

    def __post_init__(self):
        if self.election_date < self.as_of:
            raise ValueError("past-election: election_date is before as_of")
        check_tau(self.tau)

    @property
    def horizon_days(self) -> int:
        return (self.election_date - self.as_of).days


def check_tau(tau: float) -> None:
    """The one rule for tau, in days: finite and > 0, else ValueError."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and > 0, got {tau}")


def shrink_factor(horizon_days: float, tau: float) -> float:
    """s(h) = 1 / (1 + h / tau): 1 at h = 0, 1/2 at h = tau, -> 0."""
    if horizon_days < 0:
        raise ValueError("past-election: negative horizon")
    return 1.0 / (1.0 + horizon_days / tau)


def inflate(posterior: DirichletPosterior, spec: ForecastSpec) -> DirichletPosterior:
    """Shrink the posterior's data content for the spec's full horizon.

    prior + s * (alpha - prior) with s = shrink_factor(horizon_days, tau),
    toward the prior the posterior carries; only the alpha is replaced. At
    zero horizon the posterior itself is returned.

    Single-step only: inflating by h1 and then treating the result as
    fresh data for another h2 is NOT the same as inflating by h1 + h2
    (s(h1) * s(h2) != s(h1 + h2)). Always inflate the original nowcast
    once, by the total horizon.

    Raises:
        ValueError: when the posterior carries no prior.
    """
    prior = posterior.prior
    if prior is None:
        raise ValueError("no-prior: a posterior without a prior cannot be inflated")
    if spec.horizon_days == 0:
        # Exact identity at zero horizon; recomputing prior + (alpha - prior)
        # could perturb the last bit.
        return posterior
    s = shrink_factor(spec.horizon_days, spec.tau)
    return replace(posterior, alpha=tuple(prior + s * (a - prior) for a in posterior.alpha))


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


def fan_ordinals(start: dt.date, spec: ForecastSpec, grid_days: int) -> tuple[range, ...]:
    """The fan's grid, every grid_days days from start to as_of and on to
    election day, in ranges of day ordinals: a step past the last date
    ends a range, and the dates can be counted before any is made."""
    if grid_days < 1:
        raise ValueError("grid_days must be >= 1")
    as_of, election = spec.as_of.toordinal(), spec.election_date.toordinal()
    return (range(start.toordinal(), as_of, grid_days), range(as_of, as_of + 1),
            range(as_of + grid_days, election, grid_days),
            range(election, election + (election > as_of)))


def fan_chart_data(
    nowcast_at: Callable[[dt.date], DirichletPosterior],
    start: dt.date,
    spec: ForecastSpec,
    *,
    grid_days: int,
    m: int,
    seed: int,
    workers: int = 1,
) -> FanChart:
    """Per-party mean and 95% band from start (the first poll) through election day.

    The grid runs through engine.per_date. Dates before as_of take their
    nowcast_at(date) posterior, later ones the as_of nowcast inflated for
    the elapsed horizon, so the band can only widen to the right of as_of.
    Grid dates whose nowcast_at raises NoPollsError are listed in skipped.
    The grid step and each date's m draws at seed have no defaults here.
    """
    dates = [dt.date.fromordinal(d) for run in fan_ordinals(start, spec, grid_days) for d in run]
    base = nowcast_at(spec.as_of)

    def posterior_of(date):
        if date < spec.as_of:
            return nowcast_at(date)
        return inflate(base, replace(spec, election_date=date))

    def band(posterior):
        # Shares only: the fan needs no threshold and no seats.
        means, bands = posterior.mean(), share_bands(posterior, m, seed, workers)
        return {pid: (means[pid], *bands[pid]) for pid in posterior.parties}

    points, skipped = per_date(dates, posterior_of, band)
    return FanChart(
        parties=base.parties,
        points={
            pid: tuple(FanPoint(date, *by_party[pid]) for date, by_party in points)
            for pid in base.parties
        },
        as_of=spec.as_of,
        election_date=spec.election_date,
        skipped=skipped,
    )
