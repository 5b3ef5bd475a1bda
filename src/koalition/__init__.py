"""koalition: Monte-Carlo election nowcasts, coalition probabilities, SVG figures.

Published polls go in; Dirichlet-posterior draws are pushed through
German-style electoral mechanics (5% threshold, Sainte-Lague seats) to
produce probabilities of events such as coalition majorities, seat-share
distributions, and deterministic vector graphics of all of it.
"""

from .electoral import (
    ElectionRules,
    SeatAllocation,
    allocate_seats,
    apply_threshold,
    coalition_seats,
    has_majority,
    subset_sufficient,
)
from .engine import (
    EventSpec,
    PoEResult,
    SeatShareDistribution,
    estimate_poe,
    sample_parliaments,
    seat_distribution,
)
from .forecast import FanChart, ForecastSpec, fan_chart_data, inflate
from .pooling import NoPollsError, PooledSample, PoolingConfig, pool
from .polls import (
    Party,
    PartyRegistry,
    Poll,
    PollError,
    parse_polls,
    serialize_polls,
    validate_poll,
)
from .posterior import DirichletPosterior, DrawMatrix, posterior_from, sample_shares
from .viz import Theme, theme_for

__version__ = "0.1.0"

__all__ = [
    "DirichletPosterior",
    "DrawMatrix",
    "ElectionRules",
    "EventSpec",
    "FanChart",
    "ForecastSpec",
    "NoPollsError",
    "Party",
    "PartyRegistry",
    "PoEResult",
    "Poll",
    "PollError",
    "PooledSample",
    "PoolingConfig",
    "SeatAllocation",
    "SeatShareDistribution",
    "Theme",
    "allocate_seats",
    "apply_threshold",
    "coalition_seats",
    "estimate_poe",
    "fan_chart_data",
    "has_majority",
    "inflate",
    "parse_polls",
    "pool",
    "posterior_from",
    "sample_parliaments",
    "sample_shares",
    "seat_distribution",
    "serialize_polls",
    "subset_sufficient",
    "theme_for",
    "validate_poll",
    "__version__",
]
