"""Pool the freshest poll per pollster into per-party pseudo-counts.

Counts are integers produced by largest-remainder rounding, so the
effective sample size is exact: sum(counts) == n_eff always holds. An
optional dependence factor deflates the pooled information to account
for polls not being independent samples; sampling error alone already
understates real uncertainty, and this knob lets users lean the other
way. No principled default exists, so it stays at 1.0 (no discount).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .polls import PartyRegistry, Poll

__all__ = ["NoPollsError", "PooledSample", "PoolingConfig", "largest_remainder", "pool"]

DEFAULT_WINDOW_DAYS = 14
DEFAULT_DEPENDENCE_FACTOR = 1.0


class NoPollsError(ValueError):
    def __init__(self, as_of: dt.date, window_days: int):
        super().__init__(f"no polls within {window_days} days of {as_of.isoformat()}")
        self.as_of = as_of
        self.window_days = window_days


@dataclass(frozen=True)
class PoolingConfig:
    window_days: int = DEFAULT_WINDOW_DAYS
    dependence_factor: float = DEFAULT_DEPENDENCE_FACTOR

    def __post_init__(self):
        if self.window_days < 1:
            raise ValueError("window_days must be >= 1")
        if not (0.0 < self.dependence_factor <= 1.0):
            raise ValueError("dependence_factor must be in (0, 1]")


@dataclass
class PooledSample:
    as_of: dt.date
    window_days: int
    counts: dict[str, int]
    n_eff: int
    polls_used: tuple[tuple[str, dt.date], ...]


def largest_remainder(ideal: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative ideals to integers summing exactly to total.

    Floors first, then hands the remaining units to the largest
    fractional parts; remainder ties go to the earlier index.
    """
    ideal = np.asarray(ideal, dtype=float)
    base = np.floor(ideal).astype(np.int64)
    deficit = int(total - base.sum())
    if deficit < 0 or deficit > ideal.size:
        raise ValueError(f"total {total} out of reach for ideals summing {ideal.sum()}")
    if deficit:
        remainders = ideal - base
        # stable argsort on -remainder keeps earlier indices first on ties
        order = np.argsort(-remainders, kind="stable")
        base[order[:deficit]] += 1
    return base


def _canonical_key(poll: Poll) -> tuple:
    # Content-based tie-break so pooling is invariant to input order.
    return (poll.sample_size, tuple(sorted(poll.shares.items())))


def pool(
    polls: list[Poll],
    registry: PartyRegistry,
    as_of: dt.date,
    window_days: int = DEFAULT_WINDOW_DAYS,
    dependence_factor: float = DEFAULT_DEPENDENCE_FACTOR,
) -> PooledSample:
    """Aggregate the newest in-window poll of each pollster into counts.

    A poll is in window when as_of - window_days < publish_date <= as_of.
    Each contributing poll is converted to integer counts of n * share by
    largest-remainder rounding (sums to n exactly), counts are summed
    across pollsters, and finally rescaled by dependence_factor with the
    same rounding so that n_eff == round(dependence_factor * total n).

    Raises:
        NoPollsError: when the window contains no poll.
    """
    PoolingConfig(window_days, dependence_factor)  # validate bounds

    in_window = [
        p for p in polls if 0 <= (as_of - p.publish_date).days < window_days
    ]
    if not in_window:
        raise NoPollsError(as_of, window_days)

    newest: dict[str, Poll] = {}
    for poll in in_window:
        held = newest.get(poll.pollster)
        if (
            held is None
            or poll.publish_date > held.publish_date
            or (
                poll.publish_date == held.publish_date
                and _canonical_key(poll) < _canonical_key(held)
            )
        ):
            newest[poll.pollster] = poll

    ids = registry.ids
    counts = np.zeros(len(ids), dtype=np.int64)
    n_total = 0
    used = []
    for pollster in sorted(newest):
        poll = newest[pollster]
        ideal = np.array([poll.sample_size * poll.shares[pid] for pid in ids])
        counts += largest_remainder(ideal, poll.sample_size)
        n_total += poll.sample_size
        used.append((pollster, poll.publish_date))

    if dependence_factor < 1.0:
        n_eff = int(math.floor(dependence_factor * n_total + 0.5))
        counts = largest_remainder(dependence_factor * counts, n_eff)
    else:
        n_eff = n_total

    return PooledSample(
        as_of=as_of,
        window_days=window_days,
        counts={pid: int(c) for pid, c in zip(ids, counts)},
        n_eff=n_eff,
        polls_used=tuple(used),
    )
