import datetime as dt
import functools
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from koalition.engine import run_simulation
from koalition.forecast import fan_chart_data
from koalition.polls import Party, PartyRegistry, parse_polls
from koalition.pooling import PooledSample
from koalition.posterior import posterior_at, sample_shares

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

AS_OF = dt.date(2018, 3, 5)


@pytest.fixture(scope="session")
def registry() -> PartyRegistry:
    return PartyRegistry(
        parties=(
            Party("union", "Union", "#1B1B1B"),
            Party("spd", "SPD", "#E3000F"),
            Party("gruene", "Gruene", "#1AA037"),
            Party("fdp", "FDP", "#D1A514"),
            Party("linke", "Linke", "#BE3075"),
            Party("afd", "AfD", "#0489DB"),
            Party("other", "Other", "#ADB5BD"),
        ),
        other_id="other",
    )


@pytest.fixture(scope="session")
def two_party_registry() -> PartyRegistry:
    return PartyRegistry(
        parties=(
            Party("a", "Alpha", "#CC0000"),
            Party("b", "Beta", "#0000CC"),
            Party("other", "Other", "#999999"),
        ),
        other_id="other",
    )


@pytest.fixture(scope="session")
def fixture_polls(registry):
    return parse_polls((FIXTURES / "polls.csv").read_text(), registry)


@pytest.fixture(scope="session")
def pooled_counts(registry) -> PooledSample:
    # Hand-fixed counts giving a mid-sized effective sample.
    counts = {
        "union": 660,
        "spd": 340,
        "gruene": 240,
        "fdp": 200,
        "linke": 200,
        "afd": 260,
        "other": 100,
    }
    return PooledSample(
        as_of=AS_OF,
        window_days=14,
        counts=counts,
        n_eff=2000,
        polls_used=(("Insa", AS_OF),),
    )


@pytest.fixture(scope="session")
def collect_shares():
    """sample_shares' runs gathered into one (m, K) array.

    Returns collect(posterior, m, seed, workers=1). A run's (K, n) party
    rows are valid only during the on_block call, so each is copied,
    transposed; a row no run filled stays NaN.
    """

    def collect(posterior, m, seed, workers=1):
        shares = np.full((m, len(posterior.parties)), np.nan)

        def on_block(lo, hi, block):
            shares[lo:hi] = block.T

        assert sample_shares(posterior, m, seed, workers, on_block=on_block) is None
        return shares

    return collect


@pytest.fixture(scope="session")
def collect_simulation():
    """run_simulation's blocks gathered into whole (m, K) and (m,) arrays.

    Returns collect(posterior, rules, m, seed, workers=1), whose result has
    parties, rules and m plus shares, eligible, seats and hung. The shares
    come from on_shares, the rest from on_block; run arrays are valid only
    during the hook call, so each is copied, party rows transposed.
    """

    def collect(posterior, rules, m, seed, workers=1):
        k = len(posterior.parties)
        sim = SimpleNamespace(
            parties=posterior.parties,
            rules=rules,
            m=m,
            shares=np.empty((m, k)),
            eligible=np.empty((m, k), dtype=bool),
            seats=np.empty((m, k), dtype=np.int16),
            hung=np.empty(m, dtype=bool),
        )

        def on_shares(lo, hi, shares):
            sim.shares[lo:hi] = shares.T

        def on_block(lo, hi, *arrays):
            for name, block in zip(("eligible", "seats", "hung"), arrays):
                getattr(sim, name)[lo:hi] = block.T

        run_simulation(posterior, rules, m, seed, workers, on_block=on_block,
                       on_shares=on_shares)
        return sim

    return collect


@pytest.fixture(scope="session")
def fan_of():
    """fan_chart_data over a poll list, as the CLI calls it.

    Returns fan(polls, registry, spec, **kwargs): the nowcast of a date is
    posterior_at's default pooling and prior, and the grid starts at the
    first poll's date.
    """

    def fan(polls, registry, spec, **kwargs):
        start = min(p.publish_date for p in polls)
        return fan_chart_data(functools.partial(posterior_at, polls, registry), start, spec,
                              **kwargs)

    return fan
