"""Build the eight reference figures from the committed fixture dataset.

Run directly to (re)generate the golden SVGs:

    python tests/golden_figures.py

The golden test renders the same figures and compares bytes, so any
intentional rendering change must regenerate these files in the same
commit.
"""

import datetime as dt
from pathlib import Path

from koalition.cli import load_config
from koalition.engine import (
    EventSpec,
    estimate_poe,
    per_date,
    sample_parliaments,
    seat_distribution,
)
from koalition.forecast import ForecastSpec, fan_chart_data, inflate
from koalition.pooling import pool
from koalition.polls import parse_polls
from koalition.posterior import posterior_at, posterior_from
from koalition.viz import (
    Theme,
    render_classic_bars,
    render_fan_chart,
    render_forecast_ridgeline,
    render_parliaments,
    render_poe_bars,
    render_poe_timeline,
    render_ridgeline,
    render_seat_density,
    theme_for,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

AS_OF = dt.date(2018, 3, 5)
ELECTION = dt.date(2018, 5, 20)
SEED = 42
M = 20_000
COALITION = ("union", "spd")  # the grand coalition from the config


def build_figures() -> dict[str, str]:
    config = load_config(FIXTURES / "config.ini")
    registry = config.registry
    rules = config.rules
    polls = parse_polls((FIXTURES / "polls.csv").read_text(), registry)
    theme = theme_for(registry)
    wide = Theme(width=760, party_colors=dict(theme.party_colors))

    pooled = pool(polls, registry, AS_OF, config.pooling.window_days,
                  config.pooling.dependence_factor)
    post = posterior_from(pooled, registry, config.prior_alpha)
    dates = sorted({p.publish_date for p in polls})
    spec = ForecastSpec(election_date=ELECTION, as_of=AS_OF, tau=config.tau)

    poe_results = []
    labels = []
    for name, ids in sorted(config.coalitions.items()):
        poe_results.append(
            (ids, estimate_poe(post, rules, EventSpec("coalition-majority", ids),
                               M, SEED))
        )
        labels.append(name)

    dist = seat_distribution(post, rules, COALITION, M, SEED)
    allocs = sample_parliaments(post, rules, 6, SEED)

    def nowcast_of(date):
        return posterior_at(polls, registry, date, config.pooling, config.prior_alpha)

    def forecast_of(date):
        ahead = ForecastSpec(election_date=ELECTION, as_of=date, tau=config.tau)
        return inflate(nowcast_of(date), ahead, config.prior_alpha)

    def density(posterior):
        return seat_distribution(posterior, rules, COALITION, M, SEED)

    event = EventSpec("coalition-majority", COALITION)
    ridge, _ = per_date(dates, nowcast_of, density)
    timeline, _ = per_date(dates, nowcast_of,
                           lambda posterior: estimate_poe(posterior, rules, event, M, SEED))
    fan = fan_chart_data(polls, registry, spec, config.pooling, config.prior_alpha,
                         grid_days=7, m=M, seed=SEED)
    fc_ridge, _ = per_date(dates, forecast_of, density)

    return {
        "classic": render_classic_bars(polls[-1], theme, as_of=AS_OF),
        "poe-bars": render_poe_bars(poe_results, theme,
                                    means=post.mean(), labels=labels,
                                    seed=SEED, m=M, as_of=AS_OF),
        "density": render_seat_density(dist, theme, seed=SEED, m=M, as_of=AS_OF),
        "parliaments": render_parliaments(allocs, COALITION, registry, theme,
                                          seed=SEED, m=6, as_of=AS_OF),
        "ridgeline": render_ridgeline(ridge, theme, seed=SEED, m=M,
                                      as_of=AS_OF),
        "poe-timeline": render_poe_timeline(timeline, theme, seed=SEED,
                                            m=M, as_of=AS_OF),
        "fan": render_fan_chart(fan, polls, AS_OF, ELECTION, theme, seed=SEED, m=M),
        "forecast-ridgeline": render_forecast_ridgeline(
            ridge, fc_ridge, wide, seed=SEED, m=M, as_of=AS_OF
        ),
    }


def main():
    GOLDEN.mkdir(exist_ok=True)
    for name, svg in build_figures().items():
        path = GOLDEN / f"{name}.svg"
        path.write_text(svg, encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
