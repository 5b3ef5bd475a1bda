import datetime as dt

import numpy as np
import pytest
from scipy.stats import beta

from koalition.electoral import ElectionRules
from koalition.engine import EventSpec, estimate_poe, per_date, seat_distribution, share_bands
from koalition.forecast import ForecastSpec, fan_chart_data, inflate, shrink_factor
from koalition.pooling import PoolingConfig
from koalition.polls import Poll, validate_poll
from koalition.posterior import DirichletPosterior, posterior_at

AS_OF = dt.date(2018, 3, 5)
DAY = dt.timedelta(days=1)
RULES = ElectionRules()


@pytest.fixture(scope="module")
def post():
    alpha = {
        "union": 660.5, "spd": 340.5, "gruene": 240.5, "fdp": 200.5,
        "linke": 200.5, "afd": 260.5, "other": 100.5,
    }
    return DirichletPosterior(
        parties=tuple(alpha), alpha=tuple(alpha.values()), other_id="other"
    )


def spec(h_days, tau=60.0):
    return ForecastSpec(election_date=AS_OF + h_days * DAY, as_of=AS_OF, tau=tau)


def test_spec_validation():
    with pytest.raises(ValueError, match="past-election"):
        ForecastSpec(election_date=AS_OF - DAY, as_of=AS_OF)
    with pytest.raises(ValueError):
        ForecastSpec(election_date=AS_OF, as_of=AS_OF, tau=0.0)


def test_shrink_factor_shape():
    assert shrink_factor(0, 60) == 1.0
    assert shrink_factor(60, 60) == 0.5
    assert shrink_factor(120, 60) == pytest.approx(1 / 3)
    values = [shrink_factor(h, 60) for h in (0, 10, 30, 60, 200, 10_000)]
    assert values == sorted(values, reverse=True)
    assert values[-1] < 0.01


def test_zero_horizon_is_identity(post):
    assert inflate(post, spec(0)) is post


def test_horizon_tau_halves_data_content(post):
    out = inflate(post, spec(60), prior_alpha=0.5)
    for a, b in zip(out.alpha, post.alpha):
        assert a == 0.5 + 0.5 * (b - 0.5)


def test_variance_strictly_increases_with_horizon(post):
    variances = []
    for h in (0, 30, 60, 90, 120):
        var = inflate(post, spec(h)).marginal_variance()
        variances.append(var)
    for earlier, later in zip(variances, variances[1:]):
        for pid in post.parties:
            assert later[pid] > earlier[pid]


def test_alpha_total_strictly_decreases(post):
    totals = [inflate(post, spec(h)).alpha_total for h in (0, 15, 45, 90)]
    assert totals == sorted(totals, reverse=True)
    assert len(set(totals)) == len(totals)


def test_mean_drift_bounded(post):
    base = post.mean()
    out = inflate(post, spec(90), prior_alpha=0.5)
    bound = 0.5 * len(post.parties) / out.alpha_total
    for pid in post.parties:
        assert abs(out.mean()[pid] - base[pid]) <= bound


def test_inflate_rejects_alpha_below_prior(post):
    with pytest.raises(ValueError, match="below prior"):
        inflate(post, spec(30), prior_alpha=1000.0)


def fixture_polls_single(registry):
    shares = dict(zip(registry.named_ids, (0.33, 0.17, 0.12, 0.10, 0.10, 0.13)))
    return [validate_poll(Poll("P", AS_OF, 2000, shares), registry)]


def test_forecast_poe_sure_event_any_horizon(registry):
    polls = fixture_polls_single(registry)
    event = EventSpec("coalition-majority", registry.ids)
    nowcast = posterior_at(polls, registry, AS_OF)
    for h in (0, 45, 300):
        fspec = ForecastSpec(election_date=AS_OF + h * DAY, as_of=AS_OF)
        result = estimate_poe(inflate(nowcast, fspec), RULES, event, m=2_000, seed=1)
        assert result.probability == 1.0


def test_forecast_poe_zero_horizon_equals_nowcast(registry, fixture_polls):
    event = EventSpec("coalition-majority", ("union", "spd"))
    fspec = ForecastSpec(election_date=AS_OF, as_of=AS_OF)
    nowcast_post = posterior_at(fixture_polls, registry, AS_OF, PoolingConfig(), 0.5)
    fc = estimate_poe(inflate(nowcast_post, fspec), RULES, event, m=20_000, seed=2)
    nc = estimate_poe(nowcast_post, RULES, event, 20_000, seed=2)
    assert fc == nc


def test_knife_edge_poe_moves_toward_half(two_party_registry):
    # symmetric two-party race at 50/50: the analytic majority probability
    # is pinned at 1/2 for every horizon, while a lopsided one drifts there
    shares = {"a": 0.53, "b": 0.45}
    polls = [validate_poll(Poll("P", AS_OF, 2000, shares), two_party_registry)]
    rules = ElectionRules(threshold=0.0, house_size=599)
    event = EventSpec("coalition-majority", ("a",))
    nowcast = posterior_at(polls, two_party_registry, AS_OF)
    probs = []
    for h in (0, 60, 240, 1200):
        fspec = ForecastSpec(election_date=AS_OF + h * DAY, as_of=AS_OF)
        result = estimate_poe(inflate(nowcast, fspec), rules, event, m=100_000, seed=3)
        probs.append(result.probability)
    assert probs[0] > 0.95
    assert probs == sorted(probs, reverse=True)
    # analytic check at the longest horizon: Beta tail of the shrunk counts
    s = shrink_factor(1200, 60.0)
    a = 0.5 + s * (2000 * 0.53)
    b = 0.5 + s * (2000 * 0.45)
    analytic = beta.sf(0.5, a, b)
    assert abs(probs[-1] - analytic) <= 4 * np.sqrt(probs[-1] * (1 - probs[-1]) / 100_000)


def test_fan_chart_band_at_as_of_matches_nowcast(registry, fixture_polls):
    fspec = ForecastSpec(election_date=AS_OF + 60 * DAY, as_of=AS_OF)
    fan = fan_chart_data(fixture_polls, registry, fspec, grid_days=30, m=20_000, seed=4)
    nowcast = posterior_at(fixture_polls, registry, AS_OF, PoolingConfig(), 0.5)
    means, bands = nowcast.mean(), share_bands(nowcast, 20_000, 4, 1)
    for pid in registry.ids:
        point = next(pt for pt in fan.points[pid] if pt.date == AS_OF)
        lo, hi = bands[pid]
        assert (point.mean, point.lo, point.hi) == (means[pid], lo, hi)


def test_fan_chart_skips_grid_dates_in_a_poll_gap(registry):
    # Polls 40 days apart leave the 14-day window empty on the grid dates
    # between them; those dates are skipped for every party.
    shares = fixture_polls_single(registry)[0].shares
    polls = [validate_poll(Poll("P", AS_OF + d * DAY, 2000, shares), registry) for d in (-40, 0)]
    fspec = ForecastSpec(election_date=AS_OF + 14 * DAY, as_of=AS_OF)
    fan = fan_chart_data(polls, registry, fspec, grid_days=7, m=2_000, seed=9)
    assert PoolingConfig().window_days == 14
    assert fan.skipped == tuple(AS_OF + d * DAY for d in (-26, -19, -12, -5))
    for pid in registry.ids:
        dates = [pt.date for pt in fan.points[pid]]
        assert dates == [AS_OF + d * DAY for d in (-40, -33, 0, 7, 14)]


def test_fan_chart_bands_widen_into_the_future(registry, fixture_polls):
    fspec = ForecastSpec(election_date=AS_OF + 120 * DAY, as_of=AS_OF)
    fan = fan_chart_data(fixture_polls, registry, fspec, grid_days=30, m=50_000, seed=5)
    for pid in registry.ids:
        future = [pt for pt in fan.points[pid] if pt.date >= AS_OF]
        widths = [pt.hi - pt.lo for pt in future]
        assert len(future) == 5  # as_of + 30/60/90/120
        for a, b in zip(widths, widths[1:]):
            assert b >= a
        assert widths[-1] > widths[0]
        assert future[-1].date == fspec.election_date


def test_fan_chart_ends_exactly_at_election_even_off_grid(registry, fixture_polls):
    fspec = ForecastSpec(election_date=AS_OF + 40 * DAY, as_of=AS_OF)
    fan = fan_chart_data(fixture_polls, registry, fspec, grid_days=30, m=5_000, seed=6)
    dates = [pt.date for pt in fan.points["union"]]
    assert dates[-1] == AS_OF + 40 * DAY
    assert dates == sorted(dates)


def test_fan_chart_mean_nearly_flat_in_future(registry, fixture_polls):
    fspec = ForecastSpec(election_date=AS_OF + 120 * DAY, as_of=AS_OF)
    fan = fan_chart_data(fixture_polls, registry, fspec, grid_days=60, m=5_000, seed=7)
    for pid in registry.ids:
        future = [pt for pt in fan.points[pid] if pt.date >= AS_OF]
        drift = abs(future[-1].mean - future[0].mean)
        assert drift <= 3.5 / 100.0  # bounded by prior pull, tiny in practice
        assert drift < 0.01


def test_forecast_distribution_series_wider_than_nowcast(registry, fixture_polls):
    dates = sorted({p.publish_date for p in fixture_polls})
    coalition = ("union", "spd")
    election = AS_OF + 45 * DAY

    def nowcast_of(date):
        return posterior_at(fixture_polls, registry, date)

    def forecast_of(date):
        return inflate(nowcast_of(date), ForecastSpec(election_date=election, as_of=date))

    def density(post):
        return seat_distribution(post, RULES, coalition, 20_000, 8)

    nc, _ = per_date(dates, nowcast_of, density)
    fc, _ = per_date(dates, forecast_of, density)
    assert [d for d, _ in fc] == [d for d, _ in nc]
    for (_, now), (_, fut) in zip(nc, fc):
        now_span = now.ci95[1] - now.ci95[0]
        fut_span = fut.ci95[1] - fut.ci95[0]
        assert fut_span >= now_span
