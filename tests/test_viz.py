import datetime as dt
import math
import re

import numpy as np
import pytest

from koalition.electoral import ElectionRules, SeatAllocation
from koalition.engine import (
    EventSpec,
    PoEResult,
    estimate_poe,
    per_date,
    sample_parliaments,
    seat_distribution,
)
from koalition.forecast import ForecastSpec, fan_chart_data, inflate
from koalition.polls import Poll, validate_poll
from koalition.posterior import DirichletPosterior, posterior_at
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


@pytest.fixture(scope="module")
def theme(registry):
    return theme_for(registry)


def series_density(post):
    return seat_distribution(post, RULES, ("union", "spd"), 4_000, 31)


def forecast_points(polls, registry, dates, election):
    """Election-day densities as seen from each date: the inflated nowcasts."""

    def posterior_of(date):
        spec = ForecastSpec(election_date=election, as_of=date)
        return inflate(posterior_at(polls, registry, date), spec)

    return per_date(dates, posterior_of, series_density)[0]


@pytest.fixture(scope="module")
def series_data(registry, fixture_polls):
    dates = sorted({p.publish_date for p in fixture_polls})
    event = EventSpec("coalition-majority", ("union", "spd"))

    def nowcast_of(date):
        return posterior_at(fixture_polls, registry, date)

    dist_points, _ = per_date(dates, nowcast_of, series_density)
    poe_points, _ = per_date(dates, nowcast_of,
                             lambda post: estimate_poe(post, RULES, event, 4_000, 31))
    return dist_points, poe_points


from svg_checks import assert_within_viewbox, by_class, parse, polygon_pts, shoelace


def test_classic_bars_structure(registry, theme):
    shares = dict(zip(registry.named_ids, (0.33, 0.17, 0.12, 0.0, 0.1, 0.13)))
    poll = validate_poll(Poll("Insa", AS_OF, 2040, shares), registry)
    svg = render_classic_bars(poll, theme)
    root = parse(svg)
    bars = by_class(root, "bar")
    assert len(bars) == 7  # all registry parties, even at zero share
    labels = [el.text for el in by_class(root, "bar-label")]
    assert "17%" in labels
    zero_bars = [el for el in bars if float(el.get("height")) == 0.0]
    assert zero_bars  # fdp at zero share still gets its (flat) bar
    assert "<!-- koalition seed=none" in svg
    assert_within_viewbox(svg)
    assert svg == render_classic_bars(poll, theme)


def poe_result(p, subset, m=10_000, seed=1):
    return PoEResult(
        probability=p, mc_stderr=math.sqrt(p * (1 - p) / m),
        subset_probability=subset, m=m, seed=seed,
        hits=int(p * m), subset_hits=int(subset * m),
    )


def test_poe_bars_geometry(registry, theme):
    results = [
        (("union", "spd"), poe_result(1.0, 0.25)),
        (("spd", "gruene", "fdp"), poe_result(0.5, 0.0)),
        (("union", "fdp"), poe_result(0.286, 0.1)),
    ]
    means = {"union": 0.33, "spd": 0.17, "gruene": 0.12, "fdp": 0.1}
    svg = render_poe_bars(results, theme, means=means,
                          seed=7, m=10_000, as_of=AS_OF)
    root = parse(svg)
    bars = by_class(root, "poe-bar")
    subsets = by_class(root, "poe-subset")
    assert len(bars) == 3
    assert len(subsets) == 2  # zero subset draws no gray segment
    # full-probability bar spans the whole plot width: equal to the 100% gridline
    grid_x = sorted(float(g.get("x1")) for g in by_class(root, "gridline"))
    assert float(bars[0].get("x")) + float(bars[0].get("width")) == pytest.approx(
        grid_x[-1], abs=0.02
    )
    for bar, sub in zip((bars[0], bars[2]), subsets):
        assert float(sub.get("width")) <= float(bar.get("width")) + 1e-9
    # bar color is the strongest member's color
    assert bars[0].get("fill") == registry.color("union")
    assert bars[1].get("fill") == registry.color("spd")
    assert "koalition seed=7" in svg
    assert_within_viewbox(svg)


def test_poe_bars_gray_never_exceeds_bar(registry, theme):
    rng = np.random.default_rng(3)
    results = []
    for _ in range(8):
        p = float(rng.uniform(0, 1))
        results.append((("union", "spd"), poe_result(p, float(rng.uniform(0, p)))))
    svg = render_poe_bars(results, theme)
    root = parse(svg)
    bars = by_class(root, "poe-bar")
    subs = by_class(root, "poe-subset")
    sub_iter = iter(subs)
    for i, (coalition, r) in enumerate(results):
        if r.subset_probability > 0:
            assert float(next(sub_iter).get("width")) <= float(bars[i].get("width")) + 1e-9


def test_seat_density_blue_area_matches_majority_mass(post, theme):
    dist = seat_distribution(post, RULES, ("spd", "gruene", "fdp", "linke"),
                             50_000, seed=33)
    assert 0.05 < dist.majority_mass < 0.95  # a case where the check has teeth
    svg = render_seat_density(dist, theme, seed=33, m=50_000, as_of=AS_OF)
    root = parse(svg)
    fill = by_class(root, "majority-fill")
    assert len(fill) == 1
    blue_area = shoelace(polygon_pts(fill[0]))
    curve = by_class(root, "density")[0]
    pts = polygon_pts(curve)
    baseline = float(by_class(root, "axis")[0].get("y1"))
    total_area = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        total_area += (x2 - x1) * ((baseline - y1) + (baseline - y2)) / 2.0
    assert blue_area / total_area == pytest.approx(dist.majority_mass, abs=0.02)
    assert_within_viewbox(svg)


def test_seat_density_no_blue_fill_without_majority(theme):
    post = DirichletPosterior(
        parties=("a", "b", "other"), alpha=(200.5, 9600.5, 200.5), other_id="other"
    )
    dist = seat_distribution(post, RULES, ("a",), 2_000, seed=34)
    svg = render_seat_density(dist, theme)
    root = parse(svg)
    assert not by_class(root, "majority-fill")
    ci = by_class(root, "ci-bar")[0]
    assert float(ci.get("width")) == 0.0  # degenerate (0, 0) interval
    # positioned at seat share zero, i.e. the left edge of the x window
    density_x = [x for x, _ in polygon_pts(by_class(root, "density")[0])]
    assert float(ci.get("x")) == min(density_x)


def test_parliaments_figure(post, registry, theme):
    allocs = sample_parliaments(post, RULES, 6, seed=35)
    svg = render_parliaments(allocs, ("gruene", "spd", "fdp"), registry, theme,
                             seed=35, m=6, as_of=AS_OF)
    root = parse(svg)
    rows = by_class(root, "row-label")
    assert len(rows) == 6
    segs = by_class(root, "seat-seg")
    by_y = {}
    for seg in segs:
        by_y.setdefault(seg.get("y"), []).append(float(seg.get("width")))
    assert len(by_y) == 6
    widths = {sum(ws) for ws in by_y.values()}
    assert max(widths) - min(widths) < 0.25  # all bars span the same full width
    quartiles = by_class(root, "quartile")
    assert len(quartiles) == 3
    # coalition grouped leftmost: first segment of each row is a coalition color
    first_by_y = {}
    for seg in segs:
        x = float(seg.get("x"))
        y = seg.get("y")
        if y not in first_by_y or x < first_by_y[y][0]:
            first_by_y[y] = (x, seg.get("fill"))
    for _, fill in first_by_y.values():
        assert fill == registry.color("gruene")
    assert_within_viewbox(svg)


def test_parliaments_hung_marker(registry, theme):
    hung = SeatAllocation(seats=dict.fromkeys(registry.ids, 0), eligible=frozenset())
    svg = render_parliaments([hung], ("spd",), registry, theme)
    root = parse(svg)
    assert by_class(root, "hung")
    assert not by_class(root, "seat-seg")


def test_ridgeline_structure(series_data, theme):
    dist_points, _ = series_data
    svg = render_ridgeline(dist_points, theme, seed=31, m=4000, as_of=AS_OF)
    root = parse(svg)
    ridges = by_class(root, "ridge")
    assert len(ridges) == len(dist_points)
    labels = by_class(root, "date-label")
    dates = [el.text for el in labels]
    ys = [float(el.get("y")) for el in labels]
    assert dates == sorted(dates)  # oldest first
    assert ys == sorted(ys)  # and oldest at the top
    assert by_class(root, "majority-line")
    assert_within_viewbox(svg)


def test_ridgeline_sorts_input(series_data, theme):
    dist_points, _ = series_data
    shuffled = list(dist_points)[::-1]
    assert render_ridgeline(shuffled, theme) == render_ridgeline(
        dist_points, theme
    )


def test_ridgeline_single_date(post, theme):
    dist = seat_distribution(post, RULES, ("union", "spd"), 2_000, seed=36)
    svg = render_ridgeline([(AS_OF, dist)], theme)
    assert len(by_class(parse(svg), "ridge")) == 1


def test_poe_timeline_constant_half_sits_on_midline(theme):
    series = [(AS_OF + i * DAY, poe_result(0.5, 0.0)) for i in range(4)]
    svg = render_poe_timeline(series, theme)
    root = parse(svg)
    line = by_class(root, "poe-line")[0]
    ys = {y for _, y in polygon_pts(line)}
    assert len(ys) == 1
    labels = by_class(root, "gridline-label")
    mid = next(el for el in labels if el.text == "50%")
    grid_lines = by_class(root, "gridline")
    mid_y = sorted(float(g.get("y1")) for g in grid_lines)[len(grid_lines) // 2]
    assert ys.pop() == pytest.approx(mid_y, abs=0.011)
    assert float(mid.get("y")) == pytest.approx(mid_y + 4, abs=0.011)


def test_poe_timeline_clamps_extremes(theme):
    series = [
        (AS_OF, poe_result(0.001, 0.0)),
        (AS_OF + DAY, poe_result(0.01, 0.0)),
    ]
    svg = render_poe_timeline(series, theme)
    pts = polygon_pts(by_class(parse(svg), "poe-line")[0])
    assert pts[0][1] == pts[1][1]  # 0.1% positions at the 1% clamp


def test_poe_timeline_symmetry(theme):
    series = [
        (AS_OF, poe_result(0.2, 0.0)),
        (AS_OF + DAY, poe_result(0.8, 0.0)),
        (AS_OF + 2 * DAY, poe_result(0.5, 0.0)),
    ]
    svg = render_poe_timeline(series, theme)
    pts = polygon_pts(by_class(parse(svg), "poe-line")[0])
    mid_y = pts[2][1]
    assert (mid_y - pts[1][1]) == pytest.approx(pts[0][1] - mid_y, abs=0.011)


def test_poe_timeline_linear_fallback(theme):
    series = [(AS_OF, poe_result(0.25, 0.0)), (AS_OF + DAY, poe_result(0.75, 0.0))]
    svg_lin = render_poe_timeline(series, theme, nonlinear=False)
    root = parse(svg_lin)
    labels = {el.text for el in by_class(root, "gridline-label")}
    assert labels == {"0%", "25%", "50%", "75%", "100%"}


def test_fan_chart_geometry(registry, fixture_polls, theme):
    election = AS_OF + 90 * DAY
    spec = ForecastSpec(election_date=election, as_of=AS_OF)
    fan = fan_chart_data(fixture_polls, registry, spec, grid_days=30, m=4_000, seed=37)
    svg = render_fan_chart(fan, fixture_polls, AS_OF, election, theme,
                           seed=37, m=4_000)
    root = parse(svg)
    dots = by_class(root, "poll-dot")
    assert len(dots) == len(fixture_polls) * len(registry.ids)
    bands = by_class(root, "band")
    assert len(bands) == len(registry.ids)
    asof_x = float(by_class(root, "asof-line")[0].get("x1"))
    # band widths never shrink to the right of the as_of line
    for band in bands:
        pts = polygon_pts(band)
        n = len(pts) // 2
        upper, lower = pts[:n], pts[n:][::-1]
        widths = [
            (lx, ly - uy) for (ux, uy), (lx, ly) in zip(upper, lower) if lx >= asof_x
        ]
        for (_, w1), (_, w2) in zip(widths, widths[1:]):
            assert w2 >= w1 - 0.011
    # x axis ends exactly at election day: rightmost band vertex == plot edge
    right_edge = max(px for band in bands for px, _ in polygon_pts(band))
    w = float(root.get("width"))
    assert right_edge == pytest.approx(w - 25, abs=0.011)
    assert_within_viewbox(svg)


def test_fan_chart_zero_horizon_line_at_right_edge(registry, fixture_polls, theme):
    spec = ForecastSpec(election_date=AS_OF, as_of=AS_OF)
    fan = fan_chart_data(fixture_polls, registry, spec, grid_days=30, m=2_000, seed=38)
    svg = render_fan_chart(fan, fixture_polls, AS_OF, AS_OF, theme)
    root = parse(svg)
    asof_x = float(by_class(root, "asof-line")[0].get("x1"))
    w = float(root.get("width"))
    assert asof_x == pytest.approx(w - 25, abs=0.011)


def test_forecast_ridgeline_panes(registry, fixture_polls, theme, series_data):
    dist_points, _ = series_data
    dates = [d for d, _ in dist_points]
    fc_points = forecast_points(fixture_polls, registry, dates, AS_OF + 45 * DAY)
    wide = Theme(width=760, party_colors=dict(theme.party_colors))
    svg = render_forecast_ridgeline(dist_points, fc_points, wide,
                                    seed=31, m=4_000, as_of=AS_OF)
    root = parse(svg)
    panes = by_class(root, "pane")
    assert len(panes) == 2
    # forecast ridges span at least as wide as nowcast ridges, in pixels
    for now_ridge, fc_ridge in zip(by_class(panes[0], "ridge"),
                                   by_class(panes[1], "ridge")):
        now_pts = polygon_pts(now_ridge)
        fc_pts = polygon_pts(fc_ridge)
        now_span = max(x for x, _ in now_pts) - min(x for x, _ in now_pts)
        fc_span = max(x for x, _ in fc_pts) - min(x for x, _ in fc_pts)
        assert fc_span >= now_span - 0.011
    assert_within_viewbox(svg)


def test_forecast_ridgeline_identical_inputs_identical_panes(theme, series_data):
    dist_points, _ = series_data
    wide = Theme(width=760, party_colors=dict(theme.party_colors))
    svg = render_forecast_ridgeline(dist_points, dist_points, wide)
    pane_bodies = re.findall(r'<g class="pane"[^>]*>(.*?)</g>', svg, re.DOTALL)
    assert len(pane_bodies) == 2
    assert pane_bodies[0] == pane_bodies[1]


def test_all_renderers_deterministic_and_well_formed(
    registry, fixture_polls, theme, post, series_data
):
    dist_points, poe_points = series_data
    dist = seat_distribution(post, RULES, ("union", "spd"), 4_000, seed=39)
    allocs = sample_parliaments(post, RULES, 6, seed=39)
    election = AS_OF + 60 * DAY
    spec = ForecastSpec(election_date=election, as_of=AS_OF)
    fan = fan_chart_data(fixture_polls, registry, spec, grid_days=30, m=2_000, seed=39)
    fc_points = forecast_points(fixture_polls, registry, [d for d, _ in dist_points],
                                election)
    wide = Theme(width=760, party_colors=dict(theme.party_colors))
    renders = [
        lambda: render_classic_bars(fixture_polls[-1], theme, seed=1, m=1, as_of=AS_OF),
        lambda: render_poe_bars(
            [(("union", "spd"), poe_result(0.7, 0.2))], theme,
            seed=1, m=10, as_of=AS_OF,
        ),
        lambda: render_seat_density(dist, theme, seed=39, m=4000, as_of=AS_OF),
        lambda: render_parliaments(allocs, ("spd",), registry, theme),
        lambda: render_ridgeline(dist_points, theme),
        lambda: render_poe_timeline(poe_points, theme),
        lambda: render_fan_chart(fan, fixture_polls, AS_OF, election, theme),
        lambda: render_forecast_ridgeline(dist_points, fc_points, wide),
    ]
    for render in renders:
        first, second = render(), render()
        assert first == second
        parse(first)  # well-formed XML
        assert "<!-- koalition seed=" in first
