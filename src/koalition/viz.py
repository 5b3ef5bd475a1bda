"""Deterministic SVG rendering of the engine's outputs.

Every renderer is a pure function from data + theme to an SVG string:
identical inputs give byte-identical output, which is what the golden
tests pin down. No statistics are computed here; densities, intervals
and probabilities arrive ready-made from the engine.

Each figure embeds a provenance comment of the form
``<!-- koalition seed=... m=... as_of=... -->`` right after the root tag.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence
from xml.sax.saxutils import escape

from .engine import PoEResult, SeatShareDistribution
from .electoral import SeatAllocation
from .forecast import FanChart
from .polls import PartyRegistry, Poll

__all__ = [
    "Theme",
    "theme_for",
    "render_classic_bars",
    "render_poe_bars",
    "render_seat_density",
    "render_parliaments",
    "render_ridgeline",
    "render_poe_timeline",
    "render_fan_chart",
    "render_forecast_ridgeline",
]

_HEX_COLOR = re.compile(r"^#[0-9a-fA-F]{6}$")

FALLBACK_COLOR = "#888888"


@dataclass(frozen=True)
class Theme:
    width: int = 640
    height: int = 400
    font_family: str = "Helvetica, Arial, sans-serif"
    font_size: int = 12
    party_colors: Mapping[str, str] = field(default_factory=dict)
    majority_color: str = "#3B6EA5"
    ci_color: str = "#E8863B"
    subset_color: str = "#C9C9C9"
    quartile_color: str = "#8C8C8C"
    axis_color: str = "#333333"
    background: str = "#FFFFFF"

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("theme dimensions must be positive")
        for color in (
            self.majority_color,
            self.ci_color,
            self.subset_color,
            self.quartile_color,
            self.axis_color,
            self.background,
            *self.party_colors.values(),
        ):
            if not _HEX_COLOR.match(color):
                raise ValueError(f"bad color {color!r}")

    def color(self, party_id: str) -> str:
        return self.party_colors.get(party_id, FALLBACK_COLOR)


def theme_for(registry: PartyRegistry, **overrides) -> Theme:
    colors = {p.id: registry.color(p.id) for p in registry.parties}
    return Theme(party_colors=colors, **overrides)


def _fmt(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def _pct(x: float, decimals: int = 6) -> str:
    v = round(x * 100.0, decimals)
    return f"{v:g}%"


def _meta(seed, m, as_of) -> str:
    def show(v):
        if v is None:
            return "none"
        if isinstance(v, dt.date):
            return v.isoformat()
        return str(v)

    return f"<!-- koalition seed={show(seed)} m={show(m)} as_of={show(as_of)} -->"


class _Frame(NamedTuple):
    """The plot area inside a figure's margins, in pixels; bottom = top + h."""

    left: float
    top: float
    w: float
    h: float
    bottom: float


def _open(theme: Theme, seed, m, as_of, margins) -> tuple[list[str], _Frame]:
    """The opening elements of a figure, and the plot frame that its
    (left, right, top, bottom) margins leave."""
    left, right, top, bottom = margins
    w, h = theme.width - left - right, theme.height - top - bottom
    parts = [
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{theme.width}"'
            f' height="{theme.height}" viewBox="0 0 {theme.width} {theme.height}">'
        ),
        _meta(seed, m, as_of),
        (
            f'<rect class="background" x="0" y="0" width="{theme.width}"'
            f' height="{theme.height}" fill="{theme.background}"/>'
        ),
    ]
    return parts, _Frame(left, top, w, h, top + h)


def _close(parts: list[str]) -> str:
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _rect(cls, x, y, w, h, fill, extra="") -> str:
    return (
        f'<rect class="{cls}" x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}"'
        f' height="{_fmt(h)}" fill="{fill}"{extra}/>'
    )


def _line(cls, x1, y1, x2, y2, stroke, extra="") -> str:
    return (
        f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}"'
        f' y2="{_fmt(y2)}" stroke="{stroke}"{extra}/>'
    )


def _text(cls, x, y, content, theme: Theme, anchor="middle", size=None, extra="") -> str:
    return (
        f'<text class="{cls}" x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}"'
        f' font-family="{theme.font_family}" font-size="{size or theme.font_size}"'
        f' fill="{theme.axis_color}"{extra}>{escape(str(content))}</text>'
    )


def _points(pairs) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pairs)


def _polyline(cls, pairs, stroke, extra="") -> str:
    return (
        f'<polyline class="{cls}" points="{_points(pairs)}" fill="none"'
        f' stroke="{stroke}"{extra}/>'
    )


def _polygon(cls, pairs, fill, extra="") -> str:
    return f'<polygon class="{cls}" points="{_points(pairs)}" fill="{fill}"{extra}/>'


def _circle(cls, x, y, r, fill, extra="") -> str:
    return f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{fill}"{extra}/>'


def _area(points, base: float) -> list[tuple[float, float]]:
    """points closed down to the horizontal line y = base at both ends."""
    return [(points[0][0], base), *points, (points[-1][0], base)]


def _ticks(lo: float, hi: float, step: float):
    """Multiples of step from the first at or above lo through hi.

    Each tick is the previous one plus step, as the figures have always
    drawn them: i * step would round some ticks differently and so change
    the SVG bytes.
    """
    tick = math.ceil(lo / step) * step
    while tick <= hi + 1e-9:
        yield tick
        tick += step


def _vrules(parts, frame: _Frame, fracs, cls, dash, decimals, theme: Theme) -> None:
    """Dashed vertical lines at fractions of the frame's width, labelled below."""
    for frac in fracs:
        x = frame.left + frame.w * frac
        parts.append(_line(cls, x, frame.top, x, frame.bottom, theme.quartile_color,
                           f' stroke-dasharray="{dash}"'))
        parts.append(_text(f"{cls}-label", x, frame.bottom + 16, _pct(frac, decimals), theme))


def _hrules(parts, frame: _Frame, values, ypos, theme: Theme) -> None:
    """Dashed horizontal grid lines at ypos(value), labelled on the left."""
    for value in values:
        y = ypos(value)
        parts.append(_line("gridline", frame.left, y, frame.left + frame.w, y,
                           theme.quartile_color, ' stroke-dasharray="2 3"'))
        parts.append(_row_label("gridline-label", frame.left, y, _pct(value, 0), theme))


def _row_label(cls, x, y, content, theme: Theme, size=None) -> str:
    """Text that ends 8 px left of x, on the row centred at y."""
    return _text(cls, x - 8, y + 4, content, theme, anchor="end", size=size)


def _date_label(x, y, date: dt.date, theme: Theme) -> str:
    return _row_label("date-label", x, y, date.isoformat(), theme,
                      size=max(theme.font_size - 2, 8))


class _Scale:
    """Affine map from a data interval to a pixel interval."""

    def __init__(self, d0: float, d1: float, p0: float, p1: float):
        if d1 == d0:
            d1 = d0 + 1.0  # degenerate domain: map everything to p0
        self.d0, self.d1, self.p0, self.p1 = d0, d1, p0, p1

    def __call__(self, v: float) -> float:
        return self.p0 + (v - self.d0) / (self.d1 - self.d0) * (self.p1 - self.p0)


def _date_scale(dates: Sequence[dt.date], p0: float, p1: float) -> _Scale:
    lo = min(dates).toordinal()
    hi = max(dates).toordinal()
    scale = _Scale(lo, hi, p0, p1)
    return lambda d: scale(d.toordinal())  # type: ignore[return-value]


# --------------------------------------------------------------------------
# classic bar chart of one poll's reported shares
# --------------------------------------------------------------------------

def render_classic_bars(
    poll: Poll, theme: Theme, *, seed=None, m=None, as_of=None
) -> str:
    as_of = as_of if as_of is not None else poll.publish_date
    parts, (left, top, plot_w, plot_h, baseline) = _open(theme, seed, m, as_of, (50, 20, 40, 50))
    parties = list(poll.shares)
    ymax = max(max(poll.shares.values()) * 1.2, 0.05)
    slot = plot_w / len(parties)
    bar_w = slot * 0.7

    parts.append(
        _text(
            "title",
            left + plot_w / 2,
            top - 18,
            f"{poll.pollster} {poll.publish_date.isoformat()} (n={poll.sample_size})",
            theme,
        )
    )
    for i, pid in enumerate(parties):
        share = poll.shares[pid]
        h = plot_h * share / ymax
        x = left + i * slot + (slot - bar_w) / 2
        parts.append(_rect("bar", x, baseline - h, bar_w, h, theme.color(pid)))
        parts.append(_text("bar-label", x + bar_w / 2, baseline - h - 5, _pct(share), theme))
        parts.append(_text("party-label", x + bar_w / 2, baseline + 16, pid, theme))
    parts.append(_line("axis", left, baseline, left + plot_w, baseline, theme.axis_color))
    return _close(parts)


# --------------------------------------------------------------------------
# event-probability bars per coalition, subset-sufficient share in gray
# --------------------------------------------------------------------------

def render_poe_bars(
    results: Sequence[tuple[tuple[str, ...], PoEResult]],
    theme: Theme,
    means: Mapping[str, float] | None = None,
    labels: Sequence[str] | None = None,
    *,
    seed=None,
    m=None,
    as_of=None,
) -> str:
    parts, frame = _open(theme, seed, m, as_of, (150, 60, 30, 30))
    left, top, plot_w, plot_h, _ = frame
    slot = plot_h / max(len(results), 1)
    bar_h = slot * 0.6

    _vrules(parts, frame, (0.0, 0.25, 0.5, 0.75, 1.0), "gridline", "2 3", 6, theme)

    for i, (coalition, result) in enumerate(results):
        if means:
            strongest = max(coalition, key=lambda pid: (means.get(pid, 0.0), -coalition.index(pid)))
        else:
            strongest = coalition[0]
        y = top + i * slot + (slot - bar_h) / 2
        label = labels[i] if labels else "+".join(coalition)
        parts.append(
            _rect("poe-bar", left, y, plot_w * result.probability, bar_h,
                  theme.color(strongest))
        )
        if result.subset_probability > 0.0:
            parts.append(
                _rect("poe-subset", left, y, plot_w * result.subset_probability,
                      bar_h, theme.subset_color)
            )
        parts.append(_row_label("coalition-label", left, y + bar_h / 2, label, theme))
        parts.append(
            _text("poe-label", left + plot_w * result.probability + 6,
                  y + bar_h / 2 + 4, _pct(result.probability, 1), theme,
                  anchor="start")
        )
    return _close(parts)


# --------------------------------------------------------------------------
# seat-share density with majority shading and 95% interval bar
# --------------------------------------------------------------------------

def _density_window(dists: Sequence[SeatShareDistribution]) -> tuple[float, float]:
    lo, hi = 1.0, 0.0
    for dist in dists:
        peak = float(dist.density.max())
        if peak <= 0:
            continue
        idx = [i for i, v in enumerate(dist.density) if v > peak * 1e-4]
        lo = min(lo, float(dist.grid[idx[0]]))
        hi = max(hi, float(dist.grid[idx[-1]]))
    if lo > hi:
        lo, hi = 0.0, 1.0
    lo = min(lo, 0.47)
    hi = max(hi, 0.53)
    return max(0.0, lo - 0.02), min(1.0, hi + 0.02)


def _curve_points(dist: SeatShareDistribution, lo: float, hi: float):
    return [
        (float(x), float(y))
        for x, y in zip(dist.grid, dist.density)
        if lo <= x <= hi
    ]


def _majority_points(dist: SeatShareDistribution, hi: float):
    """Density polyline on [0.5, hi], with an interpolated point at 0.5."""
    grid = dist.grid
    dens = dist.density
    pts = []
    for i in range(len(grid) - 1):
        if grid[i] <= 0.5 < grid[i + 1]:
            t = (0.5 - grid[i]) / (grid[i + 1] - grid[i])
            pts.append((0.5, float(dens[i] + t * (dens[i + 1] - dens[i]))))
    return pts + _curve_points(dist, 0.5, hi)


def render_seat_density(
    dist: SeatShareDistribution, theme: Theme, *, seed=None, m=None, as_of=None
) -> str:
    parts, (left, top, plot_w, _, baseline) = _open(theme, seed, m, as_of, (50, 20, 30, 55))
    lo, hi = _density_window([dist])
    xs = _Scale(lo, hi, left, left + plot_w)
    peak = max(float(dist.density.max()), 1e-12)
    ys = _Scale(0.0, peak * 1.05, baseline, top)

    if dist.majority_mass > 0.0:
        poly = [(xs(x), ys(y)) for x, y in _majority_points(dist, hi)]
        parts.append(_polygon("majority-fill", _area(poly, baseline), theme.majority_color))

    curve = [(xs(x), ys(y)) for x, y in _curve_points(dist, lo, hi)]
    parts.append(_polyline("density", curve, theme.axis_color, ' stroke-width="1.5"'))

    ci_lo, ci_hi = dist.ci95
    parts.append(
        _rect("ci-bar", xs(ci_lo), baseline + 10,
              max(0.0, xs(ci_hi) - xs(ci_lo)), 6, theme.ci_color)
    )
    parts.append(
        _line("majority-line", xs(0.5), top, xs(0.5), baseline, theme.axis_color,
              ' stroke-width="1.5"')
    )
    for tick in _ticks(lo, hi, 0.05):
        parts.append(_line("tick", xs(tick), baseline, xs(tick), baseline + 4,
                           theme.axis_color))
        parts.append(_text("tick-label", xs(tick), baseline + 30, _pct(tick, 0), theme))
    parts.append(_line("axis", left, baseline, left + plot_w, baseline, theme.axis_color))
    return _close(parts)


# --------------------------------------------------------------------------
# sampled parliaments as stacked bars, coalition grouped leftmost
# --------------------------------------------------------------------------

def render_parliaments(
    allocs: Sequence[SeatAllocation],
    coalition: Sequence[str],
    registry: PartyRegistry,
    theme: Theme,
    *,
    seed=None,
    m=None,
    as_of=None,
) -> str:
    parts, frame = _open(theme, seed, m, as_of, (50, 20, 30, 40))
    left, top, plot_w, plot_h, _ = frame
    slot = plot_h / max(len(allocs), 1)
    bar_h = slot * 0.62
    house = max((sum(a.seats.values()) for a in allocs), default=1) or 1
    order = list(coalition) + [
        pid for pid in registry.ids if pid not in set(coalition)
    ]

    for i, alloc in enumerate(allocs):
        y = top + i * slot + (slot - bar_h) / 2
        parts.append(_row_label("row-label", left, y + bar_h / 2, f"#{i + 1}", theme))
        if alloc.hung:
            parts.append(_text("hung", left + 8, y + bar_h / 2 + 4, "hung", theme,
                               anchor="start"))
            continue
        cum = 0
        for pid in order:
            seats = alloc.seats.get(pid, 0)
            if seats == 0:
                continue
            x0 = left + plot_w * (cum / house)
            cum += seats
            x1 = left + plot_w * (cum / house)
            parts.append(_rect("seat-seg", x0, y, x1 - x0, bar_h, theme.color(pid)))

    _vrules(parts, frame, (0.25, 0.5, 0.75), "quartile", "4 3", 0, theme)
    return _close(parts)


# --------------------------------------------------------------------------
# ridgeline of seat-share densities over time
# --------------------------------------------------------------------------

def _draw_ridges(
    parts: list[str],
    series: Sequence[tuple[dt.date, SeatShareDistribution]],
    theme: Theme,
    rect: tuple[float, float, float, float],
    window: tuple[float, float],
    label_dates: bool = True,
) -> None:
    """Stack ridges oldest-at-top into rect; later ridges occlude earlier."""
    x0, y0, w, h = rect
    lo, hi = window
    ordered = sorted(series, key=lambda item: item[0])
    xs = _Scale(lo, hi, x0, x0 + w)
    step = h / (len(ordered) + 1)
    amp = step * 1.8
    peak = max((float(d.density.max()) for _, d in ordered), default=1.0) or 1.0

    def lift(points, base):
        return [(xs(x), base - (y / peak) * amp) for x, y in points]

    for i, (date, dist) in enumerate(ordered):
        base = y0 + step * (i + 1)
        ridge = lift(_curve_points(dist, lo, hi), base)
        if not ridge:
            continue
        parts.append(
            _polygon("ridge", _area(ridge, base), "#FFFFFF",
                     f' stroke="{theme.axis_color}" stroke-width="1"')
        )
        mpts = lift(_majority_points(dist, hi), base) if dist.majority_mass > 0.0 else []
        if mpts:
            parts.append(_polygon("ridge-majority", _area(mpts, base), theme.majority_color))
        if label_dates:
            parts.append(_date_label(x0, base, date, theme))
    parts.append(
        _line("majority-line", xs(0.5), y0, xs(0.5), y0 + h, "#000000",
              ' stroke-width="1.5"')
    )


def render_ridgeline(
    series: Sequence[tuple[dt.date, SeatShareDistribution]],
    theme: Theme,
    *,
    seed=None,
    m=None,
    as_of=None,
) -> str:
    parts, (left, top, plot_w, plot_h, baseline) = _open(
        theme, seed, m, as_of, (110, 25, 25, 40)
    )
    window = _density_window([d for _, d in series])
    _draw_ridges(parts, series, theme, (left, top, plot_w, plot_h), window)
    xs = _Scale(window[0], window[1], left, left + plot_w)
    for tick in _ticks(*window, 0.05):
        parts.append(_text("tick-label", xs(tick), baseline + 18, _pct(tick, 0), theme))
    return _close(parts)


# --------------------------------------------------------------------------
# event probability over time on a logit (nonlinear) axis
# --------------------------------------------------------------------------

_POE_GRID = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
_POE_CLAMP = (0.01, 0.99)


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def render_poe_timeline(
    series: Sequence[tuple[dt.date, PoEResult]],
    theme: Theme,
    nonlinear: bool = True,
    *,
    seed=None,
    m=None,
    as_of=None,
) -> str:
    parts, frame = _open(theme, seed, m, as_of, (60, 25, 25, 45))
    left, top, plot_w, _, baseline = frame
    ordered = sorted(series, key=lambda item: item[0])
    dates = [d for d, _ in ordered]
    xd = _date_scale(dates, left, left + plot_w)

    if nonlinear:
        span = _logit(_POE_CLAMP[1])
        ys = _Scale(-span, span, baseline, top)

        def ypos(p: float) -> float:
            return ys(_logit(min(max(p, _POE_CLAMP[0]), _POE_CLAMP[1])))

    else:
        ypos = _Scale(0.0, 1.0, baseline, top)

    grid = _POE_GRID if nonlinear else (0.0, 0.25, 0.5, 0.75, 1.0)
    _hrules(parts, frame, grid, ypos, theme)

    pts = [(xd(d), ypos(r.probability)) for d, r in ordered]
    parts.append(_polyline("poe-line", pts, theme.majority_color, ' stroke-width="2"'))
    for x, y in pts:
        parts.append(_circle("poe-point", x, y, 3, theme.majority_color))

    for d in (dates[0], dates[-1]):
        parts.append(_text("tick-label", xd(d), baseline + 18, d.isoformat(), theme))
    return _close(parts)


# --------------------------------------------------------------------------
# fan chart with widening bands toward election day
# --------------------------------------------------------------------------

def render_fan_chart(
    fan: FanChart,
    polls: Sequence[Poll],
    as_of: dt.date,
    election_date: dt.date,
    theme: Theme,
    *,
    seed=None,
    m=None,
) -> str:
    parts, frame = _open(theme, seed, m, as_of, (55, 25, 25, 45))
    left, top, plot_w, _, baseline = frame

    all_dates = [pt.date for pts in fan.points.values() for pt in pts]
    all_dates.extend(p.publish_date for p in polls)
    all_dates.append(election_date)
    lo_date = min(all_dates)
    # x axis ends exactly at election day
    xd = _date_scale([lo_date, election_date], left, left + plot_w)

    ymax = 0.05
    for pts in fan.points.values():
        ymax = max(ymax, max((pt.hi for pt in pts), default=0.0))
    for poll in polls:
        ymax = max(ymax, max(poll.shares.values()))
    ys = _Scale(0.0, ymax * 1.1, baseline, top)
    _hrules(parts, frame, _ticks(0.0, ymax * 1.1, 0.1), ys, theme)

    drawn = [(pid, fan.points[pid]) for pid in fan.parties if fan.points.get(pid)]
    for pid, pts in drawn:
        upper = [(xd(pt.date), ys(pt.hi)) for pt in pts]
        lower = [(xd(pt.date), ys(pt.lo)) for pt in reversed(pts)]
        parts.append(
            _polygon(f"band band-{pid}", upper + lower, theme.color(pid),
                     ' fill-opacity="0.25"')
        )
    for pid, pts in drawn:
        parts.append(
            _polyline(f"mean-line mean-{pid}",
                      [(xd(pt.date), ys(pt.mean)) for pt in pts],
                      theme.color(pid), ' stroke-width="2"')
        )
    for poll in polls:
        for pid in fan.parties:
            share = poll.shares.get(pid)
            if share is None:
                continue
            parts.append(
                _circle(f"poll-dot dot-{pid}", xd(poll.publish_date), ys(share),
                        2.5, theme.color(pid), ' stroke="#FFFFFF" stroke-width="0.5"')
            )
    parts.append(
        _line("asof-line", xd(as_of), top, xd(as_of), baseline, theme.axis_color,
              ' stroke-width="1.5"')
    )
    for d in (lo_date, as_of, election_date):
        parts.append(_text("tick-label", xd(d), baseline + 18, d.isoformat(), theme))
    return _close(parts)


# --------------------------------------------------------------------------
# nowcast and forecast ridgelines side by side
# --------------------------------------------------------------------------

def render_forecast_ridgeline(
    nowcast_series: Sequence[tuple[dt.date, SeatShareDistribution]],
    forecast_series: Sequence[tuple[dt.date, SeatShareDistribution]],
    theme: Theme,
    *,
    seed=None,
    m=None,
    as_of=None,
) -> str:
    gap = 30
    parts, (left, top, plot_w, plot_h, _) = _open(theme, seed, m, as_of, (110, 25, 40, 40))
    pane_w = (plot_w - gap) / 2
    window = _density_window(
        [d for _, d in nowcast_series] + [d for _, d in forecast_series]
    )

    panes = (
        ("Nowcast", nowcast_series, left),
        ("Forecast", forecast_series, left + pane_w + gap),
    )
    for title, series, x0 in panes:
        parts.append(_text("pane-title", x0 + pane_w / 2, top - 14, title, theme))
    # date labels once, against the shared time axis
    ordered = sorted(nowcast_series, key=lambda item: item[0])
    step = plot_h / (len(ordered) + 1) if ordered else plot_h
    for i, (date, _) in enumerate(ordered):
        parts.append(_date_label(left, top + step * (i + 1), date, theme))
    # panes hold pane-local coordinates, so equal inputs give equal path data
    for title, series, x0 in panes:
        parts.append(f'<g class="pane" transform="translate({_fmt(x0)} 0)">')
        _draw_ridges(parts, series, theme, (0, top, pane_w, plot_h), window,
                     label_dates=False)
        parts.append("</g>")
    return _close(parts)
