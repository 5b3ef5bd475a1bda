"""Seeded workload inputs: poll CSV, config and the CLI commands of one batch.

Every input is a pure function of (workload name, seed); the seed is also
passed to the program as ``--seed``. ``validate`` runs the package's own
``load_config``/``parse_polls`` and ``pool`` on the generated files before
anything is timed, so a workload never measures an error path.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("nowcast-1e6", "dhondt-k12", "series-figures")

POLLSTERS = ("Forsa", "Insa", "Emnid", "Allensbach", "GMS", "FGW", "Infratest", "YouGov")

# The 7-party example config (docs/config.example.ini) without its comments.
EXAMPLE_PARTIES = (
    ("union", "Union", "#1B1B1B", 32.5),
    ("spd", "SPD", "#E3000F", 17.0),
    ("gruene", "Gruene", "#1AA037", 12.3),
    ("fdp", "FDP", "#D1A514", 9.7),
    ("linke", "Linke", "#BE3075", 10.1),
    ("afd", "AfD", "#0489DB", 13.4),
)
EXAMPLE_COALITIONS = {
    "ampel": "spd, gruene, fdp",
    "grand": "union, spd",
    "jamaika": "union, fdp, gruene",
    "rrg": "spd, linke, gruene",
}

# 12 named parties; the four in the middle sit within one point of the 5%
# threshold, so the threshold and D'Hondt's repair passes both matter.
K12_MEANS = (25.0, 19.0, 12.0, 9.0, 6.8, 5.8, 5.3, 4.8, 4.3, 3.0, 2.0, 1.5)
K12_NEAR_THRESHOLD = (5, 6, 7, 8)
K12_COALITIONS = {
    "c1": "p01, p02",
    "c2": "p01, p03, p04",
    "c3": "p02, p03, p05",
    "c4": "p01, p04, p06",
    "c5": "p02, p03, p04",
    "c6": "p01, p03",
    "c7": "p02, p03, p06, p07",
    "c8": "p01, p05, p06, p08",
}

NOWCAST_DRAWS = 1_000_000
SERIES_DRAWS = 100_000
FAN_GRID_DAYS = 7  # the CLI default for --grid-days
WINDOW_DAYS = 14
# Work per batch must not depend on the seed, or runs with different seeds
# would spread for that reason alone: the campaign length, its number of
# poll dates and the forecast horizons are fixed.
CAMPAIGN_DAYS = 35
CAMPAIGN_DATES = 18
HORIZON_DAYS = {"dhondt-k12": 56, "series-figures": 42}
SERIES_FIGURES = ("poe-timeline", "ridgeline", "fan", "forecast-ridgeline")


@dataclass(frozen=True)
class Command:
    """One CLI call; ``out`` is the SVG path for plots, None for reports.

    ``draws_needed`` is the posterior draws the call needs (``--draws`` per
    simulated date or report), worked out from argv and inputs alone.
    """

    label: str
    argv: tuple[str, ...]
    out: str | None
    draws_needed: int
    draws: int


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    config_path: str
    polls_path: str
    as_of: dt.date
    commands: tuple[Command, ...]
    series_dates: tuple[dt.date, ...]
    fan_dates: tuple[dt.date, ...]


def _config_text(parties, method, house_size, coalitions) -> str:
    lines = ["[parties]"]
    lines += [f"{pid} = {name}, {color}" for pid, name, color, _ in parties]
    lines.append("other = Other, #ADB5BD")
    lines += [
        "",
        "[rules]",
        "threshold = 0.05",
        f"house_size = {house_size}",
        f"method = {method}",
        "",
        "[pooling]",
        f"window_days = {WINDOW_DAYS}",
        "dependence_factor = 0.25",
        "",
        "[posterior]",
        "prior_alpha = 0.5",
        "draws = 100000",
        "",
        "[forecast]",
        "tau_days = 60",
        "",
        "[coalitions]",
    ]
    lines += [f"{name} = {ids}" for name, ids in coalitions.items()]
    return "\n".join(lines) + "\n"


def _k12_parties(rng):
    parties = []
    for i, mean in enumerate(K12_MEANS):
        spread = 0.3 if i in K12_NEAR_THRESHOLD else 1.0
        color = "#{:02X}{:02X}{:02X}".format(*(int(c) for c in rng.integers(0, 200, 3)))
        parties.append((f"p{i + 1:02d}", f"Party {i + 1}", color,
                        mean + rng.uniform(-spread, spread)))
    return parties


def _poll_shares(rng, means, noise) -> list[float]:
    """Published percentages, rounded to 0.5, with a named-share sum <= 99.5."""
    shares = []
    for mean in means:
        value = round(2.0 * (mean + rng.normal(0.0, noise * (1.0 if mean > 8 else 0.5)))) / 2
        shares.append(max(0.5, value))
    # Rounding can push the named total past 100%, which parse_polls
    # rejects; take the excess from the largest party.
    excess = sum(shares) - 99.5
    if excess > 0:
        top = int(np.argmax(shares))
        shares[top] -= excess
    return shares


def _csv(parties, rows) -> str:
    header = ["pollster", "date", "n"] + [pid for pid, _, _, _ in parties]
    lines = [",".join(header)]
    for pollster, date, n, shares in rows:
        cells = [pollster, date.isoformat(), str(n)] + [f"{s:g}" for s in shares]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _window_rows(rng, means, as_of, n_polls=8):
    """A fixture-shaped window: n_polls polls within 14 days up to as_of."""
    offsets = sorted(rng.choice(np.arange(1, WINDOW_DAYS), size=n_polls - 1, replace=False))
    days = [int(d) for d in offsets[::-1]] + [0]
    rows = []
    for day in days:
        pollster = POLLSTERS[int(rng.integers(0, 6))]
        n = int(rng.integers(1000, 2600))
        rows.append((pollster, as_of - dt.timedelta(days=day), n, _poll_shares(rng, means, 0.7)))
    return rows


def _campaign_rows(rng, means, start, days=CAMPAIGN_DAYS, n_dates=CAMPAIGN_DATES):
    """A campaign with n_dates distinct poll dates, one per equal segment, so
    consecutive poll dates are never a whole pooling window apart."""
    edges = np.linspace(0, days, n_dates + 1).astype(int)
    offsets = [0] + [int(rng.integers(lo, hi)) for lo, hi in zip(edges[1:-1], edges[2:])]
    offsets[-1] = days - 1
    drift = np.zeros(len(means))
    rows = []
    for offset in offsets:
        drift += rng.normal(0.0, 0.25, len(means))
        mood = np.maximum(1.0, np.asarray(means) + drift)
        for pollster in rng.choice(POLLSTERS, size=int(rng.integers(1, 3)), replace=False):
            n = int(rng.integers(1000, 2600))
            rows.append((str(pollster), start + dt.timedelta(days=offset), n,
                         _poll_shares(rng, mood, 0.6)))
    return rows


def fan_dates(first: dt.date, as_of: dt.date, election: dt.date, grid_days=FAN_GRID_DAYS):
    """The dates a fan chart samples, as the CLI's fan figure lays them out."""
    step = dt.timedelta(days=grid_days)
    dates, d = [], first
    while d < as_of:
        dates.append(d)
        d += step
    dates.append(as_of)
    d = as_of + step
    while d < election:
        dates.append(d)
        d += step
    if election > as_of:
        dates.append(election)
    return tuple(dates)


def build(name: str, seed: int, work: Path, draws: int | None = None) -> Workload:
    """Write the workload's inputs into ``work`` and list its commands.

    ``draws`` overrides the workload's draw count (the self-test uses a
    tiny m); the generated inputs do not depend on it.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    as_of = dt.date(2018, 3, 5) + dt.timedelta(days=int(rng.integers(0, 365)))
    election = None
    if name == "dhondt-k12":
        parties = _k12_parties(rng)
        config = _config_text(parties, "dhondt", 630, K12_COALITIONS)
    else:
        parties = [(pid, pname, color, mean + rng.normal(0.0, 1.0))
                   for pid, pname, color, mean in EXAMPLE_PARTIES]
        config = _config_text(parties, "sainte-lague", 598, EXAMPLE_COALITIONS)
    means = [mean for _, _, _, mean in parties]

    if name == "series-figures":
        rows = _campaign_rows(rng, means, as_of - dt.timedelta(days=CAMPAIGN_DAYS - 1))
    else:
        rows = _window_rows(rng, means, as_of)
    if name in HORIZON_DAYS:
        election = as_of + dt.timedelta(days=HORIZON_DAYS[name])

    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.ini"
    polls_path = work / "polls.csv"
    config_path.write_text(config, encoding="utf-8")
    polls_path.write_text(_csv(parties, rows), encoding="utf-8")

    base = ("--polls", str(polls_path), "--config", str(config_path),
            "--as-of", as_of.isoformat(), "--seed", str(seed))
    series = tuple(sorted({date for _, date, _, _ in rows if date <= as_of}))
    fan = ()
    if name == "nowcast-1e6":
        m = draws or NOWCAST_DRAWS
        commands = (Command("nowcast", ("nowcast", *base, "--draws", str(m), "--workers", "2"),
                            None, m, m),)
    elif name == "dhondt-k12":
        m = draws or NOWCAST_DRAWS
        commands = (Command("forecast", ("forecast", *base, "--draws", str(m), "--workers", "1",
                                         "--election-date", election.isoformat()),
                            None, m, m),)
    else:
        m = draws or SERIES_DRAWS
        fan = fan_dates(series[0], as_of, election)
        per_figure = {
            "poe-timeline": len(series),
            "ridgeline": len(series),
            "fan": len(fan),
            "forecast-ridgeline": 2 * len(series),  # nowcast and forecast ridge per date
        }
        commands = tuple(
            Command(fig,
                    ("plot", *base, "--figure", fig, "--draws", str(m), "--workers", "2",
                     "--election-date", election.isoformat(),
                     "--out", str(work / f"{fig}.svg")),
                    str(work / f"{fig}.svg"), m * per_figure[fig], m)
            for fig in SERIES_FIGURES
        )
    return Workload(name, seed, str(config_path), str(polls_path), as_of, commands, series, fan)


def validate(wl: Workload) -> None:
    """Check the generated inputs with the package's own parsers.

    Raises ValueError (or the package's PollError/ConfigError/NoPollsError)
    when an input would make a command fail instead of measuring it.
    """
    from koalition import cli, polls, pooling

    config = cli.load_config(wl.config_path)
    text = Path(wl.polls_path).read_text(encoding="utf-8")
    parsed = polls.parse_polls(text, config.registry)  # rejects share sums > 100%
    for date in (wl.as_of, *wl.series_dates, *(d for d in wl.fan_dates if d <= wl.as_of)):
        pooling.pool(parsed, config.registry, date,
                     config.pooling.window_days, config.pooling.dependence_factor)
