"""Command-line front end: config + poll CSV in, JSON reports and SVG out.

Exit codes: 0 success, 1 usage, 2 data error, 3 config error. All errors
go to stderr as a single JSON line. Reports are byte-deterministic for a
given argv and input files: keys are sorted, fractions carry 6 decimals,
and nothing depends on the wall clock or the worker count.
"""

from __future__ import annotations

import argparse
import configparser
import datetime as dt
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import engine, forecast, polls, posterior, viz
from .electoral import ElectionRules
from .engine import EventSpec
from .pooling import NoPollsError, PoolingConfig
from .polls import PartyRegistry, Party, PollError

__all__ = ["Config", "ConfigError", "UsageError", "load_config", "main"]

FIGURES = (
    "classic",
    "poe-bars",
    "density",
    "parliaments",
    "ridgeline",
    "poe-timeline",
    "fan",
    "forecast-ridgeline",
)
ELECTION_FIGURES = ("fan", "forecast-ridgeline")

DEFAULT_SEED = 42
_DRAWS_RANGE = f"[{engine.MIN_DRAWS}, {engine.MAX_DRAWS}]"


class ConfigError(ValueError):
    pass


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class Config:
    registry: PartyRegistry
    rules: ElectionRules
    pooling: PoolingConfig
    prior_alpha: float
    m: int
    tau: float
    coalitions: dict[str, tuple[str, ...]]


def load_config(path: str | Path) -> Config:
    """Read the INI-style run configuration; see docs/config.example.ini."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # party ids are case-sensitive
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None

    if not parser.has_section("parties") or not parser.items("parties"):
        raise ConfigError("config needs a [parties] section with at least one party")
    members = []
    for pid, value in parser.items("parties"):
        try:
            name, color = value.rsplit(",", 1)
        except ValueError:
            raise ConfigError(
                f"party {pid!r}: expected 'Display Name, #RRGGBB'"
            ) from None
        members.append(Party(pid.strip(), name.strip(), color.strip()))
    try:
        # the last [parties] entry is the residual "other" bucket
        registry = PartyRegistry(parties=tuple(members), other_id=members[-1].id)
    except ValueError as exc:
        raise ConfigError(f"bad party registry: {exc}") from None

    def get(section, option, cast, default):
        if parser.has_option(section, option):
            try:
                return cast(parser.get(section, option))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {option}: {exc}") from None
        return default

    try:
        rules = ElectionRules(
            threshold=get("rules", "threshold", float, 0.05),
            house_size=get("rules", "house_size", int, 598),
            method=get("rules", "method", str, "sainte-lague"),
        )
        pool_cfg = PoolingConfig(
            window_days=get("pooling", "window_days", int, 14),
            dependence_factor=get("pooling", "dependence_factor", float, 1.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    prior_alpha = get("posterior", "prior_alpha", float, posterior.DEFAULT_PRIOR_ALPHA)
    # The posterior adds one prior per party, and that sum must be finite too.
    if not (math.isfinite(prior_alpha * len(members)) and prior_alpha > 0):
        raise ConfigError(f"prior_alpha must be finite and > 0, got {prior_alpha}")
    m = get("posterior", "draws", int, posterior.DEFAULT_DRAWS)
    if not engine.MIN_DRAWS <= m <= engine.MAX_DRAWS:
        raise ConfigError(f"[posterior] draws must be in {_DRAWS_RANGE}, got {m}")
    tau = get("forecast", "tau_days", float, forecast.DEFAULT_TAU_DAYS)
    if not (math.isfinite(tau) and tau > 0):
        raise ConfigError(f"tau_days must be finite and > 0, got {tau}")

    coalitions = {}
    if parser.has_section("coalitions"):
        for name, value in parser.items("coalitions"):
            ids = tuple(x.strip() for x in value.split(",") if x.strip())
            unknown = [pid for pid in ids if pid not in registry.ids]
            if unknown:
                raise ConfigError(
                    f"coalition {name!r} names unknown part{'ies' if len(unknown) > 1 else 'y'}: "
                    + ", ".join(unknown)
                )
            if not ids:
                raise ConfigError(f"coalition {name!r} is empty")
            if len(set(ids)) != len(ids):
                raise ConfigError(f"coalition {name!r} names a party twice")
            coalitions[name] = ids
    if not coalitions:
        raise ConfigError("config needs a [coalitions] section with at least one entry")

    return Config(
        registry=registry,
        rules=rules,
        pooling=pool_cfg,
        prior_alpha=prior_alpha,
        m=m,
        tau=tau,
        coalitions=coalitions,
    )


def _round_floats(obj, digits=6):
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _write(out: str, text: str) -> None:
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write output {out}: {exc}") from None


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(_round_floats(report), sort_keys=True, indent=2) + "\n"
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _parse_date(value: str, flag: str) -> dt.date:
    try:
        return dt.date.fromisoformat(value)
    except ValueError:
        raise UsageError(f"{flag} expects an ISO date, got {value!r}") from None


def _load_inputs(args) -> tuple[Config, list[polls.Poll]]:
    config = load_config(args.config)
    try:
        try:
            text = Path(args.polls).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise PollError(f"cannot read polls file {args.polls}: {exc}") from None
        return config, polls.parse_polls(text, config.registry)
    except PollError as exc:
        exc.file = args.polls  # error payloads report file and line
        raise


def _resolve_as_of(args, poll_list) -> dt.date:
    return args.as_of or max(p.publish_date for p in poll_list)


def _posterior_at(config, poll_list, date) -> posterior.DirichletPosterior:
    return posterior.posterior_at(
        poll_list, config.registry, date, config.pooling, config.prior_alpha
    )


def _forecast_at(config, poll_list, date, election) -> posterior.DirichletPosterior:
    """The date's nowcast posterior inflated over the days left to election."""
    nowcast = _posterior_at(config, poll_list, date)
    spec = forecast.ForecastSpec(election_date=election, as_of=date, tau=config.tau)
    return forecast.inflate(nowcast, spec, config.prior_alpha)


def _report(config, args, post, as_of) -> dict:
    """The fields nowcast and forecast reports share, from one streamed pass.

    The diagnostics describe the pooled sample behind post, which an
    inflated forecast posterior keeps from its nowcast.
    """
    m = args.draws or config.m
    names = sorted(config.coalitions)
    events = [EventSpec("coalition-majority", config.coalitions[n]) for n in names]
    summary = engine.estimate_poe(
        post, config.rules, events, m, args.seed, args.workers, bands=True
    )
    pooled = post.source
    means = post.mean()
    return {
        "as_of": as_of.isoformat(),
        "coalitions": {
            name: {
                "members": list(config.coalitions[name]),
                "probability": result.probability,
                "subset_probability": result.subset_probability,
                "mc_stderr": result.mc_stderr,
            }
            for name, result in zip(names, summary.events)
        },
        "diagnostics": {
            "dependence_factor": config.pooling.dependence_factor,
            "hung_fraction": summary.hung_fraction,
            "n_eff": pooled.n_eff,
            "polls_used": [[p, d.isoformat()] for p, d in pooled.polls_used],
            "window_days": pooled.window_days,
        },
        "m": m,
        "parties": {
            pid: {"mean": means[pid], "ci95": list(summary.bands[pid])}
            for pid in post.parties
        },
        "seed": args.seed,
    }


def _cmd_nowcast(args) -> int:
    config, poll_list = _load_inputs(args)
    as_of = _resolve_as_of(args, poll_list)
    post = _posterior_at(config, poll_list, as_of)
    _emit(_report(config, args, post, as_of), args.out)
    return 0


def _cmd_forecast(args) -> int:
    config, poll_list = _load_inputs(args)
    as_of = _resolve_as_of(args, poll_list)
    election = args.election_date
    spec = forecast.ForecastSpec(election_date=election, as_of=as_of, tau=config.tau)
    post = _posterior_at(config, poll_list, as_of)
    inflated = forecast.inflate(post, spec, config.prior_alpha)
    report = _report(config, args, inflated, as_of)
    report.update(
        election_date=election.isoformat(),
        horizon_days=spec.horizon_days,
        shrink_factor=forecast.shrink_factor(spec.horizon_days, spec.tau),
        tau_days=spec.tau,
    )
    _emit(report, args.out)
    return 0


def _cmd_parliaments(args) -> int:
    config, poll_list = _load_inputs(args)
    as_of = _resolve_as_of(args, poll_list)
    post = _posterior_at(config, poll_list, as_of)
    pooled = post.source
    allocs = engine.sample_parliaments(post, config.rules, args.k, args.seed)
    report = {
        "as_of": as_of.isoformat(),
        "house_size": config.rules.house_size,
        "k": args.k,
        "n_eff": pooled.n_eff,
        "window_days": pooled.window_days,
        "parliaments": [
            {
                "eligible": sorted(a.eligible),
                "hung": a.hung,
                "seats": a.seats,
            }
            for a in allocs
        ],
        "seed": args.seed,
    }
    _emit(report, args.out)
    return 0


def _series_dates(poll_list, as_of) -> list[dt.date]:
    return sorted({p.publish_date for p in poll_list if p.publish_date <= as_of})


def _pick_coalition(args, config) -> tuple[str, tuple[str, ...]]:
    if args.coalition:
        if args.coalition not in config.coalitions:
            raise ConfigError(f"coalition {args.coalition!r} not found in config")
        return args.coalition, config.coalitions[args.coalition]
    name = sorted(config.coalitions)[0]
    return name, config.coalitions[name]


def _cmd_plot(args) -> int:
    config, poll_list = _load_inputs(args)
    as_of = _resolve_as_of(args, poll_list)
    m = args.draws or config.m
    seed = args.seed
    workers = args.workers
    theme = viz.theme_for(config.registry)
    _, coalition = _pick_coalition(args, config)
    election = args.election_date
    nowcast_at = functools.partial(_posterior_at, config, poll_list)

    if args.figure == "classic":
        latest = max(
            (p for p in poll_list if p.publish_date <= as_of),
            key=lambda p: (p.publish_date, p.pollster),
            default=None,
        )
        if latest is None:
            raise NoPollsError(as_of, config.pooling.window_days)
        svg = viz.render_classic_bars(latest, theme, as_of=as_of)
    elif args.figure == "poe-bars":
        post = nowcast_at(as_of)
        labels = sorted(config.coalitions)
        coalitions = [config.coalitions[name] for name in labels]
        events = [EventSpec("coalition-majority", ids) for ids in coalitions]
        summary = engine.estimate_poe(post, config.rules, events, m, seed, workers)
        results = list(zip(coalitions, summary.events))
        svg = viz.render_poe_bars(
            results, theme, means=post.mean(), labels=labels, seed=seed, m=m, as_of=as_of
        )
    elif args.figure == "density":
        dist = engine.seat_distribution(
            nowcast_at(as_of), config.rules, coalition, m, seed, workers=workers
        )
        svg = viz.render_seat_density(dist, theme, seed=seed, m=m, as_of=as_of)
    elif args.figure == "parliaments":
        allocs = engine.sample_parliaments(nowcast_at(as_of), config.rules, args.k, seed)
        svg = viz.render_parliaments(
            allocs, coalition, config.registry, theme, seed=seed, m=args.k, as_of=as_of
        )
    elif args.figure in ("ridgeline", "forecast-ridgeline"):
        dates = _series_dates(poll_list, as_of)

        def density(post):
            return engine.seat_distribution(post, config.rules, coalition, m, seed, workers)

        ridges, _ = engine.per_date(dates, nowcast_at, density)
        if args.figure == "ridgeline":
            svg = viz.render_ridgeline(ridges, theme, seed=seed, m=m, as_of=as_of)
        else:
            ahead, _ = engine.per_date(
                dates, lambda date: _forecast_at(config, poll_list, date, election), density
            )
            svg = viz.render_forecast_ridgeline(
                ridges, ahead, theme, seed=seed, m=m, as_of=as_of
            )
    elif args.figure == "poe-timeline":
        event = EventSpec("coalition-majority", coalition)
        points, _ = engine.per_date(
            _series_dates(poll_list, as_of), nowcast_at,
            lambda post: engine.estimate_poe(post, config.rules, event, m, seed, workers),
        )
        svg = viz.render_poe_timeline(points, theme, seed=seed, m=m, as_of=as_of)
    else:  # fan: argparse refuses every figure not in FIGURES
        spec = forecast.ForecastSpec(election_date=election, as_of=as_of, tau=config.tau)
        fan = forecast.fan_chart_data(
            poll_list, config.registry, spec, config.pooling, config.prior_alpha,
            args.grid_days, m, seed, workers,
        )
        svg = viz.render_fan_chart(
            fan, poll_list, as_of, spec.election_date, theme, seed=seed, m=m
        )
    _write(args.out, svg)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="koalition", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--polls", required=True, help="poll CSV file")
        p.add_argument("--config", required=True, help="run configuration (INI)")
        p.add_argument("--as-of", dest="as_of", help="ISO date; default: newest poll")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--draws", type=int, help="Monte-Carlo draws; default from config")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", help="output path; default stdout (reports only)")

    now = sub.add_parser("nowcast", help="coalition PoE report from current polls")
    common(now)
    now.set_defaults(func=_cmd_nowcast)

    fc = sub.add_parser("forecast", help="election-day report with inflated uncertainty")
    common(fc)
    fc.add_argument("--election-date", dest="election_date")
    fc.set_defaults(func=_cmd_forecast)

    parl = sub.add_parser("parliaments", help="sample whole parliaments")
    common(parl)
    parl.add_argument("--k", type=int, default=6)
    parl.set_defaults(func=_cmd_parliaments)

    plot = sub.add_parser("plot", help="render a figure as SVG")
    common(plot)
    plot.add_argument("--figure", required=True, choices=FIGURES)
    plot.add_argument("--coalition", help="configured coalition name; default: first")
    plot.add_argument("--election-date", dest="election_date")
    plot.add_argument("--k", type=int, default=6, help="parliaments to draw")
    plot.add_argument("--grid-days", dest="grid_days", type=int, default=7)
    plot.set_defaults(func=_cmd_plot)
    return parser


def _fail(code: int, kind: str, exc: Exception) -> int:
    payload = {"error": kind, "message": str(exc)}
    for key in ("file", "line"):
        value = getattr(exc, key, None)
        if value is not None:
            payload[key] = value
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def _check_args(args) -> None:
    if not 0 <= args.seed < posterior.SEED_BOUND:
        raise UsageError(f"--seed must be in [0, 2^64), got {args.seed}")
    if args.draws is not None and not engine.MIN_DRAWS <= args.draws <= engine.MAX_DRAWS:
        raise UsageError(f"--draws must be in {_DRAWS_RANGE}, got {args.draws}")
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    if not 1 <= getattr(args, "k", 1) <= engine.MAX_PARLIAMENTS:
        raise UsageError(f"--k must be in [1, {engine.MAX_PARLIAMENTS}], got {args.k}")
    if getattr(args, "grid_days", 1) < 1:
        raise UsageError(f"--grid-days must be >= 1, got {args.grid_days}")
    # Everything argv alone decides, checked before any input is read or
    # drawn. The dates are parsed here, once, into dt.date values.
    if args.command == "plot" and not args.out:
        raise UsageError("plot requires --out")
    figure = getattr(args, "figure", None)
    if args.command == "forecast" or figure in ELECTION_FIGURES:
        if not args.election_date:
            needs = "forecast" if figure is None else f"figure {figure!r}"
            raise UsageError(f"{needs} requires --election-date")
        args.election_date = _parse_date(args.election_date, "--election-date")
    if args.as_of:
        args.as_of = _parse_date(args.as_of, "--as-of")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
        return args.func(args)
    except UsageError as exc:
        return _fail(1, "usage", exc)
    except (PollError, NoPollsError) as exc:
        return _fail(2, "data", exc)
    except ConfigError as exc:
        return _fail(3, "config", exc)
    except ValueError as exc:
        return _fail(2, "data", exc)
    except MemoryError:
        # Arrays sized by the draw count (a seat share per draw, the band
        # brackets) are made before any block is sampled, so a count too
        # large for memory fails here without touching it. The count came
        # from --draws or else from the config.
        if args.draws is None:
            code, kind, source = 3, "config", "[posterior] draws"
        else:
            code, kind, source = 1, "usage", "--draws"
        return _fail(code, kind, MemoryError(
            f"{source} is too large: the simulation's arrays do not fit in memory"
        ))


if __name__ == "__main__":
    sys.exit(main())
