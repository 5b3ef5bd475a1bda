#!/usr/bin/env python3
"""koalition benchmark: seeded workloads through the real CLI entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client issues the workload's fixed list of CLI commands
back to back (one *batch*), and repeats batches for ``--seconds``. Every
command runs ``koalition.cli.main`` in a fresh child forked after import,
so no module state (such as the simulation cache) carries between
commands, just as between real CLI calls. Every report and SVG is checked
(see check.py) before a batch counts.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced batches and prints the per-layer metrics
(see tracing.py), plus a table of single-layer baselines on the committed
fixture. Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Run it from anywhere; it reads the sources under ``src/`` of
the checkout that contains it and writes only under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# name -> (unit, better); BENCHMARK.json lists exactly these.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "batch_s": ("s", "lower"),
    "draws_per_s": ("draws/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in tracing.LAYERS},
    "bench.unattributed_s": ("s", "lower"),
    "trace.batch_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "polls.parse_polls.s": ("s", "lower"),
    "pooling.pool.s": ("s", "lower"),
    "pooling.pool.calls": ("count", "lower"),
    "posterior.sample_shares.s": ("s", "lower"),
    "posterior.sample_shares.draws": ("draws", "lower"),
    "posterior.sample_shares.rss_delta_mb": ("MB", "lower"),
    "posterior.sample_shares.scaling_w2": ("ratio", "higher"),
    "posterior.draw_amplification": ("ratio", "lower"),
    "electoral.allocate_many.s": ("s", "lower"),
    "electoral.allocate_many.rows": ("rows", "lower"),
    "electoral.allocate_many.rows_per_s": ("rows/s", "higher"),
    "electoral.allocate_many.rss_delta_mb": ("MB", "lower"),
    "engine.run_simulation.self_s": ("s", "lower"),
    "engine.run_simulation.result_mb": ("MB", "lower"),
    "engine.estimate_poe.self_s": ("s", "lower"),
    "engine.seat_distribution.self_s": ("s", "lower"),
    "forecast.fan_chart_data.self_s": ("s", "lower"),
    "viz.render.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.main.rss_delta_mb": ("MB", "lower"),
    "process.cpu_s": ("s", "lower"),
    "process.cpu_util": ("ratio", "higher"),
    **{
        f"baseline.sample_shares.w{w}.m{m}.s": ("s", "lower")
        for m in ("1e5", "1e6") for w in (1, 2)
    },
    **{
        f"baseline.allocate_many.{method}.m{m}.s": ("s", "lower")
        for m in ("1e5", "1e6") for method in ("sainte_lague", "dhondt")
    },
}

# A command still running after this long is killed and counts as failed,
# so a hung program cannot keep the benchmark from finishing.
COMMAND_TIMEOUT_S = 60
BASELINE_REPEATS = 3
MB = 1024 * 1024

SETUP_CODE = """\
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import koalition.cli as cli
from koalition import polls
config = cli.load_config(sys.argv[2])
polls.parse_polls(Path(sys.argv[3]).read_text(encoding="utf-8"), config.registry)
"""


def import_cli():
    """Import koalition.cli from this checkout's sources, and nowhere else."""
    if not (SRC / "koalition" / "cli.py").is_file():
        raise SystemExit(f"bench: no koalition sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import koalition.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "koalition").resolve():
        raise SystemExit(f"bench: imported koalition from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Outcome:
    """One finished command: wall time from fork to reap, and the child's usage."""

    wall_s: float
    code: int
    maxrss_mb: float
    cpu_s: float
    stdout: Path
    stderr: Path


def _child(cli, argv, stdout, stderr, trace_path):
    code = 70
    try:
        for fd, path in ((1, stdout), (2, stderr)):
            handle = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(handle, fd)
            os.close(handle)
        signal.alarm(COMMAND_TIMEOUT_S)
        tracer = None
        if trace_path is not None:
            tracer = tracing.Tracer()
            tracer.install()
        code = cli.main(list(argv))  # looked up after install: the wrapped main
        sys.stdout.flush()
        sys.stderr.flush()
        if tracer is not None:
            tracer.dump(trace_path)
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
        code = 70
    finally:
        os._exit(code)


def run_command(cli, argv, out_dir: Path, label: str, trace_path=None) -> Outcome:
    """Run ``koalition.cli.main(argv)`` in a forked child and reap it."""
    stdout, stderr = out_dir / f"{label}.stdout", out_dir / f"{label}.stderr"
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(cli, argv, stdout, stderr, trace_path)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return Outcome(
        wall_s=wall,
        code=os.waitstatus_to_exitcode(status),
        maxrss_mb=usage.ru_maxrss / 1024,  # KiB on Linux
        cpu_s=usage.ru_utime + usage.ru_stime,
        stdout=stdout,
        stderr=stderr,
    )


def fork_call(fn, out_path: Path, *args) -> dict:
    """Run ``fn(*args)`` in a forked child; it returns a JSON-able dict."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            out_path.write_text(json.dumps(fn(*args)), encoding="utf-8")
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status, _ = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{fn.__name__} failed in its child process")
    return json.loads(out_path.read_text(encoding="utf-8"))


@dataclass
class Batch:
    walls: list[float]
    peak_rss_mb: float
    cpu_s: float
    failures: dict[str, list[str]]  # command label -> problems
    spans: list[list[dict]] | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.walls)


def run_batch(cli, wl, out_dir: Path, digests: dict | None, traced: bool) -> Batch:
    """Issue every command of the workload back to back, then check outputs."""
    outcomes, span_paths = [], []
    for cmd in wl.commands:
        if cmd.out:
            Path(cmd.out).unlink(missing_ok=True)
        span_path = out_dir / f"{cmd.label}.spans.json" if traced else None
        if span_path:
            span_path.unlink(missing_ok=True)
        outcomes.append(run_command(cli, cmd.argv, out_dir, cmd.label, span_path))
        span_paths.append(span_path)
    # Everything below is outside the timed region.
    failures = {}
    for cmd, outcome in zip(wl.commands, outcomes):
        found = []
        if outcome.code != 0:
            found.append(f"exit code {outcome.code}")
        err = outcome.stderr.read_bytes()
        if err:
            found.append("stderr: " + err.decode("utf-8", "replace").strip()[-300:])
        out = Path(cmd.out) if cmd.out else outcome.stdout
        if out.exists():
            expected = digests.get(cmd.label) if digests else None
            found += check.problems(out.read_bytes(), cmd.out is not None, cmd.draws,
                                    wl.seed, expected)
        else:
            found.append(f"no output at {out}")
        if found:
            failures[cmd.label] = found
    spans = None
    if traced:
        spans = [json.loads(p.read_text(encoding="utf-8")) if p.exists() else []
                 for p in span_paths]
    return Batch(
        walls=[o.wall_s for o in outcomes],
        peak_rss_mb=max(o.maxrss_mb for o in outcomes),
        cpu_s=sum(o.cpu_s for o in outcomes),
        failures=failures,
        spans=spans,
    )


def setup_once(wl) -> float:
    """Wall time of a fresh interpreter that imports the CLI and reads the inputs."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), wl.config_path, wl.polls_path],
        check=True, cwd=ROOT, stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def _median_time(fn, repeats=BASELINE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _posterior_at(config_path, polls_path, as_of):
    from koalition import cli, polls, pooling, posterior

    config = cli.load_config(config_path)
    parsed = polls.parse_polls(Path(polls_path).read_text(encoding="utf-8"), config.registry)
    pooled = pooling.pool(parsed, config.registry, as_of,
                          config.pooling.window_days, config.pooling.dependence_factor)
    return config, posterior.posterior_from(pooled, config.registry, config.prior_alpha)


def layer_baselines(wl) -> dict:
    """Single layers on the committed fixture (as-of 2018-03-05, seed 42), and
    ``sample_shares`` scaling from 1 to 2 workers on this workload's posterior.

    A function a later version removes or re-signs ends the table early; the
    entries not reached are left out and reported as absent.
    """
    from koalition import electoral, posterior

    out = {}
    try:
        config, post = _posterior_at(BENCH / "fixture" / "config.ini",
                                     BENCH / "fixture" / "polls.csv", dt.date(2018, 3, 5))
        for label, m in (("1e5", 100_000), ("1e6", 1_000_000)):
            for w in (1, 2):
                out[f"baseline.sample_shares.w{w}.m{label}.s"] = _median_time(
                    lambda: posterior.sample_shares(post, m, 42, workers=w))
            shares = posterior.sample_shares(post, m, 42).draws
            eligible = shares >= config.rules.threshold
            eligible[:, post.parties.index(post.other_id)] = False
            masked = np.where(eligible, shares, 0.0)
            for method in ("sainte-lague", "dhondt"):
                out[f"baseline.allocate_many.{method.replace('-', '_')}.m{label}.s"] = (
                    _median_time(lambda: electoral.allocate_many(
                        masked, config.rules.house_size, method)))
            del shares, eligible, masked

        _, post = _posterior_at(wl.config_path, wl.polls_path, wl.as_of)
        w1 = _median_time(lambda: posterior.sample_shares(post, 1_000_000, wl.seed, workers=1))
        w2 = _median_time(lambda: posterior.sample_shares(post, 1_000_000, wl.seed, workers=2))
        out["posterior.sample_shares.scaling_w2"] = w1 / w2
    except (AttributeError, TypeError) as exc:
        print(f"  baselines stopped early: {exc!r}", flush=True)
    return out


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def span_metrics(spans_per_command, batch_wall: float, draws_needed: int) -> dict:
    """Per-layer metrics from one traced batch.

    Self times of main-thread spans partition each command's ``cli.main``
    span, so the layer self times plus ``bench.unattributed_s`` (fork, exit
    and harness time outside any span) add up to the traced batch time.
    A metric whose function (or layer) produced no span is left out, so
    that a name a later version removes reads as absent, not as 0.
    """
    fns: dict[str, dict] = {}
    layer_self: dict[str, float] = {}
    for spans in spans_per_command:
        for span, self_s in zip(spans, tracing.self_times(spans)):
            f = fns.setdefault(span["name"], {"s": 0.0, "self_s": 0.0, "calls": 0,
                                              "count": 0, "rss": 0, "bytes": 0})
            f["calls"] += 1
            f["s"] += span["t1"] - span["t0"]
            f["count"] += span["count"] or 0
            f["rss"] = max(f["rss"], span["rss_delta"])
            f["bytes"] = max(f["bytes"], span["result_bytes"])
            layer = span["name"].split(".", 1)[0]
            if span["main"]:
                f["self_s"] += self_s
                if layer in tracing.LAYERS:
                    layer_self[layer] = layer_self.get(layer, 0.0) + self_s

    out = {f"layer.{layer}.self_s": s for layer, s in layer_self.items()}
    out["bench.unattributed_s"] = batch_wall - sum(layer_self.values())
    out["trace.batch_s"] = batch_wall
    # metric -> (function whose spans it needs, value from that function's totals)
    from_function = {
        "polls.parse_polls.s": ("polls.parse_polls", lambda f: f["s"]),
        "pooling.pool.s": ("pooling.pool", lambda f: f["s"]),
        "pooling.pool.calls": ("pooling.pool", lambda f: f["calls"]),
        "posterior.sample_shares.s": ("posterior.sample_shares", lambda f: f["s"]),
        "posterior.sample_shares.draws": ("posterior.sample_shares", lambda f: f["count"]),
        "posterior.sample_shares.rss_delta_mb": ("posterior.sample_shares",
                                                 lambda f: f["rss"] / MB),
        "posterior.draw_amplification": ("posterior.sample_shares",
                                         lambda f: _ratio(f["count"], draws_needed)),
        "electoral.allocate_many.s": ("electoral.allocate_many", lambda f: f["s"]),
        "electoral.allocate_many.rows": ("electoral.allocate_many", lambda f: f["count"]),
        "electoral.allocate_many.rows_per_s": ("electoral.allocate_many",
                                               lambda f: _ratio(f["count"], f["s"])),
        "electoral.allocate_many.rss_delta_mb": ("electoral.allocate_many",
                                                 lambda f: f["rss"] / MB),
        "engine.run_simulation.self_s": ("engine.run_simulation", lambda f: f["self_s"]),
        "engine.run_simulation.result_mb": ("engine.run_simulation",
                                            lambda f: f["bytes"] / MB),
        "engine.estimate_poe.self_s": ("engine.estimate_poe", lambda f: f["self_s"]),
        "engine.seat_distribution.self_s": ("engine.seat_distribution",
                                            lambda f: f["self_s"]),
        "forecast.fan_chart_data.self_s": ("forecast.fan_chart_data", lambda f: f["self_s"]),
        "cli.main.self_s": ("cli.main", lambda f: f["self_s"]),
        "cli.main.rss_delta_mb": ("cli.main", lambda f: f["rss"] / MB),
    }
    for metric, (name, value) in from_function.items():
        if name in fns:
            out[metric] = value(fns[name])
    renders = [f["s"] for name, f in fns.items() if name.startswith("viz.render_")]
    if renders:
        out["viz.render.s"] = sum(renders)
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _describe(name, values, unit):
    lo, hi = _quartiles(values)
    return (f"  {name:<24} {statistics.median(values):>14.6g} {unit:<8} "
            f"(n={len(values)}, min={min(values):.6g}, q1={lo:.6g}, q3={hi:.6g}, "
            f"max={max(values):.6g})")


def remove_work(work: Path) -> None:
    """Delete a run's work directory, and the work root once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run still uses it


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the workload seed must be >= 0")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(cli, args, work)
    finally:
        remove_work(work)


def _run(cli, args, work: Path) -> int:
    wl = workloads.build(args.workload, args.seed, work / "inputs")
    workloads.validate(wl)
    digests = check.reference(wl.name, wl.seed)
    out_dir = work / "out"
    out_dir.mkdir()
    draws_needed = sum(c.draws_needed for c in wl.commands)

    print(f"workload {wl.name}  seed {wl.seed}  as-of {wl.as_of}  "
          f"commands {', '.join(c.label for c in wl.commands)}")
    print(f"  inputs: {len(wl.series_dates)} poll dates, draws needed per batch {draws_needed}, "
          f"output check: {'reference digests + invariants' if digests else 'invariants'}")
    print(f"  machine: {json.dumps(machine_info(), sort_keys=True)}")

    if not args.trace:
        setup_once(wl)  # discarded: the first start compiles bytecode and fills the page cache
    setup: list[float] = []
    baseline_mb = tracing.rss_bytes() / MB
    plain: list[Batch] = []
    traced: list[Batch] = []
    start = time.perf_counter()
    if args.trace:
        # Inside the measured time, so a traced run takes as long as an untraced one.
        baselines = fork_call(layer_baselines, work / "baselines.json", wl)
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(run_batch(cli, wl, out_dir, digests, traced=False))
        if args.trace:
            traced.append(run_batch(cli, wl, out_dir, digests, traced=True))
        else:
            # Set-up samples are spread over the run, between batches, so
            # they see the same host conditions as the batches do.
            setup += [setup_once(wl) for _ in wl.commands]

    batches = plain + traced
    attempted = len(batches) * len(wl.commands)
    failed = sum(len(b.failures) for b in batches)
    problems = sorted({f"{label}: {msg}" for b in batches for label, found in b.failures.items()
                       for msg in found})
    for msg in problems[:20]:
        print(f"  FAILED {msg}")

    walls = [b.wall_s for b in plain]
    batch_s = statistics.median(walls)
    print(f"  batch = {len(wl.commands)} commands, closed loop, 1 client; "
          f"each child starts from the parent's post-import RSS of {baseline_mb:.1f} MB")
    for i, cmd in enumerate(wl.commands):
        print(_describe(f"cmd {cmd.label}", [b.walls[i] for b in plain], "s"))

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "batch_s": batch_s,
            "draws_per_s": draws_needed / batch_s,
            "peak_rss_mb": statistics.median(b.peak_rss_mb for b in plain),
        }
        print(_describe("setup_s", setup, "s"))
        print(_describe("batch_s", walls, "s"))
        print(_describe("draws_per_s", [draws_needed / w for w in walls], "draws/s"))
        print(_describe("peak_rss_mb", [b.peak_rss_mb for b in plain], "MB"))
        print(f"  {'error_rate':<24} {failed / attempted:>14.6g} {'ratio':<8} "
              f"(failed {failed} of {attempted} commands)")
        units = END_TO_END
    else:
        # Report the traced batch with the median wall time, so its layer
        # self times add up to its own batch time.
        chosen = sorted(traced, key=lambda b: b.wall_s)[(len(traced) - 1) // 2]
        metrics = span_metrics(chosen.spans, chosen.wall_s, draws_needed)
        metrics["trace.overhead_ratio"] = (
            statistics.median(b.wall_s for b in traced) / batch_s
        )
        cpu = statistics.median(b.cpu_s for b in plain)
        metrics["process.cpu_s"] = cpu
        metrics["process.cpu_util"] = cpu / batch_s
        metrics.update(baselines)
        # The result line must carry every metric, so an absent one is a 0
        # there; the lines above it say which values were not measured.
        absent = [name for name in PER_LAYER if name not in metrics]
        for name in absent:
            metrics[name] = 0.0
        print(f"  traced batches {len(traced)}, untraced batches {len(plain)}")
        for name in PER_LAYER:
            note = "  ABSENT (no span; 0 in the result line)" if name in absent else ""
            print(f"  {name:<42} {metrics[name]:>14.6g} {PER_LAYER[name][0]}{note}")
        print(f"  absent: {', '.join(absent) if absent else 'none'}")
        units = PER_LAYER

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
