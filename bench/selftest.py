#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny m (a few seconds).

    python3 bench/selftest.py

Checks that generated inputs parse, that the output check flags one
flipped byte, that self-time arithmetic is right on synthetic nested
spans, that a traced command's layer self times add up to its wall time,
that a deleted package function is skipped rather than an error, and that
BENCHMARK.json lists exactly the metrics run.py reports.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run

check, tracing, workloads = run.check, run.tracing, run.workloads

TINY_M = 2000


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_inputs_parse(work):
    for name in workloads.NAMES:
        for seed in range(8):
            wl = workloads.build(name, seed, work / f"{name}-{seed}")
            workloads.validate(wl)
            again = workloads.build(name, seed, work / f"{name}-{seed}-again")
            for a, b in ((wl.polls_path, again.polls_path), (wl.config_path, again.config_path)):
                expect(open(a).read() == open(b).read(), f"{name} seed {seed}: inputs not seeded")
        wl = workloads.build(name, 0, work / f"{name}-tiny", draws=TINY_M)
        expect(all(c.draws == TINY_M for c in wl.commands), f"{name}: draws override ignored")


def test_flipped_byte_is_flagged(cli, work):
    for name in workloads.NAMES:
        wl = workloads.build(name, 3, work / f"{name}-flip", draws=TINY_M)
        out_dir = work / f"{name}-flip" / "out"
        out_dir.mkdir()
        batch = run.run_batch(cli, wl, out_dir, None, traced=False)
        expect(not batch.failures, f"{name}: tiny batch failed: {batch.failures}")
        cmd = wl.commands[-1]
        path = cmd.out or str(out_dir / f"{cmd.label}.stdout")
        data = open(path, "rb").read()
        digest = check.sha256(data)
        is_svg = cmd.out is not None
        expect(check.problems(data, is_svg, cmd.draws, wl.seed, digest) == [],
               f"{name}: clean output flagged")
        flipped = bytearray(data)
        flipped[len(flipped) // 2] ^= 0x01
        expect(check.problems(bytes(flipped), is_svg, cmd.draws, wl.seed, digest),
               f"{name}: one flipped byte not flagged")
    report = {"m": 5, "seed": 1, "coalitions": {"x": {"probability": 0.2,
                                                       "subset_probability": 0.3}},
              "parties": {"a": {"ci95": [0.4, 0.3]}}}
    found = check.report_problems(json.dumps(report).encode(), 5, 1)
    expect(len(found) == 2, f"broken report invariants not all flagged: {found}")
    expect(check.svg_problems(b"<svg><g></svg>"), "malformed SVG not flagged")


def _span(name, parent, t0, t1):
    return {"name": name, "parent": parent, "t0": t0, "t1": t1, "rss_delta": 0,
            "result_bytes": 0, "count": None, "main": True}


def test_self_times():
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("engine.run_simulation", 0, 1.0, 6.0),
        _span("posterior.sample_shares", 1, 1.5, 3.0),
        _span("electoral.allocate_many", 1, 3.0, 5.5),
        _span("viz.render_fan_chart", 0, 7.0, 9.0),
        _span("pooling.pool", 0, 9.0, 9.5),
    ]
    got = tracing.self_times(spans)
    want = [10.0 - 5.0 - 2.0 - 0.5, 5.0 - 1.5 - 2.5, 1.5, 2.5, 2.0, 0.5]
    expect(all(math.isclose(g, w) for g, w in zip(got, want)), f"self times {got} != {want}")
    metrics = run.span_metrics([spans], 12.0, 1)
    layers = sum(metrics.get(f"layer.{layer}.self_s", 0.0) for layer in tracing.LAYERS)
    expect(math.isclose(layers + metrics["bench.unattributed_s"], 12.0), "layers do not add up")
    expect(math.isclose(metrics["bench.unattributed_s"], 2.0), "unattributed time wrong")
    empty = run.span_metrics([[]], 1.0, 1)
    expect("engine.run_simulation.self_s" not in empty and "layer.engine.self_s" not in empty,
           "a function or layer without spans must be absent, not 0")


def test_traced_command_adds_up(cli, work):
    wl = workloads.build("nowcast-1e6", 5, work / "traced", draws=TINY_M)
    out_dir = work / "traced" / "out"
    out_dir.mkdir()
    batch = run.run_batch(cli, wl, out_dir, None, traced=True)
    expect(not batch.failures, f"traced batch failed: {batch.failures}")
    spans = batch.spans[0]
    roots = [s for s in spans if s["parent"] < 0]
    expect([s["name"] for s in roots] == ["cli.main"], f"roots {[s['name'] for s in roots]}")
    names = {s["name"] for s in spans}
    for name in ("engine.run_simulation", "posterior.sample_shares", "electoral.allocate_many",
                 "pooling.pool", "polls.parse_polls", "engine.estimate_poe"):
        expect(name in names, f"no span for {name}")
    metrics = run.span_metrics(batch.spans, batch.wall_s, TINY_M)
    expect(metrics["posterior.draw_amplification"] == 1.0, "nowcast draws more than it needs")
    expect(0 < metrics["bench.unattributed_s"] < batch.wall_s, "unattributed time out of range")


def _without(module, name, wl):
    import importlib

    delattr(importlib.import_module(f"koalition.{module}"), name)
    return {"wrapped": tracing.Tracer().install(), "baselines": run.layer_baselines(wl)}


def test_deleted_name_is_no_error(work):
    wl = workloads.build("nowcast-1e6", 5, work / "deleted")
    got = run.fork_call(_without, work / "deleted" / "out.json", "electoral", "allocate_many", wl)
    expect(got["wrapped"] > 0, "nothing wrapped")
    expect("baseline.sample_shares.w1.m1e5.s" in got["baselines"], "baselines did not start")
    expect(not any(k.startswith("baseline.allocate_many") for k in got["baselines"]),
           "a deleted function was timed")


def test_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        expect(listed == table, f"BENCHMARK.json {key} differs from run.py")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json workloads differ from workloads.py")


def main() -> int:
    cli = run.import_cli()
    work = run.WORK_ROOT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        test_inputs_parse(work)
        test_flipped_byte_is_flagged(cli, work)
        test_self_times()
        test_traced_command_adds_up(cli, work)
        test_deleted_name_is_no_error(work)
        test_benchmark_json()
    finally:
        run.remove_work(work)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
