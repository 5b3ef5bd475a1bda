import json
import os
import xml.etree.ElementTree as ET
from concurrent.futures import Future
from pathlib import Path

import pytest

from koalition import engine, forecast, posterior
from koalition.cli import FIGURES, load_config, main
from koalition.electoral import MAX_HOUSE_SIZE

FIXTURES = Path(__file__).parent / "fixtures"
POLLS = str(FIXTURES / "polls.csv")
CONFIG = str(FIXTURES / "config.ini")

BASE = ["--polls", POLLS, "--config", CONFIG, "--as-of", "2018-03-05", "--seed", "42"]


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_load_config_round_trip():
    config = load_config(CONFIG)
    assert config.registry.ids == (
        "union", "spd", "gruene", "fdp", "linke", "afd", "other"
    )
    assert config.registry.other_id == "other"
    assert config.rules.house_size == 598
    assert config.pooling.window_days == 14
    assert config.coalitions["grand"] == ("union", "spd")
    assert config.m == 100_000


def test_committed_schema_example_loads_identically():
    example = Path(__file__).parent.parent / "docs" / "config.example.ini"
    assert load_config(example) == load_config(CONFIG)


def test_nowcast_deterministic_and_sorted(capsys):
    code, out1, _ = run(capsys, "nowcast", *BASE, "--draws", "5000")
    assert code == 0
    code, out2, _ = run(capsys, "nowcast", *BASE, "--draws", "5000")
    assert out1 == out2
    report = json.loads(out1)
    assert list(report) == sorted(report)
    assert report["seed"] == 42
    assert report["m"] == 5000
    assert report["as_of"] == "2018-03-05"
    assert set(report["coalitions"]) == {"ampel", "grand", "jamaika", "rrg"}
    for block in report["coalitions"].values():
        assert 0.0 <= block["subset_probability"] <= block["probability"] <= 1.0
    assert report["diagnostics"]["window_days"] == 14
    assert len(report["diagnostics"]["polls_used"]) == 5  # newest per pollster
    for party_block in report["parties"].values():
        lo, hi = party_block["ci95"]
        assert lo <= party_block["mean"] <= hi


def test_nowcast_workers_do_not_change_bytes(capsys):
    code, out1, _ = run(capsys, "nowcast", *BASE, "--draws", "20000", "--workers", "1")
    code, out4, _ = run(capsys, "nowcast", *BASE, "--draws", "20000", "--workers", "4")
    assert out1 == out4


def test_missing_required_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "nowcast", "--config", CONFIG)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "usage"


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "predict")
    assert code == 1
    assert json.loads(err)["error"] == "usage"


def test_bad_csv_is_data_error_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "pollster,date,n,union,spd,gruene,fdp,linke,afd\n"
        "A,2018-03-05,100,30,20,10,10,10,10\n"
        "B,not-a-date,100,30,20,10,10,10,10\n"
    )
    code, _, err = run(capsys, "nowcast", "--polls", str(bad), "--config", CONFIG)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "data"
    assert payload["line"] == 3
    assert payload["file"] == str(bad)


def test_unknown_coalition_member_is_config_error(tmp_path, capsys):
    text = Path(CONFIG).read_text().replace(
        "grand = union, spd", "grand = union, pirates"
    )
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    code, _, err = run(capsys, "nowcast", "--polls", POLLS, "--config", str(cfg))
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert "grand" in payload["message"] and "pirates" in payload["message"]


@pytest.mark.parametrize("argv", [
    ["nowcast"],
    ["plot", "--figure", "poe-bars"],
    ["plot", "--figure", "density", "--coalition", "grand"],
])
def test_coalition_naming_a_party_twice_is_config_error(tmp_path, capsys, argv):
    text = Path(CONFIG).read_text().replace(
        "grand = union, spd", "grand = union, spd, union"
    )
    cfg = tmp_path / "twice.ini"
    cfg.write_text(text)
    command, *rest = argv
    out_path = tmp_path / "out.svg"
    code, out, err = run(capsys, command, "--polls", POLLS, "--config", str(cfg),
                         "--draws", "2000", *rest, "--out", str(out_path))
    assert code == 3
    assert out == "" and not out_path.exists()
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert "grand" in payload["message"] and "twice" in payload["message"]


def test_empty_window_is_data_error(capsys):
    code, _, err = run(
        capsys, "nowcast", "--polls", POLLS, "--config", CONFIG,
        "--as-of", "2019-01-01",
    )
    assert code == 2
    assert json.loads(err)["error"] == "data"


def test_as_of_defaults_to_newest_poll(capsys):
    code, out, _ = run(capsys, "nowcast", "--polls", POLLS, "--config", CONFIG,
                       "--draws", "2000")
    assert code == 0
    assert json.loads(out)["as_of"] == "2018-03-05"


def test_forecast_report_fields(capsys):
    code, out, _ = run(
        capsys, "forecast", *BASE, "--draws", "5000",
        "--election-date", "2018-06-03",
    )
    assert code == 0
    report = json.loads(out)
    assert report["election_date"] == "2018-06-03"
    assert report["horizon_days"] == 90
    assert report["tau_days"] == 60.0
    assert report["shrink_factor"] == 0.4
    assert set(report["coalitions"]) == {"ampel", "grand", "jamaika", "rrg"}


def test_forecast_requires_election_date(capsys):
    code, _, err = run(capsys, "forecast", *BASE)
    assert code == 1
    assert json.loads(err)["error"] == "usage"


def test_parliaments_report(capsys):
    code, out, _ = run(capsys, "parliaments", *BASE, "--k", "6")
    assert code == 0
    report = json.loads(out)
    assert report["k"] == 6
    assert len(report["parliaments"]) == 6
    for parliament in report["parliaments"]:
        assert sum(parliament["seats"].values()) == report["house_size"]
        assert not parliament["hung"]


@pytest.mark.parametrize("figure", FIGURES)
def test_plot_each_figure(tmp_path, capsys, figure):
    out_path = tmp_path / f"{figure}.svg"
    argv = ["plot", *BASE, "--draws", "2000", "--figure", figure,
            "--out", str(out_path)]
    if figure in ("fan", "forecast-ridgeline"):
        argv += ["--election-date", "2018-05-20"]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    svg = out_path.read_text()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "<!-- koalition seed=" in svg


def test_plot_requires_out(capsys):
    code, _, err = run(capsys, "plot", *BASE, "--figure", "classic")
    assert code == 1
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("figure, extra, message", [
    ("density", ["--draws", "2000000"], "plot requires --out"),
    ("fan", ["--out", "fan.svg"], "figure 'fan' requires --election-date"),
    ("forecast-ridgeline", ["--out", "ridges.svg"],
     "figure 'forecast-ridgeline' requires --election-date"),
])
def test_plot_usage_errors_come_before_any_simulation(
    monkeypatch, tmp_path, capsys, figure, extra, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before the arguments were checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(engine, "run_simulation", refuse)
    monkeypatch.setattr(engine, "share_bands", refuse)
    monkeypatch.setattr(forecast, "share_bands", refuse)
    code, _, err = run(capsys, "plot", *BASE, "--figure", figure, *extra)
    assert code == 1
    assert json.loads(err) == {"error": "usage", "message": message}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["forecast"], "forecast requires --election-date"),
    (["nowcast", "--as-of", "2018-13-01"], "--as-of expects an ISO date, got '2018-13-01'"),
    (["forecast", "--election-date", "20 May 2018"],
     "--election-date expects an ISO date, got '20 May 2018'"),
    (["plot", "--figure", "fan", "--out", "fan.svg", "--election-date", "2018-05-32"],
     "--election-date expects an ISO date, got '2018-05-32'"),
])
def test_argv_usage_errors_come_before_reading_the_config(
    monkeypatch, tmp_path, capsys, argv, message
):
    # The config cannot be read, so only a check made on argv alone can
    # answer with a usage error.
    monkeypatch.chdir(tmp_path)
    command, *rest = argv
    code, _, err = run(capsys, command, "--polls", POLLS,
                       "--config", str(tmp_path / "nonexistent.ini"), *rest)
    assert code == 1
    assert json.loads(err) == {"error": "usage", "message": message}
    assert list(tmp_path.iterdir()) == []


def test_plot_unknown_coalition_name_is_config_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "plot", *BASE, "--figure", "density", "--coalition", "traffic",
        "--out", str(tmp_path / "x.svg"),
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert "traffic" in payload["message"]


def test_plot_svg_bytes_stable_across_workers(tmp_path, capsys):
    outs = []
    for workers in ("1", "3"):
        path = tmp_path / f"density-{workers}.svg"
        code, _, _ = run(
            capsys, "plot", *BASE, "--draws", "20000", "--figure", "density",
            "--workers", workers, "--out", str(path),
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_report_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "nowcast", *BASE, "--draws", "2000",
                     "--out", str(out_path))
    assert code == 0
    code, stdout, _ = run(capsys, "nowcast", *BASE, "--draws", "2000")
    assert out_path.read_text() == stdout


def test_out_into_missing_directory_is_one_json_line(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "nowcast", *BASE, "--draws", "2000",
                         "--out", str(target))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "usage"
    assert str(target) in payload["message"]


@pytest.mark.parametrize(
    "flag, value",
    [("--draws", "999"), ("--draws", "0"), ("--workers", "0"), ("--workers", "-3"),
     ("--seed", "-1"), ("--seed", str(2**64))],
)
def test_out_of_range_arguments_are_usage_errors(capsys, flag, value):
    code, out, err = run(capsys, "nowcast", *BASE, flag, value)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize(
    "argv",
    [("parliaments", "--k", "0"),
     ("plot", "--figure", "fan", "--election-date", "2018-05-20", "--grid-days", "0")],
)
def test_nonpositive_counts_are_usage_errors(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, *BASE, "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "usage"
    assert not (tmp_path / "out").exists()


def test_config_draws_below_minimum_is_config_error(tmp_path, capsys):
    # Above engine.MAX_DRAWS is refused the same way, whatever the host.
    text = Path(CONFIG).read_text()
    assert "draws = 100000" in text
    for draws in (999, 10**15):
        cfg = tmp_path / "draws.ini"
        cfg.write_text(text.replace("draws = 100000", f"draws = {draws}"))
        code, out, err = run(capsys, "nowcast", "--polls", POLLS, "--config", str(cfg))
        assert code == 3
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "config"
        assert "[posterior] draws" in payload["message"]


def test_impossible_draw_count_is_one_json_line(tmp_path, capsys):
    # Above engine.MAX_DRAWS: refused with the other argv checks, before
    # any input is read or any array made, so the refusal does not depend
    # on how much memory the host would grant.
    for argv in (("nowcast", "--draws", str(10**15)),
                 ("nowcast", "--draws", str(10**41)),
                 ("plot", "--figure", "density", "--draws", str(10**20),
                  "--out", str(tmp_path / "density.svg"))):
        code, out, err = run(capsys, *argv, *BASE)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "usage"
        assert "--draws" in payload["message"]
    assert not (tmp_path / "density.svg").exists()


def test_draws_too_large_for_memory_name_their_source(monkeypatch, tmp_path, capsys):
    # A count within the bound can still be too large for this host's
    # memory; the error names where the count came from.
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(engine, "seat_distribution", refuse)
    argv = ("plot", "--figure", "density", "--out", str(tmp_path / "density.svg"), *BASE)
    for draws, code, kind, source in (((), 3, "config", "[posterior] draws"),
                                      (("--draws", "2000"), 1, "usage", "--draws")):
        got, out, err = run(capsys, *argv, *draws)
        assert got == code
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == kind
        assert payload["message"].startswith(f"{source} is too large")


def test_huge_worker_count_is_capped(monkeypatch, capsys):
    requested = []

    class SerialExecutor:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(posterior, "ThreadPoolExecutor", SerialExecutor)
    monkeypatch.setattr(posterior, "_POOLS", {})  # no pool made by an earlier test
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, _ = run(capsys, "nowcast", *BASE, "--draws", "5000",
                       "--workers", "100000")
    assert code == 0
    assert requested == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, serial, _ = run(capsys, "nowcast", *BASE, "--draws", "5000",
                          "--workers", "100000")
    assert requested == [2]  # one CPU: sampled serially, no pool at all
    assert serial == out


@pytest.mark.parametrize(
    "old, new",
    [("prior_alpha = 0.5", "prior_alpha = nan"),
     ("prior_alpha = 0.5", "prior_alpha = inf"),
     ("tau_days = 60", "tau_days = nan"),
     ("tau_days = 60", "tau_days = inf")],
)
def test_non_finite_config_value_is_config_error(tmp_path, capsys, old, new):
    text = Path(CONFIG).read_text()
    assert old in text
    cfg = tmp_path / "non-finite.ini"
    cfg.write_text(text.replace(old, new))
    code, out, err = run(capsys, "forecast", "--polls", POLLS, "--config", str(cfg),
                         "--as-of", "2018-03-05", "--election-date", "2018-06-03")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize(
    "argv",
    [("parliaments",), ("plot", "--figure", "parliaments")],
)
def test_impossible_parliament_count_names_k(tmp_path, capsys, argv):
    # Above engine.MAX_PARLIAMENTS: refused before any input is read.
    for k in (engine.MAX_PARLIAMENTS + 1, 10**15, 10**20):
        code, out, err = run(capsys, *argv, *BASE, "--k", str(k),
                             "--out", str(tmp_path / "out"))
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "usage"
        assert "--k" in payload["message"]
        assert "--draws" not in payload["message"]
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.ini"
    cfg.write_bytes(Path(CONFIG).read_bytes() + "# Gr\u00fcne\n".encode("latin-1"))
    code, out, err = run(capsys, "nowcast", "--polls", POLLS, "--config", str(cfg))
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert "cannot read config" in payload["message"]


def test_polls_file_that_is_not_utf8_is_data_error_with_file(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(Path(POLLS).read_bytes() + "Forsa Gr\u00fcn,".encode("latin-1"))
    code, out, err = run(capsys, "nowcast", "--polls", str(bad), "--config", CONFIG)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "data"
    assert payload["file"] == str(bad)


def test_nowcast_samples_each_block_once(monkeypatch, capsys):
    calls = []
    gamma_block = posterior._gamma_block

    def counting(stream, alpha, block):
        calls.append((int(stream.key[0]), int(stream.key[1]), block))
        return gamma_block(stream, alpha, block)

    monkeypatch.setattr(posterior, "_gamma_block", counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, _, _ = run(capsys, "nowcast", *BASE, "--draws", str(3 * 4096 + 5),
                     "--workers", "2")
    assert code == 0
    parties = load_config(CONFIG).registry.ids
    assert sorted(calls) == sorted(
        (42, posterior._party_key(p), b) for p in parties for b in range(4)
    )


def test_house_size_beyond_int16_bound_is_config_error(tmp_path, capsys):
    text = Path(CONFIG).read_text()
    assert "house_size = 598" in text
    for house, code_wanted in ((MAX_HOUSE_SIZE, 0), (MAX_HOUSE_SIZE + 1, 3)):
        cfg = tmp_path / f"house-{house}.ini"
        cfg.write_text(text.replace("house_size = 598", f"house_size = {house}"))
        code, _, err = run(capsys, "parliaments", "--polls", POLLS, "--config",
                           str(cfg), "--as-of", "2018-03-05", "--k", "2")
        assert code == code_wanted, err
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("grid_days", ["3000000", "100000000000000000000"])
def test_fan_grid_step_past_the_last_date(tmp_path, capsys, grid_days):
    # One step beyond year 9999 ends the grid; it does not overflow.
    code, _, err = run(capsys, "plot", *BASE, "--figure", "fan", "--draws", "1000",
                       "--election-date", "2018-06-03", "--grid-days", grid_days,
                       "--out", str(tmp_path / "fan.svg"))
    assert code == 0, err


def test_fan_at_the_last_representable_date(tmp_path, capsys):
    polls = tmp_path / "late.csv"
    polls.write_text("pollster,date,n,union,spd,gruene,fdp,linke,afd\n"
                     "A,9999-12-30,1000,32,17,12,10,10,13\n")
    code, _, err = run(capsys, "plot", "--polls", str(polls), "--config", CONFIG,
                       "--figure", "fan", "--draws", "1000", "--as-of", "9999-12-31",
                       "--election-date", "9999-12-31", "--out", str(tmp_path / "fan.svg"))
    assert code == 0, err


@pytest.mark.parametrize("n", [str(2**53 + 1), "9" * 20, "9" * 400],
                         ids=["2^53+1", "20-digits", "400-digits"])
def test_sample_size_beyond_exact_counting_is_data_error(tmp_path, capsys, n):
    text = Path(POLLS).read_text()
    assert "Insa,2018-03-05,2040," in text
    polls = tmp_path / "huge-n.csv"
    polls.write_text(text.replace("Insa,2018-03-05,2040,", f"Insa,2018-03-05,{n},"))
    code, out, err = run(capsys, "nowcast", "--polls", str(polls), "--config", CONFIG,
                         "--draws", "1000")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "data" and "badsize" in payload["message"]


@pytest.mark.parametrize("argv", [["nowcast"], ["plot", "--figure", "classic"]],
                         ids=["nowcast", "classic"])
def test_nan_share_is_data_error_with_its_line(tmp_path, capsys, argv):
    # Every comparison with NaN is false, so no range check alone refuses it.
    text = Path(POLLS).read_text()
    assert text.splitlines()[8].startswith("Insa,2018-03-05,2040,32.5,")
    polls = tmp_path / "nan.csv"
    polls.write_text(text.replace("Insa,2018-03-05,2040,32.5,", "Insa,2018-03-05,2040,nan,"))
    code, out, err = run(capsys, *argv, "--polls", str(polls), "--config", CONFIG,
                         "--as-of", "2018-03-05", "--draws", "1000",
                         "--out", str(tmp_path / "out.svg"))
    assert code == 2
    assert out == ""
    assert not (tmp_path / "out.svg").exists()
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "data" and "nonfinite" in payload["message"]
    assert payload["file"] == str(polls)
    assert payload["line"] == 9


def test_prior_with_infinite_alpha_total_is_config_error(tmp_path, capsys):
    # Each party's prior is finite, their sum is not: the draws would overflow.
    text = Path(CONFIG).read_text()
    cfg = tmp_path / "huge-prior.ini"
    cfg.write_text(text.replace("prior_alpha = 0.5", "prior_alpha = 1e308"))
    code, out, err = run(capsys, "nowcast", "--polls", POLLS, "--config", str(cfg),
                         "--draws", "1000")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"
