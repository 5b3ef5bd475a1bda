import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from concurrent.futures import Future
from pathlib import Path

import pytest

from koalition import engine, forecast, posterior
from koalition.cli import FIGURES, load_config, main
from koalition.electoral import MAX_HOUSE_SIZE, ElectionRules
from koalition.pooling import PoolingConfig

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


def test_config_without_optional_sections_takes_each_owners_defaults(tmp_path):
    cfg = tmp_path / "minimal.ini"
    cfg.write_text("[parties]\na = A, #111111\nother = Other, #222222\n\n"
                   "[coalitions]\nsolo = a\n")
    config = load_config(cfg)
    assert config.rules == ElectionRules()
    assert config.pooling == PoolingConfig()
    assert config.prior_alpha == posterior.DEFAULT_PRIOR_ALPHA
    assert config.m == posterior.DEFAULT_DRAWS
    assert config.tau == forecast.DEFAULT_TAU_DAYS


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


def test_oversum_row_is_data_error_with_line(tmp_path, capsys):
    bad = tmp_path / "oversum.csv"
    bad.write_text(
        "pollster,date,n,union,spd,gruene,fdp,linke,afd\n"
        "A,2018-03-05,100,30,20,10,10,10,10\n"
        "B,2018-03-05,100,40,30,20,10,10,10\n"
    )
    code, out, err = run(capsys, "nowcast", "--polls", str(bad), "--config", CONFIG)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "data" and "oversum" in payload["message"]
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


def test_a_parliament_without_seats_is_hung_in_every_output(tmp_path, capsys):
    # At threshold 0 a zero share still never enters. With a tiny prior and
    # a poll that gives every named party 0, some draws leave every named
    # party's share at 0: those parliaments have no seats and are hung.
    cfg = tmp_path / "open.ini"
    cfg.write_text(Path(CONFIG).read_text()
                   .replace("threshold = 0.05", "threshold = 0")
                   .replace("prior_alpha = 0.5", "prior_alpha = 0.001"))
    polls = tmp_path / "polls.csv"
    polls.write_text("pollster,date,n,union,spd,gruene,fdp,linke,afd\n"
                     "Insa,2018-03-05,1000,0,0,0,0,0,0\n")
    inputs = ["--polls", str(polls), "--config", str(cfg), "--seed", "3"]
    code, out, err = run(capsys, "parliaments", *inputs, "--k", "1000")
    assert code == 0, err
    parliaments = json.loads(out)["parliaments"]
    empty = [i for i, p in enumerate(parliaments) if not any(p["seats"].values())]
    assert len(empty) == 11
    assert [i for i, p in enumerate(parliaments) if p["hung"]] == empty
    assert all(parliaments[i]["eligible"] == [] for i in empty)
    code, out, err = run(capsys, "nowcast", *inputs, "--draws", "1000")
    assert code == 0, err
    assert json.loads(out)["diagnostics"]["hung_fraction"] == len(empty) / 1000


@pytest.mark.parametrize("figure", ["fan", "forecast-ridgeline"])
def test_past_election_is_refused_before_any_draw(tmp_path, capsys, monkeypatch, figure):
    calls = []
    real = engine.seat_distribution

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "seat_distribution", counting)
    out_path = tmp_path / "figure.svg"
    code, _, err = run(capsys, "plot", "--figure", figure, *BASE, "--draws", "2000",
                       "--election-date", "2018-02-20", "--out", str(out_path))
    assert code == 2
    assert "past-election" in json.loads(err)["message"]
    assert calls == []
    assert not out_path.exists()


def test_overlong_fan_grid_is_refused_before_any_draw(tmp_path, capsys, monkeypatch):
    # A grid to year 9999 would be 416,476 daily simulations.
    draws = []
    real = engine.sample_shares

    def counting(posterior, m, *args, **kwargs):
        draws.append(m)
        return real(posterior, m, *args, **kwargs)

    monkeypatch.setattr(engine, "sample_shares", counting)
    out_path = tmp_path / "fan.svg"
    code, _, err = run(capsys, "plot", "--figure", "fan", *BASE, "--draws", "2000",
                       "--election-date", "9999-12-31", "--out", str(out_path))
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "usage"
    assert "--election-date" in payload["message"] and "--grid-days" in payload["message"]
    assert sum(draws) == 0
    assert not out_path.exists()


def test_classic_without_a_poll_by_as_of_says_so(tmp_path, capsys):
    # The figure shows the newest poll on or before --as-of, whatever the
    # pooling window, so that is what its empty case names.
    code, _, err = run(capsys, "plot", "--figure", "classic", "--polls", POLLS,
                       "--config", CONFIG, "--as-of", "2000-01-01",
                       "--out", str(tmp_path / "classic.svg"))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "data"
    assert payload["message"] == "no-data: no poll on or before 2000-01-01"
    assert "within" not in payload["message"]


def test_forecast_ridgeline_pools_each_date_once(tmp_path, capsys, monkeypatch):
    # Each date's nowcast posterior gives both of its ridges.
    dates = []
    real = posterior.posterior_at

    def counting(poll_list, registry, as_of, *args):
        dates.append(as_of)
        return real(poll_list, registry, as_of, *args)

    monkeypatch.setattr(posterior, "posterior_at", counting)
    code, _, err = run(capsys, "plot", "--figure", "forecast-ridgeline", *BASE,
                       "--draws", "1000", "--election-date", "2018-05-20",
                       "--out", str(tmp_path / "figure.svg"))
    assert code == 0, err
    assert len(dates) == 8
    assert len(set(dates)) == 8


@pytest.mark.parametrize("argv", [
    ["nowcast"],
    ["plot", "--figure", "fan", "--election-date", "2018-05-20"],
])
def test_poll_file_without_rows_is_data_error_naming_the_file(tmp_path, capsys, argv):
    header = Path(POLLS).read_text().splitlines()[0]
    polls_path = tmp_path / "header-only.csv"
    polls_path.write_text(header + "\n")
    command, *rest = argv
    code, out, err = run(capsys, command, "--polls", str(polls_path), "--config", CONFIG,
                         *rest, "--out", str(tmp_path / "out"))
    assert code == 2
    assert out == "" and not (tmp_path / "out").exists()
    payload = json.loads(err)
    assert payload["error"] == "data"
    assert payload["file"] == str(polls_path)
    assert "no poll rows" in payload["message"]


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
    # An empty value is refused, not read as "use the default".
    (["nowcast", "--as-of", ""], "--as-of expects an ISO date, got ''"),
    (["nowcast", "--out", ""], "--out expects a path, got ''"),
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


def test_plot_empty_coalition_name_is_config_error(tmp_path, capsys):
    # "" names no configured coalition; it does not mean the first one.
    code, _, err = run(
        capsys, "plot", *BASE, "--figure", "density", "--coalition", "",
        "--out", str(tmp_path / "x.svg"),
    )
    assert code == 3
    assert json.loads(err) == {
        "error": "config", "message": "coalition '' not found in config",
    }
    assert not (tmp_path / "x.svg").exists()


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


@pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
def test_unwritable_stdout_is_one_json_line(sink):
    # /dev/full refuses every write (ENOSPC); a pipe without a reader, as
    # in `koalition nowcast ... | true`, refuses it with EPIPE.
    if sink == "dev-full":
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        reader, fd = os.pipe()
        os.close(reader)
    # The child imports the package this test imported, installed or not.
    src = str(Path(engine.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "koalition.cli", "nowcast", *BASE, "--draws", "1000"],
            stdout=fd,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
    finally:
        os.close(fd)
    assert proc.returncode == 1
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1, proc.stderr
    payload = json.loads(lines[0])
    assert payload["error"] == "usage"
    assert "<stdout>" in payload["message"]


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


# Run in a child: caps the child's own address space at argv[1] bytes
# (0: no cap), runs the CLI on the rest of argv and prints its VmPeak.
_UNDER_ADDRESS_LIMIT = """
import resource, sys
limit = int(sys.argv[1])
if limit:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from koalition.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmPeak:"))
print(int(peak.split()[1]) * 1024)
sys.exit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmPeak")
def test_density_of_five_million_draws_fits_a_small_address_space(tmp_path):
    # The child may map 40 MB more than a 1000-draw run of the same figure
    # peaks at. It keeps no value per draw, only h + 1 seat-total counts;
    # 5e6 float seat shares would take 40 MB, and np.std's copy 40 MB more.
    src = str(Path(engine.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def density(draws, limit):
        out_path = tmp_path / f"density-{draws}.svg"
        proc = subprocess.run(
            [sys.executable, "-c", _UNDER_ADDRESS_LIMIT, str(limit), "plot",
             "--figure", "density", *BASE, "--draws", str(draws), "--workers", "1",
             "--out", str(out_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert out_path.exists()
        return int(proc.stdout)

    density(5_000_000, density(1000, 0) + 40 * 2**20)


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
    code, out, _ = run(capsys, "nowcast", *BASE, "--draws", "20000",
                       "--workers", "100000")
    assert code == 0
    assert requested == [1]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, serial, _ = run(capsys, "nowcast", *BASE, "--draws", "20000",
                          "--workers", "100000")
    assert requested == [1]  # one CPU: sampled serially, no pool at all
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


@pytest.mark.parametrize("bom_in", [("polls",), ("config",), ("polls", "config")])
def test_utf8_byte_order_mark_is_ignored(tmp_path, capsys, bom_in):
    # Excel and other Windows tools start UTF-8 files with a byte-order mark.
    paths = {"polls": POLLS, "config": CONFIG}
    for name in bom_in:
        copy = tmp_path / Path(paths[name]).name
        copy.write_bytes(b"\xef\xbb\xbf" + Path(paths[name]).read_bytes())
        paths[name] = str(copy)
    argv = ["--as-of", "2018-03-05", "--seed", "42", "--draws", "2000"]
    plain = run(capsys, "nowcast", "--polls", POLLS, "--config", CONFIG, *argv)
    marked = run(capsys, "nowcast", "--polls", paths["polls"],
                 "--config", paths["config"], *argv)
    assert plain[0] == 0
    assert marked == plain


def test_nowcast_samples_each_block_once(monkeypatch, capsys):
    calls = []
    gamma_block = posterior._gamma_block

    def counting(stream, key, alpha, block, out):
        calls.append((int(key[0]), int(key[1]), block))
        gamma_block(stream, key, alpha, block, out)

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


@pytest.mark.parametrize("n", [str(10**8 + 1), str(2**53 + 1), "9" * 20, "9" * 400],
                         ids=["10^8+1", "2^53+1", "20-digits", "400-digits"])
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
