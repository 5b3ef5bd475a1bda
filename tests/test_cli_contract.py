"""The CLI's exit-code contract under fuzzed argv, config and poll files.

Whatever the input, koalition exits 0, 1, 2 or 3; a failing run writes
exactly one JSON line with an "error" key to stderr and never a
traceback, and a successful run writes nothing there. Runs go in-process
through cli.main. Draws stay at most 5000, --k at most 50 and --workers
at most 4, so no example starts many threads or a long run.
"""

import contextlib
import datetime as dt
import io
import json
import tempfile
import traceback
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from koalition.cli import FIGURES, main

FIXTURES = Path(__file__).parent / "fixtures"
CONFIG_LINES = (FIXTURES / "config.ini").read_text().splitlines()
POLL_ROWS = [line.split(",") for line in (FIXTURES / "polls.csv").read_text().splitlines()]

COMMANDS = ("nowcast", "forecast", "parliaments", "plot")
CONFIG_KEYS = {
    "parties": ("union", "other", "pirates"),
    "rules": ("threshold", "house_size", "method"),
    "pooling": ("window_days", "dependence_factor"),
    "posterior": ("prior_alpha", "draws"),
    "forecast": ("tau_days",),
    "coalitions": ("grand", "ampel", "solo"),
    "extra": ("key",),
}

SPECIAL = st.sampled_from([
    "", "0", "-0", "1", "-1", "0.5", "100", "598", "16383", "16384", "1e308",
    "-1e308", "1e-320", "nan", "inf", "-inf", "dhondt", "sainte-lague", "hare",
    "union, spd", "spd, spd", "Name, #AB12CD", "Name, #ZZZZZZ", "2018-03-05",
    "2018-02-30", "0001-01-01", "99999999999999999999", "1_000",
])
NUMBER = st.one_of(
    st.integers(-10, 20_000).map(str),
    st.integers(-(10**30), 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
VALUE = st.one_of(SPECIAL, NUMBER, st.text(max_size=12))
# Dates near the fixture's: a fan grid of up to forecast.MAX_FAN_DATES dates
# at --grid-days 1 would run for minutes. The far ends of the calendar have
# their own CLI tests.
DATE = st.dates(dt.date(2017, 6, 1), dt.date(2018, 12, 31)).map(dt.date.isoformat)


def _at_most(limit):
    # An integer option's junk must not parse to more than the limit:
    # int() takes "1_000", " 7 " and non-ASCII digits too.
    def ok(text):
        try:
            return int(text) <= limit
        except ValueError:
            return True

    return ok


def _mostly(valid, junk):
    """valid nine times in ten, else junk."""
    return st.integers(0, 9).flatmap(lambda i: junk if i == 0 else valid)


def _int_token(low, high, usual):
    """Mostly a count in [usual, high], sometimes any text at most high."""
    junk = st.one_of(st.integers(low, high).map(str),
                     st.text(max_size=8).filter(_at_most(high)))
    return _mostly(st.integers(usual, high).map(str), junk)


OPTIONS = st.one_of(
    st.tuples(st.just("--as-of"), _mostly(DATE, VALUE)),
    st.tuples(st.just("--seed"), _mostly(st.integers(0, 2**64 - 1).map(str), st.one_of(
        st.integers(-(2**65), 2**65).map(str), st.text(max_size=8)))),
    st.tuples(st.just("--draws"), _int_token(-10, 5000, 1000)),
    st.tuples(st.just("--workers"), _int_token(-2, 4, 1)),
    st.tuples(st.just("--k"), _int_token(-2, 50, 1)),
    st.tuples(st.just("--grid-days"), _mostly(
        st.one_of(st.integers(1, 60), st.integers(-2, 10**30)).map(str), st.text(max_size=8))),
    st.tuples(st.just("--figure"), st.sampled_from(FIGURES + ("pie",))),
    st.tuples(st.just("--coalition"), st.sampled_from(("grand", "ampel", "solo", ""))),
    st.tuples(st.just("--election-date"), _mostly(DATE, VALUE)),
    st.tuples(st.just("--out"), st.sampled_from(("file", "file", "missing-dir", "dir"))),
)
# The options each command takes; others go in only when stray is drawn.
COMMON = {"--as-of", "--seed", "--draws", "--workers", "--out"}
TAKES = {
    "nowcast": COMMON,
    "forecast": COMMON | {"--election-date"},
    "parliaments": COMMON | {"--k"},
    "plot": COMMON | {"--k", "--figure", "--coalition", "--election-date", "--grid-days"},
}
# Free tokens never start with "-", so none of them can become an option
# (and carry a count past the bounds above).
FREE = st.text(max_size=10).filter(lambda t: not t.startswith("-"))
RARELY = _mostly(st.just(False), st.just(True))

CONFIG_EDITS = st.lists(st.one_of(
    st.tuples(st.just("set"),
              st.sampled_from(sorted(CONFIG_KEYS)).flatmap(
                  lambda s: st.tuples(st.just(s), st.sampled_from(CONFIG_KEYS[s]))),
              st.one_of(SPECIAL, NUMBER, VALUE)),
    st.tuples(st.just("delete"), st.integers(0, len(CONFIG_LINES) - 1)),
    st.tuples(st.just("insert"), st.integers(0, len(CONFIG_LINES)), VALUE),
), max_size=3)

CELL = st.one_of(SPECIAL, NUMBER, DATE, VALUE)
POLL_EDITS = st.lists(st.one_of(
    st.tuples(st.just("cell"), st.integers(0, len(POLL_ROWS) - 1),
              st.integers(0, len(POLL_ROWS[0]) - 1), CELL),
    st.tuples(st.just("delete"), st.integers(0, len(POLL_ROWS) - 1)),
    st.tuples(st.just("duplicate"), st.integers(0, len(POLL_ROWS) - 1)),
    st.tuples(st.just("insert"), st.integers(0, len(POLL_ROWS)), VALUE),
), max_size=3)


def _edited_config(edits) -> str:
    lines = list(CONFIG_LINES)
    for edit in edits:
        if edit[0] == "set":
            (section, key), value = edit[1], edit[2]
            header = f"[{section}]"
            if header not in lines:
                lines += [header, f"{key} = {value}"]
                continue
            start = lines.index(header) + 1
            end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")),
                       len(lines))
            for i in range(start, end):
                if lines[i].split("=")[0].strip() == key:
                    lines[i] = f"{key} = {value}"
                    break
            else:
                lines.insert(start, f"{key} = {value}")
        elif edit[0] == "delete":
            if edit[1] < len(lines):
                del lines[edit[1]]
        else:
            lines.insert(edit[1], edit[2])
    return "\n".join(lines) + "\n"


def _edited_polls(edits) -> str:
    rows = [list(row) for row in POLL_ROWS]
    for edit in edits:
        if edit[0] == "cell":
            if edit[1] < len(rows) and edit[2] < len(rows[edit[1]]):
                rows[edit[1]][edit[2]] = edit[3]
        elif edit[0] == "delete":
            if edit[1] < len(rows):
                del rows[edit[1]]
        elif edit[0] == "duplicate":
            if edit[1] < len(rows):
                rows.insert(edit[1], list(rows[edit[1]]))
        else:
            rows.insert(edit[1], [edit[2]])
    return "\n".join(",".join(row) for row in rows) + "\n"


def _run(argv) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # --help prints to stdout and exits 0
            code = exc.code
        except Exception:
            code = "raised"
            err.write(traceback.format_exc())
    # A warning would reach stderr in a real run.
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    command=_mostly(st.sampled_from(COMMANDS), st.text(max_size=8)),
    figure=st.sampled_from(FIGURES),
    election=DATE,
    draws=_int_token(-10, 5000, 1000),
    options=st.lists(OPTIONS, max_size=5),
    stray=RARELY,
    free=st.lists(FREE, max_size=1),
    config_edits=CONFIG_EDITS,
    poll_edits=POLL_EDITS,
    inputs=st.sampled_from(("files",) * 6 + ("missing-polls", "missing-config", "dirs")),
)
def test_exit_code_contract(command, figure, election, draws, options, stray, free,
                            config_edits, poll_edits, inputs):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config, polls = tmp / "config.ini", tmp / "polls.csv"
        config.write_text(_edited_config(config_edits), encoding="utf-8")
        polls.write_text(_edited_polls(poll_edits), encoding="utf-8")
        if inputs == "missing-polls":
            polls = tmp / "absent.csv"
        elif inputs == "missing-config":
            config = tmp / "absent.ini"
        elif inputs == "dirs":
            polls = config = tmp
        outs = {"file": tmp / "out", "missing-dir": tmp / "absent" / "out", "dir": tmp}
        argv = [command, "--polls", str(polls), "--config", str(config), "--draws", draws]
        if command == "plot":
            argv += ["--figure", figure, "--out", str(outs["file"])]
        if command == "forecast" or (command == "plot" and figure in ("fan", "forecast-ridgeline")):
            argv += ["--election-date", election]
        for flag, value in options:
            if stray or flag in TAKES.get(command, ()):
                argv += [flag, str(outs[value]) if flag == "--out" else value]
        if stray:
            argv += free

        code, out, err = _run(argv)

    assert code in (0, 1, 2, 3), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
        return
    lines = err.splitlines()
    assert len(lines) == 1, (argv, err)
    payload = json.loads(lines[0])
    assert isinstance(payload, dict) and "error" in payload, (argv, err)
    assert "Traceback" not in err
