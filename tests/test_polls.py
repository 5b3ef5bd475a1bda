import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koalition.polls import (
    Party,
    PartyRegistry,
    Poll,
    PollFileError,
    PollRowError,
    PollValidationError,
    parse_polls,
    serialize_polls,
    validate_poll,
)
from koalition.pooling import pool


def test_registry_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        PartyRegistry(
            parties=(Party("a", "A", "#000000"), Party("a", "A2", "#111111"),
                     Party("other", "Other", "#999999")),
            other_id="other",
        )


def test_registry_requires_other_last():
    with pytest.raises(ValueError, match="last"):
        PartyRegistry(
            parties=(Party("other", "Other", "#999999"), Party("a", "A", "#000000")),
            other_id="other",
        )


def test_registry_rejects_bad_color():
    with pytest.raises(ValueError, match="color"):
        PartyRegistry(
            parties=(Party("a", "A", "#12345"), Party("other", "Other", "#999999")),
            other_id="other",
        )


def test_parse_percent_mode(registry):
    text = "pollster,date,n,union,spd,gruene,fdp,linke,afd\nInsa,2018-03-05,2040,32.5,17,12,10,10.5,13.5\n"
    polls = parse_polls(text, registry)
    assert len(polls) == 1
    poll = polls[0]
    assert poll.pollster == "Insa"
    assert poll.publish_date == dt.date(2018, 3, 5)
    assert poll.sample_size == 2040
    assert poll.shares["spd"] == 0.17
    # residual lands in the other bucket
    named = sum(poll.shares[p] for p in registry.named_ids)
    assert poll.shares["other"] == pytest.approx(1.0 - named, abs=1e-12)


def test_parse_fraction_mode(registry):
    text = (
        "pollster,date,n,union,spd,gruene,fdp,linke,afd\n"
        "X,2020-01-01,1000,0.33,0.17,0.12,0.1,0.1,0.13\n"
    )
    poll = parse_polls(text, registry)[0]
    assert poll.shares["union"] == 0.33


def test_percent_detection_is_per_file(registry):
    # one cell > 1 makes the whole file percentages, including small cells
    text = (
        "pollster,date,n,union,spd,gruene,fdp,linke,afd\n"
        "X,2020-01-01,1000,0.9,17,12,10,10,13\n"
    )
    poll = parse_polls(text, registry)[0]
    assert poll.shares["union"] == pytest.approx(0.009)
    assert poll.shares["spd"] == 0.17


def test_parse_all_zero_row_routes_everything_to_other(registry):
    text = "pollster,date,n,union,spd,gruene,fdp,linke,afd\nX,2020-01-01,1,0,0,0,0,0,0\n"
    poll = parse_polls(text, registry)[0]
    assert poll.sample_size == 1
    assert poll.shares["other"] == 1.0


def test_parse_sorts_by_date(registry):
    text = (
        "pollster,date,n,union,spd,gruene,fdp,linke,afd\n"
        "B,2020-02-01,500,30,20,10,10,10,10\n"
        "A,2020-01-01,500,30,20,10,10,10,10\n"
    )
    polls = parse_polls(text, registry)
    assert [p.pollster for p in polls] == ["A", "B"]


def test_parse_malformed_date_carries_line_number(registry):
    text = (
        "pollster,date,n,union,spd,gruene,fdp,linke,afd\n"
        "A,2020-01-01,500,30,20,10,10,10,10\n"
        "B,01.02.2020,500,30,20,10,10,10,10\n"
    )
    with pytest.raises(PollRowError) as err:
        parse_polls(text, registry)
    assert err.value.line == 3


def test_parse_unknown_party_column_is_file_error(registry):
    text = "pollster,date,n,union,spd,gruene,fdp,linke,afd,pirates\nA,2020-01-01,500,30,20,10,10,10,10,5\n"
    with pytest.raises(PollFileError, match="pirates"):
        parse_polls(text, registry)


def test_parse_missing_party_column_is_file_error(registry):
    text = "pollster,date,n,union,spd\nA,2020-01-01,500,30,20\n"
    with pytest.raises(PollFileError, match="missing"):
        parse_polls(text, registry)


def test_parse_oversum_row_rejected(registry):
    text = "pollster,date,n,union,spd,gruene,fdp,linke,afd\nA,2020-01-01,500,40,30,20,10,10,10\n"
    with pytest.raises(PollRowError, match="oversum"):
        parse_polls(text, registry)


def test_parse_sums_shares_as_validate_poll_does(registry):
    # These shares total 1.0000000010000003 in file order but 1.000000001
    # (within the tolerance) in registry order: the row is the poll that
    # validate_poll accepts, whatever order the file lists its columns in.
    shares = {
        "gruene": 0.17264737963318882,
        "fdp": 0.3041027576798157,
        "linke": 0.0008401854470976753,
        "union": 0.011308895486038858,
        "spd": 0.33341875082852246,
        "afd": 0.17768203192533666,
    }
    text = (
        "pollster,date,n," + ",".join(shares) + "\n"
        "A,2020-01-01,500," + ",".join(map(repr, shares.values())) + "\n"
    )
    poll = Poll("A", dt.date(2020, 1, 1), 500, shares)
    assert parse_polls(text, registry) == [validate_poll(poll, registry)]


def test_parse_bad_sample_size(registry):
    text = "pollster,date,n,union,spd,gruene,fdp,linke,afd\nA,2020-01-01,many,30,20,10,10,10,10\n"
    with pytest.raises(PollRowError, match="sample size"):
        parse_polls(text, registry)


def test_validate_routes_residual(registry):
    poll = Poll("X", dt.date(2020, 1, 1), 100,
                {"union": 0.4, "spd": 0.38, "gruene": 0.18})
    out = validate_poll(poll, registry)
    assert out.shares["other"] == pytest.approx(0.04)
    assert set(out.shares) == set(registry.ids)


def test_validate_oversum():
    registry = PartyRegistry(
        parties=(Party("a", "A", "#000000"), Party("other", "O", "#999999")),
        other_id="other",
    )
    with pytest.raises(PollValidationError) as err:
        validate_poll(Poll("X", dt.date(2020, 1, 1), 100, {"a": 1.02}), registry)
    assert "oversum" in err.value.codes


def test_validate_negative_share(registry):
    with pytest.raises(PollValidationError) as err:
        validate_poll(Poll("X", dt.date(2020, 1, 1), 100, {"union": -0.01}), registry)
    assert "negative" in err.value.codes


@pytest.mark.parametrize("share", [math.nan, math.inf, -math.inf])
def test_validate_nonfinite_share(registry, share):
    with pytest.raises(PollValidationError) as err:
        validate_poll(Poll("X", dt.date(2020, 1, 1), 100, {"union": share}), registry)
    assert "nonfinite" in err.value.codes


def test_validate_collects_all_codes(registry):
    with pytest.raises(PollValidationError) as err:
        validate_poll(Poll("X", dt.date(2020, 1, 1), 0, {"union": -0.01}), registry)
    assert {"negative", "badsize"} <= set(err.value.codes)


def test_round_trip_fixture_polls(registry, fixture_polls):
    text = serialize_polls(fixture_polls, registry)
    again = parse_polls(text, registry)
    assert again == fixture_polls
    # and a second cycle is stable too
    assert parse_polls(serialize_polls(again, registry), registry) == again


@settings(max_examples=60, deadline=None)
@given(
    shares=st.lists(
        st.floats(min_value=0.0, max_value=0.16, allow_nan=False), min_size=6, max_size=6
    ),
    n=st.integers(min_value=1, max_value=100_000),
)
def test_round_trip_random_polls(registry, shares, n):
    poll = Poll("Z", dt.date(2021, 6, 1), n, dict(zip(registry.named_ids, shares)))
    normalized = validate_poll(poll, registry)
    text = serialize_polls([normalized], registry)
    assert parse_polls(text, registry) == [normalized]


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
                     min_size=6, max_size=6),
    excess=st.one_of(
        st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, 5e-10, 2e-9]),
        st.floats(min_value=-3e-9, max_value=3e-9),
    ),
    n=st.one_of(st.integers(min_value=1, max_value=10**8),
                st.sampled_from([1, 10**6, 10**8 - 1, 10**8])),
    order=st.permutations(range(6)),
)
# one party just above 100%, within the tolerance: still a fraction file
@example(weights=[0.0, 0.0, 0.0, 0.0, 0.0, 1.0], excess=5e-10, n=10**8, order=range(6))
def test_valid_poll_serializes_parses_and_pools(registry, weights, excess, n, order):
    # Shares summing to within a few 1e-9 of 1, at sample sizes up to the
    # bound: a poll either has too large a sum, or survives a CSV round
    # trip and pools to exactly its n. Its shares as a raw row, with the
    # columns in any order, are refused or read alike.
    named = np.array(weights) / (sum(weights) or 1.0) * (1.0 + excess)
    # numpy floats in, as an API caller may pass them
    poll = Poll("Z", dt.date(2021, 6, 1), n, dict(zip(registry.named_ids, named)))
    raw = (
        "pollster,date,n," + ",".join(registry.named_ids[i] for i in order) + "\n"
        f"Z,2021-06-01,{n}," + ",".join(repr(float(named[i])) for i in order) + "\n"
    )
    try:
        normalized = validate_poll(poll, registry)
    except PollValidationError as exc:
        assert exc.codes == ["oversum"]
        # A share above 1 + 1e-9 makes the file a percent file instead.
        if named.max() <= 1.0 + 1e-9:
            with pytest.raises(PollRowError, match="oversum") as err:
                parse_polls(raw, registry)
            assert err.value.line == 2
        return
    assert parse_polls(raw, registry) == [normalized]
    assert all(type(v) is float for v in normalized.shares.values())
    again = parse_polls(serialize_polls([normalized], registry), registry)
    assert again == [normalized]
    pooled = pool(again, registry, normalized.publish_date)
    assert pooled.n_eff == n == sum(pooled.counts.values())
