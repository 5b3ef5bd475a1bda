"""Published-poll ingestion: party registry, poll records, CSV parsing.

Polls are consumed as published (weighted) party shares; there is no
respondent-level data. Every share vector is normalized so that the
residual mass ends up in a mandatory "other" bucket, which keeps the
downstream count vectors summing exactly to the sample size.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import re
from dataclasses import dataclass

__all__ = [
    "Party",
    "PartyRegistry",
    "Poll",
    "PollError",
    "PollFileError",
    "PollRowError",
    "PollValidationError",
    "parse_polls",
    "serialize_polls",
    "validate_poll",
]

_HEX_COLOR = re.compile(r"^#?[0-9a-fA-F]{6}$")

# Residuals smaller than this are float noise from re-parsing our own
# output, not a real "other" share; snapping keeps round-trips bit-exact.
_RESIDUAL_SNAP = 1e-12

# A share sum may exceed 1 by at most this much at parse time.
_PARSE_OVERSUM_TOL = 1e-9
# validate_poll is more lenient, per its contract.
_VALIDATE_OVERSUM_TOL = 1e-6
# Pooling rounds n * share in float64, which holds every integer count
# only up to 2^53.
_MAX_SAMPLE_SIZE = 1 << 53


class PollError(ValueError):
    """Base class for poll data problems."""


class PollFileError(PollError):
    """The file as a whole is unusable (bad header, unknown column)."""


class PollRowError(PollError):
    """A single data row is invalid; carries its 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class PollValidationError(PollError):
    """A poll violates one or more invariants; carries all codes."""

    def __init__(self, codes: list[str]):
        super().__init__("invalid poll: " + ", ".join(codes))
        self.codes = list(codes)


@dataclass(frozen=True)
class Party:
    id: str
    name: str
    color: str


@dataclass(frozen=True)
class PartyRegistry:
    """Ordered party list; the last entry must be the residual bucket."""

    parties: tuple[Party, ...]
    other_id: str

    def __post_init__(self):
        ids = [p.id for p in self.parties]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate party ids in registry")
        if any(not p.id for p in self.parties):
            raise ValueError("empty party id in registry")
        if self.other_id not in ids:
            raise ValueError(f"other bucket {self.other_id!r} not a registry member")
        if ids[-1] != self.other_id:
            raise ValueError("other bucket must be last in registry order")
        for p in self.parties:
            if not _HEX_COLOR.match(p.color):
                raise ValueError(f"bad color {p.color!r} for party {p.id!r}")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.parties)

    @property
    def named_ids(self) -> tuple[str, ...]:
        """All party ids except the residual bucket."""
        return tuple(p.id for p in self.parties if p.id != self.other_id)

    def color(self, party_id: str) -> str:
        for p in self.parties:
            if p.id == party_id:
                return p.color if p.color.startswith("#") else "#" + p.color
        raise KeyError(party_id)


@dataclass
class Poll:
    """One published survey: weighted party shares plus metadata."""

    pollster: str
    publish_date: dt.date
    sample_size: int
    shares: dict[str, float]


def validate_poll(poll: Poll, registry: PartyRegistry) -> Poll:
    """Normalize a poll against the registry or raise with all violations.

    The returned poll carries a share for every registry party, with the
    residual (1 - sum of named shares) routed into the other bucket.

    Raises:
        PollValidationError: codes "nonfinite", "oversum", "negative",
            "badsize", "unknown-party" as applicable, all collected.
    """
    codes = []
    if not all(math.isfinite(v) for v in poll.shares.values()):
        codes.append("nonfinite")
    if not 1 <= poll.sample_size <= _MAX_SAMPLE_SIZE:
        codes.append("badsize")
    unknown = set(poll.shares) - set(registry.ids)
    if unknown:
        codes.append("unknown-party")
    if any(v < 0 for v in poll.shares.values()):
        codes.append("negative")
    total = sum(poll.shares.get(pid, 0.0) for pid in registry.ids)
    if total > 1.0 + _VALIDATE_OVERSUM_TOL:
        codes.append("oversum")
    if codes:
        raise PollValidationError(codes)

    residual = 1.0 - total
    if abs(residual) <= _RESIDUAL_SNAP:
        residual = 0.0
    residual = max(0.0, residual)
    shares = {pid: poll.shares.get(pid, 0.0) for pid in registry.ids}
    shares[registry.other_id] = shares[registry.other_id] + residual
    return Poll(poll.pollster, poll.publish_date, poll.sample_size, shares)


def parse_polls(text: str, registry: PartyRegistry) -> list[Poll]:
    """Parse a poll CSV into normalized, date-sorted Poll records.

    Expected header: ``pollster,date,n`` plus one column per party id
    (case-sensitive; the other-bucket column is optional). Share columns
    are read as percentages if any share cell in the file exceeds 1,
    as fractions otherwise; the mode is decided once for the whole file.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    if not rows:
        raise PollFileError("empty poll file")

    header_line, header = rows[0]
    header = [h.strip() for h in header]
    required = ["pollster", "date", "n"]
    for col in required:
        if header.count(col) != 1:
            raise PollFileError(f"header must name column {col!r} exactly once")
    party_cols = [h for h in header if h not in required]
    if len(set(party_cols)) != len(party_cols):
        raise PollFileError("duplicate party column in header")
    unknown = set(party_cols) - set(registry.ids)
    if unknown:
        raise PollFileError(f"unknown party column(s): {sorted(unknown)}")
    missing = set(registry.named_ids) - set(party_cols)
    if missing:
        raise PollFileError(f"missing party column(s): {sorted(missing)}")
    col_index = {name: header.index(name) for name in header}

    # First pass: raw cell values, so percent-vs-fraction detection is
    # per file, never per cell.
    raw = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise PollRowError(f"expected {len(header)} cells, got {len(row)}", lineno)
        try:
            date = dt.date.fromisoformat(row[col_index["date"]].strip())
        except ValueError:
            raise PollRowError(f"malformed date {row[col_index['date']]!r}", lineno) from None
        n_text = row[col_index["n"]].strip()
        try:
            n = int(n_text)
        except ValueError:
            raise PollRowError(f"malformed sample size {n_text!r}", lineno) from None
        values = {}
        for pid in party_cols:
            cell = row[col_index[pid]].strip()
            try:
                values[pid] = float(cell)
            except ValueError:
                raise PollRowError(f"malformed share {cell!r} for {pid!r}", lineno) from None
        raw.append((lineno, row[col_index["pollster"]].strip(), date, n, values))

    percent_mode = any(v > 1.0 for _, _, _, _, values in raw for v in values.values())
    scale = 0.01 if percent_mode else 1.0

    polls = []
    for lineno, pollster, date, n, values in raw:
        shares = {pid: v * scale for pid, v in values.items()}
        if sum(shares.values()) > 1.0 + _PARSE_OVERSUM_TOL:
            raise PollRowError("share sum exceeds 100%", lineno)
        try:
            poll = validate_poll(Poll(pollster, date, n, shares), registry)
        except PollValidationError as exc:
            raise PollRowError(str(exc), lineno) from None
        polls.append(poll)

    polls.sort(key=lambda p: p.publish_date)
    return polls


def serialize_polls(polls: list[Poll], registry: PartyRegistry) -> str:
    """Write polls back to CSV so that re-parsing reproduces them bit-exactly.

    Shares are written as full-precision fractions via repr, including the
    other-bucket column; on re-parse the residual is then exactly zero.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pollster", "date", "n", *registry.ids])
    for poll in polls:
        writer.writerow(
            [
                poll.pollster,
                poll.publish_date.isoformat(),
                poll.sample_size,
                *[repr(poll.shares[pid]) for pid in registry.ids],
            ]
        )
    return buf.getvalue()
