"""The bundled Swiss federation preset.

One federal root ("CH") with the 26 cantons as direct children, their
cantonal vote weights (six half cantons), eligible voters as of 2019, and
the transmission mechanism each cantonal chancellery uses toward the
federal level.
"""

from __future__ import annotations

import csv
import functools
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterator

from .channels import PRESETS
from .counts import parse_decimal
from .errors import ParseError
from .tree import JurisdictionId, JurisdictionTree

FEDERAL_CODE = "CH"

CANTONS_HEADER = ("code", "name", "half_votes", "eligible_voters", "channel")
# Channel tags the data file may use: the unsigned presets.
CHANNEL_TAGS = tuple(name for name, spec in PRESETS.items() if not spec.signed)
# The line breaks str.splitlines knows besides LF, which no row may hold.
_OTHER_BREAK_RE = re.compile("[\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


@dataclass(frozen=True)
class CantonInfo:
    code: str
    name: str
    half_votes: int
    eligible_voters: int
    channel: str


def read_rows(text: str, header: tuple[str, ...], prefix: str) -> Iterator[tuple[str, list[str]]]:
    """(label, fields) of each nonempty row after ``header``; a row ends at LF or CRLF."""
    text = text.replace("\r\n", "\n")
    stray = _OTHER_BREAK_RE.search(text)
    if stray:
        rowno = text.count("\n", 0, stray.start()) + 1
        raise ParseError(
            f"{prefix}row {rowno}: holds line break {stray.group()!r}; rows end at LF or CRLF"
        )
    # LF is the only break left. Strict: a quote must close, and only a
    # separator or the row's end may follow it.
    reader = csv.reader(text.splitlines(), strict=True)
    rowno = 0
    try:
        for rowno, row in enumerate(reader, start=1):
            where = f"{prefix}row {rowno}"
            if reader.line_num != rowno:  # the row ran on past its own line
                raise ParseError(f"{where}: a quoted field holds a line break")
            if rowno == 1 and tuple(row) != header:
                raise ParseError(f"{where}: header must be {','.join(header)}")
            if rowno > 1 and row:
                if len(row) != len(header):
                    raise ParseError(f"{where}: expected {len(header)} fields, got {len(row)}")
                yield where, row
    except csv.Error as exc:
        rowno += 1  # the row being read, named where it opens
        why = exc if reader.line_num == rowno else "a quoted field holds a line break"
        raise ParseError(f"{prefix}row {rowno}: {why}") from None
    if reader.line_num == 0:
        raise ParseError(f"{prefix}row 1: missing header")


@functools.cache
def load_cantons() -> tuple[CantonInfo, ...]:
    """The bundled canton table, parsed once per process; order is the
    conventional cantonal order."""
    data = resources.files("votewire.data").joinpath("swiss_cantons.csv")
    return parse_cantons(data.read_bytes().decode("utf-8"))


def parse_cantons(text: str) -> tuple[CantonInfo, ...]:
    """Parse a canton table in the bundled file's format."""
    rows: list[CantonInfo] = []
    for where, row in read_rows(text, CANTONS_HEADER, "swiss_cantons.csv "):
        code, name, half_votes, eligible, channel = row
        info = CantonInfo(
            code=code,
            name=name,
            half_votes=parse_decimal(half_votes, f"{where}: half_votes"),
            eligible_voters=parse_decimal(eligible, f"{where}: eligible_voters"),
            channel=channel,
        )
        if channel not in CHANNEL_TAGS:
            raise ParseError(f"{where}: unknown channel tag {channel!r}")
        rows.append(info)
    if len({r.code for r in rows}) != len(rows):
        raise ParseError("swiss_cantons.csv: duplicate canton code")
    return tuple(rows)


def federal_id() -> JurisdictionId:
    return JurisdictionId.of(FEDERAL_CODE)


def canton_id(code: str) -> JurisdictionId:
    return JurisdictionId.of(FEDERAL_CODE, code)


def canton_names() -> dict[str, str]:
    return {info.code: info.name for info in load_cantons()}


def channel_assignments() -> dict[str, str]:
    """Canton code → channel tag for the canton-to-federal edge."""
    return {info.code: info.channel for info in load_cantons()}


def swiss_tree() -> JurisdictionTree:
    """Two-level federation tree; the root's electorate is the cantonal sum."""
    cantons = load_cantons()
    # One id per canton, so the tree takes each as its node; the paths in
    # table order keep the conventional cantonal order among the children.
    kids = [canton_id(info.code) for info in cantons]
    eligible: dict[JurisdictionId, int] = {
        kid: info.eligible_voters for kid, info in zip(kids, cantons)
    }
    eligible[federal_id()] = sum(info.eligible_voters for info in cantons)
    return JurisdictionTree(
        [kid.path for kid in kids],
        {kid: info.half_votes for kid, info in zip(kids, cantons)},
        eligible,
    )
