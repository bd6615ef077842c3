"""The bundled Swiss federation preset.

One federal root ("CH") with the 26 cantons as direct children, their
cantonal vote weights (six half cantons), eligible voters as of 2019, and
the transmission mechanism each cantonal chancellery uses toward the
federal level.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

from .channels import PRESETS
from .errors import ParseError
from .tree import JurisdictionId, JurisdictionTree

FEDERAL_CODE = "CH"

# Channel tags the data file may use: the unsigned presets.
CHANNEL_TAGS = tuple(name for name, spec in PRESETS.items() if not spec.signed)


@dataclass(frozen=True, slots=True)
class CantonInfo:
    code: str
    name: str
    half_votes: int
    eligible_voters: int
    channel: str


def _data_text(filename: str) -> str:
    return resources.files("votewire.data").joinpath(filename).read_text(encoding="utf-8")


def load_cantons() -> tuple[CantonInfo, ...]:
    """Parse the bundled canton table; order is the conventional cantonal order."""
    reader = csv.DictReader(_data_text("swiss_cantons.csv").splitlines())
    rows: list[CantonInfo] = []
    for lineno, row in enumerate(reader, start=2):
        try:
            info = CantonInfo(
                code=row["code"],
                name=row["name"],
                half_votes=int(row["half_votes"]),
                eligible_voters=int(row["eligible_voters"]),
                channel=row["channel"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"swiss_cantons.csv row {lineno}: {exc}") from exc
        if info.channel not in CHANNEL_TAGS:
            raise ParseError(
                f"swiss_cantons.csv row {lineno}: unknown channel tag {info.channel!r}"
            )
        rows.append(info)
    codes = [r.code for r in rows]
    if len(codes) != len(set(codes)):
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
    root = federal_id()
    # One id per canton, so every entry is keyed by the tree's own node.
    kids = [canton_id(info.code) for info in cantons]
    eligible: dict[JurisdictionId, int] = {
        kid: info.eligible_voters for kid, info in zip(kids, cantons)
    }
    eligible[root] = sum(info.eligible_voters for info in cantons)
    return JurisdictionTree(
        root,
        {root: kids},
        {kid: info.half_votes for kid, info in zip(kids, cantons)},
        eligible,
    )
