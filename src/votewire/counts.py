"""Ballot counts and their accumulation arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ArithmeticOverflow

# Counts must stay representable as signed 64-bit integers so they survive
# every wire and file format in this package unchanged.
MAX_COUNT = 2**63 - 1


@dataclass(frozen=True, slots=True)
class VoteCount:
    """Per-jurisdiction ballot counts for one binary question.

    Outcome rules look only at ``yes`` and ``no``; ``blank`` and ``invalid``
    ballots exist so that plausibility checks against the electorate size
    see every counted ballot.
    """

    yes: int = 0
    no: int = 0
    blank: int = 0
    invalid: int = 0

    def __post_init__(self) -> None:
        for name in ("yes", "no", "blank", "invalid"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            if value > MAX_COUNT:
                raise ArithmeticOverflow(f"{name}={value} exceeds the 64-bit count range")

    def total(self) -> int:
        return self.yes + self.no + self.blank + self.invalid


ZERO = VoteCount()


def accumulate(reports: Iterable[VoteCount]) -> VoteCount:
    """Component-wise sum of counts; the empty sum is all zeros.

    Raises ArithmeticOverflow instead of silently producing a value no wire
    format can carry.
    """
    yes = no = blank = invalid = 0
    for c in reports:
        yes += c.yes
        no += c.no
        blank += c.blank
        invalid += c.invalid
    for name, value in (("yes", yes), ("no", no), ("blank", blank), ("invalid", invalid)):
        if value > MAX_COUNT:
            raise ArithmeticOverflow(f"accumulated {name}={value} exceeds the 64-bit count range")
    return VoteCount(yes=yes, no=no, blank=blank, invalid=invalid)
