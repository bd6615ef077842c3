"""Ballot counts and their accumulation arithmetic."""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import ArithmeticOverflow, ParseError

# Counts must stay representable as signed 64-bit integers so they survive
# every wire and file format in this package unchanged.
MAX_COUNT = 2**63 - 1

# The one decimal form every count reader accepts, in files and on the wire.
_DECIMAL_RE = re.compile(r"\A(?:0|[1-9][0-9]*)\Z")


class _CountFields(NamedTuple):
    yes: int
    no: int
    blank: int
    invalid: int


class VoteCount(_CountFields):
    """Per-jurisdiction ballot counts for one binary question.

    Outcome rules look only at ``yes`` and ``no``; ``blank`` and ``invalid``
    ballots exist so that plausibility checks against the electorate size
    see every counted ballot.

    A tuple checked in its constructor, like ``Report``, because a large run
    builds and compares ~100k counts: a tuple's ``==`` and ``hash`` run in C.
    """

    __slots__ = ()

    def __new__(cls, yes: int = 0, no: int = 0, blank: int = 0, invalid: int = 0) -> "VoteCount":
        # The common case in one expression; anything else takes the loop,
        # which names the first offending field.
        if not (
            type(yes) is int and type(no) is int and type(blank) is int and type(invalid) is int
            and 0 <= yes <= MAX_COUNT and 0 <= no <= MAX_COUNT
            and 0 <= blank <= MAX_COUNT and 0 <= invalid <= MAX_COUNT
        ):
            for name, value in zip(cls._fields, (yes, no, blank, invalid)):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise TypeError(f"{name} must be an int, got {value!r}")
                if value < 0:
                    raise ValueError(f"{name} must be >= 0, got {value}")
                if value > MAX_COUNT:
                    raise ArithmeticOverflow(f"{name}={value} exceeds the 64-bit count range")
        return tuple.__new__(cls, (yes, no, blank, invalid))

    @classmethod
    def _make(cls, values: Iterable[int]) -> "VoteCount":
        # namedtuple's own _make, which _replace calls too, skips the checks.
        return cls(*values)

    def total(self) -> int:
        return sum(self)

    def _no_concatenation(self, other):
        # Tuple + and * would splice two counts into a wrong-length tuple.
        raise TypeError("VoteCount does not support + or *; accumulate() is the checked sum")

    __add__ = __radd__ = __mul__ = __rmul__ = _no_concatenation


def parse_decimal(value: str, where: str, minimum: int = 0) -> int:
    """An ASCII decimal with no sign, no padding and no leading zero."""
    if not _DECIMAL_RE.match(value):
        raise ParseError(f"{where}: expected a canonical decimal, found {value!r}")
    try:
        number = int(value)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{where}: {len(value)} digits is too many") from None
    if number < minimum:
        raise ParseError(f"{where} must be >= {minimum}")
    return number


def accumulate(reports: Iterable[VoteCount]) -> VoteCount:
    """Component-wise sum of counts; the empty sum is all zeros.

    Raises ArithmeticOverflow instead of silently producing a value no wire
    format can carry.
    """
    totals = [sum(column) for column in zip(*reports)] or [0, 0, 0, 0]
    for name, value in zip(VoteCount._fields, totals):
        if value > MAX_COUNT:
            raise ArithmeticOverflow(f"accumulated {name}={value} exceeds the 64-bit count range")
    return VoteCount(*totals)
