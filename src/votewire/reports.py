"""Result reports exchanged between jurisdictions, and the per-sender
freshness state every receiver keeps."""

from __future__ import annotations

import enum
import threading
from typing import Hashable, Iterable, NamedTuple

from .counts import VoteCount
from .tree import JurisdictionId


class ReportKind(enum.Enum):
    PRELIMINARY = "preliminary"
    FINAL = "final"


class _ReportFields(NamedTuple):
    election_id: str
    sender: JurisdictionId
    sequence_no: int
    counts: VoteCount
    kind: ReportKind
    emitted_at: int


class Report(_ReportFields):
    """One upward message: full replacement totals for the sender's subtree.

    Reports are totals, never deltas, so a lost or reordered message cannot
    corrupt an aggregate; the latest accepted report per sender wins.
    Sequence numbers start at 1 and are per (sender, election).

    An immutable tuple, cheap to build, checked in its constructor.
    """

    __slots__ = ()

    def __new__(
        cls,
        election_id: str,
        sender: JurisdictionId,
        sequence_no: int,
        counts: VoteCount,
        kind: ReportKind,
        emitted_at: int,
    ) -> "Report":
        if not election_id:
            raise ValueError("election_id must be non-empty")
        if sequence_no < 1:
            raise ValueError("sequence_no starts at 1")
        if emitted_at < 0:
            raise ValueError("emitted_at must be >= 0 ticks")
        return tuple.__new__(cls, (election_id, sender, sequence_no, counts, kind, emitted_at))

    @classmethod
    def _make(cls, values: Iterable) -> "Report":
        # namedtuple's own _make, which _replace calls too, skips the checks.
        return cls(*values)


class SequenceState:
    """Last accepted sequence number per sender, for one election.

    ``verify_report`` keys a sender by its id, a run by its index in
    ``tree.order()``, which hashes faster. ``accept_if_fresh`` alone is not
    atomic: a caller sharing the state between threads holds ``lock``
    around it, as ``verify_report`` does, so one (sender, sequence_no) is
    accepted at most once. A run takes no lock.
    """

    def __init__(self, election_id: str) -> None:
        self.election_id = election_id
        self.lock = threading.Lock()
        self._last: dict[Hashable, int] = {}

    def accept_if_fresh(self, sender: Hashable, sequence_no: int) -> bool:
        if sequence_no <= self._last.get(sender, 0):
            return False
        self._last[sender] = sequence_no
        return True
