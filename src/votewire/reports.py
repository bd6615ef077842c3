"""Result reports exchanged between jurisdictions, and the per-sender
freshness state every receiver keeps."""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from .counts import VoteCount
from .tree import JurisdictionId


class ReportKind(enum.Enum):
    PRELIMINARY = "preliminary"
    FINAL = "final"


@dataclass(frozen=True, slots=True)
class Report:
    """One upward message: full replacement totals for the sender's subtree.

    Reports are totals, never deltas, so a lost or reordered message cannot
    corrupt an aggregate; the latest accepted report per sender wins.
    Sequence numbers start at 1 and are per (sender, election).
    """

    election_id: str
    sender: JurisdictionId
    sequence_no: int
    counts: VoteCount
    kind: ReportKind
    emitted_at: int

    def __post_init__(self) -> None:
        if not self.election_id:
            raise ValueError("election_id must be non-empty")
        if self.sequence_no < 1:
            raise ValueError("sequence_no starts at 1")
        if self.emitted_at < 0:
            raise ValueError("emitted_at must be >= 0 ticks")


class SequenceState:
    """Last accepted sequence number per sender, for one election.

    The check-and-update is atomic, so concurrent verifications of the
    same (sender, sequence_no) yield at most one Accept.
    """

    def __init__(self, election_id: str) -> None:
        self.election_id = election_id
        self._lock = threading.Lock()
        self._last: dict[JurisdictionId, int] = {}

    def accept_if_fresh(self, sender: JurisdictionId, sequence_no: int) -> bool:
        with self._lock:
            if sequence_no <= self._last.get(sender, 0):
                return False
            self._last[sender] = sequence_no
            return True
