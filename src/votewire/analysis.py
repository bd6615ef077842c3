"""Historical preliminary-vs-final discrepancy statistics.

The discrepancy of one (canton, referendum) pair is |Δyes| + |Δno| between
the preliminary and the final count; relative values divide by that
referendum's final total. The federal aggregate appears in result files as
canton code "CH".
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Iterable

from .counts import MAX_COUNT, VoteCount, parse_decimal
from .errors import ArithmeticOverflow, DuplicateRecord, MissingCanton, ParseError
from .swiss import FEDERAL_CODE, read_rows
from .tree import JurisdictionId, JurisdictionTree

RESULTS_HEADER = (
    "referendum_id",
    "date",
    "canton",
    "prelim_yes",
    "prelim_no",
    "final_yes",
    "final_no",
    "final_total",
)
# ASCII only: date.fromisoformat alone takes other forms on Python 3.11+.
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


@dataclass(frozen=True)
class HistoricalRecord:
    referendum_id: str
    canton: str
    preliminary: VoteCount
    final: VoteCount

    def discrepancy(self) -> int:
        return abs(self.preliminary.yes - self.final.yes) + abs(
            self.preliminary.no - self.final.no
        )

    def final_total(self) -> int:
        return self.final.total()

    def relative_discrepancy(self) -> Fraction:
        total = self.final_total()
        if total == 0:
            return Fraction(0)
        return Fraction(self.discrepancy(), total)


@dataclass(frozen=True)
class DiscrepancyStat:
    canton: str
    max_abs_discrepancy: int
    total_at_max: int
    max_relative: Fraction

    def max_relative_percent(self) -> float:
        return round(100 * float(self.max_relative), 2)


@dataclass(frozen=True)
class DiscrepancySummary:
    per_canton: tuple[DiscrepancyStat, ...]
    federal_average_discrepancy: Fraction
    average_max_cantonal_discrepancy: Fraction


def bundled_results_path(name: str) -> Path:
    """Filesystem path of a bundled results file, e.g. ``rtvg_2015``."""
    return Path(str(resources.files("votewire.data").joinpath(f"{name}.csv")))


def load_results(source: str | Path) -> list[HistoricalRecord]:
    """Parse a results CSV; errors carry the 1-based row number."""
    try:
        # Bytes, not text mode, whose newline translation would end a row at CR.
        text = Path(source).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source} is not UTF-8 text: {exc}") from None
    return parse_results(text)


def parse_results(text: str) -> list[HistoricalRecord]:
    """Parse results CSV text in ``read_rows``'s row grammar."""
    records: list[HistoricalRecord] = []
    seen: set[tuple[str, str]] = set()
    for where, row in read_rows(text, RESULTS_HEADER, ""):
        ref_id, date_text, canton = row[0], row[1], row[2]
        if not ref_id or not canton:
            raise ParseError(f"{where}: referendum_id and canton must be nonempty")
        try:
            if not _DATE_RE.fullmatch(date_text):
                raise ValueError("not YYYY-MM-DD")
            datetime.date.fromisoformat(date_text)  # checked, not kept: nothing reads it
        except ValueError as exc:
            raise ParseError(f"{where}: bad date {date_text!r}") from exc
        counts = []
        for name, field in zip(RESULTS_HEADER[3:], row[3:]):
            counts.append(parse_decimal(field, f"{where}: {name}"))
            if counts[-1] > MAX_COUNT:
                raise ArithmeticOverflow(
                    f"{where}: {name}={field} exceeds the 64-bit count range"
                )
        p_yes, p_no, f_yes, f_no, f_total = counts
        if f_total < f_yes + f_no:
            raise ParseError(
                f"{where}: final_total {f_total} is less than final yes+no {f_yes + f_no}"
            )
        if (ref_id, canton) in seen:
            raise DuplicateRecord(f"{where}: duplicate entry for {canton} in {ref_id}")
        seen.add((ref_id, canton))
        records.append(
            HistoricalRecord(
                referendum_id=ref_id,
                canton=canton,
                preliminary=VoteCount(yes=p_yes, no=p_no),
                # Whatever the final total holds beyond yes+no is blank/invalid.
                final=VoteCount(yes=f_yes, no=f_no, blank=f_total - f_yes - f_no),
            )
        )
    return records


def discrepancy_stats(records: Iterable[HistoricalRecord]) -> DiscrepancySummary:
    """Per-canton maxima plus the two cross-referendum averages."""
    records = list(records)
    if not records:
        raise ValueError("no records to analyze")
    by_canton: dict[str, list[HistoricalRecord]] = {}
    by_ref: dict[str, list[HistoricalRecord]] = {}
    for rec in records:
        by_canton.setdefault(rec.canton, []).append(rec)
        by_ref.setdefault(rec.referendum_id, []).append(rec)

    stats = []
    for canton, recs in by_canton.items():
        at_max = max(recs, key=lambda r: r.discrepancy())
        stats.append(
            DiscrepancyStat(
                canton=canton,
                max_abs_discrepancy=at_max.discrepancy(),
                total_at_max=at_max.final_total(),
                max_relative=max(r.relative_discrepancy() for r in recs),
            )
        )

    federal = [r for r in records if r.canton == FEDERAL_CODE]
    federal_avg = (
        Fraction(sum(r.discrepancy() for r in federal), len(federal))
        if federal
        else Fraction(0)
    )
    per_ref_max = []
    for recs in by_ref.values():
        cantonal = [r for r in recs if r.canton != FEDERAL_CODE]
        if cantonal:
            per_ref_max.append(max(r.discrepancy() for r in cantonal))
    avg_max = (
        Fraction(sum(per_ref_max), len(per_ref_max)) if per_ref_max else Fraction(0)
    )
    return DiscrepancySummary(
        per_canton=tuple(stats),
        federal_average_discrepancy=federal_avg,
        average_max_cantonal_discrepancy=avg_max,
    )


def canton_final_counts(
    records: Iterable[HistoricalRecord],
    tree: JurisdictionTree,
) -> dict[JurisdictionId, VoteCount]:
    """Final counts per canton for one referendum's records.

    The federal aggregate row is skipped; each canton of the tree must
    appear exactly once.
    """
    by_name = {c.name: c for c in tree.cantons()}
    out: dict[JurisdictionId, VoteCount] = {}
    for rec in records:
        if rec.canton == FEDERAL_CODE:
            continue
        canton = by_name.get(rec.canton)
        if canton is None:
            raise MissingCanton(f"{rec.canton} is not a canton of the given tree")
        out[canton] = rec.final
    missing = set(by_name.values()) - set(out)
    if missing:
        raise MissingCanton(
            f"no final counts for: {', '.join(sorted(c.name for c in missing))}"
        )
    return out
