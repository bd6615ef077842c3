"""The trace of a run: one row of integer columns per record.

Every observable step of a run becomes exactly one record, and each record
renders to one stable text line of space-separated key=value fields,
except a refused delivery: its line is followed by the receiver's
``detect`` line, derived from the same row. Two runs with the same
configuration and seed produce byte-identical text, which makes traces
diffable and suitable as golden files.

A record is a fixed-stride row of integers in one ``array('q')``, not an
object: ids, kinds and strings are indices into small per-trace tables. A
large run's ~90k records then hold no object the cyclic collector scans,
so a caller that keeps a trace pays no collector pass over it.
``EventTrace.to_text`` renders every row in one loop, one f-string per
line.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from typing import Callable, TypeVar

from .channels import POSTAL_FINAL
from .counts import VoteCount
from .reports import ReportKind
from .tree import JurisdictionId, JurisdictionTree


_T = TypeVar("_T")


def nogc(build: Callable[..., _T]) -> Callable[..., _T]:
    """Run ``build`` with the cyclic garbage collector paused.

    A large run allocates ~100k short-lived event tuples, and the collector
    would rescan the young ones over and over, although none takes part in
    a reference cycle: reference counting frees them all. Without the
    pauses the collector ran ~35 ms of each federation-lib run and ~15 ms
    of each audit, but a benchmark operation took 692 ms (median) against
    685 ms with them, faster with them in 4 of 6 alternating pairs: within
    noise, now that the audit keeps ~10k objects (Python 3.11, 2 vCPUs).
    Whatever ``build`` does, ``gc.isenabled()`` is restored afterwards. A
    pause inside another pause is a no-op, so the pauses on
    ``Simulation.run`` and ``detection_report`` serve library callers and
    change nothing under ``simulate``'s own pause.

    The pause moves one scan, it does not remove it: what the paused call
    allocates still counts towards the next collection, so the first
    tracked allocation after the outermost pause ends scans everything the
    call left alive. A caller that drops its output before the pause ends
    pays none of that scan, because reference counting has already freed
    it: ``simulate`` pauses around the whole command for that reason. A
    caller that keeps the output pays one pass over it. A trace and the
    summary's divergences are arrays, so that pass is over ~7k refusals and
    ~3.5k divergent deliveries: 5-6 ms of CPU after a federation-lib
    benchmark operation (a run of 10,400 leaves, audited and rendered),
    against ~35 ms when each divergence was an object (Python 3.11).

    Survivors are not promoted with ``gc.freeze(); gc.unfreeze()``, which
    would skip that pass: unfreezing puts every object then alive, such
    as the CLI's argument parser, in the oldest generation, and freezing
    zeroes the counts that would start the full collection that frees it.
    Measured on Python 3.11: after 300 ``simulate`` commands in one
    process ~58k garbage objects were waiting against ~2k without it, and
    a 25 s run of the benchmark's cli-small workload (the README's seven
    commands, repeated) peaked at 74 MB resident instead of 36 MB.
    """

    @functools.wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


# A row's columns, in order. ``tag`` says what the row records, and
# ``node`` is an index into ``tree.order()``: the emitter, a delivery's or
# an attack's sender (the receiver is its parent), or the root. ``kind``
# is PRELIM or FINAL. A publication's ``seq`` holds how many entries it
# lists. ``code`` is a refusal's index into ``reasons``, a publication's
# offset into ``entries``, or an attack's index into ``attacks``; else 0.
# A row number times STRIDE is the row's offset in ``rows``.
COLUMNS = ("tag", "time", "node", "kind", "seq", "yes", "no", "blank", "invalid", "code")
STRIDE = len(COLUMNS)
EMIT, DELIVER, REFUSE, PUBLISH, ATTACK = range(5)
PRELIM, FINAL = 0, 1
KIND_TEXTS = (ReportKind.PRELIMINARY.value, ReportKind.FINAL.value)


@dataclass(frozen=True)
class EventTrace:
    """A finished run: its rows, and the tables they index.

    ``rows`` holds ``STRIDE`` integers per record, laid out as ``COLUMNS``
    says, in read-only signed 64-bit columns. A publication lists the
    root's latest accepted delivery from each covered child, in tree child
    order: its entries are the row numbers of those deliveries, so
    consecutive publications share the rows they list. ``parents`` gives
    each node's parent index (the root's is 0), ``channels`` each node's
    preliminary channel (finals ride the postal one), ``reasons`` each
    refusal's text, and ``attacks`` each configured attack's kind, mode
    and detail.
    """

    election_id: str
    seed: int
    tree: JurisdictionTree
    ground_truth: dict[JurisdictionId, VoteCount]
    rows: memoryview
    entries: memoryview
    parents: tuple[int, ...]
    channels: tuple[str, ...]
    reasons: tuple[str, ...]
    attacks: tuple[tuple[str, str, str], ...]

    def to_text(self) -> str:
        """The header, one line per record, a refused delivery's detect line
        after it, and the footer, each ending in a newline.

        Each line is one f-string over one row's unpacked columns, node and
        kind texts read by index from tuples built once per call. A
        publication's entry text is rendered once per delivery row it
        names, in a table that lives for this call.
        """
        rows = self.rows
        texts = tuple(node._text for node in self.tree.order())
        # Each node's parent text: the receiver of what the node sends.
        ups = tuple(texts[up] for up in self.parents)
        channels, postal = self.channels, POSTAL_FINAL.name
        reasons, attacks, entries = self.reasons, self.attacks, self.entries
        entry_texts: dict[int, str] = {}
        lines = [f"trace election={self.election_id} seed={self.seed}"]
        append = lines.append
        # One tuple per row: STRIDE references to one iterator.
        for tag, time, node, kind, seq, yes, no, blank, invalid, code in zip(
            *[iter(rows)] * STRIDE
        ):
            if tag == EMIT:
                append(
                    f"emit t={time} node={texts[node]} kind={KIND_TEXTS[kind]} seq={seq} "
                    f"yes={yes} no={no} blank={blank} invalid={invalid}"
                )
            elif tag == DELIVER or tag == REFUSE:
                line = (
                    f"deliver t={time} from={texts[node]} to={ups[node]} "
                    f"channel={postal if kind else channels[node]} kind={KIND_TEXTS[kind]} "
                    f"seq={seq} yes={yes} no={no} blank={blank} invalid={invalid} "
                )
                if tag == DELIVER:
                    append(f"{line}accepted=true")
                else:
                    reason = reasons[code]
                    append(f"{line}accepted=false reason={reason}")
                    append(
                        f"detect t={time} node={ups[node]} reason={reason} "
                        f"child={texts[node]} seq={seq}"
                    )
            elif tag == PUBLISH:
                parts = []
                for row in entries[code:code + seq]:
                    text = entry_texts.get(row)
                    if text is None:
                        at = row * STRIDE
                        child_seq, e_yes, e_no, e_blank, e_invalid = rows[at + 4:at + 9]
                        text = entry_texts[row] = (
                            f"{texts[rows[at + 2]]}:{child_seq}:{e_yes}:{e_no}:{e_blank}:{e_invalid}"
                        )
                    parts.append(text)
                append(
                    f"publish t={time} node={texts[node]} kind={KIND_TEXTS[kind]} "
                    f"yes={yes} no={no} blank={blank} invalid={invalid} "
                    f"children={','.join(parts)}"
                )
            else:
                attack, mode, detail = attacks[code]
                append(
                    f"attack t={time} kind={attack} from={texts[node]} "
                    f"to={ups[node]} mode={mode} detail={detail}"
                )
        # The footer counts the lines above it but the header: a refused
        # delivery wrote two. It carries the final newline, so the text is
        # joined once.
        append(f"end records={len(lines) - 1}\n")
        return "\n".join(lines)
