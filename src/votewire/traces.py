"""The trace of a run: one row of integer columns per record.

Every observable step of a run becomes exactly one record, and each record
renders to one stable text line of space-separated key=value fields,
except a refused delivery: its line is followed by the receiver's
``detect`` line, derived from the same row. Two runs with the same
configuration and seed produce byte-identical text, which makes traces
diffable and suitable as golden files.

A record is a fixed-stride row of integers in one ``array('q')``, not an
object: nodes, reasons and attacks are indices, into tables of the trace's
``Simulation`` or into ``REASONS``. A large run's ~90k records then hold
no object the cyclic collector scans, so a caller that keeps a trace pays
no collector pass over it. ``EventTrace.to_text`` renders every row in
one loop, one f-string per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .channels import POSTAL_FINAL
from .reports import ReportKind

if TYPE_CHECKING:
    from .engine import Simulation


# A row's columns, in order. ``tag`` says what the row records, and
# ``node`` is an index into ``tree.order()``: the emitter, a delivery's or
# an attack's sender (the receiver is its parent), or the root. ``kind``
# is PRELIM or FINAL. A publication's ``seq`` is 0. ``code`` is a
# refusal's index into ``REASONS`` or an attack's index into
# ``Simulation.attacks``; else 0. A row number times STRIDE is the row's
# offset in ``rows``.
COLUMNS = ("tag", "time", "node", "kind", "seq", "yes", "no", "blank", "invalid", "code")
STRIDE = len(COLUMNS)
EMIT, DELIVER, REFUSE, PUBLISH, ATTACK = range(5)
PRELIM, FINAL = 0, 1
KIND_TEXTS = (ReportKind.PRELIMINARY.value, ReportKind.FINAL.value)
# A refused delivery's reason, by its code.
REASONS = ("over_eligible", "stale_sequence")


@dataclass(frozen=True)
class EventTrace:
    """A finished run: the ``Simulation`` that ran, and its rows.

    ``rows`` holds ``STRIDE`` integers per record, laid out as ``COLUMNS``
    says, in read-only signed 64-bit columns. A publication lists the
    root's latest accepted delivery from each child before it, in tree
    child order; no row stores that list, so a reader rebuilds it in row order.
    """

    simulation: Simulation
    rows: memoryview

    def to_text(self) -> str:
        """The header, one line per record, a refused delivery's detect line
        after it, and the footer, each ending in a newline.

        Each line is one f-string over one row's unpacked columns, node and
        kind texts read by index from tuples built once per call. An
        accepted delivery to the root renders its entry text once, into its
        child's slot of its kind's table; a publication joins the slots set.
        """
        sim = self.simulation
        order, parents = sim.tree.order(), sim.tree.parents()
        texts = tuple(node._text for node in order)
        # Each node's parent text: the receiver of what the node sends.
        ups = tuple(texts[up] for up in parents)
        # Per report kind, each root child's latest entry text, in child order.
        kids = [i for i, up in enumerate(parents) if i and not up]
        latest = (dict.fromkeys(kids), dict.fromkeys(kids))
        # Each node's preliminary channel; the root sends nothing.
        channels = ("", *(spec.name for spec in sim._specs[1:]))
        postal = POSTAL_FINAL.name
        attacks = tuple((a.kind.value, a.mode, a.describe()) for a in sim.attacks)
        lines = [f"trace election={sim.election_id} seed={sim.seed}"]
        append = lines.append
        # One tuple per row: STRIDE references to one iterator.
        for tag, time, node, kind, seq, yes, no, blank, invalid, code in zip(
            *[iter(self.rows)] * STRIDE
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
                    if not parents[node]:
                        latest[kind][node] = f"{texts[node]}:{seq}:{yes}:{no}:{blank}:{invalid}"
                else:
                    reason = REASONS[code]
                    append(f"{line}accepted=false reason={reason}")
                    append(
                        f"detect t={time} node={ups[node]} reason={reason} "
                        f"child={texts[node]} seq={seq}"
                    )
            elif tag == PUBLISH:
                append(
                    f"publish t={time} node={texts[node]} kind={KIND_TEXTS[kind]} "
                    f"yes={yes} no={no} blank={blank} invalid={invalid} "
                    f"children={','.join(filter(None, latest[kind].values()))}"
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
