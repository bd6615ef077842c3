"""Command-line entry point.

Four subcommands: simulate (run a scenario, write trace and detection
summary), analyze (discrepancy statistics over a results CSV), flip
(minimum-flip plan for one referendum), and keys (provision a trust-store
directory for a jurisdiction tree). Human-readable output goes to stdout;
machine artifacts are written only where an explicit flag points.

Exit status: 0 success, 1 internal error, 2 user or configuration error.
A file that cannot be read or written (``OSError``) is a user error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import sys
from pathlib import Path

from .adversary import detection_report
from .analysis import canton_final_counts, discrepancy_stats, load_results
from .counts import accumulate
from .errors import MissingCanton, VotewireError
from .flips import min_flips_double, min_flips_outcome, min_flips_popular
from .scenario import build_simulation, load_scenario, load_tree
from .secauth import provision_tree
from .swiss import canton_names, swiss_tree
from .tally import Decision, MajorityRule, ReferendumSpec, referendum_outcome

SUMMARY_HEADER = ("canton", "max_abs_discrepancy", "final_total_at_max", "max_relative_percent")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process, since every parser is a reference cycle;
    # parse_args fills a new namespace on each call.
    parser = argparse.ArgumentParser(
        prog="votewire",
        description="Deterministic election-result aggregation: simulate, analyze, flip, keys.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    simulate = sub.add_parser("simulate", help="run a scenario file and audit the trace")
    simulate.add_argument("--scenario", required=True, help="scenario JSON file")
    simulate.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    simulate.add_argument("--trace-out", default=None, help="write the full event trace here")
    simulate.add_argument("--summary-out", default=None, help="write the detection summary here")
    simulate.set_defaults(func=cmd_simulate)

    analyze = sub.add_parser("analyze", help="preliminary-vs-final discrepancy statistics")
    analyze.add_argument("--results", required=True, help="results CSV file")
    analyze.add_argument("--out", default=None, help="write the per-canton summary CSV here")
    analyze.set_defaults(func=cmd_analyze)

    flip = sub.add_parser("flip", help="minimum ballot flips that change a referendum outcome")
    flip.add_argument("--results", required=True, help="results CSV file")
    flip.add_argument("--referendum", required=True, help="referendum_id to assess")
    flip.add_argument(
        "--rule", choices=[r.value for r in MajorityRule], default=MajorityRule.DOUBLE_MAJORITY.value
    )
    flip.set_defaults(func=cmd_flip)

    keys = sub.add_parser("keys", help="provision certificates for a jurisdiction tree")
    keys.add_argument(
        "--tree", required=True, help='tree or scenario JSON file, or "swiss" for the Swiss tree'
    )
    keys.add_argument("--out-dir", required=True, help="trust-store directory to write")
    keys.add_argument("--seed", type=int, default=None, help="derive all keys deterministically")
    keys.set_defaults(func=cmd_keys)
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    """Parse, run, audit, render and write with the cyclic collector paused.

    The command drops everything it builds before it returns, and none of
    it takes part in a reference cycle, so reference counting frees it all
    inside the pause and the collector has nothing left to scan afterwards:
    a federation-cli operation took 209 ms (median) with the pause against
    214 ms without, slower without it in 5 of 6 pairs (Python 3.11, 2
    vCPUs). Promoting survivors with ``gc.freeze(); gc.unfreeze()`` instead
    strands them in the oldest generation: a 25 s cli-small run then peaked
    at 74 MB resident instead of 36 MB.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        config = load_scenario(args.scenario)
        simulation = build_simulation(config, seed=args.seed)
        trace = simulation.run()
        summary = detection_report(trace)
        if args.trace_out:
            Path(args.trace_out).write_text(trace.to_text(), encoding="utf-8")
        if args.summary_out:
            # The file gets the untruncated listing; stdout stays skimmable.
            Path(args.summary_out).write_text(summary.to_text(max_items=0), encoding="utf-8")
        sys.stdout.write(summary.to_text())
        return 0
    finally:
        if enabled:
            gc.enable()


def cmd_analyze(args: argparse.Namespace) -> int:
    records = load_results(args.results)
    if not records:
        if args.out:
            Path(args.out).write_text(",".join(SUMMARY_HEADER) + "\r\n", encoding="utf-8")
        print("no records")
        return 0
    summary = discrepancy_stats(records)
    rows = [
        (s.canton, s.max_abs_discrepancy, s.total_at_max, f"{s.max_relative_percent():.2f}")
        for s in summary.per_canton
    ]
    for canton, discrepancy, total, percent in rows:
        print(f"{canton:>3}  max {discrepancy:>7} of {total:>9}  {percent:>5}%")
    print(f"federal average discrepancy: {float(summary.federal_average_discrepancy):.1f}")
    print(
        "average max cantonal discrepancy: "
        f"{float(summary.average_max_cantonal_discrepancy):.1f}"
    )
    if args.out:
        with Path(args.out).open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(SUMMARY_HEADER)
            writer.writerows(rows)
    return 0


def cmd_flip(args: argparse.Namespace) -> int:
    records = load_results(args.results)
    rows = [r for r in records if r.referendum_id == args.referendum]
    if not rows:
        known = sorted({r.referendum_id for r in records})
        raise MissingCanton(
            f"no records for referendum {args.referendum!r}; file has: {', '.join(known)}"
        )
    tree = swiss_tree()
    per_canton = canton_final_counts(rows, tree)
    spec = ReferendumSpec(args.referendum, MajorityRule(args.rule))
    outcome = referendum_outcome(spec, per_canton, tree)
    target = outcome.overall.opposite()

    if spec.majority_rule is MajorityRule.POPULAR_ONLY:
        plan = min_flips_popular(accumulate(per_canton.values()), target)
    elif target is Decision.ACCEPTED:
        # The plan min_flips_outcome would return; called by this module's
        # name so bench/workloads.py can time the double solver by rebinding it.
        plan = min_flips_double(per_canton, tree, target)
    else:
        plan = min_flips_outcome(per_canton, tree, target)

    print(f"referendum: {args.referendum}")
    print(f"rule: {spec.majority_rule.value}")
    print(f"outcome: {outcome.overall.value}")
    print(f"target: {target.value}")
    names = canton_names()
    for canton, flips in sorted(
        plan.flips_per_canton.items(), key=lambda kv: "" if kv[0] is None else str(kv[0])
    ):
        if canton is None:
            print(f"  national: {flips}")
        else:
            label = names.get(canton.name, canton.name)
            print(f"  {canton.name} {label}: {flips}")
    print(f"total_flips: {plan.total_flips}")
    return 0


def cmd_keys(args: argparse.Namespace) -> int:
    tree = swiss_tree() if args.tree == "swiss" else load_tree(args.tree)
    seed = None if args.seed is None else f"keys:{args.seed}".encode("utf-8")
    provisioned = provision_tree(tree, seed=seed)
    out_dir = Path(args.out_dir)
    provisioned.save(out_dir)
    print(f"root: {provisioned.root_certificate.subject}")
    print(f"scheme: {provisioned.root_certificate.scheme}")
    print(f"certificates: {len(provisioned.certificates)}")
    print(f"wrote: {out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VotewireError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
