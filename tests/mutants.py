"""Known mutants of the program, and a check that the suite kills each one.

Each entry names a file under ``src/``, a text that must occur there
exactly once, its replacement, and the pytest node ids that must fail
once the replacement is made. Run from anywhere, with pytest and
Hypothesis installed:

    python tests/mutants.py

First every named test runs on the unmutated source and must pass. Then,
for each mutant, ``src/`` is copied to a temporary directory, the mutant
is applied there, and only its tests run, with Hypothesis derandomized.
A mutant is killed when pytest exits 1 and every test it ran failed. Exit
0 or a test that passes means it survived; exit codes 2 to 5 mean pytest
could not run the tests (a collection or usage error), which kills
nothing. Each of these fails the check, and so does an old text that no
longer occurs exactly once: a change to mutated code must update the
table. The process exits 0 only if every mutant is killed.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
ENGINE = "votewire/engine.py"
TEST_ENGINE = "tests/test_engine.py"
REFERENCE = f"{TEST_ENGINE}::TestAgainstTheReference"
INVARIANTS = f"{TEST_ENGINE}::TestTraceInvariants::test_aggregation_invariants"
REPLAYED = f"{TEST_ENGINE}::TestTraceInvariants::test_feasibility_check_replays_every_preliminary_verdict"
PARENTS = "tests/test_tree.py::TestTreeOrder::test_parents_name_each_nodes_parent"
BUILT = (
    "tests/test_tree.py::TestBuiltFromPaths"
    "::test_any_listing_gives_the_sorted_tree_and_its_own_child_order"
)
FLIPS = "votewire/flips.py"
THROUGH_THE_ENGINE = (
    "tests/test_flips.py::TestPlansThroughTheEngine"
    "::test_any_canton_level_plan_turns_the_preliminary"
)
RENDERING = f"{TEST_ENGINE}::TestRendering"
REFUSALS = f"{TEST_ENGINE}::TestRefusals"
LAZY = "tests/test_cli.py::TestLazyPackage"
CLI = "votewire/cli.py"
# The simulate tests that start with the collector on: each checks it is off
# at the parse and on again once the command ends.
GC_PAUSE = tuple(
    f"tests/test_cli.py::TestSimulateGcPause::{test}"
    for test in (
        "test_collector_is_off_from_parse_to_last_write",
        "test_unknown_scenario_field_gives_the_collector_back",
        "test_unwritable_trace_out_gives_the_collector_back",
        "test_internal_error_gives_the_collector_back",
    )
)
VERIFY = "votewire/secauth/verify.py"
PKI = "votewire/secauth/pki.py"
SECAUTH = "tests/test_secauth.py"
BY_POSITION = f"{SECAUTH}::TestGoldens::test_unknown_scheme_rejects_by_position"
ROW_BREAKS = "tests/test_analysis.py::TestRowBreaks"
AT_SCALE = "tests/test_determinism.py::test_a_federation_summary_keeps_its_pinned_bytes"
# A pytest run that takes longer has hung; it kills nothing.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "a superseded preliminary is not subtracted from the running total",
        ENGINE,
        "                    if old is not None:\n",
        "                    if False:\n",
        (
            f"{TEST_ENGINE}::TestDeepHierarchy::test_replacement_totals_supersede_older_reports",
            f"{REFERENCE}::test_a_deep_uneven_tree_matches_the_reference",
        ),
    ),
    Mutant(
        "a node forwards its final before its last child's final",
        ENGINE,
        "                        if finals_pending[i]:\n",
        "                        if finals_pending[i] > 1:\n",
        (
            f"{TEST_ENGINE}::TestDeepHierarchy::test_final_cascades_once_children_complete",
            INVARIANTS,
            f"{REFERENCE}::test_a_deep_uneven_tree_matches_the_reference",
        ),
    ),
    Mutant(
        "a final's attacks are looked up among the preliminary ones",
        ENGINE,
        "attacks_on[kind][i]",
        "attacks_on[PRELIM][i]",
        (
            f"{TEST_ENGINE}::TestAttacksInTheLoop::test_delayed_final_postpones_publication",
            INVARIANTS,
            f"{REFERENCE}::test_a_deep_uneven_tree_matches_the_reference",
        ),
    ),
    Mutant(
        "events of one tick run last scheduled first",
        ENGINE,
        "            for event in buckets[time]:\n",
        "            for event in iter(\n"
        "                lambda: buckets[time].pop() if buckets[time] else None, None\n"
        "            ):\n",
        (f"{TEST_ENGINE}::TestEventOrder::test_same_tick_events_run_in_scheduling_order",),
    ),
    Mutant(
        "jitter is redrawn at the ceiling, so the ceiling is never drawn",
        ENGINE,
        "                    while drawn > jitter_max:\n",
        "                    while drawn >= jitter_max:\n",
        tuple(
            f"{REFERENCE}::test_wide_jitter_draws_match_the_reference[{ceiling}]"
            for ceiling in (1, 7, 8, 63)
        ),
    ),
    Mutant(
        "a noise shift is redrawn above the maximum, so the maximum plus one is drawn",
        ENGINE,
        "                while drawn >= max_shift:\n",
        "                while drawn > max_shift:\n",
        tuple(
            f"{TEST_ENGINE}::TestNoise::test_the_inlined_draws_equal_randints[{shift}]"
            for shift in (1, 2, 3, 7)
        ),
    ),
    Mutant(
        "siblings keep their latest deliveries in one entry, their receiver's",
        ENGINE,
        "                    old = table[sender]\n"
        "                    table[sender] = event\n",
        "                    old = table[i]\n"
        "                    table[i] = event\n",
        (f"{REFERENCE}::test_random_runs_match_the_reference", INVARIANTS),
    ),
    # The root's children keep index 0: an index of -1 would close a cycle
    # through the last node, and a run on that tree would never end.
    Mutant(
        "a node's parent index is that of the node listed before its parent",
        "votewire/tree.py",
        "here = len(order) - 1\n",
        "here = max(len(order) - 2, 0)\n",
        (PARENTS, INVARIANTS, f"{REFERENCE}::test_random_runs_match_the_reference"),
    ),
    Mutant(
        "each node lists its children in reverse of the order the paths name them",
        "votewire/tree.py",
        " for s in below]\n"
        "                )\n"
        "                stack.extend(zip(reversed(kids), reversed(below.values()),",
        " for s in reversed(below)]\n"
        "                )\n"
        "                stack.extend(zip(reversed(kids), below.values(),",
        (BUILT,),
    ),
    Mutant(
        "a node a weight or voter key names is built afresh, not taken from the key",
        "votewire/tree.py",
        "named.get(text + s) or JurisdictionId",
        "JurisdictionId",
        (BUILT,),
    ),
    Mutant(
        "a leaf's preliminary emit tick defaults to that of its final",
        ENGINE,
        "emits = ([0] * len(leaves),",
        "emits = ([self.final_emit_default] * len(leaves),",
        (
            f"{TEST_ENGINE}::TestHonestRun::test_emit_times_respect_configuration",
            f"{REFERENCE}::test_random_runs_match_the_reference",
        ),
    ),
    Mutant(
        "a delivery's channel is read from the node before its sender",
        "votewire/traces.py",
        "channel={postal if kind else channels[node]}",
        "channel={postal if kind else channels[node - 1]}",
        (
            f"{RENDERING}::test_text_matches_the_reference",
            f"{REFERENCE}::test_bundled_scenarios_match_the_reference[swiss_tamper]",
        ),
    ),
    Mutant(
        "a tree reads a path given as a str as its characters",
        "votewire/tree.py",
        "            if isinstance(p, str):\n",
        "            if False:\n",
        tuple(
            f"tests/test_tree.py::TestJurisdictionTree::test_rejects_a_str_path[{paths}-{build}]"
            for paths in ("all", "one")
            for build in ("JurisdictionTree", "tree_from_paths")
        ),
    ),
    Mutant(
        "freshness is keyed by the receiver, so siblings share sequence numbers",
        ENGINE,
        "elif accept(sender, what):",
        "elif accept(i, what):",
        (
            REPLAYED,
            f"{REFERENCE}::test_random_runs_match_the_reference",
            f"{REFERENCE}::test_a_deep_uneven_tree_matches_the_reference",
        ),
    ),
    Mutant(
        "a canton extends a selection that already holds it",
        FLIPS,
        "        for h, entry in enumerate(best):\n",
        "        for h, entry in enumerate(row):\n",
        (
            "tests/test_acceptance.py::test_criterion_2_cantonal_selection",
            "tests/test_cli.py::TestFlip::test_double_flip_selects_cheapest_cantons",
        ),
    ),
    Mutant(
        "an equally cheap selection with the later canton replaces one without it",
        FLIPS,
        "entry[0] + cost < row[reach][0]",
        "entry[0] + cost <= row[reach][0]",
        (
            "tests/test_flips.py::TestCantonalSolver::test_equal_cost_plans_keep_the_earlier_canton",
            "tests/test_flips.py::TestCantonalSolver::test_three_equal_cantons_need_one_more",
        ),
    ),
    Mutant(
        "a stale refusal lowers the last accepted sequence number",
        "votewire/reports.py",
        "        if sequence_no <= self._last.get(sender, 0):\n"
        "            return False\n",
        "        if sequence_no <= self._last.get(sender, 0):\n"
        "            self._last[sender] = sequence_no\n"
        "            return False\n",
        (f"{TEST_ENGINE}::TestFeasibility::test_sequence_must_strictly_grow",),
    ),
    Mutant(
        "verify_report checks freshness without the state's lock",
        VERIFY,
        "    with seq_state.lock:\n",
        "    if True:\n",
        (f"{SECAUTH}::TestSequenceState::test_at_most_one_accept_under_concurrency",),
    ),
    Mutant(
        "the chain walk refuses a bad anchor as a broken chain",
        VERIFY,
        "    issuer, reason = trusted_root, RejectReason.UNTRUSTED_ROOT\n",
        "    issuer, reason = trusted_root, RejectReason.BROKEN_CHAIN\n",
        (
            f"{BY_POSITION}[root]",
            f"{SECAUTH}::TestVerifyReasons::test_foreign_root_is_untrusted",
            f"{SECAUTH}::TestVerifyReasons::test_missing_middle_link_is_broken",
        ),
    ),
    Mutant(
        "a signer of another scheme is verified as Ed25519",
        PKI,
        "    if signer.scheme != schemes.NAME:\n",
        "    if False:\n",
        tuple(f"{BY_POSITION}[{at}]" for at in ("root", "inner-link", "chain-head")),
    ),
    Mutant(
        "a payload the wire cannot encode raises out of the verifier",
        PKI,
        "    except EncodingError:\n",
        "    except ZeroDivisionError:\n",
        tuple(
            f"{SECAUTH}::TestVerifyReasons::test_an_unencodable_report_is_rejected_not_raised[{at}]"
            for at in ("equals", "line-feed")
        ),
    ),
    Mutant(
        "the tree's weight and voter keys are parsed into separate ids",
        "votewire/scenario.py",
        "        if not isinstance(value, str) or value not in ids:\n",
        "        if True:\n",
        tuple(
            "tests/test_scenario.py::TestParsedIdentity"
            f"::test_every_key_is_a_node_of_the_tree[{doc}]"
            for doc in ("custom", "deep")
        ),
    ),
    Mutant(
        "a final publication lists the root's latest preliminaries",
        "votewire/traces.py",
        "latest[kind].values()",
        "latest[PRELIM].values()",
        (
            f"{RENDERING}::test_shared_and_equal_entry_tuples_render_alike",
            f"{REFERENCE}::test_a_deep_uneven_tree_matches_the_reference",
        ),
    ),
    Mutant(
        "a delivery's receiver is read from the sender's index",
        "votewire/traces.py",
        'f"deliver t={time} from={texts[node]} to={ups[node]} "',
        'f"deliver t={time} from={texts[node]} to={texts[node]} "',
        (
            f"{RENDERING}::test_shared_and_equal_entry_tuples_render_alike",
            f"{REFERENCE}::test_a_deep_uneven_tree_matches_the_reference",
        ),
    ),
    Mutant(
        "the overall outcome needs a cantonal acceptance under the popular-only rule",
        "votewire/tally.py",
        "self.cantonal is not Decision.REJECTED",
        "self.cantonal is Decision.ACCEPTED",
        (
            "tests/test_tally.py::TestReferendumOutcome::test_popular_only_rule_ignores_cantonal_split",
            "tests/test_cli.py::TestFlip::test_popular_flip_total",
        ),
    ),
    Mutant(
        "a verdict reads as accepted whatever its reason",
        VERIFY,
        "        return self.reason is None\n",
        "        return True\n",
        (
            f"{SECAUTH}::TestWireFormat::test_single_byte_mauls_never_verify",
            f"{SECAUTH}::TestSequenceState::test_redelivery_in_any_order_accepts_each_seq_once",
        ),
    ),
    Mutant(
        "a canton's flips to accept under-count by one",
        FLIPS,
        "        k = (counts.no - counts.yes) // 2 + 1\n",
        "        k = (counts.no - counts.yes) // 2\n",
        (f"{THROUGH_THE_ENGINE}[Decision.ACCEPTED]",),
    ),
    Mutant(
        "a canton's flips to reject under-count by one",
        FLIPS,
        "    return (counts.yes - counts.no + 1) // 2\n",
        "    return (counts.yes - counts.no) // 2\n",
        (f"{THROUGH_THE_ENGINE}[Decision.REJECTED]",),
    ),
    Mutant(
        "a plan's total is its largest canton's flips",
        FLIPS,
        "        return sum(self.flips_per_canton.values())\n",
        "        return max(self.flips_per_canton.values(), default=0)\n",
        (
            "tests/test_cli.py::TestFlip::test_double_flip_selects_cheapest_cantons",
            "tests/test_flips.py::TestOutcomeSolver::test_rejection_takes_the_cheaper_cantonal_plan",
        ),
    ),
    Mutant(
        "a trust store loads a root whose self-signature fails",
        PKI,
        "        if not _signed_by(root_cert, root_cert.payload, root_cert.issuer_signature):\n",
        "        if False:\n",
        tuple(
            f"{SECAUTH}::TestTrustStore::test_a_root_whose_self_signature_fails_is_refused[{byte}]"
            for byte in (0, 31, 63)
        ),
    ),
    Mutant(
        "a signed channel lets a front-run through",
        "votewire/adversary.py",
        "    if channel.signed and kind is not AttackKind.DELAY:\n",
        "    if channel.signed and kind is AttackKind.TAMPER:\n",
        tuple(
            "tests/test_adversary.py::TestCapabilityGating"
            f"::test_front_run_blocked_by_authenticity[channel{i}]"
            for i in range(5)
        ),
    ),
    Mutant(
        "a divergent delivery is listed only by the first publication that lists it",
        "votewire/adversary.py",
        "            latest[sender] = index\n",
        "            latest[sender] = -1\n"
        "            if index >= 0:\n"
        "                append(time)\n"
        "                append(index)\n",
        (
            f"{TEST_ENGINE}::TestAttacksInTheLoop::test_tamper_changes_prelim_but_never_final",
            f"{TEST_ENGINE}::TestAuditAgainstTheReference::test_audit_matches_the_reference",
            AT_SCALE,
        ),
    ),
    Mutant(
        "a line takes the tail of the previous divergent delivery",
        "votewire/adversary.py",
        "{tails[index]}",
        "{tails[index - 1]}",
        (
            f"{RENDERING}::test_text_matches_the_reference",
            f"{RENDERING}::test_one_reported_count_under_two_children_and_two_finals",
            f"{RENDERING}::test_divergences_that_share_child_and_counts_keep_their_own_final",
            AT_SCALE,
        ),
    ),
    Mutant(
        "the package imports the flip solvers eagerly",
        "votewire/__init__.py",
        "from importlib import import_module\n",
        "from importlib import import_module\n\nfrom . import flips\n",
        (
            f"{LAZY}::test_a_simulation_loads_neither_flips_nor_tally",
            f"{LAZY}::test_a_bare_import_loads_no_submodule",
        ),
    ),
    Mutant(
        "a summary section that lists all its items still says how many more",
        "votewire/adversary.py",
        "if shown < count else",
        "if shown <= count else",
        (f"{RENDERING}::test_text_matches_the_reference", AT_SCALE),
    ),
    Mutant(
        "a front-run's default sequence offset is 999",
        "votewire/adversary.py",
        "    seq_offset: int = 1000\n",
        "    seq_offset: int = 999\n",
        ("tests/test_adversary.py::TestAttackApplication::test_forged_report_shadows_the_genuine_sender",),
    ),
    Mutant(
        "a table row may hold a line break other than LF or CRLF",
        "votewire/swiss.py",
        "    if stray:\n",
        "    if False:\n",
        (
            f"{ROW_BREAKS}::test_a_line_separator_does_not_split_a_row",
            f"{ROW_BREAKS}::test_a_cr_only_file_is_refused",
            "tests/test_swiss.py::test_a_cr_only_table_is_refused",
            "tests/test_swiss.py::test_a_line_separator_in_a_name_is_refused_by_its_row",
        ),
    ),
    Mutant(
        "a table row may hold more or fewer fields than its header",
        "votewire/swiss.py",
        "                if len(row) != len(header):\n",
        "                if False:\n",
        (
            "tests/test_analysis.py::TestParsing::test_short_row_reports_row_number",
            "tests/test_analysis.py::TestParsing::test_a_ninth_field_is_refused",
            "tests/test_swiss.py::test_a_sixth_field_is_refused",
            "tests/test_swiss.py::test_a_short_row_is_refused_by_its_field_count",
        ),
    ),
    Mutant(
        "a table row may leave a quote open or follow it with text",
        "votewire/swiss.py",
        "    reader = csv.reader(text.splitlines(), strict=True)\n",
        "    reader = csv.reader(text.splitlines(), strict=False)\n",
        (
            f"{ROW_BREAKS}::test_a_quote_that_never_closes_is_refused",
            f"{ROW_BREAKS}::test_text_after_a_closing_quote_is_refused",
            "tests/test_swiss.py::test_a_quote_that_never_closes_is_refused",
            "tests/test_swiss.py::test_text_after_a_closing_quote_is_refused",
        ),
    ),
    Mutant(
        "the renderer drops a refused delivery's detect line",
        "votewire/traces.py",
        "                    append(\n"
        "                        f\"detect t=",
        "                    (\n"
        "                        f\"detect t=",
        (
            f"{REFUSALS}::test_the_refusal_run_keeps_its_pinned_text",
            f"{REFUSALS}::test_a_refusal_appends_one_record_and_renders_two_lines",
            f"{REFERENCE}::test_a_deep_uneven_tree_matches_the_reference",
        ),
    ),
    Mutant(
        "the audit's scan skips the refused rows",
        "votewire/adversary.py",
        "    row = tags.find(REFUSE)\n",
        "    row = -1\n",
        (
            f"{REFUSALS}::test_the_refusal_run_keeps_its_pinned_text",
            f"{TEST_ENGINE}::TestAttacksInTheLoop::test_front_run_wins_and_genuine_is_stale",
            f"{TEST_ENGINE}::TestAuditAgainstTheReference::test_audit_matches_the_reference",
        ),
    ),
    Mutant(
        "simulate leaves the collector off when it returns",
        CLI,
        "            gc.enable()\n",
        "            pass\n",
        GC_PAUSE,
    ),
    Mutant(
        "simulate pauses the collector only after the scenario is parsed",
        CLI,
        "    gc.disable()\n    try:\n        config = load_scenario(args.scenario)\n",
        "    try:\n        config = load_scenario(args.scenario)\n        gc.disable()\n",
        GC_PAUSE,
    ),
)

# -rA's summary: one line per test, its outcome first.
_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS)\b", re.MULTILINE)


def run_tests(src: Path, tests: tuple[str, ...]) -> tuple[int, list[str]]:
    """Pytest's exit code and each test's outcome, importing votewire from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
        "--hypothesis-profile=derandomized", *tests,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return -1, []
    return done.returncode, _OUTCOME.findall(done.stdout)


def imported_from(src: Path) -> Path:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    code = "import votewire; print(votewire.__file__)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    return Path(out.stdout.strip())


def check(mutant: Mutant, scratch: Path) -> str | None:
    """None if ``mutant`` is killed, else why not."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / mutant.path
    text = target.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        return f"its old text occurs {found} times in src/{mutant.path}, not once"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    if src not in imported_from(src).parents:
        return "votewire is not imported from the mutated copy"
    code, outcomes = run_tests(src, mutant.tests)
    if code == -1:
        return f"its tests ran past {TIMEOUT_S} s"
    if code != 1:
        return f"pytest exited {code}"
    if not outcomes or set(outcomes) != {"FAILED"}:
        return f"its tests ended {', '.join(sorted(set(outcomes)))}"
    return None


def main() -> int:
    named = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    code, outcomes = run_tests(ROOT / "src", named)
    if code != 0 or set(outcomes) != {"PASSED"}:
        print(f"the named tests must pass on the unmutated source; pytest exited {code}")
        return 1
    print(f"unmutated: {len(outcomes)} named tests pass")
    failures = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as scratch:
            why = check(mutant, Path(scratch))
        seconds = time.perf_counter() - start
        verdict = "killed" if why is None else f"NOT KILLED: {why}"
        print(f"{verdict:>10}  {seconds:5.1f} s  {mutant.name}")
        failures += why is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
