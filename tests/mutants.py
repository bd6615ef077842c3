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
        "events of one tick run last scheduled first",
        ENGINE,
        "            for kind, i, what, counts in buckets[time]:\n",
        "            for kind, i, what, counts in iter(\n"
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
        "a child's slot is its rank among its siblings' sorted ids",
        ENGINE,
        "            for position, child in enumerate(kids):\n",
        "            for position, child in enumerate(sorted(kids)):\n",
        (f"{REFERENCE}::test_random_runs_match_the_reference",),
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
        "votewire/secauth/verify.py",
        "    with seq_state.lock:\n",
        "    if True:\n",
        ("tests/test_secauth.py::TestSequenceState::test_at_most_one_accept_under_concurrency",),
    ),
    Mutant(
        "a front-run's default sequence offset is 999",
        "votewire/adversary.py",
        "    seq_offset: int = 1000\n",
        "    seq_offset: int = 999\n",
        ("tests/test_adversary.py::TestAttackApplication::test_forged_report_shadows_the_genuine_sender",),
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
