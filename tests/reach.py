"""Which ``def``s in ``src/`` no user path reaches, and why each may stay.

Run from anywhere, with pytest and Hypothesis installed:

    python tests/reach.py

First the user paths run in this process under ``sys.setprofile``: every
``$ votewire`` command and ``python`` block of README.md, ``simulate`` on
its scenario block, and ``simulate`` on each bundled scenario. Then the
test suite runs, in this process, under the same hook. Every ``def`` under
``src/votewire`` that no user path called is printed with how the suite
reached it, and with its one-line reason from ``TEST_ONLY``.

The process exits 1 when the suite fails, when a ``def`` no user path
reaches is missing from ``TEST_ONLY``, or when ``TEST_ONLY`` names a
``def`` that a user path reaches or that does not exist: so no code stays
in ``src/`` for its own tests alone without a reason written down here.
Calls made in a subprocess are not seen, so a ``def`` reached only there
reads as unreached.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "votewire"
README = ROOT / "README.md"
_BLOCK = re.compile(r"^```(\w+)\n(.*?)^```$", re.MULTILINE | re.DOTALL)

SIGNED = "the signed wire format or trust-store reading, which the engine does not run yet (ROADMAP item 6)"
OPTION = "a documented scenario option that no bundled scenario or README command uses"
SAFETY = "a safety override: it refuses an operation that would build an unchecked value"
LIBRARY = "a library entry point documented for callers that build runs in Python"

# Each ``def`` no user path reaches, as ``path:qualname`` under src/, and why it stays.
TEST_ONLY = {
    "votewire/__init__.py:__dir__": "module dir() for interactive callers; tested in a subprocess",
    "votewire/adversary.py:DetectionSummary.clean": "only tests ask; to decide with the interval summary (ROADMAP item 7)",
    "votewire/counts.py:VoteCount._make": SAFETY,
    "votewire/counts.py:VoteCount._no_concatenation": SAFETY,
    "votewire/flips.py:min_flips_outcome": "flip --rule double on an accepted referendum, which no README command runs",
    "votewire/reports.py:Report._make": SAFETY,
    "votewire/scenario.py:_channel_spec": OPTION,
    "votewire/scenario.py:_counts": OPTION,
    "votewire/scenario.py:_path_key": OPTION,
    "votewire/scenario.py:_preset_name": OPTION,
    "votewire/scenario.py:load_tree": "keys --tree on a file, which the README runs on the Swiss preset only",
    "votewire/scenario.py:tree_from_config.key": OPTION,
    "votewire/secauth/encoding.py:parse_fields": SIGNED,
    "votewire/secauth/encoding.py:parse_hex": SIGNED,
    "votewire/secauth/encoding.py:parse_node": SIGNED,
    "votewire/secauth/encoding.py:split_lines": SIGNED,
    "votewire/secauth/pki.py:KeyHandle.__repr__": "keeps private key bytes out of any printed handle",
    "votewire/secauth/pki.py:TrustStore.load": SIGNED,
    "votewire/secauth/pki.py:_certificate_file": SIGNED,
    "votewire/secauth/pki.py:build_certificate": SIGNED,
    "votewire/secauth/pki.py:certificate_from_text": SIGNED,
    "votewire/secauth/signing.py:signed_report_from_text": SIGNED,
    "votewire/secauth/signing.py:signed_report_to_text": SIGNED,
    "votewire/secauth/verify.py:RevocationList.with_revoked": SIGNED,
    "votewire/tree.py:JurisdictionId.__reduce__": "pickling support: loading rebuilds, and so checks, the id",
    "votewire/tree.py:JurisdictionId.__repr__": "debugging output; no user path prints an id's repr",
    "votewire/tree.py:JurisdictionId._no_concatenation": SAFETY,
    "votewire/tree.py:JurisdictionId.from_text": LIBRARY,
    "votewire/tree.py:tree_from_paths": LIBRARY,
}


def defs() -> dict[tuple[str, int], str]:
    """Every ``def`` under src/votewire, keyed by (file, line) of its ``def``
    and of its first decorator, each naming ``path:qualname``."""
    found: dict[tuple[str, int], str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{where}:{prefix}{child.name}"
                    for line in (child.lineno, *(d.lineno for d in child.decorator_list)):
                        found[str(path), line] = name
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


class Reach:
    """The code objects called while a ``with`` block runs, in any thread."""

    def __init__(self) -> None:
        self.codes: set[CodeType] = set()

    def _hook(self, frame, event, _arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    def __enter__(self) -> "Reach":
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]

    def names(self, known: dict[tuple[str, int], str]) -> set[str]:
        return {
            known[key] for code in self.codes
            if (key := (code.co_filename, code.co_firstlineno)) in known
        }


def readme_blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return [body for lang, body in _BLOCK.findall(text) if lang == language]


def user_paths(scratch: Path) -> None:
    """Every README command and python block, and each scenario simulated."""
    from votewire import cli
    from votewire.scenario import bundled_scenario_path

    commands = []
    for body in readme_blocks("sh"):
        lines = body.splitlines()
        if lines[0].startswith("$ votewire"):
            command = lines.pop(0)
            while command.endswith("\\"):
                command = command[:-1] + lines.pop(0)
            command = command.replace("/tmp/run.trace", str(scratch / "run.trace"))
            commands.append(shlex.split(command.replace("./trust", str(scratch / "trust")))[2:])
    (scenario,) = readme_blocks("json")
    (scratch / "readme.json").write_text(scenario, encoding="utf-8")
    scenarios = [scratch / "readme.json"] + [
        bundled_scenario_path(name) for name in ("swiss_honest", "swiss_tamper", "swiss_delay_noise")
    ]
    for path in scenarios:
        commands.append([
            "simulate", "--scenario", str(path),
            "--trace-out", str(scratch / "run.trace"), "--summary-out", str(scratch / "run.summary"),
        ])
    # The README's paths are relative to the repository root.
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                if cli.main(argv) != 0:
                    raise SystemExit(f"votewire {shlex.join(argv)} failed")
            for source in readme_blocks("python"):
                exec(compile(source, str(README), "exec"), {})
    finally:
        os.chdir(cwd)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import pytest

    known = defs()
    with tempfile.TemporaryDirectory() as scratch, Reach() as users:
        user_paths(Path(scratch))
    with Reach() as suite:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code != 0:
        print(f"the suite failed: pytest exited {code}")
        return 1
    by_users, by_suite = users.names(known), suite.names(known)
    every = set(known.values())
    unreached = sorted(every - by_users)
    print(f"\nuser paths reach {len(by_users)} of {len(every)} defs; the others:")
    failures = 0
    for name in unreached:
        how = "suite" if name in by_suite else "none "
        reason = TEST_ONLY.get(name)
        if reason is None:
            failures += 1
            reason = "NOT LISTED: reached by no user path and given no reason"
        print(f"  {how}  {name}  {reason}")
    for name in sorted(set(TEST_ONLY) - set(unreached)):
        failures += 1
        state = "a user path reaches it" if name in every else "no such def"
        print(f"  STALE  {name}  listed, but {state}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
