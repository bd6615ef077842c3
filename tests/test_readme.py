"""The README's examples run as printed.

Every ``python`` block is executed in a fresh namespace. A line of the
form ``expression  # value`` documents a result, so the expression is
evaluated afterwards and its repr must read ``value``. The ``json`` block
is a scenario document and must parse and build. Every ``sh`` block that
starts with ``$ votewire`` is run through ``cli.main`` from the repository
root, with its output paths moved to a temporary directory, and the lines
it shows must appear in order in stdout; a ``...`` line stands for any
number of lines.
"""

import re
import shlex
from pathlib import Path

import pytest

from votewire import cli
from votewire.analysis import bundled_results_path, canton_final_counts, discrepancy_stats, load_results
from votewire.counts import accumulate
from votewire.flips import min_flips_popular
from votewire.scenario import build_simulation, parse_scenario
from votewire.swiss import FEDERAL_CODE, swiss_tree
from votewire.tally import popular_outcome
from votewire.tree import JurisdictionId

from oracles import final_publish

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# Paths the README's commands write to, and where the test puts them.
OUTPUT_PATHS = {"/tmp/run.trace": "run.trace", "./trust": "trust"}
_BLOCK = re.compile(r"^```(\w+)\n(.*?)^```$", re.MULTILINE | re.DOTALL)
_DOCUMENTED = re.compile(r"^(?P<expr>[\w.]+)\s+#\s+(?P<value>\S.*)$")


def blocks(language: str) -> list[str]:
    return [body for lang, body in _BLOCK.findall(README.read_text(encoding="utf-8")) if lang == language]


def test_readme_has_the_documented_blocks():
    assert len(blocks("python")) == 3
    assert len(blocks("json")) == 1


@pytest.mark.parametrize("source", blocks("python"), ids=lambda s: s.splitlines()[0])
def test_python_block_runs(source):
    namespace: dict = {}
    exec(compile(source, str(README), "exec"), namespace)
    for line in source.splitlines():
        documented = _DOCUMENTED.match(line)
        if documented:
            value = eval(documented["expr"], namespace)
            assert repr(value) == documented["value"], line


def test_json_scenario_block_builds():
    (text,) = blocks("json")
    config = parse_scenario(text)
    assert config.channels[JurisdictionId.of("CH", "BL")].signed
    trace = build_simulation(config).run()
    assert final_publish(trace).counts.yes == 1_128_522


def test_the_flip_and_the_discrepancy_are_compared_in_one_unit():
    rows = [r for r in load_results(bundled_results_path("rtvg_2015")) if r.referendum_id == "rtvg-2015"]
    national = accumulate(canton_final_counts(rows, swiss_tree()).values())
    flips = min_flips_popular(national, popular_outcome(national).opposite()).total_flips
    # A discrepancy is |Δyes| + |Δno|, and a flip moves each by one.
    stats = discrepancy_stats(load_results(bundled_results_path("discrepancy_maxima")))
    worst = max(
        (s for s in stats.per_canton if s.canton != FEDERAL_CODE), key=lambda s: s.max_abs_discrepancy
    )
    assert worst.max_abs_discrepancy > 2 * flips
    sentence = (
        f"the {flips} flips such an attack needs read as a discrepancy of {2 * flips}. "
        f"A single canton, {worst.canton}, has misreported by {worst.max_abs_discrepancy}, "
        "more than that"
    )
    assert sentence in " ".join(README.read_text(encoding="utf-8").split())


def cli_examples() -> list[tuple[str, list[str]]]:
    """(command, shown output lines) for every ``$ votewire`` sh block."""
    examples = []
    for body in blocks("sh"):
        lines = body.splitlines()
        if not lines[0].startswith("$ votewire"):
            continue
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        examples.append((command.removeprefix("$ "), lines))
    return examples


CLI_EXAMPLES = cli_examples()


def test_readme_has_the_documented_cli_examples():
    commands = [shlex.split(command)[1] for command, _ in CLI_EXAMPLES]
    assert commands == ["flip", "flip", "analyze", "simulate", "keys"]


def example_id(command: str) -> str:
    """The subcommand and its first argument's file name: ``flip rtvg_2015.csv``."""
    args = shlex.split(command)
    return f"{args[1]} {Path(args[3]).name}"


@pytest.mark.parametrize(
    "command,shown", CLI_EXAMPLES, ids=[example_id(command) for command, _ in CLI_EXAMPLES]
)
def test_cli_example_prints_what_the_readme_shows(command, shown, tmp_path, monkeypatch, capsys):
    for path, name in OUTPUT_PATHS.items():
        command = command.replace(path, str(tmp_path / name))
        shown = [line.replace(path, str(tmp_path / name)) for line in shown]
    monkeypatch.chdir(ROOT)
    assert cli.main(shlex.split(command)[1:]) == 0
    printed = capsys.readouterr().out.splitlines()
    segments: list[list[str]] = [[]]
    for line in shown:
        if line.strip() == "...":
            segments.append([])
        else:
            segments[-1].append(line)
    start = 0
    for segment in segments:
        matches = [
            i for i in range(start, len(printed) - len(segment) + 1)
            if printed[i:i + len(segment)] == segment
        ]
        assert matches, f"{segment} not printed after line {start} of {printed}"
        start = matches[0] + len(segment)
