"""The README's library snippets and scenario example run as printed.

Every ``python`` block is executed in a fresh namespace. A line of the
form ``expression  # value`` documents a result, so the expression is
evaluated afterwards and its repr must read ``value``. The ``json`` block
is a scenario document and must parse and build.
"""

import re
from pathlib import Path

import pytest

from votewire.scenario import build_simulation, parse_scenario
from votewire.tree import JurisdictionId

README = Path(__file__).resolve().parents[1] / "README.md"
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
    assert trace.final_publish().counts.yes == 1_128_522
