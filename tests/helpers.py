"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

import votewire
from votewire.counts import VoteCount
from votewire.tree import JurisdictionId, JurisdictionTree


def canton_id(code: str) -> JurisdictionId:
    return JurisdictionId.of("CH", code)


def make_canton_tree(
    weights: dict[str, int],
    eligible: dict[str, int] | None = None,
) -> JurisdictionTree:
    """Flat two-level tree: a federal root with one weighted child per code."""
    root = JurisdictionId.of("CH")
    kids = [canton_id(code) for code in weights]
    return JurisdictionTree(
        root,
        {root: kids},
        {canton_id(code): w for code, w in weights.items()},
        {canton_id(code): n for code, n in (eligible or {}).items()},
    )


def counts_strategy(max_side: int = 2000, max_other: int = 50) -> st.SearchStrategy[VoteCount]:
    return st.builds(
        VoteCount,
        yes=st.integers(0, max_side),
        no=st.integers(0, max_side),
        blank=st.integers(0, max_other),
        invalid=st.integers(0, max_other),
    )


@st.composite
def cantonal_instances(draw, max_cantons: int = 5, max_side: int = 50):
    """A random flat tree plus per-canton counts, sized for exhaustive oracles."""
    n = draw(st.integers(min_value=1, max_value=max_cantons))
    weights = {f"K{i:02d}": draw(st.sampled_from([1, 2])) for i in range(n)}
    tree = make_canton_tree(weights)
    per_canton = {
        canton_id(code): draw(counts_strategy(max_side=max_side, max_other=5))
        for code in weights
    }
    return tree, per_canton


@st.composite
def uneven_tree_paths(draw, max_depth: int | None = None) -> list[tuple[str, ...]]:
    """Leaf paths of an uneven tree of 2 to 4 levels, 1 to 3 children a node.

    ``max_depth`` 1 gives two levels: every child of the root is a leaf.
    """
    if max_depth is None:
        max_depth = draw(st.integers(1, 3))
    paths: list[tuple[str, ...]] = []

    def grow(path: tuple[str, ...]) -> None:
        depth = len(path) - 1
        if depth == max_depth or (depth > 0 and draw(st.booleans())):
            paths.append(path)
            return
        for i in range(draw(st.integers(1, 3))):
            grow((*path, f"N{i}"))

    grow(("CH",))
    return paths


def fresh_interpreter(code: str) -> str:
    """Run code in a new interpreter that imports this checkout; its stdout."""
    env = dict(os.environ)
    src = str(Path(votewire.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=60
    )
    return done.stdout
