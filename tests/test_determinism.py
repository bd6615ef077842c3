"""Bundled scenario outputs are byte-identical across processes and hash seeds.

String hashes are randomised per process, so a trace that depended on set
or dict iteration order over jurisdiction ids would differ between
interpreters even though two runs inside one process agree. Each
``PYTHONHASHSEED`` below gets a fresh interpreter, and every trace and
summary it writes must match the digests pinned in ``bench/digests.json``.

The full summary of one generated 2,600-leaf federation, ~35k lines, is
pinned as well: no bundled scenario lists more than a few divergences.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import votewire
from votewire import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = BENCH / "digests.json"
SCENARIOS = ("swiss_honest", "swiss_tamper", "swiss_delay_noise")

_SIMULATE_ALL = """
import sys
from votewire.cli import main
from votewire.scenario import bundled_scenario_path

out_dir = sys.argv[1]
for name in sys.argv[2:]:
    code = main([
        "simulate", "--scenario", str(bundled_scenario_path(name)),
        "--trace-out", f"{out_dir}/{name}.trace",
        "--summary-out", f"{out_dir}/{name}.summary",
    ])
    if code:
        sys.exit(code)
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "2", "3"])
def test_bundled_outputs_match_pinned_digests(hash_seed, tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))["cli-small"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(Path(votewire.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", _SIMULATE_ALL, str(tmp_path), *SCENARIOS],
        env=env, check=True, capture_output=True, timeout=120,
    )
    for name in SCENARIOS:
        for suffix in ("trace", "summary"):
            data = (tmp_path / f"{name}.{suffix}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == pinned[f"{name}.{suffix}"], (
                f"{name}.{suffix} under PYTHONHASHSEED={hash_seed}"
            )


def _bench_gen():
    """``bench/gen.py``, loaded from its file: the bench is no package."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up in sys.modules while it is built.
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    return gen


def test_a_federation_summary_keeps_its_pinned_bytes(tmp_path):
    gen = _bench_gen()
    fed = gen.federation(5, gen.Shape(26, 25))
    scenario, summary = tmp_path / "federation.json", tmp_path / "federation.summary"
    scenario.write_text(fed.scenario_text(), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["simulate", "--scenario", str(scenario), "--summary-out", str(summary)])
    assert code == 0
    data = summary.read_bytes()
    assert data.startswith(b"detection summary\nfinal matches ground truth: true\ncount divergences: 34349\n")
    assert len(data.splitlines()) == 35692
    assert hashlib.sha256(data).hexdigest() == (
        "9fafc5ae411d731fd2d25000a8a10c353e377b0595226ff39479cab1b4e517b4"
    )
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == (
        "138a681b1b4aef200cf10e6642804e9a9e4adeb950b637eaed5c33fcf40a20d0"
    )
