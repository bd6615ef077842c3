"""Bundled scenario outputs are byte-identical across processes and hash seeds.

String hashes are randomised per process, so a trace that depended on set
or dict iteration order over jurisdiction ids would differ between
interpreters even though two runs inside one process agree. Each
``PYTHONHASHSEED`` below gets a fresh interpreter, and every trace and
summary it writes must match the digests pinned in ``bench/digests.json``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import votewire

DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"
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
