"""Record the output digests the benchmark checks against.

Run it only at a commit whose outputs are known good: the digests pin
trace bytes and CLI output, so any later change to them fails the
benchmark's checks.

    python3 bench/record_digests.py --seeds 100

Federation traces are recorded through the library path, for seeds
0 to N-1 at every federation size; federation-cli then checks that the
CLI reproduces the library's bytes. cli-small records the bundled
scenarios' traces and summaries.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    digests: dict[str, dict[str, str]] = {}
    for shape in (workloads.SMOKE, workloads.FEDERATION_CLI, workloads.FEDERATION_LIB):
        table = digests[f"federation-{shape.leaves}"] = {}
        for seed in range(args.seeds):
            text, _summary = workloads.FederationLib(seed, shape, {}).run_op(None, None)
            table[str(seed)] = workloads.sha256(text.encode("utf-8"))
            print(f"federation-{shape.leaves} seed {seed}: {table[str(seed)]}", flush=True)

    workdir = ROOT / ".bench_out" / "record-cli-small"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        round_ = workloads.CliSmall(0, ROOT, workdir, {})
        output = round_.run_op(None, None)
        failed = [name for name, (code, _) in output.items() if code != 0]
        if failed:
            raise SystemExit(f"commands failed: {failed}")
        digests["cli-small"] = {
            name: workloads.sha256(data)
            for name, data in round_.artifacts().items()
            if name.startswith("swiss_")
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
