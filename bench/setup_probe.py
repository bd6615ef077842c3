"""Time one set-up in a fresh interpreter.

Set-up is importing the votewire modules a workload uses, plus the
workload's one-time program set-up (provisioning keys and certificates for
signed-transport). Generating the tree to provision is input generation
and is not timed.

Prints the set-up time and, after it, a burst of the speed reference
(see speed.py), both in seconds, on one line.

Usage: python3 bench/setup_probe.py <workload> <seed> [--smoke]
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

IMPORTS = {
    "federation-cli": ("votewire.cli",),
    "cli-small": ("votewire.cli",),
    "federation-lib": ("votewire.tree", "votewire.engine", "votewire.adversary"),
    "signed-transport": ("votewire.tree", "votewire.secauth"),
}


def main() -> None:
    workload, seed, smoke = sys.argv[1], int(sys.argv[2]), "--smoke" in sys.argv[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    for module in IMPORTS[workload]:
        importlib.import_module(module)
    elapsed = time.perf_counter() - start
    if workload == "signed-transport":
        import workloads

        tree = workloads.signed_tree(workloads.SMOKE if smoke else workloads.SIGNED)
        start = time.perf_counter()
        workloads.provision(tree, seed)
        elapsed += time.perf_counter() - start
    import speed

    print(repr(elapsed), repr(speed.burst()))


if __name__ == "__main__":
    main()
