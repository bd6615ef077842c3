"""votewire benchmark: one workload per run, metrics as JSON on the last line.

    python3 bench/run.py --workload federation-cli --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from anywhere; the program under test is the ``src/votewire`` next to
this directory. The load is a closed loop with one client in one thread:
each operation starts when the previous one and its output check are done.
Reported times are scaled to a reference machine speed (speed.py); the
raw wall times are printed beside them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with
tracing off. ``--trace 1`` alternates untraced and traced operations and
reports the per-layer metrics, computed from spans of the traced ones;
the spans are written to ``.bench_out/``. ``--smoke`` runs every workload
at its smallest size, traced and untraced, with all checks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5

# Per-layer metrics: self time per traced operation, summed over spans
# whose name matches, or is under, the given prefix.
PER_OP_SECONDS = {
    "scenario.parse_s": "scenario.parse",
    "scenario.build_s": "scenario.build",
    "tree.build_s": "tree.build",
    "engine.build_s": "engine.build",
    "engine.run_s": "engine.run",
    "adversary.audit_s": "adversary.audit",
    "traces.render_s": "traces.render",
    "cli.residual_s": "cli.",
    "bench.residual_s": "bench.",
}
# Per-layer metrics: mean time per call of one span, as (span, scale, self
# time or whole span).
PER_CALL = {
    "secauth.provision_s": ("secauth.provision", 1.0, "self"),
    "secauth.sign_us": ("secauth.sign", 1e6, "self"),
    "secauth.encode_us": ("secauth.encode", 1e6, "self"),
    "secauth.decode_us": ("secauth.decode", 1e6, "self"),
    "secauth.verify_us.d1": ("secauth.verify.d1", 1e6, "self"),
    "secauth.verify_us.d2": ("secauth.verify.d2", 1e6, "self"),
    "secauth.verify_us.d3": ("secauth.verify.d3", 1e6, "self"),
    "secauth.verify_reject_us": ("secauth.verify.reject", 1e6, "self"),
    "swiss.tree_us": ("swiss.tree", 1e6, "self"),
    "analysis.load_results_us": ("analysis.load_results", 1e6, "self"),
    "analysis.final_counts_us": ("analysis.final_counts", 1e6, "self"),
    "analysis.discrepancy_us": ("analysis.discrepancy", 1e6, "self"),
    "flips.popular_us": ("flips.popular", 1e6, "self"),
    "flips.double_us": ("flips.double", 1e6, "self"),
    "tally.outcome_us": ("tally.outcome", 1e6, "self"),
    **{
        f"cli.{command}_ms": (f"cli.{command}", 1e3, "total")
        for command in (
            "simulate_honest", "simulate_tamper", "simulate_delay_noise",
            "flip_popular", "flip_double", "analyze", "keys",
        )
    },
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["federation-cli", "federation-lib", "signed-transport", "cli-small"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at its smallest size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def probe_setup(workload: str, seed: int, smoke: bool, samples: int) -> tuple[list[float], list[float]]:
    """Raw and scaled set-up times from fresh interpreters, so each pays the full import."""
    import speed

    command = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    if smoke:
        command.append("--smoke")
    raw, scaled = [], []
    for _ in range(samples):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        seconds, reference = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * speed.NOMINAL_S / reference)
    return raw, scaled


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "votewire").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, workload: str, seconds: float, ops: int, long_ops: bool, reference) -> dict:
    import cryptography

    return {
        "git_rev": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": seconds,
        "trace": bool(args.trace),
        "timed_ops": ops,
        "warmup_ops": 0 if long_ops else 1,
        "speed_reference_s": reference,
    }


def run_ops(wl, tracer, sampler, seconds: float, min_ops: int):
    """The closed loop. Returns [(traced, raw seconds, start, end)], attempted, failures."""
    failures: list[str] = []
    attempted = 0

    def one(index: int, traced: bool) -> tuple[bool, float, float, float]:
        nonlocal attempted
        op_input = wl.next_input(index)
        if wl.long_ops:
            gc.collect()
        attempted += 1
        end = None
        spent = sampler.spent
        start = time.perf_counter()
        try:
            if traced:
                tracer.op = index
                with tracer.span(wl.root_span):
                    output = wl.run_op(op_input, tracer)
            else:
                output = wl.run_op(op_input, None)
            end = time.perf_counter()
            spent = sampler.spent - spent
            problems = wl.check(index, op_input, output)
        except Exception as exc:  # noqa: BLE001 - a crash in an operation or its check fails that operation
            if end is None:
                end, spent = time.perf_counter(), sampler.spent - spent
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"op {index}: " + "; ".join(problems[:3]))
        return traced, end - start - spent, start, end

    # One untimed warm-up keeps lazy loading out of short operations' tail.
    if not wl.long_ops:
        one(-1, False)
    ops: list[tuple[bool, float, float, float]] = []
    began = time.perf_counter()
    index = 0
    while True:
        ops.append(one(index, tracer is not None and index % 2 == 1))
        last = ops[-1][1]
        index += 1
        # Stop once another operation as long as the last would end more
        # than half its length past the window, so a run lasts about
        # --seconds whatever the operation length.
        if index >= min_ops and time.perf_counter() - began + last / 2 > seconds:
            break
    return ops, attempted, failures


class Times:
    """Operation durations, raw and scaled to reference speed, split by traced."""

    def __init__(self, ops, sampler, setup_window: tuple[float, float]) -> None:
        self.factors = {-1: sampler.factor(*setup_window)}
        self.raw: dict[bool, list[float]] = {False: [], True: []}
        self.scaled: dict[bool, list[float]] = {False: [], True: []}
        for op, (traced, seconds, start, end) in enumerate(ops):
            self.factors[op] = sampler.factor(start, end)
            self.raw[traced].append(seconds)
            self.scaled[traced].append(seconds * self.factors[op])


def op_timing(times: list[float], records: float, reports: float) -> dict[str, float]:
    cuts = statistics.quantiles(times, n=100, method="inclusive") if len(times) > 1 else times * 99
    busy = sum(times)
    return {
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": cuts[89] * 1e3,
        "op_p99_ms": cuts[98] * 1e3,
        "records_per_s": records * len(times) / busy,
        "reports_per_s": reports * len(times) / busy,
    }


def layer_metrics(spec: dict, tracer, wl, times: Times) -> tuple[dict[str, float], list[str]]:
    problems = []
    rows = [
        (name, op, self_s * times.factors[op], total_s * times.factors[op], top)
        for name, op, self_s, total_s, top in tracer.rows()
    ]
    traced_ops = sorted({op for _, op, _, _, _ in rows if op >= 0})
    roots = {op: 0.0 for op in traced_ops}
    selfs = {op: 0.0 for op in traced_ops}
    for _name, op, self_s, total_s, top in rows:
        if op >= 0:
            selfs[op] += self_s
            roots[op] += total_s if top else 0.0
    for op in traced_ops:
        if abs(selfs[op] - roots[op]) > 1e-6:
            problems.append(f"op {op}: self times sum to {selfs[op]} s of {roots[op]} s")

    def per_op(prefix: str) -> float:
        match = (lambda n: n.startswith(prefix)) if prefix.endswith(".") else (lambda n: n == prefix)
        total = sum(s for name, op, s, _, _ in rows if op >= 0 and match(name))
        return total / len(traced_ops)

    def per_call(span: str, scale: float, which: str) -> float:
        values = [s if which == "self" else t for name, _, s, t, _ in rows if name == span]
        return statistics.fmean(values) * scale if values else 0.0

    values: dict[str, float] = {name: per_op(prefix) for name, prefix in PER_OP_SECONDS.items()}
    values.update({name: per_call(*how) for name, how in PER_CALL.items()})
    counters = wl.counters()
    values.update(counters)
    records = counters.get("engine.records", 0)
    values["engine.us_per_record"] = values["engine.run_s"] / records * 1e6 if records else 0.0
    render = values["traces.render_s"]
    values["traces.mb_per_s"] = counters.get("traces.bytes", 0) / render / 1e6 if render else 0.0
    values["trace_overhead"] = statistics.median(times.scaled[True]) / statistics.median(times.scaled[False]) - 1
    metrics = {}
    for entry in spec["per_layer"]:
        metrics[entry["name"]] = {"value": values.pop(entry["name"], 0.0), "unit": entry["unit"]}
    if values:
        problems.append(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    breakdown: dict[str, float] = {}
    for name, op, self_s, _, _ in rows:
        if op >= 0:
            layer = name.split(".")[0]
            breakdown[layer] = breakdown.get(layer, 0.0) + self_s
    whole = sum(roots.values())
    print("layer self time, share of traced operation wall time:")
    for layer, seconds in sorted(breakdown.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {seconds / len(traced_ops):12.6f} s/op  {100 * seconds / whole:6.2f}%")
    return metrics, problems


def run(args, spec: dict, digests: dict, workload: str, seconds: float, min_ops: int = 1) -> dict:
    import workloads
    from spans import Tracer
    from speed import Sampler

    workdir = ROOT / ".bench_out" / f"work-{workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.make(workload, args.seed, args.smoke, ROOT, workdir, digests)
        setup_raw, setup_scaled = ([], []) if args.trace else probe_setup(
            workload, args.seed, args.smoke, 1 if args.smoke else SETUP_PROBES
        )
        tracer = Tracer() if args.trace else None
        sampler = Sampler()
        with sampler.running():
            setup_start = time.perf_counter()
            wl.setup(tracer)
            setup_window = (setup_start, time.perf_counter())
            ops, attempted, failures = run_ops(
                wl, tracer, sampler, seconds, max(min_ops, 2 if tracer else 1)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = Times(ops, sampler, setup_window)
    meta = metadata(args, workload, seconds, len(ops), wl.long_ops, statistics.median(sampler.samples))
    print("meta " + json.dumps(meta))
    if tracer:
        metrics, problems = layer_metrics(spec, tracer, wl, times)
        failures += problems
        tracer.write(ROOT / ".bench_out" / f"spans-{workload}-seed{args.seed}.json", meta)
    else:
        scaled = op_timing(times.scaled[False], wl.records_per_op, wl.reports_per_op)
        raw = op_timing(times.raw[False], wl.records_per_op, wl.reports_per_op)
        scaled["setup_s"], raw["setup_s"] = statistics.median(setup_scaled), statistics.median(setup_raw)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        scaled["peak_rss_mb"] = raw["peak_rss_mb"] = usage.ru_maxrss / 1024
        scaled["ok_rate"] = raw["ok_rate"] = 1 - len(failures) / attempted
        metrics = {e["name"]: {"value": scaled[e["name"]], "unit": e["unit"]} for e in spec["end_to_end"]}
    print(
        f"{workload} seed {args.seed}: {len(ops)} timed operations "
        f"({len(times.raw[True])} traced), {attempted} checked, {len(failures)} failed"
    )
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    if tracer:
        for name, metric in metrics.items():
            print(f"  {name:<32} {metric['value']:>16.6f} {metric['unit']}")
    else:
        units = {e["name"]: e["unit"] for e in spec["end_to_end"]} | {"op_p99_ms": "ms"}
        print(f"  {'metric':<16} {'scaled':>16} {'raw':>16}")
        for name, value in scaled.items():
            print(f"  {name:<16} {value:>16.6f} {raw[name]:>16.6f} {units[name]}")
        print(f"  {'error_rate':<16} {len(failures) / attempted:>16.6f} {'':>16} ratio "
              f"({len(failures)} of {attempted}; op times from {len(times.raw[False])} samples)")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "votewire" / "__init__.py").is_file():
        print(f"error: no votewire sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    digests = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    if not args.smoke:
        result = run(args, spec, digests, args.workload, args.seconds)
        print(json.dumps(result))
        return 0
    import workloads

    bad = []
    for workload in ("federation-cli", "federation-lib", "signed-transport", "cli-small"):
        for trace in (0, 1):
            args.trace = trace
            min_ops = workloads.SMOKE_SIGNED_REPORTS if workload == "signed-transport" else 1
            result = run(args, spec, digests, workload, 0.0, min_ops)
            if not result["correct"]:
                bad.append(f"{workload} trace={trace}")
    print("smoke: " + ("FAILED " + ", ".join(bad) if bad else "all workloads correct"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
