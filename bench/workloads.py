"""The benchmark's workloads: inputs, one operation, and output checks.

Each workload generates its inputs from the seed before anything is
timed, runs one operation per ``run_op`` call and checks every output in
``check``. ``run_op`` takes a Tracer or None; with a Tracer it records a
span around each call into a votewire layer. The first operation of a run
is checked in full; later ones must reproduce its output digest, which
carries every check over to them.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import gen
from spans import direct
from votewire import cli
from votewire.adversary import AttackKind, AttackSpec, Mutation, MutationKind, detection_report
from votewire.analysis import canton_final_counts, load_results
from votewire.channels import EMAIL
from votewire.counts import VoteCount, accumulate
from votewire.engine import NoiseModel, Simulation
from votewire.flips import apply_flips
from votewire.reports import Report, ReportKind
from votewire.secauth import (
    EMPTY_CRL,
    SequenceState,
    TrustStore,
    provision_tree,
    sign_report,
    signed_report_from_text,
    signed_report_to_text,
    verify_report,
)
from votewire.secauth.verify import RejectReason
from votewire.swiss import swiss_tree
from votewire.tally import Decision, MajorityRule, ReferendumSpec, popular_outcome, referendum_outcome
from votewire.traces import EventTrace
from votewire.tree import JurisdictionId, tree_from_paths

FEDERATION_CLI = gen.Shape(cantons=26, municipalities=25)  # 2,600 leaves
FEDERATION_LIB = gen.Shape(cantons=26, municipalities=100)  # 10,400 leaves
SIGNED = gen.Shape(cantons=26, municipalities=25)  # 3,277 certificates
SMOKE = gen.Shape(cantons=26, municipalities=4)  # 416 leaves
SMOKE_SIGNED_REPORTS = 300

# Names votewire.cli imported, and the two methods cmd_simulate calls,
# rebound to traced wrappers for the duration of a traced operation.
CLI_TARGETS = (
    (cli, "load_scenario", "scenario.parse"),
    (cli, "build_simulation", "scenario.build"),
    (Simulation, "run", "engine.run"),
    (cli, "detection_report", "adversary.audit"),
    (EventTrace, "to_text", "traces.render"),
    (cli, "load_results", "analysis.load_results"),
    (cli, "canton_final_counts", "analysis.final_counts"),
    (cli, "discrepancy_stats", "analysis.discrepancy"),
    (cli, "swiss_tree", "swiss.tree"),
    (cli, "referendum_outcome", "tally.outcome"),
    (cli, "min_flips_popular", "flips.popular"),
    (cli, "min_flips_double", "flips.double"),
    (cli, "provision_tree", "secauth.provision"),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str], tracer, span: str) -> tuple[int, str]:
    out = io.StringIO()
    call = tracer.call if tracer else direct
    with redirect_stdout(out), redirect_stderr(out):
        code = call(span, cli.main, argv)
    return code, out.getvalue()


class Workload:
    root_span = "bench.op"
    # An operation lasting seconds: collect garbage before each one, so
    # every one starts from the same heap, and skip the warm-up, since the
    # operation rebuilds all its state from its inputs.
    long_ops = False
    records_per_op = 1
    reports_per_op = 1

    def setup(self, tracer) -> None:
        """One-time program set-up, timed as part of setup_s."""

    def next_input(self, index: int):
        return None

    def counters(self) -> dict[str, float]:
        """Per-layer counts taken from outputs and verdicts."""
        return {}


# --- federation -------------------------------------------------------------


def trace_stats(text: str, fed: gen.Federation) -> tuple[dict[str, int], list[str]]:
    """Counts of each record kind, plus problems found in the trace."""
    problems: list[str] = []
    lines = text.splitlines()
    kinds = {"emit": 0, "deliver": 0, "publish": 0, "attack": 0, "detect": 0}
    rejected = 0
    emitted: dict[tuple[str, str], int] = {}
    leaves = set(fed.leaves)
    final_publish = None
    for line in lines[1:-1]:
        kind, _, rest = line.partition(" ")
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "emit":
            fields = dict(f.split("=", 1) for f in rest.split(" "))
            if fields["node"] in leaves:
                key = (fields["node"], fields["kind"])
                emitted[key] = emitted.get(key, 0) + 1
        elif kind == "deliver" and " accepted=false" in rest:
            rejected += 1
        elif kind == "publish" and " kind=final " in rest:
            final_publish = rest
    records = len(lines) - 2
    if lines[-1] != f"end records={records}":
        problems.append(f"trace footer {lines[-1]!r} does not match {records} records")
    for leaf in fed.leaves:
        for report_kind in ("preliminary", "final"):
            if emitted.get((leaf, report_kind), 0) != 1:
                problems.append(f"{leaf} emitted {emitted.get((leaf, report_kind), 0)} {report_kind} reports")
                break
    yes, no, blank, invalid = fed.truth_sum()
    expected = f"yes={yes} no={no} blank={blank} invalid={invalid} "
    if final_publish is None or expected not in final_publish:
        problems.append(f"final publish {final_publish!r} is not the truth sum {expected.strip()}")
    stats = {
        "engine.records": records,
        "engine.emits": kinds["emit"],
        "engine.deliveries": kinds["deliver"],
        "engine.rejected": rejected,
        "engine.publishes": kinds["publish"],
        "engine.attacks_fired": kinds["attack"],
        "engine.detects": kinds["detect"],
        "traces.bytes": len(text.encode("utf-8")),
    }
    return stats, problems


def divergences(summary_text: str) -> int:
    for line in summary_text.splitlines():
        if line.startswith("count divergences: "):
            return int(line.split(": ")[1])
    raise ValueError("summary has no count divergences line")


class Federation(Workload):
    """Shared output checks for the CLI- and library-driven federations."""

    long_ops = True

    def __init__(self, seed: int, shape: gen.Shape, recorded: dict[str, str]) -> None:
        self.fed = gen.federation(seed, shape)
        self.recorded = recorded.get(str(seed))
        self.digest: str | None = None
        self.stats: dict[str, float] = {}

    def check_outputs(self, trace_text: str, summary_text: str) -> list[str]:
        problems = []
        if "\nfinal matches ground truth: true\n" not in summary_text:
            problems.append("summary does not read 'final matches ground truth: true'")
        digest = sha256(trace_text.encode("utf-8"))
        if self.digest is None:
            self.digest = digest
            stats, found = trace_stats(trace_text, self.fed)
            problems += found
            if self.recorded is not None and digest != self.recorded:
                problems.append(f"trace sha256 {digest} differs from the recorded {self.recorded}")
            self.stats = {**stats, "adversary.divergences": divergences(summary_text)}
            self.records_per_op = stats["engine.records"]
            self.reports_per_op = stats["engine.deliveries"]
        elif digest != self.digest:
            problems.append("trace differs from the first operation's trace")
        return problems

    def counters(self) -> dict[str, float]:
        return self.stats


class FederationCli(Federation):
    """`votewire simulate` in process, on a generated scenario file."""

    root_span = "cli.main"

    def __init__(self, seed: int, shape: gen.Shape, workdir: Path, recorded: dict) -> None:
        super().__init__(seed, shape, recorded)
        scenario = workdir / "federation.json"
        scenario.write_text(self.fed.scenario_text(), encoding="utf-8")
        self.trace_out = workdir / "federation.trace"
        self.summary_out = workdir / "federation.summary"
        self.argv = [
            "simulate", "--scenario", str(scenario),
            "--trace-out", str(self.trace_out), "--summary-out", str(self.summary_out),
        ]

    def run_op(self, _input, tracer):
        with tracer.rebound(CLI_TARGETS) if tracer else nullcontext():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(out):
                code = cli.main(self.argv)
        return code, out.getvalue()

    def check(self, _index, _input, output) -> list[str]:
        code, stdout = output
        if code != 0:
            return [f"simulate exited {code}: {stdout.strip()[-200:]}"]
        problems = self.check_outputs(
            self.trace_out.read_text(encoding="utf-8"),
            self.summary_out.read_text(encoding="utf-8"),
        )
        if not stdout.startswith("detection summary\n"):
            problems.append("simulate printed no detection summary")
        return problems


class FederationLib(Federation):
    """The same federation driven through the library, with no JSON."""

    def __init__(self, seed: int, shape: gen.Shape, recorded: dict) -> None:
        super().__init__(seed, shape, recorded)
        fed = self.fed
        node = JurisdictionId.from_text
        self.paths = [tuple(leaf.split("/")) for leaf in fed.leaves]
        self.half_votes = {node(k): v for k, v in fed.half_votes.items()}
        self.eligible = {node(k): v for k, v in fed.eligible.items()}
        self.simulation_args = dict(
            election_id=fed.election_id,
            channels={node(k): EMAIL for k in fed.eligible if k != gen.ROOT},
            ground_truth={node(k): VoteCount(*v) for k, v in fed.truth.items()},
            seed=fed.engine_seed,
            prelim_emit={node(k): v for k, v in fed.prelim_emit.items()},
            final_emit_default=gen.FINAL_EMIT_DEFAULT,
            jitter_max=gen.JITTER_MAX,
            noise=NoiseModel(**gen.NOISE),
            attacks=tuple(attack_spec(a) for a in fed.attacks),
        )

    def run_op(self, _input, tracer):
        call = tracer.call if tracer else direct
        tree = call("tree.build", tree_from_paths, self.paths, self.half_votes, self.eligible)
        simulation = call("engine.build", Simulation, tree=tree, **self.simulation_args)
        trace = call("engine.run", simulation.run)
        summary = call("adversary.audit", detection_report, trace)
        text = call("traces.render", trace.to_text)
        return text, summary

    def check(self, _index, _input, output) -> list[str]:
        text, summary = output
        return self.check_outputs(text, summary.to_text(max_items=0))


def attack_spec(raw: dict) -> AttackSpec:
    edge = JurisdictionId.from_text(raw["edge"])
    kind = AttackKind(raw["kind"])
    if kind is AttackKind.TAMPER:
        mutation = raw["mutation"]
        return AttackSpec(
            kind, edge, omniscient=raw["omniscient"],
            mutation=Mutation(MutationKind(mutation["kind"]), shift=mutation.get("shift", 0)),
        )
    if kind is AttackKind.DELAY:
        return AttackSpec(kind, edge, hold_ticks=raw["hold_ticks"])
    return AttackSpec(kind, edge, forged_counts=VoteCount(**raw["forged_counts"]))


# --- signed transport -------------------------------------------------------


def signed_tree(shape: gen.Shape):
    paths = [
        tuple(gen.station_path(k, m, s).split("/"))
        for k in range(shape.cantons)
        for m in range(shape.municipalities)
        for s in range(shape.stations)
    ]
    return tree_from_paths(paths)


def provision(tree, seed: int):
    return provision_tree(tree, seed=f"bench-keys:{seed}".encode("utf-8"))


EXPECTED = {
    gen.HONEST: None,
    gen.REPLAY: RejectReason.REPLAY,
    gen.EDIT: RejectReason.BAD_SIGNATURE,
    gen.REVOKED: RejectReason.REVOKED,
}


class SignedTransport(Workload):
    """Signed report round trips over a provisioned tree, with rejects."""

    def __init__(self, seed: int, shape: gen.Shape) -> None:
        self.seed = seed
        self.election = f"bench-{seed}"
        self.tree = signed_tree(shape)
        self.revoked = [JurisdictionId.from_text(m) for m in gen.revoked_municipalities(seed, shape)]
        self.schedule = gen.signed_schedule(seed, shape)
        self.sent = 0
        self.texts: dict[int, str] = {}
        self.verdicts = {reason: 0 for reason in EXPECTED.values()}
        self.nodes: dict[str, JurisdictionId] = {}

    def setup(self, tracer) -> None:
        call = tracer.call if tracer else direct
        self.prov = call("secauth.provision", provision, self.tree, self.seed)
        self.root = self.prov.root_certificate
        self.crl = EMPTY_CRL.with_revoked(*(self.prov.certificates[m].serial for m in self.revoked))
        self.state = SequenceState(self.election)

    def next_input(self, _index: int):
        send = next(self.schedule)
        self.sent += 1
        if send.kind == gen.REPLAY:
            return send, self.texts[send.replay_of], None, None, None
        node = self.nodes.get(send.sender)
        if node is None:
            node = self.nodes[send.sender] = JurisdictionId.from_text(send.sender)
        report = Report(self.election, node, send.seq, VoteCount(*send.counts), ReportKind.PRELIMINARY, 0)
        return send, None, self.prov.keys[node], self.prov.chain(node), report

    def run_op(self, op_input, tracer):
        send, text, key, chain, report = op_input
        call = tracer.call if tracer else direct
        if text is None:
            signed = call("secauth.sign", sign_report, key, chain, report)
            text = call("secauth.encode", signed_report_to_text, signed)
            if send.edit is not None:
                pos, digit = send.edit
                at = text.index("\nyes=") + 5 + pos
                text = text[:at] + digit + text[at + 1:]
        decoded = call("secauth.decode", signed_report_from_text, text)
        span = f"secauth.verify.d{send.depth}" if send.kind == gen.HONEST else "secauth.verify.reject"
        verdict = call(span, verify_report, decoded, self.root, self.crl, self.state)
        return text, verdict

    def check(self, index, op_input, output) -> list[str]:
        send = op_input[0]
        text, verdict = output
        self.verdicts[verdict.reason] = self.verdicts.get(verdict.reason, 0) + 1
        if send.kind == gen.HONEST:
            self.texts[self.sent - 1] = text
            if len(self.texts) > 2 * gen.REPLAY_WINDOW:
                del self.texts[next(iter(self.texts))]
        if verdict.reason != EXPECTED[send.kind]:
            return [f"{send.kind} send {index} from {send.sender or send.replay_of}: verdict {verdict}"]
        return []

    def counters(self) -> dict[str, float]:
        return {
            "secauth.accepts": self.verdicts[None],
            "secauth.rejects.replay": self.verdicts[RejectReason.REPLAY],
            "secauth.rejects.bad_signature": self.verdicts[RejectReason.BAD_SIGNATURE],
            "secauth.rejects.revoked": self.verdicts[RejectReason.REVOKED],
        }


# --- cli-small --------------------------------------------------------------


class CliSmall(Workload):
    """One round of the README's seven commands."""

    root_span = "bench.round"
    SCENARIOS = ("honest", "tamper", "delay_noise")

    def __init__(self, seed: int, root: Path, workdir: Path, recorded: dict[str, str]) -> None:
        data = root / "src" / "votewire" / "data"
        self.workdir = workdir
        self.recorded = recorded
        self.trust = workdir / "trust"
        commands = [
            (
                f"simulate_{name}",
                [
                    "simulate", "--scenario", str(data / "scenarios" / f"swiss_{name}.json"),
                    "--trace-out", str(workdir / f"swiss_{name}.trace"),
                    "--summary-out", str(workdir / f"swiss_{name}.summary"),
                ],
            )
            for name in self.SCENARIOS
        ]
        commands += [
            ("flip_popular", ["flip", "--results", str(data / "rtvg_2015.csv"),
                              "--referendum", "rtvg-2015", "--rule", "popular"]),
            ("flip_double", ["flip", "--results", str(data / "family_2013.csv"),
                             "--referendum", "family-2013", "--rule", "double"]),
            ("analyze", ["analyze", "--results", str(data / "discrepancy_maxima.csv")]),
            ("keys", ["keys", "--tree", "swiss", "--out-dir", str(self.trust), "--seed", "7"]),
        ]
        # The seed fixes the order in which a round issues the commands.
        random.Random(f"cli-small:{seed}").shuffle(commands)
        self.commands = commands
        self.data = data
        self.digest: str | None = None
        self.stats: dict[str, float] = {}

    def run_op(self, _input, tracer):
        with tracer.rebound(CLI_TARGETS) if tracer else nullcontext():
            return {name: run_cli(argv, tracer, f"cli.{name}") for name, argv in self.commands}

    def artifacts(self) -> dict[str, bytes]:
        files = sorted(self.workdir.glob("swiss_*")) + sorted(self.trust.glob("*.cert"))
        return {str(path.relative_to(self.workdir)): path.read_bytes() for path in files}

    def check(self, _index, _input, output) -> list[str]:
        problems = [f"{name} exited {code}" for name, (code, _) in output.items() if code != 0]
        artifacts = self.artifacts()
        digest = hashlib.sha256()
        for name, (code, text) in sorted(output.items()):
            digest.update(f"{name}:{code}:{text}".encode("utf-8"))
        for name, data in artifacts.items():
            digest.update(name.encode("utf-8") + b"\0" + data)
        if self.digest is None:
            self.digest = digest.hexdigest()
            problems += self.check_first(output, artifacts)
        elif digest.hexdigest() != self.digest:
            problems.append("round output differs from the first round's output")
        return problems

    def check_first(self, output, artifacts) -> list[str]:
        problems = []
        for name, data in artifacts.items():
            if name in self.recorded and sha256(data) != self.recorded[name]:
                problems.append(f"{name} differs from its recorded digest")
        for name in self.recorded:
            if name not in artifacts:
                problems.append(f"{name} was not written")
        problems += self.check_flip(output["flip_popular"][1], "rtvg_2015.csv", "rtvg-2015",
                                    MajorityRule.POPULAR_ONLY, 1825)
        problems += self.check_flip(output["flip_double"][1], "family_2013.csv", "family-2013",
                                    MajorityRule.DOUBLE_MAJORITY, 1830)
        tail = output["analyze"][1].splitlines()[-2:]
        if tail != ["federal average discrepancy: 3843.0", "average max cantonal discrepancy: 3974.0"]:
            problems.append(f"analyze ends with {tail}")
        if "certificates: 27\n" not in output["keys"][1]:
            problems.append("keys did not report 27 certificates")
        store = TrustStore.load(self.trust)
        if len(store.certificates) != 27 or str(store.root_certificate.subject) != "CH":
            problems.append("written trust store does not load back with 27 certificates")
        self.stats = self.simulate_stats()
        self.records_per_op = self.stats["engine.records"]
        self.reports_per_op = self.stats["engine.deliveries"]
        return problems

    def check_flip(self, text, csv_name, referendum, rule, total) -> list[str]:
        """Re-tally the printed plan and confirm it reaches its target."""
        if f"total_flips: {total}\n" not in text:
            return [f"flip {referendum} does not print total_flips: {total}"]
        lines = text.splitlines()
        target = Decision(lines[3].removeprefix("target: "))
        plan = {}
        for line in lines[4:-1]:
            label, _, flips = line.strip().rpartition(": ")
            plan[label.split(" ")[0]] = int(flips)
        tree = swiss_tree()
        rows = [r for r in load_results(self.data / csv_name) if r.referendum_id == referendum]
        per_canton = canton_final_counts(rows, tree)
        if rule is MajorityRule.POPULAR_ONLY:
            reached = popular_outcome(apply_flips(accumulate(per_canton.values()), plan["national"], target))
        else:
            flipped = {
                canton: apply_flips(counts, plan.get(canton.name, 0), target)
                for canton, counts in per_canton.items()
            }
            reached = referendum_outcome(ReferendumSpec(referendum, rule), flipped, tree).overall
        if reached is not target or sum(plan.values()) != total:
            return [f"flip plan for {referendum} re-tallies to {reached.value}, not {target.value}"]
        return []

    def simulate_stats(self) -> dict[str, float]:
        stats: dict[str, float] = {}
        for name in self.SCENARIOS:
            text = (self.workdir / f"swiss_{name}.trace").read_text(encoding="utf-8")
            lines = text.splitlines()[1:-1]
            for key, prefix in (
                ("engine.emits", "emit "), ("engine.deliveries", "deliver "),
                ("engine.publishes", "publish "), ("engine.attacks_fired", "attack "),
                ("engine.detects", "detect "),
            ):
                stats[key] = stats.get(key, 0) + sum(1 for line in lines if line.startswith(prefix))
            stats["engine.records"] = stats.get("engine.records", 0) + len(lines)
            stats["engine.rejected"] = stats.get("engine.rejected", 0) + sum(
                1 for line in lines if line.startswith("deliver ") and " accepted=false" in line
            )
            stats["traces.bytes"] = stats.get("traces.bytes", 0) + len(text.encode("utf-8"))
            summary = (self.workdir / f"swiss_{name}.summary").read_text(encoding="utf-8")
            stats["adversary.divergences"] = stats.get("adversary.divergences", 0) + divergences(summary)
        return stats

    def counters(self) -> dict[str, float]:
        return self.stats


def make(name: str, seed: int, smoke: bool, root: Path, workdir: Path, digests: dict) -> Workload:
    if name == "federation-cli":
        shape = SMOKE if smoke else FEDERATION_CLI
        return FederationCli(seed, shape, workdir, digests[f"federation-{shape.leaves}"])
    if name == "federation-lib":
        shape = SMOKE if smoke else FEDERATION_LIB
        return FederationLib(seed, shape, digests[f"federation-{shape.leaves}"])
    if name == "signed-transport":
        return SignedTransport(seed, SMOKE if smoke else SIGNED)
    if name == "cli-small":
        return CliSmall(seed, root, workdir, digests["cli-small"])
    raise ValueError(f"unknown workload {name!r}")
