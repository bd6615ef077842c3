"""End-to-end command-line behavior: output, files, exit codes."""

import gc
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import fresh_interpreter
from votewire import cli
from votewire.adversary import AttackKind, AttackSpec
from votewire.analysis import bundled_results_path
from votewire.channels import preset
from votewire.cli import main
from votewire.counts import VoteCount
from votewire.engine import Simulation
from votewire.errors import ConfigError
from votewire.scenario import build_simulation, bundled_scenario_path, load_scenario, parse_scenario
from votewire.secauth import TrustStore
from votewire.swiss import canton_names, load_cantons
from votewire.tree import JurisdictionId, tree_from_paths

RTVG = str(bundled_results_path("rtvg_2015"))
FAMILY = str(bundled_results_path("family_2013"))
MAXIMA = str(bundled_results_path("discrepancy_maxima"))
HONEST = str(bundled_scenario_path("swiss_honest"))
TAMPER = str(bundled_scenario_path("swiss_tamper"))
# sha256 over name, NUL and bytes of each certificate file, sorted by
# name, that `keys --tree swiss --seed 7` writes; recorded when keys could
# still choose between signature schemes.
SWISS_SEED7_STORE = "5ee1fa4b08570e4af328bea3e2ac2d3bc2eb7ff89478347f6f6b64cb67e3f7ac"


def store_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*.cert")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


class TestSimulate:
    def test_honest_run_reports_no_divergence(self, capsys):
        assert main(["simulate", "--scenario", HONEST]) == 0
        out = capsys.readouterr().out
        assert "count divergences: 0" in out
        assert "final matches ground truth: true" in out

    def test_tamper_run_reports_divergence_window(self, capsys):
        assert main(["simulate", "--scenario", TAMPER]) == 0
        out = capsys.readouterr().out
        assert "count divergences: 3" in out
        assert "child=CH/BL" in out
        assert "integrity gap ticks: 165" in out
        assert "final matches ground truth: true" in out

    def test_stdout_lists_ten_items_per_section(self, tmp_path, capsys):
        summary = tmp_path / "run.summary"
        assert main(["simulate", "--scenario", TAMPER, "--summary-out", str(summary)]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("coverage gaps: 25")
        assert lines[start + 11:start + 13] == ["  ... 15 more", "detect events: 0"]
        # The file lists all 25 gaps; stdout shows the first 10 of them.
        full = summary.read_text(encoding="utf-8").splitlines()
        assert full[start:start + 11] == lines[start:start + 11]
        assert full[start + 26] == "detect events: 0"

    def test_trace_and_summary_files(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        summary = tmp_path / "run.summary"
        code = main(
            ["simulate", "--scenario", HONEST,
             "--trace-out", str(trace), "--summary-out", str(summary)]
        )
        assert code == 0
        text = trace.read_text(encoding="utf-8")
        assert text.startswith("trace election=rtvg-2015 seed=2015\n")
        assert text.rstrip().endswith("records=" + text.rstrip().rsplit("records=", 1)[1])
        assert summary.read_text(encoding="utf-8").startswith("detection summary\n")
        capsys.readouterr()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a.trace"
        second = tmp_path / "b.trace"
        assert main(["simulate", "--scenario", TAMPER, "--trace-out", str(first)]) == 0
        assert main(["simulate", "--scenario", TAMPER, "--trace-out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        capsys.readouterr()

    def test_seed_override_changes_the_trace(self, tmp_path, capsys):
        # The honest scenario has no randomness, so use one with jitter.
        doc = json.loads(bundled_scenario_path("swiss_delay_noise").read_text())
        path = tmp_path / "jittery.json"
        path.write_text(json.dumps(doc))
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        assert main(["simulate", "--scenario", str(path), "--trace-out", str(a)]) == 0
        assert main(
            ["simulate", "--scenario", str(path), "--seed", "999", "--trace-out", str(b)]
        ) == 0
        assert a.read_bytes() != b.read_bytes()
        capsys.readouterr()

    def test_negative_seed_is_a_config_error(self, capsys):
        # Scenario files refuse seed < 0; so does --seed, instead of running
        # seed 3's run under a trace header that says seed=-3.
        path = bundled_scenario_path("swiss_delay_noise")
        assert main(["simulate", "--scenario", str(path), "--seed", "-3"]) == 2
        assert capsys.readouterr().err == "error: field 'seed' must be >= 0\n"

    def test_missing_scenario_file(self, capsys):
        assert main(["simulate", "--scenario", "/nonexistent/x.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_scenario_file(self, monkeypatch, capsys):
        monkeypatch.setattr(Path, "read_text", _denied)
        assert main(["simulate", "--scenario", HONEST]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 13] Permission denied: {HONEST!r}\n")

    def test_invalid_scenario_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        assert main(["simulate", "--scenario", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_incoherent_scenario(self, tmp_path, capsys):
        doc = json.loads(bundled_scenario_path("swiss_tamper").read_text())
        doc["wrap"] = {"all": True}
        bad = tmp_path / "wrapped_tamper.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(bad)]) == 2
        assert "tamper" in capsys.readouterr().err

    def test_tree_without_edges_is_a_config_error(self, tmp_path, capsys):
        doc = {
            "election_id": "lonely",
            "tree": {"paths": ["CH"]},
            "ground_truth": {"CH": {"yes": 1}},
            "default_channel": "email",
        }
        bad = tmp_path / "root_only.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least one reporting edge" in err

    def test_oversized_shift_is_a_config_error_naming_the_edge(self, tmp_path, capsys):
        doc = {
            "election_id": "toy",
            "tree": {"paths": ["CH/A", "CH/B"]},
            "ground_truth": {"CH/A": {"yes": 30, "no": 20}, "CH/B": {"yes": 10, "no": 40}},
            "default_channel": "email",
            "attacks": [
                {"kind": "tamper", "edge": "CH/A", "mutation": {"kind": "shift", "shift": 1000}}
            ],
        }
        bad = tmp_path / "big_shift.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tamper on edge CH/A: cannot shift 1000 ballots")


def _denied(self, *args, **kwargs):
    raise PermissionError(13, "Permission denied", str(self))


class TestUnwritableOutput:
    """A path the user may not write is a user error (exit 2), not an
    internal one. A test runner running as root ignores file modes, so
    these tests make every write fail instead."""

    @pytest.fixture(autouse=True)
    def writes_denied(self, monkeypatch):
        real_open = Path.open

        def open_for_reading_only(self, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                _denied(self)
            return real_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_for_reading_only)
        monkeypatch.setattr(Path, "write_text", _denied)

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["simulate", "--scenario", HONEST, "--trace-out"], "out"),
            (["simulate", "--scenario", HONEST, "--summary-out"], "out"),
            (["analyze", "--results", MAXIMA, "--out"], "out"),
            (["keys", "--tree", "swiss", "--seed", "7", "--out-dir"], "out/root.cert"),
        ],
        ids=["trace-out", "summary-out", "analyze-out", "keys-out-dir"],
    )
    def test_is_reported_as_a_user_error(self, argv, target, tmp_path, capsys):
        assert main([*argv, str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 13] Permission denied: {str(tmp_path / target)!r}\n"
        assert not (tmp_path / target).is_file()


class TestSimulateGcPause:
    """simulate runs with the cyclic collector off from the parse to the
    last write, and gives the caller's collector state back however the
    command ends."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.fixture
    def seen(self, monkeypatch):
        """``gc.isenabled()`` at the parse and at each file write, in order."""
        states: list[tuple[str, bool]] = []
        real_load, real_write = cli.load_scenario, Path.write_text

        def load_scenario(*args, **kwargs):
            states.append(("parse", gc.isenabled()))
            return real_load(*args, **kwargs)

        def write_text(self, *args, **kwargs):
            states.append(("write", gc.isenabled()))
            return real_write(self, *args, **kwargs)

        monkeypatch.setattr(cli, "load_scenario", load_scenario)
        monkeypatch.setattr(Path, "write_text", write_text)
        return states

    def test_collector_is_off_from_parse_to_last_write(self, seen, tmp_path, capsys):
        gc.enable()
        argv = ["simulate", "--scenario", TAMPER, "--trace-out", str(tmp_path / "run.trace"),
                "--summary-out", str(tmp_path / "run.summary")]
        assert main(argv) == 0
        assert seen == [("parse", False), ("write", False), ("write", False)]
        assert gc.isenabled()
        assert capsys.readouterr().out.startswith("detection summary\n")

    def test_disabled_collector_stays_disabled(self, seen, tmp_path, capsys):
        gc.disable()
        assert main(["simulate", "--scenario", TAMPER, "--trace-out", str(tmp_path / "t")]) == 0
        assert seen == [("parse", False), ("write", False)]
        assert not gc.isenabled()
        capsys.readouterr()

    def test_unknown_scenario_field_gives_the_collector_back(self, seen, tmp_path, capsys):
        doc = json.loads(Path(TAMPER).read_text())
        doc["bogus"] = 1
        bad = tmp_path / "bogus.json"
        bad.write_text(json.dumps(doc))
        seen.clear()
        gc.enable()
        assert main(["simulate", "--scenario", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: unknown field 'scenario.bogus'")
        assert seen == [("parse", False)]
        assert gc.isenabled()

    def test_unwritable_trace_out_gives_the_collector_back(self, seen, monkeypatch, tmp_path, capsys):
        gc.enable()

        def denied(self, *args, **kwargs):
            seen.append(("write", gc.isenabled()))
            _denied(self)

        monkeypatch.setattr(Path, "write_text", denied)
        assert main(["simulate", "--scenario", TAMPER, "--trace-out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 13] Permission denied")
        assert seen == [("parse", False), ("write", False)]
        assert gc.isenabled()

    def test_internal_error_gives_the_collector_back(self, seen, monkeypatch, capsys):
        def broken_audit(trace):
            raise RuntimeError("audit broke")

        monkeypatch.setattr(cli, "detection_report", broken_audit)
        gc.enable()
        assert main(["simulate", "--scenario", TAMPER]) == 1
        assert capsys.readouterr().err == "internal error: RuntimeError: audit broke\n"
        assert seen == [("parse", False)]
        assert gc.isenabled()


def bad_run_doc(**overrides):
    """A CH/A/{X,Y} + CH/B run that builds, for one fault per row below."""
    doc = {
        "election_id": "toy",
        "tree": {"paths": ["CH/A/X", "CH/A/Y", "CH/B"], "eligible_voters": {"CH/B": 10}},
        "ground_truth": {"CH/A/X": {"yes": 1}, "CH/A/Y": {"yes": 2}, "CH/B": {"no": 3}},
        "default_channel": "email",
    }
    doc.update(overrides)
    return doc


def _without(key):
    doc = bad_run_doc()
    del doc[key]
    return doc


def _truth(extra):
    doc = bad_run_doc()
    doc["ground_truth"].update(extra)
    return doc


def _swiss_leaves_plus_qq():
    paths = [f"CH/{canton.code}" for canton in load_cantons()] + ["CH/QQ"]
    return {
        "election_id": "rtvg-2015",
        "tree": {"paths": paths},
        "ground_truth": {"bundled_results": "rtvg_2015"},
        "default_channel": "email",
    }


# One row per rule of a run: the document, extra arguments and the exact
# stderr of `votewire simulate`, which exits 2 for each.
BAD_RUNS = [
    ("truth_missing_leaf",
     bad_run_doc(ground_truth={"CH/A/X": {"yes": 1}, "CH/A/Y": {"yes": 2}}), [],
     "error: field 'ground_truth': missing leaves ['CH/B']\n"),
    ("truth_non_leaf", _truth({"CH/A": {"yes": 3}}), [],
     "error: field 'ground_truth': non-leaf entries ['CH/A']\n"),
    ("truth_over_ceiling", _truth({"CH/B": {"no": 11}}), [],
     "error: field 'ground_truth.CH/B': total 11 exceeds 10 eligible voters\n"),
    ("no_channel_no_default", _without("default_channel"), [],
     "error: field 'channels': no channel for edge CH/A and no default_channel\n"),
    ("wrap_without_channel", dict(_without("default_channel"), wrap={"edges": ["CH/B"]}), [],
     "error: field 'channels': no channel for edge CH/A and no default_channel\n"),
    ("channel_on_root", bad_run_doc(channels={"CH": "fax"}), [],
     "error: field 'channels.CH': the root has no upward edge\n"),
    ("channel_on_unknown", bad_run_doc(channels={"CH/Z": "fax"}), [],
     "error: field 'channels.CH/Z': unknown jurisdiction 'CH/Z'\n"),
    ("wrap_names_root", bad_run_doc(wrap={"edges": ["CH"]}), [],
     "error: field 'wrap.edges[0]': the root has no upward edge\n"),
    ("prelim_emit_non_leaf", bad_run_doc(timing={"prelim_emit": {"CH/A": 4}}), [],
     "error: field 'timing.prelim_emit.CH/A': not a leaf; only leaves emit reports\n"),
    ("negative_final_emit", bad_run_doc(timing={"final_emit": {"CH/A/X": -1}}), [],
     "error: field 'timing.final_emit.CH/A/X' must be >= 0\n"),
    ("negative_final_emit_default", bad_run_doc(timing={"final_emit_default": -1}), [],
     "error: field 'timing.final_emit_default' must be >= 0\n"),
    ("negative_seed", bad_run_doc(seed=-1), [],
     "error: field 'seed' must be >= 0\n"),
    ("negative_jitter_max", bad_run_doc(jitter_max=-1), [],
     "error: field 'jitter_max' must be >= 0\n"),
    ("negative_postal_latency", bad_run_doc(postal_latency=-1), [],
     "error: field 'postal_latency' must be >= 0\n"),
    ("attack_on_root", bad_run_doc(attacks=[{"kind": "delay", "edge": "CH", "hold_ticks": 2}]), [],
     "error: field 'attacks[0].edge': the root has no upward edge\n"),
    ("attack_on_unknown", bad_run_doc(attacks=[{"kind": "delay", "edge": "CH/Z", "hold_ticks": 2}]),
     [], "error: field 'attacks[0].edge': unknown jurisdiction 'CH/Z'\n"),
    ("root_only_tree",
     bad_run_doc(tree={"paths": ["CH"]}, ground_truth={"CH": {"yes": 1}}), [],
     "error: field 'tree': simulation needs at least one reporting edge\n"),
    ("bundled_truth_missing_leaf", _swiss_leaves_plus_qq(), [],
     "error: field 'ground_truth': missing leaves ['CH/QQ']\n"),
    ("negative_seed_option",
     json.loads(bundled_scenario_path("swiss_delay_noise").read_text(encoding="utf-8")),
     ["--seed", "-3"], "error: field 'seed' must be >= 0\n"),
]

STDERR = {row[0]: row[3] for row in BAD_RUNS}


def _swiss_plus_qq(run, nodes):
    swiss_run = load_scenario(HONEST)
    leaves = [leaf.path for leaf in swiss_run.tree.leaves()]
    return replace(swiss_run, tree=tree_from_paths([*leaves, ("CH", "QQ")]))


def _delay(edge):
    return (AttackSpec(AttackKind.DELAY, edge, hold_ticks=2),)


# The rules of the table, broken in a run built in Python from the good
# run of bad_run_doc(); each build raises the text its row pins.
BAD_BUILDS = {
    "truth_missing_leaf": lambda run, nodes: replace(
        run, ground_truth={k: v for k, v in run.ground_truth.items() if k != nodes["CH/B"]}
    ),
    "truth_non_leaf": lambda run, nodes: replace(
        run, ground_truth={**run.ground_truth, nodes["CH/A"]: VoteCount(3, 0)}
    ),
    "truth_over_ceiling": lambda run, nodes: replace(
        run, ground_truth={**run.ground_truth, nodes["CH/B"]: VoteCount(0, 11)}
    ),
    "no_channel_no_default": lambda run, nodes: replace(run, channels={}),
    "channel_on_root": lambda run, nodes: replace(
        run, channels={**run.channels, nodes["CH"]: preset("fax")}
    ),
    "channel_on_unknown": lambda run, nodes: replace(
        run, channels={**run.channels, JurisdictionId.of("CH", "Z"): preset("fax")}
    ),
    "prelim_emit_non_leaf": lambda run, nodes: replace(run, prelim_emit={nodes["CH/A"]: 4}),
    "negative_final_emit": lambda run, nodes: replace(run, final_emit={nodes["CH/A/X"]: -1}),
    "negative_final_emit_default": lambda run, nodes: replace(run, final_emit_default=-1),
    "negative_seed": lambda run, nodes: replace(run, seed=-1),
    "negative_jitter_max": lambda run, nodes: replace(run, jitter_max=-1),
    "negative_postal_latency": lambda run, nodes: replace(run, postal_latency=-1),
    "attack_on_root": lambda run, nodes: replace(run, attacks=_delay(nodes["CH"])),
    "attack_on_unknown": lambda run, nodes: replace(
        run, attacks=_delay(JurisdictionId.of("CH", "Z"))
    ),
    "root_only_tree": lambda run, nodes: Simulation(
        "toy", tree_from_paths([("CH",)]), {}, {nodes["CH"]: VoteCount(1, 0)}
    ),
    "bundled_truth_missing_leaf": _swiss_plus_qq,
    "negative_seed_option": lambda run, nodes: build_simulation(
        load_scenario(bundled_scenario_path("swiss_delay_noise")), seed=-3
    ),
}


class TestBadRuns:
    @pytest.mark.parametrize(
        "doc, args, stderr", [row[1:] for row in BAD_RUNS], ids=[row[0] for row in BAD_RUNS]
    )
    def test_simulate_refuses_the_run_naming_the_field(self, doc, args, stderr, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", "--scenario", str(path), *args]) == 2
        assert capsys.readouterr() == ("", stderr)

    @pytest.mark.parametrize("rule", BAD_BUILDS)
    def test_a_run_built_in_python_gets_the_same_error(self, rule):
        run = parse_scenario(json.dumps(bad_run_doc()))
        nodes = {str(node): node for node in run.tree.order()}
        with pytest.raises(ConfigError) as excinfo:
            BAD_BUILDS[rule](run, nodes)
        assert f"error: {excinfo.value}\n" == STDERR[rule]


class TestAnalyze:
    def test_bundled_maxima(self, capsys):
        assert main(["analyze", "--results", MAXIMA]) == 0
        out = capsys.readouterr().out
        assert " VD  max    3974 of    177616   2.24%" in out
        assert " JU" in out and "2.72%" in out

    def test_summary_csv(self, tmp_path, capsys):
        out_file = tmp_path / "summary.csv"
        assert main(["analyze", "--results", MAXIMA, "--out", str(out_file)]) == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "canton,max_abs_discrepancy,final_total_at_max,max_relative_percent"
        assert "VD,3974,177616,2.24" in lines
        assert len(lines) == 28  # header + 26 cantons + federal row
        capsys.readouterr()

    def test_empty_results(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "referendum_id,date,canton,prelim_yes,prelim_no,final_yes,final_no,final_total\n"
        )
        out_file = tmp_path / "summary.csv"
        assert main(["analyze", "--results", str(empty), "--out", str(out_file)]) == 0
        assert "no records" in capsys.readouterr().out
        assert out_file.read_text(encoding="utf-8").startswith("canton,")

    def test_malformed_row_carries_row_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "referendum_id,date,canton,prelim_yes,prelim_no,final_yes,final_no,final_total\n"
            "r1,2015-06-14,ZH,1,2,3,4,7\n"
            "r1,2015-06-14,BE,1,2,x,4,7\n"
        )
        assert main(["analyze", "--results", str(bad)]) == 2
        assert "row 3" in capsys.readouterr().err


class TestFlip:
    def test_popular_flip_total(self, capsys):
        code = main(
            ["flip", "--results", RTVG, "--referendum", "rtvg-2015", "--rule", "popular"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total_flips: 1825" in out
        assert "national: 1825" in out
        assert "target: rejected" in out

    def test_double_flip_selects_cheapest_cantons(self, capsys):
        code = main(
            ["flip", "--results", FAMILY, "--referendum", "family-2013", "--rule", "double"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GR Graubünden: 896" in out
        assert "ZG Zug: 934" in out
        assert "total_flips: 1830" in out

    def test_double_rejection_needs_only_one_majority(self, capsys):
        # Accepted by people and cantons; the cantonal majority alone falls
        # with 868 flips that tie 13 cantons, cheaper than the popular vote's
        # 1825.
        assert main(["flip", "--results", RTVG, "--referendum", "rtvg-2015"]) == 0
        out = capsys.readouterr().out
        assert "rule: double\noutcome: accepted\ntarget: rejected\n" in out
        assert "national" not in out
        assert out.count("\n  ") == 13
        assert out.endswith("total_flips: 868\n")

    def test_double_rejection_on_uniform_cantons(self, tmp_path, capsys):
        # Every canton 1000 yes to 900 no: the popular vote needs 1300 flips
        # to tie, twelve cantons tied at 50 flips each need 600.
        rows = [
            f"toy,2020-01-01,{code},1000,900,1000,900,1900"
            for code in sorted(canton_names())
        ]
        results = tmp_path / "toy.csv"
        results.write_text(
            "referendum_id,date,canton,prelim_yes,prelim_no,final_yes,final_no,final_total\n"
            + "\n".join(rows) + "\n"
        )
        assert main(["flip", "--results", str(results), "--referendum", "toy"]) == 0
        out = capsys.readouterr().out
        assert out.count(": 50\n") == 12
        assert out.endswith("total_flips: 600\n")

    def test_already_at_target(self, capsys):
        code = main(
            ["flip", "--results", RTVG, "--referendum", "rtvg-2015",
             "--rule", "popular", "--target", "accepted"]
        )
        assert code == 0
        assert "total_flips: 0" in capsys.readouterr().out

    def test_unknown_referendum(self, capsys):
        assert main(["flip", "--results", RTVG, "--referendum", "nope"]) == 2
        err = capsys.readouterr().err
        assert "no records for referendum 'nope'" in err
        assert "rtvg-2015" in err


class TestKeys:
    def test_swiss_preset_counts(self, tmp_path, capsys):
        out_dir = tmp_path / "store"
        assert main(["keys", "--tree", "swiss", "--out-dir", str(out_dir), "--seed", "1"]) == 0
        assert "certificates: 27" in capsys.readouterr().out
        files = sorted(p.name for p in out_dir.glob("*.cert"))
        assert len(files) == 27
        assert "root.cert" in files
        TrustStore.load(out_dir)  # parses back cleanly

    def test_seeded_store_bytes_are_pinned(self, tmp_path, capsys):
        out_dir = tmp_path / "trust"
        assert main(["keys", "--tree", "swiss", "--out-dir", str(out_dir), "--seed", "7"]) == 0
        assert capsys.readouterr().out == (
            f"root: CH\nscheme: ed25519\ncertificates: 27\nwrote: {out_dir}\n"
        )
        assert len(list(out_dir.glob("*.cert"))) == 27
        assert store_digest(out_dir) == SWISS_SEED7_STORE

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            assert main(
                ["keys", "--tree", "swiss", "--out-dir", str(out_dir), "--seed", "42"]
            ) == 0
        for path in sorted(a.glob("*.cert")):
            assert path.read_bytes() == (b / path.name).read_bytes()
        capsys.readouterr()

    def test_different_seed_different_keys(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["keys", "--tree", "swiss", "--out-dir", str(a), "--seed", "1"]) == 0
        assert main(["keys", "--tree", "swiss", "--out-dir", str(b), "--seed", "2"]) == 0
        assert (a / "root.cert").read_bytes() != (b / "root.cert").read_bytes()
        capsys.readouterr()

    def test_tree_from_file(self, tmp_path, capsys):
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(
            json.dumps({"paths": ["CH/ZH/Uster", "CH/ZH/Wil", "CH/BE/Bern"]})
        )
        out_dir = tmp_path / "store"
        assert main(
            ["keys", "--tree", str(tree_file), "--out-dir", str(out_dir),
             "--seed", "3"]
        ) == 0
        assert "certificates: 6" in capsys.readouterr().out
        assert len(list(out_dir.glob("*.cert"))) == 6

    def test_tree_from_scenario_file(self, tmp_path, capsys):
        from_scenario, from_preset = tmp_path / "scenario", tmp_path / "preset"
        assert main(["keys", "--tree", TAMPER, "--out-dir", str(from_scenario), "--seed", "7"]) == 0
        assert main(["keys", "--tree", "swiss", "--out-dir", str(from_preset), "--seed", "7"]) == 0
        capsys.readouterr()
        certs = sorted(p.name for p in from_preset.glob("*.cert"))
        assert len(certs) == 27
        assert certs == sorted(p.name for p in from_scenario.glob("*.cert"))
        for name in certs:
            assert (from_preset / name).read_bytes() == (from_scenario / name).read_bytes()

    def test_malformed_tree_json_reads_as_for_simulate(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        assert main(["simulate", "--scenario", str(bad)]) == 2
        simulate_err = capsys.readouterr().err
        assert main(["keys", "--tree", str(bad), "--out-dir", str(tmp_path / "store")]) == 2
        keys_err = capsys.readouterr().err
        assert keys_err == simulate_err
        assert keys_err.startswith("error: invalid JSON at line 2 column 3: ")

    def test_invalid_tree_file(self, tmp_path, capsys):
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps({"paths": ["CH/ZH", "FR/Paris"]}))
        assert main(["keys", "--tree", str(tree_file), "--out-dir", str(tmp_path / "s)")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_dir_is_a_user_error(self, monkeypatch, capsys):
        monkeypatch.setattr(
            TrustStore, "save", lambda self, d: (_ for _ in ()).throw(PermissionError(d))
        )
        assert main(["keys", "--tree", "swiss", "--out-dir", "/cannot/write"]) == 2
        assert capsys.readouterr().err == "error: /cannot/write\n"


class TestFreshInterpreter:
    """Only keys loads the signature library, on its first use."""

    def test_simulate_flip_and_analyze_leave_the_crypto_library_unloaded(self):
        commands = [
            ["simulate", "--scenario", TAMPER],
            ["flip", "--results", RTVG, "--referendum", "rtvg-2015", "--rule", "popular"],
            ["analyze", "--results", MAXIMA],
        ]
        probe = (
            "import contextlib, io, sys\n"
            "from votewire.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(sorted(m for m in ('cryptography', 'hashlib') if m in sys.modules))"
        )
        assert fresh_interpreter(probe).strip() == "[]"

    def test_keys_loads_it_and_derives_the_pinned_store(self, tmp_path):
        out_dir = tmp_path / "trust"
        argv = ["keys", "--tree", "swiss", "--seed", "7", "--out-dir", str(out_dir)]
        probe = (
            "import sys\n"
            "from votewire.cli import main\n"
            "loaded = 'cryptography' in sys.modules\n"
            f"assert main({argv!r}) == 0\n"
            "print(loaded, 'cryptography' in sys.modules)"
        )
        assert fresh_interpreter(probe).splitlines()[-1] == "False True"
        assert store_digest(out_dir) == SWISS_SEED7_STORE


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", HONEST, "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_keys_has_no_scheme_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["keys", "--tree", "swiss", "--out-dir", str(tmp_path), "--scheme", "ed25519"])
        assert exc.value.code == 2
        assert "--scheme" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()
