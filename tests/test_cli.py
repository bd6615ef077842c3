"""End-to-end command-line behavior: output, files, exit codes."""

import hashlib
import json

import pytest

from votewire.analysis import bundled_results_path
from votewire.cli import main
from votewire.scenario import bundled_scenario_path
from votewire.secauth import TrustStore
from votewire.swiss import canton_names

RTVG = str(bundled_results_path("rtvg_2015"))
FAMILY = str(bundled_results_path("family_2013"))
MAXIMA = str(bundled_results_path("discrepancy_maxima"))
HONEST = str(bundled_scenario_path("swiss_honest"))
TAMPER = str(bundled_scenario_path("swiss_tamper"))
# sha256 over name, NUL and bytes of each certificate file, sorted by
# name, that `keys --tree swiss --seed 7` writes; recorded when keys could
# still choose between signature schemes.
SWISS_SEED7_STORE = "5ee1fa4b08570e4af328bea3e2ac2d3bc2eb7ff89478347f6f6b64cb67e3f7ac"


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

    def test_missing_scenario_file(self, capsys):
        assert main(["simulate", "--scenario", "/nonexistent/x.json"]) == 2
        assert "error:" in capsys.readouterr().err

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
        # with 991 flips, cheaper than the popular vote's 1825.
        assert main(["flip", "--results", RTVG, "--referendum", "rtvg-2015"]) == 0
        out = capsys.readouterr().out
        assert "rule: double\noutcome: accepted\ntarget: rejected\n" in out
        assert "national" not in out
        assert out.endswith("total_flips: 991\n")

    def test_double_rejection_on_uniform_cantons(self, tmp_path, capsys):
        # Every canton 1000 yes to 900 no: the popular vote needs 1301 flips,
        # twelve full cantons at 51 flips each need 612.
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
        assert out.count(": 51\n") == 12
        assert out.endswith("total_flips: 612\n")

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
        files = sorted(out_dir.glob("*.cert"))
        assert len(files) == 27
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
        assert digest.hexdigest() == SWISS_SEED7_STORE

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

    def test_invalid_tree_file(self, tmp_path, capsys):
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps({"paths": ["CH/ZH", "FR/Paris"]}))
        assert main(["keys", "--tree", str(tree_file), "--out-dir", str(tmp_path / "s)")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_dir_is_internal(self, monkeypatch, capsys):
        monkeypatch.setattr(
            TrustStore, "save", lambda self, d: (_ for _ in ()).throw(PermissionError(d))
        )
        assert main(["keys", "--tree", "swiss", "--out-dir", "/cannot/write"]) == 1
        assert "internal error:" in capsys.readouterr().err


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
