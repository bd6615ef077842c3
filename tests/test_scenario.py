"""Scenario JSON parsing, validation diagnostics, and building."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import votewire
from votewire.adversary import AttackKind, MutationKind
from votewire.counts import VoteCount, accumulate
from votewire.engine import Simulation
from votewire.errors import CapabilityError, ConfigError
from votewire.reports import ReportKind
from votewire.scenario import build_simulation, bundled_scenario_path, parse_scenario
from votewire.swiss import canton_id, load_cantons
from votewire.tally import MajorityRule
from votewire.tree import JurisdictionId

from oracles import final_publish


def custom_doc(**overrides):
    doc = {
        "election_id": "toy",
        "tree": {
            "paths": ["CH/A", "CH/B"],
            "half_votes": {"CH/A": 2, "CH/B": 2},
            "eligible_voters": {"CH/A": 100, "CH/B": 100},
        },
        "ground_truth": {
            "CH/A": {"yes": 30, "no": 20},
            "CH/B": {"yes": 10, "no": 40},
        },
        "default_channel": "email",
    }
    doc.update(overrides)
    return doc


def parse(doc) -> object:
    return parse_scenario(json.dumps(doc))


class TestParsingHappyPath:
    def test_minimal_custom_tree(self):
        sim = parse(custom_doc())
        assert isinstance(sim, Simulation)
        assert sim.election_id == "toy"
        assert sim.seed == 0
        assert build_simulation(sim) is sim
        trace = sim.run()
        assert final_publish(trace).counts == VoteCount(40, 60)

    def test_swiss_preset_uses_bundled_channel_assignments(self, monkeypatch):
        reads = []
        assignments = votewire.swiss.channel_assignments
        monkeypatch.setattr(
            votewire.swiss, "channel_assignments", lambda: reads.append(1) or assignments()
        )
        config = parse(
            {
                "election_id": "rtvg-2015",
                "tree": {"preset": "swiss"},
                "ground_truth": {"bundled_results": "rtvg_2015"},
            }
        )
        assert len(reads) == 1  # the canton table is parsed once per scenario
        assert config.channels[canton_id("BL")].name == "telephone"
        assert config.channels[canton_id("ZH")].name == "dedicated"
        assert config.channels[canton_id("ZG")].name == "email"

    def test_bundled_ground_truth_matches_final_columns(self):
        config = parse(
            {
                "election_id": "rtvg-2015",
                "tree": {"preset": "swiss"},
                "ground_truth": {"bundled_results": "rtvg_2015"},
            }
        )
        totals = accumulate(config.ground_truth.values())
        assert (totals.yes, totals.no) == (1_128_522, 1_124_873)
        assert len(config.ground_truth) == 26

    def test_bundled_ground_truth_skips_the_federal_row(self):
        config = parse(
            {
                "election_id": "maxima",
                "tree": {"preset": "swiss"},
                "ground_truth": {"bundled_results": "discrepancy_maxima"},
            }
        )
        # The file holds 27 rows: one per canton and the federal total, CH.
        assert set(config.ground_truth) == set(config.tree.leaves())
        assert len(config.ground_truth) == 26
        assert JurisdictionId.of("CH") not in config.ground_truth

    def test_channel_overrides_and_objects(self):
        config = parse(
            custom_doc(channels={"CH/A": {"preset": "telephone", "base_latency": 9}})
        )
        a = JurisdictionId.of("CH", "A")
        b = JurisdictionId.of("CH", "B")
        assert config.channels[a].name == "telephone"
        assert config.channels[a].base_latency == 9
        assert config.channels[b].name == "email"

    def test_wrap_all_seals_every_channel(self):
        config = parse(custom_doc(wrap={"all": True}))
        assert all(c.signed for c in config.channels.values())

    def test_wrap_single_edge(self):
        config = parse(custom_doc(wrap={"edges": ["CH/A"]}))
        a = JurisdictionId.of("CH", "A")
        b = JurisdictionId.of("CH", "B")
        assert config.channels[a].signed
        assert not config.channels[b].signed

    def test_timing_noise_jitter_and_postal(self):
        config = parse(
            custom_doc(
                timing={
                    "prelim_emit": {"CH/A": 3},
                    "final_emit": {"CH/B": 55},
                    "final_emit_default": 80,
                },
                noise={"probability": 0.25, "max_shift": 7},
                jitter_max=4,
                postal_latency=10,
                seed=99,
            )
        )
        a = JurisdictionId.of("CH", "A")
        b = JurisdictionId.of("CH", "B")
        assert config.prelim_emit == {a: 3}
        assert config.final_emit == {b: 55}
        assert config.final_emit_default == 80
        assert config.noise.probability == 0.25
        assert config.jitter_max == 4
        assert config.postal_latency == 10
        assert config.seed == 99

    def test_attacks_parse_into_specs(self):
        config = parse(
            custom_doc(
                attacks=[
                    {
                        "kind": "tamper",
                        "edge": "CH/A",
                        "mutation": {"kind": "shift", "direction": "yes_to_no", "shift": 4},
                        "omniscient": True,
                    },
                    {"kind": "delay", "edge": "CH/B", "hold_ticks": 30, "report_kind": "final"},
                    {"kind": "front_run", "edge": "CH/B", "forged_counts": {"yes": 90}, "first_n": None},
                ]
            )
        )
        tamper, delay, front = config.attacks
        assert tamper.kind is AttackKind.TAMPER
        assert tamper.mutation.kind is MutationKind.SHIFT and tamper.mutation.shift == 4
        assert tamper.omniscient and tamper.first_n == 1
        assert delay.report_kind is ReportKind.FINAL and delay.hold_ticks == 30
        assert front.forged_counts == VoteCount(90, 0)
        assert front.first_n is None

    def test_seed_override_at_build_time(self):
        config = parse(custom_doc(seed=7))
        assert build_simulation(config).seed == 7
        assert build_simulation(config, seed=123).seed == 123


def deep_doc():
    """A three-level tree whose every key kind names a node."""
    leaves = ["CH/A/X", "CH/A/Y", "CH/B"]
    return custom_doc(
        tree={
            "paths": leaves,
            "half_votes": {"CH/A": 2, "CH/B": 1},
            "eligible_voters": {"CH": 300, "CH/A": 200, "CH/A/X": 100, "CH/B": 100},
        },
        ground_truth={leaf: {"yes": 10, "no": 5} for leaf in leaves},
        channels={"CH/A": "fax", "CH/A/Y": {"preset": "telephone"}},
        wrap={"edges": ["CH/A/X"]},
        timing={"prelim_emit": {"CH/A/X": 4, "CH/B": 2}, "final_emit": {"CH/A/Y": 140}},
        attacks=[
            {"kind": "delay", "edge": "CH/A", "hold_ticks": 3},
            {"kind": "tamper", "edge": "CH/B", "mutation": {"kind": "swap_yes_no"}},
        ],
    )


def bundled_doc(name):
    return json.loads(bundled_scenario_path(name).read_text(encoding="utf-8"))


class TestParsedIdentity:
    """A parse resolves every jurisdiction key to the tree's own node."""

    @pytest.mark.parametrize(
        "doc",
        [custom_doc(), deep_doc(), bundled_doc("swiss_honest"), bundled_doc("swiss_tamper")],
        ids=["custom", "deep", "swiss_honest", "swiss_tamper"],
    )
    def test_every_key_is_a_node_of_the_tree(self, doc):
        sim = parse(doc)
        tree = sim.tree
        nodes = {id(node) for node in tree.order()}
        keyed = {
            "ground_truth": list(sim.ground_truth),
            "channels": list(sim.channels),
            "prelim_emit": list(sim.prelim_emit),
            "final_emit": list(sim.final_emit),
            "eligible_voters": list(tree.eligible_voters),
            "canton_half_votes": list(tree.canton_half_votes),
            "attacks": [attack.edge_child for attack in sim.attacks],
        }
        for field, keys in keyed.items():
            assert all(id(key) in nodes for key in keys), field

    def test_a_parsed_tree_is_freed_with_its_simulation(self):
        sim = parse(deep_doc())
        sim.run()
        tree = weakref.ref(sim.tree)
        del sim
        gc.collect()
        assert tree() is None


class TestDiagnostics:
    def test_json_syntax_error_reports_line_and_column(self):
        with pytest.raises(ConfigError, match=r"line 4 column 1"):
            parse_scenario('{\n "election_id": "x",\n "oops"\n}')

    @pytest.mark.parametrize(
        "mangle,needle",
        [
            (lambda d: d.pop("election_id"), "scenario.election_id"),
            (lambda d: d.pop("ground_truth"), "scenario.ground_truth"),
            (lambda d: d.update(voltage=9), "scenario.voltage"),
            (lambda d: d.update(majority_rule="triple"), "majority_rule"),
            (lambda d: d.update(seed=-1), "seed"),
            (lambda d: d.update(jitter_max="lots"), "jitter_max"),
        ],
    )
    def test_top_level_field_errors_name_the_field(self, mangle, needle):
        doc = custom_doc()
        mangle(doc)
        with pytest.raises(ConfigError, match=needle):
            parse(doc)

    def test_ground_truth_must_cover_all_leaves(self):
        doc = custom_doc()
        del doc["ground_truth"]["CH/B"]
        with pytest.raises(ConfigError, match=r"missing leaves.*CH/B"):
            parse(doc)

    def test_ground_truth_rejects_non_leaf_entries(self):
        doc = custom_doc()
        doc["ground_truth"]["CH"] = {"yes": 40, "no": 60}
        with pytest.raises(ConfigError, match=r"non-leaf entries \['CH'\]"):
            parse(doc)

    def test_ground_truth_rejects_unknown_nodes(self):
        doc = custom_doc()
        doc["ground_truth"]["CH/Z"] = {"yes": 1}
        with pytest.raises(ConfigError, match="unknown jurisdiction"):
            parse(doc)

    def test_ground_truth_respects_eligible_ceiling(self):
        doc = custom_doc()
        doc["ground_truth"]["CH/A"] = {"yes": 80, "no": 21}
        with pytest.raises(ConfigError, match="exceeds 100 eligible"):
            parse(doc)

    def test_negative_counts_are_named(self):
        doc = custom_doc()
        doc["ground_truth"]["CH/A"] = {"yes": -1}
        with pytest.raises(ConfigError, match=r"ground_truth.CH/A\.yes"):
            parse(doc)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"yes": True}, "field 'ground_truth.CH/A.yes' must be an integer"),
            ({"yes": 1.5}, "field 'ground_truth.CH/A.yes' must be an integer"),
            ({"yes": 1, "no": -2}, "field 'ground_truth.CH/A.no' must be >= 0"),
            ([30, 20], "field 'ground_truth.CH/A' must be an object"),
        ],
    )
    def test_count_errors_keep_their_text(self, raw, message):
        doc = custom_doc()
        doc["ground_truth"]["CH/A"] = raw
        with pytest.raises(ConfigError) as excinfo:
            parse(doc)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"tree": {"paths": []}},
                "field 'tree.paths' must be a non-empty list of path strings",
            ),
            (
                {"wrap": {"edges": "CH/A"}},
                "field 'wrap.edges' must be a list of jurisdiction paths",
            ),
            ({"attacks": {}}, "field 'attacks' must be a list"),
            (
                {"noise": {"probability": "high", "max_shift": 3}},
                "field 'noise.probability' must be a number",
            ),
            ({"wrap": {"all": "yes"}}, "field 'wrap.all' must be true or false"),
            (
                {"ground_truth": {"bundled_results": "rtvg_2015"}},
                "field 'ground_truth.bundled_results': 'ZH' is not in the tree",
            ),
            (
                {"channels": {"CH/A": {"preset": "carrier pigeon"}}},
                "field 'channels.CH/A.preset': unknown channel preset 'carrier pigeon'",
            ),
            (
                {"channels": {"CH/A": "carrier pigeon"}},
                "field 'channels.CH/A': unknown channel preset 'carrier pigeon'",
            ),
        ],
        ids=[
            "empty-paths", "wrap-edges", "attacks", "noise-probability", "wrap-all",
            "bundled-results", "channel-preset", "channel-preset-name",
        ],
    )
    def test_shape_errors_keep_their_text(self, overrides, message):
        with pytest.raises(ConfigError) as excinfo:
            parse(custom_doc(**overrides))
        assert str(excinfo.value) == message

    def test_null_noise_is_no_noise(self):
        assert parse(custom_doc(noise=None)).noise is None

    def test_malformed_jurisdiction_keys_keep_their_text(self):
        doc = custom_doc()
        doc["ground_truth"]["CH//A"] = {"yes": 1}
        with pytest.raises(ConfigError) as excinfo:
            parse(doc)
        assert str(excinfo.value) == (
            "field 'ground_truth.CH//A': jurisdiction path segments must be nonempty"
        )
        doc = custom_doc()
        doc["tree"]["paths"] = ["CH/A", "CH/B\n"]
        with pytest.raises(ConfigError) as excinfo:
            parse(doc)
        assert str(excinfo.value) == (
            "field 'tree.paths[1]': segment 'B\\n' contains forbidden character '\\n'"
        )

    @pytest.mark.parametrize("edge", [5, ["CH/A"], ""])
    def test_non_string_attack_edges_keep_their_text(self, edge):
        doc = custom_doc(attacks=[{"kind": "delay", "edge": edge, "hold_ticks": 2}])
        with pytest.raises(ConfigError) as excinfo:
            parse(doc)
        assert str(excinfo.value) == "field 'attacks[0].edge' must be a non-empty string"

    def test_unknown_count_keys_are_named(self):
        doc = custom_doc()
        doc["ground_truth"]["CH/A"] = {"yes": 1, "maybe": 2}
        with pytest.raises(ConfigError, match="maybe"):
            parse(doc)

    def test_unknown_channel_preset(self):
        with pytest.raises(ConfigError, match="pigeon"):
            parse(custom_doc(default_channel="pigeon"))

    def test_channels_for_unknown_edges(self):
        with pytest.raises(ConfigError, match="channels.CH/Z"):
            parse(custom_doc(channels={"CH/Z": "email"}))

    def test_missing_channel_without_default(self):
        doc = custom_doc()
        del doc["default_channel"]
        with pytest.raises(ConfigError, match="no channel for edge"):
            parse(doc)

    def test_missing_channel_names_the_first_edge_whatever_the_hash_seed(self):
        # Edges are checked in tree order, not in the string-hash order of a
        # node set, so every process names the same edge.
        doc = custom_doc(
            tree={"paths": ["CH/A", "CH/B", "CH/C", "CH/D"]},
            ground_truth={f"CH/{c}": {"yes": 1} for c in "ABCD"},
        )
        del doc["default_channel"]
        probe = (
            "import sys\n"
            "from votewire.engine import Simulation\n"
            "from votewire.errors import ConfigError\n"
            "from votewire.scenario import parse_scenario\n"
            "try:\n"
            "    parse_scenario(sys.stdin.read())\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n"
            "sim = parse_scenario(sys.argv[1])\n"
            "try:\n"
            "    Simulation(sim.election_id, sim.tree, {}, sim.ground_truth)\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ)
        src = str(Path(votewire.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = set()
        for seed in ("0", "1", "2", "3", "4", "5"):
            env["PYTHONHASHSEED"] = seed
            done = subprocess.run(
                [sys.executable, "-c", probe, json.dumps(dict(doc, default_channel="email"))],
                input=json.dumps(doc), env=env, check=True, capture_output=True, text=True,
                timeout=60,
            )
            outputs.add(done.stdout)
        # A loaded file and a run built in Python name the edge alike.
        line = "field 'channels': no channel for edge CH/A and no default_channel\n"
        assert outputs == {line * 2}

    def test_unknown_tree_preset(self):
        with pytest.raises(ConfigError, match="tree.preset"):
            parse(custom_doc(tree={"preset": "atlantis"}))

    def test_tree_with_two_roots(self):
        doc = custom_doc(tree={"paths": ["CH/A", "EU/B"]})
        doc["ground_truth"] = {"CH/A": {"yes": 1}, "EU/B": {"yes": 1}}
        with pytest.raises(ConfigError, match="exactly one root"):
            parse(doc)

    def test_attack_edge_must_exist(self):
        with pytest.raises(ConfigError, match=r"attacks\[0\].edge"):
            parse(custom_doc(attacks=[{"kind": "delay", "edge": "CH/Z", "hold_ticks": 2}]))

    def test_attack_kind_and_mutation_kind_are_validated(self):
        with pytest.raises(ConfigError, match=r"attacks\[0\].kind"):
            parse(custom_doc(attacks=[{"kind": "bribe", "edge": "CH/A"}]))
        with pytest.raises(ConfigError, match=r"attacks\[0\].mutation.kind"):
            parse(
                custom_doc(
                    attacks=[
                        {"kind": "tamper", "edge": "CH/A", "mutation": {"kind": "mangle"}}
                    ]
                )
            )

    def test_incoherent_attack_fields_are_wrapped(self):
        with pytest.raises(ConfigError, match=r"attacks\[0\]"):
            parse(custom_doc(attacks=[{"kind": "tamper", "edge": "CH/A"}]))

    def test_unknown_bundled_results(self):
        doc = custom_doc(ground_truth={"bundled_results": "atlantis_1999"})
        with pytest.raises(ConfigError, match="atlantis_1999"):
            parse(doc)

    @pytest.mark.parametrize(
        "name", ["rtvg\x002015", "rtvg_2015.csv/", "x" * 300], ids=["nul", "not-a-dir", "long"]
    )
    def test_a_name_no_bundled_file_can_have_is_unknown(self, name):
        # Each raised ValueError or OSError out of the parser: exit 1 for a NUL.
        doc = custom_doc(ground_truth={"bundled_results": name})
        with pytest.raises(ConfigError) as exc:
            parse(doc)
        assert str(exc.value) == (
            f"field 'ground_truth.bundled_results': no bundled results named {name!r}"
        )

    def test_timing_rejects_unknown_nodes_and_negatives(self):
        with pytest.raises(ConfigError, match="timing.prelim_emit.CH/Z"):
            parse(custom_doc(timing={"prelim_emit": {"CH/Z": 1}}))
        with pytest.raises(ConfigError, match="timing.final_emit.CH/A"):
            parse(custom_doc(timing={"final_emit": {"CH/A": -2}}))

    def test_timing_rejects_non_leaves(self):
        # Only leaves emit; an inner node's entry would be silently ignored.
        doc = custom_doc(
            tree={"paths": ["CH/A/X", "CH/A/Y", "CH/B/Z"]},
            ground_truth={"CH/A/X": {"yes": 1}, "CH/A/Y": {"yes": 2}, "CH/B/Z": {"no": 3}},
        )
        with pytest.raises(ConfigError, match=r"'timing\.prelim_emit\.CH/A': not a leaf"):
            parse({**doc, "timing": {"prelim_emit": {"CH/A": 50}}})
        with pytest.raises(ConfigError, match=r"'timing\.final_emit\.CH': not a leaf"):
            parse({**doc, "timing": {"final_emit": {"CH": 7}}})
        config = parse({**doc, "timing": {"prelim_emit": {"CH/A/X": 50}, "final_emit": {"CH/B/Z": 7}}})
        assert config.prelim_emit == {JurisdictionId.of("CH", "A", "X"): 50}

    def test_wrapped_channel_rejects_tamper_at_load(self):
        doc = custom_doc(
            wrap={"all": True},
            attacks=[{"kind": "tamper", "edge": "CH/A", "mutation": {"kind": "swap_yes_no"}}],
        )
        with pytest.raises(CapabilityError, match="integrity"):
            parse(doc)

    def test_tamper_on_a_final_is_refused_at_load(self):
        # Finals always ride the signed postal channel.
        doc = custom_doc(
            attacks=[
                {
                    "kind": "tamper", "edge": "CH/A", "report_kind": "final",
                    "mutation": {"kind": "swap_yes_no"},
                }
            ],
        )
        with pytest.raises(CapabilityError, match="'postal_final' preserves integrity"):
            parse(doc)

    def test_majority_rule_is_checked_but_not_kept(self):
        assert "majority_rule" not in {f.name for f in dataclasses.fields(Simulation)}
        plain = parse(custom_doc()).run().to_text()
        for rule in MajorityRule:
            assert parse(custom_doc(majority_rule=rule.value)).run().to_text() == plain

    def test_tree_without_edges_is_a_config_error(self):
        doc = custom_doc(tree={"paths": ["CH"]}, ground_truth={"CH": {"yes": 1}})
        with pytest.raises(ConfigError, match="at least one reporting edge"):
            parse(doc)

    def test_delay_still_builds_on_wrapped_channels(self):
        config = parse(
            custom_doc(
                wrap={"all": True},
                attacks=[{"kind": "delay", "edge": "CH/A", "hold_ticks": 9}],
            )
        )
        trace = build_simulation(config).run()
        assert final_publish(trace).counts == VoteCount(40, 60)


def declared_default(field: dataclasses.Field):
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


def assert_defaults(obj, given: set[str]) -> None:
    """Every field of ``obj`` outside ``given`` holds its class's declared default."""
    defaulted = [
        f for f in dataclasses.fields(obj)
        if f.name not in given
        and (f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING)
    ]
    assert defaulted
    for f in defaulted:
        assert getattr(obj, f.name) == declared_default(f), f.name


class TestDefaultsLiveOnTheClasses:
    def test_a_field_left_out_takes_its_class_default(self):
        required = {"election_id", "tree", "channels", "ground_truth"}
        assert_defaults(parse(custom_doc()), given=required)
        config = parse(
            custom_doc(
                attacks=[
                    {"kind": "tamper", "edge": "CH/A", "mutation": {"kind": "shift", "shift": 3}},
                    {"kind": "delay", "edge": "CH/B", "hold_ticks": 2},
                    {"kind": "front_run", "edge": "CH/B", "forged_counts": {"yes": 1}},
                ]
            )
        )
        tamper, delay, front = config.attacks
        assert_defaults(tamper, given={"kind", "edge_child", "mutation"})
        assert_defaults(tamper.mutation, given={"kind", "shift"})
        assert_defaults(delay, given={"kind", "edge_child", "hold_ticks"})
        assert_defaults(front, given={"kind", "edge_child", "forged_counts"})


class TestFilesTheParserCannotHold:
    @pytest.mark.parametrize(
        "literal", ["2", "1" + "0" * 400, "-1" + "0" * 400], ids=["2", "10**400", "-10**400"]
    )
    def test_probability_out_of_range_is_named(self, literal):
        text = json.dumps(custom_doc(noise={"probability": "P", "max_shift": 1}))
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario(text.replace('"P"', literal))
        assert str(excinfo.value) == "field 'noise': probability must be in [0, 1]"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="integer literals have no digit limit"
    )
    def test_integer_literal_past_the_digit_limit_is_invalid_json(self):
        text = json.dumps(custom_doc(seed="S")).replace('"S"', "9" * 5000)
        with pytest.raises(ConfigError, match=r"^invalid JSON: "):
            parse_scenario(text)

    def test_nesting_past_the_recursion_limit_is_invalid_json(self):
        with pytest.raises(ConfigError, match=r"^invalid JSON: "):
            parse_scenario("[" * 100_000 + "]" * 100_000)


class TestSwissScenarioEndToEnd:
    def test_full_swiss_run_covers_every_canton(self):
        config = parse(
            {
                "election_id": "rtvg-2015",
                "tree": {"preset": "swiss"},
                "ground_truth": {"bundled_results": "rtvg_2015"},
                "seed": 5,
            }
        )
        trace = build_simulation(config).run()
        final = final_publish(trace)
        assert len(final.children) == len(load_cantons())
        assert (final.counts.yes, final.counts.no) == (1_128_522, 1_124_873)
