"""Scenario JSON parsing, validation diagnostics, and building."""

import dataclasses
import json

import pytest

from votewire.adversary import AttackKind, MutationKind
from votewire.counts import VoteCount, accumulate
from votewire.engine import Simulation
from votewire.errors import CapabilityError, ConfigError
from votewire.reports import ReportKind
from votewire.scenario import build_simulation, parse_scenario
from votewire.swiss import canton_id, load_cantons
from votewire.tally import MajorityRule
from votewire.tree import JurisdictionId


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
        assert trace.final_publish().counts == VoteCount(40, 60)

    def test_swiss_preset_uses_bundled_channel_assignments(self):
        config = parse(
            {
                "election_id": "rtvg-2015",
                "tree": {"preset": "swiss"},
                "ground_truth": {"bundled_results": "rtvg_2015"},
            }
        )
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
        assert config.postal.base_latency == 10 and config.postal.signed
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
        assert trace.final_publish().counts == VoteCount(40, 60)


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
        final = trace.final_publish()
        assert len(final.children) == len(load_cantons())
        assert (final.counts.yes, final.counts.no) == (1_128_522, 1_124_873)
