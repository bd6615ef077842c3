"""Scenario files: JSON descriptions of a complete simulation run.

A scenario pins everything a run depends on, so the same file plus the
same seed always reproduces the same trace. Parsing returns the
``Simulation`` itself, so every check, the attack-capability gating
included, happens when the scenario is loaded. Validation is strict and
error messages name the offending field (``attacks[0].mutation.shift``)
or, for malformed JSON, the line and column.
"""

from __future__ import annotations

import enum
import json
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping, TypeVar

from . import swiss
from .adversary import AttackKind, AttackSpec, Mutation, MutationKind
from .channels import POSTAL_FINAL, PRESETS, ChannelSpec, preset, wrapped
from .counts import VoteCount
from .engine import DEFAULT_FINAL_EMIT_AT, NoiseModel, Simulation
from .errors import ConfigError
from .reports import ReportKind
from .tally import MajorityRule
from .tree import JurisdictionId, JurisdictionTree, tree_from_paths

_TOP_KEYS = {
    "election_id", "majority_rule", "seed", "tree", "ground_truth", "channels",
    "default_channel", "wrap", "postal_latency", "timing", "jitter_max",
    "noise", "attacks",
}
_ATTACK_KEYS = {
    "kind", "edge", "report_kind", "first_n", "mutation", "hold_ticks",
    "forged_counts", "forged_seq", "seq_offset", "omniscient",
}
_MUTATION_KEYS = {"kind", "counts", "shift", "direction"}
_COUNT_KEYS = {"yes", "no", "blank", "invalid"}
_TIMING_KEYS = {"prelim_emit", "final_emit", "final_emit_default"}


def build_simulation(config: Simulation, seed: int | None = None) -> Simulation:
    """The scenario's run, with its seed replaced when ``seed`` is given."""
    return config if seed is None else replace(config, seed=seed)


def load_scenario(path: str | Path) -> Simulation:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def bundled_scenario_path(name: str) -> Path:
    from importlib.resources import files

    return Path(str(files("votewire.data").joinpath("scenarios", f"{name}.json")))


def parse_scenario(text: str) -> Simulation:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    top = _mapping(raw, "scenario")
    _reject_unknown(top, _TOP_KEYS, "scenario")

    election_id = _string(_required(top, "election_id", "scenario"), "election_id")
    # Checked but not kept: simulating never tallies.
    _choice(MajorityRule, top.get("majority_rule", "double"), "majority_rule", "rule")
    seed = _int(top.get("seed", 0), "seed", minimum=0)

    tree = _tree(_required(top, "tree", "scenario"))
    ground_truth = _ground_truth(_required(top, "ground_truth", "scenario"), tree)
    channels = _channels(top, tree)
    _apply_wrap(top.get("wrap"), channels, tree)

    postal_latency = _int(
        top.get("postal_latency", POSTAL_FINAL.base_latency), "postal_latency", minimum=0
    )

    prelim_emit, final_emit, final_default = _timing(top.get("timing"), tree)
    jitter_max = _int(top.get("jitter_max", 0), "jitter_max", minimum=0)
    noise = _noise(top.get("noise"))
    attacks = _attacks(top.get("attacks", []), tree)

    for leaf, counts in ground_truth.items():
        eligible = tree.eligible_voters.get(leaf)
        if eligible is not None and counts.total() > eligible:
            raise ConfigError(
                f"field 'ground_truth.{leaf}': total {counts.total()} exceeds "
                f"{eligible} eligible voters"
            )

    try:
        return Simulation(
            election_id=election_id,
            tree=tree,
            channels=channels,
            ground_truth=ground_truth,
            seed=seed,
            prelim_emit=prelim_emit,
            final_emit=final_emit,
            final_emit_default=final_default,
            jitter_max=jitter_max,
            noise=noise,
            attacks=attacks,
            postal_latency=postal_latency,
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None


def _required(mapping: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"field '{where}.{key}' is required")
    return mapping[key]


def _reject_unknown(mapping: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown field '{where}.{unknown[0]}'; allowed: {sorted(allowed)}")


def _mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise ConfigError(f"field '{where}' must be an object")
    return value


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"field '{where}' must be a non-empty string")
    return value


def _int(value: Any, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{where}' must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"field '{where}' must be >= {minimum}")
    return value


def _bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"field '{where}' must be true or false")
    return value


def _path_key(value: Any, where: str) -> JurisdictionId:
    try:
        return JurisdictionId.from_text(_string(value, where))
    except ValueError as exc:
        raise ConfigError(f"field '{where}': {exc}") from None


def _node(value: Any, tree: JurisdictionTree, where: str) -> JurisdictionId:
    node = _path_key(value, where)
    if node not in tree:
        raise ConfigError(f"field '{where}': unknown jurisdiction {value!r}")
    return node


def _edge(value: Any, tree: JurisdictionTree, where: str) -> JurisdictionId:
    """A node other than the root, naming the edge up to its parent."""
    node = _node(value, tree, where)
    if node == tree.root:
        raise ConfigError(f"field '{where}': the root has no upward edge")
    return node


_Choice = TypeVar("_Choice", bound=enum.Enum)


def _choice(choices: type[_Choice], value: Any, where: str, what: str) -> _Choice:
    text = _string(value, where)
    try:
        return choices(text)
    except ValueError:
        raise ConfigError(
            f"field '{where}': unknown {what} {text!r}; "
            f"allowed: {[c.value for c in choices]}"
        ) from None


def _counts(value: Any, where: str) -> VoteCount:
    obj = _mapping(value, where)
    _reject_unknown(obj, _COUNT_KEYS, where)
    try:
        return VoteCount(
            yes=_int(obj.get("yes", 0), f"{where}.yes", minimum=0),
            no=_int(obj.get("no", 0), f"{where}.no", minimum=0),
            blank=_int(obj.get("blank", 0), f"{where}.blank", minimum=0),
            invalid=_int(obj.get("invalid", 0), f"{where}.invalid", minimum=0),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"field '{where}': {exc}") from None


def tree_from_config(value: Any) -> JurisdictionTree:
    """Parse the ``tree`` object of a scenario document on its own."""
    return _tree(value)


def _tree(value: Any) -> JurisdictionTree:
    obj = _mapping(value, "tree")
    if "preset" in obj:
        _reject_unknown(obj, {"preset"}, "tree")
        name = _string(obj["preset"], "tree.preset")
        if name != "swiss":
            raise ConfigError(f"field 'tree.preset': unknown preset {name!r}")
        return swiss.swiss_tree()
    _reject_unknown(obj, {"paths", "half_votes", "eligible_voters"}, "tree")
    raw_paths = obj.get("paths")
    if not isinstance(raw_paths, list) or not raw_paths:
        raise ConfigError("field 'tree.paths' must be a non-empty list of path strings")
    paths = [_path_key(p, f"tree.paths[{i}]").path for i, p in enumerate(raw_paths)]
    half_votes = {}
    for key, weight in _mapping(obj.get("half_votes", {}), "tree.half_votes").items():
        half_votes[_path_key(key, f"tree.half_votes.{key}")] = _int(
            weight, f"tree.half_votes.{key}", minimum=1
        )
    eligible = {}
    for key, voters in _mapping(obj.get("eligible_voters", {}), "tree.eligible_voters").items():
        eligible[_path_key(key, f"tree.eligible_voters.{key}")] = _int(
            voters, f"tree.eligible_voters.{key}", minimum=0
        )
    try:
        return tree_from_paths(paths, half_votes, eligible)
    except ValueError as exc:
        raise ConfigError(f"field 'tree': {exc}") from None


def _ground_truth(value: Any, tree: JurisdictionTree) -> dict[JurisdictionId, VoteCount]:
    obj = _mapping(value, "ground_truth")
    if "bundled_results" in obj:
        _reject_unknown(obj, {"bundled_results"}, "ground_truth")
        return _truth_from_results(_string(obj["bundled_results"], "ground_truth.bundled_results"), tree)
    truth: dict[JurisdictionId, VoteCount] = {}
    for key, raw in obj.items():
        node = _node(key, tree, f"ground_truth.{key}")
        truth[node] = _counts(raw, f"ground_truth.{key}")
    leaves = tree.leaves()
    missing = sorted(str(leaf) for leaf in leaves if leaf not in truth)
    if missing:
        raise ConfigError(f"field 'ground_truth': missing leaves {missing}")
    leaf_set = set(leaves)
    extra = sorted(str(node) for node in truth if node not in leaf_set)
    if extra:
        raise ConfigError(f"field 'ground_truth': non-leaf entries {extra}")
    return truth


def _truth_from_results(name: str, tree: JurisdictionTree) -> dict[JurisdictionId, VoteCount]:
    """Leaf ground truth from a bundled results file's final columns.

    Final yes/no are taken as cast; whatever remains of final_total is
    recorded as blank, which preserves the published totals.
    """
    from .analysis import bundled_results_path, load_results

    try:
        records = load_results(bundled_results_path(name))
    except FileNotFoundError:
        raise ConfigError(
            f"field 'ground_truth.bundled_results': no bundled results named {name!r}"
        ) from None
    truth: dict[JurisdictionId, VoteCount] = {}
    for record in records:
        if record.canton == swiss.FEDERAL_CODE:
            continue
        node = swiss.canton_id(record.canton)
        if node not in tree:
            raise ConfigError(
                f"field 'ground_truth.bundled_results': {record.canton!r} is not in the tree"
            )
        final = record.final
        rest = record.final_total() - final.yes - final.no
        truth[node] = VoteCount(final.yes, final.no, blank=rest)
    missing = sorted(str(leaf) for leaf in tree.leaves() if leaf not in truth)
    if missing:
        raise ConfigError(f"field 'ground_truth.bundled_results': missing leaves {missing}")
    return truth


def _channel_spec(value: Any, where: str) -> ChannelSpec:
    if isinstance(value, str):
        if value not in PRESETS:
            raise ConfigError(f"field '{where}': unknown channel preset {value!r}")
        return preset(value)
    obj = _mapping(value, where)
    _reject_unknown(obj, {"preset", "base_latency"}, where)
    name = _string(_required(obj, "preset", where), f"{where}.preset")
    if name not in PRESETS:
        raise ConfigError(f"field '{where}.preset': unknown channel preset {name!r}")
    latency = None
    if "base_latency" in obj:
        latency = _int(obj["base_latency"], f"{where}.base_latency", minimum=0)
    return preset(name, latency)


def _channels(top: Mapping[str, Any], tree: JurisdictionTree) -> dict[JurisdictionId, ChannelSpec]:
    is_swiss = tree.root == swiss.federal_id() and set(tree.children(tree.root)) == set(
        swiss.canton_id(c) for c in swiss.channel_assignments()
    )
    default: ChannelSpec | None = None
    if "default_channel" in top:
        default = _channel_spec(top["default_channel"], "default_channel")

    channels: dict[JurisdictionId, ChannelSpec] = {}
    if is_swiss:
        for code, tag in swiss.channel_assignments().items():
            channels[swiss.canton_id(code)] = preset(tag)

    for key, raw in _mapping(top.get("channels", {}), "channels").items():
        channels[_edge(key, tree, f"channels.{key}")] = _channel_spec(raw, f"channels.{key}")

    for node in tree.nodes():
        if node == tree.root or node in channels:
            continue
        if default is None:
            raise ConfigError(
                f"field 'channels': no channel for edge {node} and no default_channel"
            )
        channels[node] = default
    return channels


def _apply_wrap(
    value: Any,
    channels: dict[JurisdictionId, ChannelSpec],
    tree: JurisdictionTree,
) -> None:
    if value is None:
        return
    obj = _mapping(value, "wrap")
    _reject_unknown(obj, {"all", "edges"}, "wrap")
    if obj.get("all") is not None and _bool(obj["all"], "wrap.all"):
        for node in list(channels):
            channels[node] = wrapped(channels[node])
        return
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise ConfigError("field 'wrap.edges' must be a list of jurisdiction paths")
    for i, raw in enumerate(edges):
        node = _edge(raw, tree, f"wrap.edges[{i}]")
        channels[node] = wrapped(channels[node])


def _timing(
    value: Any, tree: JurisdictionTree
) -> tuple[dict[JurisdictionId, int], dict[JurisdictionId, int], int]:
    if value is None:
        return {}, {}, DEFAULT_FINAL_EMIT_AT
    obj = _mapping(value, "timing")
    _reject_unknown(obj, _TIMING_KEYS, "timing")
    prelim: dict[JurisdictionId, int] = {}
    final: dict[JurisdictionId, int] = {}
    for field_name, into in (("prelim_emit", prelim), ("final_emit", final)):
        for key, raw in _mapping(obj.get(field_name, {}), f"timing.{field_name}").items():
            node = _node(key, tree, f"timing.{field_name}.{key}")
            if tree.children(node):
                raise ConfigError(
                    f"field 'timing.{field_name}.{key}': not a leaf; only leaves emit reports"
                )
            into[node] = _int(raw, f"timing.{field_name}.{key}", minimum=0)
    default = _int(obj.get("final_emit_default", DEFAULT_FINAL_EMIT_AT),
                   "timing.final_emit_default", minimum=0)
    return prelim, final, default


def _noise(value: Any) -> NoiseModel | None:
    if value is None:
        return None
    obj = _mapping(value, "noise")
    _reject_unknown(obj, {"probability", "max_shift"}, "noise")
    raw_p = _required(obj, "probability", "noise")
    if isinstance(raw_p, bool) or not isinstance(raw_p, (int, float)):
        raise ConfigError("field 'noise.probability' must be a number")
    try:
        return NoiseModel(
            probability=float(raw_p),
            max_shift=_int(_required(obj, "max_shift", "noise"), "noise.max_shift", minimum=1),
        )
    except ValueError as exc:
        raise ConfigError(f"field 'noise': {exc}") from None


def _mutation(value: Any, where: str) -> Mutation:
    obj = _mapping(value, where)
    _reject_unknown(obj, _MUTATION_KEYS, where)
    kind = _choice(MutationKind, _required(obj, "kind", where), f"{where}.kind", "mutation kind")
    counts = _counts(obj["counts"], f"{where}.counts") if "counts" in obj else None
    try:
        return Mutation(
            kind=kind,
            counts=counts,
            shift=_int(obj.get("shift", 0), f"{where}.shift") if "shift" in obj else 0,
            direction=_string(obj["direction"], f"{where}.direction") if "direction" in obj else "yes_to_no",
        )
    except ValueError as exc:
        raise ConfigError(f"field '{where}': {exc}") from None


def _attacks(value: Any, tree: JurisdictionTree) -> tuple[AttackSpec, ...]:
    if not isinstance(value, list):
        raise ConfigError("field 'attacks' must be a list")
    attacks: list[AttackSpec] = []
    for i, raw in enumerate(value):
        where = f"attacks[{i}]"
        obj = _mapping(raw, where)
        _reject_unknown(obj, _ATTACK_KEYS, where)
        kind = _choice(AttackKind, _required(obj, "kind", where), f"{where}.kind", "attack kind")
        edge = _edge(_required(obj, "edge", where), tree, f"{where}.edge")
        report_kind = ReportKind.PRELIMINARY
        if "report_kind" in obj:
            report_kind = _choice(ReportKind, obj["report_kind"], f"{where}.report_kind", "kind")
        first_n: int | None = 1
        if "first_n" in obj:
            first_n = None if obj["first_n"] is None else _int(obj["first_n"], f"{where}.first_n", minimum=1)
        try:
            attacks.append(
                AttackSpec(
                    kind=kind,
                    edge_child=edge,
                    report_kind=report_kind,
                    first_n=first_n,
                    mutation=_mutation(obj["mutation"], f"{where}.mutation") if "mutation" in obj else None,
                    hold_ticks=_int(obj.get("hold_ticks", 0), f"{where}.hold_ticks") if "hold_ticks" in obj else 0,
                    forged_counts=_counts(obj["forged_counts"], f"{where}.forged_counts") if "forged_counts" in obj else None,
                    forged_seq=_int(obj["forged_seq"], f"{where}.forged_seq", minimum=1) if "forged_seq" in obj else None,
                    seq_offset=_int(obj.get("seq_offset", 1000), f"{where}.seq_offset", minimum=1),
                    omniscient=_bool(obj.get("omniscient", False), f"{where}.omniscient"),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"field '{where}': {exc}") from None
    return tuple(attacks)
