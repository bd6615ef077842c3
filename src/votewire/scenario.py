"""Scenario files: JSON descriptions of a complete simulation run.

A scenario pins everything a run depends on, so the same file plus the
same seed always reproduces the same trace. Parsing checks the JSON's
shape and types and resolves each jurisdiction named to a node of the
tree. It returns the ``Simulation`` itself, whose construction checks the
run's rules: ground-truth cover, channels, emit times, non-negative
integers, attack edges and capabilities. Every error names its field
(``attacks[0].mutation.shift``) or, for malformed JSON, the line and column.
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
from .errors import ArithmeticOverflow, ConfigError
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
# A parse's table of the tree's own nodes, by their text.
_Nodes = Mapping[str, JurisdictionId]


def build_simulation(config: Simulation, seed: int | None = None) -> Simulation:
    """The scenario's run, with its seed replaced when ``seed`` is given.

    A seed the run refuses, such as a negative one, is a ConfigError.
    """
    if seed is None:
        return config
    return replace(config, seed=seed)


def load_scenario(path: str | Path) -> Simulation:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def bundled_scenario_path(name: str) -> Path:
    from importlib.resources import files

    return Path(str(files("votewire.data").joinpath("scenarios", f"{name}.json")))


def load_tree(path: str | Path) -> JurisdictionTree:
    """The tree of a scenario file, or of a file holding a bare tree object."""
    document = _json(Path(path).read_text(encoding="utf-8"))
    if isinstance(document, dict):
        document = document.get("tree", document)
    return tree_from_config(document)


def _json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def parse_scenario(text: str) -> Simulation:
    top = _mapping(_json(text), "scenario")
    _reject_unknown(top, _TOP_KEYS, "scenario")

    election_id = _string(_required(top, "election_id", "scenario"), "election_id")
    # Checked but not kept: simulating never tallies.
    _choice(MajorityRule, top.get("majority_rule", "double"), "majority_rule", "rule")
    seed = _int(top.get("seed", 0), "seed")

    tree = tree_from_config(_required(top, "tree", "scenario"))
    # Every jurisdiction key below resolves through this table of the
    # tree's own nodes, so no node is built twice and every dict the run
    # reads is keyed by the very objects the tree hands out. The table
    # lives for this call only.
    nodes = {str(node): node for node in tree.order()}
    ground_truth = _ground_truth(_required(top, "ground_truth", "scenario"), nodes)
    channels = _channels(top, tree, nodes)
    _apply_wrap(top.get("wrap"), channels, tree, nodes)

    postal_latency = _int(top.get("postal_latency", POSTAL_FINAL.base_latency), "postal_latency")
    prelim_emit, final_emit, final_default = _timing(top.get("timing"), nodes)
    jitter_max = _int(top.get("jitter_max", 0), "jitter_max")
    noise = _noise(top.get("noise"))
    attacks = _attacks(top.get("attacks", []), nodes)

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
    if type(value) is int and (minimum is None or value >= minimum):
        return value
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


def _path(value: Any, where: str) -> tuple[str, ...]:
    """The segments of a path string, checked without building its id.

    A path passes when ``JurisdictionId`` would accept it: no empty segment
    and no newline ('/' only separates). Anything else takes ``_path_key``,
    which raises the id's own error.
    """
    if isinstance(value, str) and "\n" not in value:
        path = tuple(value.split("/"))
        if "" not in path:
            return path
    return _path_key(value, where).path


def _node(value: Any, nodes: _Nodes, where: str) -> JurisdictionId:
    """The tree's own node that ``value`` names, from the parse's table."""
    node = nodes.get(value) if isinstance(value, str) else None
    if node is None:
        _path_key(value, where)  # a malformed path gets the id's error
        raise ConfigError(f"field '{where}': unknown jurisdiction {value!r}")
    return node


def _edge(value: Any, tree: JurisdictionTree, nodes: _Nodes, where: str) -> JurisdictionId:
    """A node other than the root, naming the edge up to its parent."""
    node = _node(value, nodes, where)
    if node is tree.root:
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
    # The common case is one checked construction, building no field name;
    # whatever it refuses takes the checks below, which name the field.
    if type(value) is dict and value.keys() <= _COUNT_KEYS:
        get = value.get
        try:
            return VoteCount(get("yes", 0), get("no", 0), get("blank", 0), get("invalid", 0))
        except (TypeError, ValueError, ArithmeticOverflow):
            pass
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
    """Parse the ``tree`` object of a scenario document."""
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
    paths = [_path(p, f"tree.paths[{i}]") for i, p in enumerate(raw_paths)]
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


def _ground_truth(value: Any, nodes: _Nodes) -> dict[JurisdictionId, VoteCount]:
    obj = _mapping(value, "ground_truth")
    if "bundled_results" in obj:
        _reject_unknown(obj, {"bundled_results"}, "ground_truth")
        name = _string(obj["bundled_results"], "ground_truth.bundled_results")
        return _truth_from_results(name, nodes)
    truth: dict[JurisdictionId, VoteCount] = {}
    for key, raw in obj.items():
        where = f"ground_truth.{key}"
        truth[_node(key, nodes, where)] = _counts(raw, where)
    return truth


def _truth_from_results(name: str, nodes: _Nodes) -> dict[JurisdictionId, VoteCount]:
    """Leaf ground truth from a bundled results file's final columns.

    Each leaf's truth is its record's ``final``: yes/no as cast, and
    whatever remains of final_total as blank, preserving published totals.
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
        node = nodes.get(str(swiss.canton_id(record.canton)))
        if node is None:
            raise ConfigError(
                f"field 'ground_truth.bundled_results': {record.canton!r} is not in the tree"
            )
        truth[node] = record.final
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


def _channels(
    top: Mapping[str, Any], tree: JurisdictionTree, nodes: _Nodes
) -> dict[JurisdictionId, ChannelSpec]:
    default: ChannelSpec | None = None
    if "default_channel" in top:
        default = _channel_spec(top["default_channel"], "default_channel")

    channels: dict[JurisdictionId, ChannelSpec] = {}
    if tree.root == swiss.federal_id():
        cantons = {
            str(swiss.canton_id(c)): preset(t) for c, t in swiss.channel_assignments().items()
        }
        if {str(kid) for kid in tree.children(tree.root)} == cantons.keys():
            channels.update((nodes[text], spec) for text, spec in cantons.items())

    for key, raw in _mapping(top.get("channels", {}), "channels").items():
        where = f"channels.{key}"
        # A key naming the root is refused by the run, with this field's name.
        channels[_node(key, nodes, where)] = _channel_spec(raw, where)

    if default is not None:
        for node in tree.order()[1:]:
            channels.setdefault(node, default)
    return channels


def _apply_wrap(
    value: Any,
    channels: dict[JurisdictionId, ChannelSpec],
    tree: JurisdictionTree,
    nodes: _Nodes,
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
        node = _edge(raw, tree, nodes, f"wrap.edges[{i}]")
        # An edge without a channel is left for the run to refuse.
        if node in channels:
            channels[node] = wrapped(channels[node])


def _timing(
    value: Any, nodes: _Nodes
) -> tuple[dict[JurisdictionId, int], dict[JurisdictionId, int], int]:
    if value is None:
        return {}, {}, DEFAULT_FINAL_EMIT_AT
    obj = _mapping(value, "timing")
    _reject_unknown(obj, _TIMING_KEYS, "timing")
    prelim: dict[JurisdictionId, int] = {}
    final: dict[JurisdictionId, int] = {}
    for field_name, into in (("prelim_emit", prelim), ("final_emit", final)):
        for key, raw in _mapping(obj.get(field_name, {}), f"timing.{field_name}").items():
            where = f"timing.{field_name}.{key}"
            into[_node(key, nodes, where)] = _int(raw, where)
    default = _int(obj.get("final_emit_default", DEFAULT_FINAL_EMIT_AT),
                   "timing.final_emit_default")
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


def _attacks(value: Any, nodes: _Nodes) -> tuple[AttackSpec, ...]:
    if not isinstance(value, list):
        raise ConfigError("field 'attacks' must be a list")
    attacks: list[AttackSpec] = []
    for i, raw in enumerate(value):
        where = f"attacks[{i}]"
        obj = _mapping(raw, where)
        _reject_unknown(obj, _ATTACK_KEYS, where)
        kind = _choice(AttackKind, _required(obj, "kind", where), f"{where}.kind", "attack kind")
        edge = _node(_required(obj, "edge", where), nodes, f"{where}.edge")
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
