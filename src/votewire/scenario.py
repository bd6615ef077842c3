"""Scenario files: JSON descriptions of a complete simulation run.

A scenario pins everything a run depends on, so the same file plus the
same seed always reproduces the same trace. Parsing checks the JSON's
shape and types and resolves each jurisdiction named to a node of the
tree. It returns the ``Simulation`` itself, whose construction checks the
run's rules: ground-truth cover, channels, emit times, non-negative
integers, attack edges and capabilities. Every error names its field
(``attacks[0].mutation.shift``) or, for malformed JSON, the line and column.

A field the file leaves out is not passed on: it takes the default of the
class it builds (``Simulation``, ``AttackSpec``, ``Mutation``), so every
default is stated once, on that class.
"""

from __future__ import annotations

import enum
import json
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

from . import swiss
from .adversary import AttackKind, AttackSpec, Mutation, MutationKind
from .channels import PRESETS, ChannelSpec, preset, wrapped
from .counts import VoteCount
from .engine import NoiseModel, Simulation
from .errors import ArithmeticOverflow, ConfigError
from .reports import ReportKind
from .tally import MajorityRule
from .tree import JurisdictionId, JurisdictionTree, tree_from_paths

_TOP_KEYS = {
    "election_id", "majority_rule", "seed", "tree", "ground_truth", "channels",
    "default_channel", "wrap", "postal_latency", "timing", "jitter_max",
    "noise", "attacks",
}
# A parse's table of the tree's own nodes, by their text.
_Nodes = Mapping[str, JurisdictionId]
# Checks one field's value, named by its second argument, and converts it.
_Converter = Callable[[Any, str], Any]
_Built = TypeVar("_Built")


def build_simulation(config: Simulation, seed: int | None = None) -> Simulation:
    """The scenario's run, with its seed replaced when ``seed`` is given.

    A seed the run refuses, such as a negative one, is a ConfigError.
    """
    if seed is None:
        return config
    return replace(config, seed=seed)


def load_scenario(path: str | Path) -> Simulation:
    return parse_scenario(_read(path))


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def bundled_scenario_path(name: str) -> Path:
    from importlib.resources import files

    return Path(str(files("votewire.data").joinpath("scenarios", f"{name}.json")))


def load_tree(path: str | Path) -> JurisdictionTree:
    """The tree of a scenario file, or of a file holding a bare tree object."""
    document = _json(_read(path))
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
    except (ValueError, RecursionError) as exc:  # past Python's digit or nesting limit
        raise ConfigError(f"invalid JSON: {exc}") from None


def parse_scenario(text: str) -> Simulation:
    top = _mapping(_json(text), "scenario")
    _reject_unknown(top, _TOP_KEYS, "scenario")

    election_id = _string(_required(top, "election_id", "scenario"), "election_id")
    # Checked but not kept: simulating never tallies.
    _given(top, {"majority_rule": partial(_choice, MajorityRule, what="rule")})
    given = _given(top, {"seed": _int})

    tree = tree_from_config(_required(top, "tree", "scenario"))
    # Every jurisdiction key below resolves through this table of the
    # tree's own nodes, so no node is built twice and every dict the run
    # reads is keyed by the very objects the tree hands out. The table
    # lives for this call only.
    nodes = {str(node): node for node in tree.order()}
    ground_truth = _ground_truth(_required(top, "ground_truth", "scenario"), nodes)
    channels = _channels(top, tree, nodes)
    _apply_wrap(top.get("wrap"), channels, tree, nodes)

    given.update(_given(top, {"postal_latency": _int}))
    if top.get("timing") is not None:  # its keys are Simulation fields
        emit_times = partial(_keyed, key=partial(_node, nodes), convert=_int)
        given.update(_build(dict, top["timing"], "timing", {}, {
            "prelim_emit": emit_times, "final_emit": emit_times, "final_emit_default": _int,
        }))
    given.update(_given(top, {
        "jitter_max": _int, "noise": _noise, "attacks": partial(_attacks, nodes=nodes),
    }))
    return Simulation(election_id, tree, channels, ground_truth, **given)


def _required(mapping: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"field '{where}.{key}' is required")
    return mapping[key]


def _given(
    obj: Mapping[str, Any], table: Mapping[str, _Converter], prefix: str = ""
) -> dict[str, Any]:
    """Each key of ``table`` that ``obj`` sets, converted, in table order.

    A key the object leaves out is not passed on, so the class built from
    the result applies its own default.
    """
    return {key: convert(obj[key], prefix + key) for key, convert in table.items() if key in obj}


def _build(
    cls: Callable[..., _Built],
    value: Any,
    where: str,
    required: Mapping[str, _Converter],
    optional: Mapping[str, _Converter],
) -> _Built:
    """``cls`` built from the object at ``where``, which may hold only the tables' keys.

    The required values are passed in table order, then what ``_given``
    passes on. A ValueError from ``cls`` becomes a ConfigError naming ``where``.
    """
    obj = _mapping(value, where)
    _reject_unknown(obj, required.keys() | optional.keys(), where)
    values = [convert(_required(obj, k, where), f"{where}.{k}") for k, convert in required.items()]
    try:
        return cls(*values, **_given(obj, optional, f"{where}."))
    except ValueError as exc:
        raise ConfigError(f"field '{where}': {exc}") from None


def _keyed(value: Any, where: str, key: _Converter, convert: _Converter) -> dict[Any, Any]:
    """The object at ``where`` with each value converted and then its key resolved by ``key``."""
    out = {}
    for text, raw in _mapping(value, where).items():
        at = f"{where}.{text}"
        out[key(text, at)] = convert(raw, at)
    return out


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
    if type(value) is not int:
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


def _node(nodes: _Nodes, value: Any, where: str) -> JurisdictionId:
    """The tree's own node that ``value`` names, from the parse's table."""
    node = nodes.get(value) if isinstance(value, str) else None
    if node is None:
        _path_key(value, where)  # a malformed path gets the id's error
        raise ConfigError(f"field '{where}': unknown jurisdiction {value!r}")
    return node


def _edge(value: Any, tree: JurisdictionTree, nodes: _Nodes, where: str) -> JurisdictionId:
    """A node other than the root, naming the edge up to its parent."""
    node = _node(nodes, value, where)
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


# The count fields a file may set; VoteCount makes each one left out 0.
_COUNT_FIELDS = {name: partial(_int, minimum=0) for name in VoteCount._fields}


def _counts(value: Any, where: str) -> VoteCount:
    # The common case is one checked construction, building no field name;
    # whatever it refuses takes _build, whose checks name the field.
    if type(value) is dict and value.keys() <= _COUNT_FIELDS.keys():
        try:
            return VoteCount(**value)
        except (TypeError, ValueError, ArithmeticOverflow):
            pass
    return _build(VoteCount, value, where, {}, _COUNT_FIELDS)


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
    # One id per path text across the paths and both tables, so a node two
    # of them name is one object, which tree_from_paths makes the tree's own.
    ids: dict[str, JurisdictionId] = {}

    def key(value: Any, where: str) -> JurisdictionId:
        if not isinstance(value, str) or value not in ids:
            ids[value] = _path_key(value, where)  # raises unless value is a str
        return ids[value]

    paths = [key(p, f"tree.paths[{i}]").path for i, p in enumerate(raw_paths)]
    half_votes = _keyed(obj.get("half_votes", {}), "tree.half_votes", key, partial(_int, minimum=1))
    eligible = _keyed(
        obj.get("eligible_voters", {}), "tree.eligible_voters", key, partial(_int, minimum=0)
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
    return _keyed(obj, "ground_truth", partial(_node, nodes), _counts)


def _truth_from_results(name: str, nodes: _Nodes) -> dict[JurisdictionId, VoteCount]:
    """Leaf ground truth from a bundled results file's final columns.

    Each leaf's truth is its record's ``final``: yes/no as cast, and
    whatever remains of final_total as blank, preserving published totals.
    """
    from .analysis import bundled_results_path, load_results

    try:
        records = load_results(bundled_results_path(name))
    except (OSError, ValueError):  # no such file, or a name no file can have (a NUL)
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
        return preset(_preset_name(value, where))
    optional = {"base_latency": partial(_int, minimum=0)}
    return _build(preset, value, where, {"preset": _preset_name}, optional)


def _preset_name(value: Any, where: str) -> str:
    name = _string(value, where)
    if name not in PRESETS:
        raise ConfigError(f"field '{where}': unknown channel preset {name!r}")
    return name


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

    # A key naming the root is refused by the run, with this field's name.
    channels.update(
        _keyed(top.get("channels", {}), "channels", partial(_node, nodes), _channel_spec)
    )

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


def _probability(value: Any, where: str) -> float | int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{where}' must be a number")
    # An int past float's range cannot convert; the model refuses it as it is.
    return float(value) if 0 <= value <= 1 else value


def _noise(value: Any, where: str) -> NoiseModel | None:
    if value is None:
        return None
    required = {"probability": _probability, "max_shift": partial(_int, minimum=1)}
    return _build(NoiseModel, value, where, required, {})


def _mutation(value: Any, where: str) -> Mutation:
    return _build(
        Mutation, value, where, {"kind": partial(_choice, MutationKind, what="mutation kind")},
        {"counts": _counts, "shift": _int, "direction": _string},
    )


def _attacks(value: Any, where: str, nodes: _Nodes) -> tuple[AttackSpec, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"field '{where}' must be a list")
    required = {
        "kind": partial(_choice, AttackKind, what="attack kind"),
        "edge": partial(_node, nodes),
    }
    optional = {
        "report_kind": partial(_choice, ReportKind, what="kind"),
        "first_n": lambda raw, at: None if raw is None else _int(raw, at, minimum=1),
        "mutation": _mutation,
        "hold_ticks": _int,
        "forged_counts": _counts,
        "forged_seq": partial(_int, minimum=1),
        "seq_offset": partial(_int, minimum=1),
        "omniscient": _bool,
    }
    return tuple(
        _build(AttackSpec, raw, f"{where}[{i}]", required, optional) for i, raw in enumerate(value)
    )
