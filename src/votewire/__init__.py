"""Deterministic simulator and protocol library for hierarchical
preliminary election-result aggregation.

Vote totals flow from counting stations up a jurisdiction tree over
channels that are either signed or not; adversaries can tamper with or
front-run reports on unsigned channels, and delay them on any channel. A
signed transport, certificate chains, and replay protection close the
first two holes.
Historical preliminary-vs-final discrepancies and minimum-flip solvers
quantify how little manipulation a close referendum needs.

The public names below resolve on first access (PEP 562): ``from votewire
import X`` imports only the submodule that defines X, so a simulation that
never asks for a flip solver or a tally does not load them.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # each re-exported submodule and the public names it defines
    "channels": (
        "DEDICATED_SOFTWARE", "EMAIL", "FAX", "POSTAL_FINAL", "PRESETS", "TELEPHONE",
        "ChannelSpec", "preset", "wrapped",
    ),
    "counts": ("VoteCount", "accumulate"),
    "errors": (
        "ArithmeticOverflow", "CapabilityError", "ConfigError", "DuplicateRecord",
        "EncodingError", "HierarchyError", "Infeasible", "MissingCanton", "ParseError",
        "StoreConflict", "SubjectMismatch", "VotewireError",
    ),
    "flips": (
        "FlipPlan", "apply_flips", "apply_plan", "flips_to_majority", "min_flips_cantonal",
        "min_flips_double", "min_flips_outcome", "min_flips_popular",
    ),
    "reports": ("Report", "ReportKind"),
    "tally": (
        "Decision", "MajorityRule", "Outcome", "ReferendumSpec", "cantonal_outcome",
        "popular_outcome", "referendum_outcome",
    ),
    "tree": ("JurisdictionId", "JurisdictionTree", "tree_from_paths"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """Import a public name's submodule, or a re-exported submodule, on first access."""
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this function
        return value
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
