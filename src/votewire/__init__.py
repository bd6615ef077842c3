"""Deterministic simulator and protocol library for hierarchical
preliminary election-result aggregation.

Vote totals flow from counting stations up a jurisdiction tree over
channels that are either signed or not; adversaries can tamper with or
front-run reports on unsigned channels, and delay them on any channel. A
signed transport, certificate chains, and replay protection close the
first two holes.
Historical preliminary-vs-final discrepancies and minimum-flip solvers
quantify how little manipulation a close referendum needs.
"""

from .channels import (
    DEDICATED_SOFTWARE,
    EMAIL,
    FAX,
    POSTAL_FINAL,
    PRESETS,
    TELEPHONE,
    ChannelSpec,
    preset,
    wrapped,
)
from .counts import VoteCount, accumulate
from .errors import (
    ArithmeticOverflow,
    CapabilityError,
    ConfigError,
    DuplicateRecord,
    EncodingError,
    HierarchyError,
    Infeasible,
    MissingCanton,
    ParseError,
    StoreConflict,
    SubjectMismatch,
    VotewireError,
)
from .flips import (
    FlipPlan,
    apply_flips,
    apply_plan,
    flips_to_majority,
    min_flips_cantonal,
    min_flips_double,
    min_flips_outcome,
    min_flips_popular,
)
from .reports import Report, ReportKind
from .tally import (
    Decision,
    MajorityRule,
    Outcome,
    ReferendumSpec,
    cantonal_outcome,
    popular_outcome,
    referendum_outcome,
)
from .tree import JurisdictionId, JurisdictionTree, tree_from_paths

__version__ = "0.1.0"

__all__ = [
    "ArithmeticOverflow",
    "CapabilityError",
    "ChannelSpec",
    "ConfigError",
    "DEDICATED_SOFTWARE",
    "Decision",
    "DuplicateRecord",
    "EMAIL",
    "EncodingError",
    "FAX",
    "FlipPlan",
    "HierarchyError",
    "Infeasible",
    "JurisdictionId",
    "JurisdictionTree",
    "MajorityRule",
    "MissingCanton",
    "Outcome",
    "POSTAL_FINAL",
    "PRESETS",
    "ParseError",
    "ReferendumSpec",
    "Report",
    "ReportKind",
    "StoreConflict",
    "SubjectMismatch",
    "TELEPHONE",
    "VoteCount",
    "VotewireError",
    "accumulate",
    "apply_flips",
    "apply_plan",
    "cantonal_outcome",
    "flips_to_majority",
    "min_flips_cantonal",
    "min_flips_double",
    "min_flips_outcome",
    "min_flips_popular",
    "popular_outcome",
    "preset",
    "referendum_outcome",
    "tree_from_paths",
    "wrapped",
]
