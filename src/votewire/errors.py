"""Exception hierarchy shared across the package."""


class VotewireError(Exception):
    """Base class for all errors raised by this package."""


class ArithmeticOverflow(VotewireError):
    """A count component left the representable 64-bit range."""


class MissingCanton(VotewireError):
    """A weighted canton has no vote count."""


class Infeasible(VotewireError):
    """No flip allocation can reach the requested outcome."""


class ConfigError(VotewireError):
    """Scenario configuration is invalid; message carries field/line context."""


class CapabilityError(VotewireError):
    """An attack was declared on a channel that rules it out."""


class HierarchyError(VotewireError):
    """A certificate was requested for a subject outside the issuer's direct children."""


class SubjectMismatch(VotewireError):
    """Signing key, certificate chain, and report sender disagree."""


class StoreConflict(VotewireError):
    """A trust store would share its directory or a file name with another certificate."""


class EncodingError(VotewireError):
    """A value contains characters the canonical encoding cannot carry."""


class ParseError(VotewireError):
    """A results file failed to parse; message carries the row number."""


class DuplicateRecord(VotewireError):
    """The same (referendum, canton) pair appears twice in a results file."""
