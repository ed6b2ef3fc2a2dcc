"""Exception hierarchy.

Every error carries a module tag and a short machine-readable code so the
CLI can emit single-line diagnostics of the form ``error:<module>:<code>: msg``.
"""

from __future__ import annotations


class EmarigError(Exception):
    """Base class for all errors raised by this package."""

    module = "emarig"
    code = "error"

    def __init__(self, message: str, *, module: str | None = None):
        super().__init__(message)
        if module is not None:
            self.module = module

    def diagnostic(self) -> str:
        return f"error:{self.module}:{self.code}: {self}"


# --- EMA file I/O -----------------------------------------------------------

class TruncatedFrame(EmarigError):
    module = "ema_io"
    code = "truncated_frame"


class BadLayout(EmarigError):
    module = "ema_io"
    code = "bad_layout"


class ChannelMismatch(EmarigError):
    module = "ema_io"
    code = "channel_mismatch"


class BadRoles(EmarigError):
    module = "ema_io"
    code = "bad_roles"


# --- motion preparation -----------------------------------------------------

class DegenerateConfiguration(EmarigError):
    module = "motion_prep"
    code = "degenerate_configuration"


class NoValidReferenceFrame(EmarigError):
    module = "motion_prep"
    code = "no_valid_reference_frame"


class AllInvalidChannel(EmarigError):
    module = "motion_prep"
    code = "all_invalid_channel"


class WindowTooLarge(EmarigError):
    module = "motion_prep"
    code = "window_too_large"


# --- rig compilation --------------------------------------------------------

class ParseError(EmarigError):
    """Malformed input text (rig graph, OBJ, COLLADA, segmentation...)."""

    code = "parse_error"

    def __init__(self, message: str, *, module: str = "rig"):
        super().__init__(message, module=module)


class CycleDetected(EmarigError):
    module = "rig"
    code = "cycle_detected"


class MultipleRoots(EmarigError):
    module = "rig"
    code = "multiple_roots"


class UnknownCoilNode(EmarigError):
    module = "rig"
    code = "unknown_coil_node"


class MissingGroup(EmarigError):
    module = "rig"
    code = "missing_group"


class MissingSeed(EmarigError):
    module = "rig"
    code = "missing_seed"


class DegenerateBone(EmarigError):
    module = "rig"
    code = "degenerate_bone"


# --- animation database -----------------------------------------------------

class OverlapError(EmarigError):
    module = "anim_db"
    code = "overlap"


class NonMonotonic(EmarigError):
    module = "anim_db"
    code = "non_monotonic"


class BadNumber(EmarigError):
    module = "anim_db"
    code = "bad_number"


class EmptyTier(EmarigError):
    module = "anim_db"
    code = "empty_tier"


# --- unit selection ---------------------------------------------------------

class NoCandidate(EmarigError):
    module = "unit_synth"
    code = "no_candidate"

    def __init__(self, label: str):
        super().__init__(f"no unit in the database carries label {label!r}")
        self.label = label


class BadRequest(EmarigError, ValueError):
    module = "unit_synth"
    code = "bad_request"


# --- export -----------------------------------------------------------------

class InconsistentRig(EmarigError):
    module = "export"
    code = "inconsistent_rig"


class UnsupportedFeature(EmarigError):
    module = "export"
    code = "unsupported_feature"


class BundleError(EmarigError):
    module = "export"
    code = "bundle"


class IncompatibleBundle(EmarigError):
    module = "cli"
    code = "incompatible_bundle"


# --- pipeline / CLI ---------------------------------------------------------

class ConfigError(EmarigError):
    module = "cli"
    code = "config"
