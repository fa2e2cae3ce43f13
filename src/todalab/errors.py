"""Exception hierarchy with stable error codes (surfaced by the CLI)."""


class TodaLabError(Exception):
    """Base for all package errors; ``code`` is a stable machine-readable tag."""

    code = "error"


class ValidationError(TodaLabError):
    code = "validation"


class UnsupportedTypeError(TodaLabError):
    code = "unsupported-type"


class CapExceededError(TodaLabError):
    code = "cap-exceeded"


class InvalidQError(TodaLabError):
    code = "invalid-q"


class NotAPerfectSquareError(TodaLabError):
    code = "not-a-perfect-square"


class ZeroPolynomialError(TodaLabError):
    code = "zero-polynomial"


class NoConstantFitsError(TodaLabError):
    code = "no-constant-fits"


class InsufficientDataError(TodaLabError):
    code = "insufficient-data"


class DegenerateSpectrumError(TodaLabError):
    code = "degenerate-spectrum"


class GridUnstableError(TodaLabError):
    code = "grid-unstable"

    def __init__(self, count_coarse, count_fine):
        super().__init__(
            f"zero-crossing count changed under grid doubling: "
            f"{count_coarse} (coarse) vs {count_fine} (fine)"
        )
        self.count_coarse = count_coarse
        self.count_fine = count_fine


class StepCollapseError(TodaLabError):
    code = "step-collapse-without-divergence"
