"""Exception taxonomy shared by the whole package."""

import numpy as np

__all__ = [
    "MannheimLabError",
    "OutOfDomainError",
    "NullTangentError",
    "MixedCausalCharacterError",
    "NotUnitSpeedError",
    "MissingScalarJetError",
    "VanishingCurvatureError",
    "NullPrincipalNormalError",
    "NonPositiveCurvatureError",
    "TooManyStepsError",
    "PrescriptionError",
    "SynthesisOverflowError",
    "TableSizeError",
    "ArcLengthOverflowError",
    "ZeroLambdaError",
    "UnsupportedCombinationError",
    "NegativeConditionValueError",
    "VanishingTorsionError",
    "InconsistentDecompositionError",
    "DegenerateIndicatrixError",
    "ExprSyntaxError",
    "ExprDomainError",
    "CsvFormatError",
    "raise_first",
]


def raise_first(checks) -> None:
    """Raise for the first failing grid row, as a row-by-row loop would.

    ``checks`` holds ``(mask, error)`` pairs in the order one row is checked:
    ``mask`` flags failing rows and ``error(i)`` builds the exception of row ``i``.
    """
    if not any(mask.any() for mask, _ in checks):
        return
    i = int(np.logical_or.reduce([mask for mask, _ in checks]).argmax())
    exc = next(error(i) for mask, error in checks if mask[i])
    exc.row = i
    raise exc


class MannheimLabError(Exception):
    """Base class for all domain errors raised by this package."""

    row: int | None = None  # the failing row, when a grid check raised the error


class OutOfDomainError(MannheimLabError):
    """A parameter value lies outside a curve's domain."""


class NullTangentError(MannheimLabError):
    """A curve tangent is null where a non-null one is required."""


class MixedCausalCharacterError(MannheimLabError):
    """A field changed causal character along the curve."""


class NotUnitSpeedError(MannheimLabError):
    """An operation requiring arc-length parametrization got something else."""


class MissingScalarJetError(MannheimLabError):
    """Derivatives of curvature and torsion were asked of a curve without a scalar jet."""


class VanishingCurvatureError(MannheimLabError):
    """Curvature fell below tolerance; the frame is undefined there."""


class NullPrincipalNormalError(MannheimLabError):
    """The tangent derivative is null, so no unit principal normal exists."""


class NonPositiveCurvatureError(MannheimLabError):
    """A prescribed curvature function is not strictly positive."""


class TooManyStepsError(MannheimLabError):
    """A synthesis step is too small for its range.

    Either the step count exceeds the cap, or the integration nodes do not
    differ as floats.
    """


class PrescriptionError(MannheimLabError):
    """A prescribed scalar function rejects a ``Jet2``, or returns no number or a non-finite one."""


class SynthesisOverflowError(MannheimLabError):
    """The integrated frame or its derivative fields stopped being finite."""


class TableSizeError(MannheimLabError):
    """An arc-length table size lies outside [2, ``curve.MAX_TABLE_SIZE``]."""


class ArcLengthOverflowError(MannheimLabError):
    """An arc-length table's pieces are too long for its interpolant to evaluate."""


class ZeroLambdaError(MannheimLabError):
    """Offset distance of zero would duplicate the base curve; a non-finite one gives no curve."""


class UnsupportedCombinationError(MannheimLabError):
    """A causal-character combination outside the five catalogued pair types."""


class NegativeConditionValueError(MannheimLabError):
    """The partner equation leaves the offset constant undefined: no real offset."""


class VanishingTorsionError(MannheimLabError):
    """Torsion vanished where an identity divides by it."""


class InconsistentDecompositionError(MannheimLabError):
    """Tangent projections do not satisfy the decomposition invariant."""


class DegenerateIndicatrixError(MannheimLabError):
    """A spherical image is stationary; its tangent is undefined."""


class ExprSyntaxError(MannheimLabError):
    """Parse failure in the scalar-expression grammar.

    ``offset`` is the byte offset of the failure in the source text.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprDomainError(MannheimLabError):
    """An expression is undefined or overflows at an evaluation point."""


class CsvFormatError(MannheimLabError):
    """A sample CSV file does not match the documented layout."""
