"""Curve geometry in Minkowski 3-space.

Vector algebra with the (-,+,+) metric, frame extraction and synthesis for
non-null curves, partner-curve offsets with a full set of numerical
identity audits, spherical frame images, and a command-line front end.
"""

from .lorentz import CausalCharacter, Vec3L
from .curve import (
    Curve,
    CurveSamples,
    classify_curve,
    curve_from_samples,
    load_samples_csv,
    reparametrize_unit,
    sample,
)
from .frenet import (
    CurveKind,
    frenet_apparatus,
    frenet_synthesize,
    synthesized_gram_drift,
)
from .mannheim import (
    IDENTITIES,
    MannheimCurveTest,
    MannheimPair,
    MannheimPairType,
    PairSamples,
    classify_pair,
    exact_partner_pair,
    mannheim_curve_test,
    offset_along_binormal,
    offset_along_normal,
)
from .indicatrix import (
    Indicatrix,
    indicatrix_of,
)
from .builtins import BUILTIN_CURVE_NAMES, builtin_curve
from .expr import Expr, parse_expr
from .reports import VerificationReport, Verdict
from . import errors

__version__ = "0.1.0"
