"""Curve geometry in Minkowski 3-space.

Vector algebra with the (-,+,+) metric, frame extraction and synthesis for
non-null curves, normal and binormal offsets, partner pairs with a full set
of numerical identity audits, spherical frame images, and a command-line
front end.

Importing the package loads none of its modules: each exported name and
each submodule attribute (``mannheim_lab.frenet``, ...) is imported on first
access (PEP 562), so a program, or a CLI command, pays only for the modules
it reads.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, by the module that defines it.
_EXPORTS = {
    "lorentz": ("CausalCharacter", "Vec3L"),
    "curve": (
        "Curve",
        "CurveSamples",
        "classify_curve",
        "curve_from_samples",
        "load_samples_csv",
        "reparametrize_unit",
        "sample",
    ),
    "frenet": ("CurveKind", "frenet_apparatus", "frenet_synthesize", "synthesized_gram_drift"),
    "offset": ("offset_along_binormal", "offset_along_normal"),
    "mannheim": (
        "IDENTITIES",
        "MannheimCurveTest",
        "MannheimPair",
        "MannheimPairType",
        "PairSamples",
        "exact_partner_pair",
        "mannheim_curve_test",
    ),
    "indicatrix": ("Indicatrix", "indicatrix_of"),
    "builtins": ("BUILTIN_CURVE_NAMES", "builtin_curve"),
    "expr": ("Expr", "parse_expr"),
    "reports": ("VerificationReport", "Verdict"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "errors")

__all__ = [*_SOURCE, "errors"]


def __getattr__(name: str):
    """Import the submodule ``name``, or the module that exports ``name``, and keep the value."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
