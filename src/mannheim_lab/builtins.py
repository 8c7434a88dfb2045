"""Built-in reference curves with closed-form derivatives.

Both are unit-speed helix-type orbits of a one-parameter isometry group
(boost plus translation along the third axis), one spacelike and one
timelike, and both are used throughout the test suite.  Closed-form
derivatives keep frame assertions about them free of differencing error,
and their constant curvature and torsion are their scalar jet, with exact
zero derivatives.
"""

from __future__ import annotations

import math

import numpy as np

from .curve import Curve
from .frenet import CurveKind, ScalarJets
from .lorentz import vec_rows

__all__ = ["builtin_curve", "BUILTIN_CURVE_NAMES"]

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


def _helix(
    label: str, kind: CurveKind, kappa: float, tau: float, p: float, q: float, r: float
):
    """Factory of the unit-speed curve s -> (p sinh s, q cosh s, r s), with
    libm's ``sinh`` and ``cosh`` per element through ``math``, not numpy's SIMD."""
    code = tuple(CurveKind).index(kind)

    def evaluate(ts: np.ndarray, order: int):
        sh = np.fromiter(map(math.sinh, ts.tolist()), float, len(ts))
        ch = np.fromiter(map(math.cosh, ts.tolist()), float, len(ts))
        if order == 0:
            return vec_rows(p * sh, q * ch, r * ts)
        return vec_rows(p * ch, q * sh, r), vec_rows(p * sh, q * ch, 0.0), vec_rows(p * ch, q * sh, 0.0)

    def scalars(ts: np.ndarray, order: int) -> ScalarJets:
        n = len(ts)
        derivs = (np.zeros(n), np.zeros(n)) if order else ()
        return np.full(n, code), (np.full(n, kappa), *derivs), (np.full(n, tau), *derivs)

    def factory(domain: tuple[float, float]) -> Curve:
        return Curve(evaluate, domain, label, unit_speed=True, scalars=scalars)

    return factory


_FACTORIES = {
    # spacelike, unit speed: kappa = 1/2, tau = sqrt(5)/2
    "paper-example-1": _helix(
        "paper-example-1", CurveKind.SPACELIKE_EPS_PLUS, 0.5, 0.5 * _SQRT5, -0.5, 0.5, 0.5 * _SQRT5
    ),
    # timelike, unit speed: kappa = 2, tau = sqrt(3)
    "paper-example-2": _helix("paper-example-2", CurveKind.TIMELIKE, 2.0, _SQRT3, 2.0, 2.0, _SQRT3),
}

BUILTIN_CURVE_NAMES = tuple(sorted(_FACTORIES))


def builtin_curve(name: str, domain: tuple[float, float] = (0.0, 1.0)) -> Curve:
    """Look up a built-in curve by its public name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin curve {name!r}; available: {', '.join(BUILTIN_CURVE_NAMES)}"
        ) from None
    return factory(domain)
