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

from .curve import Curve
from .frenet import CurveKind, ScalarJet
from .lorentz import Vec3L

__all__ = ["builtin_curve", "BUILTIN_CURVE_NAMES"]

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


def _constant_scalars(kind: CurveKind, kappa: float, tau: float):
    jets = {
        0: (kind, (kappa,), (tau,)),
        2: (kind, (kappa, 0.0, 0.0), (tau, 0.0, 0.0)),
    }

    def scalars(s: float, order: int) -> ScalarJet:
        return jets[order]

    return scalars


def _example1(domain: tuple[float, float]) -> Curve:
    # spacelike, unit speed: kappa = 1/2, tau = sqrt(5)/2
    def pos(s: float) -> Vec3L:
        return Vec3L(-0.5 * math.sinh(s), 0.5 * math.cosh(s), 0.5 * _SQRT5 * s)

    def d1(s: float) -> Vec3L:
        return Vec3L(-0.5 * math.cosh(s), 0.5 * math.sinh(s), 0.5 * _SQRT5)

    def d2(s: float) -> Vec3L:
        return Vec3L(-0.5 * math.sinh(s), 0.5 * math.cosh(s), 0.0)

    def d3(s: float) -> Vec3L:
        return Vec3L(-0.5 * math.cosh(s), 0.5 * math.sinh(s), 0.0)

    return Curve(
        pos,
        domain,
        label="paper-example-1",
        derivs={1: d1, 2: d2, 3: d3},
        unit_speed=True,
        scalars=_constant_scalars(CurveKind.SPACELIKE_EPS_PLUS, 0.5, 0.5 * _SQRT5),
    )


def _example2(domain: tuple[float, float]) -> Curve:
    # timelike, unit speed: kappa = 2, tau = sqrt(3)
    def pos(s: float) -> Vec3L:
        return Vec3L(2.0 * math.sinh(s), 2.0 * math.cosh(s), _SQRT3 * s)

    def d1(s: float) -> Vec3L:
        return Vec3L(2.0 * math.cosh(s), 2.0 * math.sinh(s), _SQRT3)

    def d2(s: float) -> Vec3L:
        return Vec3L(2.0 * math.sinh(s), 2.0 * math.cosh(s), 0.0)

    def d3(s: float) -> Vec3L:
        return Vec3L(2.0 * math.cosh(s), 2.0 * math.sinh(s), 0.0)

    return Curve(
        pos,
        domain,
        label="paper-example-2",
        derivs={1: d1, 2: d2, 3: d3},
        unit_speed=True,
        scalars=_constant_scalars(CurveKind.TIMELIKE, 2.0, _SQRT3),
    )


_FACTORIES = {
    "paper-example-1": _example1,
    "paper-example-2": _example2,
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
