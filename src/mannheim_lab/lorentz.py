"""Vector algebra of Minkowski 3-space with the (-,+,+) metric.

The first coordinate carries the negative metric sign.  All operations are
pure functions on immutable :class:`Vec3L` values, so they are safe to use
concurrently without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NullInputError, OrientationMismatchError

__all__ = [
    "Vec3L",
    "CausalCharacter",
    "AngleKind",
    "LorentzAngle",
    "NULL_BAND_TOL",
    "inner",
    "cross",
    "vec_rows",
    "inner_rows",
    "cross_rows",
    "power_rows",
    "norm",
    "norm_rows",
    "euclidean_rows",
    "causal_character",
    "causal_characters",
    "angle_between",
    "E1",
    "E2",
    "E3",
    "ZERO",
]

# Absolute tolerance of the band around the light cone inside which a
# self inner product counts as zero.  Curve sampling never lands exactly
# on the cone, so exact comparison would misclassify rounding noise.
NULL_BAND_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Vec3L:
    """A point or vector of Minkowski 3-space; x1 is the timelike axis."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        for c in (self.x1, self.x2, self.x3):
            if not math.isfinite(c):
                raise ValueError(f"non-finite component in Vec3L: {c!r}")

    def __add__(self, other: "Vec3L") -> "Vec3L":
        return Vec3L(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Vec3L") -> "Vec3L":
        return Vec3L(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "Vec3L":
        return Vec3L(-self.x1, -self.x2, -self.x3)

    def __mul__(self, scale: float) -> "Vec3L":
        return Vec3L(self.x1 * scale, self.x2 * scale, self.x3 * scale)

    __rmul__ = __mul__

    def __truediv__(self, scale: float) -> "Vec3L":
        return Vec3L(self.x1 / scale, self.x2 / scale, self.x3 / scale)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)

    def euclidean_norm(self) -> float:
        """Plain Euclidean length, used only for scale estimates."""
        return math.hypot(self.x1, self.x2, self.x3)


E1 = Vec3L(1.0, 0.0, 0.0)
E2 = Vec3L(0.0, 1.0, 0.0)
E3 = Vec3L(0.0, 0.0, 1.0)
ZERO = Vec3L(0.0, 0.0, 0.0)


class CausalCharacter(Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    NULL = "null"
    ZERO = "zero"


class AngleKind(Enum):
    """Which clause of the angle taxonomy applies to a pair of vectors."""

    HYPERBOLIC = "hyperbolic"            # both timelike, same orientation
    CENTRAL = "central"                  # both spacelike, timelike plane
    SPACELIKE = "spacelike"              # both spacelike, spacelike plane
    LORENTZIAN_TIMELIKE = "lorentzian-timelike"  # one of each


@dataclass(frozen=True, slots=True)
class LorentzAngle:
    """An angle magnitude together with the taxonomy clause that defines it.

    ``theta`` is in radians for the SPACELIKE kind and in hyperbolic-angle
    units otherwise; it is always >= 0.  Signed angles are recovered at the
    pair level from frame decompositions, not here.
    """

    kind: AngleKind
    theta: float


def inner(u: Vec3L, v: Vec3L) -> float:
    """Indefinite inner product -u1*v1 + u2*v2 + u3*v3."""
    return -u.x1 * v.x1 + u.x2 * v.x2 + u.x3 * v.x3


def cross(u: Vec3L, v: Vec3L) -> Vec3L:
    """Lorentzian vector product.

    Componentwise ``(u2 v3 - u3 v2, u1 v3 - u3 v1, u2 v1 - u1 v2)``; the
    result is metric-orthogonal to both arguments and antisymmetric in them.
    On the standard basis: e2 x e3 = e1, e1 x e2 = -e3, e3 x e1 = -e2.
    """
    return Vec3L(
        u.x2 * v.x3 - u.x3 * v.x2,
        u.x1 * v.x3 - u.x3 * v.x1,
        u.x2 * v.x1 - u.x1 * v.x2,
    )


def vec_rows(x1, x2, x3) -> np.ndarray:
    """The (n, 3) array of rows (x1, x2, x3); a float component is repeated."""
    out = np.empty((len(x1), 3))
    out[:, 0], out[:, 1], out[:, 2] = x1, x2, x3
    return out


def inner_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``inner`` of each row pair of two (n, 3) arrays, in the same operation order.

    ``-u1*v1`` is formed as ``-(u1*v1)``: negation is exact, so the bits agree.
    """
    p = u * v
    return -p[:, 0] + p[:, 1] + p[:, 2]


def cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``cross`` of each row pair of two (n, 3) arrays."""
    return vec_rows(
        u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
        u[:, 0] * v[:, 2] - u[:, 2] * v[:, 0],
        u[:, 1] * v[:, 0] - u[:, 0] * v[:, 1],
    )


def power_rows(x: np.ndarray, k: int) -> np.ndarray:
    """``x ** k`` by libm's ``pow`` per element, as Python's float ``**``; not
    ``np.power``, which squares at k = 2 and may run a SIMD ``pow``."""
    return np.float_power(x, k)


def norm(v: Vec3L) -> float:
    """Pseudo-norm |<v,v>|^(1/2); zero exactly for null and zero vectors."""
    return math.sqrt(abs(inner(v, v)))


def norm_rows(x: np.ndarray) -> np.ndarray:
    """``norm`` of each row of an (n, 3) array."""
    return np.sqrt(np.abs(inner_rows(x, x)))


def euclidean_rows(x: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of an (n, 3) array by ``np.hypot`` twice:
    within an ulp of ``Vec3L.euclidean_norm``, and read only by thresholds."""
    return np.hypot(np.hypot(x[:, 0], x[:, 1]), x[:, 2])


def causal_characters(rows: np.ndarray) -> np.ndarray:
    """Classify each row of an (n, 3) array by the sign of its self inner product.

    <v,v> within ``NULL_BAND_TOL`` of zero is null.  The zero vector gets
    its own class.  Each row gets its index into ``tuple(CausalCharacter)``:
    0 timelike, 1 spacelike, 2 null, 3 zero.
    """
    q = inner_rows(rows, rows)
    return np.select([(rows == 0.0).all(axis=1), np.abs(q) <= NULL_BAND_TOL, q < 0.0], [3, 2, 0], 1)


def causal_character(v: Vec3L) -> CausalCharacter:
    """Causal character of ``v``: the one-row ``causal_characters``."""
    return tuple(CausalCharacter)[int(causal_characters(np.array([v.as_tuple()]))[0])]


def is_future_pointing(v: Vec3L) -> bool:
    """Time orientation convention: positive first component points future."""
    return v.x1 > 0.0


def angle_between(u: Vec3L, v: Vec3L) -> LorentzAngle:
    """Angle between two non-null vectors, dispatching on causal characters.

    * both timelike (matching orientation): cosh(theta) = -<u,v>/(|u||v|)
    * both spacelike spanning a timelike plane: cosh(theta) = |<u,v>|/(|u||v|)
    * both spacelike spanning a spacelike plane: cos(theta) = <u,v>/(|u||v|)
    * mixed: sinh(theta) = |<u,v>|/(|u||v|)

    The timelike/spacelike character of the spanned plane is read off the
    Gram discriminant <u,v>^2 - <u,u><v,v>.  Only magnitudes are returned
    (theta >= 0); the mixed case in particular has no sign information here.

    Raises NullInputError for null or zero input and OrientationMismatchError
    for a pair of timelike vectors pointing into opposite time halves.
    """
    cu = causal_character(u)
    cv = causal_character(v)
    if cu in (CausalCharacter.NULL, CausalCharacter.ZERO) or cv in (
        CausalCharacter.NULL,
        CausalCharacter.ZERO,
    ):
        raise NullInputError("angle is undefined for null or zero vectors")

    ip = inner(u, v)
    nn = norm(u) * norm(v)

    if cu is CausalCharacter.TIMELIKE and cv is CausalCharacter.TIMELIKE:
        if is_future_pointing(u) != is_future_pointing(v):
            raise OrientationMismatchError(
                "hyperbolic angle requires a common time orientation"
            )
        c = max(-ip / nn, 1.0)
        return LorentzAngle(AngleKind.HYPERBOLIC, math.acosh(c))

    if cu is CausalCharacter.SPACELIKE and cv is CausalCharacter.SPACELIKE:
        disc = ip * ip - inner(u, u) * inner(v, v)
        if disc > 0.0:
            c = max(abs(ip) / nn, 1.0)
            return LorentzAngle(AngleKind.CENTRAL, math.acosh(c))
        c = min(1.0, max(-1.0, ip / nn))
        return LorentzAngle(AngleKind.SPACELIKE, math.acos(c))

    # mixed spacelike/timelike
    return LorentzAngle(AngleKind.LORENTZIAN_TIMELIKE, math.asinh(abs(ip) / nn))
