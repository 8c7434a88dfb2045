"""Vector algebra of Minkowski 3-space with the (-,+,+) metric.

The first coordinate carries the negative metric sign.  Vectors are the rows
of ``(n, 3)`` float arrays, and every operation is a pure function of whole
arrays, so it is safe to use concurrently without coordination.
:class:`Vec3L` holds one vector of the start frame of a synthesis
(``frenet.INITIAL_FRAMES``).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

__all__ = [
    "Vec3L",
    "CausalCharacter",
    "NULL_BAND_TOL",
    "vec_rows",
    "inner_rows",
    "cross_rows",
    "power_rows",
    "norm_rows",
    "euclidean_rows",
    "causal_characters",
]

# Absolute tolerance of the band around the light cone inside which a
# self inner product counts as zero.  Curve sampling never lands exactly
# on the cone, so exact comparison would misclassify rounding noise.
NULL_BAND_TOL = 1e-12


class Vec3L:
    """One vector of a synthesis start frame in Minkowski 3-space; x1 is the timelike axis.
    Immutable: its components are set once, and ``__post_init__`` checks them."""

    __slots__ = ("x1", "x2", "x3")

    def __init__(self, x1: float, x2: float, x3: float) -> None:
        for name, c in zip(self.__slots__, (x1, x2, x3)):
            object.__setattr__(self, name, c)
        self.__post_init__()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Vec3L")

    __delattr__ = __setattr__

    def __post_init__(self) -> None:
        for c in (self.x1, self.x2, self.x3):
            if not math.isfinite(c):
                raise ValueError(f"non-finite component in Vec3L: {c!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)


class CausalCharacter(Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    NULL = "null"
    ZERO = "zero"


def vec_rows(x1, x2, x3) -> np.ndarray:
    """The (n, 3) array of rows (x1, x2, x3); a float component is repeated."""
    out = np.empty((len(x1), 3))
    out[:, 0], out[:, 1], out[:, 2] = x1, x2, x3
    return out


def inner_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indefinite inner product -u1*v1 + u2*v2 + u3*v3 of each row pair of
    two (n, 3) arrays, summed left to right; ``-u1*v1`` is formed as
    ``-(u1*v1)``, which is exact."""
    p = u * v
    return -p[:, 0] + p[:, 1] + p[:, 2]


def cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lorentzian vector product of each row pair of two (n, 3) arrays.

    Componentwise ``(u2 v3 - u3 v2, u1 v3 - u3 v1, u2 v1 - u1 v2)``; each
    result row is metric-orthogonal to both argument rows and antisymmetric
    in them.  On the standard basis: e2 x e3 = e1, e1 x e2 = -e3,
    e3 x e1 = -e2.
    """
    return vec_rows(
        u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
        u[:, 0] * v[:, 2] - u[:, 2] * v[:, 0],
        u[:, 1] * v[:, 0] - u[:, 0] * v[:, 1],
    )


def power_rows(x: np.ndarray, k: int) -> np.ndarray:
    """``x ** k`` by libm's ``pow`` per element, as Python's float ``**``; not
    ``np.power``, which squares at k = 2 and may run a SIMD ``pow``."""
    return np.float_power(x, k)


def norm_rows(x: np.ndarray) -> np.ndarray:
    """Pseudo-norm |<v,v>|^(1/2) of each row of an (n, 3) array; zero exactly
    for null and zero rows."""
    return np.sqrt(np.abs(inner_rows(x, x)))


def euclidean_rows(x: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of an (n, 3) array by ``np.hypot`` twice:
    within an ulp of ``math.hypot`` of the row, free of overflow, and read
    only by thresholds and scale estimates."""
    return np.hypot(np.hypot(x[:, 0], x[:, 1]), x[:, 2])


def causal_characters(rows: np.ndarray) -> np.ndarray:
    """Classify each row of an (n, 3) array by the sign of its self inner product.

    <v,v> within ``NULL_BAND_TOL`` of zero is null.  The zero vector gets
    its own class.  Each row gets its index into ``tuple(CausalCharacter)``:
    0 timelike, 1 spacelike, 2 null, 3 zero.  A row whose <v,v> overflows is
    classified by the same rule applied to the row divided by its largest
    absolute component, which cannot overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = inner_rows(rows, rows)
    huge = ~np.isfinite(q)
    if huge.any():
        scaled = rows[huge] / np.abs(rows[huge]).max(axis=1)[:, None]
        q[huge] = inner_rows(scaled, scaled)
    return np.select([(rows == 0.0).all(axis=1), np.abs(q) <= NULL_BAND_TOL, q < 0.0], [3, 2, 0], 1)
