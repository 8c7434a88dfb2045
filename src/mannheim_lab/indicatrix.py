"""Spherical images of frame fields and their arc-length rates.

A unit frame field traces a curve on the unit Lorentzian sphere (self
inner product +1) or the unit hyperbolic sphere (-1).  Only the rates
ds_image/ds enter the catalogued identities, so the image is never
reparametrized; rates and tangents come from the frame equations rather
than from differencing the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curve import Curve, CurveSamples
from .errors import DegenerateIndicatrixError
from .frenet import FrameGrid, constant_kind, frenet_frames, kind_signs

__all__ = [
    "SphereKind",
    "Indicatrix",
    "indicatrix_of",
    "RATE_TOL",
]

RATE_TOL = 1e-9


class SphereKind(Enum):
    LORENTZIAN = "lorentzian"   # <x,x> = +1
    HYPERBOLIC = "hyperbolic"   # <x,x> = -1


_FIELDS = ("T", "N", "B")


def _field_rates(f: FrameGrid, which: str) -> np.ndarray:
    """|gamma'(s)| for the chosen frame field on each row, from the frame equations."""
    if which == "T":
        return f.kappa
    if which == "B":
        return np.abs(f.tau)
    eps_t, _, eps_b, *_ = kind_signs(f.kinds)
    return np.sqrt(np.abs(eps_t * f.kappa * f.kappa + eps_b * f.tau * f.tau))


@dataclass
class Indicatrix:
    """Spherical image of one frame field of a base curve."""

    source: str
    base: Curve
    sphere: SphereKind

    def points(self, ts) -> np.ndarray:
        """The image at the parameters ``ts`` of the base curve, one row each."""
        return getattr(frenet_frames(self.base, ts), self.source)

    def rates(self, ts) -> np.ndarray:
        """ds_image/ds at each of ``ts``."""
        return _field_rates(frenet_frames(self.base, ts), self.source)

    def tangents(self, ts) -> np.ndarray:
        """Unit tangents of the image at ``ts``, one row each.

        Raises DegenerateIndicatrixError for the first row where the image
        is stationary (rate at or below ``RATE_TOL``).
        """
        f = frenet_frames(self.base, ts)
        rate = _field_rates(f, self.source)
        stationary = rate <= RATE_TOL
        if stationary.any():
            s = ts[int(np.argmax(stationary))]
            raise DegenerateIndicatrixError(
                f"{self.source}-image of {self.base.label!r} is stationary at s={s:g}"
            )
        # gamma' from the frame equations: T' = k N, N' = c_n k T + t B, B' = c_b t N
        _, _, _, c_n, c_b = kind_signs(f.kinds)
        k, t = f.kappa[:, None], f.tau[:, None]
        if self.source == "T":
            derivative = f.N * k
        elif self.source == "B":
            derivative = f.N * (c_b[:, None] * t)
        else:
            derivative = f.T * (c_n[:, None] * k) + f.B * t
        return derivative / rate[:, None]

    def samples(self, n: int) -> CurveSamples:
        """n uniform samples of the image, endpoints included, from one grid of frames."""
        s = np.linspace(*self.base.domain, n)
        return CurveSamples(s, self.points(s))


def indicatrix_of(c: Curve, which: str) -> Indicatrix:
    """Spherical image of the chosen frame field of ``c``.

    The field must keep one causal character along the curve; since frame
    extraction already fixes per-point Gram signs, this reduces to the
    frame kind staying constant over 33 uniform points.
    """
    if which not in _FIELDS:
        raise ValueError(f"field must be one of {_FIELDS}, got {which!r}")
    sign = constant_kind(c, 33).signs[_FIELDS.index(which)]
    sphere = SphereKind.LORENTZIAN if sign > 0 else SphereKind.HYPERBOLIC
    return Indicatrix(source=which, base=c, sphere=sphere)
