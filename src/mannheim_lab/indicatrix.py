"""Spherical images of frame fields.

A unit frame field traces a curve on the unit Lorentzian sphere (self
inner product +1) or the unit hyperbolic sphere (-1).  Only the rates
ds_image/ds enter the catalogued identities, so the image is never
reparametrized; ``mannheim`` takes the rates from the frame equations
rather than from differencing the field.
"""

from __future__ import annotations

from .curve import Curve, CurveSamples, _grid_samples
from .frenet import constant_kind, frenet_frames

__all__ = [
    "Indicatrix",
    "indicatrix_of",
]

_FIELDS = ("T", "N", "B")


class Indicatrix:
    """Spherical image of the frame field ``source`` of a base curve."""

    def __init__(self, source: str, base: Curve) -> None:
        self.source, self.base = source, base

    def samples(self, n: int) -> CurveSamples:
        """n uniform samples of the image, endpoints included, from frames extracted in chunks."""
        base, field = self.base, self.source
        return _grid_samples(base.domain, n, lambda s: getattr(frenet_frames(base, s), field))


def indicatrix_of(c: Curve, which: str) -> Indicatrix:
    """Spherical image of the chosen frame field of ``c``.

    The field must keep one causal character along the curve; since frame
    extraction already fixes per-point Gram signs, this reduces to the
    frame kind staying constant over 33 uniform points.
    """
    if which not in _FIELDS:
        raise ValueError(f"field must be one of {_FIELDS}, got {which!r}")
    constant_kind(c, 33)
    return Indicatrix(source=which, base=c)
