"""Spherical images of frame fields and their arc-length rates.

A unit frame field traces a curve on the unit Lorentzian sphere (self
inner product +1) or the unit hyperbolic sphere (-1).  Only the rates
ds_image/ds enter the catalogued identities, so the image is never
reparametrized; rates come from the frame equations rather than from
differencing the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curve import Curve, CurveSamples
from .errors import DegenerateIndicatrixError, InconsistentDecompositionError
from .frenet import FrameGrid, FrenetFrame, constant_kind, frenet_apparatus, frenet_frames, kind_signs
from .lorentz import Vec3L
from .mannheim import MannheimPair, MannheimPairType, _term
from .reports import VerificationReport

__all__ = [
    "SphereKind",
    "Indicatrix",
    "indicatrix_of",
    "indicatrix_tangent",
    "verify_indicatrix_relations",
    "indicatrix_relation_residuals",
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


def _field_derivative(frame: FrenetFrame, which: str) -> Vec3L:
    """gamma'(s) for the chosen frame field, from the frame equations."""
    k, t = frame.kappa, frame.tau
    if which == "T":
        return frame.N * k
    if which == "B":
        return frame.N * (frame.kind.binormal_coefficient * t)
    return frame.T * (frame.kind.normal_coefficient * k) + frame.B * t


@dataclass
class Indicatrix:
    """Spherical image of one frame field of a base curve."""

    source: str
    base: Curve
    sphere: SphereKind

    def point(self, s: float) -> Vec3L:
        return getattr(frenet_apparatus(self.base, s), self.source)

    def rate(self, s: float) -> float:
        """ds_image/ds at ``s``."""
        return float(_field_rates(frenet_frames(self.base, [s]), self.source)[0])

    def samples(self, n: int) -> CurveSamples:
        """n uniform samples of the image, endpoints included, from one grid of frames."""
        s = np.linspace(*self.base.domain, n)
        return CurveSamples(s, getattr(frenet_frames(self.base, s), self.source))


def indicatrix_of(c: Curve, which: str, grid_size: int = 33) -> Indicatrix:
    """Spherical image of the chosen frame field of ``c``.

    The field must keep one causal character along the curve; since frame
    extraction already fixes per-point Gram signs, this reduces to the
    frame kind staying constant over the validation grid.
    """
    if which not in _FIELDS:
        raise ValueError(f"field must be one of {_FIELDS}, got {which!r}")
    sign = constant_kind(c, grid_size).signs[_FIELDS.index(which)]
    sphere = SphereKind.LORENTZIAN if sign > 0 else SphereKind.HYPERBOLIC
    return Indicatrix(source=which, base=c, sphere=sphere)


def indicatrix_tangent(c: Curve, which: str, s: float) -> Vec3L:
    """Unit tangent of the spherical image at ``s``.

    Raises DegenerateIndicatrixError where the image is stationary (rate at
    or below ``RATE_TOL``).
    """
    if which not in _FIELDS:
        raise ValueError(f"field must be one of {_FIELDS}, got {which!r}")
    grid = frenet_frames(c, [s])
    rate = float(_field_rates(grid, which)[0])
    if rate <= RATE_TOL:
        raise DegenerateIndicatrixError(
            f"{which}-image of {c.label!r} is stationary at s={s:g}"
        )
    return _field_derivative(grid.frames()[0], which) / rate


# ---------------------------------------------------------------------------
# rate-coupled identities, signed by the pair type's ``image_terms``


def indicatrix_relation_residuals(
    pair_type_value: int,
    kappa: float,
    tau: float,
    tau_star: float,
    s_comp: float,
    c_comp: float,
    inv_rate_n: float,
    inv_rate_b: float,
    alignment: float = 1.0,
) -> tuple[float, float]:
    """Residuals of the two rate-coupled relations for one type.

    ``alignment`` (+1/-1) flips the starred side of both relations at once;
    it absorbs the free relative orientation of the two spherical images.
    """
    first, second = MannheimPairType(pair_type_value).spec.image_terms
    rhs = alignment * tau_star * inv_rate_b
    r1 = abs(kappa * inv_rate_n - _term(first, rhs, s_comp, c_comp))
    r2 = abs(tau * inv_rate_n - _term(second, rhs, s_comp, c_comp))
    return r1, r2


def verify_indicatrix_relations(
    pair: MannheimPair, grid_n: int = 101, tol: float = 1e-4
) -> list[VerificationReport]:
    """The type's two relations between rates, scalars and the angle.

    The relative orientation of the N-image of C and the B-image of C* is a
    free sign; the verifier evaluates both alignments, keeps the one with
    the smaller worst residual, and reports the choice.  A stationary image
    raises DegenerateIndicatrixError, before a failed decomposition at the
    same or a later grid point.
    """
    samples = pair.samples(grid_n)
    kappa, tau, _, tau_star = samples.scalars
    f, fstar, _ = samples.frames
    rate_n, rate_b = _field_rates(f, "N"), _field_rates(fstar, "B")
    stationary = (rate_n <= RATE_TOL) | (rate_b <= RATE_TOL)
    try:
        s_comp, c_comp = samples.components
    except InconsistentDecompositionError as exc:
        if not stationary[: exc.row + 1].any():
            raise
    samples.check(stationary, DegenerateIndicatrixError, "stationary spherical image")
    rows = {
        g: indicatrix_relation_residuals(
            pair.pair_type.value, kappa, tau, tau_star, s_comp, c_comp, 1.0 / rate_n, 1.0 / rate_b, g
        )
        for g in (1.0, -1.0)
    }
    chosen = min(rows, key=lambda g: max(max(rows[g][0].tolist()), max(rows[g][1].tolist())))
    return [
        samples.report(name, residuals.tolist(), tol, alignment=int(chosen))
        for name, residuals in zip(("image-rate-curvature", "image-rate-torsion"), rows[chosen])
    ]
