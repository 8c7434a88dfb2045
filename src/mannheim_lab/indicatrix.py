"""Spherical images of frame fields and their arc-length rates.

A unit frame field traces a curve on the unit Lorentzian sphere (self
inner product +1) or the unit hyperbolic sphere (-1).  Only the rates
ds_image/ds enter the catalogued identities, so the image is never
reparametrized; rates come from the frame equations rather than from
differencing the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curve import Curve, CurveSamples
from .errors import DegenerateIndicatrixError, MixedCausalCharacterError
from .frenet import _KINDS, CurveKind, FrenetFrame, frenet_apparatus, frenet_frames
from .lorentz import Vec3L
from .mannheim import MannheimPair, _hypothesis, _tangent_components
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


def _field_sign(kind: CurveKind, which: str) -> int:
    return kind.signs[_FIELDS.index(which)]


def _field_rate(frame: FrenetFrame, which: str) -> float:
    """|gamma'(s)| for the chosen frame field, from the frame equations."""
    k, t = frame.kappa, frame.tau
    eps_t, _, eps_b = frame.kind.signs
    if which == "T":
        return k
    if which == "B":
        return abs(t)
    return math.sqrt(abs(eps_t * k * k + eps_b * t * t))


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
        return _field_rate(frenet_apparatus(self.base, s), self.source)

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
    kinds = frenet_frames(c, np.linspace(*c.domain, grid_size)).kinds
    if (kinds != kinds[0]).any():
        raise MixedCausalCharacterError(
            f"frame kind of {c.label!r} varies along the curve"
        )
    sign = _field_sign(_KINDS[kinds[0]], which)
    sphere = SphereKind.LORENTZIAN if sign > 0 else SphereKind.HYPERBOLIC
    return Indicatrix(source=which, base=c, sphere=sphere)


def indicatrix_tangent(
    c: Curve, which: str, s: float, rate_tol: float = RATE_TOL
) -> Vec3L:
    """Unit tangent of the spherical image at ``s``.

    Raises DegenerateIndicatrixError where the image is stationary (rate at
    or below tolerance).
    """
    if which not in _FIELDS:
        raise ValueError(f"field must be one of {_FIELDS}, got {which!r}")
    frame = frenet_apparatus(c, s)
    rate = _field_rate(frame, which)
    if rate <= rate_tol:
        raise DegenerateIndicatrixError(
            f"{which}-image of {c.label!r} is stationary at s={s:g}"
        )
    return _field_derivative(frame, which) / rate


# ---------------------------------------------------------------------------
# rate-coupled identities

# Coefficient pattern of the type's two relations
#     kappa/rate_N = sgn1 * f1(angle) * tau*/rate_B*,
#     tau/rate_N   = sgn2 * f2(angle) * tau*/rate_B*,
# expressed against the decomposition components: (sign, component) pairs
# with component "c" (cosine-like) or "s" (sine-like).
_RELATION_TABLE = {
    1: ((1.0, "c"), (-1.0, "s")),
    2: ((-1.0, "s"), (-1.0, "c")),
    3: ((-1.0, "s"), (-1.0, "c")),
    4: ((-1.0, "c"), (1.0, "s")),
    5: ((1.0, "s"), (1.0, "c")),
}


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
    (g1, f1), (g2, f2) = _RELATION_TABLE[pair_type_value]
    comp = {"c": c_comp, "s": s_comp}
    rhs = alignment * tau_star * inv_rate_b
    r1 = abs(kappa * inv_rate_n - g1 * comp[f1] * rhs)
    r2 = abs(tau * inv_rate_n - g2 * comp[f2] * rhs)
    return r1, r2


def verify_indicatrix_relations(
    pair: MannheimPair,
    grid_n: int = 101,
    tol: float = 1e-4,
    hypothesis_tol: float = 1e-6,
    rate_tol: float = RATE_TOL,
) -> list[VerificationReport]:
    """The type's two relations between rates, scalars and the angle.

    The relative orientation of the N-image of C and the B-image of C* is a
    free sign; the verifier evaluates both alignments, keeps the one with
    the smaller worst residual, and reports the choice.
    """
    grid = pair.grid(grid_n)
    met, worst = _hypothesis(pair, grid, hypothesis_tol)
    per_alignment: dict[float, tuple[list[float], list[float]]] = {
        1.0: ([], []),
        -1.0: ([], []),
    }
    for s in grid:
        f, fstar, _ = pair.frames_at(s)
        rate_n = _field_rate(f, "N")
        rate_b = _field_rate(fstar, "B")
        if rate_n <= rate_tol or rate_b <= rate_tol:
            raise DegenerateIndicatrixError(f"stationary spherical image at s={s:g}")
        s_comp, c_comp = _tangent_components(pair, s, met)
        for g, rows in per_alignment.items():
            r1, r2 = indicatrix_relation_residuals(
                pair.pair_type.value,
                f.kappa,
                f.tau,
                fstar.tau,
                s_comp,
                c_comp,
                1.0 / rate_n,
                1.0 / rate_b,
                alignment=g,
            )
            rows[0].append(r1)
            rows[1].append(r2)

    def score(g: float) -> float:
        rows = per_alignment[g]
        return max(max(rows[0]), max(rows[1]))

    chosen = min((1.0, -1.0), key=score)
    rows = per_alignment[chosen]
    details = {
        "hypothesis_residual": worst,
        "alignment": int(chosen),
    }
    return [
        VerificationReport.from_profile(
            name, grid, residuals, tol, hypothesis_met=met, details=dict(details)
        )
        for name, residuals in zip(
            ("image-rate-curvature", "image-rate-torsion"), rows
        )
    ]
