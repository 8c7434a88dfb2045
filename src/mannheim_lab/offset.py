"""Normal and binormal offsets of a unit-speed curve.

Both partner constructions, C* = C - lam N and C = C* + lam B*, are one
offset a + lam e along a frame field e of a unit-speed base (``_offset``);
its tangent has frame coordinates e_T + lam e M for the frame equations
F' = M F, and ``frenet._frame_chain`` gives its higher derivatives.  Whether
an offset is a partner is what ``mannheim`` audits.
"""

from __future__ import annotations

import numpy as np

from . import frenet
from .curve import Curve
from .errors import ZeroLambdaError
from .frenet import FrameGrid, _along, _frame_chain, _rates, kind_signs

__all__ = ["offset_along_binormal", "offset_along_normal"]


def _check_lambda(lam: float) -> None:
    if lam == 0.0 or not np.isfinite(lam):
        raise ZeroLambdaError("offset distance must be finite and nonzero")


def _offset(base: Curve, lam: float, axis: int, label: str) -> Curve:
    """The curve t -> a(t) + lam e(t), e the frame field ``axis`` (1: N, 2: B) of ``base``,
    which must be unit-speed with nonvanishing curvature and carry a scalar jet.  The result is
    generally not unit-speed; ``mannheim.PairSamples.collinearity`` and the ``distance-constancy``
    row audit whether it is a partner.  Its ``frame_offset`` forms every column from one pass of
    the base at the same parameters: a call of the curve makes its own, ``PairSamples`` one for
    a pair.  That map refers to the base but not to the curve, so no reference cycle holds it.
    The base's passes call ``frenet.frenet_frames`` and ``frenet.scalar_jets`` through the
    ``frenet`` module, so a wrapper bound there sees them as it sees every other pass."""
    _check_lambda(lam)
    m = _FrameOffset(base, lam, axis)
    out = Curve(m.on_own_pass, base.domain, label, squares=m.squares)
    out.frame_offset = m
    return out


class _FrameOffset:
    """a + lam e from a pass of the base: its frames ``f``, the ``tangent`` of its scalar jet
    and its positions ``a``.

    With F = (T, N, B) and F' = M F, the tangent is x F for x = e_T + lam e M (e_T and e the
    coordinates of T and of the field), which ``frenet._frame_chain`` differentiates through the
    frame equations, so nothing is differenced; a coordinate that e's zeros make vanish is the
    float 0.0 and forms no product.  <a', a'> is sum_i eps_i x_i^2, from the base scalars alone.
    """

    def __init__(self, base: Curve, lam: float, axis: int):
        self.base, self.lam, self.axis = base, lam, axis

    def on_own_pass(self, ts: np.ndarray, order: int):
        f = frenet.frenet_frames(self.base, ts)
        if order == 0:
            return self.positions_from(f, self.base.positions(ts))
        return self.jets_from(f, self.tangent(frenet.scalar_jets(self.base, ts, 2)))

    def positions_from(self, f: FrameGrid, a: np.ndarray) -> np.ndarray:
        return a + (f.N, f.B)[self.axis - 1] * self.lam

    def tangent(self, jets) -> tuple:
        """Base signs, M's entries and the jet (x, x', x'')[: order + 1] of the tangent."""
        kinds, kappa, tau = jets
        signs = kind_signs(kinds)
        # Row j of M's entries is M^(j), of kappa^(j) and tau^(j); row j of x, lam e M^(j) (+ e_T).
        m = _rates(np.array(kappa), np.array(tau), *signs[3:])
        if self.axis == 1:  # e M = (c_n kappa, 0, tau)
            x = [(a, 0.0, b) for a, b in zip(self.lam * m[0], self.lam * m[3])]
        else:  # e M = (0, c_b tau, 0)
            x = [(0.0, y, 0.0) for y in self.lam * m[2]]
        x[0] = (x[0][0] + np.ones(len(kinds)), *x[0][1:])
        return signs, m, x

    def jets_from(self, f: FrameGrid, tangent: tuple):
        """The jet (d1, d2, d3) from the base's frames ``f`` and a ``tangent`` of order 2."""
        _, m, x = tangent
        m0, m1, _ = zip(*m)  # the entries of M and of M'
        return tuple(_along(y, f.T, f.N, f.B) for y in (x[0], *_frame_chain(x, m0, m1)))

    def squares(self, ts: np.ndarray) -> np.ndarray:
        return self.squares_from(self.tangent(frenet.scalar_jets(self.base, ts, 0)))

    @staticmethod
    def squares_from(tangent: tuple) -> np.ndarray:
        """<a', a'> from a ``tangent`` of any order."""
        signs, _, (x, *_) = tangent
        return sum(eps * (x_i * x_i) for eps, x_i in zip(signs, x) if isinstance(x_i, np.ndarray))


def offset_along_binormal(cstar: Curve, lam: float) -> Curve:
    """The curve s* -> a*(s*) + lam * B*(s*) of a unit-speed ``cstar`` (see ``_offset``)."""
    return _offset(cstar, lam, 2, f"{cstar.label}+({lam:g})B")


def offset_along_normal(c: Curve, lam: float) -> Curve:
    """The curve s -> a(s) - lam * N(s); same contract as the binormal offset."""
    return _offset(c, -lam, 1, f"{c.label}-({lam:g})N")
