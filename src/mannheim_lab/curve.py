"""Parametric curves into Minkowski 3-space.

A :class:`Curve` couples a position evaluator with derivative access up to
third order.  Derivatives are taken from closed-form callables when the
constructor got them and fall back to finite differences of the best
available lower order otherwise.  ``Curve.jet`` returns all three
derivatives at one parameter; a curve whose derivatives chain through one
another (a reparametrization, an offset) supplies a jet evaluator so the
shared intermediate terms are computed once per point.  A curve may also
carry a closed-form speed and, when it is unit-speed, an evaluator of its
curvature and torsion with their derivatives (read by
``frenet.scalar_jet``).  Curves are
immutable after construction and all operations here are pure, so
concurrent evaluation at distinct parameters needs no coordination.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CsvFormatError,
    MixedCausalCharacterError,
    NullTangentError,
    OutOfDomainError,
    TableSizeError,
)
from .lorentz import CausalCharacter, Vec3L, causal_character, inner, norm

__all__ = [
    "Curve",
    "Jet",
    "CurveSamples",
    "speed",
    "classify_curve",
    "arclength",
    "reparametrize_unit",
    "sample",
    "curve_from_samples",
    "load_samples_csv",
    "fd_weights",
    "adaptive_simpson",
    "CubicHermiteSpline",
    "PchipInterpolator",
    "INVERSE_TABLE_SIZE",
    "MAX_TABLE_SIZE",
]

QUADRATURE_TOL = 1e-10
INVERSE_TABLE_SIZE = 1024
# Largest arc-length table ``reparametrize_unit`` builds, the same bound as
# ``frenet.MAX_SYNTH_STEPS`` puts on synthesis.
MAX_TABLE_SIZE = 100_000

# Steps for the finite-difference fallback, per derivative order, scaled by
# max(1, |t|).  First order keeps the small step (roundoff ~ eps/h is still
# tiny); orders two and three must balance truncation against the eps/h^m
# cancellation growth, which rules out reusing the first-order step.
FD_STEPS = {1: 1e-5, 2: 3e-3, 3: 8e-3}


def fd_weights(nodes: Sequence, z: float | np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at ``z``.

    Fornberg's recursion over arbitrary nodes; exact for polynomials up to
    degree ``len(nodes) - 1``.

    Array form: the nodes and ``z`` may be arrays of one shape covering a
    batch of stencils (``nodes[i]`` holds node ``i`` of every stencil).  The
    result then has shape ``(len(nodes), batch)``, row ``i`` holding the
    weight of node ``i`` in each stencil.  The recursion runs elementwise in the same
    order as for one stencil, so every weight equals its scalar call bit for
    bit.
    """
    x = nodes.tolist() if isinstance(nodes, np.ndarray) and nodes.ndim == 1 else list(nodes)
    if not isinstance(z, np.ndarray):
        z = float(z)
    n = len(x) - 1
    if m > n:
        raise ValueError("stencil too short for requested derivative order")
    c = [[0.0] * (m + 1) for _ in range(n + 1)]
    c[0][0] = 1.0
    c1 = 1.0
    c4 = x[0] - z
    for i in range(1, n + 1):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        ci, cprev = c[i], c[i - 1]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    ci[k] = c1 * (k * cprev[k - 1] - c5 * cprev[k]) / c2
                ci[0] = -c1 * c5 * cprev[0] / c2
            cj = c[j]
            for k in range(mn, 0, -1):
                cj[k] = (c4 * cj[k] - k * cj[k - 1]) / c3
            cj[0] = c4 * cj[0] / c3
        c1 = c2
    return np.array([row[m] for row in c])


def _fd_stencil(t: float, m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Node positions and weights of the 4th-order stencil at ``t``.

    Central stencils of 5 (m=1,2) or 7 (m=3) nodes; near an endpoint the
    stencil shifts inside the domain, growing to m+4 nodes so the one-sided
    variant keeps the same order.
    """
    h = FD_STEPS[m] * max(1.0, abs(t))
    half = 2 if m <= 2 else 3
    count = 2 * half + 1
    span = b - a
    if span < (count + 1) * h:
        # Cramped domain: spread the stencil over what room there is.
        h = span / (count + 1)
    lo, hi = t - half * h, t + half * h
    if lo >= a and hi <= b:
        offsets = np.arange(-half, half + 1)
    else:
        count = max(count, m + 4)
        if lo < a:
            start = 0.0 if abs(t - a) < 0.25 * h else -round((t - a) / h)
            offsets = np.arange(count) + start
        else:
            start = 0.0 if abs(b - t) < 0.25 * h else -round((b - t) / h)
            offsets = -(np.arange(count) + start)
    nodes = t + offsets * h
    nodes = np.clip(nodes, a, b)
    return nodes, fd_weights(nodes, t, m)


def _simpson(x0: float, x2: float, f0: float, f1: float, f2: float) -> float:
    return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)


def _simpson_recurse(f, x0, x2, f0, f1, f2, whole, eps, depth):
    xm = 0.5 * (x0 + x2)
    xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
    fl, fr = f(xl), f(xr)
    left = _simpson(x0, xm, f0, fl, f1)
    right = _simpson(xm, x2, f1, fr, f2)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    return _simpson_recurse(f, x0, xm, f0, fl, f1, left, eps / 2.0, depth - 1) + _simpson_recurse(
        f, xm, x2, f1, fr, f2, right, eps / 2.0, depth - 1
    )


def _simpson_piece(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float, tol: float
) -> float:
    """Adaptive Simpson over [a, b] given the end values ``fa = f(a)``, ``fb = f(b)``."""
    fm = f(0.5 * (a + b))
    return _simpson_recurse(f, a, b, fa, fm, fb, _simpson(a, b, fa, fm, fb), tol, 48)


def adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, tol: float = QUADRATURE_TOL
) -> float:
    """Adaptive Simpson quadrature with absolute tolerance ``tol``."""
    if a == b:
        return 0.0
    return _simpson_piece(f, a, b, f(a), f(b), tol)


class CubicHermiteSpline:
    """Piecewise cubic through values ``y`` with slopes ``dydx`` at nodes ``x``.

    ``y`` and ``dydx`` hold one value per node, shape ``(n,)``, or one row per
    node, shape ``(n, m)``.  Calling the spline at a float returns a float, or
    a list of ``m`` floats.  A point outside ``[x[0], x[-1]]`` is extrapolated
    from the nearest end piece.

    The coefficients and the evaluation order are those of
    ``scipy.interpolate.CubicHermiteSpline``, operation for operation, so both
    give the same bits.
    """

    def __init__(self, x, y, dydx):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dydx = np.asarray(dydx, dtype=float)
        if x.ndim != 1 or len(x) < 2 or y.shape[:1] != x.shape or dydx.shape != y.shape:
            raise ValueError("need at least two nodes, with one value and one slope per node")
        dx = np.diff(x)
        if not (dx > 0).all():
            raise ValueError("nodes must be strictly increasing")
        dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dxr
        # Row i holds (c0, c1, c2, c3): c3 + c2 s + c1 s^2 + c0 s^3 on piece i.
        self._c = np.stack((t / dxr, (slope - dydx[:-1]) / dxr - t, dydx[:-1], y[:-1]), axis=1)
        self._x = x.tolist()
        self._last = len(self._x) - 2
        self._rows = y.ndim > 1

    def __call__(self, v: float):
        x = self._x
        i = min(max(bisect_right(x, v) - 1, 0), self._last)
        s = v - x[i]
        s2 = s * s
        s3 = s2 * s
        c0, c1, c2, c3 = self._c[i].tolist()
        # Ascending powers from 0.0, the order scipy's evaluator sums them in.
        if self._rows:
            return [0.0 + d + c * s + b * s2 + a * s3 for a, b, c, d in zip(c0, c1, c2, c3)]
        return 0.0 + c3 + c2 * s + c1 * s2 + c0 * s3


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the monotone piecewise cubic through ``(x, y)``.

    Interior slopes are the weighted harmonic mean of the two neighbouring
    secants (Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5, 1984), or zero
    where the secants change sign or one vanishes (Fritsch & Carlson, SIAM J.
    Numer. Anal. 17, 1980).  End slopes use Moler's one-sided three-point
    rule (Numerical Computing with MATLAB, 2004, sec. 3.6); two nodes give the
    line.  Every step is the one ``scipy.interpolate.PchipInterpolator``
    takes, so the slopes agree bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if len(m) == 1:
        return np.array([m[0], m[0]])
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at an end node, limited to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class PchipInterpolator(CubicHermiteSpline):
    """Monotone cubic through scalar values ``y`` at nodes ``x``; slopes from ``_pchip_slopes``."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or len(x) < 2 or y.shape != x.shape:
            raise ValueError("need at least two nodes and one scalar value per node")
        super().__init__(x, y, _pchip_slopes(x, y))


Jet = tuple[Vec3L, Vec3L, Vec3L]


class Curve:
    """A map from a closed interval into Minkowski 3-space.

    ``derivs`` may supply closed-form derivatives keyed by order 1..3, and
    ``jet`` an evaluator returning orders 1, 2 and 3 together.  An order
    missing from ``derivs`` is read from ``jet`` when there is one and is
    otherwise realized by 4th-order finite differences of the highest
    available lower-order evaluator (one-sided at the ends of the domain).

    ``speed`` may supply the pseudo-speed in closed form; it must equal
    ``norm(deriv(t, 1))``.  ``scalars`` is the scalar-jet evaluator of a
    unit-speed curve, ``scalars(t, order)`` with order 0 or 2, whose
    contract ``frenet.scalar_jet`` states.
    """

    def __init__(
        self,
        pos: Callable[[float], Vec3L],
        domain: tuple[float, float],
        label: str = "curve",
        derivs: dict[int, Callable[[float], Vec3L]] | None = None,
        unit_speed: bool = False,
        jet: Callable[[float], Jet] | None = None,
        speed: Callable[[float], float] | None = None,
        scalars: Callable[[float, int], tuple] | None = None,
    ):
        a, b = float(domain[0]), float(domain[1])
        if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
            raise ValueError(f"invalid domain: {domain!r}")
        self._pos = pos
        self.domain = (a, b)
        self.label = label
        self._derivs = dict(derivs) if derivs else {}
        self._jet = jet
        self._speed = speed
        self.scalars = scalars
        self.unit_speed = unit_speed

    def _check_domain(self, t: float) -> float:
        a, b = self.domain
        slack = 1e-9 * (b - a)
        if t < a - slack or t > b + slack:
            raise OutOfDomainError(
                f"t={t!r} outside domain [{a!r}, {b!r}] of {self.label!r}"
            )
        return min(max(t, a), b)

    def pos(self, t: float) -> Vec3L:
        return self._pos(self._check_domain(t))

    def deriv(self, t: float, order: int = 1) -> Vec3L:
        if order not in (1, 2, 3):
            raise ValueError("derivative order must be 1, 2 or 3")
        t = self._check_domain(t)
        if order in self._derivs:
            return self._derivs[order](t)
        if self._jet is not None:
            return self._jet(t)[order - 1]
        base_order = max((k for k in self._derivs if k < order), default=0)
        base = self._derivs[base_order] if base_order else self._pos
        return self._fd(base, t, order - base_order)

    def jet(self, t: float) -> Jet:
        """Derivatives of orders 1, 2 and 3 at ``t``, equal to three ``deriv`` calls."""
        if self._jet is None:
            return self.deriv(t, 1), self.deriv(t, 2), self.deriv(t, 3)
        return self._jet(self._check_domain(t))

    def speed(self, t: float) -> float:
        """Pseudo-speed |<a'(t), a'(t)>|^(1/2), in closed form when supplied."""
        t = self._check_domain(t)
        if self._speed is not None:
            return self._speed(t)
        return norm(self.deriv(t, 1))

    def _fd(self, f: Callable[[float], Vec3L], t: float, m: int) -> Vec3L:
        a, b = self.domain
        nodes, weights = _fd_stencil(t, m, a, b)
        acc = np.zeros(3)
        for x, w in zip(nodes, weights):
            acc += w * np.asarray(f(x).as_tuple())
        return Vec3L(*acc)

    def has_closed_derivative(self, order: int) -> bool:
        return order in self._derivs or self._jet is not None

    def validate_unit_speed(self, grid_size: int = 64, tol: float = 1e-8) -> float:
        """Largest deviation of |<a',a'>| from 1 on a uniform grid."""
        a, b = self.domain
        worst = 0.0
        for t in np.linspace(a, b, grid_size):
            d1 = self.deriv(float(t), 1)
            worst = max(worst, abs(abs(inner(d1, d1)) - 1.0))
        return worst

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        a, b = self.domain
        return f"Curve({self.label!r}, domain=[{a:g}, {b:g}])"


@dataclass
class CurveSamples:
    """Tabulated curve points, optionally with per-sample frames attached."""

    parameters: list[float]
    points: list[Vec3L]
    frames: list | None = field(default=None)

    def __post_init__(self) -> None:
        if len(self.parameters) != len(self.points):
            raise ValueError("parameters and points must have equal length")
        diffs = np.diff(self.parameters)
        if len(self.parameters) and not (diffs > 0).all():
            raise ValueError("parameters must be strictly increasing")

    def to_csv(self, stream: io.TextIOBase) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["t", "x1", "x2", "x3"])
        for t, p in zip(self.parameters, self.points):
            writer.writerow([f"{v:.17g}" for v in (t, p.x1, p.x2, p.x3)])

    @classmethod
    def from_csv(cls, stream: io.TextIOBase) -> "CurveSamples":
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file; expected header t,x1,x2,x3")
        if [h.strip() for h in header] != ["t", "x1", "x2", "x3"]:
            raise CsvFormatError(f"bad header {header!r}; expected t,x1,x2,x3")
        params: list[float] = []
        points: list[Vec3L] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise CsvFormatError(f"line {lineno}: expected 4 columns, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in values):
                raise CsvFormatError(f"line {lineno}: non-finite value")
            params.append(values[0])
            points.append(Vec3L(values[1], values[2], values[3]))
        if len(params) < 2:
            raise CsvFormatError("need at least two samples")
        try:
            return cls(params, points)
        except ValueError as exc:
            raise CsvFormatError(str(exc)) from None


def load_samples_csv(path: str) -> CurveSamples:
    with open(path, "r", newline="") as fh:
        return CurveSamples.from_csv(fh)


def curve_from_samples(samples: CurveSamples, label: str = "samples") -> Curve:
    """Cubic-spline interpolant through tabulated points.

    Third derivatives of a cubic spline are piecewise constant, so frame
    data extracted from sampled curves is only as good as the sampling.
    """
    # A not-a-knot spline needs a global banded solve, which scipy provides;
    # it is imported here so that only sampled curves load it.
    from scipy.interpolate import CubicSpline

    t = np.asarray(samples.parameters)
    data = np.asarray([p.as_tuple() for p in samples.points])
    spline = CubicSpline(t, data, axis=0)
    d1, d2, d3 = spline.derivative(1), spline.derivative(2), spline.derivative(3)
    return Curve(
        pos=lambda s: Vec3L(*spline(s)),
        domain=(float(t[0]), float(t[-1])),
        label=label,
        derivs={
            1: lambda s: Vec3L(*d1(s)),
            2: lambda s: Vec3L(*d2(s)),
            3: lambda s: Vec3L(*d3(s)),
        },
    )


def speed(c: Curve, t: float) -> float:
    """Pseudo-speed |<a'(t), a'(t)>|^(1/2); see ``Curve.speed``."""
    return c.speed(t)


def classify_curve(c: Curve, grid_size: int = 64) -> CausalCharacter:
    """Common causal character of the tangent over a uniform grid.

    Raises NullTangentError if any sampled tangent is null and
    MixedCausalCharacterError if the character changes along the grid.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    a, b = c.domain
    seen: CausalCharacter | None = None
    for t in np.linspace(a, b, grid_size):
        ch = causal_character(c.deriv(float(t), 1))
        if ch in (CausalCharacter.NULL, CausalCharacter.ZERO):
            raise NullTangentError(f"tangent of {c.label!r} is null at t={t:g}")
        if seen is None:
            seen = ch
        elif ch is not seen:
            raise MixedCausalCharacterError(
                f"tangent of {c.label!r} changes character near t={t:g}"
            )
    assert seen is not None
    return seen


def arclength(c: Curve, t0: float, t1: float, tol: float = QUADRATURE_TOL) -> float:
    """Pseudo arc length: adaptive quadrature of the speed over [t0, t1]."""
    a, b = c.domain
    if t0 > t1:
        raise ValueError("t0 must not exceed t1")
    slack = 1e-9 * (b - a)
    if t0 < a - slack or t1 > b + slack:
        raise OutOfDomainError(f"[{t0!r}, {t1!r}] not within [{a!r}, {b!r}]")
    if t0 == t1:
        return 0.0
    for t in np.linspace(t0, t1, 17):
        if causal_character(c.deriv(float(t), 1)) in (
            CausalCharacter.NULL,
            CausalCharacter.ZERO,
        ):
            raise NullTangentError(f"null tangent at t={t:g}")
    return adaptive_simpson(lambda t: speed(c, t), t0, t1, tol)


class _ArcLengthTable:
    """Cumulative arc length over a uniform parameter grid and its inverse."""

    def __init__(self, c: Curve, size: int, tol: float):
        a, b = c.domain
        t_nodes = np.linspace(a, b, size + 1)
        s_nodes = np.empty(size + 1)
        s_nodes[0] = 0.0
        piece_tol = tol / size
        f = c.speed
        # Each node's speed is evaluated once and shared by its two pieces.
        t = t_nodes.tolist()
        v = [f(ti) for ti in t]
        for i in range(size):
            s_nodes[i + 1] = s_nodes[i] + _simpson_piece(
                f, t[i], t[i + 1], v[i], v[i + 1], piece_tol
            )
        if not (np.diff(s_nodes) > 0).all():
            raise NullTangentError("arc length is not strictly increasing")
        self.t_nodes = t_nodes
        self.s_nodes = s_nodes
        self.total = float(s_nodes[-1])
        self._a, self._b = a, b
        # Monotone interpolation guarantees the inverse map is a bijection.
        self._inverse = PchipInterpolator(s_nodes, t_nodes)
        self._forward = PchipInterpolator(t_nodes, s_nodes)

    def t_of_s(self, s: float) -> float:
        s = min(max(s, 0.0), self.total)
        return float(self._inverse(s))

    def s_of_t(self, t: float) -> float:
        t = min(max(t, self._a), self._b)
        return float(self._forward(t))


def reparametrize_unit(
    c: Curve,
    grid_size: int = INVERSE_TABLE_SIZE,
    tol: float = QUADRATURE_TOL,
) -> Curve:
    """Arc-length reparametrization of ``c``.

    The inverse parameter map comes from a monotone cubic table of the given
    size, but all derivatives are chained analytically through the local
    speed, so the result is unit-speed to machine precision regardless of the
    table resolution.  The returned curve exposes the table on the
    ``arc_table`` attribute for correspondence bookkeeping.

    Raises TableSizeError, before any work, if ``grid_size`` is not an
    ``int`` (a bool is not a size) or lies outside ``[2, MAX_TABLE_SIZE]``.
    """
    if not isinstance(grid_size, int) or isinstance(grid_size, bool):
        raise TableSizeError(f"arc-length table size {grid_size!r} is not an integer")
    if not 2 <= grid_size <= MAX_TABLE_SIZE:
        raise TableSizeError(
            f"arc-length table size {grid_size!r} is outside [2, {MAX_TABLE_SIZE}]"
        )
    classify_curve(c, min(grid_size, 257))
    table = _ArcLengthTable(c, grid_size, tol)

    def pos_u(u: float) -> Vec3L:
        return c.pos(table.t_of_s(u))

    def d1_u(u: float) -> Vec3L:
        d1 = c.deriv(table.t_of_s(u), 1)
        return d1 / math.sqrt(abs(inner(d1, d1)))

    def jet_u(u: float) -> Jet:
        # Chain rule through t(u) with t' = 1/v, where v = |<a', a'>|^(1/2).
        d1, d2, d3 = c.jet(table.t_of_s(u))
        q = inner(d1, d1)
        sgn = 1.0 if q > 0 else -1.0
        v = math.sqrt(abs(q))
        vp = sgn * inner(d2, d1) / v
        vpp = sgn * ((inner(d3, d1) + inner(d2, d2)) / v) - vp * vp / v
        tp = 1.0 / v
        tpp = -vp / v**3
        tppp = -vpp / v**4 + 3.0 * vp * vp / v**5
        return (
            d1 / v,
            d2 * (tp * tp) + d1 * tpp,
            d3 * (tp**3) + d2 * (3.0 * tp * tpp) + d1 * tppp,
        )

    out = Curve(
        pos=pos_u,
        domain=(0.0, table.total),
        label=f"{c.label}/unit-speed",
        derivs={1: d1_u},
        unit_speed=True,
        jet=jet_u,
    )
    out.arc_table = table
    out.base_curve = c
    return out


def sample(c: Curve, n: int) -> CurveSamples:
    """n uniform parameter samples with positions, endpoints included."""
    if n < 2:
        raise ValueError("need at least two samples")
    a, b = c.domain
    params = [float(t) for t in np.linspace(a, b, n)]
    return CurveSamples(params, [c.pos(t) for t in params])
