"""Parametric curves into Minkowski 3-space, evaluated on grids.

The grid is the unit of evaluation.  A :class:`Curve` is built from its
array evaluator, which returns, for an array of parameters, the positions
or the first three derivatives as ``(n, 3)`` arrays.  Built-in,
synthesized, reparametrized, offset and sampled curves supply their
evaluator in closed form, elementwise, so row ``i`` of a grid does not
depend on the other parameters of the grid; nothing here differentiates
numerically.  A curve may also carry a closed-form square <a', a'> and, when
it is unit-speed, an evaluator of its curvature and torsion with their
derivatives (read by ``frenet.scalar_jets``): built-in and synthesized
curves do, and so does the arc-length reparametrization of a curve that
does.  Curves are immutable after construction and all operations here are
pure, so concurrent evaluation needs no coordination.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ArcLengthOverflowError,
    CsvFormatError,
    MannheimLabError,
    MixedCausalCharacterError,
    NullTangentError,
    OutOfDomainError,
    TableSizeError,
    raise_first,
)
from .lorentz import NULL_BAND_TOL, CausalCharacter, causal_characters, inner_rows, power_rows

__all__ = [
    "Curve",
    "CurveSamples",
    "classify_curve",
    "reparametrize_unit",
    "UnitChain",
    "sample",
    "curve_from_samples",
    "load_samples_csv",
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


def _simpson(x0, x2, f0, f1, f2):
    return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)


def _first_points(x: np.ndarray) -> np.ndarray:
    """The nodes ``x``, the midpoints and the first-level quarter points, in that order."""
    x0, x2 = x[:-1], x[1:]
    xm = 0.5 * (x0 + x2)
    return np.concatenate((x, xm, 0.5 * (x0 + xm), 0.5 * (xm + x2)))


def _adaptive_pieces(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, eps: float, first: np.ndarray):
    """Adaptive Simpson integral of ``f`` over each piece ``[x[i], x[i+1]]``.

    ``f`` maps an array of abscissae to its values, and ``first`` holds its values at
    ``_first_points(x)``, so each node's value serves both of its pieces; each deeper level
    costs one call, on the quarter points of the pieces still open.
    The halves are summed back in the order of the recursive algorithm (at
    most 48 levels, ``eps`` halving with each), bit for bit.
    """
    n = len(x) - 1
    x0, x2 = x[:-1], x[1:]
    xm = 0.5 * (x0 + x2)
    fx, f1, quarters = np.split(first, [n + 1, 2 * n + 1])
    f0, f2 = fx[:-1], fx[1:]
    whole = _simpson(x0, x2, f0, f1, f2)
    values, splits = [], []
    for depth in range(48, -1, -1):
        fl, fr = np.split(quarters, 2)
        left = _simpson(x0, xm, f0, fl, f1)
        right = _simpson(xm, x2, f1, fr, f2)
        delta = left + right - whole
        split = np.flatnonzero(np.abs(delta) > 15.0 * eps) if depth else np.array([], int)
        values.append(left + right + delta / 15.0)
        splits.append(split)
        if not len(split):
            break
        # Open pieces go on as their left halves, then their right halves.
        halves = (np.stack((x0, xm, f0, fl, f1, left)), np.stack((xm, x2, f1, fr, f2, right)))
        x0, x2, f0, f1, f2, whole = np.hstack([half[:, split] for half in halves])
        eps = eps / 2.0
        xm = 0.5 * (x0 + x2)
        quarters = f(np.concatenate((0.5 * (x0 + xm), 0.5 * (xm + x2))))
    for level in range(len(values) - 2, -1, -1):
        halves = np.split(values[level + 1], 2)
        values[level][splits[level]] = halves[0] + halves[1]
    return values[0]


def _clamp(x, lo: float, hi: float):
    """``min(max(x, lo), hi)`` elementwise; a value in range, or NaN, is kept as is."""
    x = np.asarray(x, dtype=float)
    if x.size and lo <= x.min() and x.max() <= hi:
        return x
    below, above = x < lo, x > hi
    return np.where(below, lo, np.where(above, hi, x))


class CubicHermiteSpline:
    """Piecewise cubic through values ``y`` with slopes ``dydx`` at nodes ``x``.

    ``y`` and ``dydx`` hold one value per node, shape ``(n,)``, or one row per
    node, shape ``(n, m)``.  Calling the spline at an array of ``k`` points
    returns an array of shape ``(k,)`` or ``(k, m)``.  A point outside
    ``[x[0], x[-1]]`` is extrapolated from the nearest end piece.

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
        self._x = x
        # A point's piece is the number of interior nodes at or below it:
        # 0 before x[1], the last piece from x[-2] on (and for NaN).
        self._interior = x[1:-1]

    @property
    def coefficients(self) -> np.ndarray:
        """Row i holds (c0, c1, c2, c3) of piece i, for values of shape ``(n,)`` or ``(n, m)``."""
        return self._c

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float).reshape(-1)
        i = np.searchsorted(self._interior, v, side="right")
        s = v - self._x[i]
        c = self._c[i]
        c0, c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2], c[:, 3]
        if c.ndim > 2:
            s = s[:, None]
        s2 = s * s
        s3 = s2 * s
        # Ascending powers from 0.0, the order scipy's evaluator sums them in.
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


class Curve:
    """A map from a closed interval into Minkowski 3-space, given by its array evaluator.

    ``evaluate(ts, order)``: for a float array ``ts`` of in-domain
    parameters it returns the positions as an ``(n, 3)`` array (order 0) or
    the jet ``(d1, d2, d3)`` as three such arrays (order 3).  ``positions``,
    ``tangents`` (the jet's first column), ``jets``, ``squares`` and
    ``speeds`` evaluate a whole grid.  ``squares`` may give <a', a'> of
    an array of parameters in closed form, signed, which must equal that of
    the tangents; ``scalars`` is the scalar-jet evaluator of a unit-speed
    curve (see ``frenet.scalar_jets``).
    """

    def __init__(
        self,
        evaluate: Callable,
        domain: tuple[float, float],
        label: str = "curve",
        unit_speed: bool = False,
        squares: Callable[[np.ndarray], np.ndarray] | None = None,
        scalars: Callable | None = None,
    ):
        a, b = float(domain[0]), float(domain[1])
        if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
            raise ValueError(f"invalid domain: {domain!r}")
        self._evaluate = evaluate
        self.domain = (a, b)
        self.label = label
        self._squares = squares
        self.scalars = scalars
        self.unit_speed = unit_speed

    def _check_domain(self, ts) -> np.ndarray:
        """``ts`` as a float array clamped into the domain; OutOfDomainError
        names the first parameter beyond it by more than the slack."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        a, b = self.domain
        if len(ts) and a <= ts.min() and ts.max() <= b:
            return ts
        slack = 1e-9 * (b - a)
        out = (ts < a - slack) | (ts > b + slack)
        if out.any():
            t = float(ts[out.argmax()])
            raise OutOfDomainError(f"t={t!r} outside domain [{a!r}, {b!r}] of {self.label!r}")
        return _clamp(ts, a, b)

    def _grid(self, ts, order: int):
        """Order 0 or 3 of the evaluator at ``ts``, checked; order 1 checks order 3's first column."""
        ts = self._check_domain(ts)
        if order != 1:
            return self._finite(ts, order, self._evaluate(ts, order))
        return self._finite(ts, 1, self._evaluate(ts, 3)[0])

    def _finite(self, ts: np.ndarray, order: int, out):
        """``out``, evaluated at ``ts`` (order 2: the squares), once every entry is finite."""
        parts = out if order == 3 else (out,)
        if not all(np.isfinite(x).all() for x in parts):
            rows = np.column_stack(parts)
            t = float(ts[(~np.isfinite(rows)).any(axis=1).argmax()])
            what = ("positions", "tangents", "speeds", "jets")[order]
            raise ValueError(f"non-finite {what} of {self.label!r} at t={t!r}")
        return out

    def positions(self, ts) -> np.ndarray:
        """Positions at every parameter of ``ts``, one row each."""
        return self._grid(ts, 0)

    def tangents(self, ts) -> np.ndarray:
        """First derivatives at every parameter of ``ts``, one row each: the jet's first column."""
        return self._grid(ts, 1)

    def jets(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Derivatives of orders 1, 2 and 3 at every parameter of ``ts``."""
        return self._grid(ts, 3)

    def squares(self, ts) -> np.ndarray:
        """Signed squares <a'(t), a'(t)> of the tangents, in closed form when supplied."""
        ts = self._check_domain(ts)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            out = inner_rows(*(self.tangents(ts),) * 2) if self._squares is None else self._squares(ts)
        return self._finite(ts, 2, out)

    def speeds(self, ts) -> np.ndarray:
        """Pseudo-speeds |<a'(t), a'(t)>|^(1/2), the roots of ``squares``."""
        return np.sqrt(np.abs(self.squares(ts)))

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        a, b = self.domain
        return f"Curve({self.label!r}, domain=[{a:g}, {b:g}])"


# Rows per step of ``_chunked`` and ``CurveSamples.to_csv``: bounded memory, few steps.
CSV_CHUNK_ROWS = 4096


def _chunked(f: Callable[[np.ndarray], np.ndarray], ts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` filled with the row-wise ``f`` of ``ts``, ``CSV_CHUNK_ROWS`` rows at a time, in
    order, so the bits and the first failing row (``exc.row``, in ``ts``) are those of one call."""
    for i in range(0, len(ts), CSV_CHUNK_ROWS):
        try:
            out[i : i + CSV_CHUNK_ROWS] = f(ts[i : i + CSV_CHUNK_ROWS])
        except MannheimLabError as exc:
            exc.row = None if exc.row is None else exc.row + i
            raise
    return out


class CurveSamples:
    """Tabulated curve points: one row ``(t, x1, x2, x3)`` per sample, from
    the parameters and an ``(n, 3)`` array of points."""

    def __init__(self, parameters: Sequence[float], points: np.ndarray) -> None:
        t = np.asarray(parameters, dtype=float).reshape(-1)
        p = np.asarray(points, dtype=float).reshape(-1, 3)
        if len(t) != len(p):
            raise ValueError("parameters and points must have equal length")
        if len(t) and not (np.diff(t) > 0).all():
            raise ValueError("parameters must be strictly increasing")
        self.rows = np.column_stack((t, p))

    def to_csv(self, stream: io.TextIOBase) -> None:
        """Header ``t,x1,x2,x3``, then rows of four ``%.17g`` fields, as
        ``csv.writer`` writes them, ``CSV_CHUNK_ROWS`` rows per write."""
        stream.write("t,x1,x2,x3\n")
        for i in range(0, len(self.rows), CSV_CHUNK_ROWS):
            chunk = self.rows[i : i + CSV_CHUNK_ROWS]
            stream.write("%.17g,%.17g,%.17g,%.17g\n" * len(chunk) % tuple(chunk.ravel().tolist()))

    @classmethod
    def from_csv(cls, stream: io.TextIOBase) -> "CurveSamples":
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file; expected header t,x1,x2,x3")
        if [h.strip() for h in header] != ["t", "x1", "x2", "x3"]:
            raise CsvFormatError(f"bad header {header!r}; expected t,x1,x2,x3")
        rows: list[list[float]] = []
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
            rows.append(values)
        if len(rows) < 2:
            raise CsvFormatError("need at least two samples")
        table = np.array(rows)
        try:
            return cls(table[:, 0], table[:, 1:])
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

    t = samples.rows[:, 0]
    spline = CubicSpline(t, samples.rows[:, 1:], axis=0)
    d1, d2, d3 = spline.derivative(1), spline.derivative(2), spline.derivative(3)

    def evaluate(ts: np.ndarray, order: int):
        return spline(ts) if order == 0 else (d1(ts), d2(ts), d3(ts))

    return Curve(evaluate, (float(t[0]), float(t[-1])), label)


def _check_characters(null: np.ndarray, timelike: np.ndarray, ts: np.ndarray, label: str) -> None:
    """The tangent rule of ``classify_curve`` and the arc-length table: the first t of ``ts`` in
    ascending order (``ts[0]`` least) with a ``null`` tangent, or ``timelike`` unlike it, raises."""
    if (null | (timelike != timelike[0])).any():
        order = np.argsort(ts, kind="stable")
        null, timelike, ts, where = null[order], timelike[order], ts[order], f"tangent of {label!r}"
        null_error = lambda i: NullTangentError(f"{where} is null at t={ts[i]:g}")
        mixed = lambda i: MixedCausalCharacterError(f"{where} changes character near t={ts[i]:g}")
        raise_first([(null, null_error), (timelike != timelike[0], mixed)])


def classify_curve(c: Curve, grid_size: int = 64) -> CausalCharacter:
    """Common causal character of the tangent over a uniform grid, classified in chunks.

    Raises NullTangentError if any sampled tangent is null and
    MixedCausalCharacterError if the character changes along the grid,
    naming the first such parameter.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    ts = np.linspace(*c.domain, grid_size)
    chars = _chunked(lambda t: causal_characters(c.tangents(t)), ts, np.empty(grid_size, np.int8))
    _check_characters(chars >= 2, chars == 0, ts, c.label)
    return tuple(CausalCharacter)[chars[0]]


class _ArcLengthTable:
    """Cumulative arc length over a uniform parameter grid and its inverse.

    ``_adaptive_pieces`` integrates the roots of ``c.squares`` over the pieces between nodes;
    its first pass is ``first``, ``UnitChain``'s ``_tangent_speeds``, which classifies the
    tangent.  Pieces too long for the spline to evaluate raise ArcLengthOverflowError.
    """

    def __init__(self, c: Curve, size: int, first: np.ndarray):
        t_nodes = np.linspace(*c.domain, size + 1)
        speeds = lambda ts: np.sqrt(np.abs(c.squares(ts)))
        pieces = _adaptive_pieces(speeds, t_nodes, QUADRATURE_TOL / size, first)
        s_nodes = np.concatenate(([0.0], np.add.accumulate(pieces)))
        widths = np.diff(s_nodes)
        if not (widths > 0).all():
            raise NullTangentError("arc length is not strictly increasing")
        if (w := widths.max()) > np.finfo(float).max ** (1 / 3):  # its s**3 would overflow
            raise ArcLengthOverflowError(f"arc length of {c.label!r} overflows: a piece spans {w:.3g}")
        self.t_nodes, self.s_nodes, self.total = t_nodes, s_nodes, float(s_nodes[-1])
        # Monotone interpolation guarantees the inverse map is a bijection.
        self._inverse = PchipInterpolator(s_nodes, t_nodes)

    def t_of_s(self, s):
        """Raw parameters at the arc lengths of the array ``s``."""
        return self._inverse(_clamp(s, 0.0, self.total))


def _tangent_speeds(c: Curve, ts: np.ndarray) -> np.ndarray:
    """The roots of ``c.squares`` at ``ts``, once their signs pass the tangent rule of
    ``_check_characters``: the first pass of an arc-length table."""
    q = c.squares(ts)
    _check_characters(np.abs(q) <= NULL_BAND_TOL, q < 0.0, ts, c.label)
    return np.sqrt(np.abs(q))


def _inverse_rates(d1: np.ndarray, d2: np.ndarray, d3: np.ndarray):
    """(v, t', t'', t''') of the inverse arc-length map t(u), from the jet of a curve at t(u):
    t' = 1/v and t'' = -v'/v^3, where v = |<a', a'>|^(1/2)."""
    q = inner_rows(d1, d1)
    sgn = np.where(q > 0, 1.0, -1.0)
    v = np.sqrt(np.abs(q))
    vp = sgn * inner_rows(d2, d1) / v
    vpp = sgn * ((inner_rows(d3, d1) + inner_rows(d2, d2)) / v) - vp * vp / v
    tp = 1.0 / v
    tpp = -vp / power_rows(v, 3)
    tppp = -vpp / power_rows(v, 4) + 3.0 * vp * vp / power_rows(v, 5)
    return v, tp, tpp, tppp


def _unit_jets(d1: np.ndarray, d2: np.ndarray, d3: np.ndarray):
    """The jet of a curve at unit speed from its jet (d1, d2, d3) at t, through ``_inverse_rates``."""
    v, tp, tpp, tppp = _inverse_rates(d1, d2, d3)
    return (
        d1 / v[:, None],
        d2 * (tp * tp)[:, None] + d1 * tpp[:, None],
        d3 * power_rows(tp, 3)[:, None] + d2 * (3.0 * tp * tpp)[:, None] + d1 * tppp[:, None],
    )


class UnitChain(Curve):
    """``c`` at unit speed at its own raw parameter t: the positions of ``c`` and its jet, whose
    first column is the tangent, and its scalar jet where it carries one, chained to arc length
    through the local speed.
    A curve to evaluate at t, as a pair evaluates C and C*, not one to reparametrize.  The tangent
    of ``c`` (held as ``base``) is classified here, on the first pass (``_tangent_speeds``) of
    the table that ``arc_length()``, the same chain on the arc length of ``c``, builds when called.

    Raises TableSizeError, before any work, if ``table_size`` is not an ``int`` (a bool is
    not a size) or lies outside ``[2, MAX_TABLE_SIZE]``.
    """

    def __init__(self, c: Curve, table_size: int = INVERSE_TABLE_SIZE):
        if not isinstance(table_size, int) or isinstance(table_size, bool):
            raise TableSizeError(f"arc-length table size {table_size!r} is not an integer")
        if not 2 <= table_size <= MAX_TABLE_SIZE:
            raise TableSizeError(f"arc-length table size {table_size!r} is outside [2, {MAX_TABLE_SIZE}]")

        def evaluate(t: np.ndarray, order: int):
            return c.positions(t) if order == 0 else _unit_jets(*c.jets(t))

        def scalars(t: np.ndarray, order: int):
            t = c._check_domain(t)
            kinds, kappa, tau = c.scalars(t, order)
            if order:  # f' t' and f'' t'^2 + f' t'' of each scalar f
                _, tp, tpp, _ = _inverse_rates(*c.jets(t))
                kappa, tau = ((f, fp * tp, fpp * (tp * tp) + fp * tpp) for f, fp, fpp in (kappa, tau))
            return kinds, kappa, tau

        jet = None if c.scalars is None else scalars
        super().__init__(evaluate, c.domain, f"{c.label}/unit-speed", scalars=jet)
        self.base, self.table_size = c, table_size
        self._first = _tangent_speeds(c, _first_points(np.linspace(*c.domain, table_size + 1)))

    def arc_length(self) -> Curve:
        """The chain after ``t_of_s`` of a table built from the first pass already made.  The
        result refers to this chain as ``raw``, and this chain keeps no reference to it."""
        table = _ArcLengthTable(self.base, self.table_size, self._first)
        on_table = lambda f: f and (lambda us, order: f(table.t_of_s(us), order))
        out = Curve(on_table(self._evaluate), (0.0, table.total), self.label, True, scalars=on_table(self.scalars))
        out.arc_table, out.raw = table, self
        return out


def reparametrize_unit(c: Curve, grid_size: int = INVERSE_TABLE_SIZE) -> Curve:
    """Arc-length reparametrization of ``c``, ``UnitChain(c, grid_size).arc_length()``: t from
    a monotone cubic table of the arc length, derivatives chained through the local speed, so
    unit-speed to machine precision whatever the size.  It holds the table as ``arc_table``
    and the chain as ``raw``, which at t gives the bits the result gives at the arc length of t.
    """
    return UnitChain(c, grid_size).arc_length()


def _grid_samples(domain: tuple[float, float], n: int, f: Callable) -> CurveSamples:
    """n uniform samples over ``domain``, the points ``f`` gives them filled in by ``_chunked``."""
    samples = CurveSamples(ts := np.linspace(*domain, n), np.broadcast_to(0.0, (n, 3)))
    _chunked(f, ts, samples.rows[:, 1:])
    return samples


def sample(c: Curve, n: int) -> CurveSamples:
    """n uniform parameter samples with positions, endpoints included, in chunks."""
    if n < 2:
        raise ValueError("need at least two samples")
    return _grid_samples(c.domain, n, c.positions)
