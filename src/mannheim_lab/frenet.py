"""Frame apparatus of unit-speed curves and its inverse problem.

For a non-null unit-speed curve the moving frame {T, N, B} obeys one of
three first-order systems, keyed by the causal characters of T and N:

    timelike curve:            T' =  k N,   N' =  k T + t B,   B' = -t N
    spacelike, N spacelike:    T' =  k N,   N' = -k T + t B,   B' =  t N
    spacelike, N timelike:     T' =  k N,   N' =  k T + t B,   B' =  t N

with Gram signs (T, N, B) of (-1, +1, +1), (+1, +1, -1) and (+1, -1, +1)
respectively.  ``frenet_frames`` extracts the frame and the two scalars
from derivatives on a whole grid, and ``frenet_apparatus`` at one point
as the one-row grid; ``scalar_jets`` gives the two scalars with their
first two derivatives on a grid; ``frenet_synthesize`` integrates the
system for prescribed scalar functions from the fixed start
``INITIAL_FRAMES[kind]`` at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .curve import CubicHermiteSpline, Curve
from .errors import (
    MannheimLabError,
    MissingScalarJetError,
    MixedCausalCharacterError,
    NonPositiveCurvatureError,
    NotUnitSpeedError,
    NullPrincipalNormalError,
    PrescriptionError,
    SynthesisOverflowError,
    TooManyStepsError,
    VanishingCurvatureError,
    raise_first,
)
from .expr import Jet2
from .lorentz import Vec3L, cross_rows, euclidean_rows, inner_rows

__all__ = [
    "CurveKind",
    "FrameGrid",
    "frenet_frames",
    "frenet_apparatus",
    "constant_kind",
    "scalar_jets",
    "kind_signs",
    "frenet_synthesize",
    "INITIAL_FRAMES",
    "frame_gram_residual",
    "synthesized_gram_drift",
    "KAPPA_TOL",
    "MAX_SYNTH_STEPS",
]

KAPPA_TOL = 1e-9
UNIT_SPEED_TOL = 1e-6
# Largest number of fixed steps one synthesis may take; at the cap a synthesis
# of kappa = 1 + 0.1 sin s, tau = 0.6 + 0.2 cos s takes 0.3 s and 168 MB peak
# RSS in a fresh interpreter on a 2-vCPU x86-64 VM.
MAX_SYNTH_STEPS = 100_000
# Steps per chunk of a synthesis: it fixes where the frame scan carries, so
# it sets the synthesized bits, and bounds the transient of ``_increments``.
_SYNTH_BLOCK = 4096


class CurveKind(Enum):
    """Causal type of a framed curve; fixes Gram signs and the frame system."""

    TIMELIKE = "timelike"
    SPACELIKE_EPS_PLUS = "spacelike+"   # N spacelike, B timelike
    SPACELIKE_EPS_MINUS = "spacelike-"  # N timelike, B spacelike

    @property
    def signs(self) -> tuple[int, int, int]:
        """Gram signs (<T,T>, <N,N>, <B,B>)."""
        return _SIGNS[self]

    @property
    def normal_coefficient(self) -> int:
        """c in N' = c*kappa*T + tau*B; equals -<T,T><N,N>."""
        eps_t, eps_n, _ = self.signs
        return -eps_t * eps_n

    @property
    def binormal_coefficient(self) -> int:
        """c in B' = c*tau*N; equals <T,T>."""
        return self.signs[0]


_SIGNS = {
    CurveKind.TIMELIKE: (-1, 1, 1),
    CurveKind.SPACELIKE_EPS_PLUS: (1, 1, -1),
    CurveKind.SPACELIKE_EPS_MINUS: (1, -1, 1),
}

# A grid carries each row's kind as its index into _KINDS; row k of
# _KIND_ROWS holds (<T,T>, <N,N>, <B,B>, c_n, c_b) of _KINDS[k].
_KINDS = tuple(CurveKind)
_KIND_ROWS = np.array(
    [(*k.signs, k.normal_coefficient, k.binormal_coefficient) for k in _KINDS], dtype=float
)


def kind_signs(kinds: np.ndarray) -> np.ndarray:
    """Rows (<T,T>, <N,N>, <B,B>, c_n, c_b) of grid kinds, as floats, shape (5, n)."""
    return _KIND_ROWS[kinds].T


# Frame (T, N, B) of each kind, from the coordinate axes, where synthesis starts (at the
# origin): kind, kappa and tau fix a curve up to a Lorentz isometry, which no audit sees.
INITIAL_FRAMES = {
    CurveKind.TIMELIKE: (Vec3L(1, 0, 0), Vec3L(0, 1, 0), Vec3L(0, 0, -1)),
    CurveKind.SPACELIKE_EPS_PLUS: (Vec3L(0, 1, 0), Vec3L(0, 0, 1), Vec3L(1, 0, 0)),
    CurveKind.SPACELIKE_EPS_MINUS: (Vec3L(0, 1, 0), Vec3L(1, 0, 0), Vec3L(0, 0, 1)),
}


def frame_gram_residual(T: np.ndarray, N: np.ndarray, B: np.ndarray, kinds) -> np.ndarray:
    """Per row of the (n, 3) arrays T, N, B, the largest deviation of the six
    inner products from their targets; ``kinds`` holds each row's kind, or one
    kind for all rows, as an index into ``tuple(CurveKind)``."""
    signs = kind_signs(np.broadcast_to(kinds, len(T)))
    squares = [inner_rows(u, u) - eps for u, eps in zip((T, N, B), signs)]
    products = [inner_rows(T, N), inner_rows(T, B), inner_rows(N, B)]
    return np.abs(np.stack(squares + products)).max(axis=0)


@dataclass(frozen=True)
class FrameGrid:
    """The frame apparatus of a curve on a grid, one row per parameter.

    ``T``, ``N`` and ``B`` are ``(n, 3)`` arrays; ``kinds`` holds each row's
    kind as an index into ``tuple(CurveKind)``; ``dkappa`` is kappa', chained
    exactly through the third derivative.  A point is the one-row grid.
    """

    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    kinds: np.ndarray
    dkappa: np.ndarray


def frenet_frames(c: Curve, s) -> FrameGrid:
    """Frame, curvature and torsion of a unit-speed non-null curve on a grid.

    T is the raw first derivative (no renormalization, so Gram drift stays
    visible), N = T'/kappa with kappa = |<T',T'>|^(1/2), and B = T x N.
    Torsion comes from <N',B>/<B,B>, which reduces to the sign rules of the
    three frame systems.  The derivatives come from one ``c.jets(s)``, and
    ``_extract`` checks them.  The checks run as for one point at a time:
    the error raised is that of the first parameter failing any of them,
    this curve's or, for an offset, its base curve's.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    try:
        jets = c.jets(s)
    except MannheimLabError as exc:
        if exc.row:  # an offset's base frames failed: this curve's earlier rows come first
            frenet_frames(c, s[: exc.row])
        raise
    return _extract(c.label, s, *jets)


def _extract(label: str, s: np.ndarray, d1: np.ndarray, d2: np.ndarray, d3: np.ndarray) -> FrameGrid:
    """The ``FrameGrid`` of curve ``label`` at ``s`` from its jet, checked as ``frenet_frames`` says."""
    q1 = inner_rows(d1, d1)
    e2 = euclidean_rows(d2)
    q2 = inner_rows(d2, d2)
    kappa = np.sqrt(np.abs(q2))

    def error(kind: type, text: str):
        return lambda i: kind(text.format(label=label, s=s[i], q1=q1[i]))

    vanishing = error(VanishingCurvatureError, "curvature of {label!r} vanishes at s={s:g}")
    raise_first(
        [
            (
                np.abs(np.abs(q1) - 1.0) > UNIT_SPEED_TOL,
                error(
                    NotUnitSpeedError,
                    "{label!r} is not arc-length parametrized at s={s:g} "
                    "(<T,T>={q1:.6g}); reparametrize first",
                ),
            ),
            (e2 <= KAPPA_TOL, vanishing),
            (
                kappa <= 1e-6 * e2,
                error(NullPrincipalNormalError, "tangent derivative of {label!r} is null at s={s:g}"),
            ),
            (kappa <= KAPPA_TOL, vanishing),
        ]
    )
    kinds = np.where(q1 < 0.0, 0, np.where(q2 > 0.0, 1, 2))
    N = d2 / kappa[:, None]
    B = cross_rows(d1, N)
    dkappa = np.copysign(1.0, q2) * inner_rows(d3, d2) / kappa
    n_prime = d3 / kappa[:, None] - d2 * (dkappa / (kappa * kappa))[:, None]
    tau = _KIND_ROWS[kinds, 2] * inner_rows(n_prime, B)
    return FrameGrid(d1, N, B, kappa, tau, kinds, dkappa)


def frenet_apparatus(c: Curve, s: float) -> FrameGrid:
    """Frame, curvature and torsion at ``s``: the one-row ``frenet_frames``."""
    return frenet_frames(c, [s])


def constant_kind(c: Curve, grid_size: int) -> CurveKind:
    """The frame kind of ``c``, which must not vary over ``grid_size`` uniform points, from
    ``scalar_jets``: a curve with a scalar jet (built-in, synthesized) extracts no frame.  A
    pair reads its kinds from the frames of ``PairSamples`` instead."""
    return _one_kind(scalar_jets(c, np.linspace(*c.domain, grid_size), 0)[0], c.label)


def _one_kind(kinds: np.ndarray, label: str) -> CurveKind:
    """The kind every row of ``kinds`` holds; MixedCausalCharacterError names the curve ``label``."""
    if (kinds != kinds[0]).any():
        raise MixedCausalCharacterError(f"frame kind of {label!r} varies along the curve")
    return _KINDS[kinds[0]]


# Kinds as indices into tuple(CurveKind), then (kappa, kappa', ...) and
# (tau, tau', ...), arrays, both jets of equal length.
ScalarJets = tuple[np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]


def scalar_jets(c: Curve, s, order: int = 2) -> ScalarJets:
    """Frame kinds, curvature jets and torsion jets of a unit-speed curve on a grid.

    ``order`` 0 gives ``(kinds, (kappa,), (tau,))``; order 2 gives ``(kinds,
    (kappa, kappa', kappa''), (tau, tau', tau''))``, one array per entry and
    ``kinds`` as indices into ``tuple(CurveKind)``.  A curve carrying a
    ``scalars`` evaluator answers itself exactly: built-in curves in closed
    form, synthesized curves from their prescription jets, and the
    arc-length reparametrization of either through the chain rule.  Any
    other curve gives order 0 from its extracted frames and raises
    MissingScalarJetError, naming the curve, for order 2: no exact chain
    gives its derivatives.
    """
    if order not in (0, 2):
        raise ValueError("scalar jet order must be 0 or 2")
    s = np.asarray(s, dtype=float).reshape(-1)
    if c.scalars is not None:
        return c.scalars(c._check_domain(s), order)
    if order == 2:
        raise MissingScalarJetError(
            f"{c.label!r} carries no scalar jet: its curvature and torsion have no exact derivatives"
        )
    f = frenet_frames(c, s)
    return f.kinds, (f.kappa,), (f.tau,)


def _rates(kappa, tau, c_n, c_b) -> tuple:
    """M's entries (c_n kappa, kappa, c_b tau, tau) for the frame equations F' = M F."""
    return c_n * kappa, kappa, c_b * tau, tau


def _times_rates(x, m) -> tuple:
    """The frame coordinates x M of the field (x F)' - x' F, for coordinates
    x = (x_T, x_N, x_B) and F' = M F, from M's entries ``m`` as ``_rates`` forms them."""
    (x_t, x_n, x_b), (c_n_kappa, kappa, c_b_tau, tau) = x, m
    return c_n_kappa * x_n, kappa * x_t + c_b_tau * x_b, tau * x_n


def _frame_chain(x, m, dm) -> tuple[tuple, tuple]:
    """Frame coordinates of V' and V'' for V = x F, F = (T, N, B), by the one recurrence
    (y F)' = (y' + y M) F, with (x M)' = x' M + x M'.  ``x`` holds the coordinates of V and
    their first two derivatives, each a (T, N, B) triple; ``m`` and ``dm`` hold the entries
    of M and of M', each formed once by ``_rates``."""
    x0, x1, x2 = x
    y1 = tuple(a + b for a, b in zip(x1, _times_rates(x0, m)))
    dy1 = zip(x2, _times_rates(x1, m), _times_rates(x0, dm))
    y2 = tuple(a + b + c + d for (a, b, c), d in zip(dy1, _times_rates(y1, m)))
    return y1, y2


def _along(y, T: np.ndarray, N: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The field y_T T + y_N N + y_B B, one row per entry of the coordinate arrays ``y``; a
    coordinate given as the float 0.0 is known to vanish and adds no term."""
    terms = [F * y_i[:, None] for F, y_i in zip((T, N, B), y) if isinstance(y_i, np.ndarray)]
    return sum(terms[1:], terms[0])


def _increments(
    kappa: Sequence[np.ndarray], tau: Sequence[np.ndarray], c_n: float, c_b: float, h: float
) -> np.ndarray:
    """Columns 1:4 of D = (h/6)(A0 + 2 K2 + 2 K3 + K4) for a block of steps,
    shape ``(4, 3, steps)``.

    ``kappa`` and ``tau`` hold the values at the node, midpoint and end of
    each step.  Column 0 of every A, hence of D, is zero: p feeds no row.
    A X is formed from the five nonzero entries of A, each term in the
    order of the dense 4x4 sum, so it has the dense product's bits.
    """
    eye = np.eye(4)[:, 1:, None]

    def rate_product(k: np.ndarray, t: np.ndarray, X: np.ndarray) -> np.ndarray:
        out = np.empty_like(X)
        out[0] = X[1]
        out[1] = k * X[2]
        out[2] = (c_n * k) * X[1] + t * X[3]
        out[3] = (c_b * t) * X[2]
        return out

    A0 = rate_product(kappa[0], tau[0], np.broadcast_to(eye, (4, 3, len(kappa[0]))))
    K2 = rate_product(kappa[1], tau[1], eye + (0.5 * h) * A0)
    K3 = rate_product(kappa[1], tau[1], eye + (0.5 * h) * K2)
    K4 = rate_product(kappa[2], tau[2], eye + h * K3)
    return (h / 6.0) * (A0 + 2.0 * K2 + 2.0 * K3 + K4)


def _product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X Y of 3x3 matrices stacked along the last axis (either may hold one,
    of length 1), each entry the three-term sum in index order."""
    return X[:, 0, None] * Y[0] + X[:, 1, None] * Y[1] + X[:, 2, None] * Y[2]


def _prefix_increments(D: np.ndarray) -> np.ndarray:
    """E_k with I + E_k = (I + D_k) ... (I + D_0) for every k, shape ``(3, 3, steps)``.

    An inclusive Hillis-Steele scan: at level d each E_k with k >= d takes in
    E_{k-d}, so each E_k is a product tree of depth log2(steps), not a chain
    of k steps.  Segments combine as I + E = (I + later)(I + earlier).
    """
    E = D.copy()
    d = 1
    while d < E.shape[2]:
        later, earlier = E[:, :, d:], E[:, :, :-d]
        E[:, :, d:] = (later + earlier) + _product(later, earlier)
        d *= 2
    return E


def _identity_jet(s: np.ndarray) -> Jet2:
    """The jet of the abscissae ``s`` themselves."""
    return Jet2(s, np.ones_like(s), np.zeros_like(s))


def _jet_of(fn: Callable, x: Jet2, role: str) -> Jet2:
    """``fn`` of the identity jet ``x``, with arrays of its shape.

    Both prescriptions of a grid get the same ``x``, so one that calls the
    other (``mannheim.exact_partner_pair``) may reuse its value.
    """
    name = getattr(fn, "__qualname__", None) or repr(fn)
    try:
        out = fn(x)
    except TypeError as exc:
        raise PrescriptionError(f"{role} prescription {name} rejects a Jet2: {exc}") from exc
    if not isinstance(out, (int, float, Jet2)):
        raise PrescriptionError(
            f"{role} prescription {name} returned a {type(out).__name__}, neither a float nor a Jet2"
        )
    out = out if isinstance(out, Jet2) else Jet2(out)
    return Jet2(*(_grid_component(y, x) for y in (out.v, out.d, out.dd)))


def _grid_component(y, x: Jet2) -> np.ndarray:
    """``y`` as a float array of the shape of ``x``: a float64 array of that
    shape is kept as is, unless it is one of ``x``'s own, and anything else
    is broadcast and copied."""
    if isinstance(y, np.ndarray) and y.dtype == np.float64 and y.shape == x.v.shape:
        if y is not x.v and y is not x.d and y is not x.dd:
            return y
    return np.broadcast_to(y, x.v.shape).astype(float)


def _prescribe(kappa_fn: Callable, tau_fn: Callable, s: np.ndarray) -> tuple[Jet2, Jet2]:
    """Jets of kappa and tau at abscissae ``s``, one call of each function.

    The error raised is the one that evaluating kappa, checking that its value
    is finite and > 0, evaluating tau and checking that its value is finite,
    abscissa by abscissa in the order of ``s``, meets first.  Derivatives are
    not checked: where only they overflow, the curve overflows.
    """
    x = _identity_jet(s)
    error = lambda kind, role, jet, text: lambda i: kind(f"{role}(s={s[i]:g}) = {jet.v[i]:g} {text}")
    try:
        kappa = _jet_of(kappa_fn, x, "kappa")
        raise_first(
            [
                (~np.isfinite(kappa.v), error(PrescriptionError, "kappa", kappa, "is not finite")),
                (kappa.v <= 0.0, error(NonPositiveCurvatureError, "kappa", kappa, "<= 0")),
            ]
        )
        tau = _jet_of(tau_fn, x, "tau")
        raise_first([(~np.isfinite(tau.v), error(PrescriptionError, "tau", tau, "is not finite"))])
        return kappa, tau
    except MannheimLabError as exc:
        if exc.row:  # an earlier abscissa may fail a later check
            _prescribe(kappa_fn, tau_fn, s[: exc.row])
        raise


def frenet_synthesize(
    kind: CurveKind,
    kappa_fn: Callable,
    tau_fn: Callable,
    s_range: tuple[float, float],
    step: float = 1e-3,
) -> Curve:
    """Integrate the frame system for prescribed kappa(s), tau(s).

    The curve starts at the origin with the frame ``INITIAL_FRAMES[kind]``
    at ``s_range[0]``.  A prescription takes a float or an ``expr.Jet2`` and
    returns a float or a ``Jet2`` (``Expr.eval`` is one).  Each is called
    once, on the jet of every distinct abscissa RK4 meets in step order
    (node, midpoint and end of each step; an end that rounds to the next
    node stands for it).

    Classical fixed-step RK4 of {position' = T} + frame equations, with no
    re-orthonormalization (``synthesized_gram_drift`` measures the drift).
    Each coordinate obeys Y' = A(kappa, tau) Y on the rows (p, T, N, B), so
    a step is Y + D Y with D = (h/6)(A0 + 2 K2 + 2 K3 + K4), K2 =
    Am (I + h/2 A0), K3 = Am (I + h/2 K2), K4 = A1 (I + h K3).  The range
    is walked in chunks of ``_SYNTH_BLOCK`` steps.  Every D of a chunk is
    built by elementwise numpy from the five nonzero entries of A (no BLAS
    product, whose kernels vary by CPU); a prefix scan of their frame rows
    (``_prefix_increments``) gives each node's frame from the chunk's first
    one, every product entry summed in index order; the positions are the
    ordered running sum of D01 T + D02 N + D03 B at each step's start.  So
    the result does not depend on the host.

    Position and derivative fields are cubic Hermite interpolants of exact
    node values and node slopes, one stacked interpolant for the three
    derivative fields: T has slope kappa N = d2, and d3 and its slope are the
    first two derivatives of the field of coordinates (0, kappa, 0), which
    ``_frame_chain`` takes through the frame system from the prescription
    jets, as it does for the offsets of ``mannheim``.  The curve's
    scalar jet, kappa and tau with two exact derivatives, reads one call of
    each prescription per grid.

    Raises TooManyStepsError, before any work, past ``MAX_SYNTH_STEPS``
    steps or where the nodes do not differ as floats; before any
    integration, PrescriptionError for a prescription that rejects a jet or
    returns neither a float nor a jet, and ExprDomainError,
    NonPositiveCurvatureError or PrescriptionError (a value that is not
    finite) naming the first failing abscissa in step order; and
    SynthesisOverflowError, naming the first node, if the integrated frame,
    the derivative fields or the interpolant pieces starting at a node
    overflow.
    """
    a, b = float(s_range[0]), float(s_range[1])
    if not b > a:
        raise ValueError("empty synthesis range")
    if not step > 0:
        raise ValueError("step must be positive")
    if (b - a) / step > MAX_SYNTH_STEPS:
        raise TooManyStepsError(
            f"step {step:g} needs more than {MAX_SYNTH_STEPS} integration steps "
            f"over [{a:g}, {b:g}]"
        )
    n_steps = max(1, math.ceil((b - a) / step))
    h = (b - a) / n_steps

    c_n = float(kind.normal_coefficient)
    c_b = float(kind.binormal_coefficient)
    s_nodes = a + h * np.arange(n_steps + 1)
    s_nodes[-1] = b
    if not (s_nodes[1:] > s_nodes[:-1]).all():
        raise TooManyStepsError(
            f"step {step:g} is too small for its range [{a:.17g}, {b:.17g}]: "
            "the integration nodes do not differ as floats"
        )
    # Row i: midpoint, end and next node of step i; ``at`` indexes each into
    # the abscissae, taken in step order after a, the next node only where
    # the end does not round to it.
    stages = np.stack((s_nodes[:-1] + 0.5 * h, s_nodes[:-1] + h, s_nodes[1:]), axis=1)
    kept = np.ones(stages.shape, dtype=bool)
    kept[:, 2] = stages[:, 1] != stages[:, 2]
    at = np.cumsum(kept).reshape(stages.shape)
    node = np.concatenate(([0], np.where(kept[:, 2], at[:, 2], at[:, 1])))

    # Rows (T, N, B) of each node; row 0 of every D, the position increment, is kept apart.
    frame = np.empty((n_steps + 1, 3, 3))
    frame[0] = [u.as_tuple() for u in INITIAL_FRAMES[kind]]
    D0 = np.empty((3, n_steps))
    # Overflow is not checked per step: the finished states and fields are
    # checked once below, and numpy's warnings on the way there are muted.
    with np.errstate(all="ignore"):
        k_jet, t_jet = _prescribe(kappa_fn, tau_fn, np.concatenate(([a], stages[kept])))
        for i0 in range(0, n_steps, _SYNTH_BLOCK):
            i1 = min(i0 + _SYNTH_BLOCK, n_steps)
            ix = (node[i0:i1], at[i0:i1, 0], at[i0:i1, 1])
            D = _increments([k_jet.v[i] for i in ix], [t_jet.v[i] for i in ix], c_n, c_b, h)
            D0[:, i0:i1] = D[0]
            # Frame of node i0 + k + 1 is (I + E_k) F for the frame F of node i0.
            F = frame[i0, :, :, None]
            E = _prefix_increments(D[1:])
            frame[i0 + 1 : i1 + 1] = np.moveaxis(F + _product(E, F), 2, 0)

        T, N, B = frame[:, 0], frame[:, 1], frame[:, 2]
        # p + (D01 T + D02 N + D03 B) per step, summed in step order.
        dP = D0[0, :, None] * T[:-1] + D0[1, :, None] * N[:-1] + D0[2, :, None] * B[:-1]
        P = np.add.accumulate(np.vstack((np.zeros((1, 3)), dP)))

        kappa, tau = (k_jet.v[node], k_jet.d[node], k_jet.dd[node]), (t_jet.v[node], t_jet.d[node])
        # d2 = kappa N has coordinates (0, kappa, 0): the chain gives its slope d3, and d3'.
        d2 = kappa[0][:, None] * N
        m, dm = _rates(kappa[0], tau[0], c_n, c_b), _rates(kappa[1], tau[1], c_n, c_b)
        chain = _frame_chain([(0.0, k, 0.0) for k in kappa], m, dm)
        d3, d3_slope = (_along(y, T, N, B) for y in chain)
        values = np.hstack([T, d2, d3])
        slopes = np.hstack([d2, d3, d3_slope])
        pos_spline = CubicHermiteSpline(s_nodes, P, T)
        # Columns 0:3, 3:6, 6:9 hold d1, d2, d3; one evaluation yields the jet.
        jet_spline = CubicHermiteSpline(s_nodes, values, slopes)
    # Each node's states and fields first, then the interpolant pieces that
    # start at the nodes: on a very short range only the pieces overflow.
    for fields, what in (
        ((frame, P, values, slopes), "frame or derivative fields"),
        ((pos_spline.coefficients, jet_spline.coefficients), "interpolant coefficients"),
    ):
        if all(np.isfinite(f).all() for f in fields):
            continue
        finite = np.logical_and.reduce([np.isfinite(f).reshape(len(f), -1).all(axis=1) for f in fields])
        raise SynthesisOverflowError(
            f"synthesized {kind.value} curve overflows at s={float(s_nodes[np.argmin(finite)]):g}: "
            f"its {what} are not finite"
        )

    def evaluate(ts: np.ndarray, order: int):
        if order == 0:
            return pos_spline(ts)
        v = jet_spline(ts)
        return v[:, 0:3], v[:, 3:6], v[:, 6:9]

    code = _KINDS.index(kind)

    def prescription(ts: np.ndarray, order: int) -> ScalarJets:
        x = _identity_jet(ts)
        with np.errstate(all="ignore"):
            k, t = _jet_of(kappa_fn, x, "kappa"), _jet_of(tau_fn, x, "tau")
        kinds = np.full(len(ts), code)
        if order == 0:
            return kinds, (k.v,), (t.v,)
        return kinds, (k.v, k.d, k.dd), (t.v, t.d, t.dd)

    out = Curve(evaluate, (a, b), f"synthesized-{kind.value}", unit_speed=True, scalars=prescription)
    out.synth_nodes = {"s": s_nodes, "p": P, "T": T, "N": N, "B": B}
    out.synth_kind = kind
    return out


def synthesized_gram_drift(c: Curve) -> float:
    """Worst Gram residual of the integrated frame over all synthesis nodes."""
    nodes = getattr(c, "synth_nodes", None)
    kind = getattr(c, "synth_kind", None)
    if nodes is None or kind is None:
        raise ValueError("curve does not carry synthesis nodes")
    return float(frame_gram_residual(nodes["T"], nodes["N"], nodes["B"], _KINDS.index(kind)).max())
