"""Partner pairs, pair classification, and identity audits.

A partner pair couples a curve C with a companion C* through a point
correspondence; the defining property under audit is that the principal
normal line of C coincides with the binormal line of C* at corresponding
points.  ``PairSamples.collinearity`` measures how far a pair is from that
property, and ``IDENTITIES`` publishes a residual profile for each of the
catalogued scalar identities.

Both partner constructions, C* = C - lam N and C = C* + lam B*, are one
offset a + lam e along a frame field e of a unit-speed base, built by the
``offset`` module; ``offset_along_binormal`` and ``offset_along_normal`` are
importable from here too.  Where one curve of a pair is an offset of the
other, ``PairSamples`` forms the offset's columns from one pass of the base.

Each pair type is one ``PairTypeSpec`` row (``MannheimPairType.spec``): the
causal characters of (C*, C), the kind of its tangent decomposition, and
the signs of its identities.  Classification, the decomposition and every
residual read that row.  Each identity is one row of ``IDENTITIES``: its
name, its residual column over ``PairSamples``, its default tolerance and
its verdict policy.  ``PairSamples(pair, grid)`` holds both curves' frames
as ``FrameGrid`` columns, on which every identity is row-wise algebra;
``MannheimPair.samples(grid_n)`` builds one on the uniform grid, and a
point query is the one-row view ``PairSamples(pair, [s])``.

Verdict policy: identities only claim Pass/Fail when the defining
collinearity is itself numerically satisfied (residual below a hypothesis
threshold); otherwise the profile is published with verdict "Reported".
The distance identity is exempt, as it checks a construction invariant of
the offsets; the literal torsion square is never judged; the center ratio
has its own non-constancy criterion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .curve import INVERSE_TABLE_SIZE, Curve, UnitChain, _unit_jets
from .errors import (
    DegenerateIndicatrixError,
    InconsistentDecompositionError,
    MannheimLabError,
    NegativeConditionValueError,
    UnsupportedCombinationError,
    VanishingTorsionError,
    raise_first,
)
from .frenet import (
    CurveKind,
    FrameGrid,
    _extract,
    _one_kind,
    frenet_apparatus,  # noqa: F401 - still importable from this module
    frenet_frames,
    frenet_synthesize,
    kind_signs,
    scalar_jets,
)
from .expr import sqrt
from .lorentz import cross_rows, euclidean_rows, inner_rows, norm_rows, power_rows
from .offset import _check_lambda, offset_along_binormal, offset_along_normal
from .reports import VerificationReport, Verdict

__all__ = [
    "MannheimPairType",
    "PairTypeSpec",
    "MannheimPair",
    "PairSamples",
    "IDENTITIES",
    "MannheimCurveTest",
    "offset_along_binormal",
    "offset_along_normal",
    "mannheim_curve_test",
    "exact_partner_pair",
    "HYPOTHESIS_TOL",
]

HYPOTHESIS_TOL = 1e-6
DECOMPOSITION_TOL = 1e-8
INVARIANT_TOL = 1e-6
# |tau| at or below this raises VanishingTorsionError where tau divides.
TORSION_TOL = 1e-9
# mannheim_curve_test's lambda(s) is constant when its spread is <= this * |mean|.
LAMBDA_CONSTANCY_TOL = 1e-6
# The center ratio counts as varying when its sample SD exceeds this * |mean|
# (and the rounding level of its operands; see _nonconstancy).
RATIO_THRESHOLD_FACTOR = 1e-6

# Default tolerances, graded by how many numerical layers an identity
# crosses: plain algebra on analytic data, or one frame extraction.  The
# angle rate is chained exactly through both frame systems, with no numerical
# derivative of the angle function; TOL_ANGLE_RATE keeps the published 1e-4.
TOL_ALGEBRAIC = 1e-9
TOL_EXTRACTED = 1e-5
TOL_ANGLE_RATE = 1e-4
TOL_IMAGE_RATE = 1e-4
# A spherical image whose rate is at or below this is stationary.
RATE_TOL = 1e-9


class MannheimPairType(Enum):
    """The five admissible causal-character combinations of (C, C*)."""

    TYPE1 = 1  # C* timelike;                 C spacelike, timelike normal
    TYPE2 = 2  # C* timelike;                 C timelike
    TYPE3 = 3  # C* spacelike, timelike binormal; C spacelike, timelike normal
    TYPE4 = 4  # C* spacelike, timelike binormal; C timelike
    TYPE5 = 5  # C* spacelike, timelike normal;   C spacelike, timelike binormal

    @property
    def spec(self) -> "PairTypeSpec":
        """This type's row of the type table."""
        return _SPECS[self.value - 1]


def _term(signed: str, x, s_comp, c_comp):
    """``x`` times a signed component: "+s"/"-s" (sine-like) or "+c"/"-c".

    The sign scales ``x`` before the product, so "-" is an exact negation
    and the term has the bits of the identity as written.
    """
    sign = -1.0 if signed[0] == "-" else 1.0
    return (sign * x) * (s_comp if signed[1] == "s" else c_comp)


class PairTypeSpec(NamedTuple):
    """One pair type: the kinds of (C*, C) and the sign pattern of its identities.

    With x[a] the signed component named a (see ``_term``):

        tau* = torsion_sign kappa / (lam tau)          torsion-reciprocal
        mu tau + linear_sign lam kappa = 1             linear-curvature-torsion
        kappa* = angle_rate_sign d(theta)/ds*          frame-angle-rate
        tau* = kappa x[a] + tau x[b]                   (a, b) = tau_star_terms
        kappa = tau* x[a],  tau = tau* x[b]            (a, b) = projections
        tau*^2 = g kappa^2 + h tau^2                   (g, h) = square_signs
        kappa/rate_N = x[a] tau*/rate_B*,  tau/rate_N = x[b] tau*/rate_B*
                                                       (a, b) = image_terms

    ``circular`` marks the type whose tangent decomposition lies in a plane
    of signature (+,+) (circular functions); the others use hyperbolic ones.
    Type 4 would put a timelike tangent in a positive-definite plane, which
    no decomposition satisfies; it is kept formally hyperbolic and its
    decomposition check fails on any actual frame data.  ``swap`` marks the
    type whose sine-like component is the T* coefficient of T; the others
    take their cosine-like component from T*.
    """

    companion: CurveKind
    curve: CurveKind
    circular: bool
    swap: bool
    torsion_sign: float
    linear_sign: float
    angle_rate_sign: float
    tau_star_terms: tuple[str, str]
    projections: tuple[str, str]
    square_signs: tuple[float, float]
    image_terms: tuple[str, str]
    description: str

    def oriented(self, a, b):
        """(a, b) for the swapping type, else (b, a).

        Maps the (T*, N*) coefficients of T to the (sine-like, cosine-like)
        components, and the components back to the coefficients.
        """
        return (a, b) if self.swap else (b, a)

    def square(self, kappa, tau):
        """g kappa^2 + h tau^2, the right side of the torsion-square relation."""
        g, h = self.square_signs
        return (g * kappa) * kappa + (h * tau) * tau


# The type table: entry k is MannheimPairType(k + 1), in PairTypeSpec's field
# order, with the two kinds as CurveKind values.
_SPECS = tuple(
    PairTypeSpec(CurveKind(companion), CurveKind(curve), *row)
    for companion, curve, *row in (
        ("timelike", "spacelike-", False, True, -1.0, 1.0, -1.0,
         ("+c", "+s"), ("+c", "-s"), (1.0, -1.0), ("+c", "-s"),
         "companion timelike; curve spacelike with timelike principal normal"),
        ("timelike", "timelike", False, False, 1.0, 1.0, -1.0,
         ("-s", "-c"), ("+s", "-c"), (-1.0, 1.0), ("-s", "-c"),
         "companion timelike; curve timelike"),
        ("spacelike+", "spacelike-", True, False, 1.0, -1.0, -1.0,
         ("-s", "+c"), ("+s", "+c"), (-1.0, 1.0), ("-s", "-c"),
         "companion spacelike with timelike binormal; curve spacelike with timelike principal normal"),
        ("spacelike+", "timelike", False, False, -1.0, -1.0, 1.0,
         ("+c", "-s"), ("+c", "+s"), (1.0, -1.0), ("-c", "+s"),
         "companion spacelike with timelike binormal; curve timelike"),
        ("spacelike-", "spacelike+", False, False, 1.0, 1.0, -1.0,
         ("+s", "+c"), ("+s", "+c"), (1.0, 1.0), ("+s", "+c"),
         "companion spacelike with timelike principal normal; curve spacelike with timelike binormal"),
    )
)


def _pair_type(*key: CurveKind) -> MannheimPairType:
    """The type of the kinds (C*, C); UnsupportedCombinationError outside the five types."""
    for pair_type in MannheimPairType:
        if (pair_type.spec.companion, pair_type.spec.curve) == key:
            return pair_type
    raise _unsupported(*key)


def _unsupported(companion: CurveKind, curve: CurveKind) -> UnsupportedCombinationError:
    return UnsupportedCombinationError(
        f"combination (companion={companion.value}, curve={curve.value}) "
        "is outside the five catalogued pair types"
    )


def _on_arc_length(raw: Curve) -> Curve:
    """A pair's curve on its arc length: ``raw`` if unit-speed, else its chain's ``arc_length()``."""
    return raw if raw.unit_speed else raw.arc_length()


@dataclass
class MannheimPair:
    """Two curves C and C* whose points correspond through a shared raw parameter t, with a
    fixed offset constant ``lam``: ``c_raw`` and ``cstar_raw``, as the audit evaluates them at
    t (a unit-speed input itself, else its ``UnitChain``).  ``c`` and ``cstar``, each on its own
    arc length (``_on_arc_length``), and the t and ds*/ds of ``PairSamples`` derive from them.
    """

    c_raw: Curve
    lam: float
    pair_type: MannheimPairType
    cstar_raw: Curve

    c = cached_property(lambda self: _on_arc_length(self.c_raw))
    cstar = cached_property(lambda self: _on_arc_length(self.cstar_raw))

    def samples(self, grid_n: int) -> "PairSamples":
        """The pair sampled on ``grid_n`` uniform arc lengths of C, built afresh on each call."""
        return PairSamples(self, np.linspace(*self.c.domain, grid_n))

    @classmethod
    def from_binormal_offset(
        cls, cstar: Curve, lam: float, table_size: int = INVERSE_TABLE_SIZE
    ) -> "MannheimPair":
        """Pair {C, C*} with C the binormal offset of the unit-speed C*."""
        return cls.from_shared_parameter(offset_along_binormal(cstar, lam), cstar, lam, table_size)

    @classmethod
    def from_normal_offset(
        cls, c: Curve, lam: float, table_size: int = INVERSE_TABLE_SIZE
    ) -> "MannheimPair":
        """Pair {C, C*} with C* the normal offset of the unit-speed C."""
        return cls.from_shared_parameter(c, offset_along_normal(c, lam), lam, table_size)

    @classmethod
    def from_shared_parameter(
        cls, c: Curve, cstar: Curve, lam: float, table_size: int = INVERSE_TABLE_SIZE
    ) -> "MannheimPair":
        """Correspond two curves through a shared raw parameter t, which needs equal domains.

        Each input is stored as the pair holds it; C's arc-length table is built here, to read
        the pair type from the frames the audit reads, ``PairSamples`` at 9 uniform points of C
        on its arc length.  A frame kind that varies raises MixedCausalCharacterError, naming
        C* ahead of C.  Raises ZeroLambdaError, before any work, for a ``lam`` that is zero or
        not finite.
        """
        _check_lambda(lam)
        if c.domain != cstar.domain:
            raise ValueError("shared-parameter pairing needs identical domains")
        c_raw, cstar_raw = (x if x.unit_speed else UnitChain(x, table_size) for x in (c, cstar))
        pair = cls(c_raw, lam, None, cstar_raw)
        frames = PairSamples(pair, np.linspace(*pair.c.domain, 9)).frames
        kinds = zip(frames[::-1], (cstar_raw, pair.c))  # C*'s kind, then C's
        pair.pair_type = _pair_type(*(_one_kind(f.kinds, x.label) for f, x in kinds))
        return pair


def _projections(T: np.ndarray, fstar: FrameGrid) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) on each row: the T* and N* coefficients of the tangents ``T``,
    p = <T,T*>/eps_T*, q = <T,N*>/eps_N*."""
    eps_t_star, eps_n_star, *_ = kind_signs(fstar.kinds)
    return inner_rows(T, fstar.T) / eps_t_star, inner_rows(T, fstar.N) / eps_n_star


def _decomposition(
    spec: PairTypeSpec, T: np.ndarray, fstar: FrameGrid, where: Callable[[int], str]
) -> tuple[np.ndarray, np.ndarray]:
    """(s_comp, c_comp) on each row; InconsistentDecompositionError names the
    first row whose tangent leaves the (T*, N*) plane or whose components
    break the type's invariant, ``where(i)`` placing row ``i`` in the message."""
    p, q = _projections(T, fstar)
    defect = euclidean_rows(T - (fstar.T * p[:, None] + fstar.N * q[:, None]))
    s_comp, c_comp = spec.oriented(p, q)
    if spec.circular:
        invariant, kindname = c_comp * c_comp + s_comp * s_comp, "cos^2+sin^2"
    else:
        invariant, kindname = c_comp * c_comp - s_comp * s_comp, "cosh^2-sinh^2"
    error = InconsistentDecompositionError
    raise_first(
        [
            (
                defect > DECOMPOSITION_TOL * np.maximum(1.0, euclidean_rows(T)),
                lambda i: error(f"tangent leaves the (T*, N*) plane{where(i)} (defect {defect[i]:.3e})"),
            ),
            (
                np.abs(invariant - 1.0) > INVARIANT_TOL,
                lambda i: error(f"{kindname} = {invariant[i]:.9g}{where(i)}; no consistent angle exists"),
            ),
        ]
    )
    return s_comp, c_comp


# ---------------------------------------------------------------------------
# the sampled pair and the identity table


def _field_rates(f: FrameGrid, which: str) -> np.ndarray:
    """|gamma'(s)| of the spherical image of the frame field ``which``, from the frame equations."""
    if which == "T":
        return f.kappa
    if which == "B":
        return np.abs(f.tau)
    eps_t, _, eps_b, *_ = kind_signs(f.kinds)
    return np.sqrt(np.abs(eps_t * f.kappa * f.kappa + eps_b * f.tau * f.tau))


def _partner(x: Curve, base: Curve) -> Curve | None:
    """The offset of ``base`` that ``x`` evaluates, itself or through its ``UnitChain``, else None."""
    o = x.base if isinstance(x, UnitChain) else x
    return o if getattr(o, "frame_offset", None) and o.frame_offset.base is base else None


class PairSamples:
    """The pair ``pair`` sampled at the arc lengths ``grid`` of C: the columns
    every identity reads.

    C is evaluated on the grid and C* at ``t``, the grid's raw parameters,
    where its partner points are.  Each column is computed on first use and
    kept, so a suite computes each once.  Where one curve evaluates
    ``offset``, an offset of the other, the base makes one pass at t,
    ``base_pass``, from which the offset's frames, positions and squares are formed.
    ``MannheimPair.samples(grid_n)`` builds one on the uniform grid.
    Every column is row-wise, so a point query is the one-row view
    ``PairSamples(pair, [s])``: its columns equal row s of any grid holding s.
    Only the reductions over the grid (the hypothesis, the image alignment and
    the center ratio's mean) depend on the grid.
    """

    def __init__(self, pair: MannheimPair, grid) -> None:
        self.pair, self.c, self.c_raw, self.cstar = pair, pair.c, pair.c_raw, pair.cstar_raw
        self.lam, self.grid = pair.lam, np.asarray(grid, dtype=float)
        self.offset = _partner(self.cstar, self.c) or _partner(self.c_raw, self.cstar)

    spec = property(lambda self: self.pair.pair_type.spec, doc="The row of the pair's type.")

    @cached_property
    def grid_list(self) -> list[float]:
        """The grid as a list, the one every report on these samples holds."""
        return self.grid.tolist()

    @cached_property
    def t(self) -> np.ndarray:
        """The grid's raw parameters: itself if C is its own raw parameter, else by C's table."""
        return self.grid if self.c is self.c_raw else self.c.arc_table.t_of_s(self.grid)

    @cached_property
    def base_pass(self) -> tuple[np.ndarray, FrameGrid, tuple]:
        """``t`` in the offset's domain, the base's frames there, and the offset's tangent
        coordinates (``offset._FrameOffset.tangent``) from the base's order-2 scalar jet."""
        t, m = self.offset._check_domain(self.t), self.offset.frame_offset
        return t, frenet_frames(m.base, t), m.tangent(scalar_jets(m.base, t, 2))

    @cached_property
    def frames(self) -> tuple[FrameGrid, FrameGrid]:
        """Frames of C on the grid and of C* at ``t``, one extraction per curve: an offset's is
        ``frenet._extract`` of the derivatives it (and its chain) forms from the base pass.
        The error raised is that of the first failing point: one at row r first audits rows
        :r, and at one row the base's, else C's, comes first."""
        try:
            if (o := self.offset) is None:
                return frenet_frames(self.c, self.grid), frenet_frames(self.cstar, self.t)
            self.c._check_domain(self.grid)
            (t, f, tangent), m = self.base_pass, o.frame_offset
            x, s = (self.cstar, self.t) if m.base is self.c else (self.c, self.grid)
            d = o._finite(t, 3, m.jets_from(f, tangent))
            if x is not o:  # the offset's chain, or that chain on its arc length
                d = x._finite(x._check_domain(s), 3, _unit_jets(*d))
            g = _extract(x.label, s, *d)
            return (f, g) if x is self.cstar else (g, f)
        except MannheimLabError as exc:
            if exc.row:  # an earlier row of either curve comes first
                PairSamples(self.pair, self.grid[: exc.row]).frames
            raise

    @cached_property
    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions of C on the grid and of C* at ``t``; an offset's are its base's plus lam e."""
        if (o := self.offset) is None:
            return self.c.positions(self.grid), self.cstar.positions(self.t)
        self.c._check_domain(self.grid)
        (t, f, _), m = self.base_pass, o.frame_offset
        a = m.base.positions(t)
        p = o._finite(t, 0, m.positions_from(f, a))
        return (a, p) if m.base is self.c else (p, a)

    @cached_property
    def scalars(self) -> np.ndarray:
        """Rows kappa, tau, kappa*, tau*."""
        f, fstar = self.frames
        return np.stack((f.kappa, f.tau, fstar.kappa, fstar.tau))

    @cached_property
    def collinearity(self) -> np.ndarray:
        """rho = |N x B*| / (|N| |B*|), zero exactly when the normal line of C
        and the binormal line of C* coincide in direction."""
        f, fstar = self.frames
        return norm_rows(cross_rows(f.N, fstar.B)) / (norm_rows(f.N) * norm_rows(fstar.B))

    @cached_property
    def hypothesis(self) -> tuple[bool, float]:
        """(met, worst collinearity residual over the grid)."""
        worst = max(self.collinearity.tolist())
        return worst <= HYPOTHESIS_TOL, worst

    @cached_property
    def components(self) -> np.ndarray:
        """Rows s_comp, c_comp: the sine-like and cosine-like coefficients of
        T in the (T*, N*) plane (c^2 - s^2 = 1 for the hyperbolic types,
        c^2 + s^2 = 1 for the circular one, up to the sign of c).

        With the hypothesis met the decomposition is checked, and a failure
        raises InconsistentDecompositionError carrying its grid ``row``.
        Otherwise the raw projections are used, so the profiles are still
        published as Reported.
        """
        f, fstar = self.frames
        if not self.hypothesis[0]:
            return np.stack(self.spec.oriented(*_projections(f.T, fstar)))
        return np.stack(_decomposition(self.spec, f.T, fstar, lambda i: f" at s={self.grid[i]:g}"))

    @cached_property
    def theta(self) -> np.ndarray:
        """The signed angle between T and T*: atan2(s, c) for the circular
        type, asinh(s) for the hyperbolic ones."""
        s_comp, c_comp = self.components
        return np.arctan2(s_comp, c_comp) if self.spec.circular else np.arcsinh(s_comp)

    @cached_property
    def rates(self) -> np.ndarray:
        """ds*/ds at ``t``, the ratio of the raw inputs' speeds (1 for a unit-speed input); an
        offset's are the roots of its squares from the base pass's tangent coordinates."""
        speeds = [self._speeds(x) for x in (self.cstar, self.c_raw)]
        return np.array(np.broadcast_to(speeds[0] / speeds[1], self.t.shape), dtype=float)

    def _speeds(self, x: Curve):
        if x.unit_speed:
            return 1.0
        if x.base is not self.offset:
            return x.base.speeds(self.t)
        t, _, tangent = self.base_pass
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named by _finite
            return np.sqrt(np.abs(x.base._finite(t, 2, x.base.frame_offset.squares_from(tangent))))

    @cached_property
    def dtheta(self) -> np.ndarray:
        """d(theta)/ds* by the chain rule through both frame systems.

        With p = <T,T*>/eps_T*, q = <T,N*>/eps_N*, r = ds*/ds, T' = kappa N
        and the companion's frame equations scaled by r:

            p' = (kappa <N,T*> + r kappa* <T,N*>) / eps_T*
            q' = (kappa <N,N*> + r (c_n* kappa* <T,T*> + tau* <T,B*>)) / eps_N*

        Every inner product is evaluated and none is set by the hypothesis,
        so the angle-rate identity is measured, not assumed.  No frame off
        the grid is needed.  A row where the angle has no rate, as both
        components vanish on the circular type or ds*/ds = 0, is NaN.
        """
        r = self.rates
        s_comp, c_comp = self.components
        f, fstar = self.frames
        spec = self.spec
        eps_t_star, eps_n_star, _, c_n_star, _ = kind_signs(fstar.kinds)
        p, q = spec.oriented(s_comp, c_comp)
        k, k_star = f.kappa, fstar.kappa
        dp = (k * inner_rows(f.N, fstar.T) + r * k_star * eps_n_star * q) / eps_t_star
        dq = (
            k * inner_rows(f.N, fstar.N)
            + r * (c_n_star * k_star * eps_t_star * p + fstar.tau * inner_rows(f.T, fstar.B))
        ) / eps_n_star
        ds_comp, dc_comp = spec.oriented(dp, dq)
        squared = c_comp * c_comp + s_comp * s_comp if spec.circular else 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            if spec.circular:
                dtheta = (c_comp * ds_comp - s_comp * dc_comp) / squared
            else:
                dtheta = ds_comp / np.sqrt(1.0 + s_comp * s_comp)
            return np.where((squared == 0.0) | (r == 0.0), np.nan, dtheta / r)

    @cached_property
    def mu(self) -> np.ndarray:
        """mu = lam s/c; NaN where T is orthogonal to T* (c = 0)."""
        s_comp, c_comp = self.components
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(c_comp != 0.0, self.lam * s_comp / c_comp, np.nan)

    @cached_property
    def center_ratio(self) -> np.ndarray:
        """(1 - lam kappa) sqrt|lam^2 kappa*^2 - 1|."""
        kappa, _, kappa_star, _ = self.scalars
        lam = self.lam
        return (1.0 - lam * kappa) * np.sqrt(np.abs(lam * lam * power_rows(kappa_star, 2) - 1.0))

    @cached_property
    def ratio_mean(self) -> float:
        """The center ratios' mean; where their sum overflows, from the ratios scaled by the largest."""
        ratios, big = self.center_ratio, float(np.abs(self.center_ratio).max())
        mean = float(np.mean(ratios))
        return mean if np.isfinite(mean) else big * float(np.mean(ratios / big))

    @cached_property
    def image_rates(self) -> tuple[np.ndarray, np.ndarray]:
        """1/rate of the N-image of C and 1/rate of the B-image of C*.

        A stationary image raises DegenerateIndicatrixError, before a failed
        decomposition at the same or a later grid point.
        """
        f, fstar = self.frames
        rate_n, rate_b = _field_rates(f, "N"), _field_rates(fstar, "B")
        stationary = (rate_n <= RATE_TOL) | (rate_b <= RATE_TOL)
        try:
            self.components
        except InconsistentDecompositionError as exc:
            if not stationary[: exc.row + 1].any():
                raise
        self.check(stationary, DegenerateIndicatrixError, "stationary spherical image")
        return 1.0 / rate_n, 1.0 / rate_b

    def image_residuals(self, alignment: float) -> tuple[np.ndarray, np.ndarray]:
        """The two rate-coupled relations' residuals; ``alignment`` (+1/-1)
        flips the starred side of both at once."""
        kappa, tau, _, tau_star = self.scalars
        inv_rate_n, inv_rate_b = self.image_rates
        s_comp, c_comp = self.components
        rhs = alignment * tau_star * inv_rate_b
        return tuple(
            np.abs(x * inv_rate_n - _term(term, rhs, s_comp, c_comp))
            for x, term in zip((kappa, tau), self.spec.image_terms)
        )

    @cached_property
    def aligned(self) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        """The relative orientation of the N-image of C and the B-image of C* is a
        free sign: the one with the smaller worst residual, and ``image_residuals`` at it."""
        rows = {g: self.image_residuals(g) for g in (1.0, -1.0)}
        g = min(rows, key=lambda g: max(max(r.tolist()) for r in rows[g]))
        return g, rows[g]

    alignment = property(lambda self: self.aligned[0], doc="The sign chosen by ``aligned``.")

    def check(self, failing: np.ndarray, error: type, what: str) -> None:
        """Raise ``error("<what> at s=...")`` for the first flagged grid point."""
        raise_first([(failing, lambda i: error(f"{what} at s={self.grid[i]:g}"))])


def _distance(p: PairSamples) -> np.ndarray:
    a, b = p.positions
    return np.abs(norm_rows(a - b) - abs(p.lam))


def _torsion_reciprocal(p: PairSamples) -> np.ndarray:
    kappa, tau, _, tau_star = p.scalars
    p.check(np.abs(tau) <= TORSION_TOL, VanishingTorsionError, "tau vanishes")
    return np.abs(tau_star - p.spec.torsion_sign * kappa / (p.lam * tau))


def _linear(p: PairSamples) -> np.ndarray:
    kappa, tau, _, _ = p.scalars
    return np.abs(p.mu * tau + p.spec.linear_sign * p.lam * kappa - 1.0)


def _mu_details(p: PairSamples) -> dict:
    mus = p.mu[~np.isnan(p.mu)]
    return {
        "mu_mean": float(np.mean(mus)) if mus.size else None,
        "mu_spread": float(np.max(mus) - np.min(mus)) if mus.size else None,
    }


def _angle_rate(p: PairSamples) -> np.ndarray:
    return np.abs(p.scalars[2] - p.spec.angle_rate_sign * p.dtheta)


def _composition(p: PairSamples) -> np.ndarray:
    kappa, tau, _, tau_star = p.scalars
    (k_term, t_term), (s_comp, c_comp) = p.spec.tau_star_terms, p.components
    return np.abs(tau_star - (_term(k_term, kappa, s_comp, c_comp) + _term(t_term, tau, s_comp, c_comp)))


def _projection(which: int) -> Callable[[PairSamples], np.ndarray]:
    """kappa (``which`` 0) or tau (1) against tau* times its signed component."""

    def residual(p: PairSamples) -> np.ndarray:
        return np.abs(p.scalars[which] - _term(p.spec.projections[which], p.scalars[3], *p.components))

    return residual


def _torsion_square(p: PairSamples) -> np.ndarray:
    kappa, tau, _, tau_star = p.scalars
    return np.abs(tau_star * tau_star - p.spec.square(kappa, tau))


def _torsion_square_literal(p: PairSamples) -> np.ndarray:
    kappa, tau, _, tau_star = p.scalars
    return np.abs(tau_star - p.spec.square(kappa, tau))


def _ratio_deviation(p: PairSamples) -> np.ndarray:
    return np.abs(p.center_ratio - p.ratio_mean)


def _image_rate(which: int) -> Callable[[PairSamples], np.ndarray]:
    """The curvature (``which`` 0) or torsion (1) image-rate relation at the chosen alignment."""

    def residual(p: PairSamples) -> np.ndarray:
        return p.aligned[1][which]

    return residual


class _Policy(Enum):
    """How a report's verdict follows from its residual profile."""

    GATED = "hypothesis-gated"  # Pass/Fail only where the collinearity holds, else Reported
    EXEMPT = "exempt"  # a construction invariant of the offsets: always judged
    UNJUDGED = "never judged"  # published as Reported
    NONCONSTANT = "non-constancy"  # Pass when the profile varies; see _nonconstancy


class _Identity(NamedTuple):
    """One row of the audit: a report's name, its residual column over
    ``PairSamples`` (NaN where undefined), its default tolerance and its
    verdict policy.  ``tunable`` says whether ``--tol`` replaces the
    tolerance; ``details`` gives the report's extra fields."""

    name: str
    residual: Callable[[PairSamples], np.ndarray]
    tol: float | None
    policy: _Policy
    tunable: bool = True
    details: Callable[[PairSamples], dict] = lambda p: {}

    def report(self, p: PairSamples, tol: float | None = None) -> VerificationReport:
        """This identity's report on ``p``, with ``tol`` in place of the
        default tolerance where the row is tunable.

        A NaN residual is undefined: published as None and counted by
        ``undefined_at`` in ``details``.  A NONCONSTANT row's tolerance,
        verdict and first details come from ``_nonconstancy``.  Otherwise the
        verdict is Reported where the row is not judged (UNJUDGED, or GATED
        without the collinearity hypothesis), Fail on any undefined residual
        or on a largest residual above the tolerance, and Pass.  GATED and
        UNJUDGED rows put the worst collinearity residual first in details.
        """
        column = self.residual(p)
        profile, details = column.tolist(), self.details(p)
        undefined = np.isnan(column)
        if undefined.any():
            profile = [None if u else r for u, r in zip(undefined.tolist(), profile)]
            details["undefined_at"] = int(undefined.sum())
        if tol is None or not self.tunable:
            tol = self.tol
        if self.policy is _Policy.NONCONSTANT:
            tol, verdict, own = _nonconstancy(p)
            details = {**own, **details}
        else:
            verdict = Verdict.FAIL if undefined.any() or column.max() > tol else Verdict.PASS
        if self.policy in (_Policy.GATED, _Policy.UNJUDGED):
            met, worst = p.hypothesis
            details = {"hypothesis_residual": worst, **details}
            if not (met and self.policy is _Policy.GATED):
                verdict = Verdict.REPORTED
        return VerificationReport(self.name, p.grid_list, profile, tol, verdict, details)


def _nonconstancy(p: PairSamples) -> tuple[float, Verdict, dict]:
    """The center ratio's own criterion, as (threshold, verdict, details):
    Pass when the ratio varies along the pair.

    It varies when its sample standard deviation exceeds a threshold,
    ``RATIO_THRESHOLD_FACTOR * |mean|`` but never less than the ratio's
    rounding level: sqrt(eps) (1 + |lam kappa|) sqrt(lam^2 kappa*^2 + 1) at
    its largest, as a square root of a difference near zero carries
    sqrt(eps) of its operands' scale.  A ratio whose factor 1 - lam kappa or
    sqrt|lam^2 kappa*^2 - 1| cancels to zero thus reads as constant, not as
    varying noise.  Constant-curvature input makes the ratio exactly
    constant; that case is Reported (constant_ratio), not failed.
    """
    ratios, mean, lam = p.center_ratio, p.ratio_mean, p.lam
    kappas, _, kappa_stars, _ = p.scalars
    sd = float(np.std(ratios, ddof=1))
    if not np.isfinite(sd):  # the squared deviations overflow: scale them by the largest first
        big = float(np.abs(ratios - mean).max())
        sd = big * float(np.std((ratios - mean) / big, ddof=1))
    scale = (1.0 + np.abs(lam * kappas)) * np.sqrt(lam * lam * kappa_stars * kappa_stars + 1.0)
    threshold = max(RATIO_THRESHOLD_FACTOR * abs(mean), float(np.sqrt(np.finfo(float).eps) * scale.max()))

    def spread(vals: np.ndarray) -> float:
        return float(np.ptp(vals)) / max(1e-300, abs(float(np.mean(vals))))

    constant = not sd > threshold and spread(kappas) < 1e-9 and spread(kappa_stars) < 1e-9
    verdict = Verdict.PASS if sd > threshold else Verdict.REPORTED if constant else Verdict.FAIL
    return threshold, verdict, {
        "ratio_mean": mean, "ratio_sd": sd, "criterion": "sd > tolerance", "constant_ratio": constant,
    }


# The audit suite, in report order.  Default tolerances are graded by how
# many numerical layers an identity crosses (see TOL_ALGEBRAIC); the angle
# rate keeps its published 1e-4 whatever ``--tol`` says, and the center
# ratio's threshold comes from its own profile.
IDENTITIES = (
    _Identity(
        "distance-constancy", _distance, TOL_ALGEBRAIC, _Policy.EXEMPT,
        details=lambda p: {"distance": abs(p.lam)},
    ),
    _Identity("torsion-reciprocal", _torsion_reciprocal, TOL_EXTRACTED, _Policy.GATED),
    _Identity("linear-curvature-torsion", _linear, TOL_EXTRACTED, _Policy.GATED, details=_mu_details),
    _Identity("frame-angle-rate", _angle_rate, TOL_ANGLE_RATE, _Policy.GATED, tunable=False),
    _Identity("torsion-composition", _composition, TOL_EXTRACTED, _Policy.GATED),
    _Identity("curvature-projection", _projection(0), TOL_EXTRACTED, _Policy.GATED),
    _Identity("torsion-projection", _projection(1), TOL_EXTRACTED, _Policy.GATED),
    _Identity("torsion-square", _torsion_square, TOL_EXTRACTED, _Policy.GATED),
    _Identity(
        "torsion-square-literal", _torsion_square_literal, TOL_EXTRACTED, _Policy.UNJUDGED,
        details=lambda p: {"note": "dimensionally inhomogeneous variant; published, never judged"},
    ),
    _Identity("center-ratio-nonconstancy", _ratio_deviation, None, _Policy.NONCONSTANT),
    _Identity(
        "image-rate-curvature", _image_rate(0), TOL_IMAGE_RATE, _Policy.GATED,
        details=lambda p: {"alignment": int(p.alignment)},
    ),
    _Identity(
        "image-rate-torsion", _image_rate(1), TOL_IMAGE_RATE, _Policy.GATED,
        details=lambda p: {"alignment": int(p.alignment)},
    ),
)


# ---------------------------------------------------------------------------
# the partner equation and exact constructions
#
# With C* = C - lam N, the N-component of C*'' is (1 - lam c_n kappa) kappa -
# lam c_b tau^2 (N' = c_n kappa T + tau B, B' = c_b tau N), so the binormal
# of C* lies along N exactly when kappa = lam (c_n kappa^2 + c_b tau^2).


class MannheimCurveTest(NamedTuple):
    """The partner equation solved for lam along a candidate curve."""

    constant: bool
    lambda_estimate: float
    profile: list[float]


def mannheim_curve_test(c: Curve, pair_type: MannheimPairType, grid_n: int = 101) -> MannheimCurveTest:
    """lambda(s) = kappa / (c_n kappa^2 + c_b tau^2) on ``grid_n`` points of
    the curve C of a ``pair_type`` pair, (c_n, c_b) from C's own frames: C
    has a partner, its normal offset by lam, exactly when lambda(s) is the
    constant lam.  ``lambda_estimate`` is the mean.

    UnsupportedCombinationError for types 1 and 4, whose rows give the
    normal of C and the binormal of C* unlike causal characters (a timelike
    line never lies on a spacelike one), where C's kind is not the row's,
    and where the sign of ``squares`` of the offset by ``lambda_estimate``
    is not the <T*,T*> of the row's companion kind.
    VanishingTorsionError where tau vanishes (the offset stops);
    NegativeConditionValueError where c_n kappa^2 + c_b tau^2 vanishes.  A
    helix meets the equation, but its offset is a straight line, whose
    frames raise VanishingCurvatureError.
    """
    spec, n = pair_type.spec, pair_type.value
    if spec.curve.signs[1] != spec.companion.signs[2]:
        raise UnsupportedCombinationError(f"type {n}: normal of C, binormal of C* of unlike character")
    s = np.linspace(*c.domain, grid_n)
    f = frenet_frames(c, s)
    _, _, _, c_n, c_b = kind_signs(f.kinds)
    condition = c_n * f.kappa * f.kappa + c_b * f.tau * f.tau
    kinds = tuple(CurveKind)
    raise_first(
        [
            (
                f.kinds != kinds.index(spec.curve),
                lambda i: UnsupportedCombinationError(
                    f"{c.label!r} is {kinds[f.kinds[i]].value} at s={s[i]:g}, not {spec.curve.value}"
                ),
            ),
            (np.abs(f.tau) <= TORSION_TOL, lambda i: VanishingTorsionError(f"tau = 0 at s={s[i]:g}")),
            (condition == 0.0, lambda i: NegativeConditionValueError(f"no finite lam at s={s[i]:g}")),
        ]
    )
    profile = (f.kappa / condition).tolist()
    mean = float(np.mean(profile))
    companion = np.sign(offset_along_normal(c, mean).squares(s))
    character = ("timelike", "null", "spacelike")
    raise_first(
        [
            (
                companion != spec.companion.signs[0],
                lambda i: UnsupportedCombinationError(
                    f"the offset by lam={mean:g} is {character[int(companion[i]) + 1]} at s={s[i]:g}, "
                    f"not {spec.companion.value}"
                ),
            )
        ]
    )
    constant = max(profile) - min(profile) <= LAMBDA_CONSTANCY_TOL * abs(mean)
    return MannheimCurveTest(constant, mean, profile)


def exact_partner_kappa(kind: CurveKind, lam: float, tau):
    """The curvature that makes the normal offset by ``lam`` an exact partner.

    ``tau`` is a float or a ``Jet2``, and the curvature the same kind: the
    root (1 - sqrt(1 - 4 c_n c_b lam^2 tau^2)) / (2 c_n lam) of the partner
    equation, (c_n, c_b) the frame coefficients of ``kind``.  Its
    discriminant and value must be positive on the whole range, else
    ValueError: lam > 0 for a spacelike curve (with 4 lam^2 tau^2 < 1 if
    its normal is timelike), lam < 0 for a timelike one.
    """
    _check_lambda(lam)
    c_n, c_b = kind.normal_coefficient, kind.binormal_coefficient
    disc = 1.0 - 4.0 * c_n * c_b * lam * lam * tau * tau
    if np.any(getattr(disc, "v", disc) <= 0.0):
        raise ValueError("need 1 - 4 c_n c_b lam^2 tau^2 > 0 on the whole range")
    kappa = (1.0 - sqrt(disc)) / (2.0 * c_n * lam)
    if np.any(getattr(kappa, "v", kappa) <= 0.0):
        raise ValueError(f"no positive curvature for a {kind.value} curve at lam = {lam:g}")
    return kappa


def exact_partner_pair(
    kind: CurveKind,
    tau_fn: Callable,
    lam: float,
    s_range: tuple[float, float] = (0.0, 1.0),
    step: float = 1e-3,
    table_size: int = INVERSE_TABLE_SIZE,
) -> MannheimPair:
    """Synthesize a curve whose normal offset by ``lam`` is an exact partner.

    The torsion profile is free; the curvature is tied to it pointwise by
    ``exact_partner_kappa``, the root of the partner equation, which is
    exactly the constraint that makes the defining collinearity hold.  A
    varying torsion keeps the companion's curvature away from zero (a
    constant profile degenerates the companion to a straight line).

    Raises UnsupportedCombinationError before any synthesis for a timelike
    curve with ``lam > 0``, whose offset would form no catalogued pair type.
    """
    if kind is CurveKind.TIMELIKE and lam > 0.0:
        raise _unsupported(CurveKind.SPACELIKE_EPS_MINUS, CurveKind.TIMELIKE)
    # Synthesis hands both prescriptions one jet object per grid: the torsion
    # kappa_fn evaluates is kept, keyed on that object, and serves tau_fn too.
    last = (None, None)

    @functools.wraps(tau_fn)
    def tau_memo(s):
        nonlocal last
        key, value = last
        if key is not s:
            value = tau_fn(s)
            last = (s, value)
        return value

    def kappa_fn(s):
        return exact_partner_kappa(kind, lam, tau_memo(s))

    base = frenet_synthesize(kind, kappa_fn, tau_memo, s_range, step)
    return MannheimPair.from_normal_offset(base, lam, table_size)
