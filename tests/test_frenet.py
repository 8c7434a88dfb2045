import copy
import math
import warnings

import numpy as np
import pytest

from mannheim_lab import frenet
from mannheim_lab.curve import Curve
from mannheim_lab.errors import (
    InvalidInitialFrameError,
    NonPositiveCurvatureError,
    NotUnitSpeedError,
    NullPrincipalNormalError,
    ShortSynthesisRangeError,
    SynthesisOverflowError,
    TooManyStepsError,
    VanishingCurvatureError,
)
from mannheim_lab.frenet import (
    CurveKind,
    FrenetFrame,
    frenet_apparatus,
    frenet_synthesize,
    scalar_jet,
    synthesized_gram_drift,
)
from mannheim_lab.lorentz import Vec3L

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)

FRAME0 = {
    CurveKind.TIMELIKE: (Vec3L(1, 0, 0), Vec3L(0, 1, 0), Vec3L(0, 0, -1)),
    CurveKind.SPACELIKE_EPS_PLUS: (Vec3L(0, 1, 0), Vec3L(0, 0, 1), Vec3L(1, 0, 0)),
    CurveKind.SPACELIKE_EPS_MINUS: (Vec3L(0, 1, 0), Vec3L(1, 0, 0), Vec3L(0, 0, 1)),
}


def example1_frame(s):
    return (
        Vec3L(-0.5 * math.cosh(s), 0.5 * math.sinh(s), SQRT5 / 2),
        Vec3L(-math.sinh(s), math.cosh(s), 0.0),
        Vec3L(-SQRT5 / 2 * math.cosh(s), SQRT5 / 2 * math.sinh(s), 0.5),
    )


def example2_frame(s):
    return (
        Vec3L(2.0 * math.cosh(s), 2.0 * math.sinh(s), SQRT3),
        Vec3L(math.sinh(s), math.cosh(s), 0.0),
        Vec3L(-SQRT3 * math.cosh(s), -SQRT3 * math.sinh(s), -2.0),
    )


class TestApparatus:
    def test_example1(self, example1):
        for s in (0.0, 0.5, 1.0):
            f = frenet_apparatus(example1, s)
            assert f.kind is CurveKind.SPACELIKE_EPS_PLUS
            T, N, B = example1_frame(s)
            assert (f.T - T).euclidean_norm() < 1e-12
            assert (f.N - N).euclidean_norm() < 1e-12
            assert (f.B - B).euclidean_norm() < 1e-12
            assert f.kappa == pytest.approx(0.5, abs=1e-12)
            assert f.tau == pytest.approx(SQRT5 / 2, abs=1e-12)

    def test_example2(self, example2):
        for s in (0.0, 0.5, 1.0):
            f = frenet_apparatus(example2, s)
            assert f.kind is CurveKind.TIMELIKE
            T, N, B = example2_frame(s)
            assert (f.T - T).euclidean_norm() < 1e-12
            assert (f.N - N).euclidean_norm() < 1e-12
            assert (f.B - B).euclidean_norm() < 1e-12
            assert f.kappa == pytest.approx(2.0, abs=1e-12)
            assert f.tau == pytest.approx(SQRT3, abs=1e-12)

    def test_straight_line_has_no_frame(self):
        c = Curve(lambda t: Vec3L(0.0, t, 0.0), (0.0, 1.0), label="line")
        with pytest.raises(VanishingCurvatureError):
            frenet_apparatus(c, 0.5)

    def test_null_principal_normal(self):
        # tangent (t, t, 1) is unit spacelike; its derivative (1, 1, 0) is null
        c = Curve(
            lambda t: Vec3L(t * t / 2.0, t * t / 2.0, t),
            (0.0, 1.0),
            label="null-normal",
            derivs={
                1: lambda t: Vec3L(t, t, 1.0),
                2: lambda t: Vec3L(1.0, 1.0, 0.0),
                3: lambda t: Vec3L(0.0, 0.0, 0.0),
            },
        )
        with pytest.raises(NullPrincipalNormalError):
            frenet_apparatus(c, 0.5)

    def test_requires_unit_speed(self, example2):
        doubled = Curve(
            lambda t: example2.pos(2.0 * t), (0.0, 0.5), label="fast"
        )
        with pytest.raises(NotUnitSpeedError):
            frenet_apparatus(doubled, 0.25)

    def test_frame_equations_hold(self, example1, example2):
        # residuals of all three equations of the applicable system
        h = 1e-6
        for c in (example1, example2):
            for s in (0.2, 0.6):
                f = frenet_apparatus(c, s)
                fp = frenet_apparatus(c, s + h)
                fm = frenet_apparatus(c, s - h)
                c_n = f.kind.normal_coefficient
                c_b = f.kind.binormal_coefficient
                tp = (fp.T - fm.T) / (2 * h)
                np_ = (fp.N - fm.N) / (2 * h)
                bp = (fp.B - fm.B) / (2 * h)
                assert (tp - f.N * f.kappa).euclidean_norm() < 1e-6
                want_np = f.T * (c_n * f.kappa) + f.B * f.tau
                assert (np_ - want_np).euclidean_norm() < 1e-6
                assert (bp - f.N * (c_b * f.tau)).euclidean_norm() < 1e-6

    def test_gram_and_cross_invariants(self, example1, example2):
        for c in (example1, example2):
            for s in np.linspace(*c.domain, 17):
                f = frenet_apparatus(c, float(s))
                assert f.gram_residual() < 1e-9
                assert f.cross_residual() < 1e-9


class TestSynthesize:
    def test_reproduces_example2(self, example2):
        f0 = frenet_apparatus(example2, 0.0)
        c = frenet_synthesize(
            CurveKind.TIMELIKE,
            lambda s: 2.0,
            lambda s: SQRT3,
            f0,
            example2.pos(0.0),
            (0.0, 1.0),
            1e-3,
        )
        worst = max(
            (c.pos(float(s)) - example2.pos(float(s))).euclidean_norm()
            for s in np.linspace(0, 1, 41)
        )
        assert worst < 1e-6

    def test_reproduces_example1(self, example1):
        f0 = frenet_apparatus(example1, 0.0)
        c = frenet_synthesize(
            CurveKind.SPACELIKE_EPS_PLUS,
            lambda s: 0.5,
            lambda s: SQRT5 / 2,
            f0,
            example1.pos(0.0),
            (0.0, 1.0),
            1e-3,
        )
        worst = max(
            (c.pos(float(s)) - example1.pos(float(s))).euclidean_norm()
            for s in np.linspace(0, 1, 41)
        )
        assert worst < 1e-6

    def test_zero_curvature_rejected(self):
        T0, N0, B0 = FRAME0[CurveKind.TIMELIKE]
        f0 = FrenetFrame(T0, N0, B0, 0.0, 0.0, CurveKind.TIMELIKE)
        with pytest.raises(NonPositiveCurvatureError):
            frenet_synthesize(
                CurveKind.TIMELIKE,
                lambda s: 0.0,
                lambda s: 1.0,
                f0,
                Vec3L(0, 0, 0),
                (0.0, 1.0),
                1e-2,
            )

    def test_bad_initial_frame_rejected(self):
        f0 = FrenetFrame(
            Vec3L(1, 0.1, 0), Vec3L(0, 1, 0), Vec3L(0, 0, -1), 1.0, 1.0, CurveKind.TIMELIKE
        )
        with pytest.raises(InvalidInitialFrameError):
            frenet_synthesize(
                CurveKind.TIMELIKE,
                lambda s: 1.0,
                lambda s: 1.0,
                f0,
                Vec3L(0, 0, 0),
                (0.0, 1.0),
                1e-2,
            )

    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_round_trip_constant(self, kind):
        T0, N0, B0 = FRAME0[kind]
        kappa, tau = 1.3, 0.7
        f0 = FrenetFrame(T0, N0, B0, kappa, tau, kind)
        c = frenet_synthesize(kind, lambda s: kappa, lambda s: tau, f0, Vec3L(0, 0, 0), (0.0, 1.0), 1e-3)
        rng = np.random.default_rng(5)
        for s in rng.uniform(0.0, 1.0, 25):
            f = frenet_apparatus(c, float(s))
            assert f.kind is kind
            assert abs(f.kappa - kappa) < 1e-6
            assert abs(f.tau - tau) < 1e-6

    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_round_trip_varying(self, kind):
        T0, N0, B0 = FRAME0[kind]
        kf = lambda s: 1.0 + 0.1 * math.sin(s)
        tf = lambda s: 0.6 + 0.2 * math.cos(s)
        f0 = FrenetFrame(T0, N0, B0, kf(0.0), tf(0.0), kind)
        c = frenet_synthesize(kind, kf, tf, f0, Vec3L(0, 0, 0), (0.0, 1.0), 1e-3)
        rng = np.random.default_rng(6)
        for s in rng.uniform(0.0, 1.0, 25):
            f = frenet_apparatus(c, float(s))
            assert abs(f.kappa - kf(float(s))) < 1e-5
            assert abs(f.tau - tf(float(s))) < 1e-5

    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_gram_drift_bounded(self, kind):
        T0, N0, B0 = FRAME0[kind]
        f0 = FrenetFrame(T0, N0, B0, 2.0, 1.0, kind)
        c = frenet_synthesize(kind, lambda s: 2.0, lambda s: 1.0, f0, Vec3L(0, 0, 0), (0.0, 1.0), 1e-3)
        assert synthesized_gram_drift(c) < 1e-8

    def test_constant_scalars_from_extraction(self, example1):
        # helix-type inputs give constant extracted scalars along the curve
        for s in np.linspace(0.0, 1.0, 9):
            f = frenet_apparatus(example1, float(s))
            assert abs(f.kappa - 0.5) < 1e-9
            assert abs(f.tau - SQRT5 / 2) < 1e-9


class TestGridFiniteDifference:
    @pytest.mark.parametrize("pair_type", [2, 3, 5])
    def test_grid_form_equals_scalar_form_at_every_synthesis_node(
        self, exact_pair_of, pair_type
    ):
        pair = exact_pair_of(pair_type, -0.2)
        nodes = pair.c.synth_nodes["s"]
        a, b = pair.c.domain
        assert (nodes[0], nodes[-1]) == (a, b)
        h = max(1e-4, 0.1 * (nodes[1] - nodes[0]))  # the step synthesis uses
        shapes = {frenet._fd_offsets(float(t), 2, a, b, h) for t in nodes}
        assert len(shapes) == 3  # interior, forward and backward stencils
        for name in ("kappa_fn", "tau_fn"):
            f = pair.construction[name]
            values = frenet._looped(f)(nodes)
            grid = frenet._grid_jet(frenet._looped(f), nodes, a, b, h, f_ts=values)
            # every node's jet formed in plain floats, one stencil at a time
            point = []
            for t in nodes.tolist():
                at = [f(t + o * h) for o in frenet._fd_offsets(t, 2, a, b, h)]
                jet = [f(t)]
                for m in (1, 2):
                    weights = frenet._UNIT_WEIGHTS[frenet._fd_offsets(t, m, a, b, h), m]
                    jet.append(frenet._difference(weights, at, h**m))
                point.append(jet)
            point = np.array(point).T
            assert np.array_equal(values, point[0])
            for order in (1, 2):
                assert np.array_equal(grid[order - 1], point[order]), (name, order)
            # the synthesized curve answers its scalar jet with the same rule
            for i in (0, 1, len(nodes) // 2, -2, -1):
                jet = scalar_jet(pair.c, float(nodes[i]))[1 if name == "kappa_fn" else 2]
                assert jet == tuple(point[:, i].tolist())

    def test_jet_differences_equal_the_single_order_differences(self, exact_pair_type3):
        # the union stencil's first and second differences are the m=1 and
        # m=2 differences, and the cached unit-step weights need no recursion
        f = exact_pair_type3.construction["tau_fn"]
        a, b = exact_pair_type3.c.domain
        for t in (a, a + 1e-4, 0.5, b - 1e-4, b):
            f1, f2 = frenet._grid_jet(frenet._looped(f), np.array([t]), a, b, 1e-4)
            assert f1[0] == frenet._scalar_fd(f, t, 1, a, b, 1e-4)
            assert f2[0] == frenet._scalar_fd(f, t, 2, a, b, 1e-4)


class TestScalarJet:
    # (kappa, kappa', kappa'', tau, tau', tau''): largest gap between a curve's
    # own scalar jet and the frame-difference fallback.  The ends take
    # one-sided stencils: there the prescription's 7-node second difference
    # at step 1e-4 amplifies the rounding of tau about 2e10-fold (1.2e-6
    # measured on a linear tau, whose tau'' is 0).
    TOL = (1e-12, 1e-12, 1e-6, 1e-12, 1e-9, 1e-6)
    TOL_AT_ENDS = (1e-12, 1e-12, 1e-6, 1e-12, 1e-9, 2e-6)

    @pytest.mark.parametrize(
        "fixture",
        ["exact_pair_type2", "exact_pair_type3", "exact_pair_type5", "example1", "example2"],
    )
    def test_own_jet_agrees_with_frame_difference_fallback(self, request, fixture):
        c = request.getfixturevalue(fixture)
        c = getattr(c, "c", c)  # an exact pair's base is the synthesized curve
        assert c.scalars is not None
        fallback = copy.copy(c)
        fallback.scalars = None
        a, b = c.domain
        grid = np.linspace(a, b, 41)
        for s in grid:
            s = float(s)
            kind, kappa, tau = scalar_jet(c, s)
            kind_fd, kappa_fd, tau_fd = scalar_jet(fallback, s)
            assert kind is kind_fd
            assert scalar_jet(c, s, 0) == (kind, kappa[:1], tau[:1])
            gaps = np.abs(np.array(kappa + tau) - np.array(kappa_fd + tau_fd))
            tol = self.TOL_AT_ENDS if s in (a, b) else self.TOL
            assert (gaps <= tol).all(), (s, gaps)

    def test_builtin_jets_are_exact_constants(self, example1, example2):
        assert scalar_jet(example1, 0.3) == (
            CurveKind.SPACELIKE_EPS_PLUS, (0.5, 0.0, 0.0), (SQRT5 / 2, 0.0, 0.0)
        )
        assert scalar_jet(example2, 0.3) == (
            CurveKind.TIMELIKE, (2.0, 0.0, 0.0), (SQRT3, 0.0, 0.0)
        )

    def test_order_must_be_zero_or_two(self, example1):
        with pytest.raises(ValueError, match="order must be 0 or 2"):
            scalar_jet(example1, 0.3, 1)


class TestSynthesisBounds:
    def _synthesize(self, kappa, step, s_range=(0.0, 1.0)):
        kind = CurveKind.TIMELIKE
        f0 = FrenetFrame(*FRAME0[kind], kappa(s_range[0]), 0.5, kind)
        return frenet_synthesize(kind, kappa, lambda s: 0.5, f0, Vec3L(0, 0, 0), s_range, step)

    def test_step_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(frenet, "MAX_SYNTH_STEPS", 10)
        assert len(self._synthesize(lambda s: 1.0, 0.1).synth_nodes["s"]) == 11
        with pytest.raises(TooManyStepsError, match="more than 10 integration steps"):
            self._synthesize(lambda s: 1.0, 0.099)

    def test_cap_is_checked_before_any_allocation(self):
        # 1e300 steps could not be allocated, let alone integrated
        with pytest.raises(TooManyStepsError):
            self._synthesize(lambda s: 1.0, 1e-300)
        with pytest.raises(TooManyStepsError):
            self._synthesize(lambda s: 1.0, 1e-3, (-1e308, 1e308))

    def test_range_narrower_than_stencil_reach_is_rejected(self):
        # at step 1e-3 the difference step is 1e-4; a point within 2e-4 of an
        # end takes a one-sided stencil reaching 6e-4 further, so 8e-4 is the
        # narrowest range that holds every node
        calls = []

        def kappa(s):
            calls.append(s)
            return 1.0

        for width in (1e-300, 6e-4, 7.9e-4):
            with pytest.raises(ShortSynthesisRangeError, match="narrower than 0.0008"):
                self._synthesize(kappa, 1e-3, (0.0, width))
        assert calls == [0.0, 0.0, 0.0]  # only the initial frame's kappa(a)
        c = self._synthesize(kappa, 1e-3, (0.0, 8e-4))
        for s in np.linspace(0.0, 8e-4, 17):
            scalar_jet(c, float(s))
        assert 0.0 <= min(calls) and max(calls) <= 8e-4

    def test_overflow_names_the_first_non_finite_node(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SynthesisOverflowError, match=r"overflows at s=0\.033:"):
                self._synthesize(lambda s: math.exp(700.0 * s), 1e-3)


def _stagewise_states(kind, kappa, tau, frame0, p0, s_range, step):
    """Node states of classical RK4 taken stage by stage, as a reference."""
    a, b = s_range
    n = max(1, math.ceil((b - a) / step))
    h = (b - a) / n
    s_nodes = a + h * np.arange(n + 1)
    s_nodes[-1] = b
    c_n, c_b = kind.normal_coefficient, kind.binormal_coefficient

    def rhs(s, y):
        k, t = kappa(s), tau(s)
        T, N, B = y[3:6], y[6:9], y[9:12]
        return np.concatenate([T, k * N, c_n * k * T + t * B, c_b * t * N])

    y = np.array([*p0.as_tuple(), *frame0.T.as_tuple(), *frame0.N.as_tuple(), *frame0.B.as_tuple()])
    states = [y]
    for s in s_nodes[:-1].tolist():
        k1 = rhs(s, y)
        k2 = rhs(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return s_nodes, np.array(states)


class TestBatchedIncrements:
    """RK4 as Y + D Y per block of steps, against the stage-wise loop."""

    @staticmethod
    def kappa(s):
        return 1.0 + 0.1 * math.sin(s)

    @staticmethod
    def tau(s):
        return 0.6 + 0.2 * math.cos(s)

    @pytest.mark.parametrize("kind", list(CurveKind))
    @pytest.mark.parametrize(
        "s_range, step, n_steps",
        [((0.0, 0.01), 0.01, 1), ((0.0, 1.0), 1e-3, 1000), ((0.0, 2.0), 1e-3, 2000)],
    )
    def test_matches_stagewise_rk4_at_every_node(self, kind, s_range, step, n_steps):
        assert n_steps == 1 or n_steps % frenet._SYNTH_BLOCK
        f0 = FrenetFrame(*FRAME0[kind], self.kappa(0.0), self.tau(0.0), kind)
        p0 = Vec3L(0.1, -0.2, 0.3)
        c = frenet_synthesize(kind, self.kappa, self.tau, f0, p0, s_range, step)
        s_nodes, want = _stagewise_states(kind, self.kappa, self.tau, f0, p0, s_range, step)
        nodes = c.synth_nodes
        assert len(nodes["s"]) == n_steps + 1
        assert np.array_equal(nodes["s"], s_nodes)
        got = np.hstack([nodes["p"], nodes["T"], nodes["N"], nodes["B"]])
        assert np.abs(got - want).max() <= 1e-13

    def test_prescription_is_evaluated_once_per_distinct_abscissa(self):
        calls = []

        def kappa(s):
            calls.append(s)
            return self.kappa(s)

        kind = CurveKind.TIMELIKE
        f0 = FrenetFrame(*FRAME0[kind], 1.0, self.tau(0.0), kind)
        c = frenet_synthesize(kind, kappa, self.tau, f0, Vec3L(0, 0, 0), (0.0, 1.0), 1.3e-3)
        s_nodes = c.synth_nodes["s"].tolist()
        h = (s_nodes[-1] - s_nodes[0]) / (len(s_nodes) - 1)
        # node, then midpoint and end of each step; an end that does not
        # round to the next node is followed by that node
        stages = [s_nodes[0]]
        for s, s_next in zip(s_nodes, s_nodes[1:]):
            stages += [s + 0.5 * h, s + h] + ([] if s + h == s_next else [s_next])
        assert len(stages) > 2 * len(s_nodes) - 1  # some ends miss their node
        assert len(set(stages)) == len(stages)
        assert calls[: len(stages)] == stages
        # the node slopes' differences reuse every node value
        assert not set(calls[len(stages) :]) & set(s_nodes)

    def test_non_positive_curvature_names_the_first_midpoint(self):
        calls = []

        def kappa(s):
            calls.append(s)
            return 1.0 if s < 0.34 else -1.0

        kind = CurveKind.TIMELIKE
        f0 = FrenetFrame(*FRAME0[kind], 1.0, 0.5, kind)
        with pytest.raises(NonPositiveCurvatureError, match=r"kappa\(s=0\.35\) = -1 <= 0"):
            frenet_synthesize(kind, kappa, lambda s: 0.5, f0, Vec3L(0, 0, 0), (0.0, 1.0), 0.1)
        assert calls[-1] == pytest.approx(0.35) and max(calls[:-1]) == pytest.approx(0.3)

    def test_synthesis_makes_no_blas_product(self):
        # elementwise numpy only: BLAS kernels vary by CPU, so a product
        # through them could change the synthesized bits from host to host
        import inspect

        for fn in (frenet.frenet_synthesize, frenet._mul4, frenet._rate_matrices):
            source = inspect.getsource(fn)
            for token in ("@", "dot", "matmul", "einsum", "tensordot", "inner("):
                assert token not in source, (fn.__name__, token)
