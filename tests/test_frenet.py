import ast
import functools
import inspect
import math
import operator
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import central_difference, closed_form_curve, closed_form_helix
from mannheim_lab import curve as curve_module
from mannheim_lab import frenet
from mannheim_lab.builtins import builtin_curve
from mannheim_lab.cli import _ensure_unit, resolve_curve_spec
from mannheim_lab.curve import reparametrize_unit, sample
from mannheim_lab.errors import (
    MissingScalarJetError,
    NonPositiveCurvatureError,
    NotUnitSpeedError,
    NullPrincipalNormalError,
    PrescriptionError,
    SynthesisOverflowError,
    TooManyStepsError,
    VanishingCurvatureError,
)
from mannheim_lab.frenet import (
    INITIAL_FRAMES,
    CurveKind,
    constant_kind,
    frame_gram_residual,
    frenet_apparatus,
    frenet_frames,
    frenet_synthesize,
    kind_signs,
    scalar_jets,
    synthesized_gram_drift,
)
from mannheim_lab.expr import Jet2, parse_expr
from mannheim_lab.lorentz import cross_rows, euclidean_rows, vec_rows
from mannheim_lab.mannheim import MannheimPair, offset_along_binormal

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)


def inner(u, v):
    """The Minkowski inner product of two sequences, in plain floats."""
    return -u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def example1_frame(s):
    return (
        vec_rows(-0.5 * np.cosh(s), 0.5 * np.sinh(s), SQRT5 / 2),
        vec_rows(-np.sinh(s), np.cosh(s), 0.0),
        vec_rows(-SQRT5 / 2 * np.cosh(s), SQRT5 / 2 * np.sinh(s), 0.5),
    )


def example2_frame(s):
    return (
        vec_rows(2.0 * np.cosh(s), 2.0 * np.sinh(s), SQRT3),
        vec_rows(np.sinh(s), np.cosh(s), 0.0),
        vec_rows(-SQRT3 * np.cosh(s), -SQRT3 * np.sinh(s), -2.0),
    )


def kind_index(kind):
    """The index of ``kind`` into ``tuple(CurveKind)``, as grids hold it."""
    return list(CurveKind).index(kind)


def assert_reference_frames(c, frame, kind, kappa, tau):
    s = np.array([0.0, 0.5, 1.0])
    f = frenet_frames(c, s)
    assert f.kinds.tolist() == [kind_index(kind)] * 3
    for got, want in zip((f.T, f.N, f.B), frame(s)):
        assert euclidean_rows(got - want).max() < 1e-12
    assert f.kappa == pytest.approx([kappa] * 3, abs=1e-12)
    assert f.tau == pytest.approx([tau] * 3, abs=1e-12)


class TestApparatus:
    def test_example1(self, example1):
        assert_reference_frames(example1, example1_frame, CurveKind.SPACELIKE_EPS_PLUS, 0.5, SQRT5 / 2)

    def test_example2(self, example2):
        assert_reference_frames(example2, example2_frame, CurveKind.TIMELIKE, 2.0, SQRT3)

    def test_straight_line_has_no_frame(self):
        c = closed_form_curve((lambda t: (0.0, t, 0.0), lambda t: (0.0, 1.0, 0.0)), (0.0, 1.0), "line")
        with pytest.raises(VanishingCurvatureError):
            frenet_apparatus(c, 0.5)

    def test_null_principal_normal(self):
        # tangent (t, t, 1) is unit spacelike; its derivative (1, 1, 0) is null
        rows = (lambda t: (t * t / 2.0, t * t / 2.0, t), lambda t: (t, t, 1.0), lambda t: (1.0, 1.0, 0.0))
        c = closed_form_curve(rows, (0.0, 1.0), "null-normal")
        with pytest.raises(NullPrincipalNormalError):
            frenet_apparatus(c, 0.5)

    def test_requires_unit_speed(self, example2):
        # paper-example-2 at twice its speed: s -> (2 sinh 2s, 2 cosh 2s, 2 sqrt(3) s)
        rows = (
            lambda t: (2.0 * np.sinh(2.0 * t), 2.0 * np.cosh(2.0 * t), 2.0 * SQRT3 * t),
            lambda t: (4.0 * np.cosh(2.0 * t), 4.0 * np.sinh(2.0 * t), 2.0 * SQRT3),
            lambda t: (8.0 * np.sinh(2.0 * t), 8.0 * np.cosh(2.0 * t), 0.0),
            lambda t: (16.0 * np.cosh(2.0 * t), 16.0 * np.sinh(2.0 * t), 0.0),
        )
        doubled = closed_form_curve(rows, (0.0, 0.5), "fast")
        with pytest.raises(NotUnitSpeedError):
            frenet_apparatus(doubled, 0.25)

    def test_frame_equations_hold(self, example1, example2):
        # residuals of all three equations of the applicable system
        h = 1e-6
        s = np.array([0.2, 0.6])
        for c in (example1, example2):
            fm, f, fp = (frenet_frames(c, s + d) for d in (-h, 0.0, h))
            c_n, c_b = kind_signs(f.kinds)[3:, :, None]
            kappa, tau = f.kappa[:, None], f.tau[:, None]
            tp = (fp.T - fm.T) / (2 * h)
            np_ = (fp.N - fm.N) / (2 * h)
            bp = (fp.B - fm.B) / (2 * h)
            assert (euclidean_rows(tp - f.N * kappa) < 1e-6).all()
            assert (euclidean_rows(np_ - (f.T * (c_n * kappa) + f.B * tau)) < 1e-6).all()
            assert (euclidean_rows(bp - f.N * (c_b * tau)) < 1e-6).all()

    def test_gram_and_cross_invariants(self, example1, example2):
        for c in (example1, example2):
            f = frenet_frames(c, np.linspace(*c.domain, 17))
            assert frame_gram_residual(f.T, f.N, f.B, f.kinds).max() < 1e-9
            assert (euclidean_rows(f.B - cross_rows(f.T, f.N)) < 1e-9).all()


def _mapped_onto(c, reference, s):
    """Positions of the synthesized ``c`` at ``s`` under the Lorentz isometry
    that carries its start frame ``INITIAL_FRAMES[kind]`` at the origin to the
    frame and position of ``reference`` at s = 0."""
    start = np.array([u.as_tuple() for u in INITIAL_FRAMES[c.synth_kind]]).T
    f = frenet_frames(reference, [0.0])
    target = np.column_stack([f.T[0], f.N[0], f.B[0]])
    # start is a signed permutation, so its inverse is its transpose
    return reference.positions([0.0])[0] + c.positions(s) @ (target @ start.T).T


class TestSynthesize:
    def test_reproduces_example2(self, example2):
        c = frenet_synthesize(CurveKind.TIMELIKE, lambda s: 2.0, lambda s: SQRT3, (0.0, 1.0), 1e-3)
        ss = np.linspace(0, 1, 41)
        worst = euclidean_rows(_mapped_onto(c, example2, ss) - example2.positions(ss)).max()
        assert worst < 1e-6

    def test_reproduces_example1(self, example1):
        c = frenet_synthesize(
            CurveKind.SPACELIKE_EPS_PLUS, lambda s: 0.5, lambda s: SQRT5 / 2, (0.0, 1.0), 1e-3
        )
        ss = np.linspace(0, 1, 41)
        worst = euclidean_rows(_mapped_onto(c, example1, ss) - example1.positions(ss)).max()
        assert worst < 1e-6

    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_starts_at_the_initial_frame_at_the_origin(self, kind):
        T0, N0, B0 = (np.array([u.as_tuple()]) for u in INITIAL_FRAMES[kind])
        assert frame_gram_residual(T0, N0, B0, kind_index(kind)).tolist() == [0.0]
        assert (B0 == cross_rows(T0, N0)).all()
        nodes = frenet_synthesize(kind, lambda s: 1.3, lambda s: 0.7, (0.5, 1.0), 1e-3).synth_nodes
        assert nodes["s"][0] == 0.5
        assert nodes["p"][0].tolist() == [0.0, 0.0, 0.0]
        for key, u in zip("TNB", (T0, N0, B0)):
            assert nodes[key][0].tolist() == u[0].tolist()

    def test_zero_curvature_rejected(self):
        with pytest.raises(NonPositiveCurvatureError):
            frenet_synthesize(CurveKind.TIMELIKE, lambda s: 0.0, lambda s: 1.0, (0.0, 1.0), 1e-2)

    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_round_trip_constant(self, kind):
        kappa, tau = 1.3, 0.7
        c = frenet_synthesize(kind, lambda s: kappa, lambda s: tau, (0.0, 1.0), 1e-3)
        rng = np.random.default_rng(5)
        f = frenet_frames(c, rng.uniform(0.0, 1.0, 25))
        assert (f.kinds == kind_index(kind)).all()
        assert (np.abs(f.kappa - kappa) < 1e-6).all()
        assert (np.abs(f.tau - tau) < 1e-6).all()

    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_round_trip_varying(self, kind):
        kf = parse_expr("1.0 + 0.1 * sin(s)").eval
        tf = parse_expr("0.6 + 0.2 * cos(s)").eval
        c = frenet_synthesize(kind, kf, tf, (0.0, 1.0), 1e-3)
        rng = np.random.default_rng(6)
        s = rng.uniform(0.0, 1.0, 25)
        f = frenet_frames(c, s)
        assert (np.abs(f.kappa - [kf(x) for x in s.tolist()]) < 1e-5).all()
        assert (np.abs(f.tau - [tf(x) for x in s.tolist()]) < 1e-5).all()

    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_gram_drift_bounded(self, kind):
        c = frenet_synthesize(kind, lambda s: 2.0, lambda s: 1.0, (0.0, 1.0), 1e-3)
        drift = synthesized_gram_drift(c)
        assert drift < 1e-8
        # one Gram formula: each row is the worst of the six inner products
        # of that node's frame, the drift is the worst row, and a frame's
        # residual is its one-row case
        nodes = c.synth_nodes
        eps_t, eps_n, eps_b = kind.signs
        want = []
        for t, n, b in zip(*(nodes[k].tolist() for k in "TNB")):
            want.append(max(
                abs(inner(t, t) - eps_t), abs(inner(n, n) - eps_n), abs(inner(b, b) - eps_b),
                abs(inner(t, n)), abs(inner(t, b)), abs(inner(n, b)),
            ))
        rows = frame_gram_residual(nodes["T"], nodes["N"], nodes["B"], kind_index(kind))
        assert rows.tolist() == want
        assert drift == max(want)
        last = frame_gram_residual(*(nodes[k][-1:] for k in "TNB"), kind_index(kind))
        assert last.tolist() == want[-1:]

    def test_constant_scalars_from_extraction(self, example1):
        # helix-type inputs give constant extracted scalars along the curve
        f = frenet_frames(example1, np.linspace(0.0, 1.0, 9))
        assert (np.abs(f.kappa - 0.5) < 1e-9).all()
        assert (np.abs(f.tau - SQRT5 / 2) < 1e-9).all()


def test_row_kernels_do_not_loop_per_element():
    # no *_rows function of lorentz.py walks its rows in Python: no
    # comprehension and no .tolist()
    tree = ast.parse(Path(curve_module.__file__).with_name("lorentz.py").read_text())
    kernels = [
        f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.endswith("_rows")
    ]
    assert len(kernels) >= 6
    loops = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    looped = {
        f.name
        for f in kernels
        for node in ast.walk(f)
        if isinstance(node, loops) or getattr(node, "attr", None) == "tolist"
    }
    assert looped == set()


class TestScalarJet:
    # (kappa, kappa', kappa'', tau, tau', tau''): largest gap between a curve's
    # own scalar jet, exact, and its extracted frame scalars, kappa' chained
    # through the third derivative and kappa'', tau' and tau'' central
    # differences of them (steps 1e-4, 1e-4, 1e-3) at interior points.
    TOL = (1e-12, 1e-12, 1e-11, 1e-12, 1e-10, 1e-8)

    @pytest.mark.parametrize(
        "fixture",
        ["exact_pair_type2", "exact_pair_type3", "exact_pair_type5", "example1", "example2"],
    )
    def test_own_jet_agrees_with_difference_of_extracted_frames(self, request, fixture):
        c = request.getfixturevalue(fixture)
        c = getattr(c, "c", c)  # an exact pair's base is the synthesized curve
        assert c.scalars is not None
        a, b = c.domain
        grid = np.linspace(a, b, 41)[1:-1]
        kinds, kappa, tau = scalar_jets(c, grid)
        f = frenet_frames(c, grid)
        assert kinds.tolist() == f.kinds.tolist()
        extracted = (
            f.kappa,
            f.dkappa,
            central_difference(lambda x: frenet_frames(c, x).dkappa, grid, 1e-4),
            f.tau,
            central_difference(lambda x: frenet_frames(c, x).tau, grid, 1e-4),
            central_difference(lambda x: frenet_frames(c, x).tau, grid, 1e-3, 2),
        )
        kinds0, kappa0, tau0 = scalar_jets(c, grid, 0)
        assert kinds0.tolist() == kinds.tolist()
        assert [x.tolist() for x in kappa0 + tau0] == [x.tolist() for x in kappa[:1] + tau[:1]]
        gaps = np.abs(np.array(kappa + tau) - np.array(extracted)).max(axis=1)
        assert (gaps <= self.TOL).all(), gaps

    @pytest.mark.parametrize("domain", [(0.0, 1.0), (0.0, 0.005)])
    @pytest.mark.parametrize("name", ["paper-example-1", "paper-example-2"])
    def test_reparametrized_builtin_passes_its_jet_through(self, name, domain):
        builtin = builtin_curve(name, domain)
        unit = reparametrize_unit(builtin, 64)
        grid = np.linspace(*unit.domain, 11)
        kinds, kappa, tau = scalar_jets(unit, grid)
        own_kinds, (k, *_), (t, *_) = scalar_jets(builtin, grid[:1])
        assert kinds.tolist() == [own_kinds[0]] * 11
        zero = [0.0] * 11
        assert [x.tolist() for x in kappa + tau] == [[k[0]] * 11, zero, zero, [t[0]] * 11, zero, zero]
        # its binormal offset chains the jet through every order
        pair = MannheimPair.from_binormal_offset(unit, 20.0)
        assert pair.cstar is unit and np.isfinite(np.hstack(pair.c.jets(grid))).all()

    def test_curve_without_a_jet_refuses_order_two(self, tmp_path):
        path = tmp_path / "samples.csv"
        with open(path, "w", newline="") as fh:
            sample(builtin_curve("paper-example-2"), 41).to_csv(fh)
        unit = _ensure_unit(resolve_curve_spec(f"csv:{path}"))
        assert unit.scalars is None
        kinds, (kappa,), (tau,) = scalar_jets(unit, [0.5], 0)
        assert kinds.tolist() == [0] and abs(kappa[0] - 2.0) < 1e-3
        with pytest.raises(MissingScalarJetError, match=re.escape(repr(unit.label))):
            scalar_jets(unit, [0.5])
        # an offset over it has positions, but its tangents are the first column of its
        # jet, which needs the derivatives of the base's scalars
        off = offset_along_binormal(unit, 2.0)
        ts = np.linspace(*off.domain, 5)
        assert np.isfinite(off.positions(ts)).all()
        for derivatives in (off.tangents, off.jets):
            with pytest.raises(MissingScalarJetError, match=re.escape(repr(unit.label))):
                derivatives(ts)

    def test_builtin_jets_are_exact_constants(self, example1, example2):
        def jets(c):
            kinds, kappa, tau = scalar_jets(c, [0.3, 0.7])
            return [list(CurveKind)[k] for k in kinds], [x.tolist() for x in kappa + tau]

        def constant(*values):
            return [[v, v] for v in values]

        assert jets(example1) == (
            [CurveKind.SPACELIKE_EPS_PLUS] * 2, constant(0.5, 0.0, 0.0, SQRT5 / 2, 0.0, 0.0)
        )
        assert jets(example2) == ([CurveKind.TIMELIKE] * 2, constant(2.0, 0.0, 0.0, SQRT3, 0.0, 0.0))

    def test_order_must_be_zero_or_two(self, example1):
        with pytest.raises(ValueError, match="order must be 0 or 2"):
            scalar_jets(example1, [0.3], 1)


class TestSynthesisBounds:
    def _synthesize(self, kappa, step, s_range=(0.0, 1.0)):
        return frenet_synthesize(CurveKind.TIMELIKE, kappa, lambda s: 0.5, s_range, step)

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

    def test_range_whose_nodes_do_not_differ_is_rejected_before_any_work(self, monkeypatch):
        def prescribe(*args):
            raise AssertionError("a prescription was evaluated")

        monkeypatch.setattr(frenet, "_prescribe", prescribe)
        with pytest.raises(
            TooManyStepsError,
            match=r"step 0\.001 is too small for its range \[1000000000000000, 1000000000000000\.2\]",
        ):
            self._synthesize(lambda s: 1.0, 1e-3, (1e15, 1.0000000000000002e15))

    @pytest.mark.parametrize("width", [1e-307, 1e-320])
    def test_short_range_overflow_names_its_start(self, width):
        # the nodes are finite, but the interpolant's coefficients divide by
        # the width twice
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SynthesisOverflowError, match=r"overflows at s=0: its interpolant"):
                self._synthesize(lambda s: 1.0, 1e-3, (0.0, width))

    def test_short_range_synthesizes(self):
        # no stencil differentiates the prescription, so any range narrower
        # than a step is one step, and its jets stay inside the range
        calls = []

        def kappa(s):
            calls.append(s)
            return 1.0 + 0.0 * s

        for width in (1e-300, 6e-4, 7.9e-4, 8e-4):
            c = self._synthesize(kappa, 1e-3, (0.0, width))
            assert c.synth_nodes["s"].tolist() == [0.0, width]
            jet = scalar_jets(c, np.linspace(0.0, width, 17))[1]
            assert [x.tolist() for x in jet] == [[1.0] * 17, [0.0] * 17, [0.0] * 17]
        abscissae = np.concatenate([np.ravel(s.v) for s in calls if isinstance(s, Jet2)])
        assert 0.0 <= abscissae.min() and abscissae.max() <= 8e-4

    def test_overflow_names_the_first_non_finite_node(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SynthesisOverflowError, match=r"overflows at s=0\.033:"):
                self._synthesize(parse_expr("exp(700.0 * s)").eval, 1e-3)


def _stagewise_states(kind, kappa, tau, s_range, step):
    """Node states of classical RK4 taken stage by stage from the frame
    ``INITIAL_FRAMES[kind]`` at the origin, as a reference."""
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

    y = np.array([0.0, 0.0, 0.0, *(v for u in INITIAL_FRAMES[kind] for v in u.as_tuple())])
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

    kappa = staticmethod(parse_expr("1.0 + 0.1 * sin(s)").eval)
    tau = staticmethod(parse_expr("0.6 + 0.2 * cos(s)").eval)

    @pytest.mark.parametrize("kind", list(CurveKind))
    @pytest.mark.parametrize(
        "s_range, step, n_steps",
        [((0.0, 0.01), 0.01, 1), ((0.0, 1.0), 1e-3, 1000), ((0.0, 2.0), 1e-3, 2000)],
    )
    def test_matches_stagewise_rk4_at_every_node(self, kind, s_range, step, n_steps):
        assert n_steps == 1 or n_steps % frenet._SYNTH_BLOCK
        c = frenet_synthesize(kind, self.kappa, self.tau, s_range, step)
        s_nodes, want = _stagewise_states(kind, self.kappa, self.tau, s_range, step)
        nodes = c.synth_nodes
        assert len(nodes["s"]) == n_steps + 1
        assert np.array_equal(nodes["s"], s_nodes)
        got = np.hstack([nodes["p"], nodes["T"], nodes["N"], nodes["B"]])
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_gram_drift_is_a_few_ulps(self, kind):
        # each frame is a product tree of depth log2(steps), not a chain of
        # 1000 steps: a sequential loop drifts 7e-15 to 1e-14 here
        c = frenet_synthesize(kind, self.kappa, self.tau, (0.0, 1.0), 1e-3)
        assert synthesized_gram_drift(c) <= 4e-15

    def test_prescription_is_evaluated_once_per_distinct_abscissa(self):
        calls = []

        def kappa(s):
            calls.append(s)
            return self.kappa(s)

        c = frenet_synthesize(CurveKind.TIMELIKE, kappa, self.tau, (0.0, 1.0), 1.3e-3)
        s_nodes = c.synth_nodes["s"].tolist()
        h = (s_nodes[-1] - s_nodes[0]) / (len(s_nodes) - 1)
        # node, then midpoint and end of each step; an end that does not
        # round to the next node is followed by that node
        stages = [s_nodes[0]]
        for s, s_next in zip(s_nodes, s_nodes[1:]):
            stages += [s + 0.5 * h, s + h] + ([] if s + h == s_next else [s_next])
        assert len(stages) > 2 * len(s_nodes) - 1  # some ends miss their node
        assert len(set(stages)) == len(stages)
        # one call, on the jet of every stage in step order; the node slopes
        # read its derivatives, so no other abscissa is evaluated
        (jet,) = calls
        assert jet.v.tolist() == stages
        assert (jet.d == 1.0).all() and (jet.dd == 0.0).all()

    def test_non_positive_curvature_names_the_first_midpoint(self, monkeypatch):
        calls = []

        def kappa(s):
            calls.append(s)
            return Jet2(np.where(s.v < 0.34, 1.0, -1.0), 0.0 * s.d, 0.0 * s.dd)

        def integrate(*args):
            raise AssertionError("an RK4 step ran")

        monkeypatch.setattr(frenet, "_increments", integrate)
        with pytest.raises(NonPositiveCurvatureError, match=r"kappa\(s=0\.35\) = -1 <= 0"):
            frenet_synthesize(CurveKind.TIMELIKE, kappa, lambda s: 0.5, (0.0, 1.0), 0.1)
        # one call on every stage in step order, before any integration; the
        # second evaluates the stages before 0.35 again, where tau, evaluated
        # after kappa at each stage, could fail first
        whole, before = calls
        assert whole.v[-1] == 1.0
        assert before.v.tolist() == whole.v[: len(before.v)].tolist()
        assert before.v[-1] == pytest.approx(0.3)

    @pytest.mark.parametrize(
        "kappa_after, tau_after, message",
        [
            # tau, not finite from 0.25 on, fails before kappa turns negative at 0.35
            (-1.0, math.inf, r"tau\(s=0\.25\) = inf is not finite"),
            # at one abscissa, kappa's finiteness is checked before its sign
            (-math.inf, 0.5, r"kappa\(s=0\.35\) = -inf is not finite"),
        ],
    )
    def test_non_finite_prescription_names_the_first_failing_check(
        self, kappa_after, tau_after, message
    ):
        def kappa(s):
            return Jet2(np.where(s.v < 0.34, 1.0, kappa_after))

        def tau(s):
            return Jet2(np.where(s.v < 0.22, 0.5, tau_after))

        with pytest.raises(PrescriptionError, match=message):
            frenet_synthesize(CurveKind.TIMELIKE, kappa, tau, (0.0, 1.0), 0.1)

    def test_synthesis_makes_no_blas_product(self):
        # elementwise numpy only: BLAS kernels vary by CPU, so a product
        # through them could change the synthesized bits from host to host;
        # a reduction may sum in any order, and no step goes through Python
        kernels = (
            frenet.frenet_synthesize,
            frenet._increments,
            frenet._rates,
            frenet._times_rates,
            frenet._frame_chain,
            frenet._along,
            frenet._product,
            frenet._prefix_increments,
        )
        tokens = ("@", "dot", "matmul", "einsum", "tensordot", "inner(", ".sum(", "add.reduce",
                  "fromiter", "tolist")
        for fn in kernels:
            source = inspect.getsource(fn)
            for token in tokens:
                assert token not in source, (fn.__name__, token)

    def test_synthesis_walks_chunks_not_steps(self):
        # every loop of frenet_synthesize runs over a few values (the initial
        # frame's three vectors, the three stages of a chunk, the fields
        # checked for overflow) or over chunks of _SYNTH_BLOCK steps
        tree = ast.parse(inspect.getsource(frenet.frenet_synthesize))
        assert not any(isinstance(node, ast.While) for node in ast.walk(tree))
        loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.comprehension))]
        chunked = 0
        for loop in loops:
            it = loop.iter
            if isinstance(it, ast.Call):
                assert ast.unparse(it.func) == "range" and len(it.args) == 3, ast.unparse(it)
                assert ast.unparse(it.args[2]) == "_SYNTH_BLOCK", ast.unparse(it)
                chunked += 1
            else:
                assert isinstance(it, (ast.Name, ast.Tuple, ast.Subscript)), ast.unparse(it)
        assert chunked == 1

    def test_chunk_memory_is_flat_in_the_step_count(self, monkeypatch):
        # a chunk's work, from one call of _increments to the next, builds
        # _SYNTH_BLOCK steps of increments and scans them, so what it needs
        # beyond the memory it starts with is the same at 5000 steps as at
        # 20000, and stays under 1 kB per step of the chunk
        increments = frenet._increments

        def chunk_peaks(n_steps):
            marks = []

            def traced(*args):
                marks.append(tracemalloc.get_traced_memory())
                tracemalloc.reset_peak()
                return increments(*args)

            monkeypatch.setattr(frenet, "_increments", traced)
            frenet_synthesize(CurveKind.TIMELIKE, self.kappa, self.tau, (0.0, n_steps * 1e-3), 1e-3)
            # every chunk but the last, its peak read as the next one starts
            return [peak - start for (start, _), (_, peak) in zip(marks, marks[1:])]

        tracemalloc.start()
        try:
            short, long = chunk_peaks(5000), chunk_peaks(20000)
        finally:
            tracemalloc.stop()
        block = frenet._SYNTH_BLOCK
        assert len(short) == math.ceil(5000 / block) - 1 and len(long) == math.ceil(20000 / block) - 1
        assert short, "5000 steps make one chunk"
        assert max(long) <= 1.01 * short[0] and short[0] <= 1024 * block


def _dense_states(kind, kappa, tau, s_range, step):
    """Node states of RK4 as Y + D Y from the frame ``INITIAL_FRAMES[kind]``
    at the origin, D from dense 4x4 products summed in index order, in
    Python floats: the bit-level reference of the synthesis kernel.

    The frame rows of D are composed by the kernel's scan, in chunks of
    ``_SYNTH_BLOCK`` steps: at level d = 1, 2, 4, ... each E_k with k >= d
    becomes (E_k + E_{k-d}) + E_k E_{k-d}, dense 3x3 products summed in
    index order; node i0 + k + 1 of a chunk that starts at frame F is
    F + E_k F, and the chunk's last node starts the next.  Positions add
    D01 T + D02 N + D03 B at each step's start, in step order.
    """
    a, b = s_range
    n = max(1, math.ceil((b - a) / step))
    h = (b - a) / n
    s_nodes = a + h * np.arange(n + 1)
    s_nodes[-1] = b
    c_n, c_b = float(kind.normal_coefficient), float(kind.binormal_coefficient)

    def rate(s):
        k, t = float(kappa(s)), float(tau(s))
        return [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, k, 0.0], [0.0, c_n * k, 0.0, t], [0.0, 0.0, c_b * t, 0.0]]

    def mul(x, y):
        return [[functools.reduce(operator.add, (x[i][m] * y[m][j] for m in range(len(y))))
                 for j in range(len(y[0]))] for i in range(len(x))]

    def eye_plus(c, x):
        return [[float(i == j) + c * x[i][j] for j in range(4)] for i in range(4)]

    def compose(later, earlier):
        product = mul(later, earlier)
        return [[(later[i][j] + earlier[i][j]) + product[i][j] for j in range(3)] for i in range(3)]

    increments = []
    for s in s_nodes[:-1].tolist():
        A0, Am, A1 = rate(s), rate(s + 0.5 * h), rate(s + h)
        K2 = mul(Am, eye_plus(0.5 * h, A0))
        K3 = mul(Am, eye_plus(0.5 * h, K2))
        K4 = mul(A1, eye_plus(h, K3))
        increments.append(
            [[(h / 6.0) * (A0[i][j] + 2.0 * K2[i][j] + 2.0 * K3[i][j] + K4[i][j]) for j in range(4)]
             for i in range(4)]
        )

    frames = [[list(u.as_tuple()) for u in INITIAL_FRAMES[kind]]]
    for i0 in range(0, n, frenet._SYNTH_BLOCK):
        E = [[row[1:] for row in D[1:]] for D in increments[i0 : i0 + frenet._SYNTH_BLOCK]]
        d = 1
        while d < len(E):
            E = E[:d] + [compose(later, earlier) for later, earlier in zip(E[d:], E)]
            d *= 2
        F = frames[-1]
        for Ek in E:
            EF = mul(Ek, F)
            frames.append([[F[i][j] + EF[i][j] for j in range(3)] for i in range(3)])

    p = [0.0, 0.0, 0.0]
    states = []
    for k, (T, N, B) in enumerate(frames):
        states.append([*p, *T, *N, *B])
        if k < n:
            D = increments[k][0]
            p = [p[j] + (D[1] * T[j] + D[2] * N[j] + D[3] * B[j]) for j in range(3)]
    return s_nodes, np.array(states)


@pytest.mark.parametrize(
    "kind, tau, s_range",
    [
        # 600 steps; tau = 0 puts zeros in A
        *(
            pytest.param(kind, tau, (0.0, 0.6), id=f"{tau}-{kind}")
            for tau in ("0.6 + 0.2 * cos(s)", "0")
            for kind in CurveKind
        ),
        # 5000 steps: the second chunk starts from the first one's last frame
        pytest.param(CurveKind.SPACELIKE_EPS_MINUS, "0.6 + 0.2 * cos(s)", (0.0, 5.0), id="5000 steps"),
    ],
)
def test_synthesis_has_the_bits_of_dense_products(kind, tau, s_range):
    kappa, tau = parse_expr("1.0 + 0.1 * sin(s)").eval, parse_expr(tau).eval
    c = frenet_synthesize(kind, kappa, tau, s_range, 1e-3)
    s_nodes, want = _dense_states(kind, kappa, tau, s_range, 1e-3)
    got = np.hstack([c.synth_nodes[k] for k in "pTNB"])
    assert c.synth_nodes["s"].tobytes() == s_nodes.tobytes()
    assert got.tobytes() == want.tobytes()


def test_constant_kind_reads_scalar_jets(monkeypatch):
    calls = []
    extract = frenet.frenet_frames

    def counted(c, s):
        calls.append(c.label)
        return extract(c, s)

    monkeypatch.setattr(frenet, "frenet_frames", counted)
    synth = frenet_synthesize(CurveKind.SPACELIKE_EPS_MINUS, lambda s: 1.0 + 0.1 * s, lambda s: 0.5, (0.0, 1.0))
    for c, kind in (
        (builtin_curve("paper-example-1"), CurveKind.SPACELIKE_EPS_PLUS),
        (builtin_curve("paper-example-2"), CurveKind.TIMELIKE),
        (synth, CurveKind.SPACELIKE_EPS_MINUS),
    ):
        assert constant_kind(c, 9) is kind
        assert constant_kind(reparametrize_unit(c, 64), 9) is kind
    # built-in and synthesized curves and their reparametrizations answer
    # from their scalar jets
    assert calls == []
    # a curve without one extracts its frames, once
    helix = closed_form_helix()
    assert constant_kind(helix, 9) is CurveKind.SPACELIKE_EPS_PLUS
    assert calls == [helix.label]
