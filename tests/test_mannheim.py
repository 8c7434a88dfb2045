import collections
import dataclasses
import gc
import json
import math
import re
import weakref
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from _oracle_constants import ORACLE
from conftest import REPORT_SCHEMA, central_difference, closed_form_curve
from mannheim_lab import frenet, mannheim
from mannheim_lab import indicatrix as indicatrix_module
from mannheim_lab import offset as offset_module
from mannheim_lab.builtins import builtin_curve
from mannheim_lab.cli import _run_pair_suite, resolve_curve_spec
from mannheim_lab.curve import reparametrize_unit
from mannheim_lab.errors import (
    DegenerateIndicatrixError,
    ExprDomainError,
    InconsistentDecompositionError,
    MixedCausalCharacterError,
    NegativeConditionValueError,
    PrescriptionError,
    UnsupportedCombinationError,
    VanishingCurvatureError,
    VanishingTorsionError,
    ZeroLambdaError,
)
from mannheim_lab.expr import Jet2, parse_expr, sqrt
from mannheim_lab.frenet import (
    CurveKind,
    FrameGrid,
    frenet_apparatus,
    frenet_synthesize,
)
from mannheim_lab.lorentz import Vec3L, euclidean_rows, inner_rows, norm_rows
from mannheim_lab.mannheim import (
    HYPOTHESIS_TOL,
    IDENTITIES,
    MannheimPair,
    MannheimPairType,
    PairSamples,
    exact_partner_kappa,
    exact_partner_pair,
    mannheim_curve_test,
    offset_along_binormal,
    offset_along_normal,
)
from mannheim_lab.reports import Verdict

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)

ROWS = {row.name: row for row in IDENTITIES}
# The six exact partner pairs: (pair type, slope of the torsion 0.8 + slope s).
EXACT_CONFIGS = [(t, slope) for t in (2, 3, 5) for slope in (0.2, -0.2)]


def _combine(a, u, b, v):
    """The row a u + b v of two one-row arrays."""
    return a * u[0] + b * v[0]


def _decompose(T, fstar, pair_type):
    """(theta, s_comp, c_comp) of a tangent row against the one-row frame
    grid ``fstar``: the one-row decomposition, with the angle taken as
    ``PairSamples.theta`` takes it."""
    spec = pair_type.spec
    rows = mannheim._decomposition(spec, np.reshape(T, (1, 3)), fstar, lambda i: "")
    s_comp, c_comp = (float(x[0]) for x in rows)
    return (math.atan2(s_comp, c_comp) if spec.circular else math.asinh(s_comp)), s_comp, c_comp


def helix(kind, kappa, tau, domain=(0.0, 1.0), step=1e-3):
    return frenet_synthesize(kind, lambda s: kappa, lambda s: tau, domain, step)


class TestOffsets:
    def test_example1_printed_form(self, example1):
        off = offset_along_binormal(example1, 20.0)
        s = np.linspace(0.0, 1.0, 11)
        want = np.column_stack((
            -0.5 * np.sinh(s) - 10 * SQRT5 * np.cosh(s),
            0.5 * np.cosh(s) + 10 * SQRT5 * np.sinh(s),
            SQRT5 / 2 * s + 10.0,
        ))
        assert (euclidean_rows(off.positions(s) - want) < 1e-12).all()

    def test_example2_printed_form(self, example2):
        off = offset_along_binormal(example2, 20.0)
        s = np.linspace(0.0, 1.0, 11)
        want = np.column_stack((
            2.0 * np.sinh(s) - 20 * SQRT3 * np.cosh(s),
            2.0 * np.cosh(s) - 20 * SQRT3 * np.sinh(s),
            SQRT3 * s - 40.0,
        ))
        assert (euclidean_rows(off.positions(s) - want) < 1e-12).all()

    def test_zero_lambda(self, example1):
        with pytest.raises(ZeroLambdaError):
            offset_along_binormal(example1, 0.0)
        with pytest.raises(ZeroLambdaError):
            offset_along_normal(example1, 0.0)
        self._refused_by_the_pair(example1, 0.0)

    @staticmethod
    def _refused_by_the_pair(example1, lam):
        # before any work: the domains, which do not match, are not compared
        other = builtin_curve("paper-example-2", (0.0, 0.5))
        with pytest.raises(ZeroLambdaError, match="finite and nonzero"):
            MannheimPair.from_shared_parameter(offset_along_binormal(example1, 1.0), other, lam)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda(self, example1, lam):
        # rejected by the offset itself, not as a non-finite speed of its arc-length table
        for make in (offset_along_binormal, offset_along_normal):
            with pytest.raises(ZeroLambdaError, match="finite and nonzero"):
                make(example1, lam)
        with pytest.raises(ZeroLambdaError):
            MannheimPair.from_binormal_offset(builtin_curve("paper-example-1"), lam)
        self._refused_by_the_pair(example1, lam)

    def test_normal_offset_distance(self, example2):
        off = offset_along_normal(example2, 1.0)
        s = [0.0, 0.4, 1.0]
        assert norm_rows(off.positions(s) - example2.positions(s)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("make", [offset_along_binormal, offset_along_normal])
    def test_offset_derivatives_consistent(self, make):
        # the frame chain's d1, d2, d3 agree with central differences of
        # positions, d1 and d2 over an exact pair's synthesized C, whose
        # kappa and tau vary with nonzero second derivatives, so every term
        # counts: dropping one moves a field by far more than the 1e-7 of
        # its size allowed, and the differences stay within 3e-8 of it
        tau = parse_expr("0.8 + 0.1 * sin(3 * s)").eval
        off = make(exact_partner_pair(CurveKind.SPACELIKE_EPS_MINUS, tau, 0.3).c, 5.0)
        h = 1e-4
        s = np.array([0.2, 0.5, 0.7])
        ahead, behind = off.jets(s + h), off.jets(s - h)
        fields = (off.positions(s + h) - off.positions(s - h), ahead[0] - behind[0], ahead[1] - behind[1])
        for jet, difference in zip(off.jets(s), fields):
            assert (euclidean_rows(jet - difference / (2 * h)) <= 1e-7 * euclidean_rows(jet)).all()

    def test_frame_of_offset_evaluates_each_prescription_once(self, exact_pair_type3, monkeypatch):
        # the companion is the unit-speed normal offset; its frame reads one
        # jet, which reads one base scalar jet, so each prescribed function
        # is called once, on a one-row Jet2 that gives f, f' and f''
        calls = []
        jet_of = frenet._jet_of

        def counted(fn, x, role):
            calls.append((role, len(x.v)))
            return jet_of(fn, x, role)

        monkeypatch.setattr(frenet, "_jet_of", counted)
        cstar = exact_pair_type3.cstar
        frenet_apparatus(cstar, 0.6180339 * cstar.domain[1])
        assert calls == [("kappa", 1), ("tau", 1)]

    def test_normal_offset_inversion_residual(self, example2_pair):
        # projecting (alpha - alpha*) back onto the normal line measures how
        # far the reference pair is from the defining collinearity
        want = ORACLE["paper-example-2"]
        pair = example2_pair
        samples = PairSamples(pair, [0.0])
        f, _ = samples.frames
        diff = pair.c.positions([0.0]) - pair.cstar_raw.positions(samples.t)
        lam_fit = float(inner_rows(diff, f.N)[0] / inner_rows(f.N, f.N)[0])
        residual = float(norm_rows(diff - f.N * lam_fit)[0])
        assert lam_fit == pytest.approx(want["normal_recovery_lambda"], abs=1e-8)
        assert residual == pytest.approx(want["normal_recovery_residual"], abs=1e-8)


class TestClosedFormSpeed:
    """Offsets take their speed from the base scalars alone."""

    @staticmethod
    def _worst_gap(base, lams):
        worst = 0.0
        for lam in lams:
            for make in (offset_along_normal, offset_along_binormal):
                off = make(base, lam)
                t = np.linspace(*off.domain, 21)
                worst = max(worst, np.abs(off.speeds(t) - norm_rows(off.tangents(t))).max())
        return worst

    @pytest.mark.parametrize("pair_type,slope", [(2, 0.2), (3, -0.2), (5, 0.2)])
    def test_equals_tangent_norm_on_exact_bases(self, exact_pair_of, pair_type, slope):
        pair = exact_pair_of(pair_type, slope)
        assert self._worst_gap(pair.c, (pair.lam, -pair.lam)) <= 1e-12

    def test_equals_tangent_norm_on_builtins(self, example1, example2):
        for base in (example1, example2):
            assert self._worst_gap(base, (20.0, -7.5, 0.5)) <= 1e-12


class TestClassification:
    def test_examples(self, example1_pair, example2_pair):
        assert example1_pair.pair_type is MannheimPairType.TYPE3
        assert example2_pair.pair_type is MannheimPairType.TYPE1

    def test_unsupported_combination(self, example1):
        # two spacelike curves with timelike binormal are outside the table
        with pytest.raises(UnsupportedCombinationError):
            MannheimPair.from_shared_parameter(example1, example1, 1.0)

    def test_reparametrization_invariance(self, example2, example2_pair):
        again = reparametrize_unit(example2, 256)
        assert MannheimPair.from_binormal_offset(again, 20.0).pair_type is example2_pair.pair_type

    def test_a_pair_of_two_curves_is_typed_from_one_frame_pass_of_each(self, monkeypatch):
        # the pair ``pair-verify --c SPEC --cstar SPEC`` builds, neither curve an offset of the
        # other: its type comes from the frames of the audit on 9 points, not from scalar jets
        frames, jets = [], []
        extract, scalar_jets = frenet.frenet_frames, frenet.scalar_jets

        def counted_frames(c, s):
            frames.append((c, len(s)))
            return extract(c, s)

        def counted_jets(c, s, order=2):
            jets.append(order)
            return scalar_jets(c, s, order)

        def no_constant_kind(c, grid_size):
            raise AssertionError("a pair reads its kinds from its frames")

        for module in (frenet, mannheim):
            monkeypatch.setattr(module, "frenet_frames", counted_frames)
            monkeypatch.setattr(module, "scalar_jets", counted_jets)
        monkeypatch.setattr(frenet, "constant_kind", no_constant_kind)
        spec = "synth:kind=timelike,kappa=2 + 0.3*s,tau=0.9"
        c, cstar = resolve_curve_spec(spec), resolve_curve_spec(spec)
        pair = MannheimPair.from_shared_parameter(c, cstar, 1.0)
        assert pair.pair_type is MannheimPairType.TYPE2
        assert frames == [(c, 9), (cstar, 9)]
        assert 0 not in jets

    def test_a_varying_frame_kind_names_the_companion_ahead_of_the_curve(self, example2):
        c, cstar = _kinked("kinked C"), _kinked("kinked C*")
        with pytest.raises(MixedCausalCharacterError, match=re.escape("frame kind of 'kinked C*' varies")):
            MannheimPair.from_shared_parameter(c, cstar, 1.0)
        with pytest.raises(MixedCausalCharacterError, match=re.escape("frame kind of 'kinked C' varies")):
            MannheimPair.from_shared_parameter(c, example2, 1.0)


def _kinked(label):
    """A unit-speed spacelike curve whose normal is spacelike before t = 1/2, a circle, and
    timelike from there, a hyperbola: every frame extracts, but its kind varies."""

    def rows(k):
        def row(t):
            cos, sin, cosh, sinh = np.cos(t), np.sin(t), np.cosh(t), np.sinh(t)
            circle = ((0.0, cos, sin), (0.0, -sin, cos), (0.0, -cos, -sin), (0.0, sin, -cos))[k]
            hyperbola = ((cosh, sinh, 0.0), (sinh, cosh, 0.0))[k % 2]
            return tuple(np.where(t < 0.5, a, b) for a, b in zip(circle, hyperbola))

        return row

    return closed_form_curve([rows(k) for k in range(4)], (0.0, 1.0), label, unit_speed=True)


class TestResidual:
    def test_exact_pair_is_collinear(self, exact_pair_type3):
        worst = max(exact_pair_type3.samples(21).collinearity)
        assert worst < 1e-9

    @pytest.mark.parametrize("pair_type,slope", EXACT_CONFIGS)
    def test_exact_collinearity_does_not_grow_with_the_grid(self, exact_pair_of, pair_type, slope):
        # C* is evaluated at the raw parameter of each grid point of C, the
        # partner point itself, so the collinearity stays at rounding level
        # however many points the grid holds
        pair = exact_pair_of(pair_type, slope)
        verdicts = []
        for grid_n in (201, 801, 5001):
            samples = pair.samples(grid_n)
            assert samples.hypothesis[1] <= 1e-14, grid_n
            verdicts.append([row.report(samples).verdict for row in IDENTITIES])
        assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]

    def test_oracle_values(self, example1_pair, example2_pair):
        for pair, name in ((example1_pair, "paper-example-1"), (example2_pair, "paper-example-2")):
            want = ORACLE[name]["rho"]
            for s in (0.0, 0.5 * pair.c.domain[1], pair.c.domain[1]):
                assert PairSamples(pair, [s]).collinearity[0] == pytest.approx(want, abs=1e-8)


class TestPartnerEquation:
    """kappa = lam (c_n kappa^2 + c_b tau^2), (c_n, c_b) the frame
    coefficients of the curve's kind: solved for kappa by
    ``exact_partner_kappa`` and for lam by ``mannheim_curve_test``."""

    @pytest.mark.parametrize("pair_type,slope", EXACT_CONFIGS)
    def test_recovers_lambda_on_exact_bases(self, exact_pair_of, pair_type, slope):
        pair = exact_pair_of(pair_type, slope)
        out = mannheim_curve_test(pair.c, pair.pair_type, 101)
        assert out.constant
        assert len(out.profile) == 101
        assert abs(out.lambda_estimate - pair.lam) <= 1e-12

    @pytest.mark.parametrize("kind", list(CurveKind))
    def test_root_solves_the_equation_of_its_kind(self, kind):
        c_n, c_b = kind.normal_coefficient, kind.binormal_coefficient
        lam = 0.3 * kind.signs[0]  # the sign of <T,T>: the admissible one
        s = np.linspace(0.0, 1.0, 11)
        tau = parse_expr("0.8 + 0.2*s + 0.1*sin(3*s)").eval(Jet2(s, np.ones(11), np.zeros(11)))
        kappa = exact_partner_kappa(kind, lam, tau)
        rhs = lam * (c_n * kappa * kappa + c_b * tau * tau)
        assert (kappa.v > 0.0).all()
        for got, want in zip((kappa.v, kappa.d, kappa.dd), (rhs.v, rhs.d, rhs.dd)):
            assert np.abs(got - want).max() <= 1e-14
        for i, t in enumerate(tau.v.tolist()):
            k = exact_partner_kappa(kind, lam, t)
            assert k == kappa.v[i]
            assert abs(k - lam * (c_n * k * k + c_b * t * t)) <= 1e-15

    @pytest.mark.parametrize("pair_type", [MannheimPairType.TYPE1, MannheimPairType.TYPE4])
    def test_rows_whose_lines_never_coincide_are_unsupported(self, pair_type):
        # the timelike normal (binormal) of C never lies on the spacelike
        # binormal (normal) of C*
        spec = pair_type.spec
        assert spec.curve.signs[1] != spec.companion.signs[2]
        with pytest.raises(UnsupportedCombinationError, match="of unlike character"):
            mannheim_curve_test(helix(spec.curve, 2.0, 1.0), pair_type, 11)

    def test_curve_of_another_kind_is_unsupported(self, exact_pair_type3):
        with pytest.raises(UnsupportedCombinationError, match="spacelike- at s=0, not timelike$"):
            mannheim_curve_test(exact_pair_type3.c, MannheimPairType.TYPE2, 11)

    def test_timelike_base_with_positive_lambda_has_no_root(self):
        # the root is negative; the other one is no catalogued pair
        with pytest.raises(ValueError, match="no positive curvature for a timelike curve"):
            exact_partner_kappa(CurveKind.TIMELIKE, 0.3, 0.9)
        with pytest.raises(ValueError, match="no positive curvature for a spacelike\\+ curve"):
            exact_partner_kappa(CurveKind.SPACELIKE_EPS_PLUS, -0.3, 0.9)

    def test_non_positive_discriminant_is_rejected(self):
        # 1 - 4 lam^2 tau^2 on a spacelike curve with timelike normal: zero, then negative
        tau = Jet2(np.array([0.9, 1.0, 2.0]), np.ones(3), np.zeros(3))
        for t in (1.0, 2.0, tau):
            with pytest.raises(ValueError, match="need 1 - 4 c_n c_b lam\\^2 tau\\^2 > 0"):
                exact_partner_kappa(CurveKind.SPACELIKE_EPS_MINUS, 0.5, t)
        for lam in (0.0, math.nan, math.inf):  # the offsets' guard: a non-finite lam gave NaN
            with pytest.raises(ZeroLambdaError):
                exact_partner_kappa(CurveKind.SPACELIKE_EPS_PLUS, lam, 0.9)

    def test_vanishing_torsion(self):
        with pytest.raises(VanishingTorsionError):
            mannheim_curve_test(helix(CurveKind.TIMELIKE, 1.0, 0.0), MannheimPairType.TYPE2, 11)

    def test_vanishing_condition(self, monkeypatch):
        # kappa = tau on a timelike curve: kappa^2 - tau^2 = 0, and no lam solves the equation
        rows = np.ones(3)
        grid = FrameGrid(*[np.zeros((3, 3))] * 3, rows, rows, np.zeros(3, dtype=int), np.zeros(3))
        monkeypatch.setattr(mannheim, "frenet_frames", lambda c, s: grid)
        with pytest.raises(NegativeConditionValueError, match="no finite lam at s=0$"):
            mannheim_curve_test(helix(CurveKind.TIMELIKE, 1.0, 2.0), MannheimPairType.TYPE2, 3)

    def test_helix_meets_the_equation_with_a_straight_companion(self, example1):
        # kappa = 1/2, tau = sqrt(5)/2 on a spacelike curve with spacelike
        # normal: lam = (1/2) / (-1/4 + 5/4), and C*'' = 0 on the offset at lam
        out = mannheim_curve_test(example1, MannheimPairType.TYPE5, 11)
        assert out.constant
        assert out.lambda_estimate == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(VanishingCurvatureError):
            MannheimPair.from_normal_offset(example1, out.lambda_estimate)

    def test_offset_of_another_character_is_unsupported(self, example2):
        # lambda(s) is constant, but the normal offset by it is spacelike,
        # where a type-2 companion is timelike: its tangent (1 - lam kappa) T
        # - lam tau B has <,> = -(1 - lam kappa)^2 + lam^2 tau^2 > 0.  First
        # the other root on a timelike base, kappa = (1 + sqrt(1 + 4 lam^2
        # tau^2)) / (2 lam), whose offset forms no catalogued pair.
        lam, kind = 0.3, CurveKind.TIMELIKE

        def tau(s):
            return 0.8 + 0.2 * s

        def kappa(s):
            return (1.0 + sqrt(1.0 + 4.0 * lam * lam * tau(s) * tau(s))) / (2.0 * lam)

        base = frenet_synthesize(kind, kappa, tau, (0.0, 1.0), 1e-3)
        with pytest.raises(UnsupportedCombinationError, match="lam=0.3 is spacelike at s=0, not timelike$"):
            mannheim_curve_test(base, MannheimPairType.TYPE2)
        with pytest.raises(UnsupportedCombinationError, match="companion=spacelike-, curve=timelike"):
            MannheimPair.from_normal_offset(base, lam, 512)
        # kappa = 2, tau = sqrt(3): lam = 2 / (4 - 3), and -9 + 12 > 0
        with pytest.raises(UnsupportedCombinationError, match="lam=2 is spacelike at s=0, not timelike$"):
            mannheim_curve_test(example2, MannheimPairType.TYPE2, 11)


class TestTheta:
    def test_oracle_values(self, example1_pair, example2_pair):
        for pair, name in ((example1_pair, "paper-example-1"), (example2_pair, "paper-example-2")):
            want = ORACLE[name]
            for s in (0.0, 0.5 * pair.c.domain[1], pair.c.domain[1]):
                view = PairSamples(pair, [s])
                assert view.theta[0] == pytest.approx(want["theta"], abs=1e-8)
                s_comp, c_comp = view.components[:, 0]
                assert s_comp == pytest.approx(want["s_comp"], abs=1e-8)
                assert c_comp == pytest.approx(want["c_comp"], abs=1e-8)

    def test_tangent_equal_normal_gives_zero(self, example2):
        # T = N* makes the sine-like component vanish exactly
        fstar = frenet_apparatus(example2, 0.3)
        angle, _, c_comp = _decompose(fstar.N[0], fstar, MannheimPairType.TYPE1)
        assert angle == 0.0
        assert c_comp == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta0", [-1.2, -0.3, 0.0, 0.4, 1.7])
    def test_construct_then_recover_type1(self, example2, theta0):
        rng = np.random.default_rng(99)
        for s in rng.uniform(0.0, 1.0, 5):
            fstar = frenet_apparatus(example2, float(s))
            T = _combine(math.sinh(theta0), fstar.T, math.cosh(theta0), fstar.N)
            angle, _, c_comp = _decompose(T, fstar, MannheimPairType.TYPE1)
            assert angle == pytest.approx(theta0, abs=1e-10)
            assert c_comp >= 0.0  # the positive branch

    @pytest.mark.parametrize("theta0", [-1.0, 0.2, 2.5])
    def test_construct_then_recover_type3(self, example1, theta0):
        fstar = frenet_apparatus(example1, 0.45)
        T = _combine(math.cos(theta0), fstar.T, math.sin(theta0), fstar.N)
        assert MannheimPairType.TYPE3.spec.circular
        assert _decompose(T, fstar, MannheimPairType.TYPE3)[0] == pytest.approx(theta0, abs=1e-10)

    def test_reconstruction_identity(self, example2_pair):
        # the published components reproduce the tangent exactly
        view = PairSamples(example2_pair, [0.0, 10.0, 30.0])
        f, fstar = view.frames
        s_comp, c_comp = view.components
        # type 1 decomposition: T = s * T* + c * N*
        recon = fstar.T * s_comp[:, None] + fstar.N * c_comp[:, None]
        assert np.abs(f.T - recon).max() < 1e-8

    def test_off_plane_tangent_rejected(self, example2):
        fstar = frenet_apparatus(example2, 0.0)
        T = _combine(1.2, fstar.T, 0.8, fstar.B)
        message = r"^tangent leaves the \(T\*, N\*\) plane \(defect "
        with pytest.raises(InconsistentDecompositionError, match=message):
            _decompose(T, fstar, MannheimPairType.TYPE1)

    def test_type4_never_decomposes(self, exact_pair_type2):
        # a timelike tangent cannot live in a positive-definite plane; feed
        # the type-2 pair's tangent to the type-4 rule against an eps=+1
        # companion frame
        f = PairSamples(exact_pair_type2, [0.5]).frames[0]
        helix_sp = helix(CurveKind.SPACELIKE_EPS_PLUS, 1.0, 0.5, domain=(0.0, 0.2), step=1e-3)
        fstar = frenet_apparatus(helix_sp, 0.1)
        message = r"^tangent leaves the \(T\*, N\*\) plane \(defect 1.010e\+00\)$"
        with pytest.raises(InconsistentDecompositionError, match=message):
            _decompose(f.T[0], fstar, MannheimPairType.TYPE4)


class TestDistance:
    def test_examples_pass_at_twenty(self, example1_pair, example2_pair):
        for pair in (example1_pair, example2_pair):
            rep = ROWS["distance-constancy"].report(pair.samples(101))
            assert rep.verdict is Verdict.PASS
            assert rep.max_residual < 1e-9
            assert rep.details["distance"] == 20.0

    def test_normal_offset_negative_lambda(self, example2):
        pair = MannheimPair.from_normal_offset(example2, -3.0, table_size=256)
        assert pair.pair_type is MannheimPairType.TYPE2
        rep = ROWS["distance-constancy"].report(pair.samples(51))
        assert rep.verdict is Verdict.PASS
        assert rep.details["distance"] == 3.0


class TestVerdictGating:
    def test_reference_pairs_are_reported(self, example2_pair):
        # hypothesis residual ~2 >> threshold: no pass/fail claims
        for name in (
            "torsion-reciprocal",
            "linear-curvature-torsion",
            "frame-angle-rate",
            "torsion-composition",
            "curvature-projection",
            "torsion-projection",
            "torsion-square",
            "torsion-square-literal",
        ):
            rep = ROWS[name].report(example2_pair.samples(11))
            assert rep.verdict is Verdict.REPORTED
            assert rep.details["hypothesis_residual"] > 1.0

    def test_literal_square_form_never_judged(self, exact_pair_type3):
        samples = exact_pair_type3.samples(11)
        squared, literal = (ROWS[n].report(samples) for n in ("torsion-square", "torsion-square-literal"))
        assert literal.verdict is Verdict.REPORTED
        assert squared.verdict in (Verdict.PASS, Verdict.FAIL)


class TestGenuinePairs:
    """Audits on exactly constructed pairs: which identities actually hold.

    These pairs satisfy the defining collinearity to ~1e-13, so the
    verifiers issue genuine Pass/Fail verdicts; the failures below are
    real falsifications of the catalogued relations, with residuals pinned
    by independent derivation.
    """

    def test_type3_torsion_reciprocal_holds(self, exact_pair_type3):
        rep = ROWS["torsion-reciprocal"].report(exact_pair_type3.samples(21))
        assert rep.verdict is Verdict.PASS
        assert rep.max_residual < 1e-8

    def test_type3_condition_matches_construction(self, exact_pair_type3):
        # kappa = lam (kappa^2 + tau^2) held pointwise by construction
        lam = exact_pair_type3.lam
        for s in (0.0, 0.5, 1.0):
            kappa, tau = PairSamples(exact_pair_type3, [s]).scalars[:2, 0]
            assert kappa == pytest.approx(lam * (kappa**2 + tau**2), abs=1e-9)

    def test_type3_linear_relation_fails_by_one(self, exact_pair_type3):
        # the construction orientation makes mu*tau - lam*kappa identically
        # zero, so the linear relation misses its target by exactly 1
        rep = ROWS["linear-curvature-torsion"].report(exact_pair_type3.samples(21))
        assert rep.verdict is Verdict.FAIL
        assert rep.max_residual == pytest.approx(1.0, abs=1e-9)
        assert rep.details["mu_spread"] > 1e-3  # and mu is not constant either

    def test_type3_angle_rate_holds(self, exact_pair_type3):
        rep = ROWS["frame-angle-rate"].report(exact_pair_type3.samples(21))
        assert rep.verdict is Verdict.PASS

    def test_type3_projection_rows_fail_by_rate_factor(self, exact_pair_type3):
        # the projection rows hold only after multiplying by ds*/ds; the
        # published literal forms fail, and the corrected forms pass
        samples = exact_pair_type3.samples(21)
        r3, r4 = (ROWS[n].report(samples) for n in ("curvature-projection", "torsion-projection"))
        assert r3.verdict is Verdict.FAIL
        assert r4.verdict is Verdict.FAIL
        for s in (0.0, 0.5, 1.0):
            view = PairSamples(exact_pair_type3, [s])
            (kappa, tau, _, tau_star), (s_comp, c_comp) = view.scalars[:, 0], view.components[:, 0]
            rate = view.rates[0]
            assert kappa == pytest.approx(tau_star * s_comp * rate, abs=1e-8)
            assert tau == pytest.approx(tau_star * c_comp * rate, abs=1e-8)

    def test_type2_reciprocal_holds_with_opposite_sign(self, exact_pair_type2):
        rep = ROWS["torsion-reciprocal"].report(exact_pair_type2.samples(21))
        assert rep.verdict is Verdict.FAIL
        for s in (0.0, 0.5, 1.0):
            kappa, tau, _, tau_star = PairSamples(exact_pair_type2, [s]).scalars[:, 0]
            assert tau_star == pytest.approx(-kappa / (exact_pair_type2.lam * tau), abs=1e-8)

    def test_type5_reciprocal_holds(self, exact_pair_type5):
        rep = ROWS["torsion-reciprocal"].report(exact_pair_type5.samples(21))
        assert rep.verdict is Verdict.PASS
        assert rep.max_residual < 1e-8

    def test_timelike_positive_lambda_rejected_before_synthesis(self, monkeypatch):
        def synthesize(*args, **kwargs):
            raise AssertionError("synthesis ran for an unsupported combination")

        monkeypatch.setattr(mannheim, "frenet_synthesize", synthesize)
        with pytest.raises(UnsupportedCombinationError, match="spacelike-, curve=timelike"):
            exact_partner_pair(CurveKind.TIMELIKE, lambda s: 0.8 + 0.2 * s, 0.3)

    def test_torsion_is_evaluated_once_per_jet(self):
        # kappa_fn reads the torsion of the jet that the synthesis and the
        # scalar jets then hand to tau_fn: one evaluation serves both.  A
        # build evaluates it three times: synthesis, the arc-length table's
        # single pass of the offset's squares (which also classifies its
        # tangent), and the pair type, whose one pass of the curve gives its
        # own kind and the companion's derivatives.  The suite's one pass of
        # the curve evaluates it once.
        calls = []

        def tau_fn(s):
            calls.append(type(s).__name__)
            return 0.8 - 0.2 * s

        pair = exact_partner_pair(CurveKind.SPACELIKE_EPS_MINUS, tau_fn, 0.3, step=1e-3, table_size=512)
        assert calls == ["Jet2"] * 3
        calls.clear()
        _run_pair_suite(pair, 201, None)
        assert calls == ["Jet2"]

    def test_failing_torsion_abscissa_is_named_as_before(self):
        tau = parse_expr("0.8 + 0.01/(s - 0.5)^2")
        want = "(0.01 / (s - 0.5)^2) is undefined at s=0.5 (float division by zero)"
        with pytest.raises(ExprDomainError, match=re.escape(want) + "$"):
            exact_partner_pair(CurveKind.SPACELIKE_EPS_PLUS, tau.eval, 0.3, step=1e-3, table_size=512)
        # a torsion whose square overflows before the torsion fails makes
        # the curvature tied to it infinite first: kappa's check comes first
        tau = parse_expr("0.5 + exp(2000*s - 1000)")
        with pytest.raises(PrescriptionError, match=re.escape("kappa(s=0.678) = inf is not finite") + "$"):
            exact_partner_pair(CurveKind.SPACELIKE_EPS_PLUS, tau.eval, 0.3, step=1e-3, table_size=512)


class TestCenterRatio:
    def test_distances_at_degenerate_lambda(self, example2):
        # lam = 1/kappa puts the companion point on the curvature center:
        # its distance |1/kappa - lam| to it and the ratio's factor
        # (1 - lam kappa) vanish
        pair = MannheimPair.from_normal_offset(example2, 0.5, table_size=256)
        view = PairSamples(pair, [0.3])
        assert abs(1.0 / view.scalars[0, 0] - pair.lam) == pytest.approx(0.0, abs=1e-9)
        assert view.center_ratio[0] == pytest.approx(0.0, abs=1e-9)

    def test_ratio_zero_when_lambda_kappa_star_unit(self, example2):
        # binormal offset with lam = 1/kappa* makes |lam^2 kappa*^2 - 1| = 0
        pair = MannheimPair.from_binormal_offset(example2, 0.5, table_size=256)
        assert PairSamples(pair, [0.2]).center_ratio[0] == pytest.approx(0.0, abs=1e-7)

    def test_oracle_value(self, example2_pair):
        want = ORACLE["paper-example-2"]["center_ratio"]
        assert PairSamples(example2_pair, [0.0]).center_ratio[0] == pytest.approx(want, abs=1e-8)

    def test_constant_curvature_flagged(self, example2_pair):
        rep = ROWS["center-ratio-nonconstancy"].report(example2_pair.samples(31))
        assert rep.verdict is Verdict.REPORTED
        assert rep.details["constant_ratio"] is True

    def test_varying_pair_passes(self, exact_pair_type3):
        rep = ROWS["center-ratio-nonconstancy"].report(exact_pair_type3.samples(31))
        assert rep.verdict is Verdict.PASS
        assert rep.details["ratio_sd"] > rep.tolerance

    @pytest.mark.parametrize(
        "offset", [MannheimPair.from_normal_offset, MannheimPair.from_binormal_offset]
    )
    def test_ratio_that_cancels_to_zero_is_constant(self, example2, offset):
        # at lam = 0.5 the normal offset's factor 1 - lam kappa cancels, and
        # the binormal offset's sqrt|lam^2 kappa*^2 - 1| does: every ratio is
        # rounding noise (~1e-23 and ~2e-8), a constant ratio that reads
        # Reported, not a varying one that passes
        pair = offset(example2, 0.5)
        rep = ROWS["center-ratio-nonconstancy"].report(pair.samples(101))
        assert 0.0 < rep.details["ratio_sd"] <= rep.tolerance < 1e-7
        assert rep.verdict is Verdict.REPORTED
        assert rep.details["constant_ratio"] is True


class TestSharedParameter:
    def test_identity_correspondence_for_unit_pairs(self, example2):
        off = offset_along_binormal(example2, 20.0)
        c = reparametrize_unit(off, 512)
        pair = MannheimPair.from_shared_parameter(off, example2, 20.0)
        assert pair.pair_type is MannheimPairType.TYPE1
        # C's arc length maps back to the shared parameter, at which the
        # unit-speed C* is evaluated as it is
        assert pair.cstar_raw is pair.cstar is example2
        for u in (0.0, c.domain[1] / 2, c.domain[1]):
            t = PairSamples(pair, [u]).t[0]
            assert t == pytest.approx(u / math.sqrt(1199.0), abs=1e-9)
        assert PairSamples(pair, [1.0]).rates[0] == pytest.approx(1.0 / math.sqrt(1199.0), abs=1e-10)

    def test_unit_speed_input_is_its_own_raw_parameter(self, example1):
        # C is unit-speed, though reparametrized elsewhere: its arc length is
        # the shared parameter, so C* on the same domain corresponds at s* = s
        c = reparametrize_unit(offset_along_binormal(example1, 0.5), 256)
        cstar = builtin_curve("paper-example-1", c.domain)
        pair = MannheimPair.from_shared_parameter(c, cstar, 0.5)
        s = np.array([0.0, c.domain[1] / 2, c.domain[1]])
        assert pair.c_raw is pair.c is c
        assert np.array_equal(PairSamples(pair, s).t, s)
        assert pair.cstar_raw is pair.cstar is cstar
        assert np.all(PairSamples(pair, s).rates == 1.0)

    def test_domain_mismatch_rejected(self, example1):
        c2 = helix(CurveKind.TIMELIKE, 1.0, 0.5, domain=(0.0, 0.5))
        with pytest.raises(ValueError):
            MannheimPair.from_shared_parameter(example1, c2, 1.0)


# (pair type, torsion slope) of the exact configurations under audit.


class TestAngleRateChain:
    """d(theta)/ds* by the chain rule, checked against differencing theta."""

    @staticmethod
    def _compare(pair):
        def thetas(x):
            # the angle on the difference's own points
            return PairSamples(pair, x).theta

        # the interior points of grid 101, every stencil inside the domain
        samples = PairSamples(pair, np.linspace(*pair.c.domain, 101)[1:-1])
        grid = np.array(samples.grid)
        steps = np.maximum(1e-4, 1e-3 * np.abs(grid))
        differenced = central_difference(thetas, grid, steps) / samples.rates
        assert thetas(grid[[3]])[0] == samples.theta[3]
        return np.abs(samples.dtheta - differenced).max()

    @pytest.mark.parametrize("pair_type,slope", EXACT_CONFIGS)
    def test_exact_pairs_match_difference_of_theta(self, exact_pair_of, pair_type, slope):
        assert self._compare(exact_pair_of(pair_type, slope)) < 1e-9

    def test_reference_pairs_match_difference_of_theta(self, example1_pair, example2_pair):
        for pair in (example1_pair, example2_pair):
            assert self._compare(pair) < 1e-9

    @pytest.mark.parametrize("pair_type,slope", EXACT_CONFIGS)
    def test_exact_pairs_angle_rate_at_rounding_level(self, exact_pair_of, pair_type, slope):
        rep = ROWS["frame-angle-rate"].report(exact_pair_of(pair_type, slope).samples(101))
        assert rep.verdict is Verdict.PASS
        assert rep.max_residual <= 1e-13

    def test_suite_extracts_base_and_offset_once_each_without_nesting(
        self, exact_pair_type3, example1, example2, monkeypatch
    ):
        # The base makes one pass, one frenet_frames, and the offset's frames
        # are extracted from the derivatives formed from it: each curve's
        # frames are extracted once and no frenet_frames runs inside another,
        # whether the base's scalar jet is a prescription's, a built-in's or
        # one chained through a table.
        depth = [0]
        frames, extractions = collections.Counter(), collections.Counter()
        outer, extract = frenet.frenet_frames, frenet._extract

        def tracked(c, s, *rest):
            depth[0] += 1
            frames[depth[0], c.label] += 1
            try:
                return outer(c, s, *rest)
            finally:
                depth[0] -= 1

        def counted(label, *rest):
            extractions[label] += 1
            return extract(label, *rest)

        for module in (frenet, mannheim, indicatrix_module):
            monkeypatch.setattr(module, "frenet_frames", tracked)
        for module in (frenet, mannheim):
            monkeypatch.setattr(module, "_extract", counted)
        unit = reparametrize_unit(builtin_curve("paper-example-1"), 256)
        # a copy starts without samples, so every frame extraction runs again
        pairs = [dataclasses.replace(exact_pair_type3)]
        pairs += [MannheimPair.from_binormal_offset(base, 20.0) for base in (example1, example2, unit)]
        for pair in pairs:
            frames.clear()
            extractions.clear()
            assert len(_run_pair_suite(pair, 11, None)) == 12
            base, offset = sorted((pair.c, pair.cstar), key=lambda c: len(c.label))
            assert dict(frames) == {(1, base.label): 1}
            assert dict(extractions) == {base.label: 1, offset.label: 1}


class TestUnmetHypothesis:
    """Pairs that are not partner pairs publish Reported profiles."""

    def test_non_decomposing_pair_publishes_every_report(self, example2):
        # a type-4 normal offset: T is orthogonal to both T* and N*, so no
        # decomposition exists, but the collinearity fails as well
        pair = MannheimPair.from_normal_offset(example2, 0.5)
        assert pair.pair_type is MannheimPairType.TYPE4
        reports = _run_pair_suite(pair, 101, None)
        assert len(reports) == 12
        for rep in reports:
            if rep.identity not in ("distance-constancy", "center-ratio-nonconstancy"):
                assert rep.verdict is Verdict.REPORTED, rep.identity
                assert rep.details["hypothesis_residual"] > HYPOTHESIS_TOL

    def test_undefined_mu_is_published_as_null(self, example2):
        # where T is orthogonal to T*, mu = lam s/c is undefined: the residual
        # is None (JSON null), never an infinity that strict JSON rejects
        pair = MannheimPair.from_normal_offset(example2, 0.5)
        rep = ROWS["linear-curvature-torsion"].report(pair.samples(101))
        undefined = rep.residuals.count(None)
        assert 0 < undefined < 101
        assert rep.details["undefined_at"] == undefined
        defined = [r for r in rep.residuals if r is not None]
        assert rep.max_residual == max(defined)
        assert rep.mean_residual == sum(defined) / len(defined)
        assert all(math.isfinite(v) for v in (rep.details["mu_mean"], rep.details["mu_spread"]))
        payload = json.loads(json.dumps(rep.to_json_dict(), allow_nan=False))
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["residuals"].count(None) == undefined

    def test_undefined_residual_fails_a_judged_report(self, example1_pair):
        samples = PairSamples(example1_pair, [0.0, 0.5, 1.0])
        judged = mannheim._Identity(
            "x", lambda p: np.array([0.0, np.nan, 0.0]), 1e-9, mannheim._Policy.EXEMPT
        ).report(samples)
        assert judged.verdict is Verdict.FAIL
        assert judged.max_residual == 0.0
        unmet = mannheim._Identity(
            "x", lambda p: np.full(3, np.nan), 1e-9, mannheim._Policy.UNJUDGED
        ).report(samples)
        assert unmet.verdict is Verdict.REPORTED
        assert unmet.max_residual is None and unmet.mean_residual is None

    def test_failed_decomposition_under_the_hypothesis_raises(self, exact_pair_type2):
        # the collinearity holds, but the pair's hyperbolic components give
        # no circular (type-3) angle: that is an error, not a Reported profile
        pair = dataclasses.replace(exact_pair_type2, pair_type=MannheimPairType.TYPE3)
        for name in ("frame-angle-rate", "linear-curvature-torsion", "image-rate-curvature"):
            with pytest.raises(InconsistentDecompositionError, match=r" at s=0; no consistent angle exists$"):
                ROWS[name].report(pair.samples(11))


# Each type's row written out independently of the type table: (C*, C) kind
# values, description, circular, T*/N* swap, the torsion, linear and
# angle-rate signs, the tau* combination, the kappa and tau projections and
# the torsion-square expression as plain formulas, and the indicatrix
# relations as ((sign, component), (sign, component)).
TYPE_ROWS = {
    MannheimPairType.TYPE1: (
        "timelike", "spacelike-",
        "companion timelike; curve spacelike with timelike principal normal",
        False, True, -1.0, 1.0, -1.0,
        lambda k, t, s, c: k * c + t * s,
        lambda ts, s, c: ts * c,
        lambda ts, s, c: -ts * s,
        lambda k, t: k * k - t * t,
        ((1.0, "c"), (-1.0, "s")),
    ),
    MannheimPairType.TYPE2: (
        "timelike", "timelike",
        "companion timelike; curve timelike",
        False, False, 1.0, 1.0, -1.0,
        lambda k, t, s, c: -k * s - t * c,
        lambda ts, s, c: ts * s,
        lambda ts, s, c: -ts * c,
        lambda k, t: t * t - k * k,
        ((-1.0, "s"), (-1.0, "c")),
    ),
    MannheimPairType.TYPE3: (
        "spacelike+", "spacelike-",
        "companion spacelike with timelike binormal; curve spacelike with timelike principal normal",
        True, False, 1.0, -1.0, -1.0,
        lambda k, t, s, c: -k * s + t * c,
        lambda ts, s, c: ts * s,
        lambda ts, s, c: ts * c,
        lambda k, t: t * t - k * k,
        ((-1.0, "s"), (-1.0, "c")),
    ),
    MannheimPairType.TYPE4: (
        "spacelike+", "timelike",
        "companion spacelike with timelike binormal; curve timelike",
        False, False, -1.0, -1.0, 1.0,
        lambda k, t, s, c: k * c - t * s,
        lambda ts, s, c: ts * c,
        lambda ts, s, c: ts * s,
        lambda k, t: k * k - t * t,
        ((-1.0, "c"), (1.0, "s")),
    ),
    MannheimPairType.TYPE5: (
        "spacelike-", "spacelike+",
        "companion spacelike with timelike principal normal; curve spacelike with timelike binormal",
        False, False, 1.0, 1.0, -1.0,
        lambda k, t, s, c: k * s + t * c,
        lambda ts, s, c: ts * s,
        lambda ts, s, c: ts * c,
        lambda k, t: k * k + t * t,
        ((1.0, "s"), (1.0, "c")),
    ),
}


def given_samples(pair_type, lam, **columns):
    """PairSamples holding the given columns instead of columns of curve data:
    a cached column is read from the instance dictionary first."""
    grid = range(columns["scalars"].shape[1])
    curves = dict(c=None, c_raw=None, cstar_raw=None)
    pair = SimpleNamespace(lam=lam, pair_type=pair_type, **curves)
    samples = PairSamples(pair, grid)
    samples.__dict__.update(columns)
    return samples


class TestPairTypeSpec:
    """The type table and the identity rows against the identities written
    out as formulas, bit for bit."""

    @pytest.mark.parametrize("pair_type", list(MannheimPairType))
    def test_row_matches_the_written_formulas(self, pair_type):
        (companion, curve, description, circular, swap, torsion, linear, rate,
         combination, kappa_of, tau_of, square, relations) = TYPE_ROWS[pair_type]
        spec = pair_type.spec
        assert (spec.companion, spec.curve) == (CurveKind(companion), CurveKind(curve))
        assert spec.description == description
        assert (spec.circular, spec.swap) == (circular, swap)
        assert (spec.torsion_sign, spec.linear_sign, spec.angle_rate_sign) == (torsion, linear, rate)
        assert spec.oriented(0.25, 0.75) == ((0.25, 0.75) if swap else (0.75, 0.25))
        rng = np.random.default_rng(pair_type.value)
        lam = float(rng.uniform(-2.0, 2.0))
        k, t, ks, ts, s, c, d, mu, n, b = rng.uniform(-2.0, 2.0, (10, 50))
        samples = given_samples(
            pair_type,
            lam,
            scalars=np.stack((k, t, ks, ts)),
            components=np.stack((s, c)),
            dtheta=d,
            mu=mu,
            image_rates=(n, b),
        )
        want = {
            "torsion-reciprocal": abs(ts - torsion * k / (lam * t)),
            "linear-curvature-torsion": abs(mu * t + linear * lam * k - 1.0),
            "frame-angle-rate": abs(ks - rate * d),
            "torsion-composition": abs(ts - combination(k, t, s, c)),
            "curvature-projection": abs(k - kappa_of(ts, s, c)),
            "torsion-projection": abs(t - tau_of(ts, s, c)),
            "torsion-square": abs(ts * ts - square(k, t)),
            "torsion-square-literal": abs(ts - square(k, t)),
        }
        for name, column in want.items():
            assert ROWS[name].residual(samples).tolist() == column.tolist(), name
        comp = {"s": s, "c": c}
        for g in (1.0, -1.0):
            rhs = g * ts * b
            assert [r.tolist() for r in samples.image_residuals(g)] == [
                abs(x * n - sign * comp[name] * rhs).tolist()
                for x, (sign, name) in zip((k, t), relations)
            ]
        images = [ROWS[name].residual(samples) for name in ("image-rate-curvature", "image-rate-torsion")]
        assert [r.tolist() for r in images] == [
            r.tolist() for r in samples.image_residuals(samples.alignment)
        ]

    def test_kind_pairs_outside_the_table_are_unsupported(self):
        helices = {
            CurveKind.TIMELIKE: helix(CurveKind.TIMELIKE, 1.0, 2.0, domain=(0.0, 0.2)),
            CurveKind.SPACELIKE_EPS_PLUS: helix(CurveKind.SPACELIKE_EPS_PLUS, 1.0, 1.0, domain=(0.0, 0.2)),
            CurveKind.SPACELIKE_EPS_MINUS: helix(CurveKind.SPACELIKE_EPS_MINUS, 2.0, 1.0, domain=(0.0, 0.2)),
        }
        rows = {(CurveKind(row[0]), CurveKind(row[1])): t for t, row in TYPE_ROWS.items()}
        assert len(rows) == 5
        for companion, cstar in helices.items():
            for kind, c in helices.items():
                if (companion, kind) in rows:
                    pair = MannheimPair.from_shared_parameter(c, cstar, 0.5)
                    assert pair.pair_type is rows[companion, kind]
                else:
                    with pytest.raises(UnsupportedCombinationError):
                        MannheimPair.from_shared_parameter(c, cstar, 0.5)


def _line_pair(example1):
    """A hand-built pair whose curve C is a straight line: C has no frame."""
    rows = (lambda t: (0.0, t, 0.0), lambda t: (0.0, 1.0, 0.0))
    line = closed_form_curve(rows, (0.0, 1.0), "line", unit_speed=True)
    return MannheimPair(c_raw=line, lam=1.0, pair_type=MannheimPairType.TYPE3, cstar_raw=example1)


class TestPairSamples:
    """One sample pass per (pair, grid), shared by every verifier of a suite."""

    @staticmethod
    def _views(monkeypatch):
        """Grid sizes of the PairSamples built from now on."""
        sizes = []
        init = PairSamples.__init__

        def counted(self, pair, grid):
            init(self, pair, grid)
            sizes.append(len(self.grid))

        monkeypatch.setattr(PairSamples, "__init__", counted)
        return sizes

    @staticmethod
    def _extractions(monkeypatch, pair):
        """Sizes of the grids on which frames of C and of C* at the raw
        parameters are extracted from their derivatives, by the base's pass
        or from the derivatives its offset forms from that pass."""
        grids = {"c": [], "cstar": []}
        names = {pair.c.label: "c", pair.cstar_raw.label: "cstar"}
        extract = frenet._extract

        def counted(label, s, *jets):
            if label in names:
                grids[names[label]].append(len(s))
            return extract(label, s, *jets)

        for module in (frenet, mannheim):
            monkeypatch.setattr(module, "_extract", counted)
        return grids

    def test_suite_extracts_each_curve_once_and_builds_no_frame(self, exact_pair_type3, monkeypatch):
        built = []
        init = Vec3L.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Vec3L, "__init__", counted)
        views = self._views(monkeypatch)
        pair = dataclasses.replace(exact_pair_type3)
        grids = self._extractions(monkeypatch, pair)
        assert len(_run_pair_suite(pair, 201, None)) == 12
        assert grids == {"c": [201], "cstar": [201]}
        assert built == []
        assert views == [201]  # one sampling of the grid, no one-row view
        _run_pair_suite(pair, 201, None)  # a second suite samples afresh, once
        assert grids == {"c": [201, 201], "cstar": [201, 201]}
        assert views == [201, 201]

    def test_second_grid_builds_new_samples(self, exact_pair_type3, monkeypatch):
        pair = dataclasses.replace(exact_pair_type3)
        grids = self._extractions(monkeypatch, pair)
        _run_pair_suite(pair, 11, None)
        _run_pair_suite(pair, 21, None)
        assert grids == {"c": [11, 21], "cstar": [11, 21]}

    def test_reports_of_a_suite_share_one_grid_list(self, exact_pair_type3):
        reports = _run_pair_suite(exact_pair_type3, 201, None)
        assert all(r.grid is reports[0].grid for r in reports)
        assert reports[0].grid == np.linspace(*exact_pair_type3.c.domain, 201).tolist()
        assert _run_pair_suite(exact_pair_type3, 201, None)[0].grid is not reports[0].grid

    @pytest.mark.parametrize("which", ["example1_pair", "exact_pair_type3"])
    def test_suite_forms_the_offset_tangent_once(self, which, request, monkeypatch):
        # the base pass's tangent coordinates serve both the offset's frames and the rates
        pair = dataclasses.replace(request.getfixturevalue(which))
        calls = []
        tangent = offset_module._FrameOffset.tangent

        def counted(self, jets):
            calls.append(len(jets[0]))
            return tangent(self, jets)

        monkeypatch.setattr(offset_module._FrameOffset, "tangent", counted)
        _run_pair_suite(pair, 101, None)
        assert calls == [101]

    def test_replaced_copy_starts_empty(self, exact_pair_type2):
        # samples of a relabelled copy hold no column computed for the
        # original and read the copy's own type
        pair = dataclasses.replace(exact_pair_type2)
        used = pair.samples(11)
        ROWS["linear-curvature-torsion"].report(used)
        assert "frames" in vars(used)
        copy = dataclasses.replace(pair, pair_type=MannheimPairType.TYPE3)
        fresh = copy.samples(11)
        assert "frames" not in vars(fresh) and "frames" not in vars(pair.samples(11))
        assert used.spec is MannheimPairType.TYPE2.spec and fresh.spec is MannheimPairType.TYPE3.spec

    def test_replaced_copy_reads_its_own_curves_at_a_point(self, example2):
        # a point query is the one-row frame grid of the pair at hand, so a
        # copy with another pair's C answers from that C, whatever the
        # original was asked before
        pair = MannheimPair.from_binormal_offset(example2, 20.0)
        other = MannheimPair.from_binormal_offset(example2, 5.0)
        def rho(p):
            return PairSamples(p, [0.5]).collinearity[0]

        assert rho(pair) == pytest.approx(2.0025, abs=1e-4)
        mixed = dataclasses.replace(pair, c_raw=other.c_raw)
        assert rho(mixed) == rho(other)
        assert rho(mixed) == pytest.approx(2.0418, abs=1e-4)
        # given the other's lam too, the copy is that pair: its raw parameters
        # and ds*/ds come from the C it holds, so all twelve reports, the
        # frame angle's rate with them, match to the byte
        copy = dataclasses.replace(pair, c_raw=other.c_raw, lam=other.lam)
        assert PairSamples(copy, [0.5]).rates[0] == pytest.approx(0.1162, abs=1e-4)
        texts = [
            json.dumps([r.to_json_dict() for r in _run_pair_suite(p, 21, None)], indent=2, allow_nan=False)
            for p in (copy, other)
        ]
        assert texts[0] == texts[1]

    def test_replaced_cstar_is_the_one_the_audit_reads(self, example1, example2):
        # a pair stores C* once, as the audit evaluates it: a copy with another
        # C* audits that C* and derives its arc-length C* from it
        pair = MannheimPair.from_binormal_offset(example2, 20.0)
        swapped = dataclasses.replace(pair, cstar_raw=example1)
        rho = PairSamples(swapped, [0.5]).collinearity[0]
        assert PairSamples(pair, [0.5]).collinearity[0] == pytest.approx(2.0025, abs=1e-4)
        assert rho == pytest.approx(0.5010, abs=1e-4)
        assert swapped.cstar is example1 and pair.cstar is example2
        with pytest.raises(TypeError):
            dataclasses.replace(pair, cstar=example1)
        # C on its arc length, the raw parameters and the rate are derived, not stored
        for derived in ("c", "to_raw", "rate"):
            with pytest.raises(TypeError):
                dataclasses.replace(pair, **{derived: None})
        assert [f.name for f in dataclasses.fields(MannheimPair)] == ["c_raw", "lam", "pair_type", "cstar_raw"]

    def test_angle_rate_is_undefined_where_circular_components_vanish(self, example2):
        # the type-4 normal offset relabelled as the circular type 3 misses
        # the hypothesis, and its raw tangent components both vanish at some
        # grid points, where the angle has no rate
        pair = dataclasses.replace(
            MannheimPair.from_normal_offset(example2, 0.5), pair_type=MannheimPairType.TYPE3
        )
        reports = {r.identity: r for r in _run_pair_suite(pair, 21, None)}
        rate = reports["frame-angle-rate"]
        s_comp, c_comp = pair.samples(21).components
        vanishing = (s_comp * s_comp + c_comp * c_comp == 0.0).tolist()
        assert [r is None for r in rate.residuals] == vanishing
        assert rate.details["undefined_at"] == sum(vanishing) > 0
        assert rate.verdict is Verdict.REPORTED
        assert rate.max_residual is not None
        json.dumps([r.to_json_dict() for r in reports.values()], allow_nan=False)  # no NaN

    def test_relabelled_pair_is_sampled_again(self, exact_pair_type2):
        # samples hold the type's components: a pair relabelled in place
        # must not reuse those of its old type
        pair = dataclasses.replace(exact_pair_type2)
        linear = ROWS["linear-curvature-torsion"]
        assert linear.report(pair.samples(11)).verdict is not None
        pair.pair_type = MannheimPairType.TYPE3
        with pytest.raises(InconsistentDecompositionError):
            linear.report(pair.samples(11))

    def test_an_audited_pair_is_freed_without_a_collection(self, example1):
        # the pair keeps no samples, a curve on arc length refers to its chain
        # but not back, and an offset's evaluators refer to its base but not
        # to the offset: no reference cycle keeps an audited pair or its
        # curves alive until a full collection
        pair = MannheimPair.from_shared_parameter(
            offset_along_binormal(example1, 20.0), offset_along_normal(example1, -0.5), 1.0, 256
        )
        assert len(_run_pair_suite(pair, 11, None)) == 12
        curves = (pair, pair.c, pair.c.raw, pair.c.raw.base, pair.cstar, pair.cstar_raw, pair.cstar_raw.base)
        refs = [weakref.ref(x) for x in curves]
        del curves
        gc.disable()
        try:
            del pair
            assert [ref() for ref in refs] == [None] * 7
        finally:
            gc.enable()

    def test_samples_outlive_their_pair(self, example1):
        # nothing keeps the pair once its samples are handed out
        samples = MannheimPair.from_binormal_offset(example1, 20.0).samples(11)
        assert IDENTITIES[0].report(samples).verdict is Verdict.PASS
        assert samples.scalars.shape == (4, 11)

    def test_distance_reads_positions_only(self, example1):
        pair = _line_pair(example1)
        rep = ROWS["distance-constancy"].report(pair.samples(11))
        assert rep.verdict is Verdict.FAIL
        assert len(rep.residuals) == 11

    def test_suite_on_a_frameless_curve_raises(self, example1):
        with pytest.raises(VanishingCurvatureError, match="at s=0$") as info:
            _run_pair_suite(_line_pair(example1), 11, None)
        assert info.value.row == 0

    def test_torsion_check_precedes_the_decomposition(self, exact_pair_type2, monkeypatch):
        # every tau counts as vanishing, and no type-3 angle exists: the
        # torsion verifier runs first and raises first
        monkeypatch.setattr(mannheim, "TORSION_TOL", 1e9)
        pair = dataclasses.replace(exact_pair_type2, pair_type=MannheimPairType.TYPE3)
        with pytest.raises(VanishingTorsionError):
            _run_pair_suite(pair, 11, None)

    @pytest.mark.parametrize(
        "stationary_at,error", [(0, DegenerateIndicatrixError), (5, InconsistentDecompositionError)]
    )
    def test_stationary_image_and_failed_decomposition_keep_point_order(
        self, exact_pair_type2, monkeypatch, stationary_at, error
    ):
        # the decomposition fails from the first grid point on; a stationary
        # N-image of C there is reported first, one further on is not reached
        pair = dataclasses.replace(exact_pair_type2, pair_type=MannheimPairType.TYPE3)
        samples = pair.samples(11)
        rates = mannheim._field_rates

        def stalled(f, which):
            out = rates(f, which)
            if f is samples.frames[0]:
                out = out.copy()
                out[stationary_at] = 0.0
            return out

        monkeypatch.setattr(mannheim, "_field_rates", stalled)
        message = "stationary spherical image at s=0$" if stationary_at == 0 else "at s=0; no consistent"
        for name in ("image-rate-curvature", "image-rate-torsion"):
            with pytest.raises(error, match=message) as info:
                ROWS[name].report(samples)
            assert info.value.row == 0


def _profile(column):
    """A residual column as a report publishes it: NaN is undefined, None."""
    return [None if math.isnan(x) else x for x in column.tolist()]


class TestRowsAgainstOneRowViews:
    """Every column and every identity residual of a grid equals, row for
    row, the one-row view ``PairSamples(pair, [s])``."""

    PAIRS = {
        "exact-type2": lambda fx: fx.getfixturevalue("exact_pair_type2"),
        "exact-type3": lambda fx: fx.getfixturevalue("exact_pair_type3"),
        "exact-type5": lambda fx: fx.getfixturevalue("exact_pair_type5"),
        "type1-binormal-offset": lambda fx: fx.getfixturevalue("example2_pair"),
        "type3-binormal-offset": lambda fx: fx.getfixturevalue("example1_pair"),
        "type4-normal-offset": lambda fx: MannheimPair.from_normal_offset(
            fx.getfixturevalue("example2"), 0.5
        ),
    }
    COLUMNS = ("scalars", "collinearity", "components", "theta", "rates", "dtheta", "mu", "center_ratio")
    IMAGES = ("image-rate-curvature", "image-rate-torsion")

    @pytest.mark.parametrize("which", list(PAIRS))
    def test_grid_rows_equal_the_one_row_views(self, which, request):
        # the exact pairs meet the hypothesis (checked decomposition); the
        # offsets of the built-ins do not (raw projections; the type-4 one
        # has undefined mu)
        pair = dataclasses.replace(self.PAIRS[which](request))
        assert pair.pair_type.value == int(which.split("type")[1][0])
        full = pair.samples(21)
        reports = {r.identity: r for r in _run_pair_suite(pair, 21, None)}
        views = [PairSamples(pair, [s]) for s in full.grid]
        met, worst = full.hypothesis
        assert met == which.startswith("exact")
        assert worst == max(view.collinearity[0] for view in views)
        for i, view in enumerate(views):
            assert view.hypothesis[0] == met
            for name in self.COLUMNS:
                np.testing.assert_array_equal(getattr(view, name), getattr(full, name)[..., [i]], name)
            for mine, theirs in zip(view.frames, full.frames):
                for field in ("T", "N", "B", "kinds"):
                    assert getattr(mine, field).tolist() == getattr(theirs, field)[[i]].tolist()
            assert view.t.tolist() == full.t[[i]].tolist()
            # the alignment is chosen over the whole grid, and the center
            # ratio's residual is its deviation from the grid's mean
            for k, name in enumerate(self.IMAGES):
                want = reports[name].residuals[i : i + 1]
                assert _profile(view.image_residuals(full.alignment)[k]) == want, name
            for row in IDENTITIES:
                if row.name not in (*self.IMAGES, "center-ratio-nonconstancy"):
                    assert _profile(row.residual(view)) == reports[row.name].residuals[i : i + 1], row.name
        for rep in reports.values():
            assert rep.details.get("undefined_at", 0) == rep.residuals.count(None), rep.identity
        ratios = full.center_ratio
        center = reports["center-ratio-nonconstancy"]
        assert center.residuals == np.abs(ratios - float(np.mean(ratios))).tolist()
        assert (center.details["ratio_mean"], center.details["ratio_sd"]) == (
            float(np.mean(ratios)),
            float(np.std(ratios, ddof=1)),
        )
        assert reports["image-rate-curvature"].details["alignment"] == full.alignment
        judged = [r for r in reports.values() if r.identity not in ("distance-constancy", center.identity)]
        assert len(judged) == 10
        assert all(r.details["hypothesis_residual"] == worst for r in judged)
