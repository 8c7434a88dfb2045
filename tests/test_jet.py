"""Prescriptions as order-2 Taylor jets: ``expr.Jet2`` and what synthesis reads from it."""

import functools
import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mannheim_lab import exact_partner_pair, frenet, mannheim
from mannheim_lab.cli import _run_pair_suite
from mannheim_lab.errors import ExprDomainError, NonPositiveCurvatureError, PrescriptionError
from mannheim_lab.expr import FUNCTIONS, Jet2, parse_expr, sqrt
from mannheim_lab.frenet import CurveKind, frenet_synthesize, scalar_jets

# Seeded and bounded: the same examples on every run, nothing stored between runs.
PROPERTY = settings(derandomize=True, database=None, max_examples=20, deadline=None)

# One expression per grammar node (and per scalar-on-the-left operation),
# each with derivatives of constant sign on [0, 0.5], so a relative
# comparison with the symbolic derivative is meaningful.
NODE_EXPRESSIONS = [
    "2.5",
    "s",
    "s + 0.5 * s^2",
    "(3 + s^2) - (1 - s)",
    "(1 + s) * (2 + s^2)",
    "(1 + s) / (2 + s)",
    "2 / (1 + s)",
    "(1 + s) / 4",
    "sin(1 + s)",
    "cos(1 + s)",
    "sinh(1 + s)",
    "cosh(1 + s)",
    "exp(0.3 * s)",
    "(1 + s)^0",
    "(1 + s)^1",
    "(1 + s)^2",
    "(2 - s)^5",
    "exp(sin(s)) / (1 + s^2)",
]

ABSCISSAE = st.lists(st.floats(0.0, 0.5), min_size=1, max_size=16)


def identity_jet(xs) -> Jet2:
    x = np.array(xs, dtype=float)
    return Jet2(x, np.ones_like(x), np.zeros_like(x))


def components(value, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, d, dd) of an evaluation result, a float standing for a constant."""
    jet = value if isinstance(value, Jet2) else Jet2(value)
    return tuple(np.broadcast_to(np.asarray(x, dtype=float), (n,)) for x in (jet.v, jet.d, jet.dd))


def same_bits(got: np.ndarray, want: list) -> bool:
    want = np.array(want, dtype=float)
    both_nan = np.isnan(got) & np.isnan(want)
    return bool((both_nan | (got.view(np.int64) == want.view(np.int64))).all())


class TestValuesAreScalarValues:
    @pytest.mark.parametrize("text", NODE_EXPRESSIONS)
    @PROPERTY
    @given(xs=ABSCISSAE)
    def test_each_node_equals_elementwise_scalar_evaluation(self, text, xs):
        e = parse_expr(text)
        v, _, _ = components(e.eval(identity_jet(xs)), len(xs))
        assert same_bits(v, [e.eval(x) for x in xs])

    def test_float_components_give_float_components(self):
        e = parse_expr("exp(sin(s)) / (1 + s^2)")
        jet = e.eval(Jet2(0.3, 1.0, 0.0))
        assert float(jet.v) == e.eval(0.3)

    @PROPERTY
    @given(xs=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=16))
    def test_sqrt_is_correctly_rounded_with_exact_derivatives(self, xs):
        root = sqrt(identity_jet(xs))
        assert same_bits(root.v, [math.sqrt(x) for x in xs])
        for x, d, dd in zip(xs, root.d.tolist(), root.dd.tolist()):
            assert abs(d - 0.5 / math.sqrt(x)) <= 1e-15 * abs(d)
            assert abs(dd + 0.25 / (x * math.sqrt(x))) <= 1e-15 * abs(dd)
        with pytest.raises(ValueError):
            sqrt(identity_jet([*xs, -1.0]))

    def test_math_functions_reject_a_jet(self):
        with pytest.raises(TypeError):
            math.sin(Jet2(0.3, 1.0, 0.0))
        with pytest.raises(TypeError):
            float(Jet2(np.array([0.3]), 1.0, 0.0))


# Random trees over the whole grammar, on abscissae that hit its domain
# failures: 1/(s - 0.5) at 0.5, exp and ^ overflow, sin of an infinity.
LEAVES = st.sampled_from(["s", "0.5", "2", "3.25", "1e-3", "700"])
TREES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=8,
)
WIDE_ABSCISSAE = st.lists(
    st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 0.5, 2.0, 1e3])), min_size=1, max_size=12
)


@settings(PROPERTY, max_examples=150)
@given(text=TREES, xs=WIDE_ABSCISSAE)
def test_random_trees_equal_scalar_evaluation_or_its_first_error(text, xs):
    e = parse_expr(text)
    values, first = [], None
    for row, x in enumerate(xs):
        try:
            values.append(e.eval(x))
        except ExprDomainError as exc:
            first = (row, str(exc))
            break
    with np.errstate(all="ignore"):
        if first is not None:
            with pytest.raises(ExprDomainError) as info:
                e.eval(identity_jet(xs))
            assert (info.value.row, str(info.value)) == first
            return
        v, _, _ = components(e.eval(identity_jet(xs)), len(xs))
    assert same_bits(v, values)


def test_a_later_subexpression_failing_earlier_is_named():
    # the left term overflows at s=2, the right divides by zero at s=0.25;
    # one abscissa at a time, s=0.25 fails first
    e = parse_expr("exp(700 * s) + 1 / (s - 0.25)")
    with pytest.raises(ExprDomainError) as info:
        e.eval(identity_jet([0.1, 0.25, 2.0]))
    assert str(info.value) == "(1.0 / (s - 0.25)) is undefined at s=0.25 (float division by zero)"
    assert info.value.row == 1


@functools.cache
def symbolic_derivatives(text: str):
    """First and second derivatives of ``text`` by sympy, evaluated in 40-digit mpmath."""
    s = sympy.Symbol("s")
    f = sympy.sympify(str(parse_expr(text)).replace("^", "**"))
    return [sympy.lambdify(s, sympy.diff(f, s, order), "mpmath") for order in (1, 2)]


class TestDerivatives:
    @pytest.mark.parametrize("text", NODE_EXPRESSIONS)
    @PROPERTY
    @given(xs=ABSCISSAE)
    def test_match_sympy_within_1e_12_relative(self, text, xs):
        _, d, dd = components(parse_expr(text).eval(identity_jet(xs)), len(xs))
        mpmath.mp.dps = 40
        for exact, got in zip(symbolic_derivatives(text), (d, dd)):
            for x, g in zip(xs, got.tolist()):
                want = float(exact(mpmath.mpf(x)))
                assert abs(g - want) <= 1e-12 * abs(want), (text, x, g, want)


# (kind of the base curve, lambda, eps1, eps2) of kappa = lam (eps1 kappa^2 + eps2 tau^2)
EXACT = {
    2: (CurveKind.TIMELIKE, -0.3, 1.0, -1.0),
    3: (CurveKind.SPACELIKE_EPS_MINUS, 0.3, 1.0, 1.0),
    5: (CurveKind.SPACELIKE_EPS_PLUS, 0.3, -1.0, 1.0),
}


class TestExactPairJets:
    @pytest.mark.parametrize("slope", [0.2, -0.2])
    @pytest.mark.parametrize("pair_type", [2, 3, 5])
    def test_base_jets_are_exact_at_both_ends_and_inside(self, exact_pair_of, pair_type, slope):
        # the base curve's tau = 0.8 + slope s: tau' is the slope and tau'' is
        # zero everywhere, the range ends included, and kappa' follows from
        # differentiating the tie kappa = lam (eps1 kappa^2 + eps2 tau^2)
        _, lam, eps1, eps2 = EXACT[pair_type]
        c = exact_pair_of(pair_type, slope).c
        a, b = c.domain
        s = np.array([a, a + 1e-4, 0.25, 0.5, 0.61803, b - 1e-4, b])
        _, (kappa, kappa_p, _), (tau, tau_p, tau_pp) = scalar_jets(c, s)
        assert (tau_p == slope).all() and (tau_pp == 0.0).all()
        want = 2.0 * lam * eps2 * tau * tau_p / (1.0 - 2.0 * lam * eps1 * kappa)
        assert (np.abs(kappa_p - want) <= 1e-13).all(), (kappa_p, want)

    @pytest.mark.parametrize("slope", [0.2, -0.2])
    @pytest.mark.parametrize("pair_type", [2, 3, 5])
    def test_torsion_reciprocal_at_rounding_level(self, exact_pair_of, pair_type, slope):
        # 5.5e-11 to 1.8e-10 while kappa' and kappa'' of the node slopes
        # came from a difference of the prescription; type 2 holds the
        # relation with the opposite sign, so its report fails
        pair = exact_pair_of(pair_type, slope)
        kappa, tau, _, tau_star = pair.samples(201).scalars
        sign = pair.pair_type.spec.torsion_sign * (-1.0 if pair_type == 2 else 1.0)
        assert np.abs(tau_star - sign * kappa / (pair.lam * tau)).max() <= 1e-12
        row = next(r for r in mannheim.IDENTITIES if r.name == "torsion-reciprocal")
        rep = row.report(pair.samples(201))
        assert rep.verdict.value == ("Fail" if pair_type == 2 else "Pass")

    def test_exact_suite_calls_the_prescription_a_fixed_number_of_times(self):
        counts = {"tau": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        tau = parse_expr("0.8 - 0.2 * s")
        calls = []
        for step, grid in ((1e-3, 201), (2.5e-4, 201), (1e-3, 51)):
            counts["tau"] = 0
            pair = exact_partner_pair(
                CurveKind.SPACELIKE_EPS_MINUS, counted("tau", tau.eval), 0.3, step=step, table_size=512
            )
            built = counts["tau"]
            assert len(_run_pair_suite(pair, grid, None)) == 12
            calls.append((built, counts["tau"] - built))
        # as many calls whatever the step or the grid: none per abscissa
        assert calls[0] == calls[1] == calls[2], calls


def _synthesize(kappa_fn, tau_fn, step=1e-3, kind=CurveKind.TIMELIKE):
    return frenet_synthesize(kind, kappa_fn, tau_fn, (0.0, 1.0), step)


class TestPrescriptionContract:
    @pytest.fixture(autouse=True)
    def no_integration(self, monkeypatch):
        def integrate(*args):
            raise AssertionError("an RK4 step ran")

        monkeypatch.setattr(frenet, "_increments", integrate)

    def test_a_float_only_callable_is_named(self):
        def kappa_of_s(s):
            return 1.0 + 0.1 * math.sin(s)

        with pytest.raises(PrescriptionError, match="kappa prescription .*kappa_of_s rejects a Jet2"):
            _synthesize(kappa_of_s, parse_expr("0.5").eval)
        with pytest.raises(PrescriptionError, match="tau prescription .*<lambda> rejects a Jet2"):
            _synthesize(parse_expr("1").eval, lambda s: 0.5 if s < 1 else 0.6)

    @pytest.mark.parametrize("returned", ["1.0", [1.0], None, np.ones(3)])
    def test_a_result_neither_float_nor_jet_is_rejected(self, returned):
        with pytest.raises(PrescriptionError, match="neither a float nor a Jet2"):
            _synthesize(lambda s: returned, parse_expr("0.5").eval)

    def test_exact_pair_of_a_float_only_torsion(self):
        with pytest.raises(PrescriptionError, match="rejects a Jet2"):
            exact_partner_pair(CurveKind.SPACELIKE_EPS_MINUS, lambda s: 0.8 + 0.1 * math.sin(s), 0.3)


class TestGridErrorOrder:
    """The error of a synthesis is the one met evaluating kappa, checking it,
    then tau, abscissa by abscissa in step order: node, midpoint, end."""

    @pytest.mark.parametrize(
        "kappa, tau, step, error",
        [
            # a division by zero hit exactly at one abscissa, s = 0.25
            ("1", "1 / (s - 0.25)", 0.05, ExprDomainError),
            # an exp overflow, first at s = 0.71, the end of a step
            ("exp(1000 * s)", "0.5", 1e-3, ExprDomainError),
            # tau fails at 0.25, before kappa turns non-positive at 0.5
            ("0.5 - s", "1 / (s - 0.25)", 0.05, ExprDomainError),
            # kappa turns non-positive at 0.2, before tau overflows
            ("0.2 - s", "exp(800 * s)", 1e-3, NonPositiveCurvatureError),
            # kappa overflows past 0.887, tau fails at 0.125
            ("1 + exp(800 * s)", "1 / (s - 0.125)", 0.125, ExprDomainError),
            # within tau, the later term fails first, at 0.5
            ("1", "exp(1000 * s) + 1 / (s - 0.5)", 0.05, ExprDomainError),
        ],
    )
    def test_first_failing_abscissa_in_step_order(self, kappa, tau, step, error):
        k, t = parse_expr(kappa), parse_expr(tau)
        with pytest.raises(error) as info:
            _synthesize(k.eval, t.eval, step)
        assert str(info.value) == _first_scalar_error(k.eval, t.eval, step)


def _first_scalar_error(kappa, tau, step, a=0.0, b=1.0) -> str:
    """The error of walking the abscissae of RK4 one float at a time."""
    n = max(1, math.ceil((b - a) / step))
    h = (b - a) / n
    nodes = (a + h * np.arange(n + 1)).tolist()
    nodes[-1] = b
    stages = [a]
    for s, s_next in zip(nodes, nodes[1:]):
        stages += [s + 0.5 * h, s + h] + ([] if s + h == s_next else [s_next])
    try:
        for s in stages:
            k = kappa(s)
            if k <= 0.0:
                raise NonPositiveCurvatureError(f"kappa(s={s:g}) = {k:g} <= 0")
            tau(s)
    except (ExprDomainError, NonPositiveCurvatureError) as exc:
        return str(exc)
    raise AssertionError("no abscissa fails")
