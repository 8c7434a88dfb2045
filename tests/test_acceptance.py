"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 10 has two halves.  On the exact type 2, 3 and 5 partner pairs,
which meet the defining collinearity to rounding, it shows the
curvature-center ratio varying (the Mannheim theorem fails).  On the two
built-in reference pairs it pins the ratio as constant: each is an orbit of
a one-parameter isometry group (a boost plus a translation), so every frame
scalar, and hence the ratio, is exactly constant along it, and the verifier
flags that as Reported.  See README, "Known negative results".
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from _oracle_constants import ORACLE
from conftest import central_difference
from test_expr import run_fuzz_comparison
from test_mannheim import given_samples
from mannheim_lab.builtins import builtin_curve
from mannheim_lab.errors import UnsupportedCombinationError
from mannheim_lab.expr import parse_expr
from mannheim_lab.frenet import (
    CurveKind,
    frame_gram_residual,
    frenet_apparatus,
    frenet_frames,
    frenet_synthesize,
    synthesized_gram_drift,
)
from mannheim_lab.lorentz import Vec3L, cross_rows, euclidean_rows
from mannheim_lab.mannheim import (
    IDENTITIES,
    MannheimPair,
    MannheimPairType,
    PairSamples,
    mannheim_curve_test,
    offset_along_binormal,
)
from mannheim_lab.reports import Verdict

ROWS = {row.name: row for row in IDENTITIES}


def _report(pair, name, grid_n):
    return ROWS[name].report(pair.samples(grid_n))


def _given(pair_type, lam, kappa, tau, kappa_star=0.0, tau_star=0.0, sc=0.0, cc=0.0, **columns):
    """One-row PairSamples holding given scalars, components and ``columns``."""
    scalars = np.array([[kappa], [tau], [kappa_star], [tau_star]])
    return given_samples(pair_type, lam, scalars=scalars, components=np.array([[sc], [cc]]), **columns)


def _residual(name, samples):
    """The residual of identity ``name`` on a one-row PairSamples."""
    return float(ROWS[name].residual(samples)[0])

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)

@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d}: FAIL - {text}")
        raise
    print(f"[acceptance] criterion {number:2d}: PASS - {text}")


def closed_form_frames(name, s):
    if name == "paper-example-1":
        return (
            Vec3L(-0.5 * math.cosh(s), 0.5 * math.sinh(s), SQRT5 / 2),
            Vec3L(-math.sinh(s), math.cosh(s), 0.0),
            Vec3L(-SQRT5 / 2 * math.cosh(s), SQRT5 / 2 * math.sinh(s), 0.5),
        )
    return (
        Vec3L(2.0 * math.cosh(s), 2.0 * math.sinh(s), SQRT3),
        Vec3L(math.sinh(s), math.cosh(s), 0.0),
        Vec3L(-SQRT3 * math.cosh(s), -SQRT3 * math.sinh(s), -2.0),
    )


def closed_form_offset(name, s):
    if name == "paper-example-1":
        return Vec3L(
            -0.5 * math.sinh(s) - 10 * SQRT5 * math.cosh(s),
            0.5 * math.cosh(s) + 10 * SQRT5 * math.sinh(s),
            SQRT5 / 2 * s + 10.0,
        )
    return Vec3L(
        2.0 * math.sinh(s) - 20 * SQRT3 * math.cosh(s),
        2.0 * math.cosh(s) - 20 * SQRT3 * math.sinh(s),
        SQRT3 * s - 40.0,
    )


def test_criterion_01_reference_frames():
    with criterion(1, "reference frames match closed forms at s in {0, 0.5, 1} to 1e-9"):
        for name in ("paper-example-1", "paper-example-2"):
            c = builtin_curve(name)
            for s in (0.0, 0.5, 1.0):
                f = frenet_apparatus(c, s)
                for got, want in zip((f.T, f.N, f.B), closed_form_frames(name, s)):
                    for g, w in zip(got[0].tolist(), want.as_tuple()):
                        assert abs(g - w) < 1e-9


def test_criterion_02_offset_parametrizations():
    with criterion(2, "binormal offsets at lambda=20 match printed forms at 101 points to 1e-9"):
        for name in ("paper-example-1", "paper-example-2"):
            off = offset_along_binormal(builtin_curve(name), 20.0)
            ss = np.linspace(0.0, 1.0, 101)
            for s, got in zip(ss.tolist(), off.positions(ss).tolist()):
                want = closed_form_offset(name, s)
                for g, w in zip(got, want.as_tuple()):
                    assert abs(g - w) < 1e-9


def test_criterion_03_scalar_apparatus():
    with criterion(3, "extracted (kappa, tau) = (1/2, sqrt5/2) and (2, sqrt3), constant to 1e-9"):
        targets = {
            "paper-example-1": (0.5, SQRT5 / 2),
            "paper-example-2": (2.0, SQRT3),
        }
        for name, (k_want, t_want) in targets.items():
            f = frenet_frames(builtin_curve(name), np.linspace(0.0, 1.0, 101))
            kappas, taus = f.kappa.tolist(), f.tau.tolist()
            assert max(kappas) - min(kappas) < 1e-9
            assert max(taus) - min(taus) < 1e-9
            assert abs(kappas[0] - k_want) < 1e-9
            assert abs(taus[0] - t_want) < 1e-9


def test_criterion_04_distance_constancy(example1_pair, example2_pair):
    with criterion(4, "corresponding-point distance is 20 on both pairs, deviation < 1e-9"):
        for pair in (example1_pair, example2_pair):
            rep = _report(pair, "distance-constancy", 101)
            assert rep.verdict is Verdict.PASS
            assert rep.details["distance"] == 20.0
            assert rep.max_residual < 1e-9


def test_criterion_05_frame_invariants(example1_pair, example2_pair):
    with criterion(5, "Gram residuals < 1e-9, B = T x N < 1e-9, synthesis drift < 1e-8"):
        curves = [
            builtin_curve("paper-example-1"),
            builtin_curve("paper-example-2"),
            example1_pair.c,
            example2_pair.c,
        ]
        for c in curves:
            f = frenet_frames(c, np.linspace(*c.domain, 33))
            assert frame_gram_residual(f.T, f.N, f.B, f.kinds).max() < 1e-9
            assert (euclidean_rows(f.B - cross_rows(f.T, f.N)) < 1e-9).all()
        for kind in CurveKind:
            synth = frenet_synthesize(kind, lambda s: 2.0, lambda s: 1.0, (0.0, 1.0), 1e-3)
            assert synthesized_gram_drift(synth) < 1e-8


def test_criterion_06_synthesis_round_trip():
    with criterion(6, "synthesis round trip: constant scalars to 1e-6, varying to 1e-5, all kinds"):
        rng = np.random.default_rng(17)
        for kind in CurveKind:
            const = frenet_synthesize(kind, lambda s: 1.4, lambda s: 0.8, (0.0, 1.0), 1e-3)
            f = frenet_frames(const, rng.uniform(0.0, 1.0, 15))
            assert (np.abs(f.kappa - 1.4) < 1e-6).all()
            assert (np.abs(f.tau - 0.8) < 1e-6).all()

            kf = parse_expr("1.0 + 0.1 * sin(s)").eval
            tf = parse_expr("0.7 + 0.15 * cos(s)").eval
            varying = frenet_synthesize(kind, kf, tf, (0.0, 1.0), 1e-3)
            s = rng.uniform(0.0, 1.0, 15)
            f = frenet_frames(varying, s)
            assert (np.abs(f.kappa - [kf(x) for x in s.tolist()]) < 1e-5).all()
            assert (np.abs(f.tau - [tf(x) for x in s.tolist()]) < 1e-5).all()


def test_criterion_07_cross_product_table():
    with criterion(7, "all nine basis products match the multiplication table exactly"):
        basis = np.eye(3)
        e1, e2, e3 = basis.tolist()
        neg = lambda e: [-x for x in e]  # noqa: E731
        zero = [0.0, 0.0, 0.0]
        table = {
            (0, 0): zero, (0, 1): neg(e3), (0, 2): e2,
            (1, 0): e3, (1, 1): zero, (1, 2): e1,
            (2, 0): neg(e2), (2, 1): neg(e1), (2, 2): zero,
        }
        left, right = np.array(list(table)).T
        assert cross_rows(basis[left], basis[right]).tolist() == list(table.values())


# ---------------------------------------------------------------------------
# criterion 8: conditional identity suite


# Types 1 and 4 have no partner pair (see _demonstrate_identities); a helix
# of the row's curve kind is the candidate the partner test rejects.
UNMEETABLE_CANDIDATES = {
    MannheimPairType.TYPE1: (CurveKind.SPACELIKE_EPS_MINUS, 2.0, 1.0),
    MannheimPairType.TYPE4: (CurveKind.TIMELIKE, 2.0, 1.0),
}

HYPOTHESIS_TOL = 1e-6


def _signed(term, x, s_comp, c_comp):
    """``x`` times a signed component of a type-table row ("-s" is -s_comp)."""
    sign = -1.0 if term[0] == "-" else 1.0
    return sign * x * (s_comp if term[1] == "s" else c_comp)


def _helix(kind, kappa, tau):
    return frenet_synthesize(kind, lambda s: kappa, lambda s: tau, (0.0, 1.0), 1e-3)


def _pipeline(base, pair_type):
    """The partner test on ``base``, then its normal offset at the estimated lam."""
    test = mannheim_curve_test(base, pair_type, 101)
    assert test.constant
    pair = MannheimPair.from_normal_offset(base, test.lambda_estimate, 512)
    assert pair.pair_type is pair_type
    return test.lambda_estimate, pair


def _run_verifier_suite_on(pair):
    """Criterion 8 on a pair meeting the hypothesis: every report but the
    never-judged literal torsion square carries a genuine verdict, and the
    identities that hold on partner pairs (distance, angle rate, varying
    center ratio) pass."""
    samples = pair.samples(21)
    assert samples.hypothesis[0]
    reports = {row.name: row.report(samples) for row in IDENTITIES}
    for name, rep in reports.items():
        judged = rep.verdict in (Verdict.PASS, Verdict.FAIL)
        assert judged is (name != "torsion-square-literal"), name
    for name in ("distance-constancy", "frame-angle-rate", "center-ratio-nonconstancy"):
        assert reports[name].verdict is Verdict.PASS, name


def _demonstrate_identities(pair_type):
    """Scalar frame data constructed to satisfy the type's identity system.

    Components are hyperbolic for the four types whose tables use sinh/cosh
    and circular for the one that uses sin/cos, exactly as the catalogued
    relations demand; each identity is demonstrated on data solving it, the
    only honest option since no curve pair of types 1 and 4 can satisfy the
    defining collinearity (their normal/binormal causal characters clash).
    """
    t = pair_type
    spec = t.spec
    circular = t is MannheimPairType.TYPE5

    def comps(th):
        return (math.sin(th), math.cos(th)) if circular else (math.sinh(th), math.cosh(th))

    grid = np.linspace(0.0, 1.0, 21)

    # reciprocal torsion relation: tau* defined by the relation itself
    lam = 0.7
    for s in grid:
        kappa = 1.0 + 0.2 * s
        tau = 0.9
        tau_star = spec.torsion_sign * kappa / (lam * tau)
        assert _residual("torsion-reciprocal", _given(t, lam, kappa, tau, tau_star=tau_star)) < 1e-5

    # linear relation with mu = lam * (component ratio), constant angle
    theta0, lam2 = (0.5, 0.8) if spec.linear_sign > 0 else (1.2, 2.0)
    s0, c0 = comps(theta0)
    mu = lam2 * s0 / c0
    for s in grid:
        tau = 1.0 + 0.3 * math.sin(s)
        kappa = (1.0 - mu * tau) / (spec.linear_sign * lam2)
        assert _residual("linear-curvature-torsion", _given(t, lam2, kappa, tau, mu=np.array([mu]))) < 1e-5

    # frame rows: projections define kappa and tau; the angle varies so the
    # rate row is a genuine numerical differentiation
    def theta_fn(s):
        return 0.4 + 0.2 * s

    for s in grid:
        sc, cc = comps(theta_fn(s))
        tau_star = 1.1 + 0.1 * s
        kappa, tau = (_signed(term, tau_star, sc, cc) for term in spec.projections)
        dtheta = float(central_difference(theta_fn, [s], 1e-3)[0])
        kappa_star = spec.angle_rate_sign * dtheta  # ds*/ds prescribed as 1
        samples = _given(
            t, 0.0, kappa, tau, kappa_star, tau_star, sc, cc,
            dtheta=np.array([dtheta]), image_rates=np.ones((2, 1)),
        )
        r1, r2, r3, r4 = (
            _residual(name, samples)
            for name in ("frame-angle-rate", "torsion-composition", "curvature-projection", "torsion-projection")
        )
        assert r1 < 1e-4 and r2 < 1e-4 and r3 < 1e-4 and r4 < 1e-4
        # squared torsion relation telescopes on the same data
        assert _residual("torsion-square", samples) < 1e-5

        # rate-coupled image relations with free rates
        rows = {g: tuple(float(r[0]) for r in samples.image_residuals(g)) for g in (1.0, -1.0)}
        if t in (MannheimPairType.TYPE2, MannheimPairType.TYPE4):
            # the published row pair demands opposite alignments; each row is
            # demonstrable alone, their conjunction is not
            assert min(min(rows[g][0] for g in rows), 1.0) < 1e-4
            assert min(min(rows[g][1] for g in rows), 1.0) < 1e-4
            assert min(max(rows[g]) for g in rows) > 1e-3
        else:
            assert min(max(rows[g]) for g in rows) < 1e-4


def test_criterion_08_conditional_identity_suite(exact_pair_of):
    with criterion(8, "identity suite: pipeline residuals recorded, identities demonstrated"):
        for pair_type in MannheimPairType:
            if pair_type in UNMEETABLE_CANDIDATES:
                with pytest.raises(UnsupportedCombinationError):
                    mannheim_curve_test(_helix(*UNMEETABLE_CANDIDATES[pair_type]), pair_type, 101)
                print(f"    pipeline {pair_type.name}: no partner pair; identities demonstrated")
                _demonstrate_identities(pair_type)
                continue
            for slope in (0.2, -0.2):
                exact = exact_pair_of(pair_type.value, slope)
                lam, pair = _pipeline(exact.c, pair_type)
                worst = max(pair.samples(101).collinearity)
                print(
                    f"    pipeline {pair_type.name} slope {slope:+g}: lambda_estimate={lam:.15g}, "
                    f"collinearity residual={worst:.3e}"
                )
                assert abs(lam - exact.lam) <= 1e-12
                assert worst <= HYPOTHESIS_TOL
                _run_verifier_suite_on(pair)


def test_criterion_09_oracle_regression(example1_pair, example2_pair):
    with criterion(9, "reference-pair residuals, angle and classification match frozen oracle"):
        assert example1_pair.pair_type is MannheimPairType.TYPE3
        assert example2_pair.pair_type is MannheimPairType.TYPE1
        report_keys = {
            "torsion-reciprocal": "torsion_reciprocal",
            "linear-curvature-torsion": "linear_relation",
            "frame-angle-rate": "frame_angle_rate",
            "torsion-composition": "torsion_composition",
            "curvature-projection": "curvature_projection",
            "torsion-projection": "torsion_projection",
            "torsion-square": "torsion_square",
            "torsion-square-literal": "torsion_square_literal",
            "image-rate-curvature": "image_rate_curvature",
            "image-rate-torsion": "image_rate_torsion",
        }
        # every identity has an oracle key, or is checked on its own below
        unkeyed = {"distance-constancy", "center-ratio-nonconstancy"}
        assert set(report_keys) | unkeyed == {row.name for row in IDENTITIES}
        for pair, name in (
            (example1_pair, "paper-example-1"),
            (example2_pair, "paper-example-2"),
        ):
            want = ORACLE[name]
            for s in (0.0, pair.c.domain[1] / 2, pair.c.domain[1]):
                view = PairSamples(pair, [s])
                assert view.collinearity[0] == pytest.approx(want["rho"], abs=1e-8)
                assert view.theta[0] == pytest.approx(want["theta"], abs=1e-8)
            reports = [_report(pair, name, 11) for name in report_keys]
            for rep in reports:
                assert rep.verdict is Verdict.REPORTED
                key = report_keys[rep.identity]
                assert rep.max_residual == pytest.approx(want[key], abs=1e-8), rep.identity
            ratio = _report(pair, "center-ratio-nonconstancy", 11)
            assert ratio.details["ratio_mean"] == pytest.approx(want["center_ratio"], abs=1e-8)


def test_criterion_10_center_ratio_nonconstancy(
    exact_pair_type2, exact_pair_type3, exact_pair_type5, example1_pair, example2_pair
):
    """The ratio varies on genuine partner pairs, and is constant on the references.

    The non-constancy half runs only on pairs whose collinearity residual is
    asserted below the hypothesis threshold.  The reference pairs are not
    partner pairs (residuals 0.50 and 2.0) and are boost-plus-translation
    orbits, so their ratio is constant to rounding; that half fails if it
    ever starts to drift.
    """
    with criterion(
        10,
        "center ratio varies on exact type 2/3/5 pairs, constant on both reference pairs",
    ):
        for pair in (exact_pair_type2, exact_pair_type3, exact_pair_type5):
            name = pair.pair_type.name
            rho = max(pair.samples(101).collinearity)
            assert rho < HYPOTHESIS_TOL, f"{name}: collinearity residual {rho:.3e}"
            rep = _report(pair, "center-ratio-nonconstancy", 101)
            sd, mean = rep.details["ratio_sd"], rep.details["ratio_mean"]
            print(f"    {name}: ratio sd/|mean| = {sd / abs(mean):.3e}")
            assert rep.verdict is Verdict.PASS, name
            assert sd > 1e-6 * abs(mean), f"{name}: sd={sd:.3e}, mean={mean:.6g}"
        for pair, name in (
            (example1_pair, "paper-example-1"),
            (example2_pair, "paper-example-2"),
        ):
            rep = _report(pair, "center-ratio-nonconstancy", 101)
            sd, mean = rep.details["ratio_sd"], rep.details["ratio_mean"]
            print(f"    {name}: ratio sd/|mean| = {sd / abs(mean):.3e}")
            assert rep.verdict is Verdict.REPORTED, name
            assert rep.details["constant_ratio"] is True, name
            assert sd <= 1e-9 * abs(mean), f"{name}: sd={sd:.3e}, mean={mean:.6g}"


def test_criterion_11_expression_fuzz():
    with criterion(11, "10^4-string fuzz corpus agrees with the reference parser"):
        accepted, rejected = run_fuzz_comparison(10_000)
        print(f"    fuzz corpus: {accepted} accepted, {rejected} rejected")
        assert accepted + rejected == 10_000
        assert accepted > 2000
        assert rejected > 2000
