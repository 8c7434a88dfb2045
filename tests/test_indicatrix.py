import math

import numpy as np
import pytest

from _oracle_constants import ORACLE
from mannheim_lab.frenet import CurveKind, constant_kind, frenet_frames, frenet_synthesize
from mannheim_lab.indicatrix import indicatrix_of
from mannheim_lab.lorentz import euclidean_rows, inner_rows, norm_rows
from mannheim_lab.mannheim import IDENTITIES, PairSamples, _field_rates
from mannheim_lab.reports import Verdict

SQRT3 = math.sqrt(3.0)


def image_reports(pair, grid_n):
    """The two image-rate reports of a pair: curvature, then torsion."""
    samples = pair.samples(grid_n)
    return [row.report(samples) for row in IDENTITIES if row.name.startswith("image-rate-")]


def planar_curve():
    """Timelike curve with zero torsion: its binormal image is a point."""
    return frenet_synthesize(CurveKind.TIMELIKE, lambda s: 1.0, lambda s: 0.0, (0.0, 1.0), 1e-3)


def rates(c, which, s):
    """ds_image/ds of the ``which`` image of ``c`` at ``s``, from the frame equations."""
    return _field_rates(frenet_frames(c, s), which)


class TestImages:
    def test_normal_image_of_reference_curve(self, example2):
        rows = indicatrix_of(example2, "N").samples(3).rows
        s = np.array([0.0, 0.5, 1.0])
        assert rows[:, 0].tolist() == s.tolist()
        want = np.stack((np.sinh(s), np.cosh(s), np.zeros(3)), axis=1)
        assert np.linalg.norm(rows[:, 1:] - want, axis=1).max() < 1e-12

    def test_binormal_image_rate_constant(self, example2):
        assert rates(example2, "B", [0.0, 0.3, 0.9]) == pytest.approx([SQRT3] * 3, abs=1e-12)

    def test_tangent_image_of_timelike_curve_is_hyperbolic(self, example2):
        points = indicatrix_of(example2, "T").samples(9).rows[:, 1:]
        assert np.abs(inner_rows(points, points) + 1.0).max() < 1e-9

    def test_sphere_membership(self, example1, example2, exact_pair_type3):
        # each image lies on the sphere <x,x> = its field's Gram sign
        for c in (example1, example2, exact_pair_type3.c, exact_pair_type3.cstar):
            signs = constant_kind(c, 9).signs
            for which, sign in zip("TNB", signs):
                points = indicatrix_of(c, which).samples(9).rows[:, 1:]
                assert np.abs(inner_rows(points, points) - sign).max() < 1e-9

    def test_degenerate_binormal_image(self):
        assert rates(planar_curve(), "B", [0.5])[0] == pytest.approx(0.0, abs=1e-12)

    def test_bad_field_name(self, example2):
        with pytest.raises(ValueError):
            indicatrix_of(example2, "Q")


class TestImageTangents:
    """Unit tangents of the images: the fourth-order central difference of
    the frame field over s, divided by the rate from the frame equations."""

    @staticmethod
    def unit_tangents(c, which, s, h=1e-3):
        s = np.asarray(s, dtype=float)

        def field(k):
            return getattr(frenet_frames(c, s + k * h), which)

        derivative = (field(-2) - 8 * field(-1) + 8 * field(1) - field(2)) / (12 * h)
        return derivative / rates(c, which, s)[:, None]

    def test_normal_image_tangent_direction(self, exact_pair_type3):
        # for a spacelike curve with timelike normal: N' = kappa T + tau B
        c = exact_pair_type3.c
        tangents = self.unit_tangents(c, "N", [0.1, 0.6])
        f = frenet_frames(c, [0.1, 0.6])
        want = (f.T * f.kappa[:, None] + f.B * f.tau[:, None]) / np.hypot(f.kappa, f.tau)[:, None]
        assert (euclidean_rows(tangents - want) < 1e-9).all()

    def test_binormal_image_tangent_closed_form(self, example2):
        # B' = -tau N for a timelike curve, so the unit tangent is -N
        s = np.array([0.1, 0.4, 0.9])
        want = np.stack((-np.sinh(s), -np.cosh(s), np.zeros(3)), axis=1)
        assert np.linalg.norm(self.unit_tangents(example2, "B", s) - want, axis=1).max() < 1e-10

    def test_unit_modulus(self, example1):
        for which in ("T", "N", "B"):
            v = self.unit_tangents(example1, which, [0.5])
            assert abs(abs(inner_rows(v, v)[0]) - 1.0) < 1e-10


class TestRateCrossCheck:
    def test_rate_matches_direct_differencing(self, example1, example2):
        h = 1e-5
        for c in (example1, example2):
            s = np.array([0.3, 0.6])
            fd_rate = norm_rows(frenet_frames(c, s + h).N - frenet_frames(c, s - h).N) / (2 * h)
            assert (np.abs(rates(c, "N", s) - fd_rate) < 1e-6).all()


class TestPairRelations:
    def test_reference_pairs_reported_with_oracle_values(self, example1_pair, example2_pair):
        for pair, name in ((example1_pair, "paper-example-1"), (example2_pair, "paper-example-2")):
            want = ORACLE[name]
            r1, r2 = image_reports(pair, 11)
            assert r1.verdict is Verdict.REPORTED
            assert r2.verdict is Verdict.REPORTED
            assert r1.details["alignment"] == want["image_alignment"]
            assert r1.max_residual == pytest.approx(want["image_rate_curvature"], abs=1e-8)
            assert r2.max_residual == pytest.approx(want["image_rate_torsion"], abs=1e-8)

    def test_exact_type3_pair_satisfies_both(self, exact_pair_type3):
        r1, r2 = image_reports(exact_pair_type3, 21)
        assert r1.verdict is Verdict.PASS
        assert r2.verdict is Verdict.PASS
        assert max(r1.max_residual, r2.max_residual) < 1e-10

    def test_exact_type2_pair_splits(self, exact_pair_type2):
        # with this fixture's rising torsion the two relations demand
        # opposite alignments, so one of them fails; a falling torsion
        # passes both (TestImageRateTruthTable)
        r1, r2 = image_reports(exact_pair_type2, 21)
        verdicts = {r1.verdict, r2.verdict}
        assert Verdict.PASS in verdicts and Verdict.FAIL in verdicts

    def test_image_point_sets_coincide_up_to_sign(self, exact_pair_type3):
        # the defining collinearity makes the N-image of C equal the
        # B-image of C* up to overall sign
        s = np.array([0.0, 0.5, 1.0])
        a = frenet_frames(exact_pair_type3.c, s).N
        b = frenet_frames(exact_pair_type3.cstar_raw, PairSamples(exact_pair_type3, s).t).B
        gap = np.minimum(np.linalg.norm(a - b, axis=1), np.linalg.norm(a + b, axis=1))
        assert gap.max() < 1e-9


class TestImageRateTruthTable:
    """Verdicts of the rate-coupled relations on exact pairs at grid 21.

    They follow the sign of the torsion slope, not the pair type: with a
    falling torsion one alignment satisfies both relations; with a rising
    one the curvature relation needs the other alignment and fails by about
    0.6 while the torsion relation passes.
    """

    @pytest.mark.parametrize("slope", (-0.2, 0.2))
    @pytest.mark.parametrize("pair_type", (2, 3, 5))
    def test_verdicts_follow_torsion_slope(self, exact_pair_of, pair_type, slope):
        pair = exact_pair_of(pair_type, slope)
        assert pair.pair_type.value == pair_type
        curvature, torsion = image_reports(pair, 21)
        assert torsion.verdict is Verdict.PASS
        assert torsion.max_residual < 1e-13
        if slope < 0:
            assert curvature.verdict is Verdict.PASS
            assert curvature.max_residual < 1e-13
        else:
            assert curvature.verdict is Verdict.FAIL
            assert 0.5 < curvature.max_residual < 0.7
