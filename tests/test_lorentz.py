import math

import numpy as np
import pytest

from mannheim_lab.builtins import builtin_curve
from mannheim_lab.errors import NullInputError, OrientationMismatchError
from mannheim_lab.lorentz import (
    E1,
    E2,
    E3,
    AngleKind,
    CausalCharacter,
    Vec3L,
    angle_between,
    causal_character,
    cross,
    euclidean_rows,
    inner,
    norm,
    power_rows,
    vec_rows,
)

BASIS = (E1, E2, E3)


def test_metric_values():
    assert inner(E1, E1) == -1.0
    assert inner(E2, E3) == 0.0
    assert inner(Vec3L(1, 2, 3), Vec3L(4, 5, 6)) == 24.0


def test_inner_symmetric_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(200):
        u, v, w = (Vec3L(*rng.uniform(-5, 5, 3)) for _ in range(3))
        a, b = rng.uniform(-3, 3, 2)
        assert inner(u, v) == pytest.approx(inner(v, u), abs=1e-12)
        left = inner(u * a + v * b, w)
        right = a * inner(u, w) + b * inner(v, w)
        assert left == pytest.approx(right, abs=1e-10)


def test_cross_basis_table():
    # the full multiplication table of the basis, exact
    expected = {
        (0, 0): Vec3L(0, 0, 0),
        (0, 1): -E3,
        (0, 2): E2,
        (1, 0): E3,
        (1, 1): Vec3L(0, 0, 0),
        (1, 2): E1,
        (2, 0): -E2,
        (2, 1): -E1,
        (2, 2): Vec3L(0, 0, 0),
    }
    for (i, j), want in expected.items():
        assert cross(BASIS[i], BASIS[j]) == want


def test_cross_component_formula():
    assert cross(Vec3L(1, 2, 3), Vec3L(4, 5, 6)) == Vec3L(-3, -6, 3)


def test_cross_orthogonal_and_antisymmetric():
    rng = np.random.default_rng(11)
    for _ in range(200):
        u, v = Vec3L(*rng.uniform(-5, 5, 3)), Vec3L(*rng.uniform(-5, 5, 3))
        w = cross(u, v)
        scale = max(1.0, u.euclidean_norm() * v.euclidean_norm())
        assert abs(inner(w, u)) < 1e-12 * scale
        assert abs(inner(w, v)) < 1e-12 * scale
        assert (w + cross(v, u)).euclidean_norm() == 0.0


def test_causal_character():
    assert causal_character(Vec3L(1, 0, 0)) is CausalCharacter.TIMELIKE
    assert causal_character(Vec3L(1, 1, 0)) is CausalCharacter.NULL
    assert causal_character(Vec3L(0, 3, 4)) is CausalCharacter.SPACELIKE
    assert causal_character(Vec3L(0, 0, 0)) is CausalCharacter.ZERO


def test_causal_character_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = Vec3L(*rng.uniform(-4, 4, 3))
        ch = causal_character(v)
        if ch is CausalCharacter.NULL:
            continue
        for scale in (0.5, -2.0, 17.0, -1e-3):
            assert causal_character(v * scale) is ch


def test_null_band_is_absolute():
    # <v,v> = 2e-10 + 1e-20 lies outside the band, 2e-13 + 1e-26 inside it
    assert causal_character(Vec3L(1.0, 1.0 + 1e-10, 0.0)) is CausalCharacter.SPACELIKE
    assert causal_character(Vec3L(1.0, 1.0 + 1e-13, 0.0)) is CausalCharacter.NULL


def test_norm():
    assert norm(Vec3L(1, 0, 0)) == 1.0
    assert norm(Vec3L(1, 1, 0)) == 0.0
    assert norm(Vec3L(0, 3, 4)) == 5.0


def test_rejects_non_finite_components():
    with pytest.raises(ValueError):
        Vec3L(math.nan, 0, 0)
    with pytest.raises(ValueError):
        Vec3L(0.0, math.inf, 0.0)


class TestRowKernelBits:
    """The row kernels give the bits of the per-element Python code."""

    @staticmethod
    def sample(n=100_000):
        rng = np.random.default_rng(20)
        x = np.copysign(10.0 ** rng.uniform(-3.0, 50.0, n), rng.uniform(-1.0, 1.0, n))
        x[:2] = 0.0, -0.0
        return x

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_power_rows_is_python_pow(self, k):
        x = self.sample()
        assert power_rows(x, k).tobytes() == np.array([v**k for v in x.tolist()]).tobytes()

    def test_power_sample_tells_pow_from_squaring(self):
        # a kernel that squared, as np.power does at k = 2, would fail above
        assert any(v * v != v**2 for v in self.sample().tolist())

    def test_euclidean_rows_within_an_ulp_of_math_hypot(self):
        rows = self.sample(30_000).reshape(-1, 3)
        want = np.array([math.hypot(*row) for row in rows.tolist()])
        assert (np.abs(euclidean_rows(rows) - want) <= np.spacing(want)).all()

    def test_euclidean_rows_do_not_overflow(self):
        rows = np.full((2, 3), 1e200)
        rows[1] *= -1.0
        assert np.isfinite(euclidean_rows(rows)).all()
        assert euclidean_rows(rows)[0] == pytest.approx(math.sqrt(3.0) * 1e200, rel=1e-15)

    @pytest.mark.parametrize(
        "name, p, q, r",
        [
            ("paper-example-1", -0.5, 0.5, 0.5 * math.sqrt(5.0)),
            ("paper-example-2", 2.0, 2.0, math.sqrt(3.0)),
        ],
    )
    def test_helix_is_math_sinh_and_cosh_per_element(self, name, p, q, r):
        ts = np.linspace(-3.0, 3.0, 1001)
        sh = np.array([math.sinh(t) for t in ts.tolist()])
        ch = np.array([math.cosh(t) for t in ts.tolist()])
        got = builtin_curve(name, (-3.0, 3.0)).positions(ts)
        assert got.tobytes() == vec_rows(p * sh, q * ch, r * ts).tobytes()


class TestAngles:
    def test_hyperbolic_same_vector(self):
        a = angle_between(Vec3L(1, 0, 0), Vec3L(1, 0, 0))
        assert a.kind is AngleKind.HYPERBOLIC
        assert a.theta == 0.0

    def test_spacelike_orthogonal_axes(self):
        a = angle_between(E2, E3)
        assert a.kind is AngleKind.SPACELIKE
        assert a.theta == pytest.approx(math.pi / 2)

    def test_central_angle(self):
        # plane of (0,1,0) and (4,5,0) contains the timelike (4,0,0)
        a = angle_between(Vec3L(0, 1, 0), Vec3L(4, 5, 0))
        assert a.kind is AngleKind.CENTRAL
        assert math.cosh(a.theta) == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_mixed_kind(self):
        a = angle_between(Vec3L(0, 1, 0), Vec3L(2, 0, 0))
        assert a.kind is AngleKind.LORENTZIAN_TIMELIKE
        assert a.theta == 0.0
        b = angle_between(Vec3L(0, 1, 0), Vec3L(2, 1, 0))
        assert math.sinh(b.theta) == pytest.approx(1.0 / math.sqrt(3), abs=1e-12)

    def test_null_input_rejected(self):
        with pytest.raises(NullInputError):
            angle_between(Vec3L(1, 1, 0), E2)
        with pytest.raises(NullInputError):
            angle_between(Vec3L(0, 0, 0), E2)

    def test_orientation_mismatch(self):
        with pytest.raises(OrientationMismatchError):
            angle_between(Vec3L(1, 0, 0), Vec3L(-1, 0, 0))

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 100:
            u, v = Vec3L(*rng.uniform(-4, 4, 3)), Vec3L(*rng.uniform(-4, 4, 3))
            try:
                a = angle_between(u, v)
                b = angle_between(v, u)
            except (NullInputError, OrientationMismatchError):
                continue
            assert a.kind is b.kind
            assert a.theta == pytest.approx(b.theta, abs=1e-12)
            done += 1

    def test_theta_nonnegative(self):
        rng = np.random.default_rng(29)
        done = 0
        while done < 100:
            u, v = Vec3L(*rng.uniform(-4, 4, 3)), Vec3L(*rng.uniform(-4, 4, 3))
            try:
                a = angle_between(u, v)
            except (NullInputError, OrientationMismatchError):
                continue
            assert a.theta >= 0.0
            done += 1
