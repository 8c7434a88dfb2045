import math
import warnings

import numpy as np
import pytest

from mannheim_lab.builtins import builtin_curve
from mannheim_lab.lorentz import (
    CausalCharacter,
    Vec3L,
    causal_characters,
    cross_rows,
    euclidean_rows,
    inner_rows,
    norm_rows,
    power_rows,
    vec_rows,
)

BASIS = np.eye(3)


def characters(*rows):
    """The ``CausalCharacter`` of each row."""
    return [tuple(CausalCharacter)[k] for k in causal_characters(np.array(rows, dtype=float))]


def test_metric_values():
    assert inner_rows(BASIS, BASIS).tolist() == [-1.0, 1.0, 1.0]
    assert inner_rows(BASIS[1:2], BASIS[2:3]).tolist() == [0.0]
    assert inner_rows(np.array([[1.0, 2, 3]]), np.array([[4.0, 5, 6]])).tolist() == [24.0]


def test_inner_symmetric_bilinear():
    rng = np.random.default_rng(7)
    u, v, w = rng.uniform(-5, 5, (3, 200, 3))
    a, b = rng.uniform(-3, 3, (2, 200, 1))
    assert inner_rows(u, v) == pytest.approx(inner_rows(v, u), abs=1e-12)
    left = inner_rows(u * a + v * b, w)
    right = a[:, 0] * inner_rows(u, w) + b[:, 0] * inner_rows(v, w)
    assert left == pytest.approx(right, abs=1e-10)


def test_cross_basis_table():
    # the full multiplication table of the basis, exact
    e1, e2, e3 = BASIS.tolist()
    neg = lambda e: [-x for x in e]  # noqa: E731
    zero = [0.0, 0.0, 0.0]
    expected = {
        (0, 0): zero,
        (0, 1): neg(e3),
        (0, 2): e2,
        (1, 0): e3,
        (1, 1): zero,
        (1, 2): e1,
        (2, 0): neg(e2),
        (2, 1): neg(e1),
        (2, 2): zero,
    }
    left, right = np.array(list(expected)).T
    assert cross_rows(BASIS[left], BASIS[right]).tolist() == list(expected.values())


def test_cross_component_formula():
    got = cross_rows(np.array([[1.0, 2, 3]]), np.array([[4.0, 5, 6]]))
    assert got.tolist() == [[-3.0, -6.0, 3.0]]


def test_cross_orthogonal_and_antisymmetric():
    rng = np.random.default_rng(11)
    u, v = rng.uniform(-5, 5, (2, 200, 3))
    w = cross_rows(u, v)
    scale = np.maximum(1.0, euclidean_rows(u) * euclidean_rows(v))
    assert (np.abs(inner_rows(w, u)) < 1e-12 * scale).all()
    assert (np.abs(inner_rows(w, v)) < 1e-12 * scale).all()
    assert (w + cross_rows(v, u) == 0.0).all()


def test_causal_character():
    assert characters((1, 0, 0), (1, 1, 0), (0, 3, 4), (0, 0, 0)) == [
        CausalCharacter.TIMELIKE,
        CausalCharacter.NULL,
        CausalCharacter.SPACELIKE,
        CausalCharacter.ZERO,
    ]


def test_causal_character_scale_invariant():
    rng = np.random.default_rng(3)
    rows = rng.uniform(-4, 4, (100, 3))
    chars = causal_characters(rows)
    keep = chars != 2  # null rows may leave the band under scaling
    for scale in (0.5, -2.0, 17.0, -1e-3):
        assert (causal_characters(rows * scale)[keep] == chars[keep]).all()


def test_null_band_is_absolute():
    # <v,v> = 2e-10 + 1e-20 lies outside the band, 2e-13 + 1e-26 inside it
    assert characters((1.0, 1.0 + 1e-10, 0.0), (1.0, 1.0 + 1e-13, 0.0)) == [
        CausalCharacter.SPACELIKE,
        CausalCharacter.NULL,
    ]


@pytest.mark.parametrize(
    "row, want",
    [
        ((1e200, 1e200, 0.0), CausalCharacter.NULL),
        ((2e200, 1e200, 0.0), CausalCharacter.TIMELIKE),
        ((0.0, -1e200, 1e200), CausalCharacter.SPACELIKE),
        ((1.2e308, 1e308, 1e308), CausalCharacter.SPACELIKE),
        ((-1.7e308, 1e308, 1e308), CausalCharacter.TIMELIKE),
    ],
)
def test_overflowing_self_product_keeps_the_character_of_the_direction(row, want):
    # <v,v> overflows to inf or NaN; a NaN once read as spacelike
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert characters((0.0, 1.0, 0.0), row) == [CausalCharacter.SPACELIKE, want]


def test_norm():
    assert norm_rows(np.array([[1.0, 0, 0], [1, 1, 0], [0, 3, 4]])).tolist() == [1.0, 0.0, 5.0]


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
