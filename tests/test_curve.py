import io
import math
import os
import re
import tempfile

import numpy as np
import pytest

from conftest import EXACT_PAIR_BASES, central_difference, closed_form_curve, closed_form_helix
from mannheim_lab import curve as curve_module
from mannheim_lab import exact_partner_pair, parse_expr
from mannheim_lab.builtins import builtin_curve
from mannheim_lab.curve import (
    INVERSE_TABLE_SIZE,
    MAX_TABLE_SIZE,
    QUADRATURE_TOL,
    CubicHermiteSpline,
    Curve,
    CurveSamples,
    PchipInterpolator,
    UnitChain,
    _adaptive_pieces,
    _first_points,
    classify_curve,
    curve_from_samples,
    reparametrize_unit,
    sample,
)
from mannheim_lab.cli import _ensure_unit, resolve_curve_spec
from mannheim_lab.errors import (
    ArcLengthOverflowError,
    CsvFormatError,
    MixedCausalCharacterError,
    NullTangentError,
    OutOfDomainError,
    TableSizeError,
)
from mannheim_lab.frenet import CurveKind, frenet_synthesize
from mannheim_lab.lorentz import CausalCharacter, euclidean_rows, inner_rows
from mannheim_lab.mannheim import MannheimPair, offset_along_binormal, offset_along_normal

SQRT3 = math.sqrt(3.0)


def line_curve(direction, domain=(0.0, 3.0), **kwargs):
    dx, dy, dz = direction
    rows = (lambda t: (dx * t, dy * t, dz * t), lambda t: direction)
    return closed_form_curve(rows, domain, "line", **kwargs)


def simpson(f, a, b, eps=QUADRATURE_TOL):
    """Adaptive Simpson integral of ``f`` over [a, b]: the one-piece ``_adaptive_pieces``."""
    x = np.array([a, b], dtype=float)
    return float(_adaptive_pieces(f, x, eps, f(_first_points(x)))[0])


def arc_table(c, size):
    """The arc-length table of ``c`` with ``size`` pieces, as ``reparametrize_unit`` builds it."""
    return UnitChain(c, size).arc_length().arc_table


def unit_speed_deviation(c, grid_size):
    """Largest deviation of |<a',a'>| from 1 on a uniform grid."""
    d1 = c.tangents(np.linspace(*c.domain, grid_size))
    return float(np.abs(np.abs(inner_rows(d1, d1)) - 1.0).max())


def distance(p, q):
    """Euclidean distance of each row pair."""
    return euclidean_rows(np.asarray(p) - np.asarray(q))


def test_arc_table_evaluates_each_node_speed_once(monkeypatch, exact_pair_type2):
    c = offset_along_normal(exact_pair_type2.c, -0.3)  # speed varies along it
    size = 64
    calls = []
    closed_form = c._squares

    def counted(ts):
        calls.append(ts.tolist())
        return closed_form(ts)

    def no_tangents(ts):
        raise AssertionError("the table classifies the tangent from the squares")

    # the table reads the offset's closed-form square, not its derivative,
    # and classifies the tangent from that square's signs
    monkeypatch.setattr(c, "_squares", counted)
    monkeypatch.setattr(c, "tangents", no_tangents)
    table = arc_table(c, size)
    # no piece splits past the first level: one call covers 1 speed per node,
    # plus a midpoint and two quarter points per piece
    assert len(calls) == 1
    assert len(calls[0]) == len(set(calls[0])) == 4 * size + 1
    monkeypatch.undo()
    expected = [0.0]
    for t0, t1 in zip(table.t_nodes[:-1], table.t_nodes[1:]):
        piece = simpson(c.speeds, float(t0), float(t1), QUADRATURE_TOL / size)
        expected.append(expected[-1] + piece)
    assert np.array_equal(table.s_nodes, np.array(expected))


def test_adaptive_simpson():
    assert simpson(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-12)
    assert simpson(lambda t: t * t, -1.0, 2.0) == pytest.approx(3.0, abs=1e-12)
    assert simpson(np.cos, 2.0, 2.0) == 0.0
    # several pieces at once, each to its own tolerance
    x = np.array([0.0, 0.25, 1.0, 1.0])
    pieces = _adaptive_pieces(np.exp, x, QUADRATURE_TOL, np.exp(_first_points(x)))
    assert pieces == pytest.approx(np.exp(x[1:]) - np.exp(x[:-1]), abs=1e-12)
    assert pieces[-1] == 0.0


class TestSpeed:
    def test_builtin_unit(self, example1, example2):
        for c in (example1, example2):
            assert c.speeds([0.0, 0.3, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_offset_constant_speed(self, example2):
        off = offset_along_binormal(example2, 20.0)
        assert off.speeds([0.0, 0.5, 1.0]) == pytest.approx(math.sqrt(1199.0), abs=1e-10)

    def test_out_of_domain(self, example1):
        with pytest.raises(OutOfDomainError):
            example1.speeds([0.5, 2.0])


class TestDomainChecks:
    def test_parameter_within_slack_reads_as_the_end(self, example1):
        a, b = example1.domain
        slack = 1e-9 * (b - a)
        for end, past in ((a, a - 0.5 * slack), (b, b + 0.5 * slack)):
            assert past != end
            got, want = example1.positions([0.5, past]), example1.positions([0.5, end])
            assert got.tobytes() == want.tobytes()

    def test_parameter_past_slack_names_first_offender(self, example1):
        a, b = example1.domain
        slack = 1e-9 * (b - a)
        first, second = b + 2.0 * slack, a - 2.0 * slack
        for query in (example1.positions, example1.jets, example1.speeds):
            with pytest.raises(OutOfDomainError, match=re.escape(f"t={first!r} outside domain")):
                query([0.5, first, second])

    def test_nan_reaches_the_finiteness_check(self, example1):
        for query, what in (
            (example1.positions, "positions"),
            (example1.tangents, "tangents"),
            (example1.jets, "jets"),
            (example1.speeds, "tangents"),  # no closed-form speed: the norm of the tangents
        ):
            with pytest.raises(ValueError, match=re.escape(f"non-finite {what} of 'paper-example-1' at t=nan")):
                query([0.2, math.nan, 0.5])
        table = reparametrize_unit(example1, 64).arc_table
        assert np.isnan(table.t_of_s(np.array([math.nan, 0.1]))[0])

    def test_empty_grid(self, example1):
        assert example1.positions([]).shape == (0, 3)
        assert example1.speeds([]).shape == (0,)

    def test_table_lookup_clamps_into_range(self, example2):
        c = offset_along_binormal(example2, 20.0)
        table = reparametrize_unit(c, 64).arc_table
        past = table.total * (1.0 + 1e-15)
        assert past > table.total
        assert table.t_of_s(np.array([past])).tobytes() == table.t_of_s(np.array([table.total])).tobytes()

    def test_non_finite_third_derivative_alone_is_named(self):
        spike = lambda t: (np.where(t == 0.3, np.inf, 0.0), 0.0, 0.0)
        rows = (lambda t: (t, 0.0, 0.0), lambda t: (1.0, 0.0, 0.0), lambda t: (0.0, 0.0, 0.0), spike)
        c = closed_form_curve(rows, (0.0, 1.0), "spike")
        ts = [0.1, 0.2, 0.3, 0.4]
        assert np.isfinite(c.positions(ts)).all() and np.isfinite(c.tangents(ts)).all()
        with pytest.raises(ValueError, match=re.escape("non-finite jets of 'spike' at t=0.3")):
            c.jets(ts)


class TestClassify:
    def test_examples(self, example1, example2):
        assert classify_curve(example1, 33) is CausalCharacter.SPACELIKE
        assert classify_curve(example2, 33) is CausalCharacter.TIMELIKE

    def test_null_line(self):
        with pytest.raises(NullTangentError):
            classify_curve(line_curve((1.0, 1.0, 0.0)), 8)

    @staticmethod
    def _mixed() -> Curve:
        # tangent (1, 2t, 0): timelike near 0, null at t = 1/2, spacelike beyond
        rows = (lambda t: (t, t * t, 0.0), lambda t: (1.0, 2.0 * t, 0.0), lambda t: (0.0, 2.0, 0.0))
        return closed_form_curve(rows, (0.0, 2.0), "mixed")

    def test_mixed(self):
        # no node of 32 points over [0, 2] is t = 1/2
        with pytest.raises(MixedCausalCharacterError, match="near t=0.516129$"):
            classify_curve(self._mixed(), 32)

    def test_null_row_of_a_mixed_curve(self):
        # node 8 of 33 points is t = 1/2, where the tangent (1, 1, 0) is null
        with pytest.raises(NullTangentError, match="null at t=0.5$"):
            classify_curve(self._mixed(), 33)

    def test_grid_validation(self, example1):
        with pytest.raises(ValueError):
            classify_curve(example1, 1)


class TestArclength:
    def test_unit_speed_interval(self, example2):
        assert arc_table(example2, 16).total == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_interval(self, example1):
        assert simpson(example1.speeds, 0.4, 0.4) == 0.0

    def test_constant_speed_two(self):
        c = line_curve((0.0, 2.0, 0.0))
        assert arc_table(c, 16).total == pytest.approx(6.0, abs=1e-10)

    def test_additive(self, example2):
        off = offset_along_binormal(example2, 20.0)
        total = arc_table(off, 16).total
        split = simpson(off.speeds, 0.0, 0.3) + simpson(off.speeds, 0.3, 1.0)
        assert split == pytest.approx(total, abs=2e-10)

    def test_null_rejected(self):
        with pytest.raises(NullTangentError):
            arc_table(line_curve((1.0, 1.0, 0.0)), 16)

    def test_overflowing_square_is_named(self, example2):
        # (lam tau)^2 overflows: the square is checked before its sign classifies the tangent
        off = offset_along_binormal(example2, 1e160)
        want = "non-finite speeds of 'paper-example-2+(1e+160)B' at t=0.0"
        with pytest.raises(ValueError, match=re.escape(want) + "$"):
            arc_table(off, 16)

    def test_pieces_too_long_for_the_spline_are_refused(self, example2):
        # every square (~3e300) and node is finite, but s**3 of a piece of
        # ~1.7e147 overflows in the spline, which would map every s > 0 to NaN
        off = offset_along_binormal(example2, 1e150)
        want = "arc length of 'paper-example-2+(1e+150)B' overflows: a piece spans 1.69e+147"
        with pytest.raises(ArcLengthOverflowError, match=re.escape(want) + "$"):
            arc_table(off, INVERSE_TABLE_SIZE)
        # just below the bound the table evaluates
        table = arc_table(offset_along_binormal(example2, 3e105), INVERSE_TABLE_SIZE)
        assert np.isfinite(table.t_of_s(np.linspace(0.0, table.total, 101))).all()


SINE_TAU = "0.8 + 0.1 * sin(3 * s)"


def test_offset_squares_equal_the_squares_of_their_tangents(exact_pair_of, example1, example2):
    # every offset that the exact and reference configurations of
    # tools/report_digests.py build
    pairs = [exact_pair_of(t, k) for t in EXACT_PAIR_BASES for k in (0.2, -0.2)]
    kind, lam = EXACT_PAIR_BASES[3]
    pairs.append(exact_partner_pair(kind, parse_expr(SINE_TAU).eval, lam, step=1e-3, table_size=512))
    offsets = [offset_along_normal(p.c, p.lam) for p in pairs]
    offsets += [offset_along_binormal(c, lam) for c in (example1, example2) for lam in (20.0, -7.5)]
    offsets += [offset_along_normal(example2, 0.5), offset_along_normal(example1, -0.5)]
    offsets.append(offset_along_binormal(reparametrize_unit(example1, 256), 20.0))
    for off in offsets:
        ts = np.linspace(*off.domain, 4097)
        d1 = off.tangents(ts)
        np.testing.assert_allclose(off.squares(ts), inner_rows(d1, d1), rtol=1e-12, atol=0.0, err_msg=off.label)


class TestTableClassifiesTangent:
    """The arc-length table classifies the tangent on its first pass, in ascending t."""

    @staticmethod
    def _base(b: float):
        # kappa = 1, tau = s on a timelike curve: its normal offset by 0.5 has
        # <a', a'> = (s^2 - 1)/4, timelike before s = 1, null there, spacelike beyond
        return frenet_synthesize(CurveKind.TIMELIKE, lambda s: 1.0, lambda s: s, (0.0, b), 1e-3)

    def _offset(self, b: float):
        return offset_along_normal(self._base(b), 0.5)

    def test_null_offset(self):
        # 3 pieces over [0, 2]: s = 1 is the midpoint of the middle piece; the
        # node 4/3 after it, evaluated first, is spacelike
        off = self._offset(2.0)
        with pytest.raises(NullTangentError, match=re.escape(f"tangent of {off.label!r} is null at t=1") + "$"):
            reparametrize_unit(off, 3)

    def test_mixed_offset(self):
        # 4 pieces over [0, 1.9]: the points are the multiples of 1.9/16, the
        # first beyond s = 1 (9 of them, a quarter point) is spacelike
        off = self._offset(1.9)
        want = f"tangent of {off.label!r} changes character near t=1.06875"
        with pytest.raises(MixedCausalCharacterError, match=re.escape(want) + "$"):
            reparametrize_unit(off, 4)

    @pytest.mark.parametrize(
        "end, size, error",
        [(2.0, 3, NullTangentError), (1.9, 4, MixedCausalCharacterError)],
        ids=["null", "mixed"],
    )
    def test_offset_as_companion(self, monkeypatch, end, size, error):
        # a pair classifies C*'s tangent on the points of its table's first
        # pass, without building that table: the error and message of the table
        with pytest.raises(error) as table:
            reparametrize_unit(self._offset(end), size)
        monkeypatch.setattr(curve_module, "_ArcLengthTable", None)  # no table is built
        with pytest.raises(error, match=re.escape(str(table.value)) + "$"):
            MannheimPair.from_normal_offset(self._base(end), 0.5, size)

    @pytest.mark.parametrize(
        "end, error, message",
        [
            # the node t = 1/2 of the 1024 pieces over [0, 2], where (1, 2t, 0) is null
            (2.0, NullTangentError, "is null at t=0.5"),
            # over [0, 1.9] the first point beyond t = 1/2 is 1078 * 1.9/4096
            (1.9, MixedCausalCharacterError, "changes character near t=0.500049"),
        ],
        ids=["null", "mixed"],
    )
    def test_csv_curve(self, tmp_path, end, error, message):
        path = tmp_path / "parabola.csv"
        ts = np.linspace(0.0, end, 20)
        with open(path, "w", newline="") as fh:
            CurveSamples(ts, np.column_stack((ts, ts * ts, 0.0 * ts))).to_csv(fh)
        with pytest.raises(error, match=re.escape(f"tangent of '{path}' {message}") + "$"):
            _ensure_unit(resolve_curve_spec(f"csv:{path}"))


class TestReparametrize:
    def test_already_unit(self, example1):
        c = reparametrize_unit(example1, 256)
        assert c.domain[1] == pytest.approx(1.0, abs=1e-10)
        us = [0.0, 0.35, 0.9]
        assert (distance(c.positions(us), example1.positions(us)) < 1e-8).all()

    def test_constant_speed_line(self):
        c = reparametrize_unit(line_curve((0.0, 2.0, 0.0)), 128)
        assert c.domain[1] == pytest.approx(6.0, abs=1e-9)
        assert c.speeds([0.0, 1.0, 5.5]) == pytest.approx(1.0, abs=1e-12)

    def test_offset_curve(self, example2):
        off = offset_along_binormal(example2, 20.0)
        c = reparametrize_unit(off, 512)
        assert unit_speed_deviation(c, 48) < 1e-8

    def test_raw_chain_is_the_result_at_raw_parameters(self, example1, example2):
        # ``raw`` evaluates the same chain at t as the result does at the
        # arc length of t, bit for bit, over the domain of its input
        off = offset_along_binormal(example2, 20.0)
        for base in (off, example1):
            c = reparametrize_unit(base, 256)
            assert c.raw.domain == base.domain and c.raw.label == c.label
            us = np.linspace(0.0, c.domain[1], 7)
            ts = c.arc_table.t_of_s(us)
            assert c.raw.positions(ts).tobytes() == c.positions(us).tobytes() == base.positions(ts).tobytes()
            assert c.raw.tangents(ts).tobytes() == c.tangents(us).tobytes()
            for raw_d, d in zip(c.raw.jets(ts), c.jets(us)):
                assert raw_d.tobytes() == d.tobytes()
        assert reparametrize_unit(off, 256).raw.scalars is None
        kinds, kappa, tau = c.raw.scalars(ts, 2)
        want_kinds, want_kappa, want_tau = c.scalars(us, 2)
        assert kinds.tolist() == want_kinds.tolist()
        for got, want in zip((*kappa, *tau), (*want_kappa, *want_tau)):
            assert got.tobytes() == want.tobytes()

    def test_classification_preserved(self, example2):
        off = offset_along_binormal(example2, 20.0)
        assert classify_curve(off, 17) is classify_curve(reparametrize_unit(off, 256), 17)

    def test_nonconstant_speed(self):
        # tangent (0, 1, t) has speed sqrt(1 + t^2)
        rows = (lambda t: (0.0, t, t * t / 2.0), lambda t: (0.0, 1.0, t), lambda t: (0.0, 0.0, 1.0))
        c = closed_form_curve(rows, (0.0, 2.0), "quad")
        u = reparametrize_unit(c, 512)
        expected = math.asinh(2.0) / 2.0 + math.sqrt(5.0)  # integral of sqrt(1+t^2)
        assert u.domain[1] == pytest.approx(expected, abs=1e-8)
        assert unit_speed_deviation(u, 33) < 1e-12


    def test_table_size_is_bounded(self):
        c = line_curve((0.0, 2.0, 0.0), (0.0, 1.0), squares=lambda ts: np.full(len(ts), 4.0))
        assert len(reparametrize_unit(c, MAX_TABLE_SIZE).arc_table.t_nodes) == MAX_TABLE_SIZE + 1
        for size in (1, 0, MAX_TABLE_SIZE + 1):
            message = rf"size {size} is outside \[2, {MAX_TABLE_SIZE}\]"
            with pytest.raises(TableSizeError, match=message):
                reparametrize_unit(c, size)
        assert len(reparametrize_unit(c, 2).arc_table.t_nodes) == 3

    @pytest.mark.parametrize("size", [300.5, "512", True])
    def test_table_size_must_be_an_int(self, size):
        def evaluate(ts, order):
            raise AssertionError("no work before the size check")

        with pytest.raises(TableSizeError, match="is not an integer"):
            reparametrize_unit(Curve(evaluate, (0.0, 1.0)), size)
        with pytest.raises(TableSizeError, match="is not an integer"):
            reparametrize_unit(builtin_curve("paper-example-1"), size)


class TestHermiteEvaluator:
    """The package's cubic Hermite evaluator against scipy's, bit for bit."""

    @staticmethod
    def probes(x, rng):
        lo, hi = x[0], x[-1]
        span = hi - lo
        inside = rng.uniform(lo, hi, 200).tolist()
        below = [lo - 0.3 * span, lo - 1e-12, float(np.nextafter(lo, -np.inf))]
        return list(x) + inside + below + [hi + 1e-12, hi + 0.3 * span]

    @staticmethod
    def scipy_pchip(x, y):
        from scipy.interpolate import PchipInterpolator as ScipyPchip

        return ScipyPchip(x, y)

    def assert_pchip_matches(self, x, y, rng):
        ours, theirs = PchipInterpolator(x, y), self.scipy_pchip(x, y)
        v = np.array(self.probes(x, rng))
        assert ours(v).tolist() == theirs(v).tolist()
        return ours

    def test_random_monotone_tables(self):
        rng = np.random.default_rng(20)
        for n in (3, 4, 17, 1025):
            x = np.cumsum(rng.uniform(0.01, 1.0, n))
            y = np.cumsum(rng.uniform(0.01, 1.0, n))
            self.assert_pchip_matches(x, y, rng)
            self.assert_pchip_matches(y, x, rng)

    def test_arc_length_table(self, example2):
        table = reparametrize_unit(offset_along_binormal(example2, 20.0), 256).arc_table
        rng = np.random.default_rng(21)
        inverse = self.scipy_pchip(table.s_nodes, table.t_nodes)
        s = np.array(self.probes(table.s_nodes, rng))
        assert table.t_of_s(s).tolist() == inverse(np.clip(s, 0.0, table.total)).tolist()

    def test_slope_rule_branches(self):
        from mannheim_lab.curve import _pchip_slopes

        rng = np.random.default_rng(22)
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.5])
        cases = {
            # the secants change sign at nodes 1 and 2: both slopes 0
            "sign change": ([0.0, 1.0, 0.0, 1.0, 3.0], [1, 2], 0.0),
            # a flat secant zeroes the slopes at both of its ends
            "zero secant": ([0.0, 1.0, 1.0, 2.0, 4.0], [1, 2], 0.0),
            # three-point end estimate against the first secant's sign: 0
            "end estimate flips sign": ([0.0, 1.0, 6.0, 7.0, 8.0], [0], 0.0),
            # secants change sign and the estimate overshoots: 3 m0
            "end estimate clipped": ([0.0, 1.0, -4.0, -5.0, -6.0], [0], 3.0),
        }
        for name, (y, nodes, want) in cases.items():
            y = np.array(y)
            slopes = _pchip_slopes(x, y)
            assert slopes[nodes].tolist() == [want] * len(nodes), name
            assert slopes[:-1].tolist() == self.scipy_pchip(x, y).c[2].tolist(), name
            self.assert_pchip_matches(x, y, rng)

    def test_two_nodes_are_the_line(self):
        rng = np.random.default_rng(23)
        x, y = np.array([0.5, 2.0]), np.array([1.0, -2.0])
        ours = self.assert_pchip_matches(x, y, rng)
        assert ours([1.25]).tolist() == [-0.5]

    def test_nine_column_table(self):
        from scipy.interpolate import CubicHermiteSpline as ScipyHermite

        rng = np.random.default_rng(24)
        x = np.cumsum(rng.uniform(1e-3, 2e-3, 1001))
        y, dydx = rng.standard_normal((2, 1001, 9))
        ours, theirs = CubicHermiteSpline(x, y, dydx), ScipyHermite(x, y, dydx, axis=0)
        v = np.array(self.probes(x, rng))
        assert ours(v).tolist() == theirs(v).tolist()
        y, dydx = y[:, 4], dydx[:, 4]
        ours, theirs = CubicHermiteSpline(x, y, dydx), ScipyHermite(x, y, dydx)
        v = np.array(self.probes(x, rng))
        assert ours(v).tolist() == theirs(v).tolist()

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            CubicHermiteSpline([0.0], [1.0], [0.0])
        with pytest.raises(ValueError):
            CubicHermiteSpline([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            PchipInterpolator([0.0, 1.0], [[0.0, 1.0], [1.0, 2.0]])


class TestSample:
    def test_endpoints(self, example1):
        out = sample(example1, 2)
        assert out.rows[:, 0].tolist() == [0.0, 1.0]
        assert out.rows[0, 1:].tolist() == example1.positions([0.0])[0].tolist()

    def test_matches_closed_form(self, example2):
        out = sample(example2, 3)
        assert out.rows[1, 0] == pytest.approx(0.5)
        expect = [2.0 * math.sinh(0.5), 2.0 * math.cosh(0.5), SQRT3 * 0.5]
        assert distance(out.rows[1:2, 1:], [expect])[0] < 1e-14

    def test_too_few(self, example1):
        with pytest.raises(ValueError):
            sample(example1, 1)


class TestCsv:
    def test_round_trip(self, example2):
        out = sample(example2, 7)
        buf = io.StringIO()
        out.to_csv(buf)
        text = buf.getvalue()
        assert text.startswith("t,x1,x2,x3\n")
        assert "\r" not in text
        back = CurveSamples.from_csv(io.StringIO(text))
        # 17 significant digits round-trip doubles exactly
        assert back.rows.tobytes() == out.rows.tobytes()

    def test_header_required(self):
        with pytest.raises(CsvFormatError):
            CurveSamples.from_csv(io.StringIO("a,b,c,d\n0,0,0,0\n1,1,1,1\n"))

    def test_bad_value(self):
        with pytest.raises(CsvFormatError):
            CurveSamples.from_csv(io.StringIO("t,x1,x2,x3\n0,0,zero,0\n1,1,1,1\n"))

    def test_non_increasing(self):
        with pytest.raises(CsvFormatError):
            CurveSamples.from_csv(io.StringIO("t,x1,x2,x3\n1,0,0,0\n0,1,1,1\n"))

    def test_curve_from_samples(self, example2):
        rich = sample(example2, 200)
        c = curve_from_samples(rich)
        ts = [0.1, 0.42, 0.9]
        assert (distance(c.positions(ts), example2.positions(ts)) < 1e-8).all()
        assert (distance(c.tangents(ts), example2.tangents(ts)) < 1e-5).all()


class TestCentralDifferenceOfPositions:
    # the closed-form derivatives against a central difference, on the
    # paper's curves over a domain wide enough for every stencil, at steps
    # that balance truncation against cancellation for each order
    STEPS = {1: 1e-5, 2: 3e-3, 3: 8e-3}

    @classmethod
    def _difference(cls, f, ts, m):
        ts = np.asarray(ts, dtype=float)
        return central_difference(f, ts, cls.STEPS[m] * np.maximum(1.0, np.abs(ts)), m)

    @staticmethod
    def _wide(c):
        return builtin_curve(c.label, (-1.0, 2.0))

    def test_first_derivative_matches_closed_form(self, example1, example2):
        ts = [0.0, 0.27, 0.5, 1.0]
        for c in map(self._wide, (example1, example2)):
            err = np.abs(self._difference(c.positions, ts, 1) - c.tangents(ts)).max()
            assert err < 1e-8, (c.label, err)

    def test_higher_orders_reasonable(self, example2):
        ts = [0.3, 0.7]
        _, d2, d3 = example2.jets(ts)
        assert np.abs(self._difference(example2.positions, ts, 2) - d2).max() < 1e-7
        assert np.abs(self._difference(example2.positions, ts, 3) - d3).max() < 1e-5

    def test_differences_of_the_closed_form_tangent(self, example2):
        # one order above the tangent is far closer than two above positions
        err = np.abs(self._difference(example2.tangents, [0.4], 1) - example2.jets([0.4])[1])
        assert err.max() < 1e-9


def test_unit_speed_validation_grid(example1):
    assert unit_speed_deviation(example1, 32) < 1e-12


def _synthesized(example1, example2):
    kind = CurveKind.SPACELIKE_EPS_MINUS
    return frenet_synthesize(kind, lambda s: 0.4 + 0.1 * s, lambda s: 0.8 - 0.2 * s, (0.0, 1.0), 1e-2)


def _csv(example1, example2):
    """The ``csv:`` spec of samples of ``example2``, from a file that is gone once read."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "samples.csv")
        with open(path, "w", newline="") as fh:
            sample(example2, 41).to_csv(fh)
        return resolve_curve_spec(f"csv:{path}")


# One curve per constructor: closed forms (built in and from row functions),
# a spline (built and read from a file), a synthesized curve and the chained
# ones (a bare chain and arc length over an offset, both offsets).
JET_CURVES = {
    "builtin-1": lambda example1, example2: example1,
    "builtin-2": lambda example1, example2: example2,
    "samples": lambda example1, example2: curve_from_samples(sample(example2, 41)),
    "csv": _csv,
    "unit-chain": lambda example1, example2: UnitChain(offset_along_binormal(example1, 7.0), 128),
    "synthesized": _synthesized,
    "unit-speed": lambda example1, example2: reparametrize_unit(
        offset_along_binormal(example1, 7.0), 128
    ),
    "binormal-offset": lambda example1, example2: offset_along_binormal(example2, 20.0),
    "normal-offset": lambda example1, example2: offset_along_normal(example2, 0.5),
    "closed-form-rows": lambda example1, example2: closed_form_helix(),
}


@pytest.mark.parametrize("name", sorted(JET_CURVES))
def test_jets_open_with_the_tangents(name, example1, example2):
    c = JET_CURVES[name](example1, example2)
    a, b = c.domain
    ts = [a, a + 0.37 * (b - a), a + 0.81 * (b - a), b]
    assert c.jets(ts)[0].tobytes() == c.tangents(ts).tobytes()
    # a row does not depend on the rest of the grid
    for i, t in enumerate(ts):
        assert [d[i].tolist() for d in c.jets(ts)] == [d[0].tolist() for d in c.jets([t])], t
