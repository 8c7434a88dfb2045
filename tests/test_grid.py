"""The grid is the unit of evaluation: grids against points, errors, CSV emission."""

import csv
import dataclasses
import functools
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import closed_form_curve, closed_form_helix
from mannheim_lab.builtins import builtin_curve
from mannheim_lab.cli import main
from mannheim_lab.curve import (
    CSV_CHUNK_ROWS,
    Curve,
    CurveSamples,
    classify_curve,
    curve_from_samples,
    reparametrize_unit,
    sample,
)
from mannheim_lab.errors import (
    MixedCausalCharacterError,
    NotUnitSpeedError,
    VanishingCurvatureError,
)
from mannheim_lab.frenet import frenet_apparatus, frenet_frames
from mannheim_lab.indicatrix import Indicatrix, indicatrix_of
from mannheim_lab.lorentz import CausalCharacter, causal_characters
from mannheim_lab.mannheim import (
    IDENTITIES,
    MannheimPair,
    MannheimPairType,
    PairSamples,
    offset_along_binormal,
    offset_along_normal,
)


def _sampled():
    return curve_from_samples(sample(builtin_curve("paper-example-2"), 41), label="sampled")


# One curve per evaluator: (builder given ``exact_pair_of``, whether it is
# unit-speed and so has frames).
CURVES = {
    "builtin-1": (lambda pair: builtin_curve("paper-example-1"), True),
    "builtin-2": (lambda pair: builtin_curve("paper-example-2"), True),
    "synthesized-timelike": (lambda pair: pair(2, 0.2).c, True),
    "synthesized-spacelike-": (lambda pair: pair(3, -0.2).c, True),
    "synthesized-spacelike+": (lambda pair: pair(5, 0.2).c, True),
    "reparametrized-csv": (lambda pair: reparametrize_unit(_sampled(), 64), True),
    "reparametrized-offset": (lambda pair: pair(3, -0.2).cstar, True),
    "normal-offset": (lambda pair: offset_along_normal(pair(2, 0.2).c, -0.3), False),
    # the base's scalar jet is the built-in's, chained through its arc-length table
    "binormal-offset": (
        lambda pair: offset_along_binormal(reparametrize_unit(builtin_curve("paper-example-1"), 64), 2.0),
        False,
    ),
    "csv": (lambda pair: _sampled(), False),
    "user-callables": (lambda pair: closed_form_helix(), True),
}


@functools.cache
def _curve(name: str, pair) -> Curve:
    return CURVES[name][0](pair)


def _row_bytes(f, i: int) -> list[bytes]:
    """The bytes of row ``i`` of every array of the frame grid ``f``."""
    return [getattr(f, field.name)[i].tobytes() for field in dataclasses.fields(f)]


fractions = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=3
)


@pytest.mark.parametrize("name", sorted(CURVES))
@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(fractions=fractions)
def test_grid_rows_equal_points_bit_for_bit(name, fractions, exact_pair_of):
    c = _curve(name, exact_pair_of)
    a, b = c.domain
    # both ends and interior points, in no particular order
    ts = [a, b, *(a + f * (b - a) for f in fractions)]
    grid = np.array(ts)
    positions = c.positions(grid)
    jets = c.jets(grid)
    for i, t in enumerate(ts):
        assert positions[i].tolist() == c.positions([t])[0].tolist(), (name, t)
        assert [d[i].tolist() for d in jets] == [d[0].tolist() for d in c.jets([t])], (name, t)
    if CURVES[name][1]:
        frames = frenet_frames(c, grid)
        for i, t in enumerate(ts):
            assert _row_bytes(frames, i) == _row_bytes(frenet_apparatus(c, t), 0), (name, t)


def _turning(speed_from: float = math.inf, end: float = 0.4) -> Curve:
    """Unit-speed spacelike curve (0, cos phi, sin phi)' with curvature
    end - t up to t = end and a straight line beyond; past ``speed_from``
    its tangent is stretched by 1 + (t - speed_from).  Its scalar jet is
    that of a plane curve with a spacelike normal: torsion 0."""

    def parts(t: np.ndarray):
        turning = t < end
        k, dk = np.where(turning, end - t, 0.0), np.where(turning, -1.0, 0.0)
        phi = np.where(turning, end * t - 0.5 * t * t, 0.5 * end * end)
        v = 1.0 + np.maximum(0.0, t - speed_from)
        return k, dk, np.cos(phi), np.sin(phi), v

    def d1(t):
        k, dk, c, s, v = parts(t)
        return 0.0, v * c, v * s

    def d2(t):
        k, dk, c, s, v = parts(t)
        return 0.0, -k * s, k * c

    def d3(t):
        k, dk, c, s, v = parts(t)
        return 0.0, -dk * s - k * k * c, dk * c - k * k * s

    def scalars(t: np.ndarray, order: int):
        k, dk, *_ = parts(t)
        zero = np.zeros_like(t)
        return np.ones(len(t), int), (k, dk, zero)[: order + 1], (zero,) * (order + 1)

    rows = (lambda t: (0.0, 0.0, 0.0), d1, d2, d3)
    return closed_form_curve(rows, (0.0, 1.0), "turning", scalars=scalars)


def _first_point_error(fn, ts):
    for t in ts:
        try:
            fn(t)
        except Exception as exc:  # noqa: BLE001 - compared below
            return exc
    raise AssertionError("no point fails")


@pytest.mark.parametrize(
    "curve, error, first",
    [
        (_turning(), VanishingCurvatureError, "s=0.4"),
        (
            closed_form_curve((lambda t: (0.0, t, 0.0), lambda t: (0.0, 1.0, 0.0)), (0.0, 1.0), "line"),
            VanishingCurvatureError,
            "s=0",
        ),
        (_turning(speed_from=0.25), NotUnitSpeedError, "s=0.3"),
    ],
)
def test_grid_frames_raise_the_point_error_of_the_first_bad_parameter(curve, error, first):
    ts = np.linspace(0.0, 1.0, 11)
    point = _first_point_error(lambda t: frenet_apparatus(curve, t), ts.tolist())
    with pytest.raises(error) as grid:
        frenet_frames(curve, ts)
    assert type(point) is error
    assert str(grid.value) == str(point)
    assert f"{first} " in str(grid.value) or str(grid.value).endswith(first)


def test_mixed_character_names_the_first_changed_tangent():
    # tangent (1, 2t, 0): timelike below t = 1/2, spacelike above
    rows = (lambda t: (t, t * t, 0.0), lambda t: (1.0, 2.0 * t, 0.0), lambda t: (0.0, 2.0, 0.0))
    c = closed_form_curve(rows, (0.0, 2.0), "mixed")
    ts = np.linspace(0.0, 2.0, 10)
    characters = [causal_characters(c.tangents([t]))[0] for t in ts.tolist()]
    first = next(t for t, ch in zip(ts, characters) if ch != characters[0])
    with pytest.raises(MixedCausalCharacterError, match=f"near t={first:g}$"):
        classify_curve(c, 10)


@pytest.mark.parametrize(
    "rows, argv",
    [
        ([(t, 0.0, t, 0.0) for t in (0.0, 0.5, 1.0, 1.5)], ["frenet", "--at", "0.5"]),
        ([(t, 0.0, t, 0.0) for t in (0.0, 0.5, 1.0, 1.5)], ["indicatrix", "--which", "N"]),
        ([(t, t, t * t, 0.0) for t in np.linspace(0.0, 2.0, 9)], ["classify"]),
    ],
)
def test_cli_exit_codes_of_grid_errors(tmp_path, capsys, rows, argv):
    # a straight line has no frame and a mixed tangent no character: exit 1
    path = tmp_path / "curve.csv"
    with open(path, "w", newline="") as fh:
        CurveSamples([r[0] for r in rows], np.array([r[1:] for r in rows])).to_csv(fh)
    out = tmp_path / "out"
    assert main([argv[0], "--curve", f"csv:{path}", *argv[1:], "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


class _Writes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_chunked_csv_equals_csv_writer(extra):
    n = CSV_CHUNK_ROWS + extra
    special = [-0.0, 5e-324, 1e308, 1.0]
    t = np.concatenate(([-0.0, 5e-324], np.arange(1.0, n - 2), [1e308]))
    points = np.resize(special + np.random.default_rng(7).standard_normal(9).tolist(), (n, 3))
    samples = CurveSamples(t, points)

    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["t", "x1", "x2", "x3"])
    for row in samples.rows.tolist():
        writer.writerow([f"{v:.17g}" for v in row])
    got = _Writes()
    samples.to_csv(got)
    assert got.getvalue() == want.getvalue()
    # the header, then one write per chunk: the file is never one string
    assert len(got.sizes) == 1 + math.ceil(n / CSV_CHUNK_ROWS)
    assert "-0," in got.getvalue() and "4.9406564584124654e-324" in got.getvalue()


# Grids below, at and past one chunk, and past two chunk boundaries.
CHUNK_GRIDS = (CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 1)


@pytest.mark.parametrize(
    "name", ["builtin-1", "synthesized-timelike", "reparametrized-offset", "reparametrized-csv", "csv"]
)
def test_chunked_grids_equal_whole_grid_evaluation(name, exact_pair_of):
    c = _curve(name, exact_pair_of)
    for n in CHUNK_GRIDS:
        ts = np.linspace(*c.domain, n)
        assert sample(c, n).rows.tobytes() == np.column_stack((ts, c.positions(ts))).tobytes(), n
        chars = causal_characters(c.tangents(ts))
        assert (chars == chars[0]).all()
        assert classify_curve(c, n) is tuple(CausalCharacter)[chars[0]], n
        if not CURVES[name][1]:
            continue
        frames = frenet_frames(c, ts)
        for which in ("T", "N", "B"):
            rows = indicatrix_of(c, which).samples(n).rows
            assert rows[:, 0].tobytes() == ts.tobytes(), (n, which)
            assert rows[:, 1:].tobytes() == getattr(frames, which).tobytes(), (n, which)


def test_chunked_frames_raise_the_whole_grid_error_and_row():
    # the curvature 0.6 - t vanishes from t = 0.6 on: in the second chunk only
    c, n = _turning(end=0.6), 2 * CSV_CHUNK_ROWS + 1
    with pytest.raises(VanishingCurvatureError) as whole:
        frenet_frames(c, np.linspace(0.0, 1.0, n))
    with pytest.raises(VanishingCurvatureError) as chunked:
        Indicatrix("N", c).samples(n)
    assert CSV_CHUNK_ROWS < chunked.value.row < 2 * CSV_CHUNK_ROWS
    assert (str(chunked.value), chunked.value.row) == (str(whole.value), whole.value.row)


@pytest.mark.parametrize("name", ["synthesized-spacelike-", "reparametrized-offset"])
@pytest.mark.parametrize(
    "evaluate",
    [sample, lambda c, n: indicatrix_of(c, "N").samples(n), classify_curve],
    ids=["sample", "indicatrix", "classify"],
)
def test_grid_memory_beyond_the_result_stays_flat(name, evaluate, exact_pair_of):
    # whole-grid evaluation at this size took 15 to 48 MB beyond the table
    c, n = _curve(name, exact_pair_of), 100_000
    tracemalloc.start()
    try:
        out = evaluate(c, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = out.rows.nbytes if isinstance(out, CurveSamples) else 0
    assert peak - result < 3.5e6


@pytest.mark.parametrize(
    "ts",
    [
        np.linspace(0.0, 1.0, 11),
        # the base frames hold at every point
        np.array([0.0, 0.35, 0.3999]),
    ],
)
def test_offset_frames_raise_the_first_failure_of_offset_or_base(ts):
    # at lam = -5 the normal offset is unit-speed at t = 0 only; its base
    # has no frame from t = 0.4 on
    offset = offset_along_normal(_turning(), -5.0)
    point = _first_point_error(lambda t: frenet_apparatus(offset, t), ts.tolist())
    with pytest.raises(NotUnitSpeedError) as grid:
        frenet_frames(offset, ts)
    assert type(point) is NotUnitSpeedError
    assert str(grid.value) == str(point)


def _hand_built_pair(c: Curve, cstar: Curve) -> MannheimPair:
    # both curves evaluated as given at their shared parameter over [0, 1]:
    # flagged unit-speed, each is its own arc length
    c.unit_speed = cstar.unit_speed = True
    return MannheimPair(c, 1.0, MannheimPairType.TYPE3, cstar)


def _normal_offset_of_turning(speed_from: float) -> tuple[Curve, Curve]:
    # at lam = -5 the normal offset is unit-speed at t = 0 only
    c = _turning(speed_from)
    return c, offset_along_normal(c, -5.0)


def _turning_and_binormal_offset() -> tuple[Curve, Curve]:
    # the binormal offset of a plane curve translates it: both lose unit speed at 0.2
    cstar = _turning(0.15)
    return offset_along_binormal(cstar, 2.0), cstar


@pytest.mark.parametrize(
    "curves, failing, at",
    [
        (lambda: (_turning(), _turning(0.15)), "C*", "s=0.2"),
        (lambda: (_turning(0.15), _turning()), "C", "s=0.2"),
        (lambda: (_turning(0.15), _turning(0.15)), "C", "s=0.2"),
        # C* is an offset of C: one pass of C serves both, and C fails in it at 0.4 (or
        # 0.2), beneath C*, yet C*'s own earlier row comes first
        (lambda: _normal_offset_of_turning(math.inf), "C*", "s=0.1"),
        (lambda: _normal_offset_of_turning(0.15), "C*", "s=0.1"),
        # C is an offset of C*, and both fail at one row: the base's error comes first
        (_turning_and_binormal_offset, "C*", "s=0.2"),
    ],
    ids=["cstar-first", "c-first", "tie", "offset-cstar", "offset-cstar-stretched", "offset-c-tie"],
)
def test_pair_frames_raise_the_error_of_the_first_bad_point(curves, failing, at):
    # _turning loses its frame at 0.4, and its unit speed at 0.2 when
    # stretched from 0.15
    ts = np.linspace(0.0, 1.0, 11).tolist()

    def pair():
        c, cstar = curves()
        c.label, cstar.label = "C", "C*"
        return _hand_built_pair(c, cstar)

    point = _first_point_error(lambda s: PairSamples(pair(), [s]).frames, ts)
    with pytest.raises(type(point)) as grid:
        PairSamples(pair(), ts).frames
    assert str(grid.value) == str(point)
    assert str(point).startswith(f"{failing!r} ") or f"of {failing!r} " in str(point)
    assert f"{at} " in str(point) or str(point).endswith(at)


def test_hand_built_pair_rows_equal_one_row_samples():
    c, cstar = builtin_curve("paper-example-1"), builtin_curve("paper-example-2")
    grid = [0.0, 0.25, 0.5, 1.0]
    pair = _hand_built_pair(c, cstar)
    samples = PairSamples(pair, grid)
    f, fstar = samples.frames
    for i, s in enumerate(grid):
        one = PairSamples(pair, [s])
        f1, fs1 = one.frames
        assert _row_bytes(f, i) == _row_bytes(f1, 0), s
        assert _row_bytes(fstar, i) == _row_bytes(fs1, 0), s
        assert samples.t[i].tobytes() == one.t[0].tobytes(), s
    # the rate is the pair's rate map, read as given
    assert PairSamples(pair, grid).rates.tolist() == [1.0] * len(grid)
    distance = next(row for row in IDENTITIES if row.name == "distance-constancy")
    assert len(distance.report(pair.samples(5)).residuals) == 5


def test_row_characters_equal_the_one_row_rule():
    # zero, negative zero, null, inside the null band, timelike, spacelike
    rows = [(0, 0, 0), (-0.0, 0, 0), (1, 1, 0), (1, 1, 1e-7), (2, 1, 0), (0.5, 1, 0)]
    chars = causal_characters(np.array(rows))
    assert chars.tolist() == [causal_characters(np.array([r]))[0] for r in rows]
    assert chars.tolist() == [3, 3, 2, 2, 0, 1]
