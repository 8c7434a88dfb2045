"""Pass budget: how often one pair build plus the audit suite evaluates each layer.

One reference pair (a binormal offset of a built-in curve, grid 101), one
exact pair (synthesized, table 512, grid 201) and the reference pair over
the built-in reparametrized by a 256-node table (grid 101) are built and
audited with every counted function wrapped.  The counts are pinned, so a
change that adds an evaluation pass fails here and must say so.
"""

import collections

import pytest

from mannheim_lab import curve, frenet, indicatrix, mannheim
from mannheim_lab.builtins import builtin_curve
from mannheim_lab.cli import _run_pair_suite
from mannheim_lab.frenet import CurveKind
from mannheim_lab.mannheim import MannheimPair, exact_partner_pair


def _reference():
    return MannheimPair.from_binormal_offset(builtin_curve("paper-example-1"), 20.0), 101


def _reparametrized():
    base = curve.reparametrize_unit(builtin_curve("paper-example-1"), 256)
    return MannheimPair.from_binormal_offset(base, 20.0), 101


def _exact():
    pair = exact_partner_pair(CurveKind.TIMELIKE, lambda s: 0.8 + 0.2 * s, -0.3, step=1e-3, table_size=512)
    return pair, 201


@pytest.fixture
def counts(monkeypatch):
    """Calls per counted name while the test runs."""
    seen = collections.Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return f(*args, **kwargs)

        return wrapper

    # module functions are counted in every module that calls them by name
    for name, modules, label in (
        ("frenet_frames", (frenet, mannheim, indicatrix), "frenet_frames"),
        ("scalar_jets", (frenet, mannheim), "scalar_jets"),
        ("_extract", (frenet, mannheim), "frame extractions"),
    ):
        wrapper = counted(label, getattr(frenet, name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper)
    for cls, attr, name in (
        (curve.Curve, "_grid", "Curve._grid"),
        (curve.Curve, "speeds", "Curve.speeds"),
        (curve.PchipInterpolator, "__init__", "PCHIP builds"),
        (mannheim.PairSamples, "image_residuals", "image_residuals"),
    ):
        monkeypatch.setattr(cls, attr, counted(name, getattr(cls, attr)))
    return seen


# Per build plus suite.  One curve of each pair is an offset of the other:
# C of a reference pair offsets its built-in C*, and C* of an exact pair its
# synthesized C.  The base makes one pass per grid, twice: at build, on the 9
# points whose kinds give the pair type, and in the suite, on its grid.  A
# pass is one frenet_frames of the base, which reads its jets (one
# Curve._grid), and its order-2 scalar jet; the offset's derivatives, its
# positions and its squares are formed from that pass, so the offset's
# frames are one more frame extraction and nest none.  The third
# scalar_jets is the arc-length table's single pass of the offset's
# closed-form squares, which also classifies its tangent; the third
# Curve._grid is the base's positions for the distance identity.  The rates
# read the offset's squares from the suite's pass, so nothing calls
# Curve.speeds.  A pair builds one arc-length table, C's, and that table one
# PCHIP, its map from s to t: C* is evaluated at the shared t through its
# unit-speed chain, whose table is built only when ``pair.cstar`` is read.
# C of an exact pair is unit-speed, so that pair builds none.
BUDGET = {
    "frenet_frames": 2,
    "frame extractions": 4,
    "scalar_jets": 3,
    "Curve._grid": 3,
    "image_residuals": 2,
}


# Over the reparametrized built-in, C* answers from the built-in's scalar jet
# chained through its table, so it extracts no more frames; the built-in
# beneath it is evaluated once per grid of C* (3), once per order-2 scalar
# jet of C* (2) and once by its table (1), and that table builds one PCHIP.
REPARAMETRIZED_GRIDS = BUDGET["Curve._grid"] + 6


@pytest.mark.parametrize(
    "build, changes",
    [
        (_reference, {"PCHIP builds": 1}),
        (_exact, {}),
        (_reparametrized, {"PCHIP builds": 2, "Curve._grid": REPARAMETRIZED_GRIDS}),
    ],
    ids=["reference", "exact", "reparametrized"],
)
def test_build_and_suite_keep_their_pass_budget(counts, build, changes):
    pair, grid_n = build()
    reports = _run_pair_suite(pair, grid_n, None)
    assert len(reports) == len(mannheim.IDENTITIES)
    assert dict(counts) == {**BUDGET, **changes}


def test_reading_cstar_builds_its_table_once(counts):
    pair, _ = _exact()
    assert "PCHIP builds" not in counts
    assert pair.cstar is pair.cstar and pair.cstar.raw is pair.cstar_raw
    assert counts["PCHIP builds"] == 1
