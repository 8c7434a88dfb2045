import functools
import json
from pathlib import Path

import numpy as np
import pytest

from mannheim_lab import MannheimPair, exact_partner_pair
from mannheim_lab.builtins import builtin_curve
from mannheim_lab.curve import Curve
from mannheim_lab.frenet import CurveKind

# The JSON schema of one report, as published with the package docs.
REPORT_SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text()
)

# Exact partner pairs by pair type: (kind of the base curve C, lambda).
EXACT_PAIR_BASES = {
    2: (CurveKind.TIMELIKE, -0.3),
    3: (CurveKind.SPACELIKE_EPS_MINUS, 0.3),
    5: (CurveKind.SPACELIKE_EPS_PLUS, 0.3),
}


def closed_form_curve(rows, domain, label="curve", **kwargs) -> Curve:
    """A curve whose positions and derivatives of orders 1 to 3 are closed
    forms: ``rows[k](ts)`` gives the three components of order ``k`` at an
    array of parameters, each an array or a constant, and the orders past
    ``rows`` vanish.  ``kwargs`` go to ``Curve`` (``unit_speed``,
    ``squares``)."""

    def at(k, ts):
        out = np.zeros((len(ts), 3))
        if k < len(rows):
            out[:, 0], out[:, 1], out[:, 2] = rows[k](ts)
        return out

    def evaluate(ts, order):
        return (at(1, ts), at(2, ts), at(3, ts)) if order == 3 else at(order, ts)

    return Curve(evaluate, domain, label, **kwargs)


# Unit-step weights of the fourth-order central difference of order m, on the
# offsets -k..k of a (2k + 1)-node stencil.
CENTRAL_WEIGHTS = {
    1: (1 / 12, -8 / 12, 0.0, 8 / 12, -1 / 12),
    2: (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12),
    3: (1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8),
}


def central_difference(f, ts, h, m=1):
    """The ``m``-th derivative (1 to 3) of ``f`` at each point of ``ts`` by a
    fourth-order central difference at step ``h`` (one, or one per point).

    ``f`` maps an array of abscissae to one value or row each; every node
    ``t + k h`` must lie where ``f`` is defined, so a curve is differenced at
    interior points or on a domain wider than the points."""
    ts = np.asarray(ts, dtype=float)
    h = np.broadcast_to(np.asarray(h, dtype=float), ts.shape)
    weights = CENTRAL_WEIGHTS[m]
    half = len(weights) // 2
    total = sum(w * f(ts + (k - half) * h) for k, w in enumerate(weights) if w)
    return total / (h**m).reshape((-1,) + (1,) * (total.ndim - 1))


def closed_form_helix() -> Curve:
    """paper-example-1 written as row functions, as a user writes a curve."""
    r5 = 0.5 * np.sqrt(5.0)
    rows = (
        lambda s: (-0.5 * np.sinh(s), 0.5 * np.cosh(s), r5 * s),
        lambda s: (-0.5 * np.cosh(s), 0.5 * np.sinh(s), r5),
        lambda s: (-0.5 * np.sinh(s), 0.5 * np.cosh(s), 0.0),
        lambda s: (-0.5 * np.cosh(s), 0.5 * np.sinh(s), 0.0),
    )
    return closed_form_curve(rows, (0.0, 1.0), "user-helix", unit_speed=True)


@functools.cache
def _exact_pair(pair_type, slope):
    kind, lam = EXACT_PAIR_BASES[pair_type]
    return exact_partner_pair(
        kind,
        tau_fn=lambda s: 0.8 + slope * s,
        lam=lam,
        s_range=(0.0, 1.0),
        step=1e-3,
        table_size=512,
    )


@pytest.fixture(scope="session")
def example1():
    return builtin_curve("paper-example-1")


@pytest.fixture(scope="session")
def example2():
    return builtin_curve("paper-example-2")


@pytest.fixture(scope="session")
def example1_pair(example1):
    return MannheimPair.from_binormal_offset(example1, 20.0)


@pytest.fixture(scope="session")
def example2_pair(example2):
    return MannheimPair.from_binormal_offset(example2, 20.0)


@pytest.fixture(scope="session")
def exact_pair_of():
    """Exact pair of a type with torsion 0.8 + slope*s, built once per (type, slope)."""
    return _exact_pair


@pytest.fixture(scope="session")
def exact_pair_type3():
    return _exact_pair(3, -0.2)


@pytest.fixture(scope="session")
def exact_pair_type2():
    return _exact_pair(2, 0.2)


@pytest.fixture(scope="session")
def exact_pair_type5():
    return _exact_pair(5, 0.2)
