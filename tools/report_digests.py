"""Print one sha256 of the audit-suite JSON for each pinned configuration.

A change that claims to keep report output bit for bit the same is checked
by running this script before and after it and diffing the two outputs:

    PYTHONPATH=src python tools/report_digests.py > before.txt
    # apply the change
    PYTHONPATH=src python tools/report_digests.py > after.txt
    diff before.txt after.txt

With ``--residuals`` it prints, instead of digests, one line per report of
each configuration (verdict and max residual), for a before/after table of
a change that moves report numbers on purpose.

Each line is ``<sha256>  <configuration>``.  The digest covers the JSON
array that ``mannheim-lab pair-verify --out`` writes: the reports of
``cli._run_pair_suite``, serialized as ``cli._emit_json`` does.  The
configurations are

* exact partner pairs of types 2, 3 and 5 with torsion 0.8 +/- 0.2 s
  (synthesis step 1e-3, inverse table 512), audited at grid 201;
* binormal offsets of ``paper-example-1`` and ``-2`` at lambda 20 and
  -7.5, audited at grid 101;
* the type-4 normal offset of ``paper-example-2`` at lambda 0.5, grid 101,
  whose collinearity hypothesis fails: its linear-relation report holds
  ``null`` residuals where mu is undefined, counted by ``undefined_at``;
* the shared-parameter pair that ``pair-verify --c SPEC --cstar SPEC``
  builds from one ``synth:`` spec (curvature and torsion both parsed
  expressions, evaluated by ``Expr.eval``) at lambda 1, grid 101: the copy
  of a curve is no partner, so its distance report fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from mannheim_lab import MannheimPair, builtin_curve, exact_partner_pair
from mannheim_lab.cli import _run_pair_suite, resolve_curve_spec
from mannheim_lab.frenet import CurveKind

EXACT_GRID = 201
REFERENCE_GRID = 101
SHARED_SPEC = "synth:kind=timelike,kappa=2 + 0.3*s,tau=0.9"

# Pair type -> (kind of the base curve C, lambda), as in the test fixtures.
EXACT_BASES = {
    2: (CurveKind.TIMELIKE, -0.3),
    3: (CurveKind.SPACELIKE_EPS_MINUS, 0.3),
    5: (CurveKind.SPACELIKE_EPS_PLUS, 0.3),
}


def _exact(pair_type: int, slope: float) -> MannheimPair:
    kind, lam = EXACT_BASES[pair_type]
    return exact_partner_pair(
        kind, lambda s: 0.8 + slope * s, lam, (0.0, 1.0), step=1e-3, table_size=512
    )


def configurations():
    """Yield (label, pair builder, grid size) for every pinned configuration."""
    for pair_type in EXACT_BASES:
        for slope in (0.2, -0.2):
            yield (
                f"exact type {pair_type} tau=0.8{slope:+g}*s grid {EXACT_GRID}",
                lambda t=pair_type, k=slope: _exact(t, k),
                EXACT_GRID,
            )
    for name in ("paper-example-1", "paper-example-2"):
        for lam in (20.0, -7.5):
            yield (
                f"{name} binormal lambda={lam:g} grid {REFERENCE_GRID}",
                lambda n=name, m=lam: MannheimPair.from_binormal_offset(builtin_curve(n), m),
                REFERENCE_GRID,
            )
    yield (
        f"paper-example-2 normal lambda=0.5 grid {REFERENCE_GRID}",
        lambda: MannheimPair.from_normal_offset(builtin_curve("paper-example-2"), 0.5),
        REFERENCE_GRID,
    )
    yield (
        f"pair-verify {SHARED_SPEC} lambda=1 grid {REFERENCE_GRID}",
        lambda: MannheimPair.from_shared_parameter(
            resolve_curve_spec(SHARED_SPEC), resolve_curve_spec(SHARED_SPEC), 1.0
        ),
        REFERENCE_GRID,
    )


def digest(reports: list) -> str:
    text = json.dumps([r.to_json_dict() for r in reports], indent=2, allow_nan=False) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--residuals",
        action="store_true",
        help="print each report's verdict and max residual instead of digests",
    )
    args = parser.parse_args()
    for label, build, grid in configurations():
        reports = _run_pair_suite(build(), grid, None)
        if not args.residuals:
            print(f"{digest(reports)}  {label}", flush=True)
            continue
        for r in reports:
            worst = "null" if r.max_residual is None else f"{r.max_residual:.3e}"
            print(f"{label} | {r.identity} {r.verdict.value} {worst}", flush=True)


if __name__ == "__main__":
    main()
