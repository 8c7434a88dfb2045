"""Component timings and the accuracy fingerprint, as a markdown report.

    python3 perfbench/baseline.py > perfbench/BASELINE.md

Re-measures, with this harness, the component rows that ROADMAP.md listed
as ad hoc baseline timings, each as the median of REPEATS runs on fresh
objects, and prints the max residual of every report of the suite
(``cli._run_pair_suite``, as ``examples run`` runs it) on the two reference
pairs (lambda = 20) and the exact type 2/3/5 pairs of
``tests/conftest.py``, at grid 101.  Run from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import run  # puts src on sys.path

import mannheim_lab as ml
import mannheim_lab.cli as cli

REPEATS = 3

# The exact pairs of tests/conftest.py: kind, torsion profile, lambda.
EXACT_FIXTURES = {
    2: ("TIMELIKE", "0.8 + 0.2*s", -0.3),
    3: ("SPACELIKE_EPS_MINUS", "0.8 - 0.2*s", 0.3),
    5: ("SPACELIKE_EPS_PLUS", "0.8 + 0.2*s", 0.3),
}


def exact_pair(pair_type: int):
    kind, tau, lam = EXACT_FIXTURES[pair_type]
    return ml.exact_partner_pair(
        getattr(ml.CurveKind, kind), ml.parse_expr(tau).eval, lam, step=1e-3, table_size=512
    )


def reference_pair(name: str = "paper-example-2"):
    return ml.MannheimPair.from_binormal_offset(ml.builtin_curve(name), 20.0)


def median_time(make, work) -> float:
    """Median seconds of ``work(make())``; ``make`` runs outside the timing."""
    times = []
    for _ in range(REPEATS):
        obj = make()
        start = time.perf_counter()
        work(obj)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def rows() -> list[tuple[str, float, str]]:
    curve = ml.builtin_curve("paper-example-2")
    points = [i / 1000 for i in range(1001)]
    offset = ml.offset_along_binormal(curve, 20.0)
    return [
        (
            "`frenet_apparatus`, built-in curve (per point, 1001 points)",
            median_time(lambda: None, lambda _: [ml.frenet_apparatus(curve, s) for s in points])
            / len(points) * 1e6,
            "µs",
        ),
        (
            "1024-node arc-length table (`reparametrize_unit` of the lambda=20 binormal offset of example 2)",
            median_time(lambda: None, lambda _: ml.reparametrize_unit(offset, 1024)) * 1e3,
            "ms",
        ),
        (
            "`from_binormal_offset(example 2, 20)`",
            median_time(lambda: None, lambda _: reference_pair()) * 1e3,
            "ms",
        ),
        (
            "full suite on that pair, grid 101",
            median_time(reference_pair, lambda p: cli._run_pair_suite(p, 101, None)),
            "s",
        ),
        (
            "exact type-3 pair build",
            median_time(lambda: None, lambda _: exact_pair(3)),
            "s",
        ),
        (
            "its full suite, grid 101",
            median_time(lambda: exact_pair(3), lambda p: cli._run_pair_suite(p, 101, None)),
            "s",
        ),
        (
            "its full suite, grid 1001",
            median_time(lambda: exact_pair(3), lambda p: cli._run_pair_suite(p, 1001, None)),
            "s",
        ),
    ]


def fingerprint() -> dict[str, dict[str, float]]:
    pairs = {
        "paper-example-1": reference_pair("paper-example-1"),
        "paper-example-2": reference_pair("paper-example-2"),
        **{f"exact type {t}": exact_pair(t) for t in EXACT_FIXTURES},
    }
    return {
        name: {r.identity: r.max_residual for r in cli._run_pair_suite(pair, 101, None)}
        for name, pair in pairs.items()
    }


def main() -> int:
    os.chdir(run.ROOT)
    meta = run.metadata({"repeats": REPEATS})
    table = rows()
    prints = fingerprint()
    out = sys.stdout
    out.write("# Baseline: component timings and accuracy fingerprint\n\n")
    out.write("Written by `python3 perfbench/baseline.py`; medians of "
              f"{REPEATS} repeats on fresh objects.\n\n")
    out.write(f"```json\n{json.dumps(meta, indent=1)}\n```\n\n")
    out.write("| component | median | unit |\n| --- | --- | --- |\n")
    for name, value, unit in table:
        out.write(f"| {name} | {value:.4g} | {unit} |\n")
    identities = list(next(iter(prints.values())))
    out.write("\nMax residual per report, grid 101:\n\n")
    out.write("| report | " + " | ".join(prints) + " |\n")
    out.write("| --- |" + " --- |" * len(prints) + "\n")
    for ident in identities:
        out.write(f"| {ident} | " + " | ".join(f"{prints[p][ident]:.3e}" for p in prints) + " |\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
