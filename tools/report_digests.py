"""Print one sha256 of the audit-suite JSON for each pinned configuration.

A change that claims to keep report output bit for bit the same is checked
by running this script before and after it and diffing the two outputs:

    python tools/report_digests.py > before.txt
    # apply the change
    python tools/report_digests.py > after.txt
    diff before.txt after.txt

The script imports ``mannheim_lab`` from the ``src`` directory of its own
checkout, ahead of any installed copy or ``PYTHONPATH`` entry, and prints the
path of the package it digests to stderr.

With ``--residuals`` it prints, instead of digests, one line per report of
each configuration (verdict and max residual), for a before/after table of
a change that moves report numbers on purpose.  The reports of a
configuration are the rows of ``mannheim.IDENTITIES``, in table order.

With ``--csv`` it prints instead one sha256 per output file of the CLI's
file-writing commands on pinned argument lists (``CLI_COMMANDS``):
``export-plot``, ``offset --curve``/``--cstar``, ``indicatrix`` of T, N and
B, ``synthesize``, and the JSON of ``classify`` and ``frenet``.
``export-plot``, ``offset --cstar``, ``indicatrix`` of N and ``classify``
run once more on a grid of ``2 * CSV_CHUNK_ROWS + 1`` rows, which crosses
two chunk boundaries of the grid evaluation.  Each
command runs in process in a scratch directory that also holds the
``samples.csv`` read by the ``csv:`` specs, so no path enters a digest.
Its lines read ``<sha256> exit <code>  <arguments>``; a command that fails
writes no file and shows ``no output`` with its exit code (its message goes
to stderr).

With ``--synth`` it prints instead one sha256 of the integrated states of
``frenet_synthesize`` per configuration (``SYNTH_TAUS`` x ``SYNTH_RANGES``
for every curve kind, curvature ``SYNTH_KAPPA``, each from the fixed start
frame at the origin): the bytes of ``synth_nodes`` s, p, T, N and B, so the
sign of a zero counts too, followed by the configuration and its
``synthesized_gram_drift``, so accuracy shows next to the bits.

Each line is ``<sha256>  <configuration>``.  The digest covers the JSON
array that ``mannheim-lab pair-verify --out`` writes: the reports of
``cli._run_pair_suite``, one per row of ``mannheim.IDENTITIES``, serialized
as ``cli._emit_json`` does.  The
configurations are

* exact partner pairs of types 2, 3 and 5 with torsion 0.8 +/- 0.2 s
  (synthesis step 1e-3, inverse table 512), audited at grid 201;
* the type-3 exact pair with the transcendental torsion ``SINE_TAU``, a
  parsed expression, so the function jets of ``Expr.eval`` are pinned too;
* binormal offsets of ``paper-example-1`` and ``-2`` at lambda 20 and
  -7.5, audited at grid 101;
* the type-4 normal offset of ``paper-example-2`` at lambda 0.5, grid 101,
  whose collinearity hypothesis fails: its linear-relation report holds
  ``null`` residuals where mu is undefined, counted by ``undefined_at``;
* the shared-parameter pair that ``pair-verify --c SPEC --cstar SPEC``
  builds from one ``synth:`` spec (curvature and torsion both parsed
  expressions, evaluated by ``Expr.eval``) at lambda 1, grid 101: the copy
  of a curve is no partner, so its distance report fails;
* the binormal offset at lambda 20 of ``paper-example-1`` reparametrized by
  a 256-node arc-length table, grid 101: the reparametrized curve carries
  the built-in's scalar jet, its derivatives chained through the table's
  inverse map, so the offset's jets read that chain;
* the shared-parameter pair of two raw curves that are not unit-speed, the
  binormal offset at lambda 20 and the normal offset at lambda -0.5 of
  ``paper-example-1``, at lambda 1 with 256-node arc-length tables, grid
  101: both sides are chained to unit speed, so C's arc length maps to the
  raw parameter through its table, C* is evaluated there through its own
  chain, which builds no table, and the rate reads both raw speeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import mannheim_lab  # noqa: E402 - after the path of this checkout
from mannheim_lab import (  # noqa: E402
    MannheimPair,
    builtin_curve,
    exact_partner_pair,
    frenet_synthesize,
    offset_along_binormal,
    offset_along_normal,
    parse_expr,
    reparametrize_unit,
)
from mannheim_lab.cli import _run_pair_suite, main as cli_main, resolve_curve_spec  # noqa: E402
from mannheim_lab.curve import CSV_CHUNK_ROWS  # noqa: E402
from mannheim_lab.frenet import CurveKind, synthesized_gram_drift  # noqa: E402

EXACT_GRID = 201
REFERENCE_GRID = 101
SHARED_SPEC = "synth:kind=timelike,kappa=2 + 0.3*s,tau=0.9"
SINE_TAU = "0.8 + 0.1 * sin(3 * s)"

# Pair type -> (kind of the base curve C, lambda), as in the test fixtures.
EXACT_BASES = {
    2: (CurveKind.TIMELIKE, -0.3),
    3: (CurveKind.SPACELIKE_EPS_MINUS, 0.3),
    5: (CurveKind.SPACELIKE_EPS_PLUS, 0.3),
}


# Curves of the CSV commands: both built-ins, one synthesized curve, and a
# ``csv:`` curve through 41 samples of ``paper-example-2`` (written first).
SYNTH_SPEC = "synth:kind=spacelike-,kappa=1 + 0.1*sin(s),tau=0.5 - 0.2*s,range=0:2"
CSV_SPEC = "csv:samples.csv"
CSV_CURVES = ("paper-example-1", "paper-example-2", SYNTH_SPEC, CSV_SPEC)
# A grid that crosses two boundaries of ``CSV_CHUNK_ROWS`` rows.
CHUNKED_GRID = str(2 * CSV_CHUNK_ROWS + 1)
CLI_COMMANDS = (
    *(["export-plot", "--curve", c, "--grid", "2000"] for c in CSV_CURVES),
    *(["offset", "--curve", c, "--lambda", "0.3", "--grid", "1000"] for c in CSV_CURVES),
    *(["offset", "--cstar", c, "--lambda", "-7.5", "--grid", "1000"] for c in CSV_CURVES),
    *(
        ["indicatrix", "--curve", c, "--which", w, "--grid", "1000"]
        for c in CSV_CURVES
        for w in ("T", "N", "B")
    ),
    *(
        ["synthesize", "--kind", k, "--kappa", "1 + 0.1*sin(s)", "--tau", "0.6 - 0.2*s",
         "--range", "0:2", "--grid", "1000"]
        for k in ("timelike", "spacelike+", "spacelike-")
    ),
    *(["classify", "--curve", c, "--grid", "500"] for c in CSV_CURVES),
    *(["frenet", "--curve", c, "--at", at] for c in CSV_CURVES for at in ("0", "0.37", "1")),
    *(
        argv
        for c in ("paper-example-1", SYNTH_SPEC)
        for argv in (
            ["export-plot", "--curve", c, "--grid", CHUNKED_GRID],
            ["offset", "--cstar", c, "--lambda", "-7.5", "--grid", CHUNKED_GRID],
            ["indicatrix", "--curve", c, "--which", "N", "--grid", CHUNKED_GRID],
            ["classify", "--curve", c, "--grid", CHUNKED_GRID],
        )
    ),
)


# Synthesis states: torsions including tau = 0, and (range, step) pairs of
# 1000 steps, 2143 steps (no power of two: the scan's last level is partial),
# one step, and 5000 steps, whose second chunk of ``frenet._SYNTH_BLOCK``
# (4096) steps starts from the first one's last frame.
SYNTH_KAPPA = "1 + 0.1*sin(s)"
SYNTH_TAUS = ("0.6 - 0.2*s", "0", "0.5*cos(3*s)")
SYNTH_RANGES = (((0.0, 1.0), 1e-3), ((-1.0, 0.5), 7e-4), ((0.0, 0.01), 0.01), ((0.0, 5.0), 1e-3))


def synth_digests():
    """Yield (sha256 of the synthesis nodes, configuration and Gram drift) for every kind."""
    kappa = parse_expr(SYNTH_KAPPA).eval
    for kind in CurveKind:
        for tau in SYNTH_TAUS:
            for s_range, step in SYNTH_RANGES:
                c = frenet_synthesize(kind, kappa, parse_expr(tau).eval, s_range, step)
                h = hashlib.sha256()
                for key in ("s", "p", "T", "N", "B"):
                    h.update(c.synth_nodes[key].tobytes())
                a, b = s_range
                yield h.hexdigest(), (
                    f"{kind.value} tau={tau} range={a:g}:{b:g} step {step:g} "
                    f"gram drift {synthesized_gram_drift(c):.3e}"
                )


def cli_digests():
    """Yield (sha256 of the output file, argument list) for ``CLI_COMMANDS``."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            cli_main(["export-plot", "--curve", "paper-example-2", "--grid", "41",
                      "--out", "samples.csv"])
            for argv in CLI_COMMANDS:
                code = cli_main([*argv, "--out", "out"])
                if not os.path.exists("out"):  # an error exit writes nothing
                    yield f"{'no output':64s} exit {code}", " ".join(argv)
                    continue
                with open("out", "rb") as fh:
                    text = fh.read()
                os.remove("out")
                yield f"{hashlib.sha256(text).hexdigest()} exit {code}", " ".join(argv)
        finally:
            os.chdir(here)


def _exact(pair_type: int, tau_fn) -> MannheimPair:
    kind, lam = EXACT_BASES[pair_type]
    return exact_partner_pair(kind, tau_fn, lam, (0.0, 1.0), step=1e-3, table_size=512)


def configurations():
    """Yield (label, pair builder, grid size) for every pinned configuration."""
    for pair_type in EXACT_BASES:
        for slope in (0.2, -0.2):
            yield (
                f"exact type {pair_type} tau=0.8{slope:+g}*s grid {EXACT_GRID}",
                lambda t=pair_type, k=slope: _exact(t, lambda s: 0.8 + k * s),
                EXACT_GRID,
            )
    yield (
        f"exact type 3 tau={SINE_TAU} grid {EXACT_GRID}",
        lambda: _exact(3, parse_expr(SINE_TAU).eval),
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
    yield (
        f"paper-example-1 unit-speed table 256 binormal lambda=20 grid {REFERENCE_GRID}",
        lambda: MannheimPair.from_binormal_offset(
            reparametrize_unit(builtin_curve("paper-example-1"), 256), 20.0
        ),
        REFERENCE_GRID,
    )
    yield (
        f"paper-example-1 binormal lambda=20 and normal lambda=-0.5 shared lambda=1 "
        f"table 256 grid {REFERENCE_GRID}",
        lambda: MannheimPair.from_shared_parameter(
            offset_along_binormal(builtin_curve("paper-example-1"), 20.0),
            offset_along_normal(builtin_curve("paper-example-1"), -0.5),
            1.0,
            256,
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
    parser.add_argument(
        "--csv",
        action="store_true",
        help="print digests of the CLI's CSV and JSON output files instead",
    )
    parser.add_argument(
        "--synth",
        action="store_true",
        help="print digests of the synthesized node states instead",
    )
    args = parser.parse_args()
    print(f"mannheim_lab: {mannheim_lab.__file__}", file=sys.stderr)
    if args.csv or args.synth:
        for text, label in cli_digests() if args.csv else synth_digests():
            print(f"{text}  {label}", flush=True)
        return
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
