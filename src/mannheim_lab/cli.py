"""Command-line front end.

Exit codes: 0 on success with no failed verdict, 1 on any Fail verdict or
domain error, 2 on usage, curve-spec or expression parse errors and on a
synthesis step too small for its range (``frenet.MAX_SYNTH_STEPS``, or
integration nodes that do not differ as floats).

Curve specs accepted by ``--curve/-c`` and ``--cstar``:

  paper-example-1 | paper-example-2        built-in reference curves
  csv:PATH                                 samples in t,x1,x2,x3 CSV form
  synth:kind=KIND,kappa=EXPR,tau=EXPR[,range=A:B][,step=H]
                                           curve synthesized from scalars

KIND is one of timelike, spacelike+, spacelike-.  Expressions use the
grammar documented in the README (no unary minus; write ``0-x``).

A command imports only what it runs: this module loads the curve, frame and
expression layers that resolving a curve spec needs, and a command imports
the offsets, the pair audit (``mannheim``, with ``reports``) or the
spherical images (``indicatrix``) when it runs.  No curve command loads the
audit, and no pair command the images.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import __version__
from .builtins import BUILTIN_CURVE_NAMES, builtin_curve
from .curve import (
    MAX_TABLE_SIZE, Curve, CurveSamples, classify_curve, curve_from_samples, load_samples_csv,
    reparametrize_unit, sample,
)
from .errors import (
    CsvFormatError,
    ExprSyntaxError,
    MannheimLabError,
    TooManyStepsError,
)
from .expr import parse_expr
from .frenet import (
    UNIT_SPEED_TOL, CurveKind, FrameGrid, frame_gram_residual, frenet_apparatus, frenet_synthesize
)

if TYPE_CHECKING:
    from .mannheim import MannheimPair
    from .reports import VerificationReport

_KINDS = {kind.value: kind for kind in CurveKind}


class SpecError(ValueError):
    """Malformed curve spec on the command line."""


def _synthesize_from_parts(parts: dict[str, str]) -> Curve:
    try:
        kind = _KINDS[parts.pop("kind")]
    except KeyError as exc:
        raise SpecError(f"synth spec needs kind= one of {sorted(_KINDS)} ({exc})")
    try:
        kappa_expr = parse_expr(parts.pop("kappa"))
        tau_expr = parse_expr(parts.pop("tau"))
    except KeyError as exc:
        raise SpecError(f"synth spec is missing {exc}")
    rng = parts.pop("range", "0:1")
    try:
        a, b = (float(x) for x in rng.split(":"))
    except ValueError:
        raise SpecError(f"bad range {rng!r}; expected A:B")
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise SpecError(f"bad range {rng!r}; expected A:B with finite A < B")
    try:
        step = _positive_float(parts.pop("step", "1e-3"))
    except argparse.ArgumentTypeError as exc:
        raise SpecError(f"bad synth step: {exc}") from None
    if parts:
        raise SpecError(f"unknown synth keys: {sorted(parts)}")
    return frenet_synthesize(kind, kappa_expr.eval, tau_expr.eval, (a, b), step)


def resolve_curve_spec(spec: str) -> Curve:
    """Turn a curve-spec string into a Curve."""
    if spec in BUILTIN_CURVE_NAMES:
        return builtin_curve(spec)
    head, _, rest = spec.partition(":")
    if head == "csv":
        if not rest:
            raise SpecError("csv spec needs a path: csv:PATH")
        return curve_from_samples(load_samples_csv(rest), label=rest)
    if head == "synth":
        parts: dict[str, str] = {}
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise SpecError(f"bad synth item {item!r}; expected key=value")
            key = key.strip()
            if key in parts:
                raise SpecError(f"repeated synth key {key!r}")
            parts[key] = value.strip()
        return _synthesize_from_parts(parts)
    raise SpecError(
        f"unknown curve spec {spec!r}; expected one of {', '.join(BUILTIN_CURVE_NAMES)}, "
        "csv:PATH or synth:..."
    )


def _ensure_unit(c: Curve) -> Curve:
    if c.unit_speed:
        return c
    return reparametrize_unit(c)


def _write_samples(samples: CurveSamples, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            samples.to_csv(fh)
    else:
        samples.to_csv(sys.stdout)


def _emit_json(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _frame_json(f: FrameGrid, s: float) -> dict:
    return {
        "s": s,
        "kind": tuple(CurveKind)[f.kinds[0]].value,
        "kappa": float(f.kappa[0]),
        "tau": float(f.tau[0]),
        "T": f.T[0].tolist(),
        "N": f.N[0].tolist(),
        "B": f.B[0].tolist(),
        "gram_residual": float(frame_gram_residual(f.T, f.N, f.B, f.kinds)[0]),
    }


def _run_pair_suite(pair: MannheimPair, grid_n: int, tol: float | None) -> list[VerificationReport]:
    """The reports of one pair on one grid, one per row of ``IDENTITIES``.

    ``tol`` (``--tol``) replaces the default tolerance of every row but
    frame-angle-rate, which keeps its published 1e-4, and
    center-ratio-nonconstancy, whose threshold comes from its own profile.
    """
    from .mannheim import IDENTITIES

    samples = pair.samples(grid_n)
    return [row.report(samples, tol) for row in IDENTITIES]


def _audit(pair: MannheimPair, grid_n: int, tol: float | None, out: str | None) -> int:
    """Run the suite, print one line per report and write the JSON array to
    ``out``; the exit code is 1 on any Fail verdict.  A report whose max or mean
    residual, tolerance or float detail is not finite raises ValueError first."""
    from .reports import Verdict

    reports = _run_pair_suite(pair, grid_n, tol)
    for r in reports:
        numbers = (r.max_residual, r.mean_residual, r.tolerance, *r.details.values())
        if not all(math.isfinite(v) for v in numbers if isinstance(v, float)):
            raise ValueError(f"report {r.identity} holds a number that is not finite at lambda {pair.lam:g}")
    print(f"pair type: {pair.pair_type.value} ({pair.pair_type.spec.description})")
    print(f"lambda: {pair.lam:.17g}")
    for r in reports:
        worst, mean = (
            "undefined" if v is None else f"{v:.3e}" for v in (r.max_residual, r.mean_residual)
        )
        print(
            f"{r.identity:28s} {r.verdict.value:8s} max={worst} mean={mean} tol={r.tolerance:.1e}"
        )
    if out:
        _emit_json([r.to_json_dict() for r in reports], out)
    return 1 if any(r.verdict is Verdict.FAIL for r in reports) else 0


def _cmd_classify(args) -> int:
    c = resolve_curve_spec(args.curve)
    character = classify_curve(c, args.grid)
    _emit_json({"label": c.label, "causal_character": character.value}, args.out)
    return 0


def _cmd_frenet(args) -> int:
    raw = resolve_curve_spec(args.curve)
    c, at = _ensure_unit(raw), args.at
    span, length = raw.domain[1] - raw.domain[0], c.domain[1]
    # A near-unit-speed curve (a sampled one, say) reparametrizes to an arc
    # length a little short of its range's, the end a user passes.
    if c is not raw and length < at <= span and span - length <= UNIT_SPEED_TOL * span:
        at = length
    f = frenet_apparatus(c, at)
    _emit_json(_frame_json(f, args.at), args.out)
    return 0


def _cmd_offset(args) -> int:
    from .offset import offset_along_binormal, offset_along_normal

    if (args.curve is None) == (args.cstar is None):
        raise SpecError("offset needs exactly one of --curve (normal) or --cstar (binormal)")
    if args.cstar is not None:
        base = _ensure_unit(resolve_curve_spec(args.cstar))
        off = offset_along_binormal(base, args.lam)
    else:
        base = _ensure_unit(resolve_curve_spec(args.curve))
        off = offset_along_normal(base, args.lam)
    _write_samples(sample(off, args.grid), args.out)
    return 0


def _cmd_synthesize(args) -> int:
    parts = {
        "kind": args.kind,
        "kappa": args.kappa,
        "tau": args.tau,
        "range": args.range,
        "step": repr(args.step),
    }
    c = _synthesize_from_parts(parts)
    _write_samples(sample(c, args.grid), args.out)
    return 0


def _cmd_pair_verify(args) -> int:
    from .mannheim import MannheimPair

    c = resolve_curve_spec(args.c)
    cstar = resolve_curve_spec(args.cstar)
    pair = MannheimPair.from_shared_parameter(c, cstar, args.lam)
    return _audit(pair, args.grid, args.tol, args.out)


def _cmd_indicatrix(args) -> int:
    from .indicatrix import indicatrix_of

    c = _ensure_unit(resolve_curve_spec(args.curve))
    ind = indicatrix_of(c, args.which)
    _write_samples(ind.samples(args.grid), args.out)
    return 0


def _cmd_examples(args) -> int:
    from .mannheim import MannheimPair

    name = f"paper-example-{args.number}"
    cstar = builtin_curve(name)
    pair = MannheimPair.from_binormal_offset(cstar, args.lam)
    return _audit(pair, args.grid, None, args.out)


def _cmd_export_plot(args) -> int:
    c = resolve_curve_spec(args.curve)
    _write_samples(sample(c, args.grid), args.out)
    return 0


def _grid_size(text: str) -> int:
    """argparse type of every ``--grid``: an integer in [2, ``MAX_TABLE_SIZE``],
    the bound on every table the package builds."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid grid size {text!r}; expected an integer in [2, {MAX_TABLE_SIZE}]"
        ) from None
    if not 2 <= n <= MAX_TABLE_SIZE:
        raise argparse.ArgumentTypeError(f"grid size must be in [2, {MAX_TABLE_SIZE}], got {n}")
    return n


def _finite_float(text: str) -> float:
    """argparse type of ``--at`` and ``--lambda``: a finite float."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _positive_float(text: str) -> float:
    """argparse type of ``--step``: a finite float above zero."""
    x = _finite_float(text)
    if not x > 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return x


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a finite float, zero or above."""
    x = _finite_float(text)
    if not x >= 0.0:
        raise argparse.ArgumentTypeError(f"expected a tolerance >= 0, got {text!r}")
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mannheim-lab",
        description="Curve geometry and partner-curve identity audits in Minkowski 3-space.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve(p):
        p.add_argument("--curve", "-c", required=True, help="curve spec")

    p = sub.add_parser("classify", help="causal character of a curve's tangent")
    add_curve(p)
    p.add_argument("--grid", type=_grid_size, default=64)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("frenet", help="frame, curvature and torsion at a parameter")
    add_curve(p)
    p.add_argument("--at", type=_finite_float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_frenet)

    p = sub.add_parser("offset", help="offset curve along N (--curve) or B (--cstar)")
    p.add_argument("--curve", "-c", help="base curve; offsets along its normal")
    p.add_argument("--cstar", help="base curve; offsets along its binormal")
    p.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    p.add_argument("--grid", type=_grid_size, default=101)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_offset)

    p = sub.add_parser("synthesize", help="curve from prescribed kappa(s), tau(s)")
    p.add_argument("--kind", required=True, choices=sorted(_KINDS))
    p.add_argument("--kappa", required=True, help="expression in s")
    p.add_argument("--tau", required=True, help="expression in s")
    p.add_argument("--range", default="0:1", help="A:B parameter range")
    p.add_argument("--step", type=_positive_float, default=1e-3)
    p.add_argument("--grid", type=_grid_size, default=101)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("pair-verify", help="full identity audit of a corresponded pair")
    p.add_argument("--c", required=True, help="curve spec for C")
    p.add_argument("--cstar", required=True, help="curve spec for C*")
    p.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    p.add_argument("--grid", type=_grid_size, default=101)
    p.add_argument("--tol", type=_tolerance, default=None, help="override verifier tolerances")
    p.add_argument("--out", help="write the JSON report array here")
    p.set_defaults(func=_cmd_pair_verify)

    p = sub.add_parser("indicatrix", help="spherical image of a frame field")
    add_curve(p)
    p.add_argument("--which", required=True, choices=("T", "N", "B"))
    p.add_argument("--grid", type=_grid_size, default=101)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_indicatrix)

    p = sub.add_parser("examples", help="run the built-in reference pairs")
    p.add_argument("action", choices=("run",))
    p.add_argument("number", type=int, choices=(1, 2))
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=20.0)
    p.add_argument("--grid", type=_grid_size, default=101)
    p.add_argument("--out", help="write the JSON report array here")
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("export-plot", help="sample a curve to CSV for plotting")
    add_curve(p)
    p.add_argument("--grid", type=_grid_size, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_plot)

    # "-" and a digit start a value (--lambda -1e3, --range -1:1), not just -7 and -7.5 as in argparse
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(all="ignore"):  # a failure shows as its error line alone
            return args.func(args)
    except (
        SpecError,
        ExprSyntaxError,
        CsvFormatError,
        TooManyStepsError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MannheimLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
