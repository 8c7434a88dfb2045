"""Workload definitions: seeded inputs, the ops, and how each op is checked.

Every workload is a closed loop with one caller and no think time.  Inputs
come from ``random.Random(f"{workload}:{seed}")``, so the same seed gives the
same inputs, and every op draws fresh values: no two ops of a run share an
input and every op builds a fresh pair (a pair caches its frames, so reusing
one would measure the cache).

The in-process ops call the package only through attributes looked up at
call time: the pair constructors on the ``mannheim_lab`` namespace and the
suite through ``mannheim_lab.cli._run_pair_suite``, the function behind
``examples run`` and ``pair-verify``.  A traced run therefore sees the calls
the harness makes, and the audited suite follows the CLI's.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import sys

import check

REFERENCE_GRID = 101
EXACT_GRID = 201
EXACT_TABLE = 512
EXACT_STEP = 1e-3

# Exact-pair rotation: (kind of the base curve C, pair type it yields).
EXACT_ROTATION = (
    ("TIMELIKE", 2),
    ("SPACELIKE_EPS_MINUS", 3),
    ("SPACELIKE_EPS_PLUS", 5),
)
# Reference pairs from a binormal offset of each built-in curve.
REFERENCE_TYPES = {"paper-example-1": 3, "paper-example-2": 1}
# Built-in curves have constant frame scalars: (kind, kappa, tau).
BUILTIN_FRAMES = {
    "paper-example-1": ("spacelike+", 0.5, math.sqrt(5.0) / 2.0),
    "paper-example-2": ("timelike", 2.0, math.sqrt(3.0)),
}

# Grids of the CSV-writing CLI commands: large enough that each command's
# own work is a visible share beside interpreter start-up.
CLI_GRIDS = {
    "export-plot": 50000,
    "offset": 8000,
    "indicatrix": 20000,
    "synthesize": 8000,
    "classify": 4000,
}
# The audit commands come first so that every run measures accuracy.
CLI_MIX = (
    "examples-1",
    "export-plot",
    "offset-curve",
    "offset-cstar",
    "indicatrix",
    "examples-2",
    "synthesize",
    "classify",
    "frenet",
    "pair-verify",
)
CLI_KINDS = ("timelike", "spacelike+", "spacelike-")


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi), 6)


def _linear(a: float, b: float) -> str:
    """``a + b*s`` in the grammar, which has no unary minus."""
    return f"{a!r} + {b!r}*s" if b >= 0 else f"{a!r} - {-b!r}*s"


# ---------------------------------------------------------------------------
# inputs


def reference_inputs(seed: int):
    rng = rng_for("reference-audit", seed)
    for i in itertools.count():
        name = ("paper-example-1", "paper-example-2")[i % 2]
        yield {"curve": name, "lam": _signed(rng, 5.0, 30.0)}


def exact_inputs(seed: int):
    rng = rng_for("exact-audit", seed)
    for i in itertools.count():
        kind, pair_type = EXACT_ROTATION[i % len(EXACT_ROTATION)]
        a = round(rng.uniform(0.6, 1.0), 6)
        b = _signed(rng, 0.1, 0.3)
        lam = round(rng.uniform(0.15, 0.35), 6)
        if kind == "TIMELIKE":
            lam = -lam
        yield {
            "kind": kind,
            "type": pair_type,
            "tau": _linear(a, b),
            "slope": 1 if b > 0 else -1,
            "lam": lam,
        }


def cli_inputs(seed: int, workdir: str):
    """CLI argument vectors from a fixed rotating mix, with their checks."""
    rng = rng_for("cli-session", seed)
    for i in itertools.count():
        name = CLI_MIX[i % len(CLI_MIX)]
        stem = os.path.join(workdir, f"op{i}")
        yield dict(_cli_op(name, rng, stem), name=name)


def _cli_op(name: str, rng: random.Random, stem: str) -> dict:
    csv_out, json_out = stem + ".csv", stem + ".json"
    if name == "export-plot":
        grid = CLI_GRIDS["export-plot"]
        curve = rng.choice(sorted(BUILTIN_FRAMES))
        argv = ["export-plot", "--curve", curve, "--grid", str(grid), "--out", csv_out]
        return {"argv": argv, "out": csv_out, "expect": ("csv", grid)}
    if name in ("offset-curve", "offset-cstar"):
        grid = CLI_GRIDS["offset"]
        if name == "offset-curve":
            flag, curve, lam = "--curve", "paper-example-2", _signed(rng, 0.2, 2.0)
        else:
            flag, curve, lam = "--cstar", "paper-example-1", _signed(rng, 5.0, 30.0)
        argv = ["offset", flag, curve, "--lambda", repr(lam), "--grid", str(grid), "--out", csv_out]
        return {"argv": argv, "out": csv_out, "expect": ("csv", grid)}
    if name == "indicatrix":
        grid = CLI_GRIDS["indicatrix"]
        curve = rng.choice(sorted(BUILTIN_FRAMES))
        which = rng.choice(("T", "N", "B"))
        argv = ["indicatrix", "--curve", curve, "--which", which, "--grid", str(grid), "--out", csv_out]
        return {"argv": argv, "out": csv_out, "expect": ("csv", grid)}
    if name == "synthesize":
        grid = CLI_GRIDS["synthesize"]
        kappa = f"{round(rng.uniform(0.8, 1.2), 6)!r} + {round(rng.uniform(0.05, 0.2), 6)!r}*sin(s)"
        tau = _linear(round(rng.uniform(0.3, 0.7), 6), _signed(rng, 0.1, 0.3))
        argv = [
            "synthesize", "--kind", rng.choice(CLI_KINDS), "--kappa", kappa, "--tau", tau,
            "--range", "0:2", "--grid", str(grid), "--out", csv_out,
        ]
        return {"argv": argv, "out": csv_out, "expect": ("csv", grid)}
    if name == "classify":
        kind = rng.choice(CLI_KINDS)
        kappa = _linear(round(rng.uniform(1.0, 2.0), 6), round(rng.uniform(0.1, 0.4), 6))
        tau = repr(round(rng.uniform(0.3, 1.2), 6))
        spec = f"synth:kind={kind},kappa={kappa},tau={tau}"
        argv = ["classify", "--curve", spec, "--grid", str(CLI_GRIDS["classify"]), "--out", json_out]
        character = "timelike" if kind == "timelike" else "spacelike"
        return {"argv": argv, "out": json_out, "expect": ("classify", character)}
    if name == "frenet":
        curve = rng.choice(sorted(BUILTIN_FRAMES))
        at = round(rng.uniform(0.0, 1.0), 6)
        argv = ["frenet", "--curve", curve, "--at", repr(at), "--out", json_out]
        return {"argv": argv, "out": json_out, "expect": ("frenet", BUILTIN_FRAMES[curve])}
    if name in ("examples-1", "examples-2"):
        number = name[-1]
        lam = _signed(rng, 5.0, 30.0)
        argv = ["examples", "run", number, "--lambda", repr(lam), "--grid", str(REFERENCE_GRID), "--out", json_out]
        pair_type = REFERENCE_TYPES[f"paper-example-{number}"]
        return {"argv": argv, "out": json_out, "expect": ("reports", pair_type, check.REFERENCE_VERDICTS)}
    if name == "pair-verify":
        kappa = _linear(round(rng.uniform(1.5, 2.5), 6), round(rng.uniform(0.1, 0.4), 6))
        tau = repr(round(rng.uniform(0.5, 1.2), 6))
        spec = f"synth:kind=timelike,kappa={kappa},tau={tau}"
        lam = round(rng.uniform(0.5, 2.0), 6)
        argv = [
            "pair-verify", "--c", spec, "--cstar", spec, "--lambda", repr(lam),
            "--grid", str(REFERENCE_GRID), "--out", json_out,
        ]
        return {"argv": argv, "out": json_out, "expect": ("reports", 2, check.SHARED_COPY_VERDICTS)}
    raise ValueError(f"unknown CLI op {name!r}")


# ---------------------------------------------------------------------------
# in-process audit ops


def setup(workload: str) -> dict:
    """What the loop reuses across ops: the package and built-in curves."""
    import mannheim_lab as ml
    import mannheim_lab.cli as cli

    state = {"ml": ml, "cli": cli}
    if workload == "reference-audit":
        state["curves"] = {name: ml.builtin_curve(name) for name in REFERENCE_TYPES}
    return state


def emit_reports(reports: list) -> str:
    """JSON text of the report array, as the CLI writes it to ``--out``.

    A function of its own so that a traced run can time emission.
    """
    return json.dumps([r.to_json_dict() for r in reports], indent=2)


def audit_op(workload: str, state: dict, inp: dict) -> tuple[int, str]:
    """Build a fresh pair, run the suite, serialize: (pair type, JSON text)."""
    ml = state["ml"]
    if workload == "reference-audit":
        pair = ml.MannheimPair.from_binormal_offset(state["curves"][inp["curve"]], inp["lam"])
        grid_n = REFERENCE_GRID
    else:
        tau = ml.parse_expr(inp["tau"])
        pair = ml.exact_partner_pair(
            getattr(ml.CurveKind, inp["kind"]),
            tau.eval,
            inp["lam"],
            s_range=(0.0, 1.0),
            step=EXACT_STEP,
            table_size=EXACT_TABLE,
        )
        grid_n = EXACT_GRID
    return pair.pair_type.value, emit_reports(state["cli"]._run_pair_suite(pair, grid_n, None))


def expected_audit(workload: str, inp: dict) -> tuple[int, str]:
    if workload == "reference-audit":
        return REFERENCE_TYPES[inp["curve"]], check.REFERENCE_VERDICTS
    return inp["type"], check.EXACT_VERDICTS[(inp["type"], inp["slope"])]


def check_audit(workload: str, inp: dict, pair_type: int, text: str) -> tuple[list[str], float | None]:
    """Problems with an audit op's output, and its accuracy in digits."""
    want_type, want_verdicts = expected_audit(workload, inp)
    reports = json.loads(text)
    problems = check.check_reports(reports, want_verdicts)
    if pair_type != want_type:
        problems.append(f"pair type {pair_type} != expected {want_type}")
    return problems, check.accuracy_digits(reports) if isinstance(reports, list) else None


# ---------------------------------------------------------------------------
# CLI ops


def check_cli(inp: dict, returncode: int, stdout: str) -> tuple[list[str], float | None]:
    """Problems with a CLI op's exit code and output file, and its accuracy."""
    kind = inp["expect"][0]
    allowed = {0, 1} if inp["name"] == "pair-verify" else {0}
    if returncode not in allowed:
        return [f"exit code {returncode} not in {sorted(allowed)}"], None
    if kind == "csv":
        return check.check_csv(inp["out"], inp["expect"][1]), None
    try:
        with open(inp["out"]) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"JSON output unreadable: {exc}"], None
    if kind == "classify":
        got = payload.get("causal_character") if isinstance(payload, dict) else None
        want = inp["expect"][1]
        return ([] if got == want else [f"causal character {got!r} != {want!r}"]), None
    if kind == "frenet":
        return check.check_frame(payload, *inp["expect"][1]), None
    _, want_type, want_verdicts = inp["expect"]
    problems = check.check_reports(payload, want_verdicts)
    if not problems:
        failed = any(r["verdict"] == "Fail" for r in payload)
        if returncode != int(failed):
            problems.append(f"exit code {returncode} disagrees with the verdicts")
    if f"pair type: {want_type} " not in stdout:
        problems.append(f"stdout does not report pair type {want_type}")
    accuracy = check.accuracy_digits(payload) if isinstance(payload, list) else None
    return problems, accuracy


def python_env() -> dict:
    """Environment for CLI children: the package from ``src``, as tier-1 uses it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MANNHEIM_LAB_FP_MODE", None)
    return env


def cli_command(argv: list[str], traced: tuple[str, int] | None = None) -> list[str]:
    """Untraced: ``python -m mannheim_lab``.  Traced: the benchmark's child
    entry point, given (summary path, op id)."""
    if traced is None:
        return [sys.executable, "-m", "mannheim_lab", *argv]
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
    return [sys.executable, child, traced[0], str(traced[1]), *argv]
