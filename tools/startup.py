"""Per-command CLI start-up, measured as a paired difference.

For each command of the benchmark's cli-session mix this runs
``python -m mannheim_lab <argv>`` interleaved with a baseline child,
``python -c "import numpy, argparse, json, csv"``, which loads the libraries
every command loads, and prints per command the median and quartiles of the
difference (command minus the baseline run beside it) over the rounds.  That
difference is what the package costs a command: its imports, the command's
work and its output.  A child's wall time drifts with the host's load by
more than the package costs; pairing each run with a baseline run next to
it cancels most of that drift.

The commands use the CLI's default grids, so their own work stays small
beside start-up.  Several package sources may be given, say the ``src`` of
two checkouts; each round then runs them side by side, in an order that
rotates from round to round, and the table has one column per source.
Children run with ``PYTHONDONTWRITEBYTECODE=1``, so each compiles the
modules it imports from source, as the benchmark's children do where that
is set.  Standard library only.

    python tools/startup.py [--rounds N] [SRC ...]

SRC defaults to this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = [sys.executable, "-c", "import numpy, argparse, json, csv"]
SPEC = "synth:kind=timelike,kappa=1.8 + 0.2*s,tau=0.8"

# The cli-session mix, in its order, with the CLI's default grids; OUT is
# replaced by a file in a scratch directory.
COMMANDS = {
    "examples-1": ["examples", "run", "1", "--out", "OUT"],
    "export-plot": ["export-plot", "--curve", "paper-example-1", "--out", "OUT"],
    "offset-curve": ["offset", "--curve", "paper-example-2", "--lambda", "0.5", "--out", "OUT"],
    "offset-cstar": ["offset", "--cstar", "paper-example-1", "--lambda", "20", "--out", "OUT"],
    "indicatrix": ["indicatrix", "--curve", "paper-example-2", "--which", "N", "--out", "OUT"],
    "examples-2": ["examples", "run", "2", "--out", "OUT"],
    "synthesize": [
        "synthesize", "--kind", "spacelike-", "--kappa", "1 + 0.1*sin(s)", "--tau", "0.6 - 0.2*s",
        "--range", "0:2", "--out", "OUT",
    ],
    "classify": ["classify", "--curve", SPEC, "--out", "OUT"],
    "frenet": ["frenet", "--curve", "paper-example-1", "--at", "0.5", "--out", "OUT"],
    "pair-verify": ["pair-verify", "--c", SPEC, "--cstar", SPEC, "--lambda", "1", "--out", "OUT"],
}


def _wall(cmd: list[str], env: dict) -> float:
    """Seconds from start to exit of one child; its output is discarded."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 1):  # pair-verify of a curve with itself exits 1: no partner
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr.decode()}")
    return elapsed


def measure(sources: list[str], rounds: int, scratch: str) -> tuple[dict, list[float]]:
    """Per (command, source), the differences in seconds; and the baseline's times."""
    envs = [dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1") for src in sources]
    diffs = {(name, i): [] for name in COMMANDS for i in range(len(sources))}
    base_times = []
    for r in range(rounds):
        for name, argv in COMMANDS.items():
            out = os.path.join(scratch, name)
            cmd = [sys.executable, "-m", "mannheim_lab", *(out if a == "OUT" else a for a in argv)]
            # one baseline and one run of each source, in an order that rotates by round
            slots = [None, *range(len(sources))]
            slots = slots[r % len(slots):] + slots[: r % len(slots)]
            times = {i: _wall(cmd, envs[i]) if i is not None else _wall(BASELINE, envs[0]) for i in slots}
            base_times.append(times[None])
            for i in range(len(sources)):
                diffs[name, i].append(times[i] - times[None])
    return diffs, base_times


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Per-command CLI start-up beyond numpy, as a paired difference.")
    p.add_argument("sources", nargs="*", default=[os.path.join(ROOT, "src")], help="package source dirs")
    p.add_argument("--rounds", type=int, default=10)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    sources = [os.path.abspath(s) for s in args.sources]
    with tempfile.TemporaryDirectory() as scratch:
        diffs, base_times = measure(sources, args.rounds, scratch)
    q1, med, q3 = _quartiles(base_times)
    print(f"baseline child: median {med * 1e3:.1f} ms (IQR {q1 * 1e3:.1f}-{q3 * 1e3:.1f}), {len(base_times)} runs")
    for i, src in enumerate(sources):
        print(f"source {i}: {src}")
    print(f"command minus baseline, ms: median [q1, q3] per source over {args.rounds} rounds", end="")
    print("; then source i minus source 0, paired by round" if len(sources) > 1 else "")
    for name in COMMANDS:
        columns = [diffs[name, i] for i in range(len(sources))]
        columns += [[b - a for a, b in zip(columns[0], col)] for col in columns[1 : len(sources)]]
        cells = []
        for col in columns:
            q1, med, q3 = _quartiles(col)
            cells.append(f"{med * 1e3:7.1f} [{q1 * 1e3:6.1f}, {q3 * 1e3:6.1f}]")
        print(f"{name:14s}" + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
