"""mannheim-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``BENCHMARK.json`` for the
reason behind each):

* ``reference-audit``: binormal-offset pairs of the two built-in curves,
  full 12-report suite at grid 101, serialized to JSON;
* ``exact-audit``: exact partner pairs of types 2, 3 and 5 with a linear
  torsion profile, full suite at grid 201;
* ``cli-session``: sequential ``python -m mannheim_lab`` commands from a
  fixed rotating mix.

``--trace 0`` runs the closed loop for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` runs a fixed, seed-determined list of ops
twice, untraced and then traced, and prints the per-layer metrics with the
tracing overhead; span records go to ``.perfbench/trace/``.  Every output
is checked; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import filecmp
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("reference-audit", "exact-audit", "cli-session")
IN_PROCESS = ("reference-audit", "exact-audit")
SETUP_REPS = 5
# One rotation of a workload's inputs: one op per built-in curve, per exact
# pair type, or per command of the CLI mix.  A traced run holds one rotation;
# a timed run ends on a whole number of them.
ROTATION = {"reference-audit": 2, "exact-audit": 3, "cli-session": len(workloads.CLI_MIX)}
# op_s_p90 needs at least ten samples beyond it.
P90_MIN_OPS = 100
OUT_DIR = ".perfbench"
# Host-speed calibration: host_slowness() times CALIBRATION_SAMPLES loops of
# CALIBRATION_ITERATIONS each; one loop takes CALIBRATION_REFERENCE_S at the
# reference speed (2 vCPU x86-64 VM, Python 3.11).
CALIBRATION_SAMPLES = 5
CALIBRATION_ITERATIONS = 5_000
CALIBRATION_REFERENCE_S = 0.006
REQUIRED_FILES = (os.path.join("src", "mannheim_lab", "__init__.py"), os.path.join("docs", "report.schema.json"))

# Per-layer metrics: (name, unit, source, key, field).  Sources: "span"
# (per-op calls, outermost total_s or self_s, or max_depth), "count"
# (per-op count) and "run" (a value the harness computes).
LAYER_METRICS = (
    ("lorentz.Vec3L.new", "count/op", "count", "lorentz.Vec3L.new", None),
    ("lorentz.inner.calls", "count/op", "count", "lorentz.inner", None),
    ("lorentz.cross.calls", "count/op", "count", "lorentz.cross", None),
    ("curve.Curve.deriv.calls", "count/op", "span", "curve.Curve.deriv", "calls"),
    ("curve.Curve.deriv.self_s", "s/op", "span", "curve.Curve.deriv", "self_s"),
    ("curve.fd_weights.calls", "count/op", "span", "curve.fd_weights", "calls"),
    ("curve.fd_weights.self_s", "s/op", "span", "curve.fd_weights", "self_s"),
    ("curve.reparametrize_unit.total_s", "s/op", "span", "curve.reparametrize_unit", "total_s"),
    ("curve.speed.calls", "count/op", "count", "curve.speed", None),
    ("curve.arc_table.lookups", "count/op", "count", "curve.arc_table.lookups", None),
    ("curve.sample.total_s", "s/op", "span", "curve.sample", "total_s"),
    ("curve.CurveSamples.to_csv.total_s", "s/op", "span", "curve.CurveSamples.to_csv", "total_s"),
    ("frenet.frenet_apparatus.calls", "count/op", "span", "frenet.frenet_apparatus", "calls"),
    ("frenet.frenet_apparatus.self_s", "s/op", "span", "frenet.frenet_apparatus", "self_s"),
    ("frenet._scalar_fd.calls", "count/op", "span", "frenet._scalar_fd", "calls"),
    ("frenet._scalar_fd.max_depth", "depth", "span", "frenet._scalar_fd", "max_depth"),
    ("frenet.frenet_synthesize.total_s", "s/op", "span", "frenet.frenet_synthesize", "total_s"),
    ("frenet.spline.evals", "count/op", "count", "frenet.spline.evals", None),
    ("mannheim.pair_build.total_s", "s/op", "span", "mannheim.pair_build", "total_s"),
    ("mannheim.MannheimPair.frames_at.calls", "count/op", "span", "mannheim.MannheimPair.frames_at", "calls"),
    ("mannheim.frames_at.hit_ratio", "ratio", "run", "frames_hit_ratio", None),
    ("mannheim.theta.calls", "count/op", "count", "mannheim.theta", None),
    ("mannheim.mannheim_residual.calls", "count/op", "count", "mannheim.mannheim_residual", None),
    *(
        (f"{layer}.{verifier}.{field}", "s/op", "span", f"{layer}.{verifier}", field)
        for layer, verifier in (
            ("mannheim", "verify_distance"),
            ("mannheim", "verify_torsion_relation"),
            ("mannheim", "verify_linear_relation"),
            ("mannheim", "verify_frame_relations"),
            ("mannheim", "verify_torsion_square"),
            ("mannheim", "verify_ratio_nonconstant"),
            ("indicatrix", "verify_indicatrix_relations"),
        )
        for field in ("total_s", "self_s")
    ),
    ("indicatrix.Indicatrix.samples.total_s", "s/op", "span", "indicatrix.Indicatrix.samples", "total_s"),
    ("expr.parse_expr.total_s", "s/op", "span", "expr.parse_expr", "total_s"),
    ("expr.Expr.eval.calls", "count/op", "count", "expr.Expr.eval", None),
    ("reports.emit.total_s", "s/op", "span", "reports.emit", "total_s"),
    ("cli.import_s", "s/op", "run", "cli_import_s", None),
    ("cli.main.total_s", "s/op", "span", "cli.main", "total_s"),
    ("cli.startup_s", "s/op", "run", "cli_startup_s", None),
    ("trace.op_s", "s/op", "run", "traced_op_s", None),
    ("trace.untraced_op_s", "s/op", "run", "untraced_op_s", None),
    ("trace.overhead_ratio", "ratio", "run", "overhead_ratio", None),
)


class _CalibrationPoint:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float) -> None:
        self.a, self.b, self.c = a, b, c


def _calibration_loop() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        p = _CalibrationPoint(i * 0.5, i * 0.25, 1.0)
        q = _CalibrationPoint(p.a + p.b, p.b * p.c, p.a - p.c)
        acc += math.sqrt(abs(q.a * q.b - q.c))
    return time.perf_counter() - start


def host_slowness() -> float:
    """Median time of a fixed pure-Python loop over its reference time.

    The host's speed drifts by tens of percent over minutes, in CPU time as
    much as in wall time.  The loop does what the package's hot paths do
    (small-object allocation, attribute access, float arithmetic, calls)
    but calls nothing from the package, and runs with the garbage collector
    off so that the size of the program's heap cannot change its time.  One
    timing of a few milliseconds is often cut short or stretched by the
    scheduler; the median of several is steadier than one long loop.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        samples = [_calibration_loop() for _ in range(CALIBRATION_SAMPLES)]
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(samples) / CALIBRATION_REFERENCE_S


class OpLog:
    """Per-op times, failures and accuracy of one pass.

    ``wall`` holds measured wall times.  ``loop_times`` holds the wall time
    of each whole loop iteration: drawing the input, the op, and checking
    its output.  With ``scaled`` set, the host slowness is sampled before
    the first op and after each one, and ``times`` and ``loop_times`` are
    divided by the mean of the samples on either side; otherwise ``times``
    equals ``wall``.  The slowness samples themselves are in no timing.
    """

    def __init__(self, scaled: bool = False) -> None:
        self.wall: list[float] = []
        self.times: list[float] = []
        self.loop_times: list[float] = []
        self.slowness: list[float] = [host_slowness()] if scaled else []
        self.accuracy: list[float] = []
        self.failed = 0
        self.rss_kb = 0
        self._iteration_start = time.perf_counter()

    def add(self, seconds: float, problems: list[str], accuracy: float | None, label: str) -> None:
        iteration = time.perf_counter() - self._iteration_start
        scale = 1.0
        if self.slowness:
            self.slowness.append(host_slowness())
            scale = 0.5 * (self.slowness[-2] + self.slowness[-1])
        self._iteration_start = time.perf_counter()
        self.wall.append(seconds)
        self.times.append(seconds / scale)
        self.loop_times.append(iteration / scale)
        if problems:
            self.failed += 1
            print(f"FAILED op {len(self.wall) - 1} ({label}): {'; '.join(problems)}", file=sys.stderr)
        if accuracy is not None:
            self.accuracy.append(accuracy)

    @property
    def attempted(self) -> int:
        return len(self.wall)


# ---------------------------------------------------------------------------
# ops


def run_audit_op(workload: str, state: dict, inp: dict, log: OpLog, tracer=None, op_id=0) -> str | None:
    if tracer is not None:
        tracer.begin_op(op_id)
    start = time.perf_counter()
    try:
        pair_type, text = workloads.audit_op(workload, state, inp)
    except Exception as exc:  # an op that raises is a failed op; keep measuring
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        log.add(elapsed, [f"raised {type(exc).__name__}: {exc}"], None, repr(inp))
        return None
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    problems, accuracy = workloads.check_audit(workload, inp, pair_type, text)
    log.add(elapsed, problems, accuracy, repr(inp))
    return text


def run_child(cmd: list[str], stdout_path: str) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in KB)."""
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=workloads.python_env())
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def run_cli_op(inp: dict, log: OpLog, traced: tuple[str, int] | None = None) -> None:
    stdout_path = inp["out"] + ".stdout"
    argv = workloads.cli_command(inp["argv"], traced)
    code, elapsed, rss_kb = run_child(argv, stdout_path)
    with open(stdout_path) as fh:
        stdout = fh.read()
    problems, accuracy = workloads.check_cli(inp, code, stdout)
    if problems:
        problems.append(f"output: {stdout[-300:]!r}")
    log.rss_kb = max(log.rss_kb, rss_kb)
    log.add(elapsed, problems, accuracy, " ".join(inp["argv"][:3]))


def setup_probe_cmd(workload: str) -> list[str]:
    if workload == "cli-session":
        return [sys.executable, "-c", "import mannheim_lab.cli"]
    return [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--setup-probe"]


def measure_setup(workload: str, workdir: str) -> OpLog:
    """Fresh interpreters doing the workload's set-up, one op each."""
    log = OpLog()
    for i in range(SETUP_REPS):
        out = os.path.join(workdir, f"setup{i}.out")
        code, elapsed, _ = run_child(setup_probe_cmd(workload), out)
        if code != 0:
            with open(out) as fh:
                raise SystemExit(f"set-up probe failed with exit code {code}:\n{fh.read()}")
        log.add(elapsed, [], None, "set-up")
    return log


# ---------------------------------------------------------------------------
# runs


def closed_loop(workload: str, seed: int, seconds: float, workdir: str) -> OpLog:
    """One caller, no think time: start ops until ``seconds`` have passed.

    A run ends on a whole rotation of its inputs (both built-in curves, all
    three exact pair types, the whole CLI mix), so that every run weighs the
    rotation's ops, whose costs differ, alike.

    In-process op times are scaled by the host slowness.  Measured on the
    2-vCPU VM this was built on, the calibration loop's time follows an
    in-process op's (correlation 0.65 and 0.77 in two runs of ~200 ops on
    one input), and scaling halved the spread of 20-op medians (IQR / median
    16 % to 9 %).  It does not follow a child process, which mostly starts
    an interpreter and loads libraries (correlation 0.14-0.22), and scaling
    widened those spreads, so child times are left as measured.  Scaling by
    a child that imports the same libraries widened them too.
    """
    if workload in IN_PROCESS:
        state = workloads.setup(workload)
        inputs = (workloads.reference_inputs if workload == "reference-audit" else workloads.exact_inputs)(seed)
    else:
        inputs = workloads.cli_inputs(seed, workdir)
    rotation = ROTATION[workload]
    log = OpLog(scaled=workload in IN_PROCESS)
    start = time.perf_counter()
    for inp in inputs:
        if workload in IN_PROCESS:
            run_audit_op(workload, state, inp, log)
        else:
            run_cli_op(inp, log)
            _remove_outputs(inp)
        if log.attempted % rotation == 0 and time.perf_counter() - start >= seconds:
            break
    if workload in IN_PROCESS:
        log.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return log


def _remove_outputs(inp: dict) -> None:
    for path in (inp["out"], inp["out"] + ".stdout"):
        if os.path.exists(path):
            os.remove(path)


def traced_run(workload: str, seed: int, workdir: str, trace_dir: str) -> tuple[OpLog, dict]:
    """The fixed op list untraced, then traced; returns the traced log and metrics."""
    n_ops = ROTATION[workload]
    plain, traced = OpLog(), OpLog()
    summaries = []
    import_s: list[float] = []
    mismatches = 0
    if workload in IN_PROCESS:
        gen = workloads.reference_inputs if workload == "reference-audit" else workloads.exact_inputs
        inputs = list(itertools.islice(gen(seed), n_ops))
        state = workloads.setup(workload)
        texts = [run_audit_op(workload, state, inp, plain) for inp in inputs]
        tracer = tracing.Tracer()
        tracer.install(extra=[(workloads, "emit_reports", "reports.emit")])
        try:
            for i, inp in enumerate(inputs):
                text = run_audit_op(workload, state, inp, traced, tracer, i)
                if text != texts[i]:
                    mismatches += 1
                    print(f"FAILED op {i}: traced output differs from untraced", file=sys.stderr)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(trace_dir, "spans.npz"))
        summaries.append(tracer.summary())
    else:
        dirs = [os.path.join(workdir, mode) for mode in ("plain", "traced")]
        for d in dirs:
            os.makedirs(d)
        pairs = zip(*(workloads.cli_inputs(seed, d) for d in dirs))
        for i, (plain_inp, traced_inp) in zip(range(n_ops), pairs):
            run_cli_op(plain_inp, plain)
            summary_path = os.path.join(trace_dir, f"op{i}.json")
            run_cli_op(traced_inp, traced, (summary_path, i))
            if not filecmp.cmp(plain_inp["out"], traced_inp["out"], shallow=False):
                mismatches += 1
                print(f"FAILED op {i}: traced output differs from untraced", file=sys.stderr)
            with open(summary_path) as fh:
                summary = json.load(fh)
            import_s.append(summary.pop("import_s"))
            summaries.append(summary)
            _remove_outputs(plain_inp)
            _remove_outputs(traced_inp)
    merged = tracing.merge_summaries(summaries)
    run_values = {
        "traced_op_s": sum(traced.wall) / n_ops,
        "untraced_op_s": sum(plain.wall) / n_ops,
        "overhead_ratio": sum(traced.wall) / sum(plain.wall),
        "cli_import_s": sum(import_s) / n_ops,
        "cli_startup_s": 0.0,
    }
    main_s = merged["spans"].get("cli.main", {}).get("total_s", 0.0)
    if workload == "cli-session":
        run_values["cli_startup_s"] = (sum(traced.wall) - main_s) / n_ops
    frames_calls = merged["spans"].get("mannheim.MannheimPair.frames_at", {}).get("calls", 0)
    run_values["frames_hit_ratio"] = merged["frames_hits"] / frames_calls if frames_calls else 0.0
    with open(os.path.join(trace_dir, "summary.json"), "w") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
    # attempted and failed cover both passes
    traced.wall = plain.wall + traced.wall
    traced.failed += plain.failed + mismatches
    return traced, layer_metrics(merged, n_ops, run_values)


def layer_metrics(summary: dict, n_ops: int, run_values: dict) -> dict:
    metrics = {}
    for name, unit, source, key, field in LAYER_METRICS:
        if source == "run":
            value = run_values[key]
        elif source == "count":
            value = summary["counts"].get(key, 0) / n_ops
        else:
            stats = summary["spans"].get(key, {})
            value = stats.get(field, 0)
            if field != "max_depth":
                value /= n_ops
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# ---------------------------------------------------------------------------
# reporting


def src_facts() -> dict:
    digest = hashlib.sha256()
    lines = 0
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + b"\0" + data)
                lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def metadata(fields: dict) -> dict:
    """``fields`` plus host, versions, commit and ``src/`` facts."""
    from importlib.metadata import PackageNotFoundError, version

    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = version(pkg)
        except PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        **fields,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "commit": commit(),
        **src_facts(),
    }


def end_to_end(log: OpLog, setup: OpLog) -> tuple[dict, list[str]]:
    completed = log.attempted - log.failed
    metrics = {
        "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
        "op_s_p50": {"value": statistics.median(log.times), "unit": "s"},
        "ops_per_s": {"value": completed / sum(log.loop_times), "unit": "1/s"},
        "peak_rss_mb": {"value": log.rss_kb / 1024.0, "unit": "MB"},
        "accuracy_digits": {
            "value": statistics.median(log.accuracy) if log.accuracy else 0.0,
            "unit": "digits",
        },
    }
    notes = [f"op_s_p50 samples: {log.attempted}"]
    if log.attempted >= P90_MIN_OPS:
        p90 = statistics.quantiles(log.times, n=10)[-1]
        notes.append(f"op_s_p90 {p90:.6g} s (samples: {log.attempted})")
    else:
        notes.append(f"op_s_p90 omitted: {log.attempted} ops < {P90_MIN_OPS}")
    notes.append(f"fail_ratio {log.failed / log.attempted:.6g} ratio ({log.failed} failed / {log.attempted} attempted)")
    if log.slowness:
        notes.append(
            f"unscaled op_s_p50 {statistics.median(log.wall):.6g} s; "
            f"host slowness median {statistics.median(log.slowness):.4g}"
        )
    return metrics, notes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    missing = [f for f in REQUIRED_FILES if not os.path.exists(f)]
    if missing:
        print(f"error: not a mannheim-lab checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.setup(args.workload)
        return 0
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            trace_dir = os.path.join(OUT_DIR, "trace", f"{args.workload}-seed{args.seed}")
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            log, metrics = traced_run(args.workload, args.seed, workdir, trace_dir)
            notes = [f"spans written to {trace_dir}"]
        else:
            setup = measure_setup(args.workload, workdir)
            log = closed_loop(args.workload, args.seed, args.seconds, workdir)
            metrics, notes = end_to_end(log, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fields = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({"meta": metadata(fields)}))
    for note in notes:
        print(f"# {note}")
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:44s} {m['value']:>14.6g} {m['unit']}")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
