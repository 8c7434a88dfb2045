"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import mannheim_lab as ml  # noqa: E402
from mannheim_lab import cli, frenet, lorentz, mannheim  # noqa: E402

SMALL_GRID = 11


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def take(gen, n):
    return list(itertools.islice(gen, n))


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize(
    "make",
    [workloads.reference_inputs, workloads.exact_inputs, lambda s: workloads.cli_inputs(s, "w")],
)
def test_generator_is_deterministic_per_seed(make):
    assert take(make(3), 25) == take(make(3), 25)
    assert take(make(3), 25) != take(make(4), 25)


def test_no_two_ops_share_an_input():
    for make in (workloads.reference_inputs, workloads.exact_inputs):
        inputs = take(make(5), 60)
        assert len({json.dumps(i, sort_keys=True) for i in inputs}) == len(inputs)


def test_exact_inputs_stay_in_their_ranges():
    for inp, (kind, pair_type) in zip(
        take(workloads.exact_inputs(11), 300), itertools.cycle(workloads.EXACT_ROTATION)
    ):
        assert (inp["kind"], inp["type"]) == (kind, pair_type)
        tau = ml.parse_expr(inp["tau"])
        a, slope = tau.eval(0.0), tau.eval(1.0) - tau.eval(0.0)
        assert 0.6 <= a <= 1.0 and 0.1 <= abs(slope) <= 0.3
        assert inp["slope"] == math.copysign(1, slope)
        assert 0.15 <= abs(inp["lam"]) <= 0.35
        assert (inp["lam"] < 0) == (kind == "TIMELIKE")


def test_reference_inputs_alternate_curves_and_stay_in_range():
    inputs = take(workloads.reference_inputs(2), 40)
    assert [i["curve"] for i in inputs[:2]] == ["paper-example-1", "paper-example-2"]
    assert all(5.0 <= abs(i["lam"]) <= 30.0 for i in inputs)
    assert {i["lam"] > 0 for i in inputs} == {True, False}


# ---------------------------------------------------------------------------
# checker


@pytest.fixture(scope="module")
def reference_reports():
    pair = ml.MannheimPair.from_binormal_offset(ml.builtin_curve("paper-example-1"), 12.0)
    return json.loads(workloads.emit_reports(cli._run_pair_suite(pair, SMALL_GRID, None)))


def test_checker_accepts_a_real_report(reference_reports):
    assert check.check_reports(reference_reports, check.REFERENCE_VERDICTS) == []
    assert 13.0 < check.accuracy_digits(reference_reports) <= check.ACCURACY_CAP


def test_checker_rejects_a_flipped_verdict(reference_reports):
    bad = json.loads(json.dumps(reference_reports))
    bad[0]["verdict"] = "Fail"
    assert any("verdicts" in p for p in check.check_reports(bad, check.REFERENCE_VERDICTS))


def test_checker_rejects_a_nan_residual(reference_reports):
    bad = json.loads(json.dumps(reference_reports))
    bad[3]["residuals"][2] = float("nan")
    assert any("non-finite" in p for p in check.check_reports(bad, check.REFERENCE_VERDICTS))


def test_checker_rejects_a_schema_violation(reference_reports):
    bad = json.loads(json.dumps(reference_reports))
    del bad[1]["tolerance"]
    assert any("schema" in p for p in check.check_reports(bad, None))


def test_accuracy_ignores_center_ratio_and_non_pass_reports(reference_reports):
    reps = json.loads(json.dumps(reference_reports))
    for r in reps:
        r["verdict"] = "Reported"
    reps[9]["verdict"] = "Pass"  # center-ratio-nonconstancy
    assert reps[9]["identity"] == check.ACCURACY_EXCLUDED
    assert check.accuracy_digits(reps) is None
    reps[0]["verdict"], reps[0]["max_residual"] = "Pass", 1e-9
    assert check.accuracy_digits(reps) == pytest.approx(9.0)


def test_cli_checker_rejects_a_wrong_exit_code(tmp_path):
    inp = next(workloads.cli_inputs(1, str(tmp_path)))
    assert inp["name"] == "examples-1"
    problems, _ = workloads.check_cli(inp, 2, "")
    assert problems and "exit code 2" in problems[0]


def test_cli_checker_counts_rows(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("t,x1,x2,x3\n0,1,2,3\n1,1,2,3\n")
    assert check.check_csv(str(path), 2) == []
    assert check.check_csv(str(path), 3)
    path.write_text("t,x1,x2,x3\n0,1,2,3\n0,1,2,nan\n")
    assert check.check_csv(str(path), 2)


# ---------------------------------------------------------------------------
# tracer


def _exact_pair():
    tau = ml.parse_expr("0.8 - 0.2*s")
    return ml.exact_partner_pair(
        ml.CurveKind.SPACELIKE_EPS_MINUS, tau.eval, 0.3, step=1e-2, table_size=64
    )


def _traced(build):
    tracer = tracing.Tracer()
    tracer.install(extra=[(workloads, "emit_reports", "reports.emit")])
    try:
        tracer.begin_op(0)
        text = workloads.emit_reports(cli._run_pair_suite(build(), SMALL_GRID, None))
        tracer.end_op()
    finally:
        tracer.uninstall()
    return text, tracer


@pytest.mark.parametrize(
    "build",
    [
        lambda: ml.MannheimPair.from_binormal_offset(ml.builtin_curve("paper-example-2"), 20.0),
        _exact_pair,
    ],
    ids=["reference", "exact"],
)
def test_traced_and_untraced_reports_are_identical(build):
    plain = workloads.emit_reports(cli._run_pair_suite(build(), SMALL_GRID, None))
    traced, tracer = _traced(build)
    assert traced == plain
    summary = tracer.summary()
    assert summary["counts"]["lorentz.Vec3L.new"] > 0
    assert summary["spans"]["mannheim.verify_frame_relations"]["calls"] == 1
    assert summary["spans"]["frenet._scalar_fd"]["max_depth"] >= 2
    # one root span per op, every other span nested below it
    assert list(tracer.span_parent).count(-1) == 1


def test_two_traced_runs_give_identical_counts():
    first = _traced(_exact_pair)[1].summary()
    second = _traced(_exact_pair)[1].summary()
    assert first["counts"] == second["counts"]
    assert first["counts"]["frenet.spline.evals"] > 0
    assert first["counts"]["expr.Expr.eval"] > 0
    calls = {k: v["calls"] for k, v in first["spans"].items()}
    assert calls == {k: v["calls"] for k, v in second["spans"].items()}


def test_uninstall_restores_every_binding():
    before = {
        "frenet_apparatus": (frenet.frenet_apparatus, mannheim.frenet_apparatus, ml.frenet_apparatus),
        "post_init": lorentz.Vec3L.__dict__["__post_init__"],
        "from_binormal": mannheim.MannheimPair.__dict__["from_binormal_offset"],
        "spline": frenet.CubicHermiteSpline,
        "emit": workloads.emit_reports,
    }
    _traced(_exact_pair)
    after = {
        "frenet_apparatus": (frenet.frenet_apparatus, mannheim.frenet_apparatus, ml.frenet_apparatus),
        "post_init": lorentz.Vec3L.__dict__["__post_init__"],
        "from_binormal": mannheim.MannheimPair.__dict__["from_binormal_offset"],
        "spline": frenet.CubicHermiteSpline,
        "emit": workloads.emit_reports,
    }
    assert after == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.exit()
    tracer.exit()
    spans = tracer.summary()["spans"]
    outer, inner = spans["outer"], spans["inner"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-12)
    assert list(tracer.span_parent) == [-1, 0]


# ---------------------------------------------------------------------------
# contract


def test_benchmark_json_names_match_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == [m[0] for m in run.LAYER_METRICS]
    log = run.OpLog()
    log.add(1.0, [], 12.0, "op")
    metrics, _ = run.end_to_end(log, log)
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics)
    for m in bench["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
