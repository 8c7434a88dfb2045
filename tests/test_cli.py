import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import types
import warnings

import jsonschema
import numpy as np
import pytest

from mannheim_lab.cli import _grid_size, main, resolve_curve_spec, SpecError
from mannheim_lab.curve import MAX_TABLE_SIZE, CurveSamples
from conftest import REPORT_SCHEMA


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpecs:
    def test_builtin(self):
        c = resolve_curve_spec("paper-example-1")
        assert c.label == "paper-example-1"

    def test_synth(self):
        c = resolve_curve_spec("synth:kind=timelike,kappa=2,tau=1,range=0:0.5,step=1e-2")
        assert c.domain == (0.0, 0.5)
        assert c.unit_speed

    def test_unknown(self):
        with pytest.raises(SpecError):
            resolve_curve_spec("nonsense")

    def test_repeated_synth_key(self, capsys):
        spec = "synth:kind=timelike,kappa=1,tau=1, kind =spacelike+"
        with pytest.raises(SpecError, match=re.escape("repeated synth key 'kind'")):
            resolve_curve_spec(spec)
        code, out, err = run_cli(capsys, "classify", "--curve", spec)
        assert code == 2 and out == ""
        assert "repeated synth key 'kind'" in err

    def test_csv(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        code, out, err = run_cli(
            capsys, "export-plot", "--curve", "paper-example-2", "--grid", "64",
            "--out", str(path),
        )
        assert code == 0
        c = resolve_curve_spec(f"csv:{path}")
        assert c.domain == (0.0, 1.0)


class TestFrenetCommand:
    def test_reference_frame_json(self, capsys):
        code, out, err = run_cli(capsys, "frenet", "--curve", "paper-example-1", "--at", "0")
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["s", "kind", "kappa", "tau", "T", "N", "B", "gram_residual"]
        assert 0.0 <= data["gram_residual"] < 1e-12
        assert data["kind"] == "spacelike+"
        assert data["kappa"] == pytest.approx(0.5, abs=1e-12)
        assert data["tau"] == pytest.approx(math.sqrt(5) / 2, abs=1e-12)
        assert data["T"] == pytest.approx([-0.5, 0.0, math.sqrt(5) / 2], abs=1e-12)
        assert data["N"] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
        assert data["B"] == pytest.approx([-math.sqrt(5) / 2, 0.0, 0.5], abs=1e-12)

    def test_sampled_curve_at_the_end_of_its_range(self, tmp_path, capsys):
        # 41 samples of a unit-speed curve over [0, 1] reparametrize to an arc
        # length 1e-9 short of 1: the end of the range is still accepted, a
        # parameter beyond it is not
        path = tmp_path / "c.csv"
        run_cli(capsys, "export-plot", "--curve", "paper-example-2", "--grid", "41", "--out", str(path))
        spec = f"csv:{path}"
        assert resolve_curve_spec(spec).domain == (0.0, 1.0)
        code, out, err = run_cli(capsys, "frenet", "--curve", spec, "--at", "1")
        assert code == 0, err
        data = json.loads(out)
        assert data["s"] == 1.0
        assert data["kappa"] == pytest.approx(2.0, abs=1e-3)
        code, out, err = run_cli(capsys, "frenet", "--curve", spec, "--at", "1.01")
        assert code == 1
        assert "outside domain" in err


class TestClassifyCommand:
    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--curve", "paper-example-2")
        assert code == 0
        assert json.loads(out)["causal_character"] == "timelike"

    def test_domain_error_is_exit_one(self, capsys, tmp_path):
        # a null line ingested from CSV fails classification with code 1
        path = tmp_path / "null.csv"
        rows = [(t, t, t, 0.0) for t in (0.0, 0.5, 1.0, 1.5)]
        with open(path, "w", newline="") as fh:
            CurveSamples([r[0] for r in rows], np.array([r[1:] for r in rows])).to_csv(fh)
        code, out, err = run_cli(capsys, "classify", "--curve", f"csv:{path}")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "direction, verdict",
        [((1e200, 1e200, 0.0), None), ((2e200, 1e200, 0.0), "timelike")],
        ids=["null", "timelike"],
    )
    def test_tangent_whose_square_overflows(self, capsys, tmp_path, direction, verdict):
        # <T,T> of these lines overflows to NaN, which once read as spacelike
        path = tmp_path / "line.csv"
        ts = np.array([0.0, 1.0, 2.0, 3.0])
        with open(path, "w", newline="") as fh:
            CurveSamples(ts, ts[:, None] * np.array(direction)).to_csv(fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "classify", "--curve", f"csv:{path}")
        if verdict is None:
            assert code == 1
            assert err.startswith(f"error: tangent of '{path}' is null at t=")
        else:
            assert code == 0
            assert json.loads(out)["causal_character"] == verdict


class TestOffsetCommand:
    def test_binormal_offset_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "offset", "--cstar", "paper-example-2", "--lambda", "20", "--grid", "5"
        )
        assert code == 0
        samples = CurveSamples.from_csv(io.StringIO(out))
        assert len(samples.rows) == 5
        assert samples.rows[0, 3] == pytest.approx(-40.0)

    def test_requires_exactly_one_base(self, capsys):
        code, _, err = run_cli(capsys, "offset", "--lambda", "2")
        assert code == 2

    def test_zero_lambda_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "offset", "--cstar", "paper-example-1", "--lambda", "0"
        )
        assert code == 1

    def test_zero_lambda_pair_is_refused_before_the_audit(self, capsys, tmp_path):
        # pair-verify refuses lam = 0 as the offsets do, before any report runs
        out_path = tmp_path / "pair.json"
        code, out, err = run_cli(
            capsys, "pair-verify", "--c", "paper-example-2", "--cstar", "paper-example-2",
            "--lambda", "0", "--out", str(out_path),
        )
        assert code == 1
        assert out == ""
        assert err == "error: offset distance must be finite and nonzero\n"
        assert not out_path.exists()


class TestSynthesizeCommand:
    def test_emits_samples(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "synthesize",
            "--kind", "spacelike-",
            "--kappa", "1 + 0.1*sin(s)",
            "--tau", "0.5",
            "--range", "0:0.4",
            "--step", "1e-3",
            "--grid", "9",
        )
        assert code == 0
        samples = CurveSamples.from_csv(io.StringIO(out))
        assert len(samples.rows) == 9

    def test_expression_error_is_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys,
            "synthesize",
            "--kind", "timelike",
            "--kappa", "cosh(s^2",
            "--tau", "1",
        )
        assert code == 2
        assert "offset 8" in err


class TestSynthesisBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--curve", "synth:kind=timelike,kappa=1,tau=0.5,step=1e-12"],
            ["synthesize", "--kind", "timelike", "--kappa", "1", "--tau", "0.5",
             "--step", "1e-9"],
        ],
        ids=["spec", "flag"],
    )
    def test_too_many_steps_is_usage_error(self, capsys, tmp_path, argv):
        out_path = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 2
        assert err.startswith("error: ") and "integration steps" in err
        assert "Traceback" not in err
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("step", ["abc", "nan", "inf", "1e999"])
    def test_spec_step_is_finite_float(self, capsys, step):
        code, out, err = run_cli(
            capsys, "classify", "--curve", f"synth:kind=timelike,kappa=1,tau=0.5,step={step}"
        )
        assert code == 2
        assert err.startswith("error: bad synth step")
        assert out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["synthesize", "--kind", "timelike", "--kappa", "1", "--tau", "0.5",
              "--step", "-1"], "argument --step: expected a positive number"),
            (["synthesize", "--kind", "timelike", "--kappa", "1", "--tau", "0.5",
              "--step", "0"], "argument --step: expected a positive number"),
            (["synthesize", "--kind", "timelike", "--kappa", "1", "--tau", "0.5",
              "--range", "nan:1"], "error: bad range 'nan:1'"),
            (["classify", "--curve", "synth:kind=timelike,kappa=1,tau=0.5,step=0"],
             "error: bad synth step: expected a positive number"),
            (["classify", "--curve", "synth:kind=timelike,kappa=1,tau=0.5,step=-1e-3"],
             "error: bad synth step: expected a positive number"),
            (["classify", "--curve", "synth:kind=timelike,kappa=1,tau=0.5,range=nan:1"],
             "error: bad range 'nan:1'"),
            (["classify", "--curve", "synth:kind=timelike,kappa=1,tau=0.5,range=0:inf"],
             "error: bad range '0:inf'"),
            (["classify", "--curve", "synth:kind=timelike,kappa=1,tau=0.5,range=1:0"],
             "error: bad range '1:0'"),
            (["classify", "--curve", "synth:kind=timelike,kappa=1,tau=0.5,range=1:1"],
             "error: bad range '1:1'"),
        ],
        ids=["flag-negative-step", "flag-zero-step", "flag-nan-range", "spec-zero-step",
             "spec-negative-step", "spec-nan-range", "spec-inf-range", "spec-reversed-range",
             "spec-empty-range"],
    )
    def test_bad_step_or_range_is_usage_error(self, capsys, tmp_path, argv, message):
        out_path = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert out == ""
        assert not out_path.exists()

    def test_short_range_synthesizes(self, capsys, tmp_path):
        # no stencil differentiates the prescription, so a range narrower
        # than one step is one step
        out_path = tmp_path / "out.json"
        with warnings.catch_warnings():
            # any numpy or scipy warning would be raised instead of printed
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "classify", "--curve", "synth:kind=timelike,kappa=1,tau=0.5,range=0:1e-300",
                "--out", str(out_path),
            )
        assert code == 0
        assert err == ""
        assert json.loads(out_path.read_text())["causal_character"] == "timelike"

    def test_range_whose_nodes_do_not_differ_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, "synthesize", "--kind", "timelike", "--kappa", "1", "--tau", "0.5",
            "--range", "1e15:1.0000000000000002e15", "--out", str(out_path),
        )
        assert code == 2
        assert err == "error: step 0.001 is too small for its range " \
            "[1000000000000000, 1000000000000000.2]: the integration nodes do not differ as floats\n"
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["synthesize", "--kind", "timelike", "--kappa", "1", "--tau", "0.5", "--range", "0:1e-307"],
            ["pair-verify", "--c", "synth:kind=timelike,kappa=1,tau=0.5,range=0:1e-320",
             "--cstar", "synth:kind=timelike,kappa=1,tau=0.5,range=0:1e-320", "--lambda", "1"],
        ],
        ids=["synthesize", "pair-verify"],
    )
    def test_short_range_overflow_is_domain_error_without_warnings(self, capsys, tmp_path, argv):
        out_path = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 1
        assert err == "error: synthesized timelike curve overflows at s=0: " \
            "its interpolant coefficients are not finite\n"
        assert not out_path.exists()

    def test_overflow_is_domain_error_without_warnings(self, capsys, tmp_path):
        out_path = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                capsys, "synthesize", "--kind", "timelike", "--kappa", "exp(s*700)",
                "--tau", "0.5", "--out", str(out_path),
            )
        assert code == 1
        assert err == "error: synthesized timelike curve overflows at s=0.033: " \
            "its frame or derivative fields are not finite\n"
        assert not out_path.exists()


class TestExamplesCommand:
    def test_example2_run_passes_distance(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "examples", "run", "2", "--lambda", "20", "--grid", "31",
            "--out", str(out_path),
        )
        assert code == 0
        assert "pair type: 1" in out
        assert "distance-constancy" in out
        reports = json.loads(out_path.read_text())
        by_name = {r["identity"]: r for r in reports}
        assert by_name["distance-constancy"]["verdict"] == "Pass"
        assert by_name["torsion-reciprocal"]["verdict"] == "Reported"
        for rep in reports:
            jsonschema.validate(rep, REPORT_SCHEMA)

    def test_example1_run(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "run", "1", "--grid", "11")
        assert code == 0
        assert "pair type: 3" in out

    @pytest.mark.parametrize("example", ["1", "2"])
    def test_overflowing_offset_speed_is_an_error(self, capsys, example):
        # (lambda tau)^2 of the closed-form speed overflows past ~1.34e154;
        # the error names it, and no numpy warning precedes it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(capsys, "examples", "run", example, "--lambda", "1e160")
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: non-finite speeds of ")

    def test_out_file_is_the_indented_report_array(self, capsys, tmp_path):
        from mannheim_lab.builtins import builtin_curve
        from mannheim_lab.cli import _run_pair_suite
        from mannheim_lab.mannheim import MannheimPair

        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "examples", "run", "1", "--grid", "11", "--out", str(out_path))
        # the stdout lines do not depend on --out
        assert (code, out) == run_cli(capsys, "examples", "run", "1", "--grid", "11")[:2]
        pair = MannheimPair.from_binormal_offset(builtin_curve("paper-example-1"), 20.0)
        reports = _run_pair_suite(pair, 11, None)
        text = json.dumps([r.to_json_dict() for r in reports], indent=2, allow_nan=False) + "\n"
        assert out_path.read_text() == text

    def test_run_without_out_encodes_no_json(self, capsys, tmp_path, monkeypatch):
        # the printed numbers are checked as numbers; only --out encodes the array
        from mannheim_lab import cli

        printed = run_cli(capsys, "examples", "run", "1", "--out", str(tmp_path / "report.json"))[:2]
        calls = []
        dumps = lambda *args, **kwargs: calls.append(args) or json.dumps(*args, **kwargs)
        monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=dumps))
        assert run_cli(capsys, "examples", "run", "1")[:2] == printed
        assert calls == [] and len(printed[1].splitlines()) == 14

    @pytest.mark.parametrize(
        "example, lam, message",
        [
            ("1", "1e100", "curvature of 'paper-example-1+(1e+100)B/unit-speed' vanishes at s=0"),
            (
                "2",
                "1e150",
                "arc length of 'paper-example-2+(1e+150)B' overflows: a piece spans 1.69e+147",
            ),
        ],
        ids=["1-1e100", "2-1e150"],
    )
    def test_overflow_before_the_audit_is_one_error_line(self, capsys, example, lam, message):
        # the pair's own construction overflows: numpy's warnings stay muted
        # there too, and the arc-length table whose pieces s**3 would overflow
        # is refused at build, naming the offset, not a NaN parameter of its base
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "examples", "run", example, "--lambda", lam)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


class TestPairVerifyCommand:
    def test_shared_parameter_pair(self, capsys, tmp_path):
        out_path = tmp_path / "pair.json"
        code, out, _ = run_cli(
            capsys,
            "pair-verify",
            "--c", "synth:kind=timelike,kappa=2,tau=1,range=0:1",
            "--cstar", "synth:kind=timelike,kappa=2,tau=1,range=0:1",
            "--lambda", "1",
            "--grid", "7",
            "--out", str(out_path),
        )
        # identical curves: distance residual is |0 - 1| = 1 -> Fail -> exit 1
        assert code == 1
        reports = json.loads(out_path.read_text())
        for rep in reports:
            jsonschema.validate(rep, REPORT_SCHEMA)

    def test_tol_replaces_the_tolerance_of_the_tunable_reports(self, capsys, tmp_path):
        # the angle rate keeps its published 1e-4 and the center ratio its
        # own threshold; every other report takes --tol
        spec = "synth:kind=timelike,kappa=2 + 0.3*s,tau=0.9"

        def tolerances(*tol):
            out_path = tmp_path / "pair.json"
            run_cli(capsys, "pair-verify", "--c", spec, "--cstar", spec, "--lambda", "1",
                    "--grid", "11", *tol, "--out", str(out_path))
            return {r["identity"]: r["tolerance"] for r in json.loads(out_path.read_text())}

        default, tuned = tolerances(), tolerances("--tol", "1e-3")
        assert len(tuned) == 12
        assert {name for name, tol in tuned.items() if tol == 1e-3} == {
            "distance-constancy",
            "torsion-reciprocal",
            "linear-curvature-torsion",
            "torsion-composition",
            "curvature-projection",
            "torsion-projection",
            "torsion-square",
            "torsion-square-literal",
            "image-rate-curvature",
            "image-rate-torsion",
        }
        assert tuned["frame-angle-rate"] == default["frame-angle-rate"] == 1e-4
        assert tuned["center-ratio-nonconstancy"] == default["center-ratio-nonconstancy"] > 0.0

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "pair-verify", "--c", "paper-example-1")
        assert code == 2

    @pytest.mark.parametrize(
        "lam, report", [("1e160", "center-ratio-nonconstancy"), ("1e308", "distance-constancy")]
    )
    def test_overflowing_lambda_is_one_error_line(self, capsys, tmp_path, lam, report):
        # at 1e160 the center ratio's tolerance overflows; at 1e308 the
        # distance mean and the linear row's residuals do too
        out_path = tmp_path / "x.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "pair-verify", "--c", "paper-example-2", "--cstar", "paper-example-2",
                "--lambda", lam, "--out", str(out_path),
            )
        assert code == 1
        assert out == ""
        assert err == f"error: report {report} holds a number that is not finite at lambda {float(lam):g}\n"
        assert not out_path.exists()


    @pytest.mark.parametrize("lam", ["1e100", "1e150"])
    def test_huge_lambda_publishes_its_reports(self, capsys, tmp_path, lam):
        # the squared deviations of the center ratio overflow here, so its
        # standard deviation is taken from the deviations scaled to at most 1
        from mannheim_lab.builtins import builtin_curve
        from mannheim_lab.mannheim import MannheimPair

        out_path = tmp_path / "x.json"
        code, out, err = run_cli(
            capsys, "pair-verify", "--c", "paper-example-2", "--cstar", "paper-example-1",
            "--lambda", lam, "--out", str(out_path),
        )
        reports = {r["identity"]: r for r in json.loads(out_path.read_text())}
        assert code == 1 and err == ""
        assert [name for name, r in reports.items() if r["verdict"] == "Fail"] == ["distance-constancy"]
        c, cstar = builtin_curve("paper-example-2"), builtin_curve("paper-example-1")
        ratios = MannheimPair.from_shared_parameter(c, cstar, float(lam)).samples(101).center_ratio
        sd = reports["center-ratio-nonconstancy"]["details"]["ratio_sd"]
        assert math.isfinite(sd)
        assert sd == pytest.approx(statistics.stdev(ratios.tolist()), rel=1e-12)

    def test_lambda_whose_center_ratio_sum_overflows_publishes_its_reports(self, capsys, tmp_path):
        # the ratios reach -1e308, so their sum overflows: their mean is taken
        # from the ratios scaled to at most 1
        from mannheim_lab.builtins import builtin_curve
        from mannheim_lab.mannheim import MannheimPair

        out_path = tmp_path / "x.json"
        code, out, err = run_cli(
            capsys, "pair-verify", "--c", "paper-example-2", "--cstar", "paper-example-1",
            "--lambda", "1e154", "--out", str(out_path),
        )
        reports = {r["identity"]: r for r in json.loads(out_path.read_text())}
        assert (code, err) == (1, "")
        assert len(reports) == 12 and len(out.splitlines()) == 14
        assert [name for name, r in reports.items() if r["verdict"] == "Fail"] == ["distance-constancy"]
        c, cstar = builtin_curve("paper-example-2"), builtin_curve("paper-example-1")
        ratios = MannheimPair.from_shared_parameter(c, cstar, 1e154).samples(101).center_ratio
        assert np.isfinite(ratios).all()
        assert reports["center-ratio-nonconstancy"]["details"]["ratio_mean"] == statistics.mean(ratios.tolist())

    def test_lambda_whose_center_ratios_overflow_is_one_error_line(self, capsys, tmp_path):
        out_path = tmp_path / "x.json"
        code, out, err = run_cli(
            capsys, "pair-verify", "--c", "paper-example-2", "--cstar", "paper-example-1",
            "--lambda", "1e155", "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: report center-ratio-nonconstancy holds a number that is not finite at lambda 1e+155\n"
        )
        assert not out_path.exists()


# Commands of the huge-lambda sweep, each at grid 11.
SWEEP_COMMANDS = {
    "examples-1": ["examples", "run", "1"],
    "examples-2": ["examples", "run", "2"],
    "offset-cstar": ["offset", "--cstar", "paper-example-1"],
    "offset-curve": ["offset", "--curve", "paper-example-2"],
    "pair-verify": ["pair-verify", "--c", "paper-example-2", "--cstar", "paper-example-1"],
}


@pytest.mark.parametrize(
    "lam", ["1e10", "1e100", "1e150", "1e154", "1e200", "1e300", "1e-300", "-1e300"]
)
@pytest.mark.parametrize("name", sorted(SWEEP_COMMANDS))
def test_huge_lambda_ends_with_a_verdict_or_one_error_line(capsys, tmp_path, name, lam):
    # every value follows --lambda after a space, as typed in a shell
    argv = SWEEP_COMMANDS[name] + ["--lambda", lam, "--grid", "11", "--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))
    assert "nan" not in (out + err).lower()


class TestIndicatrixCommand:
    def test_normal_image_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "indicatrix", "--curve", "paper-example-2", "--which", "N",
            "--grid", "5",
        )
        assert code == 0
        samples = CurveSamples.from_csv(io.StringIO(out))
        assert samples.rows[0, 2] == pytest.approx(1.0)  # cosh(0)


# Every command that takes --grid, with its other required arguments.
GRID_COMMANDS = {
    "classify": ["classify", "--curve", "paper-example-1"],
    "offset": ["offset", "--cstar", "paper-example-1", "--lambda", "2"],
    "synthesize": ["synthesize", "--kind", "timelike", "--kappa", "1", "--tau", "1"],
    "pair-verify": [
        "pair-verify", "--c", "paper-example-2", "--cstar", "paper-example-2", "--lambda", "1",
    ],
    "indicatrix": ["indicatrix", "--curve", "paper-example-2", "--which", "N"],
    "examples": ["examples", "run", "1"],
    "export-plot": ["export-plot", "--curve", "paper-example-1"],
}


class TestGridSizes:
    @pytest.mark.parametrize("grid", ["1", "0", "-3", "2.5", "many"])
    @pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
    def test_grid_below_two_is_usage_error(self, capsys, tmp_path, command, grid):
        out_path = tmp_path / "out"
        argv = GRID_COMMANDS[command] + ["--grid", grid, "--out", str(out_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "--grid" in err
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("grid", [str(MAX_TABLE_SIZE + 1), "1000000000"])
    @pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
    def test_grid_above_the_table_bound_is_usage_error(self, capsys, tmp_path, command, grid):
        out_path = tmp_path / "out"
        argv = GRID_COMMANDS[command] + ["--grid", grid, "--out", str(out_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"grid size must be in [2, {MAX_TABLE_SIZE}], got {grid}" in err
        assert out == ""
        assert not out_path.exists()

    def test_grid_of_the_table_bound_is_accepted(self):
        assert _grid_size(str(MAX_TABLE_SIZE)) == MAX_TABLE_SIZE

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
    def test_child_peak_memory_does_not_grow_with_the_grid(self, tmp_path):
        # A child's ru_maxrss starts at the peak of the process it forks
        # from, so the CLI runs under a small launcher, not under pytest.
        launch = (
            "import os, subprocess, sys\n"
            "_, status, usage = os.wait4(subprocess.Popen(sys.argv[1:]).pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )

        def peak_kb(grid: int) -> int:
            argv = GRID_COMMANDS["indicatrix"] + ["--grid", str(grid), "--out", str(tmp_path / "out")]
            proc = subprocess.run(
                [sys.executable, "-c", launch, sys.executable, "-m", "mannheim_lab", *argv],
                capture_output=True, text=True, check=True,
            )
            code, kb = map(int, proc.stdout.split())
            assert code == 0
            return kb

        # whole-grid evaluation took ~24 MB more at the table bound
        assert peak_kb(MAX_TABLE_SIZE) - peak_kb(2) < 10 * 1024

    def test_grid_of_two_runs(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(
                capsys, "examples", "run", "1", "--grid", "2", "--out", str(out_path)
            )
        assert code == 0
        assert err == ""

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        for rep in json.loads(out_path.read_text(), parse_constant=reject):
            jsonschema.validate(rep, REPORT_SCHEMA)


# Every finite-float flag, with each command that takes it.
FLOAT_FLAGS = [
    ("--at", ["frenet", "--curve", "paper-example-1"]),
    ("--lambda", ["offset", "--cstar", "paper-example-1"]),
    ("--lambda", ["pair-verify", "--c", "paper-example-2", "--cstar", "paper-example-2"]),
    ("--lambda", ["examples", "run", "1"]),
    ("--step", ["synthesize", "--kind", "timelike", "--kappa", "1", "--tau", "1"]),
    ("--tol", GRID_COMMANDS["pair-verify"]),
]


class TestFiniteFloats:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    @pytest.mark.parametrize(
        "flag,command", FLOAT_FLAGS, ids=[f"{argv[0]}{flag}" for flag, argv in FLOAT_FLAGS]
    )
    def test_non_finite_is_usage_error(self, capsys, tmp_path, flag, command, value):
        out_path = tmp_path / "out"
        argv = command + [f"{flag}={value}", "--out", str(out_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert flag in err
        assert "finite" in err
        assert out == ""
        assert not out_path.exists()

    def test_negative_tol_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "out"
        code, out, err = run_cli(
            capsys, *GRID_COMMANDS["pair-verify"], "--tol=-1", "--out", str(out_path)
        )
        assert code == 2
        assert "--tol" in err and "expected a tolerance >= 0, got '-1'" in err
        assert out == ""
        assert not out_path.exists()

    # (flag, value, command, exit code, a line of stderr): each value is a
    # form argparse alone takes for an option, not for a negative number
    @pytest.mark.parametrize(
        "flag, value, command, code, message",
        [
            ("--lambda", "-1e3", ["examples", "run", "1", "--grid", "11"], 0, ""),
            ("--lambda", "-1e3", ["offset", "--cstar", "paper-example-1", "--grid", "11"], 0, ""),
            ("--at", "-1e-3", ["frenet", "--curve", "paper-example-1"], 1, "outside domain"),
            ("--step", "-1e-3", GRID_COMMANDS["synthesize"], 2, "expected a positive number"),
            ("--tol", "-1e-3", GRID_COMMANDS["pair-verify"], 2, "expected a tolerance >= 0, got '-1e-3'"),
            ("--range", "-1:1", GRID_COMMANDS["synthesize"] + ["--grid", "11"], 0, ""),
        ],
        ids=["examples-lambda", "offset-lambda", "at", "step", "tol", "range"],
    )
    def test_negative_value_after_a_space_reads_as_its_equals_form(
        self, capsys, tmp_path, flag, value, command, code, message
    ):
        def run(*argv):
            out_path = tmp_path / "out"
            out_path.unlink(missing_ok=True)
            result = run_cli(capsys, *command, *argv, "--out", str(out_path))
            return (*result, out_path.read_bytes() if out_path.exists() else None)

        spaced = run(flag, value)
        assert spaced == run(f"{flag}={value}")
        assert spaced[0] == code and message in spaced[2]
        assert (spaced[3] is None) == bool(code)

    def test_negative_finite_value_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "offset", "--cstar", "paper-example-2",
                               "--lambda=-7.5", "--grid", "3")
        assert code == 0
        assert len(CurveSamples.from_csv(io.StringIO(out)).rows) == 3


class TestExpressionDomainErrors:
    @pytest.mark.parametrize(
        "kappa,node",
        [("1/(s-0.5)^2", "(1.0 / (s - 0.5)^2)"), ("exp(s*1000)", "exp((s * 1000.0))")],
    )
    def test_undefined_kappa_is_exit_one(self, capsys, tmp_path, kappa, node):
        out_path = tmp_path / "out.csv"
        with warnings.catch_warnings():
            # a huge but finite curvature overflows the integrator state
            # first; that is checked after the loop and warns nothing
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                capsys, "synthesize", "--kind", "timelike", "--kappa", kappa,
                "--tau", "0.5", "--out", str(out_path),
            )
        assert code == 1
        assert err.startswith("error: ")
        assert f"{node} is undefined at s=" in err
        assert "Traceback" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["synthesize", "--kind", "timelike", "--kappa", "exp(1000 * s)", "--tau", "0.5"],
                "exp((1000.0 * s)) is undefined at s=0.71 (math range error)",
            ),
            (
                ["synthesize", "--kind", "timelike", "--kappa", "0.5 - s",
                 "--tau", "1 / (s - 0.25)", "--step", "0.05"],
                "(1.0 / (s - 0.25)) is undefined at s=0.25 (float division by zero)",
            ),
            (
                ["synthesize", "--kind", "timelike", "--kappa", "0.2 - s", "--tau", "exp(800 * s)"],
                "kappa(s=0.2) = 0 <= 0",
            ),
            (
                ["synthesize", "--kind", "timelike", "--kappa", "1 + exp(800 * s)",
                 "--tau", "1 / (s - 0.125)", "--step", "0.125"],
                "(1.0 / (s - 0.125)) is undefined at s=0.125 (float division by zero)",
            ),
            (
                ["synthesize", "--kind", "spacelike+", "--kappa", "(1 + s)^2000", "--tau", "0.5"],
                "(1.0 + s)^2000 is undefined at s=0.4265 (Numerical result out of range)",
            ),
            (
                ["pair-verify", "--c", "synth:kind=timelike,kappa=1 / (s - 0.5),tau=0.9",
                 "--cstar", "paper-example-2", "--lambda", "1"],
                "kappa(s=0) = -2 <= 0",
            ),
            (
                ["classify", "--curve", "synth:kind=timelike,kappa=0.3 - s,tau=0.9"],
                "kappa(s=0.3) = 0 <= 0",
            ),
            (
                ["synthesize", "--kind", "timelike", "--kappa", "0-1", "--tau", "1/s"],
                "kappa(s=0) = -1 <= 0",
            ),
            (
                ["synthesize", "--kind", "timelike", "--kappa", "1/s", "--tau", "1"],
                "(1.0 / s) is undefined at s=0.0 (float division by zero)",
            ),
            # + - * / follow IEEE arithmetic: a non-finite value is the
            # prescription's error, not an overflow of the curve
            (
                ["synthesize", "--kind", "timelike",
                 "--kappa", "exp(700)*exp(10) - exp(700)*exp(10)", "--tau", "1"],
                "kappa(s=0) = nan is not finite",
            ),
            (
                ["synthesize", "--kind", "timelike", "--kappa", "1", "--tau", "exp(700)*exp(10)"],
                "tau(s=0) = inf is not finite",
            ),
        ],
    )
    def test_first_failing_abscissa_names_the_error(self, capsys, tmp_path, argv, message):
        # the abscissae in RK4's step order, kappa then its sign then tau at each
        out_path = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert (code, err) == (1, f"error: {message}\n")
        assert not out_path.exists()

    def test_synth_spec_is_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "pair-verify",
            "--c", "synth:kind=timelike,kappa=1/(s-0.5)^2,tau=0.5",
            "--cstar", "paper-example-2", "--lambda", "1",
        )
        assert code == 1
        assert "is undefined at s=0.5" in err


class TestUnmetHypothesisCommand:
    def test_non_partner_pair_writes_every_report(self, capsys, tmp_path):
        # the tangent leaves the (T*, N*) plane, and the collinearity fails
        out_path = tmp_path / "pair.json"
        code, out, err = run_cli(
            capsys, "pair-verify",
            "--c", "paper-example-2",
            "--cstar", "synth:kind=timelike,kappa=2.0 + 0.3*s,tau=0.9",
            "--lambda", "1", "--grid", "11", "--out", str(out_path),
        )
        assert err == ""
        reports = json.loads(out_path.read_text())
        assert len(reports) == 12
        verdicts = [rep["verdict"] for rep in reports]
        assert code == (1 if "Fail" in verdicts else 0)
        for rep in reports:
            jsonschema.validate(rep, REPORT_SCHEMA)
            assert all(math.isfinite(r) for r in rep["residuals"]), rep["identity"]
            if rep["identity"] not in ("distance-constancy", "center-ratio-nonconstancy"):
                assert rep["verdict"] == "Reported"


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0


class TestImportPath:
    def test_cli_import_loads_no_scipy_until_a_csv_curve(self, tmp_path):
        from mannheim_lab.builtins import builtin_curve
        from mannheim_lab.curve import sample

        path = tmp_path / "c.csv"
        with open(path, "w", newline="") as fh:
            sample(builtin_curve("paper-example-2"), 64).to_csv(fh)
        script = (
            "import sys\n"
            "import mannheim_lab.cli as cli\n"
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
            f"c = cli.resolve_curve_spec({'csv:' + str(path)!r})\n"
            "print(c.domain, 'scipy.interpolate' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "(0.0, 1.0) True"]


    # Each command in a child of its own: (argv, loads mannheim, loads indicatrix, exit code).
    # The pair commands load no indicatrix: the audit takes the images' rates from the frames.
    SPEC = "synth:kind=timelike,kappa=2 + 0.3*s,tau=0.9"
    COMMANDS = {
        "classify": (["classify", "--curve", "paper-example-1"], False, False, 0),
        "export-plot": (["export-plot", "--curve", "paper-example-2", "--out", "OUT"], False, False, 0),
        "frenet": (["frenet", "--curve", "paper-example-1", "--at", "0.5"], False, False, 0),
        "synthesize": (["synthesize", "--kind", "timelike", "--kappa", "1", "--tau", "0.5"], False, False, 0),
        "indicatrix": (["indicatrix", "--curve", "paper-example-1", "--which", "N"], False, True, 0),
        "offset-curve": (["offset", "--curve", "paper-example-2", "--lambda", "5"], False, False, 0),
        "offset-cstar": (["offset", "--cstar", "paper-example-2", "--lambda", "5"], False, False, 0),
        "examples": (["examples", "run", "1"], True, False, 0),
        # a copy of a curve is no partner: its distance report fails
        "pair-verify": (["pair-verify", "--c", SPEC, "--cstar", SPEC, "--lambda", "1"], True, False, 1),
    }

    def test_a_command_loads_only_the_modules_it_runs(self, tmp_path):
        script = (
            "import contextlib, io, json, sys\n"
            "import mannheim_lab.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(k for k in sys.modules if k.startswith('mannheim_lab.'))]))\n"
        )
        children = {
            name: subprocess.Popen(
                [sys.executable, "-c", script, *(str(tmp_path / name) if a == "OUT" else a for a in argv)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for name, (argv, *_) in self.COMMANDS.items()
        }
        for name, child in children.items():
            out, err = child.communicate()
            assert child.returncode == 0, err
            code, loaded = json.loads(out)
            _, audit, images, exit_code = self.COMMANDS[name]
            assert code == exit_code, name
            assert ("mannheim_lab.mannheim" in loaded, "mannheim_lab.reports" in loaded) == (audit, audit), name
            assert ("mannheim_lab.indicatrix" in loaded) is images, name
            assert ("mannheim_lab.offset" in loaded) is (audit or name.startswith("offset")), name


class TestJsonOutput:
    def test_non_finite_value_is_refused(self, tmp_path):
        from mannheim_lab.cli import _emit_json

        out_path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            _emit_json({"residual": math.inf}, str(out_path))
        assert not out_path.exists()


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        # synthesis sums in a fixed order with no BLAS call, so a synthesized
        # frame, and everything else printed, repeats bit for bit
        spec = "synth:kind=spacelike-,kappa=1.2 + 0.1*sin(s),tau=0.8 - 0.2*s"
        for argv in (
            ["frenet", "--curve", spec, "--at", "0.37"],
            ["frenet", "--curve", "paper-example-2", "--at", "0.5"],
            ["classify", "--curve", spec],
        ):
            runs = [
                subprocess.run([sys.executable, "-m", "mannheim_lab", *argv], capture_output=True)
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
            assert runs[0].stdout and runs[0].stdout == runs[1].stdout
