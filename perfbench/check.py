"""Output checks for benchmark ops.

Every check returns a list of problems; an empty list means the output is
correct.  Numbers are compared with tolerances, never byte for byte, so a
rewrite that changes the last digits still passes; a loss of accuracy shows
in ``accuracy_digits`` instead.
"""

from __future__ import annotations

import csv
import json
import math
import os

REPO_SCHEMA = os.path.join("docs", "report.schema.json")

# Verdict vectors of the full 12-report suite, one letter per report in
# suite order (P = Pass, F = Fail, R = Reported), as the seed commit gives
# them.  Exact pairs depend only on (pair type, sign of the torsion slope).
REFERENCE_VERDICTS = "PRRRRRRRRRRR"
EXACT_VERDICTS = {
    (2, -1): "PFFPFFFFRPPP",
    (2, 1): "PFFPFFFFRPFP",
    (3, -1): "PPFPFFFFRPPP",
    (3, 1): "PPFPFFFFRPFP",
    (5, -1): "PPFPFFFFRPPP",
    (5, 1): "PPFPFFFFRPFP",
}
# pair-verify of two copies of one timelike synth curve with rising kappa.
SHARED_COPY_VERDICTS = "FRRRRRRRRPRR"

# Its residuals are deviations from the mean ratio, not errors.
ACCURACY_EXCLUDED = "center-ratio-nonconstancy"
ACCURACY_CAP = 16.0

_schema_cache: dict[str, object] = {}


def report_schema() -> dict:
    if "schema" not in _schema_cache:
        with open(REPO_SCHEMA) as fh:
            _schema_cache["schema"] = json.load(fh)
    return _schema_cache["schema"]


def verdict_vector(reports: list[dict]) -> str:
    return "".join(str(r.get("verdict", "?"))[:1] for r in reports)


def check_reports(reports, expected_verdicts: str | None) -> list[str]:
    """Schema, finiteness and verdict checks of a JSON report array."""
    if not isinstance(reports, list) or not reports:
        return ["report array is empty or not a list"]
    import jsonschema  # deferred: set-up probes import this module

    problems = []
    schema = report_schema()
    for rep in reports:
        try:
            jsonschema.validate(rep, schema)
        except jsonschema.ValidationError as exc:
            problems.append(f"schema: {exc.message}")
            continue
        values = [rep["max_residual"], rep["mean_residual"], *rep["residuals"]]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{rep['identity']}: non-finite residual")
    if expected_verdicts is not None:
        got = verdict_vector(reports)
        if got != expected_verdicts:
            problems.append(f"verdicts {got} != expected {expected_verdicts}")
    return problems


def accuracy_digits(reports: list[dict]) -> float | None:
    """min -log10(max_residual) over judged Pass reports, capped at 16.

    None when no report qualifies.
    """
    digits = []
    for rep in reports:
        if rep.get("verdict") != "Pass" or rep.get("identity") == ACCURACY_EXCLUDED:
            continue
        worst = rep["max_residual"]
        digits.append(ACCURACY_CAP if worst <= 0.0 else min(ACCURACY_CAP, -math.log10(worst)))
    return min(digits) if digits else None


def check_csv(path: str, rows: int) -> list[str]:
    """A t,x1,x2,x3 CSV with exactly ``rows`` finite rows, t increasing."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["t", "x1", "x2", "x3"]:
                return [f"bad CSV header {header!r}"]
            prev = -math.inf
            count = 0
            for row in reader:
                values = [float(v) for v in row]
                if len(values) != 4 or not all(math.isfinite(v) for v in values):
                    return [f"bad CSV row {count + 2}"]
                if values[0] <= prev:
                    return [f"CSV parameter not increasing at row {count + 2}"]
                prev = values[0]
                count += 1
    except (OSError, ValueError) as exc:
        return [f"CSV unreadable: {exc}"]
    if count != rows:
        return [f"CSV has {count} rows, expected {rows}"]
    return []


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_frame(payload, kind: str, kappa: float, tau: float) -> list[str]:
    """``frenet`` JSON against a curve with known constant kappa and tau."""
    try:
        values = [payload["kappa"], payload["tau"], payload["gram_residual"]]
        values += payload["T"] + payload["N"] + payload["B"]
    except (KeyError, TypeError) as exc:
        return [f"frame JSON incomplete: {exc}"]
    problems = []
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        problems.append("non-finite frame value")
    elif not (close(payload["kappa"], kappa) and close(payload["tau"], tau)):
        problems.append(f"kappa/tau {payload['kappa']}/{payload['tau']} != {kappa}/{tau}")
    elif payload["gram_residual"] > 1e-9:
        problems.append(f"gram residual {payload['gram_residual']:.3e}")
    if payload.get("kind") != kind:
        problems.append(f"frame kind {payload.get('kind')!r} != {kind!r}")
    return problems
