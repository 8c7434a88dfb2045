"""Residual reports emitted by the identity verifiers.

A report never averages away a failure: the verdict is keyed to the largest
residual on the grid.  ``REPORTED`` means the residual profile is published
without a pass/fail claim, which the verifiers use when the hypothesis an
identity depends on is itself not satisfied by the input pair.

A residual that is undefined at a grid point is ``None`` (``null`` in JSON);
the maximum and mean cover the defined residuals only, and an undefined
residual fails a judged report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["Verdict", "VerificationReport", "REPORT_JSON_SCHEMA"]


class Verdict(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    REPORTED = "Reported"


@dataclass
class VerificationReport:
    identity: str
    grid: list[float]
    residuals: list[float | None]
    tolerance: float
    verdict: Verdict
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.grid) != len(self.residuals):
            raise ValueError("grid and residuals must have equal length")
        if not self.residuals:
            raise ValueError("empty residual profile")

    def _defined(self) -> list[float]:
        return [r for r in self.residuals if r is not None]

    @property
    def max_residual(self) -> float | None:
        defined = self._defined()
        return max(defined) if defined else None

    @property
    def mean_residual(self) -> float | None:
        defined = self._defined()
        return sum(defined) / len(defined) if defined else None

    @classmethod
    def from_profile(
        cls,
        identity: str,
        grid: list[float],
        residuals: list[float | None],
        tolerance: float,
        hypothesis_met: bool = True,
        details: dict[str, Any] | None = None,
    ) -> "VerificationReport":
        """Apply the verdict policy: pass/fail only under the hypothesis."""
        if not hypothesis_met:
            verdict = Verdict.REPORTED
        elif None not in residuals and max(residuals) <= tolerance:
            verdict = Verdict.PASS
        else:
            verdict = Verdict.FAIL
        return cls(identity, list(grid), list(residuals), tolerance, verdict, details or {})

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "identity": self.identity,
            "grid": list(self.grid),
            "residuals": list(self.residuals),
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict.value,
        }
        if self.details:
            out["details"] = self.details
        return out


REPORT_JSON_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "VerificationReport",
    "type": "object",
    "required": [
        "identity",
        "grid",
        "residuals",
        "max_residual",
        "mean_residual",
        "tolerance",
        "verdict",
    ],
    "properties": {
        "identity": {"type": "string"},
        "grid": {"type": "array", "items": {"type": "number"}},
        "residuals": {"type": "array", "items": {"type": ["number", "null"]}},
        "max_residual": {"type": ["number", "null"]},
        "mean_residual": {"type": ["number", "null"]},
        "tolerance": {"type": "number"},
        "verdict": {"enum": ["Pass", "Fail", "Reported"]},
        "details": {"type": "object"},
    },
    "additionalProperties": False,
}
