"""Residual reports emitted by the identity verifiers.

A report records a residual profile on a grid, its tolerance and a verdict;
``mannheim._Identity.report`` decides the verdict.  ``REPORTED`` means the
profile is published without a pass/fail claim.

A residual that is undefined at a grid point is ``None`` (``null`` in JSON);
the maximum and mean cover the defined residuals only.  The JSON form is
described by ``docs/report.schema.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["Verdict", "VerificationReport"]


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

