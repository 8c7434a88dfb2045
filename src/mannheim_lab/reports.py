"""Residual reports emitted by the identity verifiers.

A report records a residual profile on a grid, its tolerance and a verdict;
``mannheim._Identity.report`` decides the verdict.  ``REPORTED`` means the
profile is published without a pass/fail claim.

A residual that is undefined at a grid point is ``None`` (``null`` in JSON);
the maximum and mean cover the defined residuals only.  The JSON form is
described by ``docs/report.schema.json``.
"""

from __future__ import annotations

from enum import Enum
from typing import Any

__all__ = ["Verdict", "VerificationReport"]


class Verdict(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    REPORTED = "Reported"


class VerificationReport:
    """One identity's residual profile on a grid, its tolerance, verdict and details."""

    def __init__(
        self,
        identity: str,
        grid: list[float],
        residuals: list[float | None],
        tolerance: float,
        verdict: Verdict,
        details: dict[str, Any] | None = None,
    ) -> None:
        if len(grid) != len(residuals):
            raise ValueError("grid and residuals must have equal length")
        if not residuals:
            raise ValueError("empty residual profile")
        self.identity, self.grid, self.residuals = identity, grid, residuals
        self.tolerance, self.verdict = tolerance, verdict
        self.details = {} if details is None else details

    def _summary(self) -> tuple[float | None, float | None]:
        """Max and mean of the defined residuals, from one list of them; the
        mean is the sequential sum over the count (``np.mean`` sums pairwise)."""
        defined = [r for r in self.residuals if r is not None]
        if not defined:
            return None, None
        return max(defined), sum(defined) / len(defined)

    @property
    def max_residual(self) -> float | None:
        return self._summary()[0]

    @property
    def mean_residual(self) -> float | None:
        return self._summary()[1]

    def to_json_dict(self) -> dict[str, Any]:
        top, mean = self._summary()
        out: dict[str, Any] = {
            "identity": self.identity,
            "grid": list(self.grid),
            "residuals": list(self.residuals),
            "max_residual": top,
            "mean_residual": mean,
            "tolerance": self.tolerance,
            "verdict": self.verdict.value,
        }
        if self.details:
            out["details"] = self.details
        return out

