import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mannheim_lab.mannheim import IDENTITIES

TOOLS = Path(__file__).resolve().parent.parent / "tools"
# The committed output of each mode: a change that means to move a digest
# regenerates its file, so every moved line shows in the diff.
DIGESTS = TOOLS / "digests"

DIGEST = r"[0-9a-f]{64}  \S.*"
SYNTH_DIGEST = r"[0-9a-f]{64}  \S.* step \S+ gram drift \d\.\d{3}e[-+]\d\d"
RESIDUAL = r".+ \| (\S+) (Pass|Fail|Reported) \S+"
# a failing command writes no file and shows ``no output`` padded to a digest's width
CLI_DIGEST = r"([0-9a-f]{64}|no output {55}) exit \d+  \S.*"


def _dispatched_cpu_features() -> list[str]:
    """The optional SIMD features numpy dispatches to on this host."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


# The script imports private names of the package (_run_pair_suite,
# resolve_curve_spec), so a refactor that renames one must fail here.
# The baseline-cpu cases run with every dispatched SIMD feature disabled:
# the arithmetic is elementwise and ordered, so the bits may not depend on
# which kernels numpy picks.
@pytest.mark.parametrize(
    "flags, count, line, baseline, baseline_cpu",
    [
        # one digest per audit configuration
        ([], 15, DIGEST, "default.txt", False),
        # 3 kinds x 3 torsions x 4 (range, step) pairs, each with its Gram drift
        (["--synth"], 36, SYNTH_DIGEST, "synth.txt", False),
        # 15 configurations x 12 reports, each configuration in table order
        (["--residuals"], 15 * 12, RESIDUAL, "residuals.txt", False),
        # one digest per pinned CLI command, with its exit code
        (["--csv"], 51, CLI_DIGEST, "csv.txt", False),
        ([], 15, DIGEST, "default.txt", True),
        (["--synth"], 36, SYNTH_DIGEST, "synth.txt", True),
    ],
    ids=["default", "synth", "residuals", "csv", "default-baseline-cpu", "synth-baseline-cpu"],
)
def test_report_digests_prints_one_line_per_configuration(flags, count, line, baseline, baseline_cpu):
    env = dict(os.environ)
    if baseline_cpu:
        features = _dispatched_cpu_features()
        if not features:
            pytest.skip("numpy dispatches no SIMD feature on this host")
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(features)
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "report_digests.py"), *flags],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == count
    assert all(re.fullmatch(line, text) for text in lines), lines
    if flags == ["--residuals"]:
        names = [re.fullmatch(line, text).group(1) for text in lines]
        assert names == [row.name for row in IDENTITIES] * 15
    assert proc.stdout == (DIGESTS / baseline).read_text()
