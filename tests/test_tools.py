import re
import subprocess
import sys
from pathlib import Path

from mannheim_lab.mannheim import IDENTITIES

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_report_digests_prints_one_digest_per_configuration():
    # the script imports private names of the package (_run_pair_suite,
    # resolve_curve_spec), so a refactor that renames one must fail here
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "report_digests.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 14
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines), lines


def test_report_digests_synth_prints_one_digest_per_synthesis():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "report_digests.py"), "--synth"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # 3 kinds x 3 torsions x 3 (range, step) pairs
    assert len(lines) == 27
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines), lines


def test_report_digests_residuals_follow_the_identity_table():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "report_digests.py"), "--residuals"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # 14 configurations x 12 reports, each configuration in table order
    assert len(lines) == 14 * 12
    names = [re.fullmatch(r".+ \| (\S+) (Pass|Fail|Reported) \S+", line).group(1) for line in lines]
    assert names == [row.name for row in IDENTITIES] * 14
