"""The package namespace: every name it exports, resolved on first access."""

import importlib
import subprocess
import sys

import pytest

import mannheim_lab

# The exported names and where each is defined.  ``classify_pair`` is no
# longer one: a pair's type is read as it is built.
EXPORTS = {
    "lorentz": ["CausalCharacter", "Vec3L"],
    "curve": [
        "Curve", "CurveSamples", "classify_curve", "curve_from_samples", "load_samples_csv",
        "reparametrize_unit", "sample",
    ],
    "frenet": ["CurveKind", "frenet_apparatus", "frenet_synthesize", "synthesized_gram_drift"],
    "mannheim": [
        "IDENTITIES", "MannheimCurveTest", "MannheimPair", "MannheimPairType", "PairSamples",
        "exact_partner_pair", "mannheim_curve_test", "offset_along_binormal", "offset_along_normal",
    ],
    "indicatrix": ["Indicatrix", "indicatrix_of"],
    "builtins": ["BUILTIN_CURVE_NAMES", "builtin_curve"],
    "expr": ["Expr", "parse_expr"],
    "reports": ["VerificationReport", "Verdict"],
}
SUBMODULES = ["lorentz", "curve", "frenet", "mannheim", "indicatrix", "builtins", "expr", "reports", "errors"]


def test_import_loads_no_submodule():
    script = (
        "import sys\n"
        "import mannheim_lab\n"
        "print(sorted(k for k in sys.modules if k.startswith('mannheim_lab.')))\n"
        "mannheim_lab.frenet_apparatus\n"
        "print(sorted(k for k in sys.modules if k.startswith('mannheim_lab.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()
    assert before == "[]"
    assert "mannheim_lab.mannheim" not in after and "mannheim_lab.frenet" in after


@pytest.mark.parametrize("module", list(EXPORTS))
def test_each_export_is_its_module_attribute(module):
    source = importlib.import_module(f"mannheim_lab.{module}")
    for name in EXPORTS[module]:
        assert getattr(mannheim_lab, name) is getattr(source, name), name


def test_submodules_are_attributes():
    for name in SUBMODULES:
        assert getattr(mannheim_lab, name) is importlib.import_module(f"mannheim_lab.{name}")


def test_dir_and_star_import_list_the_exports():
    names = {name for names in EXPORTS.values() for name in names} | {"errors"}
    assert set(mannheim_lab.__all__) == names
    assert names | set(SUBMODULES) | {"__version__"} <= set(dir(mannheim_lab))
    namespace = {}
    exec("from mannheim_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == names


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        mannheim_lab.no_such_name
    assert not hasattr(mannheim_lab, "MAX_TABLE_SIZE")
