"""Fixed-seed outputs stay what ``tests/bit_identity/expected.json`` holds.

The campaign report and the CLI fits are recomputed by the script that
wrote the file (``tests/bit_identity/regenerate.py``, which says when and
how to regenerate it).  Floats compare at a relative tolerance of 1e-12,
not bit for bit, because other numpy and scipy releases may differ in
the last bits; strings, integers, booleans and structure compare equal.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

RTOL = 1e-12
_SCRIPT = Path(__file__).with_name("bit_identity") / "regenerate.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bit_identity_regenerate", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mismatches(actual, expected, where="") -> list[str]:
    """Where ``actual`` departs from ``expected`` (floats at ``RTOL``)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected for m in mismatches(actual[k], expected[k], f"{where}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in mismatches(a, e, f"{where}/{i}")]
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if math.isclose(actual, expected, rel_tol=RTOL, abs_tol=0.0):
            return []
    elif type(actual) is type(expected) and actual == expected:
        return []
    return [f"{where}: {actual!r} != {expected!r}"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _load_script().compute(tmp_path_factory.mktemp("bit_identity"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(_SCRIPT.with_name("expected.json").read_text())


@pytest.mark.parametrize("name", ["mini_campaign", "cli_fit_psd", "cli_fit_esr"])
def test_matches_the_recorded_output(name, outputs, expected):
    assert mismatches(outputs[name], expected[name]) == []


@pytest.mark.parametrize("actual, expected, bad", [
    (1.0 + 1e-13, 1.0, False),
    (1.0 + 1e-11, 1.0, True),
    (0.0, 0.0, False),
    (1e-300, 0.0, True),
    (float("nan"), float("nan"), False),
    (1, 1.0, True),
    (True, 1, True),
    ({"a": [1.0]}, {"a": [1.0, 2.0]}, True),
    ({"a": 1.0}, {"b": 1.0}, True),
    ("x", "x", False),
])
def test_comparison_rule(actual, expected, bad):
    assert bool(mismatches(actual, expected)) is bad
