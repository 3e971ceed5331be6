"""Golden reports of the built-in demos.

``tests/data/demos/<name>.json`` holds the JSON report of ``fbsde demo
<name>``, and ``tests/data/demo_crosschecks/<name>-<command>.json`` the
report of ``fbsde oracle`` and ``fbsde check`` on the demo's document.
Status, exit code, stats and singular nodes must match exactly; every other
float may move by 1e-12, so a different LAPACK build does not fail the
test.  After a deliberate change to a report, rewrite the file with
``run_cli([..., "--output", path])`` and show the diff.
"""

import json
import math
from pathlib import Path

import pytest

from fbsde.cli import DEMOS, run_cli

GOLDEN = Path(__file__).parent / "data" / "demos"
CROSSCHECKS = Path(__file__).parent / "data" / "demo_crosschecks"

FLOAT_TOL = 1e-12

# the oracle and the checks reach the same verdict as the demo's solve
EXIT_CODES = {
    "partially-coupled": 0,
    "corollary-special": 0,
    "singular-gamma": 2,
    "monotone-family": 0,
}


def assert_close(actual, expected, where="report"):
    """Equal structure and values; floats within FLOAT_TOL, all else exact."""
    assert type(actual) is type(expected), f"{where}: {actual!r} vs {expected!r}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{where}: keys differ"
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: lengths differ"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=0.0, abs_tol=FLOAT_TOL), (
            f"{where}: {actual!r} vs {expected!r}"
        )
    else:
        assert actual == expected, f"{where}: {actual!r} vs {expected!r}"


def test_every_demo_has_a_golden_report():
    assert sorted(DEMOS) == sorted(EXIT_CODES)
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(DEMOS)


def assert_matches_golden(out, golden):
    actual = json.loads(out.read_text(encoding="utf-8"))
    expected = json.loads(golden.read_text(encoding="utf-8"))
    assert actual["status"] == expected["status"]
    assert actual.get("stats") == expected.get("stats")  # check reports have none
    certificate = expected["certificate"]
    if certificate is not None:
        assert actual["certificate"]["singular_nodes"] == certificate["singular_nodes"]
    assert_close(actual, expected)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_demo_report_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert run_cli(["demo", name, "--output", str(out)]) == EXIT_CODES[name]
    assert_matches_golden(out, GOLDEN / f"{name}.json")


@pytest.mark.parametrize("command", ["oracle", "check"])
@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_demo_document_crosscheck_matches_golden(name, command, tmp_path):
    doc = tmp_path / f"{name}.json"
    doc.write_text(json.dumps(DEMOS[name]), encoding="utf-8")
    out = tmp_path / "report.json"
    assert run_cli([command, str(doc), "--output", str(out)]) == EXIT_CODES[name]
    assert_matches_golden(out, CROSSCHECKS / f"{name}-{command}.json")
