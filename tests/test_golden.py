"""The CLI's output on a fixed corpus, compared byte for byte with the
fixture in tests/golden/.

The fixture is regenerated, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from realcurves.cli import main

FIXTURE = pathlib.Path(__file__).resolve().parent / "golden" / "cli_outputs.json"

ANALYZE_INPUTS = [
    # test_cli.py::TestAnalyze::test_schema_over_golden_corpus validates
    # the output of every --json case in CASES against docs/schema.json
    "x^2 + y^2 - 1 = 0", "x^2 + y = 0", "x^2 - y^2 - 1 = 0",
    "x^2 + y^2 + 1 = 0", "x = 0", "x^2 + 1 = 0",
    "y^2 = x^3 - x", "y^2 = -(x^6+1)", "y^2 = (x^2+1)*(x^2+4)",
    "y^2 = -(x^2+1)*(x^2+4)", "y^2 = x^6 - 2", "y^2 = x^4 + x + 1",
    "y^2 = 2*x^4 + 2", "y^2 = x^5 - 4*x^3 + 2*x - 1",
    # a quartic with rational coefficients
    "y^2 = (1/2*x^2 - 3)*(x^2 + 1/3)",
    # leading coefficients that are not squares of rationals: y -> y/sqrt(l)
    # maps each over R onto its monic quartic, and its -q twin likewise
    "y^2 = 2*(x^2+1)*(x^2+4)", "y^2 = -3*(x^2+1)*(x^2+4)",
]

EC_CASES = [
    # the README examples
    ["ec", "--curve", "0,-1,1", "add", "(0,1)", "(1,1)"],
    ["ec", "--curve", "3,-4,0", "multiple", "2", "(-4,0)"],
    ["ec", "--curve", "0,-1,1", "torsion", "(0,1)"],
    ["ec", "--curve", "0,-1,1", "double", "(0,1)"],
    ["ec", "--curve", "0,-1,1", "multiple", "-5", "(0,1)"],
    ["ec", "--curve", "3,-4,0", "add", "inf", "(1,0)"],
    # build_quartic_model(QuarticParams(0, 1/2, 1/3, 3/2)) and its point p
    ["ec", "--curve=-41/9,16/9,16/9", "torsion", "(0,4/3)"],
]

CASES = [["analyze", text, "--json"] for text in ANALYZE_INPUTS] + [
    ["analyze", "--coeffs=-1,0,0,0,1", "--units", "2,3,4", "--json"],
    ["sample", "--count", "300", "--seed", "1", "--json"],
    ["sample", "--count", "20", "--seed", "3", "--pin", "b=0", "--json"],
] + [argv + as_json for argv in EC_CASES for as_json in ([], ["--json"])] + [
    # text output: a conic, the candidates of an undetermined eta, the
    # "eta over C" line of a twin quartic, several --units entries, and
    # the percentages and the known1 certificates of `sample`
    ["analyze", "x^2 + y^2 - 1 = 0"],
    ["analyze", "y^2 = x^4 + x + 1"],
    ["analyze", "y^2 = -(x^2+1)*(x^2+4)"],
    ["analyze", "--coeffs=-1,0,0,0,1", "--units", "2,3,4"],
    ["sample", "--count", "300", "--seed", "1"],
    ["sample", "--count", "20", "--seed", "3", "--pin", "b=0"],
]


def _key(argv):
    return " ".join(argv)


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_output_matches_fixture(argv):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[_key(argv)]
    assert _stdout(argv).encode() == expected.encode()


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({_key(argv): _stdout(argv) for argv in CASES},
                                  indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
