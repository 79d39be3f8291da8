"""Importing the package executes none of its modules: each runs when
one of its attributes is first read.  Each check runs in a fresh
interpreter started with -S, so that nothing a site hook imports counts,
and prints what it found as JSON."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from realcurves.cli import main

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
cold_call = runpy.run_path(str(ROOT / "tools" / "cold_modules.py"))["cold_call"]

PRELUDE = """\
import json, sys, types
def unexecuted():
    return sorted(name for name, module in sys.modules.items()
                  if name.startswith("realcurves.")
                  and type(module) is not types.ModuleType)
"""


def _run(script: str):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", PRELUDE + script],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# what a cold `ec` call leaves unexecuted: `cli` takes its exceptions
# from `errors` and its number readers from `rationals`, so `ec` runs
# none of parser, curves and polys
NO_EC_GROUP_LAW = ["realcurves.cohomology", "realcurves.curves", "realcurves.elliptic",
                   "realcurves.eta", "realcurves.eta_rules", "realcurves.groups",
                   "realcurves.parser", "realcurves.picard", "realcurves.polys",
                   "realcurves.report", "realcurves.sampling", "realcurves.witt"]
FRACTIONS = {"fractions", "decimal", "numbers"}


def test_ec_executes_no_eta_report_or_sampling():
    # and an integral torsion call no group law and no `fractions`: the
    # torsion walk computes on the integers as read, in `weierstrass`
    found = cold_call(["ec", "--curve", "0,-1,1", "torsion", "(0,1)", "--json"])
    assert (found["exit"], found["unexecuted"]) == (0, NO_EC_GROUP_LAW)
    assert found["executed"] == ["realcurves._cli_ec", "realcurves._format",
                                 "realcurves._record", "realcurves.cli",
                                 "realcurves.errors", "realcurves.rationals",
                                 "realcurves.weierstrass"]
    assert not FRACTIONS & set(found["stdlib"])


@pytest.mark.parametrize("argv, group_law", [
    (["--curve", "0,-1,1", "add", "(0,1)", "(1,1)"], True),
    (["--curve", "0,-1,1", "double", "(0,1)"], True),
    (["--curve", "0,-1,1", "multiple", "5", "(0,1)"], True),
    (["--curve", "0,-1,1", "torsion", "(1/4,-7/8)"], False),
    (["--curve", "0,-1/4,0", "torsion", "(0,0)"], False),
], ids=("add", "double", "multiple", "rational-point", "rational-curve"))
def test_group_law_and_rational_torsion_load_fractions(argv, group_law):
    # the Fraction group law runs in `elliptic`; a rational torsion walk
    # does not, but `read_rationals` built a Fraction
    found = cold_call(["ec", *argv, "--json"])
    assert found["exit"] == 0
    assert ("realcurves.elliptic" in found["executed"]) == group_law
    assert FRACTIONS <= set(found["stdlib"])


@pytest.mark.parametrize("argv, code, message", [
    (["--curve", "0,-1,1", "torsion", "(0,1)"], 0, ""),
    (["--curve", "3,-4,0", "torsion", "(-4,0)"], 0, ""),
    (["--curve", "0,-1,1", "add", "(0,1)", "(1,1)"], 0, ""),
    (["--curve", "0,-1,1", "add", "inf", "(0,1)"], 0, ""),
    (["--curve", "0,-1,1", "double", "(0,1)"], 0, ""),
    (["--curve", "0,-1,1", "multiple", "5", "(0,1)"], 0, ""),
    (["--curve", "0,-1,1/0", "double", "(0,1)"], 2,
     "parse error: bad curve coefficient: zero denominator in '1/0'"),
    (["--curve", "0,0,0", "double", "(0,0)"], 3,
     "hypothesis violation: cubic has a repeated root"),
    (["--curve", "0,-1,1", "double", "(0,2)"], 3,
     "hypothesis violation: point (0, 2) is not on the curve; residual 3"),
    (["--curve", "0,-1,1", "multiple", "300", "(0,1)"], 2,
     "parse error: coefficient of more than 4300 digits"),
])
def test_every_ec_path_runs_in_a_cold_process(argv, code, message):
    # each call in its own interpreter, so that a name that one path
    # imports and another misses cannot be supplied by an earlier call
    found = cold_call(["ec", *argv, "--json"])
    assert found["exit"] == code and found["stderr"].startswith(message)
    assert bool(found["stderr"]) == bool(code)


# what a cold `analyze` leaves unexecuted: a curve that the closed
# rules decide needs no quartic machinery, a conic no polynomial code,
# a rejected curve no report, and an input that does not parse no curve
NO_QUARTIC = ["realcurves.elliptic", "realcurves.eta", "realcurves.sampling",
              "realcurves.weierstrass"]
NO_POLYS = ["realcurves.elliptic", "realcurves.eta", "realcurves.polys",
            "realcurves.sampling", "realcurves.weierstrass"]
NO_REPORT = ["realcurves.cohomology", "realcurves.elliptic", "realcurves.eta",
             "realcurves.eta_rules", "realcurves.groups", "realcurves.picard",
             "realcurves.report", "realcurves.sampling", "realcurves.weierstrass",
             "realcurves.witt"]
NO_CURVE = ["realcurves.cohomology", "realcurves.curves", "realcurves.elliptic",
            "realcurves.eta", "realcurves.eta_rules", "realcurves.groups",
            "realcurves.picard", "realcurves.polys", "realcurves.report",
            "realcurves.sampling", "realcurves.weierstrass", "realcurves.witt"]


@pytest.mark.parametrize("text, code, unexecuted", [
    ("x^2 + y^2 - 1 = 0", 0, NO_POLYS),
    ("y^2 = x^3 - x", 0, NO_QUARTIC),
    ("x^2 + @ = 0", 2, NO_CURVE),
    ("y^2 = (x-1)^2", 3, NO_REPORT),
], ids=("conic", "closed-rule", "parse-error", "not-square-free"))
def test_cold_analyze_runs_only_what_its_curve_needs(text, code, unexecuted):
    found = cold_call(["analyze", "--json", text])
    assert (found["exit"], found["unexecuted"]) == (code, unexecuted)
    # no Fraction is built or read, so no `fractions` and its `decimal`
    assert not {"argparse", "gettext", "fractions", "decimal"} & set(found["stdlib"])


@pytest.mark.parametrize("coeffs, unexecuted", [
    ("0,-1,0,1", NO_QUARTIC),
    ("-2,0,0,0,0,0,+1", NO_QUARTIC),
    ("1,0,1", NO_QUARTIC),
    ("1,0,-2,0,1", NO_REPORT),
], ids=("odd-degree", "degree-6", "degree-2", "not-square-free"))
def test_integer_coeffs_load_no_fractions(coeffs, unexecuted):
    # `read_rationals` reads an integer entry as an int, so --coeffs
    # runs without `fractions`, as the grammar does on the same curve
    found = cold_call(["analyze", "--json", "--coeffs", coeffs])
    assert found["unexecuted"] == unexecuted
    assert not FRACTIONS & set(found["stdlib"])


def test_cold_parse_error_runs_only_the_grammar():
    found = cold_call(["analyze", "--json", "y^2 = x^3 +* 2"])
    assert found["exit"] == 2
    assert found["executed"] == ["realcurves._cli_analyze", "realcurves.cli",
                                 "realcurves.errors", "realcurves.parser",
                                 "realcurves.rationals"]


# the shapes of the benchmark's cold calls (`cli_argv` in perfbench/workloads.py)
BENCHMARK_ARGV = {
    "analyze-json": ["analyze", "--json", "--", "y^2 = (x^2+1)*(x^2+4)"],
    "sample-json": ["sample", "--count", "1", "--seed", "7", "--json"],
    "ec-json": ["ec", "--curve=0,-1,1", "torsion", "(0,1)", "--json"],
}


@pytest.mark.parametrize("argv, code", [
    (["analyze", "x^2 + y^2 - 1 = 0"], 0),
    (["analyze", "x^2 + @ = 0"], 2),
    (["analyze", "--json", "x^2 + @ = 0"], 2),
    (["sample", "--count", "2"], 0),
    (["ec", "--curve", "0,-1,1", "double", "(0,1)"], 0),
    (["-h"], 0),
    *((argv, 0) for argv in BENCHMARK_ARGV.values()),
], ids=("analyze-text", "parse-error", "parse-error-json", "sample-text", "ec-text",
        "help", *BENCHMARK_ARGV))
def test_json_is_imported_only_for_json_output(argv, code):
    # and not for --json output either: `_format.format_json` writes it,
    # so no cold call imports `json`
    found = cold_call(argv)
    assert found["exit"] == code
    assert not {"json", "json.decoder", "json.scanner", "_json"} & set(found["stdlib"])


@pytest.mark.parametrize("command", ["analyze", "sample", "ec"])
def test_a_cold_call_executes_only_its_own_handler(command):
    # `ec --json` executes neither the analyze handler nor the sample
    # handler, and each of those neither of the other two
    found = cold_call(BENCHMARK_ARGV[f"{command}-json"])
    handlers = [name for name in found["executed"] if name.startswith("realcurves._cli_")]
    assert (found["exit"], handlers) == (0, [f"realcurves._cli_{command}"])


@pytest.mark.parametrize("name", list(BENCHMARK_ARGV))
def test_a_module_run_executes_the_front_end_once(name):
    # `python -m realcurves.cli` runs `cli` as __main__; a handler that
    # imported `realcurves.cli` would compile and run it a second time
    found = _run(f"""
import contextlib, io, runpy
sys.argv = ["realcurves", *{BENCHMARK_ARGV[name]!r}]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("realcurves.cli", run_name="__main__")
    except SystemExit as stop:
        code = stop.code
print(json.dumps([code, "realcurves.cli" in sys.modules]))
""")
    assert found == [0, False]


# one input of each kind of the benchmark's analyze corpus
# (ANALYZE_TEMPLATES in perfbench/workloads.py)
ANALYZE_KINDS = {
    "conic": "x^2 + y^2 - 1 = 0",
    "hyperbola": "x^2 - y^2 - 1 = 0",
    "degenerate-conic": "x*y = 0",
    "odd-degree": "y^2 = x^5 - 4*x^3 + 2*x - 1",
    "even-degree-6": "y^2 = x^6 - 2",
    "negative-even-degree-6": "y^2 = -(x^6+1)",
    "quartic": "y^2 = (x^2+1)*(x^2+4)",
    "twin": "y^2 = -(x^2+1)*(x^2+4)",
    "quartic-no-normal-form": "y^2 = x^4 + x + 1",
    "non-monic": "y^2 = 2*x^4 + 2",
    "parse-error": "x^2 + @ = 0",
    "not-square-free": "y^2 = (x-1)^2",
}


@pytest.mark.parametrize("as_json", [(), ("--json",)], ids=("text", "json"))
@pytest.mark.parametrize("text", list(ANALYZE_KINDS.values()), ids=list(ANALYZE_KINDS))
def test_every_analyze_path_runs_in_a_cold_process(capsys, text, as_json):
    # as for `ec`: a name that only an earlier call imported shows here
    argv = ["analyze", *as_json, "--", text]
    code = main(argv)
    found = cold_call(argv)
    assert [found["exit"], found["stdout"]] == [code, capsys.readouterr().out]


@pytest.mark.parametrize("argv", [
    ["analyze", "--json", "y^2 = x^3 - 1/4*x"],
    ["analyze", "--json", "--coeffs", "1/2,0,1"],
    ["analyze", "--json", "1/2*x^2 + 3/4*y^2 - 1 = 0"],
    ["analyze", "--json", "y^2 = x^4 - 5*x^2 + 4"],
    ["analyze", "--json", "y^2 = x^4 - 5/4*x^2 + 1/4"],
], ids=("rational-odd-degree", "rational-coeffs", "rational-conic", "quartic",
        "rational-quartic"))
def test_rational_and_quartic_inputs_in_a_cold_process(capsys, argv):
    # `fractions` is imported at the first Fraction: a Fraction class
    # that only an earlier import in this process supplied shows here
    code = main(argv)
    found = cold_call(argv)
    assert [found["exit"], found["stdout"]] == [code, capsys.readouterr().out]
    assert code == 0 and "fractions" in found["stdlib"]


# a sampler draw builds no curve spec and uses no closed rule: it runs
# neither the grammar, nor `curves`, nor `eta_rules`, nor the report
NO_CURVE_SPEC = ["realcurves.cohomology", "realcurves.curves", "realcurves.eta_rules",
                 "realcurves.groups", "realcurves.parser", "realcurves.picard",
                 "realcurves.report", "realcurves.witt"]


def test_cli_sample_executes_no_parser_or_report():
    found = cold_call(["sample", "--count", "3", "--seed", "1", "--json"])
    assert [found["exit"], found["unexecuted"]] == [0, NO_CURVE_SPEC]


def test_run_sample_executes_no_parser_or_report():
    found = _run("""
import realcurves
summary = realcurves.run_sample(3, 1, realcurves.SampleBox())
print(json.dumps([summary.count, unexecuted()]))
""")
    assert found == [3, NO_CURVE_SPEC]


def test_a_decision_on_params_executes_no_polys():
    # `eta` reaches `polys` through the package's unexecuted module, which
    # only the normal form and `QuarticParams.quartic` run
    found = _run("""
import realcurves
params = realcurves.QuarticParams(0, 5, 2, 9)
realcurves.build_quartic_model(params)
value = realcurves.eta_from_params(params).value
before = "realcurves.polys" in unexecuted()
realcurves.quartic_eta(params.quartic())
print(json.dumps([value, before, "realcurves.polys" in unexecuted()]))
""")
    assert found == [0, True, False]


def test_rationals_reads_integers_without_fractions():
    found = _run("""
from realcurves.rationals import bounded_rational, integer_form, read_integer
result = [integer_form([3, -4, 0]), read_integer(" 12 ", "n"), bounded_rational(7)]
print(json.dumps([result, "fractions" in sys.modules]))
""")
    assert found == [[[1, [3, -4, 0]], 12, 7], False]


@pytest.mark.parametrize("check", ["point", "integer_form"])
@pytest.mark.parametrize("value", ["'1/2'", "0.5", "None", "[1]"])
def test_rationals_rejects_other_types_before_any_fraction(check, value):
    # `integer_form` rejects a str or a float before `fractions` is loaded
    # and after, and so does `Point` beside a Fraction, which it takes
    # from `elliptic`, whose module loads `fractions`; each check first
    # in a fresh interpreter
    found = _run(f"""
import realcurves
from realcurves import rationals
checks = {{"point": lambda v: realcurves.Point(v, realcurves.elliptic.Fraction(1, 2)),
          "integer_form": lambda v: rationals.integer_form([1, v])}}
rejected = []
for name in ({check!r}, *checks):
    try:
        checks[name]({value})
    except TypeError:
        rejected.append([name, "fractions" in sys.modules])
print(json.dumps(rejected))
""")
    # only the import of `elliptic` loads `fractions`
    first = [check, check == "point"]
    assert found == [first, ["point", True], ["integer_form", True]]


def test_rationals_takes_a_fraction_made_before_its_own_import():
    # a caller builds Fractions before the package builds any
    found = _run("""
from fractions import Fraction
half = Fraction(1, 2)
from realcurves import rationals
taken = rationals.integer_form([half, 3, Fraction(-5, 3)])
try:
    rationals.integer_form([half, 1.5])
    rejected = False
except TypeError:
    rejected = True
print(json.dumps([taken, rejected, str(rationals.read_rationals("1/3, -2", "x")[0])]))
""")
    assert found == [[6, [3, 18, -10]], True, "1/3"]


def test_read_rationals_builds_fractions_that_the_checks_take():
    # `read_rationals` reads integer entries as ints and imports
    # `fractions` at the first other entry; `integer_form` and `Point`
    # take its Fractions as they are
    found = _run("""
from realcurves import rationals
from realcurves.weierstrass import Point
ints = rationals.read_rationals("3, -4", "x")
before = "fractions" in sys.modules
values = rationals.read_rationals("1/2,3", "x")
point = Point(values[0], values[0])
print(json.dumps([[type(v) is int for v in ints], before,
                  [type(v).__name__ for v in values],
                  rationals.integer_form(values), point.v is point.u is values[0]]))
""")
    assert found == [[True, True], False, ["Fraction", "int"], [2, [1, 6]], True]


def test_tracer_installs_on_an_unexecuted_package_and_restores_it():
    found = _run(f"""
import runpy
import realcurves
tracer = runpy.run_path({str(SPANS)!r}, run_name="perfbench_spans")["Tracer"]()
tracer.install(types.SimpleNamespace())
try:
    realcurves.parse_curve("y^2 = x^4 - 5*x^2 + 4")
    realcurves.eta_from_params(realcurves.QuarticParams(0, 5, 2, 9))
finally:
    tracer.remove()
names = ("parser.parse_curve", "eta.eta_from_params")
restored = [realcurves.parse_curve is realcurves.parser.parse_curve,
            realcurves.parse_curve.__qualname__,
            realcurves.eta_from_params is realcurves.eta.eta_from_params,
            realcurves.eta_from_params.__qualname__]
print(json.dumps([[tracer.calls[name] for name in names], restored]))
""")
    assert found == [[1, 1], [True, "parse_curve", True, "eta_from_params"]]


def test_each_module_is_one_object_run_once():
    # sys.modules and the package hold the same module object, before its
    # first use and after, and a class has one identity under every name
    found = _run("""
import importlib
import realcurves
def same_objects():
    return all(getattr(realcurves, name.partition(".")[2]) is module
               for name, module in sys.modules.items()
               if name.startswith("realcurves."))
before = same_objects()
import realcurves.cli
from realcurves.eta import QuarticParams
code = realcurves.cli.main(["analyze", "y^2 = (x^2-1)*(x^2-9)", "--json"])
sampling = importlib.import_module("realcurves.sampling")
cli = realcurves.cli
identities = [
    realcurves.QuarticParams is realcurves.eta.QuarticParams is QuarticParams,
    sampling.QuarticParams is QuarticParams,
    realcurves.report.EtaAnalysis is realcurves.EtaAnalysis,
    cli.ParseError is realcurves.ParseError is realcurves.parser.ParseError,
    cli.HypothesisError is realcurves.HypothesisError is realcurves.curves.HypothesisError,
    cli.OffCurveError is realcurves.OffCurveError is realcurves.weierstrass.OffCurveError,
    cli.SingularCurveError is realcurves.SingularCurveError
    is realcurves.weierstrass.SingularCurveError,
    cli.InternalInconsistencyError is realcurves.InternalInconsistencyError
    is realcurves.report.InternalInconsistencyError,
]
after = same_objects()
eta = realcurves.eta
importlib.reload(realcurves)  # keeps the modules it finds in sys.modules
identities.append(realcurves.eta is eta and realcurves.QuarticParams is QuarticParams)
print(json.dumps([before, code, after, same_objects(), identities, unexecuted()]))
""")
    assert found == [True, 0, True, True, [True] * 9, []]


def test_each_exception_class_is_one_object():
    # after every module has run, each name in `errors` reaches the same
    # class through the package and through every module that holds it
    found = _run("""
import contextlib, io
import realcurves
import realcurves.cli
with contextlib.redirect_stdout(io.StringIO()):
    realcurves.cli.main(["analyze", "y^2 = (x^2-1)*(x^2-9)", "--json"])
    realcurves.cli.main(["sample", "--count", "1"])
    realcurves.cli.main(["ec", "--curve", "0,-1,1", "torsion", "(0,1)"])
names = ("HypothesisError", "InternalInconsistencyError", "OffCurveError",
         "ParseError", "SingularCurveError")
errors = sys.modules["realcurves.errors"]
strays = []  # per name: the modules holding another object, and the class's home
for name in names:
    cls = getattr(errors, name)
    strays.append([module_name for module_name, module in sys.modules.items()
                    if module_name.startswith("realcurves")
                    and getattr(module, name, cls) is not cls])
    strays.append(cls.__module__)
print(json.dumps([strays, unexecuted()]))
""")
    assert found == [[[], "realcurves.errors"] * 5, []]
