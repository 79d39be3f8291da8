import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import runpy
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import realcurves.eta
from realcurves import Point, QuarticParams, SampleBox
from realcurves._cli_ec import ARITY
from realcurves.cli import _COMMANDS, _HELP, main
from realcurves.parser import MAX_NESTING
from realcurves.rationals import MAX_COEFFICIENT_DIGITS
from realcurves.sampling import MAX_BOUND_DIGITS, draw_params, run_sample

from test_golden import CASES as GOLDEN_CASES
from test_golden import FIXTURE as GOLDEN_FIXTURE

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)
# each "#/$defs/<name>" that a $ref names, and its schema
SCHEMA_AT = {f"#/$defs/{name}": schema for name, schema in SCHEMA["$defs"].items()}
cold_call = runpy.run_path(str(ROOT / "tools" / "cold_modules.py"))["cold_call"]

# A sampler quartic (k = 0, a = 5, b = 2, c = 9) whose torsion search
# runs to exhaustion: eta = 0.
EXHAUSTED_QUARTIC = "y^2 = ((x+2)^2 + 25)*((x-2)^2 + 81)"
# k = 0 with (a, b, c) = (8, 15/4, 2): 2p = p3, so p has order 4
ORDER_FOUR_QUARTIC = "y^2 = ((4*x+15)^2 + 1024)*((4*x-15)^2 + 64)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


def _admits_null(schema):
    kind = schema.get("type")
    return (kind == "null" or isinstance(kind, list) and "null" in kind
            or None in schema.get("enum", ()))


def _subschemas(schema, path):
    """(path, subschema) of each schema nested one level in `schema`."""
    for word in ("properties", "$defs"):
        for key, sub in schema.get(word, {}).items():
            yield f"{path}/{word}/{key}", sub
    if "items" in schema:
        yield f"{path}/items", schema["items"]
    for word in ("oneOf", "anyOf", "allOf"):
        for i, sub in enumerate(schema.get(word, ())):
            yield f"{path}/{word}/{i}", sub


def _null_sites(schema, path):
    """The paths of every subschema of `schema` that admits null."""
    sites = {path} if _admits_null(schema) else set()
    for sub_path, sub in _subschemas(schema, path):
        sites |= _null_sites(sub, sub_path)
    return sites


def _nulls_taken(schema, path, value):
    """The paths of the subschemas of `schema` that admit null and that
    `value` meets with a null, following `$ref`, every allOf branch and
    the oneOf and anyOf alternatives that `value` satisfies."""
    if "$ref" in schema:
        ref = schema["$ref"]
        return _nulls_taken(SCHEMA_AT[ref], ref, value)
    taken = {path} if value is None and _admits_null(schema) else set()
    if isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                taken |= _nulls_taken(sub, f"{path}/properties/{key}", value[key])
    if isinstance(value, list) and "items" in schema:
        for item in value:
            taken |= _nulls_taken(schema["items"], f"{path}/items", item)
    for word in ("oneOf", "anyOf", "allOf"):
        for i, sub in enumerate(schema.get(word, ())):
            if word == "allOf" or VALIDATOR.evolve(schema=sub).is_valid(value):
                taken |= _nulls_taken(sub, f"{path}/{word}/{i}", value)
    return taken


class TestAnalyze:
    def test_ellipse_report(self, capsys):
        payload = run_json(capsys, "analyze", "x^2 + y^2 - 1 = 0")
        assert payload["curve"]["conic_class"] == "ellipse"
        assert payload["witt"]["display"] == "Z (+) Z/2"
        assert payload["pic_tors"]["display"] == "Z/2"
        assert payload["eta"]["eta"] == 0
        assert payload["units"][0] == {
            "n": 2, "eta_undetermined": False,
            "group": {"free_rank": 0, "qz": 0, "z4": 0, "zn": None, "z2": 1},
            "display": "Z/2"}

    def test_quartic_report(self, capsys):
        payload = run_json(capsys, "analyze", "y^2 = (x^2-1)*(x^2-9)")
        assert payload["eta"]["eta"] == 1
        assert payload["eta"]["certificate"]["relation"] == "p = p3"
        assert payload["pic_tors"]["display"] == "Q/Z (+) Z/2"

    def test_undetermined_quartic_report(self, capsys):
        payload = run_json(capsys, "analyze", "y^2 = x^4 + x + 1")
        assert payload["eta"]["eta"] is None
        assert payload["pic_tors"]["eta_undetermined"] is True
        cands = payload["pic_tors"]["candidates"]
        assert cands["eta_0"]["display"] == "(Q/Z)^2"
        assert cands["eta_1"]["display"] == "Q/Z"

    def test_units_flag(self, capsys):
        payload = run_json(capsys, "analyze", "x^2 - y^2 - 1 = 0",
                           "--units", "2,3,4")
        displays = [u["display"] for u in payload["units"]]
        assert displays == ["(Z/2)^2", "Z/3", "Z/4 (+) Z/2"]

    def test_coeffs_path_matches_expression(self, capsys):
        a = run_json(capsys, "analyze", "y^2 = x^4 - 1")
        b = run_json(capsys, "analyze", "--coeffs=-1,0,0,0,1")
        assert a == b

    def test_text_output(self, capsys):
        code, out, err = run(capsys, "analyze", "x^2 + y^2 - 1 = 0")
        assert code == 0
        assert "W(X):           Z (+) Z/2" in out
        assert "Pic_tors(X):    Z/2" in out

    def test_schema_over_golden_corpus(self, capsys):
        # every --json case of the golden corpus: analyze, sample and ec
        cases = [argv for argv in GOLDEN_CASES if "--json" in argv]
        assert {argv[0] for argv in cases} == {"analyze", "sample", "ec"}
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            jsonschema.validate(json.loads(out), SCHEMA)

    def test_every_null_of_the_schema_is_taken(self):
        # a null that no golden output takes is a case the code no longer has
        fixture = json.loads(GOLDEN_FIXTURE.read_text(encoding="utf-8"))
        taken = set()
        for argv in GOLDEN_CASES:
            if "--json" in argv:
                taken |= _nulls_taken(SCHEMA, "#", json.loads(fixture[" ".join(argv)]))
        assert _null_sites(SCHEMA, "#") - taken == set()

    def test_unit_groups_line_up_with_the_other_lines(self, capsys):
        # "U_10(X):" is one character longer than "U_2(X):"; every value
        # starts in column 16 all the same
        code, out, _ = run(capsys, "analyze", "y^2 = x^3 - x", "--units", "3,10")
        assert code == 0
        lines = out.splitlines()
        assert [line[:16] for line in lines[-3:-1]] == ["U_3(X):         ",
                                                        "U_10(X):        "]
        assert all(line[15] == " " != line[16] for line in lines), out

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "analyze", "y^2 = (x^2-1)*(x^2-9)", "--json")
        _, second, _ = run(capsys, "analyze", "y^2 = (x^2-1)*(x^2-9)", "--json")
        assert first == second


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "analyze", "x^2 + @ = 0")
        assert code == 2 and "parse error" in err

    @pytest.mark.parametrize("expr, char, position", [
        ("y^2 = x²", "²", 7), ("y^2 = x^3 - ١", "١", 12)])
    def test_non_ascii_digit_is_unexpected_character(self, capsys, expr, char,
                                                     position):
        # str.isdigit is true for both; only 0-9 are digits in the grammar
        for as_json in ((), ("--json",)):
            code, out, err = run(capsys, "analyze", expr, *as_json)
            assert code == 2 and out == ""
            assert f"unexpected character {char!r} (at position {position})" in err

    @pytest.mark.parametrize("expr, position", [
        # 250 parentheses and 1000 signs ran out of the recursion limit
        ("y^2 = " + "(" * 250 + "x" + ")" * 250, 6 + MAX_NESTING),
        ("(" * 300 + "x" + ")" * 300 + "^2 + y^2 - 1 = 0", MAX_NESTING),
        ("y^2 = " + "-" * 1000 + "x", 6 + MAX_NESTING),
        ("y^2 = " + "-(" * MAX_NESTING + "x" + ")" * MAX_NESTING, 6 + MAX_NESTING),
    ])
    def test_nesting_past_the_limit_is_2(self, capsys, expr, position):
        for as_json in ((), ("--json",)):
            code, out, err = run(capsys, "analyze", expr, *as_json)
            assert code == 2 and out == ""
            assert err == (f"parse error: nesting above the limit of {MAX_NESTING} "
                           f"(at position {position})\n")

    @pytest.mark.parametrize("expr, plain", [
        ("y^2 = " + "(" * MAX_NESTING + "x^3 - x" + ")" * MAX_NESTING, "y^2 = x^3 - x"),
        ("(" * MAX_NESTING + "x" + ")" * MAX_NESTING + "^2 + y^2 - 1 = 0",
         "x^2 + y^2 - 1 = 0"),
        ("y^2 = " + "-" * MAX_NESTING + "x^3 + x", "y^2 = x^3 + x"),
        ("y^2 = " + "-(" * (MAX_NESTING // 2) + "x^3 + x" + ")" * (MAX_NESTING // 2),
         "y^2 = x^3 + x"),
    ])
    def test_nesting_at_the_limit_parses(self, capsys, expr, plain):
        code, out, err = run(capsys, "analyze", expr, "--json")
        assert code == 0 and err == ""
        assert run(capsys, "analyze", plain, "--json") == (code, out, err)

    def test_hypothesis_violation_is_3(self, capsys):
        code, _, err = run(capsys, "analyze", "y^2 = (x-1)^2")
        assert code == 3 and "square-free" in err
        code, _, err = run(capsys, "analyze", "x*y = 0")
        assert code == 3

    def test_expression_and_coeffs_conflict(self, capsys):
        code, _, _ = run(capsys, "analyze", "x = 0", "--coeffs", "0,1")
        assert code == 2

    def test_bad_units(self, capsys):
        code, _, _ = run(capsys, "analyze", "x = 0", "--units", "1")
        assert code == 2

    @pytest.mark.parametrize("text", ["١", "٣", "1_0", "²", "3.0", "0x3", ""])
    def test_integers_take_ascii_digits_only(self, capsys, text):
        # int() reads any Unicode decimal digit, such as the Arabic-Indic
        # '١', and '_' between digits; the command line reads 0-9 only
        for argv, message in (
                (("ec", "--curve", "0,-1,1", "multiple", text, "(0,1)"), "bad multiplier"),
                (("analyze", "y^2 = x^3 - x", "--units", f"2,{text}"), "bad --units entry")):
            if not text:  # an empty --units entry is skipped
                continue
            for as_json in ((), ("--json",)):
                code, out, err = run(capsys, *argv, *as_json)
                assert code == 2 and out == ""
                assert f"parse error: {message}: {text!r} is not an integer" in err
        for option in ("--count", "--seed", "--k", "--amax", "--bmax", "--cmax",
                       "--bound"):
            command = (("ec", "--curve", "0,-1,1", "torsion", "(0,1)")
                       if option == "--bound" else ("sample", "--count", "1"))
            code, out, err = run(capsys, *command, f"{option}={text}")
            assert code == 2 and out == ""
            assert f"parse error: bad {option}: {text!r} is not an integer" in err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="the interpreter has no int-string digit limit")
    def test_overlong_integer_option_is_named_not_echoed(self, capsys):
        bound = "9" * 5000
        code, out, err = run(capsys, "ec", "--curve", "0,-1,1", "torsion", "(0,1)",
                             "--bound", bound)
        assert (code, out) == (2, "")
        assert err == "parse error: bad --bound: integer literal of 5000 digits is too long\n"

    def test_integers_keep_sign_and_spaces(self, capsys):
        # what int() read before and the ASCII reader reads alike
        code, out, _ = run(capsys, "ec", "--curve", "0,-1,1", "multiple", " +1 ", "(0,1)")
        assert (code, out) == (0, "(0, 1)\n")
        code, out, _ = run(capsys, "ec", "--curve", "0,-1,1", "multiple", "-1", "(0,1)")
        assert (code, out) == (0, "(0, -1)\n")
        assert (run_json(capsys, "analyze", "y^2 = x^3 - x", "--units", " 2, +3")["units"]
                == run_json(capsys, "analyze", "y^2 = x^3 - x", "--units", "2,3")["units"])
        assert (run_json(capsys, "sample", "--count", " 2", "--seed=+4", "--k", "04")
                == run_json(capsys, "sample", "--count", "2", "--seed", "4", "--k", "4"))

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="the interpreter has no int-string digit limit")
    def test_overlong_multiplier_is_2(self, capsys):
        n = "7" * (sys.get_int_max_str_digits() + 1)
        code, _, err = run(capsys, "ec", "--curve", "0,-1,1", "multiple", n, "(0,1)")
        assert code == 2 and f"integer literal of {len(n)} digits is too long" in err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="the interpreter has no int-string digit limit")
    def test_overlong_literal_is_2(self, capsys):
        huge = "7" * (sys.get_int_max_str_digits() + 1)
        for expr in (f"y^2 = {huge}*x^3 + 1", f"y^2 = x^3 + 1/{huge}",
                     f"y^2 = (x+1)^{huge}"):
            code, _, err = run(capsys, "analyze", expr)
            assert code == 2 and "too long" in err

    def test_unbounded_work_is_2(self, capsys):
        # 1/10^4300 as a decimal: a denominator of 4301 digits
        tiny = "0." + "0" * (MAX_COEFFICIENT_DIGITS - 1) + "1"
        for argv in (("analyze", "y^2 = (x+1)^2000"),
                     ("analyze", "y^2 = ((((9^18)^18)^18)^18)^18*x + 1"),
                     ("analyze", "--coeffs=" + ",".join(["1"] * 2001)),
                     # 400 distinct 300-digit denominators: a 121 KB list
                     ("analyze", "--coeffs=" + ",".join(f"1/{10 ** 299 + 2 * i + 1}"
                                                        for i in range(400))),
                     ("analyze", "--coeffs=1e20000000,0,1"),
                     ("ec", "--curve=1e2000000,0,1", "torsion", "(0,1)"),
                     ("ec", "--curve=0,-1,1", "torsion", "(1e200000,1)"),
                     ("ec", f"--curve={tiny},0,1", "torsion", "(0,1)"),
                     ("ec", "--curve=0,-1,1", "add", f"({tiny},1)", "(0,1)")):
            for as_json in ((), ("--json",)):
                started = time.perf_counter()
                code, _, err = run(capsys, *argv, *as_json)
                assert code == 2 and "parse error" in err
                assert time.perf_counter() - started < 1.0

    def test_largest_coefficients_analyze_quickly(self, capsys):
        # degree 8 with nine random coefficients of the most digits the
        # parser accepts, a 39 KB input: about 1.5 s on one Intel Xeon
        # core with the integer Sturm chain, 43 s with the Fraction chain
        rng = random.Random(8)
        low, high = 10 ** (MAX_COEFFICIENT_DIGITS - 1), 10 ** MAX_COEFFICIENT_DIGITS
        expr = "y^2 = " + " + ".join(f"{rng.randrange(low, high)}*x^{i}"
                                     for i in range(9))
        started = time.perf_counter()
        code, _, err = run(capsys, "analyze", expr)
        assert code == 0, err
        assert time.perf_counter() - started < 10.0

    def test_option_value_of_dashes_is_2(self, capsys):
        # a value that starts with "--" is missing, in either form
        for argv in (("analyze", "x = 0", "--units=--"), ("analyze", "--coeffs=--"),
                     ("sample", "--count=--"), ("sample", "--count=1", "--k=--"),
                     ("ec", "--curve=--", "double", "(0,0)"),
                     ("ec", "--curve=0,-1,1", "--bound=--", "torsion", "(0,1)")):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "needs a value" in err

    @pytest.mark.parametrize("argv, message", [
        (("sample", "--count", "1", "--amax", "0"), "box bounds must be positive"),
        (("sample", "--count", "1", "--bmax", "-1"), "box bounds must be positive"),
        (("ec", "--curve", "0,-1,1", "torsion", "(0,1)", "--bound", "0"),
         "--bound must be >= 1"),
        # 300(0,1) has coordinates with parts of 17,000 digits and more
        (("ec", "--curve", "0,-1,1", "multiple", "300", "(0,1)"),
         f"coefficient of more than {MAX_COEFFICIENT_DIGITS} digits"),
        # each op's arity, then the messages of the number reader
        (("ec", "--curve", "0,-1,1", "add", "(0,1)"), "add needs two points"),
        (("ec", "--curve", "0,-1,1", "double"), "double needs one point"),
        (("ec", "--curve", "0,-1,1", "multiple", "(0,1)"), "multiple needs n and a point"),
        (("ec", "--curve", "0,-1,1", "torsion", "inf", "inf"), "torsion needs one point"),
        (("ec", "--curve", "0,-1", "double", "(0,1)"), "--curve needs exactly c2,c1,c0"),
        (("ec", "--curve", "0,-1,1/0", "double", "(0,1)"), "bad curve coefficient: "),
        (("ec", "--curve", "0,-1,1", "double", "(0)"), "point must have two coordinates"),
        (("ec", "--curve", "0,-1,1", "double", "(0,x)"), "bad point coordinate: "),
        (("ec", "--curve", "0,-1,1", "double", "(0,1e0)"),
         "bad point coordinate: exponent notation in '1e0'"),
        # Fraction's string syntax takes any \d; the number reader, like
        # the expression grammar, takes only the digits 0-9
        (("analyze", "--coeffs", "١,0,0,1"),
         "bad coefficient list: non-ASCII character in '١'"),
        (("ec", "--curve", "0,-1,١", "double", "(0,1)"),
         "bad curve coefficient: non-ASCII character in '١'"),
        (("ec", "--curve", "0,-1,1", "double", "(٠,1)"),
         "bad point coordinate: non-ASCII character in '٠'"),
        # the number reader's whole messages: an empty entry and a zero
        # denominator are named, not shown in Fraction's words
        (("ec", "--curve", "1/0,1,1", "torsion", "(0,1)"),
         "parse error: bad curve coefficient: zero denominator in '1/0'\n"),
        (("analyze", "--coeffs", "1,,2"),
         "parse error: bad coefficient list: empty entry\n"),
        (("ec", "--curve", "0,-1,1", "double", "(0, )"),
         "parse error: bad point coordinate: empty entry\n"),
        (("analyze", "--coeffs", "1,x"),
         "parse error: bad coefficient list: not a rational: 'x'\n"),
        # past the int-string digit limit: named, not quoted
        (("analyze", "--coeffs", "1," + "9" * 4301),
         "parse error: bad coefficient list: entry of 4301 characters is too long\n"),
    ])
    def test_sample_and_ec_usage_errors_are_2(self, capsys, argv, message):
        for as_json in ((), ("--json",)):
            code, out, err = run(capsys, *argv, *as_json)
            assert code == 2 and message in err and out == ""

    def test_sample_box_past_the_digit_cap_is_2(self, capsys):
        # 4300-digit bounds ran about 47 s in the quartic normal form
        huge = "9" * 4300
        started = time.perf_counter()
        code, out, err = run(capsys, "sample", "--count", "1", "--amax", huge,
                             "--bmax", huge, "--cmax", huge)
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert err == ("parse error: box bounds must have at most "
                       f"{MAX_BOUND_DIGITS} digits\n")
        cap = "9" * MAX_BOUND_DIGITS
        code, _, err = run(capsys, "sample", "--count", "1", "--amax", cap,
                           "--bmax", cap, "--cmax", cap)
        assert code == 0, err

    def test_internal_inconsistency_is_4(self, capsys, monkeypatch):
        # a group law fault that makes 2p = -p on a k = 0 input: the walk
        # finds order 3, which the k = 0 relation list does not hold
        monkeypatch.setattr(realcurves.eta, "_add", lambda curve, p, q: -q)
        code, _, err = run(capsys, "analyze", EXHAUSTED_QUARTIC)
        assert code == 4 and "'2p = -p' is not on the k = 0 relation list" in err

    def test_search_leaving_the_curve_is_4(self, capsys, monkeypatch):
        # a group law fault is a failed self-check, not an off-curve input
        code, out, _ = run(capsys, "analyze", EXHAUSTED_QUARTIC, "--json")
        assert code == 0 and json.loads(out)["eta"]["certificate"]["kind"] == \
            "torsion-exhausted"
        monkeypatch.setattr(realcurves.eta, "_add",
                            lambda curve, p, q: Point(q.v, q.u + 1))
        code, _, err = run(capsys, "analyze", EXHAUSTED_QUARTIC)
        assert code == 4 and "exhausted search left the curve" in err

    @pytest.mark.parametrize("fault, expr, message", [
        ("lambda curve, p, q: Point(q.v, q.u + 1)", EXHAUSTED_QUARTIC,
         "exhausted search left the curve"),
        # 2p = -p, order 3, on a k = 0 input
        ("lambda curve, p, q: -q", EXHAUSTED_QUARTIC,
         "'2p = -p' is not on the k = 0 relation list"),
        # 2p keeps u = 0 but moves off the curve: the coincidence is caught
        # by the membership check before its v names a 2-torsion point
        ("lambda curve, p, q, add=realcurves.eta._add: "
         "Point(add(curve, p, q).v + 1, add(curve, p, q).u)",
         ORDER_FOUR_QUARTIC, "certified relation left the curve at 2p"),
    ], ids=("add", "order", "coincidence-off-curve"))
    def test_self_checks_hold_under_optimize(self, fault, expr, message):
        # group law faults, installed in a `python -O` process
        script = "\n".join((
            "import sys",
            "import realcurves.eta",
            "from realcurves import Point",
            "from realcurves.cli import main",
            "if __debug__:",
            "    sys.exit('assertions are enabled')",
            f"realcurves.eta._add = {fault}",
            f"sys.exit(main(['analyze', {expr!r}]))"))
        path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4 and message in proc.stderr, proc.stderr

    @pytest.mark.parametrize("argv", [
        ["analyze", "y^2 = x^4 - 5*x^2 + 4"],
        ["analyze", "--json", "y^2 = x^4 - 5*x^2 + 4"],
        ["sample", "--count", "20", "--json"],
        ["ec", "--curve", "0,-1,1", "add", "(0,1)", "(1,1)"],
    ], ids=("analyze", "analyze-json", "sample-json", "ec"))
    def test_closed_stdout_exits_zero(self, argv):
        # the read end is closed before the child writes, as `| head -1`
        # does once it has its line: the command did its work and the
        # reader chose to stop, so exit 0 with nothing on stderr
        read_end, write_end = os.pipe()
        os.close(read_end)
        path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH"))))
        try:
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from realcurves.cli import main; sys.exit(main())", *argv],
                stdout=write_end, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": path}, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr


class TestOptionTable:
    """The command line is read by one table: `--opt value` and
    `--opt=value`, options after positionals, `--`, and a usage error
    for everything else, with exit 2 and the reason on stderr."""

    @pytest.mark.parametrize("prefix", [(), ("analyze",), ("sample",), ("ec",)],
                             ids=("top", "analyze", "sample", "ec"))
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exits_0(self, capsys, prefix, flag):
        code, out, err = run(capsys, *prefix, flag)
        assert code == 0 and err == "" and out.startswith("usage: realcurves ")
        for command, table in _COMMANDS.items():
            shown = prefix in ((), (command,))
            assert (f"usage: realcurves {command} " in out) == shown
            assert not shown or all(name in out for name in table if name[0] == "-")

    def test_the_ec_ops_are_the_ops_the_handler_runs(self):
        # `_cli_ec.ARITY` names the ops; the usage text lists the same
        assert f"{{{','.join(ARITY)}}}" in _HELP["ec"][0]

    def test_the_table_reads_words_integers_and_flags_only(self):
        # a value rule lives with the code that uses the value, not here
        for command, table in _COMMANDS.items():
            for name, (reader, _) in table.items():
                assert reader in (str, int, None), (command, name)

    @pytest.mark.parametrize("argv, message", [
        ((), "missing subcommand (choose from analyze, sample, ec)"),
        (("frobnicate",), "invalid subcommand 'frobnicate' (choose from analyze, sample, ec)"),
        (("analyze", "x = 0", "--bogus"), "unknown option '--bogus'"),
        (("analyze", "--co", "0,1"), "unknown option '--co'"),
        (("sample", "--bound", "3", "--count", "1"), "unknown option '--bound'"),
        (("sample",), "the following arguments are required: --count"),
        (("ec", "double", "(0,1)"), "the following arguments are required: --curve"),
        (("ec", "--curve", "0,-1,1"), "the following arguments are required: op"),
        (("ec", "--curve", "0,-1,1", "halve", "(0,1)"),
         "unknown op 'halve' (choose from add, double, multiple, torsion)"),
        (("sample", "--count", "1", "--k", "3"), "k must be 0, 2, or 4"),
        (("sample", "--count", "1", "--pin", "x"), "unknown pin 'x'"),
        (("analyze", "x = 0", "--json=1"), "--json takes no value"),
        (("analyze", "x = 0", "--units"), "--units needs a value"),
        (("analyze", "--units", "--json", "x = 0"), "--units needs a value"),
        (("analyze", "x = 0", "y = 0"), "unrecognized arguments: y = 0"),
        (("sample", "--count", "1", "extra"), "unrecognized arguments: extra"),
    ])
    def test_usage_errors_are_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"parse error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("sample", "--count", "1", "--k", "3"), "k must be 0, 2, or 4"),
        (("sample", "--count", "1", "--pin", "x"), "unknown pin 'x'"),
        (("ec", "--curve", "0,-1,1", "halve", "(0,1)"),
         "unknown op 'halve' (choose from add, double, multiple, torsion)"),
    ], ids=("k", "pin", "op"))
    def test_each_value_is_checked_by_its_owner_in_a_cold_process(self, argv, message):
        # `SampleBox` rejects --k and --pin, and `_cli_ec` the op
        found = cold_call(list(argv))
        assert (found["exit"], found["stdout"], found["stderr"]) == (
            2, "", f"parse error: {message}\n")

    @pytest.mark.parametrize("spaced, joined", [
        (("analyze", "--units", "3,4", "y^2 = x^3 - x", "--json"),
         ("analyze", "--units=3,4", "y^2 = x^3 - x", "--json")),
        (("analyze", "--coeffs", "-1,0,0,0,1", "--json"),
         ("analyze", "--coeffs=-1,0,0,0,1", "--json")),
        (("sample", "--count", "3", "--seed", "7", "--k", "2", "--pin", "a=c"),
         ("sample", "--count=3", "--seed=7", "--k=2", "--pin=a=c")),
        (("ec", "--curve", "0,-1,1", "torsion", "(0,1)", "--bound", "5"),
         ("ec", "--curve=0,-1,1", "torsion", "(0,1)", "--bound=5")),
    ], ids=("analyze", "coeffs", "sample", "ec"))
    def test_both_value_forms_agree(self, capsys, spaced, joined):
        first = run(capsys, *spaced)
        assert first[0] == 0 and first == run(capsys, *joined)

    def test_a_repeated_option_keeps_its_last_value(self, capsys):
        assert (run(capsys, "sample", "--count", "9", "--seed", "1", "--count", "2",
                    "--seed=3", "--json")
                == run(capsys, "sample", "--count", "2", "--seed", "3", "--json"))
        assert (run(capsys, "analyze", "--units", "5", "x = 0", "--units=2,3")
                == run(capsys, "analyze", "x = 0", "--units", "2,3"))

    def test_double_dash_ends_the_options(self, capsys):
        assert (run(capsys, "analyze", "--json", "--", "--x^2 + y^2 - 1 = 0")
                == run(capsys, "analyze", "--json", "x^2 + y^2 - 1 = 0"))
        code, _, err = run(capsys, "analyze", "--", "x = 0", "--json")
        assert code == 2 and "unrecognized arguments: --json" in err

    def test_a_word_starting_with_one_minus_is_a_value(self, capsys):
        # the expression: argparse read it as an unknown option and exited 2
        payload = run_json(capsys, "analyze", "-x^2-y^2+1=0")
        assert payload["curve"]["display"] == "-x^2 - y^2 + 1 = 0"
        circle = run_json(capsys, "analyze", "x^2 + y^2 - 1 = 0")
        assert {**payload, "curve": circle["curve"]} == circle
        # an ec argument and an option's value
        payload = run_json(capsys, "ec", "--curve", "0,-1,1", "multiple", "-1", "(0,1)")
        assert payload["result"] == {"point": {"v": "0", "u": "-1"}}
        payload = run_json(capsys, "sample", "--count", "2", "--seed", "-5")
        assert payload == run_json(capsys, "sample", "--count=2", "--seed=-5")
        assert payload["seed"] == -5


_GRAMMAR = "xy0123456789+-*/^()= "
_terms = st.builds("{}{}{}".format,
                   st.sampled_from(("", "-", "2", "7*", "1/2*", "99")),
                   st.sampled_from(("x", "y", "(x+1)", "(x-y)", "(2x-7)")),
                   st.sampled_from(("", "^2", "^3", "^18")))
_polys = st.lists(st.tuples(st.sampled_from((" + ", " - ", "*", "")), _terms),
                  min_size=1, max_size=5).map(
    lambda parts: "".join(op + term for op, term in parts).lstrip(" +*"))
_grammar_texts = st.one_of(
    st.text(_GRAMMAR, max_size=40),
    # sums of products in the two curve forms, so that many inputs parse
    _polys.map(lambda poly: (poly + " = 0")[-40:]),
    _polys.map(lambda poly: ("y^2 = " + poly)[:40]))
_coeff_entries = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(0, 99)),
    st.text("0123456789-/.e ", max_size=8))
_analyze_inputs = st.one_of(
    _grammar_texts.map(lambda text: ["analyze", text]),
    st.lists(_coeff_entries, min_size=1, max_size=20).map(
        lambda entries: ["analyze", "--coeffs=" + ",".join(entries)]),
    st.tuples(st.sampled_from(("x^2 + y^2 - 1 = 0", "y^2 = x^4 + x + 1")),
              st.text("0123456789,- ", max_size=12)).map(
        lambda pair: ["analyze", pair[0], "--units=" + pair[1]]))


_small_values = st.one_of(st.integers(-3, 6).map(str),
                         st.sampled_from(("b=0", "a=c", "x", "", "1/2")))
_sample_inputs = st.tuples(
    st.integers(-1, 3),
    st.lists(st.tuples(st.sampled_from(("--seed", "--k", "--amax", "--bmax",
                                        "--cmax", "--pin")), _small_values),
             max_size=4)).map(
    lambda pair: ["sample", f"--count={pair[0]}",
                  *(f"{option}={value}" for option, value in pair[1])])
_ec_numbers = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9)),
    st.text("0123456789-/e._ ", max_size=4))
_ec_args = st.one_of(
    st.sampled_from(("inf", "(0,1)", "(1,1)", "(3,5)", "(-4,0)")),
    st.builds("({},{})".format, _ec_numbers, _ec_numbers),
    st.integers(-400, 400).map(str),
    st.text("(),0123456789-/inf", max_size=8))
_ec_inputs = st.builds(
    lambda curve, op, args, bound: ["ec", "--curve=" + ",".join(curve), op, *args,
                                    f"--bound={bound}"],
    st.one_of(st.sampled_from((["0", "-1", "1"], ["3", "-4", "0"])),
              st.lists(_ec_numbers, min_size=2, max_size=4)),
    # the ops, and words that `_cli_ec` rejects as ops
    st.sampled_from((*ARITY, "halve", "ADD", "")),
    st.lists(_ec_args, max_size=3),
    st.integers(-2, 30))


class TestExitCodeFuzz:
    """Every analyze, sample and ec input exits 0, 2, 3 or 4.  Inputs stay
    within 40 characters of the grammar, 20 coefficients, 12 characters
    of --units, 3 samples or multiples up to 400, and a sample box that
    admits no draw exits 2, so none can ask for unbounded work."""

    @staticmethod
    def assert_exit_code(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # usage errors too, with no SystemExit
        assert code in (0, 2, 3, 4), (argv, err.getvalue())

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(argv=_analyze_inputs, as_json=st.booleans())
    def test_exit_codes(self, argv, as_json):
        self.assert_exit_code(argv + ["--json"] * as_json)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(argv=_sample_inputs, as_json=st.booleans())
    @example(argv=["sample", "--count=1", "--amax=1", "--cmax=1"], as_json=False)
    @example(argv=["sample", "--count=1", "--bmax=0"], as_json=False)
    @example(argv=["sample", "--count=1", "--k=4", "--amax=1", "--bmax=1", "--cmax=1"],
             as_json=True)
    def test_sample_exit_codes(self, argv, as_json):
        self.assert_exit_code(argv + ["--json"] * as_json)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(argv=_ec_inputs, as_json=st.booleans())
    def test_ec_exit_codes(self, argv, as_json):
        self.assert_exit_code(argv + ["--json"] * as_json)


def _strings(alphabet, max_length):
    """Every string over `alphabet` of length at most `max_length`."""
    for length in range(max_length + 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield "".join(letters)


# each census: its argvs, with the one varying word built from a short string
_CENSUSES = {
    "analyze": lambda: (["analyze", text, "--json"]
                        for text in _strings("xy12+-*^()=/ 0", 4)),
    "coeffs": lambda: (["analyze", "--coeffs=" + text, "--json"]
                       for text in _strings("01-/, ", 5)),
    "ec-point": lambda: (["ec", "--curve=0,-1,1", "double", text, "--json"]
                         for text in _strings("(),01/-", 5)),
    "ec-curve": lambda: (["ec", "--curve=" + text, "torsion", "(0,1)", "--json"]
                         for text in _strings("01-/,", 5)),
}


class TestExitCodeCensus:
    """Every short string in the place of one command-line word exits 0,
    2 or 3 and raises nothing: analyze expressions of up to 4 characters
    (41,371 strings), --coeffs values and ec points and curves of up to
    5, each over the characters its reader takes.  Beside the random
    inputs of TestExitCodeFuzz, this pins the exit codes on a whole small
    box, where most defects of a reader show."""

    @pytest.mark.parametrize("census", list(_CENSUSES))
    def test_every_short_string_exits_0_2_or_3(self, census):
        codes = set()
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in _CENSUSES[census]():
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 2, 3), (argv, err.getvalue())
                codes.add(code)
        # each box reaches a report, a rejected value and a violated hypothesis
        assert codes == {0, 2, 3}


def _box_admits_a_draw(k, amax, bmax, cmax, pin) -> bool:
    """Whether some (k, a, b, c) of the box, with the pin applied and the
    generic box's b = 0 and a = c excluded, makes a QuarticParams."""
    for root_count in (0, 2, 4) if k is None else (k,):
        for a in range(1, amax + 1):
            for b in (0,) if pin == "b=0" else range(-bmax, bmax + 1):
                for c in (a,) if pin == "a=c" else range(1, cmax + 1):
                    if pin is None and (b == 0 or a == c):
                        continue
                    try:
                        QuarticParams(root_count, a, b, c)
                    except ValueError:
                        continue
                    return True
    return False


class TestSampleBoxWithNoDraw:
    """A box in which `draw_params` finds no admissible (a, b, c) is a
    ValueError, and so exits 2, where the draw would loop forever."""

    def test_agrees_with_enumeration(self):
        for k in (None, 0, 2, 4):
            for pin in (None, "b=0", "a=c"):
                for amax in range(1, 5):
                    for bmax in range(5):
                        for cmax in range(1, 5):
                            box = (k, amax, bmax, cmax, pin)
                            if _box_admits_a_draw(*box):
                                draw_params(random.Random(1), SampleBox(*box))
                            else:
                                with pytest.raises(ValueError, match="admits no draw"):
                                    SampleBox(*box)

    @pytest.mark.parametrize("options", [
        ["--amax", "1", "--cmax", "1"],             # the generic box needs a != c
        ["--bmax", "0"],                            # and b != 0
        ["--k", "4", "--amax", "1", "--bmax", "1", "--cmax", "1"],
    ])
    def test_exits_2_in_a_subprocess(self, options):
        # a subprocess with a timeout: a hang fails the test, not the run
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-m", "realcurves.cli", "sample",
                               "--count", "1", *options], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "box admits no draw" in proc.stderr


# sha256 of the first 200 draws "k a b c\n" of `draw_params` from
# random.Random(7) on each admissible default box, as rng.randint(1, amax),
# randint(-bmax, bmax) and randint(1, cmax) drew them: the sampler's
# output is a function of its stream, so a change of the stream shows here
DRAW_STREAMS = {
    (None, None): "d77ae9191f1910affa4f9a2eaa8e0d37e2f60ef6ecc3a8a0097791b8bf2f8ee5",
    (None, "b=0"): "ad9814c9cd9550906fccef9d1002bd794fc85cd60eadb31daf78d107fe399254",
    (None, "a=c"): "59b97633ceb20d9e68b1a3be1ba48d007c1029a1f31a3951e23fe2a07fcb5ee1",
    (0, None): "7e5db1cd2e53ac068ad81669aed3fed2d194a841b10aa43f369f61079789520d",
    (0, "b=0"): "9090993d1481e8c135ddfeb6a7ca31bd630299b38aa73ef6bfbd2e4130056d09",
    (0, "a=c"): "bf4b6ee4c42f98a3634513fb6e12a09ae540159ca8e82f696f286873df250e03",
    (2, None): "a1beedfabeb7a796ed3c956688ecaef27e3c1001d9dbcabd04284e80897299b6",
    (2, "b=0"): "a2e0b51e67528e14452d6ea2dc8626525d776e2e07bc4212fe64712686cec0f2",
    (2, "a=c"): "d2d26801adb24741de6f35e2b090d9de64affc54a04b4768f8652927601033eb",
    (4, None): "05121afa1cd120f791f359635ff9998dc86d94d0d5ec5c9ad263cf02d717e6dc",
    (4, "b=0"): "7bbfbe33c5e5b4d4e02a7bc28488bb53099bc3c803da1981c8ba8c1777571988",
    (4, "a=c"): "2b7c9562e12d3a80a8ff36a2c8db330f898dc2d11e08fe63892ea113d776a800",
}


@pytest.mark.parametrize("k, pin", list(DRAW_STREAMS),
                         ids=[f"k={k}-pin={pin}" for k, pin in DRAW_STREAMS])
def test_draw_params_keeps_its_stream(k, pin):
    rng = random.Random(7)
    box = SampleBox(k=k, pin=pin)
    draws = [draw_params(rng, box) for _ in range(200)]
    text = "".join(f"{p.k} {p.a} {p.b} {p.c}\n" for p in draws)
    assert hashlib.sha256(text.encode()).hexdigest() == DRAW_STREAMS[k, pin]
    assert all(p._integral == (1, p.a, p.b, p.c) for p in draws)


class TestSample:
    def test_single_record(self, capsys):
        payload = run_json(capsys, "sample", "--count", "1", "--seed", "9")
        freq = payload["frequencies"]
        assert freq["known0"] + freq["known1"] + freq["undetermined"] == 1

    def test_pinned_b_zero_is_all_known1(self, capsys):
        payload = run_json(capsys, "sample", "--count", "40", "--seed", "3",
                           "--pin", "b=0")
        assert payload["frequencies"]["known1"] == 40
        # b = 0 makes p itself 2-torsion; the canonical reparameterization
        # may label the coincidence p = p1 or p = p3
        for cert in payload["known1_certificates"]:
            assert cert["order"] == 2
            assert cert["relation"] in ("p = p1", "p = p3")

    def test_pinned_a_eq_c_on_k4(self, capsys):
        payload = run_json(capsys, "sample", "--count", "30", "--seed", "3",
                           "--pin", "a=c", "--k", "4")
        assert payload["frequencies"]["known1"] == 30

    def test_determinism(self, capsys):
        args = ("sample", "--count", "25", "--seed", "11", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "sample", "--count", "5", "--seed", "2")
        assert code == 0
        assert "samples:" in out

    @pytest.mark.parametrize("count, seed", [(True, 1), (1, True), (2, False),
                                             (1.0, 1), (1, "1")])
    def test_count_and_seed_must_be_ints(self, count, seed):
        # True == 1, but it would be written as true and seed the stream
        # "True:0" in place of "1:0"
        with pytest.raises(TypeError, match="count and seed must be ints"):
            run_sample(count, seed, SampleBox())


class TestEc:
    TWO_TORSION_CURVE = "3,-4,0"   # u^2 = v(v-1)(v+4)
    RANK_CURVE = "0,-1,1"          # u^2 = v^3 - v + 1, rational points galore

    def test_add_inverse_pair(self, capsys):
        payload = run_json(capsys, "ec", "--curve", self.RANK_CURVE,
                           "add", "(3, 5)", "(3, -5)")
        assert payload == {"command": "ec",
                           "curve": {"c2": "0", "c1": "-1", "c0": "1"},
                           "op": "add", "result": {"point": "infinity"}}

    def test_add_distinct_points(self, capsys):
        payload = run_json(capsys, "ec", "--curve", self.RANK_CURVE,
                           "add", "(0,1)", "(1,1)")
        assert payload["result"]["point"] == {"v": "-1", "u": "-1"}

    def test_multiple_of_two_torsion(self, capsys):
        payload = run_json(capsys, "ec", "--curve", self.TWO_TORSION_CURVE,
                           "multiple", "2", "(-4,0)")
        assert payload["result"] == {"point": "infinity"}

    @pytest.mark.parametrize("n", ["1000", str(10 ** 23), str(10 ** 30)])
    def test_multiple_stops_past_the_digit_limit(self, capsys, n):
        # double-and-add stops once an intermediate multiple shows that
        # n(0,1) cannot be printed; n = 1000 took 8.6 s to exit 2 on one
        # 2-CPU Intel Xeon VM, and n = 10^23 did not end in 20 s
        for as_json in ((), ("--json",)):
            started = time.perf_counter()
            code, out, err = run(capsys, "ec", "--curve", self.RANK_CURVE,
                                 "multiple", n, "(0,1)", *as_json)
            assert time.perf_counter() - started < 10.0
            assert code == 2 and out == ""
            assert f"coefficient of more than {MAX_COEFFICIENT_DIGITS} digits" in err

    def test_multiple_of_torsion_point_with_huge_n(self, capsys):
        n = str(10 ** 30 + 1)
        # (0,1) on u^2 = v^3 + 1 has order 3, and n = 2 mod 3
        payload = run_json(capsys, "ec", "--curve", "0,0,1", "multiple", n, "(0,1)")
        assert payload["result"] == {"point": {"v": "0", "u": "-1"}}
        code, out, _ = run(capsys, "ec", "--curve", self.TWO_TORSION_CURVE,
                           "multiple", n, "(-4,0)")
        assert (code, out) == (0, "(-4, 0)\n")

    def test_largest_printable_multiple_is_unchanged(self, capsys):
        # 121(0,1) is the last multiple of (0,1) whose parts have at most
        # 4300 digits; the sha256 of both outputs before the loop was bounded
        expected = {(): "e2990a28c76127e0360cc590dee925af4482242f01d296ac872115d7542f4340",
                    ("--json",): "63f58ecfbbe52baae4f0edad9b864319e07d95dce0d90a70c873254cbae0b70e"}
        for as_json, digest in expected.items():
            code, out, err = run(capsys, "ec", "--curve", self.RANK_CURVE,
                                 "multiple", "121", "(0,1)", *as_json)
            assert code == 0, err
            assert hashlib.sha256(out.encode()).hexdigest() == digest
        code, _, err = run(capsys, "ec", "--curve", self.RANK_CURVE, "multiple", "122", "(0,1)")
        assert code == 2 and f"more than {MAX_COEFFICIENT_DIGITS} digits" in err

    def test_double(self, capsys):
        code, out, _ = run(capsys, "ec", "--curve", self.RANK_CURVE,
                           "double", "(0,1)")
        assert code == 0
        assert out.strip() == "(1/4, -7/8)"

    def test_torsion_search_stops_at_mazurs_bound(self, capsys):
        for bound in ("12", "1000", str(10 ** 30)):
            started = time.perf_counter()
            code, out, _ = run(capsys, "ec", "--curve", self.RANK_CURVE,
                               "torsion", "(0,1)", "--bound", bound)
            assert code == 0 and out == f"NotTorsionWithin({bound})\n"
            assert time.perf_counter() - started < 1.0
        payload = run_json(capsys, "ec", "--curve", self.TWO_TORSION_CURVE,
                           "torsion", "(0,0)", "--bound", "1000")
        assert payload["result"] == {"order": 2}

    def test_torsion_search_stops_at_first_non_integral_multiple(self, capsys):
        # c2 = 10^4299, the most digits the parser accepts: 2p = (-c2, -1)
        # is integral but 3p is not, so Nagell-Lutz rules torsion out at
        # 3p; the 12-step search took about 24 s on one 2-CPU Intel Xeon VM
        curve = "--curve=1" + "0" * (MAX_COEFFICIENT_DIGITS - 1) + ",0,1"
        for as_json in ((), ("--json",)):
            started = time.perf_counter()
            code, out, err = run(capsys, "ec", curve, "torsion", "(0,1)", *as_json)
            assert time.perf_counter() - started < 1.0
            assert code == 0, err
            if as_json:
                assert json.loads(out)["result"] == {"not_torsion_within": 12}
            else:
                assert out == "NotTorsionWithin(12)\n"

    def test_torsion_verdicts(self, capsys):
        payload = run_json(capsys, "ec", "--curve", self.TWO_TORSION_CURVE,
                           "torsion", "(0,0)")
        assert payload["result"] == {"order": 2}
        payload = run_json(capsys, "ec", "--curve", self.RANK_CURVE,
                           "torsion", "(0,1)")
        assert payload["result"] == {"not_torsion_within": 12}

    def test_off_curve_reports_residual(self, capsys):
        code, _, err = run(capsys, "ec", "--curve", self.RANK_CURVE,
                           "double", "(5,5)")
        assert code == 3
        assert "residual" in err and "-96" in err  # 25 - (125 - 5 + 1)

    def test_singular_curve_rejected(self, capsys):
        code, _, err = run(capsys, "ec", "--curve", "0,0,0", "double", "(0,0)")
        assert code == 3

    def test_infinity_literal(self, capsys):
        payload = run_json(capsys, "ec", "--curve", self.TWO_TORSION_CURVE,
                           "add", "inf", "(1,0)")
        assert payload["result"]["point"] == {"v": "1", "u": "0"}
