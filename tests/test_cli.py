import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realcurves.eta
from realcurves import ECPoint
from realcurves.cli import main
from realcurves.parser import MAX_COEFFICIENT_DIGITS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "schema.json").read_text())

# A sampler quartic (k = 0, a = 5, b = 2, c = 9) whose torsion search
# runs to exhaustion: eta = 0.
EXHAUSTED_QUARTIC = "y^2 = ((x+2)^2 + 25)*((x-2)^2 + 81)"


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
        corpus = [
            "x^2 + y^2 - 1 = 0", "x^2 + y = 0", "x^2 - y^2 - 1 = 0",
            "x^2 + y^2 + 1 = 0", "x = 0", "x^2 + 1 = 0",
            "y^2 = x^3 - x", "y^2 = -(x^6+1)", "y^2 = (x^2+1)*(x^2+4)",
            "y^2 = -(x^2+1)*(x^2+4)", "y^2 = x^6 - 2", "y^2 = x^4 + x + 1",
            "y^2 = 2*x^4 + 2", "y^2 = x^5 - 4*x^3 + 2*x - 1",
        ]
        for expr in corpus:
            run_json(capsys, "analyze", expr)

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
        # argparse parses "--opt=--" into an empty list
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
    ])
    def test_sample_and_ec_usage_errors_are_2(self, capsys, argv, message):
        for as_json in ((), ("--json",)):
            code, out, err = run(capsys, *argv, *as_json)
            assert code == 2 and message in err and out == ""

    def test_internal_inconsistency_is_4(self, capsys, monkeypatch):
        # a group law fault on an eta = 1 input: the relation p = p3 still
        # matches, but no multiple of p up to 12p reaches O
        monkeypatch.setattr(realcurves.eta, "_add",
                            lambda curve, p, q: q if p.is_infinity else p)
        code, _, err = run(capsys, "analyze", "y^2 = (x^2-1)*(x^2-9)")
        assert code == 4 and "failed its self-check" in err

    def test_search_leaving_the_curve_is_4(self, capsys, monkeypatch):
        # a group law fault is a failed self-check, not an off-curve input
        code, out, _ = run(capsys, "analyze", EXHAUSTED_QUARTIC, "--json")
        assert code == 0 and json.loads(out)["eta"]["certificate"]["kind"] == \
            "torsion-exhausted"
        monkeypatch.setattr(realcurves.eta, "_add",
                            lambda curve, p, q: ECPoint(q.v, q.u + 1))
        code, _, err = run(capsys, "analyze", EXHAUSTED_QUARTIC)
        assert code == 4 and "exhausted search left the curve" in err

    @pytest.mark.parametrize("fault, expr, message", [
        ("lambda curve, p, q: ECPoint(q.v, q.u + 1)", EXHAUSTED_QUARTIC,
         "exhausted search left the curve"),
        ("lambda curve, p, q: q if p.is_infinity else p",
         "y^2 = (x^2-1)*(x^2-9)", "failed its self-check"),
        # p = p3 still matches, then the multiples leave the curve
        ("lambda curve, p, q: q if p.is_infinity else ECPoint(p.v + 1, p.u)",
         "y^2 = (x^2-1)*(x^2-9)", "certified relation left the curve at 12p"),
    ], ids=("add", "order", "coincidence-off-curve"))
    def test_self_checks_hold_under_optimize(self, fault, expr, message):
        # group law faults, installed in a `python -O` process
        script = "\n".join((
            "import sys",
            "import realcurves.eta",
            "from realcurves import ECPoint",
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
    st.sampled_from(("add", "double", "multiple", "torsion")),
    st.lists(_ec_args, max_size=3),
    st.integers(-2, 30))


class TestExitCodeFuzz:
    """Every analyze, sample and ec input exits 0, 2, 3 or 4.  Inputs stay
    within 40 characters of the grammar, 20 coefficients, 12 characters
    of --units, 3 samples or multiples up to 400, so none can ask for
    unbounded work."""

    @staticmethod
    def assert_exit_code(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit:  # how argparse reports usage errors
                code = exit.code
        assert code in (0, 2, 3, 4), (argv, err.getvalue())

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(argv=_analyze_inputs, as_json=st.booleans())
    def test_exit_codes(self, argv, as_json):
        self.assert_exit_code(argv + ["--json"] * as_json)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(argv=_sample_inputs, as_json=st.booleans())
    def test_sample_exit_codes(self, argv, as_json):
        self.assert_exit_code(argv + ["--json"] * as_json)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(argv=_ec_inputs, as_json=st.booleans())
    def test_ec_exit_codes(self, argv, as_json):
        self.assert_exit_code(argv + ["--json"] * as_json)


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
