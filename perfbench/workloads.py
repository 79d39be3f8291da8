"""The three benchmark workloads: seeded inputs, the timed operation, and
output checks that compare against what the generator built.

Each workload exposes the same small surface to `run.py`:

* `pool_size` -- how many distinct inputs one pass covers; operation i
  runs input `i % pool_size` (sample never repeats: its pool is the
  digest window and inputs beyond it are fresh seeds);
* `item(i)` / `run(item)` -- the input and the timed public call;
* `check(item, output)` -- a failure reason or None;
* `canonical(item, output)` -- the text fed to the output digest (outputs
  that are exceptions are digested by run.py);
* `cli_argv(j)` -> (argv, context) / `check_cli(context, proc)` -- the
  j-th cold CLI call and its check.

Only `realcurves.*` public names and the `realcurves.cli` entry point
are used; nothing under `src/` is modified.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import realcurves as rc
from realcurves import sampling

# Sizes of one run's inputs.  Kept fixed so that the digest printed for a
# seed covers the same outputs on every commit.
SAMPLE_DRAWS_PER_OP = 1
SAMPLE_DIGEST_OPS = 500
JACOBIAN_POOL = 12000
WARM_UP_OPS = 20

# Case-list lengths of the bounded torsion search, by k (the 6/10/4 cases).
CASES_BY_K = {0: 6, 2: 10, 4: 4}
ORDER_BOUND = 12
SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "schema.json"


def _call(fn, arg):
    """Run one operation; an exception is its outcome, judged by check()."""
    try:
        return fn(arg)
    except Exception as err:  # noqa: BLE001 - every outcome is checked
        return err


# ---------------------------------------------------------------------------
# sample: run_sample on the generic box
# ---------------------------------------------------------------------------

class SampleWorkload:
    name = "sample"

    def __init__(self, seed: int):
        self.seed = seed
        self.box = rc.SampleBox()
        self.pool_size = SAMPLE_DIGEST_OPS

    def op_seed(self, i: int) -> int:
        return self.seed * 10**9 + i

    def item(self, i: int) -> int:
        return self.op_seed(i)

    def warm_up_items(self):
        return [self.op_seed(10**8 + j) for j in range(WARM_UP_OPS)]

    def run(self, op_seed: int):
        return _call(lambda s: rc.run_sample(SAMPLE_DRAWS_PER_OP, s, self.box), op_seed)

    def check(self, op_seed: int, out) -> str | None:
        if isinstance(out, Exception):
            return f"raised {out!r}"
        freq = out.to_json()["frequencies"]
        if out.count != SAMPLE_DRAWS_PER_OP or sum(freq.values()) != out.count:
            return f"tallies {freq} do not add up to count {SAMPLE_DRAWS_PER_OP}"
        box = self.box
        for cert in out.known1_certificates:
            a, b, c = (Fraction(cert[key]) for key in "abc")
            if not (0 <= cert["index"] < out.count and 1 <= a <= box.amax
                    and 1 <= c <= box.cmax and abs(b) <= box.bmax):
                return f"certificate {cert} lies outside the box"
            if b == 0 or a == c:
                return f"certificate {cert} lies on a locus the generic box excludes"
        return None

    def canonical(self, op_seed: int, out) -> str:
        return json.dumps([op_seed, out.to_json()], sort_keys=True)

    def cli_argv(self, j: int) -> tuple[list[str], int]:
        op_seed = self.op_seed(2 * 10**8 + j)
        return (["sample", "--count", str(SAMPLE_DRAWS_PER_OP), "--seed",
                 str(op_seed), "--json"], op_seed)

    def check_cli(self, op_seed: int, proc) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        got = json.loads(proc.stdout)
        summary = rc.run_sample(SAMPLE_DRAWS_PER_OP, op_seed, self.box)
        want = {"command": "sample", **summary.to_json()}
        return None if got == want else "CLI sample output differs from run_sample"


# ---------------------------------------------------------------------------
# jacobian: eta_from_params on a seeded mix of the generic and pinned boxes
# ---------------------------------------------------------------------------

# Shares of the parameter pool.  The generic box runs the search to
# exhaustion through growing multiples of p; b = 0 (and a = c with k in
# {0, 4}) put p on a 2-torsion point, so the first relation matches and the
# re-verification through multiple/torsion_order_bounded runs.
# k cycles through 0, 2, 4 inside each box, so the shares are exact: a
# third of the ops are fast coincidences, two fifths run the short 6- and
# 4-case exhaustions, and the rest the 10-case one, which keeps the median
# away from the gaps between those groups.
JACOBIAN_MIX = ((None, 0.6), (sampling.PIN_B_ZERO, 0.2), (sampling.PIN_A_EQ_C, 0.2))


class JacobianWorkload:
    name = "jacobian"

    def __init__(self, seed: int):
        rng = random.Random(f"jacobian:{seed}")
        pool = []
        for pin, share in JACOBIAN_MIX:
            boxes = [rc.SampleBox(k=k, pin=pin) for k in (0, 2, 4)]
            pool += [(pin, sampling.draw_params(rng, boxes[n % 3]))
                     for n in range(round(share * JACOBIAN_POOL))]
        rng.shuffle(pool)
        self.pool = pool
        self.pool_size = len(pool)

    def item(self, i: int):
        return self.pool[i % self.pool_size]

    def warm_up_items(self):
        return self.pool[:WARM_UP_OPS]

    def run(self, item):
        return _call(rc.eta_from_params, item[1])

    @staticmethod
    def expected_order(item) -> int | None:
        """2 when the generator put p on a 2-torsion point, else unknown."""
        pin, params = item
        if pin == sampling.PIN_B_ZERO or (pin == sampling.PIN_A_EQ_C and params.k != 2):
            return 2
        return None

    def check(self, item, out) -> str | None:
        pin, params = item
        if isinstance(out, Exception):
            return f"raised {out!r}"
        cert = out.certificate
        if out.value == 1:
            if cert.kind != "torsion-coincidence" or not 1 <= (cert.order or 0) <= ORDER_BOUND:
                return f"eta = 1 with certificate {cert.to_json()}"
        elif out.value == 0:
            if (cert.kind != "torsion-exhausted"
                    or len(cert.cases_checked) != CASES_BY_K[params.k]):
                return f"eta = 0 with certificate {cert.to_json()}"
        else:
            return f"eta undetermined for normal-form parameters: {cert.to_json()}"
        order = self.expected_order(item)
        if order is not None and (out.value, cert.order) != (1, order):
            return f"expected eta = 1 of order {order} on the {pin} locus"
        return None

    def canonical(self, item, out) -> str:
        return json.dumps([item[1].to_json(), out.to_json()], sort_keys=True)

    def cli_argv(self, j: int):
        item = self.pool[j % self.pool_size]
        model = rc.build_quartic_model(item[1])
        curve = model.curve
        argv = ["ec", f"--curve={curve.c2},{curve.c1},{curve.c0}", "torsion",
                f"({model.p.v},{model.p.u})", "--json"]
        return argv, item

    def check_cli(self, item, proc) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        got = json.loads(proc.stdout)["result"]
        eta = rc.eta_from_params(item[1])
        want = ({"order": eta.certificate.order} if eta.value == 1
                else {"not_torsion_within": ORDER_BOUND})
        order = self.expected_order(item)
        if order is not None and got != {"order": order}:
            return f"CLI torsion gave {got}, the generator built order {order}"
        return None if got == want else f"CLI torsion gave {got}, eta gave {want}"


# ---------------------------------------------------------------------------
# analyze: parse_curve -> full_report -> json.dumps over a text corpus
# ---------------------------------------------------------------------------

# Invariant tuples (g, r, c, s, t, geometrically connected) of the six
# conic types.
CONIC_TABLE = {
    "ellipse": (0, 0, 1, 1, 1, True),
    "imaginary_ellipse": (0, 0, 1, 0, 0, True),
    "hyperbola": (0, 2, 0, 2, 0, True),
    "parabola": (0, 1, 0, 1, 0, True),
    "line": (0, 1, 0, 1, 0, True),
    "geometrically_disconnected": (0, 0, 1, 0, 0, False),
}
NON_SQUARES = (2, 3, 5, 6, 7, 10, 11, 13)


def hyperelliptic_tuple(d: int, k: int, leading_positive: bool):
    """(g, r, c, s, t, True) of y^2 = Q from deg Q, the sign of its leading
    coefficient and its number of real roots."""
    half, pairs = d // 2, k // 2
    if d % 2:
        return (half, 1, 0, pairs + 1, pairs, True)
    if not leading_positive:
        return (half - 1, 0, 1, pairs, pairs, True)
    if k:
        return (half - 1, 2, 0, pairs + 1, pairs - 1, True)
    return (half - 1, 2, 0, 2, 0, True)


def expect_conic(cls: str) -> dict:
    return {"kind": "conic", "conic_class": cls, "tuple": CONIC_TABLE[cls]}


def expect_q(kind: str, d: int, k: int, leading_positive: bool = True, **extra) -> dict:
    return {"kind": kind, "d": d, "k": k,
            "tuple": hyperelliptic_tuple(d, k, leading_positive), **extra}


# The corpus has one share per input of the repository's own analyze test
# corpus: the 14 golden inputs of tests/test_cli.py (TestAnalyze,
# test_schema_over_golden_corpus) and the three `analyze` inputs of its
# TestExitCodes.  Each share holds that input as it is, with an expectation
# written out by hand, and seeded variants of the same shape from the
# generator named beside it.
ANALYZE_TEMPLATES = (
    ("x^2 + y^2 - 1 = 0", expect_conic("ellipse"), "conic", "ellipse"),
    ("x^2 + y = 0", expect_conic("parabola"), "conic", "parabola"),
    ("x^2 - y^2 - 1 = 0", expect_conic("hyperbola"), "conic", "hyperbola"),
    ("x^2 + y^2 + 1 = 0", expect_conic("imaginary_ellipse"), "conic", "imaginary_ellipse"),
    ("x = 0", expect_conic("line"), "conic", "line"),
    ("x^2 + 1 = 0", expect_conic("geometrically_disconnected"), "conic",
     "geometrically_disconnected"),
    # x^3 - x = (x + 1) x (x - 1)
    ("y^2 = x^3 - x", expect_q("hyperelliptic", 3, 3), "split_odd", None),
    ("y^2 = -(x^6+1)", expect_q("hyperelliptic", 6, 0, False), "negative_even", None),
    ("y^2 = x^6 - 2", expect_q("hyperelliptic", 6, 2), "binomial", None),
    # (x + 1)(x^4 - x^3 - 3x^2 + 3x - 1): roots -1 and one each in
    # (-2, -1.5) and (1, 2); the quartic factor is negative on [-1.5, 1]
    ("y^2 = x^5 - 4*x^3 + 2*x - 1", expect_q("hyperelliptic", 5, 3), "mixed_odd", None),
    # normal form k = 0, a = 1, b = 0, c = 2
    ("y^2 = (x^2+1)*(x^2+4)", expect_q("quartic", 4, 0, b_zero=True), "quartic", None),
    ("y^2 = -(x^2+1)*(x^2+4)", expect_q("twin", 4, 0, False, b_zero=True), "twin", None),
    # irreducible, discriminant 256 - 27 > 0
    ("y^2 = x^4 + x + 1", expect_q("quartic_no_nf", 4, 0), "quartic_no_nf", None),
    ("y^2 = 2*x^4 + 2", expect_q("hyperelliptic", 4, 0), "non_monic", None),
    ("x^2 + @ = 0", {"kind": "reject", "error": "ParseError"}, "parse_error", None),
    ("y^2 = (x-1)^2", {"kind": "reject", "error": "HypothesisError"},
     "not_square_free", None),
    ("x*y = 0", {"kind": "reject", "error": "HypothesisError"}, "degenerate_conic", None),
)
ANALYZE_PER_TEMPLATE = 60   # the input as it is and 59 variants


def _pmul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _term(coef, mono: str, first: bool) -> str:
    mag = abs(coef)
    body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
    if first:
        return body if coef > 0 else f"-{body}"
    return f"+ {body}" if coef > 0 else f"- {body}"


def _format(terms) -> str:
    """terms: (coefficient, monomial text) pairs in display order."""
    parts = [(c, m) for c, m in terms if c != 0]
    return " ".join(_term(c, m, i == 0) for i, (c, m) in enumerate(parts)) or "0"


def _format_x(coeffs: list) -> str:
    """Ascending coefficients -> expression in x, highest power first."""
    monos = ["", "x"] + [f"x^{e}" for e in range(2, len(coeffs))]
    return _format(list(zip(reversed(coeffs), reversed(monos))))


def _linear_xy(a: int, b: int, e: int) -> str:
    return _format([(a, "x"), (b, "y"), (e, "")])


class AnalyzeWorkload:
    name = "analyze"

    def __init__(self, seed: int):
        rng = random.Random(f"analyze:{seed}")
        corpus = []
        for text, expect, maker, arg in ANALYZE_TEMPLATES:
            make = getattr(self, f"_make_{maker}")
            corpus.append((text, expect))
            corpus += [make(rng, n if arg is None else arg)
                       for n in range(ANALYZE_PER_TEMPLATE - 1)]
        rng.shuffle(corpus)
        self.pool = corpus
        self.pool_size = len(corpus)
        self.dumps = json.dumps  # the traced run wraps this as report.json_dumps
        self.schema_checked: set[str] = set()  # inputs whose report was validated
        self.validator = None

    # -- generators: each returns (text, expectation dict) ------------------

    @staticmethod
    def _make_conic(rng: random.Random, kind: str):
        def linear():
            while True:
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                if (a, b) != (0, 0):
                    return a, b, rng.randint(-5, 5)

        def independent_pair():
            while True:
                l1, l2 = linear(), linear()
                if l1[0] * l2[1] - l1[1] * l2[0] != 0:
                    return l1, l2

        r = rng.randint(1, 20)
        if kind in ("ellipse", "imaginary_ellipse", "hyperbola"):
            l1, l2 = independent_pair()
            const = r if kind == "imaginary_ellipse" else -r
            if kind == "hyperbola" and rng.random() < 0.5:
                const = r
            body = (f"({_linear_xy(*l1)})^2 {'-' if kind == 'hyperbola' else '+'} "
                    f"({_linear_xy(*l2)})^2 {'+' if const > 0 else '-'} {abs(const)}")
        elif kind == "parabola":
            l1, l2 = independent_pair()
            body = f"({_linear_xy(*l1)})^2 + {_linear_xy(*l2)}"
        elif kind == "line":
            body = _linear_xy(*linear())
        else:
            body = f"({_linear_xy(*linear())})^2 + {r}"
        scale = rng.choice((1, 1, -1, 2, -3))
        text = f"{body} = 0" if scale == 1 else f"{scale}*({body}) = 0"
        return text, expect_conic(kind)

    @staticmethod
    def _factored_q(rng: random.Random, d: int, leading: int, quads: int):
        """Q of degree d from `quads` distinct positive quadratics and
        d - 2*quads distinct linear factors.  Returns (factor texts,
        ascending coefficients, real-root count)."""
        lins = d - 2 * quads
        roots = rng.sample([Fraction(p, q) for q in (1, 2) for p in range(-5, 6)
                            if q == 1 or p % 2], lins)
        shapes = rng.sample([(u, v) for u in range(-3, 4) for v in range(1, 7)], quads)
        factors, coeffs = [], [leading]
        for root in roots:
            lin = [-root.numerator, root.denominator]
            factors.append(f"({_format_x(lin)})")
            coeffs = _pmul(coeffs, lin)
        for u, v in shapes:
            quad = [u * u + v, -2 * u, 1]
            factors.append(f"({_format_x(quad)})")
            coeffs = _pmul(coeffs, quad)
        return factors, coeffs, lins

    def _q_text(self, rng, d: int, leading: int, quads: int, factored: bool):
        factors, coeffs, k = self._factored_q(rng, d, leading, quads)
        if factored:
            rhs = "*".join(([] if leading == 1 else [str(leading)]) + factors)
        else:
            rhs = _format_x(coeffs)
        return f"y^2 = {rhs}", expect_q("hyperelliptic", d, k, leading > 0)

    def _make_split_odd(self, rng: random.Random, n: int):
        """Odd degree 3-9 with rational roots only, like x^3 - x."""
        return self._q_text(rng, 3 + 2 * (n % 4), rng.choice((1, 1, 2, 3)), 0,
                            rng.random() < 0.5)

    def _make_negative_even(self, rng: random.Random, n: int):
        """Even degree 6-10, negative leading, no real root, like -(x^6+1)."""
        d = 6 + 2 * (n % 3)
        return self._q_text(rng, d, rng.choice((-1, -1, -2, -3)), d // 2,
                            rng.random() < 0.5)

    @staticmethod
    def _make_binomial(rng: random.Random, n: int):
        """l*x^d - m with d even, 6-10: two real roots, like x^6 - 2."""
        d = 6 + 2 * (n % 3)
        lead, m = rng.choice((1, 1, 2, 3)), rng.randint(1, 20)
        return f"y^2 = {_format_x([-m] + [0] * (d - 1) + [lead])}", \
            expect_q("hyperelliptic", d, 2)

    def _make_mixed_odd(self, rng: random.Random, n: int):
        """Odd degree 3-9 from linear and quadratic factors, written
        expanded, like x^5 - 4*x^3 + 2*x - 1."""
        d = 3 + 2 * (n % 4)
        return self._q_text(rng, d, rng.choice((1, 1, 2, -1)), rng.randint(0, d // 2),
                            False)

    def _make_non_monic(self, rng: random.Random, n: int):
        """Quartics with a leading coefficient that is not a square, like
        2*x^4 + 2.  Their eta is not checked: the generator does not know it."""
        return self._q_text(rng, 4, rng.choice((2, 3, 5, 6, 7)), rng.randint(0, 2),
                            rng.random() < 0.5)

    @staticmethod
    def _nf_params(rng: random.Random, n: int):
        """Normal-form parameters (k, a, b, c) of a square-free quartic;
        every fourth one lies on the b = 0 locus."""
        while True:
            k = rng.choice((0, 2, 4))
            a, c = rng.randint(1, 12), rng.randint(1, 12)
            b = 0 if n % 4 == 0 else rng.randint(-12, 12)
            if k == 0 and b == 0 and a == c:
                continue
            if k == 4 and 2 * abs(b) in (abs(c - a), c + a):
                continue
            return k, a, b, c

    @staticmethod
    def _quartic_text(rng, e: int, sn: int, n: int, f: int, sm: int, m: int):
        """Text of ((x-e)^2 + sn*n)((x-f)^2 + sm*m), factored or expanded."""
        left = [e * e + sn * n, -2 * e, 1]
        right = [f * f + sm * m, -2 * f, 1]
        if rng.random() < 0.5:
            return (f"({_format([(1, '(' + _format_x([-e, 1]) + ')^2'), (sn * n, '')])})"
                    f"*({_format([(1, '(' + _format_x([-f, 1]) + ')^2'), (sm * m, '')])})")
        return _format_x(_pmul(left, right))

    def _make_quartic(self, rng: random.Random, n: int, twin: bool = False):
        k, a, b, c = self._nf_params(rng, n)
        h = rng.randint(-3, 3)  # hide the normal form behind x -> x + h
        sa, sc = {0: (1, 1), 2: (1, -1), 4: (-1, -1)}[k]
        body = self._quartic_text(rng, -b - h, sa, a * a, b - h, sc, c * c)
        if twin:
            return f"y^2 = -({body})", expect_q("twin", 4, k, False, b_zero=b == 0)
        return f"y^2 = {body}", expect_q("quartic", 4, k, b_zero=b == 0)

    def _make_twin(self, rng: random.Random, n: int):
        return self._make_quartic(rng, n, twin=True)

    def _make_quartic_no_nf(self, rng: random.Random, n: int):
        """Monic quartics without a rational normal form, alternately
        irreducible ones like x^4 + x + 1 and ones whose rational quadratic
        factors have no rational a."""
        if n % 2:
            return self._make_irreducible_quartic(rng)
        k = (0, 2, 4)[n // 2 % 3]
        while True:
            e, f = rng.randint(-4, 4), rng.randint(-4, 4)
            nn, mm = rng.choice(NON_SQUARES), rng.randint(1, 9)
            if (e, nn) != (f, mm):
                break
        sn = {0: 1, 2: rng.choice((1, -1)), 4: -1}[k]
        sm = -sn if k == 2 else sn
        return (f"y^2 = {self._quartic_text(rng, e, sn, nn, f, sm, mm)}",
                expect_q("quartic_no_nf", 4, k))

    @staticmethod
    def _make_irreducible_quartic(rng: random.Random):
        """(x - h)^4 + alpha*(x - h) + beta, irreducible by Eisenstein at p.
        x^4 + alpha*x + beta is convex, so it has 2 real roots when its
        discriminant 256*beta^3 - 27*alpha^4 is negative and none otherwise."""
        p = rng.choice((2, 3, 5, 7))
        alpha = p * rng.choice([s for s in range(-4, 5) if s])
        beta = p * rng.choice([t for t in range(-4, 5) if t % p])
        h = rng.randint(-2, 2)
        power = [1]
        for _ in range(4):
            power = _pmul(power, [-h, 1])
        coeffs = [x + y for x, y in zip(power, [beta - alpha * h, alpha, 0, 0, 0])]
        k = 2 if 256 * beta ** 3 - 27 * alpha ** 4 < 0 else 0
        return f"y^2 = {_format_x(coeffs)}", expect_q("quartic_no_nf", 4, k)

    @staticmethod
    def _make_parse_error(rng: random.Random, n: int):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        cases = [
            f"x^2 + @ = {a}",
            f"y^2 = x^3 + {a}*x +* {b}",
            f"y^2 = (x + {a}",
            f"y^2 = x^3 + {a}/0",
            f"x^2 + y^2 = {a} = 0",
            f"y^2 = x^3 + {a}*z",
            f"x*y^2 + {a} = 0",
            f"y^3 = x + {a}",
            f"y^2 = {a}",
            f"y^2 = x*y + {a}",
        ]
        return cases[n % len(cases)], {"kind": "reject", "error": "ParseError"}

    @staticmethod
    def _make_not_square_free(rng: random.Random, n: int):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        cases = [
            f"y^2 = (x - {a})^2",
            f"y^2 = (x - {a})^2*(x + {b})",
            f"y^2 = (x^2 + {a})^2",
            f"y^2 = (x + {a})^3*(x^2 + {b})",
        ]
        return cases[n % len(cases)], {"kind": "reject", "error": "HypothesisError"}

    @staticmethod
    def _make_degenerate_conic(rng: random.Random, n: int):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        c = a + rng.randint(1, 5)
        cases = [
            f"x*y + {a}*x = 0",
            f"(x - {a})*(x - {c}) = 0",
            f"(x - {a}*y)*(x + {b}*y - {c}) = 0",
            f"({a}*x + {b}*y - {c})^2 = 0",
            f"(x - {a})^2 + (y - {b})^2 = 0",
        ]
        return cases[n % len(cases)], {"kind": "reject", "error": "HypothesisError"}

    # -- operation and checks ------------------------------------------------

    def item(self, i: int):
        return self.pool[i % self.pool_size]

    def warm_up_items(self):
        return self.pool[:WARM_UP_OPS]

    def _analyze(self, text: str) -> str:
        report = {"command": "analyze", **rc.full_report(rc.parse_curve(text))}
        return self.dumps(report, indent=2)

    def run(self, item):
        return _call(self._analyze, item[0])

    def check(self, item, out) -> str | None:
        text, want = item
        if want["kind"] == "reject":
            if isinstance(out, Exception) and type(out).__name__ == want["error"]:
                return None
            return f"expected {want['error']}, got {out!r}"[:300]
        if isinstance(out, Exception):
            return f"raised {out!r}"[:300]
        report = json.loads(out)
        if text not in self.schema_checked:
            self.schema_checked.add(text)
            error = next(self._validator().iter_errors(report), None)
            if error is not None:
                return f"report does not match docs/schema.json: {error.message[:200]}"
        inv = report["invariants"]
        got = (inv["g"], inv["r"], inv["c"], inv["s"], inv["t"],
               inv["geometrically_connected"])
        if got != want["tuple"]:
            return f"invariants {got} != generator's {want['tuple']}"
        if want["kind"] == "conic":
            cls = report["curve"].get("conic_class")
            return None if cls == want["conic_class"] else \
                f"conic class {cls} != generator's {want['conic_class']}"
        if (inv["d"], inv["k"]) != (want["d"], want["k"]):
            return f"(d, k) = {(inv['d'], inv['k'])} != generator's {(want['d'], want['k'])}"
        eta, eta_c = report["eta"], report["eta_complex"]
        if want["kind"] == "quartic" and want["b_zero"] and eta["eta"] != 1:
            return f"b = 0 quartic gave eta = {eta['eta']}"
        if want["kind"] == "twin":
            if eta["eta"] != 0:
                return f"negative-leading quartic gave eta = {eta['eta']}"
            if want["b_zero"] and (eta_c or {}).get("eta") != 1:
                return f"b = 0 twin gave eta over C = {eta_c}"
        if want["kind"] == "quartic_no_nf" and (
                eta["eta"] is not None
                or eta["certificate"]["kind"] != "non-rational-factorization"):
            return f"quartic without a rational normal form gave {eta}"
        return None

    def _validator(self):
        """The docs/schema.json validator, built on first use so that the
        jsonschema import stays out of set-up time."""
        if self.validator is None:
            import jsonschema

            schema = json.loads(SCHEMA.read_text())
            self.validator = jsonschema.Draft202012Validator(schema)
        return self.validator

    def canonical(self, item, out) -> str:
        return out

    def cli_argv(self, j: int):
        item = self.pool[j % self.pool_size]
        return ["analyze", "--json", "--", item[0]], item

    def check_cli(self, item, proc) -> str | None:
        text, want = item
        if want["kind"] == "reject":
            code = {"ParseError": 2, "HypothesisError": 3}[want["error"]]
            return None if proc.returncode == code else \
                f"exit {proc.returncode}, expected {code}"
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        out = self.run(item)
        if isinstance(out, Exception) or proc.stdout != out + "\n":
            return "CLI analyze --json differs from the in-process report"
        return None


WORKLOADS = {w.name: w for w in (SampleWorkload, JacobianWorkload, AnalyzeWorkload)}
