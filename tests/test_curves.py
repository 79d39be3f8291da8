import random
from fractions import Fraction

import pytest

from realcurves import (ConicSpec, CurveInvariants, HypothesisError, UniPoly,
                        classify_conic, hyperelliptic_invariants, parse_curve)
from realcurves.curves import (ELLIPSE, GEOM_DISCONNECTED, HYPERBOLA,
                               IMAGINARY_ELLIPSE, LINE, PARABOLA,
                               HyperellipticSpec)

from oracles import (fraction_classify_conic, fraction_format_terms,
                     random_squarefree_poly)


def conic(expr: str) -> ConicSpec:
    spec = parse_curve(expr + " = 0")
    assert isinstance(spec, ConicSpec)
    return spec


def inv_tuple(inv: CurveInvariants):
    return (inv.genus, inv.real_at_infinity, inv.complex_at_infinity,
            inv.components, inv.compact_components)


CONIC_TABLE = {
    "x^2 + y^2 - 1": (ELLIPSE, (0, 0, 1, 1, 1), None),
    "x^2 + y": (PARABOLA, (0, 1, 0, 1, 0), None),
    "x^2 - y^2 - 1": (HYPERBOLA, (0, 2, 0, 2, 0), None),
    "x^2 + y^2 + 1": (IMAGINARY_ELLIPSE, (0, 0, 1, 0, 0), 2),
    "x": (LINE, (0, 1, 0, 1, 0), None),
    "x^2 + 1": (GEOM_DISCONNECTED, (0, 0, 1, 0, 0), 1),
}


class TestConicClassification:
    def test_six_cases(self):
        for expr, (kind, tup, level) in CONIC_TABLE.items():
            klass = classify_conic(conic(expr))
            assert klass.kind == kind, expr
            assert inv_tuple(klass.invariants) == tup, expr
            assert klass.invariants.function_field_level == level, expr
            assert klass.invariants.geometrically_connected == (kind != GEOM_DISCONNECTED)

    def test_hyperbola_example(self):
        klass = classify_conic(conic("x^2 - y^2 - 1"))
        inv = klass.invariants
        assert (inv.real_at_infinity, inv.complex_at_infinity) == (2, 0)
        assert (inv.components, inv.compact_components) == (2, 0)

    def test_singular_rejected(self):
        for expr in ("x*y", "x^2", "x^2 - 1", "x^2 + y^2", "x^2 - y^2"):
            with pytest.raises(HypothesisError):
                classify_conic(conic(expr))

    def test_rotated_and_translated_variants(self):
        # same classes after invertible affine substitutions
        assert classify_conic(conic("2x^2 + 2y^2 + 2x*y - 5")).kind == ELLIPSE
        assert classify_conic(conic("x*y - 1")).kind == HYPERBOLA
        assert classify_conic(conic("x^2 + 2x*y + y^2 + x - y")).kind == PARABOLA

    def test_affine_change_invariance(self):
        # (x, y) -> (a1 x + b1 y + c1, a2 x + b2 y + c2), invertible
        transforms = [
            (1, 0, 3, 0, 1, -2),
            (2, 1, 0, 1, 1, 0),
            (1, -1, 5, 2, 1, 7),
            (0, 1, 1, -1, 0, 4),
        ]
        for expr, (kind, _, _) in CONIC_TABLE.items():
            spec = conic(expr)
            for a1, b1, c1, a2, b2, c2 in transforms:
                assert a1 * b2 - a2 * b1 != 0
                transformed = _substitute(spec, (a1, b1, c1), (a2, b2, c2))
                assert classify_conic(transformed).kind == kind, (expr, a1, b1)


def _substitute(spec: ConicSpec, xmap, ymap) -> ConicSpec:
    """P(a1 x + b1 y + c1, a2 x + b2 y + c2) expanded exactly."""
    a1, b1, c1 = (Fraction(v) for v in xmap)
    a2, b2, c2 = (Fraction(v) for v in ymap)

    def sq(t):
        a, b, c = t
        return {(2, 0): a * a, (1, 1): 2 * a * b, (0, 2): b * b,
                (1, 0): 2 * a * c, (0, 1): 2 * b * c, (0, 0): c * c}

    def lin(t, w):
        a, b, c = t
        return {(1, 0): a * w, (0, 1): b * w, (0, 0): c * w}

    def cross(s, t, w):
        a, b, c = s
        d, e, f = t
        return {(2, 0): a * d * w, (1, 1): (a * e + b * d) * w,
                (0, 2): b * e * w, (1, 0): (a * f + c * d) * w,
                (0, 1): (b * f + c * e) * w, (0, 0): c * f * w}

    acc: dict = {}

    def add(other):
        for m, v in other.items():
            acc[m] = acc.get(m, Fraction(0)) + v

    X, Y = (a1, b1, c1), (a2, b2, c2)
    add({m: v * spec.xx for m, v in sq(X).items()})
    add({m: v * spec.yy for m, v in sq(Y).items()})
    add(cross(X, Y, spec.xy))
    add(lin(X, spec.x1))
    add(lin(Y, spec.y1))
    add({(0, 0): spec.c0})
    g = lambda m: acc.get(m, Fraction(0))
    return ConicSpec(xx=g((2, 0)), xy=g((1, 1)), yy=g((0, 2)),
                     x1=g((1, 0)), y1=g((0, 1)), c0=g((0, 0)))


def _random_rational(rng: random.Random, digits: int = 2) -> Fraction:
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-10 ** digits, 10 ** digits),
                    rng.randint(1, 10 ** rng.randint(0, digits)))


def _linear_form(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    return tuple(_random_rational(rng) for _ in range(3))


def _product(s, t) -> list[Fraction]:
    """The six coefficients of (a x + b y + c)(d x + e y + f)."""
    (a, b, c), (d, e, f) = s, t
    return [a * d, a * e + b * d, b * e, a * f + c * d, b * f + c * e, c * f]


def random_conic(rng: random.Random) -> ConicSpec:
    """Generic conics, images of the six table conics, and the degenerate
    ones: two real lines, a double line, and conjugate lines meeting at a
    real point, affine or at infinity."""
    r = rng.random()
    if r < 0.3:
        digits = 30 if rng.random() < 0.2 else 2
        coeffs = [_random_rational(rng, digits) for _ in range(6)]
    elif r < 0.45:
        coeffs = _product(_linear_form(rng), _linear_form(rng))
    elif r < 0.55:
        line = _linear_form(rng)
        coeffs = _product(line, line)
    elif r < 0.7:
        # l1^2 + l2^2: complex conjugate lines l1 +- i l2
        l1, l2 = _linear_form(rng), _linear_form(rng)
        if rng.random() < 0.5:  # parallel: they meet at infinity
            w = _random_rational(rng)
            l2 = (l1[0] * w, l1[1] * w, _random_rational(rng))
        coeffs = [u + v for u, v in zip(_product(l1, l1), _product(l2, l2))]
    else:
        spec = conic(rng.choice(list(CONIC_TABLE)))
        transform = [_random_rational(rng, 1) for _ in range(6)]
        spec = _substitute(spec, transform[:3], transform[3:])
        coeffs = [spec.xx, spec.xy, spec.yy, spec.x1, spec.y1, spec.c0]
    scale = Fraction(rng.choice((1, -1)) * rng.randint(1, 50), rng.randint(1, 50))
    return ConicSpec(*(c * scale for c in coeffs))


def classify_outcome(classify, spec: ConicSpec):
    try:
        return classify(spec)
    except HypothesisError as err:
        return str(err)


class TestConicAgainstFractionOracle:
    """classify_conic on the integer matrices against the Fraction
    matrices: the same class and invariants, or the same error."""

    def test_random_conics(self):
        rng = random.Random(7919)
        outcomes = {}
        checked = 0
        while checked < 2500:
            try:
                spec = random_conic(rng)
            except HypothesisError:  # no term of degree >= 1
                continue
            got = classify_outcome(classify_conic, spec)
            assert got == classify_outcome(fraction_classify_conic, spec), spec
            key = got if isinstance(got, str) else got.kind
            outcomes[key] = outcomes.get(key, 0) + 1
            checked += 1
        # every class and every rejection occurs
        assert len(outcomes) == 9 and min(outcomes.values()) >= 20, outcomes


_CONIC_MONOMIALS = ("x^2", "x*y", "y^2", "x", "y", "")


def fraction_display(spec: ConicSpec) -> str:
    values = (spec.xx, spec.xy, spec.yy, spec.x1, spec.y1, spec.c0)
    return fraction_format_terms(zip(values, _CONIC_MONOMIALS)) + " = 0"


class TestDisplayAgainstFractionOracle:
    """ConicSpec.display on the integer form against the Fraction
    formatter on the six coefficients, byte for byte, for conics built
    from rationals and for parsed ones."""

    def test_random_conics(self):
        rng = random.Random(7927)
        all_six = 0
        for _ in range(1500):
            try:
                spec = random_conic(rng)
            except HypothesisError:
                continue
            text = spec.display()
            assert text == fraction_display(spec), spec
            parsed = parse_curve(text)
            assert parsed == spec and parsed.display() == text, text
            all_six += all((spec.xx, spec.xy, spec.yy, spec.x1, spec.y1, spec.c0))
        assert all_six > 300

    def test_unit_and_long_coefficients(self):
        big = Fraction(-(10 ** 4299 + 7), 3 * 10 ** 4298 + 1)
        for coeffs in ((1, -1, Fraction(-1), 1, -1, 1),
                       (Fraction(-3, 2), 2, Fraction(1, 3), 0, Fraction(-5, 7), -1),
                       (big, 1, -big, Fraction(-1), big, 0)):
            spec = ConicSpec(*coeffs)
            assert spec.display() == fraction_display(spec)


class TestHyperellipticInvariants:
    def test_even_negative_no_real_roots(self):
        inv = hyperelliptic_invariants(parse_curve("y^2 = -(x^6+1)"))
        assert inv_tuple(inv) == (2, 0, 1, 0, 0)
        assert (inv.degree, inv.real_roots) == (6, 0)
        assert inv.function_field_level == 2

    def test_odd_three_roots(self):
        inv = hyperelliptic_invariants(parse_curve("y^2 = x^3 - x"))
        assert inv_tuple(inv) == (1, 1, 0, 2, 1)
        assert (inv.degree, inv.real_roots) == (3, 3)
        assert inv.function_field_level is None

    def test_even_positive_four_roots(self):
        inv = hyperelliptic_invariants(parse_curve("y^2 = (x^2-1)*(x^2-9)"))
        assert inv_tuple(inv) == (1, 2, 0, 3, 1)
        assert (inv.degree, inv.real_roots) == (4, 4)

    def test_even_positive_no_roots(self):
        inv = hyperelliptic_invariants(parse_curve("y^2 = x^4 + 1"))
        assert inv_tuple(inv) == (1, 2, 0, 2, 0)

    def test_degree_two_is_conic_like(self):
        assert inv_tuple(hyperelliptic_invariants(parse_curve("y^2 = x^2 + 1"))) \
            == (0, 2, 0, 2, 0)
        assert inv_tuple(hyperelliptic_invariants(parse_curve("y^2 = -(x-1)(x-2)"))) \
            == (0, 0, 1, 1, 1)

    def test_randomized_parity_and_component_sum(self):
        rng = random.Random(17)
        for _ in range(150):
            q = random_squarefree_poly(rng, max_degree=8, coeff_bound=12)
            inv = hyperelliptic_invariants(HyperellipticSpec(q))
            k, d = inv.real_roots, inv.degree
            if d % 2 == 1:
                assert k % 2 == 1
            else:
                assert k % 2 == 0
            if inv.components > 0:
                assert inv.components == inv.compact_components + inv.real_at_infinity
            assert (inv.function_field_level == 2) == (inv.components == 0)

    def test_rejections(self):
        with pytest.raises(HypothesisError):
            HyperellipticSpec(UniPoly([1]))
        with pytest.raises(HypothesisError):
            HyperellipticSpec(UniPoly([1, -2, 1]))

    def test_stored_root_count_is_not_part_of_identity(self):
        spec = HyperellipticSpec(UniPoly([9, 0, -10, 0, 1]))
        assert spec.real_roots == 4
        assert spec == HyperellipticSpec(UniPoly([9, 0, -10, 0, 1]))
        assert hash(spec) == hash(HyperellipticSpec(UniPoly([9, 0, -10, 0, 1])))
        assert repr(spec) == "HyperellipticSpec(q=UniPoly([Fraction(9, 1), " \
            "Fraction(0, 1), Fraction(-10, 1), Fraction(0, 1), Fraction(1, 1)]))"


class TestInvariantValidation:
    def test_component_sum_enforced(self):
        with pytest.raises(ValueError):
            CurveInvariants(genus=0, real_at_infinity=2, complex_at_infinity=0,
                            components=1, compact_components=1)

    def test_complete_is_not_an_argument(self):
        # every curve here is affine; "complete" is only a JSON key
        with pytest.raises(TypeError):
            CurveInvariants(genus=1, real_at_infinity=1, complex_at_infinity=0,
                            components=1, compact_components=0, complete=True)

    def test_disconnected_forces_empty_real_locus(self):
        with pytest.raises(ValueError):
            CurveInvariants(genus=0, real_at_infinity=1, complex_at_infinity=1,
                            components=1, compact_components=0,
                            geometrically_connected=False)

    def test_open_curve_needs_boundary(self):
        with pytest.raises(ValueError):
            CurveInvariants(genus=1, real_at_infinity=0, complex_at_infinity=0,
                            components=0, compact_components=0)
