"""The package's record classes: construction by position and keyword
with the documented defaults, field-wise equality and hashing,
immutability, the `Name(field=value, ...)` repr, copying, and the
validation each constructor runs."""

import copy
import pickle
from fractions import Fraction

import pytest

from realcurves import (Certificate, CohomologyDims, ConicClass, ConicSpec,
                        CurveInvariants, EtaAnalysis, EtaResult, GroupDescriptor,
                        HyperellipticSpec, HypothesisError, LevelReport, Point,
                        QuarticParams, SampleBox, SampleSummary, SearchStats,
                        SingularCurveError, UniPoly, WeierstrassCurve, ec_add, run_sample)
from realcurves._record import Record
from realcurves.eta import QuarticModel

F = Fraction
INV = CurveInvariants(1, 2, 0, 2, 0)
CURVE = WeierstrassCurve(F(0), F(-1), F(0))
POINT = Point(F(1), F(0))

# class: (field names, arguments for every field, a second set of
# arguments that differs in one field, the defaults of trailing fields)
RECORDS = {
    ConicSpec: (("xx", "xy", "yy", "x1", "y1", "c0"),
                (F(1), F(0), F(1), F(0), F(0), F(-1)),
                (F(1), F(0), F(1), F(0), F(0), F(-2)), {}),
    HyperellipticSpec: (("q",), (UniPoly([-1, 0, 1]),),
                        (UniPoly([-2, 0, 1]),), {}),
    UniPoly: (("numerators", "denominator"), ((-1, 0, 1), 2), ((-1, 0, 1), 3),
              {"denominator": 1}),
    CurveInvariants: (("genus", "real_at_infinity", "complex_at_infinity",
                       "components", "compact_components",
                       "geometrically_connected", "degree", "real_roots"),
                      (1, 2, 0, 2, 0, True, 4, 2),
                      (1, 2, 0, 2, 0, True, 4, 0),
                      {"geometrically_connected": True,
                       "degree": None, "real_roots": None}),
    ConicClass: (("kind", "invariants"), ("ellipse", INV), ("parabola", INV), {}),
    Point: (("v", "u"), (1, F(1, 2)), (-1, F(1, 2)), {}),
    WeierstrassCurve: (("c2", "c1", "c0"), (F(0), F(-1), F(0)),
                       (F(0), F(-4), F(0)), {}),
    Certificate: (("kind", "relation", "order", "cases_checked"),
                  ("torsion-coincidence", "2p = p1", 4, ("p = p1", "2p = p1")),
                  ("torsion-coincidence", "2p = p1", 8, ("p = p1", "2p = p1")),
                  {"relation": None, "order": None, "cases_checked": None}),
    EtaResult: (("value", "certificate"), (1, Certificate("rule-conic-table")),
                (0, Certificate("rule-conic-table")), {}),
    QuarticParams: (("k", "a", "b", "c"), (2, F(1), F(3), F(2)),
                    (2, F(1), F(3), F(5)), {}),
    SearchStats: (("relations_checked", "max_multiple", "case_list"),
                  (3, 4, ("p = p1",)), (3, 5, ("p = p1",)),
                  {"relations_checked": 0, "max_multiple": 0, "case_list": ()}),
    QuarticModel: (("curve", "p", "two_torsion"),
                   (CURVE, POINT, {"p1": POINT}),
                   (CURVE, POINT, {"p3": POINT}), {}),
    EtaAnalysis: (("eta", "eta_complex"),
                  (EtaResult(1, Certificate("rule-conic-table")),
                   EtaResult(1, Certificate("rule-conic-table"))),
                  (EtaResult(0, Certificate("rule-conic-table")),
                   EtaResult(1, Certificate("rule-conic-table"))), {}),
    LevelReport: (("value", "reason"), ("3", "eta is 0"), ("2 or 3", "eta is 0"), {}),
    GroupDescriptor: (("free_rank", "qz", "z4", "zn", "z2"), (1, 2, 3, (5, 1), 1),
                      (1, 2, 3, (5, 2), 1),
                      {"free_rank": 0, "qz": 0, "z4": 0, "zn": None, "z2": 0}),
    CohomologyDims: (("h1", "h2"), (2, 3), (2, 4), {}),
    SampleBox: (("k", "amax", "bmax", "cmax", "pin"), (2, 5, 6, 7, "b=0"),
                (2, 5, 6, 7, "a=c"),
                {"k": None, "amax": 50, "bmax": 50, "cmax": 50, "pin": None}),
    SampleSummary: (("count", "seed", "box", "known0", "known1", "undetermined",
                     "known1_certificates"),
                    (10, 1, SampleBox(), 7, 2, 1, [{"index": 3}]),
                    (10, 2, SampleBox(), 7, 2, 1, [{"index": 3}]), {}),
}
MUTABLE = (SearchStats,)
# a polynomial is built from its fields by a classmethod; UniPoly(...)
# takes rational coefficients
CONSTRUCTORS = {UniPoly: UniPoly.from_integers}


def construct(record_class):
    return CONSTRUCTORS.get(record_class, record_class)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_covered():
    # importing realcurves has imported every module of the package
    assert set(_subclasses(Record)) == set(RECORDS)
    assert len(RECORDS) == 18


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record_class(request):
    return request.param


def test_positional_and_keyword_construction(record_class):
    names, args, _, defaults = RECORDS[record_class]
    by_position = construct(record_class)(*args)
    by_keyword = construct(record_class)(**dict(zip(names, args)))
    for name, value in zip(names, args):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    required = len(names) - len(defaults)
    with_defaults = construct(record_class)(*args[:required])
    for name, value in defaults.items():
        assert getattr(with_defaults, name) == value


# the values of the private slots, which take no part in equality, for
# the first arguments of RECORDS
PRIVATE = {
    ConicSpec: {"_integral": (1, (1, 0, 1, 0, 0, -1))},
    HyperellipticSpec: {"real_roots": 2},
    QuarticParams: {"_integral": (1, 1, 3, 2)},
    WeierstrassCurve: {"_integral": (1, 0, -1, 0)},
}


def test_positional_construction_sets_every_slot(record_class):
    names, args, _, _ = RECORDS[record_class]
    record = construct(record_class)(*args)
    expected = {**dict(zip(names, args)), **PRIVATE.get(record_class, {})}
    assert {name: getattr(record, name) for name in record_class.__slots__} == expected
    # copies write every slot too, private ones included
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert {name: getattr(twin, name) for name in record_class.__slots__} == expected


def test_equality_and_hash_are_field_wise(record_class):
    _, args, other_args, _ = RECORDS[record_class]
    record, twin, other = (construct(record_class)(*args), construct(record_class)(*args),
                           construct(record_class)(*other_args))
    assert record == twin and not record != twin
    assert record != other
    assert record != args
    if record_class in MUTABLE or record_class in (QuarticModel, SampleSummary):
        # mutable, or holding a dict or a list
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin, other}) == 2


def test_frozen_records_reject_assignment(record_class):
    names, args, _, _ = RECORDS[record_class]
    record = construct(record_class)(*args)
    if record_class in MUTABLE:
        setattr(record, names[0], args[0])
        assert record == record_class(*args)
        return
    with pytest.raises(AttributeError):
        setattr(record, names[0], args[0])
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == construct(record_class)(*args)


def test_repr_has_the_dataclass_format(record_class):
    names, args, _, _ = RECORDS[record_class]
    if record_class is UniPoly:
        expected = "UniPoly([Fraction(-1, 2), Fraction(0, 1), Fraction(1, 2)])"
    else:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, args))
        expected = f"{record_class.__name__}({fields})"
    assert repr(construct(record_class)(*args)) == expected


def test_copies_are_equal(record_class):
    _, args, _, _ = RECORDS[record_class]
    record = construct(record_class)(*args)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_real_roots_is_kept_but_not_compared():
    spec = HyperellipticSpec(UniPoly([-1, 0, 1]))
    assert spec.real_roots == 2
    twin = copy.copy(spec)
    assert twin.real_roots == 2
    object.__setattr__(twin, "real_roots", 0)
    assert twin == spec and hash(twin) == hash(spec)
    assert "real_roots" not in repr(spec)


def test_sample_summaries_do_not_share_a_certificate_list():
    # each run builds its own list, and hands it to the frozen summary
    first, second = run_sample(1, 1, SampleBox()), run_sample(1, 1, SampleBox())
    assert first == second and first.known1_certificates is not second.known1_certificates


@pytest.mark.parametrize("build, error", [
    (lambda: SampleBox(pin="b=1"), ValueError),
    (lambda: SampleBox(k=3), ValueError),
    (lambda: SampleBox(amax=0), ValueError),
    (lambda: WeierstrassCurve(0, 0, 0), SingularCurveError),
    (lambda: HyperellipticSpec(UniPoly([1, 2, 1])), HypothesisError),
    (lambda: HyperellipticSpec(UniPoly([3])), HypothesisError),
    (lambda: UniPoly.from_integers((1, 2), 0), ZeroDivisionError),
    (lambda: ConicSpec(*[F(0)] * 5, F(1)), HypothesisError),
    (lambda: CurveInvariants(0, 1, 0, 2, 0), ValueError),
    (lambda: QuarticParams(0, F(1), F(0), F(1)), ValueError),
    (lambda: CohomologyDims(-1, 0), ValueError),
    (lambda: GroupDescriptor(qz=-1), ValueError),
    (lambda: GroupDescriptor(zn=(1, 1)), ValueError),
    # QuarticParams' loci in ints, which skip `integer_form`: a <= 0, c <= 0,
    # b = 0 with a = c at k = 0, and 2|b| = |c - a| or c + a at k = 4
    (lambda: QuarticParams(2, 0, 1, 2), ValueError),
    (lambda: QuarticParams(2, 1, 1, -2), ValueError),
    (lambda: QuarticParams(0, 1, 0, 1), ValueError),
    (lambda: QuarticParams(4, 1, 1, 3), ValueError),
    (lambda: QuarticParams(4, 1, -2, 3), ValueError),
    # a bool is not an int here, as in `rationals.integer_form`
    (lambda: QuarticParams(False, 1, 2, 3), TypeError),
    (lambda: QuarticParams(2.0, 1, 2, 3), TypeError),
    (lambda: SampleBox(k=False), TypeError),
    (lambda: SampleBox(amax=True), TypeError),
    (lambda: SampleBox(bmax=False), TypeError),
    (lambda: SampleBox(cmax=True), TypeError),
    (lambda: SampleBox(amax=50.0), TypeError),
])
def test_validators_still_raise(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("k, a, b, c", [(0, 5, 2, 9), (2, 1, 3, 2), (4, 1, 0, 2),
                                        (4, 7, -3, 2)])
def test_int_params_match_their_fractions(k, a, b, c):
    # three ints skip `integer_form`; Fractions, or ints beside a
    # Fraction, of the same values take it
    ints = QuarticParams(k, a, b, c)
    for other in (QuarticParams(k, F(a), F(b), F(c)), QuarticParams(k, a, F(b), c)):
        assert ints == other and hash(ints) == hash(other)
        assert ints._integral == other._integral == (1, a, b, c)
        assert ints.quartic() == other.quartic()


def test_weierstrass_coefficients_are_kept_as_given():
    # as in QuarticParams and ConicSpec: ints stay ints, Fractions stay
    # Fractions, and equal values give equal curves
    ints = WeierstrassCurve(0, -1, 0)
    assert ints == CURVE and hash(ints) == hash(CURVE)
    assert [type(c) for c in (ints.c2, ints.c1, ints.c0)] == [int] * 3
    assert [type(c) for c in (CURVE.c2, CURVE.c1, CURVE.c0)] == [Fraction] * 3
    assert ints._integral == CURVE._integral == (1, 0, -1, 0)
    assert str(ints) == str(CURVE) == "u^2 = v^3 + (0)*v^2 + (-1)*v + (0)"
    mixed = WeierstrassCurve(F(1, 2), 3, F(-1, 3))
    assert (type(mixed.c1), mixed._integral) == (int, (6, 3, 18, -2))


def test_points_keep_their_coordinates_and_ec_points_make_fractions():
    point = Point(1, F(1, 2))
    assert (type(point.v), type(point.u)) == (int, Fraction)
    assert -point == Point(1, F(-1, 2)) and type(-point) is Point
    assert str(point) == "(1, 1/2)" and str(Point(None, None)) == "Infinity"
    # the group law's sums are Points with Fraction coordinates, equal to
    # the points of the same values with ints
    total = ec_add(WeierstrassCurve(0, 0, 1), Point(2, 3), Point(-1, 0))
    assert (type(total), type(total.v), type(total.u)) == (Point, Fraction, Fraction)
    assert total == Point(0, -1) and hash(total) == hash(Point(0, -1))
    assert str(total) == "(0, -1)"


@pytest.mark.parametrize("build", [
    lambda: UniPoly(["1e3000000", 1]),
    lambda: UniPoly([1, "1/2"]),
    lambda: WeierstrassCurve(0, "1e3000000", 1),
    lambda: WeierstrassCurve("-1", 0, 0),
    # a Fraction beside another type takes the check too
    lambda: Point("0", F(0)),
    lambda: Point(F(0), "1/2"),
    lambda: Point(F(1), None),
    lambda: ConicSpec(1, 0, 1, 0, 0, "-1"),
    lambda: ConicSpec(1, 0, 1, 0, 0, -1.0),
    lambda: QuarticParams(2, "1", 1, 2),
    lambda: QuarticParams(2, 1, 1.0, 2),
    lambda: Point("0", 0),
    lambda: Point(0, 0.5),
    lambda: Point(None, F(1)),
    # an int beside a bool or a None takes the check too
    lambda: Point(True, 0),
    lambda: Point(1, False),
    lambda: Point(0, None),
])
def test_strings_are_not_rationals(build):
    # a rational is an int or a Fraction; a string is not parsed, so it
    # cannot bypass the digit checks of rationals.read_rationals
    with pytest.raises(TypeError, match="exact rational"):
        build()


@pytest.mark.parametrize("zn, folded", [
    ((2, 3), GroupDescriptor(z2=4)),
    ((4, 3), GroupDescriptor(z4=3, z2=1)),
    ((6, 0), GroupDescriptor(z2=1)),
    ((6, 2), GroupDescriptor(zn=(6, 2), z2=1)),
])
def test_group_descriptor_folds_zn(zn, folded):
    group = GroupDescriptor(zn=zn, z2=1)
    assert group == folded
    assert group.zn == folded.zn


@pytest.mark.parametrize("build", [
    lambda: QuarticParams(2, True, 1, 2),
    lambda: QuarticParams(2, F(1), False, 2),
    lambda: WeierstrassCurve(True, 0, 1),
    lambda: WeierstrassCurve(F(1, 2), 0, False),
    lambda: UniPoly([1, True]),
    lambda: UniPoly([F(1, 2), False, 1]),
    lambda: ConicSpec(1, 0, 1, 0, 0, True),
    lambda: ConicSpec(F(1, 2), False, 1, 0, 0, -1),
    lambda: Point(True, 1),
    # a Fraction beside a bool, as the group law's points hold Fractions
    lambda: Point(F(1, 2), True),
], ids=["params", "params-fraction", "curve", "curve-fraction", "poly", "poly-fraction",
        "conic", "conic-fraction", "point", "ec-point"])
def test_bools_are_not_rationals(build):
    # a bool is an int subclass, but it would print as True or False:
    # `integer_form` rejects it, beside ints and beside Fractions
    with pytest.raises(TypeError, match="cannot interpret (True|False) as an exact"):
        build()
