"""The package's record classes: construction by position and keyword
with the documented defaults, field-wise equality and hashing,
immutability, the `Name(field=value, ...)` repr, copying, and the
validation each constructor runs."""

import copy
import pickle
from fractions import Fraction

import pytest

from realcurves import (Certificate, CohomologyDims, ConicClass, ConicSpec,
                        CurveInvariants, ECPoint, EtaAnalysis, EtaResult,
                        GroupDescriptor, HyperellipticSpec, HypothesisError,
                        LevelReport, QuarticParams, SampleBox, SampleSummary,
                        SearchStats, SingularCurveError, UniPoly, WeierstrassCurve)
from realcurves._record import Record
from realcurves.eta import QuarticModel

F = Fraction
INV = CurveInvariants(1, 2, 0, 2, 0)
CURVE = WeierstrassCurve(F(0), F(-1), F(0))
POINT = ECPoint(F(1), F(0))

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
    ECPoint: (("v", "u"), (F(1), F(0)), (F(-1), F(0)), {}),
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
    SearchStats: (("k", "relations_checked", "max_multiple", "case_list"),
                  (2, 3, 4, ("p = p1",)), (2, 3, 5, ("p = p1",)),
                  {"k": None, "relations_checked": 0, "max_multiple": 0,
                   "case_list": ()}),
    QuarticModel: (("curve", "p", "two_torsion", "neutral_two_torsion"),
                   (CURVE, POINT, {"p1": POINT}, "p1"),
                   (CURVE, POINT, {"p1": POINT}, None), {}),
    EtaAnalysis: (("eta", "eta_complex"),
                  (EtaResult(1, Certificate("rule-conic-table")), None),
                  (EtaResult(0, Certificate("rule-conic-table")), None), {}),
    LevelReport: (("value", "reason"), ("3", "eta is 0"), ("2 or 3", "eta is 0"), {}),
    GroupDescriptor: (("free_rank", "qz", "z4", "zn", "z2"), (1, 2, 3, (5, 1), 1),
                      (1, 2, 3, (5, 2), 1),
                      {"free_rank": 0, "qz": 0, "z4": 0, "zn": None, "z2": 0}),
    CohomologyDims: (("h0", "h1", "h2", "h_stable"), (1, 2, 3, 3), (1, 2, 3, 4), {}),
    SampleBox: (("k", "amax", "bmax", "cmax", "pin"), (2, 5, 6, 7, "b=0"),
                (2, 5, 6, 7, "a=c"),
                {"k": None, "amax": 50, "bmax": 50, "cmax": 50, "pin": None}),
    SampleSummary: (("count", "seed", "box", "known0", "known1", "undetermined",
                     "known1_certificates"),
                    (10, 1, SampleBox(), 7, 2, 1, [{"index": 3}]),
                    (10, 2, SampleBox(), 7, 2, 1, [{"index": 3}]),
                    {"known0": 0, "known1": 0, "undetermined": 0,
                     "known1_certificates": []}),
}
MUTABLE = (SearchStats, SampleSummary)
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


def test_equality_and_hash_are_field_wise(record_class):
    _, args, other_args, _ = RECORDS[record_class]
    record, twin, other = (construct(record_class)(*args), construct(record_class)(*args),
                           construct(record_class)(*other_args))
    assert record == twin and not record != twin
    assert record != other
    assert record != args
    if record_class in MUTABLE or record_class is QuarticModel:
        # mutable, or holding a dict
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
    first, second = SampleSummary(1, 1, SampleBox()), SampleSummary(1, 1, SampleBox())
    first.known1_certificates.append({"index": 0})
    assert second.known1_certificates == []


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
    (lambda: CohomologyDims(0, 1, 1, 1), ValueError),
    (lambda: GroupDescriptor(qz=-1), ValueError),
    (lambda: GroupDescriptor(zn=(1, 1)), ValueError),
])
def test_validators_still_raise(build, error):
    with pytest.raises(error):
        build()


def test_weierstrass_coefficients_become_fractions():
    curve = WeierstrassCurve(0, -1, 0)
    assert curve == CURVE
    assert all(type(c) is Fraction for c in (curve.c2, curve.c1, curve.c0))


@pytest.mark.parametrize("build", [
    lambda: UniPoly(["1e3000000", 1]),
    lambda: UniPoly([1, "1/2"]),
    lambda: WeierstrassCurve(0, "1e3000000", 1),
    lambda: WeierstrassCurve("-1", 0, 0),
    lambda: ECPoint("0", 0),
    lambda: ECPoint(0, "1/2"),
    lambda: ECPoint(None, F(1)),
    lambda: ConicSpec(1, 0, 1, 0, 0, "-1"),
    lambda: ConicSpec(1, 0, 1, 0, 0, -1.0),
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
