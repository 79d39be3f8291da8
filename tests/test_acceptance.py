"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Everything asserted here is exact except the sampling
frequency criterion, which is statistical with a fixed seed.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import hashlib
import json
import random
import time
from fractions import Fraction

from realcurves import (GroupDescriptor, QuarticParams, SearchStats, UniPoly,
                        build_quartic_model, ec_add, ec_double,
                        etale_dims, eta_from_params, full_report,
                        hyperelliptic_invariants, multiple, parse_curve,
                        pic_tors, quartic_eta, quotient_space_dims,
                        torsion_order_bounded, witt_group)
from realcurves.cli import main
from realcurves.curves import HyperellipticSpec
from realcurves.sampling import SampleBox, draw_params, run_sample

from oracles import (descartes_count_roots, neutral_two_torsion, poly_mul,
                     random_curve_with_points, random_invariants,
                     random_squarefree_poly, tangent_double)

F = Fraction
# sha256 of the output of `sample --count 10000 --seed 1 --json`
SAMPLE_SEED_1_SHA256 = "edbe89314251daa1c9723efe7e6a5d123d6eae70abca871f1e34674647c642a4"


def criterion(number, description):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                func(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")
        return wrapper
    return decorate


def group(**kw):
    return GroupDescriptor(**kw).to_json()


@criterion(1, "conic table reproduced exactly in under one second")
def test_conic_table():
    started = time.monotonic()
    expected = {
        "x^2 + y^2 - 1 = 0": (group(free_rank=1, z2=1), group(z2=1), 0),
        "x^2 + y = 0": (group(free_rank=1), group(), 0),
        "x^2 - y^2 - 1 = 0": (group(free_rank=2), group(), 1),
        "x^2 + y^2 + 1 = 0": (group(z4=1), group(), 0),
        "x = 0": (group(free_rank=1), group(), 0),
        "x^2 + 1 = 0": (group(z2=1), group(), 0),
    }
    for expr, (witt_json, pic_json, eta) in expected.items():
        report = full_report(parse_curve(expr))
        assert report["witt"]["group"] == witt_json, expr
        assert report["pic_tors"]["group"] == pic_json, expr
        assert report["eta"]["eta"] == eta, expr
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"conic table took {elapsed:.3f}s"


def _poly_with_roots(sign: int, d: int, k: int) -> UniPoly:
    """sign * (x-1)...(x-k) * (x^2+1)(x^2+2)... of degree d with exactly
    k real roots."""
    poly = UniPoly([sign])
    for i in range(1, k + 1):
        poly = poly_mul(poly, UniPoly([-i, 1]))
    for j in range(1, (d - k) // 2 + 1):
        poly = poly_mul(poly, UniPoly([j, 0, 1]))
    return poly


@criterion(2, "hyperelliptic Witt/Picard tables confirmed through degree 10")
def test_hyperelliptic_formulas():
    report = full_report(parse_curve("y^2 = -(x^6+1)"))
    assert report["witt"]["group"] == group(z4=1, z2=2)
    assert report["pic_tors"]["group"] == group(qz=2)
    report = full_report(parse_curve("y^2 = x^3 - x"))
    assert report["witt"]["group"] == group(free_rank=2, z2=1)
    assert report["pic_tors"]["group"] == group(qz=1, z2=1)

    from realcurves.eta import eta_full
    for d in range(1, 11):
        for sign in (1, -1):
            for k in range(d % 2, d + 1, 2):
                spec = HyperellipticSpec(_poly_with_roots(sign, d, k))
                inv = hyperelliptic_invariants(spec)
                assert (inv.degree, inv.real_roots) == (d, k)
                dp, kp = d // 2, k // 2
                w = witt_group(inv)
                if d % 2 == 1:
                    assert w == GroupDescriptor(free_rank=kp + 1, z2=dp)
                    expected_pic = GroupDescriptor(qz=dp, z2=kp)
                elif sign < 0:
                    if k > 0:
                        assert w == GroupDescriptor(free_rank=kp, z2=dp)
                    else:
                        assert w == GroupDescriptor(z4=1, z2=dp - 1)
                    expected_pic = GroupDescriptor(qz=dp - 1, z2=kp)
                else:
                    free = kp + 1 if k > 0 else 2
                    assert w == GroupDescriptor(free_rank=free, z2=dp - 1)
                    expected_pic = None  # depends on eta, handled below
                eta = eta_full(spec, inv).eta.value
                if expected_pic is not None:
                    assert eta == 0
                    assert pic_tors(inv, eta) == expected_pic, (d, sign, k)
                else:
                    # eta is 0 or 1, or undetermined: both candidates
                    z2 = max(kp - 1, 0)
                    for e in (0, 1) if eta is None else (eta,):
                        assert pic_tors(inv, e) == GroupDescriptor(qz=dp - e, z2=z2)


@criterion(3, "quartic eta certificates: p = p1, p = p3, and derived 2p = p3")
def test_quartic_eta_certificates():
    res = quartic_eta(parse_curve("y^2 = (x^2+1)*(x^2+4)").q)
    assert (res.value, res.certificate.relation) == (1, "p = p1")
    res = quartic_eta(parse_curve("y^2 = (x^2-1)*(x^2-9)").q)
    assert (res.value, res.certificate.relation) == (1, "p = p3")

    # b derived from -16 b^2 a c + c^4 - 2 a^2 c^2 + a^4 = 0 with a=8, c=2
    a, c = F(8), F(2)
    b_squared = (c ** 4 - 2 * a * a * c * c + a ** 4) / (16 * a * c)
    assert b_squared == F(225, 16)
    b = F(15, 4)
    assert -16 * b * b * a * c + c ** 4 - 2 * a * a * c * c + a ** 4 == 0
    params = QuarticParams(k=0, a=a, b=b, c=c)
    # confirm through the group law before trusting the pipeline
    model = build_quartic_model(params)
    assert multiple(model.curve, 2, model.p) == model.two_torsion["p3"]
    res = quartic_eta(params.quartic())
    assert (res.value, res.certificate.relation) == (1, "2p = p3")


@criterion(4, "torsion search runs exactly the 6/10/4 case lists and no "
              "multiple beyond them")
def test_mazur_bounded_exhaustion():
    mazur_case_lists = {
        0: ("p = p1", "p = p2", "2p = p3", "3p = p1", "3p = p2", "4p = p3"),
        2: ("p = p1", "2p = p1", "3p = p1", "4p = p1", "5p = p1", "6p = p1",
            "2p = -p", "4p = -p", "6p = -p", "8p = -p"),
    }
    max_multiple = {0: 4, 2: 6, 4: 4}
    exhausted = {0: 0, 2: 0, 4: 0}
    for k in (0, 2, 4):
        for index in range(120):
            rng = random.Random(f"acceptance4:{k}:{index}")
            params = draw_params(rng, SampleBox(k=k))
            stats = SearchStats()
            result = eta_from_params(params, stats=stats)
            if k in mazur_case_lists:
                assert stats.case_list == mazur_case_lists[k]
            else:
                target = neutral_two_torsion(params)
                assert stats.case_list == tuple(
                    f"{'' if n == 1 else n}p = {target}" for n in range(1, 5))
            assert len(stats.case_list) == {0: 6, 2: 10, 4: 4}[k]
            assert stats.max_multiple <= max_multiple[k]
            if result.value == 0:
                assert stats.relations_checked == len(stats.case_list)
                assert result.certificate.cases_checked == stats.case_list
                exhausted[k] += 1
    assert all(n > 100 for n in exhausted.values())  # generic draws exhaust


@criterion(5, "cross-module identities hold on 500+ random invariant tuples")
def test_cross_module_consistency():
    rng = random.Random(515)
    checked = 0
    open_real = 0
    while checked < 500 or open_real < 200:
        inv = random_invariants(rng)
        u = etale_dims(inv).h1
        s = inv.components
        assert quotient_space_dims(inv).h1 == u - s
        assert witt_group(inv).free_rank == s
        if s > 0 and inv.geometrically_connected:
            assert u - s == inv.genus + inv.complex_at_infinity
            open_real += 1
        checked += 1


@criterion(6, "elliptic group law: axioms on 200+ random triples per curve, "
              "doubling matches the chord-based oracle, torsion re-verified")
def test_elliptic_group_law_axioms():
    rng = random.Random(606)
    for _ in range(3):
        curve, base = random_curve_with_points(rng)
        pool = list(base) + [-p for p in base]
        pool.append(ec_add(curve, base[0], base[1]))
        pool.append(ec_double(curve, base[2]))
        from realcurves import INFINITY
        pool.append(INFINITY)
        for _ in range(210):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert ec_add(curve, a, b) == ec_add(curve, b, a)
            assert ec_add(curve, ec_add(curve, a, b), c) == \
                ec_add(curve, a, ec_add(curve, b, c))
            assert ec_add(curve, a, -a).is_infinity
        for p in pool:
            assert ec_double(curve, p) == tangent_double(curve, p)
        for p in pool:
            order = torsion_order_bounded(curve, p, 12)
            if order is not None:
                assert multiple(curve, order, p).is_infinity


@criterion(7, "Sturm counts agree with the bisection oracle on 1000 random "
              "square-free polynomials of degree <= 8")
def test_sturm_vs_bisection():
    from realcurves import count_real_roots
    rng = random.Random(707)
    for _ in range(1000):
        p = random_squarefree_poly(rng, max_degree=8, coeff_bound=20)
        assert count_real_roots(p) == descartes_count_roots(p)


@criterion(8, "10000-sample run: generic box under 1% known-eta-1, pinned "
              "b=0 box at 100%, within the runtime budget")
def test_measure_zero_proxy(capsys):
    started = time.monotonic()
    code = main(["sample", "--count", "10000", "--seed", "1", "--json"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0
    # the output rule: every change so far has printed these bytes
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_SEED_1_SHA256
    payload = json.loads(out)
    freq = payload["frequencies"]
    assert freq["known0"] + freq["known1"] + freq["undetermined"] == 10000
    assert freq["known1"] < 100, f"known1 frequency {freq['known1']/100:.2f}%"
    assert elapsed < 60.0, f"sampling took {elapsed:.1f}s"

    pinned = run_sample(500, 1, SampleBox(pin="b=0"))
    assert pinned.known1 == 500
