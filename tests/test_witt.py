import random

from realcurves import (GroupDescriptor, classify_conic, etale_dims,
                        hyperelliptic_invariants, parse_curve, witt_group)

from oracles import random_invariants


def conic_inv(expr):
    return classify_conic(parse_curve(expr + " = 0")).invariants


class TestWittExamples:
    def test_ellipse(self):
        assert witt_group(conic_inv("x^2 + y^2 - 1")) == \
            GroupDescriptor(free_rank=1, z2=1)

    def test_imaginary_ellipse(self):
        assert witt_group(conic_inv("x^2 + y^2 + 1")) == GroupDescriptor(z4=1)

    def test_negative_sextic(self):
        inv = hyperelliptic_invariants(parse_curve("y^2 = -(x^6+1)"))
        assert witt_group(inv) == GroupDescriptor(z4=1, z2=2)

    def test_disconnected_conic(self):
        assert witt_group(conic_inv("x^2 + 1")) == GroupDescriptor(z2=1)


class TestWittStructure:
    def test_open_real_specialization(self):
        # with real points on a non-complete curve: Z^s + (Z/2)^(g+c)
        rng = random.Random(211)
        for _ in range(300):
            inv = random_invariants(rng, family="open_real")
            w = witt_group(inv)
            assert w == GroupDescriptor(free_rank=inv.components,
                                        z2=inv.genus + inv.complex_at_infinity)

    def test_open_disconnected(self):
        rng = random.Random(227)
        for _ in range(100):
            inv = random_invariants(rng, family="open_disconnected")
            w = witt_group(inv)
            expected = 2 * inv.genus + inv.complex_at_infinity
            assert w == GroupDescriptor(z2=expected)
            assert etale_dims(inv).h1 + 1 == expected

    def test_free_rank_equals_component_count(self):
        rng = random.Random(229)
        for _ in range(300):
            inv = random_invariants(rng)
            assert witt_group(inv).free_rank == inv.components

    def test_level_two_gives_z4_summand(self):
        rng = random.Random(233)
        for _ in range(100):
            inv = random_invariants(rng, family="open_empty")
            w = witt_group(inv)
            assert w.z4 == 1 and w.free_rank == 0
            assert w.z2 == etale_dims(inv).h1 - 1
