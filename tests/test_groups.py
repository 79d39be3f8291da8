import random

import pytest

from realcurves import GroupDescriptor, TRIVIAL_GROUP

from oracles import parse_group_string


class TestFormat:
    def test_free_plus_two_torsion(self):
        assert GroupDescriptor(free_rank=1, z2=1).format() == "Z (+) Z/2"

    def test_trivial(self):
        assert GroupDescriptor().format() == "0"
        assert TRIVIAL_GROUP == GroupDescriptor()

    def test_mixed(self):
        assert GroupDescriptor(z4=1, z2=2).format() == "Z/4 (+) (Z/2)^2"

    def test_summand_order_is_fixed(self):
        g = GroupDescriptor(free_rank=2, qz=1, z4=1, zn=(5, 2), z2=3)
        assert g.format() == "Z^2 (+) Q/Z (+) Z/4 (+) (Z/5)^2 (+) (Z/2)^3"


class TestRoundTrip:
    def test_format_is_injective_on_random_descriptors(self):
        rng = random.Random(5)
        seen = {}
        for _ in range(300):
            zn = None
            if rng.random() < 0.4:
                zn = (rng.choice([3, 5, 6, 7, 8]), rng.randint(1, 3))
            g = GroupDescriptor(free_rank=rng.randint(0, 3),
                                qz=rng.randint(0, 3),
                                z4=rng.randint(0, 3),
                                zn=zn,
                                z2=rng.randint(0, 3))
            text = g.format()
            assert parse_group_string(text) == g
            if text in seen:
                assert seen[text] == g
            seen[text] = g


class TestNormalization:
    def test_zn_folding(self):
        assert GroupDescriptor(zn=(2, 3)) == GroupDescriptor(z2=3)
        assert GroupDescriptor(zn=(4, 2)) == GroupDescriptor(z4=2)
        assert GroupDescriptor(zn=(7, 0)) == GroupDescriptor()

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            GroupDescriptor(free_rank=-1)
        with pytest.raises(ValueError):
            GroupDescriptor(zn=(5, -2))
        with pytest.raises(ValueError):
            GroupDescriptor(zn=(1, 1))


class TestJson:
    def test_key_layout(self):
        g = GroupDescriptor(free_rank=1, qz=2, z4=0, zn=(3, 1), z2=1)
        assert g.to_json() == {"free_rank": 1, "qz": 2, "z4": 0,
                               "zn": {"n": 3, "count": 1}, "z2": 1}
        assert list(g.to_json().keys()) == ["free_rank", "qz", "z4", "zn", "z2"]

    def test_absent_zn_is_null(self):
        assert GroupDescriptor(z2=1).to_json()["zn"] is None
