"""How many Fractions an analysis builds.

The parser keeps integer literals, and their sums and products, as
ints; a Fraction appears only for a p/q literal and for what it is
added to or multiplied with.  The specs bring the coefficients to
integer numerators over one denominator, and classification, display
and report assembly read that form, so the report of a parsed curve
builds no Fraction, and neither does the parse of a curve with integer
coefficients.  The counts are pinned exactly: a Fraction round trip
that comes back anywhere on the path fails here.  A count of 0 is also
what lets a cold call on such a curve skip importing `fractions`, which
`tests/test_lazy_modules.py` checks in a fresh interpreter.
"""

import fractions

import pytest

from realcurves import full_report, parse_curve

# input: (Fractions built by parse_curve, Fractions built by full_report)
COUNTS = {
    "x^2 + y^2 - 1 = 0": (0, 0),
    "2*((-3*x + 4*y - 3)^2 + (x + 4*y + 5)^2 - 16) = 0": (0, 0),
    "y^2 = x^3 - x": (0, 0),
    "y^2 = 3*x^8 - 10": (0, 0),
    # a p/q literal builds one Fraction and its product with a monomial
    # another; the difference x^3 - 1/4*x builds a third, the negation
    "1/2*x^2 + 3/4*y^2 - 1 = 0": (4, 0),
    "y^2 = x^3 - 1/4*x": (3, 0),
}


@pytest.fixture
def fraction_count(monkeypatch):
    """A one-element list holding the number of Fraction constructions
    since the fixture started or the test last reset it."""
    count = [0]
    original = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting))
    return count


@pytest.mark.parametrize("text", COUNTS)
def test_pinned_counts(text, fraction_count):
    fraction_count[0] = 0
    spec = parse_curve(text)
    parsed = fraction_count[0]
    fraction_count[0] = 0
    full_report(spec)
    assert (parsed, fraction_count[0]) == COUNTS[text]


def test_the_counter_sees_constructions(fraction_count):
    fraction_count[0] = 0
    fractions.Fraction(1, 3) + fractions.Fraction(1, 6)
    assert fraction_count[0] >= 3
