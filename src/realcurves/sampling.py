"""Deterministic sampling experiments over random rational quartics.

Samples are drawn as normal-form parameters (k, a, b, c) rather than raw
coefficients so that every draw is smooth by construction; draws that
would violate square-freeness are rejected and redrawn.  In the generic
(unpinned) box the known coincidence loci b = 0 and a = c are excluded
as well, since on an integer lattice they would otherwise be hit with
visible frequency even though they have measure zero in parameter space.
The pins force exactly those loci instead.  A box in which no draw is
admissible, such as a generic box with amax = cmax = 1, is a ValueError,
where the draw would loop forever.  k, the box bounds, the count and
the seed are ints: any other value, a bool too, is a TypeError, as the
JSON would otherwise write it as given and the seed name another stream.

Each sample gets its own RNG stream seeded from (seed, index), so the
output is a pure function of (seed, box, count) no matter how samples
are scheduled.
"""

from __future__ import annotations

import random

from ._record import Record
from .eta import QuarticParams, quartic_eta

PIN_B_ZERO = "b=0"
PIN_A_EQ_C = "a=c"
# the most digits of a box bound: the normal form's work grows with them
MAX_BOUND_DIGITS = 100
_BOUND_LIMIT = 10 ** MAX_BOUND_DIGITS


class SampleBox(Record):
    __slots__ = _fields = ("k", "amax", "bmax", "cmax", "pin")

    def __init__(self, k: int | None = None,  # None: draw k uniformly from {0, 2, 4}
                 amax: int = 50, bmax: int = 50, cmax: int = 50,
                 pin: str | None = None):     # None | "b=0" | "a=c"
        if any(type(v) is not int for v in (0 if k is None else k, amax, bmax, cmax)):
            raise TypeError("k and the box bounds must be ints")
        if k not in (None, 0, 2, 4):
            raise ValueError("k must be 0, 2, or 4")
        if min(amax, cmax) < 1 or bmax < 0:
            raise ValueError("box bounds must be positive")
        if max(amax, bmax, cmax) >= _BOUND_LIMIT:
            raise ValueError(f"box bounds must have at most {MAX_BOUND_DIGITS} digits")
        if pin not in (None, PIN_B_ZERO, PIN_A_EQ_C):
            raise ValueError(f"unknown pin {pin!r}")
        if not any(_admits_draw(root_count, amax, bmax, cmax, pin)
                   for root_count in ((0, 2, 4) if k is None else (k,))):
            raise ValueError("box admits no draw: each (a, b, c) in it is excluded "
                             "or not square-free")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "amax", amax)
        object.__setattr__(self, "bmax", bmax)
        object.__setattr__(self, "cmax", cmax)
        object.__setattr__(self, "pin", pin)

    def to_json(self) -> dict:
        return {"k": self.k, "amax": self.amax, "bmax": self.bmax,
                "cmax": self.cmax, "pin": self.pin}


def _admits_draw(k: int, amax: int, bmax: int, cmax: int, pin: str | None) -> bool:
    """Whether `draw_params` accepts some (a, b, c) of the box at root
    count k, so that it ends.  The generic box excludes b = 0 and a = c;
    `QuarticParams` rejects b = 0 with a = c at k = 0, and 2|b| = |c - a|
    or c + a at k = 4."""
    if pin is None:
        return bmax >= 1 and max(amax, cmax) >= 2
    if pin == PIN_B_ZERO:
        return k == 2 or max(amax, cmax) >= 2
    return k == 2 or bmax >= 1 and (k == 0 or bmax >= 2 or amax >= 2)


class SampleSummary(Record):
    __slots__ = _fields = ("count", "seed", "box", "known0", "known1",
                           "undetermined", "known1_certificates")

    def __init__(self, count: int, seed: int, box: SampleBox, known0: int,
                 known1: int, undetermined: int, known1_certificates: list[dict]):
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "known0", known0)
        object.__setattr__(self, "known1", known1)
        object.__setattr__(self, "undetermined", undetermined)
        object.__setattr__(self, "known1_certificates", known1_certificates)

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "box": self.box.to_json(),
            "frequencies": {
                "known0": self.known0,
                "known1": self.known1,
                "undetermined": self.undetermined,
            },
            "known1_certificates": self.known1_certificates,
        }


def draw_params(rng: random.Random, box: SampleBox) -> QuarticParams:
    """One admissible parameter draw; rejected draws are redrawn from the
    same stream so the result is still deterministic in the stream.
    It draws with randrange(l, h + 1), which is how CPython defines
    randint(l, h), so the stream is randint's; the box is read and the
    method bound once, outside the loop."""
    box_k, pin = box.k, box.pin
    a_stop, b_low, b_stop, c_stop = box.amax + 1, -box.bmax, box.bmax + 1, box.cmax + 1
    randrange = rng.randrange
    while True:
        k = box_k if box_k is not None else rng.choice((0, 2, 4))
        a = randrange(1, a_stop)
        b = randrange(b_low, b_stop)
        c = randrange(1, c_stop)
        if pin == PIN_B_ZERO:
            b = 0
        elif pin == PIN_A_EQ_C:
            c = a
        if pin is None and (b == 0 or a == c):
            continue
        try:
            # positional: a keyword call of a class is slower in CPython 3.11
            return QuarticParams(k, a, b, c)
        except ValueError:  # not square-free
            continue


def run_sample(count: int, seed: int, box: SampleBox) -> SampleSummary:
    """Run `count` independent quartic eta decisions.

    Each sample expands its parameters into the quartic polynomial and
    runs the full pipeline on it (normal-form recovery included), so the
    experiment exercises exactly the code path a user hits.
    """
    if type(count) is not int or type(seed) is not int:
        raise TypeError("count and seed must be ints")
    if count < 1:
        raise ValueError("count must be >= 1")
    known0 = undetermined = 0
    certificates = []
    for index in range(count):
        rng = random.Random(f"{seed}:{index}")
        params = draw_params(rng, box)
        result = quartic_eta(params.quartic())
        if result.value == 0:
            known0 += 1
        elif result.value == 1:
            certificates.append({"index": index, **params.to_json(),
                                 "relation": result.certificate.relation,
                                 "order": result.certificate.order})
        else:
            undetermined += 1
    return SampleSummary(count, seed, box, known0, len(certificates), undetermined,
                         certificates)
