"""Deterministic sampling experiments over random rational quartics.

Samples are drawn as normal-form parameters (k, a, b, c) rather than raw
coefficients so that every draw is smooth by construction; draws that
would violate square-freeness are rejected and redrawn.  In the generic
(unpinned) box the known coincidence loci b = 0 and a = c are excluded
as well, since on an integer lattice they would otherwise be hit with
visible frequency even though they have measure zero in parameter space.
The pins force exactly those loci instead.

Each sample gets its own RNG stream seeded from (seed, index), so the
output is a pure function of (seed, box, count) no matter how samples
are scheduled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .eta import EtaResult, QuarticParams, quartic_eta

PIN_B_ZERO = "b=0"
PIN_A_EQ_C = "a=c"


@dataclass(frozen=True)
class SampleBox:
    k: int | None = None        # None: draw k uniformly from {0, 2, 4}
    amax: int = 50
    bmax: int = 50
    cmax: int = 50
    pin: str | None = None      # None | "b=0" | "a=c"

    def __post_init__(self):
        if self.k not in (None, 0, 2, 4):
            raise ValueError("k must be 0, 2, or 4")
        if min(self.amax, self.cmax) < 1 or self.bmax < 0:
            raise ValueError("box bounds must be positive")
        if self.pin not in (None, PIN_B_ZERO, PIN_A_EQ_C):
            raise ValueError(f"unknown pin {self.pin!r}")

    def to_json(self) -> dict:
        return {"k": self.k, "amax": self.amax, "bmax": self.bmax,
                "cmax": self.cmax, "pin": self.pin}


@dataclass
class SampleSummary:
    count: int
    seed: int
    box: SampleBox
    known0: int = 0
    known1: int = 0
    undetermined: int = 0
    known1_certificates: list[dict] = field(default_factory=list)

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
    same stream so the result is still deterministic in the stream."""
    while True:
        k = box.k if box.k is not None else rng.choice((0, 2, 4))
        a = rng.randint(1, box.amax)
        b = rng.randint(-box.bmax, box.bmax)
        c = rng.randint(1, box.cmax)
        if box.pin == PIN_B_ZERO:
            b = 0
        elif box.pin == PIN_A_EQ_C:
            c = a
        if box.pin is None and (b == 0 or a == c):
            continue
        try:
            return QuarticParams(k=k, a=a, b=b, c=c)
        except ValueError:  # not square-free
            continue


def run_sample(count: int, seed: int, box: SampleBox) -> SampleSummary:
    """Run `count` independent quartic eta decisions.

    Each sample expands its parameters into the quartic polynomial and
    runs the full pipeline on it (normal-form recovery included), so the
    experiment exercises exactly the code path a user hits.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    summary = SampleSummary(count=count, seed=seed, box=box)
    for index in range(count):
        rng = random.Random(f"{seed}:{index}")
        params = draw_params(rng, box)
        _tally(summary, index, params, quartic_eta(params.quartic()))
    return summary


def _tally(summary: SampleSummary, index: int, params: QuarticParams,
           result: EtaResult) -> None:
    if result.value == 0:
        summary.known0 += 1
    elif result.value == 1:
        summary.known1 += 1
        summary.known1_certificates.append({
            "index": index,
            **params.to_json(),
            "relation": result.certificate.relation,
            "order": result.certificate.order,
        })
    else:
        summary.undetermined += 1
