"""Per-call times of the layers a sampler draw runs, in microseconds.

    python3 tools/layer_times.py [N]

times, in one process with `time.perf_counter`,

    draw_params             on the streams random.Random(f"1:{i}"), i < N
    QuarticParams.quartic   on those draws
    quartic_normal_form     on their quartics
    build_quartic_model     on the draws, then on their normal forms
    eta_from_params         on the draws, then on their normal forms
    run_sample(1, ...)      run_sample(1, i, box) for i < N

with box = SampleBox(), the generic box.  The default N = 2000 is
ROADMAP aim 1's fixed pool of seed-1 draws.  Each figure is the best of
5 passes over the whole pool, divided by N.  The package is imported
from this checkout's src/.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
PASSES = 5


def best_per_call_us(call, make_items) -> float:
    """The best of PASSES timed loops of `call` over `make_items()`,
    in microseconds per item; the items are made outside the timing."""
    best = float("inf")
    for _ in range(PASSES):
        items = make_items()
        start = perf_counter()
        for item in items:
            call(item)
        best = min(best, perf_counter() - start)
    return best / len(items) * 1e6


def layer_times(count: int) -> list[tuple[str, float]]:
    """(name, microseconds per call) of each timed layer."""
    sys.path.insert(0, str(SRC))
    import realcurves as rc
    from realcurves.sampling import draw_params

    box = rc.SampleBox()

    def streams():
        return [random.Random(f"1:{i}") for i in range(count)]

    draws = [draw_params(rng, box) for rng in streams()]
    quartics = [params.quartic() for params in draws]
    forms = [rc.quartic_normal_form(q) for q in quartics]
    seeds = range(count)
    return [
        ("draw_params", best_per_call_us(lambda rng: draw_params(rng, box), streams)),
        ("QuarticParams.quartic",
         best_per_call_us(rc.QuarticParams.quartic, lambda: draws)),
        ("quartic_normal_form",
         best_per_call_us(rc.quartic_normal_form, lambda: quartics)),
        ("build_quartic_model (draws)",
         best_per_call_us(rc.build_quartic_model, lambda: draws)),
        ("build_quartic_model (normal forms)",
         best_per_call_us(rc.build_quartic_model, lambda: forms)),
        ("eta_from_params (draws)",
         best_per_call_us(rc.eta_from_params, lambda: draws)),
        ("eta_from_params (normal forms)",
         best_per_call_us(rc.eta_from_params, lambda: forms)),
        ("run_sample(1, ...)",
         best_per_call_us(lambda seed: rc.run_sample(1, seed, box), lambda: seeds)),
    ]


def main(argv: list[str]) -> int:
    for name, micros in layer_times(int(argv[0]) if argv else 2000):
        print(f"{name:<36} {micros:>9.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
