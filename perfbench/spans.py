"""Per-layer spans recorded from outside the package.

For the traced run only, the public realcurves functions named in
`TRACED` are replaced by timing wrappers in every realcurves module that
holds them; `Tracer.remove` puts the original objects back, so untraced
runs execute exactly the package's own code.  A span's self time is its
duration minus the durations of the wrapped spans nested inside it.
"""

from __future__ import annotations

import sys
from time import perf_counter

import realcurves as rc

# <module>.<function>, <module>.<class> (its constructor) or
# <module>.<class>.<method>, all inside the realcurves package.
TRACED = (
    "parser.parse_curve",
    "curves.HyperellipticSpec", "curves.hyperelliptic_invariants",
    "curves.classify_conic",
    "polys.is_square_free", "polys.count_real_roots", "polys.poly_gcd",
    "polys.sturm_sequence", "polys.integer_roots_monic",
    "eta.quartic_normal_form", "eta.build_quartic_model", "eta.eta_from_params",
    "eta.eta_full",
    "elliptic.ec_add", "elliptic.multiple", "elliptic.torsion_order_bounded",
    "elliptic.WeierstrassCurve.require",
    "cohomology.etale_dims", "witt.witt_group", "picard.pic_tors",
    "picard.units_mod_n",
    "report.full_report",
    "sampling.draw_params",
)
# json.dumps of the analyze report, wrapped on the workload object.
JSON_DUMPS = "report.json_dumps"
SPANS = TRACED[:-1] + (JSON_DUMPS, TRACED[-1])


def _height_bits(point) -> int:
    if point.is_infinity:
        return 0
    return max(x.bit_length() for q in (point.v, point.u)
               for x in (q.numerator, q.denominator))


class Tracer:
    """Span totals per name."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.normal_form_calls = self.normal_form_hits = 0
        self.decisions = self.relations_checked = self.max_multiple_total = 0
        self.max_height_bits = 0
        self._stack: list[list] = []  # open spans: [time of nested spans]
        self._patched: list[tuple] = []  # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------------

    def wrap(self, name, fn, prepare=None, observe=None):
        stack = self._stack

        def traced(*args, **kwargs):
            if prepare is not None:
                prepare(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    def _inject_stats(self, args, kwargs):
        if len(args) < 2 and kwargs.get("stats") is None:
            kwargs["stats"] = rc.SearchStats()

    def _observe_decision(self, result, args, kwargs):
        stats = args[1] if len(args) > 1 else kwargs["stats"]
        self.decisions += 1
        self.relations_checked += stats.relations_checked
        self.max_multiple_total += stats.max_multiple

    def _observe_normal_form(self, result, args, kwargs):
        self.normal_form_calls += 1
        self.normal_form_hits += result is not None

    def _observe_add(self, result, args, kwargs):
        self.max_height_bits = max(self.max_height_bits, _height_bits(result))

    # -- install / remove ------------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self, workload) -> None:
        hooks = {
            "eta.eta_from_params": (self._inject_stats, self._observe_decision),
            "eta.quartic_normal_form": (None, self._observe_normal_form),
            "elliptic.ec_add": (None, self._observe_add),
        }
        modules = [m for n, m in list(sys.modules.items())
                   if n == "realcurves" or n.startswith("realcurves.")]
        for dotted in TRACED:
            module_name, _, attr = dotted.partition(".")
            module = sys.modules[f"realcurves.{module_name}"]
            owner_name, _, method = attr.partition(".")
            target = getattr(module, owner_name)
            if method:                       # Class.method
                wrapper = self.wrap(dotted, getattr(target, method))
                self._patch(target, method, wrapper)
            elif isinstance(target, type):   # a class: trace its constructor
                self._patch(target, "__init__", self.wrap(dotted, target.__init__))
            else:                            # a function, under every name that holds it
                wrapper = self.wrap(dotted, target, *hooks.get(dotted, (None, None)))
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is target:
                            self._patch(holder, name, wrapper)
        if hasattr(workload, "dumps"):
            self._patch(workload, "dumps", self.wrap(JSON_DUMPS, workload.dumps))

    def remove(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
            if getattr(owner, attribute) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attribute}")

    # -- results ---------------------------------------------------------------

    def per_op_metrics(self, ops: int, to_nominal: float) -> dict:
        """Per-operation calls and nominal self times (measured seconds
        times `to_nominal`), plus the search ratios."""
        metrics = {}
        for name in SPANS:
            metrics[f"{name}.calls"] = (self.calls[name] / ops, "count")
            metrics[f"{name}.self_ms"] = (self.self_s[name] * to_nominal * 1e3 / ops, "ms")
        decisions = max(self.decisions, 1)
        metrics["eta.relations_checked"] = (self.relations_checked / decisions, "count")
        metrics["eta.max_multiple"] = (self.max_multiple_total / decisions, "count")
        metrics["eta.normal_form_hit_ratio"] = (
            self.normal_form_hits / max(self.normal_form_calls, 1), "ratio")
        metrics["elliptic.max_height_bits"] = (self.max_height_bits, "bits")
        return metrics
