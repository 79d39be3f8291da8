"""`realcurves sample`: eta frequencies over seeded random quartics, as
text or as JSON.  Only this subcommand imports this module."""

from __future__ import annotations

from .errors import ParseError
from .sampling import SampleBox, run_sample


def run(args) -> None:
    if args.count < 1:
        raise ParseError("--count must be >= 1")
    try:
        box = SampleBox(k=args.k, amax=args.amax, bmax=args.bmax,
                        cmax=args.cmax, pin=args.pin)
    except ValueError as err:
        raise ParseError(str(err)) from None
    summary = run_sample(args.count, args.seed, box)
    if args.json:
        from ._format import format_json  # here, so that text output skips it

        print(format_json({"command": "sample", **summary.to_json()}))
        return
    freq = summary.to_json()["frequencies"]
    total = summary.count
    print(f"samples:        {total} (seed {summary.seed})")
    for key in ("known0", "known1", "undetermined"):
        n = freq[key]
        print(f"{key + ':':<15} {n}  ({100.0 * n / total:.2f}%)")
    if summary.known1_certificates:
        print("known1 certificates:")
        for cert in summary.known1_certificates:
            print(f"  #{cert['index']}: k={cert['k']} a={cert['a']} "
                  f"b={cert['b']} c={cert['c']}  {cert['relation']} "
                  f"(order {cert['order']})")
