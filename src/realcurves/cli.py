"""Command-line front end.

Subcommands:

* analyze  -- full invariant report for one curve (text or JSON)
* sample   -- seeded random-quartic eta frequency experiment
* ec       -- direct access to the exact elliptic-curve arithmetic

Exit codes: 0 success, 2 parse/usage error, 3 hypothesis violation
(non-square-free input, singular conic, off-curve point), 4 internal
inconsistency: a failed self-check (should never fire).  A reader that
closes stdout before the output is written, as `| head -1` does, is no
error: the command did its work, so it exits 0 with nothing on stderr.

The command line is read by one table, `_COMMANDS`, of each
subcommand's positionals and options.  An option takes its value as
`--opt value` or `--opt=value`, anywhere after the subcommand; a value
that starts with `--` is missing, and a repeated option keeps its last
value.  `--` ends the options.  A word that starts with a single `-`
is a positional, unless it is `-h`, so `analyze '-x^2-y^2+1=0'`,
`ec multiple -1 "(0,1)"` and `sample --seed -5` read as they look.
`-h` and `--help` print the usage and exit 0.  Every usage error is a
ParseError with no position, so it exits 2.

The table reads syntax only: option names, flags, words and integers.
The integer options are read by `rationals.read_integer`, in the ASCII
digits 0-9 only, so each fails as "bad --count: 'x' is not an
integer".  What a value may be is checked by the code that uses it:
`SampleBox` checks --k, --pin and the box bounds, `_cli_sample`
--count, `_cli_ec` the op and --bound, and `_cli_analyze` the --units
entries.  Expressions are read by the grammar of `parser`, and every
other number by `rationals`: --coeffs, `ec --curve` and `ec` points by
`read_rationals`, to the grammar's digit limit, and `ec multiple`'s n
and the --units entries by `read_integer`.

This module is the front end only: the option table, the usage text,
`_parse_args` and `main`.  Each subcommand's handler, with its text
output, is a module of its own, `_cli_analyze`, `_cli_sample` or
`_cli_ec`, which `main` imports by the subcommand's name, so a cold
call compiles no other subcommand's code.  No handler imports this
module: `python -m realcurves.cli` runs it as `__main__`, and an import
of `realcurves.cli` would compile it a second time.  --json output is
written by `_format.format_json`, so no call imports `json`.

At the top this module imports only the standard library, `errors` and
`rationals`, and each handler imports the modules it runs.  What a cold
call runs beside this module, `errors`, `rationals` and its handler,
and `_format` for --json:

* `ec`: `weierstrass` and `_record`, but not the curve grammar.
  `torsion` walks the point in integers there, and imports `fractions`
  only for an entry of --curve or the point that is not an integer;
  `add`, `double` and `multiple` run `elliptic` as well, whose group
  law imports `fractions`;
* `sample`: `sampling`, `eta`, `_certificates`, `elliptic`,
  `weierstrass`, `polys` and `_record`, but no curve spec and no closed
  rule, so neither `curves` nor `eta_rules`; `polys` runs for the
  quartic of each draw and its normal form, as `eta` decides on params
  alone without it;
* `analyze` on an input that does not parse: `parser`, and nothing
  more, as `parser` reaches `curves` and `polys` only for a parsed
  curve;
* `analyze` on a conic: `parser`, `curves` and the report's modules
  (`report`, `eta_rules`, `_certificates`, `cohomology`, `witt`,
  `picard`, `groups`, `_format` and `_record`), but not `polys`, which
  only y^2 = Q runs;
* `analyze` on y^2 = Q: `polys` too; a Q that is not square-free stops
  before the report.  Only a quartic runs `eta`, `elliptic` and
  `weierstrass`, and `eta` and `elliptic` import `fractions`: any other
  curve with integer coefficients, given by the grammar or by --coeffs,
  runs without it.

Output is deterministic: identical input and seed give byte-identical
output.  JSON layouts are documented in docs/schema.json.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import (HypothesisError, InternalInconsistencyError, OffCurveError,
                     ParseError, SingularCurveError)
from .rationals import read_integer

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4

_REQUIRED = object()
_FLAG = (None, False)

# Each subcommand's positionals, named by their attribute, in order, and
# its options, each with (reader, default).  A default of _REQUIRED
# makes one required.  The reader is str for a word or int for an
# integer, which `read_integer` reads; an option read by None is a flag,
# which takes no value, and the positional read by None takes every word
# left.  No value is checked here: its user checks it.
_COMMANDS = {
    "analyze": {"expression": (str, None), "--coeffs": (str, None),
                "--units": (str, "2"), "--json": _FLAG},
    "sample": {"--count": (int, _REQUIRED), "--seed": (int, 1), "--k": (int, None),
               "--amax": (int, 50), "--bmax": (int, 50), "--cmax": (int, 50),
               "--pin": (str, None), "--json": _FLAG},
    "ec": {"op": (str, _REQUIRED), "args": (None, ()),
           "--curve": (str, _REQUIRED), "--bound": (int, 12), "--json": _FLAG},
}

# each subcommand's usage and what it does, for -h and --help
_HELP = {
    "analyze": ("[EXPRESSION] [--coeffs a0,a1,...,ad] [--units N,...] [--json]",
                "full report for one curve, '<poly in x,y> = 0' or 'y^2 = <poly in x>',\n"
                "  or y^2 = a0 + a1*x + ... + ad*x^d by --coeffs: invariants, cohomology,\n"
                "  Witt group, eta, Pic_tors, the unit groups mod each --units entry\n"
                "  (default 2) and the level"),
    "sample": ("--count N [--seed N] [--k {0,2,4}] [--amax N] [--bmax N] [--cmax N]\n"
               "       [--pin {b=0,a=c}] [--json]",
               "eta frequencies over seeded random quartics; --pin forces a\n"
               "  coincidence locus instead of avoiding it"),
    "ec": ("--curve c2,c1,c0 {add,double,multiple,torsion} ARG... [--bound N] [--json]",
           "arithmetic on u^2 = v^3 + c2*v^2 + c1*v + c0; points are '(v,u)' or\n"
           "  'inf', multiple takes n first, torsion searches up to --bound (default 12)"),
}


def _usage(commands) -> str:
    return "\n".join(f"usage: realcurves {name} {_HELP[name][0]}\n  {_HELP[name][1]}"
                      for name in commands)


def _parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The subcommand and its values read off `argv` by `_COMMANDS`, as
    attributes named without dashes; None once `-h` or `--help` has
    printed the usage."""
    if argv[:1] in (["-h"], ["--help"]):
        print(_usage(_HELP))
        return None
    if not argv or argv[0] not in _COMMANDS:
        given = f"invalid subcommand {argv[0]!r}" if argv else "missing subcommand"
        raise ParseError(f"{given} (choose from {', '.join(_COMMANDS)})")
    command, words = argv[0], iter(argv[1:])
    table = _COMMANDS[command]
    values = {name: default for name, (_, default) in table.items()}
    positionals: list[str] = []
    for word in words:
        if word == "--":
            positionals.extend(words)
        elif word in ("-h", "--help"):
            print(_usage([command]))
            return None
        elif word.startswith("--"):
            name, has_value, text = word.partition("=")
            if name not in table:
                raise ParseError(f"unknown option {name!r}")
            reader = table[name][0]
            if reader is None:
                if has_value:
                    raise ParseError(f"{name} takes no value")
                values[name] = True
                continue
            if not has_value:
                text = next(words, None)
            if text is None or text.startswith("--"):
                raise ParseError(f"{name} needs a value")
            values[name] = read_integer(text, name) if reader is int else text
        else:
            positionals.append(word)
    for name, (reader, _) in table.items():
        if name.startswith("--") or not positionals:
            continue
        if reader is None:
            values[name], positionals = positionals, []
        else:
            values[name] = positionals.pop(0)
    if positionals:
        raise ParseError(f"unrecognized arguments: {' '.join(positionals)}")
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command,
                           **{name.lstrip("-"): value for name, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args is not None:
            # each subcommand's handler is a module of its own, which
            # imports what it runs, so a cold call compiles no other's
            import_module(f"._cli_{args.command}", __package__).run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at the exit
        return EXIT_OK
    except BrokenPipeError:
        # the reader stopped; the interpreter's own flush at exit would
        # fail again ("Exception ignored", exit 120), so it goes nowhere
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_OK
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (HypothesisError, OffCurveError, SingularCurveError) as err:
        print(f"hypothesis violation: {err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except InternalInconsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
