"""`_format.format_json`, the command line's --json writer, against its
reference `json.dumps(value, indent=2)`: the same text for every value
the command line prints and for hand-made edge cases, a ValueError for
a str that would need an escape, and a TypeError for any other type."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from realcurves import SampleBox, _format, run_sample
from realcurves._format import format_json
from realcurves.cli import main

from test_golden import CASES as GOLDEN_CASES

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "realcurves"


def _reference(value) -> str:
    return json.dumps(value, indent=2)


@pytest.fixture
def written(monkeypatch):
    """The values the command line hands to the writer, in order."""
    values = []

    def spy(value):
        values.append(value)
        return format_json(value)

    monkeypatch.setattr(_format, "format_json", spy)
    return values


# every golden --json case: the analyze reports, two sample summaries and
# each ec op
@pytest.mark.parametrize("argv", [argv for argv in GOLDEN_CASES if "--json" in argv],
                         ids=" ".join)
def test_the_command_line_writes_what_json_dumps_writes(capsys, written, argv):
    assert main(list(argv)) == 0
    [value] = written
    assert capsys.readouterr().out == _reference(value) + "\n"


BOXES = {"generic": SampleBox(), "k=4": SampleBox(k=4), "b=0": SampleBox(pin="b=0"),
         "a=c": SampleBox(pin="a=c")}


@pytest.mark.parametrize("box", BOXES)
def test_sample_summaries_of_seeds_1_to_200(box):
    for seed in range(1, 201):
        value = {"command": "sample", **run_sample(5, seed, BOXES[box]).to_json()}
        assert format_json(value) == _reference(value), seed


# every printable ASCII character but '"' and '\\': all a str may hold
PRINTABLE = "".join(chr(code) for code in range(0x20, 0x7f) if chr(code) not in '"\\')
# strs that would need an escape: '"', '\\', the two-character escapes,
# the other control characters, DEL, non-ASCII, astral and lone surrogates
NEEDS_ESCAPE = ['a "quoted" word', "back\\slash", "\b\f\n\r\t", "\x00\x01\x1f", "\x7f",
                "café η ≠", "\U0001d53d \U0001f600", "\ud800 \udfff", "mixed\t\"é\\"]


def _cases(error, *values):
    return [pytest.param(value, error, id=repr(value)) for value in values]


@pytest.mark.parametrize("value, error", [
    # within the contract, written as json.dumps writes it: strs that need
    # no escape, containers, empty and nested-empty, the constants, ints
    *_cases(None, "", "plain ASCII ~ with spaces", PRINTABLE,
              [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[]], {"b": [{}]}],
              True, False, None, [True, False, None], {"t": True, "f": False, "n": None},
              0, -1, 7, -(10**999), 10**999, [-(2**64), 2**64],
              {"z": 1, "a": 2, PRINTABLE: 3, "": 4}),
    # a str that needs an escape, as a value or as a key, is a ValueError
    *_cases(ValueError, *NEEDS_ESCAPE, {"z": 1, "a": 2, "é": 3, 'q"': 4, "": 5}),
    # and a tuple, at any depth, a TypeError
    *_cases(TypeError, (), (1, (2, [3])), {"k": (True, None)}),
])
def test_hand_made_values(value, error):
    if error is None:
        assert format_json(value) == _reference(value)
    else:
        with pytest.raises(error):
            format_json(value)


@pytest.mark.parametrize("text", NEEDS_ESCAPE, ids=repr)
def test_a_str_that_needs_an_escape_is_a_value_error_anywhere(text):
    for value in ([1, text], {"k": [text]}, {text: 1}, {"k": {text: None}}):
        with pytest.raises(ValueError, match="not printable ASCII"):
            format_json(value)


@pytest.mark.parametrize("value", [
    0.5, Fraction(1, 2), [1, 0.0], {"a": Fraction(3)}, {1: "int key"}, {None: 1},
    {1, 2}, b"bytes", pytest.param(object(), id="object()"),
], ids=repr)
def test_any_other_type_is_a_type_error(value):
    with pytest.raises(TypeError):
        format_json(value)


def _absolute_imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_json():
    found = [f"{path.stem}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in _absolute_imports(ast.parse(path.read_text(), str(path)))
             if name.partition(".")[0] == "json"]
    assert not found
