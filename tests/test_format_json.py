"""`_format.format_json`, the command line's --json writer, against its
reference `json.dumps(value, indent=2)`: the same text for every value
the command line prints and for hand-made edge cases, and a TypeError
for any other type."""

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


@pytest.mark.parametrize("value", [
    # strs: the fast path's edges, the two-character escapes, the other
    # control characters, DEL, non-ASCII, astral and lone surrogates
    "", "plain ASCII ~ with spaces", 'a "quoted" word', "back\\slash",
    "\b\f\n\r\t", "\x00\x01\x1f", "\x7f", "café η ≠",
    "\U0001d53d \U0001f600", "\ud800 \udfff", "mixed\t\"é\\",
    # containers, empty and nested-empty, lists and tuples
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[[]], {"b": [{}]}],
    (1, (2, [3])), {"k": (True, None)},
    # the constants
    True, False, None, [True, False, None], {"t": True, "f": False, "n": None},
    # ints
    0, -1, 7, -(10**999), 10**999, [-(2**64), 2**64],
    # keys that need escaping, and insertion order
    {"z": 1, "a": 2, "é": 3, 'q"': 4, "": 5},
], ids=repr)
def test_hand_made_values(value):
    assert format_json(value) == _reference(value)


@pytest.mark.parametrize("value", [
    0.5, Fraction(1, 2), [1, 0.0], {"a": Fraction(3)}, {1: "int key"}, {None: 1},
    {1, 2}, b"bytes", object(),
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
