"""One slot writer for every record.

A frozen record's `__setattr__` raises, so its constructor hands its
values to `Record._init`, the one writer past that guard.  This walks
the syntax tree of each module of src/realcurves/ and fails on any
reference to `object.__setattr__` outside `_record.py`, which would be
a second way of writing a record."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "realcurves"
WRITER_MODULE = "_record"


def find_setattr(path: Path) -> list[str]:
    """`module.py:line` of each `object.__setattr__` in the module."""
    return [f"{path.stem}.py:{line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object")]


def test_no_object_setattr_outside_the_record_module():
    found = [line for path in sorted(PACKAGE.glob("*.py")) if path.stem != WRITER_MODULE
             for line in find_setattr(path)]
    assert not found, "object.__setattr__ outside _record.py: " + ", ".join(found)


def test_the_finder_sees_calls_and_aliases(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("_set = object.__setattr__\n\n\nclass A:\n"
                      "    def __init__(self, v):\n"
                      "        object.__setattr__(self, 'v', v)\n"
                      "        self.__setattr__('w', v)\n")
    assert find_setattr(module) == ["sample.py:1", "sample.py:6"]
