"""Every public name under src/realcurves/ has a reader.

A module-level function or class needs some code in src/ that names it
outside its own definition, an export in `realcurves.__all__`, or an
entry in the benchmark's tracer.  A public method, property or
classmethod of a class needs an attribute read of its name somewhere in
src/ outside its own definition, or a tracer entry.  A helper that only
the tests call belongs in tests/oracles.py."""

import ast
import runpy
from collections import Counter
from pathlib import Path

import realcurves

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "realcurves"
SPANS = ROOT / "perfbench" / "spans.py"


def _names_read(node: ast.AST, skip: str | None = None) -> set[str]:
    """Identifiers and attribute names read anywhere under node, except
    `skip`."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    found.discard(skip)
    return found


def _attributes_read(node: ast.AST) -> Counter[str]:
    """Attribute names read (load context) under node, with their counts."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute)
                   and isinstance(sub.ctx, ast.Load))


def _modules() -> list[tuple[str, ast.Module]]:
    return [(path.stem, ast.parse(path.read_text(), str(path)))
            for path in sorted(PACKAGE.glob("*.py"))]


def _traced() -> tuple[str, ...]:
    return runpy.run_path(str(SPANS), run_name="perfbench_spans")["TRACED"]


def test_every_public_definition_has_a_reader():
    kept = {tuple(dotted.split(".")[:2]) for dotted in _traced()}
    exported = set(realcurves.__all__)
    read: set[str] = set()
    defined: list[tuple[str, str]] = []
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                read |= _names_read(node, skip=node.name)
                if not node.name.startswith("_"):
                    defined.append((module, node.name))
            else:
                read |= _names_read(node)
    stale = [f"{module}.{name}" for module, name in defined
             if name not in read and name not in exported
             and (module, name) not in kept]
    assert not stale, f"public names with no reader in src/: {stale}"


def test_every_public_member_has_a_reader():
    kept = {tuple(dotted.split(".")) for dotted in _traced()}
    modules = _modules()
    read = sum((_attributes_read(tree) for _, tree in modules), Counter())
    stale = []
    for module, tree in modules:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if (not isinstance(member, ast.FunctionDef)
                        or member.name.startswith("_")
                        or (module, cls.name, member.name) in kept):
                    continue
                own = _attributes_read(member)[member.name]
                if read[member.name] == own:
                    stale.append(f"{module}.{cls.name}.{member.name}")
    assert not stale, f"public members with no reader in src/: {stale}"
