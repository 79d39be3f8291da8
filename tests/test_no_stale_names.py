"""Every public module-level function or class under src/realcurves/ has
a reader: some code in src/ names it outside its own definition, it is
exported in `realcurves.__all__`, or the benchmark's tracer names it.
A helper that only the tests call belongs in tests/oracles.py."""

import ast
import runpy
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


def test_every_public_definition_has_a_reader():
    traced = runpy.run_path(str(SPANS), run_name="perfbench_spans")["TRACED"]
    kept = {tuple(dotted.split(".")[:2]) for dotted in traced}
    exported = set(realcurves.__all__)
    read: set[str] = set()
    defined: list[tuple[str, str]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                read |= _names_read(node, skip=node.name)
                if not node.name.startswith("_"):
                    defined.append((path.stem, node.name))
            else:
                read |= _names_read(node)
    stale = [f"{module}.{name}" for module, name in defined
             if name not in read and name not in exported
             and (module, name) not in kept]
    assert not stale, f"public names with no reader in src/: {stale}"
