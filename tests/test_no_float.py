"""No floating point in the core.

Every number under src/realcurves/ is an int or a Fraction.  This walks
the syntax tree of each module and fails on a true division (`/` or
`/=`), which makes a float of two ints, or a float literal, outside
the allow-list below.  The allow-list counts the occurrences in each
function, so one more in an allowed function fails as well."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "realcurves"

# (module, function, what): how many
ALLOWED = Counter({
    # the percentages of `sample`'s text output
    ("_cli_sample", "run", "division"): 1,
    ("_cli_sample", "run", "float literal"): 1,
})


class _FloatFinder(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.found: Counter[tuple[str, str, str]] = Counter()
        self.lines: list[str] = []

    def _note(self, node: ast.AST, what: str) -> None:
        where = ".".join(self.scope) or "<module>"
        self.found[(self.module, where, what)] += 1
        self.lines.append(f"{self.module}.py:{node.lineno} {what} in {where}")

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div):
            self._note(node, "division")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Div):
            self._note(node, "division")
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, (float, complex)):
            self._note(node, "float literal")


def find_floats(path: Path) -> _FloatFinder:
    finder = _FloatFinder(path.stem)
    finder.visit(ast.parse(path.read_text(), str(path)))
    return finder


def test_no_division_or_float_literal_outside_the_allow_list():
    found: Counter = Counter()
    lines: list[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        finder = find_floats(path)
        found += finder.found
        lines += finder.lines
    unexpected = found - ALLOWED
    assert not unexpected, (f"floating point in the core: {dict(unexpected)}\n"
                            + "\n".join(lines))


def test_the_finder_sees_divisions_and_floats(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def f(a, b):\n    a /= b\n    return a / b + 0.5\n"
                      "X = 1e3\n")
    assert find_floats(module).found == Counter({
        ("sample", "f", "division"): 2, ("sample", "f", "float literal"): 1,
        ("sample", "<module>", "float literal"): 1})
