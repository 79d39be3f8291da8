"""tools/code_lines.py: the `tokenize` count of code lines."""

import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment


def f(a,
      b):
    """A function docstring."""
    # a comment line
    return os.path.join(
        a,
        b,
    )
'''


def test_counts_code_lines_only():
    code_lines = runpy.run_path(str(TOOL))["code_lines"]
    # `import os`, the two lines of `def f(`, and the four of the call
    assert code_lines(SNIPPET) == 7


def test_a_string_inside_code_counts_every_line_it_spans():
    code_lines = runpy.run_path(str(TOOL))["code_lines"]
    assert code_lines('x = """one\ntwo\nthree"""\n"""lone"""\n') == 3


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text('"""only a docstring"""\n\n# and a comment\n')
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n") == ["a                7", "b                0",
                               "total            7", ""]
