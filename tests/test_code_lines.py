"""tools/code_lines.py's counts on a small module and on this checkout."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

# A comment line.
import math


class Error(ValueError):
    """Class docstring."""


class Late(Error):
    pass


class Plain:
    pass


def f(x):
    """Function docstring."""
    text = """a string that is
    not a docstring"""  # a trailing comment keeps the line
    return math.sqrt(x), text
'''


def test_counts_on_small_module():
    tree = ast.parse(SOURCE)
    # The import, three class lines and two passes, the def, both lines
    # of the string assignment, and the return.
    assert code_lines.code_lines(SOURCE, tree) == 10
    assert code_lines.exception_classes([tree]) == {"Error", "Late"}
    assert code_lines.public_names(ast.parse("__all__ = ['a', 'b']\n")) == ["a", "b"]


def test_totals_on_checkout():
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT)],
                         capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    assert lines[-2:] == ["__all__ names: 75", "exception classes: 20"]
    total = lines[-3].split()
    wc = sum(p.read_text(encoding="utf-8").count("\n")
             for p in (ROOT / "src" / "dstrig").glob("*.py"))
    assert total[0] == "total" and int(total[1]) == wc
