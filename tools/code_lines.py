"""Count the source lines of dstrig, per module.

    python3 tools/code_lines.py [<checkout>]

For each module of `<checkout>/src/dstrig` (default: the checkout holding
this script) it prints the lines as `wc -l` counts them, and the code
lines: those that hold a token which is neither a comment nor part of a
docstring (the string that opens a module, class or function body).
Blank lines are not code.  The last rows give the totals, the number of
names in `dstrig.__all__`, and how many of those names are exception
classes: classes of the package that derive, directly or through other
package classes, from a builtin exception.  (cli's own DocumentError is
not exported, so it is not counted.)
"""

from __future__ import annotations

import argparse
import ast
import builtins
import io
import sys
import tokenize
from pathlib import Path

# Builtin exception names a package class may derive from.
_BUILTIN_ERRORS = {name for name, obj in vars(builtins).items()
                   if isinstance(obj, type) and issubclass(obj, BaseException)}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str, tree: ast.Module) -> int:
    """Lines holding a token that is not a comment and not in a docstring."""
    skip = docstring_lines(tree)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def exception_classes(trees) -> set[str]:
    """Names of the package's classes that derive from a builtin exception."""
    bases = {node.name: {b.id if isinstance(b, ast.Name) else b.attr
                         for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))}
             for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    errors = set()
    grew = True
    while grew:
        grew = False
        for name, parents in bases.items():
            if name not in errors and parents & (_BUILTIN_ERRORS | errors):
                errors.add(name)
                grew = True
    return errors


def public_names(tree: ast.Module) -> list[str]:
    """The literal __all__ list or tuple of a module."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1],
                        help="repository checkout to count (default: this one)")
    args = parser.parse_args()
    package = args.checkout / "src" / "dstrig"
    modules = sorted(package.glob("*.py"))
    if not modules:
        sys.exit(f"no modules in {package}")
    total_wc = total_code = 0
    trees = []
    print(f"{'module':16s} {'wc -l':>6s} {'code':>6s}")
    for path in modules:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        trees.append(tree)
        wc, code = text.count("\n"), code_lines(text, tree)
        total_wc += wc
        total_code += code
        print(f"{path.name:16s} {wc:6d} {code:6d}")
    print(f"{'total':16s} {total_wc:6d} {total_code:6d}")
    names = public_names(ast.parse((package / "__init__.py").read_text(encoding="utf-8")))
    print(f"__all__ names: {len(names)}")
    print(f"exception classes: {len(exception_classes(trees).intersection(names))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
