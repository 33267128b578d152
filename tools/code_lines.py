#!/usr/bin/env python3
"""Count the code lines of the sylpipe package, module by module.

A code line is a line of a module that is not blank, not a comment (its
first non-blank character is "#") and not part of a docstring: the first
statement of the module, of a class or of a function, when it is a string.
Any other string, however many lines it spans, is code.

    python tools/code_lines.py              # every src/sylpipe/*.py
    python tools/code_lines.py FILE...      # the given files
"""

import ast
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sylpipe")

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The numbers of the lines that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of a module's source text."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or sorted(
        glob.glob(os.path.join(PACKAGE, "*.py")))
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d}  {os.path.relpath(path, ROOT)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
