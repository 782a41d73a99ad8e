"""Count the code lines of each module of ``src/eulergamma``.

A code line is a line that is not blank, not a comment and not part of a
docstring (the string that opens a module, class or function body).  Lines
inside any other string, or after code on the same line as a comment, count.

Usage: python tools/code_lines.py [PACKAGE_DIR]

Prints one line per module, largest first, then the total.
"""

import ast
import sys
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eulergamma"


def _docstring_lines(tree):
    """The line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python ``source`` text."""
    docstrings = _docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


def main(argv):
    package = Path(argv[1]) if len(argv) > 1 else DEFAULT_PACKAGE
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:12} {count:6,}")
    print(f"{'total':12} {sum(counts.values()):6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
