"""tools/code_lines.py, which counts the package's code lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _code_lines_module():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# A comment line.
import math


class Record:
    """Class docstring."""

    size = 2  # a code line that ends in a comment


def area(r):
    """Function docstring,

    with a blank line inside."""
    text = """a string
that is not a docstring"""
        # an indented comment
    return math.pi * r * r, text
'''


def test_counts_code_but_not_docstrings_comments_or_blanks():
    # import, class, size, def, the two lines of text, return
    assert _code_lines_module().code_lines(SOURCE) == 7


def test_main_prints_a_total_equal_to_the_sum_of_its_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = 2  # two\n", encoding="utf-8")
    assert _code_lines_module().main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a", "7"], ["b", "2"], ["total", "9"]]
