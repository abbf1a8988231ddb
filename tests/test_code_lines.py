"""``scripts/code_lines.py`` counts code lines: not blank lines, comments
or docstrings."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        s = """a string that is
        not a docstring"""
        return (x +
                1)
'''


def test_counts_code_lines_only():
    # import, class, def, the two-line assignment, the two-line return
    assert code_lines.code_lines(SNIPPET) == 7
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""only a docstring"""\n') == 0
    assert code_lines.code_lines('x = 1\n"""a string statement"""\ny = f("s")\n') == 2


def test_reports_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n") == ["     7 a.py", "     1 b.py", "     8 total", ""]
