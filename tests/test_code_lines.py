"""``tools/code_lines.py``, which counts the library's code lines, on a
fixture whose count is known."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Code lines are marked "# code" or "code" below; each other line is blank,
# a comment or part of a docstring.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # code


class A:  # code
    """Class docstring."""

    x = 1  # code

    def f(self,  # code
          y):  # code
        """Method docstring.

        Still the docstring.
        """
        # A comment-only line.
        s = """not a docstring,
        so each of its lines is code"""
        return os.sep + s + str(y)  # code
'''


def test_counts_a_fixture_of_known_size(tmp_path):
    (tmp_path / "mod.py").write_text(FIXTURE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "code_lines.py"),
                          str(tmp_path)], capture_output=True, text=True, check=True)
    lines = [line.split() for line in out.stdout.splitlines()]
    assert [(n, os.path.basename(path)) for n, path in lines] == [
        ("0", "empty.py"), ("8", "mod.py"), ("8", "total")]
