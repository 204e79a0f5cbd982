"""Count the library's code lines per module and in total.

A code line is a physical line that holds a token of code: blank lines,
comment-only lines and docstring lines (the string that opens a module,
class or function body) are not counted.  A line inside a multi-line
string that is not a docstring counts, as does each line of a statement
that spans several.

    python tools/code_lines.py            # src/cachedlstm
    python tools/code_lines.py DIR ...    # the *.py files of each DIR
"""

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of the docstrings of a module and of its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="*", default=[os.path.join(ROOT, "src", "cachedlstm")])
    args = parser.parse_args(argv)
    total = 0
    for d in args.dirs:
        for name in sorted(f for f in os.listdir(d) if f.endswith(".py")):
            with open(os.path.join(d, name), encoding="utf-8") as f:
                n = code_lines(f.read())
            total += n
            print(f"{n:6d}  {os.path.relpath(os.path.join(d, name))}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
