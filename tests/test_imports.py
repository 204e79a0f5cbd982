"""Every name a library module imports is used in that module, and every
op that ``autodiff`` exports is imported by another library module.

Lines marked ``# noqa: F401`` are exempt from the first check: they import
a name on purpose, for code that patches it there.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cachedlstm"


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or any(
                    "# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, unused


def test_every_autodiff_op_has_a_library_caller():
    # The op set holds only what the library itself uses; an op that only
    # tests need belongs with the tests.
    from cachedlstm import autodiff

    imported = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("__init__.py", "autodiff.py"):  # re-exports and the definitions
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "autodiff":
                imported.update(alias.name for alias in node.names)
    assert sorted(set(autodiff.__all__) - imported) == []
