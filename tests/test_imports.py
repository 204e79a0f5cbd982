"""Every name a library module imports is used in that module, every op
that ``autodiff`` exports is imported by another library module, and every
public module-level function and class of the library has a caller.

Lines marked ``# noqa: F401`` are exempt from the first check: they import
a name on purpose, for code that patches it there.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cachedlstm"


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


def _references(statements) -> set:
    """Names, attribute names and identifier strings the statements mention.

    Strings count because code that patches a name gives it as a string;
    an ``__all__`` list does not, since exporting a name is not using it.
    """
    refs = set()
    for stmt in statements:
        if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in stmt.targets):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return refs


def test_every_public_definition_has_a_caller():
    # A public function or class is used by the library, a demo, the
    # benchmark or the acceptance gate; code that only other tests reach
    # belongs with those tests.  ``__init__``'s re-exports do not count.
    library = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    callers = (sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    bodies = {p: ast.parse(p.read_text(encoding="utf-8")).body for p in library + callers}
    unused = []
    for path in library:
        others = _references(s for p, body in bodies.items() if p != path for s in body)
        for i, stmt in enumerate(bodies[path]):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            rest = bodies[path][:i] + bodies[path][i + 1:]
            if stmt.name not in others and stmt.name not in _references(rest):
                unused.append(f"{path.name}: {stmt.name}")
    assert not unused, unused
