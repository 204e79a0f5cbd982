"""Every name a library module imports is used in that module, every op
that ``autodiff`` exports is imported by another library module, every
public module-level function and class of the library has a caller, and so
does every public method and property of a library class.  The library's
modules form one stack: each imports only modules below it, at its top.
The recurrent kernel in ``cells`` makes no ``np.where`` or ``np.copyto``
select over padded positions, and calls its step function from one loop.

Lines marked ``# noqa: F401`` are exempt from the first check only when
every name they import is one that ``perfbench/tracer.py`` patches in that
module (a ``TRACE_POINTS`` entry): such a name is imported on purpose, for
the tracer, although the module does not call it.
"""

import ast
import collections
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cachedlstm"
LIBRARY = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
CALLERS = (sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])
TRACER = ROOT / "perfbench" / "tracer.py"


def _trace_points() -> set:
    """(module name, attribute) of each patch point in the tracer's ``TRACE_POINTS``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(getattr(owner, "__name__", None), attr) for owner, attr, _ in tracer.TRACE_POINTS}


def test_no_unused_imports():
    patched = _trace_points()
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
            if getattr(node, "module", None) == "__future__":
                continue
            marked = any("# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if marked and (f"cachedlstm.{path.stem}", name) not in patched:
                    unused.append(f"{path.name}:{node.lineno}: {name} is marked "
                                  "# noqa: F401, but the tracer does not patch it here")
                elif not marked and name not in used:
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
    bodies = {p: ast.parse(p.read_text(encoding="utf-8")).body for p in LIBRARY + CALLERS}
    unused = []
    for path in LIBRARY:
        others = _references(s for p, body in bodies.items() if p != path for s in body)
        for i, stmt in enumerate(bodies[path]):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            rest = bodies[path][:i] + bodies[path][i + 1:]
            if stmt.name not in others and stmt.name not in _references(rest):
                unused.append(f"{path.name}: {stmt.name}")
    assert not unused, unused


def _member_reads(node) -> collections.Counter:
    """Attribute names read, and identifier strings, under an AST node."""
    return collections.Counter(
        n.attr if isinstance(n, ast.Attribute) else n.value for n in ast.walk(node)
        if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.Constant) and isinstance(n.value, str)))


def test_every_public_member_has_a_caller():
    # The same rule for the public methods and properties of library
    # classes.  A member counts as used when some code outside its own
    # definition reads it as an attribute or names it in a string; plain
    # names do not count, since members share names with common locals.
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in LIBRARY + CALLERS]
    reads = sum((_member_reads(tree) for tree in trees), collections.Counter())
    unused = []
    for path, tree in zip(LIBRARY, trees):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for member in cls.body:
                if (isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                        and reads[member.name] == _member_reads(member)[member.name]):
                    unused.append(f"{path.name}: {cls.name}.{member.name}")
    assert not unused, unused


# The library's modules, lowest first.
LAYERS = ["autodiff", "schema", "data", "cells", "encoder", "model", "evaluation",
          "training", "serialize", "gradcheck", "cli"]


def _package_imports(node) -> list:
    """The package modules an import statement names ([] for other imports)."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return [node.module] if node.module else [a.name for a in node.names]
        if node.module and node.module.split(".")[0] == "cachedlstm":
            return node.module.split(".")[1:2] or [a.name for a in node.names]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.startswith("cachedlstm.")]
    return []


def test_modules_form_one_stack():
    # A module imports package modules only at its top and only from
    # modules earlier in LAYERS, so there is no import cycle and no
    # function-level import that hides one.
    assert sorted(LAYERS) == sorted(p.stem for p in LIBRARY)
    wrong = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        below = LAYERS[:LAYERS.index(path.stem)]
        for node in ast.walk(tree):
            for module in _package_imports(node):
                if id(node) not in top:
                    wrong.append(f"{path.name}:{node.lineno}: imports {module} inside a body")
                elif module not in below:
                    wrong.append(f"{path.name}:{node.lineno}: imports {module}, "
                                 f"which is not below it")
    assert not wrong, wrong


def test_only_model_config_directions_spells_the_direction_prefixes():
    # Which recurrent runs a model has, and their tensor-name prefixes, is
    # decided in ``ModelConfig.directions``; everything else loops over it.
    # Docstrings may name the prefixes.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                exempt.add(id(node.body[0].value))
            if isinstance(node, ast.ClassDef) and node.name == "ModelConfig":
                exempt.update(id(n) for member in node.body
                              if getattr(member, "name", None) == "directions"
                              for n in ast.walk(member))
        found += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in exempt and ("fwd." in node.value or "bwd." in node.value)]
    assert not found, found


def test_the_kernel_makes_no_masked_selects():
    # A padded step runs only on the rows real there, so ``cells`` has no
    # per-step ``np.where`` or ``np.copyto`` select over padded columns.
    tree = ast.parse((SRC / "cells.py").read_text(encoding="utf-8"))
    found = [f"cells.py:{node.lineno}: np.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("where", "copyto")
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert not found, found


@pytest.mark.parametrize("name,sites", [("_step", 1), ("_two_cpus", 1)])
def test_the_kernel_has_one_step_loop(name, sites):
    # Training, scoring and the helper run one kernel, ``cells._run``: the
    # step function has exactly one call site in the library.  Training
    # and scoring run the second direction in one place, ``cells._second``,
    # which alone asks ``cells._two_cpus`` whether the helper may run it.
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == name]
    assert len(calls) == sites, calls
