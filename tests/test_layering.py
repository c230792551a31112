"""Module layering: no ``supred`` module imports another module's private
names or reads another object's private attributes; what one module needs
from another is part of that module's public surface.  The package imports
nothing outside itself and the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "supred"


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} import {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert not offenders, offenders


def test_no_private_attribute_reads_across_objects():
    """Outside ``automata.py``, which owns the automaton's private tables,
    no module reads an underscore attribute of an object other than
    ``self``: what a reader needs, such as ``Automaton.succ`` or the arrays
    ``Lockstep`` keeps, is public surface."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "automata.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr.startswith("_") and not node.attr.endswith("__")
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, offenders


def test_no_unused_imports():
    """Every name a module (other than the package ``__init__``) imports is
    read somewhere in it or re-exported through its ``__all__``."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, read, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported |= {elt.value for elt in node.value.elts}
        offenders += [f"{path.name}: {name}" for name in sorted(imported - read - exported)]
    assert not offenders, offenders


def test_every_private_definition_is_read():
    """Every private (``_name``) function, method or class defined in the
    package is read somewhere in it, as a name or an attribute: a helper
    that nothing calls any more is deleted, not left behind."""
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    offenders = [f"{where}: {name}" for name, where in defined if name not in read]
    assert not offenders, offenders


def test_runtime_imports_are_stdlib_only():
    """Every absolute import names a standard-library module and every
    relative one stays inside the package: ``supred`` runs on the standard
    library alone."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            elif isinstance(node, ast.ImportFrom):
                if node.level > 1:
                    offenders.append(f"{path.name}:{node.lineno}: leaves the package")
                continue
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in modules
                          if name.split(".")[0] not in sys.stdlib_module_names]
    assert not offenders, offenders
