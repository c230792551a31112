"""Module layering: no ``supred`` module imports another module's private
names; what one module needs from another is part of that module's public
surface."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "supred"


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} import {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert not offenders, offenders
