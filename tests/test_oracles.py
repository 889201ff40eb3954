"""The oracles judge the package by a second route, so they must not
reuse it: tests/oracles.py imports nothing from pulseforge."""

import ast

import oracles


def _imported_modules(source):
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_the_oracles_import_nothing_from_the_package():
    with open(oracles.__file__, encoding="utf-8") as fh:
        imported = _imported_modules(fh.read())
    assert "networkx" in imported
    assert not [name for name in imported
                if name.split(".")[0] in ("pulseforge", "")], imported
