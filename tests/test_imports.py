"""Every name a qmfc module imports is used in it, and every private
top-level function or class is used somewhere in the package: a parse of
each module with ast, in place of a linter."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qmfc"


def imported_names(tree):
    """{bound name: line} of every import statement in the tree."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def references(node):
    """How often each name is read in the tree: as a name, or as an attribute (module._name)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_definition_is_used(path):
    # a helper that only tests call, or nothing, is referenced in no module
    # outside its own definition
    package = sum((references(ast.parse(p.read_text())) for p in SRC.glob("*.py")), Counter())
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
              and package[node.name] == references(node)[node.name]]
    assert not unused, f"{path.name} defines private names the package never uses: {unused}"
