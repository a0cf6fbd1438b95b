"""Every name a fedcef module imports is used in that module, so a change
that deletes the last use of a name also deletes its import."""

import ast
import os

import pytest

import fedcef

SRC = os.path.dirname(os.path.abspath(fedcef.__file__))
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _imports(tree: ast.Module):
    """(name, line) of every name an import binds, leaving out `from
    __future__` imports and the imports under `if TYPE_CHECKING:`, which only
    annotations use."""
    typing_only = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and isinstance(block.test, ast.Name) and block.test.id == "TYPE_CHECKING"
        for node in ast.walk(block)
    }
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, and the names its `__all__` exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    with open(os.path.join(SRC, module)) as fh:
        tree = ast.parse(fh.read(), module)
    used = _used(tree)
    assert [f"{module}:{line}: {name}" for name, line in _imports(tree) if name not in used] == []
