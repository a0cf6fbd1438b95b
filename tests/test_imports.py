"""Every name a fedcef module or a test module imports is used in that
module, so a change that deletes or moves the last use of a name also
deletes its import. A fedcef module imports only the standard library,
numpy and fedcef, the one dependency pyproject.toml declares. And no test
patches the engine's per-client oracle or local update by name."""

import ast
import os
import sys

import pytest

import fedcef
from tests._transcripts import PHASES

SRC = os.path.dirname(os.path.abspath(fedcef.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
# src modules by file name, test modules as tests/<file name>
MODULES = {name: os.path.join(SRC, name) for name in os.listdir(SRC) if name.endswith(".py")}
MODULES.update((f"tests/{name}", os.path.join(TESTS, name)) for name in os.listdir(TESTS) if name.endswith(".py"))


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


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_imported_name_is_used(module):
    with open(MODULES[module]) as fh:
        tree = ast.parse(fh.read(), module)
    used = _used(tree)
    assert [f"{module}:{line}: {name}" for name, line in _imports(tree) if name not in used] == []


@pytest.mark.parametrize("module", sorted(m for m in MODULES if not m.startswith("tests/")))
def test_src_imports_only_the_standard_library_and_numpy(module):
    """Every import in a fedcef module, `if TYPE_CHECKING:` blocks included,
    names a top-level package of the standard library, numpy or fedcef; a
    relative import is fedcef's own."""
    with open(MODULES[module]) as fh:
        tree = ast.parse(fh.read(), module)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append((node.module, node.lineno))
    allowed = sys.stdlib_module_names | {"numpy", "fedcef"}
    assert [f"{module}:{line}: {name}" for name, line in imported if name.split(".")[0] not in allowed] == []


# the engine's per-client oracle and local update: a block oracle or an
# all-client pass stops calling them, and no test may depend on those calls
ENGINE_CALLS = ("stochastic_gradient", "client_gradient", "local_update")


@pytest.mark.parametrize("module", sorted(m for m in MODULES if m.startswith("tests/")))
def test_no_test_patches_the_engine_oracle(module):
    """No test module sets one of ENGINE_CALLS on a namespace, by
    `setattr(owner, name, ...)`, `monkeypatch.setattr(owner, name, ...)` or a
    dotted `monkeypatch.setattr("module.name", ...)`."""
    with open(MODULES[module]) as fh:
        tree = ast.parse(fh.read(), module)
    assert [
        f"{module}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "setattr" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and any(isinstance(a, ast.Constant) and str(a.value).rsplit(".", 1)[-1] in ENGINE_CALLS for a in node.args[:2])
    ] == []


def test_transcripts_wrap_no_engine_call():
    assert [name for name in PHASES if name in ENGINE_CALLS] == []
