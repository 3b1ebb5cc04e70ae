"""Every name a module imports is read somewhere in that module, no module
imports another's private names, and every exported name resolves."""
import ast
from pathlib import Path

import pytest

import rlsched
import rlsched.nn

SRC = Path(rlsched.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names the module's import statements bind, `__future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def read_names(tree):
    """Every name the module reads, those inside string annotations too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield from read_names(ast.parse(part.value, mode="eval"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = set(imported_names(tree)) - set(read_names(tree))
    assert not unread, f"{path.name} imports names it never reads: {sorted(unread)}"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_module_imports_no_private_rlsched_name(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "rlsched")
        for alias in node.names
        if is_private(alias.name)
    ]
    assert not private, f"{path.name} imports private names: {private}"


@pytest.mark.parametrize("package", [rlsched, rlsched.nn],
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, f"{package.__name__}.__all__ names {missing}"
