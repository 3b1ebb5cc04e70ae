"""Every name a module imports is read somewhere in that module."""
import ast
from pathlib import Path

import pytest

import rlsched

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
