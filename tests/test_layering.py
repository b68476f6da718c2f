"""The package's modules import one another only bottom up, in the order
the package docstring lists them."""

import ast
import re
from pathlib import Path

import pytest

import dropgcn

PACKAGE = Path(dropgcn.__file__).resolve().parent
ORDER = ("sparsemat", "graph", "dropedge", "autodiff", "optim", "models", "spectral",
         "training", "cli")


def package_imports(path):
    """The package modules that the module at `path` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dropgcn."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("dropgcn.")}
    return found


def test_docstring_lists_the_modules_bottom_up():
    doc = dropgcn.__doc__
    listed = doc[doc.index("bottom up"):]
    places = [re.search(rf"\b{name}\b", listed).start() for name in ORDER]
    assert places == sorted(places)
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("name", ORDER)
def test_module_imports_only_earlier_modules(name):
    earlier = set(ORDER[:ORDER.index(name)])
    assert package_imports(PACKAGE / f"{name}.py") <= earlier


def test_graph_and_autodiff_stand_low():
    # graph reads only the matrix dialect; autodiff needs nothing of the
    # package, so a sparse input never passes through SparseMatrix there.
    assert package_imports(PACKAGE / "graph.py") == {"sparsemat"}
    assert package_imports(PACKAGE / "autodiff.py") == set()
