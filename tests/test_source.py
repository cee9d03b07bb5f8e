"""Checks on the package source: every module-level import in
``src/featslam`` is read by its module or listed in its ``__all__``."""

import ast
from pathlib import Path

import pytest

import featslam

SOURCES = sorted(Path(featslam.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of source that it never
    reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    bound, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read - exported)


def test_checker_finds_unused_names():
    source = (
        "import os\n"
        "import numpy as np\n"
        "import scipy.sparse\n"
        "from dataclasses import dataclass, field\n"
        "from .geometry import Pose\n"
        "__all__ = ['Pose']\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
    )
    assert unused_imports(source) == ["field", "os", "scipy"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
