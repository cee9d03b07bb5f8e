"""Checks on the package source: every module-level import in
``src/featslam`` is read by its module or listed in its ``__all__``, every
name in an ``__all__`` is bound by its module, every public function, class
and constant is read by the package or ``bench/``, so none exists only for
a test, no function gives a module config a default, so a stage runs only
with the config it is handed, every exception class the package defines is
one ``featslam run`` reports, and the package under test is the first one
on ``PYTHONPATH``."""

import ast
import importlib
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import featslam

SOURCES = sorted(Path(featslam.__file__).parent.glob("*.py"))


def exports(tree: ast.Module) -> set:
    """The names listed in a module's ``__all__``, empty without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of source that it never
    reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read - exports(tree))


def _defined(node) -> list:
    """The names a module-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unbound_exports(source: str) -> list:
    """Names listed in the ``__all__`` of source that no module-level
    import, def, class or assignment binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        else:
            bound |= set(_defined(node))
    return sorted(exports(tree) - bound)


def _annotation_names(node) -> set:
    """Every name an annotation mentions, string annotations included."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names |= _annotation_names(ast.parse(n.value, mode="eval"))
    return names


def config_defaults(source: str) -> list:
    """``function.parameter`` for every parameter of source that has a
    default and an annotation naming a ``*Config`` class; ``X | None`` and
    ``Optional[X]`` count."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):]
        defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for arg in defaulted:
            if arg.annotation is not None and any(
                name.endswith("Config") for name in _annotation_names(arg.annotation)
            ):
                found.append(f"{fn.name}.{arg.arg}")
    return sorted(found)


def test_checker_finds_config_defaults():
    source = (
        "from typing import Optional\n"
        "def f(scan, cfg: FooConfig | None = None): pass\n"
        "def g(a: int = 0, config: Optional[mod.BarConfig] = None, b: float = 1.0): pass\n"
        "def h(x, *, c: 'FooConfig' = FooConfig()): pass\n"
        "class S:\n"
        "    def __init__(self, cfg: FooConfig, n: int = 3): pass\n"
        "def k(cfg: FooConfig, other: Configurable = None): pass\n"
    )
    assert config_defaults(source) == ["f.cfg", "g.config", "h.c"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_config_defaults(path):
    assert config_defaults(path.read_text()) == []


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


def test_checker_finds_stale_exports():
    source = (
        "from .geometry import Pose\n"
        "import numpy as np\n"
        "X: int = 1\n"
        "A, B = 2, 3\n"
        "def f(): pass\n"
        "class C: pass\n"
        "__all__ = ['Pose', 'Rotation', 'np', 'X', 'A', 'B', 'f', 'C', 'g']\n"
    )
    assert unbound_exports(source) == ["Rotation", "g"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exports_are_bound(path):
    assert unbound_exports(path.read_text()) == []


def _reads(node) -> set:
    """Names that code under node reads: loaded names and attributes and
    the names of ``from`` imports."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            found |= {a.name for a in n.names}
    return found


def unread_public_names(package: dict, others=()) -> list:
    """``module.name`` for each public function, class and constant bound at
    module level in the sources of package (module name -> source) that no
    code in package or others reads outside its own definition.  An
    ``__all__`` entry is not a read."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    outside = set().union(*(_reads(ast.parse(source)) for source in others))
    unread = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(r for m, r in reads.items() if m != module))
        for statement in tree.body:
            public = [name for name in _defined(statement) if not name.startswith("_")]
            if public:
                read = elsewhere.union(*(_reads(s) for s in tree.body if s is not statement))
                unread += [f"{module}.{name}" for name in public if name not in read]
    return sorted(unread)


def test_checker_finds_unread_public_names():
    package = {
        "a": (
            "import numpy as np\n"
            "LIMIT = 3\n"
            "_HIDDEN = 1\n"
            "def f(x):\n"
            "    return f(x - 1) if x else LIMIT\n"
            "class C:\n"
            "    def m(self) -> C:\n"
            "        return C()\n"
            "def g(): pass\n"
            "H, K = 1, 2\n"
            "__all__ = ['C', 'H', 'LIMIT', 'f', 'g']\n"
        ),
        "b": "from a import g\nimport a\nprint(a.C, K)\nSPARE = 0\n",
    }
    assert unread_public_names(package, ["from b import SPARE as S\n"]) == ["a.H", "a.f"]
    assert unread_public_names(package) == ["a.H", "a.f", "b.SPARE"]


def test_public_names_are_read_by_the_package_or_bench():
    # no public function, class or constant exists only for a test
    bench = Path(__file__).resolve().parent.parent / "bench"
    package = {p.stem: p.read_text() for p in SOURCES}
    others = [p.read_text() for p in sorted(bench.glob("*.py"))]
    assert unread_public_names(package, others) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exceptions_are_reported_by_the_cli(path):
    # cli.main turns ValueError and OSError into a message and exit code 1
    name = "featslam" if path.stem == "__init__" else f"featslam.{path.stem}"
    module = importlib.import_module(name)
    defined = [cls for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__ and issubclass(cls, BaseException)]
    assert [cls.__name__ for cls in defined
            if not issubclass(cls, (ValueError, OSError))] == []


def test_package_under_test_is_the_first_on_pythonpath():
    # a checkout named in PYTHONPATH is the one tested; this checkout's src
    # is what a plain ``pytest`` falls back to
    roots = [Path(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    roots.append(Path(__file__).resolve().parent.parent / "src")
    first = next(r for r in roots if (r / "featslam" / "__init__.py").is_file())
    assert Path(featslam.__file__).resolve().parent == (first / "featslam").resolve()


def test_pythonpath_checkout_is_tested(tmp_path):
    shutil.copytree(Path(featslam.__file__).parent, tmp_path / "featslam",
                    ignore=shutil.ignore_patterns("__pycache__"))
    check = f"{Path(__file__).resolve()}::test_package_under_test_is_the_first_on_pythonpath"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", check],
        cwd=Path(__file__).resolve().parent.parent,
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
