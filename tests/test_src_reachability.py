"""Every module in ``src/repro/`` is reached from a program entry point.

Code whose only caller is a test belongs in ``tests/``.  This test follows
``import`` and ``from ... import`` statements statically (inside functions
too), starting from the command line (``repro/cli.py``,
``repro/__main__.py``), the serving benchmark (``servebench/*.py``), the
examples and the figure benchmarks (``benchmarks/*.py``), and asserts that
every module under ``src/repro/`` other than a package ``__init__`` is
reached.

A package ``__init__`` only routes names: ``from repro.core import
AtomLinear`` reaches ``repro/core/linear.py``, the module that defines
``AtomLinear``, and not the other modules the ``__init__`` re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_POINTS = (
    "src/repro/cli.py",
    "src/repro/__main__.py",
    "servebench/*.py",
    "examples/*.py",
    "benchmarks/*.py",
)


def _find(name: str) -> Path | None:
    """The file of module ``name`` (a package's ``__init__.py``), or None
    for a module outside the repository."""
    for base in (SRC, ROOT):
        path = base.joinpath(*name.split("."))
        if path.with_suffix(".py").is_file():
            return path.with_suffix(".py")
        if (path / "__init__.py").is_file():
            return path / "__init__.py"
    return None


def _package(path: Path) -> str:
    """The package a module's relative imports resolve against."""
    base = SRC if SRC in path.parents else ROOT
    return ".".join(path.parent.relative_to(base).parts)


def _absolute(node: ast.ImportFrom, path: Path) -> str:
    if not node.level:
        return node.module
    parts = _package(path).split(".")
    base = parts[: len(parts) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _resolve(module: str, name: str) -> Path | None:
    """The file that ``from module import name`` binds ``name`` from:
    a submodule, the module itself, or, through a package ``__init__``'s
    re-export, the module that defines ``name``."""
    sub = _find(f"{module}.{name}")
    if sub is not None:
        return sub
    path = _find(module)
    if path is None or path.name != "__init__.py":
        return path
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(_absolute(node, path), alias.name)
    return path


def _imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield _find(alias.name)
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node, path)
            for alias in node.names:
                if alias.name == "*":
                    yield _find(module)
                else:
                    yield _resolve(module, alias.name)


def reached_modules() -> set[Path]:
    todo = [p for pattern in ENTRY_POINTS for p in ROOT.glob(pattern)]
    seen: set[Path] = set()
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        todo.extend(
            p for p in _imports(path)
            if p is not None and p.name != "__init__.py"
        )
    return seen


def test_every_src_module_is_reached_from_an_entry_point():
    reached = reached_modules()
    unreached = sorted(
        str(p.relative_to(SRC))
        for p in (SRC / "repro").rglob("*.py")
        if p.name != "__init__.py" and p not in reached
    )
    assert not unreached, (
        "modules with no importer outside tests/ (move them into tests/ "
        f"or delete them): {unreached}"
    )


def test_reexport_alone_does_not_reach_a_module():
    """The walk routes ``from pkg import name`` to the defining module."""
    assert _resolve("repro.core", "AtomLinear") == SRC / "repro/core/linear.py"
    assert _resolve("repro.serving", "paged_kv") == (
        SRC / "repro/serving/paged_kv.py"
    )
    assert _resolve("numpy", "ndarray") is None
