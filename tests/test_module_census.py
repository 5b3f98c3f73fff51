"""Module census: every ``src/repro`` module has a caller outside tests.

A module that only its own tests and a package ``__init__`` re-export
reach is dead weight: it still has to be kept working by every refactor,
yet nothing the system runs depends on it. This check AST-walks the
code that *runs* — ``src/``, ``benchmarks/`` and ``examples/`` — and
resolves each ``from repro.pkg import Name`` through the package
``__init__`` chain to the module that defines ``Name``. Imports written
in a package ``__init__`` are re-exports, not uses, so they reach
nothing on their own.

Modules that legitimately have no importer are listed in
:data:`ALLOWLIST`, each with the reason it stays.
"""

from __future__ import annotations

import ast
import functools
import pathlib
from typing import Dict, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

ALLOWLIST: Dict[str, str] = {
    "repro.__main__": "entry point run by `python -m repro`; never imported",
    "repro.core.failover": (
        "§4.2.1 controller fault tolerance (primary/backup replay), the "
        "consumer the control-plane op log is built for"
    ),
}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@functools.lru_cache(maxsize=None)
def _modules() -> Dict[str, pathlib.Path]:
    """Every module and package under ``src/repro``, by dotted name."""
    return {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}


def _is_package(name: str) -> bool:
    path = _modules().get(name)
    return path is not None and path.name == "__init__.py"


@functools.lru_cache(maxsize=None)
def _reexports(package: str) -> Dict[str, Tuple[str, str]]:
    """``Name -> (source module, source name)`` for a package ``__init__``."""
    tree = ast.parse(_modules()[package].read_text())
    table: Dict[str, Tuple[str, str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                table[alias.asname or alias.name] = (node.module, alias.name)
    return table


def _resolve(module: str, name: str) -> str:
    """The module ``from module import name`` actually reaches."""
    for _ in range(16):  # re-export chains are a few hops deep
        submodule = f"{module}.{name}"
        if submodule in _modules():
            return submodule
        if not _is_package(module) or name not in _reexports(module):
            return module
        module, name = _reexports(module)[name]
    raise AssertionError(f"re-export cycle at {module}.{name}")


def _reached() -> Set[str]:
    """Modules imported by running code (tests and re-exports excluded)."""
    reached: Set[str] = set()
    for root in CALLER_DIRS:
        for path in root.rglob("*.py"):
            if path.name == "__init__.py" and SRC in path.parents:
                continue  # package re-exports are not uses
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    reached.update(
                        a.name for a in node.names if a.name.startswith("repro")
                    )
                elif (
                    isinstance(node, ast.ImportFrom)
                    and node.level == 0
                    and (node.module or "").startswith("repro")
                ):
                    reached.update(_resolve(node.module, a.name) for a in node.names)
    return reached


def _candidates() -> Set[str]:
    return {name for name in _modules() if not _is_package(name)}


def test_every_module_has_a_caller_outside_tests():
    unreached = _candidates() - _reached() - set(ALLOWLIST)
    assert not unreached, (
        "modules reached only from tests or package re-exports — delete "
        "them, or add them to ALLOWLIST with a reason: "
        + ", ".join(sorted(unreached))
    )


def test_allowlist_is_not_stale():
    reached = _reached()
    for name in ALLOWLIST:
        assert name in _candidates(), f"{name} no longer exists"
        assert name not in reached, f"{name} has a caller now; drop it"


def test_resolver_follows_package_reexports():
    # repro -> repro.core -> repro.core.controller
    assert _resolve("repro", "JiffyController") == "repro.core.controller"
    # A submodule named directly is the module itself.
    assert _resolve("repro.telemetry", "demo") == "repro.telemetry.demo"
    # A name defined in the package __init__ stays there.
    assert _resolve("repro.telemetry", "get_registry") == "repro.telemetry"
