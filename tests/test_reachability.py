"""Every top-level function and class of ``src/repro`` has a non-test caller.

A name is *reached* when some non-test file names it outside its own
definition: another ``src/repro`` module, its own module (outside the
``def``/``class`` body), ``examples/``, ``benchmarks/``, ``perfbench/``,
the ``Makefile`` or ``.github/workflows/ci.yml``.  Package ``__init__``
re-exports, ``__all__`` lists, docstrings and comments do not count: a name
that only tests and re-exports mention is code no user runs.  Functions
registered by a decorator (``@scenario`` and the like) are reached through
their registry; dunder hooks are called by Python itself.

A name that has no caller but must stay goes into :data:`ALLOWED`, with the
reason it earns its place.  Anything else is deleted together with its tests.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "benchmarks", "perfbench")
CALLER_FILES = ("Makefile", ".github/workflows/ci.yml")

#: Decorators that wrap a function without registering it anywhere.
WRAPPERS = {
    "lru_cache", "cache", "wraps", "contextmanager", "asynccontextmanager",
    "staticmethod", "classmethod", "property", "dataclass", "overload",
}

#: ``module path (relative to src/repro) :: name`` -> why it stays.
ALLOWED: Dict[str, str] = {
    "core/bounds.py::stretch_lower_bound":
        "a paper lower bound, kept for checking every bound against exact optima",
    "core/bounds.py::divisible_makespan_lower_bound":
        "a paper lower bound, kept for checking every bound against exact optima",
    "experiments/ratio_checks.py::check_batch_ratio":
        "the batch transform's 2-rho guarantee, kept for the exact-optimum checks",
    "experiments/ratio_checks.py::check_smart_ratio":
        "the SMART-shelf guarantee, kept for the exact-optimum checks",
    "telemetry/bus.py::set_bus":
        "test seam: tests install a private process bus through it",
    "simulation/tracing.py::set_trace_tap":
        "test seam: the reference tap of tests/simulation/test_trace_storage.py",
    "telemetry/__init__.py::trace_tap":
        "the bus-backed tap set_trace_tap installs in the trace-storage tests",
    "distributed/protocol.py::parse_address":
        "test seam: the distributed tests open raw sockets at a tcp:// address",
    "core/job.py::MalleableJob":
        "the paper's malleable job model, exported by the top-level repro package",
    "simulation/cluster_sim.py::compare_policies":
        "library entry point, exported (lazily) by repro.simulation",
    "experiments/reporting.py::simulation_table":
        "library helper README's architecture map documents",
    "experiments/reporting.py::runs_table":
        "library helper README's architecture map documents",
    "telemetry/listener.py::CallbackListener":
        "README documents it for wrapping plain per-cell callbacks",
    "workload/swf.py::parse_swf_header":
        "public SWF API for reading an archive trace's header",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _strip_docstrings(tree: ast.AST) -> ast.AST:
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(body, list) and body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body[0] = ast.Pass()
    return tree


def _names_in(node: ast.AST) -> Set[str]:
    """Identifiers a node uses: names, attributes, imports and the
    identifiers inside string constants (lazy-import tables)."""

    out: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(_IDENTIFIER.findall(sub.value))
    return out


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _parse(path: Path) -> ast.Module:
    return _strip_docstrings(ast.parse(path.read_text(encoding="utf-8")))


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


def _registered(node: ast.stmt) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
        _decorator_name(d) not in WRAPPERS for d in node.decorator_list
    )


@functools.lru_cache(maxsize=None)
def unreached_names() -> Tuple[str, ...]:
    modules = {path: _parse(path) for path in sorted(PACKAGE.rglob("*.py"))}
    # Per module, the identifiers of each top-level statement (``__all__``
    # excluded), so a symbol's own body can be left out.
    statements: Dict[Path, List[Tuple[ast.stmt, Set[str]]]] = {
        path: [(node, _names_in(node)) for node in tree.body if not _is_all(node)]
        for path, tree in modules.items()
    }
    elsewhere: Dict[Path, Set[str]] = {
        path: set().union(*(names for _, names in stmts))
        for path, stmts in statements.items()
        if path.name != "__init__.py"
    }
    callers: Set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            callers |= _names_in(_parse(path))
    for name in CALLER_FILES:
        callers.update(_IDENTIFIER.findall((ROOT / name).read_text(encoding="utf-8")))

    unreached: List[str] = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or _registered(node):
                continue
            own = set().union(*(names for stmt, names in statements[path] if stmt is not node))
            if name in own or name in callers or any(
                name in names for other, names in elsewhere.items() if other != path
            ):
                continue
            unreached.append(f"{path.relative_to(PACKAGE).as_posix()}::{name}")
    return tuple(unreached)


def test_every_top_level_name_has_a_non_test_caller():
    orphans = [name for name in unreached_names() if name not in ALLOWED]
    assert not orphans, (
        "no example, benchmark, perfbench file, Makefile/CI step or other "
        f"source module names {orphans}: delete them with their tests, or "
        "give them a caller (or an ALLOWED entry with its reason)"
    )


def test_allowlist_holds_only_unreached_names():
    unreached = set(unreached_names())
    stale = sorted(name for name in ALLOWED if name not in unreached)
    assert not stale, f"ALLOWED entries that now have a caller or are gone: {stale}"


def test_registering_decorators_exempt_a_function_and_wrappers_do_not():
    tree = ast.parse(
        "@scenario('x')\ndef registered(): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef cached(): pass\n"
        "def plain(): pass\n"
    )
    assert [_registered(node) for node in tree.body] == [True, False, False]


def test_docstrings_do_not_count_as_callers_but_lazy_tables_do():
    tree = _strip_docstrings(ast.parse(
        '"""Mentions orphan in prose."""\n'
        "def f():\n    \"\"\"Also orphan.\"\"\"\n    return helper()\n"
        "_LAZY = {'Thing': 'pkg.module'}\n"
    ))
    names = _names_in(tree)
    assert "orphan" not in names
    assert {"helper", "Thing", "module"} <= names
