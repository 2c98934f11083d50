"""Source hygiene: every name a module imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hfgames"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Quoted forward references name classes too.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "from typing import Callable, Optional\nimport json\n\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["Callable (line 1)", "json (line 2)"]


# Functions that must stay iterative: a formula built in code may be nested
# far deeper than Python's recursion limit.
ITERATIVE = [
    "size",
    "free_vars",
    "to_text",
    "subst_closed",
    "eval_formula",
    "eval_instance",
    "skolem_witness",
    "satisfiers",
    "_mask",
    "_pred_mask",
]
ITERATIVE_ETR = ["_relativize", "transitive_closure"]
ITERATIVE_TRUTHGAMES = ["interrogator_search"]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _called_names(node) -> set[str]:
    return {
        n.func.id
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }


def recursive_functions(source: str) -> set[str]:
    """Module-level functions that can reach themselves through calls by
    name, or that hold a nested function that can reach itself.  A nested
    function's calls count as its owner's too."""
    tree = ast.parse(source)
    defs = {node.name: node for node in tree.body if isinstance(node, FUNCTIONS)}
    # Graph keys: a module-level name, or (owner, name) for a nested function.
    calls: dict = {}
    for name, node in defs.items():
        inner = {n.name: n for n in ast.walk(node) if isinstance(n, FUNCTIONS) and n is not node}
        for key, fn in [(name, node), *(((name, k), n) for k, n in inner.items())]:
            calls[key] = {
                (name, c) if c in inner else c
                for c in _called_names(fn)
                if c in inner or c in defs
            }
    out = set()
    for key in calls:
        seen, todo = set(), list(calls[key])
        while todo:
            callee = todo.pop()
            if callee not in seen:
                seen.add(callee)
                todo.extend(calls[callee])
        if key in seen:
            out.add(key if isinstance(key, str) else key[0])
    return out


def test_formula_functions_do_not_recurse():
    recursive = recursive_functions((PACKAGE / "logic.py").read_text())
    assert recursive.isdisjoint(ITERATIVE), sorted(recursive & set(ITERATIVE))


def test_etr_walks_do_not_recurse():
    recursive = recursive_functions((PACKAGE / "etr.py").read_text())
    assert recursive.isdisjoint(ITERATIVE_ETR), sorted(recursive & set(ITERATIVE_ETR))


def test_truthgames_search_does_not_recurse():
    recursive = recursive_functions((PACKAGE / "truthgames.py").read_text())
    assert recursive.isdisjoint(ITERATIVE_TRUTHGAMES), sorted(recursive & set(ITERATIVE_TRUTHGAMES))


def test_games_module_does_not_recurse():
    assert recursive_functions((PACKAGE / "games.py").read_text()) == set()


def test_recursion_scan_flags_self_and_mutual_calls():
    source = (
        "def a(n):\n    return a(n - 1)\n\n"
        "def b(n):\n    def inner():\n        return c(n)\n    return inner()\n\n"
        "def c(n):\n    return b(n)\n\n"
        "def d(n):\n    return len(n)\n\n"
        "def e(n):\n    def reach(k):\n        return reach(k - 1)\n    return reach(n)\n\n"
        "def f(n):\n    def g(k):\n        return h(k)\n    def h(k):\n        return k\n"
        "    return g(n)\n"
    )
    assert recursive_functions(source) == {"a", "b", "c", "e"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unbounded_module_caches(path):
    """Caches that grow with input live on the objects they serve."""
    tree = ast.parse(path.read_text())
    unbounded = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                text = ast.unparse(dec)
                if text in ("cache", "functools.cache") or "maxsize=None" in text:
                    unbounded.append(f"{node.name} (line {node.lineno})")
    assert unbounded == []
