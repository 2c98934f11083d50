"""Source hygiene: every name a module imports is used in that module, and
every definition in the package has a reader outside the tests."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hfgames"
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


def _references(tree, module: str) -> Counter:
    """The references under tree, a node of module's code, by key:
    ``(module, name)`` for a name it reads or a name imported from a module
    of that last dotted component, ``(prefix, attr)`` for ``prefix.attr``,
    and ``(None, attr)`` for every attribute read."""
    refs: Counter = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            refs[module, n.id] += 1
        elif isinstance(n, ast.ImportFrom) and n.module:
            refs.update((n.module.rsplit(".", 1)[-1], alias.name) for alias in n.names)
        elif isinstance(n, ast.Attribute):
            refs[None, n.attr] += 1
            if isinstance(n.value, ast.Name):
                refs[n.value.id, n.attr] += 1
    return refs


def unused_definitions(modules: dict[str, str], others: list[str] = ()) -> list[str]:
    """The module-level functions, classes and constants, and the methods,
    of ``modules`` (source by module name) that no code refers to outside
    their own definition; ``others`` holds the sources of the rest of the
    code.  A module-level name is used when its module reads it, or another
    file imports it from that module or reads it as ``module.name``.  A
    method is used when any code reads an attribute of its name, whatever
    the object.  Dunder names are called implicitly and are not scanned."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    refs: Counter = Counter()
    for name, tree in trees.items():
        refs += _references(tree, name)
    for source in others:
        refs += _references(ast.parse(source), "")
    unused = []
    for module, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                defs.append(((module, node.name), node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [((None, m.name), f"{node.name}.{m.name}", m)
                         for m in node.body if isinstance(m, FUNCTIONS)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [((module, n.id), n.id, node)
                         for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        for key, label, node in defs:
            if key[1].startswith("__") and key[1].endswith("__"):
                continue
            if refs[key] <= _references(node, module)[key]:
                unused.append(f"{module}.{label} (line {node.lineno})")
    return unused


# oracles.py holds the brute-force references that the tests and ``verify``
# check against: it is read like the rest, but not scanned.
SCANNED = {p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "oracles.py"}
READERS = [(PACKAGE / "oracles.py").read_text(),
           *(p.read_text() for d in ("perfbench", "scripts") for p in sorted((ROOT / d).glob("*.py")))]


def test_every_definition_has_a_reader():
    """What only tests call is not behaviour of the workbench."""
    assert unused_definitions(SCANNED, READERS) == []


def test_scan_flags_an_unused_definition():
    modules = {
        "m": (
            "import json\n\nLIMIT = 3\nSPARE = 4\n\n"
            "def used():\n    return LIMIT\n\n"
            "def unused(n):\n    return unused(n - 1)\n\n"
            "class K:\n    def __init__(self):\n        self.called()\n\n"
            "    def called(self):\n        return json\n\n"
            "    def spare(self):\n        return self.spare\n"
        ),
        "n": "from .m import K\nfrom . import m\n\nm.used()\n",
    }
    assert unused_definitions(modules) == [
        "m.SPARE (line 4)", "m.unused (line 9)", "m.K.spare (line 19)",
    ]


# Functions that must stay iterative: a formula built in code may be nested
# far deeper than Python's recursion limit.
ITERATIVE = [
    "size",
    "free_vars",
    "to_text",
    "_render",
    "eval_formula",
    "eval_instance",
    "skolem_witness",
    "satisfiers",
    "_mask",
    "_pred_mask",
]
ITERATIVE_UNIVERSE = ["_depth_first", "find_cycle", "check_wellfounded", "topological_order"]
ITERATIVE_ETR = ["_relativize", "transitive_closure", "descending_tree"]
ITERATIVE_TRUTHGAMES = [
    "interrogator_search",
    "_futility_certificate",
    "_single_pass",
    "_line_count",
    "_probe",
    "_read_marks",
    "HonestTeller._by_clauses",
]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _called_names(node, cls=None) -> set[str]:
    """The names node calls; inside class cls, self.m(...) calls "cls.m"."""
    out = set()
    for n in ast.walk(node):
        if not isinstance(n, ast.Call):
            continue
        if isinstance(n.func, ast.Name):
            out.add(n.func.id)
        elif cls and isinstance(n.func, ast.Attribute):
            if getattr(n.func.value, "id", None) == "self":
                out.add(f"{cls}.{n.func.attr}")
    return out


def _definitions(tree) -> tuple[dict, dict]:
    """Module-level functions by name and methods by "Class.method", and
    the class of each method."""
    defs, classes = {}, {}
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, FUNCTIONS):
                    key = f"{node.name}.{method.name}"
                    defs[key], classes[key] = method, node.name
    return defs, classes


def recursive_functions(source: str) -> set[str]:
    """Module-level functions and methods that can reach themselves through
    calls by name or through ``self``, or that hold a nested function that
    can reach itself.  A nested function's calls count as its owner's too."""
    defs, classes = _definitions(ast.parse(source))
    # Graph keys: a function or "Class.method", or (owner, name) for a
    # nested function.
    calls: dict = {}
    for name, node in defs.items():
        inner = {n.name: n for n in ast.walk(node) if isinstance(n, FUNCTIONS) and n is not node}
        for key, fn in [(name, node), *(((name, k), n) for k, n in inner.items())]:
            calls[key] = {
                (name, c) if c in inner else c
                for c in _called_names(fn, classes.get(name))
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


def test_universe_walks_do_not_recurse():
    recursive = recursive_functions((PACKAGE / "universe.py").read_text())
    assert recursive.isdisjoint(ITERATIVE_UNIVERSE), sorted(recursive & set(ITERATIVE_UNIVERSE))


def test_etr_walks_do_not_recurse():
    recursive = recursive_functions((PACKAGE / "etr.py").read_text())
    assert recursive.isdisjoint(ITERATIVE_ETR), sorted(recursive & set(ITERATIVE_ETR))


def test_truthgames_search_does_not_recurse():
    recursive = recursive_functions((PACKAGE / "truthgames.py").read_text())
    assert recursive.isdisjoint(ITERATIVE_TRUTHGAMES), sorted(recursive & set(ITERATIVE_TRUTHGAMES))


@pytest.mark.parametrize(
    "module, names",
    [
        ("logic", ITERATIVE),
        ("universe", ITERATIVE_UNIVERSE),
        ("etr", ITERATIVE_ETR),
        ("truthgames", ITERATIVE_TRUTHGAMES),
    ],
)
def test_iterative_lists_name_real_functions(module, names):
    """A renamed function must not drop out of the recursion scan unseen."""
    defs, _ = _definitions(ast.parse((PACKAGE / f"{module}.py").read_text()))
    assert [name for name in names if name not in defs] == []


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_referee_clock_reads_no_history():
    """The referee checks each round's clock against the round before it and
    reads the status off the last round; neither rescans the transcript."""
    tree = ast.parse((PACKAGE / "truthgames.py").read_text())
    (referee,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RefereeState"]
    methods = {n.name: n for n in referee.body if isinstance(n, FUNCTIONS)}
    for name in ("status", "_check_clock"):
        assert [type(n).__name__ for n in ast.walk(methods[name]) if isinstance(n, LOOPS)] == [], name


def test_cached_formula_facts_are_reads():
    """size and free_vars, and the logic functions they call, read what each
    node caches at construction; a loop in any of them would turn a cached
    fact back into a walk of the formula."""
    defs, _ = _definitions(ast.parse((PACKAGE / "logic.py").read_text()))
    todo, seen = ["size", "free_vars"], set()
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        assert [type(n).__name__ for n in ast.walk(defs[name]) if isinstance(n, LOOPS)] == [], name
        todo.extend(_called_names(defs[name]))
    assert seen >= {"size", "free_vars", "_node"}


def test_truthgames_reads_follow_ups_off_the_instance():
    """FormulaInstance.parts and FormulaInstance.witness_body are the only
    places the truth games get a sub-instance or a witness body from; the
    referee, drivers and tellers read them off the instance.  So does
    tarski_check for the parts of a negation or conjunction.  The readers
    that compare or rebuild bindings read the tuple, not the assignment dict."""
    tree = ast.parse((PACKAGE / "truthgames.py").read_text())
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    names = [(getattr(n.func, "id", None) or getattr(n.func, "attr", None), n.lineno) for n in calls]
    assert [(name, line) for name, line in names if name in ("sub_instance", "instantiate")] == []
    logic_defs, _ = _definitions(ast.parse((PACKAGE / "logic.py").read_text()))
    assert "sub_instance" not in _called_names(logic_defs["tarski_check"])
    defs, _ = _definitions(tree)
    for name in ("_is_instantiation", "_presearch_pool"):
        reads = [n.attr for n in ast.walk(defs[name]) if isinstance(n, ast.Attribute)]
        assert "assignment" not in reads, name


def _violation_kinds(node) -> list[str]:
    """The kinds, as written, of the TarskiViolation calls under node."""
    return [
        ast.literal_eval(n.args[0])
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "TarskiViolation"
    ]


def test_connective_clauses_judged_in_one_place():
    """The referee builds negation and conjunction violations only in
    RefereeState._check_connective, which judges both the new mark and
    every marked instance around it."""
    tree = ast.parse((PACKAGE / "truthgames.py").read_text())
    (referee,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RefereeState"]
    methods = {n.name: n for n in referee.body if isinstance(n, FUNCTIONS)}
    check = methods["_check_connective"]

    def connective(node) -> list[str]:
        return sorted(k for k in _violation_kinds(node) if k in ("negation", "conjunction"))

    assert set(connective(check)) == {"negation", "conjunction"}
    assert connective(tree) == connective(check)


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


def test_recursion_scan_follows_methods():
    source = (
        "class K:\n"
        "    def m(self, n):\n        return self.m(n - 1)\n\n"
        "    def p(self, n):\n        return self.q(n)\n\n"
        "    def q(self, n):\n        return top(n)\n\n"
        "    def r(self, n):\n        return len(n)\n\n"
        "def top(n):\n    return K().p(n)\n"
    )
    # top reaches K.p only through an instance, which the scan does not follow.
    assert recursive_functions(source) == {"K.m"}


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


def _paper_map_rows() -> list[str]:
    """The body rows of the README's paper-to-code table."""
    section = (ROOT / "README.md").read_text().split("## Paper-to-code map", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return rows[2:]


def test_paper_map_names_real_functions_and_criteria():
    """Every backticked module.name in the README's paper-to-code map
    resolves in the package, and every criterion it cites has its test, so
    a rename cannot leave the map pointing nowhere."""
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    criteria = set(re.findall(r"^def test_criterion_(\d+)_", acceptance, re.M))
    rows = _paper_map_rows()
    assert len(rows) == 7
    unresolved, uncited = [], []
    for row in rows:
        names = re.findall(r"`([a-z_]+)\.([A-Za-z_][\w.]*)`", row)
        cited = re.findall(r"criterion (\d+)", row)
        assert names and cited, row
        for module, path in names:
            obj = importlib.import_module(f"hfgames.{module}")
            for attr in path.split("."):
                obj = getattr(obj, attr, None)
            if obj is None:
                unresolved.append(f"{module}.{path}")
        uncited += [n for n in cited if n not in criteria]
    assert unresolved == [] and uncited == []
