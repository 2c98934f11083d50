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
    ``(None, attr)`` for every attribute read and ``("()", attr)`` for
    every call ``x.attr(...)``."""
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
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            refs["()", n.func.attr] += 1
    return refs


def _is_property(method) -> bool:
    return any(getattr(d, "id", None) == "property" for d in method.decorator_list)


def unused_definitions(modules: dict[str, str], others: list[str] = ()) -> list[str]:
    """The module-level functions, classes and constants, and the methods,
    of ``modules`` (source by module name) that no code refers to outside
    their own definition; ``others`` holds the sources of the rest of the
    code.  A module-level name is used when its module reads it, or another
    file imports it from that module or reads it as ``module.name``.  A
    method is used when any code calls it by name, ``x.name(...)``, whatever
    the object x; a property when any code reads an attribute of its name.
    Dunder names are called implicitly and are not scanned."""
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
                defs += [((None if _is_property(m) else "()", m.name), f"{node.name}.{m.name}", m)
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


def scanned_sources(package: Path) -> dict[str, str]:
    """The source, by module name, of each module of package whose
    definitions need a reader.  __init__.py is neither scanned nor read: a
    re-export is not a reader, so the package exports only what a command,
    a ``verify`` suite or the benchmark reads.  oracles.py holds the
    brute-force references that the tests and ``verify`` check against: it
    is read like the rest, but not scanned."""
    return {p.stem: p.read_text() for p in sorted(package.glob("*.py"))
            if p.name not in ("__init__.py", "oracles.py")}


READERS = [(PACKAGE / "oracles.py").read_text(),
           *(p.read_text() for d in ("perfbench", "scripts") for p in sorted((ROOT / d).glob("*.py")))]


def test_every_definition_has_a_reader():
    """What only tests call is not behaviour of the workbench."""
    assert unused_definitions(scanned_sources(PACKAGE), READERS) == []


def test_scan_flags_a_definition_only_the_package_exports(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import spare, used\n")
    (tmp_path / "m.py").write_text("def used():\n    return 1\n\ndef spare():\n    return 2\n")
    (tmp_path / "n.py").write_text("from .m import used\n")
    assert unused_definitions(scanned_sources(tmp_path)) == ["m.spare (line 4)"]


def test_scan_flags_an_unused_definition():
    modules = {
        "m": (
            "import json\n\nLIMIT = 3\nSPARE = 4\n\n"
            "def used():\n    return LIMIT\n\n"
            "def unused(n):\n    return unused(n - 1)\n\n"
            "class K:\n    def __init__(self):\n        self.called()\n\n"
            "    def called(self):\n        return json\n\n"
            "    def spare(self):\n        return self.spare\n\n"
            "    def width(self):\n        return 2\n\n"
            "    @property\n    def height(self):\n        return 3\n"
        ),
        # K().width is read as a data attribute, never called: it does not
        # use the method.  A property is used by a read.
        "n": "from .m import K\nfrom . import m\n\nm.used()\nK().width + K().height\n",
    }
    assert unused_definitions(modules) == [
        "m.SPARE (line 4)", "m.unused (line 9)", "m.K.spare (line 19)", "m.K.width (line 22)",
    ]


def _defaulted_parameters(tree) -> list[tuple]:
    """``(callee, parameter, position, label)`` for each parameter with a
    default of each function and method under tree.  The callee is the name
    a call uses: the class's for ``__init__``.  The position is where a call
    passes the parameter positionally, past a method's ``self``; None for a
    keyword-only one."""
    owner = {m: c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for m in c.body if isinstance(m, FUNCTIONS)}
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS):
            continue
        cls, a = owner.get(fn), fn.args
        label = f"{cls}.{fn.name}" if cls else fn.name
        callee = cls if fn.name == "__init__" else fn.name
        bound = cls is not None and "staticmethod" not in [getattr(d, "id", None) for d in fn.decorator_list]
        positional = a.posonlyargs + a.args
        for k in range(len(positional) - len(a.defaults), len(positional)):
            out.append((callee, positional[k].arg, k - bound, label))
        out += [(callee, arg.arg, None, label)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
    return out


def _calls(sources: list[str]) -> dict[str, list]:
    """Per callee name, what each call passes: ``(positional count, keyword
    names)``, or None for a call that spreads ``*args`` or ``**kwargs``.
    ``rec.call(label, fn, *args, **kwargs)`` is also a call of fn."""
    calls: dict = {}
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if not isinstance(n, ast.Call):
                continue
            targets = [(n.func, n.args)]
            if getattr(n.func, "attr", None) == "call" and len(n.args) >= 2:
                targets.append((n.args[1], n.args[2:]))
            for func, args in targets:
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                spread = any(isinstance(x, ast.Starred) for x in args) or any(k.arg is None for k in n.keywords)
                calls.setdefault(name, []).append(None if spread else (len(args), {k.arg for k in n.keywords}))
    return calls


def unpassed_defaults(modules: dict[str, str], callers: list[str]) -> list[str]:
    """The defaulted parameters of the functions and methods of ``modules``
    (source by module name) that no call in ``callers`` passes, by keyword
    or at its position.  A call matches on the callee's name alone,
    whatever module or object it goes through, so a name shared by two
    callees (the builtin ``next`` and a method ``next``) can only hide a
    parameter that no call passes, never flag one that a call does."""
    calls = _calls(callers)
    unpassed = []
    for module, source in modules.items():
        for callee, param, position, label in _defaulted_parameters(ast.parse(source)):
            if not any(c is None or param in c[1] or (position is not None and c[0] > position)
                       for c in calls.get(callee, ())):
                unpassed.append(f"{module}.{label}({param})")
    return unpassed


def caller_sources(root: Path) -> list[str]:
    """The code whose calls count: the package, oracles.py included, the
    benchmark and the scripts; never the tests."""
    return [p.read_text() for d in ("src/hfgames", "perfbench", "scripts")
            for p in sorted((root / d).glob("*.py"))]


def test_every_default_has_a_caller():
    """A default that only tests override is a setting of the tests, not of
    the workbench.  ``main``'s ``argv`` is the one exception: the tests run
    the CLI in process through it.  Calls match by name alone, so a name
    shared by two callees can make the scan miss a parameter, never flag
    one that a call passes."""
    flagged = unpassed_defaults(scanned_sources(PACKAGE), caller_sources(ROOT))
    assert flagged == ["cli.main(argv)"]


def test_scan_flags_a_default_only_a_test_passes(tmp_path):
    for d in ("src/hfgames", "perfbench", "tests"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "src/hfgames/m.py").write_text(
        "def tuned(n, width=2):\n    return n * width\n\n"
        "def timed(n, limit=3):\n    return min(n, limit)\n\n"
        "class K:\n    def __init__(self, n, step=1):\n        self.n = tuned(n) + timed(n)\n"
    )
    (tmp_path / "perfbench/workloads.py").write_text(
        "def run(rec):\n    K(1, step=2)\n    return rec.call('m.timed', timed, 5, limit=4)\n"
    )
    (tmp_path / "tests/test_m.py").write_text("assert tuned(1, width=3) == 3\n")
    sources = scanned_sources(tmp_path / "src/hfgames")
    assert unpassed_defaults(sources, caller_sources(tmp_path)) == ["m.tuned(width)"]


# Functions that must stay iterative: a formula built in code may be nested
# far deeper than Python's recursion limit.
ITERATIVE = [
    "size",
    "free_vars",
    "to_text",
    "substitute",
    "substitute_each",
    "_substituted",
    "_plan",
    "_build",
    "instantiation_witness",
    "shape",
    "eval_instance",
    "skolem_witness",
    "satisfiers",
    "_mask",
    "_pred_mask",
    "_guard_of",
]
ITERATIVE_UNIVERSE = ["_sorter", "find_cycle", "check_wellfounded", "topological_order"]
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
    """An instance's parts (its ``parts``, or the node's own slots) and its
    ``witness_body`` are the only places the truth games get a sub-instance
    or a witness body from; the referee, drivers and tellers read them off
    the instance and never substitute themselves.  So does
    tarski_check, for the parts of a negation or conjunction and for the
    instantiations of an existential.  The presearch pool builds its
    negations from the instance's closed formula, not its assignment."""
    tree = ast.parse((PACKAGE / "truthgames.py").read_text())
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    names = [(getattr(n.func, "id", None) or getattr(n.func, "attr", None), n.lineno) for n in calls]
    assert [(name, line) for name, line in names if name in ("sub_instance", "instantiate", "substitute")] == []
    logic_defs, _ = _definitions(ast.parse((PACKAGE / "logic.py").read_text()))
    assert _called_names(logic_defs["tarski_check"]).isdisjoint({"sub_instance", "instantiate"})
    defs, _ = _definitions(tree)
    reads = [n.attr for n in ast.walk(defs["_presearch_pool"]) if isinstance(n, ast.Attribute)]
    assert "assignment" not in reads


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


WEAK_MODULES = ("weakref", "_weakref")
WEAK_MAKERS = {"ref", "proxy", "KeyedRef", "WeakMethod", "WeakSet", "WeakKeyDictionary",
               "WeakValueDictionary", "finalize"}


def weak_reference_sites(modules: dict[str, str]) -> list[str]:
    """``module.function`` (``module.<module>`` outside any function, a
    method as ``module.Class.method``) of each call in modules that makes a
    weak reference: of a maker of ``weakref`` or ``_weakref``, reached
    through the module or imported by name, or of a class of the same
    module that subclasses one, however deep."""
    sites = []
    for module, source in modules.items():
        tree = ast.parse(source)
        through = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                   for a in n.names if a.name in WEAK_MODULES}
        makers = {a.asname or a.name for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) and n.module in WEAK_MODULES
                  for a in n.names if a.name in WEAK_MAKERS}

        def makes(func) -> bool:
            if isinstance(func, ast.Attribute):
                return getattr(func.value, "id", None) in through and func.attr in WEAK_MAKERS
            return getattr(func, "id", None) in makers

        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        grown = True
        while grown:
            found = {c.name for c in classes if any(makes(b) for b in c.bases)}
            grown = not found <= makers
            makers |= found
        parent = {child: n for n in ast.walk(tree) for child in ast.iter_child_nodes(n)}
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and makes(call.func):
                names, n = [], parent[call]
                while n in parent:
                    if isinstance(n, (*FUNCTIONS, ast.ClassDef)):
                        names.append(n.name)
                    n = parent[n]
                sites.append(".".join([module, *reversed(names)] if names else [module, "<module>"]))
    return sorted(sites)


def test_weak_references_made_only_by_the_intern_table():
    """The package keeps one weak table, with one callback: ``logic._intern``
    is the one place that makes a weak reference."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert weak_reference_sites(sources) == ["logic._intern"]


def test_weak_reference_scan_flags_every_maker():
    source = (
        "import weakref as w\nfrom _weakref import ref\nfrom weakref import WeakSet, _remove_dead_weakref\n\n"
        "class Keyed(w.ref):\n    __slots__ = ('key',)\n\n"
        "class Deeper(Keyed):\n    pass\n\n"
        "TABLE = w.WeakValueDictionary()\n\n"
        "def plain(x):\n    return ref(x)\n\n"
        "def keyed(x):\n    def inner():\n        return Deeper(x)\n    return Keyed(x), inner\n\n"
        "class K:\n    def m(self):\n        return WeakSet()\n\n"
        "def spared(d, k):\n    _remove_dead_weakref(d, k)\n    return w.getweakrefcount(k), dict(d)\n"
    )
    other = "import weakref\n\nclass Keyed:\n    pass\n\ndef fine():\n    return Keyed(), weakref.getweakrefs(1)\n"
    assert weak_reference_sites({"m": source, "n": other}) == [
        "m.<module>", "m.K.m", "m.keyed", "m.keyed.inner", "m.plain",
    ]


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
