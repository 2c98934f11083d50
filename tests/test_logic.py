import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgames import logic
from hfgames.errors import (
    InvariantError,
    MalformedInstanceError,
    NoWitnessError,
    ParseError,
    SignatureError,
)
from hfgames.logic import (
    MAX_NESTING,
    And,
    Const,
    Eq,
    Exists,
    Member,
    Not,
    Pred,
    SatisfactionClass,
    Structure,
    Var,
    build_truth_predicate,
    enumerate_formulas,
    enumerate_instances,
    eval_instance,
    free_vars,
    instance,
    instantiate,
    instantiation_witness,
    parse_closed,
    parse_formula,
    parse_instance,
    random_formula,
    random_instance,
    satisfiers,
    size,
    skolem_witness,
    sub_instance,
    subformulas,
    tarski_check,
    to_text,
)
from hfgames.universe import build_universe, universe_size

from hfgames import oracles
from hfgames.oracles import formula_facts, tarski_eval
from hfgames.truthgames import _bucket

V2 = Structure(build_universe(2))
V3 = Structure(build_universe(3))
V4 = Structure(build_universe(4))


class TestParser:
    def test_exists_membership(self):
        f = parse_formula("Ex. (x in #1)")
        assert f == Exists("x", Member(Var("x"), Const(1)))

    def test_negated_equality(self):
        assert parse_formula("!(#0 = #0)") == Not(Eq(Const(0), Const(0)))

    def test_unbalanced_paren_reports_position(self):
        with pytest.raises(ParseError, match="end of input"):
            parse_formula("Ex. (x in")

    def test_sugar_desugars(self):
        a, b = Member(Const(0), Const(1)), Eq(Const(0), Const(0))
        assert parse_formula("(#0 in #1) | (#0 = #0)") == Not(And(Not(a), Not(b)))
        assert parse_formula("(#0 in #1) -> (#0 = #0)") == Not(And(a, Not(b)))
        assert parse_formula("Ax. (x in #1)") == Not(
            Exists("x", Not(Member(Var("x"), Const(1))))
        )
        iff = parse_formula("(#0 in #1) <-> (#0 = #0)")
        assert iff == And(Not(And(a, Not(b))), Not(And(b, Not(a))))

    def test_edge_predicate(self):
        f = parse_formula("x <| y")
        assert f == Pred("<|", (Var("x"), Var("y")))

    def test_signature_checking(self):
        with pytest.raises(ParseError, match="unknown predicate"):
            parse_formula("Q(#0)", {"P": 1})
        with pytest.raises(ParseError, match="arity"):
            parse_formula("P(#0, #1)", {"P": 1})
        assert parse_formula("P(#0)", {"P": 1}) == Pred("P", (Const(0),))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Ey. (x in y)", r"free variables \['x'\]; bind or substitute them"),
            ("Ex. (x in #4)", "constant #4 outside the universe"),
            ("P(#0, #1)", "predicate 'P' expects arity 1"),
        ],
        ids=["free-variable", "constant-outside", "signature"],
    )
    def test_closed_reader_refusals(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_closed(text, {"P": 1}, V2.universe)

    def test_closed_reader_builds_the_instance(self):
        assert parse_closed("Ex. P(x)", {"P": 1}, V2.universe) is instance(parse_formula("Ex. P(x)"), {})

    def test_spaced_quantifier(self):
        assert parse_formula("E x . (x = x)") == parse_formula("Ex. (x = x)")

    def test_in_reserved(self):
        with pytest.raises(ParseError):
            parse_formula("Ein. (in = in)")

    def test_quantifier_greedy_body(self):
        f = parse_formula("Ex. (x = x) & (#0 = #0)")
        assert isinstance(f, Exists)
        assert isinstance(f.body, And)

    def test_round_trip_seeded(self):
        rng = random.Random(11)
        U = build_universe(3)
        for _ in range(1000):
            f = random_formula(rng, U, max_size=12)
            assert parse_formula(to_text(f)) == f

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_hypothesis(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, build_universe(3), max_size=14)
        assert parse_formula(to_text(f)) == f


class TestSizeAndVars:
    def test_size_counts_all_nodes(self):
        assert size(parse_formula("#0 in #1")) == 3
        assert size(parse_formula("!(#0 in #1)")) == 4
        assert size(parse_formula("Ex. (x in #1)")) == 4
        assert size(parse_formula("(#0 = #0) & (#1 = #1)")) == 7

    def test_free_vars(self):
        f = parse_formula("Ex. (x in y)")
        assert free_vars(f) == {"y"}
        assert free_vars(parse_formula("(x in y)")) == {"x", "y"}

    def test_subformulas_pre_order_left_first(self):
        f = parse_formula("!(#0 in #1) & Ex. (x = #0)")
        assert [to_text(g) for g in subformulas(f)] == [
            "(!(#0 in #1) & Ex. (x = #0))",
            "!(#0 in #1)",
            "(#0 in #1)",
            "Ex. (x = #0)",
            "(x = #0)",
        ]

    def test_subformulas_walks_deep_chain(self):
        atom = Member(Const(0), Const(1))
        f = atom
        for _ in range(3000):
            f = Not(f)
        nodes = list(subformulas(f))
        assert len(nodes) == 3001
        assert nodes[0] is f and nodes[-1] is atom

    @pytest.mark.parametrize(
        "text",
        [
            "!" * (MAX_NESTING - 1) + "(#0 in #1)",
            "Ex. " * (MAX_NESTING - 1) + "(#0 in x)",
            " & ".join(["(#0 in x)"] * MAX_NESTING),
        ],
        ids=["not", "exists", "and"],
    )
    def test_formula_at_nesting_limit(self, text):
        f = parse_formula(text)
        assert parse_formula(to_text(f)) == f
        assert size(f) >= MAX_NESTING
        assert formula_facts(f)[1] == MAX_NESTING
        assert free_vars(f) <= {"x"}
        env = {"x": 1} if free_vars(f) else {}
        assert eval_instance(V2, instance(f, env)) in (True, False)
        with pytest.raises(ParseError, match="nested deeper"):
            parse_formula("!" + text if text[0] == "!" else f"!({text})")

    def test_free_vars_cached_on_the_node(self):
        f = parse_formula("Ex. ((x in y) & !(z = x))")
        assert free_vars(f) == {"y", "z"}
        assert free_vars(f) is free_vars(f)
        assert free_vars(f.body) == {"x", "y", "z"}

    def test_deep_formula_built_in_code(self):
        # Built in code, so the parser's nesting limit does not apply.
        body = Member(Var("x"), Const(1))
        for _ in range(3000):
            body = Not(body)
        f = Exists("x", body)
        assert to_text(f) == "Ex. " + "!" * 3000 + "(x in #1)"
        assert size(f) == 1 + 3000 + 3
        assert free_vars(f) == set() and free_vars(body) == {"x"}
        assert to_text(instance(body, {"x": 0})) == "!" * 3000 + "(#0 in #1)"
        assert instance(f, {}) is f
        assert eval_instance(V2, instance(body, {"x": 0})) and not eval_instance(V2, instance(body, {"x": 1}))
        inst = instance(f, {})
        assert eval_instance(V2, inst)
        assert skolem_witness(V2, inst) == 0
        at_one = instance(body, {"x": 1})
        assert instantiation_witness(inst, at_one) == 1

    @pytest.mark.parametrize(
        "thing",
        [
            "abc", "(#0 in #1)", None, 3, Var("x"), Const(1),
            lambda: Not(Var("x")),
            lambda: And(Const(1), Member(Const(0), Const(1))),
        ],
    )
    def test_non_formula_arguments_raise(self, thing):
        # A node over a term is built inside pytest.raises: it must be
        # refused when it is built or when it is read.
        for fn in (to_text, size, free_vars):
            with pytest.raises(TypeError, match="not a formula"):
                fn(thing() if callable(thing) else thing)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Member(Not(Member(Const(0), Const(1))), Const(1)),
            lambda: Member(Const(0), "x"),
            lambda: Eq(Var("x"), Member(Const(0), Const(1))),
            lambda: Eq(0, Const(1)),
            lambda: Pred("P", (Var("x"), Member(Const(0), Const(1)))),
            lambda: Pred("P", (None,)),
        ],
    )
    def test_non_term_arguments_raise(self, build):
        # An atom over anything but a Var or a Const is refused when built,
        # and leaves nothing behind in the intern table.
        before = len(logic._interned)
        with pytest.raises(TypeError, match="not a term"):
            build()
        gc.collect()
        assert len(logic._interned) == before

    @staticmethod
    def cached_facts(f):
        return size(f), f._depth, f._preds

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_cached_facts_match_the_oracle(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, build_universe(2), max_size=16, signature={"P": 1, "Q": 2})
        assert self.cached_facts(f) == formula_facts(f)

    @given(
        st.recursive(
            st.sampled_from(["P(x)", "Q(x, #1)", "(#0 in y)", "(x = y)", "R(y)"]),
            lambda sub: st.one_of(
                st.tuples(st.sampled_from(["(%s | %s)", "(%s -> %s)", "(%s <-> %s)", "(%s & %s)"]), sub, sub)
                .map(lambda t: t[0] % t[1:]),
                st.tuples(st.sampled_from(["Ax. %s", "Ey. %s", "!%s"]), sub).map(lambda t: t[0] % t[1]),
            ),
            max_leaves=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_cached_facts_of_parsed_sugar_match_the_oracle(self, text):
        f = parse_formula(text, {"P": 1, "Q": 2, "R": 1})
        assert self.cached_facts(f) == formula_facts(f)

    def test_deep_formulas_compare_and_print(self):
        def chain(code):
            f = And(Member(Const(0), Const(code)), Exists("x", Pred("P", (Var("x"),))))
            for _ in range(3000):
                f = Not(f)
            return f

        a, b, c = chain(1), chain(1), chain(2)
        assert a is b and a == b and not a != b
        assert a != c and not a == c
        assert {a: 1}[b] == 1 and c not in {a: 1}
        assert (a == 3) is False and a != "a"
        assert repr(a) == "<Not " + "!" * 3000 + "((#0 in #1) & Ex. P(x))>"
        assert repr(Pred("P", (Var("x"), Const(2)))) == "<Pred P(x, #2)>"

    def test_instance_requires_cover(self):
        f = parse_formula("(x in y)")
        with pytest.raises(MalformedInstanceError):
            instance(f, {"x": 0})
        inst = instance(f, {"x": 0, "y": 1, "z": 9})
        assert inst is parse_instance("(#0 in #1)")


class TestInterning:
    """Each term, formula node and instance is built once: equal means
    identical, and the intern table holds only what is still in use."""

    SIG = {"P": 1, "Q": 2}

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(3, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_text_same_object(self, s1, s2, most, data):
        f = random_formula(random.Random(s1), V2.universe, most, self.SIG)
        g = random_formula(random.Random(s2), V2.universe, most, self.SIG)
        assert random_formula(random.Random(s1), V2.universe, most, self.SIG) is f
        assert parse_formula(to_text(f), self.SIG) is f
        assert (to_text(f) == to_text(g)) == (f is g)
        codes = st.integers(0, V2.universe.size - 1)
        a = {v: data.draw(codes) for v in sorted(free_vars(f))}
        again = {v: a[v] for v in reversed(sorted(a))}
        again["unused"] = 0
        assert instance(f, a) is instance(parse_formula(to_text(f), self.SIG), again)
        b = {v: data.draw(codes) for v in sorted(free_vars(f))}
        assert (instance(f, a) is instance(f, b)) == (a == b)

    def test_nodes_hold_only_their_slots(self):
        # 64-bit CPython: a pointer per slot, ``__weakref__`` included, over
        # the 16-byte object header; 8 bytes below a layout with a slot on
        # every node filled on first use.  A slot on _FormulaNode costs
        # every node of every class.
        sizes = {Member: 48, Eq: 48, Pred: 64, Not: 64, And: 72, Exists: 88}
        assert {cls: cls.__basicsize__ for cls in sizes} == sizes
        for f in (Member(Var("x"), Const(1)), Pred("P", (Const(0),)), parse_formula("Ex. !((x = x) & (x in #0))")):
            for g in subformulas(f):
                assert not hasattr(g, "__dict__"), type(g)

    def test_nodes_are_immutable(self):
        f = Not(Member(Var("x"), Const(1)))
        inst = instance(f, {"x": 0})
        for obj, name in ((Var("x"), "name"), (Const(1), "code"), (f, "body"), (inst, "bindings")):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(obj, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(obj, name)
        assert f.body is Member(Var("x"), Const(1)) and inst is Not(Member(Const(0), Const(1)))

    @pytest.mark.parametrize("code", [True, 1.0, -1, "a"], ids=["bool", "float", "negative", "str"])
    def test_const_refuses_what_is_not_a_code(self, code):
        # True and 1.0 hash and compare equal to 1, so a table lookup would
        # find the live Const(1) and print it as #True or #1.0.
        live = Const(1)
        with pytest.raises(InvariantError, match="non-negative int"):
            Const(code)
        assert Const(1) is live and to_text(Member(Const(1), Const(3))) == "(#1 in #3)"

    @given(st.integers(0, 2**70))
    @settings(max_examples=100, deadline=None)
    def test_printed_codes_read_back(self, code):
        f = Member(Const(code), Var("x"))
        assert parse_formula(to_text(f)) is f

    def test_copies_are_the_interned_object(self):
        f = parse_formula("Ex. (P(x) & !Q(x, #1))", self.SIG)
        for obj in (Var("x"), Const(1), f, f.body, instance(f.body, {"x": 1})):
            for copied in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert copied is obj

    def test_dropped_chain_leaves_the_table(self):
        # An atom no other test holds, so the chain's every node, instance
        # and part is a table miss whatever ran before.
        gc.collect()
        before = len(logic._interned)
        f = Member(Var("x"), Const(981))
        for _ in range(3000):
            f = Not(f)
        inst = instance(f, {"x": 0})
        assert inst.parts[0].parts[0] is instance(f.body.body, {"x": 0})
        assert len(logic._interned) > before + 3000
        del f, inst
        gc.collect()
        assert len(logic._interned) == before

    def test_an_entry_is_one_weak_reference_carrying_its_key(self):
        f = Not(Member(Var("x"), Const(982)))
        entry = logic._interned[(Not, f.body)]
        assert type(entry) is logic._Entry and isinstance(entry, weakref.ref)
        assert entry() is f and entry.key == (Not, f.body) and not hasattr(entry, "__dict__")
        assert entry.__callback__ is logic._interned[(Member, Var("x"), Const(982))].__callback__

    def test_the_callback_spares_a_live_entry(self):
        # A dead entry's callback drops its key only while the key maps to
        # a dead entry: never the live node's entry that replaced it.
        class Gone:
            pass

        gone = Gone()
        stale = logic._Entry(gone)
        stale.key = key = (Not, Member(Var("x"), Const(984)))
        del gone
        assert stale() is None
        logic._on_death(stale)  # the key is not in the table
        f = Not(key[1])
        live = logic._interned[key]
        logic._on_death(stale)
        assert logic._interned[key] is live and Not(key[1]) is f
        del f
        gc.collect()
        assert key not in logic._interned

    def test_a_new_node_costs_under_400_bytes(self):
        # Traced in a child that traces from its start, so a resize of the
        # table's dict frees what it allocated, and the dict's growth, which
        # can land on any run, is left out.  The parts are built first, so
        # only the 10,000 And nodes, their keys and entries are new.
        code = (
            "import sys, tracemalloc\n"
            "from hfgames import logic\n"
            "from hfgames.logic import And, Const, Member, Var\n"
            "base = Member(Var('x'), Const(0))\n"
            "parts = [Member(Var('x'), Const(c)) for c in range(1, 10_001)]\n"
            "table = sys.getsizeof(logic._interned)\n"
            "before = tracemalloc.get_traced_memory()[0]\n"
            "nodes = [And(base, part) for part in parts]\n"
            "traced = tracemalloc.get_traced_memory()[0] - before\n"
            "print((traced - sys.getsizeof(logic._interned) + table) / len(nodes))\n"
        )
        src = Path(logic.__file__).resolve().parent.parent
        child = subprocess.run([sys.executable, "-X", "tracemalloc", "-c", code], capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert child.returncode == 0, child.stderr
        assert float(child.stdout) < 400


class TestInstanceBuilding:
    """The constructor checks an instance once, when it is first built, and
    every derived instance is cut from its parent's bindings."""

    @pytest.mark.parametrize(
        "assignment",
        [
            {},
            {"x": 0},
            {"x": "0", "y": 1},
            {"x": 0.5, "y": 1},
            {"x": None, "y": 1},
            {"x": True, "y": 1},
        ],
        ids=["none", "missing", "str", "float", "None", "bool"],
    )
    def test_constructor_refuses_bad_bindings(self, assignment):
        # A formula no other test builds, so each call is a table miss.
        f = parse_formula("(x in y) & (#977 in #978)")
        with pytest.raises(MalformedInstanceError, match="one int code each"):
            instance(f, assignment)
        assert instance(f, {"y": 1, "x": 0}) is parse_instance("(#0 in #1) & (#977 in #978)")

    @pytest.mark.parametrize("code", [True, 1.0], ids=["bool", "float"])
    def test_non_int_code_refused_beside_a_live_instance(self, code):
        # True and 1.0 hash and compare equal to 1, so they find the live
        # instance in the table: the answer must not depend on it.
        f = parse_formula("(x in #979)")
        live = instance(f, {"x": 1})
        with pytest.raises(MalformedInstanceError, match="one int code each"):
            instance(f, {"x": code})
        assert instance(f, {"x": 1}) is live

    @pytest.mark.parametrize("text", ["Ex. (x in #980)", "Ex. (#0 in #980)"], ids=["live", "vacuous"])
    @pytest.mark.parametrize("code", [True, 1.0, 1.5, "a", None], ids=["bool", "float", "half", "str", "None"])
    def test_non_int_witness_refused_beside_a_cached_body(self, text, code):
        # The body at 1 is cached, and True and 1.0 equal 1; a vacuous
        # binder puts no code in the body's bindings, so only the witness
        # check sees it.
        ex = parse_instance(text)
        body = ex.witness_body(1)
        for build in (ex.witness_body, lambda c: instantiate(ex, "x", c)):
            with pytest.raises(MalformedInstanceError, match="is not an int code"):
                build(code)
        assert ex.witness_body(1) is body is instantiate(ex, "x", 1)
        assert list(ex._bodies) == [1]

    @pytest.mark.parametrize("text", ["#0 in #1", "!(#0 in #1)", "(#0 = #0) & (#0 in #1)"])
    def test_witness_body_of_a_non_existential_is_a_typed_error(self, text):
        inst = parse_instance(text)
        for build in (inst.witness_body, lambda c: instantiate(inst, "x", c)):
            with pytest.raises(MalformedInstanceError, match="not an existential"):
                build(0)

    def test_closed_formula_takes_no_bindings(self):
        f = parse_formula("Ex. (x in #1)")
        assert instance(f) is f is parse_instance("Ex. (x in #1)")
        with pytest.raises(MalformedInstanceError):
            instance(f.body)
        # A bound variable is not free, so a code for it is dropped.
        assert instance(f, {"x": 0}) is f

    @given(st.integers(0, 10**6), st.sampled_from([V2, V3]), st.integers(3, 14), st.data())
    @settings(max_examples=300, deadline=None)
    def test_derived_instances_are_the_built_ones(self, seed, M, most, data):
        f = random_formula(random.Random(seed), M.universe, most)
        codes = st.integers(0, M.universe.size - 1)
        root_env = {v: data.draw(codes) for v in ("x", "y", "z")}
        todo = [(f, instance(f, root_env), root_env)]
        while todo:
            g, inst, env = todo.pop()
            assert inst is instance(g, env)
            for h in subformulas(g):
                if not free_vars(h):
                    assert sub_instance(inst, h) is instance(h, env)
                else:
                    with pytest.raises(MalformedInstanceError):
                        sub_instance(inst, h)
            if isinstance(g, Not):
                (part,) = inst.parts
                assert part is instance(g.body, env)
            elif isinstance(g, And):
                left, right = inst.parts
                assert left is instance(g.left, env) and right is instance(g.right, env)
            elif isinstance(g, Exists):
                w = data.draw(codes)
                body = inst.witness_body(w)
                assert body is instantiate(inst, g.var, w)
                assert body is instance(g.body, {**env, g.var: w})
                todo.append((g.body, body, {**env, g.var: w}))
                continue
            else:
                assert inst.parts == ()
            todo += [(h, part, env) for h, part in zip(g.parts, inst.parts)]


class TestSubstitution:
    """``logic.substitute`` and ``logic.instantiation_witness`` against the
    plain-recursion substitution in ``hfgames.oracles``."""

    @given(st.integers(0, 10**6), st.sampled_from([V2, V3]), st.integers(3, 14), st.data())
    @settings(max_examples=300, deadline=None)
    def test_substitution_agrees_with_oracle(self, seed, M, most, data):
        # Random formulas may bind a variable in one conjunct and leave it
        # free in the other, so some substitutions take one pass per
        # variable.
        f = random_formula(random.Random(seed), M.universe, most, {"P": 1})
        codes = st.integers(0, M.universe.size - 1)
        env = data.draw(st.dictionaries(st.sampled_from(["x", "y", "z"]), codes))
        assert logic.substitute(f, env) is oracles.substitute(f, env)

    @given(st.integers(0, 10**6), st.sampled_from([V2, V3]), st.integers(3, 14), st.data())
    @settings(max_examples=300, deadline=None)
    def test_built_nodes_hold_the_facts_of_their_arguments(self, seed, M, most, data):
        """A substitution copies each new node's facts from the node it
        replaces instead of running ``_facts``; every node it returns, one
        env's or a family's, holds what ``_facts`` computes from the node's
        arguments.  Binders may shadow, so the one-plan-per-variable path
        runs too."""
        f = random_formula(random.Random(seed), M.universe, most, {"P": 1})
        codes = st.integers(0, M.universe.size - 1)
        env = data.draw(st.dictionaries(st.sampled_from(["x", "y", "z"]), codes))
        names = data.draw(st.lists(st.sampled_from(["x", "y", "z"]), unique=True))
        rows = data.draw(st.lists(st.tuples(*[codes] * len(names)), min_size=1, max_size=4))
        family = logic.substitute_each(f, names, rows)
        assert family == [oracles.substitute(f, dict(zip(names, row))) for row in rows]
        for g in [logic.substitute(f, env), *family]:
            for h in subformulas(g):
                slots = type(h).__slots__
                want = type(h)._facts(*[getattr(h, n) for n in slots if n[0] != "_"])
                facts = [n for n in slots if n[0] == "_"][:len(want)]
                assert dict(zip(facts, want)) == {n: getattr(h, n) for n in facts}, to_text(h)

    @given(st.integers(0, 10**6), st.sampled_from([V2, V3]), st.integers(4, 12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_instantiation_witness_agrees_with_oracle(self, seed, M, most, data):
        rng = random.Random(seed)
        f = random_formula(rng, M.universe, most)
        var = data.draw(st.sampled_from(["x", "y", "z"]))
        rest = {v: rng.randrange(M.universe.size) for v in sorted(f._fv - {var})}
        ex = instance(Exists(var, f), rest)
        codes = M.universe.elements
        # A body of ex at some element, or one of another existential.
        g = random_formula(rng, M.universe, most)
        other = instance(Exists(var, g), {v: rng.randrange(M.universe.size) for v in sorted(g._fv - {var})})
        source = data.draw(st.sampled_from([ex, other]))
        cand = source.witness_body(data.draw(st.sampled_from(codes)))
        want = [c for c in codes if oracles.proposition(ex.body, {var: c}) is cand]
        got = instantiation_witness(ex, cand)
        if var in ex.body._fv:
            assert ([got] if got is not None else []) == want
        else:
            assert (got == 0) == bool(want)

    @given(st.integers(0, 10**6), st.sampled_from([V2, V3]), st.integers(3, 14), st.data())
    @settings(max_examples=200, deadline=None)
    def test_instantiations_share_the_body_bucket(self, seed, M, most, data):
        # The referee and the class-backed teller look an existential's
        # instantiations up by its body's bucket and confirm each candidate
        # with instantiation_witness alone.
        rng = random.Random(seed)
        f = random_formula(rng, M.universe, most)
        var = data.draw(st.sampled_from(["x", "y", "z"]))
        ex = instance(Exists(var, f), {v: rng.randrange(M.universe.size) for v in sorted(f._fv - {var})})
        live = var in ex.body._fv
        for c in M.universe.elements:
            body = ex.witness_body(c)
            assert _bucket(body) == _bucket(ex.body)
            assert instantiation_witness(ex, body) == (c if live else 0)
            # Not instantiations: one atom of another kind, in the same
            # bucket unless that atom is the whole body, which the walk
            # turns away; and, where the variable occurs more than once,
            # another code after its first occurrence, which only the
            # substitution turns away.
            other = _flip_first_atom(body)
            if _bucket(other) == _bucket(ex.body):
                assert instantiation_witness(ex, other) is None
            mixed = _mixed(ex.body, var, c, (c + 1) % M.universe.size)
            if mixed is not body:
                assert _bucket(mixed) == _bucket(ex.body)
                assert instantiation_witness(ex, mixed) is None


def _flip_first_atom(f):
    """f with its first atom in pre-order, a Member or an Eq, made the other
    of the two over the same terms."""
    t = type(f)
    if t is Member or t is Eq:
        return (Eq if t is Member else Member)(f.left, f.right)
    if t is Not:
        return Not(_flip_first_atom(f.body))
    if t is Exists:
        return Exists(f.var, _flip_first_atom(f.body))
    return And(_flip_first_atom(f.left), f.right)


def _mixed(f, var, first, rest):
    """f with the constant of first for the first free occurrence of var,
    in pre-order and left to right, and of rest for the others."""
    seen = []

    def term(x):
        if type(x) is Var and x.name == var:
            x = Const(rest if seen else first)
            seen.append(x)
        return x

    def build(g):
        t = type(g)
        if t is Not:
            return Not(build(g.body))
        if t is And:
            left = build(g.left)
            return And(left, build(g.right))
        if t is Exists:
            return g if g.var == var else Exists(g.var, build(g.body))
        if t is Pred:
            return Pred(g.name, tuple(term(x) for x in g.args))
        left = term(g.left)
        return t(left, term(g.right))

    return build(f)


class TestStructure:
    @pytest.mark.parametrize("code", [1.9, "1", True], ids=["float", "str", "bool"])
    def test_predicate_code_not_an_int_refused(self, code):
        with pytest.raises(SignatureError, match="not of universe codes"):
            Structure(V2.universe, {"P": {(code,)}})
        with pytest.raises(SignatureError, match="not of universe codes"):
            V2.with_predicate("P", {(code,)})
        with pytest.raises(SignatureError, match="not of universe codes"):
            V2.with_predicate("Q", {(0, 1)}).with_predicate("P", {(0, code)})

    def test_with_predicate_checks_only_the_new_relation(self, monkeypatch):
        M = Structure(V2.universe, {"P": {(1,)}, "Q": {(0, 1)}})
        checked = []
        check = Structure._relation
        monkeypatch.setattr(
            Structure, "_relation", lambda self, name, rel: checked.append(name) or check(self, name, rel)
        )
        N = M.with_predicate("R", [(1, 1)])
        assert checked == ["R"]
        assert N.predicates == {"P": {(1,)}, "Q": {(0, 1)}, "R": {(1, 1)}}
        assert M.predicates == {"P": {(1,)}, "Q": {(0, 1)}}
        assert eval_instance(N, parse_closed("R(#1, #1)", N.signature(), N.universe))


class TestEval:
    def test_empty_in_singleton(self):
        assert eval_instance(V2, parse_instance("#0 in #1"))

    def test_empty_has_no_member(self):
        assert not eval_instance(V2, parse_instance("Ex. (x in #0)"))

    def test_two_distinct_members_of_pair(self):
        # Oracle: enumerate all 16^2 pairs over V_4 and test directly.
        f = parse_formula("Ex. Ey. (!(x = y) & (x in #3) & (y in #3))")
        found = False
        for a in V4.universe.elements:
            for b in V4.universe.elements:
                if a != b and (3 >> a) & 1 and (3 >> b) & 1:
                    found = True
        assert eval_instance(V4, instance(f, {})) is found is True

    def test_unbound_variable(self):
        with pytest.raises(MalformedInstanceError):
            eval_instance(V2, parse_instance("(x in #1)"))
        with pytest.raises(MalformedInstanceError, match="unbound variable 'x'"):
            satisfiers(V2, parse_formula("(x in y)"), "y", {}, [0, 1])

    def test_unknown_predicate(self):
        with pytest.raises(SignatureError):
            eval_instance(V2, parse_instance("P(#0)"))

    def test_agreement_with_duplicated_evaluator(self):
        rng = random.Random(13)
        for k in range(1000):
            M = V3 if k % 2 else V4
            inst = random_instance(rng, M, max_size=8)
            assert eval_instance(M, inst) == tarski_eval(M, inst, {}), to_text(inst)

    def test_predicates(self):
        M = V3.with_predicate("P", {(0,), (2,)})
        assert eval_instance(M, parse_instance("P(#2)"))
        assert not eval_instance(M, parse_instance("P(#1)"))


VARS = ("x", "y", "z")


def random_case(rng: random.Random, rank: int):
    """A structure of rank 1..4 with unary P, binary R and <|, a formula over
    x, y, z whose binders may shadow or be vacuous, and an assignment."""
    n = universe_size(rank)
    max_quantifiers = 2 if rank == 4 else 3

    def term(scope):
        if n and rng.random() < 0.3:
            return Const(rng.randrange(n))
        if scope and rng.random() < 0.7:
            return Var(rng.choice(scope))
        return Var(rng.choice(VARS))

    def atom(scope):
        kind = rng.choice(["in", "in", "eq", "eq", "P", "R", "<|"])
        if kind == "P":
            return Pred("P", (term(scope),))
        if kind in ("R", "<|"):
            return Pred(kind, (term(scope), term(scope)))
        return (Member if kind == "in" else Eq)(term(scope), term(scope))

    def gen(budget, scope):
        kinds = ["atom"]
        if budget > 1:
            kinds += ["not", "and", "and"] + ["exists"] * 2 * (len(scope) < max_quantifiers)
        kind = rng.choice(kinds)
        if kind == "atom":
            return atom(scope)
        if kind == "not":
            return Not(gen(budget - 1, scope))
        if kind == "exists":
            v = rng.choice(VARS)
            return Exists(v, gen(budget - 1, scope + (v,)))
        k = rng.randint(1, budget - 1)
        return And(gen(k, scope), gen(budget - k, scope))

    codes = range(n)
    preds = {
        "P": {(c,) for c in rng.sample(codes, min(n, 5))},
        "R": {(rng.choice(codes), rng.choice(codes)) for _ in range(8)},
        "<|": {(rng.choice(codes), rng.choice(codes)) for _ in range(8)},
    }
    f = gen(rng.randint(1, 12), ())
    env = {v: rng.randrange(n) for v in sorted(free_vars(f))}
    return Structure(build_universe(rank), preds), f, env


def scanned_witness(M, f, env):
    for b in M.universe.elements:
        if tarski_eval(M, f.body, {**env, f.var: b}):
            return b
    return None


def guarded_case(rng: random.Random, rank: int):
    """A structure of rank 1..4 with unary P, binary R and <|, a formula
    Ev. B whose literal guards sit inside one or two nested quantifiers
    (one over V_4, where brute force is dearer), and an assignment to its
    free variable u, if any.  Each level conjoins the level below with
    literals over its whole scope and literals over the outer variable
    only; binders may shadow the outer variable or each other or bind
    nothing, and an inner quantifier may sit under a negation (a
    universal)."""
    n = universe_size(rank)

    def literal(names):
        # One side a variable of names, the other one of names, u or a code.
        a = Var(rng.choice(names))
        b = Var(rng.choice((*names, "u"))) if rng.random() < 0.5 else Const(rng.randrange(n))
        if rng.random() < 0.5:
            a, b = b, a
        kind = rng.choice(["in", "eq", "P", "R", "<|"])
        if kind == "P":
            atom = Pred("P", (a,))
        elif kind in ("R", "<|"):
            atom = Pred(kind, (a, b))
        else:
            atom = (Member if kind == "in" else Eq)(a, b)
        return Not(atom) if rng.random() < 0.5 else atom

    binders = [rng.choice(VARS) for _ in range(rng.randint(1, 2 if rank < 4 else 1))]
    scope = (rng.choice(VARS), *binders)
    f = None
    for depth in range(len(scope) - 1, -1, -1):
        parts = [literal(scope[: depth + 1]) for _ in range(rng.randint(0, 2))]
        parts += [literal(scope[:1]) for _ in range(rng.randint(0, 1))]
        parts = parts + [f] if f else parts or [literal(scope)]
        rng.shuffle(parts)
        body = parts[0]
        for g in parts[1:]:
            body = And(body, g) if rng.random() < 0.5 else And(g, body)
        f = Exists(scope[depth], body)
        if depth and rng.random() < 0.5:
            f = Not(f)
    codes = range(n)
    preds = {
        "P": {(c,) for c in rng.sample(codes, rng.randint(1, min(n, 8)))},
        "R": {(rng.choice(codes), rng.choice(codes)) for _ in range(rng.randint(1, 16))},
        "<|": {(rng.choice(codes), rng.choice(codes)) for _ in range(rng.randint(1, 16))},
    }
    env = {v: rng.randrange(n) for v in sorted(free_vars(f))}
    return Structure(build_universe(rank), preds), f, env


class TestBitmaskEvaluator:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32))
    def test_agrees_with_tarski_eval(self, rank, seed):
        M, f, env = random_case(random.Random(seed), rank)
        want = tarski_eval(M, f, env)
        inst = instance(f, env)
        assert eval_instance(M, inst) is want, (to_text(f), env)
        if isinstance(f, Exists):
            w = scanned_witness(M, f, env)
            assert (w is not None) is want
            if want:
                assert skolem_witness(M, inst) == w, (to_text(f), env)
            else:
                with pytest.raises(NoWitnessError):
                    skolem_witness(M, inst)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32))
    def test_guards_agree_with_tarski_eval(self, rank, seed):
        rng = random.Random(seed)
        M, f, env = guarded_case(rng, rank)
        want = tarski_eval(M, f, env)
        inst = instance(f, env)
        assert eval_instance(M, inst) is want, (to_text(f), env)
        w = scanned_witness(M, f, env)
        assert (w is not None) is want
        if want:
            assert skolem_witness(M, inst) == w, (to_text(f), env)
        else:
            with pytest.raises(NoWitnessError):
                skolem_witness(M, inst)
        codes = [c for c in M.universe.elements if rng.random() < 0.5]
        got = satisfiers(M, f.body, f.var, env, codes)
        assert got == {c for c in codes if tarski_eval(M, f.body, {**env, f.var: c})}, (to_text(f), env)

    @pytest.mark.parametrize(
        "text, verdict, witness",
        [
            ("Ex. ((x in #3) & Ex. (x = #0))", True, 0),  # shadowed binder
            ("Ex. (Ey. (x in y) & (x = #1))", True, 1),
            ("Ex. ((!Ay. !(y in x)) & (x = #4))", True, 4),
            ("Ey. ((y = #2) & Ex. Ez. (x in z) & !(y = #0) & (y in #4))", True, 2),
            ("Ex. Ey. ((x = #3) & Ex. Ez. (x in z) & (y = x))", True, 3),
            ("Ex. ((x in #3) & Ex. !(x = #0))", True, 0),
            ("Ex. (!(x = #0) & Ex. Ey. (x in y & (y = #2)))", True, 1),
            ("Ex. Ex. (x = #5)", True, 0),  # vacuous outer binder
            ("Ey. (#0 in #2)", False, None),  # vacuous binder
            ("Ex. (x in #6 & Ay. (y in x -> !(y = #0)))", True, 2),
            ("Ax. Ey. (x in y)", False, None),
            ("Ex. Ay. !(y in x)", True, 0),
            # The early-exit shape: each loop's guard leaves it one bit.
            ("Ex. Ey. Ez. (((x = #5) & (y = #5) & (z = #5)) & ((x in #6) | !(x in #6)))", True, 5),
            ("Ex. Ey. Ez. (((x = #5) & (y = #6) & (z = #5)) & (z in y))", False, None),
            # The guard of Ey leaves no bit of x.
            ("Ex. Ey. ((x in #0) & (y = x))", False, None),
            # Under a negation the loop stops below the first bit of x
            # that fails the guard, a counterexample; without one it
            # goes on past it.
            ("Ex. !Ey. ((x = #2) & (y in x))", True, 0),
            ("Ex. !Ey. (!(x = #3) & (y = x))", True, 3),
            ("Ex. Ey. (!(x = #0) & (y = x))", True, 1),
            ("Ax. Ey. ((x in y) & (y = #3) & (x = #0 | x = #1))", False, None),
            # A literal behind a binder that shadows x is no guard on x.
            ("Ex. Ey. ((Ex. (x = #3)) & (y = x) & (x = #2))", True, 2),
        ],
    )
    def test_binders(self, text, verdict, witness):
        f = parse_formula(text)
        assert tarski_eval(V4, f, {}) is verdict
        inst = instance(f, {})
        assert eval_instance(V4, inst) is verdict
        if witness is not None:
            assert skolem_witness(V4, inst) == witness

    def test_empty_universe(self):
        V0 = Structure(build_universe(0))
        inst = parse_instance("Ex. (x = x)")
        assert not eval_instance(V0, inst) and eval_instance(V0, parse_instance("Ax. (x in x)"))
        with pytest.raises(NoWitnessError):
            skolem_witness(V0, inst)

    @pytest.mark.parametrize(
        "text, env, verdict",
        [
            ("(Ex. Ey. (x in y)) & (x = #1)", {"x": 1}, True),
            ("(Ex. Ay. !(y in x)) & (x = #1)", {"x": 1}, True),
            ("Ey. ((Ex. (x in y)) & (y = x))", {"x": 1}, True),
            ("Ey. ((y = #2) & Ex. (x in y) & (x in y))", {"x": 1}, True),
        ],
    )
    def test_rebound_variable_keeps_its_outer_value(self, text, env, verdict):
        f = parse_formula(text)
        assert tarski_eval(V4, f, env) is verdict
        assert eval_instance(V4, instance(f, env)) is verdict

    @pytest.mark.parametrize(
        "text, error",
        [
            ("(x in #1)", MalformedInstanceError),
            ("Ex. (x in y)", MalformedInstanceError),
            ("Ex. (y = x)", MalformedInstanceError),
            ("Ex. Ey. (x in z)", MalformedInstanceError),
            ("(#0 in #4)", SignatureError),
            ("Ex. (x in #4)", SignatureError),
            ("Ex. (#4 in x)", SignatureError),
            ("Ex. (x = #4)", SignatureError),
            ("Ex. Ey. (x = #7)", SignatureError),
            ("Q(#0)", SignatureError),
            ("Ex. Q(x)", SignatureError),
            ("Ex. Ey. Q(x, y)", SignatureError),
        ],
    )
    def test_typed_errors(self, text, error):
        f = parse_formula(text)
        with pytest.raises(error):
            eval_instance(V2, instance(f))
        if isinstance(f, Exists):
            with pytest.raises(error):
                skolem_witness(V2, instance(f))

    def test_predicate_index_dies_with_its_structure(self):
        M = V3.with_predicate("P", {(1,), (3,)})
        assert eval_instance(M, parse_instance("Ex. (P(x) & (#0 in x))"))
        ref = weakref.ref(M)
        del M
        gc.collect()
        assert ref() is None

    def test_nested_quantifiers_over_v5(self):
        V5 = Structure(build_universe(5))
        # Code 16 is the first set whose singleton lies outside V_5.
        assert not eval_instance(V5, parse_instance("Ax. Ey. (x in y)"))
        assert skolem_witness(V5, parse_instance("Ex. !Ey. (x in y)")) == 16
        inst = parse_instance("Ex. Ay. ((y in x) <-> (y = #1 | y = #3))")
        assert skolem_witness(V5, inst) == (1 << 1) | (1 << 3)


class TestTruthPredicate:
    def test_empty_list(self):
        S = build_truth_predicate(V3, [])
        assert S.entries == frozenset()

    def test_atomic_table_is_membership(self):
        insts = [
            instance(Member(Const(a), Const(b)), {})
            for a in V2.universe.elements
            for b in V2.universe.elements
        ]
        S = build_truth_predicate(V2, insts)
        for inst in insts:
            a, b = inst.left.code, inst.right.code
            assert S.holds(inst) == ((b >> a) & 1 == 1)

    def test_matches_eval_pointwise_size5(self):
        insts = enumerate_instances(V3, 5)
        S = build_truth_predicate(V3, insts)
        for inst in insts:
            assert S.holds(inst) == eval_instance(V3, inst)

    def test_own_audit_clean(self):
        insts = enumerate_instances(V3, 5)
        S = build_truth_predicate(V3, insts)
        assert tarski_check(V3, S, insts) == []


class TestTarskiCheck:
    def test_opposite_pair_violation(self):
        phi = parse_instance("#0 in #1")
        neg = parse_instance("!(#0 in #1)")
        S = SatisfactionClass(frozenset({phi, neg}), frozenset({phi, neg}))
        violations = tarski_check(V2, S, [neg])
        assert len(violations) == 1
        assert violations[0].kind == "negation"

    def test_quantifier_violation(self):
        ex = parse_instance("Ex. (x in #1)")
        body = parse_formula("(x in #1)")
        closure = [ex] + [instance(body, {"x": b}) for b in V2.universe.elements]
        S = build_truth_predicate(V2, closure)
        S_broken = SatisfactionClass(S.entries - {ex}, S.closure)
        violations = tarski_check(V2, S_broken, closure)
        assert any(v.kind == "quantifier" and v.inst == ex for v in violations)

    def test_conjunction_violation(self):
        both = parse_instance("(#0 in #1) & (#0 = #0)")
        S = SatisfactionClass(frozenset({both}), frozenset({both}))
        violations = tarski_check(V2, S, [both])
        assert [v.kind for v in violations] == ["conjunction"]


class TestSkolem:
    def test_only_element(self):
        assert skolem_witness(V2, parse_instance("Ex. (x in #1)")) == 0

    def test_least_member_of_pair(self):
        # Oracle: scan codes ascending for the first member of {0,1}.
        assert skolem_witness(V4, parse_instance("Ex. (x in #3)")) == 0

    def test_no_witness(self):
        with pytest.raises(NoWitnessError):
            skolem_witness(V2, parse_instance("Ex. (x in #0)"))

    def test_minimality_property(self):
        rng = random.Random(17)
        checked = 0
        while checked < 50:
            inst = random_instance(rng, V3, 6)
            if not isinstance(inst, Exists) or not eval_instance(V3, inst):
                continue
            w = skolem_witness(V3, inst)
            for b in range(w):
                assert not eval_instance(
                    V3, instantiate(inst, inst.var, b)
                )
            checked += 1


class TestLeastWitness:
    """``logic.least_witness``, the search both the honest teller and
    ``skolem_witness`` run, against a Tarski scan of the codes."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([V2, V3]), st.integers(0, 2**32), st.integers(3, 14))
    def test_agrees_with_a_tarski_scan(self, M, seed, most):
        rng = random.Random(seed)
        g = random_formula(rng, M.universe, most)
        free = sorted(free_vars(g))
        var = rng.choice(free) if free else "x"
        ex = instance(Exists(var, g), {v: rng.randrange(M.universe.size) for v in free})
        want = scanned_witness(M, ex, {})
        assert logic.least_witness(M, ex) == want, to_text(ex)
        if want is None:
            with pytest.raises(NoWitnessError) as raised:
                skolem_witness(M, ex)
            assert str(raised.value) == f"no witness for {to_text(ex)}"
        else:
            assert skolem_witness(M, ex) == want

    def test_not_exported(self):
        import hfgames

        assert not hasattr(hfgames, "least_witness")


class TestSerialization:
    def test_print_instance_substitutes(self):
        inst = instance(parse_formula("(x in #1)"), {"x": 0})
        assert to_text(inst) == "(#0 in #1)"
        f = parse_formula("(y = x) & ((x <| #2) & P(x, #0, y))", {"P": 3, "<|": 2})
        assert to_text(instance(f, {"x": 1, "y": 3})) == (
            "((#3 = #1) & ((#1 <| #2) & P(#1, #0, #3)))"
        )

    def test_print_instance_keeps_a_shadowed_variable(self):
        f = parse_formula("(x in #1) & Ex. (x in #2)")
        inst = instance(f, {"x": 0})
        text = to_text(inst)
        assert text == "((#0 in #1) & Ex. (x in #2))"
        closed = parse_formula(text)
        assert free_vars(closed) == set()
        assert tarski_eval(V3, closed, {}) is tarski_eval(V3, f, {"x": 0}) is True

    def test_printed_instance_is_closed_with_the_same_verdict(self):
        # Binders in random_case may shadow a variable the assignment binds.
        rng = random.Random(1031)
        for _ in range(400):
            M, f, env = random_case(rng, rng.randint(1, 3))
            inst = instance(f, env)
            closed = parse_formula(to_text(inst))
            assert free_vars(closed) == set(), to_text(inst)
            assert tarski_eval(M, closed, {}) == tarski_eval(M, f, env), to_text(inst)


class TestClosureSemantics:
    def test_verdict_three_way(self):
        phi = parse_instance("#0 in #1")
        psi = parse_instance("#1 in #0")
        other = parse_instance("#0 = #0")
        S = SatisfactionClass(frozenset({phi}), frozenset({phi, psi}))
        assert S.verdict(phi) is True
        assert S.verdict(psi) is False
        assert S.verdict(other) is None


class TestEnumeration:
    def test_deterministic_and_size_bounded(self):
        a = enumerate_formulas(build_universe(2), 5)
        b = enumerate_formulas(build_universe(2), 5)
        assert a == b
        assert all(size(f) <= 5 for f in a)

    def test_instances_cover_assignments(self):
        insts = enumerate_instances(V2, 3)
        f = parse_formula("(x in y)")
        matching = {instance(f, {"x": a, "y": b}) for a in V2.universe.elements for b in V2.universe.elements}
        assert len(matching) == 4 and matching <= set(insts)  # 2 elements ** 2 free variables

    def test_instances_closed_under_instantiation(self):
        insts = set(enumerate_instances(V3, 5))
        for inst in list(insts):
            if isinstance(inst, Exists):
                for b in V3.universe.elements:
                    assert instantiate(inst, inst.var, b) in insts
