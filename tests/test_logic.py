import copy
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgames import logic
from hfgames.errors import (
    CoverageError,
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
    FormulaInstance,
    Member,
    Not,
    Pred,
    SatisfactionClass,
    Structure,
    Var,
    build_truth_predicate,
    enumerate_formulas,
    enumerate_instances,
    eval_formula,
    eval_instance,
    free_vars,
    instance,
    instantiate,
    parse_formula,
    parse_instance,
    print_instance,
    random_formula,
    random_instance,
    size,
    skolem_witness,
    sub_instance,
    subformulas,
    tarski_check,
    to_text,
)
from hfgames.universe import build_universe, universe_size

from hfgames.oracles import formula_facts, tarski_eval

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
        assert eval_formula(V2, f, env) in (True, False)
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
        assert print_instance(instance(body, {"x": 0})) == "!" * 3000 + "(#0 in #1)"
        assert print_instance(instance(f, {})) == to_text(f)
        assert eval_formula(V2, f, {})
        assert eval_formula(V2, body, {"x": 0}) and not eval_formula(V2, body, {"x": 1})
        inst = instance(f, {})
        assert eval_instance(V2, inst)
        assert skolem_witness(V2, inst) == 0

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
        assert inst.assignment == {"x": 0, "y": 1}


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

    def test_nodes_are_immutable(self):
        f = Not(Member(Var("x"), Const(1)))
        inst = instance(f, {"x": 0})
        for obj, name in ((Var("x"), "name"), (Const(1), "code"), (f, "body"), (inst, "bindings")):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(obj, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(obj, name)
        assert f.body is Member(Var("x"), Const(1)) and inst.bindings == (("x", 0),)

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
        gc.collect()
        before = len(logic._interned)
        f = Member(Var("x"), Const(1))
        for _ in range(3000):
            f = Not(f)
        inst = instance(f, {"x": 0})
        assert inst.parts[0].parts[0] is instance(f.body.body, {"x": 0})
        assert len(logic._interned) > before + 3000
        del f, inst
        gc.collect()
        assert len(logic._interned) == before


class TestInstanceBuilding:
    """The constructor checks an instance once, when it is first built, and
    every derived instance is cut from its parent's bindings."""

    @pytest.mark.parametrize(
        "bindings",
        [
            (),
            (("x", 0),),
            (("x", 0), ("y", 1), ("z", 2)),
            (("y", 1), ("x", 0)),
            (("x", 0), ("x", 1)),
            (("x", "0"), ("y", 1)),
            (("x", 0.5), ("y", 1)),
            (("x", None), ("y", 1)),
            (("x", True), ("y", 1)),
            (("x", 0, 1), ("y", 1)),
            "xy",
        ],
        ids=["none", "missing", "extra", "misordered", "repeated", "str", "float", "None",
             "bool", "triple", "not a tuple"],
    )
    def test_constructor_refuses_bad_bindings(self, bindings):
        # A formula no other test builds, so each call is a table miss.
        f = parse_formula("(x in y) & (#977 in #978)")
        with pytest.raises(MalformedInstanceError, match="one int code each"):
            FormulaInstance(f, bindings)
        assert FormulaInstance(f, (("x", 0), ("y", 1))) is instance(f, {"y": 1, "x": 0})

    @pytest.mark.parametrize("code", [True, 1.0], ids=["bool", "float"])
    def test_non_int_code_refused_beside_a_live_instance(self, code):
        # True and 1.0 hash and compare equal to 1, so they find the live
        # instance in the table: the answer must not depend on it.
        f = parse_formula("(x in #979)")
        live = FormulaInstance(f, (("x", 1),))
        with pytest.raises(MalformedInstanceError, match="one int code each"):
            FormulaInstance(f, (("x", code),))
        with pytest.raises(MalformedInstanceError, match="one int code each"):
            instance(f, {"x": code})
        assert FormulaInstance(f, (("x", 1),)) is live

    def test_closed_formula_takes_no_bindings(self):
        f = parse_formula("Ex. (x in #1)")
        assert FormulaInstance(f, ()) is parse_instance("Ex. (x in #1)")
        with pytest.raises(MalformedInstanceError):
            FormulaInstance(f.body, ())
        with pytest.raises(MalformedInstanceError):
            FormulaInstance(f, (("x", 0),))

    @given(st.integers(0, 10**6), st.sampled_from([V2, V3]), st.integers(3, 14), st.data())
    @settings(max_examples=300, deadline=None)
    def test_derived_instances_are_the_built_ones(self, seed, M, most, data):
        f = random_formula(random.Random(seed), M.universe, most)
        codes = st.integers(0, M.universe.size - 1)
        root_env = {v: data.draw(codes) for v in ("x", "y", "z")}
        todo = [(instance(f, root_env), root_env)]
        while todo:
            inst, env = todo.pop()
            g = inst.formula
            assert inst is instance(g, env)
            for h in subformulas(g):
                if free_vars(h) <= set(inst.assignment):
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
                todo.append((body, {**env, g.var: w}))
                continue
            else:
                assert inst.parts == ()
            todo += [(part, env) for part in inst.parts]


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
        assert eval_instance(N, parse_instance("R(#1, #1)", N.signature()))


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
            eval_formula(V2, parse_formula("(x in #1)"), {})

    def test_unknown_predicate(self):
        with pytest.raises(SignatureError):
            eval_formula(V2, parse_formula("P(#0)"), {})

    def test_agreement_with_duplicated_evaluator(self):
        rng = random.Random(13)
        for k in range(1000):
            M = V3 if k % 2 else V4
            inst = random_instance(rng, M, max_size=8)
            assert eval_instance(M, inst) == tarski_eval(
                M, inst.formula, inst.assignment
            ), print_instance(inst)

    def test_predicates(self):
        M = V3.with_predicate("P", {(0,), (2,)})
        assert eval_formula(M, parse_formula("P(#2)"), {})
        assert not eval_formula(M, parse_formula("P(#1)"), {})


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


def least_witness(M, f, env):
    for b in M.universe.elements:
        if tarski_eval(M, f.body, {**env, f.var: b}):
            return b
    return None


class TestBitmaskEvaluator:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32))
    def test_agrees_with_tarski_eval(self, rank, seed):
        M, f, env = random_case(random.Random(seed), rank)
        want = tarski_eval(M, f, env)
        assert eval_formula(M, f, env) is want, (to_text(f), env)
        inst = instance(f, env)
        assert eval_instance(M, inst) is want
        if isinstance(f, Exists):
            w = least_witness(M, f, env)
            assert (w is not None) is want
            if want:
                assert skolem_witness(M, inst) == w, (to_text(f), env)
            else:
                with pytest.raises(NoWitnessError):
                    skolem_witness(M, inst)

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
        assert not eval_instance(V0, inst) and eval_formula(V0, parse_formula("Ax. (x in x)"), {})
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
        assert eval_formula(V4, f, env) is verdict

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
            eval_formula(V2, f, {})
        if isinstance(f, Exists):
            with pytest.raises(error):
                skolem_witness(V2, FormulaInstance(f, ()))

    def test_predicate_index_dies_with_its_structure(self):
        M = V3.with_predicate("P", {(1,), (3,)})
        assert eval_formula(M, parse_formula("Ex. (P(x) & (#0 in x))"), {})
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
            a, b = inst.formula.left.code, inst.formula.right.code
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
        S = SatisfactionClass(frozenset({phi, neg}))
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
        S = SatisfactionClass(frozenset({both}))
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
            if not isinstance(inst.formula, Exists) or not eval_instance(V3, inst):
                continue
            w = skolem_witness(V3, inst)
            for b in range(w):
                assert not eval_instance(
                    V3, instantiate(inst, inst.formula.var, b)
                )
            checked += 1


class TestSerialization:
    def test_print_instance_substitutes(self):
        inst = instance(parse_formula("(x in #1)"), {"x": 0})
        assert print_instance(inst) == "(#0 in #1)"
        f = parse_formula("(y = x) & ((x <| #2) & P(x, #0, y))", {"P": 3, "<|": 2})
        assert print_instance(instance(f, {"x": 1, "y": 3})) == (
            "((#3 = #1) & ((#1 <| #2) & P(#1, #0, #3)))"
        )

    def test_print_instance_keeps_a_shadowed_variable(self):
        inst = instance(parse_formula("(x in #1) & Ex. (x in #2)"), {"x": 0})
        text = print_instance(inst)
        assert text == "((#0 in #1) & Ex. (x in #2))"
        closed = parse_formula(text)
        assert free_vars(closed) == set()
        assert tarski_eval(V3, closed, {}) is tarski_eval(V3, inst.formula, {"x": 0}) is True

    def test_printed_instance_is_closed_with_the_same_verdict(self):
        # Binders in random_case may shadow a variable the assignment binds.
        rng = random.Random(1031)
        for _ in range(400):
            M, f, env = random_case(rng, rng.randint(1, 3))
            inst = instance(f, env)
            closed = parse_formula(print_instance(inst))
            assert free_vars(closed) == set(), print_instance(inst)
            assert tarski_eval(M, closed, {}) == tarski_eval(M, f, env), print_instance(inst)


class TestClosureSemantics:
    def test_verdict_three_way(self):
        phi = parse_instance("#0 in #1")
        psi = parse_instance("#1 in #0")
        other = parse_instance("#0 = #0")
        S = SatisfactionClass(frozenset({phi}), frozenset({phi, psi}))
        assert S.verdict(phi) is True
        assert S.verdict(psi) is False
        assert S.verdict(other) is None
        with pytest.raises(CoverageError):
            S.marks(other)


class TestEnumeration:
    def test_deterministic_and_size_bounded(self):
        a = enumerate_formulas(build_universe(2), 5)
        b = enumerate_formulas(build_universe(2), 5)
        assert a == b
        assert all(size(f) <= 5 for f in a)

    def test_instances_cover_assignments(self):
        insts = enumerate_instances(V2, 3)
        f = parse_formula("(x in y)")
        matching = [i for i in insts if i.formula == f]
        assert len(matching) == 4  # 2 elements ** 2 free variables

    def test_instances_closed_under_instantiation(self):
        insts = set(enumerate_instances(V3, 5))
        for inst in list(insts):
            if isinstance(inst.formula, Exists):
                for b in V3.universe.elements:
                    assert instantiate(inst, inst.formula.var, b) in insts
