import inspect
import json
import random
import re
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hfgames import universe
from hfgames.errors import InvariantError, ResourceBoundError, SignatureError
from hfgames import suites
from hfgames.cli import main
from hfgames.etr import (
    RecursionRule,
    Solution,
    _relativize,
    check_solution,
    descending_tree,
    etr_solve,
    iterated_truth,
    kleene_brouwer,
    solve_via_descending_tree,
    solve_via_kleene_brouwer,
    solve_via_transitive_closure,
    transitive_closure,
)
from hfgames.logic import (
    And,
    Const,
    Eq,
    Exists,
    Not,
    Pred,
    Structure,
    Var,
    eval_instance,
    instance,
    parse_formula,
    parse_instance,
    random_formula,
    tarski_check,
    to_text,
)
from hfgames.universe import (
    WellFoundedRelation,
    WellOrder,
    build_universe,
    check_wellfounded,
    find_cycle,
    hf_elements,
    topological_order,
)

from hfgames.truthgames import extract_solution, honest_teller, recursion_game
from hfgames.oracles import (
    descending_sequences,
    kb_less,
    longest_path_ranks,
    reachability_closure,
    relativize,
    worklist_fixpoint,
)

V3 = Structure(build_universe(3))

CHAIN = WellFoundedRelation(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
ACCUMULATE = RecursionRule.parse("x = #0 | Ej. ((j <| i) & F(j, x))")


def random_dag(rng, M, max_nodes=6):
    nodes = sorted(rng.sample(range(M.universe.size), rng.randint(2, min(M.universe.size, max_nodes))))
    edges = {
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if rng.random() < 0.4
    }
    return WellFoundedRelation(frozenset(nodes), frozenset(edges))


def rule_shapes(seed):
    """Criterion 4's four rule shapes, with the constant #seed."""
    return [
        f"x = #{seed} | Ej. ((j <| i) & F(j, x))",
        f"x = i | Ej. ((j <| i) & F(j, x))",
        f"x = #{seed} | Ej. (Ey. ((j <| i) & F(j, y) & x in y))",
        f"(x in i) | Ej. ((j <| i) & F(j, x))",
    ]


def random_dag_rule(rng, M, max_nodes=6):
    rel = random_dag(rng, M, max_nodes)
    seed = rng.randrange(M.universe.size)
    return rel, RecursionRule.parse(rng.choice(rule_shapes(seed)))


class TestRules:
    def test_rule_takes_only_its_formula(self):
        rule = RecursionRule.parse("x = i")
        assert (rule.x_var, rule.i_var, rule.f_symbol) == ("x", "i", "F")
        with pytest.raises(TypeError):
            RecursionRule(rule.formula, "y")

    def test_relativization_guards_f_atoms(self):
        rule = RecursionRule.parse("F(j, x) & (j <| i)" .replace("j", "i"))
        rel = rule.relativized()
        assert "(F(i, x) & (i <| i))" in to_text(rel)

    def test_stray_free_variables_rejected(self):
        with pytest.raises(SignatureError):
            RecursionRule.parse("x = z")

    def test_f_arity_enforced(self):
        with pytest.raises(SignatureError):
            RecursionRule.parse("F(x, x, i)")

    def test_instance_formula_is_biconditional(self):
        f = ACCUMULATE.instance_formula()
        assert isinstance(f, And)
        assert isinstance(f.left, Not) and isinstance(f.right, Not)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(3, 30))
    def test_relativize_agrees_with_oracle(self, seed, most):
        f = random_formula(random.Random(seed), V3.universe, most, {"F": 2})
        g = Pred("F", (Var("y"), Var("x")))
        for h in (f, And(f, f), Not(And(g, Exists("y", And(g, f)))), Exists("z", And(Not(f), f))):
            assert _relativize(h, "F", Var("i")) == relativize(h, "F", Var("i"))

    def test_relativize_deep_not_chain(self):
        read = Pred("F", (Var("i"), Var("x")))
        f = read
        for _ in range(3000):
            f = Not(f)
        g = RecursionRule(f).relativized()
        for _ in range(3000):
            assert isinstance(g, Not)
            g = g.body
        assert g == And(read, Pred("<|", (Var("i"), Var("i"))))
        assert isinstance(RecursionRule(f).instance_formula(), And)


class TestEtrSolve:
    def test_constant_rule_ignores_relation(self):
        rule = RecursionRule.parse("x = #0")
        sol = etr_solve(V3, CHAIN, rule)
        for i in CHAIN.carrier:
            assert sol.slice(i) == {0}

    def test_accumulation_chain(self):
        sol = etr_solve(V3, CHAIN, ACCUMULATE)
        for i in CHAIN.carrier:
            assert sol.slice(i) == {0}
        assert check_solution(V3, CHAIN, ACCUMULATE, sol)

    def test_cyclic_relation_rejected(self):
        loop = WellFoundedRelation(frozenset({0, 1}), frozenset({(0, 1), (1, 0)}))
        with pytest.raises(InvariantError):
            etr_solve(V3, loop, ACCUMULATE)

    def test_matches_worklist_oracle(self):
        rng = random.Random(79)
        for _ in range(30):
            rel, rule = random_dag_rule(rng, V3)
            sol = etr_solve(V3, rel, rule)
            assert sol.pairs == worklist_fixpoint(V3, rel, rule)

    def test_uniqueness_across_orders(self):
        rng = random.Random(83)
        for _ in range(30):
            rel, rule = random_dag_rule(rng, V3)
            order = topological_order(rel)
            sol1 = etr_solve(V3, rel, rule, order=order)
            sol2 = etr_solve(V3, rel, rule, order=list(reversed_topo(rel)))
            assert sol1.pairs == sol2.pairs

    def test_large_dag_with_quantifier_free_rule(self):
        # 100 carrier nodes live inside V_5; the rule is an explicit
        # edge-disjunction so no quantifier ever scans the big universe.
        rng = random.Random(89)
        U5 = Structure(build_universe(5))
        nodes = list(range(100))
        edges = set()
        for b in nodes[1:]:
            for a in rng.sample(range(b), min(b, rng.randint(1, 3))):
                edges.add((a, b))
        rel = WellFoundedRelation(frozenset(nodes), frozenset(edges))
        seed_atom = Eq(Var("x"), Const(0))
        formula = seed_atom
        for a, b in sorted(edges):
            clause = And(
                And(Eq(Var("i"), Const(b)), Pred("F", (Const(a), Var("x")))),
                Pred("<|", (Const(a), Var("i"))),
            )
            formula = Not(And(Not(formula), Not(clause)))  # disjunction
        rule = RecursionRule(formula)
        domain = [0, 1]
        sol = etr_solve(U5, rel, rule, value_domain=domain)
        assert sol.pairs == worklist_fixpoint(U5, rel, rule, value_domain=domain)
        assert all(sol.slice(i) == {0} for i in nodes)
        assert check_solution(U5, rel, rule, sol, value_domain=domain)

    def test_v5_dag_with_quantified_rule(self):
        # Carrier codes spread over all of V_5.  Both quantifiers range over
        # the whole universe; the evaluator only meets the guarded ones.
        rng = random.Random(97)
        U5 = Structure(build_universe(5))
        nodes = sorted(rng.sample(range(1, 65536), 12))
        edges = {
            (a, b) for k, a in enumerate(nodes) for b in nodes[k + 1:] if rng.random() < 0.3
        }
        rel = WellFoundedRelation(frozenset(nodes), frozenset(edges))
        rule = RecursionRule.parse("x = i | Ej. ((j <| i) & Ey. (F(j, y) & (x in y)))")
        domain = sorted(set(nodes).union(*(hf_elements(n) for n in nodes)))
        sol = etr_solve(U5, rel, rule, value_domain=domain)
        # The slices by hand: F(i) = {i} with the elements of F(j)'s sets, j <| i.
        want: dict = {}
        for b in topological_order(rel):
            want[b] = {b}.union(
                *(hf_elements(y) for a, c in edges if c == b for y in want[a])
            ) & set(domain)
        assert {b: set(sol.slice(b)) for b in nodes} == want
        assert any(len(s) > 1 for s in want.values())
        assert check_solution(U5, rel, rule, sol, value_domain=domain)

    def test_v5_round_trip_with_the_guard_inside(self):
        # (j <| i) sits inside Ey, so only the evaluator's guard keeps the
        # loop over j from scanning all 65,536 codes for each x.
        U5 = Structure(build_universe(5))
        rel = WellFoundedRelation(frozenset({3, 7, 9}), frozenset({(3, 7), (7, 9), (3, 9)}))
        domain = [0, 1, 3, 7, 9]
        inside = RecursionRule.parse("x = #1 | Ej. (Ey. ((j <| i) & F(j, y) & x in y))")
        first = RecursionRule.parse("x = #1 | Ej. ((j <| i) & Ey. (F(j, y) & x in y))")
        start = time.perf_counter()
        sol = etr_solve(U5, rel, inside, value_domain=domain)
        game = recursion_game(U5, rel, inside, value_domain=domain)
        assert extract_solution(honest_teller(game, U5, solution=sol), game) == sol
        assert time.perf_counter() - start < 1.0
        assert sol == etr_solve(U5, rel, first, value_domain=domain)
        # Every witness the rule can use (carrier nodes, values) is below
        # 16, so the slices are those over V_4, where brute force is quick.
        V4 = Structure(build_universe(4))
        assert sol.pairs == worklist_fixpoint(V4, rel, inside, value_domain=domain)
        assert {i: sorted(sol.slice(i)) for i in (3, 7, 9)} == {3: [1], 7: [0, 1], 9: [0, 1]}


def reversed_topo(rel):
    preds = rel.predecessor_map()
    remaining = {n: len(ps) for n, ps in preds.items()}
    succs = {n: [] for n in rel.carrier}
    for a, b in rel.edges:
        succs[a].append(b)
    ready = sorted((n for n, k in remaining.items() if k == 0), reverse=True)
    while ready:
        n = ready.pop(0)
        yield n
        for b in succs[n]:
            remaining[b] -= 1
            if remaining[b] == 0:
                ready.append(b)
        ready.sort(reverse=True)


class TestUniverseCodes:
    """Carrier elements and values are codes of the universe, checked before
    any slice is computed."""

    V2 = Structure(build_universe(2))
    RULE = RecursionRule.parse("x = x")
    ANTICHAIN = WellFoundedRelation(frozenset({0, 1}), frozenset())
    EDGE = WellFoundedRelation(frozenset({0, 1}), frozenset({(0, 1)}))

    @pytest.mark.parametrize("rel", [ANTICHAIN, EDGE], ids=["antichain", "edge"])
    def test_value_outside_the_universe(self, rel):
        domain = [0, 1, 7]
        with pytest.raises(SignatureError, match="value 7 is not a universe element"):
            etr_solve(self.V2, rel, self.RULE, value_domain=domain)
        with pytest.raises(SignatureError, match="value 7 is not a universe element"):
            check_solution(self.V2, rel, self.RULE, Solution(frozenset()), value_domain=domain)
        with pytest.raises(SignatureError, match="value 7 is not a universe element"):
            recursion_game(self.V2, rel, self.RULE, value_domain=domain)

    def test_carrier_outside_the_universe(self):
        rel = WellFoundedRelation(frozenset({0, 9}), frozenset())
        with pytest.raises(SignatureError, match="carrier element 9"):
            check_solution(self.V2, rel, self.RULE, Solution(frozenset()))


class TestCheckSolution:
    def test_rejects_missing_pair(self):
        sol = etr_solve(V3, CHAIN, ACCUMULATE)
        broken = Solution(sol.pairs - {(2, 0)})
        assert not check_solution(V3, CHAIN, ACCUMULATE, broken)

    def test_rejects_extra_pair(self):
        sol = etr_solve(V3, CHAIN, ACCUMULATE)
        broken = Solution(sol.pairs | {(1, 3)})
        assert not check_solution(V3, CHAIN, ACCUMULATE, broken)

    def test_wrong_relation_fails_some_slice(self):
        rng = random.Random(97)
        hits = 0
        for _ in range(20):
            rel, rule = random_dag_rule(rng, V3)
            sol = etr_solve(V3, rel, rule)
            other = WellFoundedRelation(
                rel.carrier, frozenset((b, a) for a, b in rel.edges)
            )
            if sol.pairs != etr_solve(V3, other, rule).pairs:
                assert not check_solution(V3, other, rule, sol)
                hits += 1
        assert hits > 0

    def test_serialization_sorted_pairs(self, capsys):
        # `solve recursion` prints the extracted solution as sorted "i x" pairs.
        for rank, pairs in ((2, ["0 0", "1 0"]), (3, ["0 0", "1 0", "2 0", "3 0"])):
            assert main(["solve", "recursion", "--rank", str(rank), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["solution"] == pairs
            assert main(["solve", "recursion", "--rank", str(rank)]) == 0
            assert f"solution: {json.dumps(pairs)}\n" in capsys.readouterr().out


class TestTransitiveClosure:
    def test_chain_gains_skip_edge(self):
        tc = transitive_closure(CHAIN)
        assert (0, 2) in tc.edges

    def test_idempotent_on_transitive(self):
        tc = transitive_closure(CHAIN)
        assert transitive_closure(tc).edges == tc.edges

    def test_matches_reachability_oracle(self):
        rng = random.Random(101)
        for _ in range(30):
            rel, _ = random_dag_rule(rng, V3)
            assert transitive_closure(rel).edges == reachability_closure(rel)

    def test_preserves_wellfoundedness(self):
        rng = random.Random(103)
        for _ in range(20):
            rel, _ = random_dag_rule(rng, V3)
            assert check_wellfounded(transitive_closure(rel))

    @pytest.mark.parametrize(
        "edges",
        [{(0, 0)}, {(0, 1), (1, 0)}, {(0, 1), (1, 2), (2, 3), (3, 1)}, {(3, 2), (2, 1), (1, 3), (0, 1)}],
        ids=["self-loop", "two-cycle", "cycle-below-a-root", "cycle-entered-late"],
    )
    def test_cycle_rejected(self, edges):
        with pytest.raises(InvariantError, match="not well-founded"):
            transitive_closure(WellFoundedRelation(frozenset({0, 1, 2, 3}), frozenset(edges)))

    def test_chain_deeper_than_the_frames_left(self):
        # The closure of a chain longer than the default recursion limit
        # holds over 500,000 edges, so a shorter chain runs under a limit
        # only 150 frames above the current depth.
        n = 400
        chain = WellFoundedRelation(frozenset(range(n)), frozenset((k, k + 1) for k in range(n - 1)))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 150)
        try:
            tc = transitive_closure(chain)
        finally:
            sys.setrecursionlimit(limit)
        assert len(tc.edges) == n * (n - 1) // 2


class TestDescendingTree:
    def test_single_point(self):
        po = WellFoundedRelation(frozenset({2}), frozenset())
        tree = descending_tree(po)
        assert tree.carrier == {(), (2,)}

    def test_two_chain(self):
        po = WellFoundedRelation(frozenset({0, 1}), frozenset({(0, 1)}))
        tree = descending_tree(po)
        assert tree.carrier == {(), (0,), (1,), (1, 0)}
        assert ((1, 0), (1,)) in tree.edges
        assert ((1, 0), ()) in tree.edges

    def test_antichain_has_no_two_step_descents(self):
        po = WellFoundedRelation(frozenset({1, 2}), frozenset())
        tree = descending_tree(po)
        assert tree.carrier == {(), (1,), (2,)}

    def test_matches_definition_oracle(self):
        rng = random.Random(107)
        for _ in range(20):
            rel, _ = random_dag_rule(rng, V3)
            po = transitive_closure(rel)
            tree = descending_tree(po)
            assert set(tree.carrier) == descending_sequences(po)

    def test_mixed_carrier(self):
        po = WellFoundedRelation(frozenset({1, (2,)}), frozenset())
        assert set(descending_tree(po).carrier) == {(), (1,), ((2,),)}

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mixed_carriers_match_definition(self, data):
        node = st.one_of(st.integers(0, 9), st.lists(st.integers(0, 3), max_size=2).map(tuple))
        carrier = data.draw(st.lists(node, min_size=1, max_size=6, unique=True))
        pairs = st.tuples(st.integers(0, len(carrier) - 1), st.integers(0, len(carrier) - 1))
        # Edges run forward in the drawn order, so the relation is acyclic.
        edges = {(carrier[a], carrier[b]) for a, b in data.draw(st.sets(pairs, max_size=10)) if a < b}
        po = WellFoundedRelation(frozenset(carrier), frozenset(edges))
        assert set(descending_tree(po).carrier) == descending_sequences(po)

    def test_node_budget(self):
        nodes = frozenset(range(12))
        chain = WellFoundedRelation(
            nodes, frozenset((i, i + 1) for i in range(11))
        )
        po = transitive_closure(chain)
        with pytest.raises(ResourceBoundError):
            descending_tree(po, node_budget=10)


@st.composite
def relations(draw):
    """A relation over int codes or over sequences, with or without cycles."""
    node = st.integers(0, 30) if draw(st.booleans()) else st.lists(st.integers(0, 3), max_size=3).map(tuple)
    carrier = draw(st.lists(node, max_size=8, unique=True))
    if not carrier:
        return WellFoundedRelation(frozenset(), frozenset())
    edges = draw(st.sets(st.tuples(st.sampled_from(carrier), st.sampled_from(carrier)), max_size=14))
    if draw(st.booleans()):
        # Acyclic: keep only the edges that run forward in the drawn order.
        index = {n: k for k, n in enumerate(carrier)}
        edges = {(a, b) for a, b in edges if index[a] < index[b]}
    return WellFoundedRelation(frozenset(carrier), frozenset(edges))


class TestOneWalk:
    """The cycle check, the topological order, the transitive closure and
    the descending tree, held to the brute-force oracles."""

    @settings(max_examples=200, deadline=None)
    @given(relations())
    def test_walks_match_oracles(self, rel):
        reach = reachability_closure(rel)
        cycle = find_cycle(rel)
        assert (cycle is None) == all((n, n) not in reach for n in rel.carrier)
        if cycle is not None:
            closing = cycle + cycle[:1]
            assert len(set(cycle)) == len(cycle)
            assert all(edge in rel.edges for edge in zip(closing, closing[1:]))
            # etr_solve rejects the cycle before it looks at the carrier.
            for walk in (topological_order, transitive_closure, lambda r: etr_solve(V3, r, ACCUMULATE)):
                with pytest.raises(InvariantError, match="not well-founded"):
                    walk(rel)
            return
        order = topological_order(rel)
        pos = {n: k for k, n in enumerate(order)}
        assert len(order) == len(pos) == len(rel.carrier) and set(order) == rel.carrier
        assert all(pos[a] < pos[b] for a, b in rel.edges)
        po = transitive_closure(rel)
        assert po.edges == reach
        assert set(descending_tree(po).carrier) == descending_sequences(po)

    @settings(max_examples=200, deadline=None)
    @given(relations())
    def test_order_lists_the_carrier_rank_by_rank(self, rel):
        """Minimal nodes first, then the nodes whose longest path down is
        one edge, and so on: etr_solve's slices are rank-stratified."""
        assume(check_wellfounded(rel))
        rank = longest_path_ranks(rel)
        ranks = [rank[n] for n in topological_order(rel)]
        assert ranks == sorted(ranks)

    def test_etr_solve_walks_its_relation_once(self, monkeypatch):
        walked = []
        build = universe._sorter
        monkeypatch.setattr(universe, "_sorter", lambda rel: walked.append(rel) or build(rel))
        etr_solve(V3, CHAIN, ACCUMULATE)
        etr_solve(V3, CHAIN, ACCUMULATE, order=[0, 1, 2])
        assert walked == [CHAIN, CHAIN]


def sequences(*seqs: tuple) -> WellFoundedRelation:
    """The sequences as the carrier of a relation with no edges: the KB
    order reads only the carrier."""
    return WellFoundedRelation(frozenset(seqs), frozenset())


class TestKleeneBrouwer:
    def test_single_branch_extension_order(self):
        U = build_universe(3)
        order = kleene_brouwer(sequences((), (2,), (2, 1), (2, 1, 0)), U)
        assert order.elements == ((2, 1, 0), (2, 1), (2,), ())

    def test_spec_example(self):
        U = build_universe(3)
        order = kleene_brouwer(sequences((), (0,), (1,), (0, 1)), U)
        assert order.elements == ((0, 1), (0,), (1,), ())

    def test_random_trees_well_ordered(self):
        rng = random.Random(109)
        U = build_universe(3)
        for _ in range(1000):
            rel, _ = random_dag_rule(rng, V3)
            po = transitive_closure(rel)
            tree = descending_tree(po)
            order = kleene_brouwer(tree, U)
            elems = order.elements
            # Oracle: pairwise two-clause comparison.
            for i, s in enumerate(elems):
                for t in elems[i + 1 :]:
                    assert kb_less(s, t) and not kb_less(t, s)
            for sample in range(10):
                size = rng.randint(1, len(elems))
                subset = rng.sample(list(elems), size)
                least = min(subset, key=order.index)
                assert all(not kb_less(t, least) for t in subset)

    def test_sequence_entry_not_an_int_rejected(self):
        with pytest.raises(InvariantError, match="sequence entry '0'"):
            kleene_brouwer(sequences((), ("0",)), build_universe(3))

    def test_extension_before_prefix_first_difference_decides(self):
        order = kleene_brouwer(sequences((0,), (0, 1), (0, 0), (1,), ()), build_universe(3))
        assert order.elements == ((0, 0), (0, 1), (0,), (1,), ())

    def test_suite_check_rejects_an_order_out_of_kb(self):
        order = kleene_brouwer(sequences((), (0,), (1,), (0, 1)), build_universe(3))
        assert suites._is_kb_order(order)
        swapped = WellOrder((order.elements[1], order.elements[0], *order.elements[2:]))
        assert not suites._is_kb_order(swapped)


class TestTransports:
    def test_reduction_chain_exact(self):
        rng = random.Random(113)
        for _ in range(30):
            rel, rule = random_dag_rule(rng, V3)
            base = etr_solve(V3, rel, rule)
            assert solve_via_transitive_closure(V3, rel, rule).pairs == base.pairs
            assert solve_via_descending_tree(V3, rel, rule).pairs == base.pairs
            kb_sol, kb = solve_via_kleene_brouwer(V3, rel, rule)
            assert kb_sol.pairs == base.pairs

    def test_structure_predicate_named_D(self):
        # D is an ordinary predicate name: every transport reads the
        # structure's D, as etr_solve does.
        V2 = Structure(build_universe(2), {"D": {(1, 1)}})
        rel = WellFoundedRelation(frozenset({0, 1}), frozenset({(0, 1)}))
        rule = RecursionRule.parse("D(x, x) | Ej. ((j <| i) & F(j, x))")
        expected = {(0, 1), (1, 1)}
        assert etr_solve(V2, rel, rule).pairs == expected
        assert solve_via_transitive_closure(V2, rel, rule).pairs == expected
        assert solve_via_descending_tree(V2, rel, rule).pairs == expected
        assert solve_via_kleene_brouwer(V2, rel, rule)[0].pairs == expected

    @pytest.mark.parametrize("rank", [2, 3])
    def test_transports_match_etr_and_oracle_over_extra_predicates(self, rank):
        # Each structure carries a unary P and a binary D that the rule
        # reads beside F and <|.
        rng = random.Random(131 + rank)
        U = build_universe(rank)
        codes = range(U.size)
        for _ in range(5):
            M = Structure(U, {
                "P": {(c,) for c in codes if rng.random() < 0.3},
                "D": {(a, b) for a in codes for b in codes if rng.random() < 0.2},
            })
            rel = random_dag(rng, M)
            for shape in rule_shapes(rng.randrange(U.size)):
                for extra in ("", " | P(x)", " | D(x, x)", " | D(i, x)"):
                    rule = RecursionRule.parse(f"({shape}){extra}")
                    base = etr_solve(M, rel, rule).pairs
                    assert worklist_fixpoint(M, rel, rule) == base
                    assert solve_via_transitive_closure(M, rel, rule).pairs == base
                    assert solve_via_descending_tree(M, rel, rule).pairs == base
                    assert solve_via_kleene_brouwer(M, rel, rule)[0].pairs == base

    @pytest.mark.parametrize(
        "pred, says",
        [
            (("F", {(0, 0)}), "F is the teller's predicate; the structure may not fix it"),
            (("<|", {(0, 2)}), r"<\| guards the reads of F; the structure may not fix it"
                               " to other than the relation's edges"),
        ],
        ids=["F", "other-edges"],
    )
    def test_every_recursion_refuses_a_structure_fixing_its_predicates(self, pred, says):
        M = V3.with_predicate(*pred)
        entry_points = [
            lambda: etr_solve(M, CHAIN, ACCUMULATE),
            lambda: check_solution(M, CHAIN, ACCUMULATE, Solution(frozenset())),
            lambda: solve_via_transitive_closure(M, CHAIN, ACCUMULATE),
            lambda: solve_via_descending_tree(M, CHAIN, ACCUMULATE),
            lambda: solve_via_kleene_brouwer(M, CHAIN, ACCUMULATE),
            lambda: recursion_game(M, CHAIN, ACCUMULATE),
        ]
        for call in entry_points:
            with pytest.raises(SignatureError, match=says):
                call()

    def test_every_recursion_accepts_the_relations_own_edges(self):
        M = V3.with_predicate("<|", CHAIN.edges)
        base = etr_solve(V3, CHAIN, ACCUMULATE)
        assert etr_solve(M, CHAIN, ACCUMULATE) == base
        assert check_solution(M, CHAIN, ACCUMULATE, base)
        assert solve_via_transitive_closure(M, CHAIN, ACCUMULATE) == base
        assert solve_via_descending_tree(M, CHAIN, ACCUMULATE) == base
        assert solve_via_kleene_brouwer(M, CHAIN, ACCUMULATE)[0] == base
        assert recursion_game(M, CHAIN, ACCUMULATE).structure is M

    @pytest.mark.parametrize(
        "shape",
        [
            "x = #3 | Ej. ((j <| i) & F(j, x))",
            "x = i | Ej. ((j <| i) & F(j, x))",
            "(x in i) | Ej. ((j <| i) & F(j, x))",
            "x = #3 | Ej. (Ey. ((j <| i) & F(j, y) & x in y))",
        ],
        ids=["seed", "index", "member", "nested"],
    )
    def test_relativize_guard_rewrites_each_f_read(self, shape):
        rule = RecursionRule.parse(shape)

        def guarded(guard):
            return parse_formula(
                re.sub(r"F\((\w+), (\w+)\)", rf"(F(\1, \2) & {guard})", shape)
            )

        assert rule.relativized() == guarded(r"(\1 <| i)")


class TestUniquenessOrders:
    def test_alternative_order_is_topological_and_differs(self):
        cfg = suites.RunConfig(seed=1)
        rng = cfg.rng("etr.uniqueness")
        U = build_universe(cfg.universe_rank)
        differs = 0
        for _ in range(20):
            rel, _ = suites._random_recursion_instance(rng, U)
            alt = suites._alternative_topological_order(rel)
            assert sorted(alt) == sorted(rel.carrier)
            position = {n: k for k, n in enumerate(alt)}
            assert all(position[a] < position[b] for a, b in rel.edges)
            differs += alt != topological_order(rel)
        assert differs > 0


def tower(length: int):
    """Criterion 6's well-order of the given length, coding and closure."""
    sig = {"T": 2}
    coding = {c: parse_instance(f"(#{c} in #3)") for c in range(3)}
    t_query = parse_formula("T(j, x)", sig)
    # The existential's instantiations enter the closure with the same
    # body formula, or the audit cannot see its witnesses.
    ex_body = parse_formula("T(#0, x)", sig)
    closure = [
        *coding.values(),
        *(instance(t_query, {"j": j, "x": x}) for j in range(length) for x in range(3)),
        *(instance(ex_body, {"x": b}) for b in V3.universe.elements),
        instance(parse_formula("Ex. T(#0, x)", sig), {}),
    ]
    return WellOrder(tuple(range(length))), coding, closure


class TestIteratedTruth:
    def test_single_point_equals_truth_predicate(self):
        from hfgames.logic import build_truth_predicate

        order = WellOrder((0,))
        closure = [parse_instance("#0 in #1"), parse_instance("Ex. (x in #2)")]
        it = iterated_truth(V3, order, closure=closure)
        direct = build_truth_predicate(V3, closure)
        assert it.slice(0).entries == direct.entries

    def test_second_stage_reflects_first(self):
        order = WellOrder((0, 1))
        sig = {"T": 2}
        coding = {
            0: parse_instance("#0 in #1"),   # true atomic
            1: parse_instance("#1 in #0"),   # false atomic
        }
        t_query = parse_formula("T(#0, x)", sig)
        closure = [
            coding[0],
            coding[1],
            instance(t_query, {"x": 0}),
            instance(t_query, {"x": 1}),
        ]
        it = iterated_truth(V3, order, closure=closure, coding=coding)
        # Oracle: evaluate with stage 0 installed as an explicit predicate.
        t0_relation = {
            (0, c) for c, inst in coding.items() if it.slice(0).holds(inst)
        }
        M_oracle = V3.with_predicate("T", t0_relation)
        for x in (0, 1):
            q = instance(t_query, {"x": x})
            assert it.slice(1).holds(q) == eval_instance(M_oracle, q)
        assert it.slice(1).holds(instance(t_query, {"x": 0}))
        assert not it.slice(1).holds(instance(t_query, {"x": 1}))
        assert not it.slice(0).holds(instance(t_query, {"x": 0}))

    def test_slices_pass_tarski_audit(self):
        order, coding, closure = tower(3)
        it = iterated_truth(V3, order, closure=closure, coding=coding)
        for i in order:
            Mi = it.structure_at(V3, i)
            assert tarski_check(Mi, it.slice(i), closure) == []

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_before_is_the_union_of_the_earlier_slices(self, length):
        order, coding, closure = tower(length)
        it = iterated_truth(V3, order, closure=closure, coding=coding)
        for k, i in enumerate(order.elements):
            want = {
                (j, c)
                for j in order.elements[:k]
                for c, inst in coding.items()
                if inst in it.slice(j).entries
            }
            assert it.before[i] == want
        assert it.before[order.elements[-1]] or length == 1

    def test_monotone_coherence(self):
        order = WellOrder((0, 1, 2))
        coding = {0: parse_instance("#0 in #1")}
        closure = [parse_instance("#0 in #1")]
        it = iterated_truth(V3, order, closure=closure, coding=coding)
        for idx, i in enumerate(order.elements):
            assert it.before[i] == {(j, 0) for j in order.elements[:idx]}

    @pytest.mark.parametrize("key", ["abc", "0", 0.0, True])
    def test_coding_key_not_an_int_rejected(self, key):
        order = WellOrder((0, 1))
        inst = parse_instance("#0 in #1")
        with pytest.raises(SignatureError, match="coding key"):
            iterated_truth(V3, order, closure=[inst], coding={key: inst})

    def test_out_of_order_stage_rejected(self):
        order = WellOrder((0, 1))
        sig = {"T": 2}
        closure = [instance(parse_formula("T(#3, #0)", sig), {})]
        with pytest.raises(SignatureError):
            iterated_truth(V3, order, closure=closure, coding={})

    def test_structure_may_not_fix_T(self):
        order = WellOrder((0, 1))
        closure = [instance(parse_formula("T(#0, #1)", {"T": 2}), {})]
        M = Structure(V3.universe, {"T": {(0, 1)}})
        with pytest.raises(SignatureError, match="T is the earlier stages' truth"):
            iterated_truth(M, order, closure=closure, coding={})

    def test_parameter_predicate(self):
        """A class parameter is a predicate of the structure: every stage
        reads it."""
        order = WellOrder((0, 1))
        sig = {"Z": 1}
        member, other = (instance(parse_formula(f"Z(#{c})", sig), {}) for c in (2, 1))
        it = iterated_truth(V3.with_predicate("Z", {(2,)}), order, closure=[member, other])
        for i in order:
            assert it.slice(i).holds(member) and not it.slice(i).holds(other)
