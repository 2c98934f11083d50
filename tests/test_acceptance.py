"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import random
import time
from types import SimpleNamespace

import pytest

from hfgames.cli import main as cli_main
from hfgames.etr import (
    RecursionRule,
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
from hfgames.games import (
    PLAYER_II,
    choice_game,
    count_nodes,
    label_clopen,
    random_clopen_game,
    value_strategy,
    verify_strategy,
)
from hfgames.logic import (
    Structure,
    build_truth_predicate,
    enumerate_instances,
    eval_instance,
    instance,
    parse_formula,
    parse_instance,
    to_text,
)
from hfgames.truthgames import (
    INTERROGATOR_WINS,
    NATURAL,
    ORDINAL,
    RandomInterrogator,
    clock_budget,
    extract_satisfaction,
    extract_solution,
    honest_teller,
    interrogator_search,
    play_truth_game,
    recursion_game,
    truth_game,
)
from hfgames.universe import WellFoundedRelation, WellOrder, build_universe, member

from hfgames.oracles import kb_less, minimax_winner_dp

V3 = Structure(build_universe(3))
V4 = Structure(build_universe(4))


def report(number: int, title: str, ok: bool, elapsed: float, extra: str = ""):
    mark = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} [{title}]: {mark} in {elapsed:.1f}s{tail}")
    assert ok, f"criterion {number} ({title}) failed"


def criterion_one_targets():
    return enumerate_instances(V3, 5)


def random_dag_and_rule(rng):
    nodes = sorted(rng.sample(range(V3.universe.size), rng.randint(2, 4)))
    edges = {
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if rng.random() < 0.45
    }
    rel = WellFoundedRelation(frozenset(nodes), frozenset(edges))
    seed = rng.randrange(V3.universe.size)
    shapes = [
        f"x = #{seed} | Ej. ((j <| i) & F(j, x))",
        f"x = i | Ej. ((j <| i) & F(j, x))",
        f"(x in i) | Ej. ((j <| i) & F(j, x))",
        f"x = #{seed} | Ej. (Ey. ((j <| i) & F(j, y) & x in y))",
    ]
    return rel, RecursionRule.parse(rng.choice(shapes))


def test_criterion_1_truth_extraction_equivalence():
    started = time.monotonic()
    game = truth_game(V3)
    teller = honest_teller(game, V3)
    targets = criterion_one_targets()
    extracted = extract_satisfaction(teller, game, targets)
    truth = build_truth_predicate(V3, targets)
    discrepancies = extracted.entries ^ truth.entries
    elapsed = time.monotonic() - started
    report(
        1,
        "truth-extraction equivalence",
        not discrepancies and elapsed <= 60.0,
        elapsed,
        f"{len(targets)} instances, {len(discrepancies)} discrepancies",
    )


def test_criterion_2_interrogator_futility():
    started = time.monotonic()
    game3 = truth_game(V3)
    teller3 = honest_teller(game3, V3)
    exhaustive = interrogator_search(game3, teller3, depth=3)
    proven = exhaustive.proven_none

    game4 = truth_game(V4)
    teller4 = honest_teller(game4, V4)
    rng = random.Random("acceptance:futility")
    losses = 0
    for k in range(1000):
        depth = rng.randint(2, 8)
        t = play_truth_game(game4, RandomInterrogator(rng, depth=depth), teller4)
        if t.status == INTERROGATOR_WINS:
            losses += 1
    elapsed = time.monotonic() - started
    report(
        2,
        "interrogator futility",
        proven and losses == 0,
        elapsed,
        f"depth-3 proven none over {exhaustive.nodes} nodes; {losses}/1000 random losses",
    )


def test_criterion_3_determinacy_solver_agreement():
    started = time.monotonic()
    rng = random.Random("acceptance:determinacy")
    disagreements = 0
    unverified = 0
    biggest = 0
    for k in range(1000):
        budget = int(10 ** rng.uniform(1.7, 4.0))
        g = random_clopen_game(rng, max_nodes=min(budget, 10_000))
        n = count_nodes(g)
        biggest = max(biggest, n)
        assert n <= 10_000
        w_value, s_value = value_strategy(g)
        _, w_label, s_label = label_clopen(g)
        w_minimax = minimax_winner_dp(g)[()]
        if not (w_value == w_label == w_minimax):
            disagreements += 1
        if not (verify_strategy(g, s_value).ok and verify_strategy(g, s_label).ok):
            unverified += 1
    elapsed = time.monotonic() - started
    report(
        3,
        "determinacy solver agreement",
        disagreements == 0 and unverified == 0 and elapsed <= 120.0,
        elapsed,
        f"1000 games, largest {biggest} nodes",
    )


def test_criterion_4_clopen_etr_round_trip():
    started = time.monotonic()
    rng = random.Random("acceptance:roundtrip")
    mismatches = 0
    unchecked = 0
    for k in range(100):
        rel, rule = random_dag_and_rule(rng)
        solution = etr_solve(V3, rel, rule)
        game = recursion_game(V3, rel, rule)
        teller = honest_teller(game, V3, solution=solution)
        extracted = extract_solution(teller, game)
        if extracted.pairs != solution.pairs:
            mismatches += 1
        if not check_solution(V3, rel, rule, extracted):
            unchecked += 1
    elapsed = time.monotonic() - started
    report(
        4,
        "clopen-ETR round trip",
        mismatches == 0 and unchecked == 0,
        elapsed,
        "100 recursion games",
    )


def test_criterion_5_reduction_chain():
    started = time.monotonic()
    rng = random.Random("acceptance:chain")
    broken = 0
    not_well_ordered = 0
    for k in range(100):
        rel, rule = random_dag_and_rule(rng)
        base = etr_solve(V3, rel, rule)
        via_tc = solve_via_transitive_closure(V3, rel, rule)
        via_tree = solve_via_descending_tree(V3, rel, rule)
        via_kb, kb = solve_via_kleene_brouwer(V3, rel, rule)
        if not (base.pairs == via_tc.pairs == via_tree.pairs == via_kb.pairs):
            broken += 1
        elems = kb.elements
        for i, s in enumerate(elems):
            for t in elems[i + 1 :]:
                if not kb_less(s, t) or kb_less(t, s):
                    not_well_ordered += 1
                    break
    elapsed = time.monotonic() - started
    report(
        5,
        "reduction chain",
        broken == 0 and not_well_ordered == 0,
        elapsed,
        "100 instances through closure, tree, and KB transport",
    )


def test_criterion_6_iterated_truth():
    started = time.monotonic()
    sig = {"T": 2}
    coding = {c: parse_instance(f"(#{c} in #3)") for c in range(3)}
    t_query = parse_formula("T(j, x)", sig)
    stage0_query = parse_formula("T(#0, x)", sig)
    failures = []
    for length in range(1, 5):
        order = WellOrder(tuple(range(length)))
        closure = [
            *coding.values(),
            *(
                instance(t_query, {"j": j, "x": x})
                for j in range(length)
                for x in range(3)
            ),
            *(instance(stage0_query, {"x": b}) for b in V3.universe.elements),
            instance(parse_formula("Ex. T(#0, x)", sig), {}),
        ]
        it = iterated_truth(V3, order, closure=closure, coding=coding)
        from hfgames.logic import tarski_check

        for i in order:
            Mi = it.structure_at(V3, i)
            bad = tarski_check(Mi, it.slice(i), closure)
            if bad:
                failures.append((length, i, str(bad[0])))
        if length >= 2:
            # Oracle: stage 0 installed as an explicit predicate, then eval.
            t0_rel = {
                (0, c) for c, inst in coding.items() if it.slice(0).holds(inst)
            }
            M_oracle = V3.with_predicate("T", t0_rel)
            for b in V3.universe.elements:
                q = instance(stage0_query, {"x": b})
                if it.slice(1).holds(q) != eval_instance(M_oracle, q):
                    failures.append((length, "T1-oracle", to_text(q)))
    elapsed = time.monotonic() - started
    report(
        6,
        "iterated truth",
        not failures,
        elapsed,
        f"well-orders of length 1..4; first failure: {failures[:1]}",
    )


def test_criterion_7_choice_game():
    started = time.monotonic()
    bad = []
    for rank in range(1, 5):
        U = build_universe(rank)
        g = choice_game(U)
        winner, s = value_strategy(g)
        if winner != PLAYER_II:
            bad.append((rank, "winner", winner))
            continue
        for b in range(1, U.size):
            got = s.table.get((b,))
            want = min(c for c in U.elements if member(c, b))
            if got != want or not member(got, b):
                bad.append((rank, b, got, want))
    elapsed = time.monotonic() - started
    report(
        7,
        "choice game",
        not bad,
        elapsed,
        f"ranks 1..4; first failure: {bad[:1]}",
    )


def test_criterion_8_clock_robustness(probe_budgets):
    started = time.monotonic()
    targets = criterion_one_targets()
    game_n = truth_game(V3, NATURAL)
    # Without ``memoryless`` the teller is read by probes at each target's
    # budget: the one path the extra clock reaches.
    teller_n = SimpleNamespace(answer=honest_teller(game_n, V3).answer)
    base = extract_satisfaction(teller_n, game_n, targets)
    slack = extract_satisfaction(teller_n, game_n, targets, extra_clock=5)
    game_o = truth_game(V3, ORDINAL)
    teller_o = honest_teller(game_o, V3)
    ordinal = extract_satisfaction(teller_o, game_o, targets)
    probed = all(((t,), clock_budget(t) + k) in probe_budgets for t in targets for k in (0, 5))
    elapsed = time.monotonic() - started
    report(
        8,
        "clock robustness",
        probed and base.entries == slack.entries == ordinal.entries,
        elapsed,
        f"{len(targets)} targets at budgets B and B+5, both clock modes",
    )


def test_criterion_9_determinism(capsys):
    started = time.monotonic()
    outputs = []
    for _ in range(2):
        code = cli_main(["verify", "all", "--seed", "1", "--json"])
        captured = capsys.readouterr()
        outputs.append((code, captured.out))
    elapsed = time.monotonic() - started
    identical = outputs[0] == outputs[1] and outputs[0][0] == 0
    with capsys.disabled():
        report(
            9,
            "determinism",
            identical,
            elapsed,
            "verify all --seed 1 twice, byte-identical JSON",
        )
