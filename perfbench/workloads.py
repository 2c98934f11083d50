"""The four seeded workloads: inputs from a seed, tasks, and their checks.

``WORKLOADS[name](seed)`` generates every input up front and returns the
task list.  A task is ``Task(kind, run, check)``: ``run(rec, counts)`` makes
the library calls, each through ``rec.call`` so the traced run can time it,
and adds work units to ``counts``; ``check(output)`` compares the output
with the references in ``reference.py`` and returns an error text or None.

Sizes follow fixed schedules and the seed picks the structure inside each
size, so one seed's batch costs about the same as another's.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple, Optional

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
    winning_region,
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
    build_truth_predicate,
    enumerate_instances,
    eval_instance,
    instance,
    instantiate,
    parse_formula,
    parse_instance,
    skolem_witness,
    sub_instance,
    tarski_check,
    to_text,
)
from hfgames.truthgames import (
    INTERROGATOR_WINS,
    NATURAL,
    ORDINAL,
    Pronouncement,
    RandomInterrogator,
    ScriptedInterrogator,
    default_inquiry_pool,
    extract_satisfaction,
    extract_solution,
    honest_teller,
    interrogator_search,
    play_truth_game,
    recursion_game,
    referee,
    truth_game,
)
from hfgames.universe import (
    WellFoundedRelation,
    WellOrder,
    build_universe,
    check_wellfounded,
    topological_order,
)

import reference as ref


class Task(NamedTuple):
    kind: str
    run: Callable
    check: Callable[[object], Optional[str]]


def _interleave(groups: list[list[Task]]) -> list[Task]:
    """Spread each kind evenly through the batch, in a seed-free order."""
    keyed = []
    for g, tasks in enumerate(groups):
        for k, task in enumerate(tasks):
            keyed.append(((k + 0.5) / len(tasks), g, task))
    keyed.sort(key=lambda item: item[:2])
    return [task for _, _, task in keyed]


def _structure(rank: int) -> Structure:
    return Structure(build_universe(rank))


# ---------------------------------------------------------------------------
# truth_game: interrogator search, random plays, teller answers, extraction.
# The referee's frames and ``add`` and the teller caches do most of the work;
# set-based interrogator search should move this workload and no other.

HONEST_SEARCHES = 40
# Sub-pool of an honest search: how many inquiries of each kind.  A fixed
# mix keeps the cost per node the same from seed to seed.
HONEST_MIX = {"exists_true": 4, "exists_false": 5, "Not": 5, "Member": 3, "Eq": 3}
FAULTY_SEARCHES, FAULTY_POOL = 20, 16
ANSWER_TASKS, ANSWER_SAMPLE = 10, 60
PLAY_TASKS, PLAYS_PER_TASK = 20, 10
EXTRACT_TASKS, EXTRACT_CLOSURE = 30, 60
SEARCH_DEPTH = 3


class LiarTeller:
    """Honest except on one compound instance, whose verdict it flips."""

    def __init__(self, honest, lie_on):
        self.honest = honest
        self.lie_on = lie_on

    def answer(self, game, inquiry, clock, history):
        pron = self.honest.answer(game, inquiry, clock, history)
        if inquiry == self.lie_on:
            return Pronouncement(not pron.verdict)
        return pron


class BadWitnessTeller:
    """Affirms an existential with a witness, then denies the witness body
    when it is asked after the existential."""

    def __init__(self, honest, target):
        self.honest = honest
        self.target = target

    def answer(self, game, inquiry, clock, history):
        for rnd in history:
            if rnd.inquiry == self.target and rnd.pronouncement.witness_instance == inquiry:
                return Pronouncement(False)
        return self.honest.answer(game, inquiry, clock, history)


def _inquiry_kind(inst, size: int) -> str:
    f = inst.formula
    if isinstance(f, Exists):
        return "exists_true" if ref.holds_instance(inst, size) else "exists_false"
    return type(f).__name__


def _closure(target, size: int) -> list:
    """The target with every sub-instance and every instantiation, as the
    Tarskian audit inside ``extract_satisfaction`` requires."""
    out, seen, stack = [], set(), [target]
    while stack:
        inst = stack.pop()
        if inst in seen:
            continue
        seen.add(inst)
        out.append(inst)
        f = inst.formula
        if isinstance(f, Not):
            stack.append(sub_instance(inst, f.body))
        elif isinstance(f, And):
            stack += [sub_instance(inst, f.right), sub_instance(inst, f.left)]
        elif isinstance(f, Exists):
            stack += [instantiate(inst, f.var, b) for b in reversed(range(size))]
    return out


def _direct_parts(inst) -> list:
    f = inst.formula
    if isinstance(f, Not):
        return [instance(f.body, {})]
    if isinstance(f, And):
        return [instance(f.left, {}), instance(f.right, {})]
    return []


def truth_game_tasks(seed: int) -> list[Task]:
    rng = random.Random(f"{seed}:truth_game")
    V3, V4 = _structure(3), _structure(4)
    pool = default_inquiry_pool(truth_game(V3))
    size3 = V3.universe.size
    compound = [i for i in pool if isinstance(i.formula, (Not, And))]
    targets_v3 = enumerate_instances(V3, 5)

    def honest_search(sub):
        def run(rec, counts):
            game = truth_game(V3)
            teller = honest_teller(game, V3)
            res = rec.call(
                "truthgames.interrogator_search", interrogator_search,
                game, teller, depth=SEARCH_DEPTH, pool=sub,
            )
            counts["truthgames.interrogator_search.nodes"] += res.nodes
            counts["truthgames.interrogator_search.searches"] += 1
            counts["truthgames.interrogator_search.exhausted"] += res.exhausted
            return res

        def check(res):
            if not res.proven_none:
                return f"honest teller not proven unbeatable: plan={res.plan} exhausted={res.exhausted}"
            return None

        return Task("search.honest", run, check)

    def faulty_search(sub, make_teller):
        def run(rec, counts):
            game = truth_game(V3)
            teller = make_teller(honest_teller(game, V3))
            res = rec.call(
                "truthgames.interrogator_search.faulty", interrogator_search,
                game, teller, depth=SEARCH_DEPTH, pool=sub,
            )
            counts["truthgames.interrogator_search.faulty.nodes"] += res.nodes
            counts["truthgames.interrogator_search.searches"] += 1
            counts["truthgames.interrogator_search.exhausted"] += res.exhausted
            return res

        def check(res):
            if res.plan is None:
                return "no winning plan against a faulty teller"
            game = truth_game(V3)
            teller = make_teller(honest_teller(game, V3))
            script = ScriptedInterrogator(res.plan.inquiries, res.plan.initial_clock)
            replay = play_truth_game(game, script, teller)
            if referee(game, replay) != INTERROGATOR_WINS:
                return "referee replay of the found plan is not an interrogator win"
            return None

        return Task("search.faulty", run, check)

    def answers(sample):
        def run(rec, counts):
            game = truth_game(V3)
            teller = honest_teller(game, V3)

            def ask_all():
                return [teller.answer(game, inq, 1, ()) for inq in sample]

            cold = rec.call("truthgames.teller.answer_cold", ask_all)
            warm = rec.call("truthgames.teller.answer_warm", ask_all)
            counts["truthgames.teller.answers"] += len(sample)
            return cold, warm

        def check(out):
            cold, warm = out
            for inq, c, w in zip(sample, cold, warm):
                if c != w:
                    return f"warm answer differs from cold on {inq}"
                if c.verdict != ref.holds_instance(inq, size3):
                    return f"honest answer wrong on {inq}"
                if c.verdict and isinstance(inq.formula, Exists):
                    if c.witness != ref.least_witness(inq, size3):
                        return f"witness {c.witness} not the least on {inq}"
            return None

        return Task("teller.answers", run, check)

    def plays(play_seed, depths):
        def run(rec, counts):
            game = truth_game(V4)
            teller = honest_teller(game, V4)
            irng = random.Random(play_seed)
            out = []
            for depth in depths:
                t = rec.call(
                    "truthgames.play_truth_game", play_truth_game,
                    game, RandomInterrogator(irng, depth=depth), teller,
                )
                replayed = rec.call("truthgames.referee", referee, game, t)
                rounds = sum(1 for r in t.rounds if r.inquiry is not None)
                counts["truthgames.play_truth_game.rounds"] += rounds
                out.append((t, replayed))
            return out

        def check(out):
            size4 = V4.universe.size
            for t, replayed in out:
                if t.status == INTERROGATOR_WINS:
                    return "honest teller lost a random play"
                if replayed != t.status:
                    return f"referee replay says {replayed}, play said {t.status}"
                for r in t.rounds:
                    if r.inquiry is None:
                        continue
                    if r.pronouncement.verdict != ref.holds_instance(r.inquiry, size4):
                        return f"teller verdict wrong on {r.inquiry}"
                    wi = r.pronouncement.witness_instance
                    if wi is not None and not ref.holds_instance(wi, size4):
                        return f"witness body false for {r.inquiry}"
            return None

        return Task("plays", run, check)

    def extraction(targets, mode):
        def run(rec, counts):
            game = truth_game(V3, mode)
            teller = honest_teller(game, V3)
            S = rec.call(
                "truthgames.extract_satisfaction", extract_satisfaction,
                teller, game, targets,
            )
            counts["truthgames.extract_satisfaction.targets"] += len(targets)
            return S

        def check(S):
            want = {t for t in targets if ref.holds_instance(t, size3)}
            if set(S.entries) != want:
                return f"extracted class differs from truth on {len(want ^ set(S.entries))} targets"
            return None

        return Task("extract", run, check)

    by_kind: dict = {}
    for inst in pool:
        by_kind.setdefault(_inquiry_kind(inst, size3), []).append(inst)

    def mixed_pool():
        sub = [i for kind, n in HONEST_MIX.items() for i in rng.sample(by_kind[kind], n)]
        rng.shuffle(sub)
        return sub

    def closed_targets():
        # Add sampled targets with their closures until there are
        # EXTRACT_CLOSURE instances.
        out, seen = [], set()
        while len(out) < EXTRACT_CLOSURE:
            for inst in _closure(rng.choice(targets_v3), size3):
                if inst not in seen:
                    seen.add(inst)
                    out.append(inst)
        return out

    honest = [honest_search(mixed_pool()) for _ in range(HONEST_SEARCHES)]
    faulty = []
    for k in range(FAULTY_SEARCHES):
        sub = rng.sample(pool, FAULTY_POOL)
        if k % 2 == 0:
            lie = rng.choice(compound)
            for inst in [lie, *_direct_parts(lie)]:
                if inst not in sub:
                    sub.insert(rng.randrange(len(sub) + 1), inst)
            faulty.append(faulty_search(sub, lambda h, lie=lie: LiarTeller(h, lie)))
        else:
            target = rng.choice(by_kind["exists_true"])
            if target not in sub:
                sub.insert(rng.randrange(len(sub) + 1), target)
            faulty.append(faulty_search(sub, lambda h, t=target: BadWitnessTeller(h, t)))
    answer_tasks = [answers(rng.sample(pool, ANSWER_SAMPLE)) for _ in range(ANSWER_TASKS)]
    play_tasks = [
        plays(
            f"{seed}:play:{k}",
            [2 + (k + j) % 7 for j in range(PLAYS_PER_TASK)],
        )
        for k in range(PLAY_TASKS)
    ]
    extract_tasks = [
        extraction(closed_targets(), (NATURAL, ORDINAL)[k % 2])
        for k in range(EXTRACT_TASKS)
    ]
    return _interleave([honest, faulty, answer_tasks, play_tasks, extract_tasks])


# ---------------------------------------------------------------------------
# clopen_solve: random clopen games, wide and deep, plus choice games.
# Only the games layer runs.  Deep games expose the table game's prefix scan
# and the solvers' recursion depth.

# Games per position budget.  Budgets come in a few fixed levels, so the
# latency percentiles fall inside a level of like-sized games rather than on
# a sparse tail: the median among the 1000-position wide games, the 90th
# percentile among the largest games of both shapes.
WIDE_PLAN = {60: 10, 250: 20, 1000: 50, 4000: 30}
DEEP_PLAN = {250: 20, 800: 20, 2500: 20}
# Quartiles of the mean leaf depth of deep games at each budget (400 games
# per budget).  Solving time follows the depth, which varies twofold at one
# budget, so each quarter of the depth range gets a quarter of the games:
# the depth mix, and with it the batch's cost, is the same for every seed.
DEEP_DEPTH_QUARTILES = {250: (8.4, 9.6, 11.54), 800: (10.92, 12.45, 15.27), 2500: (13.67, 15.87, 20.01)}
SOLVERS = ("count_nodes", "value_strategy", "label_clopen", "winning_region", "verify_strategy")


def _sized_game(rng, budget: int, min_branching: int, depth=(0, math.inf), **shape):
    """A random clopen game with 80 to 100 % of ``budget`` positions and a
    mean leaf depth in the half-open interval ``depth``.

    Every leaf of a generated tree is in its decided table and every
    interior node has all its children, so the tree has
    ``(b * leaves - 1) / (b - 1)`` positions for branching ``b``.
    """
    lo, hi = depth
    while True:
        g = random_clopen_game(rng, max_nodes=budget, **shape)
        b = len(g.moves)
        leaves = g.payload["decided"]
        if b >= min_branching and 5 * (b * len(leaves) - 1) >= 4 * budget * (b - 1):
            if lo <= sum(map(len, leaves)) / len(leaves) < hi:
                return g


def _depth_quarter(budget: int, k: int) -> tuple[float, float]:
    edges = (0, *DEEP_DEPTH_QUARTILES[budget], math.inf)
    return edges[k % 4], edges[k % 4 + 1]


def clopen_solve_tasks(seed: int) -> list[Task]:
    rng = random.Random(f"{seed}:clopen_solve")

    def solve(g, shape):
        def run(rec, counts):
            n = rec.call(f"games.count_nodes.{shape}", count_nodes, g)
            w_value, s_value = rec.call(f"games.value_strategy.{shape}", value_strategy, g)
            labels, w_label, s_label = rec.call(f"games.label_clopen.{shape}", label_clopen, g)
            region = rec.call(f"games.winning_region.{shape}", winning_region, g)
            ok_value = rec.call(f"games.verify_strategy.{shape}", verify_strategy, g, s_value)
            ok_label = rec.call(f"games.verify_strategy.{shape}", verify_strategy, g, s_label)
            counts[f"games.positions.{shape}"] += n
            for solver in SOLVERS:
                calls = 2 if solver == "verify_strategy" else 1
                counts[f"games.{solver}.{shape}.positions"] += calls * n
            return n, w_value, s_value, labels, w_label, s_label, region, ok_value, ok_label

        def check(out):
            n, w_value, s_value, labels, w_label, s_label, region, ok_value, ok_label = out
            positions = ref.table_positions(g.moves, g.payload["decided"], g.play_cap)
            win = ref.minimax(g.moves, positions, g.play_cap)
            if n != len(positions):
                return f"count_nodes {n}, reference {len(positions)}"
            if not (w_value == w_label == win[()]):
                return f"winners value={w_value} label={w_label} minimax={win[()]}"
            if any(win[p] != w for p, w in labels.items()):
                return "label_clopen labels disagree with minimax"
            if set(region) != {p for p, w in win.items() if w == "I"}:
                return "winning_region differs from minimax"
            if not (ok_value.ok and ok_label.ok):
                return "verify_strategy rejected a solver's strategy"
            for name, s in (("value", s_value), ("label", s_label)):
                flaw = ref.strategy_flaw(g.moves, positions, win, s.player, s.table)
                if flaw is not None:
                    return f"{name} strategy leaves the winning region at {flaw}"
            return None

        return Task(f"game.{shape}", run, check)

    def choice(rank):
        U = build_universe(rank)

        def run(rec, counts):
            g = choice_game(U)
            w, s = rec.call("games.value_strategy.choice", value_strategy, g)
            _, w_label, _ = rec.call("games.label_clopen.choice", label_clopen, g)
            ok = rec.call("games.verify_strategy.choice", verify_strategy, g, s)
            return w, w_label, s, ok

        def check(out):
            w, w_label, s, ok = out
            if w != PLAYER_II or w_label != PLAYER_II or not ok.ok:
                return f"choice game at rank {rank}: winner {w}/{w_label}, verified {ok.ok}"
            for b in range(1, U.size):
                least = (b & -b).bit_length() - 1
                if s.table.get((b,)) != least:
                    return f"choice at #{b} is {s.table.get((b,))}, least member {least}"
            return None

        return Task("game.choice", run, check)

    wide = [
        solve(_sized_game(rng, budget, 3, max_branching=4, max_cap=8), "wide")
        for budget, n in WIDE_PLAN.items()
        for _ in range(n)
    ]
    deep = [
        solve(
            _sized_game(
                rng, budget, 2, _depth_quarter(budget, k), max_branching=2, max_cap=150
            ),
            "deep",
        )
        for budget, n in DEEP_PLAN.items()
        for k in range(n)
    ]
    choices = [choice(rank) for rank in range(1, 5)]
    return _interleave([wide, deep, choices])


# ---------------------------------------------------------------------------
# recursion: ETR, the reduction chain, extraction round trips, iterated truth.
# ETR slices and extraction probes do most of the work, through many tiny
# quantifier-free evaluations on freshly built structures.

CHAINS_V3, CHAINS_V4 = 60, 10
ITERATED_TASKS = 32
# Carrier sizes of the V_5 edge-disjunction DAGs.  Extraction is
# superlinear in the size (a 30-node carrier takes seconds), so the sizes
# stop at 16 to keep a batch within a few seconds.
LARGE_SIZES = (10, 12, 14, 16)


def _rule_shapes(seed_code: int) -> list[str]:
    return [
        f"x = #{seed_code} | Ej. ((j <| i) & F(j, x))",
        "x = i | Ej. ((j <| i) & F(j, x))",
        "(x in i) | Ej. ((j <| i) & F(j, x))",
        f"x = #{seed_code} | Ej. (Ey. ((j <| i) & F(j, y) & x in y))",
    ]


def _small_dag(rng, size: int, n_nodes: int) -> WellFoundedRelation:
    nodes = sorted(rng.sample(range(size), n_nodes))
    edges = {
        (a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:] if rng.random() < 0.45
    }
    return WellFoundedRelation(frozenset(nodes), frozenset(edges))


def _edge_rule(edges) -> RecursionRule:
    """Reachability from node 0 written as one disjunct per edge, so no
    quantifier ever scans the universe."""
    formula = Eq(Var("x"), Const(0))
    for a, b in sorted(edges):
        clause = And(
            And(Eq(Var("i"), Const(b)), Pred("F", (Const(a), Var("x")))),
            Pred("<|", (Const(a), Var("i"))),
        )
        formula = Not(And(Not(formula), Not(clause)))
    return RecursionRule(formula)


def recursion_tasks(seed: int) -> list[Task]:
    rng = random.Random(f"{seed}:recursion")
    V3, V4, V5 = _structure(3), _structure(4), _structure(5)

    def chain(M, rel, rule, tag):
        size = M.universe.size
        domain = range(size)
        n = len(rel.carrier)

        def run(rec, counts):
            wf = rec.call("universe.check_wellfounded", check_wellfounded, rel)
            order = rec.call("universe.topological_order", topological_order, rel)
            base = rec.call("etr.etr_solve", etr_solve, M, rel, rule)
            checked = rec.call("etr.check_solution", check_solution, M, rel, rule, base)
            po = rec.call("etr.transitive_closure", transitive_closure, rel)
            tree = rec.call("etr.descending_tree", descending_tree, po)
            kb = rec.call("etr.kleene_brouwer", kleene_brouwer, tree, M.universe)
            via_tc = rec.call(
                "etr.solve_via_transitive_closure", solve_via_transitive_closure, M, rel, rule
            )
            via_tree = rec.call(
                "etr.solve_via_descending_tree", solve_via_descending_tree, M, rel, rule
            )
            via_kb, _ = rec.call(
                "etr.solve_via_kleene_brouwer", solve_via_kleene_brouwer, M, rel, rule
            )
            game = recursion_game(M, rel, rule)
            teller = honest_teller(game, M, solution=base)
            extracted = rec.call(
                f"truthgames.extract_solution.{tag}", extract_solution, teller, game
            )
            tree_nodes = len(tree.carrier)
            counts["universe.check_wellfounded.edges"] += len(rel.edges)
            counts["universe.topological_order.nodes"] += n
            counts["etr.etr_solve.slices"] += n
            counts["etr.check_solution.slices"] += n
            counts["etr.transitive_closure.edges"] += len(po.edges)
            counts["etr.solve_via_transitive_closure.slices"] += n
            counts["etr.descending_tree.nodes"] += tree_nodes
            counts["etr.kleene_brouwer.nodes"] += tree_nodes
            counts["etr.solve_via_descending_tree.nodes"] += tree_nodes
            counts["etr.solve_via_kleene_brouwer.nodes"] += tree_nodes
            counts[f"truthgames.extract_solution.{tag}.probes"] += n * size
            counts["truthgames.extract_solution.probes"] += n * size
            return wf, order, base, checked, po, tree, kb, via_tc, via_tree, via_kb, extracted

        def check(out):
            wf, order, base, checked, po, tree, kb, via_tc, via_tree, via_kb, extracted = out
            want = ref.recursion_fixpoint(rule, rel.carrier, rel.edges, size, domain)
            if base.pairs != want:
                return "etr_solve differs from the fixpoint iteration"
            if not (wf and checked):
                return f"check_wellfounded={wf} check_solution={checked}"
            position = {node: k for k, node in enumerate(order)}
            if sorted(order) != sorted(rel.carrier) or any(
                position[a] > position[b] for a, b in rel.edges
            ):
                return "topological_order is not a linear extension"
            if set(po.edges) != ref.reachability(rel.carrier, rel.edges):
                return "transitive_closure differs from reachability"
            if set(tree.carrier) != ref.descending_sequences(po.carrier, po.edges):
                return "descending_tree differs from the descending sequences"
            elems = kb.elements
            if any(not ref.kb_before(s, t) for s, t in zip(elems, elems[1:])):
                return "kleene_brouwer order is not the KB order"
            for name, sol in (("tc", via_tc), ("tree", via_tree), ("kb", via_kb), ("game", extracted)):
                if sol.pairs != want:
                    return f"{name} transport differs from the fixpoint iteration"
            return None

        return Task(f"chain.{tag}", run, check)

    def iterated(length: int, coding_text: dict):
        sig = {"T": 2}
        coding = {c: parse_instance(text) for c, text in coding_text.items()}
        t_query = parse_formula("T(j, x)", sig)
        stage0 = parse_formula("T(#0, x)", sig)
        closure = [
            *coding.values(),
            *(instance(t_query, {"j": j, "x": x}) for j in range(length) for x in coding),
            *(instance(stage0, {"x": b}) for b in range(V3.universe.size)),
            instance(parse_formula("Ex. T(#0, x)", sig), {}),
        ]
        order = WellOrder(tuple(range(length)))

        def run(rec, counts):
            it = rec.call(
                "etr.iterated_truth", iterated_truth, V3, order, closure=closure, coding=coding
            )
            counts["etr.iterated_truth.stages"] += length
            return it

        def check(it):
            size = V3.universe.size
            earlier: set = set()
            for i in range(length):
                want = {inst for inst in closure if ref.holds_instance(inst, size, {"T": earlier})}
                if set(it.slice(i).entries) != want:
                    return f"stage {i} differs from direct evaluation"
                earlier = earlier | {(i, c) for c, inst in coding.items() if inst in want}
            return None

        return Task("iterated", run, check)

    def large(n_nodes: int):
        nodes = list(range(n_nodes))
        edges = set()
        for b in nodes[1:]:
            for a in rng.sample(range(b), min(b, 1 + b % 2)):
                edges.add((a, b))
        rel = WellFoundedRelation(frozenset(nodes), frozenset(edges))
        rule = _edge_rule(edges)
        domain = (0, 1)

        def run(rec, counts):
            sol = rec.call("etr.etr_solve.large", etr_solve, V5, rel, rule, value_domain=domain)
            game = recursion_game(V5, rel, rule, value_domain=domain)
            teller = honest_teller(game, V5, solution=sol)
            extracted = rec.call(
                "truthgames.extract_solution.large", extract_solution, teller, game
            )
            counts["truthgames.extract_solution.large.probes"] += n_nodes * len(domain)
            counts["truthgames.extract_solution.probes"] += n_nodes * len(domain)
            return sol, extracted

        def check(out):
            sol, extracted = out
            want = ref.recursion_fixpoint(rule, rel.carrier, rel.edges, V5.universe.size, domain)
            if sol.pairs != want or extracted.pairs != want:
                return "large-carrier solution differs from the fixpoint iteration"
            return None

        return Task("chain.large", run, check)

    def random_chain(M, n_nodes, shape, tag):
        rel = _small_dag(rng, M.universe.size, n_nodes)
        text = _rule_shapes(rng.randrange(M.universe.size))[shape]
        return chain(M, rel, RecursionRule.parse(text), tag)

    small = [random_chain(V3, 2 + k % 3, k % 4, "small") for k in range(CHAINS_V3)]
    # The doubly quantified fourth shape costs ten times the others over
    # V_4, so it stays on V_3.
    quantified = [random_chain(V4, 3, k % 3, "v4") for k in range(CHAINS_V4)]
    iterated_tasks = [
        iterated(
            1 + k % 4,
            {c: f"(#{c} in #{rng.randrange(V3.universe.size)})" for c in range(3)},
        )
        for k in range(ITERATED_TASKS)
    ]
    large_tasks = [large(n) for n in LARGE_SIZES]
    return _interleave([small, quantified, iterated_tasks, large_tasks])


# ---------------------------------------------------------------------------
# evaluate: closed formulas from text over V_4 and V_5, and truth predicates.
# The only workload where scans of the universe dominate; the early-exit
# formulas show whether cheap witnesses stay cheap.

# Formulas over V_4 per (shape, quantifier depth).  Random quantifier
# prefixes stay at depth 1, where any of them is cheap.
V4_PLAN = {
    ("early", 1): 10, ("early", 2): 15, ("early", 3): 15,
    ("false_e", 1): 5, ("false_e", 2): 10, ("false_e", 3): 10,
    ("true_a", 1): 5, ("true_a", 2): 10, ("true_a", 3): 10,
    ("random", 1): 10,
}
V5_EARLY_AT = (0.25, 0.75)
VARS = ("x", "y", "z")


def _matrix(rng, variables, size: int, atoms: int) -> str:
    """A random quantifier-free formula text over the variables."""

    def term():
        if rng.random() < 0.6:
            return rng.choice(variables)
        return f"#{rng.randrange(size)}"

    def atom():
        text = f"({term()} {rng.choice(('in', '='))} {term()})"
        return f"!{text}" if rng.random() < 0.3 else text

    text = atom()
    for _ in range(atoms - 1):
        text = f"({text} {rng.choice(('&', '|'))} {atom()})"
    return text


def _even_matrix(rng, variables, size: int) -> str:
    """``(v = #a) | (#b in w)``: over a universe of 2^k codes the first atom
    holds for one code in ``size`` and the second for exactly half of them,
    whatever the constants, so a scan costs the same for every seed."""
    a, b = rng.randrange(size), rng.randrange(size.bit_length() - 1)
    return f"(({variables[0]} = #{a}) | (#{b} in {variables[-1]}))"


def _closed_formula(rng, shape: str, variables, psi: str, early_at):
    """Formula text plus its verdict and least witness, when the shape
    fixes them: ``early`` has exactly one witness tuple, at ``early_at``;
    ``false_e`` scans every tuple and fails; ``true_a`` scans every tuple
    and holds.  ``random`` puts random quantifiers before ``psi``."""
    prefix = "".join(f"E{v}. " for v in variables)
    if shape == "early":
        pins = " & ".join(f"({v} = #{a})" for v, a in zip(variables, early_at))
        return f"{prefix}(({pins}) & ({psi} | !{psi}))", True, early_at[0]
    if shape == "false_e":
        return f"{prefix}({psi} & !{psi})", False, None
    if shape == "true_a":
        return "".join(f"A{v}. " for v in variables) + f"({psi} | !{psi})", True, None
    return "".join(f"{rng.choice('EA')}{v}. " for v in variables) + psi, None, None


def evaluate_tasks(seed: int) -> list[Task]:
    rng = random.Random(f"{seed}:evaluate")
    V3, V4, V5 = _structure(3), _structure(4), _structure(5)

    def formula_task(M, tag, text, verdict, witness):
        size = M.universe.size

        def run(rec, counts):
            f = rec.call("logic.parse_formula", parse_formula, text)
            printed = rec.call("logic.to_text", to_text, f)
            inst = instance(f, {})
            got = rec.call(f"logic.eval_instance.{tag}", eval_instance, M, inst)
            w = None
            if got and isinstance(f, Exists):
                w = rec.call(f"logic.skolem_witness.{tag}", skolem_witness, M, inst)
            return f, printed, inst, got, w

        def check(out):
            f, printed, inst, got, w = out
            if parse_formula(printed) != f:
                return "to_text does not re-parse to the same formula"
            if verdict is not None and got != verdict:
                return f"verdict {got}, by construction {verdict}"
            if tag == "v4" and got != ref.holds_instance(inst, size):
                return f"verdict {got} disagrees with the Tarski reference"
            if witness is not None and w != witness:
                return f"witness {w}, by construction {witness}"
            if w is not None:
                env = {f.var: w}
                if not ref.holds(f.body, env, size, {}):
                    return f"witness #{w} does not satisfy the body"
                if tag == "v4" and ref.least_witness(inst, size) != w:
                    return f"witness #{w} is not the least"
            return None

        return Task(f"formula.{tag}", run, check)

    def truth_predicate(insts):
        def run(rec, counts):
            S = rec.call("logic.build_truth_predicate", build_truth_predicate, V3, insts)
            bad = rec.call("logic.tarski_check", tarski_check, V3, S, insts)
            counts["logic.build_truth_predicate.instances"] += len(insts)
            counts["logic.tarski_check.instances"] += len(insts)
            return S, bad

        def check(out):
            S, bad = out
            if bad:
                return f"tarski_check found {len(bad)} violations: {bad[0]}"
            size = V3.universe.size
            if set(S.entries) != {i for i in insts if ref.holds_instance(i, size)}:
                return "build_truth_predicate differs from the Tarski reference"
            return None

        return Task("truth_predicate", run, check)

    v4 = []
    size4 = V4.universe.size
    # Early witnesses sit at evenly spaced codes, so the scans before them
    # form the same ladder for every seed.
    for (shape, depth), n in V4_PLAN.items():
        variables = VARS[:depth]
        for k in range(n):
            if shape == "random":
                psi = _matrix(rng, variables, size4, 4)
            else:
                psi = _even_matrix(rng, variables, size4)
            at = [size4 * (2 * k + 1) // (2 * n)] * depth
            text, verdict, witness = _closed_formula(rng, shape, variables, psi, at)
            v4.append(formula_task(V4, "v4", text, verdict, witness))
    size5 = V5.universe.size
    shapes5 = [("early", fraction) for fraction in V5_EARLY_AT] + [("false_e", 0), ("true_a", 0)]
    v5 = []
    for shape, fraction in shapes5:
        psi = _even_matrix(rng, ("x",), size5)
        at = [int(size5 * fraction) + rng.randrange(size5 // 64)]
        text, verdict, witness = _closed_formula(rng, shape, ("x",), psi, at)
        v5.append(formula_task(V5, "v5", text, verdict, witness))
    truth = [truth_predicate(enumerate_instances(V3, 5))]
    return _interleave([v4, v5, truth])


WORKLOADS: dict[str, Callable[[int], list[Task]]] = {
    "truth_game": truth_game_tasks,
    "clopen_solve": clopen_solve_tasks,
    "recursion": recursion_tasks,
    "evaluate": evaluate_tasks,
}
