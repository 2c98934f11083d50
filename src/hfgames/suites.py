"""Seeded property suites behind the ``verify`` command.

Each suite re-checks its module's contract with bounded, reproducible
workloads: fixed seed in, byte-identical JSON report out.  Failed cases
carry a witness (seed plus inputs) sufficient to replay the failure.
"""

from __future__ import annotations

import json
import random
import time
import types
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from . import etr, games, logic, oracles, truthgames
from .errors import HFGamesError, ResourceBoundError
from .universe import (
    Ordinal,
    Universe,
    WellFoundedRelation,
    WellOrder,
    build_universe,
    ordinal_compare,
    topological_order,
)

DEFAULT_EXHAUSTIVE_RANK = 3
DEFAULT_RANDOM_RANK = 4


@dataclass
class RunConfig:
    """Bounds and seed shared by every suite; the seed fixes all sampling."""

    universe_rank: int = DEFAULT_EXHAUSTIVE_RANK
    random_rank: int = DEFAULT_RANDOM_RANK
    play_cap: int = 8
    seed: int = 1
    node_budget: int = etr.DEFAULT_NODE_BUDGET

    def rng(self, label: str) -> random.Random:
        # Seeding from a string is deterministic across processes.
        return random.Random(f"{self.seed}:{label}")


@dataclass
class CaseResult:
    name: str
    passed: bool
    detail: str = ""
    witness: Optional[dict] = None
    resource_bound: bool = False


@dataclass
class Report:
    suite: str
    config: dict
    cases: list[CaseResult] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def run(self) -> int:
        return len(self.cases)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.passed)

    @property
    def failed(self) -> int:
        return self.run - self.passed

    @property
    def hit_resource_bound(self) -> bool:
        return any(c.resource_bound for c in self.cases)

    def to_doc(self) -> dict:
        # Wall time is deliberately excluded: reports must be byte-identical
        # for identical configurations.  The fixed clock budget factor is
        # recorded beside the configuration.
        return {
            "suite": self.suite,
            "config": {**self.config, "clock_budget_factor": truthgames.CLOCK_FACTOR},
            "run": self.run,
            "passed": self.passed,
            "failed": self.failed,
            "cases": [asdict(c) for c in self.cases],
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {self.passed}/{self.run} passed "
                 f"({self.wall_time:.2f}s)"]
        for c in self.cases:
            mark = "PASS" if c.passed else "FAIL"
            extra = f" -- {c.detail}" if c.detail else ""
            lines.append(f"  [{mark}] {c.name}{extra}")
            if c.witness:
                lines.append(f"         witness: {json.dumps(c.witness, sort_keys=True)}")
        return "\n".join(lines)


def _case(report: Report, name: str, fn: Callable[[], tuple[bool, str, Optional[dict]]]):
    try:
        ok, detail, witness = fn()
        report.cases.append(CaseResult(name, ok, detail, witness))
    except ResourceBoundError as exc:
        report.cases.append(
            CaseResult(name, False, f"resource bound: {exc}", None, resource_bound=True)
        )
    except HFGamesError as exc:
        report.cases.append(
            CaseResult(name, False, f"{type(exc).__name__}: {exc}", None)
        )


# ---------------------------------------------------------------------------
# logic suite


def suite_logic(cfg: RunConfig) -> Report:
    started = time.monotonic()
    report = Report("logic", asdict(cfg))
    U = build_universe(cfg.universe_rank)
    M = logic.Structure(U)

    def roundtrip():
        rng = cfg.rng("logic.roundtrip")
        for k in range(300):
            f = logic.random_formula(rng, U, max_size=12)
            if logic.parse_formula(logic.to_text(f)) != f:
                return False, "print/parse mismatch", {"formula": logic.to_text(f), "k": k}
        return True, "300 random formulas round-trip", None

    def truth_predicate_audit():
        insts = logic.enumerate_instances(M, 4)
        tp = logic.build_truth_predicate(M, insts)
        bad = logic.tarski_check(M, tp, insts)
        if bad:
            return False, "violations in own audit", {"first": str(bad[0])}
        return True, f"clean audit over {len(insts)} instances", None

    def skolem_least():
        rng = cfg.rng("logic.skolem")
        checked = 0
        for _ in range(200):
            inst = logic.random_instance(rng, M, 6)
            if not isinstance(inst, logic.Exists):
                continue
            if not logic.eval_instance(M, inst):
                continue
            w = logic.skolem_witness(M, inst)
            for b in range(w):
                body = inst.witness_body(b)
                if logic.eval_instance(M, body):
                    return False, "witness not least", {"inst": str(inst), "w": w, "b": b}
            checked += 1
        return True, f"{checked} witnesses are global-order least", None

    def ordinal_total_order():
        rng = cfg.rng("logic.ordinals")
        oracle = []
        for _ in range(200):
            a = _random_ordinal(rng)
            b = _random_ordinal(rng)
            c = _random_ordinal(rng)
            ab, ba = ordinal_compare(a, b), ordinal_compare(b, a)
            if ab != -ba:
                return False, "compare not antisymmetric", {"a": str(a), "b": str(b)}
            if ab <= 0 and ordinal_compare(b, c) <= 0 and ordinal_compare(a, c) > 0:
                return False, "compare not transitive", {"a": str(a), "b": str(b), "c": str(c)}
        return True, "antisymmetric and transitive on 200 triples", None

    _case(report, "formula round-trip", roundtrip)
    _case(report, "truth predicate passes own audit", truth_predicate_audit)
    _case(report, "skolem witnesses are least", skolem_least)
    _case(report, "ordinal comparison is a total order", ordinal_total_order)
    report.wall_time = time.monotonic() - started
    return report


def _random_ordinal(rng: random.Random, depth: int = 2) -> Ordinal:
    if depth == 0 or rng.random() < 0.4:
        return Ordinal.from_nat(rng.randrange(6))
    n_terms = rng.randint(1, 3)
    exps: list[Ordinal] = []
    while len(exps) < n_terms:
        e = _random_ordinal(rng, depth - 1)
        if e not in exps:
            exps.append(e)
    exps.sort(reverse=True)
    return Ordinal(tuple((e, rng.randint(1, 4)) for e in exps))


# ---------------------------------------------------------------------------
# games suite


def suite_games(cfg: RunConfig) -> Report:
    started = time.monotonic()
    report = Report("games", asdict(cfg))

    def solver_agreement():
        rng = cfg.rng("games.agreement")
        for k in range(100):
            g = games.random_clopen_game(rng, max_nodes=600, max_cap=cfg.play_cap)
            w_value, s_value = games.value_strategy(g)
            _, w_label, _ = games.label_clopen(g)
            w_oracle = oracles.minimax_winner_dp(g)[()]
            ok_value = games.verify_strategy(g, s_value).ok
            if not (w_value == w_label == w_oracle and ok_value):
                # The game regenerates deterministically from (seed, k).
                return (
                    False,
                    f"disagreement on game {k}",
                    {
                        "seed": cfg.seed,
                        "k": k,
                        "nodes": games.count_nodes(g),
                        "value_winner": w_value,
                        "label_winner": w_label,
                        "minimax_winner": w_oracle,
                        "value_strategy_verified": ok_value,
                    },
                )
        return True, "100 random clopen games agree across solvers", None

    def value_monotone():
        rng = cfg.rng("games.monotone")
        for k in range(60):
            g = games.random_clopen_game(rng, max_nodes=400, max_cap=cfg.play_cap)
            root = games.game_value(g)
            if root is None:
                continue
            _, s = games.value_strategy(g)
            p: tuple = ()
            current = root
            guard = 0
            while g.decide(p) is None and len(p) < g.play_cap and guard < 64:
                guard += 1
                if games.turn(p) == games.PLAYER_I:
                    if p not in s.table:
                        break
                    p = p + (s.table[p],)
                    nxt = games.game_value(g, p)
                    if nxt is None or not (nxt < current):
                        return False, "value failed to decrease", {"k": k, "pos": list(p)}
                    current = nxt
                else:
                    p = p + (rng.choice(g.moves),)
                    nxt = games.game_value(g, p)
                    if nxt is None or nxt > current:
                        return False, "closed player raised the value", {"k": k, "pos": list(p)}
                    current = nxt
        return True, "values descend along the open player's strategy", None

    def region_avoidance():
        rng = cfg.rng("games.region")
        for k in range(40):
            g = games.random_clopen_game(rng, max_nodes=400, max_cap=cfg.play_cap)
            region = games.winning_region(g, node_budget=cfg.node_budget)
            frontier = [()]
            while frontier:
                p = frontier.pop()
                if g.decide(p) is not None or len(p) >= g.play_cap:
                    continue
                if p not in region:
                    children = [p + (x,) for x in g.moves]
                    if games.turn(p) == games.PLAYER_II:
                        if all(c in region for c in children):
                            return False, "II trapped outside region", {"k": k, "pos": list(p)}
                    else:
                        if any(c in region for c in children):
                            return False, "I escapes into region", {"k": k, "pos": list(p)}
                frontier.extend(p + (x,) for x in g.moves)
        return True, "region complement closed under avoidance", None

    def choice_function():
        from .universe import member

        for rank in range(1, min(cfg.random_rank, 4) + 1):
            U = build_universe(rank)
            g = games.choice_game(U)
            w, s = games.value_strategy(g)
            if w != games.PLAYER_II:
                return False, f"choice game winner {w} at rank {rank}", {"rank": rank}
            for b in range(1, U.size):
                got = s.table.get((b,))
                want = min(c for c in U.elements if member(c, b))
                if got != want or not member(got, b):
                    return False, "not the least-element choice function", {
                        "rank": rank, "b": b, "got": got, "want": want,
                    }
        return True, "strategy is the least-element choice function", None

    _case(report, "value/label/minimax agreement", solver_agreement)
    _case(report, "value monotonicity", value_monotone)
    _case(report, "winning-region avoidance", region_avoidance)
    _case(report, "choice game yields choice function", choice_function)
    report.wall_time = time.monotonic() - started
    return report


# ---------------------------------------------------------------------------
# truthgames suite


def suite_truthgames(cfg: RunConfig) -> Report:
    started = time.monotonic()
    report = Report("truthgames", asdict(cfg))
    U = build_universe(cfg.universe_rank)
    M = logic.Structure(U)
    game = truthgames.truth_game(M)
    teller = truthgames.honest_teller(game, M)

    def futility_exhaustive():
        res = truthgames.interrogator_search(game, teller, depth=2)
        if res.plan is not None:
            return False, "interrogator beat the honest teller", {
                "line": [str(i) for i in res.plan.inquiries]
            }
        return True, f"proven none at depth 2 ({res.nodes} nodes)", None

    def futility_random():
        rngU = build_universe(cfg.random_rank)
        rngM = logic.Structure(rngU)
        rgame = truthgames.truth_game(rngM)
        rteller = truthgames.honest_teller(rgame, rngM)
        rng = cfg.rng("truthgames.random")
        for k in range(100):
            t = truthgames.play_truth_game(
                rgame, truthgames.RandomInterrogator(rng, depth=6), rteller
            )
            if t.status == truthgames.INTERROGATOR_WINS:
                return False, "random interrogator won", {
                    "k": k, "transcript": truthgames.transcript_doc(rgame, t),
                }
        return True, "honest teller survived 100 random interrogators", None

    def extraction_matches_truth():
        targets = logic.enumerate_instances(M, 4)
        S = truthgames.extract_satisfaction(teller, game, targets)
        tp = logic.build_truth_predicate(M, targets)
        if S.entries != tp.entries:
            diff = sorted(logic.to_text(i) for i in S.entries ^ tp.entries)[:3]
            return False, "extraction disagrees with truth", {"diff": diff}
        return True, f"extraction equals truth on {len(targets)} targets", None

    def clock_robustness():
        # Without ``memoryless`` the teller is probed at each target's budget.
        probed = types.SimpleNamespace(answer=teller.answer)
        targets = logic.enumerate_instances(M, 3)
        base = truthgames.extract_satisfaction(probed, game, targets)
        slow = truthgames.extract_satisfaction(probed, game, targets, extra_clock=5)
        ogame = truthgames.truth_game(M, truthgames.ORDINAL)
        oteller = truthgames.honest_teller(ogame, M)
        ordinal = truthgames.extract_satisfaction(oteller, ogame, targets)
        if not (base.entries == slow.entries == ordinal.entries):
            return False, "verdicts moved with the clock", None
        return True, "verdicts stable across budgets and clock modes", None

    def recursion_round_trip():
        rng = cfg.rng("truthgames.recursion")
        for k in range(10):
            rel, rule = _random_recursion_instance(rng, U)
            sol = etr.etr_solve(M, rel, rule)
            rgame = truthgames.recursion_game(M, rel, rule)
            rteller = truthgames.honest_teller(rgame, M, solution=sol)
            got = truthgames.extract_solution(rteller, rgame)
            if got.pairs != sol.pairs:
                return False, "extracted solution differs", {
                    "k": k, "edges": sorted(map(list, rel.edges)),
                    "rule": logic.to_text(rule.formula),
                }
        return True, "10 recursion games round-trip", None

    _case(report, "interrogator futility (exhaustive)", futility_exhaustive)
    _case(report, "interrogator futility (random)", futility_random)
    _case(report, "extraction equals truth", extraction_matches_truth)
    _case(report, "clock robustness", clock_robustness)
    _case(report, "recursion game round-trip", recursion_round_trip)
    report.wall_time = time.monotonic() - started
    return report


def _random_recursion_instance(rng: random.Random, U: Universe):
    """A random DAG over universe codes plus a predecessor-guarded rule."""
    nodes = sorted(rng.sample(range(U.size), rng.randint(2, min(U.size, 6))))
    edges = set()
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if rng.random() < 0.4:
                edges.add((a, b))
    rel = WellFoundedRelation(frozenset(nodes), frozenset(edges))
    seed_code = rng.randrange(U.size)
    shapes = [
        f"x = #{seed_code} | Ej. ((j <| i) & F(j, x))",
        f"(x in #{U.size - 1} & x = x) | Ej. ((j <| i) & F(j, x))",
        f"x = #{seed_code} | Ej. (Ey. ((j <| i) & F(j, y) & x in y))",
        f"x = i | Ej. ((j <| i) & F(j, x))",
    ]
    rule = etr.RecursionRule.parse(rng.choice(shapes))
    return rel, rule


# ---------------------------------------------------------------------------
# etr suite


def suite_etr(cfg: RunConfig) -> Report:
    started = time.monotonic()
    report = Report("etr", asdict(cfg))
    U = build_universe(cfg.universe_rank)
    M = logic.Structure(U)

    def uniqueness():
        rng = cfg.rng("etr.uniqueness")
        for k in range(20):
            rel, rule = _random_recursion_instance(rng, U)
            order = topological_order(rel)
            alt = _alternative_topological_order(rel)
            a = etr.etr_solve(M, rel, rule, order=order)
            b = etr.etr_solve(M, rel, rule, order=alt)
            if a.pairs != b.pairs:
                return False, "solution depends on the order", {"k": k}
        return True, "20 instances identical under two topological orders", None

    def fixpoint_oracle():
        rng = cfg.rng("etr.fixpoint")
        for k in range(20):
            rel, rule = _random_recursion_instance(rng, U)
            sol = etr.etr_solve(M, rel, rule)
            oracle = oracles.worklist_fixpoint(M, rel, rule)
            if sol.pairs != oracle:
                return False, "solver differs from fixpoint oracle", {"k": k}
            if not etr.check_solution(M, rel, rule, sol):
                return False, "check_solution rejects own output", {"k": k}
        return True, "20 instances equal the worklist fixpoint", None

    def reduction_chain():
        rng = cfg.rng("etr.chain")
        for k in range(20):
            rel, rule = _random_recursion_instance(rng, U)
            base = etr.etr_solve(M, rel, rule)
            via_tc = etr.solve_via_transitive_closure(M, rel, rule)
            via_tree = etr.solve_via_descending_tree(M, rel, rule, node_budget=cfg.node_budget)
            via_kb, kb = etr.solve_via_kleene_brouwer(M, rel, rule, node_budget=cfg.node_budget)
            if not (base.pairs == via_tc.pairs == via_tree.pairs == via_kb.pairs):
                return False, "transport changed the solution", {"k": k}
            if not _is_kb_order(kb):
                return False, "KB output is out of Kleene-Brouwer order", {"k": k}
        return True, "20 instances preserved through the reduction chain", None

    def tree_budget():
        chain_nodes = list(range(min(12, U.size)))
        if len(chain_nodes) < 3:
            chain_nodes = [0, 1, 2]
        edges = {(chain_nodes[i], chain_nodes[i + 1]) for i in range(len(chain_nodes) - 1)}
        rel = WellFoundedRelation(frozenset(chain_nodes), frozenset(edges))
        po = etr.transitive_closure(rel)
        tree = etr.descending_tree(po, node_budget=cfg.node_budget)
        return True, f"descending tree built with {len(tree.carrier)} nodes", None

    def iterated_truth_slices():
        order = WellOrder(tuple(range(min(3, U.size))))
        coding = {0: logic.parse_instance("(#0 in #1)")}
        sig = {"T": 2}
        # Quantified T-queries need their instantiations in the closure for
        # the audit to see the witnesses.
        t_query = logic.parse_formula("T(#0, x)", sig)
        closure = [
            logic.parse_instance("(#0 in #1)"),
            *(logic.instance(t_query, {"x": c}) for c in U.elements),
            logic.parse_formula("Ex. T(#0, x)", sig),
        ]
        it = etr.iterated_truth(M, order, closure=closure, coding=coding)
        for i in order:
            Mi = it.structure_at(M, i)
            bad = logic.tarski_check(Mi, it.slice(i), closure)
            if bad:
                return False, f"slice {i} fails its audit", {"first": str(bad[0])}
        return True, f"{len(order)} slices pass their Tarskian audits", None

    _case(report, "solution uniqueness across orders", uniqueness)
    _case(report, "fixpoint oracle agreement", fixpoint_oracle)
    _case(report, "reduction chain preserves solutions", reduction_chain)
    _case(report, "descending tree within budget", tree_budget)
    _case(report, "iterated truth slices audit clean", iterated_truth_slices)
    report.wall_time = time.monotonic() - started
    return report


def _alternative_topological_order(rel: WellFoundedRelation) -> list:
    """A second valid order: the converse relation's order, reversed."""
    converse = WellFoundedRelation(rel.carrier, frozenset((b, a) for a, b in rel.edges))
    return topological_order(converse)[::-1]


def _is_kb_order(order: WellOrder) -> bool:
    """Consecutive elements ascend in the Kleene-Brouwer comparison."""
    elems = order.elements
    return all(oracles.kb_less(a, b) for a, b in zip(elems, elems[1:]))


SUITES = {
    "logic": suite_logic,
    "games": suite_games,
    "truthgames": suite_truthgames,
    "etr": suite_etr,
}


def run_suite(name: str, cfg: RunConfig) -> list[Report]:
    if name == "all":
        names = ["logic", "games", "truthgames", "etr"]
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(f"unknown suite {name!r}")
    return [SUITES[n](cfg) for n in names]
