import gc
import hashlib
import json
import random
import weakref

import pytest

from hfgames import truthgames
from hfgames.errors import (
    CoverageError,
    HFGamesError,
    MalformedTranscriptError,
    NotWinningStrategyError,
    SignatureError,
)
from hfgames.etr import RecursionRule, Solution, etr_solve
from hfgames.logic import (
    Exists,
    Not,
    Structure,
    build_truth_predicate,
    enumerate_instances,
    eval_instance,
    instance,
    parse_formula,
    parse_instance,
    print_instance,
)
from hfgames.truthgames import (
    INTERROGATOR_WINS,
    NATURAL,
    ONGOING,
    ORDINAL,
    TELLER_WINS,
    HonestTeller,
    Pronouncement,
    RandomInterrogator,
    RefereeState,
    Round,
    ScriptedInterrogator,
    Transcript,
    clock_budget,
    default_inquiry_pool,
    extract_satisfaction,
    extract_solution,
    honest_teller,
    interrogator_search,
    play_truth_game,
    recursion_game,
    referee,
    transcript_from_json,
    transcript_to_json,
    truth_game,
)
from hfgames.universe import Ordinal, WellFoundedRelation, build_universe

V2 = Structure(build_universe(2))
V3 = Structure(build_universe(3))
V4 = Structure(build_universe(4))


def natural_transcript(game, teller, inquiries, start=None):
    return play_truth_game(game, ScriptedInterrogator(inquiries, start), teller)


class LyingTeller:
    """Answers one fixed instance wrongly; honest elsewhere."""

    def __init__(self, base, lie_on):
        self.base = base
        self.lie_on = lie_on

    def answer(self, game, inquiry, clock, history):
        if inquiry == self.lie_on:
            honest = self.base.answer(game, inquiry, clock, history)
            return Pronouncement(not honest.verdict)
        return self.base.answer(game, inquiry, clock, history)


class LowClockScrambler:
    """Honest at comfortable clocks, random at clock <= 1; the teller can
    relax as the time is about to expire."""

    def __init__(self, base, seed=0):
        self.base = base
        self.rng = random.Random(seed)

    def answer(self, game, inquiry, clock, history):
        n = clock.to_int() if isinstance(clock, Ordinal) else clock
        if n <= 1:
            return Pronouncement(self.rng.random() < 0.5)
        return self.base.answer(game, inquiry, clock, history)


class BadWitnessTeller:
    """Affirms an existential but denies its own witness body."""

    def __init__(self, base, target):
        self.base = base
        self.target = target

    def answer(self, game, inquiry, clock, history):
        honest = self.base.answer(game, inquiry, clock, history)
        if inquiry == self.target:
            return Pronouncement(True, honest.witness, honest.witness_instance)
        if honest.witness_instance is not None and inquiry == honest.witness_instance:
            return honest
        for rnd in history:
            if rnd.inquiry == self.target and rnd.pronouncement.witness_instance == inquiry:
                return Pronouncement(False)
        return honest


class TestReferee:
    def test_atomic_lie_loses(self):
        game = truth_game(V2)
        rounds = [Round(1, parse_instance("#0 in #0"), Pronouncement(True))]
        assert referee(game, Transcript(rounds)) == INTERROGATOR_WINS

    def test_honest_countdown_teller_wins(self):
        game = truth_game(V2)
        teller = honest_teller(game, V2)
        inquiries = [
            parse_instance("#0 in #1"),
            parse_instance("#0 = #0"),
            parse_instance("!(#1 in #0)"),
        ]
        t = natural_transcript(game, teller, inquiries)
        assert [r.clock for r in t.rounds] == [3, 2, 1]
        assert t.status == TELLER_WINS

    def test_opposite_pair_loses(self):
        game = truth_game(V2)
        phi = parse_instance("Ex. (x = x)")
        neg = parse_instance("!Ex. (x = x)")
        rounds = [
            Round(3, phi, Pronouncement(True, 0, instance(parse_formula("(x = x)"), {"x": 0}))),
            Round(2, neg, Pronouncement(True)),
        ]
        assert referee(game, Transcript(rounds)) == INTERROGATOR_WINS

    def test_non_decreasing_clocks_malformed(self):
        game = truth_game(V2)
        phi = parse_instance("#0 = #0")
        rounds = [
            Round(2, phi, Pronouncement(True)),
            Round(2, phi, Pronouncement(True)),
        ]
        with pytest.raises(MalformedTranscriptError):
            referee(game, Transcript(rounds))

    def test_ordinal_mode_descent(self):
        game = truth_game(V2, ORDINAL)
        phi = parse_instance("#0 = #0")
        rounds = [
            Round(Ordinal.omega(), phi, Pronouncement(True)),
            Round(Ordinal.from_nat(5), phi, Pronouncement(True)),
            Round(Ordinal.zero(), None, None),
        ]
        assert referee(game, Transcript(rounds)) == TELLER_WINS
        bad = [
            Round(Ordinal.from_nat(2), phi, Pronouncement(True)),
            Round(Ordinal.omega(), phi, Pronouncement(True)),
        ]
        with pytest.raises(MalformedTranscriptError):
            referee(game, Transcript(bad))

    def test_ordinal_clock_in_natural_mode_malformed(self):
        game = truth_game(V2)
        phi = parse_instance("#0 = #0")
        clocks = [Ordinal.omega(), Ordinal.from_nat(7), Ordinal.from_nat(7)]
        with pytest.raises(MalformedTranscriptError):
            play_truth_game(game, ClockListInterrogator(clocks, [phi]), honest_teller(game, V2))

    def test_affirmed_existential_needs_witness(self):
        game = truth_game(V2)
        ex = parse_instance("Ex. (x in #1)")
        rounds = [Round(1, ex, Pronouncement(True))]
        assert referee(game, Transcript(rounds)) == INTERROGATOR_WINS

    def test_denied_existential_then_instantiation(self):
        game = truth_game(V2)
        ex = parse_instance("Ex. (x in #1)")
        body = instance(parse_formula("(x in #1)"), {"x": 0})
        rounds = [
            Round(2, ex, Pronouncement(False)),
            Round(1, body, Pronouncement(True)),
        ]
        assert referee(game, Transcript(rounds)) == INTERROGATOR_WINS

    def test_conjunction_mismatch(self):
        game = truth_game(V2)
        both = parse_instance("(#0 in #1) & (#1 in #0)")
        left = parse_instance("#0 in #1")
        rounds = [
            Round(2, both, Pronouncement(True)),
            Round(1, left, Pronouncement(True)),
        ]
        # (#1 in #0) is false, but it was never pronounced; the conjunction
        # check fires only through pronounced conjuncts, so the teller
        # outlasts the clock.
        assert referee(game, Transcript(rounds)) == TELLER_WINS
        right = parse_instance("#1 in #0")
        rounds = [
            Round(3, both, Pronouncement(True)),
            Round(2, right, Pronouncement(False)),
        ]
        assert referee(game, Transcript(rounds)) == INTERROGATOR_WINS

    def test_unknown_predicate_inquiry(self):
        game = truth_game(V2)
        state = RefereeState(game)
        bad = instance(parse_formula("P(#0)"), {})
        with pytest.raises(SignatureError):
            state.process_round(Round(1, bad, Pronouncement(True)))

    def test_empty_transcript_ongoing(self):
        game = truth_game(V2)
        assert referee(game, Transcript([])) == ONGOING

    def test_rounds_after_a_round_without_inquiry_malformed(self):
        phi = parse_instance("#0 = #0")
        for mode, clocks in ((NATURAL, (3, 2, 1)), (ORDINAL, (5, 3, 0))):
            game = truth_game(V2, mode)
            rounds = [
                Round(game.clock(clocks[0]), phi, Pronouncement(True)),
                Round(game.clock(clocks[1]), None, None),
                Round(game.clock(clocks[2]), None, None),
            ]
            with pytest.raises(MalformedTranscriptError, match="without inquiry"):
                referee(game, Transcript(rounds))
            assert referee(game, Transcript(rounds[:2])) == ONGOING


class TestHonestTeller:
    def test_atomic_pronouncement(self):
        game = truth_game(V2)
        teller = honest_teller(game, V2)
        pron = teller.answer(game, parse_instance("#0 in #1"), 5, ())
        assert pron.verdict is True and pron.witness is None

    def test_existential_with_forced_witness(self):
        game = truth_game(V2)
        teller = honest_teller(game, V2)
        pron = teller.answer(game, parse_instance("Ex. (x in #1)"), 5, ())
        assert pron.verdict and pron.witness == 0
        assert print_instance(pron.witness_instance) == "(#0 in #1)"

    def test_survives_exhaustive_depth2(self):
        game = truth_game(V3)
        teller = honest_teller(game, V3)
        res = interrogator_search(game, teller, depth=2)
        assert res.proven_none and res.plan is None

    def test_survives_random_interrogators(self):
        game = truth_game(V3)
        teller = honest_teller(game, V3)
        rng = random.Random(71)
        for _ in range(200):
            t = play_truth_game(game, RandomInterrogator(rng, depth=8), teller)
            assert t.status != INTERROGATOR_WINS, transcript_to_json(game, t)

    def test_class_backed_teller_coverage(self):
        targets = enumerate_instances(V2, 4)
        S = build_truth_predicate(V2, targets)
        teller = HonestTeller(S)
        game = truth_game(V2)
        for inst in targets:
            assert teller.answer(game, inst, 9, ()).verdict == eval_instance(V2, inst)
        outside = parse_instance("(#0 = #0) & (#0 = #0) & (#0 = #0)")
        with pytest.raises(CoverageError):
            teller.answer(game, outside, 9, ())


class TestExtraction:
    def test_extraction_equals_truth(self):
        game = truth_game(V3)
        teller = honest_teller(game, V3)
        targets = enumerate_instances(V3, 4)
        S = extract_satisfaction(teller, game, targets)
        truth = build_truth_predicate(V3, targets)
        assert S.entries == truth.entries

    def test_atomic_liar_aborts(self):
        game = truth_game(V3)
        lie = parse_instance("#0 in #1")
        teller = LyingTeller(honest_teller(game, V3), lie)
        with pytest.raises(NotWinningStrategyError):
            extract_satisfaction(teller, game, [lie], presearch_budget=None)

    def test_low_clock_scrambler_still_extracts_truth(self):
        game = truth_game(V3)
        teller = LowClockScrambler(honest_teller(game, V3), seed=3)
        targets = enumerate_instances(V3, 4)
        S = extract_satisfaction(teller, game, targets, presearch_budget=None)
        truth = build_truth_predicate(V3, targets)
        assert S.entries == truth.entries

    def test_stability_across_budgets(self):
        game = truth_game(V3)
        teller = honest_teller(game, V3)
        targets = enumerate_instances(V3, 3)
        base = extract_satisfaction(teller, game, targets)
        for k in (1, 3, 5):
            again = extract_satisfaction(teller, game, targets, extra_clock=k)
            assert again.entries == base.entries

    def test_clock_mode_equivalence(self):
        targets = enumerate_instances(V3, 3)
        results = []
        for mode in (NATURAL, ORDINAL):
            game = truth_game(V3, mode)
            teller = honest_teller(game, V3)
            results.append(extract_satisfaction(teller, game, targets).entries)
        assert results[0] == results[1]

    def test_round_trip_class_backed_teller_wins(self):
        game = truth_game(V3)
        teller = honest_teller(game, V3)
        targets = enumerate_instances(V3, 4)
        S = extract_satisfaction(teller, game, targets)
        replay_teller = HonestTeller(S)
        again = extract_satisfaction(replay_teller, game, targets, presearch_budget=None)
        assert again.entries == S.entries
        pool = [t for t in targets][:80]
        res = interrogator_search(game, replay_teller, depth=2, pool=pool)
        assert res.plan is None

    def test_instability_detected(self):
        game = truth_game(V3)
        flip = parse_instance("!!(#0 in #1)")

        class Flipper:
            def __init__(self):
                self.base = honest_teller(game, V3)
                self.count = 0

            def answer(self, g, inquiry, clock, history):
                if inquiry == flip:
                    self.count += 1
                    return Pronouncement(self.count % 2 == 1)
                return self.base.answer(g, inquiry, clock, history)

        with pytest.raises(NotWinningStrategyError, match="instability|probe"):
            extract_satisfaction(Flipper(), game, [flip], presearch_budget=None)


class TestInterrogatorSearch:
    def test_liar_found_at_depth_one(self):
        game = truth_game(V3)
        lie = parse_instance("#1 in #2")
        teller = LyingTeller(honest_teller(game, V3), lie)
        res = interrogator_search(game, teller, depth=1)
        assert res.plan is not None
        assert res.plan.inquiries == (lie,)

    def test_bad_witness_found_by_depth_two(self):
        game = truth_game(V2)
        target = parse_instance("Ex. (x in #1)")
        teller = BadWitnessTeller(honest_teller(game, V2), target)
        res = interrogator_search(game, teller, depth=2, pool_max_size=4)
        assert res.plan is not None and len(res.plan.inquiries) <= 2

    def test_budget_vs_proven(self):
        game = truth_game(V3)
        teller = honest_teller(game, V3)
        capped = interrogator_search(game, teller, depth=2, budget=50)
        assert capped.plan is None and not capped.exhausted and not capped.proven_none
        full = interrogator_search(game, teller, depth=1)
        assert full.proven_none

    def test_deep_search_without_recursion(self):
        game = truth_game(V2)
        res = interrogator_search(
            game, honest_teller(game, V2), depth=1500, pool=[parse_instance("#0 in #1")]
        )
        assert res.proven_none and res.nodes == 1500

    def test_pool_includes_structure_predicates(self):
        M = V2.with_predicate("Z", {(0,)})
        game = truth_game(M)
        pool = default_inquiry_pool(game, max_size=2)
        assert any(
            inst.formula.name == "Z"
            for inst in pool
            if hasattr(inst.formula, "name")
        )


class TestRecursionGame:
    def setup_method(self):
        self.rel = WellFoundedRelation(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
        self.rule = RecursionRule.parse("x = #0 | Ej. ((j <| i) & F(j, x))")
        self.solution = etr_solve(V3, self.rel, self.rule)
        self.game = recursion_game(V3, self.rel, self.rule)
        self.teller = honest_teller(self.game, V3, solution=self.solution)

    def test_empty_relation_degenerates(self):
        rel = WellFoundedRelation(frozenset({1}), frozenset())
        game = recursion_game(V3, rel, self.rule)
        sol = etr_solve(V3, rel, self.rule)
        teller = honest_teller(game, V3, solution=sol)
        rf = game.rule_instance_formula
        inst = instance(rf, {"i": 1, "x": 0})
        t = natural_transcript(game, teller, [inst], start=12)
        assert t.status == ONGOING
        assert t.rounds[0].pronouncement.verdict is True

    def test_honest_solution_teller_survives_random(self):
        rng = random.Random(73)
        for _ in range(200):
            t = play_truth_game(self.game, RandomInterrogator(rng, depth=6), self.teller)
            assert t.status != INTERROGATOR_WINS, transcript_to_json(self.game, t)

    def test_rule_denial_loses(self):
        rf = self.game.rule_instance_formula
        ri = instance(rf, {"i": 2, "x": 0})

        class Denier:
            def __init__(self, base):
                self.base = base

            def answer(self, game, inquiry, clock, history):
                if inquiry == ri:
                    return Pronouncement(False)
                return self.base.answer(game, inquiry, clock, history)

        t = natural_transcript(self.game, Denier(self.teller), [ri])
        assert t.status == INTERROGATOR_WINS

    def test_extract_solution_round_trip(self):
        got = extract_solution(self.teller, self.game)
        assert got.pairs == self.solution.pairs

    def test_spurious_pair_caught(self):
        bad = Solution(self.solution.pairs | {(2, 3)})
        teller = honest_teller(self.game, V3, solution=bad)
        with pytest.raises(NotWinningStrategyError):
            extract_solution(teller, self.game)

    def test_missing_pair_caught(self):
        bad = Solution(self.solution.pairs - {(2, 0)})
        teller = honest_teller(self.game, V3, solution=bad)
        with pytest.raises(NotWinningStrategyError):
            extract_solution(teller, self.game)

    def test_structure_may_not_fix_F(self):
        M = V3.with_predicate("F", {(0, 0)})
        with pytest.raises(SignatureError):
            recursion_game(M, self.rel, self.rule)

    def test_search_pool_contains_rule_instances(self):
        pool = default_inquiry_pool(self.game, max_size=2)
        rf = self.game.rule_instance_formula
        assert any(inst.formula == rf for inst in pool)


class TestTranscriptSerialization:
    def test_json_round_trip_and_replay(self):
        game = truth_game(V3)
        teller = honest_teller(game, V3)
        inquiries = [
            parse_instance("Ex. (x in #3)"),
            parse_instance("!(#2 in #2)"),
            parse_instance("#1 = #1"),
        ]
        t = natural_transcript(game, teller, inquiries)
        text = transcript_to_json(game, t)
        back = transcript_from_json(game, text)
        assert referee(game, back) == t.status == TELLER_WINS
        assert transcript_to_json(game, back) == text

    def test_ordinal_clocks_serialize_as_text(self):
        game = truth_game(V2, ORDINAL)
        teller = honest_teller(game, V2)
        t = play_truth_game(
            game, ScriptedInterrogator([parse_instance("#0 = #0")], 3), teller
        )
        doc = json.loads(transcript_to_json(game, t))
        assert doc["rounds"][0]["clock"] == "3"
        back = transcript_from_json(game, transcript_to_json(game, t))
        assert referee(game, back) == t.status


class TestClockBudget:
    def test_budget_formula(self):
        atom = parse_instance("#0 in #1")
        assert clock_budget(atom) == 2 * 3 + 2
        ex = parse_instance("Ex. (x in #1)")
        assert clock_budget(ex) == 2 * 4 + 2


class TestWitnessDiscipline:
    def test_mismatched_witness_instance_loses(self):
        game = truth_game(V2)
        ex = parse_instance("Ex. (x in #1)")
        wrong_body = instance(parse_formula("(x in #1)"), {"x": 1})
        rounds = [Round(1, ex, Pronouncement(True, 0, wrong_body))]
        assert referee(game, Transcript(rounds)) == INTERROGATOR_WINS

    def test_witness_outside_universe_loses(self):
        game = truth_game(V2)
        ex = parse_instance("Ex. (x in #1)")
        rounds = [Round(1, ex, Pronouncement(True, 99, None))]
        assert referee(game, Transcript(rounds)) == INTERROGATOR_WINS


class TestPerGameCaches:
    def test_instances_die_with_their_game(self):
        inquiries = [parse_instance("!(#0 in #1) & Ex. (x in #3)")]
        game = truth_game(V3)
        play_truth_game(game, ScriptedInterrogator(inquiries), honest_teller(game, V3))
        conjunct = game.parts(inquiries[0])[1]
        assert print_instance(conjunct) == "Ex. (x in #3)"
        ref = weakref.ref(conjunct)
        del game, conjunct
        other = truth_game(V3)
        play_truth_game(other, ScriptedInterrogator(inquiries), honest_teller(other, V3))
        gc.collect()
        assert ref() is None


class TestLargeCarrierRecursion:
    def test_thirty_node_dag_extraction(self):
        # Carrier codes live in V_5; the reachability-style rule is an
        # explicit edge-disjunction so nothing ever scans the universe.
        from hfgames.logic import And as LAnd, Const, Eq, Not as LNot, Pred, Var

        rng = random.Random(127)
        U5 = Structure(build_universe(5))
        nodes = list(range(30))
        edges = set()
        for b in nodes[1:]:
            for a in rng.sample(range(b), min(b, rng.randint(1, 2))):
                edges.add((a, b))
        rel = WellFoundedRelation(frozenset(nodes), frozenset(edges))
        formula = Eq(Var("x"), Const(0))
        for a, b in sorted(edges):
            clause = LAnd(
                LAnd(Eq(Var("i"), Const(b)), Pred("F", (Const(a), Var("x")))),
                Pred("<|", (Const(a), Var("i"))),
            )
            formula = LNot(LAnd(LNot(formula), LNot(clause)))
        rule = RecursionRule(formula)
        domain = (0, 1)
        solution = etr_solve(U5, rel, rule, value_domain=domain)
        game = recursion_game(U5, rel, rule, value_domain=domain)
        teller = honest_teller(game, U5, solution=solution)
        extracted = extract_solution(teller, game)
        assert extracted.pairs == solution.pairs


class CoinFlipLiar:
    """Flips a seeded coin per inquiry and lies on heads."""

    def __init__(self, base, seed):
        self.base = base
        self.rng = random.Random(seed)

    def answer(self, game, inquiry, clock, history):
        pron = self.base.answer(game, inquiry, clock, history)
        if self.rng.random() < 0.15:
            return Pronouncement(not pron.verdict)
        return pron


class ClockListInterrogator:
    """Announces a fixed list of clocks, malformed ones included."""

    def __init__(self, clocks, inquiries):
        self.clocks = clocks
        self.inquiries = inquiries

    def move(self, game, transcript):
        k = len(transcript.rounds)
        if k >= len(self.clocks):
            return None
        return self.clocks[k], self.inquiries[k % len(self.inquiries)]


MALFORMED_CLOCKS = [
    [3, 3],
    [2, 5],
    [0],
    [4, 2, 1],
    [1, 0],
    [2, 1, 0],
    [True, 0],
    [-1],
    [5, 4, 4, 3],
]


def _play_statuses() -> list[str]:
    """Seeded plays in both clock modes, honest and faulty tellers, plus
    interrogators announcing malformed clocks: one line per play, the
    transcript JSON or the type of the error it raised."""
    lines = []
    for mode in (NATURAL, ORDINAL):
        game = truth_game(V3, mode)
        honest = honest_teller(game, V3)
        rng = random.Random(f"statuses:{mode}")
        tellers = [
            honest,
            CoinFlipLiar(honest, 11),
            LowClockScrambler(honest, seed=5),
            BadWitnessTeller(honest, parse_instance("Ex. (x in #3)")),
        ]
        for teller in tellers:
            for _ in range(25):
                interrogator = RandomInterrogator(rng, depth=rng.randint(1, 8), max_size=5)
                t = play_truth_game(game, interrogator, teller)
                assert referee(game, t) == t.status
                lines.append(transcript_to_json(game, t))
        inquiries = [parse_instance("#0 in #1"), parse_instance("Ex. (x in #3)")]
        for clocks in MALFORMED_CLOCKS:
            try:
                t = play_truth_game(game, ClockListInterrogator(clocks, inquiries), honest)
            except HFGamesError as exc:
                lines.append(type(exc).__name__)
            else:
                lines.append(t.status)
    return lines


class TestOnePlayLoop:
    def test_statuses_pinned(self):
        # Computed before plays, probes, search and the CLI shared one
        # referee state; change it only with a deliberate change of rules.
        lines = _play_statuses()
        assert len(lines) == 218
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "f933cd1614dcce196010b5f2e6132ddaba5cc7acead78999beeade36032eb8db"
        )

    def test_each_answered_round_judged_once(self, monkeypatch):
        judged = []
        process_round = RefereeState.process_round

        def counting(state, rnd):
            judged.append(rnd)
            return process_round(state, rnd)

        monkeypatch.setattr(RefereeState, "process_round", counting)
        game = truth_game(V3)
        teller = LyingTeller(honest_teller(game, V3), parse_instance("#1 in #2"))
        rng = random.Random(5)
        plays = [
            natural_transcript(game, teller, [parse_instance("#0 in #1"), parse_instance("#1 in #2")]),
            *(play_truth_game(game, RandomInterrogator(rng, depth=6), teller) for _ in range(20)),
        ]
        assert plays[0].status == INTERROGATOR_WINS
        assert judged == [rnd for t in plays for rnd in t.rounds]

    def test_tellers_read_the_live_rounds(self):
        seen = []

        class Watcher:
            def __init__(self, base):
                self.base = base

            def answer(self, game, inquiry, clock, history):
                seen.append((history, len(history)))
                return self.base.answer(game, inquiry, clock, history)

        game = truth_game(V2)
        inquiries = [parse_instance("#0 in #1"), parse_instance("#0 = #0"), parse_instance("!(#1 in #0)")]
        t = natural_transcript(game, Watcher(honest_teller(game, V2)), inquiries)
        assert [n for _, n in seen] == [0, 1, 2]
        assert all(history is t.rounds for history, _ in seen)

    def test_search_leaves_no_rounds(self, monkeypatch):
        states = []

        class Recording(RefereeState):
            def __init__(self, game):
                super().__init__(game)
                states.append(self)

        monkeypatch.setattr(truthgames, "RefereeState", Recording)
        game = truth_game(V2)
        honest = honest_teller(game, V2)
        liar = LyingTeller(honest, parse_instance("#0 in #1"))
        for teller, budget in ((honest, None), (honest, 40), (liar, None)):
            res = interrogator_search(game, teller, depth=2, budget=budget)
            state = states[-1]
            assert (state.rounds, state.lost, state.marks) == ([], False, {}), res
        assert res.plan is not None
