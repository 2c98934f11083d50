import dataclasses
import gc
import hashlib
import json
import random
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgames.errors import (
    CoverageError,
    HFGamesError,
    InvariantError,
    MalformedTranscriptError,
    NotWinningStrategyError,
    ParseError,
    SignatureError,
)
from hfgames.etr import RecursionRule, Solution, etr_solve
from hfgames import logic, oracles, suites, truthgames
from hfgames.logic import (
    ATOMIC_KINDS,
    And,
    Const,
    Eq,
    Exists,
    Member,
    Not,
    Pred,
    Structure,
    Var,
    build_truth_predicate,
    enumerate_instances,
    eval_instance,
    instance,
    parse_closed,
    parse_formula,
    parse_instance,
    random_formula,
    random_instance,
    size,
    skolem_witness,
    subformulas,
    to_text,
)
from hfgames.truthgames import (
    INTERROGATOR_WINS,
    NATURAL,
    ONGOING,
    ORDINAL,
    TELLER_WINS,
    HonestTeller,
    _unfold,
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
from hfgames.oracles import clock_outcome, referee_lost, tarski_eval
from hfgames.universe import Ordinal, WellFoundedRelation, build_universe, parse_ordinal

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


class Flipper:
    """Answers one fixed instance with the opposite of its honest verdict,
    and no witness, at its first, third, ... ask; honest elsewhere."""

    def __init__(self, base, flip):
        self.base = base
        self.flip = flip
        self.count = 0

    def answer(self, game, inquiry, clock, history):
        honest = self.base.answer(game, inquiry, clock, history)
        if inquiry == self.flip:
            self.count += 1
            if self.count % 2 == 1:
                return Pronouncement(not honest.verdict)
        return honest


class ClauseFlipper:
    """Memoryless: answers by Tarski's clauses over its own answers, naming
    the least witness of an affirmed existential, but with the verdict on
    one instance flipped (a flipped existential affirmed names #0)."""

    memoryless = True

    def __init__(self, M, flip):
        self.M = M
        self.flip = flip
        self.cache = {}

    def answer(self, game, inquiry, clock, history):
        got = self.cache.get(inquiry)
        if got is None:
            witness = None
            if isinstance(inquiry, Not):
                verdict = not self.answer(game, inquiry.parts[0], clock, history).verdict
            elif isinstance(inquiry, And):
                verdict = all(self.answer(game, p, clock, history).verdict for p in inquiry.parts)
            elif isinstance(inquiry, Exists):
                witness = next((b for b in self.M.universe.elements
                                if self.answer(game, inquiry.witness_body(b), clock, history).verdict), None)
                verdict = witness is not None
            else:
                verdict = eval_instance(self.M, inquiry)
            if inquiry is self.flip:
                verdict = not verdict
                witness = 0 if verdict else None
            if verdict and isinstance(inquiry, Exists):
                got = Pronouncement(True, witness, inquiry.witness_body(witness))
            else:
                got = Pronouncement(verdict)
            self.cache[inquiry] = got
        return got


class ProbeSwitch:
    """Answers as ``other`` through the probe that opens with ``opening``
    and as ``base`` through every other probe."""

    def __init__(self, base, other, opening):
        self.base = base
        self.other = other
        self.opening = opening

    def answer(self, game, inquiry, clock, history):
        first = history[0].inquiry if history else inquiry
        teller = self.other if first is self.opening else self.base
        return teller.answer(game, inquiry, clock, history)


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


class Patient:
    """Answers as ``base`` at clocks <= 2 and as ``teller`` at every later
    clock, where extraction's probes ask their targets (each probe's clock
    budget is at least 6); it declares no ``memoryless``."""

    def __init__(self, base, teller):
        self.base = base
        self.teller = teller

    def answer(self, game, inquiry, clock, history):
        n = clock.to_int() if isinstance(clock, Ordinal) else clock
        return (self.base if n <= 2 else self.teller).answer(game, inquiry, clock, history)


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
            Round(parse_ordinal("w"), phi, Pronouncement(True)),
            Round(Ordinal.from_nat(5), phi, Pronouncement(True)),
            Round(Ordinal.from_nat(0), None, None),
        ]
        assert referee(game, Transcript(rounds)) == TELLER_WINS
        bad = [
            Round(Ordinal.from_nat(2), phi, Pronouncement(True)),
            Round(parse_ordinal("w"), phi, Pronouncement(True)),
        ]
        with pytest.raises(MalformedTranscriptError):
            referee(game, Transcript(bad))

    def test_ordinal_clock_in_natural_mode_malformed(self):
        game = truth_game(V2)
        phi = parse_instance("#0 = #0")
        clocks = [parse_ordinal("w"), Ordinal.from_nat(7), Ordinal.from_nat(7)]
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

    @pytest.mark.parametrize("text, name", [("Q(#0) & P(#0)", "Q"), ("P(#0) & Q(#0)", "P")])
    def test_unknown_predicate_named_first_in_pre_order(self, text, name):
        state = RefereeState(truth_game(V2))
        with pytest.raises(SignatureError) as exc:
            state.process_round(Round(1, parse_instance(text), Pronouncement(True)))
        assert str(exc.value) == f"inquiry uses unknown predicate {name!r}"
        assert state.rounds == []

    def test_refused_again_by_a_second_state(self):
        game = truth_game(V2.with_predicate("Q", {(0,)}))
        bad = parse_instance("Q(#0) & !Ex. (Q(x) & P(x))")
        for _ in range(2):
            with pytest.raises(SignatureError, match="unknown predicate 'P'"):
                RefereeState(game).process_round(Round(1, bad, Pronouncement(False)))

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


def edge_rule(edges) -> RecursionRule:
    """Reachability from node 0 as one disjunct per edge, nested as
    !(!(...) & !clause), so no quantifier ever scans the universe."""
    formula = Eq(Var("x"), Const(0))
    for a, b in sorted(edges):
        clause = And(
            And(Eq(Var("i"), Const(b)), Pred("F", (Const(a), Var("x")))),
            Pred("<|", (Const(a), Var("i"))),
        )
        formula = Not(And(Not(formula), Not(clause)))
    return RecursionRule(formula)


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
        assert to_text(pron.witness_instance) == "(#0 in #1)"

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


@st.composite
def wrapped_instances(draw):
    """A structure over V_1-V_3 with unary P and binary R, and an instance
    built from logic's random formulas, an existential over one of them,
    and a few Not and And layers around them."""
    rank = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    U = build_universe(rank)
    codes = range(U.size)
    M = Structure(U, {
        "P": {(c,) for c in codes if rng.random() < 0.4},
        "R": {(a, b) for a in codes for b in codes if rng.random() < 0.3},
    })
    pool = [random_formula(rng, U, rng.randint(3, 9), M.signature()) for _ in range(3)]
    pool.append(Exists(rng.choice("xyz"), rng.choice(pool)))
    f = draw(st.sampled_from(pool))
    for op in draw(st.lists(st.sampled_from(["not", "left", "right", "exists"]), max_size=5)):
        g = rng.choice(pool)
        if op == "not":
            f = Not(f)
        elif op == "exists":
            f = Exists(rng.choice("xyz"), f)
        else:
            f = And(f, g) if op == "left" else And(g, f)
    assignment = {v: rng.randrange(U.size) for v in "xyz"}
    return M, instance(f, assignment)


class TestTellerByClauses:
    """The structure-backed honest teller answers Not and And from its own
    answers to the parts; only atoms and existentials reach the evaluator."""

    @settings(max_examples=150, deadline=None)
    @given(wrapped_instances())
    def test_verdicts_and_least_witnesses_agree_with_tarski(self, case):
        M, inquiry = case
        game = truth_game(M)
        teller = honest_teller(game, M)
        # The inquiry first, then its parts, which the teller answered on
        # the way or, behind a false left conjunct, not at all.
        todo, seen = [inquiry], set()
        while todo:
            inst = todo.pop()
            if inst in seen:
                continue
            seen.add(inst)
            pron = teller.answer(game, inst, 9, ())
            assert pron.verdict == tarski_eval(M, inst, {})
            if isinstance(inst, Exists) and pron.verdict:
                holds = [tarski_eval(M, inst.body, {inst.var: b}) for b in M.universe.elements]
                least = holds.index(True)
                assert pron.witness == least == skolem_witness(M, inst)
                assert pron.witness_instance is inst.witness_body(least)
            else:
                assert pron.witness is None and pron.witness_instance is None
            if isinstance(inst, (Not, And)):
                todo.extend(inst.parts)

    @pytest.mark.parametrize("k", [1, 6, 24])
    def test_each_atom_evaluated_once(self, monkeypatch, k):
        rng = random.Random(k)
        U5 = Structure(build_universe(5))
        nodes = list(range(k + 1))
        edges = {(rng.randrange(b), b) for b in nodes[1:]}
        rel = WellFoundedRelation(frozenset(nodes), frozenset(edges))
        rule = edge_rule(edges)
        solution = etr_solve(U5, rel, rule, value_domain=(0, 1))
        game = recursion_game(U5, rel, rule, value_domain=(0, 1))
        teller = honest_teller(game, U5, solution=solution)
        calls = []
        real = truthgames.eval_instance
        monkeypatch.setattr(
            truthgames, "eval_instance", lambda M, inst: calls.append(inst) or real(M, inst)
        )
        atoms = set()
        for x in (0, 1):
            inquiry = game.rule_instances()[(k, x)]
            assert teller.answer(game, inquiry, 9, ()).verdict is True
            atoms |= {g for g in subformulas(inquiry) if isinstance(g, ATOMIC_KINDS)}
        assert len(calls) == len(set(calls)) and set(calls) <= atoms
        assert len(calls) > k  # at x = 1 no disjunct holds, so every one is read

    def test_only_affirmed_existentials_get_a_reply_of_their_own(self, monkeypatch):
        # Every other answer is one of two shared pronouncements, so the
        # teller builds none for an atom, a connective or a false
        # existential.  Run on criterion 4's rule shapes and criterion 1's
        # targets.
        built = []

        class Counted(Pronouncement):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(truthgames, "Pronouncement", Counted)
        dag = WellFoundedRelation(frozenset({0, 1, 2, 3}), frozenset({(0, 1), (1, 2), (0, 3)}))
        tellers = []
        for text in [
            "x = #2 | Ej. ((j <| i) & F(j, x))",
            "x = i | Ej. ((j <| i) & F(j, x))",
            "(x in i) | Ej. ((j <| i) & F(j, x))",
            "x = #2 | Ej. (Ey. ((j <| i) & F(j, y) & x in y))",
        ]:
            rule = RecursionRule.parse(text)
            solution = etr_solve(V3, dag, rule)
            game = recursion_game(V3, dag, rule)
            tellers.append(honest_teller(game, V3, solution=solution))
            assert extract_solution(tellers[-1], game) == solution
        game, targets = truth_game(V3), enumerate_instances(V3, 5)
        tellers.append(honest_teller(game, V3))
        assert extract_satisfaction(tellers[-1], game, targets) == build_truth_predicate(V3, targets)
        affirmed = 0
        for teller in tellers:
            M = teller.source
            for inquiry, pron in teller._cache.items():
                verdict = tarski_eval(M, inquiry, {})
                got = (pron.verdict, pron.witness, pron.witness_instance)
                if verdict and isinstance(inquiry, Exists):
                    w = skolem_witness(M, inquiry)
                    assert type(pron) is Counted and got == (True, w, inquiry.witness_body(w))
                    affirmed += 1
                else:
                    assert type(pron) is Pronouncement and got == (verdict, None, None)
        # 222 of the 1,432 answers are affirmed existentials.
        assert affirmed > 100 and len(built) == affirmed

    def test_deep_chain_answered_without_recursion(self):
        game = truth_game(V2)
        teller = honest_teller(game, V2)
        some = Exists("x", Member(Var("x"), Const(1)))
        f, negations = Member(Const(0), Const(1)), 0
        for k in range(3000):
            if k % 3 == 0:
                f, negations = Not(f), negations + 1
            else:
                f = And(f, some) if k % 3 == 1 else And(some, f)
        inquiry = instance(f, {})
        assert teller.answer(game, inquiry, 9, ()).verdict is (negations % 2 == 0)
        assert teller.answer(game, inquiry, 9, ()).verdict == eval_instance(V2, inquiry)
        assert RefereeState(game).ask(teller, 9, inquiry) == []


class TestExtraction:
    def test_extraction_equals_truth(self):
        game = truth_game(V3)
        teller = honest_teller(game, V3)
        targets = enumerate_instances(V3, 4)
        S = extract_satisfaction(teller, game, targets)
        truth = build_truth_predicate(V3, targets)
        assert S.entries == truth.entries

    @pytest.mark.parametrize("mode", [NATURAL, ORDINAL], ids=["natural", "ordinal"])
    @pytest.mark.parametrize("budget", [1, 3, 4])
    def test_probe_stops_when_its_clock_is_spent(self, mode, budget):
        # The target and its follow-ups are five inquiries, more than the
        # budget: the probe asks the first ``budget`` of them, counting the
        # clock down to 1, and asks none at clock 0.
        game = truth_game(V2, mode)
        target = parse_instance("!(#0 in #1) & !(#1 in #0)")
        left, right = target.parts
        state = truthgames._probe(game, honest_teller(game, V2), [target], budget)
        assert [rnd.inquiry for rnd in state.rounds] == [target, left, right, *left.parts][:budget]
        assert [rnd.clock for rnd in state.rounds] == [game.clock(n) for n in range(budget, 0, -1)]

    @pytest.mark.parametrize("extra", [-1, -10])
    def test_negative_extra_clock_is_typed(self, extra):
        # Refused at entry, before the teller is asked anything.
        game = truth_game(V2)
        teller = honest_teller(game, V2)
        with pytest.raises(InvariantError, match=f"extra clock {extra} below 0"):
            extract_satisfaction(teller, game, [parse_instance("#0 in #1")], extra_clock=extra)

    def test_atomic_liar_aborts(self):
        game = truth_game(V3)
        honest = honest_teller(game, V3)
        lie = parse_instance("#0 in #1")
        teller = Patient(honest, LyingTeller(honest, lie))
        with pytest.raises(NotWinningStrategyError, match="teller lost a probe"):
            extract_satisfaction(teller, game, [lie])

    def test_stability_across_budgets(self, probe_budgets):
        game = truth_game(V3)
        # Without ``memoryless`` the teller is read by probes at each
        # target's budget: the one path the extra clock reaches.
        teller = SimpleNamespace(answer=honest_teller(game, V3).answer)
        targets = enumerate_instances(V3, 3)
        base = extract_satisfaction(teller, game, targets)
        for k in (1, 3, 5):
            again = extract_satisfaction(teller, game, targets, extra_clock=k)
            assert again.entries == base.entries
        for k in (0, 1, 3, 5):
            assert all(((t,), clock_budget(t) + k) in probe_budgets for t in targets)

    def test_suite_clock_robustness_reaches_the_probes(self, probe_budgets):
        cfg = suites.RunConfig()
        report = suites.suite_truthgames(cfg)
        (case,) = [c for c in report.cases if c.name == "clock robustness"]
        assert case.passed
        targets = enumerate_instances(Structure(build_universe(cfg.universe_rank)), 3)
        for k in (0, 5):
            assert all(((t,), clock_budget(t) + k) in probe_budgets for t in targets)

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
        # The targets hold their parts and witness bodies, so the replayed
        # class answers every follow-up.
        S = extract_satisfaction(teller, game, targets)
        replay_teller = HonestTeller(S)
        again = extract_satisfaction(replay_teller, game, targets)
        assert again.entries == S.entries
        pool = [t for t in targets][:80]
        res = interrogator_search(game, replay_teller, depth=2, pool=pool)
        assert res.plan is None

    def test_instability_detected(self):
        game = truth_game(V3)
        honest = honest_teller(game, V3)
        flip = parse_instance("!!(#0 in #1)")
        teller = Patient(honest, Flipper(honest, flip))
        with pytest.raises(NotWinningStrategyError, match="instability|probe"):
            extract_satisfaction(teller, game, [flip])

    @pytest.mark.parametrize("path", ["one pass", "probes"])
    @pytest.mark.parametrize(
        "texts", [["!(#0 in #1)"], ["Ex. (x in #1)"], ["(#0 in #1) & (#0 in #1)"]]
    )
    def test_honest_teller_on_targets_without_their_parts(self, texts, path):
        # A list need not hold its parts or witness bodies.  Patient hides
        # the honest teller's memoryless declaration, so its marks come from
        # the probes.
        game = truth_game(V2)
        honest = honest_teller(game, V2)
        teller = honest if path == "one pass" else Patient(honest, honest)
        targets = [parse_instance(t) for t in texts]
        assert extract_satisfaction(teller, game, targets) == build_truth_predicate(V2, targets)


def refusal(call) -> str:
    """The message of the NotWinningStrategyError, exactly that type, call raises."""
    with pytest.raises(NotWinningStrategyError) as info:
        call()
    assert type(info.value) is NotWinningStrategyError
    return str(info.value)


class TestExtractionRefusals:
    """Each way extraction refuses a strategy, with its exact message."""

    def setup_method(self):
        self.game = truth_game(V3)
        self.honest = honest_teller(self.game, V3)
        self.rel = WellFoundedRelation(frozenset({0, 1}), frozenset({(0, 1)}))
        self.rule = RecursionRule.parse("x = i | F(#0, x)")
        self.rgame = recursion_game(V2, self.rel, self.rule)
        self.solution = etr_solve(V2, self.rel, self.rule)
        self.rhonest = honest_teller(self.rgame, V2, solution=self.solution)

    def test_presearch_finds_a_liar(self):
        # The probe asks the target's part, and the lie there loses it.
        target = parse_instance("!(#0 in #1)")
        teller = LyingTeller(self.honest, parse_instance("#0 in #1"))
        assert refusal(lambda: extract_satisfaction(teller, self.game, [target])) == (
            "teller lost a probe at (#0 in #1):"
            " [atomic] (#0 in #1): pronounced False, structure says True"
        )

    def test_a_liar_loses_a_probe(self):
        lie = parse_instance("#0 in #1")
        teller = Patient(self.honest, LyingTeller(self.honest, lie))
        call = lambda: extract_satisfaction(teller, self.game, [lie])
        assert refusal(call) == (
            "teller lost a probe at (#0 in #1):"
            " [atomic] (#0 in #1): pronounced False, structure says True"
        )

    def test_verdicts_clash_across_probes(self):
        # The teller denies a true existential once; the probe follows the
        # denial with the body at the least witness, and the honest
        # affirmation of that body loses the probe.  In a plain game no
        # two won probes clash: each one's marks are true.
        ex = parse_instance("Ex. (x in #1)")
        teller = Patient(self.honest, Flipper(self.honest, ex))
        call = lambda: extract_satisfaction(teller, self.game, [ex])
        assert refusal(call) == (
            "teller lost a probe at (#0 in #1):"
            " [quantifier] Ex. (x in #1): denied but (#0 in #1) was affirmed"
        )

    def test_marks_that_disagree_across_probes_fail_the_audit(self):
        # The teller always denies the true existential, and affirms its
        # body at witness 0: the existential's own probe asks that body and
        # is lost there, before the body's probe runs.
        ex = parse_instance("Ex. (x in #1)")
        teller = Patient(self.honest, LyingTeller(self.honest, ex))
        call = lambda: extract_satisfaction(teller, self.game, [ex, ex.witness_body(0)])
        assert refusal(call) == (
            "teller lost a probe at (#0 in #1):"
            " [quantifier] Ex. (x in #1): denied but (#0 in #1) was affirmed"
        )

    def test_verdicts_on_f_clash_across_probes(self):
        # The referee never judges an F atom, so in a recursion game each
        # of two probes can be won while they disagree on one: the teller
        # denies F(#0, #0) in the probe that opens with it, and answers
        # for the solution in the probe of its negation.
        atom = parse_instance("F(#0, #0)")
        liar = honest_teller(self.rgame, V2, solution=Solution(self.solution.pairs - {(0, 0)}))
        teller = ProbeSwitch(self.rhonest, liar, atom)
        call = lambda: extract_satisfaction(teller, self.rgame, [atom, Not(atom)])
        assert refusal(call) == "pronouncement instability across probes on F(#0, #0)"

    def test_slices_clash_across_probes(self):
        # F(#0, #1) is false in the solution.  The teller answers for the
        # solution with (0, 1) added in the probe that opens with F(#1, #1),
        # where the rule instance reads F(#0, #1) and holds either way, and
        # honestly elsewhere; the referee never judges F, so each probe
        # alone is won.
        liar = honest_teller(self.rgame, V2, solution=Solution(self.solution.pairs | {(0, 1)}))
        teller = ProbeSwitch(self.rhonest, liar, parse_instance("F(#1, #1)"))
        assert refusal(lambda: extract_solution(teller, self.rgame)) == (
            "incoherent slices across probes on F(#0, #1)"
        )

    def test_extracted_predicate_fails_the_slice_equations(self):
        # The teller's F drops (1, 0) from the solution.  At (1, 0) the rule
        # holds for it only because it denies the true existential read of
        # F; a denial names no witness, so no probe asks an instantiation.
        rule = RecursionRule.parse("x = i | Ej. ((j <| i) & F(j, x))")
        game = recursion_game(V2, self.rel, rule)
        assert etr_solve(V2, self.rel, rule).pairs == {(0, 0), (1, 0), (1, 1)}
        M = honest_teller(game, V2, solution=Solution({(0, 0), (1, 1)})).source
        (read,) = {g for g in subformulas(game.rule_instances()[(1, 0)]) if isinstance(g, Exists)}
        teller = ClauseFlipper(M, read)
        assert refusal(lambda: extract_solution(teller, game)) == (
            "extracted predicate violates the recursion slice equations"
        )


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
        res = interrogator_search(game, teller, depth=2)
        assert res.plan is not None and len(res.plan.inquiries) <= 2

    def test_deep_search_without_recursion(self):
        game = truth_game(V2)
        res = interrogator_search(
            game, honest_teller(game, V2), depth=1500, pool=[parse_instance("#0 in #1")]
        )
        assert res.proven_none and res.nodes == 1500

    def test_pool_includes_structure_predicates(self):
        M = V2.with_predicate("Z", {(0,)})
        game = truth_game(M)
        pool = default_inquiry_pool(game)
        assert any(isinstance(inst, Pred) and inst.name == "Z" for inst in pool)


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

    def test_structure_may_fix_the_relations_own_edges(self):
        M = V3.with_predicate("<|", self.rel.edges)
        game = recursion_game(M, self.rel, self.rule)
        assert game.structure is M
        solution = etr_solve(M, self.rel, self.rule)
        assert extract_solution(honest_teller(game, M, solution=solution), game) == solution

    def test_structure_may_not_fix_other_edges(self):
        # The obligation reads F|i as F(j, y) & (j <| i): under <| = {(0, 2)}
        # that is F at 0, not at the relation's predecessor 1, so ETR and
        # the game refuse the structure alike.
        M = V3.with_predicate("<|", {(0, 2)})
        rule = RecursionRule.parse("x = i | Ej. ((j <| i) & F(j, x))")
        for recursion in (etr_solve, recursion_game):
            with pytest.raises(SignatureError, match=r"<\| guards the reads of F"):
                recursion(M, self.rel, rule)

    def test_referee_accepts_F_and_edge_refuses_others(self):
        state = RefereeState(self.game)
        inq = parse_instance("Ej. ((j <| #1) & F(j, #0))")
        assert state.process_round(Round(3, inq, Pronouncement(False))) == []
        with pytest.raises(SignatureError, match="unknown predicate 'G'"):
            state.process_round(Round(2, parse_instance("F(#0, #0) & G(#0, #0)"), Pronouncement(False)))
        assert [r.inquiry for r in state.rounds] == [inq]

    def test_rule_planned_once_per_game(self, monkeypatch):
        """A game plans its rule formula once and builds every rule instance
        off that plan, each the node the plain substitution makes: over
        criterion 4's rule shapes, and over a 16-node rule with one
        disjunct per edge over V_5."""
        V5 = Structure(build_universe(5))
        edges = sorted({(a, b) for b in range(1, 16) for a in {b - 1, b // 2}})
        formula = Eq(Var("x"), Const(0))
        for a, b in edges:
            clause = And(And(Eq(Var("i"), Const(b)), Pred("F", (Const(a), Var("x")))),
                         Pred("<|", (Const(a), Var("i"))))
            formula = Not(And(Not(formula), Not(clause)))
        shapes = ["x = #2 | Ej. ((j <| i) & F(j, x))", "x = i | Ej. ((j <| i) & F(j, x))",
                  "(x in i) | Ej. ((j <| i) & F(j, x))", "x = #2 | Ej. (Ey. ((j <| i) & F(j, y) & x in y))"]
        chain = WellFoundedRelation(frozenset(range(16)), frozenset(edges))
        cases = [(V3, self.rel, RecursionRule.parse(text), None) for text in shapes]
        cases.append((V5, chain, RecursionRule(formula), (0, 1)))
        planned = []
        plan = logic._plan
        monkeypatch.setattr(logic, "_plan", lambda f, names: planned.append(f) or plan(f, names))
        for M, rel, rule, domain in cases:
            planned.clear()
            game = recursion_game(M, rel, rule, value_domain=domain)
            assert planned == [rule.instance_formula()]
            rules = game.rule_instances()
            assert len(rules) == len(rel.carrier) * len(domain or M.universe.elements)
            for (i, x), inst in rules.items():
                assert inst is oracles.proposition(rule.instance_formula(), {"i": i, "x": x})

    def test_search_pool_contains_rule_instances(self):
        pool = default_inquiry_pool(self.game)
        assert set(self.game.rule_instances().values()) <= set(pool)


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

    @pytest.mark.parametrize(
        "rounds, message",
        [
            ([1], "round 0 needs a clock"),
            ([{"inquiry": "#0 = #0", "verdict": True}], "round 0 needs a clock"),
            ([{"clock": 1.5}], "round 0 needs a clock"),
            ([{"clock": 2, "inquiry": "#0 = #0", "verdict": True}, {"clock": True}], "round 1 needs a clock"),
            ([{"clock": "w+w"}], "CNF exponents must strictly decrease"),
            ([{"clock": 2}, {"clock": 1, "inquiry": 3, "verdict": True}], "round 1 needs an inquiry string"),
            ([{"clock": 1, "inquiry": "#0 = #0"}], "true/false verdict"),
            ([{"clock": 1, "inquiry": "#0 = #0", "verdict": "true"}], "true/false verdict"),
            ([{"clock": 1, "inquiry": "Ex. (x in #1)", "verdict": True, "witness": "0"}], "integer witness"),
            ([{"clock": 1, "inquiry": "Ex. (x in #1)", "verdict": True, "witness": True}], "integer witness"),
            ([{"clock": 1, "inquiry": "Ex. (x in #1)", "verdict": True, "witness": 1.0}], "integer witness"),
            ([{"clock": 1, "inquiry": "(x in #1)", "verdict": True}], "free variables"),
            ([{"clock": 1, "inquiry": "#9 in #1", "verdict": True}], "constant #9 outside the universe"),
            ([{"clock": 1, "inquiry": "Q(#0)", "verdict": True}], "unknown predicate symbol 'Q'"),
            ([{"clock": 1, "inquiry": "#0 in", "verdict": True}], "unexpected end of input"),
        ],
        ids=[
            "round-not-object", "no-clock", "float-clock", "bool-clock", "bad-cnf-clock", "inquiry-not-string",
            "no-verdict", "verdict-not-bool", "witness-str", "witness-bool", "witness-float",
            "free-variable", "constant-outside", "unknown-predicate", "truncated-inquiry",
        ],
    )
    def test_malformed_rounds_refused(self, rounds, message):
        with pytest.raises(ParseError, match=message):
            transcript_from_json(truth_game(V2), json.dumps({"rounds": rounds}))

    @pytest.mark.parametrize("text", ["(x in #1)", "#9 in #1", "Q(#0)", "#0 in"])
    def test_refused_inquiry_names_its_round(self, text):
        rounds = [{"clock": 2, "inquiry": "#0 = #0", "verdict": True}, {"clock": 1, "inquiry": text, "verdict": True}]
        with pytest.raises(ParseError, match="^round 1: "):
            transcript_from_json(truth_game(V2), json.dumps({"rounds": rounds}))

    @pytest.mark.parametrize("text", ["{", "[]", '{"rounds": {}}', '{"status": "ongoing"}'])
    def test_document_without_rounds_refused(self, text):
        with pytest.raises(ParseError, match="not JSON|needs a list of rounds"):
            transcript_from_json(truth_game(V2), text)


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

    @pytest.mark.parametrize("witness", ["0", 0.0, True, "abc"])
    def test_witness_not_an_int_loses(self, witness):
        # int("0"), int(0.0) and int(True) are codes; the witness itself is not.
        game = truth_game(V2)
        ex = parse_instance("Ex. (x in #1)")
        rounds = [Round(1, ex, Pronouncement(True, witness, None))]
        assert referee(game, Transcript(rounds)) == INTERROGATOR_WINS
        assert referee_lost(game, rounds)
        (violation,) = RefereeState(game).process_round(rounds[0])
        assert str(violation) == f"[quantifier] Ex. (x in #1): witness {witness!r} not in universe"
        honest = honest_teller(game, V2)

        class Teller:
            def answer(self, game, inquiry, clock, history):
                if isinstance(inquiry, Exists):
                    return Pronouncement(True, witness, None)
                return honest.answer(game, inquiry, clock, history)

        played = play_truth_game(game, ScriptedInterrogator([ex]), Teller())
        assert played.status == INTERROGATOR_WINS
        # The reader refuses such a witness, so the writer does too.
        with pytest.raises(MalformedTranscriptError, match=f"round 0: witness {witness!r}"):
            transcript_to_json(game, played)
        with pytest.raises(NotWinningStrategyError):
            extract_satisfaction(Teller(), game, [ex])


class TestDerivedInstanceLifetime:
    def test_derived_instances_die_with_their_parent(self):
        # Parts and witness bodies are cached on the instance they are read
        # off, so they outlive the game that asked for them and die with
        # that instance.
        inquiry = parse_instance("!(#3 in #2) & Ex. ((x in #3) & !(x = #2))")
        game = truth_game(V3)
        play_truth_game(game, ScriptedInterrogator([inquiry]), honest_teller(game, V3))
        conjunct = inquiry.parts[1]
        assert to_text(conjunct) == "Ex. ((x in #3) & !(x = #2))"
        refs = [weakref.ref(conjunct), weakref.ref(conjunct.witness_body(0))]
        del game, conjunct
        gc.collect()
        assert all(ref() is not None for ref in refs)
        del inquiry
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_dropped_game_leaves_the_intern_table(self):
        def search_and_extract():
            game = truth_game(V3)
            teller = honest_teller(game, V3)
            assert interrogator_search(game, teller, depth=2).proven_none
            extract_satisfaction(teller, game, enumerate_instances(V3, 4))
            return len(logic._interned)

        # A first game may leave parts on instances that other tests still
        # hold; a second one leaves nothing.
        search_and_extract()
        gc.collect()
        before = len(logic._interned)
        assert search_and_extract() > before
        gc.collect()
        assert len(logic._interned) == before

    def test_dropped_recursion_game_leaves_the_intern_table(self):
        # Criterion 4's deepest rule shape: its (i, x) instances are built
        # by substitution off one plan, and extraction asks for their parts
        # and witness bodies.
        rel = WellFoundedRelation(frozenset({0, 1, 2, 3}), frozenset({(0, 1), (1, 2), (0, 3)}))
        rule = RecursionRule.parse("x = #2 | Ej. (Ey. ((j <| i) & F(j, y) & x in y))")

        def solve_and_extract():
            solution = etr_solve(V3, rel, rule)
            game = recursion_game(V3, rel, rule)
            assert extract_solution(honest_teller(game, V3, solution=solution), game) == solution
            return len(logic._interned)

        solve_and_extract()
        gc.collect()
        before = len(logic._interned)
        assert solve_and_extract() > before
        gc.collect()
        assert len(logic._interned) == before


class TestFollowUpsFromTheGame:
    """Sub-instances and witness bodies are derived once, by the instance,
    and every driver and teller hands on the instance's own objects."""

    def test_unfold_returns_the_games_parts(self):
        game = truth_game(V2)
        for text in ("!(#0 in #1)", "(#0 in #1) & !(#1 in #0)"):
            inquiry = parse_instance(text)
            assert all(a is b for a, b in zip(_unfold(game, inquiry, None), inquiry.parts))
        ex = parse_instance("Ex. (x in #1)")
        (body,) = _unfold(game, ex, Pronouncement(True, 0))
        assert body is ex.witness_body(0)

    def test_honest_witness_instances_are_the_games_bodies(self):
        game = truth_game(V2)
        ex, vacuous = parse_instance("Ex. (x in #1)"), parse_instance("Ex. (#0 in #1)")
        structure_backed = honest_teller(game, V2)
        bodies = [vacuous.witness_body(0), *(ex.witness_body(b) for b in V2.universe.elements)]
        S = build_truth_predicate(V2, [ex, vacuous, *bodies])
        for teller in (structure_backed, HonestTeller(S)):
            for inquiry in (ex, vacuous):
                pron = teller.answer(game, inquiry, 5, ())
                assert pron.witness_instance is inquiry.witness_body(pron.witness)

    def test_replayed_witness_instances_are_the_games_bodies(self):
        game = truth_game(V2)
        doc = {"rounds": [{"clock": 1, "inquiry": "Ex. (x in #1)", "verdict": True, "witness": 0}]}
        (rnd,) = transcript_from_json(game, json.dumps(doc)).rounds
        assert rnd.pronouncement.witness_instance is rnd.inquiry.witness_body(0)

    @pytest.mark.parametrize("witness", [-1, 4, 99])
    def test_witness_outside_universe_has_no_body(self, witness):
        game = truth_game(V2)
        doc = {"rounds": [{"clock": 1, "inquiry": "Ex. (x in #1)", "verdict": True, "witness": witness}]}
        back = transcript_from_json(game, json.dumps(doc))
        assert back.rounds[0].pronouncement.witness_instance is None
        state = RefereeState(game)
        assert [str(v) for v in state.process_round(back.rounds[0])] == [
            f"[quantifier] Ex. (x in #1): witness {witness} not in universe"
        ]
        assert referee(game, back) == INTERROGATOR_WINS
        assert "#-" not in transcript_to_json(game, back)


class TestLargeCarrierRecursion:
    def test_thirty_node_dag_extraction(self):
        # Carrier codes live in V_5; the edge-disjunction rule never scans
        # the universe.
        rng = random.Random(127)
        U5 = Structure(build_universe(5))
        nodes = list(range(30))
        edges = set()
        for b in nodes[1:]:
            for a in rng.sample(range(b), min(b, rng.randint(1, 2))):
                edges.add((a, b))
        rel = WellFoundedRelation(frozenset(nodes), frozenset(edges))
        rule = edge_rule(edges)
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


class SmallInterrogator(RandomInterrogator):
    """Draws fresh inquiries of size at most 5, as the pinned plays did."""

    max_size = 5


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
                interrogator = SmallInterrogator(rng, depth=rng.randint(1, 8))
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


class SloppyWitness:
    """Seeded and faulty on affirmed existentials: names no witness, one
    outside the universe, a witness instance that is not the body, or a
    witness picked at random."""

    def __init__(self, base, seed):
        self.base = base
        self.rng = random.Random(seed)

    def answer(self, game, inquiry, clock, history):
        pron = self.base.answer(game, inquiry, clock, history)
        if pron.witness is None:
            return pron
        fault = self.rng.randrange(5)
        if fault == 0:
            return Pronouncement(True)
        if fault == 1:
            return Pronouncement(True, game.structure.universe.size)
        if fault == 2:
            other = Not(inquiry)
            return Pronouncement(True, pron.witness, other)
        if fault == 3:
            w = self.rng.randrange(game.structure.universe.size)
            return Pronouncement(True, w, inquiry.witness_body(w))
        return pron


def _framed_probes(game, teller, rng, rounds: int) -> None:
    """One referee state asks random inquiries mixed with the parts,
    negations, conjunctions and instantiations of those asked before, each
    in a frame that is popped if the teller lost it, so the marks pile up."""
    state = RefereeState(game)
    size = game.structure.universe.size
    asked = [random_instance(rng, game.structure, 5)]
    for _ in range(rounds):
        q = rng.choice(asked)
        pick = rng.randrange(5)
        if pick == 0:
            q = random_instance(rng, game.structure, 5)
        elif pick == 1 and isinstance(q, (Not, And)):
            q = rng.choice(q.parts)
        elif pick == 2:
            q = Not(q)
        elif pick == 3:
            q = And(q, rng.choice(asked))
        elif isinstance(q, Exists):
            q = q.witness_body(rng.randrange(size))
        state.push_frame()
        if state.ask(teller, game.clock(rounds + 1 - len(state.rounds)), q):
            state.pop_frame()
        asked.append(q)


def _violation_lines(monkeypatch) -> list[str]:
    """Every judged round of seeded faulty plays, probes and searches: its
    violations in order, or "-" for none."""
    lines = []
    process_round = RefereeState.process_round

    def recording(state, rnd):
        out = process_round(state, rnd)
        lines.append("; ".join(str(v) for v in out) or "-")
        return out

    monkeypatch.setattr(RefereeState, "process_round", recording)
    rel = WellFoundedRelation(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
    rule = RecursionRule.parse("x = #0 | Ej. ((j <| i) & F(j, x))")
    solution = etr_solve(V3, rel, rule)
    for mode in (NATURAL, ORDINAL):
        rng = random.Random(f"violations:{mode}")
        game = truth_game(V3, mode)
        honest = honest_teller(game, V3)
        recursion = dataclasses.replace(recursion_game(V3, rel, rule), clock_mode=mode)
        tellers = [
            (game, CoinFlipLiar(honest, 17)),
            (game, BadWitnessTeller(honest, parse_instance("Ex. (x in #3)"))),
            (game, SloppyWitness(honest, 19)),
            (recursion, CoinFlipLiar(honest_teller(recursion, V3, solution=solution), 23)),
            (recursion, honest_teller(recursion, V3, solution=Solution(solution.pairs ^ {(2, 3)}))),
        ]
        for g, teller in tellers:
            for _ in range(60):
                interrogator = SmallInterrogator(rng, depth=rng.randint(1, 8))
                play_truth_game(g, interrogator, teller)
        targets = enumerate_instances(V3, 4)
        for g, teller in tellers:
            try:
                if g.obligation is None:
                    extract_satisfaction(teller, g, targets[::7])
                else:
                    extract_solution(teller, g)
            except NotWinningStrategyError:
                pass
            pool = [q for q in default_inquiry_pool(g) if size(q) <= 3][:40]
            interrogator_search(g, teller, depth=2, pool=pool)
            _framed_probes(g, teller, rng, 300)
    return lines


class TestOnePlayLoop:
    def test_statuses_pinned(self):
        # Change it only with a deliberate change of rules.  The last one
        # follows a denied existential with its body at the least witness:
        # one play of 218 moved (natural mode, the coin-flip liar's 17th),
        # as the random interrogator's follow-ups of the play before it
        # grew and its draws shifted; it still ends interrogator_wins.  The
        # natural-mode half is pinned on its own.
        lines = _play_statuses()
        assert len(lines) == 218
        assert hashlib.sha256("\n".join(lines[:109]).encode()).hexdigest() == (
            "75bfda88c67fd6ec1ae6f6d76fc8950d17f23ae3eaeeea846f80a3b1fb185280"
        )
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "358d6b5899f44515cfc533433dbc25f8d6841ae89c3323bca911139d7aac64e9"
        )

    def test_violations_pinned(self, monkeypatch):
        # Change it only with a deliberate change of rules.  The last one
        # follows a denied existential with its body at the least witness
        # and drops extraction's depth-2 presearch and second probe: 14,716
        # lines with 342 violations became 10,448 with 351.  Satisfaction
        # extraction went 4,682 -> 419 lines (4 violations either way); the
        # plays' follow-ups shift the shared draws, so plays went 2,377 ->
        # 2,357 lines (128 -> 125 violations), framed probes 202 -> 214
        # violations, searches 4,314 -> 4,320 lines and solution
        # extraction 343 -> 352 lines.  The first digest holds each round's
        # first violation, the second its whole list, in order.
        lines = _violation_lines(monkeypatch)
        assert (len(lines), sum(line != "-" for line in lines)) == (10448, 351)
        first = "\n".join(line.split("; [")[0] for line in lines)
        assert hashlib.sha256(first.encode()).hexdigest() == (
            "0e80369c3f3389f897f1727599e534c908f9e34d29fed39f58944d72542471f4"
        )
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "6060df9c02fc2f3d214ae373c7cd38c649b544ece9af94f5cf1e09ffa86f05e9"
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

    def test_random_interrogator_starts_afresh_on_a_new_transcript(self):
        """One interrogator's second play is the play of a fresh one whose
        rng starts where its rng stood: the first play's follow-ups stay
        behind."""
        game = truth_game(V3)
        teller = honest_teller(game, V3)
        for seed in range(5):
            reused = RandomInterrogator(random.Random(seed), depth=8)
            play_truth_game(game, reused, teller)
            fresh = RandomInterrogator(random.Random(), depth=8)
            fresh.rng.setstate(reused.rng.getstate())
            second = play_truth_game(game, reused, teller)
            assert transcript_to_json(game, second) == transcript_to_json(
                game, play_truth_game(game, fresh, teller)
            )

    def test_random_interrogator_offers_only_the_new_transcripts_follow_ups(self):
        """Moved on transcript A and then on a different transcript B, the
        interrogator draws its follow-up from B's rounds alone."""

        class ChoiceRecorder:
            def __init__(self):
                self.offered = []

            def random(self):
                return 0.0

            def choice(self, seq):
                self.offered.append(list(seq))
                return seq[0]

        game = truth_game(V2)
        a = Transcript([Round(3, parse_instance("!(#0 in #1)"), Pronouncement(False))])
        b = Transcript([Round(3, parse_instance("(#0 = #0) & (#1 in #0)"), Pronouncement(False))])
        rng = ChoiceRecorder()
        interrogator = RandomInterrogator(rng, depth=4)
        interrogator.move(game, a)
        interrogator.move(game, b)
        assert rng.offered[-1] == [
            parse_instance("#0 = #0"),
            parse_instance("#1 in #0"),
            parse_instance("!((#0 = #0) & (#1 in #0))"),
        ]


ORDINAL_CLOCKS = [
    *(Ordinal.from_nat(k) for k in range(5)),
    parse_ordinal("w"),
    parse_ordinal("w+1"),
    Ordinal(((Ordinal.from_nat(1), 2),)),
]
ANY_CLOCKS = [-1, 0, 1, 2, 3, 4, 5, True, False, *ORDINAL_CLOCKS]
CLOCK_INQUIRIES = [
    parse_instance("#0 in #1"),
    parse_instance("#0 = #0"),
    parse_instance("Ex. (x in #1)"),
    parse_instance("!(#1 in #0)"),
    parse_instance("!Ex. (x in #0)"),
]
# False in every structure: affirming it always loses.
LIE = parse_instance("#0 in #0")


@st.composite
def clocked_transcripts(draw):
    """A clock mode and rounds whose clocks are a countdown or arbitrary,
    perhaps with one clock replaced, closing rounds anywhere, honest
    verdicts, and perhaps one round that lies."""
    mode = draw(st.sampled_from([NATURAL, ORDINAL]))
    if draw(st.booleans()):
        clocks = draw(st.lists(st.sampled_from(ANY_CLOCKS), max_size=6))
    elif mode == NATURAL:
        start = draw(st.sampled_from([0, 1, 2, 3, 4, 5, True]))
        clocks = [start, *range(start - 1, -1, -1)][: draw(st.integers(0, start + 1))]
    else:
        clocks = sorted(draw(st.sets(st.sampled_from(ORDINAL_CLOCKS), max_size=6)), reverse=True)
    if clocks and draw(st.booleans()):
        clocks[draw(st.integers(0, len(clocks) - 1))] = draw(st.sampled_from(ANY_CLOCKS))
    closing = draw(st.sets(st.integers(0, 6), max_size=1))
    if draw(st.booleans()):
        closing.add(len(clocks) - 1)
    liar = draw(st.none() | st.integers(0, max(len(clocks) - 1, 0)))
    game = truth_game(V2, mode)
    honest = honest_teller(game, V2)
    rounds = []
    for k, clock in enumerate(clocks):
        if k in closing:
            rounds.append(Round(clock, None, None))
        elif k == liar:
            rounds.append(Round(clock, LIE, Pronouncement(True)))
        else:
            inq = draw(st.sampled_from(CLOCK_INQUIRIES))
            rounds.append(Round(clock, inq, honest.answer(game, inq, clock, rounds)))
    return game, rounds


class TestClockRules:
    @given(clocked_transcripts())
    @settings(max_examples=400, deadline=None)
    def test_referee_agrees_with_clock_oracle(self, case):
        game, rounds = case
        outcome = clock_outcome(game.clock_mode, rounds)
        if outcome == "malformed":
            with pytest.raises(MalformedTranscriptError):
                referee(game, Transcript(rounds))
            return
        if any(r.inquiry == LIE for r in rounds):
            expected = INTERROGATOR_WINS
        else:
            expected = TELLER_WINS if outcome == "spent" else ONGOING
        assert referee(game, Transcript(rounds)) == expected

    @pytest.mark.parametrize("mode", [NATURAL, ORDINAL])
    def test_answered_round_at_one_ends_play_in_both_modes(self, mode):
        """Clocks 3, 2, 1, all answered: the only ordinal below 1 is 0,
        which only closes play, so the ordinal play is over as the natural
        one is.  A transfinite clock is never spent."""
        game = truth_game(V3, mode)
        honest = honest_teller(game, V3)
        t = play_truth_game(game, RandomInterrogator(random.Random(1), depth=3), honest)
        assert [str(r.clock) for r in t.rounds] == ["3", "2", "1"]
        assert t.status == referee(game, Transcript(list(t.rounds))) == TELLER_WINS
        if mode == ORDINAL:
            phi = parse_instance("#0 = #0")
            omega = Round(parse_ordinal("w"), phi, Pronouncement(True))
            assert referee(game, Transcript([omega])) == ONGOING
            one = Round(Ordinal.from_nat(1), phi, Pronouncement(True))
            assert referee(game, Transcript([omega, one])) == TELLER_WINS

    def test_malformed_clock_stops_play_at_its_round(self):
        asked = []

        class Counting:
            def __init__(self, base):
                self.base = base

            def answer(self, game, inquiry, clock, history):
                asked.append(clock)
                return self.base.answer(game, inquiry, clock, history)

        game = truth_game(V3)
        teller = Counting(honest_teller(game, V3))
        interrogator = ClockListInterrogator([5, 4, 4, 3], [parse_instance("#0 in #1")])
        with pytest.raises(MalformedTranscriptError, match="step by one"):
            play_truth_game(game, interrogator, teller)
        assert len(asked) <= 3
        # A violation does not end the clock checks of a replay.
        phi = parse_instance("#0 = #0")
        rounds = [
            Round(3, LIE, Pronouncement(True)),
            Round(2, phi, Pronouncement(True)),
            Round(2, phi, Pronouncement(True)),
        ]
        assert referee(game, Transcript(rounds[:2])) == INTERROGATOR_WINS
        with pytest.raises(MalformedTranscriptError):
            referee(game, Transcript(rounds))


class TestOneIdentityPerProposition:
    """An instance is its closed formula: a play, its transcript read back
    and the referee agree on every proposition, however it was reached."""

    def test_open_follow_up_then_its_closed_negation(self):
        # The body of Ex. (x in #1) at 0 is (#0 in #1), so affirming its
        # negation contradicts the affirmed body, live and replayed alike.
        game = truth_game(V2)
        ex = parse_instance("Ex. (x in #1)")
        body, lie = ex.witness_body(0), parse_instance("!(#0 in #1)")
        assert body is instance(parse_formula("(x in #1)"), {"x": 0}) is parse_instance("(#0 in #1)")

        class Affirmer:
            def answer(self, game, inquiry, clock, history):
                return Pronouncement(True, 0, body) if inquiry is ex else Pronouncement(True)

        played = natural_transcript(game, Affirmer(), [ex, body, lie])
        assert played.status == INTERROGATOR_WINS
        back = transcript_from_json(game, transcript_to_json(game, played))
        assert referee(game, back) == INTERROGATOR_WINS

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from([V2, V3]),
        st.sampled_from([NATURAL, ORDINAL]),
        st.sampled_from(["honest", "coin flip", "low clock", "bad witness"]),
        st.integers(1, 8),
    )
    def test_random_plays_replay_to_their_status(self, seed, M, mode, kind, depth):
        # RandomInterrogator asks parts, witness bodies and negations of
        # what was answered; the transcript holds their text only.
        game = truth_game(M, mode)
        honest = honest_teller(game, M)
        teller = {
            "honest": lambda: honest,
            "coin flip": lambda: CoinFlipLiar(honest, seed),
            "low clock": lambda: LowClockScrambler(honest, seed),
            "bad witness": lambda: BadWitnessTeller(honest, parse_instance("Ex. (x in #1)")),
        }[kind]()
        played = play_truth_game(game, RandomInterrogator(random.Random(seed), depth), teller)
        back = transcript_from_json(game, transcript_to_json(game, played))
        assert referee(game, back) == played.status

    def test_every_single_flip_over_the_v2_pool_loses_by_depth_two(self):
        # A memoryless teller that lies on one pool inquiry and answers the
        # rest by Tarski's clauses over its own answers: a denied true
        # existential is beaten by asking it and its body at a witness.
        game = truth_game(V2)
        pool = default_inquiry_pool(game)
        assert len(pool) == 34
        for flip in pool:
            teller = ClauseFlipper(V2, flip)
            found = interrogator_search(game, teller, depth=2)
            assert found.plan is not None, str(flip)
            line = ScriptedInterrogator(found.plan.inquiries, found.plan.initial_clock)
            assert play_truth_game(game, line, ClauseFlipper(V2, flip)).status == INTERROGATOR_WINS

    def test_recursion_rule_reads_the_f_atom_the_pool_asks(self):
        # The rule instance at (1, 0) reads F(i, x) at {i: 1, x: 0}, which
        # is F(#1, #0): a teller flipping that atom denies the rule instance.
        rel = WellFoundedRelation(frozenset({0, 1}), frozenset({(0, 1)}))
        rule = RecursionRule.parse("x = i | F(#0, x)")
        game = recursion_game(V2, rel, rule)
        atom = parse_closed("F(#1, #0)", game.signature(), V2.universe)
        assert atom is instance(Pred("F", (Var("i"), Var("x"))), {"i": 1, "x": 0})
        assert atom in game.rule_instances()[(1, 0)].parts[0].parts[0].parts
        M = honest_teller(game, V2, solution=etr_solve(V2, rel, rule)).source
        found = interrogator_search(game, ClauseFlipper(M, atom), depth=2)
        assert found.plan is not None and len(found.plan.inquiries) <= 2


class TestDeepSubstitution:
    def test_substitute_and_print_a_deep_chain_under_an_existential(self):
        # 3,000 negations: far past the recursion limit and the parser's
        # 100 levels, so the chain is built in code.
        f = Member(Var("x"), Const(1))
        for _ in range(3000):
            f = Not(f)
        ex = instance(Exists("x", f))
        body = ex.witness_body(0)
        assert body is instance(f, {"x": 0})
        text = to_text(body)
        assert text == "!" * 3000 + "(#0 in #1)"
        assert to_text(ex) == "Ex. " + "!" * 3000 + "(x in #1)"
        g = body
        for _ in range(3000):
            g = g.body
        assert g is Member(Const(0), Const(1))
