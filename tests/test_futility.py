"""The futility certificate: for memoryless tellers ``interrogator_search``
answers from one referee pass, with the result the walk would return.

Three paths are held to each other: the certificate, the explicit-stack
walk (forced by hiding the teller's ``memoryless`` declaration) and the
brute-force ``oracles.line_search``, which replays every line from scratch
through ``referee``.  The referee itself is held to ``oracles.referee_lost``,
its rules restated over the set of rounds.

``extract_satisfaction`` reads a memoryless teller's class off one referee
pass in the same way; hidden behind ``Walked``, the same teller takes the
per-target probes, and both give the same class or the same refusal.
"""

import hashlib
import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgames import truthgames
from hfgames.errors import CoverageError, HFGamesError, InvariantError, NotWinningStrategyError
from hfgames.logic import (
    And,
    Exists,
    Not,
    SatisfactionClass,
    Structure,
    build_truth_predicate,
    enumerate_instances,
    eval_instance,
    instance,
    instantiate,
    least_witness,
    parse_instance,
    random_instance,
    sub_instance,
    tarski_check,
    to_text,
)
from hfgames.etr import RecursionRule, Solution, etr_solve
from hfgames.oracles import line_search, referee_lost
from hfgames.truthgames import (
    NATURAL,
    ORDINAL,
    HonestTeller,
    Pronouncement,
    RefereeState,
    Round,
    SearchResult,
    clock_budget,
    default_inquiry_pool,
    extract_satisfaction,
    honest_teller,
    interrogator_search,
    recursion_game,
    truth_game,
)
from hfgames.universe import WellFoundedRelation, build_universe
from test_truthgames import ClauseFlipper

STRUCTURES = {rank: Structure(build_universe(rank)) for rank in (1, 2, 3, 4)}


class Walked:
    """The wrapped teller's answers without its ``memoryless`` declaration,
    so ``interrogator_search`` walks every line."""

    def __init__(self, base):
        self.base = base

    def answer(self, game, inquiry, clock, history):
        return self.base.answer(game, inquiry, clock, history)


def _digest(salt, inquiry) -> int:
    return hashlib.sha256(f"{salt}:{to_text(inquiry)}".encode()).digest()[0]


class HashLiar:
    """Memoryless and faulty: flips the honest verdict, naming no witness, on
    the inquiries whose digest picks them (one in ``rate``)."""

    memoryless = True

    def __init__(self, base, salt, rate=4):
        self.base = base
        self.salt = salt
        self.rate = rate

    def answer(self, game, inquiry, clock, history):
        honest = self.base.answer(game, inquiry, clock, history)
        if _digest(self.salt, inquiry) % self.rate == 0:
            return Pronouncement(not honest.verdict)
        return honest


class HashWitness:
    """Memoryless and faulty: names a witness picked by the inquiry's digest
    for every true existential, whether or not it satisfies the body."""

    memoryless = True

    def __init__(self, base, salt):
        self.base = base
        self.salt = salt

    def answer(self, game, inquiry, clock, history):
        honest = self.base.answer(game, inquiry, clock, history)
        if honest.witness is None:
            return honest
        w = _digest(self.salt, inquiry) % game.structure.universe.size
        return Pronouncement(True, w, instantiate(inquiry, inquiry.var, w))


def tarski_closure(M, pool) -> set:
    """The pool with every sub-instance and every instantiation."""
    out, stack = set(), list(pool)
    while stack:
        inst = stack.pop()
        if inst in out:
            continue
        out.add(inst)
        if isinstance(inst, Not):
            stack.append(sub_instance(inst, inst.body))
        elif isinstance(inst, And):
            stack += [sub_instance(inst, inst.left), sub_instance(inst, inst.right)]
        elif isinstance(inst, Exists):
            stack += [instantiate(inst, inst.var, b) for b in M.universe.elements]
    return out


def make_teller(kind, game, M, pool):
    honest = honest_teller(game, M)
    if kind == "structure":
        return honest
    if kind == "class":
        return HonestTeller(build_truth_predicate(M, tarski_closure(M, pool)))
    return HashLiar(honest, salt="agreement")


def as_oracle(res: SearchResult):
    return (res.plan.inquiries if res.plan else None, res.exhausted, res.nodes)


def three_ways(game, teller, depth, pool):
    cert = interrogator_search(game, teller, depth, pool=pool)
    walk = interrogator_search(game, Walked(teller), depth, pool=pool)
    oracle = line_search(game, teller, depth, pool)
    return cert, walk, oracle


class TestAgreement:
    @pytest.mark.parametrize("kind", ["structure", "class", "liar"])
    @pytest.mark.parametrize(
        "rank,depth", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
    )
    def test_certificate_walk_and_oracle_agree(self, rank, depth, kind):
        M = STRUCTURES[rank]
        game = truth_game(M)
        pool = default_inquiry_pool(game)
        teller = make_teller(kind, game, M, pool)
        certified = truthgames._futility_certificate(game, teller, pool)
        # The liar takes the fallback path; the honest tellers do not.
        assert (certified is None) == (kind == "liar")
        if kind == "class" and (rank, depth) in ((2, 3), (3, 2)):
            # The two largest trees (41,222 and 13,124 lines) are replayed
            # whole once, for the structure-backed teller, which answers
            # every inquiry the search can ask exactly as this teller does.
            structure = honest_teller(game, M)
            assert all(teller.answer(game, q, 1, ()) == structure.answer(game, q, 1, ()) for q in certified)
            assert interrogator_search(game, teller, depth, pool=pool) == interrogator_search(
                game, structure, depth, pool=pool
            )
            return
        cert = interrogator_search(game, teller, depth, pool=pool)
        assert as_oracle(cert) == line_search(game, teller, depth, pool)
        assert cert.exhausted == (cert.plan is None)
        if cert.plan is not None:
            assert cert.plan.initial_clock == depth
        # The walk is held to the oracle over whole trees up to 13,124
        # lines here; over the 41,222-line tree only the certificate is.
        if (rank, depth) != (2, 3):
            assert cert == interrogator_search(game, Walked(teller), depth, pool=pool)

    def test_shallow_depths_agree(self):
        game = truth_game(STRUCTURES[2])
        teller = honest_teller(game, STRUCTURES[2])
        pool = default_inquiry_pool(game)
        for depth in (0, 1, 2):
            cert, walk, oracle = three_ways(game, teller, depth, pool)
            assert cert == walk and as_oracle(cert) == oracle

    def test_out_of_pool_witness_chain(self):
        M = STRUCTURES[3]
        game = truth_game(M)
        teller = honest_teller(game, M)
        # Each existential's witness instance is the next, one variable
        # fewer, none of them in the pool: a chain of three derived inquiries.
        chain = parse_instance("Ex. Ey. Ez. ((x in y) & (y in z))")
        pool = [chain, parse_instance("#0 in #1"), parse_instance("!(#1 = #2)")]
        named = truthgames._futility_certificate(game, teller, pool)
        assert sum(1 for w in named.values() if w is not None) == 3
        cert, walk, oracle = three_ways(game, teller, 3, pool)
        assert cert == walk and as_oracle(cert) == oracle
        started = time.process_time()
        deep = interrogator_search(game, teller, 6, pool=pool)
        assert time.process_time() - started < 0.1
        assert deep == interrogator_search(game, Walked(teller), 6, pool=pool)
        assert deep.proven_none and deep.nodes > 3**6

    def test_duplicate_pool_entries_count_twice(self):
        M = STRUCTURES[2]
        game = truth_game(M)
        teller = honest_teller(game, M)
        ex = parse_instance("Ex. Ey. (x in y)")
        pool = [ex, parse_instance("#0 in #1"), ex]
        for depth in (1, 2, 3, 4):
            cert, walk, oracle = three_ways(game, teller, depth, pool)
            assert cert == walk and as_oracle(cert) == oracle

    def test_witness_instances_off_existentials_take_the_walk(self):
        """A witness instance named with a plain verdict joins the walk's
        candidates all the same, and here two of them name each other."""
        M = STRUCTURES[2]
        game = truth_game(M)
        p, a, b = (parse_instance(t) for t in ("#0 in #1", "#0 in #0", "#1 in #1"))
        follow = {p: a, a: b, b: a}

        class Pointing:
            memoryless = True

            def answer(self, game, inquiry, clock, history):
                return Pronouncement(inquiry == p, None, follow[inquiry])

        assert truthgames._futility_certificate(game, Pointing(), [p]) is None
        for depth in (1, 2, 3, 4):
            cert, walk, oracle = three_ways(game, Pointing(), depth, [p])
            assert cert == walk and as_oracle(cert) == oracle

    def test_v4_pool_certified_at_depth_three(self):
        M = STRUCTURES[4]
        game = truth_game(M)
        teller = honest_teller(game, M)
        n = len(default_inquiry_pool(game))
        assert n == 1602
        started = time.process_time()
        res = interrogator_search(game, teller, depth=3)
        assert time.process_time() - started < 1.0
        assert res.proven_none and res.nodes >= n + n**2 + n**3

    @pytest.mark.parametrize(
        "rank, inquiries, lines, asks",
        [(3, 114, 1_499_470, 114), (4, 1602, 4_114_197_230, 1602)],
        ids=["criterion-2-V3", "readme-V4"],
    )
    def test_depth_three_futility_figures_pinned(self, rank, inquiries, lines, asks):
        """The README's figures: depth-3 futility over the default pool is
        proven by one ask of each pool inquiry and each witness instance."""
        M = STRUCTURES[rank]
        game = truth_game(M)
        teller = Counting(honest_teller(game, M))
        assert len(default_inquiry_pool(game)) == inquiries
        assert interrogator_search(game, teller, depth=3) == SearchResult(None, True, lines)
        assert sum(teller.asks.values()) == len(teller.asks) == asks


class Counting:
    """The wrapped memoryless teller, counting how often each inquiry is asked."""

    memoryless = True

    def __init__(self, base):
        self.base = base
        self.asks = Counter()

    def answer(self, game, inquiry, clock, history):
        self.asks[inquiry] += 1
        return self.base.answer(game, inquiry, clock, history)


class OneLie:
    """Memoryless and faulty: flips the honest verdict, naming no witness, on
    one instance."""

    memoryless = True

    def __init__(self, base, lie):
        self.base = base
        self.lie = lie

    def answer(self, game, inquiry, clock, history):
        honest = self.base.answer(game, inquiry, clock, history)
        return Pronouncement(not honest.verdict) if inquiry == self.lie else honest


def extraction_outcome(teller, game, targets, **kwargs):
    """The class ``extract_satisfaction`` reads, or the type and message of
    the typed error it raises."""
    try:
        return extract_satisfaction(teller, game, targets, **kwargs)
    except HFGamesError as exc:
        return type(exc), str(exc)


def both_extractions(make_teller, game, targets, **kwargs):
    """The one-pass outcome and the per-probe one, each with a fresh teller."""
    one = extraction_outcome(make_teller(), game, targets, **kwargs)
    probed = extraction_outcome(Walked(make_teller()), game, targets, **kwargs)
    return one, probed


class TestSinglePassExtraction:
    @pytest.mark.parametrize("mode", [NATURAL, ORDINAL])
    @pytest.mark.parametrize("kind", ["structure", "class"])
    @pytest.mark.parametrize("rank, max_size", [(1, 4), (2, 4), (3, 3)])
    def test_seeded_targets_agree(self, rank, max_size, kind, mode):
        M = STRUCTURES[rank]
        game = truth_game(M, mode)
        targets = enumerate_instances(M, max_size)
        # The class covers every follow-up: the targets' parts and
        # instantiations.
        S = build_truth_predicate(M, tarski_closure(M, targets))

        def make():
            return honest_teller(game, M) if kind == "structure" else HonestTeller(S)

        one, probed = both_extractions(make, game, targets)
        assert one == probed == build_truth_predicate(M, targets)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([1, 2, 3]),
        st.sampled_from([NATURAL, ORDINAL]),
        st.integers(0, 2**32),
        st.integers(1, 12),
    )
    def test_drawn_targets_agree(self, rank, mode, seed, count):
        # Drawn targets need not hold their parts or witness bodies.
        M = STRUCTURES[rank]
        game = truth_game(M, mode)
        rng = random.Random(seed)
        targets = [random_instance(rng, M, 6) for _ in range(count)]
        one, probed = both_extractions(lambda: honest_teller(game, M), game, targets)
        assert one == probed == build_truth_predicate(M, targets)

    @pytest.mark.parametrize("liar", [HashLiar, HashWitness])
    def test_memoryless_liars_refused_alike(self, liar):
        # A hashed witness that satisfies its body is no lie: such a run is
        # accepted, and whatever is accepted is the truth on the targets.
        refused = 0
        for salt in range(30):
            M = STRUCTURES[2 + salt % 2]
            game = truth_game(M)
            rng = random.Random(salt)
            targets = [random_instance(rng, M, 5) for _ in range(6)]
            one, probed = both_extractions(lambda: liar(honest_teller(game, M), salt), game, targets)
            assert one == probed, salt
            if isinstance(one, tuple):
                refused += one[0] is NotWinningStrategyError
            else:
                assert one == build_truth_predicate(M, targets), salt
        assert refused > 0

    @pytest.mark.parametrize("mode", [NATURAL, ORDINAL])
    def test_won_pass_audits_clean(self, mode):
        # The referee judged every mark of a won pass against each Tarskian
        # clause, so the marks pass the audit whoever the teller is.
        won = Counter()
        for salt in range(40):
            M = STRUCTURES[2 + salt % 2]
            game = truth_game(M, mode)
            rng = random.Random(salt)
            targets = [random_instance(rng, M, 5) for _ in range(6)]
            honest = honest_teller(game, M)
            lie = rng.choice(sorted(tarski_closure(M, targets), key=to_text))
            tellers = {
                "honest": honest,
                "hash liar": HashLiar(honest, salt, rate=8),
                "hash witness": HashWitness(honest, salt),
                "one lie": OneLie(honest, lie),
            }
            for kind, teller in tellers.items():
                state = truthgames._single_pass(game, teller, targets, truthgames._unfold)
                if state is None:
                    continue
                won[kind] += 1
                marks = state.marks
                marked = SatisfactionClass(frozenset(i for i, b in marks.items() if b == 1), marks)
                assert tarski_check(M, marked, marks) == [], (kind, salt)
        assert won["honest"] == 40 and min(won.values()) > 0 and len(won) == 4

    def test_class_backed_coverage_error_alike(self):
        # The class holds the target alone, not its part.
        M = STRUCTURES[2]
        game = truth_game(M)
        targets = [parse_instance("!(#0 in #1)")]
        S = build_truth_predicate(M, targets)
        one, probed = both_extractions(lambda: HonestTeller(S), game, targets)
        assert one == probed
        assert one[0] is CoverageError and "outside closure" in one[1]

    def test_negative_extra_clock_alike(self):
        M = STRUCTURES[2]
        game = truth_game(M)
        targets = enumerate_instances(M, 3)
        one, probed = both_extractions(
            lambda: honest_teller(game, M), game, targets, extra_clock=-1
        )
        assert one == probed == (InvariantError, "extra clock -1 below 0")

    def test_lost_pass_falls_back_to_the_probes(self):
        """A lie on the last of many targets, (#15 = #15) over V_4, loses
        the pass, and that target's probe finds it."""
        M = STRUCTURES[4]
        game = truth_game(M)
        targets = enumerate_instances(M, 3)
        lie = targets[-1]
        make = lambda: OneLie(honest_teller(game, M), lie)
        assert truthgames._single_pass(game, make(), targets, truthgames._unfold) is None
        one, probed = both_extractions(make, game, targets)
        assert one == probed == (
            NotWinningStrategyError,
            f"teller lost a probe at {to_text(lie)}:"
            f" [atomic] {to_text(lie)}: pronounced False, structure says True",
        )

    def test_lie_only_the_presearch_asks_about(self):
        # The lie is on the target's negation, which no probe of the target
        # asks, so the class is the truth on the target.
        M = STRUCTURES[2]
        game = truth_game(M)
        target = parse_instance("#0 in #1")
        make = lambda: OneLie(honest_teller(game, M), parse_instance("!(#0 in #1)"))
        one, probed = both_extractions(make, game, [target])
        assert one == probed == build_truth_predicate(M, [target])

    def test_witness_instance_off_an_existential_takes_the_probes(self):
        # The target's answer names the lie as its witness instance, which
        # no probe follows off an atom, so the class is the truth on the
        # target.
        M = STRUCTURES[2]
        game = truth_game(M)
        target, lie = parse_instance("#0 in #1"), parse_instance("#1 in #0")

        class Pointing(OneLie):
            def answer(self, game, inquiry, clock, history):
                pron = super().answer(game, inquiry, clock, history)
                return Pronouncement(pron.verdict, None, lie) if inquiry == target else pron

        one, probed = both_extractions(lambda: Pointing(honest_teller(game, M), lie), game, [target])
        assert one == probed == build_truth_predicate(M, [target])

    def test_criterion_one_asks_each_inquiry_once(self):
        # The per-probe path asks 1,148 probe rounds, one probe per target,
        # over these same 540 inquiries.
        M = STRUCTURES[3]
        game = truth_game(M)
        teller = Counting(honest_teller(game, M))
        targets = enumerate_instances(M, 5)
        S = extract_satisfaction(teller, game, targets)
        assert S == build_truth_predicate(M, targets)
        assert len(teller.asks) == 540
        assert set(teller.asks.values()) == {1}


def refused(outcome) -> bool:
    return isinstance(outcome, tuple) and outcome[0] is NotWinningStrategyError


class TestOnlyTruthWins:
    """In a plain truth game every mark of a won probe is true, by induction
    on size, so extraction returns the truth on its targets or refuses."""

    @pytest.mark.parametrize("rank, max_size", [(2, 6), (3, 4)])
    def test_every_clause_flip_is_refused(self, rank, max_size):
        # One liar per distinct instance (504 over V_2, 164 over V_3), which
        # is its only target: the liar follows Tarski's clauses over its own
        # answers, but with that instance's verdict flipped.  A denied true
        # existential loses on its body at the least witness.
        M = STRUCTURES[rank]
        game = truth_game(M)
        for flip in dict.fromkeys(enumerate_instances(M, max_size)):
            one, probed = both_extractions(lambda: ClauseFlipper(M, flip), game, [flip])
            assert refused(one) and one == probed, to_text(flip)

    @pytest.mark.parametrize("mode", [NATURAL, ORDINAL])
    def test_won_probes_mark_only_truths(self, mode):
        won = Counter()
        for salt in range(200):
            M = STRUCTURES[2 + salt % 2]
            game = truth_game(M, mode)
            rng = random.Random(salt)
            targets = [random_instance(rng, M, 5) for _ in range(4)]
            honest = honest_teller(game, M)
            lie = rng.choice(sorted(tarski_closure(M, targets), key=to_text))
            tellers = {
                "honest": honest,
                "hash liar": HashLiar(honest, salt, rate=8),
                "hash witness": HashWitness(honest, salt),
                "one lie": OneLie(honest, lie),
            }
            for kind, teller in tellers.items():
                for target in targets:
                    try:
                        state = truthgames._probe(game, teller, [target], clock_budget(target))
                    except NotWinningStrategyError:
                        continue
                    won[kind] += 1
                    for inst, bits in state.marks.items():
                        assert bits == (1 if eval_instance(M, inst) else 2), (kind, salt, to_text(inst))
        assert won["honest"] == 800 and min(won.values()) > 0 and len(won) == 4

    def test_extraction_asks_one_body_per_denied_existential(self, monkeypatch):
        # Over V_5 an existential has 65,536 instantiations.  The probes of
        # a teller without ``memoryless`` build none for a false one, and
        # only the body at the least witness for a true one denied.
        M = Structure(build_universe(5))
        game = truth_game(M)
        honest = honest_teller(game, M)
        false, true = parse_instance("Ex. (x in #0)"), parse_instance("Ex. (#0 in x)")
        built = {}
        witness_body = Exists.witness_body

        def recording(ex, witness):
            built.setdefault(ex, set()).add(witness)
            return witness_body(ex, witness)

        monkeypatch.setattr(Exists, "witness_body", recording)
        started = time.process_time()
        assert extract_satisfaction(Walked(honest), game, [false]) == build_truth_predicate(M, [false])
        assert built == {}
        with pytest.raises(NotWinningStrategyError, match="denied but"):
            extract_satisfaction(Walked(OneLie(honest, true)), game, [true])
        assert time.process_time() - started < 0.1
        assert built == {true: {least_witness(M, true)}}


CHAIN = WellFoundedRelation(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
RULE = RecursionRule.parse("x = #0 | Ej. ((j <| i) & F(j, x))")
LEAST = etr_solve(STRUCTURES[3], CHAIN, RULE)
# Off the least solution at two pairs, so the honest teller for it loses.
WRONG = Solution(LEAST.pairs ^ {(2, 3), (1, 0)})
# The games ``faulty_rounds`` draws from, with their pools.  The recursion
# game's pool holds the inquiries about F, and rule instances at i = 3,
# outside the carrier, which bind nothing.
RECURSION = recursion_game(STRUCTURES[3], CHAIN, RULE)
GAMES = {rank: truth_game(STRUCTURES[rank]) for rank in (2, 3)}
POOLS = {game: default_inquiry_pool(game) for game in GAMES.values()}
POOLS[RECURSION] = [q for q in default_inquiry_pool(RECURSION) if "F" in to_text(q)] + [
    instance(RECURSION.rule_instance_formula, {"i": 3, "x": x}) for x in range(4)
]


def faulty_rounds(pick, most):
    """A truth game over V_2 or V_3, or a recursion game over V_3 with the
    teller's F right or wrong, and up to ``most`` rounds answered by a seeded
    memoryless faulty teller: pool inquiries and inquiries picked before,
    some with their parts, their negation, a conjunction with another pool
    inquiry, their named witness instance or an instantiation, so that pair
    and triple conditions come up.  ``pick`` chooses one item of a sequence."""
    game = GAMES[pick([2, 3])]
    M = game.structure
    if M is STRUCTURES[3] and pick([False, True]):
        game = RECURSION
        honest = honest_teller(game, M, solution=pick([LEAST, WRONG]))
    else:
        honest = honest_teller(game, M)
    pool = POOLS[game]
    salt = pick(range(10**6))
    if pick([False, True]):
        teller = HashLiar(honest, salt, rate=pick([2, 4, 8]))
    else:
        teller = HashWitness(honest, salt)
    inquiries: list = []
    count = pick(range(1, most + 1))
    while len(inquiries) < count:
        # A pool inquiry, or one picked before, so that families chain.
        q = pick(inquiries if inquiries and pick([False, True]) else pool)
        family = [q]
        extra = pick(["none", "parts", "negation", "conjunction", "witness", "instance"])
        if extra == "parts" and isinstance(q, (Not, And)):
            family += q.parts
        elif extra == "negation":
            family.append(Not(q))
        elif extra == "conjunction":
            other = pick(pool)
            family += [other, And(q, other)]
        elif extra == "witness":
            family.append(teller.answer(game, q, 1, ()).witness_instance)
        elif extra == "instance" and isinstance(q, Exists):
            family.append(q.witness_body(pick(range(M.universe.size))))
        for i in family:
            if i is not None and i not in inquiries:
                inquiries.append(i)
    inquiries = inquiries[:most]
    return game, [(q, teller.answer(game, q, 1, ())) for q in inquiries]


@st.composite
def memoryless_rounds(draw, most=6):
    """``faulty_rounds`` with hypothesis doing the picking."""
    return faulty_rounds(lambda items: draw(st.sampled_from(items)), most)


def lost_after(game, rounds) -> bool:
    state = RefereeState(game)
    for k, (q, pron) in enumerate(rounds):
        state.process_round(Round(game.clock(len(rounds) - k), q, pron))
    return state.lost


class TestOrderLemma:
    @settings(max_examples=60, deadline=None)
    @given(memoryless_rounds())
    def test_loss_depends_only_on_the_set_of_rounds(self, case):
        game, rounds = case
        outcomes = {lost_after(game, list(p)) for p in itertools.permutations(rounds)}
        assert len(outcomes) == 1
        if outcomes == {False}:
            for k in range(1, len(rounds)):
                for subset in itertools.combinations(rounds, k):
                    assert not lost_after(game, list(subset))


FAULTS = [None, None, None, "bare", "outside", "mismatch"]


def play_steps(game, rounds, steps):
    """Feed the rounds in turn, over and over, to one referee state as the
    steps say, pushing and popping frames in between; yields each step
    (a pop with no frame open reads ``None``) and the state after it.  A
    fault step plays the next round, its answer perhaps swapped for an
    affirmation with no witness, one outside the universe, or a witness
    instance that is not the body."""
    state = RefereeState(game)
    start = len(steps) + 1
    frames = 0
    played = 0
    for step in steps:
        if step == "push":
            state.push_frame()
            frames += 1
        elif step == "pop":
            if not frames:
                step = None
            else:
                state.pop_frame()
                frames -= 1
        else:
            q, pron = rounds[played % len(rounds)]
            played += 1
            if step == "bare":
                pron = Pronouncement(True)
            elif step == "outside":
                pron = Pronouncement(True, game.structure.universe.size)
            elif step == "mismatch":
                pron = Pronouncement(True, 0, q)
            state.process_round(Round(game.clock(start - len(state.rounds)), q, pron))
        yield step, state


def agree_step_by_step(game, rounds, steps):
    """``play_steps``, holding ``lost`` to ``referee_lost`` over the
    state's rounds after every step."""
    for step, state in play_steps(game, rounds, steps):
        assert state.lost == referee_lost(game, state.rounds), step


def referee_contents(state) -> tuple:
    """Copies of what a referee state holds: its loss flag, rounds and
    marks, and its indexes, empty lists included: a pop drops the key of a
    list it empties."""
    def entries(index):
        return {key: list(values) for key, values in index.items()}

    return (state.lost, list(state.rounds), dict(state.marks), entries(state.wraps),
            entries(state.affirmed), entries(state.denied_existentials), entries(state.witness_bodies))


STEPS = st.lists(st.sampled_from(FAULTS + ["push", "pop"]), min_size=1, max_size=24)


class TestRefereeOracle:
    """``oracles.referee_lost`` states the referee's rules over the set of
    rounds, apart from ``RefereeState.add`` and its indexes."""

    @settings(max_examples=200, deadline=None)
    @given(memoryless_rounds(12), st.data())
    def test_lost_agrees_with_oracle(self, case, data):
        game, rounds = case
        agree_step_by_step(game, data.draw(st.permutations(rounds)), data.draw(STEPS))

    def test_seeded_corpus_agrees_with_oracle(self):
        for seed in range(1000):
            rng = random.Random(seed)
            game, rounds = faulty_rounds(rng.choice, 12)
            if seed % 2:
                rng.shuffle(rounds)
            steps = [rng.choice(FAULTS + ["push", "pop"]) for _ in range(24)]
            agree_step_by_step(game, rounds, steps)


class TestFrames:
    """Popping a frame undoes what the rounds played inside it did to the
    referee state: its loss, rounds, marks and index entries."""

    @settings(max_examples=200, deadline=None)
    @given(memoryless_rounds(12), st.data())
    def test_pop_frame_restores_the_push(self, case, data):
        game, rounds = case
        pushed = []
        for step, state in play_steps(game, data.draw(st.permutations(rounds)), data.draw(STEPS)):
            if step == "push":
                pushed.append(referee_contents(state))
            elif step == "pop":
                assert referee_contents(state) == pushed.pop()
