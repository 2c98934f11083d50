"""The truth-telling game, its counting-down variants, and the recursion game.

The interrogator asks about formula instances under a descending clock; the
truth-teller answers true or false and must name a witness whenever she
affirms an existential.  The referee is purely syntactic except on atomic
ground facts: it flags atomic answers contradicting the structure, opposite
pairs marked alike, conjunctions out of step with their conjuncts, witness
bodies denied, instantiations affirmed under a denied existential, and (in
recursion mode) denied instances of the recursion obligation.  Honest
tellers never trip it; winning strategies compress into satisfaction
classes and recursion solutions.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .errors import (
    CoverageError,
    InvariantError,
    MalformedTranscriptError,
    NoWitnessError,
    NotWinningStrategyError,
    ParseError,
    SignatureError,
)
from .etr import RecursionRule, Solution, check_solution
from .logic import (
    ATOMIC_KINDS,
    And,
    EDGE_SYMBOL,
    Exists,
    Formula,
    FormulaInstance,
    Not,
    Pred,
    SatisfactionClass,
    Structure,
    enumerate_formulas,
    eval_instance,
    free_vars,
    instance,
    instantiate,
    parse_formula,
    print_instance,
    random_instance,
    size,
    skolem_witness,
    sub_instance,
    subformulas,
    tarski_check,
)
from .universe import Ordinal, WellFoundedRelation, ordinal_compare

ONGOING = "ongoing"
INTERROGATOR_WINS = "interrogator_wins"
TELLER_WINS = "teller_wins"

NATURAL = "first_move_natural"
ORDINAL = "ordinal_countdown"

DEFAULT_CLOCK_FACTOR = 2


def clock_budget(target: FormulaInstance, factor: int = DEFAULT_CLOCK_FACTOR) -> int:
    """Moves the teller must survive for a verdict on this target to bind:
    one step per node unfolded plus witness follow-ups, then slack."""
    return factor * size(target.formula) + 2


@dataclass(frozen=True)
class Pronouncement:
    """The teller's reply; a witness accompanies every affirmed existential."""

    verdict: bool
    witness: Optional[int] = None
    witness_instance: Optional[FormulaInstance] = None


@dataclass(frozen=True)
class Round:
    clock: Union[int, Ordinal]
    inquiry: Optional[FormulaInstance]
    pronouncement: Optional[Pronouncement]


@dataclass
class Transcript:
    rounds: list[Round] = field(default_factory=list)
    status: str = ONGOING


@dataclass(frozen=True)
class RecursionObligation:
    relation: WellFoundedRelation
    rule: RecursionRule
    value_domain: tuple[int, ...]


@dataclass(eq=False)
class TruthGame:
    """Referee data for one truth-telling game over a fixed structure."""

    structure: Structure
    clock_mode: str = NATURAL
    obligation: Optional[RecursionObligation] = None

    def __post_init__(self):
        if self.clock_mode not in (NATURAL, ORDINAL):
            raise InvariantError(f"unknown clock mode {self.clock_mode!r}")
        self.rule_instance_formula: Optional[Formula] = None
        if self.obligation is not None:
            self.rule_instance_formula = self.obligation.rule.instance_formula()
        self._eval_cache: dict = {}
        self._sig_checked: set = set()
        # The referee's sub-instances, per game so they die with it.
        self._parts: dict = {}
        self._witness_bodies: dict = {}

    def eval_atomic(self, inst: FormulaInstance) -> bool:
        cached = self._eval_cache.get(inst)
        if cached is None:
            cached = eval_instance(self.structure, inst)
            self._eval_cache[inst] = cached
        return cached

    def parts(self, inst: FormulaInstance) -> tuple[FormulaInstance, ...]:
        """The sub-instances of a Not or And instance."""
        got = self._parts.get(inst)
        if got is None:
            f = inst.formula
            if isinstance(f, Not):
                got = (sub_instance(inst, f.body),)
            else:
                got = (sub_instance(inst, f.left), sub_instance(inst, f.right))
            self._parts[inst] = got
        return got

    def witness_body(self, inst: FormulaInstance, witness: int) -> FormulaInstance:
        """The body of an existential instance at the named witness."""
        key = (inst, witness)
        got = self._witness_bodies.get(key)
        if got is None:
            got = self._witness_bodies[key] = instantiate(inst, inst.formula.var, witness)
        return got

    def teller_symbol(self) -> Optional[str]:
        return self.obligation.rule.f_symbol if self.obligation else None

    def clock(self, n: int) -> Union[int, Ordinal]:
        return Ordinal.from_nat(n) if self.clock_mode == ORDINAL else n


def truth_game(M: Structure, clock_mode: str = NATURAL) -> TruthGame:
    return TruthGame(M, clock_mode)


def recursion_game(
    M: Structure,
    rel: WellFoundedRelation,
    rule: Union[RecursionRule, Formula, str],
    clock_mode: str = NATURAL,
    value_domain: Optional[Sequence[int]] = None,
) -> TruthGame:
    """Truth game whose referee additionally enforces the recursion rule
    F(i,x) <-> phi(x,i,F|i) on carrier indices."""
    if isinstance(rule, str):
        rule = RecursionRule.parse(rule)
    elif not isinstance(rule, RecursionRule):
        rule = RecursionRule(rule)
    for i in rel.carrier:
        if not isinstance(i, int) or i not in M.universe:
            raise SignatureError(f"carrier element {i!r} is not a universe element")
    if rule.f_symbol in M.predicates:
        raise SignatureError(
            f"{rule.f_symbol} is the teller's predicate; the structure may not fix it"
        )
    domain = tuple(value_domain) if value_domain is not None else tuple(M.universe.elements)
    M2 = M.with_predicate(EDGE_SYMBOL, rel.edges)
    return TruthGame(M2, clock_mode, RecursionObligation(rel, rule, domain))


# ---------------------------------------------------------------------------
# The referee.


@dataclass(frozen=True)
class Violation:
    kind: str
    inst: FormulaInstance
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {print_instance(self.inst)}: {self.detail}"


_TRUE, _FALSE = 1, 2


class RefereeState:
    """The one referee that plays a truth game: it keeps the rounds so far,
    asks the teller, judges each answer and reads off the status.

    Supports frames so game-tree search can backtrack without copying;
    popping a frame undoes its rounds, marks and loss.  Repeating an
    instance with the opposite verdict is not by itself a violation; only
    the Tarskian pair conditions are.
    """

    def __init__(self, game: TruthGame):
        self.game = game
        self.rounds: list[Round] = []
        self.lost = False
        self.marks: dict[FormulaInstance, int] = {}
        self.not_wraps: dict[FormulaInstance, list] = {}
        self.and_wraps: dict[FormulaInstance, list] = {}
        self.exists_false_by_body: dict[Formula, list] = {}
        self.true_by_formula: dict[Formula, list] = {}
        self.witness_bodies: dict[FormulaInstance, list] = {}
        self._frames: list[list] = [[]]
        # Per pushed frame: the round count and the loss flag to restore.
        self._frame_starts: list[tuple[int, bool]] = []
        self._f_symbol = game.teller_symbol()

    # -- frames

    def push_frame(self):
        self._frames.append([])
        self._frame_starts.append((len(self.rounds), self.lost))

    def pop_frame(self):
        n, self.lost = self._frame_starts.pop()
        del self.rounds[n:]
        for op in reversed(self._frames.pop()):
            tag = op[0]
            if tag == "mark":
                _, inst, prev = op
                if prev == 0:
                    del self.marks[inst]
                else:
                    self.marks[inst] = prev
            else:
                _, lst = op
                lst.pop()

    def _set_mark(self, inst: FormulaInstance, bit: int) -> None:
        prev = self.marks.get(inst, 0)
        self._frames[-1].append(("mark", inst, prev))
        self.marks[inst] = prev | bit

    def _register(self, index: dict, key, value) -> None:
        lst = index.get(key)
        if lst is None:
            lst = index[key] = []
        lst.append(value)
        self._frames[-1].append(("lst", lst))

    # -- the checks

    def add(self, inst: FormulaInstance, verdict: bool) -> list[Violation]:
        bit = _TRUE if verdict else _FALSE
        prev = self.marks.get(inst, 0)
        if prev & bit:
            return []
        self._set_mark(inst, bit)
        out: list[Violation] = []
        f = inst.formula
        marks = self.marks

        if isinstance(f, ATOMIC_KINDS):
            if not (isinstance(f, Pred) and f.name == self._f_symbol):
                actual = self.game.eval_atomic(inst)
                if verdict != actual:
                    out.append(
                        Violation(
                            "atomic", inst, f"pronounced {verdict}, structure says {actual}"
                        )
                    )
        elif isinstance(f, Not):
            (body,) = self.game.parts(inst)
            self._register(self.not_wraps, body, inst)
            if marks.get(body, 0) & bit:
                out.append(
                    Violation("negation", inst, "agrees with its own negatum")
                )
        elif isinstance(f, And):
            left, right = self.game.parts(inst)
            self._register(self.and_wraps, left, inst)
            if right != left:
                self._register(self.and_wraps, right, inst)
            out.extend(self._check_conjunction(inst, left, right))
        elif isinstance(f, Exists):
            if not verdict:
                self._register(self.exists_false_by_body, f.body, inst)
                for cand in self.true_by_formula.get(f.body, ()):
                    if _is_instantiation(cand, inst):
                        out.append(
                            Violation(
                                "quantifier",
                                inst,
                                f"denied but {print_instance(cand)} was affirmed",
                            )
                        )
                        break

        # cross-checks triggered by the new mark regardless of its shape
        for wrap in self.not_wraps.get(inst, ()):
            if marks.get(wrap, 0) & bit:
                out.append(
                    Violation("negation", wrap, "agrees with its own negatum")
                )
        for wrap in self.and_wraps.get(inst, ()):
            left, right = self.game.parts(wrap)
            out.extend(self._check_conjunction(wrap, left, right))
        if verdict:
            self._register(self.true_by_formula, f, inst)
            for ex in self.exists_false_by_body.get(f, ()):
                if _is_instantiation(inst, ex):
                    out.append(
                        Violation(
                            "quantifier",
                            ex,
                            f"denied but {print_instance(inst)} was affirmed",
                        )
                    )
                    break
        else:
            if self.witness_bodies.get(inst):
                out.append(
                    Violation(
                        "quantifier", inst, "named witness body later denied"
                    )
                )
            if (
                self.game.rule_instance_formula is not None
                and f == self.game.rule_instance_formula
            ):
                ob = self.game.obligation
                a = inst.assignment
                i_val = a.get(ob.rule.i_var)
                x_val = a.get(ob.rule.x_var)
                if i_val in ob.relation.carrier and x_val in ob.value_domain:
                    out.append(
                        Violation(
                            "recursion-rule", inst, "recursion obligation denied"
                        )
                    )
        return out

    def _check_conjunction(self, wrap, left, right) -> list[Violation]:
        bits = self.marks.get(wrap, 0)
        marks = self.marks
        out = []
        if bits & _TRUE and (marks.get(left, 0) & _FALSE or marks.get(right, 0) & _FALSE):
            out.append(
                Violation("conjunction", wrap, "affirmed with a denied conjunct")
            )
        if bits & _FALSE and marks.get(left, 0) & _TRUE and marks.get(right, 0) & _TRUE:
            out.append(
                Violation("conjunction", wrap, "denied with both conjuncts affirmed")
            )
        return out

    def ask(self, teller, clock, inquiry: FormulaInstance) -> list[Violation]:
        """Put one inquiry to the teller, record the round and judge it.

        The teller sees the rounds so far as ``history``: the live list,
        which tellers read and never change."""
        pron = teller.answer(self.game, inquiry, clock, self.rounds)
        return self.process_round(Round(clock, inquiry, pron))

    def process_round(self, rnd: Round) -> list[Violation]:
        """Record one round and judge it; returns any violations.  A round
        without an inquiry closes play and is recorded unjudged."""
        inq, pron = rnd.inquiry, rnd.pronouncement
        if inq is None:
            self.rounds.append(rnd)
            return []
        if pron is None:
            raise MalformedTranscriptError("inquiry round without a reply")
        if inq.formula not in self.game._sig_checked:
            self._check_inquiry_signature(inq)
        self.rounds.append(rnd)
        if not (pron.verdict and isinstance(inq.formula, Exists)):
            out = self.add(inq, pron.verdict)
        elif pron.witness is None:
            out = [Violation("quantifier", inq, "affirmed existential without witness")]
            out += self.add(inq, True)
        elif pron.witness not in self.game.structure.universe:
            out = [Violation("quantifier", inq, f"witness {pron.witness} not in universe")]
        else:
            body = self.game.witness_body(inq, pron.witness)
            if pron.witness_instance is not None and pron.witness_instance != body:
                out = [Violation("quantifier", inq, "witness instance mismatches the body")]
            else:
                out = self.add(inq, True)
                if self.marks.get(body, 0) & _FALSE:
                    out.append(Violation("quantifier", inq, "witness body already denied"))
                self._register(self.witness_bodies, body, inq)
                out += self.add(body, True)
        if out:
            self.lost = True
        return out

    def status(self) -> str:
        """The interrogator wins at the first violation, the teller wins
        when the clock runs out, otherwise play is ongoing."""
        _validate_clocks(self.game, self.rounds)
        if self.lost:
            return INTERROGATOR_WINS
        if _clock_exhausted(self.game, self.rounds):
            return TELLER_WINS
        return ONGOING

    def _check_inquiry_signature(self, inst: FormulaInstance) -> None:
        preds = self.game.structure.predicates
        f_symbol = self._f_symbol
        for g in subformulas(inst.formula):
            if isinstance(g, Pred) and g.name not in preds and g.name != f_symbol:
                raise SignatureError(f"inquiry uses unknown predicate {g.name!r}")
        self.game._sig_checked.add(inst.formula)


def _is_instantiation(cand: FormulaInstance, ex: FormulaInstance) -> bool:
    """Is cand an instantiation of the denied existential ex at some element?"""
    f = ex.formula
    ea = ex.assignment
    for k, v in cand.bindings:
        if k != f.var and ea.get(k) != v:
            return False
    return True


def _as_ordinal(clock) -> Ordinal:
    if isinstance(clock, Ordinal):
        return clock
    if not isinstance(clock, int) or clock < 0:
        raise MalformedTranscriptError(f"a clock is a natural or an ordinal, got {clock!r}")
    return Ordinal.from_nat(int(clock))


def _first_natural(rounds: Sequence[Round]) -> int:
    first = rounds[0].clock
    if not isinstance(first, int) or isinstance(first, bool) or first < 1:
        raise MalformedTranscriptError(
            f"first move must announce a positive natural, got {first!r}"
        )
    return first


def _validate_clocks(game: TruthGame, rounds: Sequence[Round]) -> None:
    if not rounds:
        return
    if any(rnd.inquiry is None for rnd in rounds[:-1]):
        raise MalformedTranscriptError("play continues after a round without inquiry")
    if game.clock_mode == NATURAL:
        first = _first_natural(rounds)
        for k, rnd in enumerate(rounds):
            expected = first - k
            if rnd.clock != expected:
                raise MalformedTranscriptError(
                    f"natural countdown must step by one: round {k} has "
                    f"clock {rnd.clock!r}, expected {expected}"
                )
            if expected == 0:
                if rnd.inquiry is not None or k != len(rounds) - 1:
                    raise MalformedTranscriptError("play continues past zero clock")
            elif expected < 0:
                raise MalformedTranscriptError("play continues past zero clock")
    else:
        prev: Optional[Ordinal] = None
        for k, rnd in enumerate(rounds):
            cur = _as_ordinal(rnd.clock)
            if prev is not None and ordinal_compare(cur, prev) >= 0:
                raise MalformedTranscriptError(
                    f"clocks must strictly descend: {prev} then {cur}"
                )
            if cur.is_zero() and (rnd.inquiry is not None or k != len(rounds) - 1):
                raise MalformedTranscriptError("play continues past zero clock")
            prev = cur


def _clock_exhausted(game: TruthGame, rounds: Sequence[Round]) -> bool:
    if not rounds:
        return False
    if game.clock_mode == NATURAL:
        inquiries = sum(1 for r in rounds if r.inquiry is not None)
        return inquiries >= _first_natural(rounds)
    return _as_ordinal(rounds[-1].clock).is_zero()


def referee(game: TruthGame, transcript: Transcript) -> str:
    """Status of a finished transcript: its clocks are checked first, then
    its rounds replay through a fresh referee state up to the first
    violation."""
    _validate_clocks(game, transcript.rounds)
    state = RefereeState(game)
    for rnd in transcript.rounds:
        if state.process_round(rnd):
            break
    return state.status()


# ---------------------------------------------------------------------------
# Tellers.


class HonestTeller:
    """Answers every inquiry from a fixed source of truth.

    Structure-backed tellers evaluate; class-backed tellers read the marks
    and raise CoverageError outside the closure.  Answers do not depend on
    the play.
    """

    def __init__(self, source: Union[Structure, SatisfactionClass]):
        self.source = source
        self._cache: dict[FormulaInstance, Pronouncement] = {}

    def answer(
        self,
        game: TruthGame,
        inquiry: FormulaInstance,
        clock,
        history: Sequence[Round],
    ) -> Pronouncement:
        cached = self._cache.get(inquiry)
        if cached is not None:
            return cached
        pron = self._answer(inquiry)
        self._cache[inquiry] = pron
        return pron

    def _answer(self, inquiry: FormulaInstance) -> Pronouncement:
        if isinstance(self.source, Structure):
            if not isinstance(inquiry.formula, Exists):
                return Pronouncement(eval_instance(self.source, inquiry))
            try:
                w = skolem_witness(self.source, inquiry)
            except NoWitnessError:
                return Pronouncement(False)
            return Pronouncement(True, w, instantiate(inquiry, inquiry.formula.var, w))
        verdict = self.source.verdict(inquiry)
        if verdict is None:
            raise CoverageError(f"inquiry outside closure: {print_instance(inquiry)}")
        if verdict and isinstance(inquiry.formula, Exists):
            f = inquiry.formula
            if f.var in free_vars(f.body):
                candidates = [
                    entry.assignment[f.var]
                    for entry in self.source.entries
                    if entry.formula == f.body and _is_instantiation(entry, inquiry)
                ]
                if candidates:
                    w = min(candidates)
                    return Pronouncement(True, w, instantiate(inquiry, f.var, w))
            else:
                body = sub_instance(inquiry, f.body)
                if self.source.holds(body):
                    # Vacuous binder: any element witnesses; take the least.
                    return Pronouncement(True, 0, body)
            raise CoverageError(f"no marked witness for {print_instance(inquiry)}")
        return Pronouncement(verdict)


def honest_teller(
    game: TruthGame,
    source: Union[Structure, SatisfactionClass],
    solution: Optional[Solution] = None,
) -> HonestTeller:
    """The teller that answers according to truth (or a satisfaction class);
    in recursion mode, F-queries are answered from the supplied solution."""
    if game.obligation is not None:
        if isinstance(source, Structure):
            M = source
            if EDGE_SYMBOL not in M.predicates:
                M = M.with_predicate(EDGE_SYMBOL, game.obligation.relation.edges)
            pairs = solution.pairs if solution is not None else frozenset()
            M = M.with_predicate(game.obligation.rule.f_symbol, pairs)
            return HonestTeller(M)
        raise InvariantError("recursion-mode honest teller needs a structure source")
    return HonestTeller(source)


# ---------------------------------------------------------------------------
# Driving games.


class ScriptedInterrogator:
    """Replays a fixed list of inquiries under an automatic countdown."""

    def __init__(self, inquiries: Sequence[FormulaInstance], initial_clock: Optional[int] = None):
        self.inquiries = list(inquiries)
        self.initial_clock = initial_clock if initial_clock is not None else len(self.inquiries)

    def move(self, game: TruthGame, transcript: Transcript):
        k = len(transcript.rounds)
        if k >= len(self.inquiries) or self.initial_clock - k <= 0:
            return None
        return game.clock(self.initial_clock - k), self.inquiries[k]


class RandomInterrogator:
    """Seeded interrogator mixing fresh random inquiries with adversarial
    follow-ups derived from the teller's own pronouncements."""

    def __init__(self, rng, depth: int, max_size: int = 7):
        self.rng = rng
        self.depth = depth
        self.max_size = max_size

    def move(self, game: TruthGame, transcript: Transcript):
        k = len(transcript.rounds)
        if k >= self.depth:
            return None
        clock = game.clock(self.depth - k)
        derived = []
        for rnd in transcript.rounds:
            if rnd.inquiry is None:
                continue
            derived.extend(_unfold(rnd.inquiry, rnd.pronouncement))
            derived.append(instance(Not(rnd.inquiry.formula), rnd.inquiry.assignment))
        if derived and self.rng.random() < 0.6:
            return clock, self.rng.choice(derived)
        return clock, random_instance(self.rng, game.structure, self.max_size)


def play_truth_game(game: TruthGame, interrogator, teller) -> Transcript:
    """Alternate interrogator moves and teller answers until the clock runs
    out, a violation occurs, or the interrogator stops."""
    state = RefereeState(game)
    transcript = Transcript(state.rounds)
    while True:
        move = interrogator.move(game, transcript)
        if move is None:
            break
        clock, inquiry = move
        if inquiry is None or _as_ordinal(clock).is_zero():
            state.process_round(Round(clock, None, None))
            break
        if state.ask(teller, clock, inquiry) or _clock_exhausted(game, state.rounds):
            break
    transcript.status = state.status()
    return transcript


def _unfold(inquiry: FormulaInstance, pron: Pronouncement) -> list[FormulaInstance]:
    """Immediate follow-up inquiries exposing the pronouncement's commitments."""
    f = inquiry.formula
    if isinstance(f, Not):
        return [sub_instance(inquiry, f.body)]
    if isinstance(f, And):
        return [sub_instance(inquiry, f.left), sub_instance(inquiry, f.right)]
    if isinstance(f, Exists) and pron is not None and pron.verdict:
        if pron.witness_instance is not None:
            return [pron.witness_instance]
        if pron.witness is not None:
            return [instantiate(inquiry, f.var, pron.witness)]
    return []


# ---------------------------------------------------------------------------
# Extraction: winning teller strategies compress to satisfaction classes.


def _probe(
    game: TruthGame,
    teller,
    opening: Sequence[FormulaInstance],
    budget: int,
    lifo: bool = False,
) -> RefereeState:
    """One canonical probe play: announce the budget, ask the opening
    inquiries, then unfold follow-ups until the queue or the clock is spent.
    Raises NotWinningStrategyError if the teller loses the play."""
    state = RefereeState(game)
    queue = deque(opening)
    asked: set[FormulaInstance] = set()
    while queue and len(state.rounds) < budget:
        inquiry = queue.pop() if lifo else queue.popleft()
        if inquiry in asked:
            continue
        asked.add(inquiry)
        violations = state.ask(teller, game.clock(budget - len(state.rounds)), inquiry)
        if violations:
            raise NotWinningStrategyError(
                f"teller lost a probe at {print_instance(inquiry)}: {violations[0]}"
            )
        queue.extend(_unfold(inquiry, state.rounds[-1].pronouncement))
    return state


def _merge_marks(
    merged: dict[FormulaInstance, int], state: RefereeState
) -> Optional[FormulaInstance]:
    """Merge probe marks; returns an instance whose verdicts conflict across
    probes, if any."""
    clash = None
    for inst, bits in state.marks.items():
        prev = merged.get(inst, 0)
        if (prev | bits) == 3 and prev != 3:
            clash = inst
        merged[inst] = prev | bits
    return clash


def extract_satisfaction(
    teller,
    game: TruthGame,
    targets: Sequence[FormulaInstance],
    clock_factor: int = DEFAULT_CLOCK_FACTOR,
    extra_clock: int = 0,
    presearch_budget: Optional[int] = 2000,
) -> SatisfactionClass:
    """Read a satisfaction class off a winning teller strategy.

    A depth-2 interrogator search over the targets and their immediate
    follow-ups runs first.  Each target is then probed at its clock budget
    with the target asked first and follow-ups unfolded breadth-first, then
    again in depth-first order; verdicts must agree across all probes.  The
    result must pass the Tarskian audit on the target closure.
    """
    targets = list(targets)
    if presearch_budget:
        found = interrogator_search(
            game,
            teller,
            depth=2,
            budget=presearch_budget,
            pool=_presearch_pool(targets),
        )
        if found.plan is not None:
            raise NotWinningStrategyError(
                "bounded search found a winning interrogator: "
                + ", ".join(print_instance(i) for i in found.plan.inquiries)
            )
    merged: dict[FormulaInstance, int] = {}
    verdicts: dict[FormulaInstance, bool] = {}
    for target in targets:
        budget = clock_budget(target, clock_factor) + extra_clock
        for lifo in (False, True):
            state = _probe(game, teller, [target], budget, lifo=lifo)
            clash = _merge_marks(merged, state)
            if clash is not None:
                raise NotWinningStrategyError(
                    f"pronouncement instability across probes on {print_instance(clash)}"
                )
        verdicts[target] = merged[target] == _TRUE
    entries = frozenset(t for t in targets if verdicts[t])
    result = SatisfactionClass(entries, frozenset(targets))
    if game.obligation is None:
        violations = tarski_check(game.structure, result, targets)
        if violations:
            raise NotWinningStrategyError(
                f"extracted class fails the Tarskian audit: {violations[0]}"
            )
    return result


def _presearch_pool(targets: Sequence[FormulaInstance]) -> list:
    cap = 120
    pool: list[FormulaInstance] = []
    seen = set()
    for t in targets:
        for cand in (t, *_unfold(t, Pronouncement(False))):
            if cand not in seen:
                seen.add(cand)
                pool.append(cand)
        neg = instance(Not(t.formula), t.assignment)
        if neg not in seen:
            seen.add(neg)
            pool.append(neg)
        if len(pool) >= cap:
            break
    return pool[:cap]


def extract_solution(teller, game: TruthGame) -> Solution:
    """Read the asserted recursion solution off a winning teller strategy.

    Probes every F(i, x) over the carrier and value domain together with
    the matching recursion-rule instance; slices must cohere across probes
    and the result must satisfy the recursion slice equations.
    """
    ob = game.obligation
    if ob is None:
        raise InvariantError("extract_solution needs a recursion game")
    rf = game.rule_instance_formula
    # Every rule instance has the same formula, so one budget serves all.
    budget = clock_budget(instance(rf, {ob.rule.i_var: 0, ob.rule.x_var: 0}))
    merged: dict[FormulaInstance, int] = {}
    pairs = set()
    nodes = sorted(ob.relation.carrier)
    for i in nodes:
        for x in ob.value_domain:
            f_atom = instance(_f_atom(ob.rule, i, x), {})
            rule_inst = instance(rf, {ob.rule.i_var: i, ob.rule.x_var: x})
            state = _probe(game, teller, [f_atom, rule_inst], budget)
            clash = _merge_marks(merged, state)
            if clash is not None:
                raise NotWinningStrategyError(
                    f"incoherent slices across probes on {print_instance(clash)}"
                )
            if merged[f_atom] == _TRUE:
                pairs.add((i, x))
    solution = Solution(frozenset(pairs))
    base = game.structure
    if not check_solution(base, ob.relation, ob.rule, solution, ob.value_domain):
        raise NotWinningStrategyError(
            "extracted predicate violates the recursion slice equations"
        )
    return solution


def _f_atom(rule: RecursionRule, i: int, x: int) -> Formula:
    from .logic import Const

    return Pred(rule.f_symbol, (Const(i), Const(x)))


# ---------------------------------------------------------------------------
# Interrogator search.


@dataclass(frozen=True)
class InterrogatorPlan:
    """A concrete winning line of questioning against the searched teller."""

    inquiries: tuple[FormulaInstance, ...]
    initial_clock: int


@dataclass(frozen=True)
class SearchResult:
    plan: Optional[InterrogatorPlan]
    exhausted: bool
    nodes: int

    @property
    def proven_none(self) -> bool:
        return self.plan is None and self.exhausted


def default_inquiry_pool(game: TruthGame, max_size: int = 4) -> list[FormulaInstance]:
    """Closed instances of bounded size over the game's signature; in
    recursion mode the teller's F-atoms and the rule instances join in."""
    sig = dict(game.structure.signature())
    ob = game.obligation
    if ob is not None:
        sig[ob.rule.f_symbol] = 2
    pool = [
        instance(f, {})
        for f in enumerate_formulas(game.structure.universe, max_size, ("x",), sig or None)
        if not free_vars(f)
    ]
    if ob is not None:
        rf = game.rule_instance_formula
        for i in sorted(ob.relation.carrier):
            for x in ob.value_domain:
                pool.append(instance(rf, {ob.rule.i_var: i, ob.rule.x_var: x}))
    return pool


def interrogator_search(
    game: TruthGame,
    teller,
    depth: int,
    budget: Optional[int] = None,
    pool: Optional[Sequence[FormulaInstance]] = None,
    pool_max_size: int = 4,
    initial_clock: Optional[int] = None,
) -> SearchResult:
    """Search adaptive interrogator play to the given depth.

    Explores every sequence of pool inquiries under a one-step countdown
    from ``initial_clock`` (default: depth).  Returns a winning plan if one
    trips the referee, a proven-none result if the walk completed, or a
    none-within-budget result if the node budget ran out first.
    """
    if pool is None:
        pool = default_inquiry_pool(game, pool_max_size)
    pool = list(pool)
    pool_set = set(pool)
    start = initial_clock if initial_clock is not None else depth
    limit = min(depth, start)
    state = RefereeState(game)
    nodes = 0
    # One (clock, candidates) entry per round of the current line; each
    # entry past the first sits on the referee frame of the round before it.
    stack = [(game.clock(start), iter(pool))] if limit > 0 else []
    while stack:
        clock, candidates = stack[-1]
        inquiry = next(candidates, None)
        if inquiry is None:
            stack.pop()
            if stack:
                state.pop_frame()
            continue
        nodes += 1
        if budget is not None and nodes > budget:
            break
        state.push_frame()
        if state.ask(teller, clock, inquiry):
            line = tuple(r.inquiry for r in state.rounds)
            for _ in stack:
                state.pop_frame()
            return SearchResult(InterrogatorPlan(line, start), False, nodes)
        if len(stack) == limit:
            state.pop_frame()
            continue
        # The teller's own witness pronouncements join the candidates: the
        # re-asking device needs the exact instances she produced.
        derived = [
            r.pronouncement.witness_instance
            for r in state.rounds
            if r.pronouncement.witness_instance is not None
            and r.pronouncement.witness_instance not in pool_set
        ]
        stack.append((game.clock(start - len(stack)), iter(pool + derived if derived else pool)))
    for _ in stack[1:]:
        state.pop_frame()
    return SearchResult(None, not stack, nodes)


# ---------------------------------------------------------------------------
# Transcript serialization.


def _clock_to_json(clock):
    if isinstance(clock, Ordinal):
        return str(clock)
    return clock


def transcript_to_json(game: TruthGame, transcript: Transcript) -> str:
    rounds = []
    for rnd in transcript.rounds:
        doc: dict = {"clock": _clock_to_json(rnd.clock)}
        if rnd.inquiry is not None:
            doc["inquiry"] = print_instance(rnd.inquiry)
            doc["verdict"] = rnd.pronouncement.verdict
            if rnd.pronouncement.witness is not None:
                doc["witness"] = rnd.pronouncement.witness
        rounds.append(doc)
    return json.dumps(
        {"clock_mode": game.clock_mode, "status": transcript.status, "rounds": rounds},
        sort_keys=True,
    )


def transcript_from_json(game: TruthGame, text: str) -> Transcript:
    """Parse a transcript written by ``transcript_to_json``; any other shape
    raises ParseError."""
    from .universe import parse_ordinal

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"transcript is not JSON: {exc}") from None
    rdocs = doc.get("rounds") if isinstance(doc, dict) else None
    if not isinstance(rdocs, list):
        raise ParseError("transcript needs a list of rounds")
    sig = dict(game.structure.signature())
    if game.obligation is not None:
        sig[game.obligation.rule.f_symbol] = 2
    rounds = []
    for k, rdoc in enumerate(rdocs):
        clock = rdoc.get("clock") if isinstance(rdoc, dict) else None
        if not isinstance(clock, (int, str)):
            raise ParseError(f"round {k} needs a clock, a natural or an ordinal string")
        if isinstance(clock, str):
            clock = parse_ordinal(clock)
        if "inquiry" not in rdoc:
            rounds.append(Round(clock, None, None))
            continue
        text, verdict, witness = rdoc["inquiry"], rdoc.get("verdict"), rdoc.get("witness")
        integer_witness = witness is None or type(witness) is int
        if not (isinstance(text, str) and isinstance(verdict, bool) and integer_witness):
            raise ParseError(
                f"round {k} needs an inquiry string, a true/false verdict and an integer witness if any"
            )
        f = parse_formula(text, sig)
        if free_vars(f):
            raise ParseError(f"round {k} asks about a formula with free variables")
        inquiry = instance(f, {})
        witness_inst = None
        if witness is not None and isinstance(f, Exists):
            witness_inst = instantiate(inquiry, f.var, witness)
        rounds.append(Round(clock, inquiry, Pronouncement(verdict, witness, witness_inst)))
    return Transcript(rounds, doc.get("status", ONGOING))
