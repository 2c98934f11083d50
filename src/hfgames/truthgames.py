"""The truth-telling game, its counting-down variants, and the recursion game.

The interrogator asks about formula instances under a descending clock: each
is the closed formula it states, so two inquiries about one proposition are
one inquiry however they were reached.  The truth-teller answers true or
false and must name a witness whenever she affirms an existential.  The
referee is purely syntactic except on atomic ground facts: it flags atomic
answers contradicting the structure, opposite pairs marked alike,
conjunctions out of step with their conjuncts, witness bodies denied,
instantiations affirmed under a denied existential, and (in recursion mode)
denied instances of the recursion obligation.  Honest tellers never trip
it; winning strategies compress into satisfaction classes and recursion
solutions.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .errors import (
    CoverageError,
    HFGamesError,
    InvariantError,
    MalformedTranscriptError,
    NotWinningStrategyError,
    ParseError,
    SignatureError,
)
from .etr import RecursionRule, Solution, check_solution, recursion_setup
from .logic import (
    And,
    Const,
    Exists,
    Formula,
    Not,
    Pred,
    SatisfactionClass,
    Structure,
    TarskiViolation,
    enumerate_formulas,
    eval_instance,
    free_vars,
    instantiation_witness,
    least_witness,
    parse_closed,
    random_instance,
    size,
    subformulas,
    substitute_each,
    to_text,
)
from .universe import Ordinal, WellFoundedRelation, ordinal_compare

ONGOING = "ongoing"
INTERROGATOR_WINS = "interrogator_wins"
TELLER_WINS = "teller_wins"

NATURAL = "first_move_natural"
ORDINAL = "ordinal_countdown"

CLOCK_FACTOR = 2


def clock_budget(target: Formula) -> int:
    """Moves the teller must survive for a verdict on this target to bind:
    one step per node unfolded plus witness follow-ups, then slack."""
    return CLOCK_FACTOR * size(target) + 2


@dataclass(frozen=True)
class Pronouncement:
    """The teller's reply; a witness accompanies every affirmed existential."""

    verdict: bool
    witness: Optional[int] = None
    witness_instance: Optional[Formula] = None


# The honest teller's reply to every inquiry but an affirmed existential,
# shared: ``_PLAIN[verdict]``.
_PLAIN = (Pronouncement(False), Pronouncement(True))


@dataclass(frozen=True)
class Round:
    clock: Union[int, Ordinal]
    inquiry: Optional[Formula]
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
        self._rules: dict[tuple, Formula] = {}
        ob = self.obligation
        if ob is not None:
            rf = self.rule_instance_formula = ob.rule.instance_formula()
            keys = [(i, x) for i in sorted(ob.relation.carrier) for x in ob.value_domain]
            self._rules = dict(zip(keys, substitute_each(rf, (ob.rule.i_var, ob.rule.x_var), keys)))
        # The referee flags a denial of any rule instance.
        self.rule_set = frozenset(self._rules.values())
        self._eval_cache: dict = {}

    def eval_atomic(self, inst: Formula) -> bool:
        cached = self._eval_cache.get(inst)
        if cached is None:
            cached = eval_instance(self.structure, inst)
            self._eval_cache[inst] = cached
        return cached

    def teller_symbol(self) -> Optional[str]:
        return self.obligation.rule.f_symbol if self.obligation else None

    def signature(self) -> dict[str, int]:
        """The structure's predicates, plus the teller's F/2 in recursion mode."""
        sig = dict(self.structure.signature())
        if self.obligation is not None:
            sig[self.obligation.rule.f_symbol] = 2
        return sig

    def rule_instances(self) -> dict[tuple, Formula]:
        """The recursion-rule instance at every (i, x) of carrier x value
        domain, carrier in sorted order: the game's own dict, built with the
        game, which callers read and never change."""
        return self._rules

    def clock(self, n: int) -> Union[int, Ordinal]:
        return Ordinal.from_nat(n) if self.clock_mode == ORDINAL else n


def truth_game(M: Structure, clock_mode: str = NATURAL) -> TruthGame:
    return TruthGame(M, clock_mode)


def recursion_game(
    M: Structure,
    rel: WellFoundedRelation,
    rule: RecursionRule,
    value_domain: Optional[Sequence[int]] = None,
) -> TruthGame:
    """Truth game whose referee additionally enforces the recursion rule
    F(i,x) <-> phi(x,i,F|i) on carrier indices.  The obligation writes F|i
    as F(j,y) & (j <| i), so the structure is read as every recursion's is
    (``etr.recursion_setup``)."""
    M2, domain = recursion_setup(M, rel, value_domain)
    return TruthGame(M2, obligation=RecursionObligation(rel, rule, domain))


# ---------------------------------------------------------------------------
# The referee.


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
        self.marks: dict[Formula, int] = {}
        # Part -> the marked Not and And instances around it.  Nots go in
        # front, so a mark's negation violations come before its conjunction
        # ones.
        self.wraps: dict[Formula, list] = {}
        # Affirmed instances, and denied existentials by their body, in
        # ``_bucket``s: an instantiation falls in its existential's body's.
        self.affirmed: dict[tuple, list] = {}
        self.denied_existentials: dict[tuple, list] = {}
        self.witness_bodies: dict[Formula, list] = {}
        # The undo records of the innermost pushed frame, ``(index, key,
        # position)`` for an index entry and ``(None, instance, previous
        # bits)`` for a mark; None outside frames, where nothing is ever
        # undone.  Undoing an entry drops a key whose list it empties.
        self._log: Optional[list] = None
        # Per pushed frame: the round count, loss flag and log to restore.
        self._frame_starts: list[tuple[int, bool, Optional[list]]] = []
        self._f_symbol = game.teller_symbol()
        self._signature = frozenset(game.signature())

    # -- frames

    def push_frame(self):
        self._frame_starts.append((len(self.rounds), self.lost, self._log))
        self._log = []

    def pop_frame(self):
        log = self._log
        n, self.lost, self._log = self._frame_starts.pop()
        del self.rounds[n:]
        for index, key, b in reversed(log):
            if index is not None:
                lst = index[key]
                lst.pop(b)
                if not lst:
                    del index[key]
            elif b == 0:
                del self.marks[key]
            else:
                self.marks[key] = b

    def _register(self, index: dict, key, value, front: bool = False) -> None:
        lst = index.get(key)
        if lst is None:
            lst = index[key] = []
        if front:
            lst.insert(0, value)
        else:
            lst.append(value)
        if self._log is not None:
            self._log.append((index, key, 0 if front else -1))

    # -- the checks

    def add(self, inst: Formula, verdict: bool) -> list[TarskiViolation]:
        """Mark inst with the verdict and return the violations it brings
        about: first the clause inst is the subject of, then the clauses of
        the marked instances it is a part of, then the witness and recursion
        clauses on a denial."""
        bit = _TRUE if verdict else _FALSE
        marks = self.marks
        prev = marks.get(inst, 0)
        if prev & bit:
            return []
        if self._log is not None:
            self._log.append((None, inst, prev))
        marks[inst] = prev | bit
        out: list[TarskiViolation] = []
        t = type(inst)
        if t is Not:
            self._register(self.wraps, inst.body, inst, True)
            self._check_connective(inst, out)
        elif t is And:
            self._register(self.wraps, inst.left, inst)
            if inst.right != inst.left:
                self._register(self.wraps, inst.right, inst)
            self._check_connective(inst, out)
        elif t is not Exists and not (t is Pred and inst.name == self._f_symbol):
            actual = self.game.eval_atomic(inst)
            if verdict != actual:
                detail = f"pronounced {verdict}, structure says {actual}"
                out.append(TarskiViolation("atomic", inst, detail))
        for wrap in self.wraps.get(inst, ()):
            self._check_connective(wrap, out)
        others = ()
        if verdict:
            key = _bucket(inst)
            self._register(self.affirmed, key, inst)
            others = self.denied_existentials.get(key, ())
        else:
            if self.witness_bodies.get(inst):
                out.append(TarskiViolation("quantifier", inst, "named witness body later denied"))
            if inst in self.game.rule_set:
                out.append(TarskiViolation("recursion-rule", inst, "recursion obligation denied"))
            if t is Exists:
                key = _bucket(inst.body)
                self._register(self.denied_existentials, key, inst)
                others = self.affirmed.get(key, ())
        # The quantifier clause, whichever side inst is on: a denied
        # existential has no affirmed instantiation at an element.  A
        # denied inst is the subject of this clause, so its violation leads
        # the list.
        universe = self.game.structure.universe
        for other in others:
            ex, cand = (other, inst) if verdict else (inst, other)
            if instantiation_witness(ex, cand) in universe:
                detail = f"denied but {to_text(cand)} was affirmed"
                out.insert(len(out) if verdict else 0, TarskiViolation("quantifier", ex, detail))
                break
        return out

    def _check_connective(self, wrap: Formula, out: list[TarskiViolation]) -> None:
        """Judge a marked Not or And instance against its parts' marks: a
        negation differs from its negatum, a conjunction agrees with its
        conjuncts."""
        marks = self.marks
        bits = marks[wrap]
        if type(wrap) is Not:
            if bits & marks.get(wrap.body, 0):
                out.append(TarskiViolation("negation", wrap, "agrees with its own negatum"))
            return
        left, right = marks.get(wrap.left, 0), marks.get(wrap.right, 0)
        if bits & _TRUE and (left | right) & _FALSE:
            out.append(TarskiViolation("conjunction", wrap, "affirmed with a denied conjunct"))
        if bits & _FALSE and left & right & _TRUE:
            out.append(TarskiViolation("conjunction", wrap, "denied with both conjuncts affirmed"))

    def ask(self, teller, clock, inquiry: Formula) -> list[TarskiViolation]:
        """Put one inquiry to the teller, record the round and judge it.

        The teller sees the rounds so far as ``history``: the live list,
        which tellers read and never change."""
        pron = teller.answer(self.game, inquiry, clock, self.rounds)
        return self.process_round(Round(clock, inquiry, pron))

    def process_round(self, rnd: Round) -> list[TarskiViolation]:
        """Check the round's clock, record the round and judge it; returns
        any violations.  A round without an inquiry closes play; it, and
        every round after the teller has lost, is recorded unjudged."""
        self._check_clock(rnd)
        inq, pron = rnd.inquiry, rnd.pronouncement
        if inq is None or self.lost:
            self.rounds.append(rnd)
            return []
        if pron is None:
            raise MalformedTranscriptError("inquiry round without a reply")
        if not inq._preds <= self._signature:
            # Name the first unknown predicate in pre-order.
            name = next(g.name for g in subformulas(inq)
                        if isinstance(g, Pred) and g.name not in self._signature)
            raise SignatureError(f"inquiry uses unknown predicate {name!r}")
        self.rounds.append(rnd)
        if not (pron.verdict and isinstance(inq, Exists)):
            out = self.add(inq, pron.verdict)
        elif pron.witness is None:
            out = [TarskiViolation("quantifier", inq, "affirmed existential without witness")]
            out += self.add(inq, True)
        elif pron.witness not in self.game.structure.universe:
            out = [TarskiViolation("quantifier", inq, f"witness {pron.witness!r} not in universe")]
        else:
            body = inq.witness_body(pron.witness)
            if pron.witness_instance is not None and pron.witness_instance != body:
                out = [TarskiViolation("quantifier", inq, "witness instance mismatches the body")]
            else:
                out = self.add(inq, True)
                if self.marks.get(body, 0) & _FALSE:
                    out.append(TarskiViolation("quantifier", inq, "witness body already denied"))
                self._register(self.witness_bodies, body, inq)
                out += self.add(body, True)
        if out:
            self.lost = True
        return out

    def _check_clock(self, rnd: Round) -> None:
        """No round follows a round without an inquiry, a zero clock only
        closes play, and the clock counts down by one from a positive natural
        announced on the first move, or strictly descends as an ordinal."""
        clock = rnd.clock
        prev = self.rounds[-1] if self.rounds else None
        if prev is not None and prev.inquiry is None:
            raise MalformedTranscriptError("play continues after a round without inquiry")
        if self.game.clock_mode == ORDINAL:
            cur = _as_ordinal(clock)
            if prev is not None and ordinal_compare(cur, _as_ordinal(prev.clock)) >= 0:
                raise MalformedTranscriptError(f"clocks must strictly descend: {prev.clock}, {cur}")
            zero = cur.is_zero()
        else:
            if prev is None:
                if not isinstance(clock, int) or isinstance(clock, bool) or clock < 1:
                    raise MalformedTranscriptError(
                        f"first move must announce a positive natural, got {clock!r}"
                    )
            elif clock != prev.clock - 1:
                raise MalformedTranscriptError(
                    f"natural countdown must step by one: {prev.clock}, then {clock!r}"
                )
            zero = clock == 0
        if zero and rnd.inquiry is not None:
            raise MalformedTranscriptError("play continues past zero clock")

    def status(self) -> str:
        """The interrogator wins at the first violation, the teller wins
        once the last round runs the clock out, otherwise play is ongoing.
        In both modes the clock runs out at an answered round at 1 or a
        closing round at 0; a transfinite clock never does."""
        if self.lost:
            return INTERROGATOR_WINS
        if not self.rounds:
            return ONGOING
        last = self.rounds[-1]
        clock = last.clock
        if isinstance(clock, Ordinal):
            clock = clock.to_int() if clock.is_finite() else None
        spent = clock == 0 or (clock == 1 and last.inquiry is not None)
        return TELLER_WINS if spent else ONGOING


def _bucket(f: Formula) -> tuple:
    """What a node holds without a walk and an existential's
    instantiations share with its body: class, size, depth and predicates."""
    return type(f), f._size, f._depth, f._preds


def _as_ordinal(clock) -> Ordinal:
    if isinstance(clock, Ordinal):
        return clock
    if not isinstance(clock, int) or clock < 0:
        raise MalformedTranscriptError(f"a clock is a natural or an ordinal, got {clock!r}")
    return Ordinal.from_nat(int(clock))


def referee(game: TruthGame, transcript: Transcript) -> str:
    """Status of a finished transcript, replayed round by round through a
    fresh referee state; a round that breaks the clock rules raises
    MalformedTranscriptError."""
    state = RefereeState(game)
    for rnd in transcript.rounds:
        state.process_round(rnd)
    return state.status()


# ---------------------------------------------------------------------------
# Tellers.


class HonestTeller:
    """Answers every inquiry from a fixed source of truth.

    Structure-backed tellers follow Tarski's clauses; class-backed tellers
    read the marks and raise CoverageError outside the closure.  Answers do
    not depend on the play, so the teller is memoryless (see
    ``interrogator_search``).
    """

    memoryless = True

    def __init__(self, source: Union[Structure, SatisfactionClass]):
        self.source = source
        self._cache: dict[Formula, Pronouncement] = {}
        # A class source's entries by ``_bucket``, built on the first
        # existential.
        self._entries: Optional[dict[tuple, list]] = None

    def answer(
        self,
        game: TruthGame,
        inquiry: Formula,
        clock,
        history: Sequence[Round],
    ) -> Pronouncement:
        cached = self._cache.get(inquiry)
        if cached is not None:
            return cached
        pron = self._answer(game, inquiry)
        self._cache[inquiry] = pron
        return pron

    def _answer(self, game: TruthGame, inquiry: Formula) -> Pronouncement:
        if isinstance(self.source, Structure):
            return self._by_clauses(game, inquiry)
        verdict = self.source.verdict(inquiry)
        if verdict is None:
            raise CoverageError(f"inquiry outside closure: {to_text(inquiry)}")
        if verdict and isinstance(inquiry, Exists):
            # The least code at which a marked entry is the body.
            if self._entries is None:
                self._entries = {}
                for entry in self.source.entries:
                    self._entries.setdefault(_bucket(entry), []).append(entry)
            candidates = [
                w for entry in self._entries.get(_bucket(inquiry.body), ())
                if (w := instantiation_witness(inquiry, entry)) is not None
            ]
            if not candidates:
                raise CoverageError(f"no marked witness for {to_text(inquiry)}")
            w = min(candidates)
            return Pronouncement(True, w, inquiry.witness_body(w))
        return _PLAIN[verdict]

    def _by_clauses(self, game: TruthGame, inquiry: Formula) -> Pronouncement:
        """Tarski's clauses over the teller's own answers: a Not is true iff
        its part is false, an And iff both parts are, and the right part is
        answered only when the left one is true.  Parts not yet answered go
        first, in post-order off an explicit stack.  Only atoms are
        evaluated, only existentials look for their least witness, and only
        an affirmed one gets a reply of its own."""
        M, cache = self.source, self._cache
        stack = [inquiry]
        while stack:
            inst = stack[-1]
            if inst in cache:
                stack.pop()
                continue
            t = type(inst)
            if t is Not or t is And:
                part = inst.body if t is Not else inst.left
                got = cache.get(part)
                if got is None:
                    stack.append(part)
                    continue
                if t is And and got.verdict:
                    got = cache.get(inst.right)
                    if got is None:
                        stack.append(inst.right)
                        continue
                pron = _PLAIN[not got.verdict if t is Not else got.verdict]
            elif t is Exists:
                w = least_witness(M, inst)
                pron = _PLAIN[False] if w is None else Pronouncement(True, w, inst.witness_body(w))
            else:
                pron = _PLAIN[eval_instance(M, inst)]
            cache[inst] = pron
            stack.pop()
        return cache[inquiry]


def honest_teller(
    game: TruthGame,
    source: Union[Structure, SatisfactionClass],
    solution: Optional[Solution] = None,
) -> HonestTeller:
    """The teller that answers according to truth (or a satisfaction class);
    in recursion mode, F-queries are answered from the supplied solution."""
    if game.obligation is not None:
        if isinstance(source, Structure):
            ob = game.obligation
            M, _ = recursion_setup(source, ob.relation, ob.value_domain)
            pairs = solution.pairs if solution is not None else frozenset()
            return HonestTeller(M.with_predicate(ob.rule.f_symbol, pairs))
        raise InvariantError("recursion-mode honest teller needs a structure source")
    return HonestTeller(source)


# ---------------------------------------------------------------------------
# Driving games.


class ScriptedInterrogator:
    """Replays a fixed list of inquiries under an automatic countdown."""

    def __init__(self, inquiries: Sequence[Formula], initial_clock: Optional[int] = None):
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

    max_size = 7  # of a fresh random inquiry

    def __init__(self, rng, depth: int):
        self.rng = rng
        self.depth = depth
        # The follow-ups of the rounds read so far, extended as the one
        # transcript being played grows.
        self._transcript: Optional[Transcript] = None
        self._derived: list[Formula] = []
        self._read = 0

    def move(self, game: TruthGame, transcript: Transcript):
        k = len(transcript.rounds)
        if k >= self.depth:
            return None
        clock = game.clock(self.depth - k)
        if transcript is not self._transcript:
            self._transcript, self._derived, self._read = transcript, [], 0
        derived = self._derived
        for rnd in transcript.rounds[self._read:]:
            if rnd.inquiry is None:
                continue
            derived.extend(_unfold(game, rnd.inquiry, rnd.pronouncement))
            derived.append(Not(rnd.inquiry))
        self._read = k
        if derived and self.rng.random() < 0.6:
            return clock, self.rng.choice(derived)
        return clock, random_instance(self.rng, game.structure, self.max_size)


def play_truth_game(game: TruthGame, interrogator, teller) -> Transcript:
    """Alternate interrogator moves and teller answers until the clock runs
    out, a violation occurs, or the interrogator stops."""
    state = RefereeState(game)
    transcript = Transcript(state.rounds)
    while state.status() == ONGOING:
        move = interrogator.move(game, transcript)
        if move is None:
            break
        clock, inquiry = move
        if inquiry is None or _as_ordinal(clock).is_zero():
            state.process_round(Round(clock, None, None))
            break
        state.ask(teller, clock, inquiry)
    transcript.status = state.status()
    return transcript


def _unfold(
    game: TruthGame, inquiry: Formula, pron: Optional[Pronouncement]
) -> tuple[Formula, ...]:
    """Immediate follow-up inquiries exposing the pronouncement's commitments:
    the inquiry's parts, an affirmed existential's named witness body, and a
    denied existential's body at its least witness, unless the body reads
    the teller's F."""
    if isinstance(inquiry, Exists) and pron is not None:
        if pron.verdict:
            if pron.witness_instance is not None:
                return (pron.witness_instance,)
            if pron.witness is not None:
                return (inquiry.witness_body(pron.witness),)
        elif game.teller_symbol() not in inquiry._preds:
            w = least_witness(game.structure, inquiry)
            if w is not None:
                return (inquiry.witness_body(w),)
    return inquiry.parts


# ---------------------------------------------------------------------------
# Extraction: winning teller strategies compress to satisfaction classes.


def _probe(
    game: TruthGame,
    teller,
    opening: Sequence[Formula],
    budget: int,
    follow=_unfold,
) -> RefereeState:
    """One canonical probe play: announce the budget, ask the opening
    inquiries, each distinct one once, then the follow-ups ``follow`` reads
    off each answer, breadth first, until the queue or the clock is spent.
    Raises NotWinningStrategyError if the teller loses the play.

    In a plain truth game each mark of a won ``_unfold`` probe is true, by
    induction on size: an atomic lie is caught, a lie on a negation,
    conjunction or affirmed existential forces one on a part or the named
    witness body, and denying a true existential forces denying its body at
    the least witness."""
    state = RefereeState(game)
    queue = deque(opening)
    asked: set[Formula] = set()
    while queue and len(state.rounds) < budget:
        inquiry = queue.popleft()
        if inquiry in asked:
            continue
        asked.add(inquiry)
        violations = state.ask(teller, game.clock(budget - len(state.rounds)), inquiry)
        if violations:
            raise NotWinningStrategyError(
                f"teller lost a probe at {to_text(inquiry)}: {violations[0]}"
            )
        queue.extend(follow(game, inquiry, state.rounds[-1].pronouncement))
    return state


def _read_marks(game: TruthGame, teller, probes, what: str) -> dict[Formula, int]:
    """Play each ``(opening, budget)`` probe in turn and merge their
    marks.  Raises NotWinningStrategyError, naming ``what``, at the first
    probe that marks an instance against an earlier probe's verdict, so
    each instance in the result carries one verdict."""
    merged: dict[Formula, int] = {}
    for opening, budget in probes:
        clash = None
        for inst, bits in _probe(game, teller, opening, budget).marks.items():
            prev = merged.get(inst, 0)
            if (prev | bits) == 3 and prev != 3:
                clash = inst
            merged[inst] = prev | bits
        if clash is not None:
            raise NotWinningStrategyError(f"{what} across probes on {to_text(clash)}")
    return merged


def extract_satisfaction(
    teller,
    game: TruthGame,
    targets: Sequence[Formula],
    extra_clock: int = 0,
) -> SatisfactionClass:
    """Read a satisfaction class off a winning teller strategy: in a plain
    truth game, the class equals the truth on the targets, or the teller is
    refused, since a won probe's marks are all true (``_probe``).

    Each distinct target is probed at its clock budget plus ``extra_clock``,
    with the target asked first; verdicts must agree across the probes.

    A ``memoryless`` teller (see ``interrogator_search``) is read in one
    pass instead: one referee state asks the targets, then every follow-up,
    each distinct inquiry once.  Every probe asks a subset of those rounds
    and the teller answers each inquiry alike wherever it is asked, so if
    the pass is won no probe is lost and no verdicts clash, and the pass's
    marks are the probes' verdicts.  If the pass is lost or raises, the
    probes run as described, so a refusal is the same either way.

    Every clock budget is at least 6 (the smallest formula has size 2), so
    a non-negative ``extra_clock`` leaves each probe a round for its target.
    """
    if extra_clock < 0:
        raise InvariantError(f"extra clock {extra_clock} below 0")
    targets = list(targets)
    state = None
    if getattr(teller, "memoryless", False):
        state = _single_pass(game, teller, targets, _unfold)
    if state is None:
        probes = (((t,), clock_budget(t) + extra_clock) for t in dict.fromkeys(targets))
        marks = _read_marks(game, teller, probes, "pronouncement instability")
    else:
        marks = state.marks
    return SatisfactionClass(frozenset(t for t in targets if marks[t] == _TRUE), targets)


def extract_solution(teller, game: TruthGame) -> Solution:
    """Read the asserted recursion solution off a winning teller strategy.

    Probes every F(i, x) over the carrier and value domain together with
    the matching recursion-rule instance; slices must cohere across probes
    and the result must satisfy the recursion slice equations.
    """
    ob = game.obligation
    if ob is None:
        raise InvariantError("extract_solution needs a recursion game")
    rules = game.rule_instances()
    f_atoms = {(i, x): Pred(ob.rule.f_symbol, (Const(i), Const(x))) for i, x in rules}
    probes = (((f_atoms[key], inst), clock_budget(inst)) for key, inst in rules.items())
    merged = _read_marks(game, teller, probes, "incoherent slices")
    solution = Solution(frozenset(key for key, atom in f_atoms.items() if merged[atom] == _TRUE))
    if not check_solution(game.structure, ob.relation, ob.rule, solution, ob.value_domain):
        raise NotWinningStrategyError(
            "extracted predicate violates the recursion slice equations"
        )
    return solution


# ---------------------------------------------------------------------------
# Interrogator search.


@dataclass(frozen=True)
class InterrogatorPlan:
    """A concrete winning line of questioning against the searched teller."""

    inquiries: tuple[Formula, ...]
    initial_clock: int


@dataclass(frozen=True)
class SearchResult:
    plan: Optional[InterrogatorPlan]
    exhausted: bool
    nodes: int

    @property
    def proven_none(self) -> bool:
        return self.plan is None and self.exhausted


def default_inquiry_pool(game: TruthGame) -> list[Formula]:
    """Closed instances of size at most 4 over the game's signature; in
    recursion mode the teller's F-atoms and the rule instances join in."""
    sig = game.signature()
    formulas = enumerate_formulas(game.structure.universe, 4, ("x",), sig or None)
    pool = [f for f in formulas if not free_vars(f)]
    if game.obligation is not None:
        pool += game.rule_instances().values()
    return pool


def interrogator_search(
    game: TruthGame,
    teller,
    depth: int,
    pool: Optional[Sequence[Formula]] = None,
) -> SearchResult:
    """Search adaptive interrogator play to the given depth.

    Walks every line of inquiries under a one-step countdown from
    ``depth``: each round picks from the pool plus the witness instances
    the teller named earlier on the line that ``_asked_back`` keeps.
    Returns a winning plan if one trips the referee, or else a proven-none
    result once the walk has completed, so ``exhausted`` holds exactly when
    no plan is found.  ``nodes`` counts the lines visited.  The walk has no
    cap: its size is set by ``depth`` and the pool alone.

    A teller may declare ``memoryless = True``: its answer depends only on
    the inquiry, never on the clock or the history (``HonestTeller`` does).
    For such a teller a futility certificate runs first: one referee state
    asks every pool instance and every witness instance they lead to, once
    each.  The referee checks each Tarskian condition in both directions
    and each violation involves at most three marks, so if this one set of
    marks holds no violation, no line of the walk wins, whatever its order.
    The result is then the one the walk would return, with ``nodes``
    counted from the shape of the walk's line tree instead of walked.  If
    the certificate finds a violation or raises, the walk runs as usual.
    """
    if pool is None:
        pool = default_inquiry_pool(game)
    pool = list(pool)
    if depth > 0 and pool and getattr(teller, "memoryless", False):
        named = _futility_certificate(game, teller, pool)
        if named is not None:
            return SearchResult(None, True, _line_count(pool, named, depth))
    pool_set = set(pool)
    state = RefereeState(game)
    nodes = 0
    # One (clock, candidates) entry per round of the current line; each
    # entry past the first sits on the referee frame of the round before it.
    stack = [(game.clock(depth), iter(pool))] if depth > 0 else []
    while stack:
        clock, candidates = stack[-1]
        inquiry = next(candidates, None)
        if inquiry is None:
            stack.pop()
            if stack:
                state.pop_frame()
            continue
        nodes += 1
        state.push_frame()
        if state.ask(teller, clock, inquiry):
            line = tuple(r.inquiry for r in state.rounds)
            return SearchResult(InterrogatorPlan(line, depth), False, nodes)
        if len(stack) == depth:
            state.pop_frame()
            continue
        derived = [
            r.pronouncement.witness_instance
            for r in state.rounds
            if _asked_back(r.inquiry, r.pronouncement.witness_instance, pool_set)
        ]
        stack.append((game.clock(depth - len(stack)), iter(pool + derived if derived else pool)))
    return SearchResult(None, True, nodes)


def _single_pass(
    game: TruthGame, teller, openings: list[Formula], follow
) -> Optional[RefereeState]:
    """One clean pass over the openings: a probe that asks each distinct
    opening once, then the follow-ups ``follow`` reads off each answer until
    no new one appears.  Returns None if the teller lost, raised a typed
    error, or named a witness instance anywhere but on an affirmed
    existential.

    Each follow-up is smaller than the inquiry it follows (the referee holds
    a named witness instance to the existential's body), so there are at
    most as many asks as the openings' sizes add up to, and a countdown from
    that sum plus one per opening never reaches zero."""
    budget = sum(1 + size(inst) for inst in openings)
    try:
        state = _probe(game, teller, openings, budget, follow=follow)
    except HFGamesError:
        return None
    for rnd in state.rounds:
        pron = rnd.pronouncement
        if pron.witness_instance is not None and not (
            pron.verdict and isinstance(rnd.inquiry, Exists)
        ):
            return None
    return state


def _futility_certificate(
    game: TruthGame, teller, pool: list[Formula]
) -> Optional[dict[Formula, Optional[Formula]]]:
    """One ``_single_pass`` over the pool whose follow-up is the witness
    instance each answer names.  Returns, for every inquiry asked, the
    witness instance its answer names if ``_asked_back`` keeps it (or None);
    returns None instead if the pass does."""
    state = _single_pass(game, teller, pool, _named_witness)
    if state is None:
        return None
    pool_set = set(pool)
    named: dict = {}
    for rnd in state.rounds:
        wi = rnd.pronouncement.witness_instance
        named[rnd.inquiry] = wi if _asked_back(rnd.inquiry, wi, pool_set) else None
    return named


def _asked_back(inquiry: Formula, witness_instance, pool_set) -> bool:
    """Does a witness instance named on a line join the walk's candidates?
    The teller's own witness pronouncements do, for the re-asking device: an
    instantiation at a binder its body uses always, even where the pool
    states the same proposition, and any other instance (a vacuous binder's
    is its body) when the pool lacks it."""
    if witness_instance is None:
        return False
    return witness_instance not in pool_set or (
        type(inquiry) is Exists and inquiry.var in inquiry.body._fv
    )


def _named_witness(
    game: TruthGame, inquiry: Formula, pron: Pronouncement
) -> tuple[Formula, ...]:
    return () if pron.witness_instance is None else (pron.witness_instance,)


def _line_count(
    pool: list[Formula],
    named: dict[Formula, Optional[Formula]],
    limit: int,
) -> int:
    """Nodes of the walk's line tree to ``limit`` rounds, for a teller whose
    answers ``named`` records.

    A line's candidates are the pool plus the witness instances named on it
    that ``_asked_back`` keeps, so the shape of its subtree depends only on how many of
    those it holds at each height, the height being the length of the chain
    of witness instances one still leads to.  Asking one of height h adds
    one of height h - 1; asking a pool entry adds the one it names, if any.
    Lines are counted level by level, grouped by those counts."""
    height: dict = {}
    for inst in named:
        chain = [inst]
        while named[chain[-1]] is not None and named[chain[-1]] not in height:
            chain.append(named[chain[-1]])
        last = named[chain[-1]]
        h = -1 if last is None else height[last]
        for link in reversed(chain):
            h += 1
            height[link] = h
    adds = [0] * (max(height.values()) + 1)
    plain = 0
    for inst in pool:
        if named[inst] is None:
            plain += 1
        else:
            adds[height[named[inst]]] += 1
    total = 0
    level = {(0,) * len(adds): 1}
    for rounds_left in range(limit, 0, -1):
        deeper: dict = {}
        for held, lines in level.items():
            total += lines * (len(pool) + sum(held))
            if rounds_left == 1:
                continue
            stay = plain + held[0]
            if stay:
                deeper[held] = deeper.get(held, 0) + lines * stay
            for h, pool_adds in enumerate(adds):
                grow = pool_adds + (held[h + 1] if h + 1 < len(held) else 0)
                if grow:
                    key = held[:h] + (held[h] + 1,) + held[h + 1 :]
                    deeper[key] = deeper.get(key, 0) + lines * grow
        level = deeper
    return total


# ---------------------------------------------------------------------------
# Transcript serialization.


def _clock_to_json(clock):
    if isinstance(clock, Ordinal):
        return str(clock)
    return clock


def transcript_doc(game: TruthGame, transcript: Transcript) -> dict:
    """A transcript as a JSON document; a witness that is not an int raises
    MalformedTranscriptError, so every file written from it reads back."""
    rounds = []
    for k, rnd in enumerate(transcript.rounds):
        doc: dict = {"clock": _clock_to_json(rnd.clock)}
        if rnd.inquiry is not None:
            doc["inquiry"] = to_text(rnd.inquiry)
            doc["verdict"] = rnd.pronouncement.verdict
            witness = rnd.pronouncement.witness
            if witness is not None:
                if type(witness) is not int:
                    raise MalformedTranscriptError(
                        f"round {k}: witness {witness!r} is not an int code"
                    )
                doc["witness"] = witness
        rounds.append(doc)
    return {"clock_mode": game.clock_mode, "status": transcript.status, "rounds": rounds}


def transcript_to_json(game: TruthGame, transcript: Transcript) -> str:
    return json.dumps(transcript_doc(game, transcript), sort_keys=True)


def transcript_from_json(game: TruthGame, text: str) -> Transcript:
    """Parse a transcript written by ``transcript_to_json`` in the game's
    clock mode; any other shape or ``clock_mode`` raises ParseError."""
    from .universe import parse_ordinal

    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"transcript is not JSON: {exc}") from None
    rdocs = doc.get("rounds") if isinstance(doc, dict) else None
    if not isinstance(rdocs, list):
        raise ParseError("transcript needs a list of rounds")
    mode = doc.get("clock_mode", game.clock_mode)
    if mode != game.clock_mode:
        raise ParseError(f"transcript recorded in clock mode {mode!r}, read in {game.clock_mode!r}")
    sig = game.signature()
    rounds = []
    for k, rdoc in enumerate(rdocs):
        clock = rdoc.get("clock") if isinstance(rdoc, dict) else None
        if not (type(clock) is int or isinstance(clock, str)):
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
        try:
            inquiry = parse_closed(text, sig, game.structure.universe)
        except ParseError as exc:
            raise ParseError(f"round {k}: {exc}") from None
        witness_inst = None
        # A witness outside the universe has no body; the referee scores it.
        if witness in game.structure.universe and isinstance(inquiry, Exists):
            witness_inst = inquiry.witness_body(witness)
        rounds.append(Round(clock, inquiry, Pronouncement(verdict, witness, witness_inst)))
    return Transcript(rounds, doc.get("status", ONGOING))
