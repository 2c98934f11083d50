"""Independent oracles the library is tested against.

Everything here is deliberately written as a separate code path from the
package: direct transcriptions, brute-force enumerations, and bottom-up
dynamic programs.
"""

from __future__ import annotations

from hfgames.errors import NotClopenError
from hfgames.etr import RecursionRule, etr_solve
from hfgames.games import PLAYER_I, PLAYER_II, Game, other_player, turn
from hfgames.logic import (
    EDGE_SYMBOL,
    And,
    Const,
    Eq,
    Exists,
    FormulaInstance,
    Member,
    Not,
    Pred,
    Structure,
    Var,
)
from hfgames.truthgames import INTERROGATOR_WINS, NATURAL, Round, Transcript, referee
from hfgames.universe import Ordinal, WellFoundedRelation, build_universe


def tarski_eval(M: Structure, formula, env: dict) -> bool:
    """Direct transcription of the five Tarskian clauses, one per branch."""
    def val(t):
        if hasattr(t, "code"):
            return t.code
        return env[t.name]

    if isinstance(formula, Member):
        return (val(formula.right) >> val(formula.left)) & 1 == 1
    if isinstance(formula, Eq):
        return val(formula.left) == val(formula.right)
    if isinstance(formula, Pred):
        return tuple(val(a) for a in formula.args) in M.predicates[formula.name]
    if isinstance(formula, Not):
        return not tarski_eval(M, formula.body, env)
    if isinstance(formula, And):
        return tarski_eval(M, formula.left, env) and tarski_eval(M, formula.right, env)
    if isinstance(formula, Exists):
        for b in M.universe.elements:
            if tarski_eval(M, formula.body, {**env, formula.var: b}):
                return True
        return False
    raise AssertionError(f"unknown formula {formula!r}")


def relativize(formula, f_symbol: str, bound):
    """Each read of ``f_symbol`` conjoined with its guard (its first
    argument <| ``bound``), by plain recursion over the formula."""
    if isinstance(formula, Pred) and formula.name == f_symbol:
        return And(formula, Pred(EDGE_SYMBOL, (formula.args[0], bound)))
    if isinstance(formula, Not):
        return Not(relativize(formula.body, f_symbol, bound))
    if isinstance(formula, And):
        return And(relativize(formula.left, f_symbol, bound), relativize(formula.right, f_symbol, bound))
    if isinstance(formula, Exists):
        return Exists(formula.var, relativize(formula.body, f_symbol, bound))
    return formula


def substitute(formula, env: dict):
    """formula with the constant of each code env gives a variable in place
    of its free occurrences, by plain recursion; a quantifier hides its own
    variable from env in its body."""
    def term(t):
        return Const(env[t.name]) if isinstance(t, Var) and t.name in env else t

    if isinstance(formula, Member):
        return Member(term(formula.left), term(formula.right))
    if isinstance(formula, Eq):
        return Eq(term(formula.left), term(formula.right))
    if isinstance(formula, Pred):
        return Pred(formula.name, tuple(term(a) for a in formula.args))
    if isinstance(formula, Not):
        return Not(substitute(formula.body, env))
    if isinstance(formula, And):
        return And(substitute(formula.left, env), substitute(formula.right, env))
    if isinstance(formula, Exists):
        inner = {v: c for v, c in env.items() if v != formula.var}
        return Exists(formula.var, substitute(formula.body, inner))
    raise AssertionError(f"unknown formula {formula!r}")


def proposition(formula, env: dict):
    """The closed instance ``substitute`` makes of formula under env."""
    return FormulaInstance(substitute(formula, env), ())


def formula_facts(formula) -> tuple[int, int, frozenset]:
    """(size, depth, predicate names) of a formula by plain recursion: size
    counts every AST node, terms included, and depth the formula nodes on
    the longest path down to an atom."""
    if isinstance(formula, (Member, Eq)):
        return 3, 1, frozenset()
    if isinstance(formula, Pred):
        return 1 + len(formula.args), 1, frozenset((formula.name,))
    if isinstance(formula, (Not, Exists)):
        n, d, names = formula_facts(formula.body)
        return n + 1, d + 1, names
    if isinstance(formula, And):
        ln, ld, lnames = formula_facts(formula.left)
        rn, rd, rnames = formula_facts(formula.right)
        return ln + rn + 1, max(ld, rd) + 1, lnames | rnames
    raise AssertionError(f"unknown formula {formula!r}")


def enumerate_positions(G: Game) -> list[tuple]:
    """Every position of the truncated game tree, root included."""
    out = []
    frontier = [()]
    while frontier:
        p = frontier.pop()
        out.append(p)
        if G.decide(p) is None and len(p) < G.play_cap:
            frontier.extend(p + (x,) for x in G.moves)
    return out


def minimax_winner_dp(G: Game) -> dict[tuple, str]:
    """Bottom-up minimax over the explicit position list."""
    positions = enumerate_positions(G)
    positions.sort(key=len, reverse=True)
    win: dict[tuple, str] = {}
    for p in positions:
        d = G.decide(p)
        if d is not None:
            win[p] = d
        elif len(p) == G.play_cap:
            raise NotClopenError(f"undecided full-length play {p}")
        else:
            mover = turn(p)
            children = [win[p + (x,)] for x in G.moves]
            win[p] = mover if mover in children else other_player(mover)
    return win


# "I wins at i" as a recursion along the game tree, guard first: the slice
# at a position is {0} exactly where player I wins there.
_I_WINS = RecursionRule.parse(
    "WinI(i) | (ToI(i) & Ej. ((j <| i) & F(j, x)))"
    " | (ToII(i) & !Ej. ((j <| i) & !F(j, x)))"
)


def clopen_by_etr(G: Game) -> dict[tuple, str]:
    """Winner of every position, by ``etr_solve``: the converse of the
    paper's first claim (ETR gives clopen determinacy) run as a recursion.

    The positions, at most 16 so that they fit V_4, are the codes 0..n-1 in
    ``enumerate_positions`` order, and each child comes before its parent
    (``<|``).  ``WinI`` holds the positions decided for I, ``ToI`` and
    ``ToII`` the undecided ones by mover.
    """
    positions = enumerate_positions(G)
    code = {p: k for k, p in enumerate(positions)}
    preds: dict = {"WinI": set(), "ToI": set(), "ToII": set()}
    edges = set()
    for p in positions:
        d = G.decide(p)
        if d is None and len(p) == G.play_cap:
            raise NotClopenError(f"undecided full-length play {p}")
        if d is None:
            preds["To" + turn(p)].add((code[p],))
            edges.update((code[p + (x,)], code[p]) for x in G.moves)
        elif d == PLAYER_I:
            preds["WinI"].add((code[p],))
    M = Structure(build_universe(4), preds)
    F = etr_solve(M, WellFoundedRelation(code.values(), edges), _I_WINS, value_domain=(0,))
    return {p: PLAYER_I if (code[p], 0) in F.pairs else PLAYER_II for p in positions}


def clopen_distance_dp(G: Game) -> dict[tuple, int | None]:
    """Exact minimax distance-to-win for player I, the open player,
    bottom-up; None marks positions player II holds."""
    positions = enumerate_positions(G)
    positions.sort(key=len, reverse=True)
    dist: dict[tuple, int | None] = {}
    for p in positions:
        d = G.decide(p)
        if d is None and len(p) == G.play_cap:
            raise NotClopenError(f"undecided full-length play {p}")
        if d is not None:
            dist[p] = 0 if d == PLAYER_I else None
            continue
        children = [dist[p + (x,)] for x in G.moves]
        if turn(p) == PLAYER_I:
            valued = [c for c in children if c is not None]
            dist[p] = min(valued) + 1 if valued else None
        else:
            dist[p] = None if any(c is None for c in children) else max(children)
    return dist


def reachability_closure(rel: WellFoundedRelation) -> frozenset:
    """Floyd-Warshall style transitive reachability."""
    nodes = sorted(rel.carrier, key=repr)
    reach = {(a, b): (a, b) in rel.edges for a in nodes for b in nodes}
    for k in nodes:
        for a in nodes:
            if not reach[(a, k)]:
                continue
            for b in nodes:
                if reach[(k, b)]:
                    reach[(a, b)] = True
    return frozenset((a, b) for (a, b), v in reach.items() if v)


def longest_path_ranks(rel: WellFoundedRelation) -> dict:
    """Each node's rank in an acyclic relation: the number of edges on the
    longest path ending at it, by relaxing every edge once per node."""
    rank = dict.fromkeys(rel.carrier, 0)
    for _ in rel.carrier:
        for a, b in rel.edges:
            rank[b] = max(rank[b], rank[a] + 1)
    return rank


def descending_sequences(po: WellFoundedRelation) -> set[tuple]:
    """All finite strictly descending sequences, straight from the
    definition: every consecutive pair must be an edge downward."""
    edge = set(po.edges)
    out = {()}
    frontier = [(n,) for n in po.carrier]
    while frontier:
        s = frontier.pop()
        out.add(s)
        for a in po.carrier:
            if (a, s[-1]) in edge:
                frontier.append(s + (a,))
    return out


def kb_less(s: tuple, t: tuple) -> bool:
    """Two-clause Kleene-Brouwer comparison, applied pairwise."""
    if s == t:
        return False
    k = 0
    while k < len(s) and k < len(t):
        if s[k] != t[k]:
            return s[k] < t[k]
        k += 1
    return len(s) > len(t)


def worklist_fixpoint(M: Structure, rel, rule, value_domain=None) -> frozenset:
    """Iterate all slice equations simultaneously until stable."""
    M2 = M if EDGE_SYMBOL in M.predicates else M.with_predicate(EDGE_SYMBOL, rel.edges)
    domain = list(value_domain) if value_domain is not None else list(M.universe.elements)
    preds = {n: {a for a, b in rel.edges if b == n} for n in rel.carrier}
    pairs: frozenset = frozenset()
    while True:
        new = set()
        for b in rel.carrier:
            restricted = frozenset((j, x) for j, x in pairs if j in preds[b])
            Mb = M2.with_predicate(rule.f_symbol, restricted)
            for x in domain:
                if tarski_eval(Mb, rule.formula, {rule.i_var: b, rule.x_var: x}):
                    new.add((b, x))
        if frozenset(new) == pairs:
            return pairs
        pairs = frozenset(new)


def clock_outcome(clock_mode: str, rounds) -> str:
    """The truth-telling game's clock rules over a whole transcript, written
    out from their statement: "malformed", "spent" or "running".

    No round follows a round without an inquiry and a zero clock only closes
    play.  In natural mode the first round announces an int >= 1 (not a
    bool) and round k announces it minus k; in ordinal mode the clocks,
    naturals or ordinals, strictly descend.  In either mode the clock is
    spent at a closing round at 0 or an answered round at 1; an ordinal
    clock is 1 only when it equals the ordinal 1, so a transfinite clock is
    never spent.
    """
    if not rounds:
        return "running"
    if any(r.inquiry is None for r in rounds[:-1]):
        return "malformed"
    if clock_mode == NATURAL:
        first = rounds[0].clock
        if type(first) is not int or first < 1:
            return "malformed"
        values = [first - k for k in range(len(rounds))]
        if any(r.clock != v for r, v in zip(rounds, values)):
            return "malformed"
        zeros = [v == 0 for v in values]
        one = 1
    else:
        values = []
        for r in rounds:
            if isinstance(r.clock, Ordinal):
                values.append(r.clock)
            elif isinstance(r.clock, int) and r.clock >= 0:
                values.append(Ordinal.from_nat(int(r.clock)))
            else:
                return "malformed"
        if any(not later < earlier for earlier, later in zip(values, values[1:])):
            return "malformed"
        zeros = [v.is_zero() for v in values]
        one = Ordinal.from_nat(1)
    spent = zeros[-1] or (values[-1] == one and rounds[-1].inquiry is not None)
    if any(z and r.inquiry is not None for z, r in zip(zeros, rounds)):
        return "malformed"
    return "spent" if spent else "running"


def line_search(game, teller, depth: int, budget=None, pool=()):
    """Brute-force interrogator search: every line of inquiries to ``depth``
    rounds, each round picking from ``pool`` plus the witness instances
    named earlier on the line, visited depth first in pool order: each one
    that instantiates a binder its body uses, and the others off the pool.
    Each line is replayed from scratch and judged by ``referee``.

    Returns (the first winning line or None, whether every line was seen,
    lines visited); lines past ``budget`` are not seen.
    """
    pool = list(pool)
    nodes = 0
    todo = [(q,) for q in reversed(pool)] if depth > 0 else []
    while todo:
        line = todo.pop()
        nodes += 1
        if budget is not None and nodes > budget:
            return None, False, nodes
        rounds = []
        for k, q in enumerate(line):
            clock = game.clock(depth - k)
            rounds.append(Round(clock, q, teller.answer(game, q, clock, list(rounds))))
        if referee(game, Transcript(rounds)) == INTERROGATOR_WINS:
            return line, False, nodes
        if len(line) < depth:
            derived = [
                r.pronouncement.witness_instance for r in rounds
                if r.pronouncement.witness_instance is not None
                and (r.pronouncement.witness_instance not in pool or _uses_binder(r.inquiry))
            ]
            todo.extend(line + (q,) for q in reversed(pool + derived))
    return None, True, nodes


def _uses_binder(f) -> bool:
    """Is f an existential whose body changes with its variable's value?"""
    return isinstance(f, Exists) and substitute(f.body, {f.var: 0}) != f.body


def referee_lost(game, rounds) -> bool:
    """The referee's rules over the whole set of answered rounds, without
    regard to their order: has the teller lost?

    A round loses outright if it affirms an existential without a witness,
    with one that is not an int code of the universe, or with a witness
    instance other than the body at the witness.  Every other round marks
    its inquiry with its verdict, and an affirmed existential marks the body
    at its witness true too.  The marks lose if an atom (not the teller's F)
    is marked against the structure, a negation shares a mark with its
    negatum, a conjunction is marked true with a conjunct marked false or
    false with both marked true, a denied existential has an instantiation
    at some element marked true, a body named as a witness is marked false,
    or a recursion-rule instance over the carrier and the value domain is
    marked false.  An instance is its closed formula: instantiations,
    witness bodies and rule instances are made by this module's plain
    ``substitute``, one by one, not by the package's planned builds.
    """
    M = game.structure
    ob = game.obligation
    true, false, named = set(), set(), set()
    for r in rounds:
        q, p = r.inquiry, r.pronouncement
        if q is None:
            continue
        if p.verdict and isinstance(q, Exists):
            if p.witness is None:
                return True
            if type(p.witness) is not int or not 0 <= p.witness < M.universe.size:
                return True
            body = proposition(q.body, {q.var: p.witness})
            if p.witness_instance is not None and p.witness_instance != body:
                return True
            named.add(body)
            true.add(body)
        (true if p.verdict else false).add(q)
    if named & false:
        return True
    f_symbol = ob.rule.f_symbol if ob is not None else None
    rules = set() if ob is None else {
        proposition(ob.rule.instance_formula(), {ob.rule.i_var: i, ob.rule.x_var: x})
        for i in ob.relation.carrier for x in ob.value_domain
    }
    for inst in true | false:
        if isinstance(inst, (Member, Eq, Pred)):
            if not (isinstance(inst, Pred) and inst.name == f_symbol):
                actual = tarski_eval(M, inst, {})
                if (inst in true and not actual) or (inst in false and actual):
                    return True
        elif isinstance(inst, Not):
            body = inst.body
            if (inst in true and body in true) or (inst in false and body in false):
                return True
        elif isinstance(inst, And):
            left, right = inst.left, inst.right
            if inst in true and (left in false or right in false):
                return True
            if inst in false and left in true and right in true:
                return True
        elif inst in false:
            if any(proposition(inst.body, {inst.var: b}) in true for b in M.universe.elements):
                return True
        if inst in false and inst in rules:
            return True
    return False
