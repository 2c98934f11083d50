"""First-order recursion along finite well-founded relations.

A recursion rule is a formula with designated free variables (x, i) and a
binary predicate symbol F.  Solving proceeds in a topological order of the
relation: slice b collects the x satisfying the rule when F denotes the
partial solution restricted to the indices j <| b.  Reads of F
are thereby predecessor-relativized exactly as in the recursion game's
F(j,y) /\\ j <| i substitution, so unguarded reads never see later slices.

``<|`` is the relation's one name: ``recursion_setup`` reads every
recursion's structure alike.  The module also carries the relation-reduction
chain (transitive closure, descending-sequence tree, Kleene-Brouwer
linearization) with solution transports that preserve slices exactly, each F
read guarded by <|, and iterated truth predicates along finite well-orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import ClassVar, Mapping, Optional, Sequence

from .errors import InvariantError, ResourceBoundError, SignatureError
from .logic import (
    And,
    EDGE_SYMBOL,
    Exists,
    Formula,
    Not,
    Pred,
    SatisfactionClass,
    Structure,
    Var,
    build_truth_predicate,
    free_vars,
    parse_formula,
    satisfiers,
    subformulas,
)
from .universe import (
    Universe,
    WellFoundedRelation,
    WellOrder,
    topological_order,
)

DEFAULT_NODE_BUDGET = 100_000


# ---------------------------------------------------------------------------
# Recursion rules and solutions.


@dataclass(frozen=True)
class RecursionRule:
    """Rule formula phi(x, i, F) with reserved symbols F and <|."""

    formula: Formula
    x_var: ClassVar[str] = "x"
    i_var: ClassVar[str] = "i"
    f_symbol: ClassVar[str] = "F"

    def __post_init__(self):
        fv = free_vars(self.formula)
        extra = fv - {self.x_var, self.i_var}
        if extra:
            raise SignatureError(
                f"rule has stray free variables {sorted(extra)}"
            )
        for atom in _pred_atoms(self.formula, self.f_symbol):
            if len(atom.args) != 2:
                raise SignatureError(
                    f"{self.f_symbol} must be binary, found arity {len(atom.args)}"
                )

    @staticmethod
    def parse(text: str) -> "RecursionRule":
        return RecursionRule(parse_formula(text))

    def relativized(self) -> Formula:
        """F(j, y) becomes (F(j, y) & (j <| i)): the slice-i restriction."""
        return _relativize(self.formula, self.f_symbol, Var(self.i_var))

    def instance_formula(self) -> Formula:
        """The recursion obligation F(i, x) <-> phi(x, i, F|i), desugared."""
        head = Pred(self.f_symbol, (Var(self.i_var), Var(self.x_var)))
        body = self.relativized()
        return And(
            Not(And(head, Not(body))),
            Not(And(body, Not(head))),
        )


def _pred_atoms(f: Formula, name: str) -> list[Pred]:
    return [g for g in subformulas(f) if isinstance(g, Pred) and g.name == name]


def _relativize(f: Formula, f_symbol: str, bound) -> Formula:
    """Conjoin every read F(j, y) with (j <| bound), in one pass up the
    subformula order: reversed pre-order maps each node after its parts."""
    image: dict = {}
    for g in reversed(list(subformulas(f))):
        t = type(g)
        if t is Pred and g.name == f_symbol:
            image[g] = And(g, Pred(EDGE_SYMBOL, (g.args[0], bound)))
        elif t is Not:
            image[g] = Not(image[g.body])
        elif t is And:
            image[g] = And(image[g.left], image[g.right])
        elif t is Exists:
            image[g] = Exists(g.var, image[g.body])
        else:
            image[g] = g
    return image[f]


@dataclass(frozen=True)
class Solution:
    """A binary class F: pairs (i, x) with i in the carrier, x in the universe."""

    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))

    def slice(self, i) -> frozenset:
        return frozenset(x for j, x in self.pairs if j == i)


def recursion_setup(
    M: Structure, rel: WellFoundedRelation, value_domain: Optional[Sequence[int]] = None
) -> tuple[Structure, tuple[int, ...]]:
    """The structure a recursion's rule is read in, with <| installed as the
    relation's edges, and the values it ranges over (default: the whole
    universe).  The carrier and the values must be universe codes, and the
    structure may not fix F nor fix <| to other edges."""
    domain = tuple(M.universe.elements if value_domain is None else value_domain)
    checked = () if value_domain is None else domain
    for what, codes in (("carrier element", rel.carrier), ("value", checked)):
        for c in codes:
            if c not in M.universe:
                raise SignatureError(f"{what} {c!r} is not a universe element")
    f_symbol = RecursionRule.f_symbol
    if f_symbol in M.predicates:
        raise SignatureError(f"{f_symbol} is the teller's predicate; the structure may not fix it")
    edges = M.predicates.get(EDGE_SYMBOL)
    if edges is None:
        return M.with_predicate(EDGE_SYMBOL, rel.edges), domain
    if edges != rel.edges:
        raise SignatureError(
            f"{EDGE_SYMBOL} guards the reads of {f_symbol}; the structure may not"
            " fix it to other than the relation's edges"
        )
    return M, domain


def _slice(M: Structure, formula: Formula, b, reads: frozenset, domain: Sequence[int]) -> frozenset:
    """The x in ``domain`` where ``formula`` holds at i = b with F = ``reads``."""
    Mb = M.with_predicate(RecursionRule.f_symbol, reads)
    return satisfiers(Mb, formula, RecursionRule.x_var, {RecursionRule.i_var: b}, domain)


def _solve(M: Structure, formula: Formula, preds: dict, order: Sequence, domain) -> Solution:
    """The slices in ``order``, each reading F at its ``preds`` only."""
    pairs: set = set()
    slices: dict = {}
    for b in order:
        restricted = frozenset((j, x) for j in preds[b] for x in slices.get(j, ()))
        sl = _slice(M, formula, b, restricted, domain)
        slices[b] = sl
        pairs.update((b, x) for x in sl)
    return Solution(frozenset(pairs))


def etr_solve(
    M: Structure,
    rel: WellFoundedRelation,
    rule: RecursionRule,
    value_domain: Optional[Sequence[int]] = None,
    order: Optional[Sequence] = None,
) -> Solution:
    """The unique solution of the recursion, by rank-stratified evaluation:
    slices in ``topological_order``, rank by rank, so every slice follows
    all of its predecessors' slices.

    ``order`` may supply any topological order of the relation; the result
    does not depend on the choice.  ``value_domain`` restricts the x range
    (defaults to the whole universe).
    """
    topo = topological_order(rel)
    Mr, domain = recursion_setup(M, rel, value_domain)
    return _solve(Mr, rule.formula, rel.predecessor_map(), topo if order is None else order, domain)


def check_solution(
    M: Structure,
    rel: WellFoundedRelation,
    rule: RecursionRule,
    F: Solution,
    value_domain: Optional[Sequence[int]] = None,
) -> bool:
    """True iff every slice equation F_b = {x : phi(x, b, F|b)} holds exactly."""
    Mr, domain = recursion_setup(M, rel, value_domain)
    preds = rel.predecessor_map()
    for b in rel.carrier:
        restricted = frozenset(
            (j, x) for j, x in F.pairs if j in preds[b]
        )
        expected = _slice(Mr, rule.formula, b, restricted, domain)
        if F.slice(b) != expected:
            return False
    stray = {i for i, _ in F.pairs} - rel.carrier
    return not stray


# ---------------------------------------------------------------------------
# The relation-reduction chain.


def transitive_closure(rel: WellFoundedRelation) -> WellFoundedRelation:
    """Smallest transitive superset of the edges; preserves well-foundedness."""
    succs: dict = {n: [] for n in rel.carrier}
    for a, b in rel.edges:
        succs[a].append(b)
    # Reversed topological order: every node after all of its targets.
    reach: dict = {}
    for n in reversed(topological_order(rel)):
        reach[n] = set(succs[n]).union(*(reach[b] for b in succs[n]))
    edges = {(a, b) for a in rel.carrier for b in reach[a]}
    return WellFoundedRelation(rel.carrier, frozenset(edges))


def descending_tree(
    po: WellFoundedRelation, node_budget: int = DEFAULT_NODE_BUDGET
) -> WellFoundedRelation:
    """The tree of finite strictly descending sequences, ordered by extension.

    Nodes are tuples (the empty sequence is the root); (s, t) is an edge
    when s properly extends t, so longer sequences come earlier.
    """
    below = po.predecessor_map()
    nodes: list[tuple] = [()]
    # The loop reads the nodes it appends: breadth-first order.
    for s in nodes:
        if len(nodes) > node_budget:
            raise ResourceBoundError(f"descending tree exceeds node budget {node_budget}")
        nodes.extend([s + (a,) for a in (below[s[-1]] if s else po.nodes())])
    edges = set()
    for s in nodes:
        for k in range(len(s)):
            edges.add((s, s[:k]))
    return WellFoundedRelation(frozenset(nodes), frozenset(edges))


def kleene_brouwer(tree: WellFoundedRelation, universe: Universe) -> WellOrder:
    """Linearize a tree of sequences into the Kleene-Brouwer well-order:
    a proper extension comes before its prefix, and otherwise the first
    disagreement decides by the global well-order (numeric code order).
    The sort key ends each sequence in ``inf``, which sorts after every
    code, so a sequence sorts before any of its prefixes."""
    for s in tree.carrier:
        if not isinstance(s, tuple):
            raise InvariantError(f"tree node {s!r} is not a sequence")
        for a in s:
            if a not in universe:
                raise InvariantError(f"sequence entry {a!r} outside the universe")
    return WellOrder(tuple(sorted(tree.carrier, key=lambda s: (*s, inf))))


# -- solution transports along the chain


def solve_via_transitive_closure(M: Structure, rel: WellFoundedRelation, rule: RecursionRule) -> Solution:
    """Run the recursion over the transitive closure, each F read guarded
    by the original relation's <|; slices agree exactly with the direct
    solution."""
    po = transitive_closure(rel)
    Mr, domain = recursion_setup(M, rel)
    return _solve(Mr, rule.relativized(), po.predecessor_map(), topological_order(po), domain)


def _sequence_solve(
    M: Structure,
    rel: WellFoundedRelation,
    rule: RecursionRule,
    process_order: Sequence[tuple],
) -> Solution:
    """Shared engine for the tree and Kleene-Brouwer transports.

    Each nonempty sequence s computes the original slice at its last entry,
    reading the collapsed pairs of its proper extensions through the rule's
    <|-guarded F reads; the empty root carries no slice.  ``process_order``
    must put every proper extension of a node before the node itself, so
    each node's collapsed pairs are complete, accumulated from its
    children, when its turn comes.  The answer is read off the singleton
    sequences.
    """
    Mr, domain = recursion_setup(M, rel)
    guarded = rule.relativized()
    below: dict = {}
    slices: dict = {}
    for s in process_order:
        if s == ():
            continue
        reads = below.pop(s, set())
        slices[s] = _slice(Mr, guarded, s[-1], frozenset(reads), domain)
        parent = below.setdefault(s[:-1], set())
        parent |= reads
        parent.update((s[-1], x) for x in slices[s])
    return Solution(frozenset((s[0], x) for s, xs in slices.items() if len(s) == 1 for x in xs))


def solve_via_descending_tree(
    M: Structure,
    rel: WellFoundedRelation,
    rule: RecursionRule,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Solution:
    """Transport through the descending-sequence tree of the transitive
    closure and read the answer off the singleton sequences."""
    tree = descending_tree(transitive_closure(rel), node_budget)
    nodes = sorted(tree.carrier, key=lambda s: (-len(s), s))
    return _sequence_solve(M, rel, rule, nodes)


def solve_via_kleene_brouwer(
    M: Structure,
    rel: WellFoundedRelation,
    rule: RecursionRule,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[Solution, WellOrder]:
    """Transport all the way to the Kleene-Brouwer well-order; the linear
    processing order refines the tree order, so slices agree exactly."""
    kb = kleene_brouwer(descending_tree(transitive_closure(rel), node_budget), M.universe)
    return _sequence_solve(M, rel, rule, kb.elements), kb


# ---------------------------------------------------------------------------
# Iterated truth predicates along a finite well-order.

TRUTH_SYMBOL = "T"


@dataclass(frozen=True)
class IteratedTruthPredicate:
    """Slices of truth indexed by a well-order, each over the structure
    extended by the strictly earlier slices; ``before[i]`` is T|i, the
    coded pairs (j, c) true at the stages j before i."""

    slices: Mapping
    before: Mapping

    def slice(self, i) -> SatisfactionClass:
        return self.slices[i]

    def structure_at(self, base: Structure, i) -> Structure:
        """The stage-i structure: base extended by the earlier slices."""
        return base.with_predicate(TRUTH_SYMBOL, self.before[i])


def iterated_truth(
    M: Structure,
    order: WellOrder,
    closure: Sequence[Formula] = (),
    coding: Optional[Mapping[int, Formula]] = None,
) -> IteratedTruthPredicate:
    """Build truth slices stage by stage along the well-order.

    The object language sees the earlier stages through the binary symbol
    ``T``: T(j, c) holds when stage j marked true the instance
    that the (declared, finite) coding assigns to universe element c.  T is
    carried up the order: stage i is read with T = T|i, then adds its own
    pairs (i, c).  The evaluator decides each instance outright, so the
    inner omega of the recursion (formula size) needs no pass of its own.
    A class parameter is a predicate of the structure; the structure may
    not fix ``T``.
    """
    if TRUTH_SYMBOL in M.predicates:
        raise SignatureError(
            f"{TRUTH_SYMBOL} is the earlier stages' truth; the structure may not fix it"
        )
    coding = dict(coding or {})
    for c, inst in coding.items():
        if c not in M.universe:
            raise SignatureError(f"coding key {c!r} outside the universe")
    for i in order:
        if i not in M.universe:
            raise SignatureError(f"stage index {i!r} is not a universe element")
    carrier = set(order.elements)
    for inst in closure:
        for atom in _pred_atoms(inst, TRUTH_SYMBOL):
            first = atom.args[0]
            if hasattr(first, "code") and first.code not in carrier:
                raise SignatureError(
                    f"closure references stage {first.code} outside the well-order"
                )
    slices, before, T = {}, {}, frozenset()
    for i in order:
        before[i] = T
        sl = slices[i] = build_truth_predicate(M.with_predicate(TRUTH_SYMBOL, T), closure)
        T = T | {(i, c) for c, inst in coding.items() if inst in sl.entries}
    return IteratedTruthPredicate(slices, before)
