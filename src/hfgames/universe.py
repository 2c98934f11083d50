"""Finite stand-ins for V, Ord, and class relations.

Hereditarily finite sets are represented by their Ackermann codes: the
natural number ``b`` denotes the set whose elements are the sets denoted by
the bit positions of ``b``.  Numeric code order doubles as the global
well-order.  Ordinals live below epsilon_0 in Cantor normal form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator, Optional

from .errors import InvariantError, ParseError, ResourceBoundError

MAX_RANK = 5  # V_5 already has 65536 elements; V_6 is out of desk range


def universe_size(rank: int) -> int:
    """|V_rank| under the cumulative hierarchy: |V_0|=0, |V_{k+1}|=2^|V_k|."""
    size = 0
    for _ in range(rank):
        size = 2**size
    return size


def member(a, b) -> bool:
    """Ackermann membership: bit ``a`` of ``b``'s code is set."""
    return (int(b) >> int(a)) & 1 == 1


def hf_elements(code: int) -> list[int]:
    """Codes of the elements of the set coded by ``code``, ascending: the
    positions of its set bits, lowest first."""
    code = int(code)
    if code < 0:
        raise InvariantError(f"negative code {code}")
    return [i for i, d in enumerate(bin(code)[:1:-1]) if d == "1"]


@dataclass(frozen=True, order=True)
class HFSet:
    """A hereditarily finite set, identified with its Ackermann code."""

    code: int

    def __post_init__(self):
        if self.code < 0:
            raise InvariantError(f"negative code {self.code}")

    def __int__(self) -> int:
        return self.code

    def __contains__(self, other) -> bool:
        return member(other, self)

    @property
    def elements(self) -> tuple["HFSet", ...]:
        return tuple(HFSet(c) for c in hf_elements(self.code))

    def rank(self) -> int:
        if self.code == 0:
            return 0
        return 1 + max(e.rank() for e in self.elements)

    def pretty(self) -> str:
        if self.code == 0:
            return "{}"
        return "{" + ",".join(e.pretty() for e in self.elements) + "}"

    def __str__(self) -> str:
        return self.pretty()


@dataclass(frozen=True)
class Universe:
    """V_rank: codes 0 .. 2^^(rank)-1, globally well-ordered by code."""

    rank: int

    def __post_init__(self):
        # Bitmasks over the codes, made on first use; bit c stands for the
        # set coded c.
        object.__setattr__(self, "_masks", {})

    @property
    def size(self) -> int:
        return universe_size(self.rank)

    def full_mask(self) -> int:
        """Every code of the universe."""
        m = self._masks.get(None)
        if m is None:
            m = self._masks[None] = (1 << self.size) - 1
        return m

    def containing_mask(self, k: int) -> int:
        """The codes of the sets having the set coded k as an element."""
        m = self._masks.get(k)
        if m is None:
            size = self.size
            # Codes below size = 2^n have bits 0 .. n-1 only.
            if not 0 <= k < size.bit_length() - 1:
                return 0
            # Bit k of the codes runs in periods of 2^(k+1): 2^k codes
            # clear, then 2^k codes set.  Double one period up to size.
            half = 1 << k
            m = ((1 << half) - 1) << half
            width = 2 * half
            while width < size:
                m |= m << width
                width *= 2
            self._masks[k] = m
        return m

    @property
    def elements(self) -> range:
        # Ascending code order is the canonical enumeration and the
        # global well-order.
        return range(self.size)

    def __contains__(self, code) -> bool:
        # Codes are ints: no str, float or bool stands for one.
        return type(code) is int and 0 <= code < self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)


def build_universe(rank: int, max_rank: int = MAX_RANK) -> Universe:
    if rank < 0:
        raise InvariantError(f"negative rank {rank}")
    if rank > max_rank:
        raise ResourceBoundError(
            f"rank {rank} exceeds configured maximum {max_rank}"
        )
    return Universe(rank)


# ---------------------------------------------------------------------------
# Ordinals in Cantor normal form, below epsilon_0.


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """CNF ordinal: sum of w^e * c terms with strictly decreasing exponents."""

    terms: tuple[tuple["Ordinal", int], ...] = ()

    def __post_init__(self):
        prev = None
        for pair in self.terms:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise InvariantError(f"malformed CNF term {pair!r}")
            exp, coeff = pair
            if not isinstance(exp, Ordinal):
                raise InvariantError(f"exponent {exp!r} is not an Ordinal")
            if not isinstance(coeff, int) or coeff < 1:
                raise InvariantError(f"coefficient {coeff!r} must be >= 1")
            if prev is not None and not prev._gt(exp):
                raise InvariantError("CNF exponents must strictly decrease")
            prev = exp

    # -- construction helpers

    @staticmethod
    def from_nat(n: int) -> "Ordinal":
        if n < 0:
            raise InvariantError(f"negative natural {n}")
        if n == 0:
            return _ZERO
        return Ordinal(((_ZERO, n),))

    # -- comparison (lexicographic on CNF)

    def _cmp(self, other: "Ordinal") -> int:
        for (e1, c1), (e2, c2) in zip(self.terms, other.terms):
            r = 0 if e1 is e2 else e1._cmp(e2)
            if r != 0:
                return r
            if c1 != c2:
                return -1 if c1 < c2 else 1
        if len(self.terms) == len(other.terms):
            return 0
        # The longer CNF extends the shorter by strictly smaller terms,
        # so it denotes the larger ordinal.
        return -1 if len(self.terms) < len(other.terms) else 1

    def _gt(self, other: "Ordinal") -> bool:
        return self._cmp(other) > 0

    def __lt__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._cmp(other) < 0

    # -- arithmetic (only what the games need)

    def pred(self) -> "Ordinal":
        """Predecessor of a successor ordinal."""
        if not self.is_finite() or self.is_zero():
            raise InvariantError(f"{self} has no predecessor at desk scale")
        return Ordinal.from_nat(self.to_int() - 1)

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (
            len(self.terms) == 1 and self.terms[0][0] == _ZERO
        )

    def to_int(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_finite():
            raise InvariantError(f"{self} is not a natural number")
        return self.terms[0][1]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.terms:
            if exp.is_zero():
                parts.append(str(coeff))
                continue
            if exp == _ONE:
                base = "w"
            elif exp.is_finite():
                base = f"w^{exp.to_int()}"
            else:
                base = f"w^({exp})"
            parts.append(base if coeff == 1 else f"{base}*{coeff}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Ordinal({self})"


_ZERO = Ordinal(())
_ONE = Ordinal(((_ZERO, 1),))


def ordinal_compare(x: Ordinal, y: Ordinal) -> int:
    """-1, 0, or 1 as x is less than, equal to, or greater than y."""
    if not isinstance(x, Ordinal) or not isinstance(y, Ordinal):
        raise InvariantError("ordinal_compare expects Ordinal values")
    return x._cmp(y)


# A term's parenthesized exponent runs to the term's last ")"; the recursive
# parse of what lies between rejects it unless it is balanced.
_ORD_TERM = re.compile(
    r"w(?:\^\((?P<inner>.*)\)|\^(?P<nat>\d+))?(?:\*(?P<coeff>\d+))?|(?P<const>\d+)"
)
# Exponent towers deeper than this are refused, so that parsing, printing and
# comparing an ordinal stay within Python's default recursion limit.
MAX_ORDINAL_NESTING = 100


def parse_ordinal(text: str) -> Ordinal:
    """Parse CNF notation such as ``w^2*3+w+4`` or plain naturals."""
    text = text.strip()
    if not text:
        raise ParseError("empty ordinal", 0)
    if text == "0":
        return _ZERO
    chunks: list[str] = []
    depth = 0
    start = 0
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
            if depth > MAX_ORDINAL_NESTING:
                raise ParseError(f"ordinal nested deeper than {MAX_ORDINAL_NESTING} levels", k)
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0:
            chunks.append(text[start:k])
            start = k + 1
    chunks.append(text[start:])
    terms: list[tuple[Ordinal, int]] = []
    pos = 0
    for chunk in chunks:
        chunk = chunk.strip()
        m = _ORD_TERM.fullmatch(chunk)
        if not m:
            raise ParseError(f"bad ordinal term {chunk!r}", pos)
        if m.group("const") is not None:
            exp, coeff = _ZERO, int(m.group("const"))
        else:
            if m.group("inner") is not None:
                exp = parse_ordinal(m.group("inner"))
            elif m.group("nat") is not None:
                exp = Ordinal.from_nat(int(m.group("nat")))
            else:
                exp = _ONE
            coeff = int(m.group("coeff") or 1)
        if coeff < 1:
            raise ParseError(f"zero coefficient in {chunk!r}", pos)
        terms.append((exp, coeff))
        pos += len(chunk) + 1
    try:
        return Ordinal(tuple(terms))
    except InvariantError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Finite well-founded relations and well-orders.


def _node_key(node):
    # Carriers hold either codes (ints) or finite sequences of codes.
    if isinstance(node, tuple):
        return (1, node)
    return (0, (node,))


@dataclass(frozen=True)
class WellFoundedRelation:
    """A finite binary relation; (a, b) in edges means a comes before b."""

    carrier: frozenset
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "carrier", frozenset(self.carrier))
        object.__setattr__(self, "edges", frozenset(self.edges))
        for a, b in self.edges:
            if a not in self.carrier or b not in self.carrier:
                raise InvariantError(f"edge ({a!r}, {b!r}) leaves the carrier")

    def nodes(self) -> list:
        return sorted(self.carrier, key=_node_key)

    def predecessor_map(self) -> dict:
        preds = {n: [] for n in self.carrier}
        for a, b in sorted(self.edges, key=lambda e: (_node_key(e[0]), _node_key(e[1]))):
            preds[b].append(a)
        return preds


def _depth_first(rel: WellFoundedRelation) -> tuple[list, Optional[list]]:
    """The one walk of a relation: its depth-first post-order and first cycle.

    Roots are taken in ``rel.nodes()`` order and each node's targets in
    sorted order.  The walk stops at the first edge back into the search
    path and returns that cycle, from the edge's target to its source, with
    the post-order so far; on an acyclic relation the cycle is None and
    every node follows all of its targets in the post-order.
    """
    succs: dict = {n: [] for n in rel.carrier}
    for a, b in rel.edges:
        succs[a].append(b)
    for targets in succs.values():
        targets.sort(key=_node_key)
    post: list = []
    # A node on the search path maps to its depth there, a finished one to None.
    depth: dict = {}
    for root in rel.nodes():
        if root in depth:
            continue
        depth[root] = 0
        stack = [(root, iter(succs[root]))]
        while stack:
            node, targets = stack[-1]
            for b in targets:
                if b not in depth:
                    depth[b] = len(stack)
                    stack.append((b, iter(succs[b])))
                    break
                if depth[b] is not None:
                    return post, [n for n, _ in stack[depth[b]:]]
            else:
                stack.pop()
                depth[node] = None
                post.append(node)
    return post, None


def find_cycle(rel: WellFoundedRelation) -> Optional[list]:
    """A directed cycle as a node list, or None if the relation is acyclic."""
    return _depth_first(rel)[1]


def check_wellfounded(rel: WellFoundedRelation) -> bool:
    """On a finite carrier, well-foundedness is exactly acyclicity."""
    return find_cycle(rel) is None


def topological_order(rel: WellFoundedRelation) -> list:
    """Nodes with every edge source before its target: the reversed
    depth-first post-order.  Raises InvariantError on a cycle."""
    post, cycle = _depth_first(rel)
    if cycle is not None:
        raise InvariantError(f"relation is not well-founded (cycle {cycle})")
    post.reverse()
    return post


@dataclass(frozen=True)
class WellOrder:
    """A finite strict total order, stored as its ascending enumeration."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise InvariantError("well-order enumeration has duplicates")
        object.__setattr__(
            self, "_index", {e: i for i, e in enumerate(self.elements)}
        )

    def index(self, a) -> int:
        return self._index[a]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)
