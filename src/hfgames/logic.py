"""First-order formulas over the membership signature, their text syntax,
brute-force satisfaction over finite structures, and satisfaction classes.

Connective basis is {not, and, exists}; the parser accepts |, ->, <-> and
A-quantifiers as sugar and desugars them before returning an AST.  Formula
size counts every AST node, terms included; that measure drives the clock
budgets of the truth-telling games.

Text grammar (ASCII)::

    formula := conj ('&' conj)*            desugared sugar: '|', '->', '<->'
    unary   := '!' unary | 'E'VAR '.' formula | 'A'VAR '.' formula | atom
    atom    := '(' formula ')' | term 'in' term | term '=' term
             | term '<|' term | PRED '(' term {',' term} ')'
    term    := '#' NAT | VAR

Variables are lowercase identifiers (``in`` is reserved), predicate symbols
are capitalized identifiers, ``#k`` is the universe element with code k.
"""

from __future__ import annotations

import re
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    CoverageError,
    InvariantError,
    MalformedInstanceError,
    NoWitnessError,
    ParseError,
    SignatureError,
)
from .universe import Universe, hf_elements

EDGE_SYMBOL = "<|"


# ---------------------------------------------------------------------------
# Terms and formulas.


# Terms, formula nodes and instances are interned (hash-consing): each is
# built once per distinct class and arguments, so equal means identical, and
# they compare and hash by identity.  The one table maps (class, *arguments)
# to a weak reference whose callback drops the entry when its object dies, so
# the table holds only what the program still holds.  On a miss the
# constructor sets the arguments, then the facts ``_facts`` computes once
# from the children's: free variables, size (every AST node, terms
# included), depth (formula nodes on the longest path down to an atom, both
# ends included) and predicate symbols.  Atoms that have no slot for a fact
# read the class default.

_EMPTY: frozenset[str] = frozenset()
_interned: dict = {}
_setattr = object.__setattr__


def _join(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    return a if b <= a else b if a <= b else a | b


class _Interned:
    """One object per class and arguments; ``__slots__`` lists the
    arguments, then the private slots ``_facts`` fills from them."""

    __slots__ = ("__weakref__",)

    @staticmethod
    def _facts(*args) -> tuple:
        return ()

    def __new__(cls, *args):
        key = (cls, *args)
        ref = _interned.get(key)
        obj = None if ref is None else ref()
        if obj is None:
            obj = object.__new__(cls)
            for name, value in zip(cls.__slots__, (*args, *cls._facts(*args))):
                _setattr(obj, name, value)
            # A C callback: no Python code runs inside a deallocation.
            _interned[key] = weakref.ref(obj, partial(_interned.pop, key))
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Copies and unpickled objects are built again from the arguments,
        # the slots not marked private, so they are the interned object.
        return type(self), tuple(getattr(self, n) for n in self.__slots__ if n[0] != "_")


class Var(_Interned):
    __slots__ = ("name", "_fv")

    @staticmethod
    def _facts(name):
        return (frozenset((name,)),)

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Const(_Interned):
    __slots__ = ("code",)
    _fv = _EMPTY

    def __new__(cls, code):
        # Checked before the lookup: True and 1.0 equal 1 and would find a
        # live Const(1).  Only what prints as ``#NAT`` is a code.
        if type(code) is not int or code < 0:
            raise InvariantError(f"constant code {code!r} is not a non-negative int")
        return _Interned.__new__(cls, code)

    def __repr__(self) -> str:
        return f"Const({self.code!r})"

    def __str__(self) -> str:
        return f"#{self.code}"


Term = Union[Var, Const]


def _term(t) -> Term:
    """t itself, if it is a term."""
    if type(t) is not Var and type(t) is not Const:
        raise TypeError(f"not a term: {t!r}")
    return t


class _FormulaNode(_Interned):
    """What the six formula classes share: the defaults of the cached facts
    and a repr in the text syntax, so formulas of any depth print."""

    __slots__ = ()
    _size = 3
    _depth = 1
    _preds = _EMPTY

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {to_text(self)}>"


def _node(f) -> "_FormulaNode":
    """f itself, if it is a formula node."""
    if not isinstance(f, _FormulaNode):
        raise TypeError(f"not a formula: {f!r}")
    return f


class Member(_FormulaNode):
    __slots__ = ("left", "right", "_fv")

    @staticmethod
    def _facts(left, right):
        return (_join(_term(left)._fv, _term(right)._fv),)


class Eq(_FormulaNode):
    __slots__ = ("left", "right", "_fv")
    _facts = Member._facts


class Pred(_FormulaNode):
    __slots__ = ("name", "args", "_fv", "_size", "_preds")

    @staticmethod
    def _facts(name, args):
        fv = _EMPTY
        for t in args:
            fv = _join(fv, _term(t)._fv)
        return fv, 1 + len(args), frozenset((name,))


class Not(_FormulaNode):
    __slots__ = ("body", "_fv", "_size", "_depth", "_preds")

    @staticmethod
    def _facts(body):
        b = _node(body)
        return b._fv, b._size + 1, b._depth + 1, b._preds


class And(_FormulaNode):
    __slots__ = ("left", "right", "_fv", "_size", "_depth", "_preds")

    @staticmethod
    def _facts(left, right):
        a, b = _node(left), _node(right)
        return (_join(a._fv, b._fv), a._size + b._size + 1,
                max(a._depth, b._depth) + 1, _join(a._preds, b._preds))


class Exists(_FormulaNode):
    __slots__ = ("var", "body", "_fv", "_size", "_depth", "_preds")

    @staticmethod
    def _facts(var, body):
        b = _node(body)
        fv = b._fv - {var} if var in b._fv else b._fv
        return fv, b._size + 1, b._depth + 1, b._preds


Formula = Union[Member, Eq, Pred, Not, And, Exists]

ATOMIC_KINDS = (Member, Eq, Pred)


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every subformula of f in pre-order, left before right, f first.

    Iterative, so formulas of any depth stay clear of the recursion limit.
    """
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, (Not, Exists)):
            stack.append(g.body)
        elif isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)


def _terms(g: Formula) -> tuple[Term, ...]:
    """The terms of an atom, left to right."""
    return g.args if type(g) is Pred else (g.left, g.right)


def size(f: Formula) -> int:
    """Node count over the whole AST, term nodes included, as cached on the
    node at construction."""
    return _node(f)._size


def free_vars(f: Formula) -> frozenset[str]:
    """The variables free in f, as cached on the node at construction."""
    if not isinstance(f, _FormulaNode):
        raise TypeError(f"not a formula: {f!r}")
    return f._fv


def _ends_in_quantifier(f: Formula) -> bool:
    # A quantifier at the right edge would greedily swallow a following '&'.
    while isinstance(f, Not):
        f = f.body
    return isinstance(f, Exists)


class _Rebind(tuple):
    """(var, code): a binding an Exists hid, to give back after its body."""


def _render(f: Formula, env: dict) -> str:
    """Text of f with each free variable that env binds shown as its constant;
    an Exists hides its variable from env in its body."""
    out = []
    stack: list = [_node(f)]  # formulas, text to follow them, and _Rebinds
    while stack:
        g = stack.pop()
        t = type(g)
        if t is str:
            out.append(g)
        elif t is Not:
            out.append("!")
            stack.append(g.body)
        elif t is And:
            if _ends_in_quantifier(g.left):
                out.append("((")
                stack += [")", g.right, ") & ", g.left]
            else:
                out.append("(")
                stack += [")", g.right, " & ", g.left]
        elif t is Exists:
            out.append(f"E{g.var}. ")
            if g.var in env:
                stack.append(_Rebind((g.var, env.pop(g.var))))
            stack.append(g.body)
        elif t is _Rebind:
            env[g[0]] = g[1]
        elif t in ATOMIC_KINDS:
            terms = _terms(g)
            if env and not g._fv.isdisjoint(env):
                terms = [f"#{env[a.name]}" if type(a) is Var and a.name in env else a
                         for a in terms]
            if t is Member:
                out.append(f"({terms[0]} in {terms[1]})")
            elif t is Eq:
                out.append(f"({terms[0]} = {terms[1]})")
            elif g.name == EDGE_SYMBOL:
                out.append(f"({terms[0]} <| {terms[1]})")
            else:
                out.append(f"{g.name}({', '.join(str(a) for a in terms)})")
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


def to_text(f: Formula) -> str:
    """Canonical core-connective rendering; parse(to_text(f)) == f."""
    return _render(f, {})


# ---------------------------------------------------------------------------
# Parser.

_TOKEN = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<not>!)|(?P<and>&)|(?P<or>\|(?!\|))"
    r"|(?P<iff><->)|(?P<imp>->)|(?P<edge><\|)|(?P<eq>=)|(?P<dot>\.)|(?P<comma>,)"
    r"|(?P<const>#\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


# Most levels a formula may nest: the formula nodes on its longest path
# from the root down to an atom, both ends included, counted after sugar is
# desugared.  The parser also counts its own levels against it (each prefix
# ``!``, quantifier, pair of parentheses and right-nested arrow), so a
# formula it accepts stays within Python's default recursion limit in the
# parser, the printers and the evaluator.
MAX_NESTING = 100


def _too_deep(at: Optional[int]) -> ParseError:
    return ParseError(f"formula nested deeper than {MAX_NESTING} levels", at)


class _Parser:
    def __init__(self, text: str, signature: Optional[Mapping[str, int]]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.signature = signature
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: Optional[str] = None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if expected is not None and tok[0] != expected:
            raise ParseError(f"expected {expected}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        if f._depth > MAX_NESTING:
            raise _too_deep(None)
        return f

    def nested(self, parse: Callable[[], Formula]) -> Formula:
        """Run ``parse`` one nesting level down, within MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.peek()
            raise _too_deep(tok[2] if tok else len(self.text))
        f = parse()
        self.depth -= 1
        return f

    # precedence: <-> weakest, then ->, |, &, unary
    def formula(self) -> Formula:
        left = self.implication()
        tok = self.peek()
        if tok and tok[0] == "iff":
            self.next()
            right = self.nested(self.formula)
            return And(Not(And(left, Not(right))), Not(And(right, Not(left))))
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        tok = self.peek()
        if tok and tok[0] == "imp":
            self.next()
            right = self.nested(self.implication)
            return Not(And(left, Not(right)))
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while True:
            tok = self.peek()
            if tok and tok[0] == "or":
                self.next()
                g = self.conjunction()
                f = Not(And(Not(f), Not(g)))
            else:
                return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while True:
            tok = self.peek()
            if tok and tok[0] == "and":
                self.next()
                f = And(f, self.unary())
            else:
                return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        kind, value, at = tok
        if kind == "not":
            self.next()
            return Not(self.nested(self.unary))
        if kind == "ident" and value[0] in "EA":
            follow = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            var = value[1:]
            spaced = False
            if not var and follow and follow[0] == "ident" and follow[1][0].islower():
                var, spaced = follow[1], True
            if var and var[0].islower():
                dot_at = self.pos + (2 if spaced else 1)
                if dot_at < len(self.tokens) and self.tokens[dot_at][0] == "dot":
                    self.pos = dot_at + 1
                    if var == "in":
                        raise ParseError("'in' is reserved", at)
                    body = self.nested(self.formula)
                    if value[0] == "E":
                        return Exists(var, body)
                    return Not(Exists(var, Not(body)))
        return self.atom()

    def atom(self) -> Formula:
        tok = self.next()
        kind, value, at = tok
        if kind == "lparen":
            f = self.nested(self.formula)
            self.next("rparen")
            return f
        if kind == "ident" and value[0].isupper():
            name = value
            self.next("lparen")
            args = [self.term()]
            while self.peek() and self.peek()[0] == "comma":
                self.next()
                args.append(self.term())
            self.next("rparen")
            self._check_signature(name, len(args), at)
            return Pred(name, tuple(args))
        # infix atom: term REL term
        self.pos -= 1
        left = self.term()
        rel = self.next()
        if rel[0] == "ident" and rel[1] == "in":
            return Member(left, self.term())
        if rel[0] == "eq":
            return Eq(left, self.term())
        if rel[0] == "edge":
            self._check_signature(EDGE_SYMBOL, 2, rel[2])
            return Pred(EDGE_SYMBOL, (left, self.term()))
        raise ParseError(f"expected relation, found {rel[1]!r}", rel[2])

    def term(self) -> Term:
        tok = self.next()
        kind, value, at = tok
        if kind == "const":
            return Const(int(value[1:]))
        if kind == "ident" and value[0].islower():
            if value == "in":
                raise ParseError("'in' is reserved", at)
            return Var(value)
        raise ParseError(f"expected term, found {value!r}", at)

    def _check_signature(self, name: str, arity: int, at: int) -> None:
        if self.signature is None:
            return
        if name not in self.signature:
            raise ParseError(f"unknown predicate symbol {name!r}", at)
        if self.signature[name] != arity:
            raise ParseError(
                f"predicate {name!r} expects arity {self.signature[name]}, got {arity}",
                at,
            )


def parse_formula(text: str, signature: Optional[Mapping[str, int]] = None) -> Formula:
    """Parse the documented grammar; sugar is desugared to {!, &, E}."""
    return _Parser(text, signature).parse()


def check_constants(f: Formula, universe: Universe) -> None:
    """Refuse, as a ParseError, a formula naming a code outside the universe."""
    for g in subformulas(f):
        for t in _terms(g) if isinstance(g, ATOMIC_KINDS) else ():
            if type(t) is Const and t.code not in universe:
                raise ParseError(f"constant #{t.code} outside the universe")


# ---------------------------------------------------------------------------
# Instances, structures, evaluation.


class FormulaInstance(_Interned):
    """A formula with its bindings: one ``(name, code)`` pair per free
    variable, sorted by name.  A new instance is checked once, as it is
    built; the instances derived from it are cut from its bindings.  It
    carries the instances the Tarskian clauses read off it, each built on
    first use and kept while it lives: ``parts`` and ``witness_body``."""

    __slots__ = ("formula", "bindings", "_parts", "_bodies")

    def __new__(cls, formula, bindings):
        ref = _interned.get((cls, formula, bindings))
        obj = None if ref is None else ref()
        if obj is None:
            return _Interned.__new__(cls, formula, bindings)
        if obj.bindings is not bindings:
            # Equal bindings found a live instance, and True or 1.0 equal 1:
            # a code that is not an int is refused as on a miss.
            for _, code in bindings:
                if type(code) is not int:
                    cls._facts(formula, bindings)
        return obj

    @staticmethod
    def _facts(formula, bindings):
        names = sorted(_node(formula)._fv)
        if type(bindings) is not tuple or [
            (b[0], type(b[1])) if type(b) is tuple and len(b) == 2 else b for b in bindings
        ] != [(v, int) for v in names]:
            raise MalformedInstanceError(
                f"bindings {bindings!r} do not give the free variables {names}"
                f" of {to_text(formula)} one int code each, in order")
        return None, None

    @property
    def assignment(self) -> dict[str, int]:
        return dict(self.bindings)

    @property
    def parts(self) -> tuple["FormulaInstance", ...]:
        """The sub-instances of a Not or And instance; none for the others."""
        got = self._parts
        if got is None:
            f = self.formula
            if type(f) is Not:
                got = (sub_instance(self, f.body),)
            elif type(f) is And:
                got = (sub_instance(self, f.left), sub_instance(self, f.right))
            else:
                got = ()
            _setattr(self, "_parts", got)
        return got

    def witness_body(self, witness: int) -> "FormulaInstance":
        """The body of an existential instance at the named witness."""
        bodies = self._bodies
        if bodies is None:
            bodies = {}
            _setattr(self, "_bodies", bodies)
        got = bodies.get(witness)
        if got is None:
            got = bodies[witness] = instantiate(self, self.formula.var, witness)
        return got

    def __repr__(self) -> str:
        return f"<FormulaInstance {print_instance(self)}>"

    def __str__(self) -> str:
        return print_instance(self)


def instance(formula: Formula, assignment: Optional[Mapping[str, int]] = None) -> FormulaInstance:
    """Build an instance, restricting the assignment to the free variables."""
    a = assignment or {}
    return FormulaInstance(formula, tuple((v, a[v]) for v in sorted(free_vars(formula)) if v in a))


def parse_instance(text: str, signature: Optional[Mapping[str, int]] = None) -> FormulaInstance:
    """Parse a closed formula as an instance with empty assignment."""
    return FormulaInstance(parse_formula(text, signature), ())


def print_instance(inst: FormulaInstance) -> str:
    """The formula's text with each free variable shown as its constant."""
    return _render(inst.formula, inst.assignment)


def sub_instance(inst: FormulaInstance, sub: Formula) -> FormulaInstance:
    """Instance of a subformula under the same assignment: the parent's
    bindings, cut to the subformula's free variables when it has fewer."""
    fv, b = _node(sub)._fv, inst.bindings
    return FormulaInstance(sub, b if len(fv) == len(b) else tuple(p for p in b if p[0] in fv))


def instantiate(inst: FormulaInstance, var: str, code: int) -> FormulaInstance:
    """Instance of an Exists body at a chosen witness element: the parent's
    bindings with ``(var, code)`` in its sorted place, if the body has var."""
    f = inst.formula
    if not isinstance(f, Exists):
        raise MalformedInstanceError(f"not an existential: {print_instance(inst)}")
    b = inst.bindings
    if var in f.body._fv:
        k = bisect_left(b, (var,))
        b = (*b[:k], (var, code), *b[k:])
    return FormulaInstance(f.body, b)


@dataclass(frozen=True)
class Structure:
    """A finite structure: a universe plus named class predicates, each a
    set of 1- or 2-tuples of universe codes (``int``s), checked once."""

    universe: Universe
    predicates: Mapping[str, frozenset] = field(default_factory=dict)

    def __post_init__(self):
        preds = {name: self._relation(name, rel) for name, rel in self.predicates.items()}
        object.__setattr__(self, "predicates", preds)
        # Masks over the codes for predicate atoms, built by the evaluator
        # on first use: (name, which arguments are the variable) -> the
        # other arguments' values -> mask.
        object.__setattr__(self, "_index", {})

    def _relation(self, name: str, rel: Iterable) -> frozenset:
        tuples = [tuple(t) for t in rel]
        arities = {len(t) for t in tuples}
        if len(arities) > 1:
            raise SignatureError(f"predicate {name!r} mixes arities {arities}")
        if arities and arities.pop() not in (1, 2):
            raise SignatureError(f"predicate {name!r} must have arity 1 or 2")
        universe = self.universe
        for t in tuples:
            for x in t:
                if x not in universe:
                    raise SignatureError(f"predicate {name!r} tuple {t!r} is not of universe codes")
        return frozenset(tuples)

    def with_predicate(self, name: str, rel: Iterable) -> "Structure":
        """This structure with ``name`` set to ``rel``: only ``rel`` is checked."""
        M = object.__new__(Structure)
        preds = {**self.predicates, name: self._relation(name, rel)}
        vars(M).update(universe=self.universe, predicates=preds, _index={})
        return M

    def signature(self) -> dict[str, int]:
        sig = {}
        for name, rel in self.predicates.items():
            sig[name] = len(next(iter(rel))) if rel else 2
        return sig


# The evaluator works bottom-up on bitmasks over the codes (relational
# evaluation, specialised to Ackermann's coding).  A subformula is evaluated
# over one variable v, the innermost quantified one, as the mask whose bit b
# is set when it holds with v set to b; only bits of a given ``care`` mask
# are ever set.  Atoms need no scan: {v : v in #k} is the code k itself,
# {v : #k in v} a fixed pattern per universe, {v : v = #k} is 1 << k.  Not
# complements within care, And evaluates its right side only where its left
# side holds, and Exists w is one nested mask over w, tested for a set bit.
# Only an Exists whose body mentions v loops over the bits of care, one
# nested mask per bit.  With v None the formula is a sentence under env,
# care is 1 and the mask is the verdict.

# What the consumer of a mask needs: all of it, or only its lowest set bit
# (an existential's witness) or its lowest clear bit (a universal's
# counterexample), so that loops can stop there.
_ALL, _LOWEST_SET, _LOWEST_CLEAR = 0, 1, 2
_NEGATED_NEED = (_ALL, _LOWEST_CLEAR, _LOWEST_SET)
# Continuation frames on the evaluator's stack; each consumes the mask just
# computed.
_NOT, _AND, _SOME, _EACH = range(4)
_UNSET = object()


def _pred_mask(M: Structure, g: Pred, v: str, val: Callable[[Term], int]) -> int:
    """Codes c whose tuple of g's arguments, with c for v, is in the relation."""
    at = tuple(isinstance(t, Var) and t.name == v for t in g.args)
    index = M._index.get((g.name, at))
    if index is None:
        index = {}
        for tup in M.predicates[g.name]:
            if len(tup) != len(at):
                continue
            mine = {c for c, here in zip(tup, at) if here}
            if len(mine) == 1:
                key = tuple(c for c, here in zip(tup, at) if not here)
                index[key] = index.get(key, 0) | 1 << mine.pop()
        M._index[(g.name, at)] = index
    return index.get(tuple(val(t) for t, here in zip(g.args, at) if not here), 0)


def _mask(
    M: Structure, f: Formula, v: Optional[str], env: dict, care: int, need: int = _ALL
) -> int:
    """The bits b of care for which f holds under env with v set to b.

    Under ``need`` _LOWEST_SET (_LOWEST_CLEAR) the answer is exact only up
    to the lowest bit of care that is set (clear) in the exact answer.
    Loops bind variables in env, so the caller hands over its own copy.
    """
    U = M.universe
    size = U.size

    def val(t: Term) -> int:
        if type(t) is Const:
            if not 0 <= t.code < size:
                raise SignatureError(f"constant #{t.code} outside the universe")
            return t.code
        try:
            return env[t.name]
        except KeyError:
            raise MalformedInstanceError(f"unbound variable {t.name!r}") from None

    m = 0
    stack: list = [(f, v, care, need)]
    while stack:
        frame = stack.pop()
        g = frame[0]
        if type(g) is int:
            if g == _NOT:
                m ^= frame[1]
            elif g == _AND:
                if m:
                    stack.append((frame[1], frame[2], m, frame[3]))
            elif g == _SOME:
                m = frame[1] if m else 0
            else:
                _, ex, v, care, need, bits, k, acc, saved = frame
                b = bits[k]
                if m:
                    acc |= 1 << b
                stop = need == (_LOWEST_SET if m else _LOWEST_CLEAR)
                k += 1
                if stop or k == len(bits):
                    if saved is _UNSET:
                        del env[v]
                    else:
                        env[v] = saved
                    m = acc
                else:
                    env[v] = bits[k]
                    stack.append((_EACH, ex, v, care, need, bits, k, acc, saved))
                    stack.append((ex.body, ex.var, U.full_mask(), _LOWEST_SET))
            continue
        _, v, care, need = frame
        t = type(g)
        if t is Member:
            a, b = g.left, g.right
            if v not in g._fv:
                k = val(a)
                m = care if val(b) >> k & 1 else 0
            elif type(a) is Var and a.name == v:
                m = 0 if type(b) is Var and b.name == v else val(b) & care
            else:
                m = U.containing_mask(val(a)) & care
        elif t is Eq:
            a, b = g.left, g.right
            if v not in g._fv:
                m = care if val(a) == val(b) else 0
            elif type(a) is Var and a.name == v and type(b) is Var and b.name == v:
                m = care
            else:
                k = val(b) if type(a) is Var and a.name == v else val(a)
                m = 1 << k if 0 <= k and care >> k & 1 else 0
        elif t is Pred:
            rel = M.predicates.get(g.name)
            if rel is None:
                raise SignatureError(f"unknown predicate symbol {g.name!r}")
            if v not in g._fv:
                m = care if tuple(val(a) for a in g.args) in rel else 0
            else:
                m = _pred_mask(M, g, v, val) & care
        elif t is Not:
            stack.append((_NOT, care))
            stack.append((g.body, v, care, _NEGATED_NEED[need]))
        elif t is And:
            stack.append((_AND, g.right, v, need))
            stack.append((g.left, v, care, _ALL))
        elif t is Exists:
            if v not in g._fv:
                stack.append((_SOME, care))
            else:
                bits = hf_elements(care)
                if not bits:
                    m = 0
                    continue
                saved = env.get(v, _UNSET)
                env[v] = bits[0]
                stack.append((_EACH, g, v, care, need, bits, 0, 0, saved))
            stack.append((g.body, g.var, U.full_mask(), _LOWEST_SET))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return m


def eval_formula(M: Structure, f: Formula, env: Mapping[str, int]) -> bool:
    """Tarskian truth of f in M under env, by the bitmask evaluator."""
    return _mask(M, f, None, dict(env), 1) == 1


def eval_instance(M: Structure, inst: FormulaInstance) -> bool:
    return _mask(M, inst.formula, None, inst.assignment, 1) == 1


def skolem_witness(M: Structure, inst: FormulaInstance) -> int:
    """Global-order-least witness of a true existential instance."""
    f = inst.formula
    if not isinstance(f, Exists):
        raise MalformedInstanceError(f"not an existential: {print_instance(inst)}")
    m = _mask(M, f.body, f.var, inst.assignment, M.universe.full_mask(), _LOWEST_SET)
    if not m:
        raise NoWitnessError(f"no witness for {print_instance(inst)}")
    return (m & -m).bit_length() - 1


def satisfiers(
    M: Structure, f: Formula, var: str, env: Mapping[str, int], codes: Iterable[int]
) -> frozenset[int]:
    """The codes c among ``codes``, all of them universe codes, for which f
    holds under env with var = c, decided together as one mask over var."""
    care = bytearray((M.universe.size + 7) // 8)
    for c in codes:
        care[c >> 3] |= 1 << (c & 7)
    return frozenset(hf_elements(_mask(M, f, var, dict(env), int.from_bytes(care, "little"))))


# ---------------------------------------------------------------------------
# Satisfaction classes.


@dataclass(frozen=True)
class SatisfactionClass:
    """Instances marked true; absence within the closure means marked false."""

    entries: frozenset[FormulaInstance]
    closure: Optional[frozenset[FormulaInstance]] = None

    def __post_init__(self):
        object.__setattr__(self, "entries", frozenset(self.entries))
        if self.closure is not None:
            object.__setattr__(self, "closure", frozenset(self.closure))

    def holds(self, inst: FormulaInstance) -> bool:
        return inst in self.entries

    def verdict(self, inst: FormulaInstance) -> Optional[bool]:
        """True/False within the closure, None when unqueried."""
        if inst in self.entries:
            return True
        if self.closure is None or inst in self.closure:
            return False
        return None

    def marks(self, inst: FormulaInstance) -> bool:
        v = self.verdict(inst)
        if v is None:
            raise CoverageError(f"instance outside closure: {print_instance(inst)}")
        return v


def build_truth_predicate(M: Structure, instances: Iterable[FormulaInstance]) -> SatisfactionClass:
    """Mark exactly the listed instances that evaluate true in M."""
    insts = frozenset(instances)
    return SatisfactionClass(frozenset(i for i in insts if eval_instance(M, i)), insts)


@dataclass(frozen=True)
class TarskiViolation:
    kind: str
    inst: FormulaInstance
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {print_instance(self.inst)}: {self.detail}"


def tarski_check(
    M: Structure,
    S: SatisfactionClass,
    closure: Iterable[FormulaInstance],
) -> list[TarskiViolation]:
    """Audit the Tarskian conditions on every closure instance.

    Sub-instance marks are read from S directly (absence = marked false),
    mirroring the recursive truth conditions clause by clause.
    """
    violations = []
    for inst in closure:
        f = inst.formula
        marked = S.holds(inst)
        if isinstance(f, ATOMIC_KINDS):
            actual = eval_instance(M, inst)
            if marked != actual:
                violations.append(
                    TarskiViolation(
                        "atomic", inst, f"marked {marked}, structure says {actual}"
                    )
                )
        elif isinstance(f, Not):
            (sub,) = inst.parts
            if marked == S.holds(sub):
                violations.append(
                    TarskiViolation(
                        "negation", inst, f"same mark as {print_instance(sub)}"
                    )
                )
        elif isinstance(f, And):
            left, right = inst.parts
            both = S.holds(left) and S.holds(right)
            if marked != both:
                violations.append(
                    TarskiViolation(
                        "conjunction", inst, f"marked {marked}, conjuncts give {both}"
                    )
                )
        elif isinstance(f, Exists):
            some = any(
                S.holds(instantiate(inst, f.var, b)) for b in M.universe.elements
            )
            if marked != some:
                violations.append(
                    TarskiViolation(
                        "quantifier", inst, f"marked {marked}, instantiations give {some}"
                    )
                )
        else:
            raise TypeError(f"not a formula: {f!r}")
    return violations


# ---------------------------------------------------------------------------
# Deterministic enumeration and seeded sampling of formulas.


def enumerate_formulas(
    universe: Universe,
    max_size: int,
    var_pool: Sequence[str] = ("x", "y"),
    signature: Optional[Mapping[str, int]] = None,
) -> list[Formula]:
    """All formulas of size <= max_size over the pool, deterministic order.

    Quantifiers bind pool variables without shadowing.
    """
    terms = [Const(c) for c in universe.elements] + [Var(v) for v in var_pool]
    atoms: list[Formula] = []
    for t1 in terms:
        for t2 in terms:
            atoms.append(Member(t1, t2))
            atoms.append(Eq(t1, t2))
    if signature:
        for name in sorted(signature):
            arity = signature[name]
            if arity == 1:
                atoms.extend(Pred(name, (t,)) for t in terms)
            else:
                atoms.extend(Pred(name, (t1, t2)) for t1 in terms for t2 in terms)
    by_size: dict[int, list[Formula]] = {}
    for a in atoms:
        by_size.setdefault(size(a), []).append(a)
    smallest_atom = min(by_size) if by_size else 0
    for s in range(smallest_atom + 1, max_size + 1):
        bucket = by_size.setdefault(s, [])
        for f in by_size.get(s - 1, []):
            bucket.append(Not(f))
        for v in var_pool:
            for f in by_size.get(s - 1, []):
                if not any(
                    isinstance(g, Exists) and g.var == v for g in subformulas(f)
                ):
                    bucket.append(Exists(v, f))
        for s1 in range(smallest_atom, s - smallest_atom):
            for f in by_size.get(s1, []):
                for g in by_size.get(s - 1 - s1, []):
                    bucket.append(And(f, g))
    out = []
    for s in sorted(by_size):
        if s <= max_size:
            out.extend(by_size[s])
    return out


def enumerate_instances(M: Structure, max_size: int) -> list[FormulaInstance]:
    """Every size-bounded formula over x and y with every assignment of its
    free variables."""
    out = []
    for f in enumerate_formulas(M.universe, max_size, signature=M.signature() or None):
        names = sorted(f._fv)
        for codes in product(M.universe.elements, repeat=len(names)):
            out.append(FormulaInstance(f, tuple(zip(names, codes))))
    return out


def random_formula(
    rng,
    universe: Universe,
    max_size: int,
    signature: Optional[Mapping[str, int]] = None,
) -> Formula:
    """Seeded random formula of size <= max_size over x, y and z."""
    variables = ("x", "y", "z")

    def gen(budget: int, scope: tuple[str, ...]) -> Formula:
        choices = ["atom"]
        if budget >= 4:
            choices += ["not", "exists"]
        if budget >= 7:
            choices += ["and", "and"]
        kind = rng.choice(choices)
        if kind == "atom":
            return gen_atom()
        if kind == "not":
            return Not(gen(budget - 1, scope))
        if kind == "exists":
            unused = [v for v in variables if v not in scope]
            if not unused:
                return gen_atom()
            v = rng.choice(unused)
            return Exists(v, gen(budget - 1, scope + (v,)))
        left_budget = rng.randint(3, budget - 4)
        return And(gen(left_budget, scope), gen(budget - 1 - left_budget, scope))

    def gen_term() -> Term:
        if rng.random() < 0.5:
            return Var(rng.choice(variables))
        return Const(rng.randrange(universe.size))

    def gen_atom() -> Formula:
        names = sorted(signature) if signature else []
        kinds = ["in", "eq"] + (["pred"] if names else [])
        k = rng.choice(kinds)
        if k == "pred":
            name = rng.choice(names)
            arity = signature[name]
            return Pred(name, tuple(gen_term() for _ in range(arity)))
        t1, t2 = gen_term(), gen_term()
        return Member(t1, t2) if k == "in" else Eq(t1, t2)

    return gen(max(3, max_size), ())


def random_instance(rng, M: Structure, max_size: int) -> FormulaInstance:
    f = random_formula(rng, M.universe, max_size, M.signature() or None)
    return FormulaInstance(f, tuple((v, rng.randrange(M.universe.size)) for v in sorted(f._fv)))
