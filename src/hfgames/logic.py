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
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
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
# to its entry, one weak reference to the object that carries that key.
# Every entry shares one callback, which drops the key when its object dies,
# and only while the key's entry is dead, so the table holds only what the
# program still holds and never loses a live object.  On a miss ``_intern``
# sets the arguments, then the facts, which a constructor has ``_facts``
# compute once from the children's: free variables, size (every AST node,
# terms included), predicate symbols and depth (formula nodes on the longest
# path down to an atom, both ends included).  A class keeps a prefix of
# those four in slots and reads the class default for the rest, so
# substitution, which copies the facts of the node it replaces, hands every
# class the same four.  An instance is its closed formula node: ``instance``
# substitutes the codes it is given, and the parts and witness bodies of a
# closed node are closed nodes too, so a proposition is one object however
# it was reached.

_EMPTY: frozenset[str] = frozenset()
_interned: dict = {}
_setattr = object.__setattr__


def _join(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    return a if b <= a else b if a <= b else a | b


class _Entry(weakref.ref):
    """An intern-table entry: a weak reference that carries its key."""

    __slots__ = ("key",)


def _forget(table: dict, remove, entry: _Entry) -> None:
    remove(table, entry.key)


# The one callback.  It holds the table and the C helper itself, so it still
# works while the interpreter shuts down and module globals are cleared; the
# helper leaves a key alone that is gone or maps to a live entry.
_on_death = partial(_forget, _interned, _remove_dead_weakref)


def _intern(key: tuple, values: tuple):
    """A new object for key, ``(class, *arguments)``, with its slots set to
    values, the arguments and then the facts, and its entry in the table.
    The constructor and ``_build`` call it on a miss of their lookup."""
    obj = object.__new__(key[0])
    for setter, value in zip(key[0]._setters, values):
        setter(obj, value)
    entry = _interned[key] = _Entry(obj, _on_death)
    entry.key = key
    return obj


class _Interned:
    """One object per class and arguments; ``__slots__`` lists the
    arguments, then the private slots ``_facts`` fills from them."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        # The slots' own setters, past the immutability guard: cheaper than
        # object.__setattr__, which looks each slot up by name.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @staticmethod
    def _facts(*args) -> tuple:
        return ()

    def __new__(cls, *args):
        key = (cls, *args)
        ref = _interned.get(key)
        obj = None if ref is None else ref()
        return _intern(key, (*args, *cls._facts(*args))) if obj is None else obj

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
    """What the six formula classes share: the defaults of the cached facts,
    the text syntax for repr and str, so formulas of any depth print, and
    what a closed formula reads as an instance: its ``parts`` and, for an
    existential, its ``witness_body``; also itself as its ``formula`` and
    no ``bindings``, the instance format the benchmark's reference reads."""

    __slots__ = ()
    _size = 3
    _depth = 1
    _preds = _EMPTY
    bindings = ()

    @property
    def formula(self) -> "_FormulaNode":
        return self

    @property
    def parts(self) -> tuple:
        t = type(self)
        return (self.body,) if t is Not else (self.left, self.right) if t is And else ()

    def witness_body(self, witness: int) -> "_FormulaNode":
        raise MalformedInstanceError(f"not an existential: {self}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {to_text(self)}>"

    def __str__(self) -> str:
        return to_text(self)


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
    __slots__ = ("body", "_fv", "_size", "_preds", "_depth")

    @staticmethod
    def _facts(body):
        b = _node(body)
        return b._fv, b._size + 1, b._preds, b._depth + 1


class And(_FormulaNode):
    __slots__ = ("left", "right", "_fv", "_size", "_preds", "_depth")

    @staticmethod
    def _facts(left, right):
        a, b = _node(left), _node(right)
        return (_join(a._fv, b._fv), a._size + b._size + 1,
                _join(a._preds, b._preds), max(a._depth, b._depth) + 1)


class Exists(_FormulaNode):
    # ``_guard`` and ``_bodies`` are left unset, so building a node pays
    # nothing for them; the evaluator fills ``_guard`` on the node's first
    # loop (``_guard_of``), and ``witness_body`` ``_bodies``.
    __slots__ = ("var", "body", "_fv", "_size", "_preds", "_depth", "_guard", "_bodies")

    @staticmethod
    def _facts(var, body):
        b = _node(body)
        fv = b._fv - {var} if var in b._fv else b._fv
        return fv, b._size + 1, b._preds, b._depth + 1

    def witness_body(self, witness: int) -> "_FormulaNode":
        """The body with the constant of the witness for the variable, built
        on first use and kept while the node lives; the witness must be an
        ``int`` code whatever is kept."""
        # Checked first: True and 1.0 would find the body at 1.
        if type(witness) is not int or witness < 0:
            raise MalformedInstanceError(f"witness {witness!r} is not an int code")
        try:
            bodies = self._bodies
        except AttributeError:
            bodies = {}
            _setattr(self, "_bodies", bodies)
        got = bodies.get(witness)
        if got is None:
            got = bodies[witness] = substitute(self.body, {self.var: witness})
        return got


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


def to_text(f: Formula) -> str:
    """Canonical core-connective rendering; parse(to_text(f)) == f."""
    out = []
    stack: list = [_node(f)]  # formulas, and the text to follow them
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
            stack.append(g.body)
        elif t is Member:
            out.append(f"({g.left} in {g.right})")
        elif t is Eq:
            out.append(f"({g.left} = {g.right})")
        elif t is Pred and g.name == EDGE_SYMBOL:
            out.append(f"({g.args[0]} <| {g.args[1]})")
        elif t is Pred:
            out.append(f"{g.name}({', '.join(str(a) for a in g.args)})")
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


def substitute(f: Formula, env: Mapping[str, int]) -> Formula:
    """f with the constant of its code for each free occurrence of a
    variable env binds: ``substitute_each``'s one-row case."""
    consts = {v: Const(c) for v, c in env.items()}
    return _substituted(f, _plan(_node(f), frozenset(consts)), consts)


def substitute_each(f: Formula, names: Sequence[str], rows: Iterable[Sequence[int]]) -> list[Formula]:
    """For each row of codes, f with the constant of each code for the free
    occurrences of the variable of names in its place, all built off one
    plan."""
    plan = _plan(_node(f), frozenset(names))
    return [_substituted(f, plan, {v: Const(c) for v, c in zip(names, row)}) for row in rows]


def _substituted(f: Formula, plan: Optional[list], consts: dict) -> Formula:
    """``_build(f, plan, consts)``; where the plan is None, since a
    quantifier rebinds one variable of consts while another is replaced
    under it, one plan and build per variable."""
    if plan is not None:
        return _build(f, plan, consts)
    for v, c in consts.items():
        f = _build(f, _plan(f, frozenset((v,))), {v: c})
    return f


def _plan(f: Formula, names: frozenset) -> Optional[list]:
    """The nodes of f in which a variable of names is free, parts first,
    each as ``(node, place, place, facts)``: the places of its parts in the
    list, -1 for a part left as it is (or none), and the facts its image
    has, its own less the variables of names.  None at a quantifier that
    rebinds one of names while another is free under it.  Iterative."""
    plan: list = []
    if names.isdisjoint(f._fv):
        return plan
    place: dict = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if g in place:
            stack.pop()
            continue
        t = type(g)
        a = b = -1
        if t is And:
            left, right = g.left, g.right
            a = -1 if names.isdisjoint(left._fv) else place.get(left)
            b = -1 if names.isdisjoint(right._fv) else place.get(right)
            if a is None or b is None:
                if a is None:
                    stack.append(left)
                if b is None:
                    stack.append(right)
                continue
        elif t is Not or t is Exists:
            if t is Exists and g.var in names:
                return None
            a = place.get(g.body)  # the body has a variable of names free
            if a is None:
                stack.append(g.body)
                continue
        stack.pop()
        fv = _EMPTY if g._fv <= names else g._fv - names
        place[g] = len(plan)
        plan.append((g, a, b, (fv, g._size, g._preds, g._depth)))
    return plan


def _build(f: Formula, plan: list, consts: dict) -> Formula:
    """f with each variable consts binds replaced by its constant, by
    making the nodes of ``_plan(f, consts' names)`` in order.  A constant
    in a variable's place keeps a node's size, predicates and depth, so
    each node takes the facts its plan entry holds and no ``_facts`` runs."""
    if not plan:
        return f
    made: list = []
    for g, a, b, facts in plan:
        t = type(g)
        if t is And:
            key = (t, g.left if a < 0 else made[a], g.right if b < 0 else made[b])
        elif t is Not:
            key = (t, made[a])
        elif t is Exists:
            key = (t, g.var, made[a])
        elif t is Pred:
            key = (t, g.name, tuple([consts.get(x.name, x) if type(x) is Var else x for x in g.args]))
        else:
            x, y = g.left, g.right
            key = (t, consts.get(x.name, x) if type(x) is Var else x,
                   consts.get(y.name, y) if type(y) is Var else y)
        ref = _interned.get(key)
        obj = None if ref is None else ref()
        made.append(_intern(key, (*key[1:], *facts)) if obj is None else obj)
    return made[-1]


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


def parse_closed(text: str, signature: Mapping[str, int], universe: Universe) -> Formula:
    """The closed formula a user typed: a free variable or a constant
    outside the universe is a ParseError, as bad syntax is."""
    f = parse_formula(text, signature)
    free = free_vars(f)
    if free:
        raise ParseError(f"formula has free variables {sorted(free)}; bind or substitute them")
    for g in subformulas(f):
        for t in _terms(g) if isinstance(g, ATOMIC_KINDS) else ():
            if type(t) is Const and t.code not in universe:
                raise ParseError(f"constant #{t.code} outside the universe")
    return f


# ---------------------------------------------------------------------------
# Instances, structures, evaluation.


def instance(formula: Formula, assignment: Optional[Mapping[str, int]] = None) -> Formula:
    """The proposition formula states under the assignment: the closed
    formula node with the constant of its code for each free variable.
    Each free variable needs an ``int`` code; other keys are dropped.  So
    ``(x in #1)`` at x = 0 and ``(#0 in #1)`` are one object."""
    fv = _node(formula)._fv
    if not fv:
        return formula
    a = assignment or {}
    if any(type(a.get(v)) is not int for v in fv):
        raise MalformedInstanceError(
            f"assignment {a!r} does not give the free variables {sorted(fv)}"
            f" of {to_text(formula)} one int code each")
    return substitute(formula, {v: a[v] for v in fv})


def parse_instance(text: str) -> Formula:
    """Parse a closed formula as an instance."""
    return instance(parse_formula(text))


def sub_instance(inst: Formula, sub: Formula) -> Formula:
    """The instance of sub, a subformula of inst's formula that must itself
    be closed."""
    return instance(sub)


def instantiate(inst: Formula, var: str, code: int) -> Formula:
    """The body of an existential instance, var being its variable, at a
    chosen witness element: its ``witness_body``."""
    return inst.witness_body(code)


def instantiation_witness(ex: Formula, inst: Formula) -> Optional[int]:
    """The code c with inst the body of the existential ex at c, or None if
    there is none: exact, so it alone confirms a candidate that a coarser
    lookup turned up.  c is the constant inst holds where the body first
    has the variable free, found by walking both in step, which also turns
    inst away at the first node or constant it does not share with the
    body; one substitution confirms c.  A body without the variable is the
    same at every element, and 0 stands for them all."""
    var, body = ex.var, ex.body
    if var not in body._fv:
        return 0 if body is inst else None
    code = None
    for g, h in zip(subformulas(body), subformulas(inst)):
        if type(g) is not type(h):
            return None
        for a, b in zip(_terms(g), _terms(h)) if type(g) in ATOMIC_KINDS else ():
            if type(a) is Const:
                if a is not b:
                    return None
            elif code is None and type(b) is Const and a.name == var:
                code = b.code
    return code if code is not None and ex.witness_body(code) is inst else None


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
# nested mask per bit, and first narrows care by its guard: the literals
# (atoms and negated atoms) on the conjunction spine of its body, looking
# through nested Exists, that mention none of the binders on the way.  The
# body implies each of them, so a bit that fails the guard fails the body
# (miniscoping, done at evaluation time).  With v None the formula is a
# sentence under env, care is 1 and the mask is the verdict.

# What the consumer of a mask needs: all of it, or only its lowest set bit
# (an existential's witness) or its lowest clear bit (a universal's
# counterexample), so that loops can stop there.
_ALL, _LOWEST_SET, _LOWEST_CLEAR = 0, 1, 2
_NEGATED_NEED = (_ALL, _LOWEST_CLEAR, _LOWEST_SET)
# Continuation frames on the evaluator's stack; each consumes the mask just
# computed.
_NOT, _AND, _SOME, _LOOP, _EACH = range(5)
_UNSET = object()


def _guard_of(ex: Exists) -> Optional[Formula]:
    """The And of ex's guard literals, or None if it has none; built on
    the first call and kept on the node."""
    try:
        return ex._guard
    except AttributeError:
        pass
    guard = None
    stack = [(ex.body, frozenset((ex.var,)))]
    while stack:
        g, bound = stack.pop()
        t = type(g)
        if t is And:
            stack.append((g.right, bound))
            stack.append((g.left, bound))
        elif t is Exists:
            stack.append((g.body, bound | {g.var}))
        elif (t in ATOMIC_KINDS or t is Not and type(g.body) in ATOMIC_KINDS) and bound.isdisjoint(g._fv):
            guard = g if guard is None else And(guard, g)
    _setattr(ex, "_guard", guard)
    return guard


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
            elif g == _LOOP:
                # m is the guard's mask within care.  A universal's
                # counterexample is at latest care's lowest bit outside it.
                _, ex, v, care, need = frame
                out = care & ~m
                if need == _LOWEST_CLEAR and out:
                    m &= (out & -out) - 1
                bits = hf_elements(m)
                if not bits:
                    continue
                saved = env.get(v, _UNSET)
                env[v] = bits[0]
                stack.append((_EACH, ex, v, need, bits, 0, 0, saved))
                stack.append((ex.body, ex.var, U.full_mask(), _LOWEST_SET))
            else:
                _, ex, v, need, bits, k, acc, saved = frame
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
                    stack.append((_EACH, ex, v, need, bits, k, acc, saved))
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
                stack.append((g.body, g.var, U.full_mask(), _LOWEST_SET))
            else:
                stack.append((_LOOP, g, v, care, need))
                guard = _guard_of(g)
                if guard is None:
                    m = care
                else:
                    stack.append((guard, v, care, _ALL))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return m


def eval_instance(M: Structure, inst: Formula) -> bool:
    """Tarskian truth of the instance in M, by the bitmask evaluator."""
    return _mask(M, inst, None, {}, 1) == 1


def least_witness(M: Structure, ex: Exists) -> Optional[int]:
    """Global-order-least witness of an existential instance; None when it
    is false."""
    m = _mask(M, ex.body, ex.var, {}, M.universe.full_mask(), _LOWEST_SET)
    return (m & -m).bit_length() - 1 if m else None


def skolem_witness(M: Structure, inst: Formula) -> int:
    """Global-order-least witness of a true existential instance."""
    if not isinstance(inst, Exists):
        raise MalformedInstanceError(f"not an existential: {to_text(inst)}")
    w = least_witness(M, inst)
    if w is None:
        raise NoWitnessError(f"no witness for {to_text(inst)}")
    return w


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

    entries: frozenset[Formula]
    closure: frozenset[Formula]

    def __post_init__(self):
        object.__setattr__(self, "entries", frozenset(self.entries))
        object.__setattr__(self, "closure", frozenset(self.closure))

    def holds(self, inst: Formula) -> bool:
        return inst in self.entries

    def verdict(self, inst: Formula) -> Optional[bool]:
        """True/False within the closure, None when unqueried."""
        if inst in self.entries:
            return True
        if inst in self.closure:
            return False
        return None


def build_truth_predicate(M: Structure, instances: Iterable[Formula]) -> SatisfactionClass:
    """Mark exactly the listed instances that evaluate true in M."""
    insts = frozenset(instances)
    return SatisfactionClass(frozenset(i for i in insts if eval_instance(M, i)), insts)


@dataclass(frozen=True)
class TarskiViolation:
    kind: str
    inst: Formula
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {to_text(self.inst)}: {self.detail}"


def tarski_check(
    M: Structure,
    S: SatisfactionClass,
    closure: Iterable[Formula],
) -> list[TarskiViolation]:
    """Audit the Tarskian conditions on every closure instance.

    Sub-instance marks are read from S directly (absence = marked false),
    mirroring the recursive truth conditions clause by clause.
    """
    violations = []
    for inst in closure:
        marked = S.holds(inst)
        if isinstance(inst, ATOMIC_KINDS):
            actual = eval_instance(M, inst)
            if marked != actual:
                violations.append(
                    TarskiViolation(
                        "atomic", inst, f"marked {marked}, structure says {actual}"
                    )
                )
        elif isinstance(inst, Not):
            (sub,) = inst.parts
            if marked == S.holds(sub):
                violations.append(
                    TarskiViolation(
                        "negation", inst, f"same mark as {to_text(sub)}"
                    )
                )
        elif isinstance(inst, And):
            left, right = inst.parts
            both = S.holds(left) and S.holds(right)
            if marked != both:
                violations.append(
                    TarskiViolation(
                        "conjunction", inst, f"marked {marked}, conjuncts give {both}"
                    )
                )
        elif isinstance(inst, Exists):
            some = any(
                S.holds(inst.witness_body(b)) for b in M.universe.elements
            )
            if marked != some:
                violations.append(
                    TarskiViolation(
                        "quantifier", inst, f"marked {marked}, instantiations give {some}"
                    )
                )
        else:
            raise TypeError(f"not a formula: {inst!r}")
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


def enumerate_instances(M: Structure, max_size: int) -> list[Formula]:
    """Every size-bounded formula over x and y at every assignment of its
    free variables, as closed instances: two assignments may state one
    proposition, which the list then holds twice."""
    out = []
    for f in enumerate_formulas(M.universe, max_size, signature=M.signature() or None):
        names = sorted(f._fv)
        out += substitute_each(f, names, product(M.universe.elements, repeat=len(names)))
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


def random_instance(rng, M: Structure, max_size: int) -> Formula:
    f = random_formula(rng, M.universe, max_size, M.signature() or None)
    return substitute(f, {v: rng.randrange(M.universe.size) for v in sorted(f._fv)})
