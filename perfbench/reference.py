"""Reference computations the benchmark checks the library against.

Each one is a separate code path from the package: a direct transcription
of Tarski's clauses over Ackermann codes, a bottom-up minimax over a game's
decided-position table, and a plain fixpoint iteration for recursions.
Only the package's data types (formula nodes, relations) are read here.
"""

from __future__ import annotations

from hfgames.logic import And, Eq, Exists, Member, Not, Pred


def holds(f, env: dict, size: int, preds: dict) -> bool:
    """Truth of ``f`` over the codes ``0 .. size-1`` under ``env``.

    ``preds`` maps a predicate symbol to its set of tuples.
    """

    def val(t):
        return t.code if hasattr(t, "code") else env[t.name]

    if isinstance(f, Member):
        return (val(f.right) >> val(f.left)) & 1 == 1
    if isinstance(f, Eq):
        return val(f.left) == val(f.right)
    if isinstance(f, Pred):
        return tuple(val(a) for a in f.args) in preds[f.name]
    if isinstance(f, Not):
        return not holds(f.body, env, size, preds)
    if isinstance(f, And):
        return holds(f.left, env, size, preds) and holds(f.right, env, size, preds)
    if isinstance(f, Exists):
        inner = dict(env)
        for b in range(size):
            inner[f.var] = b
            if holds(f.body, inner, size, preds):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")


def holds_instance(inst, size: int, preds: dict | None = None) -> bool:
    return holds(inst.formula, dict(inst.bindings), size, preds or {})


def least_witness(inst, size: int, preds: dict | None = None):
    """Least code satisfying the body of an existential instance, or None."""
    f = inst.formula
    env = dict(inst.bindings)
    for b in range(size):
        env[f.var] = b
        if holds(f.body, env, size, preds or {}):
            return b
    return None


# ---------------------------------------------------------------------------
# Games given by a table of earliest decided positions.


def table_positions(moves, decided: dict, cap: int) -> dict:
    """Every position of the truncated tree mapped to its decided winner
    (None while undecided), found breadth-first from the table alone."""
    out = {(): decided.get(())}
    frontier = [()]
    while frontier:
        nxt = []
        for p in frontier:
            if out[p] is not None or len(p) == cap:
                continue
            for x in moves:
                q = p + (x,)
                out[q] = decided.get(q)
                nxt.append(q)
        frontier = nxt
    return out


def minimax(moves, positions: dict, cap: int) -> dict:
    """Winner of every position, from the longest positions up."""
    win = {}
    for p in sorted(positions, key=len, reverse=True):
        d = positions[p]
        if d is not None:
            win[p] = d
        elif len(p) == cap:
            raise ValueError(f"clopen table undecided at full length {p}")
        else:
            mover = "I" if len(p) % 2 == 0 else "II"
            win[p] = mover if any(win[p + (x,)] == mover for x in moves) else (
                "II" if mover == "I" else "I"
            )
    return win


def strategy_flaw(moves, positions: dict, win: dict, player: str, table) -> tuple | None:
    """A position where following ``table`` leaves ``player``'s winning
    region, or None when the strategy keeps every reachable play won."""
    if win[()] != player:
        return ()
    frontier = [()]
    while frontier:
        p = frontier.pop()
        if positions[p] is not None:
            continue
        mover = "I" if len(p) % 2 == 0 else "II"
        if mover == player:
            x = table.get(p)
            if x not in moves or win[p + (x,)] != player:
                return p
            frontier.append(p + (x,))
        else:
            frontier.extend(p + (x,) for x in moves)
    return None


# ---------------------------------------------------------------------------
# Recursion along finite well-founded relations.


def recursion_fixpoint(rule, carrier, edges, size: int, domain) -> frozenset:
    """The recursion's solution by iterating F -> {(i, x) : phi(x, i, F|i)}
    from the empty class until it stops changing.

    ``F|i`` keeps the pairs whose index is a direct predecessor of ``i``;
    on an acyclic relation the iteration is stable after height + 1 rounds.
    """
    preds_of = {i: {a for a, b in edges if b == i} for i in carrier}
    edge_set = set(edges)
    current: frozenset = frozenset()
    for _ in range(len(carrier) + 2):
        nxt = set()
        for i in carrier:
            below = {(j, y) for j, y in current if j in preds_of[i]}
            env_preds = {rule.f_symbol: below, "<|": edge_set}
            for x in domain:
                env = {rule.i_var: i, rule.x_var: x}
                if holds(rule.formula, env, size, env_preds):
                    nxt.add((i, x))
        nxt = frozenset(nxt)
        if nxt == current:
            return current
        current = nxt
    raise ValueError("recursion fixpoint did not stabilise")


def reachability(carrier, edges) -> set:
    """Pairs (a, b) joined by a nonempty directed path."""
    succ = {n: {b for a, b in edges if a == n} for n in carrier}
    out = set()
    for a in carrier:
        seen = set()
        stack = list(succ[a])
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ[b])
        out.update((a, b) for b in seen)
    return out


def descending_sequences(carrier, order_edges) -> set:
    """Every finite strictly descending sequence, the empty one included."""
    below = {n: [a for a, b in order_edges if b == n] for n in carrier}
    out = {()}
    stack = [(n,) for n in carrier]
    while stack:
        s = stack.pop()
        out.add(s)
        stack.extend(s + (a,) for a in below[s[-1]])
    return out


def kb_before(s: tuple, t: tuple) -> bool:
    """Kleene-Brouwer: a proper extension first, else the first difference."""
    for a, b in zip(s, t):
        if a != b:
            return a < b
    return len(s) > len(t)
