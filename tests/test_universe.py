import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgames.errors import InvariantError, ParseError, ResourceBoundError
from hfgames.logic import Structure
from hfgames.truthgames import ORDINAL, Round, Transcript, transcript_from_json, transcript_to_json, truth_game
from hfgames.universe import (
    HFSet,
    Ordinal,
    WellFoundedRelation,
    WellOrder,
    build_universe,
    check_wellfounded,
    find_cycle,
    hf_elements,
    member,
    ordinal_compare,
    parse_ordinal,
    topological_order,
    universe_size,
)


def powerset_sizes(iterations: int) -> int:
    """Oracle: iterate the powerset operation starting from {empty set}."""
    import itertools

    elems = [frozenset()]
    for _ in range(iterations):
        seen = {frozenset()}
        for r in range(1, len(elems) + 1):
            for combo in itertools.combinations(elems, r):
                seen.add(frozenset(combo))
        elems = list(seen)
    return len(elems)


class TestBuildUniverse:
    def test_rank_zero_empty(self):
        assert build_universe(0).size == 0

    def test_rank_two(self):
        U = build_universe(2)
        assert list(U.elements) == [0, 1]

    def test_rank_four_powerset_oracle(self):
        # Oracle: iterate powerset from the empty set three times and count.
        assert build_universe(4).size == powerset_sizes(3) == 16

    def test_exceeds_max_rank(self):
        with pytest.raises(ResourceBoundError):
            build_universe(6)

    @pytest.mark.parametrize("code", ["abc", "0", 0.0, True, 1.5, -1, 7])
    def test_only_int_codes_in_range_are_members(self, code):
        # No coercion: "0", 0.0 and True name no code, and "abc" raises nothing.
        U = build_universe(3)
        assert code not in U
        assert all(c in U for c in range(U.size))

    def test_doubling_invariant(self):
        for k in range(4):
            assert universe_size(k + 1) == 2 ** universe_size(k)


class TestMember:
    def test_empty_in_singleton(self):
        assert member(0, 1)

    def test_singleton_not_self_member(self):
        assert not member(1, 1)

    def test_binary_expansion_oracle(self):
        # 6 = 110 in binary, so bit 2 is set.
        assert member(2, 6)
        assert bin(6)[2:][::-1][2] == "1"

    def test_wellfounded_codes(self):
        for code in range(1, 256):
            for e in hf_elements(code):
                assert e < code

    def test_elements_agree_with_a_bit_by_bit_loop(self):
        def by_bits(c):
            out, bit = [], 0
            while c:
                if c & 1:
                    out.append(bit)
                c >>= 1
                bit += 1
            return out

        rng = random.Random(5)
        codes = [0, 1, 2**65536 - 1] + [
            rng.getrandbits(rng.choice((rng.randrange(1, 65), rng.randrange(1, 65537))))
            for _ in range(24)
        ]
        for code in codes:
            assert hf_elements(code) == by_bits(code)

    def test_negative_code_refused(self):
        with pytest.raises(InvariantError, match="negative code -1"):
            hf_elements(-1)

    def test_hfset_pretty(self):
        assert HFSet(0).pretty() == "{}"
        assert HFSet(3).pretty() == "{{},{{}}}"
        assert HFSet(3).rank() == 2
        assert HFSet(0) in HFSet(1)


def cnf(terms) -> Ordinal:
    """The ordinal sum of w^e * c over the pairs, merged into normal form."""
    merged: dict = {}
    for e, c in terms:
        merged[e] = merged.get(e, 0) + c
    return Ordinal(tuple(sorted(merged.items(), key=lambda t: t[0], reverse=True)))


ORDINAL_GAME = truth_game(Structure(build_universe(1)), ORDINAL)


def transcript_clock_round_trip(clock: Ordinal) -> Ordinal:
    """The clock of a one-round ordinal-mode transcript after writing and
    reading it back."""
    text = transcript_to_json(ORDINAL_GAME, Transcript([Round(clock, None, None)]))
    return transcript_from_json(ORDINAL_GAME, text).rounds[0].clock


# Random ordinals below epsilon_0, exponents nested up to a few levels.
ORDINALS = st.recursive(
    st.integers(0, 5).map(Ordinal.from_nat),
    lambda exps: st.lists(st.tuples(exps, st.integers(1, 4)), min_size=1, max_size=3).map(cnf),
    max_leaves=12,
)


class TestOrdinals:
    def test_equal_zero(self):
        assert ordinal_compare(Ordinal(()), Ordinal.from_nat(0)) == 0

    def test_omega_beats_naturals(self):
        assert ordinal_compare(parse_ordinal("w"), Ordinal.from_nat(3)) == 1

    def test_cnf_lexicographic(self):
        # Oracle: expand both sides as lexicographic term tuples.
        a = parse_ordinal("w*2+1")
        b = parse_ordinal("w*2")
        assert [(str(e), c) for e, c in a.terms] > [(str(e), c) for e, c in b.terms]
        assert ordinal_compare(a, b) == 1

    def test_parse_round_trip(self):
        for text in ["0", "5", "w", "w*3", "w+1", "w^2*3+w*2+5", "w^(w+1)+4"]:
            assert str(parse_ordinal(text)) == text

    @pytest.mark.parametrize("height", range(1, 7))
    def test_exponent_towers_round_trip(self, height):
        # Height 4, w^(w^(w^(w))), is the first with two parentheses inside
        # an exponent.
        tower = parse_ordinal("w")
        for _ in range(height - 1):
            tower = Ordinal(((tower, 1),))
        assert parse_ordinal(str(tower)) == tower
        assert transcript_clock_round_trip(tower) == tower

    @settings(max_examples=100, deadline=None)
    @given(ORDINALS)
    def test_random_cnf_round_trips(self, x):
        assert parse_ordinal(str(x)) == x
        assert transcript_clock_round_trip(x) == x

    def test_malformed_cnf_rejected(self):
        with pytest.raises(InvariantError):
            Ordinal(((Ordinal.from_nat(0), 0),))
        with pytest.raises(InvariantError):
            Ordinal(((Ordinal.from_nat(0), 1), (Ordinal.from_nat(1), 1)))
        with pytest.raises(ParseError):
            parse_ordinal("w+w")

    def test_pred(self):
        assert Ordinal.from_nat(4).pred().to_int() == 3

    def test_total_order_on_random_pairs(self):
        rng = random.Random(20)
        ords = [self._random_ordinal(rng) for _ in range(40)]
        for _ in range(1000):
            a, b, c = rng.choice(ords), rng.choice(ords), rng.choice(ords)
            ab = ordinal_compare(a, b)
            assert ab == -ordinal_compare(b, a)
            if ab == 0:
                assert a == b
            if ab <= 0 and ordinal_compare(b, c) <= 0:
                assert ordinal_compare(a, c) <= 0

    @staticmethod
    def _random_ordinal(rng, depth=2):
        import functools

        if depth == 0 or rng.random() < 0.5:
            return Ordinal.from_nat(rng.randrange(5))
        exps = []
        while len(exps) < rng.randint(1, 2):
            e = TestOrdinals._random_ordinal(rng, depth - 1)
            if all(ordinal_compare(e, x) != 0 for x in exps):
                exps.append(e)
        exps.sort(key=functools.cmp_to_key(ordinal_compare), reverse=True)
        return Ordinal(tuple((e, rng.randint(1, 3)) for e in exps))


def random_dag(rng, n=50, p=0.1) -> WellFoundedRelation:
    nodes = list(range(n))
    edges = {
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if rng.random() < p
    }
    return WellFoundedRelation(frozenset(nodes), frozenset(edges))


class TestWellFounded:
    def test_empty_edges(self):
        rel = WellFoundedRelation(frozenset({1, 2}), frozenset())
        assert check_wellfounded(rel)

    def test_self_loop(self):
        rel = WellFoundedRelation(frozenset({1}), frozenset({(1, 1)}))
        assert not check_wellfounded(rel)
        assert find_cycle(rel) == [1]

    def test_dag_plus_back_edge(self):
        rng = random.Random(5)
        rel = random_dag(rng, 50, 0.1)
        assert check_wellfounded(rel)
        # Oracle: DFS cycle detection must spot the injected back edge.
        a, b = sorted(rel.edges)[0]
        broken = WellFoundedRelation(rel.carrier, rel.edges | {(b, a)})
        assert not check_wellfounded(broken)
        cycle = find_cycle(broken)
        assert cycle is not None
        closing = cycle + [cycle[0]]
        assert all(
            (u, v) in broken.edges for u, v in zip(closing, closing[1:])
        )

    def test_minimal_elements_in_sampled_subsets(self):
        rng = random.Random(6)
        rel = random_dag(rng, 30, 0.15)
        assert check_wellfounded(rel)
        nodes = sorted(rel.carrier)
        for _ in range(1000):
            subset = rng.sample(nodes, rng.randint(1, len(nodes)))
            # Some member has no predecessor inside the subset.
            assert [n for n in subset if not any((a, n) in rel.edges for a in subset)], subset

    def test_long_chain_walks_without_recursion(self):
        n = 5000
        chain = WellFoundedRelation(frozenset(range(n)), frozenset((k, k + 1) for k in range(n - 1)))
        assert topological_order(chain) == list(range(n))
        assert find_cycle(chain) is None
        looped = WellFoundedRelation(chain.carrier, chain.edges | {(n - 1, 0)})
        assert find_cycle(looped) == list(range(n))

    def test_edge_outside_carrier(self):
        with pytest.raises(InvariantError):
            WellFoundedRelation(frozenset({1}), frozenset({(1, 2)}))

    def test_topological_order(self):
        rng = random.Random(7)
        rel = random_dag(rng, 20, 0.2)
        order = topological_order(rel)
        pos = {n: i for i, n in enumerate(order)}
        assert all(pos[a] < pos[b] for a, b in rel.edges)
        loop = WellFoundedRelation(frozenset({1, 2}), frozenset({(1, 2), (2, 1)}))
        with pytest.raises(InvariantError):
            topological_order(loop)


class TestWellOrder:
    def test_enumeration_order(self):
        w = WellOrder((3, 1, 2))
        assert list(w) == [3, 1, 2]
        assert [w.index(x) for x in (3, 1, 2)] == [0, 1, 2]

    def test_duplicates_rejected(self):
        with pytest.raises(InvariantError):
            WellOrder((1, 1))
