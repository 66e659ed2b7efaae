"""Generator and enumerator tests: exact wiring, determinism, golden streams."""

import hashlib
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasikernel.construct import _validate_unicyclic
from quasikernel.digraph import (
    Digraph,
    is_tournament,
    sources,
    strongly_connected_components,
)
from quasikernel.generators import (
    enumerate_all_digraphs,
    enumerate_all_tournaments,
    gen_cycle,
    gen_random_digraph,
    gen_random_hairy,
    gen_random_tournament,
    gen_random_unicyclic,
    gen_three_hub,
    gen_tight_hairy,
)
from quasikernel.graphio import format_graph
from quasikernel.sweep import random_source_free_family

from oracles import adjacency


class TestCycle:
    def test_wiring(self):
        assert gen_cycle(4).arcs == ((0, 1), (1, 2), (2, 3), (3, 0))
        assert gen_cycle(2).arcs == ((0, 1), (1, 0))

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            gen_cycle(1)


class TestThreeHub:
    def test_exact_wiring_k1(self):
        G, labels = gen_three_hub(1)
        assert G.n == 6 and G.m == 12
        assert labels == {"v": 0, "u": 1, "w": 2, "v1": 3, "u1": 4, "w1": 5}
        assert G.arcs == (
            (0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 4),
            (2, 0), (2, 1), (2, 5), (3, 0), (4, 1), (5, 2),
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_counts(self, k):
        G, labels = gen_three_hub(k)
        assert G.n == 3 + 3 * k
        assert G.m == 6 + 6 * k
        assert len(labels) == G.n
        # hubs are pairwise 2-cycled; each leaf is 2-cycled with its hub only
        out = adjacency(G.out_masks)
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert b in out[a]
        for leaf in range(3, G.n):
            hub = (leaf - 3) % 3
            assert out[leaf] == (hub,)
            assert leaf in out[hub]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_three_hub(0)


class TestTightHairy:
    def test_structure_n1(self):
        G, part, labels = gen_tight_hairy(1)
        assert G.n == 12 and G.m == 12
        assert part.tournament_part == {0, 1, 2}
        assert part.hair_part == frozenset(range(3, 12))
        assert part.owner == {3 + i: 0 for i in range(3)} | {
            6 + i: 1 for i in range(3)
        } | {9 + i: 2 for i in range(3)}
        assert labels["a0"] == 0 and labels["h2_2"] == 11
        part.validate(G)
        # circulant base: each vertex beats the next one
        assert adjacency(G.out_masks)[0][:1] == (1,)
        assert is_tournament(Digraph(3, [(0, 1), (1, 2), (2, 0)]))

    def test_base_degrees_are_regular(self):
        for n in (1, 2):
            G, part, _ = gen_tight_hairy(n)
            m = 2 * n + 1
            for a in range(m):
                assert G.out_masks[a].bit_count() == n + m
                assert G.in_masks[a].bit_count() == n

    def test_flagged_variant_is_strongly_connected(self):
        G, part, labels = gen_tight_hairy(1, strongly_connected=True)
        assert G.n == 14 and G.m == 23
        assert labels["w1"] == 12 and labels["w2"] == 13
        assert len(strongly_connected_components(G)) == 1
        assert not sources(G)
        # hairs now have out-arcs, so the partition no longer validates
        with pytest.raises(Exception):
            part.validate(G)

    def test_unflagged_has_sources_nowhere_but_hairs_sink(self):
        G, part, _ = gen_tight_hairy(2)
        assert not sources(G)
        for h in part.hair_part:
            assert adjacency(G.out_masks)[h] == ()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_tight_hairy(0)


class TestRandomDigraph:
    def test_golden_stream(self):
        assert gen_random_digraph(6, 0.3, False, 42).arcs == (
            (0, 2), (0, 3), (0, 5), (1, 2), (2, 0), (3, 0),
            (3, 1), (3, 4), (4, 1), (4, 5), (5, 0),
        )
        assert gen_random_digraph(5, 0.2, True, 11).arcs == (
            (0, 1), (1, 0), (1, 2), (1, 3), (2, 3), (2, 4),
        )

    def test_stream_digest(self):
        # sha256 over the graph text, pinned when every coin was a scalar
        # next_float() draw; it moves if any draw moves.  n = 40 takes 1,560
        # coins, past one 1,024-draw batch.
        graphs = [
            *random_source_free_family(5000, 10, 0),
            *(
                gen_random_digraph(n, 0.05, True, s)
                for n in (28, 32, 40)
                for s in range(20)
            ),
            gen_random_digraph(7, 0.0, False, 3),
            gen_random_digraph(7, 1.0, False, 3),
        ]
        text = "".join(map(format_graph, graphs))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f32313d527387f61296a56baf730489b1a059d216e024fb3ff3309f56b7e0501"
        )

    def test_determinism(self):
        a = gen_random_digraph(8, 0.5, True, 123)
        b = gen_random_digraph(8, 0.5, True, 123)
        assert a == b

    def test_extreme_probabilities(self):
        assert gen_random_digraph(4, 0.0, False, 0).m == 0
        assert gen_random_digraph(4, 1.0, False, 0).m == 12

    @settings(max_examples=40)
    @given(st.integers(2, 10), st.integers(0, 2**32))
    def test_source_free_repair(self, n, seed):
        G = gen_random_digraph(n, 0.15, True, seed)
        assert not sources(G)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_random_digraph(-1, 0.5, False, 0)
        with pytest.raises(ValueError):
            gen_random_digraph(3, 1.5, False, 0)
        with pytest.raises(ValueError):
            gen_random_digraph(1, 0.5, True, 0)


class TestRandomTournament:
    def test_golden_stream(self):
        assert gen_random_tournament(5, 7).arcs == (
            (0, 2), (0, 3), (1, 0), (1, 2), (1, 4),
            (2, 3), (3, 1), (4, 0), (4, 2), (4, 3),
        )

    @settings(max_examples=40)
    @given(st.integers(0, 10), st.integers(0, 2**32))
    def test_always_a_tournament(self, n, seed):
        G = gen_random_tournament(n, seed)
        assert is_tournament(G)
        assert G == gen_random_tournament(n, seed)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_random_tournament(-1, 0)


class TestRandomHairy:
    def test_golden_stream(self):
        G, part = gen_random_hairy(3, 2, 5)
        assert G.arcs == ((0, 2), (0, 3), (0, 4), (1, 0), (2, 1))
        assert part.tournament_part == {0, 1, 2}
        assert part.hair_part == {3, 4}
        assert part.owner == {3: 0, 4: 0}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 8), st.integers(0, 4), st.integers(0, 2**32))
    def test_partition_validates_and_base_is_source_free(self, m, max_hairs, seed):
        G, part = gen_random_hairy(m, max_hairs, seed)
        part.validate(G)
        assert not sources(G)
        assert part.tournament_part == frozenset(range(m))
        for h in part.hair_part:
            assert h >= m

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_random_hairy(2, 1, 0)
        with pytest.raises(ValueError):
            gen_random_hairy(3, -1, 0)


class TestRandomUnicyclic:
    def test_golden_stream(self):
        G, cycle = gen_random_unicyclic(8, 3)
        assert cycle == (0, 1, 2, 3, 4, 5)
        assert G.arcs == (
            (0, 1), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5), (5, 0), (6, 7),
        )

    @settings(max_examples=40)
    @given(st.integers(3, 20), st.integers(0, 2**32))
    def test_structure_always_validates(self, n, seed):
        G, cycle = gen_random_unicyclic(n, seed)
        assert G.n == n and G.m == n
        assert _validate_unicyclic(G) == list(cycle)
        for v in range(len(cycle), n):
            assert G.in_masks[v].bit_count() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_random_unicyclic(2, 0)


def _decode(n: int, base: int, code: int) -> Digraph:
    """The graph of a counter code, read one digit per pair from the definition.

    Digit k sets the state of pair k in combinations order: in base 4, 1 is
    low->high, 2 high->low and 3 both; in base 2, 0 is low->high.
    """
    arcs = []
    for u, v in combinations(range(n), 2):
        code, digit = divmod(code, base)
        state = digit if base == 4 else digit + 1
        if state & 1:
            arcs.append((u, v))
        if state & 2:
            arcs.append((v, u))
    return Digraph(n, arcs)


class TestEnumerators:
    @pytest.mark.parametrize(
        "enum, base, n",
        [(enumerate_all_digraphs, 4, n) for n in range(6)]
        + [(enumerate_all_tournaments, 2, n) for n in range(8)],
    )
    def test_make_matches_the_pair_digit_definition(self, enum, base, n):
        # make or's two precomputed half rows; every code of the small
        # families, and the ends and a seeded sample of the two largest,
        # must build the graph the digits describe, also after the pickle
        # round trip that takes make to the pool workers
        family = enum(n)
        codes = family.items
        if len(codes) > 50_000:
            rnd = random.Random(n)
            codes = [*codes[:1000], *codes[-1000:]]
            codes += [rnd.randrange(len(family.items)) for _ in range(1000)]
        shipped = pickle.loads(pickle.dumps(family.make))
        for code in codes:
            G = _decode(n, base, code)
            for H in (family.make(code), shipped(code)):
                assert H == G and H.out_masks == G.out_masks, code

    def test_digraph_counts(self):
        assert len(list(enumerate_all_digraphs(0))) == 1
        assert len(list(enumerate_all_digraphs(1))) == 1
        assert len(list(enumerate_all_digraphs(2))) == 4
        graphs = list(enumerate_all_digraphs(3))
        assert len(graphs) == 64
        assert len(set(graphs)) == 64

    def test_digraph_counter_order(self):
        got = [G.arcs for G in enumerate_all_digraphs(2)]
        assert got == [(), ((0, 1),), ((1, 0),), ((0, 1), (1, 0))]

    def test_digraph_first_pair_is_least_significant(self):
        graphs = list(enumerate_all_digraphs(3))
        assert graphs[1].arcs == ((0, 1),)
        assert graphs[4].arcs == ((0, 2),)
        assert graphs[16].arcs == ((1, 2),)

    def test_digraph_adjacency_is_well_formed(self):
        for G in enumerate_all_digraphs(3):
            assert G == Digraph(G.n, G.arcs)

    def test_digraph_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_all_digraphs(6))
        with pytest.raises(ValueError):
            next(enumerate_all_digraphs(-1))
        # the bare call raises, before any graph is asked for
        for n in (6, -1):
            with pytest.raises(ValueError):
                enumerate_all_digraphs(n)

    def test_tournament_counts(self):
        assert len(list(enumerate_all_tournaments(0))) == 1
        assert len(list(enumerate_all_tournaments(2))) == 2
        ts = list(enumerate_all_tournaments(4))
        assert len(ts) == 64
        assert len(set(ts)) == 64
        assert all(is_tournament(G) for G in ts)

    def test_tournament_counter_order(self):
        ts = list(enumerate_all_tournaments(3))
        assert ts[0].arcs == ((0, 1), (0, 2), (1, 2))
        assert ts[1].arcs == ((0, 2), (1, 0), (1, 2))
        assert ts[7].arcs == ((1, 0), (2, 0), (2, 1))

    def test_tournament_adjacency_is_well_formed(self):
        for G in enumerate_all_tournaments(3):
            assert G == Digraph(G.n, G.arcs)

    def test_tournament_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_all_tournaments(8))
        with pytest.raises(ValueError):
            next(enumerate_all_tournaments(-1))
        # the bare call raises, before any graph is asked for
        for n in (8, -1):
            with pytest.raises(ValueError):
                enumerate_all_tournaments(n)
