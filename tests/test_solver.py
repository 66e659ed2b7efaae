"""Exhaustive solver tests against the brute-force oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasikernel.digraph import Digraph, is_q_kernel
from quasikernel.errors import ResourceLimitError
from quasikernel.generators import (
    enumerate_all_digraphs,
    gen_cycle,
    gen_random_digraph,
    gen_tight_hairy,
)
from quasikernel.rng import SplitMix64
from quasikernel.solver import (
    DEFAULT_LIMITS,
    SolverLimits,
    enumerate_kernels,
    enumerate_q_kernels,
    has_kernel,
    has_two_disjoint_qks,
    is_kernel_perfect,
    kls_bound,
    q_kernel_at_most,
    smallest_q_kernel,
)

from oracles import (
    brute_is_kernel_perfect,
    brute_kernels,
    brute_q_kernels,
    brute_smallest,
)
from strategies import digraphs, source_free_digraphs

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
C4 = gen_cycle(4)
PATH = Digraph(3, [(0, 1), (1, 2)])


class TestEnumeration:
    def test_triangle(self):
        assert enumerate_q_kernels(C3) == (
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        )

    def test_four_cycle(self):
        assert enumerate_q_kernels(C4) == (frozenset({0, 2}), frozenset({1, 3}))

    def test_path(self):
        assert enumerate_q_kernels(PATH) == (frozenset({0}), frozenset({0, 2}))

    def test_empty_graph(self):
        assert enumerate_q_kernels(Digraph(0)) == (frozenset(),)
        assert enumerate_kernels(Digraph(0)) == (frozenset(),)

    def test_isolated_vertices(self):
        assert enumerate_q_kernels(Digraph(2)) == (frozenset({0, 1}),)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            enumerate_q_kernels(C3, 0)

    def test_sorted_by_size_then_lex(self):
        got = enumerate_q_kernels(PATH)
        keys = [(len(s), tuple(sorted(s))) for s in got]
        assert keys == sorted(keys)

    def test_exhaustive_n3_matches_oracle(self):
        for G in enumerate_all_digraphs(3):
            for q in (1, 2, 3):
                assert sorted(enumerate_q_kernels(G, q)) == sorted(
                    brute_q_kernels(G, q)
                ), (G.arcs, q)

    @settings(max_examples=80, deadline=None)
    @given(digraphs(max_n=6), st.integers(1, 3))
    def test_random_matches_oracle(self, G, q):
        assert sorted(enumerate_q_kernels(G, q)) == sorted(brute_q_kernels(G, q))


class TestKernels:
    def test_kernels_examples(self):
        assert enumerate_kernels(C3) == ()
        assert enumerate_kernels(C4) == (frozenset({0, 2}), frozenset({1, 3}))
        assert has_kernel(C4) and not has_kernel(C3)

    def test_kernel_of_path(self):
        assert enumerate_kernels(PATH) == (frozenset({0, 2}),)

    @settings(max_examples=80, deadline=None)
    @given(digraphs(max_n=6))
    def test_has_kernel_matches_oracle(self, G):
        assert has_kernel(G) == bool(brute_kernels(G))


class TestSmallest:
    def test_examples(self):
        assert smallest_q_kernel(C3) == {0}
        assert smallest_q_kernel(C4) == {0, 2}
        assert smallest_q_kernel(gen_cycle(6)) == {0, 3}
        assert smallest_q_kernel(PATH) == {0}
        assert smallest_q_kernel(Digraph(0)) == frozenset()

    def test_kernel_mode_returns_none_when_absent(self):
        assert smallest_q_kernel(C3, 1) is None

    @pytest.mark.parametrize("q", [0, -1])
    def test_rejects_bad_q(self, q):
        for G in (C3, Digraph(3), Digraph(0)):
            with pytest.raises(ValueError, match="q must be at least 1"):
                smallest_q_kernel(G, q)

    def test_tight_hairy_smallest_is_four(self):
        TH, _, _ = gen_tight_hairy(1)
        Q = smallest_q_kernel(TH)
        assert Q == {0, 9, 10, 11}
        # the feedback arcs give hairs out-arcs, which lets {a1, w2} 2-cover
        # all fourteen vertices: a1 handles the base, its own and a2's hairs,
        # and w1; w2 handles a0's hairs through w2 -> a0
        flagged, _, _ = gen_tight_hairy(1, strongly_connected=True)
        assert smallest_q_kernel(flagged) == {1, 13}

    @settings(max_examples=80, deadline=None)
    @given(digraphs(max_n=6), st.integers(1, 3))
    def test_matches_oracle_and_is_lex_min(self, G, q):
        assert smallest_q_kernel(G, q) == brute_smallest(G, q)

    def test_at_most_variants(self):
        assert q_kernel_at_most(C4, 2, 1) is None
        assert q_kernel_at_most(C4, 2, 2) == {0, 2}
        assert q_kernel_at_most(C4, 2, 0) is None
        assert q_kernel_at_most(Digraph(0), 2, 0) == frozenset()
        result = q_kernel_at_most(PATH, 2, 3)
        assert result is not None and len(result) <= 3
        with pytest.raises(ValueError):
            q_kernel_at_most(C4, 0, 1)
        with pytest.raises(ValueError):
            q_kernel_at_most(C4, 2, -1)

    def test_matches_enumeration(self):
        # enumeration never takes the packing bound or the witness guide, so
        # it stays an independent reference for both
        rng = SplitMix64(2024)
        for _ in range(400):
            n = 2 + rng.next_below(11)
            p = 0.1 + 0.8 * rng.next_float()
            G = gen_random_digraph(n, p, True, rng.next_u64())
            for q in (1, 2, 3):
                qks = enumerate_q_kernels(G, q)
                best = qks[0] if qks else None
                assert smallest_q_kernel(G, q) == best, (G.arcs, q)
                k_min = len(best) if best is not None else n + 1
                for k in range(n + 1):
                    got = q_kernel_at_most(G, q, k)
                    assert (got is None) == (k < k_min), (G.arcs, q, k)

    def test_sparse_matches_oracle(self):
        # sparse source-free graphs have minimums of 3 to 6 members, where the
        # packing bound cuts and the witness walk can leave its guide
        rng = SplitMix64(77)
        sizes = set()
        for _ in range(40):
            n = 10 + rng.next_below(2)
            G = gen_random_digraph(n, 0.12, True, rng.next_u64())
            for q in (1, 2, 3):
                best = brute_smallest(G, q)
                assert smallest_q_kernel(G, q) == best, (G.arcs, q)
                k_min = len(best) if best is not None else n + 1
                for k in (k_min - 1, k_min):
                    got = q_kernel_at_most(G, q, k)
                    assert got == (best if k >= k_min else None), (G.arcs, q, k)
                if best is not None:
                    sizes.add(k_min)
        assert max(sizes) >= 5


class TestRelabelling:
    @settings(max_examples=60, deadline=None)
    @given(source_free_digraphs(max_n=7), st.data())
    def test_answers_unchanged_under_relabelling(self, G, data):
        perm = data.draw(st.permutations(range(G.n)))
        H = Digraph(G.n, [(perm[u], perm[v]) for u, v in G.arcs])
        S = data.draw(st.sets(st.integers(0, G.n - 1), max_size=G.n))

        def image(T):
            return frozenset(perm[v] for v in T)

        for q in (1, 2, 3):
            assert bool(is_q_kernel(G, S, q)) == bool(is_q_kernel(H, image(S), q))
            small, moved = smallest_q_kernel(G, q), smallest_q_kernel(H, q)
            assert (small is None) == (moved is None)
            assert small is None or len(small) == len(moved)
            qks = {image(K) for K in enumerate_q_kernels(G, q)}
            assert qks == set(enumerate_q_kernels(H, q))


class TestDisjointPairs:
    def test_examples(self):
        assert has_two_disjoint_qks(C3) == (frozenset({0}), frozenset({1}))
        pair = Digraph(2, [(0, 1), (1, 0)])
        assert has_two_disjoint_qks(pair) == (frozenset({0}), frozenset({1}))
        assert has_two_disjoint_qks(PATH) is None

    @settings(max_examples=50, deadline=None)
    @given(digraphs(max_n=6))
    def test_pair_members_are_quasi_kernels(self, G):
        pair = has_two_disjoint_qks(G)
        if pair is not None:
            q1, q2 = pair
            assert not q1 & q2
            assert is_q_kernel(G, q1, 2) and is_q_kernel(G, q2, 2)


class TestKernelPerfect:
    def test_examples(self):
        assert is_kernel_perfect(C4) == (True, None)
        assert is_kernel_perfect(C3) == (False, frozenset({0, 1, 2}))
        assert is_kernel_perfect(Digraph(0)) == (True, None)

    @settings(max_examples=40, deadline=None)
    @given(digraphs(max_n=5))
    def test_matches_oracle(self, G):
        assert is_kernel_perfect(G) == brute_is_kernel_perfect(G)


class TestLimits:
    def test_max_n_guard(self):
        limits = SolverLimits(max_n=3)
        with pytest.raises(ResourceLimitError, match="n=4 exceeds max_n=3"):
            enumerate_q_kernels(C4, 2, limits)
        with pytest.raises(ResourceLimitError):
            smallest_q_kernel(C4, 2, limits)
        for size in (0, 1):
            with pytest.raises(ResourceLimitError, match="n=30 exceeds max_n=24"):
                q_kernel_at_most(gen_cycle(30), 2, size)

    def test_subset_budget(self):
        limits = SolverLimits(max_subsets=2)
        with pytest.raises(ResourceLimitError, match="budget exhausted"):
            enumerate_q_kernels(gen_cycle(6), 2, limits)

    def test_sparse_search_stays_within_budget(self):
        # set-cover branching with the packing bound and the witness guide
        # needs 6,323 nodes here, and 147,039 without them
        G = gen_random_digraph(56, 0.05, True, 392)
        limits = SolverLimits(max_n=64, max_subsets=20_000)
        assert sorted(smallest_q_kernel(G, 2, limits)) == [2, 3, 4, 13, 21, 45, 46, 47]

    @pytest.mark.parametrize("seed, expected", [(336000, True), (336002, False)])
    def test_kernel_existence_stops_within_budget(self, seed, expected):
        # set-cover branching needs 3,940 and 2,845 nodes here; an ascending
        # search over independent sets needs 61,318 and 26,139
        G = gen_random_digraph(48, 0.06, False, seed)
        limits = SolverLimits(max_n=64, max_subsets=10_000)
        assert has_kernel(G, limits) is expected

    @pytest.mark.parametrize("length, nodes", [(3, 9), (4, 24), (6, 147)])
    def test_kernel_perfect_node_count(self, length, nodes):
        G = gen_cycle(length)
        expected = is_kernel_perfect(G)
        assert is_kernel_perfect(G, SolverLimits(max_subsets=nodes)) == expected
        with pytest.raises(ResourceLimitError, match="budget exhausted"):
            is_kernel_perfect(G, SolverLimits(max_subsets=nodes - 1))

    def test_generous_budget_is_enough(self):
        limits = SolverLimits(max_subsets=10_000)
        assert enumerate_q_kernels(C4, 2, limits) == enumerate_q_kernels(C4)

    def test_default_limits(self):
        assert DEFAULT_LIMITS.max_n == 24
        assert DEFAULT_LIMITS.max_subsets == 10_000_000

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [({"max_n": -1}, "max_n must be non-negative, got -1"),
         ({"max_subsets": -5}, "max_subsets must be non-negative, got -5")],
    )
    def test_negative_limits_are_refused(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            SolverLimits(**kwargs)

    def test_zero_and_uncapped_limits_are_valid(self):
        assert SolverLimits(max_n=0, max_subsets=0).max_subsets == 0
        assert SolverLimits(max_subsets=None).max_subsets is None


class TestKlsBound:
    def test_examples(self):
        assert kls_bound(PATH) == Fraction(3, 2)
        assert kls_bound(C3) == Fraction(3, 2)
        assert kls_bound(Digraph(2)) == Fraction(2)
        star = Digraph(4, [(0, 1), (0, 2), (0, 3)])
        assert kls_bound(star) == Fraction(2, 2)

    @settings(max_examples=60)
    @given(digraphs(max_n=6))
    def test_smallest_respects_bound(self, G):
        Q = smallest_q_kernel(G)
        assert Fraction(len(Q)) <= kls_bound(G)
