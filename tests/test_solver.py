"""Exhaustive solver tests against the brute-force oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasikernel import digraph
from quasikernel.digraph import Digraph, _mask_of, _set_of, is_q_kernel, sources
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
    _q_kernels,
    enumerate_kernels,
    enumerate_q_kernels,
    has_kernel,
    has_two_disjoint_qks,
    is_kernel_perfect,
    kls_bound,
    q_kernel_at_most,
    smallest_q_kernel,
)
from quasikernel.sweep import CLAIMS

from oracles import (
    brute_is_kernel_perfect,
    brute_kernels,
    brute_q_kernels,
    brute_smallest,
    brute_sources,
    set_reach,
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



class TestListing:
    def test_listing_matches_enumeration_and_its_caps(self):
        for G in (G for n in range(5) for G in enumerate_all_digraphs(n)):
            for q in (1, 2, 3):
                full = _q_kernels(G, q, None)
                assert len(set(full)) == len(full), (G.arcs, q)
                sets = sorted(map(_set_of, full), key=lambda s: (len(s), sorted(s)))
                assert tuple(sets) == enumerate_q_kernels(G, q), (G.arcs, q)
                for cap in (1, 2, 3, 4):
                    assert _q_kernels(G, q, None, cap) == full[:cap], (G.arcs, q, cap)

    def test_every_listed_mask_holds_the_sources(self):
        for G in (G for n in range(5) for G in enumerate_all_digraphs(n)):
            S = _mask_of(brute_sources(G), G.n)
            for q in (1, 2, 3):
                found = _q_kernels(G, q, None)
                assert all(m & S == S for m in found), (G.arcs, q)
                listed = sorted(map(sorted, map(_set_of, found)))
                assert listed == sorted(map(sorted, brute_q_kernels(G, q))), (G.arcs, q)

    def test_wanted_skips_a_rejected_king(self):
        # {0} and {1} are both lone quasi-kernels; only {1} reaches half of V
        # in one step, and a rejected {0} must not end the walk, nor the scan
        # build in_masks
        G = Digraph(
            8,
            [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 0),
             (4, 2), (5, 6), (5, 7)],
        )

        def rule(m):
            return 2 * len(set_reach(G, _set_of(m), 1)) >= G.n

        assert _q_kernels(G, 2, None, 1) == [1 << 0] and not rule(1 << 0)
        assert _q_kernels(G, 2, None, 1, rule) == [1 << 1]
        assert "in_masks" not in G.__dict__


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

    def test_lone_kernel_needs_no_in_masks(self):
        # vertex 1's closed out-neighbourhood is all of V, so the lone-vertex
        # scan settles the graph before the search builds in-neighbourhoods
        G = Digraph(4, [(0, 1), (1, 0), (1, 2), (1, 3), (2, 3)])
        assert has_kernel(G)
        assert "in_masks" not in G.__dict__

    def test_settled_scan_builds_no_reach_view(self):
        # every vertex of C3 reaches all of V within two steps; the scan closes
        # rows only as it reaches them, so stopping early builds no view
        walks = (
            lambda G: smallest_q_kernel(G) == {0},
            lambda G: _q_kernels(G, 2, None, 2) == [1 << 0, 1 << 1],
            lambda G: CLAIMS["large-qk-exists"].check(G, DEFAULT_LIMITS) == (True, None),
        )
        for walk in walks:
            G = Digraph._trusted(3, C3.out_masks)
            assert walk(G)
            assert "closed2_masks" not in G.__dict__
            assert "closed1_masks" not in G.__dict__

    def test_complete_scan_leaves_the_view_built(self):
        graphs = [G for n in range(5) for G in enumerate_all_digraphs(n)]
        graphs += [
            gen_random_digraph(1 + s % 10, 0.1 + 0.05 * (s % 12), False, s)
            for s in range(300)
        ]
        for G in graphs:
            for q in (1, 2, 3):
                H = Digraph._trusted(G.n, G.out_masks)
                _q_kernels(H, q, None)
                # no cap: on a source-free graph the scan reads every row; a
                # graph with a source skips the scan
                if q < 3 and not G.source_mask:
                    assert f"closed{q}_masks" in H.__dict__, (G.arcs, q)
                fresh = Digraph._trusted(G.n, G.out_masks)
                assert H.reach_masks(q) == fresh.reach_masks(q), (G.arcs, q)

    def test_emperor_is_settled_in_one_node(self):
        # vertex 0 beats every other vertex: it is the one source, and {0} is
        # the one kernel and quasi-kernel, found with nothing left to search
        arcs = [(0, v) for v in range(1, 5)] + [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4)]
        for q in (1, 2, 3):
            G = Digraph(5, arcs)
            assert _q_kernels(G, q, SolverLimits(max_subsets=1)) == [1 << 0]
            for view in ("closed1_masks", "closed2_masks", "in_masks", "undirected_masks"):
                assert view not in G.__dict__, (q, view)
            with pytest.raises(ResourceLimitError, match="budget exhausted"):
                _q_kernels(G, q, SolverLimits(max_subsets=0))

    def test_built_view_is_read(self, monkeypatch):
        G = Digraph._trusted(4, C4.out_masks)
        G.closed2_masks
        monkeypatch.setattr(digraph, "_closed_rows", None)
        assert smallest_q_kernel(G) == {0, 2}

    def test_q3_rows_are_closed_once(self, monkeypatch):
        closed = []
        reach = digraph._reach

        def counting_reach(step, mask, q):
            if q == 3:
                closed.append(mask)
            return reach(step, mask, q)

        monkeypatch.setattr(digraph, "_reach", counting_reach)
        # {2} is the one lone 3-kernel, so the scan closes rows 0, 1 and 2 only
        settled = Digraph(5, [(2, 0), (2, 1), (2, 3), (3, 4)])
        assert smallest_q_kernel(settled, 3) == {2}
        assert closed == [1 << 0, 1 << 1, 1 << 2]
        # on C7 no vertex reaches all of V within three steps: the scan closes
        # every row and the search reads those rows, closing none again
        closed.clear()
        assert smallest_q_kernel(gen_cycle(7), 3) == {0, 3}
        assert sorted(closed) == [1 << v for v in range(7)]


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

    @pytest.mark.parametrize("seed", range(10))
    def test_sparse_sizes_unchanged_under_relabelling(self, seed):
        # n = 28..40 is where the fewest-candidates branch and its lowest-label
        # tie-break run; the minimum size must not depend on the labels
        n = 28 + 4 * (seed % 4)
        G = gen_random_digraph(n, 0.05, True, seed)
        perm = list(range(n))
        SplitMix64(seed).shuffle(perm)
        H = Digraph(n, [(perm[u], perm[v]) for u, v in G.arcs])
        limits = SolverLimits(max_n=64)
        small, moved = smallest_q_kernel(G, 2, limits), smallest_q_kernel(H, 2, limits)
        assert len(small) == len(moved)
        assert is_q_kernel(G, small, 2) and is_q_kernel(H, moved, 2)
        assert is_q_kernel(H, frozenset(perm[v] for v in small), 2)


def _side_by_side(G: Digraph, H: Digraph) -> Digraph:
    """The disjoint union of G and H, H's vertices shifted by G.n."""
    return Digraph(G.n + H.n, list(G.arcs) + [(u + G.n, v + G.n) for u, v in H.arcs])


class TestDisjointUnion:
    # a disjoint union's answers follow from its parts: at n = 24 it is past
    # the brute-force oracle's reach, and it runs the size search's packing
    # and one-member cuts deep
    @pytest.mark.parametrize("block", range(8))
    def test_answers_follow_from_the_parts(self, block):
        for s in range(50 * block, 50 * block + 50):
            G = gen_random_digraph(12, 0.15, True, 2 * s)
            H = gen_random_digraph(12, 0.15, True, 2 * s + 1)
            U = _side_by_side(G, H)
            for q in (1, 2, 3):
                # equal sizes are ordered by the least vertex where they
                # differ, so the lex-least parts make the lex-least union
                mine, theirs = smallest_q_kernel(G, q), smallest_q_kernel(H, q)
                union = None
                if mine is not None and theirs is not None:
                    union = mine | {v + G.n for v in theirs}
                assert smallest_q_kernel(U, q) == union, (s, q)
            counts = len(_q_kernels(G, 2, None)) * len(_q_kernels(H, 2, None))
            assert len(_q_kernels(U, 2, None)) == counts, s
            assert has_kernel(U) == (has_kernel(G) and has_kernel(H)), s

    def test_kernel_perfectness_follows_from_the_parts(self):
        # a kernel-free subset of G + H has a kernel-free part, so the
        # smallest one lies in one side: the smaller of the parts' witnesses
        # in (size, lex) order, H's shifted, G's on a tie as its vertices
        # come first; the cycles make H win on size and G on a tie
        pairs = [(gen_cycle(5), C3), (C3, gen_cycle(5)), (C3, C3), (C4, C3)]
        pairs += [
            (gen_random_digraph(6, 0.3, False, 2 * s), gen_random_digraph(6, 0.3, False, 2 * s + 1))
            for s in range(50)
        ]
        imperfect = 0
        for s, (G, H) in enumerate(pairs):
            witnesses = []
            for shift, part in ((0, G), (G.n, H)):
                perfect, witness = is_kernel_perfect(part)
                if not perfect:
                    witnesses.append(sorted(v + shift for v in witness))
            got = is_kernel_perfect(_side_by_side(G, H))
            if witnesses:
                imperfect += 1
                smallest = min(witnesses, key=lambda w: (len(w), w))
                assert got == (False, frozenset(smallest)), s
            else:
                assert got == (True, None), s
        # the four cycle pairs and 15 of the random unions
        assert imperfect == 19


class TestDisjointPairs:
    def test_examples(self):
        assert has_two_disjoint_qks(C3) == (frozenset({0}), frozenset({1}))
        pair = Digraph(2, [(0, 1), (1, 0)])
        assert has_two_disjoint_qks(pair) == (frozenset({0}), frozenset({1}))
        assert has_two_disjoint_qks(PATH) is None

    def test_matches_the_enumerated_pairs(self):
        # every q-kernel holds the sources, so a graph with one has no pair
        for G in (G for n in range(5) for G in enumerate_all_digraphs(n)):
            for q in (1, 2, 3):
                qks = enumerate_q_kernels(G, q)
                pairs = [(a, b) for i, a in enumerate(qks) for b in qks[i + 1:] if not a & b]
                assert not (pairs and sources(G)), (G.arcs, q)
                assert has_two_disjoint_qks(G, q) == (pairs[0] if pairs else None), (G.arcs, q)

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
        with pytest.raises(ResourceLimitError, match="n=4 exceeds max_n=3"):
            has_two_disjoint_qks(Digraph(4, [(0, 1), (1, 2), (2, 3)]), 2, limits)
        for size in (0, 1):
            with pytest.raises(ResourceLimitError, match="n=30 exceeds max_n=24"):
                q_kernel_at_most(gen_cycle(30), 2, size)

    def test_subset_budget(self):
        limits = SolverLimits(max_subsets=2)
        with pytest.raises(ResourceLimitError, match="budget exhausted"):
            enumerate_q_kernels(gen_cycle(6), 2, limits)

    def test_sparse_search_stays_within_budget(self):
        # set-cover branching with the witness guide, the fewest-candidates
        # branch, the packing bound in vertex order and then in ascending row
        # size, and the one-member intersection needs exactly these counts,
        # so losing any of them fails here
        for n, max_n, seed, nodes, expected in [
            (56, 64, 392, 533, [2, 3, 4, 13, 21, 45, 46, 47]),
            (112, 128, 112000, 26_428, [9, 19, 23, 40, 45, 97]),
        ]:
            G = gen_random_digraph(n, 0.05, True, seed)
            limits = SolverLimits(max_n=max_n, max_subsets=nodes)
            assert sorted(smallest_q_kernel(G, 2, limits)) == expected, n
            with pytest.raises(ResourceLimitError, match="budget exhausted"):
                smallest_q_kernel(G, 2, SolverLimits(max_n=max_n, max_subsets=nodes - 1))

    @pytest.mark.parametrize(
        "seed, source_free, expected, nodes",
        [(336000, False, True, 776), (336002, False, False, 482),
         (336000, True, True, 4_077), (336002, True, False, 2_558)],
        ids=["336000-True", "336002-False", "336000-source-free", "336002-source-free"],
    )
    def test_kernel_existence_stops_within_budget(self, seed, source_free, expected, nodes):
        # the first two graphs have 3 sources each, which every kernel
        # contains, so set-cover branching starts from them with no
        # lone-vertex scan: 776 and 482 nodes, where a scan and an empty start
        # take 3,988 and 2,893 and an ascending search over independent sets
        # 61,318 and 26,139; the source-free two take the scan's 48 nodes,
        # then 4,029 and 2,510, whichever branch rule the size search uses
        G = gen_random_digraph(48, 0.06, source_free, seed)
        assert has_kernel(G, SolverLimits(max_n=64, max_subsets=nodes)) is expected
        with pytest.raises(ResourceLimitError, match="budget exhausted"):
            has_kernel(G, SolverLimits(max_n=64, max_subsets=nodes - 1))

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
