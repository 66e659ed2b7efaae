"""Greedy scan tests: orderings, the two-phase pass, and the single-pass variant."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasikernel import greedy
from quasikernel.digraph import Digraph, is_independent, is_q_kernel
from quasikernel.errors import PreconditionError, VerificationError
from quasikernel.generators import (
    enumerate_all_digraphs,
    gen_cycle,
    gen_random_digraph,
    gen_three_hub,
)
from quasikernel.greedy import (
    Ordering,
    _greedy_scan,
    cl_algorithm,
    modified_cl,
    ordering_has_symmetric_back_property,
)

from oracles import back_violation, two_phase_greedy
from strategies import digraphs, source_free_digraphs

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])


class TestOrdering:
    def test_natural_and_len(self):
        o = Ordering.natural(4)
        assert o.perm == (0, 1, 2, 3)
        assert len(o) == 4

    def test_accepts_any_iterable(self):
        assert Ordering([2, 0, 1]).perm == (2, 0, 1)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            Ordering((0, 0, 1))
        with pytest.raises(ValueError):
            Ordering((1, 2))
        with pytest.raises(ValueError):
            Ordering((1.0, 0.0))

    def test_shuffled_is_deterministic(self):
        a = Ordering.shuffled(8, 7)
        assert a == Ordering.shuffled(8, 7)
        assert a.perm == (1, 4, 5, 2, 6, 0, 3, 7)
        assert Ordering.shuffled(0, 0).perm == ()


class TestGreedyScan:
    def test_scan_covers_every_vertex(self):
        G = Digraph(4, [(0, 1), (2, 3)])
        picks = _greedy_scan(G.closed1_masks, (0, 1, 2, 3))
        assert picks == [0, 2]

    @settings(max_examples=60)
    @given(digraphs(max_n=7), st.randoms(use_true_random=False))
    def test_scan_picks_one_step_cover(self, G, rnd):
        perm = list(range(G.n))
        rnd.shuffle(perm)
        picks = _greedy_scan(G.closed1_masks, perm)
        covered = 0
        for v in picks:
            covered |= G.closed1_masks[v]
        assert covered == G.full_mask


class TestClAlgorithm:
    def test_triangle_natural(self):
        assert cl_algorithm(C3, Ordering.natural(3)) == {2}

    def test_three_hub_leaf_first_keeps_three(self):
        G, _ = gen_three_hub(1)
        assert cl_algorithm(G, Ordering((3, 1, 0, 2, 4, 5))) == {1, 3, 5}

    def test_three_hub_hub_first(self):
        G, _ = gen_three_hub(1)
        assert cl_algorithm(G, Ordering.natural(6)) == {0, 4, 5}

    def test_every_ordering_of_small_hub_graph_stays_modest(self):
        # all 720 orderings: size always lands in [1, 2k+1] and min hits 2k+1
        G, _ = gen_three_hub(1)
        sizes = {len(cl_algorithm(G, Ordering(p))) for p in permutations(range(6))}
        assert min(sizes) == 3
        assert max(sizes) == 3

    def test_result_that_does_not_cover_raises(self, monkeypatch):
        monkeypatch.setattr(greedy, "_greedy_scan", lambda closed1, perm: [])
        with pytest.raises(VerificationError, match=r"greedy result \[\] fails .* witness 0"):
            cl_algorithm(C3, Ordering.natural(3))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            cl_algorithm(C3, Ordering.natural(4))

    def test_empty_graph(self):
        assert cl_algorithm(Digraph(0), Ordering.natural(0)) == frozenset()

    def test_matches_induced_subgraph_reference(self):
        for seed in range(400):
            n = seed % 10
            G = gen_random_digraph(n, (0.1, 0.3, 0.6)[seed % 3], False, seed)
            for ordering in (Ordering.natural(n), Ordering.shuffled(n, seed)):
                assert cl_algorithm(G, ordering) == two_phase_greedy(G, ordering.perm)

    @settings(max_examples=120)
    @given(digraphs(max_n=7), st.integers(0, 2**32))
    def test_result_is_always_a_quasi_kernel(self, G, seed):
        result = cl_algorithm(G, Ordering.shuffled(G.n, seed))
        assert is_independent(G, result)
        assert is_q_kernel(G, result, 2)


class TestBackProperty:
    def test_symmetric_graph_always_qualifies(self):
        G = Digraph(2, [(0, 1), (1, 0)])
        assert ordering_has_symmetric_back_property(G, Ordering.natural(2))
        assert ordering_has_symmetric_back_property(G, Ordering((1, 0)))

    def test_triangle_natural_fails(self):
        assert not ordering_has_symmetric_back_property(C3, Ordering.natural(3))

    def test_orientation_dependent(self):
        G = Digraph(2, [(1, 0)])
        assert not ordering_has_symmetric_back_property(G, Ordering.natural(2))
        assert ordering_has_symmetric_back_property(G, Ordering((1, 0)))


class TestBackViolation:
    """The one-row-per-position scan against the pair loop in oracles."""

    def test_every_digraph_up_to_four_vertices_under_every_ordering(self):
        for n in range(5):
            orderings = [Ordering(p) for p in permutations(range(n))]
            for G in enumerate_all_digraphs(n):
                for ordering in orderings:
                    pair = back_violation(G, ordering.perm)
                    assert greedy._back_violation(G, ordering) == pair
                    assert ordering_has_symmetric_back_property(G, ordering) == (
                        pair is None
                    )

    def test_symmetric_graphs_with_one_arc_dropped(self):
        for seed in range(150):
            n = 3 + seed % 10
            # a symmetric cycle plus random chords: every vertex keeps an
            # in-arc after any one arc is dropped
            edges = set(gen_cycle(n).arcs) | set(
                gen_random_digraph(n, (0.1, 0.3, 0.6)[seed % 3], False, seed).arcs
            )
            arcs = sorted(edges | {(v, u) for u, v in edges})
            k = seed % len(arcs)
            full, dropped = Digraph(n, arcs), Digraph(n, arcs[:k] + arcs[k + 1 :])
            orderings = (Ordering.natural(n), Ordering.shuffled(n, seed))
            for G in (full, dropped):
                for ordering in orderings:
                    pair = back_violation(G, ordering.perm)
                    assert greedy._back_violation(G, ordering) == pair
                    if pair is None:
                        assert 2 * len(modified_cl(G, ordering)) <= n
                        continue
                    i, j = pair
                    u, v = ordering.perm[j], ordering.perm[i]
                    with pytest.raises(PreconditionError) as exc:
                        modified_cl(G, ordering)
                    assert str(exc.value) == (
                        f"ordering violates the symmetric back property at positions "
                        f"({i}, {j}): arc {u}->{v} has no reverse companion"
                    )
            assert all(back_violation(full, o.perm) is None for o in orderings)


class TestModifiedCl:
    def test_complete_symmetric_graph(self):
        K4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
        assert modified_cl(K4, Ordering.natural(4)) == {0}

    def test_single_pair(self):
        G = Digraph(2, [(0, 1), (1, 0)])
        assert modified_cl(G, Ordering.natural(2)) == {0}

    def test_two_pairs(self):
        G = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert modified_cl(G, Ordering.natural(4)) == {0, 2}

    def test_rejects_sources(self):
        G = Digraph(3, [(0, 1), (1, 2), (2, 1)])
        with pytest.raises(PreconditionError, match=r"sources \[0\]"):
            modified_cl(G, Ordering.natural(3))

    def test_rejects_back_violations_with_positions(self):
        with pytest.raises(PreconditionError, match=r"positions \(0, 2\): arc 2->0"):
            modified_cl(C3, Ordering.natural(3))

    @settings(max_examples=100)
    @given(st.integers(2, 8), st.data())
    def test_symmetric_source_free_graphs_stay_below_half(self, n, data):
        # undirected graphs without isolated vertices, seen as symmetric digraphs
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = set(data.draw(st.lists(st.sampled_from(pairs), unique=True)))
        for v in range(n):
            if not any(v in e for e in edges):
                edges.add((min(v, (v + 1) % n), max(v, (v + 1) % n)))
        arcs = [(u, v) for (u, v) in edges] + [(v, u) for (u, v) in edges]
        G = Digraph(n, arcs)
        perm = list(range(n))
        data.draw(st.randoms(use_true_random=False)).shuffle(perm)
        Q = modified_cl(G, Ordering(perm))
        assert 2 * len(Q) <= n
        assert is_q_kernel(G, Q, 2)

    @settings(max_examples=80)
    @given(source_free_digraphs(max_n=7), st.integers(0, 2**32))
    def test_applies_whenever_preconditions_hold(self, G, seed):
        ordering = Ordering.shuffled(G.n, seed)
        if not ordering_has_symmetric_back_property(G, ordering):
            with pytest.raises(PreconditionError):
                modified_cl(G, ordering)
        else:
            Q = modified_cl(G, ordering)
            assert 2 * len(Q) <= G.n
            assert is_q_kernel(G, Q, 2)

    # a wrong closed1 view misleads the selection; the check reads closed2,
    # built from the true view first, and the out-masks
    def test_selection_that_does_not_cover_raises(self):
        G = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        G.closed2_masks
        G.__dict__["closed1_masks"] = (0b1111, 0b0011, 0b1100, 0b1100)
        with pytest.raises(VerificationError, match=r"selection \[0\] fails .* witness 2"):
            modified_cl(G, Ordering.natural(4))

    def test_selection_above_half_raises(self):
        G = Digraph(3, [(0, 2), (1, 2), (2, 0), (2, 1)])
        G.closed2_masks
        G.__dict__["closed1_masks"] = (0b001, 0b110, 0b111)
        with pytest.raises(VerificationError, match="2 vertices, above the size bound 3/2"):
            modified_cl(G, Ordering.natural(3))
