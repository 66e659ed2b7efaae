"""Core digraph type and predicate tests, pinned against the brute oracles."""

import pickle
from dataclasses import FrozenInstanceError, fields
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasikernel.digraph import (
    CheckReport,
    Digraph,
    _bits,
    _q_kernel,
    _union,
    closed_in,
    closed_out,
    has_directed_odd_cycle,
    induced,
    is_independent,
    is_kernel,
    is_large_qk,
    is_q_kernel,
    is_quasi_sink,
    is_tournament,
    out_neighbors,
    sources,
    strongly_connected_components,
    transpose,
)
from quasikernel.errors import VertexRangeError
from quasikernel.generators import enumerate_all_digraphs, gen_cycle, gen_random_digraph
from quasikernel.graphio import format_graph, parse_graph
from quasikernel.rng import SplitMix64
from quasikernel.solver import has_kernel

from oracles import (
    adjacency,
    brute_has_odd_cycle,
    brute_q_kernels,
    brute_sccs,
    brute_sources,
    independent,
    reach_within,
    set_reach,
)
from strategies import digraphs

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
C4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
PAIR = Digraph(2, [(0, 1), (1, 0)])


def expected_report(G, S, covered):
    """The smallest arc inside S, else the lowest vertex outside covered."""
    inside = sorted((u, v) for u, v in G.arcs if u in S and v in S)
    if inside:
        return CheckReport(False, inside[0])
    missing = set(range(G.n)) - covered
    return CheckReport(False, min(missing)) if missing else CheckReport(True)


class TestConstruction:
    def test_adjacency_is_sorted_and_mirrored(self):
        G = Digraph(4, [(2, 0), (2, 3), (2, 1), (0, 2)])
        assert adjacency(G.out_masks) == ((2,), (), (0, 1, 3), ())
        assert adjacency(G.in_masks) == ((2,), (2,), (0,), (2,))
        assert G.m == 4
        assert G.arcs == ((0, 2), (2, 0), (2, 1), (2, 3))

    def test_empty_graph(self):
        G = Digraph(0)
        assert G.n == 0 and G.m == 0 and G.full_mask == 0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            Digraph(-1)
        with pytest.raises(ValueError):
            Digraph(True)

    def test_rejects_loops_duplicates_and_range(self):
        with pytest.raises(ValueError, match="loop at vertex 1"):
            Digraph(2, [(1, 1)])
        with pytest.raises(ValueError, match="duplicate arc"):
            Digraph(2, [(0, 1), (0, 1)])
        with pytest.raises(VertexRangeError):
            Digraph(2, [(0, 2)])
        with pytest.raises(VertexRangeError):
            Digraph(2, [(True, 1)])

    def test_equality_and_hash(self):
        a = Digraph(3, [(0, 1), (1, 2)])
        b = Digraph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Digraph(3, [(0, 1)])
        assert a != Digraph(4, [(0, 1), (1, 2)])

    @settings(max_examples=80)
    @given(digraphs(max_n=7), st.randoms(use_true_random=False))
    def test_one_stored_representation(self, G, rnd):
        arcs = list(G.arcs)
        rnd.shuffle(arcs)
        for H in (
            Digraph(G.n, arcs),
            parse_graph(format_graph(G)),
            transpose(transpose(G)),
            induced(G, range(G.n))[0],
        ):
            assert H == G and hash(H) == hash(G)
            assert H.out_masks == G.out_masks
            assert H.in_masks == G.in_masks
        ins = [[] for _ in range(G.n)]
        for u, v in G.arcs:
            ins[v].append(u)
        assert adjacency(G.in_masks) == tuple(tuple(sorted(i)) for i in ins)
        assert sources(G) == {v for v in range(G.n) if not ins[v]}
        assert G.source_mask == sum(1 << v for v in range(G.n) if not ins[v])
        assert [f.name for f in fields(G)] == ["n", "out_masks"]
        with pytest.raises(FrozenInstanceError):
            G.out_masks = ()

    @settings(max_examples=60)
    @given(digraphs(max_n=7))
    def test_trusted_keeps_the_frozen_contract(self, G):
        # _trusted writes its fields into __dict__ and skips the dataclass
        # __init__; what it builds must still behave as a checked Digraph
        checked = Digraph(G.n, G.arcs)
        T = Digraph._trusted(G.n, iter(checked.out_masks))
        assert T == checked and hash(T) == hash(checked)
        assert type(T.out_masks) is tuple and T.out_masks == checked.out_masks
        assert T.__dict__ == {"n": G.n, "out_masks": checked.out_masks}
        for name in ("n", "out_masks", "in_masks"):
            with pytest.raises(FrozenInstanceError):
                setattr(T, name, 0)
            with pytest.raises(FrozenInstanceError):
                delattr(T, name)
        views = (
            "full_mask", "source_mask", "in_masks", "closed1_masks", "closed2_masks",
            "undirected_masks",
        )
        for view in views:
            built = getattr(T, view)
            assert built == getattr(checked, view)
            assert T.__dict__[view] is built and getattr(T, view) is built
        assert T == checked

    def test_repr_mentions_sizes(self):
        assert repr(C3) == "Digraph(n=3, m=3)"


class TestMasks:
    def test_mask_views_match_adjacency(self):
        G = Digraph(4, [(0, 1), (0, 2), (2, 3), (3, 0)])
        assert G.out_masks == (0b0110, 0, 0b1000, 0b0001)
        assert G.in_masks == (0b1000, 0b0001, 0b0001, 0b0100)
        assert G.closed1_masks[0] == 0b0111
        assert G.undirected_masks[0] == 0b1110

    @settings(max_examples=60)
    @given(digraphs(max_n=6))
    def test_closed2_matches_two_step_reach(self, G):
        for v in range(G.n):
            naive = reach_within(G, v, 2)
            mask = G.closed2_masks[v]
            assert {u for u in range(G.n) if (mask >> u) & 1} == naive

    @settings(max_examples=40)
    @given(digraphs(max_n=6), st.integers(0, 4))
    def test_reach_masks_match_oracle(self, G, q):
        reach = G.reach_masks(q)
        for v in range(G.n):
            naive = reach_within(G, v, q)
            assert {u for u in range(G.n) if (reach[v] >> u) & 1} == naive

    def test_reach_masks_rejects_negative(self):
        with pytest.raises(ValueError):
            C3.reach_masks(-1)
        with pytest.raises(ValueError):
            Digraph(0).reach_masks(-1)

    @settings(max_examples=60)
    @given(digraphs(max_n=8))
    def test_each_view_matches_its_definition_whichever_is_read_first(self, G):
        def mask(vs):
            return sum(1 << v for v in vs)

        out = adjacency(G.out_masks)
        ins = [{u for u in range(G.n) if v in out[u]} for v in range(G.n)]
        expected = {
            "in_masks": tuple(mask(i) for i in ins),
            "closed1_masks": tuple(mask(reach_within(G, v, 1)) for v in range(G.n)),
            "closed2_masks": tuple(mask(reach_within(G, v, 2)) for v in range(G.n)),
            "undirected_masks": tuple(
                mask(set(out[v]) | ins[v]) for v in range(G.n)
            ),
        }
        for first in expected:
            H = Digraph._trusted(G.n, G.out_masks)
            getattr(H, first)
            assert {view: getattr(H, view) for view in expected} == expected

    @settings(max_examples=60)
    @given(st.data())
    def test_union_of_wide_masks(self, data):
        row = st.integers(0, (1 << 200) - 1)
        rows = data.draw(st.lists(row, min_size=65, max_size=130))
        mask = data.draw(st.integers(1 << 64, (1 << len(rows)) - 1))
        assert _union(rows, mask) == reduce(or_, (rows[v] for v in _bits(mask)), 0)
        assert _union([1 << v for v in range(len(rows))], mask) == mask

    def test_q1_checks_leave_closed2_unbuilt(self):
        # closed2_masks walks every arc: on n = 2000, p = 0.5 that is about
        # 1,000 times what a q = 1 check costs
        for G in (C4, gen_cycle(5), gen_random_digraph(12, 0.3, False, 1)):
            for check in (lambda H: is_kernel(H, {0}), has_kernel):
                H = Digraph._trusted(G.n, G.out_masks)
                check(H)
                assert "closed2_masks" not in H.__dict__

    def test_views_are_built_once_and_survive_pickling(self):
        views = (
            "full_mask", "source_mask", "in_masks", "closed1_masks", "closed2_masks",
            "undirected_masks",
        )
        G = gen_random_digraph(9, 0.3, False, 4)
        assert not set(views) & set(G.__dict__)
        first = [getattr(G, view) for view in views]
        assert all(getattr(G, view) is seen for view, seen in zip(views, first))
        H = pickle.loads(pickle.dumps(G))
        assert H == G and H.out_masks == G.out_masks
        assert [getattr(H, view) for view in views] == first


class TestCheckReport:
    def test_truthiness(self):
        assert CheckReport(True)
        assert not CheckReport(False, 3)

    def test_witness_rules(self):
        with pytest.raises(ValueError):
            CheckReport(True, 1)
        with pytest.raises(ValueError):
            CheckReport(False)


class TestNeighborhoods:
    def test_out_neighbors(self):
        assert out_neighbors(C4, {0, 2}) == {1, 3}
        assert out_neighbors(C4, set()) == frozenset()

    def test_closed_out_examples(self):
        path = Digraph(3, [(0, 1), (1, 2)])
        assert closed_out(path, {0}) == {0, 1}
        assert closed_out(path, {0}, 2) == {0, 1, 2}
        assert closed_out(path, {0}, 0) == {0}

    def test_closures_reject_negative_q(self):
        for closure in (closed_out, closed_in):
            with pytest.raises(ValueError, match="q must be non-negative"):
                closure(C3, {0}, -1)

    def test_closed_in_mirrors_transpose(self):
        path = Digraph(3, [(0, 1), (1, 2)])
        assert closed_in(path, {2}, 2) == {0, 1, 2}
        assert closed_in(path, {0}) == {0}

    @settings(max_examples=50)
    @given(digraphs(max_n=6), st.integers(0, 3), st.data())
    def test_closed_out_matches_oracle(self, G, q, data):
        S = data.draw(st.sets(st.integers(0, max(G.n - 1, 0)), max_size=G.n)) if G.n else set()
        assert closed_out(G, S, q) == set_reach(G, S, q) | set(S)
        assert closed_in(G, S, q) == closed_out(transpose(G), S, q)
        out = adjacency(G.out_masks)
        assert out_neighbors(G, S) == {v for u in S for v in out[u]}

    @pytest.mark.parametrize(
        "G", [gen_cycle(7), Digraph(6, [(i, i + 1) for i in range(5)])]
    )
    def test_closures_reach_their_fixpoint(self, G):
        # radii up to and past n, where only the fixpoint stops the closure
        for q in range(2 * G.n + 2):
            for S in ({0}, {2}, {1, 4}, set(range(G.n))):
                assert closed_out(G, S, q) == set_reach(G, S, q)
                assert closed_in(G, S, q) == set_reach(transpose(G), S, q)
        assert closed_out(G, {0}, G.n) == set(range(G.n))

    def test_rejects_out_of_range_vertices(self):
        with pytest.raises(VertexRangeError):
            closed_out(C3, {5})
        with pytest.raises(VertexRangeError):
            out_neighbors(C3, {-1})


class TestPredicates:
    def test_sources(self):
        assert sources(Digraph(3, [(0, 1), (1, 2)])) == {0}
        assert sources(C3) == frozenset()
        assert sources(Digraph(2)) == {0, 1}

    @settings(max_examples=60)
    @given(digraphs(max_n=6))
    def test_sources_match_oracle(self, G):
        assert sources(G) == brute_sources(G)

    def test_is_independent_witness_is_an_arc(self):
        rep = is_independent(C3, {0, 1})
        assert not rep and rep.witness == (0, 1)
        assert rep.witness in C3.arcs
        assert is_independent(C3, {0})
        assert is_independent(C3, set())

    def test_is_kernel_examples(self):
        assert is_kernel(C4, {0, 2})
        assert is_kernel(C4, {1, 3})
        rep = is_kernel(C3, {0})
        assert not rep and rep.witness == 2
        rep = is_kernel(C3, {0, 1})
        assert not rep and rep.witness == (0, 1)

    def test_is_q_kernel_examples(self):
        assert is_q_kernel(C3, {0}, 2)
        assert not is_q_kernel(C4, {0}, 2)
        assert is_q_kernel(C4, {0}, 3)
        # q=1 recovers the kernel predicate
        assert bool(is_q_kernel(C4, {0, 2}, 1))
        with pytest.raises(ValueError):
            is_q_kernel(C3, {0}, 0)

    @settings(max_examples=60)
    @given(digraphs(max_n=5), st.data())
    def test_q_kernel_matches_oracle(self, G, data):
        S = data.draw(st.sets(st.integers(0, max(G.n - 1, 0)), max_size=G.n)) if G.n else set()
        expected = independent(G, S) and set_reach(G, S, 2) >= set(range(G.n))
        assert bool(is_q_kernel(G, S, 2)) == expected

    def test_quasi_sink_is_transpose_quasi_kernel(self):
        path = Digraph(3, [(0, 1), (1, 2)])
        assert is_quasi_sink(path, {2})
        assert not is_quasi_sink(path, {0})

    @settings(max_examples=60)
    @given(digraphs(max_n=6), st.data())
    def test_quasi_sink_matches_transpose(self, G, data):
        S = data.draw(st.sets(st.integers(0, max(G.n - 1, 0)), max_size=G.n)) if G.n else set()
        assert bool(is_quasi_sink(G, S)) == bool(is_q_kernel(transpose(G), S, 2))

    @settings(max_examples=80)
    @given(digraphs(max_n=6), st.data())
    def test_reports_name_the_oracle_witness(self, G, data):
        S = data.draw(st.sets(st.integers(0, max(G.n - 1, 0)), max_size=G.n)) if G.n else set()
        V = set(range(G.n))
        reaching = {u for u in V if reach_within(G, u, 2) & S}
        large = expected_report(G, S, set_reach(G, S, 2))
        one_step = set_reach(G, S, 1)
        if large and 2 * len(one_step) < G.n:
            large = CheckReport(False, min(V - one_step))
        # a one-shot iterator must be read once and give the same reports
        for given in (lambda: S, lambda: iter(S)):
            assert is_independent(G, given()) == expected_report(G, S, V)
            assert is_kernel(G, given()) == expected_report(G, S, set_reach(G, S, 1))
            for q in (1, 2, 3):
                expected = expected_report(G, S, set_reach(G, S, q))
                assert is_q_kernel(G, given(), q) == expected
            assert is_quasi_sink(G, given()) == expected_report(G, S, reaching)
            assert is_large_qk(G, given()) == large

    def test_set_local_cover_agrees_with_the_rows(self):
        # is_q_kernel and is_large_qk cover each set by its own closure; their
        # reports must equal the ones read off reach_masks(q), on every
        # subset of every digraph with n <= 4, and build no row
        for warm in (G for n in range(5) for G in enumerate_all_digraphs(n)):
            fresh = Digraph._trusted(warm.n, warm.out_masks)
            reach = {q: warm.reach_masks(q) for q in (1, 2, 3, 4)}
            subsets = [(mask, set(_bits(mask))) for mask in range(1 << warm.n)]
            for q, rows in reach.items():
                got = [is_q_kernel(fresh, S, q) for _, S in subsets]
                assert got == [_q_kernel(warm, m, _union(rows, m)) for m, _ in subsets]
            got = [bool(is_large_qk(fresh, S)) for _, S in subsets]
            assert got == [
                bool(_q_kernel(warm, m, _union(reach[2], m)))
                and 2 * _union(reach[1], m).bit_count() >= warm.n
                for m, _ in subsets
            ]
            assert "closed1_masks" not in fresh.__dict__

    def test_is_large_qk(self):
        assert is_large_qk(C4, {0, 2})
        # {0} misses vertex 3 within two steps, so it is not even a quasi-kernel
        rep = is_large_qk(C4, {0})
        assert not rep and rep.witness == 3
        # hub fan-out: {0} is a quasi-kernel but reaches only {0, 1} in one step
        fan = Digraph(
            6,
            [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 0), (3, 0), (4, 0), (5, 0)],
        )
        assert is_q_kernel(fan, {0}, 2)
        rep = is_large_qk(fan, {0})
        assert not rep and rep.witness == 2

    def test_is_tournament(self):
        assert is_tournament(C3)
        assert not is_tournament(C4)
        assert not is_tournament(PAIR)
        assert is_tournament(Digraph(1))
        assert is_tournament(Digraph(0))


class TestStructure:
    def test_induced_relabels(self):
        sub, relabel = induced(C4, {1, 2, 3})
        assert relabel == {1: 0, 2: 1, 3: 2}
        assert sub == Digraph(3, [(0, 1), (1, 2)])

    @settings(max_examples=40)
    @given(digraphs(max_n=6))
    def test_induced_on_everything_is_identity(self, G):
        sub, relabel = induced(G, range(G.n))
        assert sub == G
        assert relabel == {v: v for v in range(G.n)}

    def test_transpose(self):
        path = Digraph(3, [(0, 1), (1, 2)])
        assert transpose(path) == Digraph(3, [(1, 0), (2, 1)])

    @settings(max_examples=40)
    @given(digraphs(max_n=6))
    def test_transpose_involution(self, G):
        assert transpose(transpose(G)) == G

    def test_scc_examples(self):
        G = Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)])
        comps = strongly_connected_components(G)
        assert set(comps) == {frozenset({0, 1, 2}), frozenset({3, 4})}
        # reverse topological: {3,4} is downstream so it comes first
        assert comps[0] == frozenset({3, 4})

    @settings(max_examples=50)
    @given(digraphs(max_n=7))
    def test_scc_partition_and_order(self, G):
        comps = strongly_connected_components(G)
        seen = set()
        for comp in comps:
            assert comp and not (comp & seen)
            seen |= comp
        assert seen == set(range(G.n))
        pos = {}
        for i, comp in enumerate(comps):
            for v in comp:
                pos[v] = i
        # arcs between components must point from later to earlier entries
        for u, v in G.arcs:
            assert pos[u] >= pos[v]

    @settings(max_examples=80)
    @given(digraphs(max_n=7))
    def test_scc_sets_match_mutual_reachability(self, G):
        comps = strongly_connected_components(G)
        assert len(comps) == len(set(comps))
        assert set(comps) == brute_sccs(G)
        assert set(strongly_connected_components(transpose(G))) == set(comps)


class TestOddCycle:
    def test_examples(self):
        assert has_directed_odd_cycle(C3)
        assert not has_directed_odd_cycle(C4)
        # an anti-parallel pair is an even cycle, not an odd one
        assert not has_directed_odd_cycle(PAIR)
        assert not has_directed_odd_cycle(Digraph(3, [(0, 1), (1, 2)]))
        assert has_directed_odd_cycle(Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
        # odd walk around two even cycles sharing arcs stays even here
        assert not has_directed_odd_cycle(Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1)]))
        # directed triangle hidden inside a bidirected square
        mixed = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)])
        assert has_directed_odd_cycle(mixed)

    def test_exhaustive_small(self):
        for n in range(5):
            for G in enumerate_all_digraphs(n):
                assert has_directed_odd_cycle(G) == brute_has_odd_cycle(G), G.arcs

    @settings(max_examples=80)
    @given(digraphs(max_n=7))
    def test_transpose_keeps_the_answer(self, G):
        assert has_directed_odd_cycle(transpose(G)) == has_directed_odd_cycle(G)

    def test_random_medium_agrees_with_oracle(self):
        rng = SplitMix64(2024)
        for _ in range(400):
            n = 5 + rng.next_below(3)
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            arcs = [p for p in pairs if rng.next_float() < 0.25]
            G = Digraph(n, arcs)
            assert has_directed_odd_cycle(G) == brute_has_odd_cycle(G), G.arcs
