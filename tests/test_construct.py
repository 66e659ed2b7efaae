"""Constructive builder tests: shrinking, complement assembly, hairy, unicyclic."""

import hashlib
import json
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasikernel import construct
from quasikernel.construct import (
    ConstructionTrace,
    HairyPartition,
    _blown_up_degrees,
    _validate_unicyclic,
    find_king,
    hairy_small_qk,
    shrink_good_qk,
    small_qk_from_kernel_complement,
    unicyclic_small_qk,
)
from quasikernel.digraph import (
    Digraph,
    closed_out,
    induced,
    is_q_kernel,
    out_neighbors,
    sources,
)
from quasikernel.errors import (
    PreconditionError,
    QkError,
    StructureError,
    VerificationError,
)
from quasikernel.generators import (
    gen_cycle,
    gen_random_digraph,
    gen_random_hairy,
    gen_random_unicyclic,
    gen_tight_hairy,
)
from quasikernel.greedy import Ordering, cl_algorithm
from quasikernel.solver import enumerate_kernels, enumerate_q_kernels

from oracles import brute_smallest
from strategies import source_free_digraphs, tournaments

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
C4 = gen_cycle(4)
C5 = gen_cycle(5)

HAIRY_TRIANGLE = Digraph(
    6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]
)


def _is_good(G, Q):
    return Q <= out_neighbors(G, out_neighbors(G, Q))


class TestShrinkGoodQk:
    def test_already_minimal(self):
        trace = shrink_good_qk(C4, {0, 2})
        assert trace.result == {0, 2}
        assert trace.method == "good"
        assert trace.intermediates == {"Q": frozenset({0, 2})}
        assert trace.bound == Fraction(4, 2)
        assert trace.size == 2

    def test_drops_dominated_member(self):
        G = Digraph(4, [(0, 2), (0, 3), (1, 3), (2, 0), (2, 1), (3, 1)])
        assert _is_good(G, frozenset({0, 1}))
        trace = shrink_good_qk(G, {0, 1})
        assert trace.result == {0}

    def test_rejects_sources(self):
        G = Digraph(3, [(0, 1), (1, 2), (2, 1)])
        with pytest.raises(PreconditionError, match=r"sources \[0\]"):
            shrink_good_qk(G, {0, 2})

    def test_rejects_non_quasi_kernel(self):
        with pytest.raises(PreconditionError, match="not a quasi-kernel"):
            shrink_good_qk(C4, {0})

    def test_rejects_non_good_input(self):
        # {0} is a quasi-kernel of the triangle but nothing reaches back to 0
        # in two steps from {1}
        with pytest.raises(PreconditionError, match="not good: vertex 0"):
            shrink_good_qk(C3, {0})

    @settings(max_examples=60, deadline=None)
    @given(source_free_digraphs(max_n=7))
    def test_shrink_preserves_neighbourhood(self, G):
        for Q in enumerate_q_kernels(G):
            if _is_good(G, Q):
                trace = shrink_good_qk(G, Q)
                assert trace.result <= Q
                assert out_neighbors(G, trace.result) == out_neighbors(G, Q)
                assert 2 * trace.size <= G.n
                assert is_q_kernel(G, trace.result, 2)
                break


class TestKernelComplement:
    def test_five_cycle_full_trace(self):
        trace = small_qk_from_kernel_complement(C5, {0, 2}, {4})
        assert trace.result == {0, 2}
        assert trace.method == "complement"
        assert trace.bound == Fraction(5, 2)
        expected = {
            "A": {0, 2},
            "B": {1, 3},
            "C": {4},
            "K": {4},
            "D": {0},
            "J": {1},
            "F": {2},
            "H": {3},
            "B'": set(),
            "A'": set(),
            "F1": set(),
            "F2": {2},
            "A''": set(),
            "Q1": {2, 4},
            "Q2": {0, 2},
        }
        assert trace.intermediates == {k: frozenset(v) for k, v in expected.items()}

    def test_prune_drops_a_redundant_vertex(self):
        # 1 has no out-arc, so A' keeps only 0 to cover B' = {2}
        G = Digraph(3, [(0, 2), (2, 0), (2, 1)])
        trace = small_qk_from_kernel_complement(G, {0, 1}, frozenset())
        assert trace.result == {0}
        assert trace.intermediates["B'"] == {2}
        assert trace.intermediates["A'"] == {0}
        assert trace.intermediates["A''"] == {1}
        assert trace.intermediates["Q1"] == {0}

    def test_degenerate_empty_remainder(self):
        trace = small_qk_from_kernel_complement(C4, {0, 2}, frozenset())
        assert trace.result == {0, 2}
        assert trace.intermediates["C"] == frozenset()

    def test_rejects_sources(self):
        G = Digraph(3, [(0, 1), (1, 2), (2, 1)])
        with pytest.raises(PreconditionError, match="sources"):
            small_qk_from_kernel_complement(G, {0, 2}, frozenset())

    def test_rejects_non_quasi_kernel(self):
        with pytest.raises(PreconditionError, match="not a quasi-kernel"):
            small_qk_from_kernel_complement(C5, {0}, frozenset())

    def test_rejects_kernel_outside_remainder(self):
        with pytest.raises(PreconditionError, match=r"vertices \[0\] lie outside"):
            small_qk_from_kernel_complement(C5, {0, 2}, {0})

    def test_rejects_non_kernel_of_remainder(self):
        # the witness is a vertex of G: C = {4} is left uncovered by the empty kernel
        with pytest.raises(
            PreconditionError, match="not a kernel of the uncovered part, witness 4$"
        ):
            small_qk_from_kernel_complement(C5, {0, 2}, frozenset())

    def test_failing_candidate_is_reported_not_dropped(self, monkeypatch):
        # with no pruning Q1 comes out empty; Q2 = A still verifies, but the
        # broken candidate must raise rather than lose to it silently
        G = gen_random_digraph(4, 0.1, True, 0)
        A = cl_algorithm(G, Ordering.natural(G.n))
        monkeypatch.setattr(construct, "_prune_cover", lambda G, cands, targets: 0)
        with pytest.raises(VerificationError) as exc:
            small_qk_from_kernel_complement(G, A, frozenset())
        assert str(exc.value) == (
            "complement candidate [] fails the quasi-kernel check, witness 0"
        )
        assert exc.value.trace["Q2"] == A

    @settings(max_examples=60, deadline=None)
    @given(source_free_digraphs(max_n=7))
    def test_random_instances_verify_and_fit(self, G):
        for A in enumerate_q_kernels(G):
            c_part = frozenset(range(G.n)) - closed_out(G, A)
            H, relabel = induced(G, c_part)
            kernels = enumerate_kernels(H)
            if not kernels:
                continue
            back = {new: old for old, new in relabel.items()}
            K = frozenset(back[v] for v in kernels[0])
            trace = small_qk_from_kernel_complement(G, A, K)
            assert is_q_kernel(G, trace.result, 2)
            assert 2 * trace.size <= G.n
            assert set(trace.intermediates) == {
                "A", "B", "C", "K", "D", "J", "F", "H",
                "B'", "A'", "F1", "F2", "A''", "Q1", "Q2",
            }
            break


class TestHairyPartition:
    def test_from_digraph(self):
        part = HairyPartition.from_digraph(HAIRY_TRIANGLE)
        assert part.tournament_part == {0, 1, 2}
        assert part.hair_part == {3, 4, 5}
        assert part.owner == {3: 0, 4: 1, 5: 2}
        part.validate(HAIRY_TRIANGLE)

    def test_validate_overlap(self):
        part = HairyPartition({0, 1, 2, 3}, {3, 4, 5}, {3: 0, 4: 1, 5: 2})
        with pytest.raises(PreconditionError, match=r"overlap at \[3\]"):
            part.validate(HAIRY_TRIANGLE)

    def test_validate_partition_mismatch(self):
        part = HairyPartition({0, 1}, {3, 4, 5}, {3: 0, 4: 1, 5: 2})
        with pytest.raises(PreconditionError, match="do not partition"):
            part.validate(HAIRY_TRIANGLE)

    def test_validate_tournament_break(self):
        G = Digraph(3, [(0, 1), (1, 2)])
        part = HairyPartition({0, 1, 2}, frozenset(), {})
        with pytest.raises(PreconditionError, match=r"pair \(0, 2\)"):
            part.validate(G)

    def test_validate_owner_keys(self):
        part = HairyPartition({0, 1, 2}, {3, 4, 5}, {3: 0, 4: 1})
        with pytest.raises(PreconditionError, match="owner map keys"):
            part.validate(HAIRY_TRIANGLE)

    def test_validate_hair_with_out_arc(self):
        G = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)])
        part = HairyPartition({0, 1, 2}, {3}, {3: 0})
        with pytest.raises(PreconditionError, match="hair 3 has out-arcs"):
            part.validate(G)

    def test_strict_rejects_second_in_arc(self):
        G = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)])
        part = HairyPartition({0, 1, 2}, {3}, {3: 0})
        with pytest.raises(PreconditionError, match="exactly one in-arc"):
            part.validate(G)
        part.validate(G, relaxed=True)

    def test_strict_owner_must_match(self):
        part = HairyPartition({0, 1, 2}, {3, 4, 5}, {3: 1, 4: 1, 5: 2})
        with pytest.raises(PreconditionError, match="unique in-neighbor"):
            part.validate(HAIRY_TRIANGLE)

    def test_relaxed_owner_must_be_in_neighbor(self):
        G = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)])
        part = HairyPartition({0, 1, 2}, {3}, {3: 2})
        with pytest.raises(PreconditionError, match="not one of its in-neighbors"):
            part.validate(G, relaxed=True)

    @pytest.mark.parametrize("owner", [-1, 4])
    def test_owner_outside_the_vertex_range(self, owner):
        # an owner that is no vertex at all fails like any wrong owner
        G = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        part = HairyPartition({0, 1, 2}, {3}, {3: owner})
        with pytest.raises(PreconditionError) as strict:
            part.validate(G)
        assert str(strict.value) == "owner of hair 3 must be its unique in-neighbor"
        with pytest.raises(PreconditionError) as relaxed:
            part.validate(G, relaxed=True)
        assert str(relaxed.value) == "owner of hair 3 is not one of its in-neighbors"

    def test_relaxed_rejects_in_arc_from_a_hair(self):
        G = Digraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (4, 3), (1, 4)])
        part = HairyPartition({0, 1, 2}, {3, 4}, {3: 0, 4: 1})
        with pytest.raises(
            PreconditionError, match="hair 3 has an in-arc from outside the tournament part"
        ):
            part.validate(G, relaxed=True)

    def test_relaxed_rejects_isolated_hair(self):
        G = Digraph(4, [(0, 1), (1, 2), (2, 0)])
        part = HairyPartition({0, 1, 2}, {3}, {3: 0})
        with pytest.raises(PreconditionError, match="hair 3 has no in-arc"):
            part.validate(G, relaxed=True)


class TestBlownUpDegrees:
    def test_uniform_triangle(self):
        part = HairyPartition.from_digraph(HAIRY_TRIANGLE)
        assert _blown_up_degrees(HAIRY_TRIANGLE, part) == {0: 3, 1: 3, 2: 3}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 6), st.integers(0, 3), st.integers(0, 2**32))
    def test_max_degree_covers_half_the_blow_up(self, m, max_hairs, seed):
        G, part = gen_random_hairy(m, max_hairs, seed)
        degs = _blown_up_degrees(G, part)
        # each root beats whole blocks: itself plus the hairs it owns
        block = {a: 1 + list(part.owner.values()).count(a) for a in part.tournament_part}
        assert degs == {
            a: block[a] - 1 + sum(block[b] for b in block if G.out_masks[a] >> b & 1)
            for a in sorted(block)
        }
        assert max(degs.values()) >= (G.n - 1) / 2
        # degrees count each beaten block once, so they sum over pairs
        assert sum(degs.values()) <= G.n * (G.n - 1) // 2


class TestHairySmallQk:
    def test_triangle_with_hairs(self):
        part = HairyPartition.from_digraph(HAIRY_TRIANGLE)
        trace = hairy_small_qk(HAIRY_TRIANGLE, part)
        assert trace.result == {0, 5}
        assert trace.method == "hairy"
        assert trace.intermediates == {
            "A": frozenset({0, 1, 2}),
            "I": frozenset({3, 4, 5}),
            "king": frozenset({0}),
        }
        assert trace.bound == Fraction(6, 2)

    def test_tight_family(self):
        G, part, _ = gen_tight_hairy(1)
        trace = hairy_small_qk(G, part)
        assert trace.result == {0, 9, 10, 11}
        assert 2 * trace.size <= G.n

    def test_relaxed_shared_hairs(self):
        # four hairs each fed by vertices 1 and 2, all owned by 1: the king
        # is 0 and its sole tournament in-neighbor 2 owns nothing, so the
        # result is just the king rather than every hair 0 fails to beat
        arcs = [(0, 1), (1, 2), (2, 0)]
        for h in (3, 4, 5, 6):
            arcs += [(1, h), (2, h)]
        G = Digraph(7, arcs)
        part = HairyPartition({0, 1, 2}, {3, 4, 5, 6}, {h: 1 for h in (3, 4, 5, 6)})
        with pytest.raises(PreconditionError):
            hairy_small_qk(G, part)
        trace = hairy_small_qk(G, part, relaxed=True)
        assert trace.result == {0}
        assert 2 * trace.size <= G.n

    def test_rejects_sources(self):
        G = Digraph(4, [(0, 1), (1, 2), (2, 1), (1, 3)])
        part = HairyPartition({0, 1, 2}, {3}, {3: 1})
        with pytest.raises(PreconditionError, match="sources"):
            hairy_small_qk(G, part)

    def test_wrong_king_fails_verification(self, monkeypatch):
        # 1 is not a king: it reaches 3 only in three steps
        G = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (3, 2)])
        monkeypatch.setattr(construct, "_blown_up_degrees", lambda G, p: {1: 1})
        with pytest.raises(VerificationError) as exc:
            hairy_small_qk(G, HairyPartition.from_digraph(G))
        assert str(exc.value) == (
            "hairy construction result [1] fails the quasi-kernel check, witness 3"
        )
        assert exc.value.trace["king"] == {1}

    def test_rejects_empty_tournament_part(self):
        with pytest.raises(PreconditionError, match="tournament part is empty"):
            hairy_small_qk(Digraph(0), HairyPartition(frozenset(), frozenset(), {}))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 7), st.integers(0, 3), st.integers(0, 2**32))
    def test_random_hairy_instances(self, m, max_hairs, seed):
        G, part = gen_random_hairy(m, max_hairs, seed)
        trace = hairy_small_qk(G, part)
        assert 2 * trace.size <= G.n
        assert is_q_kernel(G, trace.result, 2)
        king = min(trace.intermediates["king"])
        assert king in trace.result
        assert trace.result - {king} <= part.hair_part


class TestFindKing:
    def test_examples(self):
        assert find_king(C3) == 0
        assert find_king(Digraph(3, [(0, 1), (0, 2), (1, 2)])) == 0
        assert find_king(Digraph(1)) == 0

    def test_rejects_non_tournament(self):
        with pytest.raises(PreconditionError, match="not a tournament"):
            find_king(C4)

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError, match="no king"):
            find_king(Digraph(0))

    def test_a_miss_names_the_lowest_vertex_missed(self, monkeypatch):
        # the sink of the transitive 3-tournament reaches neither other vertex
        monkeypatch.setattr(construct, "_max_out_degree_vertex", lambda G: 2)
        with pytest.raises(VerificationError) as exc:
            find_king(Digraph(3, [(0, 1), (0, 2), (1, 2)]))
        assert str(exc.value) == "max out-degree vertex 2 misses vertex 0 within two steps"

    def test_builds_no_closed2_masks(self):
        G = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert find_king(G) == 0
        assert "closed2_masks" not in G.__dict__

    @settings(max_examples=80, deadline=None)
    @given(tournaments(max_n=8))
    def test_king_properties(self, G):
        king = find_king(G)
        degree = [m.bit_count() for m in G.out_masks]
        best = max(degree)
        assert degree[king] == best
        assert all(degree[v] < best for v in range(king))
        assert is_q_kernel(G, {king}, 2) or G.n == 0


class TestUnicyclicValidation:
    def test_rejects_empty(self):
        with pytest.raises(StructureError, match="empty graph"):
            unicyclic_small_qk(Digraph(0))

    def test_rejects_anti_parallel(self):
        G = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
        with pytest.raises(StructureError, match=r"anti-parallel pair \(0, 1\)"):
            unicyclic_small_qk(G)

    def test_rejects_disconnected(self):
        G = Digraph(4, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(StructureError, match="vertex 3 unreachable"):
            unicyclic_small_qk(G)

    def test_rejects_tree(self):
        G = Digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(StructureError, match="acyclic"):
            unicyclic_small_qk(G)

    def test_rejects_two_cycles(self):
        G = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        with pytest.raises(StructureError, match="more than one cycle"):
            unicyclic_small_qk(G)

    def test_rejects_source(self):
        G = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
        with pytest.raises(StructureError, match="source vertex 0"):
            unicyclic_small_qk(G)

    def test_cycle_extraction_order(self):
        G = Digraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)])
        assert _validate_unicyclic(G) == [0, 1, 2]
        assert _validate_unicyclic(gen_cycle(4)) == [0, 1, 2, 3]


class TestUnicyclicSmallQk:
    def test_triangle_with_tail(self):
        G = Digraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)])
        trace = unicyclic_small_qk(G)
        assert trace.result == {0}
        assert trace.method == "unicyclic"
        assert trace.bound == Fraction(5, 3)
        assert trace.intermediates["cycle"] == {0, 1, 2}
        cands = {
            trace.intermediates["candidate_1"],
            trace.intermediates["candidate_2"],
            trace.intermediates["candidate_3"],
        }
        assert cands == {frozenset({0}), frozenset({1, 3}), frozenset({2, 4})}

    def test_five_cycle_keeps_listed_tie_break(self):
        assert unicyclic_small_qk(C5).result == {1, 4}

    def test_triangle_with_deep_chain(self):
        G = Digraph(7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6)])
        trace = unicyclic_small_qk(G)
        assert trace.result == {0, 5}
        assert trace.intermediates["candidate_2"] == {1, 3, 6}
        assert trace.intermediates["candidate_3"] == {2, 4}

    def test_four_cycle_with_leaves_stays_small(self):
        # leaves hanging off one cycle vertex must not inflate the result
        for k in (1, 2, 3):
            arcs = [(0, 1), (1, 2), (2, 3), (3, 0)]
            arcs += [(1, 4 + i) for i in range(k)]
            G = Digraph(4 + k, arcs)
            trace = unicyclic_small_qk(G)
            assert trace.size == 2
            assert 3 * trace.size <= G.n + 2

    def test_pure_cycles_hit_ceiling_third(self):
        for length in range(3, 13):
            trace = unicyclic_small_qk(gen_cycle(length))
            assert trace.size == ceil(length / 3), length
            assert Fraction(trace.size) <= trace.bound

    def test_long_even_cycle_uses_length_plus_one_bound(self):
        trace = unicyclic_small_qk(gen_cycle(8))
        assert trace.bound == Fraction(9, 3)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 26), st.integers(0, 2**32))
    def test_random_unicyclic_instances(self, n, seed):
        G, cycle = gen_random_unicyclic(n, seed)
        trace = unicyclic_small_qk(G)
        assert is_q_kernel(G, trace.result, 2)
        assert Fraction(trace.size) <= trace.bound
        assert trace.bound <= Fraction(G.n + 2, 3)
        assert trace.intermediates["cycle"] == frozenset(cycle)

    def test_trace_digest(self):
        # pins candidate order, tie-breaks, residue choices and the bound for
        # every cycle length mod 3; errors are part of the pinned text
        def line(G):
            try:
                t = unicyclic_small_qk(G)
            except QkError as e:
                return f"{type(e).__name__}: {e}"
            inter = [[k, sorted(v)] for k, v in t.intermediates.items()]
            return json.dumps([t.method, sorted(t.result), str(t.bound), inter])

        graphs = [gen_cycle(length) for length in range(2, 61)]
        graphs += [gen_random_unicyclic(3 + s % 30, s)[0] for s in range(1000)]
        text = "\n".join(map(line, graphs))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bd2256a2e512d008e64a7d79d7db8b150617ac4f99ed13a81daf10313ca33b77"
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 8), st.integers(0, 2**32))
    def test_never_beats_the_exact_minimum(self, n, seed):
        G, _ = gen_random_unicyclic(n, seed)
        trace = unicyclic_small_qk(G)
        assert len(brute_smallest(G)) <= trace.size
