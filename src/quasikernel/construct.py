"""Constructive small quasi-kernel builders for structured digraphs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .digraph import (
    Digraph,
    VertexSet,
    _bits,
    _mask_of,
    _q_kernel,
    _reach,
    _set_of,
    _tournament_break,
    _union,
    is_q_kernel,
    is_tournament,
    sources,
)
from .errors import PreconditionError, StructureError, VerificationError


@dataclass(frozen=True)
class ConstructionTrace:
    """A verified constructive result together with its audit trail.

    result is the quasi-kernel, intermediates names the sets the construction
    passed through, and bound is the exact size guarantee the result was
    checked against before the trace was issued.
    """

    method: str
    result: VertexSet
    intermediates: dict[str, VertexSet]
    bound: Fraction

    @property
    def size(self) -> int:
        return len(self.result)


def _verify_qk(G: Digraph, result, bound, what: str, trace=None) -> None:
    """Raise VerificationError unless result is a quasi-kernel of at most bound.

    what names the result in the message; a caller with no size guarantee
    passes G.n, which every vertex set meets.
    """
    check = is_q_kernel(G, result, 2)
    if not check:
        raise VerificationError(
            f"{what} {sorted(result)} fails the quasi-kernel check, witness "
            f"{check.witness}",
            trace=trace,
        )
    if len(result) > bound:
        raise VerificationError(
            f"{what} has {len(result)} vertices, above the size bound {bound}",
            trace=trace,
        )


def _finish(G, method, result, intermediates, bound) -> ConstructionTrace:
    _verify_qk(G, result, bound, f"{method} construction result", intermediates)
    return ConstructionTrace(method, frozenset(result), dict(intermediates), bound)


def _require_source_free(G: Digraph) -> None:
    src = sources(G)
    if src:
        raise PreconditionError(f"graph has sources {sorted(src)}")


def _require_qk(G: Digraph, S) -> None:
    rep = is_q_kernel(G, S, 2)
    if not rep:
        raise PreconditionError(
            f"input set is not a quasi-kernel, witness {rep.witness}"
        )


def shrink_good_qk(G: Digraph, qk) -> ConstructionTrace:
    """Prune a good quasi-kernel without shrinking its out-neighbourhood.

    Requires a source-free graph and a quasi-kernel contained in the
    out-neighbourhood of its own out-neighbourhood.  Scanning members in
    ascending order, a vertex is kept only when it strictly grows the
    collected out-neighbourhood, so the result is no bigger than either the
    input or the input's out-neighbourhood, hence at most n/2.
    """
    qk = frozenset(qk)
    _require_source_free(G)
    _require_qk(G, qk)
    qk_mask = _mask_of(qk, G.n)
    out1_mask = _union(G.out_masks, qk_mask)
    stranded = qk_mask & ~_union(G.out_masks, out1_mask)
    if stranded:
        raise PreconditionError(
            f"input set is not good: vertex {next(_bits(stranded))} is not a "
            f"second out-neighbor of the set"
        )
    covered = 0
    keep = []
    for v in sorted(qk):
        if G.out_masks[v] & ~covered:
            keep.append(v)
            covered |= G.out_masks[v]
    if covered != out1_mask:
        raise VerificationError(
            "pruned set lost part of the out-neighbourhood", trace={"Q": qk}
        )
    return _finish(G, "good", frozenset(keep), {"Q": qk}, Fraction(G.n, 2))


def _prune_cover(G: Digraph, cands: int, targets: int) -> int:
    """Inclusion-minimal submask of cands out-dominating targets.

    Deletions are attempted in ascending vertex order.
    """
    if targets & ~_union(G.out_masks, cands):
        raise VerificationError("cover targets escape the candidate set")
    keep = cands
    for v in _bits(cands):
        trial = keep & ~(1 << v)
        if not targets & ~_union(G.out_masks, trial):
            keep = trial
    return keep


def small_qk_from_kernel_complement(G: Digraph, qk, kernel) -> ConstructionTrace:
    """Combine a quasi-kernel with a kernel of its uncovered part.

    V splits into the quasi-kernel A, its out-neighbourhood B, and the
    remainder C; kernel must be a kernel of the subgraph induced on C.  Two
    candidates are assembled, the kernel plus two pieces of A recovered
    through B, and A minus a redundant piece; the smaller verified candidate
    is returned and at least one of them fits under n/2.
    """
    A = frozenset(qk)
    K = frozenset(kernel)
    _require_source_free(G)
    _require_qk(G, A)
    n = G.n
    a_mask = _mask_of(A, n)
    b_mask = _union(G.out_masks, a_mask)
    c_mask = G.full_mask & ~(a_mask | b_mask)
    k_mask = _mask_of(K, n)
    if k_mask & ~c_mask:
        bad = sorted(_set_of(k_mask & ~c_mask))
        raise PreconditionError(
            f"kernel vertices {bad} lie outside the uncovered part"
        )
    krep = _q_kernel(G, k_mask, _union(G.closed1_masks, k_mask) | ~c_mask)
    if not krep:
        raise PreconditionError(
            f"input kernel is not a kernel of the uncovered part, witness "
            f"{krep.witness}"
        )
    out = G.out_masks
    d_mask = a_mask & _union(out, k_mask)
    j_mask = _union(out, d_mask) & b_mask
    f_mask = (_union(out, j_mask) & a_mask) & ~d_mask
    h_mask = (_union(out, f_mask) & b_mask) & ~j_mask
    bp_mask = b_mask & ~(j_mask | h_mask)
    ap_mask = _prune_cover(G, a_mask & ~(d_mask | f_mask), bp_mask)
    f2_mask = _prune_cover(G, f_mask, h_mask)
    f1_mask = f_mask & ~f2_mask
    a2_mask = a_mask & ~(ap_mask | f_mask | d_mask)
    q1_mask = k_mask | f_mask | ap_mask
    q2_mask = a_mask & ~f1_mask
    inter = {
        "A": A,
        "B": _set_of(b_mask),
        "C": _set_of(c_mask),
        "K": K,
        "D": _set_of(d_mask),
        "J": _set_of(j_mask),
        "F": _set_of(f_mask),
        "H": _set_of(h_mask),
        "B'": _set_of(bp_mask),
        "A'": _set_of(ap_mask),
        "F1": _set_of(f1_mask),
        "F2": _set_of(f2_mask),
        "A''": _set_of(a2_mask),
        "Q1": _set_of(q1_mask),
        "Q2": _set_of(q2_mask),
    }
    abc = a_mask.bit_count() + b_mask.bit_count() + c_mask.bit_count()
    big1 = 2 * (
        k_mask.bit_count() + ap_mask.bit_count() + f_mask.bit_count()
    ) > abc
    big2 = a_mask.bit_count() > 2 * f1_mask.bit_count() + b_mask.bit_count() + c_mask.bit_count()
    if big1 and big2:
        raise VerificationError(
            "both candidates exceed n/2 at once, which the size accounting "
            "rules out",
            trace=inter,
        )
    verified = []
    for mask in (q1_mask, q2_mask):
        cand = _set_of(mask)
        if is_q_kernel(G, cand, 2):
            verified.append(cand)
    if not verified:
        raise VerificationError(
            "neither assembled candidate is a quasi-kernel", trace=inter
        )
    result = min(verified, key=lambda s: (len(s), tuple(sorted(s))))
    return _finish(G, "complement", result, inter, Fraction(n, 2))


@dataclass(frozen=True)
class HairyPartition:
    """Split of a hairy tournament: tournament part, hairs, and hair owners."""

    tournament_part: VertexSet
    hair_part: VertexSet
    owner: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "tournament_part", frozenset(self.tournament_part))
        object.__setattr__(self, "hair_part", frozenset(self.hair_part))
        object.__setattr__(self, "owner", dict(self.owner))

    @classmethod
    def from_digraph(cls, G: Digraph) -> "HairyPartition":
        """Infer the partition: hairs are the out-degree-0, in-degree-1 vertices."""
        hairs = frozenset(
            v for v in range(G.n) if not G.out_adj[v] and len(G.in_adj[v]) == 1
        )
        owner = {h: G.in_adj[h][0] for h in sorted(hairs)}
        return cls(frozenset(range(G.n)) - hairs, hairs, owner)

    def validate(self, G: Digraph, relaxed: bool = False):
        """Raise PreconditionError unless the partition matches G.

        Strict hairs carry exactly one arc, from their owner.  Relaxed hairs
        may have several in-arcs, all from the tournament part, with the
        owner being one of the in-neighbors; either way hairs never have
        out-arcs.
        """
        A, I = self.tournament_part, self.hair_part
        if A & I:
            raise PreconditionError(f"parts overlap at {sorted(A & I)}")
        if A | I != frozenset(range(G.n)):
            off = sorted((A | I) ^ frozenset(range(G.n)))
            raise PreconditionError(f"parts do not partition V, mismatch {off}")
        pair = _tournament_break(G, sorted(A))
        if pair is not None:
            raise PreconditionError(f"tournament part breaks at pair {pair}")
        if set(self.owner) != set(I):
            raise PreconditionError("owner map keys must be exactly the hairs")
        a_mask = _mask_of(A, G.n)
        for h in sorted(I):
            if G.out_adj[h]:
                raise PreconditionError(f"hair {h} has out-arcs")
            ins = G.in_adj[h]
            if relaxed:
                if not ins:
                    raise PreconditionError(f"hair {h} has no in-arc")
                if _mask_of(ins, G.n) & ~a_mask:
                    raise PreconditionError(
                        f"hair {h} has an in-arc from outside the tournament part"
                    )
                if self.owner[h] not in ins:
                    raise PreconditionError(
                        f"owner of hair {h} is not one of its in-neighbors"
                    )
            else:
                if len(ins) != 1 or ins[0] not in A:
                    raise PreconditionError(
                        f"hair {h} must have exactly one in-arc, from the "
                        f"tournament part"
                    )
                if self.owner[h] != ins[0]:
                    raise PreconditionError(
                        f"owner of hair {h} must be its unique in-neighbor"
                    )


def _blown_up_degrees(G: Digraph, partition: HairyPartition) -> dict[int, int]:
    """Out-degree each tournament vertex gets after blowing blocks up.

    A block is a tournament vertex with its owned hairs; blocks inherit the
    tournament arcs wholesale and the root beats its own hairs, so the
    root's blown-up degree is the total size of the blocks it beats plus its
    hair count.  Hairs sit strictly below their root, so the maximum over
    roots is the maximum over the whole blow-up.
    """
    A = sorted(partition.tournament_part)
    block = {a: 1 for a in A}
    for a in partition.owner.values():
        block[a] += 1
    a_mask = _mask_of(partition.tournament_part, G.n)
    return {
        a: block[a] - 1 + sum(block[b] for b in _bits(G.out_masks[a] & a_mask))
        for a in A
    }


def hairy_small_qk(
    G: Digraph, partition: HairyPartition, relaxed: bool = False
) -> ConstructionTrace:
    """Small quasi-kernel of a hairy tournament via a blown-up king.

    The lowest-index vertex maximising the blown-up out-degree is a king of
    the tournament part and beats at least half of the blow-up, which caps
    the result: the king plus the hairs owned by its in-neighbors, minus
    anything the king beats directly.
    """
    _require_source_free(G)
    partition.validate(G, relaxed)
    if not partition.tournament_part:
        raise PreconditionError("tournament part is empty")
    degs = _blown_up_degrees(G, partition)
    king = max(sorted(degs), key=degs.__getitem__)
    hairs_of = {a: [] for a in partition.tournament_part}
    for h in sorted(partition.hair_part):
        hairs_of[partition.owner[h]].append(h)
    a_mask = _mask_of(partition.tournament_part, G.n)
    q_mask = 1 << king
    for a in _bits(G.in_masks[king] & a_mask):
        for h in hairs_of[a]:
            q_mask |= 1 << h
    q_mask &= ~G.out_masks[king]
    inter = {
        "A": partition.tournament_part,
        "I": partition.hair_part,
        "king": frozenset({king}),
    }
    return _finish(G, "hairy", _set_of(q_mask), inter, Fraction(G.n, 2))


def _max_out_degree_vertex(G: Digraph) -> int:
    """Lowest-index vertex of maximum out-degree; G must have a vertex."""
    return max(range(G.n), key=lambda v: G.out_masks[v].bit_count())


def find_king(G: Digraph) -> int:
    """Lowest-index maximum out-degree vertex of a tournament.

    Such a vertex reaches every other vertex within two steps; that is
    re-checked before returning.
    """
    if not is_tournament(G):
        raise PreconditionError("graph is not a tournament")
    if G.n == 0:
        raise PreconditionError("empty tournament has no king")
    king = _max_out_degree_vertex(G)
    if G.closed2_masks[king] != G.full_mask:
        raise VerificationError(
            f"vertex {king} does not reach every vertex within two steps"
        )
    return king


def _validate_unicyclic(G: Digraph) -> list[int]:
    """Check G is a connected source-free orientation with exactly one cycle.

    Returns the cycle in arc order, starting from its lowest-index vertex.
    """
    n = G.n
    if n == 0:
        raise StructureError("empty graph has no cycle")
    for u in range(n):
        anti = G.out_masks[u] & G.in_masks[u]
        if anti:
            raise StructureError(
                f"anti-parallel pair ({u}, {next(_bits(anti))}) is not an edge "
                f"orientation"
            )
    left = G.full_mask & ~_reach(G.undirected_masks, 1, n)
    if left:
        raise StructureError(
            f"underlying graph is disconnected, vertex {next(_bits(left))} "
            f"unreachable from 0"
        )
    if G.m < n:
        raise StructureError("underlying graph is acyclic (a tree)")
    if G.m > n:
        raise StructureError("underlying graph has more than one cycle")
    src = sources(G)
    if src:
        raise StructureError(f"source vertex {min(src)}")
    # every in-degree is exactly 1 now, so n predecessor steps end on the cycle
    pred = [G.in_adj[v][0] for v in range(n)]
    v = 0
    for _ in range(n):
        v = pred[v]
    cycle = [v]
    while pred[cycle[-1]] != v:
        cycle.append(pred[cycle[-1]])
    cycle.reverse()
    start = cycle.index(min(cycle))
    return cycle[start:] + cycle[:start]


def unicyclic_small_qk(G: Digraph) -> ConstructionTrace:
    """Small quasi-kernel of a source-free unicyclic orientation.

    The cycle gets one of three pick patterns with cyclic gaps of 2 or 3,
    fixed by the cycle length mod 3; every out-tree root then keeps the
    depth residue class that adds fewest vertices among the residues its
    pattern allows (the pattern decides which residues keep the tree both
    independent of the root and 2-covered).  Summed over the three patterns
    each vertex is charged at most once plus a small constant, so the
    smallest verified candidate meets the bound.
    """
    cycle = _validate_unicyclic(G)
    l = len(cycle)
    on_cycle = [False] * G.n
    for v in cycle:
        on_cycle[v] = True
    trees: dict[int, dict[int, list[int]]] = {}
    for i, root in enumerate(cycle, start=1):
        levels = {1: [], 2: [], 3: []}
        frontier = [root]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for w in G.out_adj[u]:
                    if not on_cycle[w]:
                        nxt.append(w)
            levels[depth % 3 or 3].extend(nxt)
            frontier = nxt
        trees[i] = levels
    s3 = l % 3
    if s3 == 0:
        patterns = [
            list(range(1, l + 1, 3)),
            list(range(2, l + 1, 3)),
            list(range(3, l + 1, 3)),
        ]
    elif s3 == 2:
        patterns = [
            list(range(2, l + 1, 3)),
            list(range(1, l, 3)),
            [1] + list(range(3, l - 1, 3)),
        ]
    else:
        s = l // 3
        patterns = [
            list(range(1, 3 * s - 1, 3)) + [3 * s],
            list(range(2, 3 * s, 3)) + [3 * s + 1],
            [1] + list(range(3, 3 * s + 1, 3)),
        ]
    candidates = []
    for pattern in patterns:
        pat = set(pattern)
        chosen = {cycle[i - 1] for i in pat}
        for i in range(1, l + 1):
            pred_pos = i - 1 if i > 1 else l
            if i in pat:
                allowed = (3, 2)
            elif pred_pos in pat:
                allowed = (2, 1)
            else:
                allowed = (1,)
            counts = {d: len(trees[i][d]) for d in allowed}
            best = min(allowed, key=lambda d: (counts[d], allowed.index(d)))
            chosen.update(trees[i][best])
        candidates.append(frozenset(chosen))
    inter = {"cycle": frozenset(cycle)}
    for idx, cand in enumerate(candidates, start=1):
        inter[f"candidate_{idx}"] = cand
    for cand in candidates:
        _verify_qk(G, cand, G.n, "cycle pattern candidate", inter)
    result = min(candidates, key=len)
    bound = {
        0: Fraction(G.n, 3),
        1: Fraction(G.n + 2, 3),
        2: Fraction(G.n + 1, 3),
    }[s3]
    return _finish(G, "unicyclic", result, inter, bound)
