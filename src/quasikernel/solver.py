"""Exhaustive search for kernels and q-kernels on small digraphs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .digraph import Digraph, VertexSet, _bits, _set_of, out_neighbors, sources
from .errors import ResourceLimitError


@dataclass(frozen=True)
class SolverLimits:
    """Size and work caps for the exhaustive searches.

    max_n caps the vertex count.  max_subsets caps the search nodes a call
    may visit, None meaning no cap.  In the enumeration searches a node is
    one candidate independent set, tried in ascending vertex order.  In
    smallest_q_kernel and q_kernel_at_most, which branch on the lowest
    vertex not yet covered, a node is one branch or one vertex tried.
    """

    max_n: int = 24
    max_subsets: int | None = None

    def __post_init__(self):
        if self.max_n < 0:
            raise ValueError(f"max_n must be non-negative, got {self.max_n}")
        if self.max_subsets is not None and self.max_subsets < 0:
            raise ValueError(
                f"max_subsets must be non-negative, got {self.max_subsets}"
            )


DEFAULT_LIMITS = SolverLimits()


class _Budget:
    def __init__(self, cap: int | None):
        self.cap = cap
        self.used = 0

    def spend(self):
        self.used += 1
        if self.cap is not None and self.used > self.cap:
            raise ResourceLimitError("candidate subset budget exhausted")


def _budget(G: Digraph, limits: SolverLimits) -> _Budget:
    """A fresh node budget for a search on G, once G passes the max_n guard."""
    if G.n > limits.max_n:
        raise ResourceLimitError(f"n={G.n} exceeds max_n={limits.max_n}")
    return _Budget(limits.max_subsets)


def _hit_masks(reach, und, full: int, budget: _Budget):
    """Yield independent-set masks of G[full] whose closure covers full.

    reach holds G[full]'s per-vertex closure masks, 0 outside full, and und
    G's undirected-neighbour masks.  Vertices outside full start banned, so
    node counts match a search on G[full].  Only closed1_masks cut to full
    give G[full]'s own closures; at q >= 2 full must be all of V.

    DFS over ascending vertex indices, so hits come out in lexicographic
    order of their sorted member tuples.  Supersets of a hit are explored
    too since they may also be hits.
    """
    if full == 0:
        yield 0
        return
    n = len(reach)
    suffix = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] | reach[v]

    def rec(start, members, banned, cover):
        for v in range(start, n):
            bit = 1 << v
            if banned & bit:
                continue
            if cover | suffix[v] != full:
                # no extension using vertices >= v can complete the cover
                break
            budget.spend()
            new_cover = cover | reach[v]
            if new_cover == full:
                yield members | bit
            yield from rec(v + 1, members | bit, banned | bit | und[v], new_cover)

    yield from rec(0, 0, ~full, 0)


def _iter_hits(G, q, limits):
    budget = _budget(G, limits)
    return _hit_masks(G.reach_masks(q), G.undirected_masks, G.full_mask, budget)


def enumerate_q_kernels(G: Digraph, q: int = 2, limits: SolverLimits | None = None):
    """All q-kernels of G, sorted by size and then lexicographically."""
    if q < 1:
        raise ValueError("q must be at least 1")
    limits = limits or DEFAULT_LIMITS
    sets = [_set_of(m) for m in _iter_hits(G, q, limits)]
    return tuple(sorted(sets, key=lambda s: (len(s), tuple(sorted(s)))))


def enumerate_kernels(G: Digraph, limits: SolverLimits | None = None):
    """All kernels of G, sorted by size and then lexicographically."""
    return enumerate_q_kernels(G, 1, limits)


def has_kernel(G: Digraph, limits: SolverLimits | None = None) -> bool:
    limits = limits or DEFAULT_LIMITS
    return next(_iter_hits(G, 1, limits), None) is not None


def _smallest(
    G: Digraph, q: int, limits: SolverLimits, cap: int
) -> VertexSet | None:
    """Lexicographically smallest minimum q-kernel if it has at most cap members.

    Set-cover branching (Fomin and Kratsch, Exact Exponential Algorithms,
    2010): some member of every q-kernel reaches the lowest uncovered vertex u
    within q steps, so a search that tries each such vertex in ascending
    order, barring the siblings tried before it, misses no kernel.  Sizes are
    tried in ascending order, so the first size that succeeds is the minimum.
    The witness is then fixed one member at a time, each the lowest vertex
    that still has a completion of the remaining size above it, which makes
    it the lexicographically smallest set of that size.  Every branch and
    every vertex tried costs one budget node.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    budget = _budget(G, limits)
    n, full = G.n, G.full_mask
    if n == 0:
        return frozenset()
    if cap < 1:
        return None
    reach = G.reach_masks(q)
    for v in range(n):
        budget.spend()
        if reach[v] == full:
            return frozenset({v})
    in_reach = [0] * n
    for v, m in enumerate(reach):
        for u in _bits(m):
            in_reach[u] |= 1 << v
    und = G.undirected_masks

    # The branch loop here and the witness loop below walk their masks by
    # hand: through _bits the sparse n = 28/32 solves ran about 40% slower.
    def completes(cover, allowed, k):
        """Whether at most k independent vertices of allowed finish cover."""
        missing = full & ~cover
        if not missing:
            return True
        if k == 0:
            return False
        branches = in_reach[(missing & -missing).bit_length() - 1] & allowed
        while branches:
            bit = branches & -branches
            branches ^= bit
            allowed ^= bit
            budget.spend()
            v = bit.bit_length() - 1
            if completes(cover | reach[v], allowed & ~und[v], k - 1):
                return True
        return False

    size = next((k for k in range(2, min(cap, n) + 1) if completes(0, full, k)), None)
    if size is None:
        return None
    members, cover, allowed = [], 0, full
    for left in range(size - 1, -1, -1):
        rest = allowed
        while True:
            bit = rest & -rest
            rest ^= bit
            budget.spend()
            v = bit.bit_length() - 1
            above = rest & ~und[v]
            if completes(cover | reach[v], above, left):
                break
        members.append(v)
        cover |= reach[v]
        allowed = above
    return frozenset(members)


def q_kernel_at_most(
    G: Digraph, q: int, max_size: int, limits: SolverLimits | None = None
) -> VertexSet | None:
    """The smallest_q_kernel answer if it has at most max_size vertices, else None."""
    if max_size < 0:
        raise ValueError("max_size must be non-negative")
    return _smallest(G, q, limits or DEFAULT_LIMITS, max_size)


def smallest_q_kernel(
    G: Digraph, q: int = 2, limits: SolverLimits | None = None
) -> VertexSet | None:
    """Minimum-size q-kernel, lexicographically smallest among ties.

    None is possible only for q=1, where kernels may not exist.
    """
    return _smallest(G, q, limits or DEFAULT_LIMITS, G.n)


def has_two_disjoint_qks(
    G: Digraph, q: int = 2, limits: SolverLimits | None = None
):
    """First disjoint pair from the sorted q-kernel enumeration, or None."""
    qks = enumerate_q_kernels(G, q, limits)
    for i in range(len(qks)):
        for j in range(i + 1, len(qks)):
            if not qks[i] & qks[j]:
                return qks[i], qks[j]
    return None


def is_kernel_perfect(G: Digraph, limits: SolverLimits | None = None):
    """Whether every induced subgraph has a kernel.

    Returns (True, None) or (False, witness) where witness is the first
    kernel-free vertex subset in size-ascending, then lexicographic, order.
    """
    limits = limits or DEFAULT_LIMITS
    budget = _budget(G, limits)
    closed1, und = G.closed1_masks, G.undirected_masks
    for size in range(1, G.n + 1):
        for combo in combinations(range(G.n), size):
            W = sum(1 << v for v in combo)
            reach = [c & W if (W >> v) & 1 else 0 for v, c in enumerate(closed1)]
            if next(_hit_masks(reach, und, W, budget), None) is None:
                return False, frozenset(combo)
    return True, None


def kls_bound(G: Digraph) -> Fraction:
    """(n + #sources - |out-neighbourhood of the sources|) / 2, exactly."""
    S = sources(G)
    return Fraction(G.n + len(S) - len(out_neighbors(G, S)), 2)
