"""Exhaustive search for kernels and q-kernels on small digraphs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .digraph import Digraph, VertexSet, _reach, _set_of, out_neighbors, sources
from .errors import ResourceLimitError


@dataclass(frozen=True)
class SolverLimits:
    """Size and work caps for the exhaustive searches.

    max_n caps the vertex count.  max_subsets caps the search nodes a call
    may visit, None meaning no cap; the default of 10M nodes is about 10 s
    of search.  Every solver runs the one set-cover search, and a node is
    one vertex tried: by that search, or by the scans smallest_q_kernel
    makes around it for a lone vertex and for the witness.
    """

    max_n: int = 24
    max_subsets: int | None = 10_000_000

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


def _search(G: Digraph, q: int, budget: _Budget, visit):
    """The one exact search, as rec(members, cover, allowed, k) on G at radius q.

    Set-cover branching (Fomin and Kratsch, Exact Exponential Algorithms,
    2010): some member of every q-kernel reaches the lowest uncovered vertex
    u within q steps, so while cover is incomplete rec tries each allowed
    such vertex in ascending order, barring the siblings tried before it,
    and adds at most k more members.  Once cover is full it calls
    visit(members), then extends members by each independent subset of
    allowed.  So visit meets every independent extension of members within
    allowed that completes cover exactly once, and rec returns True as soon
    as visit does.  Every vertex tried costs one budget node.

    A packing bound, the standard lower bound of dominating-set branch and
    bound (van Rooij and Bodlaender, "Exact algorithms for dominating set",
    Discrete Applied Mathematics 159, 2011), cuts a branch that cannot
    finish within k: uncovered vertices whose allowed in-reach rows are
    pairwise disjoint each need a member of their own, and an uncovered
    vertex with an empty row needs one that no longer exists.  The walk
    runs only while k is below the number of uncovered vertices, the one
    case where the count can exceed k; enumeration, has_kernel and
    is_kernel_perfect start with k at least that number, and k minus it
    never falls, so they never pay for the walk.
    """
    full, reach, und = G.full_mask, G.reach_masks(q), G.undirected_masks
    # in-reach rows are built on first use: a small search needs few, and
    # building all n up front read about 7% slower on exhaustive-pool (10 s
    # runs, 2 shared cores, Python 3.11)
    in_reach = [None] * G.n

    # walks its masks by hand: through _bits the sparse n = 28/32 solves ran
    # about 40% slower
    def rec(members, cover, allowed, k):
        missing = full & ~cover
        if missing:
            if k == 0:
                return False
            u = (missing & -missing).bit_length() - 1
            row = in_reach[u]
            if row is None:
                row = in_reach[u] = _reach(G.in_masks, 1 << u, q)
            branches = row & allowed
            if k < missing.bit_count():
                used, need, rest = 0, 0, missing
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    w = bit.bit_length() - 1
                    row = in_reach[w]
                    if row is None:
                        row = in_reach[w] = _reach(G.in_masks, bit, q)
                    row &= allowed
                    if not row:
                        return False
                    if not row & used:
                        used |= row
                        need += 1
                        if need > k:
                            return False
        elif visit(members):
            return True
        else:
            branches = allowed
        while branches:
            bit = branches & -branches
            branches ^= bit
            allowed ^= bit
            budget.spend()
            v = bit.bit_length() - 1
            if rec(members | bit, cover | reach[v], allowed & ~und[v], k - 1):
                return True
        return False

    return rec


def _first(members) -> bool:
    return True


def _any_q_kernel(G: Digraph, q: int, limits: SolverLimits | None, visit) -> bool:
    """Call visit on each q-kernel mask of G until it returns True; whether it did."""
    budget = _budget(G, limits or DEFAULT_LIMITS)
    return _search(G, q, budget, visit)(0, 0, G.full_mask, G.n)


def enumerate_q_kernels(G: Digraph, q: int = 2, limits: SolverLimits | None = None):
    """All q-kernels of G, sorted by size and then lexicographically."""
    if q < 1:
        raise ValueError("q must be at least 1")
    hits = []
    _any_q_kernel(G, q, limits, hits.append)
    sets = [_set_of(m) for m in hits]
    return tuple(sorted(sets, key=lambda s: (len(s), tuple(sorted(s)))))


def enumerate_kernels(G: Digraph, limits: SolverLimits | None = None):
    """All kernels of G, sorted by size and then lexicographically."""
    return enumerate_q_kernels(G, 1, limits)


def has_kernel(G: Digraph, limits: SolverLimits | None = None) -> bool:
    return _any_q_kernel(G, 1, limits, _first)


def _smallest(
    G: Digraph, q: int, limits: SolverLimits, cap: int
) -> VertexSet | None:
    """Lexicographically smallest minimum q-kernel if it has at most cap members.

    Sizes are tried in ascending order, so the first size at which the search
    finds a q-kernel is the minimum.  The witness is then fixed one member at
    a time, each the lowest vertex that still has a completion of the
    remaining size above it, which makes it the lexicographically smallest
    set of that size.  Each vertex tried there costs one budget node too.
    The set the size search found guides that walk: while the witness so far
    is a prefix of it, its next member is taken without a search, since the
    rest of it completes the cover.  Once a lower vertex has a completion
    of its own, the witness leaves that set and the guide is dropped.
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
    # a lone vertex that reaches all of V answers most small graphs; this scan
    # spares them the masks the search builds
    for v in range(n):
        budget.spend()
        if reach[v] == full:
            return frozenset({v})
    und = G.undirected_masks
    found = []

    def keep(members):
        found.append(members)
        return True

    completes = _search(G, q, budget, keep)
    size = next((k for k in range(2, min(cap, n) + 1) if completes(0, 0, full, k)), None)
    if size is None:
        return None
    guide = found[0]
    members, cover, allowed = [], 0, full
    for left in range(size - 1, -1, -1):
        rest = allowed
        while True:
            bit = rest & -rest
            rest ^= bit
            budget.spend()
            v = bit.bit_length() - 1
            above = rest & ~und[v]
            if bit & guide:
                break
            if completes(0, cover | reach[v], above, left):
                guide = 0
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
    budget = _budget(G, limits or DEFAULT_LIMITS)
    has_kernel_on = _search(G, 1, budget, _first)
    for size in range(1, G.n + 1):
        for combo in combinations(range(G.n), size):
            W = sum(1 << v for v in combo)
            if not has_kernel_on(0, G.full_mask & ~W, W, size):
                return False, frozenset(combo)
    return True, None


def kls_bound(G: Digraph) -> Fraction:
    """(n + #sources - |out-neighbourhood of the sources|) / 2, exactly."""
    S = sources(G)
    return Fraction(G.n + len(S) - len(out_neighbors(G, S)), 2)
