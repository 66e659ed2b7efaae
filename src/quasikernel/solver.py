"""Exhaustive search for kernels and q-kernels on small digraphs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .digraph import Digraph, VertexSet, _reach, _set_of, _union
from .errors import ResourceLimitError


@dataclass(frozen=True)
class SolverLimits:
    """Size and work caps for the exhaustive searches.

    max_n caps the vertex count.  max_subsets caps the search nodes a call
    may visit, None meaning no cap; the default of 10M nodes is about 10 s
    of search.  Every solver runs the one set-cover search, and a node is
    one vertex tried: by that search, or by a scan around it.  Every
    q-kernel walk (enumeration, has_kernel, the size search) scans a
    source-free graph for lone-vertex q-kernels first, one node per vertex,
    and closes each vertex's q-step row only when it reaches it: a graph
    that the scan settles builds no reach view, and a scan that reads every
    row leaves the view built.  On a graph with sources, enumeration and
    has_kernel start from the sources instead, which every q-kernel
    contains: one node for a lone source, none for more, then a search over
    what the sources leave; the size search keeps its scan.  The size
    search scans for its witness after.
    max_n = 24 stays the one default because is_kernel_perfect's loop over
    all 2^n vertex subsets needs it; a larger sparse graph is solved by
    passing max_n (the CLI's --max-n) explicitly, and the size search solves
    the n = 112 graph gen_random_digraph(112, 0.05, True, 112000) in 26,428
    nodes.
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


def _budget(G: Digraph, limits: SolverLimits | None) -> _Budget:
    """A fresh node budget for a search on G, once G passes the max_n guard."""
    limits = limits or DEFAULT_LIMITS
    if G.n > limits.max_n:
        raise ResourceLimitError(f"n={G.n} exceeds max_n={limits.max_n}")
    return _Budget(limits.max_subsets)


def _search(G: Digraph, q: int, reach, budget: _Budget, visit):
    """The one exact search, as rec(members, cover, allowed, k) on G at radius q.

    Set-cover branching (Fomin and Kratsch, Exact Exponential Algorithms,
    2010): some member of every q-kernel reaches each uncovered vertex u
    within q steps, so while cover is incomplete rec picks one such u, tries
    each allowed vertex of its in-reach row in ascending order, barring the
    siblings tried before it, and adds at most k more members.  Once cover
    is full it calls visit(members), then extends members by each
    independent subset of allowed.  So visit meets every independent
    extension of members within allowed that completes cover exactly once,
    whichever u each node picks, and rec returns True as soon as visit does.
    Every vertex tried costs one budget node.  reach holds every row of
    G.reach_masks(q), as the lone-vertex scan returns them or as the view
    holds them.

    A packing bound, the standard lower bound of dominating-set branch and
    bound (van Rooij and Bodlaender, "Exact algorithms for dominating set",
    Discrete Applied Mathematics 159, 2011), cuts a branch that cannot
    finish within k: uncovered vertices whose allowed in-reach rows are
    pairwise disjoint each need a member of their own, and an uncovered
    vertex with an empty row needs one that no longer exists.  The walk
    runs only while k is below the number of uncovered vertices, the one
    case where the count can exceed k, and so only in the size search.
    Enumeration, has_kernel and is_kernel_perfect start with k at least the
    uncovered count, and k minus it never falls, so they never pay for the
    walk and always branch on the lowest uncovered vertex.

    The walk packs greedily twice.  The first pass takes the uncovered
    vertices in ascending order, building their allowed rows, and returns
    at the first refutation.  The second sorts the rows stably by size and
    packs them smallest first, which often keeps more rows disjoint and so
    cuts earlier.  Its first row is u's: the uncovered vertex with the fewest
    allowed candidates, the lowest such vertex on a tie, as the sort is
    stable.  That is the "fewest options first" rule of Knuth's Algorithm X
    ("Dancing links", arXiv cs/0011047, 2000).  When k is 1, the last
    member must lie in every uncovered row, so the walk intersects them in
    place of the second pass, returns once the intersection is empty, and
    branches only on what is left: the other candidates of u's row could
    not finish the cover.  Both rules cut only branches that meet no set,
    and neither changes the order of those that do, so the first set met
    and so every answer stay; only node counts change.

    A node whose cover is incomplete returns at once when k is 0 or allowed
    is empty.  With no vertex to try it would only build an in-reach row, so
    the cut moves no node count.
    """
    full, und = G.full_mask, G.undirected_masks
    # in-reach rows are built on first use: a small search needs few, and
    # building all n up front read about 7% slower on exhaustive-pool (10 s
    # runs, 2 shared cores, Python 3.11)
    in_reach = [None] * G.n

    # walks its masks by hand: through _bits the sparse n = 28/32 solves ran
    # about 40% slower
    def rec(members, cover, allowed, k):
        missing = full & ~cover
        if missing:
            if k == 0 or not allowed:
                return False
            if k < missing.bit_count():
                used, need, rest, rows = 0, 0, missing, []
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
                    rows.append(row)
                    if not row & used:
                        used |= row
                        need += 1
                        if need > k:
                            return False
                if k == 1:
                    branches = allowed
                    for row in rows:
                        branches &= row
                        if not branches:
                            return False
                else:
                    rows.sort(key=int.bit_count)
                    branches, used, need = rows[0], 0, 0
                    for row in rows:
                        if not row & used:
                            used |= row
                            need += 1
                            if need > k:
                                return False
            else:
                u = (missing & -missing).bit_length() - 1
                row = in_reach[u]
                if row is None:
                    row = in_reach[u] = _reach(G.in_masks, 1 << u, q)
                branches = row & allowed
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


def _singletons(G: Digraph, q: int, budget: _Budget, visit):
    """Call visit(1 << v) for each v whose closed q-step out-reach is all of
    V, that is each v for which {v} is a q-kernel of G, ascending, until it
    returns True.  Then None, or else every row of G.reach_masks(q).

    Every vertex tried costs one budget node.  A built view is read as it
    is; otherwise each row is closed only when the scan reaches its vertex,
    so a graph settled at vertex v closes rows 0..v and builds no reach
    view, nor in_masks, undirected_masks or an in-reach row.  A scan that
    reads every row leaves the q = 1 or 2 view built (a graph solved again
    reads it), and hands its rows to _search, which so builds none twice.
    """
    rows = G._reach_rows(q)
    full, read = G.full_mask, []
    for v, row in enumerate(rows):
        budget.spend()
        if row == full and visit(1 << v):
            return None
        read.append(row)
    return rows if isinstance(rows, tuple) else G._keep_reach(q, tuple(read))


def _first(members) -> bool:
    return True


def _q_kernels(
    G: Digraph, q: int, limits: SolverLimits | None, cap: int | None = None, wanted=None
) -> list[int]:
    """The q-kernel masks of G that wanted accepts, or all of them if it is None.

    Lone-vertex q-kernels come first, in ascending order, then the others
    the search meets, all from one node budget.  The walk stops once cap
    masks are found, so a shorter list holds every accepted q-kernel.

    A source is reached by nothing but itself, so every q-kernel contains
    the sources S.  When S is not empty the walk skips the lone-vertex scan:
    only a lone source can be a lone q-kernel, at one node.  The search then
    starts at members S, cover the q-step closure of S and allowed V minus S
    and its out-neighbours, all of S's neighbours since no arc enters a
    source.  When nothing is allowed, S is the one candidate left, and the
    walk builds no search, reach view, in_masks or undirected_masks.
    """
    budget = _budget(G, limits)
    full, found = G.full_mask, []

    def keep(m):
        # a rejected mask must not end the walk
        if wanted is None or wanted(m):
            found.append(m)
            return len(found) == cap
        return False

    def other(m):
        # mask 0, the empty graph's one q-kernel, is not a lone vertex
        return m.bit_count() != 1 and keep(m)

    S = G.source_mask
    if S:
        cover = _reach(G.out_masks, S, q)
        if S.bit_count() == 1:
            budget.spend()
            if cover == full and keep(S):
                return found
        allowed = full & ~(S | _union(G.out_masks, S))
        if not allowed:
            if cover == full:
                other(S)
            return found
        reach = G.reach_masks(q)
    else:
        reach = _singletons(G, q, budget, keep)
        if reach is None:
            return found
        S, cover, allowed = 0, 0, full
    _search(G, q, reach, budget, other)(S, cover, allowed, G.n)
    return found


def enumerate_q_kernels(G: Digraph, q: int = 2, limits: SolverLimits | None = None):
    """All q-kernels of G, sorted by size and then lexicographically."""
    if q < 1:
        raise ValueError("q must be at least 1")
    sets = [_set_of(m) for m in _q_kernels(G, q, limits)]
    return tuple(sorted(sets, key=lambda s: (len(s), tuple(sorted(s)))))


def enumerate_kernels(G: Digraph, limits: SolverLimits | None = None):
    """All kernels of G, sorted by size and then lexicographically."""
    return enumerate_q_kernels(G, 1, limits)


def has_kernel(G: Digraph, limits: SolverLimits | None = None) -> bool:
    return bool(_q_kernels(G, 1, limits, 1))


def _smallest(
    G: Digraph, q: int, limits: SolverLimits | None, cap: int
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
    found = []

    def keep(members):
        found.append(members)
        return True

    # a lone vertex that reaches all of V answers most small graphs; the scan
    # spares them the masks the search builds
    reach = _singletons(G, q, budget, keep)
    if reach is None:
        return frozenset({found[0].bit_length() - 1})
    und = G.undirected_masks
    completes = _search(G, q, reach, budget, keep)
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
    return _smallest(G, q, limits, max_size)


def smallest_q_kernel(
    G: Digraph, q: int = 2, limits: SolverLimits | None = None
) -> VertexSet | None:
    """Minimum-size q-kernel, lexicographically smallest among ties.

    None is possible only for q=1, where kernels may not exist.
    """
    return _smallest(G, q, limits, G.n)


def has_two_disjoint_qks(
    G: Digraph, q: int = 2, limits: SolverLimits | None = None
):
    """First disjoint pair from the sorted q-kernel enumeration, or None.

    None without a search when G has a source, for every q-kernel contains
    it; a bad q and the max_n guard still raise as they do for other graphs.
    """
    if q >= 1 and G.source_mask:  # a bad q goes on to enumerate's ValueError
        _budget(G, limits)
        return None
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
    budget = _budget(G, limits)
    has_kernel_on = _search(G, 1, G.closed1_masks, budget, _first)
    for size in range(1, G.n + 1):
        for combo in combinations(range(G.n), size):
            W = sum(1 << v for v in combo)
            if not has_kernel_on(0, G.full_mask & ~W, W, size):
                return False, frozenset(combo)
    return True, None


def kls_bound(G: Digraph) -> Fraction:
    """(n + #sources - |out-neighbourhood of the sources|) / 2, exactly."""
    return Fraction(_twice_kls_bound(G), 2)


def _twice_kls_bound(G: Digraph) -> int:
    S = G.source_mask
    return G.n + S.bit_count() - _union(G.out_masks, S).bit_count()
