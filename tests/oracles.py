"""Brute-force reference implementations, kept free of the package's bitmask tricks.

Everything here works on plain sets and explicit adjacency scans so the main
code can be checked against an independently written baseline.
"""

from functools import lru_cache
from itertools import combinations

from quasikernel.digraph import induced


@lru_cache(maxsize=1024)
def adjacency(masks):
    """Each mask as the ascending tuple of its set bits, by a plain scan.

    adjacency(G.out_masks)[u] lists the out-neighbours of u.
    """
    return tuple(tuple(v for v in range(m.bit_length()) if m >> v & 1) for m in masks)


def reach_within(G, start, q):
    """Vertices reachable from start in at most q arc steps, start included."""
    out = adjacency(G.out_masks)
    seen = {start}
    frontier = {start}
    for _ in range(q):
        nxt = set()
        for u in frontier:
            nxt.update(out[u])
        frontier = nxt - seen
        seen |= nxt
    return seen


def set_reach(G, S, q):
    out = set()
    for v in S:
        out |= reach_within(G, v, q)
    return out


def independent(G, S):
    return all(v not in adjacency(G.out_masks)[u] for u in S for v in S)


def brute_sources(G):
    with_in = {v for _, v in G.arcs}
    return {v for v in range(G.n) if v not in with_in}


def brute_q_kernels(G, q=2):
    """All independent sets reaching everything within q steps, by full scan."""
    found = []
    verts = set(range(G.n))
    for r in range(G.n + 1):
        for combo in combinations(sorted(verts), r):
            S = set(combo)
            if independent(G, S) and set_reach(G, S, q) >= verts:
                found.append(frozenset(S))
    return found


def brute_kernels(G):
    return brute_q_kernels(G, 1)


def brute_smallest(G, q=2):
    ks = brute_q_kernels(G, q)
    if not ks:
        return None
    return min(ks, key=lambda s: (len(s), tuple(sorted(s))))


def brute_has_odd_cycle(G):
    """Search simple directed cycles, anchored at their minimum vertex."""

    out = adjacency(G.out_masks)

    def dfs(start, path, on_path):
        u = path[-1]
        for v in out[u]:
            if v == start and len(path) % 2 == 1:
                return True
            if v > start and v not in on_path:
                on_path.add(v)
                path.append(v)
                if dfs(start, path, on_path):
                    return True
                path.pop()
                on_path.discard(v)
        return False

    return any(dfs(s, [s], {s}) for s in range(G.n))


def brute_sccs(G):
    """Strong components as classes of mutual reachability."""
    reach = [reach_within(G, v, G.n) for v in range(G.n)]
    return {frozenset(w for w in reach[v] if v in reach[w]) for v in range(G.n)}


def brute_is_kernel_perfect(G):
    """Every nonempty induced subgraph needs a kernel; returns (ok, bad_subset)."""
    verts = sorted(range(G.n))
    for r in range(1, G.n + 1):
        for combo in combinations(verts, r):
            keep = set(combo)
            relabel = {v: i for i, v in enumerate(sorted(keep))}
            arcs = [(relabel[u], relabel[v]) for u, v in G.arcs if {u, v} <= keep]
            sub = type(G)(len(keep), arcs)
            if not brute_kernels(sub):
                return False, frozenset(keep)
    return True, None


def two_phase_greedy(G, perm):
    """Chvatal-Lovasz greedy: scan perm, then rescan the picks' induced subgraph.

    Each scan picks every vertex not yet in the closed out-neighbourhood of
    the picks so far; the second visits the first scan's picks in reverse.
    """

    def scan(H, order):
        covered, picks = set(), []
        for v in order:
            if v not in covered:
                picks.append(v)
                covered |= {v, *adjacency(H.out_masks)[v]}
        return picks

    first = scan(G, perm)
    H, relabel = induced(G, first)
    back = {i: v for v, i in relabel.items()}
    return frozenset(back[i] for i in scan(H, [relabel[v] for v in reversed(first)]))


def back_violation(G, perm):
    """First position pair (i, j), i < j, with an arc perm[j] -> perm[i] but none back."""
    arcs = set(G.arcs)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if (perm[j], perm[i]) in arcs and (perm[i], perm[j]) not in arcs:
                return i, j
    return None
