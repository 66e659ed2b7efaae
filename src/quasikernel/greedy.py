"""Ordering-driven greedy quasi-kernel selection."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .construct import _require_source_free, _verify_qk
from .digraph import Digraph, VertexSet
from .errors import PreconditionError
from .rng import SplitMix64


@dataclass(frozen=True)
class Ordering:
    """A visit order over the vertices; perm[k] is examined k-th."""

    perm: tuple[int, ...]

    def __post_init__(self):
        perm = tuple(self.perm)
        object.__setattr__(self, "perm", perm)
        if any(not isinstance(v, int) or isinstance(v, bool) for v in perm):
            raise ValueError(f"perm entries must be ints, got {perm!r}")
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("perm must be a permutation of 0..n-1")

    @classmethod
    def natural(cls, n: int) -> "Ordering":
        return cls(tuple(range(n)))

    @classmethod
    def shuffled(cls, n: int, seed: int) -> "Ordering":
        items = list(range(n))
        SplitMix64(seed).shuffle(items)
        return cls(tuple(items))

    def __len__(self) -> int:
        return len(self.perm)


def _match(G: Digraph, ordering: Ordering):
    if len(ordering.perm) != G.n:
        raise ValueError(
            f"ordering covers {len(ordering.perm)} vertices, graph has {G.n}"
        )


def _greedy_scan(closed1, perm) -> list[int]:
    """Pick each vertex still outside the closed out-neighbourhood of the picks.

    A single left-to-right pass suffices: the covered set only grows, so the
    minimum uncovered position is non-decreasing.
    """
    covered = 0
    picks = []
    for v in perm:
        if not (covered >> v) & 1:
            picks.append(v)
            covered |= closed1[v]
    return picks


def cl_algorithm(G: Digraph, ordering: Ordering) -> VertexSet:
    """Two-phase greedy quasi-kernel.

    Phase 1 greedily covers V along the ordering; phase 2 repeats the scan on
    the subgraph induced by the phase-1 picks, visiting them in reverse pick
    order.  Arcs between surviving picks would have to point forward in both
    scans at once, so the result is independent, and it still 2-covers V.
    """
    _match(G, ordering)
    closed1 = G.closed1_masks
    first = _greedy_scan(closed1, ordering.perm)
    # phase 2 only tests picks, so G's masks act as those of the induced subgraph
    result = frozenset(_greedy_scan(closed1, reversed(first)))
    _verify_qk(G, result, G.n, "greedy result")
    return result


def _back_violation(G: Digraph, ordering: Ordering):
    """First position pair (i, j), i < j, with a back arc lacking its reverse."""
    perm, out, inn = ordering.perm, G.out_masks, G.in_masks
    later = G.full_mask  # the vertices after position i
    for i, vi in enumerate(perm):
        later ^= 1 << vi
        bad = later & inn[vi] & ~out[vi]
        if bad:
            return i, next(j for j in range(i + 1, len(perm)) if bad >> perm[j] & 1)
    return None


def ordering_has_symmetric_back_property(G: Digraph, ordering: Ordering) -> bool:
    """Every arc against the ordering is matched by the reverse arc."""
    _match(G, ordering)
    return _back_violation(G, ordering) is None


def modified_cl(G: Digraph, ordering: Ordering) -> VertexSet:
    """Single-pass greedy that only picks vertices with a live out-neighbor.

    Requires a source-free graph and an ordering whose back arcs all have
    reverse companions.  Each pick removes itself plus at least one
    out-neighbor from the live set, so the result has at most floor(n/2)
    vertices.  Once a live vertex has no live out-neighbor it never regains
    one, so a single left-to-right pass implements the selection rule.
    """
    _match(G, ordering)
    _require_source_free(G)
    pair = _back_violation(G, ordering)
    if pair is not None:
        i, j = pair
        raise PreconditionError(
            f"ordering violates the symmetric back property at positions "
            f"({i}, {j}): arc {ordering.perm[j]}->{ordering.perm[i]} has no "
            f"reverse companion"
        )
    out = G.out_masks
    closed1 = G.closed1_masks
    remaining = G.full_mask
    picks = []
    for v in ordering.perm:
        if (remaining >> v) & 1 and out[v] & remaining:
            picks.append(v)
            remaining &= ~closed1[v]
    result = frozenset(picks)
    _verify_qk(G, result, Fraction(G.n, 2), "selection")
    return result
