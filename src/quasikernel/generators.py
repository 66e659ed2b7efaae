"""Graph family generators and exhaustive enumerators."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from operator import or_
from typing import Callable, Iterable

from .construct import HairyPartition
from .digraph import Digraph, _bits, _union
from .rng import _LANES, SplitMix64


def gen_cycle(length: int) -> Digraph:
    """Directed cycle 0 -> 1 -> ... -> length-1 -> 0."""
    if length < 2:
        raise ValueError(f"length must be at least 2, got {length}")
    return Digraph(length, [(i, (i + 1) % length) for i in range(length)])


def gen_three_hub(k: int) -> tuple[Digraph, dict[str, int]]:
    """Three mutually 2-cycled hubs, each 2-cycled with its own k leaves.

    Vertices 0, 1, 2 are the hubs v, u, w; leaf i of each hub sits at
    3 + 3*(i-1) plus the hub offset.  Returns the graph and a label table.
    Every arc has its reverse, so each greedy output is a maximal independent
    set: a hub plus the other hubs' leaves (2k+1 vertices) or all the leaves
    (3k vertices).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    labels = {"v": 0, "u": 1, "w": 2}
    arcs = []
    for a, b in combinations(range(3), 2):
        arcs.append((a, b))
        arcs.append((b, a))
    for i in range(1, k + 1):
        base = 3 + 3 * (i - 1)
        for offset, hub in enumerate("vuw"):
            leaf = base + offset
            labels[f"{hub}{i}"] = leaf
            arcs.append((offset, leaf))
            arcs.append((leaf, offset))
    return Digraph(3 + 3 * k, arcs), labels


def gen_tight_hairy(
    n: int, strongly_connected: bool = False
) -> tuple[Digraph, HairyPartition, dict[str, int]]:
    """Circulant tournament on 2n+1 vertices with 2n+1 hairs per vertex.

    Vertex i beats i+1..i+n (mod 2n+1); the hairs of vertex i occupy the
    block of 2n+1 indices starting at (2n+1)*(i+1).  With strongly_connected
    set, two extra vertices w1 and w2 are appended: every hair points at w1,
    w1 points at w2, and w2 points back at vertex 0.  The returned partition
    and labels describe the hairy part; w1 and w2 are labelled but belong to
    neither side of the partition.  The strongly connected variant is not
    tight: at n = 1, {a1, w2} is a quasi-kernel of size 2.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    m = 2 * n + 1
    arcs = []
    labels = {}
    for i in range(m):
        labels[f"a{i}"] = i
        for j in range(1, n + 1):
            arcs.append((i, (i + j) % m))
    owner = {}
    idx = m
    for i in range(m):
        for j in range(m):
            labels[f"h{i}_{j}"] = idx
            arcs.append((i, idx))
            owner[idx] = i
            idx += 1
    hairs = frozenset(owner)
    part = HairyPartition(frozenset(range(m)), hairs, owner)
    if strongly_connected:
        w1, w2 = idx, idx + 1
        labels["w1"] = w1
        labels["w2"] = w2
        for h in sorted(hairs):
            arcs.append((h, w1))
        arcs.append((w1, w2))
        arcs.append((w2, 0))
        idx += 2
    return Digraph(idx, arcs), part, labels


def gen_random_digraph(
    n: int, arc_prob: float, source_free: bool, seed: int
) -> Digraph:
    """Each ordered pair independently gets an arc with probability arc_prob.

    Pair (u, v) takes draw u*(n-1) + (v if v < u else v-1) of the seed's
    stream.  The arc coins are drawn in batches by SplitMix64.coins, a block
    of rows at a time; the stream is the same as one next_float() test per
    pair.
    With source_free set, every in-degree-0 vertex then receives one arc
    from a uniformly random other vertex, repeated until no source remains.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0.0 <= arc_prob <= 1.0:
        raise ValueError(f"arc_prob must lie in [0, 1], got {arc_prob}")
    if source_free and n < 2:
        raise ValueError(f"n must be at least 2 for a source-free graph, got {n}")
    rng = SplitMix64(seed)
    width = max(n - 1, 1)  # n < 2 draws no coins
    row_mask = (1 << width) - 1
    # about one batch of coins per call, or one row when a row is longer, so
    # no n*(n-1)-bit mask of every coin is ever held at once
    step = max(1, _LANES // width)
    out = []
    for first in range(0, n, step):
        last = min(first + step, n)
        block = rng.coins((last - first) * (n - 1), arc_prob)
        for u in range(first, last):
            row = block & row_mask
            block >>= width
            # coin i of row u is the arc to v = i, or to i + 1 past u
            low = row & ((1 << u) - 1)
            out.append((row ^ low) << 1 | low)
    full = (1 << n) - 1
    while source_free:
        srcs = full & ~_union(out, full)
        if not srcs:
            break
        for v in _bits(srcs):
            u = rng.next_below(n - 1)
            if u >= v:
                u += 1
            out[u] |= 1 << v
    return Digraph._trusted(n, out)


def _orient_pairs(rng: SplitMix64, n: int) -> list[tuple[int, int]]:
    """One fair draw per unordered pair, in combinations order; 0 keeps low->high."""
    return [
        (u, v) if rng.next_below(2) == 0 else (v, u)
        for u, v in combinations(range(n), 2)
    ]


def gen_random_tournament(n: int, seed: int) -> Digraph:
    """Uniformly random orientation of every unordered pair."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return Digraph(n, _orient_pairs(SplitMix64(seed), n))


def gen_random_hairy(
    m: int, max_hairs: int, seed: int
) -> tuple[Digraph, HairyPartition]:
    """Source-free random tournament with 0..max_hairs hairs per vertex.

    Tournaments are redrawn whole until one without a source appears, then
    each vertex draws a uniform hair count.
    """
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    if max_hairs < 0:
        raise ValueError(f"max_hairs must be non-negative, got {max_hairs}")
    rng = SplitMix64(seed)
    while True:
        arcs = _orient_pairs(rng, m)
        if len({v for _, v in arcs}) == m:
            break
    owner = {}
    idx = m
    for a in range(m):
        for _ in range(rng.next_below(max_hairs + 1)):
            arcs.append((a, idx))
            owner[idx] = a
            idx += 1
    part = HairyPartition(frozenset(range(m)), frozenset(owner), owner)
    return Digraph(idx, arcs), part


def gen_random_unicyclic(n: int, seed: int) -> tuple[Digraph, tuple[int, ...]]:
    """Directed cycle of uniform length 3..n with out-trees hung off it.

    Every vertex past the cycle picks a uniformly random earlier vertex as
    its parent.  Returns the graph and the cycle as a vertex tuple.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    rng = SplitMix64(seed)
    length = 3 + rng.next_below(n - 2)
    arcs = [(i, (i + 1) % length) for i in range(length)]
    for v in range(length, n):
        arcs.append((rng.next_below(v), v))
    return Digraph(n, arcs), tuple(range(length))


@dataclass(frozen=True)
class Family:
    """A graph family: a description, and make(item) for each of its items.

    make must be picklable (module level, or a partial of such a function),
    since run_claim's pool workers get a slice of the items and build graphs.
    An exhaustive family's make is a partial that carries the family's two
    half tables, up to 2,048 + 1,024 entries (see _pair_states), so each
    pool chunk pickles them with it.
    """

    desc: str
    make: Callable
    items: Iterable

    def __iter__(self):
        return map(self.make, self.items)


def _pair_graph(n: int, mask: int, shift: int, low, high, code: int) -> Digraph:
    """The digraph of one counter code of _pair_states: its two half rows or'ed."""
    return Digraph._trusted(n, map(or_, low[code & mask], high[code >> shift]))


def _half_table(n: int, states: tuple[int, ...], width: int, pairs) -> tuple:
    """The n out-masks that each digit code of the given pairs sets.

    Entry c is the graph with only these pairs, pair k in state
    states[digit k of c], digit 0 least significant.
    """
    digit = (1 << width) - 1
    table = []
    for code in range(1 << (width * len(pairs))):
        out = [0] * n
        for k, (u, v) in enumerate(pairs):
            state = states[code >> (width * k) & digit]
            if state & 1:
                out[u] |= 1 << v
            if state & 2:
                out[v] |= 1 << u
        table.append(tuple(out))
    return tuple(table)


def _pair_states(desc: str, n: int, states: tuple[int, ...]) -> Family:
    """Every digraph whose unordered pairs each take one of the given states.

    A state's 1 bit puts in the arc low->high and its 2 bit the arc
    high->low.  The items are the range of counter codes, with one digit
    per pair in combinations order, the first pair least significant, each
    digit indexing states; the number of states must be a power of two.

    Each code is split in two: the least significant ceil(P/2) of the P
    pairs and the rest.  One table per half, built here once per family,
    maps that half's digit code to the n out-masks its pairs set, so a graph
    is two lookups and an or per vertex.  The tables ride in make, a
    picklable partial, so each pool chunk pickles them: 256 + 128 entries
    for the 6-vertex tournaments, 1,024 + 1,024 for the 5-vertex digraphs
    and 2,048 + 1,024 for the 7-vertex tournaments.
    """
    width = (len(states) - 1).bit_length()
    pairs = list(combinations(range(n), 2))
    half = (len(pairs) + 1) // 2
    shift = width * half
    low = _half_table(n, states, width, pairs[:half])
    high = _half_table(n, states, width, pairs[half:])
    make = partial(_pair_graph, n, (1 << shift) - 1, shift, low, high)
    return Family(desc, make, range(1 << (width * len(pairs))))


def enumerate_all_digraphs(n: int) -> Family:
    """Every loopless digraph on 0..n-1, n at most 5; iterable more than once.

    Each unordered pair takes one of four states (none, low->high,
    high->low, both); graphs come out in base-4 counter order with the
    first pair as the least significant digit.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > 5:
        raise ValueError("exhaustive digraph enumeration is capped at n=5")
    return _pair_states(f"all-digraphs(n={n})", n, (0, 1, 2, 3))


def enumerate_all_tournaments(n: int) -> Family:
    """Every tournament on 0..n-1, n at most 7; iterable more than once.

    Graphs come out in binary counter order; bit k orients pair k, and 0
    sends low->high.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > 7:
        raise ValueError("exhaustive tournament enumeration is capped at n=7")
    return _pair_states(f"all-tournaments(n={n})", n, (1, 2))


def _source_free(draw) -> Digraph:
    """The graph of one random_source_free_family draw (n, arc_prob, seed)."""
    n, prob, sub = draw
    return gen_random_digraph(n, prob, True, sub)


def random_source_free_family(count: int, max_n: int, seed: int) -> Family:
    """One-pass stream of source-free random digraphs on 2..max_n vertices.

    Each item draws the vertex count, an arc probability in [0.1, 0.9) and
    the graph's seed from one generator seeded with seed, so it replays exactly.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    rng = SplitMix64(seed)
    draws = (
        (2 + rng.next_below(max_n - 1), 0.1 + 0.8 * rng.next_float(), rng.next_u64())
        for _ in range(count)
    )
    return Family(f"random(samples={count}, max_n={max_n})", _source_free, draws)
