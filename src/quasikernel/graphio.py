"""Plain-text graph format: a count line `n m` then one `u v` line per arc."""

from __future__ import annotations

from .digraph import Digraph, _bits
from .errors import GraphFormatError

# Largest vertex count parse_graph accepts.  A count at the cap peaks at about
# 1 MB while parsing (one out-mask per vertex, measured with tracemalloc);
# past it, each per-vertex bitmask table that the checks and searches build,
# such as closed1_masks (about n^2/16 bytes), passes 256 MB.
_MAX_VERTICES = 1 << 16


def _int(token: str) -> int | None:
    """token as an int if it is ASCII digits with an optional leading '-', else None.

    The one integer rule for outside text: graph files, CLI vertex lists and
    partition keys.  int() alone also takes '+', '_', surrounding whitespace
    and non-ASCII digits.
    """
    if token.isascii() and (token[1:] if token[:1] == "-" else token).isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    return None


def _two_ints(line: str) -> tuple[int, int] | None:
    """The two integers of a count or arc line, or None if it holds anything else."""
    parts = line.split()
    if len(parts) != 2 or not line.isascii():  # ASCII separators too
        return None
    u, v = _int(parts[0]), _int(parts[1])
    return None if u is None or v is None else (u, v)


def parse_graph(text: str) -> Digraph:
    """Parse the text format; `#` lines are comments, blank lines are skipped."""
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped))
    if not rows:
        raise GraphFormatError("missing count line")
    lineno, head = rows[0]
    counts = _two_ints(head)
    if counts is None:
        raise GraphFormatError("count line must be two integers `n m`", lineno)
    n, m = counts
    if n < 0 or m < 0:
        raise GraphFormatError("counts must be non-negative", lineno)
    if n > _MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds {_MAX_VERTICES}", lineno)
    body = rows[1:]
    if len(body) != m:
        raise GraphFormatError(
            f"expected {m} arc lines, found {len(body)}", lineno
        )
    out = [0] * n
    for lineno, line in body:
        arc = _two_ints(line)
        if arc is None:
            raise GraphFormatError("arc line must be two integers `u v`", lineno)
        u, v = arc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                f"arc ({u}, {v}) out of range for n={n}", lineno
            )
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}", lineno)
        if out[u] >> v & 1:
            raise GraphFormatError(f"duplicate arc ({u}, {v})", lineno)
        out[u] |= 1 << v
    return Digraph._trusted(n, out)


def _lines(G: Digraph):
    """The text format one line at a time: the count line, then the arcs."""
    yield f"{G.n} {G.m}\n"
    for u, m in enumerate(G.out_masks):
        for v in _bits(m):
            yield f"{u} {v}\n"


def format_graph(G: Digraph) -> str:
    """Serialise to the text format with arcs sorted lexicographically."""
    return "".join(_lines(G))


def load_graph(path) -> Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(G: Digraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_lines(G))
