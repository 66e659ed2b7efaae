"""Text format round-trips and parse errors with line numbers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasikernel.digraph import Digraph
from quasikernel.errors import GraphFormatError
from quasikernel.graphio import format_graph, load_graph, parse_graph, save_graph

from oracles import adjacency


def test_parse_simple():
    G = parse_graph("3 2\n0 1\n1 2\n")
    assert G.n == 3 and G.m == 2
    assert adjacency(G.out_masks) == ((1,), (2,), ())


def test_parse_skips_comments_and_blanks():
    text = "# a triangle\n\n3 3\n0 1\n# middle note\n1 2\n\n2 0\n"
    G = parse_graph(text)
    assert G.m == 3 and (2, 0) in G.arcs


def test_parse_empty_graph():
    G = parse_graph("0 0\n")
    assert G.n == 0 and G.m == 0


def test_format_sorts_and_trailing_newline():
    G = Digraph(3, [(2, 0), (0, 2), (0, 1)])
    assert format_graph(G) == "3 3\n0 1\n0 2\n2 0\n"


def test_round_trip_file(tmp_path):
    G = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    path = tmp_path / "g.txt"
    save_graph(G, path)
    assert load_graph(path) == G


def test_save_writes_the_format_text(tmp_path):
    G = Digraph(4, [(2, 0), (0, 2), (0, 1)])  # vertices 1 and 3 have no arcs
    path = tmp_path / "g.txt"
    save_graph(G, path)
    assert path.read_text(encoding="utf-8") == format_graph(G) == "4 3\n0 1\n0 2\n2 0\n"


@settings(max_examples=60)
@given(st.integers(0, 6), st.data())
def test_round_trip_random(n, data):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    G = Digraph(n, arcs)
    assert parse_graph(format_graph(G)) == G


_NOISE = st.one_of(
    st.integers(-3, 12).map(str), st.sampled_from(["", "x", "1.5", "0x1", "+2", "007", "#"])
)
_FILLER = st.lists(st.sampled_from(["", "   ", "# note", "#0 1", "  # 3 3"]), max_size=2)


@st.composite
def graph_texts(draw):
    """A count line and arc lines between comments and blanks, with token noise."""

    def line(*tokens):
        # each token is swapped for noise one time in sixteen
        return " ".join(draw(_NOISE) if draw(st.integers(0, 15)) == 0 else str(t)
                        for t in tokens)

    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    lines = draw(_FILLER) + [line(n, m)]
    for _ in range(m):
        # loops come from n = 1 and from noise
        u, shift = draw(st.integers(0, max(n - 1, 0))), draw(st.integers(1, max(n - 1, 1)))
        lines += draw(_FILLER) + [line(u, (u + shift) % max(n, 1))]
    return "\n".join(lines + draw(_FILLER))


@settings(max_examples=300)
@given(graph_texts())
def test_parse_fuzz_matches_constructor(text):
    # parse_graph builds without re-validating, so its own checks must
    # reject everything the constructor would
    try:
        G = parse_graph(text)
    except GraphFormatError:
        return
    rows = [line.split() for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")]
    H = Digraph(int(rows[0][0]), [(int(u), int(v)) for u, v in rows[1:]])
    assert G == H and G.in_masks == H.in_masks


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing count line"),
        ("# only comments\n\n", "missing count line"),
        ("3\n", "line 1: count line must be two integers"),
        ("a b\n", "line 1: count line must be two integers"),
        ("-1 0\n", "line 1: counts must be non-negative"),
        # refused before any per-vertex memory is set aside
        ("65537 0\n", "line 1: vertex count 65537 exceeds 65536"),
        ("1000000000 0\n", "line 1: vertex count 1000000000 exceeds 65536"),
        ("2 2\n0 1\n", "line 1: expected 2 arc lines, found 1"),
        ("2 0\n0 1\n", "line 1: expected 0 arc lines, found 1"),
        ("2 1\n0 1 2\n", "line 2: arc line must be two integers"),
        ("2 1\n0 x\n", "line 2: arc line must be two integers"),
        ("2 1\n0 5\n", "line 2: arc (0, 5) out of range for n=2"),
        ("2 1\n-1 0\n", "line 2: arc (-1, 0) out of range for n=2"),
        ("2 1\n1 1\n", "line 2: loop at vertex 1"),
        ("2 2\n0 1\n0 1\n", "line 3: duplicate arc (0, 1)"),
        # only ASCII decimal digits with an optional leading '-' are integers
        ("1_0 0\n", "line 1: count line must be two integers"),
        ("\u0663 0\n", "line 1: count line must be two integers"),
        ("+2 1\n0 +1\n", "line 1: count line must be two integers"),
        ("2 1\n0 +1\n", "line 2: arc line must be two integers"),
        ("2 1\n0 \uff11\n", "line 2: arc line must be two integers"),
        # more digits than int() converts by default
        pytest.param(
            "9" * 5000 + " 0\n",
            "line 1: count line must be two integers",
            id="count-past-int-digit-limit",
        ),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert fragment in str(exc.value)


def test_parse_accepts_vertex_count_at_cap():
    assert parse_graph("65536 0\n").n == 65536


def test_error_line_numbers_count_comments():
    # the bad arc sits on physical line 5
    text = "# header\n3 2\n0 1\n# pad\n9 9\n"
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == 5


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_graph(tmp_path / "absent.txt")
