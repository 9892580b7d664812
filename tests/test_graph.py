import hashlib
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from cliquebound import graph as graph_mod
from cliquebound.corpus import cycle_graph
from cliquebound.graph import (
    Graph,
    GraphError,
    MAX_GRAPH6_N,
    ParseError,
    bits,
    generate_complete_multipartite,
    generate_random,
    integer,
    parse_edge_list,
    parse_graph6,
    rational,
    rational_text,
    to_edge_list,
    to_graph6,
)
from strategies import graphs, sparse_graphs


def reference_graph6_header(n: int, form: int | None = None) -> str:
    """Independent graph6 size field in the ``form`` of 1, 4 or 8
    characters; by default the one nauty's formats.txt names for n."""
    assert n < 1 << 18
    if form is None:
        form = 1 if n <= 62 else 4 if n <= 258047 else 8
    if form == 1:
        return chr(n + 63)
    size = f"{n:0{36 if form == 8 else 18}b}"
    return chr(126) * (form - len(size) // 6) + "".join(
        chr(int(size[k : k + 6], 2) + 63) for k in range(0, len(size), 6))


def reference_graph6(g: Graph) -> str:
    """Independent string-based graph6 encoder used only as a test oracle."""
    out = reference_graph6_header(g.n)
    bitstring = ""
    for col in range(1, g.n):
        for row in range(col):
            bitstring += "1" if g.has_edge(row, col) else "0"
    bitstring += "0" * (-len(bitstring) % 6)
    for k in range(0, len(bitstring), 6):
        out += chr(int(bitstring[k : k + 6], 2) + 63)
    return out


@st.composite
def graph6_spellings(draw):
    """A graph, one graph6 line for it and whether that line is the one the
    encoder writes. The line takes any size field form that holds n, any
    padding bits, an optional ">>graph6<<" prefix and surrounding whitespace."""
    g = draw(st.one_of(graphs(max_n=12), sparse_graphs()))
    canonical = reference_graph6(g)
    form = draw(st.sampled_from([form for form in (1, 4, 8) if form > 1 or g.n <= 62]))
    body = canonical[len(reference_graph6_header(g.n)):]
    pad = -(g.n * (g.n - 1) // 2) % 6
    fill = draw(st.integers(min_value=0, max_value=(1 << pad) - 1))
    line = reference_graph6_header(g.n, form) + body
    if fill:
        line = line[:-1] + chr(ord(line[-1]) | fill)
    prefix = draw(st.sampled_from(["", ">>graph6<<"]))
    lead = draw(st.sampled_from(["", " ", "\t"]))
    trail = draw(st.sampled_from(["", "\n", " \r\n"]))
    return g, lead + prefix + line + trail, line == canonical


class TestGraphInvariants:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, (0b10, 0b00))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(1, (0b1,))

    def test_row_past_n_rejected(self):
        with pytest.raises(GraphError, match="vertices >= n"):
            Graph(2, (0b110, 0b001))
        with pytest.raises(GraphError, match="vertices >= n"):
            Graph(2, (-1, 0))

    def test_hand_built_graphs_keep_the_full_check(self):
        # Only the graph6 decoder skips the checks; rows given to Graph(...)
        # directly are still checked, also those of a decoded graph made
        # asymmetric.
        g = parse_graph6("Bw")  # the triangle
        assert Graph(g.n, g.adjacency) == g
        with pytest.raises(GraphError, match="asymmetric"):
            Graph(g.n, (g.adjacency[0] & ~0b010,) + g.adjacency[1:])

    def test_row_count_must_be_n(self):
        with pytest.raises(GraphError) as exc:
            Graph(2, (0,))
        assert (exc.type, str(exc.value)) == (GraphError,
                                              "adjacency must have one row per vertex")
        with pytest.raises(GraphError) as exc:
            Graph(-1, ())
        assert (exc.type, str(exc.value)) == (GraphError, "vertex count must be nonnegative")

    @pytest.mark.parametrize("edge, message", [
        ((1, 1), "self-loop at vertex 1"),
        ((-1, 1), "edge (-1, 1) out of range for n=3"),
        ((0, 3), "edge (0, 3) out of range for n=3"),
    ], ids=["loop", "negative", "past-n"])
    def test_from_edges_rejects(self, edge, message):
        with pytest.raises(GraphError) as exc:
            Graph.from_edges(3, [edge])
        assert (exc.type, str(exc.value)) == (GraphError, message)

    def test_edge_count(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.m == 3
        assert g.m == sum(row.bit_count() for row in g.adjacency) // 2
        # Each edge of the path is a clique, but no three of its vertices are.
        assert g.induces_clique(0b0110)
        assert not g.induces_clique(0b0111)

    @given(graphs())
    def test_constructed_graphs_validate(self, g):
        # symmetry and loop-freeness re-checked explicitly
        for v in range(g.n):
            assert not g.adjacency[v] >> v & 1
            for u in bits(g.adjacency[v]):
                assert g.has_edge(u, v)


class TestNumbers:
    @given(st.integers())
    def test_integer_round_trip(self, k):
        assert integer(str(k)) == k
        assert rational(str(k)) == k

    @given(st.fractions())
    def test_rational_reads_back_p_over_q(self, f):
        # The "p/q" that every report of the tool writes.
        assert rational(rational_text(f)) == f

    @pytest.mark.parametrize("text", ["", "-", "--1", "1-", "1_0", "+2", " 2", "2 ",
                                      "\u0663", "0x1", "1.0", "1e3", "1" * 5000])
    def test_integer_refuses(self, text):
        # int() reads "1_0", "+2", " 2", "2 " and "\u0663".
        with pytest.raises(ValueError):
            integer(text)

    @pytest.mark.parametrize("text", ["", "0.5", "1e-1", "1/0", "1/-2", "1/", "/2",
                                      "1/2/3", " 1/2", "1 /2", "1_0/2", "\u0661/2"])
    def test_rational_refuses(self, text):
        # Fraction() reads "0.5", "1e-1", " 1/2" and "1_0/2", and raises
        # ZeroDivisionError on "1/0".
        with pytest.raises(ValueError):
            rational(text)


class TestEdgeList:
    def test_path_with_header(self):
        g = parse_edge_list("p edge 3 2\n0 1\n1 2")
        assert (g.n, g.m) == (3, 2)

    def test_header_keeps_isolated_vertices(self):
        g = parse_edge_list("p edge 5 1\n0 1\n")
        assert (g.n, g.m) == (5, 1)

    @pytest.mark.parametrize("text", ["5 1\n0 1\n", "3 2\n0 1\n1 2", "5 0\n"],
                             ids=["five-one", "three-two", "one-line"])
    def test_bare_header_reading_is_rejected(self, text):
        # The first line could be an "n m" header or an edge: it is neither
        # read as a header nor silently dropped.
        with pytest.raises(ParseError,
                           match="^line 1: .* reads as an 'n m' header or as an edge"):
            parse_edge_list(text)

    def test_bare_first_line_that_cannot_be_a_header_is_an_edge(self):
        # 5 is not past every later index, so "5 1" can only be an edge.
        g = parse_edge_list("5 1\n0 5\n")
        assert (g.n, g.m) == (6, 2)

    @pytest.mark.parametrize("text,message", [
        ("p edge 3 2\n0 1", "^header declares 2 edges, found 1 distinct$"),
        ("p edge 3 1\n0 1\n1 2", "^header declares 1 edges, found 2 distinct$"),
        ("p edge 2 1\n0 2", "^edge index exceeds declared vertex count 2$"),
        ("p edge 3", "^line 1: expected 'p edge n m'"),
        ("p col 3 0", "^line 1: expected 'p edge n m'"),
        ("p edge -1 0", "^line 1: expected 'p edge n m'"),
        ("0 1\np edge 2 1", "^line 2: expected two integers"),
        ("p edge " + "1" * 5000 + " 0", "^line 1: expected 'p edge n m'"),
    ], ids=["too-few-edges", "too-many-edges", "index-past-n", "short", "not-edge",
            "negative", "not-first", "past-int-digit-limit"])
    def test_header_errors(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_edge_list(text)

    def test_empty_input(self):
        g = parse_edge_list("")
        assert (g.n, g.m) == (0, 0)

    def test_duplicate_edges_collapse(self):
        g = parse_edge_list("p edge 2 1\n0 1\n0 1")
        assert (g.n, g.m) == (2, 1)

    def test_headerless(self):
        g = parse_edge_list("0 1\n1 2")
        assert (g.n, g.m) == (3, 2)

    def test_comments_ignored(self):
        g = parse_edge_list("# a path\np edge 3 2\n0 1  # first edge\n1 2")
        assert (g.n, g.m) == (3, 2)

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\n0 1 2")

    @pytest.mark.parametrize("line", ["0 1_0", "+2 3", "0 \u0663", "1.0 2", "0 0x1",
                                      "0 " + "1" * 5000],
                             ids=["underscore", "plus", "arabic-indic", "decimal",
                                  "hex", "past-int-digit-limit"])
    def test_only_ascii_digit_tokens(self, line):
        # int() alone reads "1_0" as 10, "+2" as 2 and "\u0663" as 3.
        with pytest.raises(ParseError, match="^line 2: expected two integers"):
            parse_edge_list("0 1\n" + line)

    def test_negative_index_reports_line(self):
        with pytest.raises(ParseError, match="^line 2: negative vertex index$"):
            parse_edge_list("0 1\n-1 2")

    def test_self_loop_reports_vertex(self):
        with pytest.raises(ParseError, match="vertex 3"):
            parse_edge_list("0 1\n3 3")

    def test_vertex_count_capped_as_graph6(self):
        # graph6 encodes n < 2^18; a header or an edge may not reach it.
        for text in ("0 262144", "p edge 262144 0"):
            with pytest.raises(ParseError, match="graph6 cap"):
                parse_edge_list(text)

    def test_largest_vertex_count_below_cap(self):
        g = parse_edge_list("p edge 262143 0\n")
        assert (g.n, g.m) == (262143, 0)

    @given(graphs(max_n=7))
    def test_round_trip(self, g):
        assert parse_edge_list(to_edge_list(g)) == g

    def test_writes_dimacs_header(self):
        assert to_edge_list(Graph.from_edges(4, [(0, 1)])) == "p edge 4 1\n0 1\n"


class TestGraph6:
    def test_empty_five_vertices(self):
        g = parse_graph6("D??")
        assert (g.n, g.m) == (5, 0)

    # graphs() take the decoder's string transpose, sparse_graphs() its
    # per-incidence one.
    @given(st.one_of(graphs(max_n=12), sparse_graphs()))
    def test_decoded_rows_pass_the_full_check(self, g):
        decoded = parse_graph6(to_graph6(g))
        assert Graph(decoded.n, decoded.adjacency) == decoded == g

    def test_k2(self):
        g = parse_graph6("A_")
        assert (g.n, g.m) == (2, 1)
        assert g.has_edge(0, 1)

    def test_encode_known(self):
        assert to_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"
        assert to_graph6(Graph(5, (0,) * 5)) == "D??"

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<A_").m == 1
        g = generate_random(70, Fraction(1, 2), 1)
        assert parse_graph6(">>graph6<<" + to_graph6(g)) == g

    def test_invalid_character_offset(self):
        with pytest.raises(ParseError, match="offset 1"):
            parse_graph6("A\x20_")
        with pytest.raises(ParseError, match="offset 2: 'é'"):
            parse_graph6("D?é?")
        # The offset counts from the end of the header.
        with pytest.raises(ParseError, match="offset 1: ' '"):
            parse_graph6(">>graph6<<A _")

    def test_header_alone_is_empty_input(self):
        with pytest.raises(ParseError, match="^empty graph6 input$"):
            parse_graph6(">>graph6<<")

    @pytest.mark.parametrize("text", ["~", "~?", "~~???"])
    def test_truncated_size_field(self, text):
        with pytest.raises(ParseError, match="^truncated graph6 size field$"):
            parse_graph6(text)

    def test_encoder_cap(self):
        g = Graph(MAX_GRAPH6_N, (0,) * MAX_GRAPH6_N)
        with pytest.raises(GraphError) as exc:
            to_graph6(g)
        assert (exc.type, str(exc.value)) == (GraphError,
                                              "graph6 encoding capped at n < 262144")

    def test_size_field_cap(self):
        # "??@???" is n = 2^18 in the eight-character form.
        with pytest.raises(ParseError, match=r"^graph6 decoding capped at n < 262144$"):
            parse_graph6("~~??@???")

    def test_eight_character_size_form_for_small_n(self):
        # "~~" then n = 2 in 36 bits, then the K2 body.
        assert parse_graph6("~~?????A_") == parse_graph6("A_")
        # n = 70 in 36 bits: three zero groups, then its 18-bit form.
        g = generate_random(70, Fraction(1, 2), 2)
        assert parse_graph6("~~???" + to_graph6(g)[1:]) == g

    def test_nonzero_padding_bits_ignored(self):
        # C5 has 10 pair bits; "c" and "f" differ only in the 2 padding bits.
        assert parse_graph6("Dhf") == parse_graph6("Dhc")
        assert to_graph6(parse_graph6("Dhf")) == "Dhc"
        # K2: one pair bit, five padding bits.
        assert parse_graph6("A~") == parse_graph6("A_")

    def test_truncated_stream(self):
        with pytest.raises(ParseError, match="mismatch"):
            parse_graph6("D")

    # formats.txt: one character up to n = 62, "~" and three up to 258047,
    # "~~" and six beyond, since a three-character field of n >= 258048
    # begins with "~" and would read as the start of the six-character one.
    @pytest.mark.parametrize("n,header", [
        (62, "}"), (63, "~??~"), (258047, "~}~~"), (258048, "~~???~??"), (262143, "~~???~~~"),
    ])
    def test_size_field_form_follows_n(self, n, header):
        assert graph_mod._graph6_header(n) == reference_graph6_header(n) == header
        # The bare size field reads back as n: only the missing body fails.
        with pytest.raises(ParseError, match=rf"^graph6 bit stream length mismatch: "
                                             rf"need {n * (n - 1) // 2} bits, got 0$"):
            parse_graph6(header)

    @pytest.mark.parametrize("n,text", [(0, "?"), (1, "@")])
    def test_no_pair_bits(self, n, text):
        g = Graph(n, (0,) * n)
        assert to_graph6(g) == text
        assert parse_graph6(text) == g and to_graph6(parse_graph6(text)) == text
        assert to_graph6(parse_graph6("~??" + text)) == text

    @given(graph6_spellings())
    @example((cycle_graph(5), "Dhf", False))
    @example((Graph.from_edges(2, [(0, 1)]), "~~?????A_", False))
    @example((cycle_graph(5), " >>graph6<<Dhc\n", True))
    def test_every_spelling_encodes_as_its_rows(self, spelling):
        # Only the canonical line is kept on the decoded graph; any other
        # spelling is encoded afresh, so to_graph6 never depends on the input.
        g, text, canonical = spelling
        decoded = parse_graph6(text)
        assert ("_graph6" in vars(decoded)) == canonical
        fresh = Graph(g.n, g.adjacency)
        assert to_graph6(decoded) == graph_mod._encode_graph6(fresh) == reference_graph6(g)
        # The kept text takes no part in equality or hashing.
        assert decoded == fresh and hash(decoded) == hash(fresh)

    @given(st.one_of(graphs(max_n=8), sparse_graphs()))
    def test_round_trip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    @pytest.mark.parametrize("g,by_strings", [
        (generate_random(300, Fraction(6, 300), 1), False),
        (generate_random(60, Fraction(1, 2), 1), True),
    ], ids=["gnp300-sparse", "gnp60-half"])
    def test_transpose_branch_follows_density(self, g, by_strings):
        with patch.object(graph_mod, "_transpose_by_strings",
                          wraps=graph_mod._transpose_by_strings) as strings:
            assert parse_graph6(to_graph6(g)) == g
        assert strings.called == by_strings

    @given(graphs(max_n=8))
    def test_matches_reference_encoder(self, g):
        assert to_graph6(g) == reference_graph6(g)

    def test_matches_reference_up_to_80(self):
        # n = 0..80 meets every residue of C(n, 2) mod 24 that occurs at all
        # (the encoder pads to 24-bit base64 quanta), and n >= 63 uses the
        # four-character size form.
        for n in range(81):
            g = generate_random(n, Fraction(1, 2), 1000 + n)
            text = to_graph6(g)
            assert text == reference_graph6(g), n
            assert parse_graph6(text) == g, n

    def test_round_trip_random_up_to_64(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randrange(0, 65)
            g = generate_random(n, Fraction(1, 3), rng.randrange(1 << 32))
            assert parse_graph6(to_graph6(g)) == g

    @pytest.mark.parametrize("n", [63, 64, 300, 500])
    def test_size_form_matches_reference(self, n):
        g = generate_random(n, Fraction(6, n), n)
        text = reference_graph6(g)
        assert to_graph6(g) == text
        assert parse_graph6(text) == g

    def test_long_size_form(self):
        g = generate_random(70, Fraction(1, 10), 3)
        s = to_graph6(g)
        assert s[0] == chr(126)
        assert parse_graph6(s) == g


_SEED_0_DRAW = random.Random(0).getrandbits(64)  # the first draw of seed 0


class TestGenerators:
    def test_octahedron(self):
        g = generate_complete_multipartite([2, 2, 2])
        assert (g.n, g.m) == (6, 12)

    def test_k4(self):
        g = generate_complete_multipartite([1, 1, 1, 1])
        assert (g.n, g.m) == (4, 6)

    def test_single_part_is_edgeless(self):
        g = generate_complete_multipartite([3])
        assert (g.n, g.m) == (3, 0)

    @pytest.mark.parametrize("s,r", [(1, 4), (2, 3), (3, 3)])
    def test_regularity(self, s, r):
        g = generate_complete_multipartite([s] * r)
        assert all(g.degree(v) == g.n - s for v in range(g.n))

    @pytest.mark.parametrize("parts, message", [
        ((), "a complete multipartite graph needs at least one part"),
        ((2, 0), "part sizes must be >= 1, got (2, 0)"),
        # Sizes are read as integers, never truncated: 2.9 is not 2.
        ((2.5, 2), "part sizes must be integers, got (2.5, 2)"),
        ((2.9, 1), "part sizes must be integers, got (2.9, 1)"),
        (("2", 2), "part sizes must be integers, got ('2', 2)"),
    ], ids=["no-parts", "zero", "half", "float", "str"])
    def test_rejects_invalid_part_sizes(self, parts, message):
        with pytest.raises(GraphError) as exc:
            generate_complete_multipartite(parts)
        assert (exc.type, str(exc.value)) == (GraphError, message)

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(ValueError) as exc:
            cycle_graph(2)
        assert (exc.type, str(exc.value)) == (ValueError, "cycle needs n >= 3")

    def test_part_sizes_from_any_iterable(self):
        assert generate_complete_multipartite(iter([2, 2, 2])) \
            == generate_complete_multipartite((2, 2, 2))

    def test_random_p_zero(self):
        assert generate_random(5, Fraction(0), 1).m == 0

    def test_random_p_one(self):
        assert generate_random(5, Fraction(1), 1).m == 10

    def test_random_deterministic(self):
        a = generate_random(12, Fraction(1, 2), 7)
        b = generate_random(12, Fraction(1, 2), 7)
        assert a == b

    def test_random_p_out_of_range(self):
        with pytest.raises(GraphError):
            generate_random(5, Fraction(3, 2), 1)

    def test_random_rejects_negative_seed(self):
        # Random(-s) seeds like Random(s), so seed -3 would repeat seed 3.
        with pytest.raises(GraphError, match="seed must be >= 0, got -3"):
            generate_random(5, Fraction(1, 2), -3)

    @given(
        n=st.integers(0, 12),
        p=st.integers(1, 1 << 80).flatmap(
            lambda b: st.integers(0, b).map(lambda a: Fraction(a, b))),
        seed=st.integers(0, 1 << 64),
    )
    @example(n=12, p=Fraction(0), seed=0)
    @example(n=12, p=Fraction(1), seed=0)
    @example(n=12, p=Fraction(1, 2), seed=3)  # p * 2^64 is an integer
    @example(n=12, p=Fraction(1, 1 << 64), seed=0)
    @example(n=12, p=1 - Fraction(1, 1 << 65), seed=0)
    # The one pair of n = 2 at p = r / 2^64 and at p = (r + 1/2) / 2^64, r
    # the draw: no edge and an edge, the rule's two sides at its boundary.
    @example(n=2, p=Fraction(_SEED_0_DRAW, 1 << 64), seed=0)
    @example(n=2, p=Fraction(2 * _SEED_0_DRAW + 1, 1 << 65), seed=0)
    def test_random_follows_documented_rule(self, n, p, seed):
        # One 64-bit draw per pair, pairs in lexicographic order, and the
        # pair is an edge iff draw / 2^64 < p, compared as exact rationals.
        draw = random.Random(seed).getrandbits
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if Fraction(draw(64), 1 << 64) < p]
        assert generate_random(n, p, seed) == Graph.from_edges(n, edges)

    @pytest.mark.parametrize("n, p, seed, sha256", [
        (300, Fraction(6, 300), 1,
         "12c0d20bff285a891ee34964befd070248a5c2c9547eae56fabaecf9c20bae32"),
        (48, Fraction(1, 2), 5,
         "7662f28d647f76f0c44d1631d0b884e28d3cddce535d7b27663580977402a7d0"),
    ])
    def test_random_graph6_pinned(self, n, p, seed, sha256):
        # Pins the draw order across Python versions and generator rewrites.
        g6 = to_graph6(generate_random(n, p, seed))
        assert hashlib.sha256(g6.encode()).hexdigest() == sha256
