"""Immutable simple graphs with bitset adjacency rows, parsing, and generators.

Vertices are dense integers 0..n-1. Each adjacency row is a Python int used
as a bitset over [n], so neighborhood intersection is a single ``&``.
``transpose`` is the one bit-matrix transpose, shared by the graph6 decoder,
the G(n, p) generator and the clique index.
"""

from __future__ import annotations

import base64
import math
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Invalid graph construction or operation."""


class ParseError(GraphError):
    """Malformed graph input text."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_LOOP_RATIO = 32  # see ``transpose``
# Masks per transposed block, so a block's binary string holds at most
# _BLOCK * 8 * ceil(n / 8) characters, whatever the mask count.
_BLOCK = 4096


def transpose(masks: Sequence[int], n: int) -> list[int]:
    """Bit i of ``result[v]`` is bit v of ``masks[i]``, each mask below 2^n.

    Read off blocks of ``_BLOCK`` masks packed into one binary string each, n
    characters per mask, unless n exceeds ``_LOOP_RATIO`` = 32 times the
    masks' mean popcount: then one set bit at a time, the cheaper way there
    (on clique indexes the two break even near 40).
    """
    if n * len(masks) > _LOOP_RATIO * sum(map(int.bit_count, masks)):
        return _transpose_by_incidence(masks, n)
    return _transpose_by_strings(masks, n)


def _transpose_by_incidence(masks: Sequence[int], n: int) -> list[int]:
    """``transpose`` one set bit at a time: each ``|=`` copies an integer as
    wide as the current mask index, so this suits sparse masks."""
    result = [0] * n
    bit = 1
    for mask in masks:
        while mask:
            low = mask & -mask
            result[low.bit_length() - 1] |= bit
            mask ^= low
        bit <<= 1
    return result


def _transpose_by_strings(masks: Sequence[int], n: int) -> list[int]:
    """``transpose`` block by block, in C-level steps.

    A block's masks are packed into one integer, mask j at bits
    ``j * stride`` up, and written as one binary string, most significant bit
    first. Column v, read every ``stride``-th character from
    ``stride - 1 - v``, is then that block's indexes of the masks holding v,
    highest first.
    """
    width = (n + 7) // 8
    stride = 8 * width
    result = [0] * n
    for start in range(0, len(masks), _BLOCK):
        block = masks[start:start + _BLOCK]
        packed = int.from_bytes(b"".join(m.to_bytes(width, "little") for m in block), "little")
        text = format(packed, f"0{stride * len(block)}b")
        for v in range(n):
            result[v] |= int(text[stride - 1 - v::stride], 2) << start
    return result


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``adjacency[v]`` is the neighbor bitset of v."""

    n: int
    adjacency: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        if len(self.adjacency) != self.n:
            raise GraphError("adjacency must have one row per vertex")
        n = self.n
        adjacency = self.adjacency
        for v, row in enumerate(adjacency):
            if row >> n:
                raise GraphError(f"adjacency row {v} references vertices >= n")
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
            while row:
                low = row & -row
                u = low.bit_length() - 1
                row ^= low
                if not adjacency[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def _trusted(cls, n: int, adjacency: tuple[int, ...], graph6: str | None) -> "Graph":
        """A graph from rows its caller built symmetric, loop-free and within
        range, one per vertex, for an n >= 0; ``__post_init__``'s checks are
        skipped. The graph6 decoder, whose n is never negative, and
        ``generate_random``, which refuses a negative n, use it; the rows of
        both hold these by construction.
        A ``graph6`` text, unless None, must be the one the encoder writes
        for these rows: it is kept as the graph's ``to_graph6``."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adjacency", adjacency)
        if graph6 is not None:
            object.__setattr__(g, "_graph6", graph6)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @cached_property
    def m(self) -> int:
        """Edge count; half the total popcount of the adjacency rows."""
        return sum(row.bit_count() for row in self.adjacency) // 2

    @cached_property
    def _graph6(self) -> str:
        """The ``to_graph6`` text, encoded on first use unless the decoder
        kept its canonical input line here."""
        return _encode_graph6(self)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.adjacency[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def induces_clique(self, vertex_mask: int) -> bool:
        """True if the vertices in ``vertex_mask`` are pairwise adjacent."""
        for v in bits(vertex_mask):
            if vertex_mask & ~self.adjacency[v] & ~(1 << v):
                return False
        return True


# ---------------------------------------------------------------------------
# Numbers: the one grammar for every number the tool reads from text.
# ---------------------------------------------------------------------------

_INTEGER = re.compile(r"-?[0-9]+")  # not \d, which matches "\u0663" too


def integer(text: str) -> int:
    """The integer that ``text`` writes as ASCII digits with an optional
    leading minus sign.

    ValueError on anything else, though int() reads "1_0", "+2", " 2" and
    "\u0663", and on more digits than int() converts.
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def rational(text: str) -> Fraction:
    """The rational that ``text`` writes as ``p/q`` or ``p``, each part an
    ``integer`` and q >= 1; ValueError on anything else, "0.5", "1e-1" and
    "1/0" included. It reads back every ``p/q`` the tool writes."""
    numerator, slash, denominator = text.partition("/")
    q = integer(denominator) if slash else 1
    if q < 1:
        raise ValueError(f"denominator must be >= 1, got {text!r}")
    return Fraction(integer(numerator), q)


def rational_text(v: Fraction) -> str:
    """The ``p/q`` text of ``v``, q >= 1 even for an integer, as every
    report writes a rational; ``rational`` reads it back."""
    return f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# Edge-list format: UTF-8 lines "u v", "#" comments, optional "p edge n m" header.
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list into a Graph.

    The first data line may be a DIMACS header ``p edge n m``: then n is the
    vertex count and exactly m distinct edges, all below n, must follow.
    Without one, every line is an edge and n is one past the largest index;
    but a bare first line that could be an ``n m`` header (its first value
    exceeds every later index and its second equals the distinct edge count
    of the later lines) is an error, since it reads either way. Values are
    read by ``integer``.
    Negative values and self-loops are errors, duplicate edges collapse, and
    n is capped below ``MAX_GRAPH6_N`` as graph6 is.
    """
    pairs: list[tuple[int, int, int]] = []  # (u, v, line number)
    header: tuple[int, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not pairs and header is None and tokens[0] == "p":
            try:
                if len(tokens) != 4 or tokens[1] != "edge":
                    raise ValueError
                header = integer(tokens[2]), integer(tokens[3])
                if min(header) < 0:
                    raise ValueError
            except ValueError:
                raise ParseError(f"line {lineno}: expected 'p edge n m', got {raw!r}") from None
            continue
        try:
            u, v = map(integer, tokens)  # ValueError unless two integers
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex index")
        pairs.append((u, v, lineno))

    if header is None:
        if not pairs:
            return Graph(0, ())
        (head_u, head_v, lineno), rest = pairs[0], pairs[1:]
        if (head_u > max((max(u, v) for u, v, _ in rest), default=-1)
                and head_v == len({(min(u, v), max(u, v)) for u, v, _ in rest})):
            raise ParseError(f"line {lineno}: '{head_u} {head_v}' reads as an 'n m' "
                             "header or as an edge; write a header as 'p edge n m'")
    edges = set()
    for u, v, lineno in pairs:
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        edges.add((min(u, v), max(u, v)))
    if header is None:
        n = max(v for _, v in edges) + 1
    else:
        n, m = header
        if len(edges) != m:
            raise ParseError(f"header declares {m} edges, found {len(edges)} distinct")
    if n >= MAX_GRAPH6_N:
        raise ParseError(f"vertex count {n} reaches the graph6 cap of {MAX_GRAPH6_N}")
    if edges and max(v for _, v in edges) >= n:
        raise ParseError(f"edge index exceeds declared vertex count {n}")
    return Graph.from_edges(n, edges)


def to_edge_list(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6 format: 6-bit groups offset by 63, column-major upper triangle.
# ---------------------------------------------------------------------------

MAX_GRAPH6_N = 1 << 18
# A graph6 character is 63 + a 6-bit value; base64 writes the same value as
# the value-th letter of its alphabet. So one byte translation turns base64
# text into graph6 text and back, and the C base64 codec packs the groups.
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6_ALPHABET = bytes(range(63, 127))
_B64_TO_GRAPH6 = bytes.maketrans(_B64_ALPHABET, _GRAPH6_ALPHABET)
_GRAPH6_TO_B64 = bytes.maketrans(_GRAPH6_ALPHABET, _B64_ALPHABET)
_GRAPH6_INVALID = re.compile(r"[^?-~]")
# The size field forms of nauty's formats.txt: after k leading "~", n in
# _GRAPH6_SIZE_DIGITS[k] 6-bit digits, most significant first, each written
# as 63 + its value.
_GRAPH6_SIZE_DIGITS = (1, 3, 6)


def _graph6_header(n: int) -> str:
    """The size field the encoder writes for n, as nauty's formats.txt puts
    it: the first form of ``_GRAPH6_SIZE_DIGITS`` whose first digit stays
    below 63, since a first digit of 63 is "~" and would read as one more
    leading "~". So one character for n <= 62, "~" and three for n <= 258047,
    and "~~" and six up to the cap."""
    if n >= MAX_GRAPH6_N:
        raise GraphError(f"graph6 encoding capped at n < {MAX_GRAPH6_N}")
    tildes, digits = next((k, d) for k, d in enumerate(_GRAPH6_SIZE_DIGITS)
                          if n >> 6 * (d - 1) < 63)
    return "~" * tildes + "".join([chr((n >> shift & 0x3F) + 63)
                                   for shift in range(6 * (digits - 1), -1, -6)])


def to_graph6(g: Graph) -> str:
    """The graph's one-line graph6 string (nauty-compatible): its size field
    by ``_graph6_header``, then the upper triangle column by column, zero
    padded to whole characters.

    The text is encoded once per graph and kept on it; a graph that
    ``parse_graph6`` read from this very text keeps that line and is never
    encoded.
    """
    return g._graph6


def _encode_graph6(g: Graph) -> str:
    """``to_graph6``'s text, encoded from the adjacency rows."""
    n = g.n
    head = _graph6_header(n)

    # Column col holds rows 0..col-1, lowest row first: written last column
    # first, highest row first, then reversed once.
    bitstring = "".join([
        format(g.adjacency[col] & ((1 << col) - 1), f"0{col}b") for col in range(n - 1, 0, -1)
    ])[::-1]
    if not bitstring:
        return head
    # Zero-padded to whole 24-bit base64 quanta; the surplus groups are cut.
    width = len(bitstring) + (-len(bitstring) % 24)
    packed = (int(bitstring, 2) << (width - len(bitstring))).to_bytes(width // 8, "big")
    body = base64.b64encode(packed).translate(_B64_TO_GRAPH6)
    return head + body[: -(-len(bitstring) // 6)].decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string, after an optional ">>graph6<<"
    prefix and within surrounding whitespace.

    Every size field form is read for every n, and padding bits past the
    n(n-1)/2 pair bits are ignored. A line that is exactly what the encoder
    writes for the graph, its size field by ``_graph6_header`` and its
    padding bits zero, is kept on the graph as its ``to_graph6`` text; any
    other spelling is encoded afresh when that text is first asked for.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ParseError("empty graph6 input")
    bad = _GRAPH6_INVALID.search(s)
    if bad:
        raise ParseError(
            f"invalid graph6 character at byte offset {bad.start()}: {bad.group()!r}"
        )

    tildes = 0 if s[0] != "~" else 1 if s[1:2] != "~" else 2
    pos = tildes + _GRAPH6_SIZE_DIGITS[tildes]
    if len(s) < pos:
        raise ParseError("truncated graph6 size field")
    n = 0
    for ch in s[tildes:pos]:
        n = n << 6 | (ord(ch) - 63)
    if n >= MAX_GRAPH6_N:
        raise ParseError(f"graph6 decoding capped at n < {MAX_GRAPH6_N}")

    need = n * (n - 1) // 2
    have = 6 * (len(s) - pos)
    if have < need or have >= need + 6:
        raise ParseError(
            f"graph6 bit stream length mismatch: need {need} bits, got {have}"
        )
    # "A" (0) pads the base64 text to whole 4-character quanta.
    body = s[pos:].encode("ascii").translate(_GRAPH6_TO_B64)
    packed = base64.b64decode(body + b"A" * (-len(body) % 4))
    bitstring = format(int.from_bytes(packed, "big"), f"0{8 * len(packed)}b")
    lower = [0] * n
    start = 0
    for col in range(1, n):
        lower[col] = int(bitstring[start : start + col][::-1], 2)
        start += col
    canonical = s[:pos] == _graph6_header(n) and bitstring.find("1", need) < 0
    # Row v is its lower rows plus, by transpose, the columns above v that
    # hold v: symmetric, loop-free and within range by construction.
    return Graph._trusted(n, tuple(map(int.__or__, lower, transpose(lower, n))),
                          s if canonical else None)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_complete_multipartite(parts: Iterable[int]) -> Graph:
    """Complete multipartite graph on the given part sizes, parts in order:
    two vertices are adjacent iff they lie in different parts.

    At least one part is needed, and each size must be an integer >= 1.
    Sizes are read by ``operator.index``, so 2.5 or "2" is an error, not a
    truncated size.
    """
    parts = tuple(parts)
    try:
        sizes = tuple(map(operator.index, parts))
    except TypeError:
        raise GraphError(f"part sizes must be integers, got {parts}") from None
    if not sizes:
        raise GraphError("a complete multipartite graph needs at least one part")
    if min(sizes) < 1:
        raise GraphError(f"part sizes must be >= 1, got {sizes}")
    n = sum(sizes)
    full = (1 << n) - 1
    rows = []
    start = 0
    for size in sizes:
        part_mask = ((1 << size) - 1) << start
        for v in range(start, start + size):
            rows.append(full & ~part_mask)
        start += size
    return Graph(n, tuple(rows))


def generate_random(n: int, p: Fraction, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with exact rational p.

    PRNG: Python's ``random.Random`` (Mersenne Twister) seeded with a
    ``seed`` >= 0 (``Random`` seeds -s like s, so negative seeds are refused).
    Pairs are visited in lexicographic order and each takes one draw; the
    pair (u, v) is an edge iff getrandbits(64) / 2^64 < p, evaluated exactly
    as getrandbits(64) < ceil(p * 2^64), since an integer lies below a
    rational exactly when it lies below that rational's ceiling. Identical
    seeds reproduce identical graphs.

    Evaluation: row u takes the draws of its k = n - u - 1 pairs (u, v > u)
    in one getrandbits(64 * k) call, which CPython fills 32 bits at a time
    from the least significant end, so it is those k getrandbits(64) draws
    with draw i at bits [64i, 64i + 64): its big-endian bytes hold the draws
    last first, each in 8 big-endian bytes. A draw whose top byte is below
    the threshold's is an edge, above it a non-edge; only a tie, about one
    draw in 256, is settled by the full comparison. The row's marks, last
    draw first, are then its bits, most significant first.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise GraphError(f"edge probability must lie in [0, 1], got {p}")
    if seed < 0:
        raise GraphError(f"seed must be >= 0, got {seed}")
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    draw = random.Random(seed).getrandbits
    threshold = math.ceil(p * (1 << 64))
    top = threshold >> 56  # 256 at p = 1, which no byte ties
    # A draw's top byte as its pair's mark: "1" edge, "0" none, "t" a tie.
    marks = b"".join(b"1" if b < top else b"t" if b == top else b"0" for b in range(256))
    rows = [0] * n  # row u's neighbours above u, until the union below
    for u in range(n - 1):
        k = n - u - 1
        raw = draw(64 * k).to_bytes(8 * k, "big")
        row = bytearray(raw[::8].translate(marks))
        i = row.find(b"t")
        while i >= 0:
            edge = int.from_bytes(raw[8 * i:8 * i + 8], "big") < threshold
            row[i:i + 1] = b"1" if edge else b"0"
            i = row.find(b"t", i + 1)
        rows[u] = int(row, 2) << (u + 1)
    # Row v gains, by transpose, the rows below v that hold v: symmetric,
    # loop-free and within range by construction. The union is taken in
    # place, so no third list of rows is held at the peak.
    for v, below in enumerate(transpose(rows, n)):
        rows[v] |= below
    return Graph._trusted(n, tuple(rows), None)
