"""Seeded corpora, CLI arguments and the correctness gate of each workload.

The program under test sees only the graph6 files written from a corpus.
The gate checks each output with exact ``Fraction`` arithmetic against
properties the paper guarantees, against closed forms for the regular complete
multipartite graphs K_{s x r}, against a triangle count taken from the
adjacency rows, and against the brute-force oracles on graphs small enough
for them.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from cliquebound.graph import Graph, generate_complete_multipartite, generate_random, to_graph6
from cliquebound.oracles import brute_count_cliques, brute_vertex_clique_numbers

# brute_vertex_clique_numbers enumerates every vertex subset: 0.1 s at n = 16,
# 1.7 s at n = 20. Counting t-subsets stays cheap up to the oracle limit.
ORACLE_PROFILE_MAX_N = 16
ORACLE_COUNT_MAX_N = 20


@dataclass(frozen=True)
class Item:
    """One corpus graph and the file name it is written under."""

    name: str
    graph: Graph
    parts: tuple[int, ...] | None = None  # part sizes when the graph is K_{s x r}

    @property
    def g6(self) -> str:
        return to_graph6(self.graph) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "analyze" or "phi"
    args: tuple[str, ...]  # CLI arguments after the input file
    corpus: Callable[[int], list[Item]]


def _named(items: list[tuple[str, Graph, tuple[int, ...] | None]]) -> list[Item]:
    return [Item(f"{k:03d}-{label}.g6", g, parts) for k, (label, g, parts) in enumerate(items)]


def _multipartite(s: int, r: int):
    return (f"K{s}x{r}", generate_complete_multipartite([s] * r), (s,) * r)


def _gnp_entry(rng: random.Random, n: int, p: Fraction):
    graph = generate_random(n, p, rng.getrandbits(32))
    return (f"gnp-n{n}-p{p.numerator}-{p.denominator}", graph, None)


def dense_corpus(seed: int) -> list[Item]:
    """43 G(n, 1/2) with n in 40..60, 5 G(n, 3/4) with n in 30..32, K_{4x6}, K_{2x10}.

    The cost of one G(n, p) varies by about 30% from seed to seed, and more
    for the larger n. Many mid-sized graphs keep the corpus's total cost and
    median cost close across seeds; a few large ones keep the range.
    """
    rng = random.Random(f"analyze-dense/{seed}")
    half = [_gnp_entry(rng, n, Fraction(1, 2))
            for n in (40,) * 4 + (44,) * 12 + (48,) * 20 + (52,) * 4 + (56, 56, 60)]
    three_q = [_gnp_entry(rng, n, Fraction(3, 4)) for n in (30, 30, 30, 30, 32)]
    return _named(half + three_q + [_multipartite(4, 6), _multipartite(2, 10)])


def sparse_corpus(seed: int) -> list[Item]:
    """G(n, 6/n) for n = 300, 320, ..., 500: mean degree about 6."""
    rng = random.Random(f"analyze-sparse/{seed}")
    return _named([_gnp_entry(rng, n, Fraction(6, n)) for n in range(300, 501, 20)])


def phi_corpus(seed: int) -> list[Item]:
    """100 G(n, 1/2) with n cycling through 16..28, then K_{3x5}, K_{2x8}, K_{4x6}."""
    rng = random.Random(f"phi-simplex/{seed}")
    graphs = [_gnp_entry(rng, 16 + k % 13, Fraction(1, 2)) for k in range(100)]
    return _named(graphs + [_multipartite(3, 5), _multipartite(2, 8), _multipartite(4, 6)])


ANALYZE_T = (3, 4)
ANALYZE_ARGS = ("--t", str(ANALYZE_T[0]), "--t-max", str(ANALYZE_T[-1]))
PHI_T = 3
PHI_SAMPLES = 20

WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-dense", "analyze", ANALYZE_ARGS, dense_corpus),
        Workload("analyze-sparse", "analyze", ANALYZE_ARGS, sparse_corpus),
        Workload("phi-simplex", "phi",
                 ("--t", str(PHI_T), "--samples", str(PHI_SAMPLES)), phi_corpus),
    )
}


def write_corpus(items: list[Item], outdir: Path) -> list[Path]:
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for item in items:
        path = outdir / item.name
        path.write_text(item.g6, encoding="ascii")
        paths.append(path)
    return paths


def normalized_output(path: Path, text: str) -> str:
    """Output with the input path replaced by its basename, so the digest does
    not depend on the directory a run writes its corpus to."""
    return text.replace(f'"file": {json.dumps(str(path))}', f'"file": {json.dumps(path.name)}')


def output_digest(names: list[str], codes: list[int], texts: list[str]) -> str:
    h = hashlib.sha256()
    for name, code, text in zip(names, codes, texts):
        h.update(f"{name}\0{code}\0{text}\0".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _frac(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def triangle_count(g: Graph) -> int:
    """N(G, K_3) from the adjacency rows: each triangle covers three edges."""
    adj = g.adjacency
    return sum((adj[u] & adj[v]).bit_count() for u, v in g.edges()) // 3


def check_output(workload: Workload, item: Item, code: int, text: str) -> list[str]:
    """Every violated property of one CLI call's exit code and output."""
    if workload.command == "analyze":
        return check_analyze(item, code, text)
    return check_phi(item, code, text)


def check_analyze(item: Item, code: int, text: str) -> list[str]:
    g = item.graph
    if code != 0:
        return [f"exit code {code}"]
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as exc:
        return [f"unparsable record: {exc}"]
    if [r.get("t") for r in records] != list(range(ANALYZE_T[0], ANALYZE_T[-1] + 1)):
        return [f"records for t = {[r.get('t') for r in records]}"]
    errors = []
    g6_hash = hashlib.sha256(item.g6.strip().encode("ascii")).hexdigest()[:16]
    omega_oracle = (brute_vertex_clique_numbers(g).omega
                    if g.n <= ORACLE_PROFILE_MAX_N else None)
    for r in records:
        t = r["t"]
        if "error" in r:
            errors.append(f"t={t}: error record {r['error']!r}")
            continue
        where = f"t={t}"
        if r["file"] != item.name or r["graph_hash"] != g6_hash:
            errors.append(f"{where}: file {r['file']!r} hash {r['graph_hash']}")
        if (r["n"], r["m"]) != (g.n, g.m):
            errors.append(f"{where}: n, m = {r['n']}, {r['m']}, expected {g.n}, {g.m}")
        count = r["true_count"]
        localized = _frac(r["localized_zykov"])
        if not count <= localized <= _frac(r["zykov_classical"]):
            errors.append(f"{where}: N <= localized <= classical fails")
        if _frac(r["edge_localized_sum"]) > Fraction(g.n * g.n, 2):
            errors.append(f"{where}: edge_localized_sum > n^2/2")
        if _frac(r["kirsch_nir_sum"]) > g.n ** t:
            errors.append(f"{where}: kirsch_nir_sum > n^t")
        if t == 3 and count != triangle_count(g):
            errors.append(f"{where}: true_count {count} != triangle count {triangle_count(g)}")
        if g.n <= ORACLE_COUNT_MAX_N and count != brute_count_cliques(g, t):
            errors.append(f"{where}: true_count {count} != oracle")
        if omega_oracle is not None and r["omega"] != omega_oracle:
            errors.append(f"{where}: omega {r['omega']} != oracle {omega_oracle}")
        if item.parts:
            s, parts = item.parts[0], len(item.parts)
            if (r["omega"], count) != (parts, comb(parts, t) * s ** t):
                errors.append(f"{where}: omega, N = {r['omega']}, {count} on K_{s}x{parts}")
            if t <= parts and not (r["tight"] and r["certificate"] == list(item.parts)):
                errors.append(f"{where}: K_{s}x{parts} not certified tight")
    return errors


_PHI_LINE = re.compile(r"(\w+) = (-?\d+/\d+) \(\S+\)(.*)")
_POINTS = re.compile(r" over (\d+) points")
_STEP_LINE = re.compile(r"step=(\d+) i=(\d+) j=(\d+) eps=(\S+) delta=(\S+) phi=(\S+)")


def check_phi(item: Item, code: int, text: str) -> list[str]:
    g = item.graph
    values, tails, step_phis = {}, {}, []
    for line in text.splitlines():
        if m := _PHI_LINE.fullmatch(line):
            values[m[1]] = _frac(m[2])
            tails[m[1]] = m[3]
        elif m := _STEP_LINE.fullmatch(line):
            step_phis.append(_frac(m[6]))
        else:
            return [f"unexpected line {line!r}"]
    if set(values) != {"phi_uniform", "min_sampled_phi", "descent_end_phi"}:
        return [f"exit code {code}, lines {sorted(values)}"]
    errors = []
    uniform, low, end = values["phi_uniform"], values["min_sampled_phi"], values["descent_end_phi"]
    if code != (0 if uniform == 0 else 4):
        errors.append(f"exit code {code} with phi_uniform = {uniform}")
    if not 0 <= low <= uniform:
        errors.append(f"min_sampled_phi {low} outside [0, phi_uniform]")
    if tails["min_sampled_phi"] != f" over {1 + g.n + PHI_SAMPLES} points":
        errors.append(f"points: {tails['min_sampled_phi']!r}")
    path = [uniform] + step_phis
    if any(b > a for a, b in zip(path, path[1:])) or path[-1] != end:
        errors.append("descent phi increases or does not end at descent_end_phi")
    order = int(tails["descent_end_phi"].rpartition("=")[2])
    if order != g.n - len(step_phis):
        errors.append(f"support order {order} after {len(step_phis)} steps from n = {g.n}")
    omega = (len(item.parts) if item.parts
             else brute_vertex_clique_numbers(g).omega if g.n <= ORACLE_PROFILE_MAX_N
             else None)
    if omega is not None and order > omega:
        errors.append(f"descent ends on a {order}-clique, omega = {omega}")
    if item.parts and len(item.parts) >= PHI_T and uniform != 0:
        errors.append(f"K_{item.parts[0]}x{len(item.parts)} not tight: phi_uniform = {uniform}")
    return errors


# ---------------------------------------------------------------------------
# work counts, read from the outputs
# ---------------------------------------------------------------------------

COUNT_METRICS = ("graph.n", "graph.m", "cliques.t_cliques", "bounds.edge_searches",
                 "bounds.copy_searches", "simplex.points", "simplex.descent_steps")


def work_counts(workload: Workload, items: list[Item], texts: list[str]) -> dict[str, int]:
    """Exact work of one pass: every value repeats exactly for one seed."""
    counts = dict.fromkeys(COUNT_METRICS, 0)
    counts["records"] = 0
    for item, text in zip(items, texts):
        counts["graph.n"] += item.graph.n
        counts["graph.m"] += item.graph.m
        if workload.command == "analyze":
            for r in map(json.loads, text.splitlines()):
                counts["records"] += 1
                counts["cliques.t_cliques"] += r["true_count"]
                counts["bounds.edge_searches"] += r["m"]
                counts["bounds.copy_searches"] += r["true_count"]
        else:
            counts["records"] += 1
            counts["simplex.points"] += int(_POINTS.search(text)[1])
            counts["simplex.descent_steps"] += sum(
                1 for line in text.splitlines() if line.startswith("step="))
    return counts
