"""Command-line harness: analyze, generate, phi, selfcheck.

Exit codes: 0 success, 1 invariant/assertion failure, 2 usage/input error,
3 work budget exceeded. ``phi`` also exits 4 on
the strict (non-tight) outcome so scripts can branch on tightness; 0 covers
both the tight and the vacuous (t > omega) outcome. ``bounds.outcome`` names
the outcome of a record, in the ``analyze`` summary and the ``phi`` verdict.

Each command takes the parsed ``argparse.Namespace``: ``build_parser`` sets
every option's default and reads every number with ``graph.integer`` or
``graph.rational``, and ``usage_error`` checks every option's range.

Rationals serialize as "p/q" strings; a display-only decimal column with 10
significant digits rides along for human scanning.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import (
    BoundReport,
    TightnessInvariantError,
    bound_reports,
    check_tightness,
    is_regular_complete_multipartite,
    outcome,
)
from .cliques import DEFAULT_BUDGET, BudgetExceeded, CliqueIndex
from .corpus import named_small_graphs, random_graph_name, seeded_random_corpus
from .graph import (
    Graph,
    MAX_GRAPH6_N,
    GraphError,
    ParseError,
    generate_complete_multipartite,
    generate_random,
    integer,
    parse_edge_list,
    parse_graph6,
    rational,
    rational_text,
    to_graph6,
)
from .oracles import (
    brute_alpha_histogram,
    brute_count_cliques,
    brute_vertex_clique_numbers,
)
from .simplex import (
    PhiNegativityError,
    SimplexPoint,
    descend_to_clique_support,
    eval_phi,
    verify_nonnegativity,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_STRICT = 4

# The longest file name, in bytes, that common file systems accept.
NAME_MAX = 255

# The largest clique order t that a command or an experiment script takes;
# the smallest is 2.
MAX_T = 16

CSV_COLUMNS = ["file", "n", "m", "t", "N", "localized_bound", "zykov_bound",
               "tight", "certificate"]


def _dec(v: Fraction) -> str:
    return f"{float(v):.10g}"


def graph_hash(g: Graph) -> str:
    return hashlib.sha256(to_graph6(g).encode("ascii")).hexdigest()[:16]


def load_graph_file(path: Path) -> Graph:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text at byte offset {exc.start}") from None
    if path.suffix == ".g6":
        lines = [line for line in text.splitlines() if line.strip()]
        if len(lines) != 1:
            raise ParseError(f"expected one graph6 line, found {len(lines)}")
        return parse_graph6(lines[0])
    if path.suffix == ".el":
        return parse_edge_list(text)
    raise ParseError("unknown extension (expected .g6 or .el)")


def collect_inputs(paths) -> list[Path]:
    """Files directly; directories scanned non-recursively for .g6/.el."""
    out = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(q for q in p.iterdir()
                              if q.is_file() and q.suffix in (".g6", ".el")))
        else:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _report_record(path: Path, g_hash: str, rep: BoundReport) -> dict:
    return {
        "file": str(path),
        "graph_hash": g_hash,
        "version": __version__,
        "n": rep.n,
        "m": rep.m,
        "t": rep.t,
        "omega": rep.omega,
        "true_count": rep.true_count,
        "localized_zykov": rational_text(rep.localized_zykov),
        "localized_zykov_dec": _dec(rep.localized_zykov),
        "zykov_classical": rational_text(rep.zykov_classical),
        "turan": rational_text(rep.turan) if rep.turan is not None else None,
        "edge_localized_sum": rational_text(rep.edge_localized_sum),
        "vertex_localized_turan": rep.vertex_localized_turan,
        "kirsch_nir_sum": rational_text(rep.kirsch_nir_sum),
        "tight": rep.is_tight,
        "certificate": list(rep.extremal_certificate) if rep.extremal_certificate else None,
    }


def cmd_analyze(args) -> int:
    paths = collect_inputs(args.inputs)
    if not paths:
        print("error: no inputs", file=sys.stderr)
        return EXIT_USAGE
    ts = range(args.t, args.t_max + 1)
    records = []
    failures = 0
    over_budget = 0
    for path in paths:
        try:
            g = load_graph_file(path)
        except (OSError, GraphError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        g_hash = graph_hash(g)
        try:
            reports = bound_reports(CliqueIndex(g, args.budget), ts)
        except BudgetExceeded as exc:
            records.extend({"file": str(path), "t": t, "error": str(exc)} for t in ts)
            over_budget += 1
            continue
        except TightnessInvariantError as exc:
            print(f"error: {path}: t={exc.t}: {exc}", file=sys.stderr)
            return EXIT_FAILURE
        records.extend(_report_record(path, g_hash, rep) for rep in reports)
    # With no graph loaded there is no report to write, but the summary
    # still names the failures.
    if failures < len(paths) and not _write_output(_render_records(records, args.format),
                                                   args.out):
        return EXIT_USAGE
    ok = [r for r in records if "error" not in r]
    kinds = Counter(outcome(r["t"], r["omega"], r["tight"]) for r in ok)
    print(f"analyzed {len(paths) - failures - over_budget} graphs, {len(ok)} records, "
          f"{kinds['tight']} tight, {kinds['strict']} strict, {kinds['vacuous']} vacuous, "
          f"{failures} failed to load, {over_budget} over budget", file=sys.stderr)
    if failures:
        return EXIT_USAGE
    if over_budget:
        return EXIT_BUDGET
    return EXIT_OK


def _write_output(text: str, out: Path | None) -> bool:
    """Write ``text`` to ``out``, or to stdout; False if it cannot be written."""
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            out.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _render_records(records, fmt: str) -> str:
    if fmt == "json":
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        if "error" in r:
            writer.writerow([r["file"], "", "", r["t"], "", "", "", "", f"error: {r['error']}"])
            continue
        cert = "+".join(str(s) for s in r["certificate"]) if r["certificate"] else ""
        writer.writerow([r["file"], r["n"], r["m"], r["t"], r["true_count"],
                         r["localized_zykov"], r["zykov_classical"],
                         str(r["tight"]).lower(), cert])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    try:
        if args.kind == "multipartite":
            n = sum(args.parts)
            # Runs of equal parts as SxR, R parts of S vertices: 2,2,2 -> 2x3.
            runs = "-".join(f"{size}x{len(list(run))}"
                            for size, run in itertools.groupby(args.parts))
            names = [f"multipartite_{runs}.g6"]
            graphs = ((names[0], generate_complete_multipartite(args.parts)) for _ in [args.parts])
        else:
            n = args.n

            def file_name(seed):
                return random_graph_name(n, args.p, seed) + ".g6"
            seeds = range(args.seed, args.seed + args.count)
            # Names differ only in the seed, whose longest form is at an end of
            # the range, so the two ends stand for all --count names.
            names = [file_name(seeds[0]), file_name(seeds[-1])]
            graphs = ((file_name(seed), generate_random(n, args.p, seed)) for seed in seeds)
        longest = max(names, key=len)
        if len(longest) > NAME_MAX:  # ASCII: one byte per character
            raise ValueError(f"file name of {len(longest)} bytes exceeds the "
                             f"{NAME_MAX}-byte limit: {longest[:64]}...")
        # n rows of n bits, or C(n, 2) random draws, would take long before
        # to_graph6 rejected n, so the cap is checked before any graph is built.
        if n >= MAX_GRAPH6_N:
            raise GraphError(f"graph6 encoding capped at n < {MAX_GRAPH6_N}, got {n}")
        # The first graph is built before --out is made, so invalid --parts,
        # --p or --n values, or too long a name, leave no directory behind.
        first = next(graphs)
        args.out.mkdir(parents=True, exist_ok=True)
        for name, g in itertools.chain([first], graphs):
            (args.out / name).write_text(to_graph6(g) + "\n", encoding="ascii")
            print(args.out / name)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------

def cmd_phi(args) -> int:
    paths = collect_inputs(args.inputs)
    if len(paths) != 1:
        print("error: phi takes exactly one input graph", file=sys.stderr)
        return EXIT_USAGE
    try:
        g = load_graph_file(paths[0])
    except (OSError, GraphError) as exc:
        print(f"error: {paths[0]}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    t = args.t
    lines = []
    try:
        index = CliqueIndex(g, args.budget)
        if g.n == 0:
            lines.append("phi_uniform = 0/1 (0)")
            lines.append("min_sampled_phi = 0/1 (0)")
            tight = True
        else:
            report = verify_nonnegativity(index, t, args.samples, args.seed)
            tight = report.phi_uniform == 0
            check_tightness(t, index.omega, tight, is_regular_complete_multipartite(g))
            lines.append(f"phi_uniform = {rational_text(report.phi_uniform)} "
                         f"({_dec(report.phi_uniform)})")
            lines.append(f"min_sampled_phi = {rational_text(report.min_phi)} "
                         f"({_dec(report.min_phi)}) over "
                         f"{report.points_checked} points")
            trace = descend_to_clique_support(index, t, SimplexPoint.uniform(g.n),
                                              report.phi_uniform)
            lines.extend(trace.to_lines())
            end_phi = eval_phi(index, t, trace.end).phi
            lines.append(f"descent_end_phi = {rational_text(end_phi)} ({_dec(end_phi)}) "
                         f"support_clique_order={trace.omega_end}")
    except BudgetExceeded as exc:
        print(f"error: {paths[0]}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PhiNegativityError, TightnessInvariantError) as exc:
        print(f"error: {paths[0]}: t={t}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if not _write_output("\n".join(lines) + "\n", args.out):
        return EXIT_USAGE
    # A vacuous phi(uniform) = 0 keeps exit 0.
    kind = outcome(t, index.omega, tight)
    print(f"vacuous, t = {t} > omega = {index.omega}" if kind == "vacuous" else kind,
          file=sys.stderr)
    return EXIT_OK if tight else EXIT_STRICT


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def _selfcheck_graphs():
    out = list(named_small_graphs().items())
    out.extend(seeded_random_corpus(6, ns=(8, 9), ps=(Fraction(1, 2),), base_seed=11))
    return out


def run_selfcheck(budget: int = DEFAULT_BUDGET, seed: int = 0):
    """Yield (name, ok, detail) for every built-in invariant check; an
    invariant error a check raises is yielded as that check's failure.

    Each graph gets one clique index, so the budget caps the work of all the
    checks on one graph."""
    graphs = _selfcheck_graphs()
    rng = random.Random(seed)
    for name, g in graphs:
        index = CliqueIndex(g, budget)
        profile = (index.c, index.omega)
        oracle_profile = brute_vertex_clique_numbers(g)
        yield (f"profile_oracle[{name}]", profile == oracle_profile,
               f"{profile} vs {oracle_profile}")
        try:
            reports = {rep.t: rep for rep in bound_reports(index, (2, 3, 4))}
        except TightnessInvariantError as exc:
            yield f"tightness[{name},t={exc.t}]", False, str(exc)
            continue
        for t, rep in reports.items():
            brute = brute_count_cliques(g, t)
            yield (f"count_oracle[{name},t={t}]", rep.true_count == brute,
                   f"{rep.true_count} vs {brute}")
            yield (f"soundness[{name},t={t}]",
                   Fraction(rep.true_count) <= rep.localized_zykov <= rep.zykov_classical,
                   f"N={rep.true_count}, local={rep.localized_zykov}, "
                   f"zykov={rep.zykov_classical}")
            yield (f"comparison_bounds[{name},t={t}]",
                   rep.edge_localized_sum <= Fraction(g.n**2, 2)
                   and rep.kirsch_nir_sum <= g.n**t,
                   f"edge_sum={rep.edge_localized_sum}, kn={rep.kirsch_nir_sum}")
        for t in (2, 3):
            histogram = index.histogram(t)
            brute = brute_alpha_histogram(g, t)
            yield (f"alpha_oracle[{name},t={t}]", histogram == brute,
                   f"{dict(histogram)} vs {dict(brute)}")
        rep2 = reports[2]
        yield (f"t2_recovery[{name}]",
               Fraction(rep2.vertex_localized_turan) <= rep2.localized_zykov
               and rep2.localized_zykov - rep2.vertex_localized_turan < 1,
               f"floor={rep2.vertex_localized_turan}, pre={rep2.localized_zykov}")
        if g.n >= 1:
            uniform = SimplexPoint.uniform(g.n)
            for t in (2, 3):
                seed = rng.randrange(1 << 30)
                try:  # a negative phi raises
                    ok, detail = True, f"min={verify_nonnegativity(index, t, 20, seed).min_phi}"
                except PhiNegativityError as exc:
                    ok, detail = False, str(exc)
                yield f"phi_nonneg[{name},t={t}]", ok, detail
                # The bound's slack is phi at the uniform point, scaled by n^t:
                # the one-point kernel against the walk that counts N.
                scaled = g.n**t * eval_phi(index, t, uniform).phi
                slack = reports[t].localized_zykov - reports[t].true_count
                yield (f"phi_uniform[{name},t={t}]", scaled == slack,
                       f"n^t phi(uniform)={scaled}, localized-N={slack}")


def cmd_selfcheck(args) -> int:
    failures = 0
    try:
        for name, ok, detail in run_selfcheck(budget=args.budget, seed=args.seed):
            status = "PASS" if ok else "FAIL"
            print(f"{status} {name}" + ("" if ok else f": {detail}"))
            failures += 0 if ok else 1
    except BudgetExceeded as exc:
        print(f"BUDGET {exc}")
        return EXIT_BUDGET
    print(f"selfcheck: {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def integers(text: str) -> tuple[int, ...]:
    """Comma-separated ``integer`` values, as ``--parts`` takes them."""
    return tuple(map(integer, text.split(",")))


# Built once per process: parse_args does not change the parser, a build takes
# about 1 ms (Python 3.11, 2 vCPUs), and each parser is a reference cycle left
# for the cyclic garbage collector, which a caller making many main() calls
# pays for in memory.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquebound",
        description="Exact clique-count bound verification toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "inputs": dict(nargs="*", help="graph files or directories"),
        "kind": dict(choices=["multipartite", "random"]),
        "--t": dict(type=integer, default=2, help="clique order (default 2)"),
        "--t-max": dict(type=integer, default=None, help="analyze a range t..t_max"),
        "--format": dict(choices=["json", "csv"], default="json"),
        "--seed": dict(type=integer, default=0),
        "--samples": dict(type=integer, default=100),
        "--budget": dict(type=integer, default=DEFAULT_BUDGET,
                         help="max clique work per graph, in work nodes (default %(default)s)"),
        "--out": dict(type=Path, default=None),
        "--parts": dict(type=integers, default=None, help="comma-separated part sizes"),
        "--n": dict(type=integer, default=None),
        "--p": dict(type=rational, default=None, help="edge probability as p/q"),
        "--count": dict(type=integer, default=1),
    }

    def command(name, run, help, *flags):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        return p

    command("analyze", cmd_analyze, "evaluate all bounds per graph",
            "inputs", "--t", "--t-max", "--format", "--budget", "--out")
    gen = command("generate", cmd_generate, "write graph6 corpus files",
                  "kind", "--parts", "--n", "--p", "--seed", "--count")
    gen.add_argument("--out", type=Path, required=True)  # a directory, not a report
    command("phi", cmd_phi, "potential evaluation and descent trace",
            "inputs", "--t", "--seed", "--samples", "--budget", "--out")
    command("selfcheck", cmd_selfcheck, "run built-in invariant checks",
            "--seed", "--budget")
    return parser


def usage_error(args) -> str | None:
    """The first out-of-range or missing option of ``args``, as the message of
    the one ``error: `` line to print, or None."""
    if "t" in args and not 2 <= args.t <= args.t_max <= MAX_T:
        return f"t range must satisfy 2 <= t <= t_max <= {MAX_T}, got [{args.t}, {args.t_max}]"
    if "seed" in args and args.seed < 0:  # Random(-s) seeds like Random(s)
        return f"seed must be >= 0, got {args.seed}"
    if "samples" in args and args.samples < 1:
        return f"sample count must be >= 1, got {args.samples}"
    if "budget" in args and args.budget < 1:
        return f"budget must be >= 1, got {args.budget}"
    if args.command == "generate":
        if args.kind == "multipartite" and not args.parts:
            return "generate multipartite requires --parts"
        if args.kind == "random" and (args.n is None or args.p is None):
            return "generate random requires --n and --p"
        if args.kind == "random" and args.n < 0:
            return f"n must be >= 0, got {args.n}"
        if args.count < 1:
            return f"count must be >= 1, got {args.count}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "t" in args and getattr(args, "t_max", None) is None:
        args.t_max = args.t  # --t-max defaults to --t; phi reads one t
    message = usage_error(args)
    if message is not None:
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    return args.run(args)


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
