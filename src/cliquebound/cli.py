"""Command-line harness: analyze, generate, phi, selfcheck.

Exit codes: 0 success, 1 invariant/assertion failure, 2 usage/input error,
3 work budget exceeded. The ``phi`` subcommand additionally uses exit code 4
for the strict (non-tight) outcome so scripts can branch on tightness.

Rationals serialize as "p/q" strings; a display-only decimal column with 10
significant digits rides along for human scanning.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import bound_report
from .cliques import (
    BudgetExceeded,
    count_cliques,
    largest_clique_orders,
    vertex_clique_numbers,
)
from .corpus import named_small_graphs, seeded_random_corpus
from .graph import (
    Graph,
    GraphError,
    ParseError,
    PartSpec,
    bits,
    generate_complete_multipartite,
    generate_random,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .oracles import (
    brute_count_cliques,
    brute_kirsch_nir_alpha,
    brute_vertex_clique_numbers,
)
from .simplex import (
    SimplexPoint,
    _rat,
    descend_to_clique_support,
    eval_phi,
    verify_nonnegativity,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_STRICT = 4

CSV_COLUMNS = ["file", "n", "m", "t", "N", "localized_bound", "zykov_bound",
               "tight", "certificate"]


@dataclass(frozen=True)
class RunConfig:
    inputs: tuple[Path, ...] = ()
    t_min: int = 2
    t_max: int = 2
    fmt: str = "json"
    seed: int = 0
    samples: int = 100
    budget: int | None = None
    out: Path | None = None

    def __post_init__(self):
        if not (2 <= self.t_min <= self.t_max <= 16):
            raise ValueError(f"t range must satisfy 2 <= t <= t_max <= 16, "
                             f"got [{self.t_min}, {self.t_max}]")
        if self.samples < 0:
            raise ValueError("sample count must be >= 0")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.fmt!r}")


def _dec(v: Fraction) -> str:
    return f"{float(v):.10g}"


def graph_hash(g: Graph) -> str:
    return hashlib.sha256(to_graph6(g).encode("ascii")).hexdigest()[:16]


def load_graph_file(path: Path) -> Graph:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".g6":
        for line in text.splitlines():
            if line.strip():
                return parse_graph6(line)
        raise ParseError(f"{path}: no graph6 line found")
    if path.suffix == ".el":
        return parse_edge_list(text)
    raise ParseError(f"{path}: unknown extension (expected .g6 or .el)")


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

def _report_record(path: Path, g: Graph, t: int, budget: int | None) -> dict:
    rep = bound_report(g, t, budget=budget)
    cert = list(rep.extremal_certificate.sizes) if rep.extremal_certificate else None
    return {
        "file": str(path),
        "graph_hash": graph_hash(g),
        "version": __version__,
        "n": rep.n,
        "m": rep.m,
        "t": rep.t,
        "omega": rep.omega,
        "true_count": rep.true_count,
        "localized_zykov": _rat(rep.localized_zykov),
        "localized_zykov_dec": _dec(rep.localized_zykov),
        "zykov_classical": _rat(rep.zykov_classical),
        "turan": _rat(rep.turan) if rep.turan is not None else None,
        "edge_localized_sum": _rat(rep.edge_localized_sum),
        "vertex_localized_turan": rep.vertex_localized_turan,
        "kirsch_nir_sum": _rat(rep.kirsch_nir_sum),
        "tight": rep.is_tight,
        "certificate": cert,
    }


def cmd_analyze(config: RunConfig) -> int:
    paths = collect_inputs(config.inputs)
    if not paths:
        print("no inputs", file=sys.stderr)
        return EXIT_USAGE
    records = []
    failures = 0
    budget_hit = False
    for path in paths:
        try:
            g = load_graph_file(path)
        except (OSError, ParseError, GraphError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        for t in range(config.t_min, config.t_max + 1):
            try:
                records.append(_report_record(path, g, t, config.budget))
            except BudgetExceeded as exc:
                records.append({"file": str(path), "t": t, "error": str(exc)})
                budget_hit = True
    if failures == len(paths):
        return EXIT_USAGE

    text = _render_records(records, config.fmt)
    if config.out:
        config.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    ok = [r for r in records if "error" not in r]
    tight = sum(1 for r in ok if r["tight"])
    print(f"analyzed {len(paths) - failures} graphs, {len(ok)} records, "
          f"{tight} tight, {len(ok) - tight} strict", file=sys.stderr)
    if budget_hit:
        return EXIT_BUDGET
    return EXIT_OK


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
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.kind == "multipartite":
            sizes = tuple(int(s) for s in args.parts.split(","))
            g = generate_complete_multipartite(PartSpec(sizes))
            name = "multipartite_" + "-".join(str(s) for s in sizes) + ".g6"
            (outdir / name).write_text(to_graph6(g) + "\n", encoding="ascii")
            print(outdir / name)
        elif args.kind == "random":
            p = Fraction(args.p)
            for k in range(args.count):
                seed = args.seed + k
                g = generate_random(args.n, p, seed)
                name = f"random_n{args.n}_p{p.numerator}-{p.denominator}_seed{seed}.g6"
                (outdir / name).write_text(to_graph6(g) + "\n", encoding="ascii")
                print(outdir / name)
        else:
            print(f"unknown generator {args.kind!r}", file=sys.stderr)
            return EXIT_USAGE
    except (GraphError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------

def cmd_phi(config: RunConfig) -> int:
    paths = collect_inputs(config.inputs)
    if len(paths) != 1:
        print("phi takes exactly one input graph", file=sys.stderr)
        return EXIT_USAGE
    try:
        g = load_graph_file(paths[0])
    except (OSError, ParseError, GraphError) as exc:
        print(f"error: {paths[0]}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    t = config.t_min
    lines = []
    try:
        if g.n == 0:
            lines.append("phi_uniform = 0/1 (0)")
            lines.append("min_sampled_phi = 0/1 (0)")
            tight = True
        else:
            profile = vertex_clique_numbers(g, budget=config.budget)
            report = verify_nonnegativity(g, t, profile,
                                          max(config.samples, 1), config.seed)
            tight = report.phi_uniform == 0
            lines.append(f"phi_uniform = {_rat(report.phi_uniform)} "
                         f"({_dec(report.phi_uniform)})")
            lines.append(f"min_sampled_phi = {_rat(report.min_phi)} "
                         f"({_dec(report.min_phi)}) over "
                         f"{report.points_checked} points")
            trace = descend_to_clique_support(g, t, profile, SimplexPoint.uniform(g.n))
            lines.extend(trace.to_lines())
            end_phi = eval_phi(g, t, profile, trace.end).phi
            lines.append(f"descent_end_phi = {_rat(end_phi)} ({_dec(end_phi)}) "
                         f"support_clique_order={trace.omega_end}")
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    text = "\n".join(lines) + "\n"
    if config.out:
        config.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print("tight" if tight else "strict", file=sys.stderr)
    return EXIT_OK if tight else EXIT_STRICT


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def _selfcheck_graphs():
    out = list(named_small_graphs().items())
    out.extend(seeded_random_corpus(6, ns=(8, 9), ps=(Fraction(1, 2),), base_seed=11))
    return out


def run_selfcheck(budget: int | None = None, seed: int = 0):
    """Yield (name, ok, detail) for every built-in invariant check."""
    graphs = _selfcheck_graphs()
    rng = random.Random(seed)
    for name, g in graphs:
        profile = vertex_clique_numbers(g, budget=budget)
        oracle_profile = brute_vertex_clique_numbers(g)
        yield (f"profile_oracle[{name}]", profile == oracle_profile,
               f"{profile} vs {oracle_profile}")
        for t in (2, 3, 4):
            fast = count_cliques(g, t, budget=budget)
            brute = brute_count_cliques(g, t)
            yield (f"count_oracle[{name},t={t}]", fast == brute, f"{fast} vs {brute}")
            rep = bound_report(g, t, budget=budget)
            yield (f"soundness[{name},t={t}]",
                   Fraction(rep.true_count) <= rep.localized_zykov <= rep.zykov_classical,
                   f"N={rep.true_count}, local={rep.localized_zykov}, "
                   f"zykov={rep.zykov_classical}")
            yield (f"comparison_bounds[{name},t={t}]",
                   rep.edge_localized_sum <= Fraction(g.n**2, 2)
                   and rep.kirsch_nir_sum <= g.n**t,
                   f"edge_sum={rep.edge_localized_sum}, kn={rep.kirsch_nir_sum}")
        for t in (2, 3):
            orders = largest_clique_orders(g, t, budget=budget)
            wrong = {key: alpha for key, alpha in orders.items()
                     if alpha != brute_kirsch_nir_alpha(g, tuple(bits(key)))}
            yield (f"alpha_oracle[{name},t={t}]",
                   not wrong and len(orders) == brute_count_cliques(g, t),
                   f"{len(orders)} copies, mismatched {wrong}")
        rep2 = bound_report(g, 2, budget=budget)
        yield (f"t2_recovery[{name}]",
               Fraction(rep2.vertex_localized_turan) <= rep2.localized_zykov
               and rep2.localized_zykov - rep2.vertex_localized_turan < 1,
               f"floor={rep2.vertex_localized_turan}, pre={rep2.localized_zykov}")
        if g.n >= 1:
            for t in (2, 3):
                report = verify_nonnegativity(g, t, profile, samples=20,
                                              seed=rng.randrange(1 << 30))
                yield (f"phi_nonneg[{name},t={t}]", report.min_phi >= 0,
                       f"min={report.min_phi}")


def cmd_selfcheck(config: RunConfig) -> int:
    failures = 0
    try:
        for name, ok, detail in run_selfcheck(budget=config.budget, seed=config.seed):
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquebound",
        description="Exact clique-count bound verification toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inputs=True):
        if inputs:
            p.add_argument("inputs", nargs="*", help="graph files or directories")
        p.add_argument("--t", type=int, default=2, help="clique order (default 2)")
        p.add_argument("--t-max", type=int, default=None,
                       help="analyze a range t..t_max")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--budget", type=int, default=None,
                       help="max clique-recursion nodes")
        p.add_argument("--out", type=Path, default=None)

    common(sub.add_parser("analyze", help="evaluate all bounds per graph"))
    gen = sub.add_parser("generate", help="write graph6 corpus files")
    gen.add_argument("kind", choices=["multipartite", "random"])
    gen.add_argument("--parts", default=None, help="comma-separated part sizes")
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--p", default=None, help="edge probability as p/q")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out", required=True)
    common(sub.add_parser("phi", help="potential evaluation and descent trace"))
    common(sub.add_parser("selfcheck", help="run built-in invariant checks"),
           inputs=False)
    return parser


def _config_from_args(args) -> RunConfig:
    t_max = args.t_max if args.t_max is not None else args.t
    return RunConfig(
        inputs=tuple(Path(p) for p in getattr(args, "inputs", ())),
        t_min=args.t,
        t_max=t_max,
        fmt=args.format,
        seed=args.seed,
        samples=args.samples,
        budget=args.budget,
        out=args.out,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        if args.kind == "multipartite" and not args.parts:
            print("generate multipartite requires --parts", file=sys.stderr)
            return EXIT_USAGE
        if args.kind == "random" and (args.n is None or args.p is None):
            print("generate random requires --n and --p", file=sys.stderr)
            return EXIT_USAGE
        return cmd_generate(args)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "analyze":
        return cmd_analyze(config)
    if args.command == "phi":
        return cmd_phi(config)
    if args.command == "selfcheck":
        return cmd_selfcheck(config)
    return EXIT_USAGE


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
