"""cliquebound benchmark: the real CLI, driven in-process over a seeded corpus.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-dense --seed 1 --seconds 30 --trace 0

One client in a closed loop: each graph6 file of the corpus gets one
``cliquebound.cli.main([...])`` call, and the next call starts only after the
previous one returns. A run makes whole passes over the corpus until about
``--seconds`` have gone by. With ``--trace 0`` it prints the end-to-end
metrics (setup_s and the *_cal timings are rescaled to a reference machine
speed, see CAL_REF_MS). With ``--trace 1`` it alternates untraced and traced calls, file
by file, prints the per-layer metrics (see spans.py) and writes the spans to
``.perfbench_out/``. Each run checks every output with the correctness gate
in workloads.py, checks that all passes gave byte-identical outputs, and
compares the output digest and work counts with perfbench/reference.json
when that file records the seed. The last line of output is one JSON object;
the exit code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SETUP_REPS = 5
SETUP_TIMEOUT_S = 120
# A typical mean time of speed_probe() on the machine the bounds were set on
# (Python 3.11.7, 2 vCPUs; it ranged 2.1-3.4 ms there). That machine is
# shared: its speed drifts by about 15% over minutes, which moves every timing
# of a run together. The *_cal metrics and setup_s rescale a run's timings by
# CAL_REF_MS over the run's mean probe time, which cancels that drift; the
# measured values are printed beside them.
CAL_REF_MS = 2.5


def import_program():
    """Put this checkout's src/ first on sys.path and import the benchmark's
    modules; refuse to fall back on a cliquebound installed elsewhere."""
    package = SRC / "cliquebound"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import cliquebound.cli

    if Path(cliquebound.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported cliquebound from {cliquebound.cli.__file__}")


@contextlib.contextmanager
def scratch_dir(label: str):
    """A fresh directory under .perfbench_work/, removed on exit."""
    path = WORK / f"{label}-{os.getpid()}-{time.time_ns()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def time_setup(workload, seed: int, items, workdir: Path) -> tuple[float, Path]:
    """Median seconds of SETUP_REPS fresh-interpreter set-ups (imports plus
    writing the seeded corpus), and the directory of the first corpus."""
    expected = {item.name: item.g6 for item in items}
    times = []
    for k in range(SETUP_REPS):
        outdir = workdir / f"corpus-{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "make_corpus.py"), workload.name, str(seed), str(outdir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
        if {p.name: p.read_text(encoding="ascii") for p in outdir.iterdir()} != expected:
            raise SystemExit(f"error: set-up {k} wrote a corpus other than seed {seed} gives")
    return statistics.median(times), workdir / "corpus-0"


class Call(NamedTuple):
    seconds: float  # the CLI call, end to end
    code: int
    text: str  # output with the input path reduced to its basename
    probe_s: float  # speed_probe() just before the call


def speed_probe() -> float:
    """Seconds that a fixed piece of exact rational arithmetic, like the
    program's own, takes now; independent of the program under test."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(300):
        x = x * Fraction(i + 2, i + 1) - Fraction(1, 7)
    return time.perf_counter() - start


def call_cli(main, argv: list[str]) -> tuple[float, int]:
    """Seconds and exit code of one CLI call; its stdout and stderr are dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is one failed call; the run goes on
            code = 1
            print(f"call {argv} raised {exc!r}", file=sys.__stderr__)
        return time.perf_counter() - start, code


def run_pass(workload, paths: list[Path], out: Path, main) -> list[Call]:
    """One call per corpus file, in order."""
    from workloads import normalized_output

    results = []
    for path in paths:
        out.unlink(missing_ok=True)
        probe_s = speed_probe()
        seconds, code = call_cli(main, [workload.command, str(path), *workload.args,
                                        "--out", str(out)])
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        results.append(Call(seconds, code, normalized_output(path, text), probe_s))
    return results


def measure(workload, paths: list[Path], seconds: float, tracer, workdir: Path):
    """Rounds of one untraced pass, plus one traced pass when tracing, until
    stopping is closer to ``seconds`` than one more round would be. The two
    passes of a round alternate file by file, so that the tracing overhead is
    measured under the same machine speed."""
    from cliquebound import cli
    from spans import ROOT_SPAN

    untraced, traced = [], []
    out = workdir / "out.txt"
    start = time.perf_counter()
    while True:
        if tracer is None:
            untraced.append(run_pass(workload, paths, out, cli.main))
        else:
            traced_main = tracer.wrap(ROOT_SPAN, cli.main)
            untraced.append([])
            traced.append([])
            for path in paths:
                untraced[-1] += run_pass(workload, [path], out, cli.main)
                with tracer.installed():
                    traced[-1] += run_pass(workload, [path], out, traced_main)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(untraced) / 2 >= seconds:
            return untraced, traced


def percentile(sorted_values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail_line(latencies_ms: list[float]) -> str:
    """p90 when at least ten samples lie beyond it, else the highest
    percentile that has ten beyond it, with the sample count."""
    n = len(latencies_ms)
    q = min(90, math.floor(100 * (1 - 10 / n))) if n else 0
    if q < 50:
        return f"graph_ms_tail: no percentile >= p50 has ten samples beyond it (N={n})"
    note = "" if q == 90 else f"; p90 needs N >= 100"
    return f"graph_ms_p{q} = {percentile(sorted(latencies_ms), q):.6g} ms (N={n}{note})"


def evaluate(workload, items, passes) -> tuple[dict, list[str], int]:
    """Corpus summary (work counts and output digest of the first pass), every
    failed check, and the number of failed calls."""
    from workloads import check_output, output_digest, work_counts

    codes = [c.code for c in passes[0]]
    texts = [c.text for c in passes[0]]
    gate_failed = set()
    problems = []
    for item, code, text in zip(items, codes, texts):
        for error in check_output(workload, item, code, text):
            problems.append(f"{item.name}: {error}")
            gate_failed.add(item.name)
    failed = 0
    for k, results in enumerate(passes):
        for item, call, code, text in zip(items, results, codes, texts):
            differs = (call.code, call.text) != (code, text)
            if differs:
                problems.append(f"{item.name}: pass {k} output differs from pass 0")
            failed += differs or item.name in gate_failed
    # Counting reads the outputs, so it needs outputs that passed the gate.
    counts = {} if gate_failed else work_counts(workload, items, texts)
    summary = {"graphs": len(items), **counts,
               "digest": output_digest([i.name for i in items], codes, texts)}
    return summary, problems, failed


def compare_reference(workload_name: str, seed: int, summary: dict) -> tuple[str, list[str]]:
    """Status against the summary reference.json records for this seed."""
    if not REFERENCE.is_file():
        return "no reference file", []
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"]
    reference = recorded.get(workload_name, {}).get(str(seed))
    if reference is None:
        return f"seed {seed} not recorded", []
    if reference == summary:
        return "matches", []
    diff = {k: (reference.get(k), summary.get(k))
            for k in sorted(reference.keys() | summary.keys()) if reference.get(k) != summary.get(k)}
    return "DIFFERS", [f"corpus summary differs from {REFERENCE.name} (recorded, now): {diff}"]


def metric_line(name: str, value: float, unit: str) -> str:
    return f"  {name:<24} = {value!r} {unit}"


def execute(workload, seed: int, seconds: float, trace: bool, setup=time_setup) -> int:
    """One benchmark run; prints the report and returns the exit code.
    ``setup(workload, seed, items, workdir)`` returns (seconds, corpus dir)."""
    from spans import Tracer, layer_times_ms
    from workloads import COUNT_METRICS

    items = workload.corpus(seed)
    with scratch_dir(f"{workload.name}-seed{seed}") as workdir:
        setup_s, corpus_dir = setup(workload, seed, items, workdir)
        paths = [corpus_dir / item.name for item in items]
        tracer = Tracer() if trace else None
        untraced, traced = measure(workload, paths, seconds, tracer, workdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary, problems, failed = evaluate(workload, items, untraced + traced)

    calls = [c for results in untraced + traced for c in results]
    latencies = [c.seconds for results in untraced for c in results]
    print(f"workload {workload.name}  seed {seed}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}  trace {int(trace)}")
    status, mismatch = compare_reference(workload.name, seed, summary)
    problems += mismatch
    print("corpus: " + ", ".join(f"{k} {v}" for k, v in summary.items()))
    print(f"reference: {status}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; {len(calls)} calls")
    if trace:
        layers = {name: v / len(traced) for name, v in layer_times_ms(tracer.spans).items()}
        overhead = (sum(c.seconds for r in traced for c in r) - sum(latencies)) / len(traced)
        metrics = {**{k: (v, "ms") for k, v in layers.items()},
                   "trace.overhead_ms": (overhead * 1000, "ms"),
                   **{k: (summary.get(k, 0), "count") for k in COUNT_METRICS}}
        spans_path = SPANS_OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        print(f"per-layer metrics, per traced pass ({len(tracer.spans)} spans in {spans_path}):")
    else:
        probe_ms = statistics.mean(c.probe_s for results in untraced for c in results) * 1000
        slowdown = probe_ms / CAL_REF_MS
        graphs_per_s = len(latencies) / sum(latencies)
        graph_ms_p50 = statistics.median(latencies) * 1000
        metrics = {"setup_s": (setup_s / slowdown, "s"),
                   "graphs_per_s_cal": (graphs_per_s * slowdown, "1/s"),
                   "graph_ms_p50_cal": (graph_ms_p50 / slowdown, "ms"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        print("end-to-end metrics, timings rescaled to the reference speed:")
    for name, (value, unit) in metrics.items():
        print(metric_line(name, value, unit))
    if not trace:
        print(f"  measured, before rescaling by the speed probe "
              f"({probe_ms:.4f} ms, reference {CAL_REF_MS} ms):")
        print(metric_line("measured_setup_s", setup_s, "s"))
        print(metric_line("measured_graphs_per_s", graphs_per_s, "1/s"))
        print(metric_line("measured_graph_ms_p50", graph_ms_p50, "ms"))
        print("  " + tail_line([s * 1000 for s in latencies]))
        print(f"  error_rate = {failed / len(calls)!r} ({failed} of {len(calls)} calls failed)")
    for problem in problems:
        print(f"FAIL {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
