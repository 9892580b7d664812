"""Quick self-test of the benchmark on a tiny corpus (a few seconds).

    python3 perfbench/selftest.py

Runs each workload's command over two small graphs and checks that:
- every metric BENCHMARK.json names is printed by name with its unit, on a
  readable line and in the closing JSON object, with and without tracing;
- two traced runs of one seed give the same work counts and output digest;
- the gate rejects an output in which one record was altered.
Exits 1 and names each failed check otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import sys
import time
from fractions import Fraction

import run

run.import_program()

from cliquebound import cli  # noqa: E402
from cliquebound.graph import generate_complete_multipartite, generate_random  # noqa: E402
from workloads import WORKLOADS, Item, write_corpus  # noqa: E402

SEED = 7


def tiny_corpus(seed: int) -> list[Item]:
    return [Item("000-gnp-n12.g6", generate_random(12, Fraction(1, 2), seed)),
            Item("001-K2x3.g6", generate_complete_multipartite([2, 2, 2]), (2, 2, 2))]


def tiny(name: str):
    # A name of its own keeps the real workload's reference.json entries out.
    return dataclasses.replace(WORKLOADS[name], name=f"selftest-{name}", corpus=tiny_corpus)


def write_setup(workload, seed, items, workdir):
    start = time.perf_counter()
    write_corpus(items, workdir / "corpus")
    return time.perf_counter() - start, workdir / "corpus"


def run_tiny(name: str, trace: bool) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.execute(tiny(name), SEED, 0, trace, setup=write_setup)
    return code, out.getvalue().splitlines()


def metric_problems(lines: list[str], expected: list[dict]) -> list[str]:
    """What is missing from a run's output among the ``expected`` metrics."""
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(result["metrics"]) != {m["name"] for m in expected}:
        problems.append(f"metrics {sorted(result['metrics'])}")
    for m in expected:
        name, unit = m["name"], m["unit"]
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{name}: unit in JSON is not {unit}")
        line = re.compile(rf"\s+{re.escape(name)}\s+= \S+ {re.escape(unit)}")
        if not any(line.fullmatch(text) for text in lines):
            problems.append(f"{name}: no line with its value and unit {unit}")
    return problems


def altered(command: str, text: str) -> str:
    if command == "analyze":
        first, _, rest = text.partition("\n")
        record = json.loads(first)
        record["true_count"] += 1
        return json.dumps(record, sort_keys=True) + "\n" + rest
    return re.sub(r"min_sampled_phi = \S+", "min_sampled_phi = -1/1", text)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in WORKLOADS:
        corpus_lines = []
        for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"]),
                                (True, spec["per_layer"])):
            code, lines = run_tiny(name, trace)
            if code != 0:
                problems.append(f"{name} trace={int(trace)}: exit {code}")
            problems += [f"{name} trace={int(trace)}: {p}" for p in metric_problems(lines, expected)]
            if trace:
                corpus_lines.append(next(x for x in lines if x.startswith("corpus:")))
        if corpus_lines[0] != corpus_lines[1]:
            problems.append(f"{name}: counts or digest differ between two runs of seed {SEED}")

        workload = tiny(name)
        items = workload.corpus(SEED)
        with run.scratch_dir("selftest") as workdir:
            paths = write_corpus(items, workdir)
            results = run.run_pass(workload, paths, workdir / "out.txt", cli.main)
        results[0] = results[0]._replace(text=altered(workload.command, results[0].text))
        _, gate_problems, failed = run.evaluate(workload, items, [results])
        if not gate_problems or failed != 1:
            problems.append(f"{name}: gate passed an altered output ({failed} failed calls)")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
