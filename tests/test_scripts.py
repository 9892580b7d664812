"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,expected", [
    ("descent_demo.py", ["--graph", "octahedron", "--t", "3", "--starts", "2"],
     "verdict: tight, certificate (2, 2, 2)"),
    ("sweep_random_corpus.py", ["--count", "3", "--t", "2", "--t-max", "3"],
     "6 records, 0 tight, 5 strict, 1 vacuous"),
    # t > omega: both sides of the bound are 0, which is no counterexample.
    ("descent_demo.py", ["--graph", "C5", "--t", "3", "--starts", "2"],
     "verdict: vacuous, t = 3 > omega = 2"),
])
def test_script_runs(script, args, expected):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout.splitlines()


@pytest.mark.parametrize("script,args", [
    ("sweep_random_corpus.py", ["--t", "1"]),
    ("sweep_random_corpus.py", ["--t", "4", "--t-max", "3"]),
    ("sweep_random_corpus.py", ["--count", "-3"]),
    ("sweep_random_corpus.py", ["--count", "0"]),
    ("descent_demo.py", ["--t", "1"]),
    ("descent_demo.py", ["--starts", "0"]),
    ("kernel_times.py", ["--graph", "gnp:140:1/2"]),
    ("kernel_times.py", ["--graph", "gnp:10:3/2:1"]),
    ("kernel_times.py", ["--graph", "gnp:10:1/0:1"]),
    ("kernel_times.py", ["--graph", "gnp:-1:1/2:1"]),
    ("kernel_times.py", ["--graph", "gnp:0:1/2:1"]),
    ("kernel_times.py", ["--graph", "multipartite:4"]),
    ("kernel_times.py", ["--graph", "multipartite:0x3"]),
    ("kernel_times.py", ["--graph", "multipartite:3x0"]),
    ("kernel_times.py", ["--graph", "kn:5"]),
    # Random(-s) seeds like Random(s), so a negative seed is refused.
    ("descent_demo.py", ["--seed", "-1"]),
    ("sweep_random_corpus.py", ["--seed", "-1"]),
    ("kernel_times.py", ["--graph", "gnp:10:1/2:-1"]),
])
def test_script_rejects_bad_arguments(script, args):
    # A usage error: exit 2 and one error line, no traceback and no records.
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1].startswith(f"{script}: error: ")
    assert "Traceback" not in result.stderr


_KERNELS = ("maximal-clique pass", "histogram(2)", "histogram(3)", "histogram(4)",
            "histograms(2,3,4)", "verify_nonnegativity", "descent")


@pytest.mark.parametrize("workload,graphs,nodes", [
    ("analyze-dense", 50, (92716, 1894, 18570, 55522, 56949, 498309, 51364)),
    ("analyze-sparse", 11, (16989, 3678, 735, 11, 3732, 69489, 8074)),
    ("phi-simplex", 103, (22074, 1755, 7267, 9463, 11167, 217707, 23735)),
], ids=["analyze-dense", "analyze-sparse", "phi-simplex"])
def test_kernel_times_reports_every_kernel(workload, graphs, nodes):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_times.py"),
         "--workload", workload, "--seed", "0", "--reps", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith(f"workload {workload}, seed 0, {graphs} graphs, best of 1")
    rows = {line[:22].strip(): line[22:].split() for line in lines[2:]}
    # Nodes per pass over the seed-0 corpus do not depend on the machine;
    # the milliseconds do.
    assert {name: int(n) for name, (_, n) in rows.items()} == dict(zip(_KERNELS, nodes))
    assert all(float(ms) >= 0 for ms, _ in rows.values())


def test_kernel_times_on_graph_specs():
    # K_{2x2x2} and the seeded G(12, 1/2) of the budget-unit test in
    # test_cliques.py: the pass and the single-order walks charge the same
    # nodes here.
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_times.py"),
         "--graph", "multipartite:2x3", "--graph", "gnp:12:1/2:5", "--reps", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    tables = [table.splitlines() for table in result.stdout.split("\n\n")]
    assert [table[0].split(", best of")[0] for table in tables] == [
        "graph multipartite:2x3, n 6, m 12", "graph gnp:12:1/2:5, n 12, m 38"]
    nodes = [{line[:22].strip(): int(line[22:].split()[1]) for line in table[2:]}
             for table in tables]
    assert [[table[kernel] for kernel in _KERNELS[:3]] for table in nodes] == [
        [15, 4, 7], [41, 9, 20]]
    assert all(list(table) == list(_KERNELS) for table in nodes)


def test_exhaustive_small_graphs_up_to_five_vertices():
    # Every labelled graph with n <= 5 against the brute-force oracles.
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "exhaustive_small_graphs.py"), "--max-n", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split() for line in lines[1:-1]] == [
        ["0", "1", "0", "0"], ["1", "1", "1", "0"], ["2", "2", "2", "0"],
        ["3", "8", "2", "0"], ["4", "64", "5", "0"], ["5", "1024", "2", "0"]]
    assert lines[-1] == "1100 graphs with n <= 5, 0 failed"
