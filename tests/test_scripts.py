"""The experiment scripts run end to end on small inputs."""

import dataclasses
import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cliquebound.cli import main
from cliquebound.cliques import CliqueIndex
from cliquebound.oracles import plain_weight_sum, tomita_maximal_cliques

ROOT = Path(__file__).resolve().parents[1]


def run_in_process(monkeypatch, capsys, script, args, patch=None):
    """Run ``script``'s main() with ``args`` in this process; its exit code,
    stdout and stderr. ``patch`` may replace names in the script's module."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # a script may prepend to it
    monkeypatch.setattr(sys, "argv", [script, *args])
    spec = importlib.util.spec_from_file_location(script[:-3], ROOT / "scripts" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, value in (patch or {}).items():
        monkeypatch.setattr(module, name, value)
    with pytest.raises(SystemExit) as exc:
        module.main()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def generate(capsys, out_dir, *argv):
    """Write graph files with ``cliquebound generate``; the paths it wrote."""
    assert main(["generate", *argv, "--out", str(out_dir)]) == 0
    return capsys.readouterr().out.split()


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
    # Each script finds src/ itself, so it runs from a checkout as written.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=60, env=env,
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
    # Random(-s) seeds like Random(s), so a negative seed is refused.
    ("descent_demo.py", ["--seed", "-1"]),
    ("sweep_random_corpus.py", ["--seed", "-1"]),
    # The CLI's cap on t holds in the scripts too.
    ("descent_demo.py", ["--t", "17"]),
], ids=[
    # Explicit, so that adding or removing a case renames no other case;
    # these are the names the suite already records for these cases.
    "sweep_random_corpus.py-args0", "sweep_random_corpus.py-args1",
    "sweep_random_corpus.py-args2", "sweep_random_corpus.py-args3",
    "descent_demo.py-args4", "descent_demo.py-args5",
    "descent_demo.py-args6", "sweep_random_corpus.py-args7",
    "descent_demo.py-t-17",
])
def test_script_rejects_bad_arguments(script, args):
    # A usage error: exit 2 and one error line, no traceback and no records.
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1].startswith(f"{script}: error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("token", ["1_0", "+2", " 2", "\u0663", "0x1"],
                         ids=["underscore", "plus", "space", "arabic-indic", "hex"])
@pytest.mark.parametrize("script,args", [
    ("descent_demo.py", ["--t"]),
    ("descent_demo.py", ["--starts"]),
    ("descent_demo.py", ["--seed"]),
    ("sweep_random_corpus.py", ["--count"]),
    ("sweep_random_corpus.py", ["--seed"]),
    ("sweep_random_corpus.py", ["--t"]),
    ("sweep_random_corpus.py", ["--t-max"]),
    ("exhaustive_small_graphs.py", ["--max-n"]),
    ("kernel_times.py", ["--workload", "phi-simplex", "--seed"]),
    ("kernel_times.py", ["--workload", "phi-simplex", "--reps"]),
], ids=lambda v: v if isinstance(v, str) else v[-1])
def test_script_refuses_loose_integer(monkeypatch, capsys, script, args, token):
    # int() reads each token as 10, 2, 2, 3 and (base 0) 1.
    code, out, err = run_in_process(monkeypatch, capsys, script, [*args, token])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (f"{script}: error: argument {args[-1]}: "
                                    f"invalid integer value: {token!r}")


@pytest.mark.parametrize("name,content,message", [
    ("missing.g6", None, "[Errno 2] No such file or directory: '{path}'"),
    ("bad.g6", "C~~\n", "graph6 bit stream length mismatch: need 6 bits, got 12"),
    ("graph.txt", "0 1\n", "unknown extension (expected .g6 or .el)"),
    ("empty", "", "no .g6 or .el file"),
], ids=["missing", "malformed-g6", "unknown-extension", "empty-directory"])
def test_kernel_times_refuses_bad_graph_file(tmp_path, name, content, message):
    # A usage error before any table, as analyze's: exit 2 and one error line.
    path = tmp_path / name
    if name == "empty":
        path.mkdir()
    elif content is not None:
        path.write_text(content, encoding="ascii")
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_times.py"), "--graph", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    errors = [line for line in result.stderr.splitlines() if "error" in line]
    assert errors == [f"kernel_times.py: error: --graph {path}: "
                      + message.format(path=path)]
    assert "Traceback" not in result.stderr


def test_kernel_times_budget_hit_is_one_error_line(monkeypatch, capsys, tmp_path):
    # K_{2x2x2}'s maximal-clique pass takes 15 work nodes, past a budget of
    # 10; the script's own default budget would take seconds to reach.
    [path] = generate(capsys, tmp_path, "multipartite", "--parts", "2,2,2")
    code, out, err = run_in_process(
        monkeypatch, capsys, "kernel_times.py", ["--graph", path, "--reps", "1"],
        patch={"CliqueIndex": functools.partial(CliqueIndex, budget=10)})
    assert (code, out) == (3, "")
    assert err == ("kernel_times.py: error: graph multipartite_2x3.g6: clique enumeration "
                   "exceeded work budget of 10 nodes\n")


_KERNELS = ("maximal-clique pass", "histogram(2)", "histogram(3)", "histogram(4)",
            "histograms(2,3,4)", "verify_nonnegativity", "descent")


@pytest.mark.parametrize("workload,graphs,nodes", [
    ("analyze-dense", 50, (92716, 1894, 18570, 55522, 56949, 23729, 27635)),
    ("analyze-sparse", 11, (16989, 3678, 735, 11, 3732, 3309, 4765)),
    ("phi-simplex", 103, (22074, 1755, 7267, 9463, 11167, 10367, 13368)),
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


def test_kernel_times_on_graph_specs(capsys, tmp_path):
    # K_{2x2x2} and the seeded G(12, 1/2) of the budget-unit test in
    # test_cliques.py, as generate writes them: the pass and the single-order
    # walks charge the same nodes here.
    [multipartite] = generate(capsys, tmp_path / "a", "multipartite", "--parts", "2,2,2")
    generate(capsys, tmp_path / "b", "random", "--n", "12", "--p", "1/2", "--seed", "5")
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_times.py"),
         "--graph", multipartite, "--graph", str(tmp_path / "b"), "--reps", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    tables = [table.splitlines() for table in result.stdout.split("\n\n")]
    assert [table[0].split(", best of")[0] for table in tables] == [
        "graph multipartite_2x3.g6, n 6, m 12", "graph random_n12_p1-2_seed5.g6, n 12, m 38"]
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


def test_exhaustive_small_graphs_checks_pass_nodes(monkeypatch, capsys):
    # A pass one node off the plain search fails every graph, named by the
    # check.
    def one_more(g):
        cliques, nodes = tomita_maximal_cliques(g)
        return cliques, nodes + 1

    code, out, err = run_in_process(monkeypatch, capsys, "exhaustive_small_graphs.py",
                                    ["--max-n", "2"], patch={"tomita_maximal_cliques": one_more})
    assert code == 1
    assert out.splitlines()[-1] == "4 graphs with n <= 2, 4 failed"
    assert [line.split(": ")[1] for line in err.splitlines()] == ["pass nodes"] * 4


def test_exhaustive_small_graphs_checks_sum_nodes(monkeypatch, capsys):
    # Sums one node off the plain recursion fail every graph, at each order
    # and in both kernels.
    def one_more(g, mask, t, weights):
        total, nodes = plain_weight_sum(g, mask, t, weights)
        return total, nodes + 1

    code, out, err = run_in_process(monkeypatch, capsys, "exhaustive_small_graphs.py",
                                    ["--max-n", "2"], patch={"plain_weight_sum": one_more})
    assert code == 1
    assert out.splitlines()[-1] == "4 graphs with n <= 2, 4 failed"
    assert [line.split(": ")[1] for line in err.splitlines()] == [", ".join(
        f"{kernel}(t = {t})" for t in range(1, 5) for kernel in ("weight_sum", "weight_sums"))] * 4


def test_sweep_random_corpus_invariant_error_is_one_error_line(monkeypatch, capsys):
    # A million cliques too many break N <= localized in the first report.
    import cliquebound.bounds as bounds_mod

    real = bounds_mod.count_cliques
    monkeypatch.setattr(bounds_mod, "count_cliques", lambda index, t: real(index, t) + 10**6)
    code, out, err = run_in_process(monkeypatch, capsys, "sweep_random_corpus.py",
                                    ["--count", "1", "--t", "3", "--t-max", "3"])
    assert code == 1
    assert len(out.splitlines()) == 1  # the table's header, and no record
    assert err == ("sweep_random_corpus.py: error: random_n8_p1-4_seed2000: t=3: "
                   "N <= localized fails: N = 1000002, localized = 320/27\n")


def test_descent_demo_invariant_error_is_one_error_line(monkeypatch, capsys):
    # A descent that reports its start point as its end, on a support that
    # is no clique.
    from cliquebound.simplex import descend_to_clique_support

    def stuck(index, t, x0, phi0=None):
        trace = descend_to_clique_support(index, t, x0, phi0)
        return dataclasses.replace(trace, end=x0, end_support_is_clique=False)

    code, out, err = run_in_process(monkeypatch, capsys, "descent_demo.py",
                                    ["--graph", "C5", "--t", "2", "--starts", "1"],
                                    patch={"descend_to_clique_support": stuck})
    assert code == 1
    assert "verdict" not in out
    assert err == ("descent_demo.py: error: C5: t=2: descent end phi 1/20 differs from "
                   "the last step's phi 1/100\n")


def test_kernel_times_invariant_error_is_one_error_line(monkeypatch, capsys, tmp_path):
    # Adding 16 to every batched B sum makes phi negative at the uniform
    # point of K_{2x2x2}, where it is 0 at t = 3.
    [path] = generate(capsys, tmp_path, "multipartite", "--parts", "2,2,2")
    real = CliqueIndex.weight_sums

    def shifted(self, mask, t, points):
        return ((p, b + 16) for p, b in real(self, mask, t, points))

    monkeypatch.setattr(CliqueIndex, "weight_sums", shifted)
    code, out, err = run_in_process(monkeypatch, capsys, "kernel_times.py",
                                    ["--graph", path, "--reps", "1"])
    assert (code, out) == (1, "")
    assert err == ("kernel_times.py: error: graph multipartite_2x3.g6: t=3: phi(1/6, 1/6, "
                   "1/6, 1/6, 1/6, 1/6) = -2/27 < 0 on a graph where it must be >= 0\n")
