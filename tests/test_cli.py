import csv
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from cliquebound.cli import main
from cliquebound.cliques import CliqueIndex
from cliquebound.corpus import random_graph_name
from cliquebound.graph import (
    generate_complete_multipartite,
    generate_random,
    parse_graph6,
    to_graph6,
)


def run(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse refuses an option value
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# analyze's stderr summary when its one input fails to load.
ONE_FAILED = ("analyzed 0 graphs, 0 records, 0 tight, 0 strict, 0 vacuous, "
              "1 failed to load, 0 over budget\n")


def error_line(err):
    """The one line of ``err`` that is not argparse's usage block."""
    lines = [line for line in err.splitlines() if not line.startswith(("usage: ", " "))]
    assert len(lines) == 1, err
    return lines[0]


def test_generate_multipartite(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "multipartite", "--parts", "2,2,2",
                       "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "multipartite_2x3.g6"
    assert path.exists()
    g = parse_graph6(path.read_text())
    assert (g.n, g.m) == (6, 12)


def test_generate_multipartite_names_runs_of_parts(tmp_path, capsys):
    # Each run of equal parts is named SxR, R parts of S vertices.
    code, out, _ = run(capsys, "generate", "multipartite", "--parts", "2,3,3,2",
                       "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "multipartite_2x1-3x2-2x1.g6"
    assert out == f"{path}\n"
    g = parse_graph6(path.read_text())
    assert (g.n, g.m) == (10, 37)


def test_generate_rejects_too_long_name(tmp_path, capsys):
    # 200 alternating parts make 200 runs, a name of 815 bytes: refused
    # before --out is made.
    outdir = tmp_path / "o"
    code, out, err = run(capsys, "generate", "multipartite", "--parts",
                         ",".join(["1", "2"] * 100), "--out", str(outdir))
    assert code == 2
    assert out == ""
    assert err.startswith("error: file name of 815 bytes exceeds the 255-byte limit: "
                          "multipartite_1x1-2x1-")
    assert err.count("\n") == 1
    assert not outdir.exists()


def test_generate_random_reproducible(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _, _ = run(capsys, "generate", "random", "--n", "12", "--p", "1/2",
                         "--seed", "1", "--count", "10", "--out", str(tmp_path / sub))
        assert code == 0
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert len(files_a) == 10
    assert [f.read_text() for f in files_a] == [f.read_text() for f in files_b]


def test_generate_rejects_zero_part(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "multipartite", "--parts", "2,0",
                       "--out", str(tmp_path))
    assert code == 2
    assert err == "error: part sizes must be >= 1, got (2, 0)\n"


@pytest.mark.parametrize("count", ["-3", "0"])
def test_generate_count_below_one_rejected(tmp_path, capsys, count):
    outdir = tmp_path / "g"
    code, out, err = run(capsys, "generate", "random", "--n", "5", "--p", "1/2",
                         "--count", count, "--out", str(outdir))
    assert code == 2
    assert out == ""
    assert err == f"error: count must be >= 1, got {count}\n"
    assert not outdir.exists()


@pytest.mark.parametrize("argv, line, usage", [
    (("random", "--n", "-5", "--p", "1/2"), "error: n must be >= 0, got -5", False),
    (("random", "--n", "5", "--p", "3/2"),
     "error: edge probability must lie in [0, 1], got 3/2", False),
    # argparse reads --parts, so its usage block comes before the line.
    (("multipartite", "--parts", "2,x"),
     "cliquebound generate: error: argument --parts: invalid integers value: '2,x'", True),
    # A --p of 241 digits makes a file name of 263 bytes.
    (("random", "--n", "5", "--p", "1/1" + "0" * 240),
     "error: file name of 263 bytes exceeds the 255-byte limit: "
     + random_graph_name(5, Fraction(1, 10**240), 0)[:64] + "...", False),
], ids=["n", "p", "parts", "random-name"])
def test_generate_validates_before_making_out(tmp_path, capsys, argv, line, usage):
    outdir = tmp_path / "o"
    code, out, err = run(capsys, "generate", *argv, "--out", str(outdir))
    assert code == 2
    assert out == ""
    if usage:
        assert error_line(err) == line
    else:
        assert err == line + "\n"
    assert not outdir.exists()


# Each option that takes a number, with a command that reads it; the number
# goes last. ``--budget`` is read by analyze and phi too, and ``--seed`` by
# generate and selfcheck, through the same option table.
NUMBER_OPTIONS = [
    (("analyze", "g.g6", "--t"), "integer"),
    (("analyze", "g.g6", "--t", "2", "--t-max"), "integer"),
    (("phi", "g.g6", "--seed"), "integer"),
    (("phi", "g.g6", "--samples"), "integer"),
    (("selfcheck", "--budget"), "integer"),
    (("generate", "random", "--out", "o", "--p", "1/2", "--n"), "integer"),
    (("generate", "random", "--out", "o", "--n", "5", "--p", "1/2", "--count"), "integer"),
    (("generate", "multipartite", "--out", "o", "--parts"), "integers"),
    (("generate", "random", "--out", "o", "--n", "5", "--p"), "rational"),
]


@pytest.mark.parametrize("token", ["1_0", "+2", " 2", "\u0663", "0x1"],
                         ids=["underscore", "plus", "space", "arabic-indic", "hex"])
@pytest.mark.parametrize("argv, kind", NUMBER_OPTIONS,
                         ids=[argv[-1] for argv, _ in NUMBER_OPTIONS])
def test_loose_number_is_refused_naming_its_option(tmp_path, capsys, monkeypatch,
                                                    argv, kind, token):
    # int() reads each token as 10, 2, 2, 3 and (base 0) 1.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, token)
    assert (code, out) == (2, "")
    assert error_line(err) == (f"cliquebound {argv[0]}: error: argument {argv[-1]}: "
                               f"invalid {kind} value: {token!r}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("p", ["0.5", "1e-1", "1/0", "1/-2", "1/2/3"])
def test_p_is_a_fraction_p_over_q(tmp_path, capsys, p):
    outdir = tmp_path / "o"
    code, out, err = run(capsys, "generate", "random", "--n", "5", "--p", p,
                         "--out", str(outdir))
    assert (code, out) == (2, "")
    assert error_line(err) == (
        f"cliquebound generate: error: argument --p: invalid rational value: '{p}'")
    assert not outdir.exists()


def test_p_may_be_an_integer(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "random", "--n", "3", "--p", "1",
                       "--out", str(tmp_path))
    assert (code, out) == (0, f"{tmp_path / 'random_n3_p1-1_seed0.g6'}\n")
    assert parse_graph6((tmp_path / "random_n3_p1-1_seed0.g6").read_text()).m == 3


@pytest.mark.parametrize("argv", [
    ("random", "--n", "262144", "--p", "0"),
    ("multipartite", "--parts", "131072,131072"),
], ids=["random", "multipartite"])
def test_generate_checks_graph6_cap_before_building(tmp_path, capsys, argv):
    # Building either graph first would take C(n, 2) random draws or n rows
    # of n bits; the cap is checked on n alone.
    outdir = tmp_path / "o"
    code, out, err = run(capsys, "generate", *argv, "--out", str(outdir))
    assert code == 2
    assert out == ""
    assert err == "error: graph6 encoding capped at n < 262144, got 262144\n"
    assert not outdir.exists()


def test_analyze_summary_counts_vacuous_records(tmp_path, capsys):
    # K_2 at t = 3 > omega: N and the bound are both 0, and the record, whose
    # `tight` field stays true, is counted as vacuous rather than tight.
    run(capsys, "generate", "multipartite", "--parts", "1,1", "--out", str(tmp_path))
    code, out, err = run(capsys, "analyze", str(tmp_path), "--t", "2", "--t-max", "3")
    assert code == 0
    assert [json.loads(line)["tight"] for line in out.splitlines()] == [True, True]
    assert err == ("analyzed 1 graphs, 2 records, 1 tight, 0 strict, 1 vacuous, "
                   "0 failed to load, 0 over budget\n")


def test_analyze_octahedron(tmp_path, capsys):
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    code, out, err = run(capsys, "analyze", str(tmp_path), "--t", "3")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["true_count"] == 8
    assert rec["localized_zykov"] == "8/1"
    assert rec["tight"] is True
    assert rec["certificate"] == [2, 2, 2]
    assert "graph_hash" in rec and "version" in rec
    assert "1 tight" in err


def test_graph_hash_is_sha256_of_canonical_graph6(tmp_path, capsys):
    # C5 in six spellings: an edge list, its canonical graph6 line "Dhc",
    # that line after the ">>graph6<<" prefix, "Dhf", which differs from it
    # only in the two padding bits, and n = 5 in the four- and the
    # eight-character size field.
    (tmp_path / "c5.el").write_text("0 1\n1 2\n2 3\n3 4\n0 4\n")
    (tmp_path / "c5.g6").write_text("Dhc\n")
    (tmp_path / "c5_prefixed.g6").write_text(">>graph6<<Dhc\n")
    (tmp_path / "c5_padded.g6").write_text("Dhf\n")
    (tmp_path / "c5_size4.g6").write_text("~??Dhc\n")
    (tmp_path / "c5_size8.g6").write_text("~~?????Dhc\n")
    code, out, _ = run(capsys, "analyze", str(tmp_path), "--t", "2")
    assert code == 0
    hashes = [json.loads(line)["graph_hash"] for line in out.splitlines()]
    assert hashes == [hashlib.sha256(b"Dhc").hexdigest()[:16]] * 6


def test_analyze_hashes_a_canonical_g6_line_as_read(tmp_path, capsys, monkeypatch):
    # The canonical line is the graph's graph6 text, so it is never encoded
    # again; a padded spelling is encoded once, for its hash.
    import cliquebound.graph as graph_mod

    encode_graph6 = graph_mod._encode_graph6
    encoded = []

    def encode(g):
        encoded.append(g.n)
        return encode_graph6(g)

    line = encode_graph6(generate_random(90, Fraction(1, 15), 1))  # a four-character size field
    (tmp_path / "gnp90.g6").write_text(line + "\n")
    monkeypatch.setattr(graph_mod, "_encode_graph6", encode)
    code, out, _ = run(capsys, "analyze", str(tmp_path / "gnp90.g6"), "--t", "3")
    assert code == 0 and encoded == []
    assert json.loads(out)["graph_hash"] == hashlib.sha256(line.encode()).hexdigest()[:16]
    (tmp_path / "c5_padded.g6").write_text("Dhf\n")
    code, out, _ = run(capsys, "analyze", str(tmp_path / "c5_padded.g6"), "--t", "2")
    assert code == 0 and encoded == [5]
    assert json.loads(out)["graph_hash"] == hashlib.sha256(b"Dhc").hexdigest()[:16]


def test_analyze_c5_range(tmp_path, capsys):
    (tmp_path / "c5.el").write_text("0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out, _ = run(capsys, "analyze", str(tmp_path / "c5.el"),
                       "--t", "2", "--t-max", "4")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["t"] for r in recs] == [2, 3, 4]
    assert all(not r["tight"] or r["t"] > 2 for r in recs)
    assert not recs[0]["tight"]


def test_analyze_empty_directory(tmp_path, capsys):
    code, out, err = run(capsys, "analyze", str(tmp_path))
    assert code == 2
    assert (out, err) == ("", "error: no inputs\n")


@pytest.mark.parametrize("argv, message", [
    (["phi", "a.el", "b.el"], "phi takes exactly one input graph"),
    (["phi", "empty"], "phi takes exactly one input graph"),
    (["generate", "multipartite", "--out", "o"], "generate multipartite requires --parts"),
    (["generate", "random", "--p", "1/2", "--out", "o"], "generate random requires --n and --p"),
    (["generate", "random", "--n", "5", "--out", "o"], "generate random requires --n and --p"),
], ids=["phi-two-inputs", "phi-no-inputs", "multipartite-no-parts", "random-no-n",
        "random-no-p"])
def test_missing_input_or_option_is_one_error_line(tmp_path, capsys, monkeypatch, argv,
                                                   message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.el").write_text("0 1\n")
    (tmp_path / "b.el").write_text("0 1\n")
    (tmp_path / "empty").mkdir()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert (out, err) == ("", f"error: {message}\n")
    assert not (tmp_path / "o").exists()


def test_analyze_unknown_extension(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("0 1\n")
    code, out, err = run(capsys, "analyze", "a.txt")
    assert code == 2
    assert (out, err) == ("", "error: a.txt: unknown extension (expected .g6 or .el)\n"
                          + ONE_FAILED)


def test_analyze_csv_format(tmp_path, capsys):
    run(capsys, "generate", "multipartite", "--parts", "1,1,1", "--out", str(tmp_path))
    code, out, _ = run(capsys, "analyze", str(tmp_path), "--t", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "file,n,m,t,N,localized_bound,zykov_bound,tight,certificate"
    assert lines[1].endswith("true,1+1+1")


def test_analyze_deterministic_output(tmp_path, capsys):
    run(capsys, "generate", "random", "--n", "9", "--p", "1/2", "--seed", "4",
        "--count", "3", "--out", str(tmp_path))
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "analyze", str(tmp_path), "--t", "2", "--t-max", "3")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_analyze_budget_exceeded(tmp_path, capsys):
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    code, out, err = run(capsys, "analyze", str(tmp_path), "--t", "3", "--budget", "1")
    assert code == 3
    assert "error" in json.loads(out.splitlines()[0])
    # The graph over budget is not counted as analyzed.
    assert err == ("analyzed 0 graphs, 0 records, 0 tight, 0 strict, 0 vacuous, "
                   "0 failed to load, 1 over budget\n")


def test_analyze_budget_exceeded_csv(tmp_path, capsys):
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    code, out, _ = run(capsys, "analyze", str(tmp_path), "--t", "2", "--t-max", "3",
                       "--format", "csv", "--budget", "1")
    assert code == 3
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["file", "n", "m", "t", "N", "localized_bound", "zykov_bound", "tight",
                       "certificate"]
    path = str(tmp_path / "multipartite_2x3.g6")
    error = "error: clique enumeration exceeded work budget of 1 nodes"
    assert rows[1:] == [[path, "", "", str(t), "", "", "", "", error] for t in (2, 3)]


def test_analyze_budget_caps_graph_total(tmp_path, capsys):
    # K_{2x2x2} at t = 2..3: the maximal-clique pass takes 15 nodes,
    # and the one walk that counts the edges and the triangles 7. Each part
    # fits in 21; the 22 together do not.
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    code, out, _ = run(capsys, "analyze", str(tmp_path), "--t", "2", "--t-max", "3",
                       "--budget", "21")
    assert code == 3
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["t"] for r in recs] == [2, 3]
    assert all("work budget of 21" in r["error"] for r in recs)
    code, _, _ = run(capsys, "analyze", str(tmp_path), "--t", "2", "--t-max", "3",
                     "--budget", "22")
    assert code == 0


def test_analyze_range_matches_single_t_runs(tmp_path, capsys):
    run(capsys, "generate", "random", "--n", "9", "--p", "1/2", "--seed", "4",
        "--count", "3", "--out", str(tmp_path))
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    for path in sorted(tmp_path.iterdir()):
        code, out, _ = run(capsys, "analyze", str(path), "--t", "2", "--t-max", "5")
        singles = [run(capsys, "analyze", str(path), "--t", str(t)) for t in range(2, 6)]
        assert [code] + [c for c, _, _ in singles] == [0] * 5
        assert len(out.splitlines()) == 4
        assert out == "".join(o for _, o, _ in singles)


@pytest.fixture
def maximal_clique_passes(monkeypatch):
    """The arguments of every maximal-clique pass made while the test runs."""
    import cliquebound.cliques as cliques_mod

    real = cliques_mod._maximal_cliques
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cliques_mod, "_maximal_cliques", counting)
    return calls


def test_analyze_one_maximal_clique_pass_per_graph(tmp_path, capsys, maximal_clique_passes):
    run(capsys, "generate", "random", "--n", "9", "--p", "1/2", "--seed", "4",
        "--count", "3", "--out", str(tmp_path))
    code, out, _ = run(capsys, "analyze", str(tmp_path), "--t", "2", "--t-max", "5")
    assert code == 0
    assert len(out.splitlines()) == 12
    assert len(maximal_clique_passes) == 3


def test_analyze_bad_t_range(tmp_path, capsys):
    (tmp_path / "x.el").write_text("0 1\n")
    code, _, _ = run(capsys, "analyze", str(tmp_path / "x.el"), "--t", "17")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["phi", "--t", "17"], "t range must satisfy 2 <= t <= t_max <= 16, got [17, 17]"),
    (["phi", "--t", "1"], "t range must satisfy 2 <= t <= t_max <= 16, got [1, 1]"),
    (["analyze", "--t", "4", "--t-max", "3"],
     "t range must satisfy 2 <= t <= t_max <= 16, got [4, 3]"),
    (["phi", "--samples", "-1"], "sample count must be >= 1, got -1"),
    # The t range is checked first, then --samples, then --budget.
    (["phi", "--t", "1", "--samples", "0", "--budget", "0"],
     "t range must satisfy 2 <= t <= t_max <= 16, got [1, 1]"),
    (["phi", "--samples", "0", "--budget", "0"], "sample count must be >= 1, got 0"),
], ids=["phi-t-17", "phi-t-1", "analyze-t-above-t-max", "phi-samples-negative",
        "t-range-first", "samples-before-budget"])
def test_option_out_of_range_rejected(tmp_path, capsys, argv, message):
    (tmp_path / "x.el").write_text("0 1\n")
    code, out, err = run(capsys, argv[0], str(tmp_path / "x.el"), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["generate", "random", "--n", "5", "--p", "1/2", "--seed", "-3", "--count", "7",
     "--out", "o"],
    ["phi", "x.el", "--seed", "-3"],
    ["selfcheck", "--seed", "-3"],
], ids=["generate", "phi", "selfcheck"])
def test_negative_seed_rejected(tmp_path, capsys, monkeypatch, argv):
    # Random(-s) seeds like Random(s): seed -3 would silently repeat seed 3.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.el").write_text("0 1\n")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be >= 0, got -3\n"
    assert not (tmp_path / "o").exists()


def test_analyze_unparsable_file(tmp_path, capsys):
    (tmp_path / "bad.el").write_text("0 1 2 3\n")
    code, _, err = run(capsys, "analyze", str(tmp_path / "bad.el"), "--t", "2")
    assert code == 2
    assert "bad.el" in err


def test_analyze_rejects_multi_graph_g6(tmp_path, capsys):
    (tmp_path / "two.g6").write_text("Bw\nDQc\n")
    code, out, err = run(capsys, "analyze", str(tmp_path / "two.g6"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 2
    assert err.endswith("\n" + ONE_FAILED)
    assert "two.g6" in err and "found 2" in err


def test_analyze_partial_parse_failure_exits_2(tmp_path, capsys):
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    (tmp_path / "bad.el").write_text("0 1 2 3\n")
    code, out, err = run(capsys, "analyze", str(tmp_path), "--t", "3")
    assert code == 2
    assert [json.loads(line)["true_count"] for line in out.splitlines()] == [8]
    load_error = f"error: {tmp_path / 'bad.el'}: line 1: expected two integers, got '0 1 2 3'\n"
    assert err == load_error + ("analyzed 1 graphs, 1 records, 1 tight, 0 strict, "
                                "0 vacuous, 1 failed to load, 0 over budget\n")
    # A parse failure outranks a budget hit; the summary names both.
    code, out, err = run(capsys, "analyze", str(tmp_path), "--t", "3", "--budget", "1")
    assert code == 2
    assert "error" in json.loads(out)
    assert err == load_error + ("analyzed 0 graphs, 0 records, 0 tight, 0 strict, "
                                "0 vacuous, 1 failed to load, 1 over budget\n")


def test_analyze_every_input_failing_still_prints_the_summary(tmp_path, capsys):
    (tmp_path / "a.el").write_text("0 1 2 3\n")
    (tmp_path / "b.g6").write_text("Bw\nDQc\n")
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, "analyze", str(tmp_path), "--t", "3", "--out", str(out_file))
    assert (code, out) == (2, "")
    # No graph loaded, so no report is written, not even an empty one.
    assert not out_file.exists()
    lines = err.splitlines()
    assert [line.split(": ")[:2] for line in lines[:2]] == [
        ["error", str(tmp_path / "a.el")], ["error", str(tmp_path / "b.g6")]]
    assert lines[2:] == ["analyzed 0 graphs, 0 records, 0 tight, 0 strict, 0 vacuous, "
                         "2 failed to load, 0 over budget"]


@pytest.mark.parametrize("name, data", [
    ("bad.el", b"0 1\n1 \xff\n"),
    ("bad.g6", b"D\xffc\n"),
], ids=["el", "g6"])
def test_analyze_non_utf8_input_is_input_error(tmp_path, capsys, name, data):
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    (tmp_path / name).write_bytes(data)
    code, out, err = run(capsys, "analyze", str(tmp_path), "--t", "3")
    assert code == 2
    assert [json.loads(line)["true_count"] for line in out.splitlines()] == [8]
    error_lines = [line for line in err.splitlines() if line.startswith("error: ")]
    assert error_lines == [f"error: {tmp_path / name}: not UTF-8 text at byte offset "
                           f"{data.index(0xff)}"]


def test_analyze_edge_list_past_graph6_cap_is_input_error(tmp_path, capsys):
    big = tmp_path / "big.el"
    big.write_text("0 262144\n")
    run(capsys, "generate", "multipartite", "--parts", "1,1", "--out", str(tmp_path))
    k2 = tmp_path / "multipartite_1x2.g6"
    code, out, err = run(capsys, "analyze", str(big), str(k2))
    assert code == 2
    assert [json.loads(line)["file"] for line in out.splitlines()] == [str(k2)]
    error_lines = [line for line in err.splitlines() if line.startswith("error: ")]
    assert error_lines == [f"error: {big}: vertex count 262145 reaches the graph6 cap of 262144"]


def test_phi_edge_list_past_graph6_cap_is_input_error(tmp_path, capsys):
    (tmp_path / "big.el").write_text("0 262144\n")
    code, out, err = run(capsys, "phi", str(tmp_path / "big.el"), "--t", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "big.el" in err and "graph6 cap" in err


def test_analyze_edge_list_loose_integer_is_input_error(tmp_path, capsys):
    loose = tmp_path / "loose.el"
    loose.write_text("0 1_0\n")
    code, out, err = run(capsys, "analyze", str(loose), "--t", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: {loose}: line 1: expected two integers, got '0 1_0'\n" + ONE_FAILED


@pytest.mark.parametrize("token", ["1_0", "+2", "\u0663", "0x1"],
                         ids=["underscore", "plus", "arabic-indic", "hex"])
@pytest.mark.parametrize("template, lineno, expected", [
    ("0 1\n0 {}\n", 2, "expected two integers"),
    ("p edge {} 0\n", 1, "expected 'p edge n m'"),
    ("p edge 2 {}\n0 1\n", 1, "expected 'p edge n m'"),
], ids=["edge", "header-n", "header-m"])
def test_edge_list_loose_number_names_its_line(tmp_path, capsys, template, lineno,
                                               expected, token):
    # A value padded with a space, " 2", is two fields apart: the format
    # splits a line on whitespace.
    path = tmp_path / "loose.el"
    text = template.format(token)
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path), "--t", "2")
    assert (code, out) == (2, "")
    line = text.splitlines()[lineno - 1]
    assert err == f"error: {path}: line {lineno}: {expected}, got {line!r}\n" + ONE_FAILED


def test_analyze_edge_list_bare_header_is_input_error(tmp_path, capsys):
    # "5 1" could be the header of a 5-vertex graph or the edge (5, 1).
    both = tmp_path / "both.el"
    both.write_text("5 1\n0 1\n")
    code, out, err = run(capsys, "analyze", str(both), "--t", "2")
    assert code == 2
    assert out == ""
    assert err == (f"error: {both}: line 1: '5 1' reads as an 'n m' header or as an "
                   "edge; write a header as 'p edge n m'\n" + ONE_FAILED)
    both.write_text("p edge 5 1\n0 1\n")
    code, out, _ = run(capsys, "analyze", str(both), "--t", "2")
    assert code == 0
    record = json.loads(out)
    assert (record["n"], record["m"]) == (5, 1)


def test_analyze_k400_tight(tmp_path, capsys):
    # Every t-clique of K_400 lies in its one maximal clique, so the walk
    # counts them all at its root, well inside the default budget.
    run(capsys, "generate", "multipartite", "--parts", ",".join(["1"] * 400),
        "--out", str(tmp_path))
    code, out, err = run(capsys, "analyze", str(tmp_path / "multipartite_1x400.g6"),
                         "--t", "2", "--t-max", "4")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [(r["t"], r["true_count"], r["tight"]) for r in recs] == [
        (t, comb(400, t), True) for t in (2, 3, 4)]
    assert err == ("analyzed 1 graphs, 3 records, 3 tight, 0 strict, 0 vacuous, "
                   "0 failed to load, 0 over budget\n")


@pytest.fixture(scope="module")
def deep_clique(tmp_path_factory):
    """K_n as one .g6 line, n past Python's recursion limit."""
    path = tmp_path_factory.mktemp("deep") / "deep.g6"
    n = sys.getrecursionlimit() + 10
    path.write_text(to_graph6(generate_complete_multipartite([1] * n)) + "\n")
    return path


def test_analyze_clique_past_recursion_limit(deep_clique, tmp_path, capsys):
    # The maximal-clique pass runs on an explicit stack, so a clique deeper
    # than Python's recursion limit is analyzed exactly.
    n = sys.getrecursionlimit() + 10
    run(capsys, "generate", "multipartite", "--parts", "1,1", "--out", str(tmp_path))
    k2 = tmp_path / "multipartite_1x2.g6"
    code, out, _ = run(capsys, "analyze", str(deep_clique), str(k2), "--t", "2",
                       "--t-max", "3")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [(r["file"], r["t"]) for r in recs] == [
        (str(deep_clique), 2), (str(deep_clique), 3), (str(k2), 2), (str(k2), 3)]
    assert not any("error" in r for r in recs)
    for r, t in zip(recs[:2], (2, 3)):
        assert (r["n"], r["omega"], r["true_count"]) == (n, n, comb(n, t))
        assert r["tight"] is True
        assert r["certificate"] == [1] * n
    assert [(r["omega"], r["true_count"], r["tight"]) for r in recs[2:]] == [
        (2, 1, True), (2, 0, True)]


def test_phi_clique_past_recursion_limit(deep_clique, capsys):
    code, out, err = run(capsys, "phi", str(deep_clique), "--t", "2", "--samples", "1")
    assert code == 0
    assert "phi_uniform = 0/1 (0)" in out
    assert err == "tight\n"


def test_phi_non_utf8_input_is_input_error(tmp_path, capsys):
    (tmp_path / "bad.el").write_bytes(b"0 1\n1 \xff\n")
    code, out, err = run(capsys, "phi", str(tmp_path / "bad.el"), "--t", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad.el" in err and "not UTF-8" in err


@pytest.mark.parametrize("command", ["analyze", "phi"])
def test_unwritable_out_is_input_error(tmp_path, capsys, command):
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    target = tmp_path / "missing_dir" / "x.out"
    code, out, err = run(capsys, command, str(tmp_path / "multipartite_2x3.g6"),
                         "--t", "3", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing_dir" in err
    assert not target.parent.exists()


@pytest.mark.parametrize("command", ["analyze", "phi"])
def test_unwritable_stdout_is_input_error(tmp_path, capsys, monkeypatch, command):
    class FullStream(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    monkeypatch.setattr(sys, "stdout", FullStream())
    code = main([command, str(tmp_path / "multipartite_2x3.g6"), "--t", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: [Errno 28] No space left on device\n"


def test_generate_out_over_existing_file_is_input_error(tmp_path, capsys):
    existing = tmp_path / "taken"
    existing.write_text("keep\n")
    code, out, err = run(capsys, "generate", "multipartite", "--parts", "2,2",
                         "--out", str(existing))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert existing.read_text() == "keep\n"


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_budget_below_one_rejected(tmp_path, capsys, budget):
    (tmp_path / "x.el").write_text("0 1\n")
    for argv in (["analyze", str(tmp_path / "x.el")], ["phi", str(tmp_path / "x.el")],
                 ["selfcheck"]):
        code, out, err = run(capsys, *argv, "--budget", budget)
        assert code == 2
        assert out == ""
        assert err == f"error: budget must be >= 1, got {budget}\n"


def test_budget_default_is_written_once(capsys):
    from cliquebound.cli import build_parser, run_selfcheck
    from cliquebound.cliques import DEFAULT_BUDGET
    from cliquebound.corpus import petersen_graph

    parser = build_parser()
    for argv in (["analyze"], ["phi"], ["selfcheck"]):
        assert parser.parse_args(argv).budget == DEFAULT_BUDGET
    assert CliqueIndex(petersen_graph()).budget == DEFAULT_BUDGET
    assert inspect.signature(run_selfcheck).parameters["budget"].default == DEFAULT_BUDGET
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    assert f"(default {DEFAULT_BUDGET})" in " ".join(capsys.readouterr().out.split())
    code, _, err = run(capsys, "analyze", "g.g6", "--budget", "0")
    assert (code, err) == (2, "error: budget must be >= 1, got 0\n")


# The records of the empty graph (graph6 "?") at t = 2..3, byte for byte;
# only their turan fields differ: "0/1" at t = 2, null at t = 3.
EMPTY_GRAPH_RECORDS = (
    '{"certificate": null, "edge_localized_sum": "0/1", "file": "empty.g6", '
    '"graph_hash": "8a8de823d5ed3e12", "kirsch_nir_sum": "0/1", "localized_zykov": "0/1", '
    '"localized_zykov_dec": "0", "m": 0, "n": 0, "omega": 0, "t": 2, "tight": true, '
    '"true_count": 0, "turan": "0/1", "version": "0.1.0", "vertex_localized_turan": 0, '
    '"zykov_classical": "0/1"}\n'
    '{"certificate": null, "edge_localized_sum": "0/1", "file": "empty.g6", '
    '"graph_hash": "8a8de823d5ed3e12", "kirsch_nir_sum": "0/1", "localized_zykov": "0/1", '
    '"localized_zykov_dec": "0", "m": 0, "n": 0, "omega": 0, "t": 3, "tight": true, '
    '"true_count": 0, "turan": null, "version": "0.1.0", "vertex_localized_turan": 0, '
    '"zykov_classical": "0/1"}\n'
)


def test_analyze_empty_graph_records_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.g6").write_text("?\n")
    # The empty graph's walk is its root alone, one work node.
    for budget in ("5000000", "1"):
        code, out, err = run(capsys, "analyze", "empty.g6", "--t", "2", "--t-max", "3",
                             "--budget", budget)
        assert code == 0
        assert out == EMPTY_GRAPH_RECORDS
        assert err == ("analyzed 1 graphs, 2 records, 0 tight, 0 strict, 2 vacuous, "
                       "0 failed to load, 0 over budget\n")


def test_phi_tight_exit(tmp_path, capsys):
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    code, out, err = run(capsys, "phi", str(tmp_path / "multipartite_2x3.g6"),
                         "--t", "3", "--samples", "20")
    assert code == 0
    assert out.startswith("phi_uniform = 0/1")
    assert "tight" in err


def test_phi_strict_exit(tmp_path, capsys):
    (tmp_path / "c5.el").write_text("0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out, err = run(capsys, "phi", str(tmp_path / "c5.el"),
                         "--t", "2", "--samples", "20")
    assert code == 4
    assert "phi_uniform = 1/20" in out
    assert "step=" in out
    assert "strict" in err


def test_phi_vacuous_when_t_exceeds_omega(tmp_path, capsys):
    # Both sides of the bound are 0 for t > omega, so phi(uniform) = 0 is not
    # tightness; the exit code stays 0.
    (tmp_path / "c5.el").write_text("0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out, err = run(capsys, "phi", str(tmp_path / "c5.el"),
                         "--t", "3", "--samples", "20")
    assert code == 0
    assert out.startswith("phi_uniform = 0/1 (0)\n")
    assert "descent_end_phi = 0/1" in out
    assert err == "vacuous, t = 3 > omega = 2\n"


def test_phi_vacuous_on_empty_graph(tmp_path, capsys):
    (tmp_path / "empty.el").write_text("")
    code, out, err = run(capsys, "phi", str(tmp_path / "empty.el"), "--t", "2")
    assert code == 0
    assert out == "phi_uniform = 0/1 (0)\nmin_sampled_phi = 0/1 (0)\n"
    assert err == "vacuous, t = 2 > omega = 0\n"


def test_phi_budget_reaches_sampling(tmp_path, capsys):
    # 20 nodes cover the c(v) pass (15) but not the one walk (9) that sums
    # the sampled phi values.
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    code, out, err = run(capsys, "phi", str(tmp_path / "multipartite_2x3.g6"),
                         "--t", "3", "--samples", "20", "--budget", "20")
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_phi_budget_caps_run_total(tmp_path, capsys):
    # K_{2x2x2} at t = 3 with 20 samples: the maximal-clique pass takes 15
    # nodes, the sampled phi values 9 (one walk for the uniform point and the
    # 20 random ones; the six vertex points take none), the descent 14 (it
    # starts from the sampled phi(uniform), so it sums no B there) and the
    # phi at its end 3. The one budget of the run caps their 41 together.
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    path = str(tmp_path / "multipartite_2x3.g6")
    code, out, err = run(capsys, "phi", path, "--t", "3", "--samples", "20",
                         "--budget", "40")
    assert code == 3
    assert out == ""
    assert err == f"error: {path}: clique enumeration exceeded work budget of 40 nodes\n"
    code, _, _ = run(capsys, "phi", path, "--t", "3", "--samples", "20", "--budget", "41")
    assert code == 0


def test_phi_rejects_zero_samples(tmp_path, capsys):
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    code, out, err = run(capsys, "phi", str(tmp_path / "multipartite_2x3.g6"),
                         "--samples", "0")
    assert code == 2
    assert out == ""
    assert "sample count must be >= 1" in err


def test_analyze_tightness_invariant_exits_1(tmp_path, capsys, monkeypatch):
    import cliquebound.bounds as bounds_mod

    monkeypatch.setattr(bounds_mod, "is_regular_complete_multipartite", lambda g: None)
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    code, out, err = run(capsys, "analyze", str(tmp_path), "--t", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "tightness flag True contradicts certificate None" in err


def test_analyze_tightness_error_prints_the_part_sizes(tmp_path, capsys, monkeypatch):
    import cliquebound.bounds as bounds_mod

    real = bounds_mod.localized_zykov_bound
    monkeypatch.setattr(bounds_mod, "localized_zykov_bound", lambda index, t: real(index, t) + 1)
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    code, out, err = run(capsys, "analyze", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == (f"error: {tmp_path / 'multipartite_2x3.g6'}: t=2: tightness flag False "
                   "contradicts certificate (2, 2, 2) for t=2, omega=3\n")
    assert "PartSpec(" not in err


def test_phi_negativity_exits_1(tmp_path, capsys, monkeypatch):
    import cliquebound.simplex as simplex_mod

    # Zero A-terms leave phi = -B, negative wherever the support holds a triangle.
    monkeypatch.setattr(simplex_mod, "clique_density_term", lambda c, t: Fraction(0))
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    code, out, err = run(capsys, "phi", str(tmp_path / "multipartite_2x3.g6"), "--t", "3")
    assert code == 1
    assert out == ""
    # -B is least where the parts weigh alike; the uniform point, first, wins.
    assert err == (f"error: {tmp_path / 'multipartite_2x3.g6'}: t=3: phi(1/6, 1/6, 1/6, 1/6, "
                   "1/6, 1/6) = -1/27 < 0 on a graph where it must be >= 0\n")
    assert "Fraction(" not in err


def test_phi_tightness_invariant_exits_1(tmp_path, capsys, monkeypatch):
    # phi(uniform) = 0 on K_{2x3} at t = 3 says tight; a certificate that
    # never matches contradicts it, so phi writes no report.
    import cliquebound.cli as cli_mod

    monkeypatch.setattr(cli_mod, "is_regular_complete_multipartite", lambda g: None)
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    code, out, err = run(capsys, "phi", str(tmp_path / "multipartite_2x3.g6"), "--t", "3")
    assert code == 1
    assert out == ""
    assert err == (f"error: {tmp_path / 'multipartite_2x3.g6'}: t=3: tightness flag True "
                   "contradicts certificate None for t=3, omega=3\n")


def test_phi_single_vertex(tmp_path, capsys):
    (tmp_path / "k1.g6").write_text("@\n")
    code, out, _ = run(capsys, "phi", str(tmp_path / "k1.g6"), "--t", "2")
    assert code == 0
    assert "step=" not in out


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert "FAIL" not in out
    assert "0 failures" in out


def test_selfcheck_budget_exceeded(capsys):
    code, out, _ = run(capsys, "selfcheck", "--budget", "1")
    assert code == 3
    assert "BUDGET" in out


def test_selfcheck_one_maximal_clique_pass_per_graph(capsys, maximal_clique_passes):
    import cliquebound.cli as cli_mod

    code, _, _ = run(capsys, "selfcheck")
    assert code == 0
    assert len(maximal_clique_passes) == len(cli_mod._selfcheck_graphs()) == 15


def test_selfcheck_detects_corrupted_bound(capsys, monkeypatch):
    # deliberately break the bound evaluation; the named invariant must FAIL
    import cliquebound.cli as cli_mod

    real = cli_mod.bound_reports

    def corrupted(index, ts):
        reports = real(index, ts)
        for rep in reports:
            object.__setattr__(rep, "localized_zykov", rep.localized_zykov - 1)
        return reports

    monkeypatch.setattr(cli_mod, "bound_reports", corrupted)
    code, out, _ = run(capsys, "selfcheck")
    assert code == 1
    assert any(line.startswith("FAIL soundness[") for line in out.splitlines())


def test_selfcheck_reports_tightness_invariant_error(capsys, monkeypatch):
    # A certificate that never matches contradicts every tight graph's flag;
    # each such graph gets one FAIL line, not a traceback.
    import cliquebound.bounds as bounds_mod

    monkeypatch.setattr(bounds_mod, "is_regular_complete_multipartite", lambda g: None)
    code, out, _ = run(capsys, "selfcheck")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails[0] == ("FAIL tightness[K4,t=2]: tightness flag True contradicts "
                        "certificate None for t=2, omega=4")
    assert all(line.startswith("FAIL tightness[") for line in fails)
    assert out.endswith(f"selfcheck: {len(fails)} failures\n")


def test_selfcheck_reports_phi_negativity_error(capsys, monkeypatch):
    # Adding 16 to every batched B sum lowers phi at a point with weights
    # summing to S by 16 / S^t: by 1 at the uniform point of K4 at t = 2,
    # where phi is 0, and by no more at a sampled point, whose S is at least 4.
    real = CliqueIndex.weight_sums

    def shifted(self, mask, t, points):
        return ((p, b + 16) for p, b in real(self, mask, t, points))

    monkeypatch.setattr(CliqueIndex, "weight_sums", shifted)
    code, out, _ = run(capsys, "selfcheck")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails[0] == ("FAIL phi_nonneg[K4,t=2]: phi(1/4, 1/4, 1/4, 1/4) = -1/1 < 0 "
                        "on a graph where it must be >= 0")
    assert all(line.startswith("FAIL phi_nonneg[") for line in fails)
    assert out.endswith(f"selfcheck: {len(fails)} failures\n")


def test_selfcheck_reports_phi_uniform_mismatch(capsys, monkeypatch):
    # The one-point kernel alone is off by one: n^t phi(uniform) no longer
    # equals the localized bound less N, and only that check sees it.
    real = CliqueIndex.weight_sum
    monkeypatch.setattr(CliqueIndex, "weight_sum",
                        lambda self, mask, t, weights: real(self, mask, t, weights) + 1)
    code, out, _ = run(capsys, "selfcheck")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails
    assert all(line.startswith("FAIL phi_uniform[") for line in fails)
    assert out.endswith(f"selfcheck: {len(fails)} failures\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "g.g6", "--seed", "1"],
    ["analyze", "g.g6", "--samples", "5"],
    ["phi", "g.g6", "--t-max", "5"],
    ["phi", "g.g6", "--format", "csv"],
    ["selfcheck", "--t", "3"],
    ["selfcheck", "--t-max", "3"],
    ["selfcheck", "--format", "csv"],
    ["selfcheck", "--samples", "5"],
    ["selfcheck", "--out", "x.txt"],
], ids=" ".join)
def test_option_not_read_by_subcommand_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _count_calls(monkeypatch, calls, *names):
    """Patch a counting wrapper of each named function into every cliquebound
    module that holds it, as a tracer would. Each original is the function
    as the module that defines it holds it."""
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "cliquebound"]
    for name in names:
        [original] = [getattr(m, name) for m in modules
                      if getattr(getattr(m, name, None), "__module__", None) == m.__name__]

        def wrapper(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)


def test_analyze_reads_each_quantity_through_its_named_function(tmp_path, capsys, monkeypatch):
    # Counting wrappers patched in by name, as a tracer would patch them, see
    # every clique quantity that analyze reports.
    run(capsys, "generate", "multipartite", "--parts", "2,2,2", "--out", str(tmp_path))
    run(capsys, "generate", "random", "--n", "9", "--p", "1/2", "--seed", "4",
        "--out", str(tmp_path))
    argv = ("analyze", str(tmp_path), "--t", "2", "--t-max", "3")
    _, expected, _ = run(capsys, *argv)
    calls = Counter()
    _count_calls(monkeypatch, calls, "vertex_clique_numbers", "count_cliques",
                 "edge_localized_turan_sum", "kirsch_nir_sum")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected
    # Per graph: c(v) read once, by its index, and one edge sum, which reads
    # the Kirsch-Nir sum at t = 2; then one count and one Kirsch-Nir sum per t.
    assert calls == {"vertex_clique_numbers": 2, "edge_localized_turan_sum": 2,
                     "count_cliques": 4, "kirsch_nir_sum": 6}


def test_phi_reads_c_once(tmp_path, capsys, monkeypatch):
    # phi's sampling, descent and end-point phi all read c(v) off the one
    # index of the run.
    run(capsys, "generate", "random", "--n", "9", "--p", "1/2", "--seed", "4",
        "--out", str(tmp_path))
    argv = ("phi", str(tmp_path), "--t", "3", "--samples", "5")
    _, expected, _ = run(capsys, *argv)
    calls = Counter()
    _count_calls(monkeypatch, calls, "vertex_clique_numbers")
    code, out, _ = run(capsys, *argv)
    assert code == 4
    assert out == expected
    assert calls == {"vertex_clique_numbers": 1}


def test_module_entry_point(tmp_path):
    # `python -m cliquebound` runs cli.entrypoint, whose exit code is main's.
    def cliquebound(*args):
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run([sys.executable, "-m", "cliquebound", *args], cwd=tmp_path,
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(src)))

    version = cliquebound("--version")
    assert (version.returncode, version.stdout, version.stderr) == (0, "0.1.0\n", "")
    missing = cliquebound("analyze", "missing.g6")
    assert (missing.returncode, missing.stdout) == (2, "")
    assert missing.stderr == ("error: missing.g6: [Errno 2] No such file or directory: "
                              "'missing.g6'\n" + ONE_FAILED)
