import ast
from collections import Counter
from pathlib import Path

import pytest

from cliquebound import oracles
from cliquebound.corpus import complete_graph, empty_graph, octahedron, path_graph
from cliquebound.graph import Graph
from cliquebound.oracles import (
    OracleSizeError,
    brute_alpha_histogram,
    brute_count_cliques,
    brute_kirsch_nir_alpha,
    brute_vertex_clique_numbers,
    plain_weight_sum,
)


def test_k5_triangles():
    assert brute_count_cliques(complete_graph(5), 3) == 10


def test_octahedron_triangles_frozen():
    assert brute_count_cliques(octahedron(), 3) == 8


def test_p3_has_no_triangle():
    assert brute_count_cliques(path_graph(3), 3) == 0
    with pytest.raises(ValueError, match="clique order must be >= 1, got 0"):
        brute_count_cliques(path_graph(3), 0)


def test_paw_profile_frozen(paw):
    assert brute_vertex_clique_numbers(paw).c == (3, 3, 3, 2)


def test_k4_profile(k4):
    profile = brute_vertex_clique_numbers(k4)
    assert profile.c == (4, 4, 4, 4) and profile.omega == 4
    assert profile == ((4, 4, 4, 4), 4)


def test_empty_graph_profile():
    assert brute_vertex_clique_numbers(Graph(0, ())) == ((), 0)


def test_edgeless_profile():
    assert brute_vertex_clique_numbers(empty_graph(3)).c == (1, 1, 1)


def test_alpha_k4_edge(k4):
    assert brute_kirsch_nir_alpha(k4, (0, 1)) == 4


def test_alpha_paw_pendant_edge(paw):
    assert brute_kirsch_nir_alpha(paw, (0, 3)) == 2


def test_alpha_octahedron_cross_part_edge(octa):
    assert octa.has_edge(0, 2)
    assert brute_kirsch_nir_alpha(octa, (0, 2)) == 3


def test_alpha_histogram_paw(paw):
    # The triangle's three edges lie in it; the pendant edge only in itself.
    assert brute_alpha_histogram(paw, 2) == Counter({3: 3, 2: 1})
    assert brute_alpha_histogram(paw, 3) == Counter({3: 1})
    assert brute_alpha_histogram(paw, 4) == Counter()
    with pytest.raises(ValueError, match="clique order must be >= 1, got 0"):
        brute_alpha_histogram(paw, 0)


def test_alpha_rejects_non_clique(octa):
    with pytest.raises(ValueError):
        brute_kirsch_nir_alpha(octa, (0, 1))  # same part, non-adjacent
    with pytest.raises(ValueError, match="clique copy contains duplicates"):
        brute_kirsch_nir_alpha(octa, (0, 2, 0))


def test_plain_weight_sum_k4(k4):
    # The edges of K_4 at unit weight: the root and one leaf below each of
    # 0, 1 and 2; 3 has no later neighbour.
    assert plain_weight_sum(k4, k4.full_mask, 2, (1,) * 4) == (6, 4)
    # Weights 1..4 on the triangles within {0, 1, 3}: one, of product 8.
    assert plain_weight_sum(k4, 0b1011, 3, (1, 2, 3, 4)) == (8, 3)
    with pytest.raises(ValueError, match="clique order must be >= 1, got 0"):
        plain_weight_sum(k4, k4.full_mask, 0, (1,) * 4)


def test_size_guard_is_hard_error():
    g = Graph(21, (0,) * 21)
    with pytest.raises(OracleSizeError):
        brute_count_cliques(g, 2)
    with pytest.raises(OracleSizeError):
        brute_vertex_clique_numbers(g)


def test_oracles_import_only_graph_from_the_package():
    # The reference shares no code with the paths it checks: of this package
    # it imports only the graph type.
    imports = []
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imports.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imports.extend(alias.name for alias in node.names)
    assert [name for name in imports if name.startswith((".", "cliquebound"))] == [".graph"]
