"""Acceptance suite: every criterion is exact (rational equality, no tolerance).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from cliquebound.bounds import (
    bound_report,
    is_regular_complete_multipartite,
    localized_zykov_bound,
    vertex_localized_turan_bound,
    zykov_bound,
)
from cliquebound.cliques import CliqueIndex, count_cliques
from cliquebound.corpus import (
    named_small_graphs,
    regular_multipartite_family,
    seeded_random_corpus,
)
from cliquebound.graph import generate_complete_multipartite
from cliquebound.oracles import (
    brute_alpha_histogram,
    brute_count_cliques,
    brute_vertex_clique_numbers,
)
from cliquebound.simplex import (
    SimplexPoint,
    delta_ij,
    descend_to_clique_support,
    eval_phi,
    transfer,
    verify_nonnegativity,
)

TIGHT_FAMILY = [
    (s, r)
    for s in (1, 2, 3)
    for r in (2, 3, 4)
    if s * r <= 12
]


@pytest.fixture(scope="module")
def sweep():
    """200 seeded random graphs, n in 8..14, p in {1/4, 1/2, 3/4}."""
    return seeded_random_corpus(
        200, ns=range(8, 15),
        ps=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
        base_seed=2000,
    )


@pytest.fixture(scope="module")
def corpus():
    """Acceptance corpus: the tight family, named small graphs, random extras."""
    out = regular_multipartite_family()
    out.extend(named_small_graphs().items())
    out.extend(seeded_random_corpus(
        8, ns=(8, 9, 10),
        ps=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
        base_seed=500,
    ))
    return out


def _report(num, name):
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_criterion_1_tight_case_reproduction():
    start = time.monotonic()
    for s, r in TIGHT_FAMILY:
        g = generate_complete_multipartite([s] * r)
        index = CliqueIndex(g)
        cert = is_regular_complete_multipartite(g)
        assert cert == (s,) * r
        for t in range(2, r + 1):
            true_count = count_cliques(index, t)
            bound = localized_zykov_bound(index, t)
            assert Fraction(true_count) == bound
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(1, "tight-case reproduction")


def test_criterion_2_soundness_sweep(sweep):
    start = time.monotonic()
    assert len(sweep) == 200
    for name, g in sweep:
        index = CliqueIndex(g)
        for t in range(2, 6):
            true_count = count_cliques(index, t)
            local = localized_zykov_bound(index, t)
            classical = zykov_bound(g.n, index.omega, t)
            assert Fraction(true_count) <= local <= classical, (name, t)
    assert time.monotonic() - start < 120
    _report(2, "soundness sweep")


def test_criterion_3_strictness_direction(sweep):
    for name, g in sweep:
        index = CliqueIndex(g)
        cert = is_regular_complete_multipartite(g)
        strict_ts = []
        for t in range(2, min(index.omega, 5) + 1):
            rep = bound_report(index, t)
            if rep.is_tight:
                assert rep.extremal_certificate is not None, (name, t)
            else:
                strict_ts.append(t)
        if cert is None:
            # a non-certified graph has an edge, so omega >= 2 and some
            # t <= omega must be strict (t = 2 always is, by the edge bound)
            assert index.omega >= 2, name
            assert strict_ts and 2 in strict_ts, name
    _report(3, "strictness direction")


def test_criterion_4_t2_recovery(corpus):
    for name, g in corpus:
        if g.n == 0:
            continue
        index = CliqueIndex(g)
        pre_floor = Fraction(g.n, 2) * sum(
            (Fraction(c - 1, c) for c in index.c), Fraction(0)
        )
        assert pre_floor == localized_zykov_bound(index, 2), name
        floored = vertex_localized_turan_bound(index)
        assert floored == pre_floor.numerator // pre_floor.denominator
        assert g.m <= floored, name
    _report(4, "t=2 recovery")


def test_criterion_5_phi_nonnegativity(corpus):
    tight_at_uniform = set()
    for name, g in corpus:
        for t in range(2, 6):
            index = CliqueIndex(g)
            report = verify_nonnegativity(index, t, samples=500, seed=42)
            assert report.min_phi >= 0, (name, t)
            local = localized_zykov_bound(index, t)
            true_count = count_cliques(index, t)
            # equality bridge: localized - N = n^t * phi(uniform)
            assert local - true_count == g.n**t * report.phi_uniform, (name, t)
            if report.phi_uniform == 0:
                tight_at_uniform.add((name, t))
                assert Fraction(true_count) == local
            else:
                assert Fraction(true_count) < local
    # every criterion-1 tight case shows phi(uniform) = 0
    for s, r in TIGHT_FAMILY:
        for t in range(2, r + 1):
            assert (f"K_{s}x{r}", t) in tight_at_uniform
    _report(5, "phi nonnegativity")


def test_criterion_6_linear_response(corpus):
    rng = random.Random(99)
    checked = 0
    pool = [(name, g) for name, g in corpus if g.n >= 2]
    while checked < 1000:
        name, g = pool[rng.randrange(len(pool))]
        nonadj = [(i, j) for i, j in combinations(range(g.n), 2)
                  if not g.has_edge(i, j)]
        if not nonadj:
            continue
        t = rng.randrange(2, 6)
        x = SimplexPoint.random_point(g.n, rng)
        i, j = nonadj[rng.randrange(len(nonadj))]
        if rng.random() < 0.5:
            i, j = j, i
        eps = x.x[j] * Fraction(rng.randrange(0, 101), 100)
        index = CliqueIndex(g)
        before = eval_phi(index, t, x).phi
        after = eval_phi(index, t, transfer(x, i, j, eps)).phi
        assert after - before == eps * delta_ij(index, t, x, i, j), (name, t)
        checked += 1
    _report(6, "linear-response identity")


def test_criterion_7_descent_contract(corpus):
    rng = random.Random(7)
    for name, g in corpus:
        if g.n == 0:
            continue
        for k in range(50):
            t = 2 + k % 4
            x0 = SimplexPoint.random_point(g.n, rng)
            index = CliqueIndex(g)
            trace = descend_to_clique_support(index, t, x0)
            assert len(trace.steps) <= len(x0.support) - 1, name
            assert trace.end_support_is_clique
            assert g.induces_clique(trace.end.support_mask)
            phi = eval_phi(index, t, x0).phi
            supp = len(x0.support)
            for step in trace.steps:
                assert step.phi_after <= phi
                phi = step.phi_after
                supp -= 1
            assert supp == len(trace.end.support)
            assert eval_phi(index, t, trace.end).phi == phi
    _report(7, "descent contract")


def test_criterion_8_oracle_equivalence(corpus):
    for name, g in corpus:
        if g.n > 16:
            continue
        index = CliqueIndex(g)
        assert (index.c, index.omega) == brute_vertex_clique_numbers(g), name
        for t in range(1, 7):
            assert count_cliques(index, t) == brute_count_cliques(g, t), (name, t)
        for t in (2, 3):
            assert index.histogram(t) == brute_alpha_histogram(g, t), (name, t)
    _report(8, "oracle equivalence")


def test_criterion_9_comparison_bounds(corpus):
    for name, g in corpus:
        index = CliqueIndex(g)
        rep2 = bound_report(index, 2)
        assert rep2.edge_localized_sum <= Fraction(g.n**2, 2), name
        for t in range(2, 6):
            rep = bound_report(index, t)
            assert rep.kirsch_nir_sum <= g.n**t, (name, t)
    # edge-localized equality exactly on the regular multipartite generators
    for s, r in TIGHT_FAMILY:
        g = generate_complete_multipartite([s] * r)
        rep = bound_report(CliqueIndex(g), 2)
        assert rep.edge_localized_sum == Fraction(g.n**2, 2)
    for name, g in named_small_graphs().items():
        rep = bound_report(CliqueIndex(g), 2)
        expect_equal = is_regular_complete_multipartite(g) is not None and g.m > 0
        assert (rep.edge_localized_sum == Fraction(g.n**2, 2)) == expect_equal, name
    _report(9, "comparison bounds")
