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
from cliquebound.cliques import (
    count_cliques,
    largest_clique_orders,
    vertex_clique_numbers,
)
from cliquebound.corpus import (
    named_small_graphs,
    regular_multipartite_family,
    seeded_random_corpus,
)
from cliquebound.graph import bits, generate_complete_multipartite
from cliquebound.oracles import (
    brute_count_cliques,
    brute_kirsch_nir_alpha,
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


@pytest.fixture(scope="module")
def profiles(corpus):
    return {name: vertex_clique_numbers(g) for name, g in corpus}


def _report(num, name):
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_criterion_1_tight_case_reproduction():
    start = time.monotonic()
    for s, r in TIGHT_FAMILY:
        g = generate_complete_multipartite([s] * r)
        profile = vertex_clique_numbers(g)
        cert = is_regular_complete_multipartite(g)
        assert cert is not None and cert.sizes == (s,) * r
        for t in range(2, r + 1):
            true_count = count_cliques(g, t)
            bound = localized_zykov_bound(g, t, profile)
            assert Fraction(true_count) == bound
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(1, "tight-case reproduction")


def test_criterion_2_soundness_sweep(sweep):
    start = time.monotonic()
    assert len(sweep) == 200
    for name, g in sweep:
        profile = vertex_clique_numbers(g)
        for t in range(2, 6):
            true_count = count_cliques(g, t)
            local = localized_zykov_bound(g, t, profile)
            classical = zykov_bound(g.n, profile.omega, t)
            assert Fraction(true_count) <= local <= classical, (name, t)
    assert time.monotonic() - start < 120
    _report(2, "soundness sweep")


def test_criterion_3_strictness_direction(sweep):
    for name, g in sweep:
        profile = vertex_clique_numbers(g)
        cert = is_regular_complete_multipartite(g)
        strict_ts = []
        for t in range(2, min(profile.omega, 5) + 1):
            rep = bound_report(g, t)
            if rep.is_tight:
                assert rep.extremal_certificate is not None, (name, t)
            else:
                strict_ts.append(t)
        if cert is None:
            # a non-certified graph has an edge, so omega >= 2 and some
            # t <= omega must be strict (t = 2 always is, by the edge bound)
            assert profile.omega >= 2, name
            assert strict_ts and 2 in strict_ts, name
    _report(3, "strictness direction")


def test_criterion_4_t2_recovery(corpus, profiles):
    for name, g in corpus:
        if g.n == 0:
            continue
        profile = profiles[name]
        pre_floor = Fraction(g.n, 2) * sum(
            (Fraction(c - 1, c) for c in profile.c), Fraction(0)
        )
        assert pre_floor == localized_zykov_bound(g, 2, profile), name
        floored = vertex_localized_turan_bound(g, profile)
        assert floored == pre_floor.numerator // pre_floor.denominator
        assert g.m <= floored, name
    _report(4, "t=2 recovery")


def test_criterion_5_phi_nonnegativity(corpus, profiles):
    tight_at_uniform = set()
    for name, g in corpus:
        profile = profiles[name]
        for t in range(2, 6):
            report = verify_nonnegativity(g, t, profile, samples=500, seed=42)
            assert report.min_phi >= 0, (name, t)
            local = localized_zykov_bound(g, t, profile)
            true_count = count_cliques(g, t)
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


def test_criterion_6_linear_response(corpus, profiles):
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
        profile = profiles[name]
        before = eval_phi(g, t, profile, x).phi
        after = eval_phi(g, t, profile, transfer(x, i, j, eps)).phi
        assert after - before == eps * delta_ij(g, t, profile, x, i, j), (name, t)
        checked += 1
    _report(6, "linear-response identity")


def test_criterion_7_descent_contract(corpus, profiles):
    rng = random.Random(7)
    for name, g in corpus:
        if g.n == 0:
            continue
        profile = profiles[name]
        for k in range(50):
            t = 2 + k % 4
            x0 = SimplexPoint.random_point(g.n, rng)
            trace = descend_to_clique_support(g, t, profile, x0)
            assert len(trace.steps) <= len(x0.support) - 1, name
            assert trace.end_support_is_clique
            assert g.induces_clique(trace.end.support_mask)
            phi = eval_phi(g, t, profile, x0).phi
            supp = len(x0.support)
            for step in trace.steps:
                assert step.phi_after <= phi
                phi = step.phi_after
                supp -= 1
            assert supp == len(trace.end.support)
            assert eval_phi(g, t, profile, trace.end).phi == phi
    _report(7, "descent contract")


def test_criterion_8_oracle_equivalence(corpus):
    for name, g in corpus:
        if g.n > 16:
            continue
        assert vertex_clique_numbers(g) == brute_vertex_clique_numbers(g), name
        for t in range(1, 7):
            assert count_cliques(g, t) == brute_count_cliques(g, t), (name, t)
        for t in (2, 3):
            orders = largest_clique_orders(g, t)
            assert len(orders) == brute_count_cliques(g, t), (name, t)
            for key, alpha in orders.items():
                copy = tuple(bits(key))
                assert alpha == brute_kirsch_nir_alpha(g, copy), (name, copy)
    _report(8, "oracle equivalence")


def test_criterion_9_comparison_bounds(corpus):
    for name, g in corpus:
        rep2 = bound_report(g, 2)
        assert rep2.edge_localized_sum <= Fraction(g.n**2, 2), name
        for t in range(2, 6):
            rep = bound_report(g, t)
            assert rep.kirsch_nir_sum <= g.n**t, (name, t)
    # edge-localized equality exactly on the regular multipartite generators
    for s, r in TIGHT_FAMILY:
        g = generate_complete_multipartite([s] * r)
        rep = bound_report(g, 2)
        assert rep.edge_localized_sum == Fraction(g.n**2, 2)
    for name, g in named_small_graphs().items():
        rep = bound_report(g, 2)
        expect_equal = is_regular_complete_multipartite(g) is not None and g.m > 0
        assert (rep.edge_localized_sum == Fraction(g.n**2, 2)) == expect_equal, name
    _report(9, "comparison bounds")
