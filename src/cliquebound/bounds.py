"""Exact evaluation of the clique-count bound family and its equality case.

All values are ``fractions.Fraction``; every comparison in this module is an
exact rational comparison, so equality cases are decided without tolerance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cliques import (
    CliqueProfile,
    count_cliques,
    largest_clique_orders,
    vertex_clique_numbers,
)
from .graph import Graph, PartSpec


class TightnessInvariantError(AssertionError):
    """Tightness flag disagrees with the structural certificate."""


def clique_density_term(c: int, t: int) -> Fraction:
    """C(c, t) / c^t, the per-vertex weight of the localized bound.

    Increasing in c for c >= 1 and fixed t, which is what makes the
    localized bound dominate the classical one.
    """
    if c < 1:
        raise ValueError(f"clique order must be >= 1, got {c}")
    return Fraction(comb(c, t), c**t)


def localized_zykov_bound(g: Graph, t: int, profile: CliqueProfile) -> Fraction:
    """n^(t-1) * sum_v C(c(v), t) / c(v)^t, exactly."""
    if t < 2:
        raise ValueError(f"clique order t must be >= 2, got {t}")
    if len(profile.c) != g.n:
        raise ValueError("profile length does not match graph order")
    total = sum((clique_density_term(c, t) for c in profile.c), Fraction(0))
    return Fraction(g.n) ** (t - 1) * total


def zykov_bound(n: int, r: int, t: int) -> Fraction:
    """C(r, t) * (n / r)^t, the classical clique-count bound."""
    if t < 2:
        raise ValueError(f"clique order t must be >= 2, got {t}")
    if r < 1:
        raise ValueError(f"clique bound r must be >= 1, got {r}")
    return comb(r, t) * Fraction(n, r) ** t


def turan_bound(n: int, r: int) -> Fraction:
    """n^2 (r-1) / (2r), the classical edge bound; equals zykov_bound(n, r, 2)."""
    if r < 1:
        raise ValueError(f"clique bound r must be >= 1, got {r}")
    return Fraction(n * n * (r - 1), 2 * r)


def _order_histogram(g: Graph, t: int, budget: int | None) -> Counter:
    """Number of t-cliques per largest-containing-clique order."""
    return Counter(largest_clique_orders(g, t, budget=budget).values())


def edge_localized_turan_sum(g: Graph, budget: int | None = None) -> Fraction:
    """sum_e w(e) / (w(e) - 1), w(e) the order of the largest clique
    containing e; always at most n^2 / 2."""
    return sum(
        (Fraction(k * w, w - 1) for w, k in _order_histogram(g, 2, budget).items()),
        Fraction(0),
    )


def vertex_localized_turan_bound(g: Graph, profile: CliqueProfile) -> int:
    """floor((n/2) * sum_v (c(v)-1)/c(v)); the pre-floor value equals the
    localized bound at t = 2."""
    total = sum((Fraction(c - 1, c) for c in profile.c), Fraction(0))
    value = Fraction(g.n, 2) * total
    return value.numerator // value.denominator


def kirsch_nir_sum(g: Graph, t: int, budget: int | None = None) -> Fraction:
    """sum over t-cliques T of alpha(T)^t / C(alpha(T), t), alpha(T) the order
    of the largest clique containing T; at most n^t."""
    if t < 2:
        raise ValueError(f"clique order t must be >= 2, got {t}")
    return sum(
        (Fraction(k * a**t, comb(a, t)) for a, k in _order_histogram(g, t, budget).items()),
        Fraction(0),
    )


def is_regular_complete_multipartite(g: Graph) -> PartSpec | None:
    """Part sizes if g is complete multipartite with equal parts, else None.

    The complement must be a disjoint union of equal-order cliques. K_n
    qualifies (n parts of size 1); an edgeless graph on n >= 1 vertices
    qualifies as a single part.
    """
    parts = complete_multipartite_parts(g)
    if parts is None or len(set(parts.sizes)) != 1:
        return None
    return parts


def complete_multipartite_parts(g: Graph) -> PartSpec | None:
    """Part sizes if g is complete multipartite (parts need not be equal)."""
    if g.n == 0:
        return None
    comp = g.complement()
    seen = 0
    sizes = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        component = 1 << v
        frontier = comp.adjacency[v]
        while frontier & ~component:
            u = (frontier & ~component).bit_length() - 1
            component |= 1 << u
            frontier |= comp.adjacency[u]
        if not comp.induces_clique(component):
            return None
        sizes.append(component.bit_count())
        seen |= component
    return PartSpec(tuple(sizes))


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one (G, t), with the equality certificate."""

    t: int
    n: int
    m: int
    omega: int
    true_count: int
    localized_zykov: Fraction
    zykov_classical: Fraction
    turan: Fraction | None  # t = 2 only
    edge_localized_sum: Fraction
    vertex_localized_turan: int
    kirsch_nir_sum: Fraction
    is_tight: bool
    extremal_certificate: PartSpec | None


def bound_report(g: Graph, t: int, budget: int | None = None) -> BoundReport:
    """Evaluate every bound exactly and certify the equality case.

    For t <= omega the tightness flag is cross-checked against the
    regular-complete-multipartite certificate; for t > omega both sides of
    the localized bound can vanish, so tightness there is vacuous and not
    cross-checked.
    """
    if t < 2:
        raise ValueError(f"clique order t must be >= 2, got {t}")
    if g.n == 0:
        return BoundReport(
            t=t, n=0, m=0, omega=0, true_count=0,
            localized_zykov=Fraction(0), zykov_classical=Fraction(0),
            turan=Fraction(0) if t == 2 else None,
            edge_localized_sum=Fraction(0), vertex_localized_turan=0,
            kirsch_nir_sum=Fraction(0), is_tight=True, extremal_certificate=None,
        )
    profile = vertex_clique_numbers(g, budget=budget)
    true_count = count_cliques(g, t, budget=budget)
    localized = localized_zykov_bound(g, t, profile)
    certificate = is_regular_complete_multipartite(g)
    tight = Fraction(true_count) == localized
    if t <= profile.omega and tight != (certificate is not None):
        raise TightnessInvariantError(
            f"tightness flag {tight} contradicts certificate {certificate} "
            f"for t={t}, omega={profile.omega}"
        )
    return BoundReport(
        t=t,
        n=g.n,
        m=g.m,
        omega=profile.omega,
        true_count=true_count,
        localized_zykov=localized,
        zykov_classical=zykov_bound(g.n, profile.omega, t),
        turan=turan_bound(g.n, profile.omega) if t == 2 else None,
        edge_localized_sum=edge_localized_turan_sum(g, budget=budget),
        vertex_localized_turan=vertex_localized_turan_bound(g, profile),
        kirsch_nir_sum=kirsch_nir_sum(g, t, budget=budget),
        is_tight=tight,
        extremal_certificate=certificate,
    )
