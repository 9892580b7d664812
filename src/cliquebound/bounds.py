"""Exact evaluation of the clique-count bound family and its equality case.

All values are ``fractions.Fraction``; every comparison in this module is an
exact rational comparison, so equality cases are decided without tolerance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor
from typing import Iterable

from .cliques import CliqueIndex, count_cliques
from .graph import Graph, rational_text


class InvariantError(AssertionError):
    """A computed value breaks a relation the paper proves, at order t:
    one of the bound family's inequalities (``check_report``), the
    tightness flag against the equality certificate, phi >= 0, or the end
    of a descent (``simplex.descent_end_phi``). Any of these means a bug.
    ``relation`` names the relation that failed."""

    def __init__(self, message: str, t: int, relation: str):
        super().__init__(message)
        self.t = t
        self.relation = relation


def clique_density_term(c: int, t: int) -> Fraction:
    """C(c, t) / c^t, the per-vertex weight of the localized bound.

    Increasing in c for c >= 1 and fixed t, which is what makes the
    localized bound dominate the classical one.
    """
    if c < 1:
        raise ValueError(f"clique order must be >= 1, got {c}")
    return Fraction(comb(c, t), c**t)


def localized_zykov_bound(index: CliqueIndex, t: int) -> Fraction:
    """n^(t-1) * sum_v C(c(v), t) / c(v)^t, exactly, from the index's c(v):
    one term per distinct c(v), times the number of vertices that have it."""
    if t < 2:
        raise ValueError(f"clique order t must be >= 2, got {t}")
    total = sum((k * clique_density_term(c, t) for c, k in Counter(index.c).items()),
                Fraction(0))
    return Fraction(index.graph.n) ** (t - 1) * total


def zykov_bound(n: int, r: int, t: int) -> Fraction:
    """C(r, t) * (n / r)^t, the classical clique-count bound: the localized
    bound with c(v) = r for every vertex. The empty graph alone has r = 0,
    and its bound is 0."""
    if t < 2:
        raise ValueError(f"clique order t must be >= 2, got {t}")
    if n == r == 0:
        return Fraction(0)
    if r < 1:
        raise ValueError(f"clique bound r must be >= 1, got {r}")
    return n**t * clique_density_term(r, t)


def turan_bound(n: int, r: int) -> Fraction:
    """n^2 (r-1) / (2r), the classical edge bound."""
    return zykov_bound(n, r, 2)


def edge_localized_turan_sum(index: CliqueIndex) -> Fraction:
    """sum_e w(e) / (w(e) - 1), w(e) the order of the largest clique
    containing e; always at most n^2 / 2. Since w / (w - 1) = w^2 / (2 C(w, 2)),
    it is half the Kirsch-Nir sum at t = 2."""
    return kirsch_nir_sum(index, 2) / 2


def vertex_localized_turan_bound(index: CliqueIndex) -> int:
    """floor((n/2) * sum_v (c(v)-1)/c(v)), the floor of the localized bound
    at t = 2, since (c-1)/(2c) = C(c, 2)/c^2."""
    return floor(localized_zykov_bound(index, 2))


def kirsch_nir_sum(index: CliqueIndex, t: int) -> Fraction:
    """sum over t-cliques T of alpha(T)^t / C(alpha(T), t), alpha(T) the order
    of the largest clique containing T; at most n^t. It is read off the
    index's histogram of alpha(T)."""
    if t < 2:
        raise ValueError(f"clique order t must be >= 2, got {t}")
    return sum((k / clique_density_term(a, t) for a, k in index.histogram(t).items()),
               Fraction(0))


def is_regular_complete_multipartite(g: Graph) -> tuple[int, ...] | None:
    """The part sizes (s, ..., s) if g is complete multipartite with equal
    parts, else None: the equality certificate of the localized bound.

    K_n qualifies (n parts of size 1); an edgeless graph on n >= 1 vertices
    qualifies as a single part.
    """
    parts = complete_multipartite_parts(g)
    return parts if parts is not None and len(set(parts)) == 1 else None


def complete_multipartite_parts(g: Graph) -> tuple[int, ...] | None:
    """The part sizes, a tuple of integers >= 1, if g is complete
    multipartite (parts need not be equal), else None.

    The parts are the classes of vertices with equal adjacency rows, in
    order of their lowest vertex; g is complete multipartite exactly when
    each class's row is the complement of the class. The empty graph has
    no part and is not complete multipartite.
    """
    if g.n == 0:
        return None
    classes: dict[int, int] = {}
    for v, row in enumerate(g.adjacency):
        classes[row] = classes.get(row, 0) | 1 << v
    full = g.full_mask
    if any(row != full & ~part for row, part in classes.items()):
        return None
    return tuple(part.bit_count() for part in classes.values())


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
    extremal_certificate: tuple[int, ...] | None  # part sizes (s, ..., s)

    @property
    def outcome(self) -> str:
        return outcome(self.t, self.omega, self.is_tight)


def outcome(t: int, omega: int, tight: bool) -> str:
    """"tight", "strict" or "vacuous": the bound's outcome at order t.

    For t > omega both N(G, K_t) and the bound are 0, so equality there is
    vacuous rather than tight, whatever ``tight`` says.
    """
    if t > omega:
        return "vacuous"
    return "tight" if tight else "strict"


def check_tightness(t: int, omega: int, tight: bool,
                    certificate: tuple[int, ...] | None) -> None:
    """Raise ``InvariantError`` if, at t <= omega, the bound's tightness
    flag at order t disagrees with the equality certificate. For t > omega
    both sides of the bound are 0, so the flag there is vacuous and not
    checked."""
    if t <= omega and tight != (certificate is not None):
        raise InvariantError(
            f"tightness flag {tight} contradicts certificate {certificate} "
            f"for t={t}, omega={omega}", t, "tightness"
        )


def check_report(rep: BoundReport) -> None:
    """Raise ``InvariantError``, naming the first relation that fails, unless
    ``rep`` satisfies every relation of the bound family:

    - N <= localized <= zykov: the theorem and its Zykov corollary;
    - kirsch_nir_sum <= n^t and edge_localized_sum <= n^2 / 2;
    - m <= vertex_localized_turan, and at t = 2 vertex_localized_turan =
      floor(localized);
    - the tightness flag against the equality certificate
      (``check_tightness``).

    Each relation is stated here alone; every command reads it from here."""
    t, n, localized = rep.t, rep.n, rep.localized_zykov

    def broken(relation: str, values: str) -> InvariantError:
        return InvariantError(f"{relation} fails: {values}", t, relation)

    if not rep.true_count <= localized:
        raise broken("N <= localized",
                     f"N = {rep.true_count}, localized = {rational_text(localized)}")
    if not localized <= rep.zykov_classical:
        raise broken("localized <= zykov", f"localized = {rational_text(localized)}, "
                     f"zykov = {rational_text(rep.zykov_classical)}")
    if not rep.kirsch_nir_sum <= n**t:
        raise broken("kirsch_nir_sum <= n^t",
                     f"kirsch_nir_sum = {rational_text(rep.kirsch_nir_sum)}, n^t = {n**t}")
    if not 2 * rep.edge_localized_sum <= n * n:
        raise broken("edge_localized_sum <= n^2/2",
                     f"edge_localized_sum = {rational_text(rep.edge_localized_sum)}, n = {n}")
    if not rep.m <= rep.vertex_localized_turan:
        raise broken("m <= vertex_localized_turan",
                     f"m = {rep.m}, vertex_localized_turan = {rep.vertex_localized_turan}")
    if t == 2 and rep.vertex_localized_turan != floor(localized):
        raise broken("vertex_localized_turan = floor(localized)",
                     f"vertex_localized_turan = {rep.vertex_localized_turan}, "
                     f"localized = {rational_text(localized)}")
    check_tightness(t, rep.omega, rep.is_tight, rep.extremal_certificate)


def bound_reports(index: CliqueIndex, ts: Iterable[int]) -> list[BoundReport]:
    """``bound_report`` for each t of ``ts``, in order, from the graph's
    clique index.

    The index's one maximal-clique pass serves every t. The c(v) it keeps, the
    certificate, the edge sum and the floored vertex bound do not depend on t
    and are computed once. One walk counts the t-cliques of t = 2 and of
    every t of ``ts`` together; the histograms of largest-containing-clique
    orders it leaves in the index give the clique counts, the Kirsch-Nir sums
    and the edge sum. The index's budget caps the total work. The empty
    graph takes the same path: its walk is the root alone, and all is 0.

    Each report passes ``check_report`` before it is returned, so a report
    that breaks a relation of the bound family raises ``InvariantError``.
    """
    ts = list(ts)
    for t in ts:
        if t < 2:
            raise ValueError(f"clique order t must be >= 2, got {t}")
    g = index.graph
    index.histograms({2, *ts})
    certificate = is_regular_complete_multipartite(g)
    edge_sum = edge_localized_turan_sum(index)
    vertex_turan = vertex_localized_turan_bound(index)
    reports = []
    for t in ts:
        true_count = count_cliques(index, t)
        localized = localized_zykov_bound(index, t)
        rep = BoundReport(
            t=t,
            n=g.n,
            m=g.m,
            omega=index.omega,
            true_count=true_count,
            localized_zykov=localized,
            zykov_classical=zykov_bound(g.n, index.omega, t),
            turan=turan_bound(g.n, index.omega) if t == 2 else None,
            edge_localized_sum=edge_sum,
            vertex_localized_turan=vertex_turan,
            kirsch_nir_sum=kirsch_nir_sum(index, t),
            is_tight=Fraction(true_count) == localized,
            extremal_certificate=certificate,
        )
        check_report(rep)
        reports.append(rep)
    return reports


def bound_report(index: CliqueIndex, t: int) -> BoundReport:
    """Evaluate every bound at t exactly and certify the equality case.

    The report passes ``check_report``: its inequalities hold, and for
    t <= omega its tightness flag agrees with the
    regular-complete-multipartite certificate; for t > omega both sides of
    the localized bound can vanish, so tightness there is vacuous and not
    cross-checked. ``InvariantError`` otherwise.
    """
    return bound_reports(index, [t])[0]
