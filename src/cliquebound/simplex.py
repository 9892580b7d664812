"""Exact simplex potential, discrete transfer gradient, and support descent.

The potential splits as phi = A - B: A is a linear form weighted by the
per-vertex clique-density terms, B is the clique polynomial of order t
evaluated at the point. Mass transfer between non-adjacent vertices changes
phi linearly, which drives a support-shrinking descent that terminates on a
clique support.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import clique_density_term, complete_multipartite_parts
from .cliques import CliqueProfile, clique_weight_sum, vertex_clique_numbers
from .graph import Graph, PartSpec, bits


class SimplexError(ValueError):
    """Invalid simplex point or transfer."""


@dataclass(frozen=True)
class SimplexPoint:
    """Exact-rational point on the standard simplex, with explicit support."""

    x: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(Fraction(v) for v in self.x))
        if any(v < 0 for v in self.x):
            raise SimplexError("simplex coordinates must be nonnegative")
        if self.x and sum(self.x) != 1:
            raise SimplexError(f"coordinates must sum to 1, got {sum(self.x)}")

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(v for v, val in enumerate(self.x) if val > 0)

    @property
    def support_mask(self) -> int:
        mask = 0
        for v, val in enumerate(self.x):
            if val > 0:
                mask |= 1 << v
        return mask

    @classmethod
    def uniform(cls, n: int) -> "SimplexPoint":
        if n < 1:
            raise SimplexError("uniform point needs n >= 1")
        return cls((Fraction(1, n),) * n)

    @classmethod
    def concentrated(cls, n: int, v: int) -> "SimplexPoint":
        if not 0 <= v < n:
            raise SimplexError(f"vertex {v} out of range for n={n}")
        return cls(tuple(Fraction(1) if u == v else Fraction(0) for u in range(n)))

    @classmethod
    def from_weights(cls, weights) -> "SimplexPoint":
        weights = [Fraction(w) for w in weights]
        total = sum(weights)
        if total <= 0:
            raise SimplexError("weights must have positive sum")
        return cls(tuple(w / total for w in weights))

    @classmethod
    def random_point(cls, n: int, rng: random.Random) -> "SimplexPoint":
        """Random interior point: positive integer weights, normalized."""
        return cls.from_weights([rng.randrange(1, 1000) for _ in range(n)])


@dataclass(frozen=True)
class PhiEvaluation:
    a: Fraction
    b: Fraction
    phi: Fraction


def eval_phi(g: Graph, t: int, profile: CliqueProfile, x: SimplexPoint) -> PhiEvaluation:
    """Exact (A, B, phi) at a point; B ranges over t-cliques in the support."""
    if t < 2:
        raise ValueError(f"clique order t must be >= 2, got {t}")
    if x.n != g.n:
        raise SimplexError(f"point dimension {x.n} does not match graph order {g.n}")
    a = sum(
        (x.x[v] * clique_density_term(profile.c[v], t) for v in range(g.n)),
        Fraction(0),
    )
    b = clique_weight_sum(g, x.support_mask, t, x.x)
    return PhiEvaluation(a, b, a - b)


def delta_ij(g: Graph, t: int, profile: CliqueProfile, x: SimplexPoint,
             i: int, j: int) -> Fraction:
    """Exact rate of change of phi per unit mass moved from j to i.

    Antisymmetric in (i, j). Equals the phi difference of a transfer only
    when i and j are non-adjacent (no t-clique contains both).
    """
    if i == j:
        raise ValueError("delta requires two distinct vertices")
    a_part = clique_density_term(profile.c[i], t) - clique_density_term(profile.c[j], t)
    support = x.support_mask
    b_i = clique_weight_sum(g, g.adjacency[i] & support, t - 1, x.x)
    b_j = clique_weight_sum(g, g.adjacency[j] & support, t - 1, x.x)
    return a_part - (b_i - b_j)


def transfer(x: SimplexPoint, i: int, j: int, epsilon: Fraction) -> SimplexPoint:
    """Move mass epsilon from coordinate j to coordinate i."""
    epsilon = Fraction(epsilon)
    if i == j:
        raise SimplexError("transfer requires two distinct coordinates")
    if not 0 <= epsilon <= x.x[j]:
        raise SimplexError(
            f"transfer amount {epsilon} outside [0, x_j] = [0, {x.x[j]}]"
        )
    coords = list(x.x)
    coords[i] += epsilon
    coords[j] -= epsilon
    return SimplexPoint(tuple(coords))


@dataclass(frozen=True)
class TransferStep:
    i: int  # receiving vertex
    j: int  # donating vertex
    epsilon: Fraction
    delta_ij: Fraction
    phi_after: Fraction


@dataclass(frozen=True)
class DescentTrace:
    start: SimplexPoint
    steps: tuple[TransferStep, ...]
    end: SimplexPoint
    end_support_is_clique: bool
    omega_end: int

    def to_lines(self):
        """One structured text record per step, for the CLI trace output."""
        out = []
        for k, s in enumerate(self.steps):
            out.append(
                f"step={k} i={s.i} j={s.j} eps={_rat(s.epsilon)} "
                f"delta={_rat(s.delta_ij)} phi={_rat(s.phi_after)}"
            )
        return out


def _rat(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _first_nonadjacent_pair(g: Graph, support_mask: int):
    verts = list(bits(support_mask))
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            if not g.has_edge(verts[a], verts[b]):
                return verts[a], verts[b]
    return None


def descend_to_clique_support(g: Graph, t: int, profile: CliqueProfile,
                              x0: SimplexPoint) -> DescentTrace:
    """Shrink the support by full transfers until it induces a clique.

    Each round scans support pairs lexicographically, takes the first
    non-adjacent pair (i, j), and moves the donor's entire mass in the
    orientation whose delta is <= 0, so phi never increases and the support
    loses exactly one vertex per step. Ties (delta = 0) send mass to the
    lower-indexed vertex.
    """
    if t < 2:
        raise ValueError(f"clique order t must be >= 2, got {t}")
    x = x0
    phi = eval_phi(g, t, profile, x).phi
    steps = []
    while True:
        pair = _first_nonadjacent_pair(g, x.support_mask)
        if pair is None:
            break
        i, j = pair
        d = delta_ij(g, t, profile, x, i, j)
        if d <= 0:
            recv, donor, rate = i, j, d
        else:
            recv, donor, rate = j, i, -d
        eps = x.x[donor]
        x = transfer(x, recv, donor, eps)
        phi = phi + eps * rate
        steps.append(TransferStep(i=recv, j=donor, epsilon=eps,
                                  delta_ij=rate, phi_after=phi))
    support = x.support_mask
    return DescentTrace(
        start=x0,
        steps=tuple(steps),
        end=x,
        end_support_is_clique=g.induces_clique(support),
        omega_end=support.bit_count(),
    )


class PhiNegativityError(AssertionError):
    """A sampled phi value was negative, which the bound theorem forbids."""


@dataclass(frozen=True)
class NonnegativityReport:
    min_phi: Fraction
    argmin: SimplexPoint
    phi_uniform: Fraction
    points_checked: int


def verify_nonnegativity(g: Graph, t: int, profile: CliqueProfile,
                         samples: int, seed: int) -> NonnegativityReport:
    """Minimum of phi over the uniform point, all vertex-concentrated points,
    and ``samples`` seeded random interior points. Raises if any value is
    negative (that would falsify the inequality, i.e. expose a bug)."""
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if g.n == 0:
        raise ValueError("nonnegativity check needs n >= 1")
    rng = random.Random(seed)
    points = [SimplexPoint.uniform(g.n)]
    points.extend(SimplexPoint.concentrated(g.n, v) for v in range(g.n))
    points.extend(SimplexPoint.random_point(g.n, rng) for _ in range(samples))
    phi_uniform = None
    best = None
    argmin = None
    for p in points:
        phi = eval_phi(g, t, profile, p).phi
        if phi_uniform is None:
            phi_uniform = phi
        if best is None or phi < best:
            best, argmin = phi, p
    if best < 0:
        raise PhiNegativityError(
            f"phi({argmin.x}) = {best} < 0 on a graph where it must be >= 0"
        )
    return NonnegativityReport(
        min_phi=best, argmin=argmin, phi_uniform=phi_uniform,
        points_checked=len(points),
    )


@dataclass(frozen=True)
class MinimizerStructureReport:
    """Outcome of the complete-multipartite / equal-part-mass predicates
    checked on the uniform point when it is a certified minimizer."""

    applicable: bool
    phi_uniform: Fraction
    is_complete_multipartite: bool = False
    parts: PartSpec | None = None
    part_masses_equal: bool = False

    @property
    def passed(self) -> bool:
        return self.applicable and self.is_complete_multipartite and self.part_masses_equal


def check_minimizer_structure(g: Graph, t: int,
                              profile: CliqueProfile | None = None) -> MinimizerStructureReport:
    """Check minimizer-support structure when the uniform point is certified.

    Certification: phi(uniform) = 0 makes the uniform point a global
    minimizer (phi is nonnegative everywhere), at which point the support
    must induce a complete multipartite graph whose parts each carry total
    mass 1/omega. Other endpoints are reported as not certified.
    """
    if profile is None:
        profile = vertex_clique_numbers(g)
    if g.n == 0:
        return MinimizerStructureReport(applicable=False, phi_uniform=Fraction(0))
    uniform = SimplexPoint.uniform(g.n)
    phi_uniform = eval_phi(g, t, profile, uniform).phi
    if phi_uniform != 0:
        return MinimizerStructureReport(applicable=False, phi_uniform=phi_uniform)
    parts = complete_multipartite_parts(g)
    if parts is None:
        return MinimizerStructureReport(
            applicable=True, phi_uniform=phi_uniform, is_complete_multipartite=False
        )
    omega = len(parts.sizes)
    masses_ok = all(Fraction(size, g.n) == Fraction(1, omega) for size in parts.sizes)
    return MinimizerStructureReport(
        applicable=True,
        phi_uniform=phi_uniform,
        is_complete_multipartite=True,
        parts=parts,
        part_masses_equal=masses_ok,
    )
