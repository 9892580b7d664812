"""Exact simplex potential, discrete transfer gradient, and support descent.

The potential splits as phi = A - B: A is a linear form weighted by the
per-vertex clique-density terms, B is the clique polynomial of order t
evaluated at the point. Mass transfer between non-adjacent vertices changes
phi linearly, which drives a support-shrinking descent that terminates on a
clique support.

Every function that does clique work takes the graph's ``CliqueIndex``: it
reads the graph and c(v), kept once as ``index.c``, from the index, and runs
its clique sums through ``CliqueIndex.weight_sum``, which charges them to
the index's own node count, so one budget caps all the work done on one
graph. The nonnegativity check's uniform and random points all have full
support, so it hands them to ``CliqueIndex.weight_sums`` as one lazy stream,
which batches them into walks.

A point is held as integer numerators w over one common denominator D, so
the clique polynomial runs on integers: B is one integer clique sum b over
D^t. Each call reads the density terms C(c(v), t)/c(v)^t once, as integers
a[v] over their least common denominator L, so A is the integer a . w over
L D, and phi is the one integer D^(t-1) (a . w) - L b over L D^t, written
once, in ``_phi``, for ``eval_phi`` and the sampled points; the descent
starts from ``eval_phi``'s value. The descent and the sampled points compare
and add these numerators; a Fraction is built only for a value a function
returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, repeat
from math import gcd, lcm
from operator import mul

from .bounds import clique_density_term
from .cliques import CliqueIndex
from .graph import rational_text


class SimplexError(ValueError):
    """Invalid simplex point or transfer."""


def _common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of rational ``values`` over their least common
    denominator, and that denominator."""
    fracs = [Fraction(v) for v in values]
    den = reduce(lcm, [f.denominator for f in fracs], 1)
    return [f.numerator * (den // f.denominator) for f in fracs], den


@dataclass(frozen=True, init=False)
class SimplexPoint:
    """Exact-rational point on the standard simplex, x_v = nums[v] / den.

    The representation is canonical, gcd(den, *nums) == 1, so points with
    equal coordinates compare and hash equal.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, x):
        """The point with rational coordinates ``x``."""
        self._set(*_common_denominator(x))

    @classmethod
    def _from_ints(cls, nums, den: int) -> "SimplexPoint":
        point = cls.__new__(cls)
        point._set(nums, den)
        return point

    def _set(self, nums, den: int) -> None:
        if any(a < 0 for a in nums):
            raise SimplexError("simplex coordinates must be nonnegative")
        total = sum(nums)
        if nums and total != den:
            raise SimplexError(f"coordinates must sum to 1, got {Fraction(total, den)}")
        # No tuple is built from a generator or a star-argument list here:
        # CPython allocates those outside its tuple free list but frees them
        # into it, so over many calls the free list fills with n-tuples.
        k = reduce(gcd, nums, den)
        object.__setattr__(self, "nums", tuple([a // k for a in nums]))
        object.__setattr__(self, "den", den // k)

    @cached_property
    def x(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(a, self.den) for a in self.nums])

    @property
    def n(self) -> int:
        return len(self.nums)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(v for v, a in enumerate(self.nums) if a)

    @property
    def support_mask(self) -> int:
        mask = 0
        for v, a in enumerate(self.nums):
            if a:
                mask |= 1 << v
        return mask

    @classmethod
    def uniform(cls, n: int) -> "SimplexPoint":
        if n < 1:
            raise SimplexError("uniform point needs n >= 1")
        return cls._from_ints([1] * n, n)

    @classmethod
    def concentrated(cls, n: int, v: int) -> "SimplexPoint":
        if not 0 <= v < n:
            raise SimplexError(f"vertex {v} out of range for n={n}")
        return cls._from_ints([int(u == v) for u in range(n)], 1)

    @classmethod
    def from_weights(cls, weights) -> "SimplexPoint":
        """The point proportional to nonnegative rational ``weights``."""
        nums, _ = _common_denominator(weights)
        total = sum(nums)
        if total <= 0:
            raise SimplexError("weights must have positive sum")
        return cls._from_ints(nums, total)

    @classmethod
    def random_point(cls, n: int, rng: random.Random) -> "SimplexPoint":
        """Random interior point: positive integer weights, normalized."""
        if n < 1:
            raise SimplexError("random point needs n >= 1")
        weights = _random_weights(n, rng)
        return cls._from_ints(weights, sum(weights))


def _random_weights(n: int, rng: random.Random) -> list[int]:
    """n weights from 1..999: the first n 10-bit draws below 999, each plus 1.

    This is exactly the stream of ``rng.randrange(1, 1000)`` drawn n times.
    """
    weights = [r + 1 for r in map(rng.getrandbits, repeat(10, n)) if r < 999]
    while len(weights) < n:
        r = rng.getrandbits(10)
        if r < 999:
            weights.append(r + 1)
    return weights


@dataclass(frozen=True)
class PhiEvaluation:
    a: Fraction
    b: Fraction
    phi: Fraction


def _check(index: CliqueIndex, t: int, n: int) -> tuple[list[int], int]:
    """The density terms C(c(v), t)/c(v)^t of ``index.c`` as integers a[v]
    over their least common denominator L, and L, once t and the point
    dimension n fit the index's graph."""
    if t < 2:
        raise ValueError(f"clique order t must be >= 2, got {t}")
    if n != index.graph.n:
        raise SimplexError(f"point dimension {n} does not match graph order {index.graph.n}")
    orders = set(index.c)
    nums, lcd = _common_denominator([clique_density_term(c, t) for c in orders])
    a = dict(zip(orders, nums))
    return [a[c] for c in index.c], lcd


def _check_pair(n: int, i: int, j: int) -> None:
    """Two distinct vertices of 0..n-1, so that no negative index wraps round."""
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise SimplexError(f"need two distinct vertices of 0..{n - 1}, got {i} and {j}")


def _phi(t: int, a: list[int], lcd: int, nums, den: int, b: int) -> tuple[int, int]:
    """phi at the point with numerators w = ``nums`` over D = ``den``, whose
    t-clique sum is b, as the integer D^(t-1) (a . w) - L b over L D^t:
    A = (a . w) / (L D) and B = b / D^t."""
    scale = den ** (t - 1)
    return scale * sum(map(mul, a, nums)) - lcd * b, lcd * scale * den


def eval_phi(index: CliqueIndex, t: int, x: SimplexPoint) -> PhiEvaluation:
    """Exact (A, B, phi) at a point; B ranges over t-cliques in the support."""
    a, lcd = _check(index, t, x.n)
    b = index.weight_sum(x.support_mask, t, x.nums)
    num, den = _phi(t, a, lcd, x.nums, x.den, b)
    # A = phi + B, and B = L b over L D^t.
    return PhiEvaluation(Fraction(num + lcd * b, den), Fraction(b, den // lcd),
                         Fraction(num, den))


def delta_ij(index: CliqueIndex, t: int, x: SimplexPoint, i: int, j: int) -> Fraction:
    """Exact rate of change of phi per unit mass moved from j to i.

    Antisymmetric in (i, j). Equals the phi difference of a transfer only
    when i and j are non-adjacent (no t-clique contains both).
    """
    a, lcd = _check(index, t, x.n)
    _check_pair(x.n, i, j)
    adj, support = index.graph.adjacency, x.support_mask
    s_i = index.weight_sum(adj[i] & support, t - 1, x.nums)
    s_j = index.weight_sum(adj[j] & support, t - 1, x.nums)
    scale = x.den ** (t - 1)
    return Fraction((a[i] - a[j]) * scale - lcd * (s_i - s_j), lcd * scale)


def transfer(x: SimplexPoint, i: int, j: int, epsilon: Fraction) -> SimplexPoint:
    """Move mass epsilon from coordinate j to coordinate i."""
    epsilon = Fraction(epsilon)
    _check_pair(x.n, i, j)
    p, q = epsilon.numerator, epsilon.denominator
    if not 0 <= p * x.den <= x.nums[j] * q:
        raise SimplexError(
            f"transfer amount {epsilon} outside [0, x_j] = [0, {x.x[j]}]"
        )
    den = lcm(x.den, q)
    nums = [a * (den // x.den) for a in x.nums]
    moved = p * (den // q)
    nums[i] += moved
    nums[j] -= moved
    return SimplexPoint._from_ints(nums, den)


@dataclass(frozen=True)
class TransferStep:
    i: int  # receiving vertex
    j: int  # donating vertex
    epsilon: Fraction
    delta_ij: Fraction
    phi_after: Fraction


@dataclass(frozen=True)
class DescentTrace:
    steps: tuple[TransferStep, ...]
    end: SimplexPoint
    end_support_is_clique: bool
    omega_end: int

    def to_lines(self):
        """One structured text record per step, for the CLI trace output."""
        out = []
        for k, s in enumerate(self.steps):
            out.append(
                f"step={k} i={s.i} j={s.j} eps={rational_text(s.epsilon)} "
                f"delta={rational_text(s.delta_ij)} phi={rational_text(s.phi_after)}"
            )
        return out


def _first_nonadjacent_pair(adj, support: int, a: int):
    """First non-adjacent pair (u, w), u < w, of ``support`` with u >= a in
    lexicographic order, or None."""
    rest = support >> a << a
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        rest ^= low
        far = rest & ~adj[u]
        if far:
            return u, (far & -far).bit_length() - 1
    return None


def descend_to_clique_support(index: CliqueIndex, t: int, x0: SimplexPoint,
                              phi0: Fraction | None = None) -> DescentTrace:
    """Shrink the support by full transfers until it induces a clique.

    Each round takes the lexicographically first non-adjacent support pair
    (i, j) and moves the donor's entire mass in the orientation whose delta
    is <= 0, so phi never increases and the support loses exactly one vertex
    per step. Ties (delta = 0) send mass to the lower-indexed vertex.

    A transfer only removes pairs, so every support pair before (i, j) stays
    adjacent, and (i, j) itself loses a vertex: the scan resumes at row i.
    The (t-1)-clique sum s_v over N(v) changes only for v in N(i) | N(j), so
    only those are recomputed, and only when a later pair needs them.

    The point keeps its denominator D throughout, so the delta of a step
    is one integer over L D^(t-1) and phi one integer over L D^t; each step
    builds only the three Fractions it prints. The start value is ``phi0``,
    phi(x0), which a caller that already holds it passes
    (``verify_nonnegativity``'s ``phi_uniform``), else ``eval_phi`` at x0;
    ValueError unless it is an integer over L D^t.
    """
    a, lcd = _check(index, t, x0.n)
    if phi0 is None:
        phi0 = eval_phi(index, t, x0).phi
    adj = index.graph.adjacency
    nums, den = list(x0.nums), x0.den
    scale = den ** (t - 1)
    support = x0.support_mask
    phi_den, delta_den = lcd * scale * den, lcd * scale
    phi, rest = divmod(phi0.numerator * phi_den, phi0.denominator)
    if rest:
        raise ValueError(f"phi0 = {rational_text(phi0)} is no integer over "
                         f"L D^t = {phi_den}")
    s = [0] * x0.n
    fresh = 0  # vertices whose s_v is current
    steps = []
    pair = _first_nonadjacent_pair(adj, support, 0)
    while pair is not None:
        i, j = pair
        for v in pair:
            if not fresh >> v & 1:
                s[v] = index.weight_sum(adj[v] & support, t - 1, nums)
                fresh |= 1 << v
        d = (a[i] - a[j]) * scale - lcd * (s[i] - s[j])
        if d <= 0:
            recv, donor, rate = i, j, d
        else:
            recv, donor, rate = j, i, -d
        moved = nums[donor]
        nums[recv] += moved
        nums[donor] = 0
        support ^= 1 << donor
        fresh &= ~(adj[recv] | adj[donor])
        phi += moved * rate
        steps.append(TransferStep(i=recv, j=donor, epsilon=Fraction(moved, den),
                                  delta_ij=Fraction(rate, delta_den),
                                  phi_after=Fraction(phi, phi_den)))
        pair = _first_nonadjacent_pair(adj, support, i)
    return DescentTrace(
        steps=tuple(steps),
        end=SimplexPoint._from_ints(nums, den),
        end_support_is_clique=index.graph.induces_clique(support),
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


def verify_nonnegativity(index: CliqueIndex, t: int, samples: int,
                         seed: int) -> NonnegativityReport:
    """Minimum of phi over the uniform point, all vertex-concentrated points,
    and ``samples`` seeded random interior points, the first minimum in that
    order. Raises if any value is negative (that would falsify the
    inequality, i.e. expose a bug).

    The vertex points are read in closed form, phi(e_v) = C(c(v), t)/c(v)^t,
    with no clique sum. The other points are one lazy stream, in the order
    above, which ``CliqueIndex.weight_sums`` reads in batches, B at every
    point of a batch from one walk. Each phi is kept as its integer
    numerator over L D^t, D the sum of the point's weights, and the running
    minimum is compared by cross-multiplying, so Fractions are built only
    for phi(uniform), the minimum and its point."""
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    n = index.graph.n
    if n == 0:
        raise ValueError("nonnegativity check needs n >= 1")
    a, lcd = _check(index, t, n)
    rng = random.Random(seed)
    points = chain([[1] * n], (_random_weights(n, rng) for _ in range(samples)))
    sums = index.weight_sums(index.graph.full_mask, t, points)
    best_w, b = next(sums)  # the uniform point
    best, best_den = _phi(t, a, lcd, best_w, n, b)
    phi_uniform = Fraction(best, best_den)
    # phi(e_v) = a[v] / L: one vertex holds no t-clique for t >= 2, so B(e_v) = 0.
    v = min(range(n), key=a.__getitem__)
    if a[v] * best_den < best * lcd:
        best, best_den, best_w = a[v], lcd, [int(u == v) for u in range(n)]
    for weights, b in sums:
        num, den = _phi(t, a, lcd, weights, sum(weights), b)
        if num * best_den < best * den:
            best, best_den, best_w = num, den, weights
    argmin = SimplexPoint._from_ints(best_w, sum(best_w))
    min_phi = Fraction(best, best_den)
    if min_phi < 0:
        raise PhiNegativityError(
            f"phi({', '.join(map(rational_text, argmin.x))}) = {rational_text(min_phi)} "
            "< 0 on a graph where it must be >= 0"
        )
    return NonnegativityReport(
        min_phi=min_phi, argmin=argmin, phi_uniform=phi_uniform,
        points_checked=1 + n + samples,
    )
