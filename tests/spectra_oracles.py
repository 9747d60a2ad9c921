"""The spectrum's former order helpers, kept as test oracles.

Before a Spectrum kept its own order, each caller rebuilt it from the
point list: _strictly_below compared every pair of points, the chain
steps and the Hasse diagram filtered that table, and height rebuilt
the whole chain table for one point, found by a linear search.  They
are kept verbatim so that Spectrum.below, Spectrum.heights, krull_dim
and the Hasse edges can be checked against them.
"""

from typing import Optional, Sequence

from supertrop.congr import DEFAULT_BOUND, Congruence, FiniteNuSemiring, nu_primes
from supertrop.errors import PreconditionError


def _strictly_below(points: Sequence[Congruence]) -> list[list[int]]:
    """For each point j, the points i strictly included in it, ascending."""
    return [
        [
            i
            for i, p in enumerate(points)
            if p.reps != q.reps and p.refines(q)
        ]
        for q in points
    ]


def _chain_edges(points: Sequence[Congruence]) -> list[list[int]]:
    """Admissible chain steps: strict inclusion with strictly
    shrinking tangible cluster."""
    return [
        [i for i in below if points[j].iT < points[i].iT]
        for j, below in enumerate(_strictly_below(points))
    ]


def _longest_to(preds: list[list[int]]) -> list[int]:
    n = len(preds)
    memo: list[Optional[int]] = [None] * n

    def walk(j: int) -> int:
        if memo[j] is None:
            memo[j] = max(
                (walk(i) + 1 for i in preds[j]), default=0
            )
        return memo[j]

    return [walk(j) for j in range(n)]


def height(
    R: FiniteNuSemiring, p: Congruence, bound: int = DEFAULT_BOUND
) -> int:
    """Longest admissible chain of primes ending at p."""
    points = nu_primes(R, bound)
    for j, q in enumerate(points):
        if q.reps == p.reps:
            return _longest_to(_chain_edges(points))[j]
    raise PreconditionError("congruence is not a nu-prime of this carrier")


def _hasse_edges(points: Sequence[Congruence]) -> list[tuple[int, int]]:
    below = _strictly_below(points)
    edges = []
    for j in range(len(points)):
        for i in below[j]:
            if not any(i in below[k] for k in below[j]):
                edges.append((i, j))
    return edges
