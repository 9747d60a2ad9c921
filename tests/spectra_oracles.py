"""The spectrum's former order helpers, kept as test oracles.

Before a Spectrum kept its own order, each caller rebuilt it from the
point list: _strictly_below compared every pair of points, the chain
steps and the Hasse diagram filtered that table, height rebuilt the
whole chain table for one point, found by a linear search, and
_maximal scanned every pair of points once more.  They are kept
verbatim, except that _hasse_edges takes the table rather than
rebuilding it, so that Spectrum.below, Spectrum.maximal,
Spectrum.heights, krull_dim and the Hasse edges can be checked
against them.  height takes its points from the lattice oracle
(congr_oracles.flag_family), not from the library's prime search.
"""

from typing import Optional, Sequence

from supertrop.congr import (
    DEFAULT_BOUND,
    FLAG_PRIME,
    Congruence,
    FiniteNuSemiring,
    _require_within,
)
from supertrop.errors import PreconditionError

from congr_oracles import flag_family


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


def _maximal(points: Sequence[Congruence]) -> frozenset[int]:
    """The points that lie strictly inside no point."""
    return frozenset(
        j for j, p in enumerate(points)
        if not any(i != j and p.refines(q) for i, q in enumerate(points))
    )


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
    _require_within(R, bound)
    points = flag_family(R).get(FLAG_PRIME, ())
    for j, q in enumerate(points):
        if q.reps == p.reps:
            return _longest_to(_chain_edges(points))[j]
    raise PreconditionError("congruence is not a nu-prime of this carrier")


def _hasse_edges(below: list[list[int]]) -> list[tuple[int, int]]:
    """The Hasse diagram of a table from _strictly_below."""
    edges = []
    for j in range(len(below)):
        for i in below[j]:
            if not any(i in below[k] for k in below[j]):
                edges.append((i, j))
    return edges
