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

Before a Spectrum grouped its points by tangible cluster, every
question about clusters scanned every point: heights walked the
inclusion order, TanglyMinimal compared theta with each point, and V
of elements, D and S(f) tested each point's clusters.  Those scans
follow, kept verbatim apart from taking the spectrum or its points as
arguments, so that the cluster table can be checked against them.
"""

from typing import Iterable, Optional, Sequence

from supertrop.congr import (
    DEFAULT_BOUND,
    FLAG_PRIME,
    Congruence,
    FiniteNuSemiring,
    _in_range,
    _require_within,
)
from supertrop.errors import PreconditionError
from supertrop.spectra import Spectrum, _mult_closure

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


def heights_by_order(S: Spectrum) -> tuple[int, ...]:
    """For each point j, the longest chain of points ending at j
    whose tangible clusters strictly shrink at every step, read from
    the inclusion order."""
    points, below = S.points, S.below
    heights = [0] * len(points)
    for j in sorted(range(len(points)), key=lambda j: len(below[j])):
        heights[j] = max(
            (heights[i] + 1 for i in below[j] if points[j].iT < points[i].iT),
            default=0,
        )
    return tuple(heights)


def is_tangly_minimal(points: Sequence[Congruence], theta: Congruence) -> bool:
    """Whether no point has a smaller tangible cluster than theta."""
    return not any(p.iT < theta.iT for p in points)


def v_of_elements(S: Spectrum, arg: Iterable[int]) -> frozenset[int]:
    """The points ghostifying every given element."""
    elements = _in_range("carrier element", S.carrier.size, arg)
    return frozenset(
        i for i, p in enumerate(S.points) if elements <= p.iG
    )


def d_restricted(S: Spectrum, C: Iterable[int], f: int) -> frozenset[int]:
    """The points keeping all of C and f in the tangible cluster."""
    kept = _in_range("carrier element", S.carrier.size, [*C, f])
    return frozenset(i for i, p in enumerate(S.points) if kept <= p.iT)


def s_of_f(S: Spectrum, f: int) -> frozenset[int]:
    """The denominator monoid of D(f), from the points of D(f)."""
    R = S.carrier
    over_f = [S.points[i].iT for i in d_restricted(S, (), f)]
    base = (R.prudent - R.ghost_divisors()).intersection(*over_f)
    if f in R.prudent:
        base |= R.powers_of(f)
    return _mult_closure(R, base)
