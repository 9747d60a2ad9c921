"""Spectra of finite carriers and the geometry living on them.

The points of the spectrum are the nu-prime congruences.  On a valid
carrier a congruence's tangible and ghost clusters partition the
carrier, so the nu-primes are exactly the l-congruences, and f is
non-ghost at a point exactly when f lies in its tangible cluster.  The
points are thus the whole l-congruence family, and their relative
flags (TanglyMinimal, MaximalL) read the points alone.  congr finds
the points from their candidate ghost clusters, never from the
congruence lattice.  Closed sets
are collected by V (primes ghostifying a subset, or containing a
congruence), basic opens by D, and the congruence of a point set by I.
Element-set V's are union-stable and form a genuine finite Zariski
topology with the D(f) as basis.  Congruence V's are finer: V and I
are a Galois pair whose closed sets form a closure system that is not
union-stable (two primes may share a ghost cluster yet differ by a
merge of tangibles, and only the congruence family separates them).
Dimension counts chains of primes whose tangible clusters strictly
shrink at every step.  A Spectrum computes its inclusion order, its
point index and its heights once, on first use.

Sections over a basic open D(f) are computed by localizing at the
monoid S(f) spanned by the prudent non-ghost-divisors h with
D(f) <= D(h) together with the powers of f when f is prudent; the
stalk at a point localizes at the point's tangible cluster.  The
check functions at the bottom set the points against what needs no
point (the radical closure and the ghostpotent elements) and return
small reports instead of raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Union

from .congr import (
    Congruence,
    DEFAULT_BOUND,
    FLAG_PRIME,
    FiniteNuSemiring,
    _basic_flags,
    _in_range,
    _relative_flags,
    _require_on,
    all_pairs,
    class_names,
    cong_intersect,
    ghostpotent_over,
    gprad,
    localize_finite,
    nu_primes,
    srad,
)
from .errors import PreconditionError


@dataclass(frozen=True)
class Spectrum:
    """All nu-prime congruences of a carrier, in canonical order.

    A point is known by its index into points, which index_of recovers
    from the congruence.  The list is complete (the prime search is
    proved to find every nu-prime), so membership tests against it are
    exact.  The order, the index and
    the heights are computed on first use and kept on the instance;
    they take no part in equality or hashing.
    """

    carrier: FiniteNuSemiring
    points: tuple[Congruence, ...]

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {p.reps: i for i, p in enumerate(self.points)}

    def index_of(self, p: Congruence) -> int:
        _require_on(self.carrier, p)
        if p.reps not in self._index:
            raise PreconditionError("congruence is not a point of this spectrum")
        return self._index[p.reps]

    @cached_property
    def below(self) -> tuple[frozenset[int], ...]:
        """For each point j, the points strictly inside it."""
        return tuple(
            frozenset(
                i for i, p in enumerate(self.points) if i != j and p.refines(q)
            )
            for j, q in enumerate(self.points)
        )

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """For each point j, the longest chain of points ending at j
        whose tangible clusters strictly shrink at every step.

        A point below another has fewer points below it, so taking the
        points by the size of below finishes every step before its top.
        """
        points, below = self.points, self.below
        heights = [0] * len(points)
        for j in sorted(range(len(points)), key=lambda j: len(below[j])):
            heights[j] = max(
                (heights[i] + 1 for i in below[j] if points[j].iT < points[i].iT),
                default=0,
            )
        return tuple(heights)


@dataclass(frozen=True)
class ZSet:
    """A set of points of a spectrum, by index.

    source is the element f for the sets built from D(f) (d_set,
    d_restricted and focal_zone) and None otherwise; sections over
    such a set are the sections over D(source).
    """

    spectrum: Spectrum
    members: frozenset[int]
    source: Optional[int] = None


def spec(R: FiniteNuSemiring, bound: int = DEFAULT_BOUND) -> Spectrum:
    """The nu-prime spectrum, found from the candidate ghost clusters
    without the congruence lattice; like every function here that
    starts from nu_primes, it checks the size bound before validity."""
    return Spectrum(R, nu_primes(R, bound))


def _own(S: Spectrum, Y: ZSet) -> ZSet:
    if Y.spectrum != S:
        raise PreconditionError("point set lives on another spectrum")
    return Y


def v_set(
    S: Spectrum, arg: Union[Congruence, Iterable[int]]
) -> ZSet:
    """Closed set of the primes containing a congruence or ghostifying
    a subset of elements."""
    if isinstance(arg, Congruence):
        _require_on(S.carrier, arg)
        members = frozenset(
            i for i, p in enumerate(S.points) if arg.refines(p)
        )
        return ZSet(S, members)
    elements = _in_range("carrier element", S.carrier.size, arg)
    members = frozenset(
        i for i, p in enumerate(S.points) if elements <= p.iG
    )
    return ZSet(S, members)


def d_set(S: Spectrum, f: int) -> ZSet:
    """Basic open set: the primes where f stays non-ghost."""
    return d_restricted(S, (), f)


def d_restricted(S: Spectrum, C: Iterable[int], f: int) -> ZSet:
    """Part of D(f) whose points keep all of C in the tangible cluster.

    f is non-ghost at a point exactly when it lies in the point's
    tangible cluster, the complement of its ghost cluster.
    """
    kept = _in_range("carrier element", S.carrier.size, [*C, f])
    members = frozenset(i for i, p in enumerate(S.points) if kept <= p.iT)
    return ZSet(S, members, source=f)


def _member_indices(S: Spectrum, Y: Union[ZSet, Iterable[int]]) -> frozenset[int]:
    if isinstance(Y, ZSet):
        return _own(S, Y).members
    return _in_range("spectrum point", len(S.points), Y)


def i_of(S: Spectrum, Y: Union[ZSet, Iterable[int]]) -> Congruence:
    """Intersection of the point congruences of Y.

    The empty set has no points to intersect and yields the improper
    all-pairs relation, recognizable through is_improper.
    """
    members = _member_indices(S, Y)
    if not members:
        return all_pairs(S.carrier)
    return cong_intersect(*(S.points[i] for i in sorted(members)))


def closure_of(S: Spectrum, Y: Union[ZSet, Iterable[int]]) -> ZSet:
    return v_set(S, i_of(S, Y))


def is_closed(S: Spectrum, Y: Union[ZSet, Iterable[int]]) -> bool:
    return closure_of(S, Y).members == _member_indices(S, Y)


def irreducible(
    S: Spectrum,
    Y: Union[ZSet, Iterable[int]],
    bound: int = DEFAULT_BOUND,
) -> bool:
    """Whether a closed set is irreducible.

    A nonempty closed set is irreducible exactly when its congruence
    I(Y) is a nu-prime, a flag that needs no enumeration, so bound is
    not consulted.  The empty set fails (its I is the improper
    relation).
    """
    members = _member_indices(S, Y)
    theta = i_of(S, members)
    if v_set(S, theta).members != members:
        raise PreconditionError("irreducibility is only defined for closed sets")
    if not members:
        return False
    return FLAG_PRIME in _basic_flags(S.carrier, theta)


def rcl(
    R: FiniteNuSemiring,
    elements: Iterable[int],
    bound: int = DEFAULT_BOUND,
) -> frozenset[int]:
    """Radical closure of an element set: the ghost cluster of its
    s-radical, or the empty set when no prime ghostifies it."""
    rad = srad(R, elements, bound)
    return frozenset() if rad is None else rad.iG


# -- dimension ----------------------------------------------------------


def krull_dim(S: Spectrum) -> int:
    """Longest chain of primes with strictly shrinking tangible
    clusters; -1 for an empty spectrum."""
    return max(S.heights, default=-1)


# -- sections and stalks ------------------------------------------------


def _mult_closure(R: FiniteNuSemiring, gens: Iterable[int]) -> frozenset[int]:
    out = set(gens)
    out.add(R.one)
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        for y in list(out):
            z = R.mul(x, y)
            if z not in out:
                out.add(z)
                frontier.append(z)
    return frozenset(out)


def s_of_f(S: Spectrum, f: int) -> frozenset[int]:
    """The denominator monoid of the basic open D(f).

    Spanned by the prudent non-ghost-divisors h whose D(h) covers
    D(f), together with all powers of f when f itself is prudent.
    """
    R = S.carrier
    d_f = d_set(S, f).members
    candidates = R.prudent - R.ghost_divisors()
    base = {h for h in candidates if d_f <= d_set(S, h).members}
    if f in R.prudent:
        base |= R.powers_of(f)
    return _mult_closure(R, base)


def focal_zone(S: Spectrum, f: int) -> ZSet:
    """Points of D(f) whose tangible cluster swallows S(f)."""
    return d_restricted(S, s_of_f(S, f), f)


def is_nu_strict(S: Spectrum, f: int) -> bool:
    """Whether the focal zone fills all of D(f)."""
    return focal_zone(S, f).members == d_set(S, f).members


def sections(
    S: Spectrum, dset: Union[ZSet, int]
) -> FiniteNuSemiring:
    """Carrier of sections over a basic open D(f): the localization
    of the carrier at S(f)."""
    if isinstance(dset, ZSet):
        if _own(S, dset).source is None:
            raise PreconditionError(
                "sections need an open set built from an element"
            )
        f = dset.source
    else:
        f = dset
    C = s_of_f(S, f)
    return localize_finite(S.carrier, sorted(C))[0]


def stalk(S: Spectrum, x: int) -> FiniteNuSemiring:
    """Localization of the carrier at the tangible cluster of point x."""
    _member_indices(S, (x,))
    return localize_finite(S.carrier, sorted(S.points[x].iT))[0]


# -- check reports ------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a brute-force verification.

    checked counts the cases examined; failures lists a short witness
    per failing case.
    """

    name: str
    passed: bool
    checked: int
    failures: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "passed": self.passed,
                "checked": self.checked,
                "failures": list(self.failures),
            },
            sort_keys=True,
        )


def nullstellensatz_check(
    R: FiniteNuSemiring,
    theta: Congruence,
    bound: int = DEFAULT_BOUND,
) -> CheckReport:
    """Element f has a ghost residue at every point over theta exactly
    when some power of f lies in the ghost cluster of theta.

    The right side reads theta alone, not the points.  Its direction
    to the left holds by primality: a point over theta ghostifies f^k,
    so it ghostifies f.  The direction from the left is the statement
    the check tests.  With no point over theta the left side holds for
    every element.
    """
    _require_on(R, theta)
    over = [p for p in nu_primes(R, bound) if theta.refines(p)]
    ghostpotent = ghostpotent_over(R, theta.iG)
    failures = []
    for f in range(R.size):
        lhs = all(f in p.iG for p in over)
        rhs = f in ghostpotent
        if lhs != rhs:
            failures.append(
                f"{R.names[f]}: ghost at all points is {lhs}, "
                f"in radical ghost cluster is {rhs}"
            )
    return CheckReport(
        "nullstellensatz", not failures, R.size, tuple(failures)
    )


def krull_check(R: FiniteNuSemiring, bound: int = DEFAULT_BOUND) -> CheckReport:
    """The radical of the diagonal, computed by closure, against the
    points: it is their intersection, there are no points exactly when
    it is None, and its ghost cluster and the points' common ghost
    cluster both collect exactly the ghostpotents."""
    points = nu_primes(R, bound)
    rad = srad(R, (), bound)
    ghostpotent = gprad(R)
    failures = []
    if points:
        if rad != cong_intersect(*points):
            failures.append("srad of empty set differs from prime intersection")
        if frozenset.intersection(*(p.iG for p in points)) != ghostpotent:
            failures.append("prime ghost clusters meet off the ghostpotents")
    if (rad is None) != (not points):
        failures.append(
            "primes yet an empty radical" if points
            else "no primes yet a nonempty radical"
        )
    if rad is not None and rad.iG != ghostpotent:
        failures.append("radical ghost cluster misses the ghostpotents")
    return CheckReport("krull", not failures, 4, tuple(failures))


# -- serialization ------------------------------------------------------


def _hasse_edges(S: Spectrum) -> list[tuple[int, int]]:
    """The pairs (i, j) with i below j and no point between them."""
    return [
        (i, j)
        for j, below in enumerate(S.below)
        for i in below.difference(*(S.below[k] for k in below))
    ]


def spectrum_to_json(S: Spectrum, bound: int = DEFAULT_BOUND) -> str:
    """Stable dump: per point its classes, clusters, and classifier
    flags, plus the Hasse diagram of the inclusion order.

    The nu-primes are exactly the l-congruences, so the points are the
    whole l-congruence family and every point's TanglyMinimal and
    MaximalL read the points alone.  No lattice is built, and bound is
    not consulted.
    """
    R = S.carrier
    points = []
    for p in S.points:
        flags = _basic_flags(R, p) | _relative_flags(p, S.points)
        points.append(
            {
                "classes": class_names(p),
                "iT": sorted(R.names[i] for i in p.iT),
                "iG": sorted(R.names[i] for i in p.iG),
                "flags": sorted(flags),
            }
        )
    return json.dumps(
        {
            "points": points,
            "hasse": sorted(_hasse_edges(S)),
        },
        sort_keys=True,
    )
