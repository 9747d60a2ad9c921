"""Spectra of finite carriers and the geometry living on them.

The points of the spectrum are the nu-prime congruences.  Closed sets
are collected by V (primes ghostifying a subset, or containing a
congruence), basic opens by D, and the congruence of a point set by I.
Element-set V's are union-stable and form a genuine finite Zariski
topology with the D(f) as basis.  Congruence V's are finer: V and I
are a Galois pair whose closed sets form a closure system that is not
union-stable (two primes may share a ghost cluster yet differ by a
merge of tangibles, and only the congruence family separates them).
Dimension counts chains of primes whose tangible clusters strictly
shrink at every step.

Sections over a basic open D(f) are computed by localizing at the
monoid S(f) spanned by the prudent non-ghost-divisors h with
D(f) <= D(h) together with the powers of f when f is prudent; the
stalk at a point localizes at the point's tangible cluster.  The
check functions at the bottom brute-force the radical-intersection
statements and return small reports instead of raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .congr import (
    Congruence,
    DEFAULT_BOUND,
    FLAG_PRIME,
    FiniteNuSemiring,
    _basic_flags,
    all_pairs,
    class_names,
    classify,
    cong_intersect,
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
    from the congruence.  The list is enumeration-complete, so
    membership tests against it are exact.
    """

    carrier: FiniteNuSemiring
    points: tuple[Congruence, ...]

    def index_of(self, p: Congruence) -> int:
        for i, q in enumerate(self.points):
            if q.reps == p.reps:
                return i
        raise PreconditionError("congruence is not a point of this spectrum")


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
    """The nu-prime spectrum; like every function here that starts from
    nu_primes, it checks the size bound before validity."""
    return Spectrum(R, nu_primes(R, bound))


def v_set(
    S: Spectrum, arg: Union[Congruence, Iterable[int]]
) -> ZSet:
    """Closed set of the primes containing a congruence or ghostifying
    a subset of elements."""
    if isinstance(arg, Congruence):
        members = frozenset(
            i for i, p in enumerate(S.points) if arg.refines(p)
        )
        return ZSet(S, members)
    elements = frozenset(arg)
    members = frozenset(
        i for i, p in enumerate(S.points) if elements <= p.iG
    )
    return ZSet(S, members)


def d_set(S: Spectrum, f: int) -> ZSet:
    """Basic open set: the primes where f stays non-ghost."""
    return d_restricted(S, (), f)


def d_restricted(S: Spectrum, C: Iterable[int], f: int) -> ZSet:
    """Part of D(f) whose points keep all of C in the tangible cluster."""
    C = frozenset(C)
    members = frozenset(
        i
        for i, p in enumerate(S.points)
        if f not in p.iG and C <= p.iT
    )
    return ZSet(S, members, source=f)


def _member_indices(S: Spectrum, Y: Union[ZSet, Iterable[int]]) -> frozenset[int]:
    if isinstance(Y, ZSet):
        if Y.spectrum is not S and Y.spectrum != S:
            raise PreconditionError("point set lives on another spectrum")
        return Y.members
    members = frozenset(Y)
    for i in members:
        if not (0 <= i < len(S.points)):
            raise PreconditionError(f"no spectrum point with index {i}")
    return members


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


def krull_dim(R: FiniteNuSemiring, bound: int = DEFAULT_BOUND) -> int:
    """Longest chain of primes with strictly shrinking tangible
    clusters; -1 for an empty spectrum."""
    points = nu_primes(R, bound)
    if not points:
        return -1
    return max(_longest_to(_chain_edges(points)))


def height(
    R: FiniteNuSemiring, p: Congruence, bound: int = DEFAULT_BOUND
) -> int:
    """Longest admissible chain of primes ending at p."""
    points = nu_primes(R, bound)
    for j, q in enumerate(points):
        if q.reps == p.reps:
            return _longest_to(_chain_edges(points))[j]
    raise PreconditionError("congruence is not a nu-prime of this carrier")


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


def _s_of_f(S: Spectrum, f: int) -> frozenset[int]:
    R = S.carrier
    d_f = d_set(S, f).members
    candidates = R.prudent - R.ghost_divisors()
    base = {h for h in candidates if d_f <= d_set(S, h).members}
    if f in R.prudent:
        base |= R.powers_of(f)
    return _mult_closure(R, base)


def s_of_f(
    R: FiniteNuSemiring, f: int, bound: int = DEFAULT_BOUND
) -> frozenset[int]:
    """The denominator monoid of the basic open D(f).

    Spanned by the prudent non-ghost-divisors h whose D(h) covers
    D(f), together with all powers of f when f itself is prudent.
    """
    return _s_of_f(spec(R, bound), f)


def focal_zone(S: Spectrum, f: int) -> ZSet:
    """Points of D(f) whose tangible cluster swallows S(f)."""
    return d_restricted(S, _s_of_f(S, f), f)


def is_nu_strict(S: Spectrum, f: int) -> bool:
    """Whether the focal zone fills all of D(f)."""
    return focal_zone(S, f).members == d_set(S, f).members


def sections(
    S: Spectrum, dset: Union[ZSet, int]
) -> FiniteNuSemiring:
    """Carrier of sections over a basic open D(f): the localization
    of the carrier at S(f)."""
    if isinstance(dset, ZSet):
        if dset.source is None:
            raise PreconditionError(
                "sections need an open set built from an element"
            )
        f = dset.source
    else:
        f = dset
    C = _s_of_f(S, f)
    return localize_finite(S.carrier, sorted(C))[0]


def stalk(S: Spectrum, x: int) -> FiniteNuSemiring:
    """Localization of the carrier at the tangible cluster of point x."""
    if not (0 <= x < len(S.points)):
        raise PreconditionError(f"no spectrum point with index {x}")
    p = S.points[x]
    return localize_finite(S.carrier, sorted(p.iT))[0]


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
    when f lies in the ghost cluster of crad(theta), the intersection
    of the points over theta.

    An empty V(theta) pairs with the empty radical: both sides then
    hold for every element.
    """
    over = [p for p in nu_primes(R, bound) if theta.refines(p)]
    ghost_side = cong_intersect(*over).iG if over else frozenset(range(R.size))
    failures = []
    for f in range(R.size):
        lhs = all(f in p.iG for p in over)
        rhs = f in ghost_side
        if lhs != rhs:
            failures.append(
                f"{R.names[f]}: ghost at all points is {lhs}, "
                f"in radical ghost cluster is {rhs}"
            )
    return CheckReport(
        "nullstellensatz", not failures, R.size, tuple(failures)
    )


def krull_check(R: FiniteNuSemiring, bound: int = DEFAULT_BOUND) -> CheckReport:
    """The ghostpotent radical agrees with the s-radicals of the empty
    set and of the ghosts, with the intersection of all primes, and
    its ghost cluster collects exactly the ghostpotents."""
    points = nu_primes(R, bound)
    rad_empty = srad(R, (), bound)
    rad_ghost = srad(R, R.ghost0, bound)
    rad_gp = srad(R, gprad(R), bound)
    failures = []
    if rad_empty != rad_ghost:
        failures.append("srad of empty set differs from srad of ghosts")
    if rad_empty != rad_gp:
        failures.append("srad of empty set differs from srad of ghostpotents")
    if points:
        if rad_empty != cong_intersect(*points):
            failures.append("srad of empty set differs from prime intersection")
        cluster = frozenset(range(R.size)) if rad_empty is None else rad_empty.iG
        if cluster != gprad(R):
            failures.append("radical ghost cluster misses the ghostpotents")
    elif rad_empty is not None:
        failures.append("no primes yet a nonempty radical")
    return CheckReport("krull", not failures, 4, tuple(failures))


# -- serialization ------------------------------------------------------


def _hasse_edges(points: Sequence[Congruence]) -> list[tuple[int, int]]:
    below = _strictly_below(points)
    edges = []
    for j in range(len(points)):
        for i in below[j]:
            if not any(i in below[k] for k in below[j]):
                edges.append((i, j))
    return edges


def spectrum_to_json(S: Spectrum, bound: int = DEFAULT_BOUND) -> str:
    """Stable dump: per point its classes, clusters, and classifier
    flags, plus the Hasse diagram of the inclusion order."""
    R = S.carrier
    points = []
    for p in S.points:
        points.append(
            {
                "classes": class_names(p),
                "iT": sorted(R.names[i] for i in p.iT),
                "iG": sorted(R.names[i] for i in p.iG),
                "flags": sorted(classify(R, p, bound)),
            }
        )
    return json.dumps(
        {
            "points": points,
            "hasse": sorted(_hasse_edges(S.points)),
        },
        sort_keys=True,
    )
