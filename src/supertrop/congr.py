"""Finite ghost-augmented semirings given by tables, and their congruences.

A carrier is a finite commutative semiring with a ghost map nu, a
distinguished tangible subset and a prudent subset of it.  Everything
is indexed: elements are 0..n-1, tables are nested tuples, so carriers
hash and compare structurally and serialize to stable JSON.

Congruences replace ideals here: the ghost cluster iG (elements
identified with their own ghost) plays the role of the vanishing set,
and the tangible cluster iT collects elements whose whole class stays
tangible.  The classifier below recognizes the useful kinds: the
q-congruences keep every unit's class tangible, the l-congruences have
a multiplicatively closed iT, and the nu-primes additionally forbid
ghost products of non-ghost factors.

The full congruence lattice (radicals, maximality flags, spectra) is
built from the principal congruences Cg(a, b), each a worklist closure
over union-find, closed under joins.  Its cost grows with the number of
congruences rather than with the number of set partitions; it stays
exact and is still gated by a size bound.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .core import (
    Layer,
    NuElement,
    TRIVIAL,
    ValueMonoid,
    add as kernel_add,
    chain_monoid,
    ghost,
    mul as kernel_mul,
    nu as kernel_nu,
    one_of,
    tangible as kernel_tangible,
    zero_of,
)
from .errors import BoundError, ParseError, PreconditionError

DEFAULT_BOUND = 7
# longest chain that builtin_semiring builds for "str-chain:N" and
# "str-trunc:N"; building and validating the carrier costs O(N^3), and
# N = 32 (65 elements) takes well under a second
MAX_CHAIN = 32
# entries kept per carrier-keyed cache; carriers come and go in a
# long-lived process, so the caches must not grow without limit
_CACHE_SIZE = 16

FLAG_Q = "QCong"
FLAG_L = "LCong"
FLAG_PRIME = "NuPrime"
FLAG_RADICAL = "Radical"
FLAG_DETERMINED = "Determined"
FLAG_GHOST = "GhostCong"
FLAG_TANGLY_MINIMAL = "TanglyMinimal"
FLAG_MAXIMAL_L = "MaximalL"
# every flag, in the order the CLI offers them to congs --kind
FLAGS = (
    FLAG_Q, FLAG_L, FLAG_PRIME, FLAG_RADICAL, FLAG_DETERMINED, FLAG_GHOST,
    FLAG_TANGLY_MINIMAL, FLAG_MAXIMAL_L,
)


@dataclass(frozen=True)
class FiniteNuSemiring:
    """Commutative nu-semiring on indices 0..n-1 with explicit tables."""

    names: tuple[str, ...]
    zero: int
    one: int
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]
    nu_table: tuple[int, ...]
    tangible: frozenset[int]
    prudent: frozenset[int]

    def __post_init__(self) -> None:
        n = len(self.names)
        if len(set(self.names)) != n:
            repeated = next(x for x in self.names if self.names.count(x) > 1)
            raise PreconditionError(
                f"element names must be distinct: {repeated!r} repeats"
            )
        if not (0 <= self.zero < n and 0 <= self.one < n):
            raise ValueError("zero/one out of range")
        for table in (self.add_table, self.mul_table):
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError("tables must be n x n")
            if any(not 0 <= v < n for row in table for v in row):
                raise ValueError("table entry out of range")
        if len(self.nu_table) != n or any(
            not 0 <= v < n for v in self.nu_table
        ):
            raise ValueError("nu table malformed")
        for s in (self.tangible, self.prudent):
            if any(not 0 <= v < n for v in s):
                raise ValueError("subset entry out of range")

    @property
    def size(self) -> int:
        return len(self.names)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def nu(self, a: int) -> int:
        return self.nu_table[a]

    @property
    def e(self) -> int:
        return self.add_table[self.one][self.one]

    def powers_of(self, a: int) -> frozenset[int]:
        """All distinct positive powers of a (the sequence cycles)."""
        return _powers(self.mul_table, a)

    @cached_property
    def ghost0(self) -> frozenset[int]:
        """Fixed points of nu: the ghost ideal together with zero."""
        return frozenset(a for a in range(self.size) if self.nu(a) == a)

    @cached_property
    def units(self) -> frozenset[int]:
        return frozenset(
            a
            for a in range(self.size)
            if any(self.mul(a, b) == self.one for b in range(self.size))
        )

    def ghost_divisors(self) -> frozenset[int]:
        """Non-ghost elements with a non-ghost cofactor ghosting the product."""
        out = set()
        for a in range(self.size):
            if a in self.ghost0:
                continue
            for b in range(self.size):
                if b in self.ghost0:
                    continue
                if self.mul(a, b) in self.ghost0:
                    out.add(a)
                    break
        return frozenset(out)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ParseError(
                f"no element named {name!r}; carrier has {', '.join(self.names)}"
            ) from None


def _powers(mul_table: Sequence[Sequence[int]], a: int) -> frozenset[int]:
    """All distinct positive powers of a under a multiplication table;
    the sequence a, a^2, ... cycles, so the walk stops at a repeat."""
    seen = {a}
    cur = a
    while True:
        cur = mul_table[cur][a]
        if cur in seen:
            return frozenset(seen)
        seen.add(cur)


def computed_prudent(
    mul_table: Sequence[Sequence[int]],
    tangible: frozenset[int],
) -> frozenset[int]:
    """Tangible elements all of whose powers stay tangible."""
    return frozenset(a for a in tangible if _powers(mul_table, a) <= tangible)


def make_semiring(
    names: Sequence[str],
    zero: int,
    one: int,
    add_table: Sequence[Sequence[int]],
    mul_table: Sequence[Sequence[int]],
    nu_table: Sequence[int],
    tangible: Iterable[int],
) -> FiniteNuSemiring:
    """Assemble a carrier from its tables and tangible set.

    The prudent set is always derived: it is the maximal admissible
    set, the tangible elements all of whose powers stay tangible.
    """
    mul_t = tuple(tuple(row) for row in mul_table)
    tan = frozenset(tangible)
    return FiniteNuSemiring(
        tuple(names), zero, one, tuple(tuple(row) for row in add_table),
        mul_t, tuple(nu_table), tan, computed_prudent(mul_t, tan),
    )


# -- validation ---------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    failures: tuple[tuple[str, str], ...]
    checked: tuple[str, ...]

    def failed_checks(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.failures)


def validate(R: FiniteNuSemiring) -> ValidationReport:
    """Run the axiom battery; report the first counterexample per check.

    Each check is a generator of failing witnesses, so a witness string
    is formatted only for a failure.
    """
    n = R.size
    rng = range(n)
    nm = R.names
    add, mul, nu = R.add, R.mul, R.nu
    failures: list[tuple[str, str]] = []
    checked: list[str] = []

    def check(name: str, witnesses: Iterable[str]) -> None:
        checked.append(name)
        witness = next(iter(witnesses), None)
        if witness is not None:
            failures.append((name, witness))

    check("add-commutative", (
        f"{nm[a]} + {nm[b]}"
        for a in rng for b in rng if add(a, b) != add(b, a)
    ))
    check("add-associative", (
        f"({nm[a]} + {nm[b]}) + {nm[c]}"
        for a in rng for b in rng for c in rng
        if add(add(a, b), c) != add(a, add(b, c))
    ))
    check("add-identity", (
        f"{nm[a]} + 0" for a in rng if add(a, R.zero) != a
    ))
    check("mul-commutative", (
        f"{nm[a]} * {nm[b]}"
        for a in rng for b in rng if mul(a, b) != mul(b, a)
    ))
    check("mul-associative", (
        f"({nm[a]} * {nm[b]}) * {nm[c]}"
        for a in rng for b in rng for c in rng
        if mul(mul(a, b), c) != mul(a, mul(b, c))
    ))
    check("mul-identity", (
        f"{nm[a]} * 1" for a in rng if mul(a, R.one) != a
    ))
    check("mul-zero", (
        f"{nm[a]} * 0" for a in rng if mul(a, R.zero) != R.zero
    ))
    check("distributive", (
        f"{nm[a]} * ({nm[b]} + {nm[c]})"
        for a in rng for b in rng for c in rng
        if mul(a, add(b, c)) != add(mul(a, b), mul(a, c))
    ))
    check("nu-is-e-multiple", (
        f"nu({nm[a]})" for a in rng if nu(a) != mul(R.e, a)
    ))
    check("nu-idempotent", (
        f"nu(nu({nm[a]}))" for a in rng if nu(nu(a)) != nu(a)
    ))
    check("nu-kernel-trivial", (
        f"nu({nm[a]}) = 0" for a in rng if nu(a) == R.zero and a != R.zero
    ))
    check("tangible-partition", (
        witness
        for witness, bad in (
            ("zero tangible", R.zero in R.tangible),
            ("one not tangible", R.one not in R.tangible),
            ("tangible meets ghost", bool(R.tangible & R.ghost0)),
        )
        if bad
    ))
    check("ghost-ideal", (
        f"{nm[a]} * {nm[g]}"
        for a in rng for g in R.ghost0 if mul(a, g) not in R.ghost0
    ))
    check("nu-order-total", (
        f"nu({nm[a]}) + nu({nm[b]})"
        for a in rng for b in rng
        if add(nu(a), nu(b)) not in (nu(a), nu(b))
    ))
    check("nm-dominance", (
        f"{nm[a]} + {nm[b]}"
        for a in rng for b in rng
        if nu(a) != nu(b) and add(nu(a), nu(b)) == nu(a) and add(a, b) != a
    ))
    check("nm-tie", (
        f"{nm[a]} + {nm[b]}"
        for a in rng for b in rng
        if nu(a) == nu(b) and add(a, b) != nu(a)
    ))
    check("nm-zero", (
        f"{nm[a]} + {nm[b]}"
        for a in rng for b in rng
        if nu(a) == R.zero and add(a, b) != b
    ))
    check("prudent-powers", (
        f"{nm[a]}^k" for a in R.prudent if not R.powers_of(a) <= R.prudent
    ))
    check("prudent-maximal", (
        ["prudent differs from the maximal admissible set"]
        if R.prudent != computed_prudent(R.mul_table, R.tangible)
        else []
    ))
    check("units-prudent", (
        f"unit {nm[u]}" for u in R.units if u not in R.prudent
    ))
    check("tangible-sum-stability", (
        f"{nm[a]} + nu({nm[b]})"
        for a in rng for b in rng
        if add(a, b) in R.tangible and add(a, b) not in (a, b)
        and add(a, nu(b)) in R.ghost0
    ))
    check("tame", (
        f"{nm[m]} has no tangible c + nu(d) decomposition"
        for m in rng
        if m not in R.tangible and m not in R.ghost0
        and not any(
            add(c, nu(d)) == m for c in R.tangible for d in R.tangible
        )
    ))
    return ValidationReport(
        not failures, tuple(failures), tuple(checked)
    )


def _require_passed(report: ValidationReport, what: str) -> None:
    if not report.passed:
        raise PreconditionError(
            f"{what} fails validation: " + ", ".join(report.failed_checks())
        )


def require_valid(R: FiniteNuSemiring) -> None:
    _require_passed(_validate_cached(R), "carrier")


@lru_cache(maxsize=_CACHE_SIZE)
def _validate_cached(R: FiniteNuSemiring) -> ValidationReport:
    return validate(R)


# -- congruences --------------------------------------------------------


@dataclass(frozen=True)
class Congruence:
    """Partition of a carrier compatible with both operations.

    reps[a] is the least member of a's class, so equal partitions have
    equal reps and the tuple is a canonical key.
    """

    semiring: FiniteNuSemiring
    reps: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.reps) != self.semiring.size:
            raise ValueError("reps length mismatch")
        for i, r in enumerate(self.reps):
            if not (0 <= r <= i and self.reps[r] == r):
                raise ValueError("reps not canonical")

    def contains(self, a: int, b: int) -> bool:
        return self.reps[a] == self.reps[b]

    def classes(self) -> tuple[tuple[int, ...], ...]:
        by_rep: dict[int, list[int]] = {}
        for i, r in enumerate(self.reps):
            by_rep.setdefault(r, []).append(i)
        return tuple(tuple(v) for _, v in sorted(by_rep.items()))

    def class_of(self, a: int) -> tuple[int, ...]:
        r = self.reps[a]
        return tuple(i for i in range(len(self.reps)) if self.reps[i] == r)

    @cached_property
    def iT(self) -> frozenset[int]:
        """Tangible cluster: elements whose whole class is tangible."""
        R = self.semiring
        not_all_tangible = {
            r for a, r in enumerate(self.reps) if a not in R.tangible
        }
        return frozenset(
            a for a, r in enumerate(self.reps) if r not in not_all_tangible
        )

    @cached_property
    def iG(self) -> frozenset[int]:
        """Ghost cluster: elements congruent to their own ghost."""
        R = self.semiring
        return frozenset(
            a for a in range(R.size) if self.contains(a, R.nu(a))
        )

    @property
    def is_improper(self) -> bool:
        return all(r == 0 for r in self.reps)

    def refines(self, other: "Congruence") -> bool:
        """Whether every class of self sits inside a class of other."""
        return all(
            other.reps[a] == other.reps[self.reps[a]]
            for a in range(len(self.reps))
        )


def _find(parent: list[int], i: int) -> int:
    """Root of i in a union-find forest, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _union(parent: list[int], a: int, b: int) -> bool:
    """Merge the classes of a and b; False when they already agree.

    The smaller root always wins, so every root is the least member of
    its class and the roots read off directly as canonical reps.
    """
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    parent[max(ra, rb)] = min(ra, rb)
    return True


def _canonical_reps(parent: list[int]) -> tuple[int, ...]:
    return tuple(_find(parent, i) for i in range(len(parent)))


def _reps_by_key(keys: Sequence[Hashable]) -> tuple[int, ...]:
    """Reps of the partition putting i and j together when their keys
    agree: each element maps to the least index sharing its key."""
    least: dict[Hashable, int] = {}
    return tuple(least.setdefault(k, i) for i, k in enumerate(keys))


def diagonal(R: FiniteNuSemiring) -> Congruence:
    return Congruence(R, tuple(range(R.size)))


def all_pairs(R: FiniteNuSemiring) -> Congruence:
    return Congruence(R, (0,) * R.size)


def cong_closure(
    R: FiniteNuSemiring, pairs: Iterable[tuple[int, int]]
) -> Congruence:
    """Least congruence identifying the given pairs.

    A worklist closure: each merge of two classes pushes the translates
    (a + c, b + c) and (a * c, b * c) for every c.  A pair whose ends
    already agree is dropped, since its translates follow from the
    merges that joined them.
    """
    add_t, mul_t = R.add_table, R.mul_table
    parent = list(range(R.size))
    work = list(pairs)
    while work:
        a, b = work.pop()
        if _union(parent, a, b):
            work.extend(zip(add_t[a], add_t[b]))
            work.extend(zip(mul_t[a], mul_t[b]))
    return Congruence(R, _canonical_reps(parent))


def ghostify(R: FiniteNuSemiring, elements: Iterable[int]) -> Congruence:
    """Least congruence making every given element a ghost."""
    return cong_closure(R, [(b, R.nu(b)) for b in elements])


def cong_intersect(*congs: Congruence) -> Congruence:
    if not congs:
        raise ValueError("need at least one congruence")
    R = congs[0].semiring
    keys = [tuple(c.reps[i] for c in congs) for i in range(R.size)]
    return Congruence(R, _reps_by_key(keys))


def is_congruence(R: FiniteNuSemiring, reps: Sequence[int]) -> bool:
    n = R.size
    for a in range(n):
        ra = reps[a]
        if ra == a:
            continue
        for c in range(n):
            if reps[R.add(a, c)] != reps[R.add(ra, c)]:
                return False
            if reps[R.mul(a, c)] != reps[R.mul(ra, c)]:
                return False
    return True


def _join(theta: tuple[int, ...], phi: tuple[int, ...]) -> tuple[int, ...]:
    """Reps of the join of two congruences given by their reps.

    The transitive closure of the union of two congruences is again a
    congruence, so the join needs only the merges, no closure.
    """
    parent = list(theta)
    for i, r in enumerate(phi):
        if r != i:
            _union(parent, i, r)
    return _canonical_reps(parent)


def _all_congruences(R: FiniteNuSemiring) -> tuple[Congruence, ...]:
    """The whole lattice: the diagonal, the principal congruences
    Cg(a, b), and their joins (Freese, "Computing congruences
    efficiently", Algebra Universalis 59, 2008).

    Every congruence is the join of the principals of its pairs, so
    joining each new congruence with every principal not yet below it
    reaches them all, at a cost in the lattice size, not in Bell(n).
    """
    n = R.size
    principals: dict[tuple[int, ...], tuple[int, int]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            reps = cong_closure(R, [(a, b)]).reps
            principals.setdefault(reps, (a, b))
    found = {tuple(range(n)), *principals}
    todo = list(principals)
    while todo:
        theta = todo.pop()
        for p, (a, b) in principals.items():
            if theta[a] == theta[b]:
                continue
            joined = _join(theta, p)
            if joined not in found:
                found.add(joined)
                todo.append(joined)
    return tuple(Congruence(R, reps) for reps in sorted(found))


def _basic_flags(R: FiniteNuSemiring, theta: Congruence) -> set[str]:
    iT, iG = theta.iT, theta.iG
    flags: set[str] = set()
    if theta.contains(R.one, R.nu(R.one)):
        flags.add(FLAG_GHOST)
    q = R.units <= iT
    if q:
        flags.add(FLAG_Q)
    l_cong = q and all(R.mul(a, b) in iT for a in iT for b in iT)
    if l_cong:
        flags.add(FLAG_L)
    if l_cong and all(
        a in iG or b in iG
        for a in range(R.size)
        for b in range(R.size)
        if R.mul(a, b) in iG
    ):
        flags.add(FLAG_PRIME)
    if q and ghostpotent_over(R, iG) <= iG:
        flags.add(FLAG_RADICAL)
    if all(
        set(members) <= R.tangible or set(members) <= R.ghost0
        for members in theta.classes()
    ):
        flags.add(FLAG_DETERMINED)
    return flags


def _relative_flags(
    theta: Congruence, l_congs: Sequence[Congruence]
) -> set[str]:
    """TanglyMinimal and MaximalL of an l-congruence: no member of the
    l-congruence family has a strictly smaller tangible cluster, and
    none lies strictly above theta."""
    flags: set[str] = set()
    if not any(c.iT < theta.iT for c in l_congs):
        flags.add(FLAG_TANGLY_MINIMAL)
    if not any(theta.refines(c) and c.reps != theta.reps for c in l_congs):
        flags.add(FLAG_MAXIMAL_L)
    return flags


@lru_cache(maxsize=_CACHE_SIZE)
def _flag_family(
    R: FiniteNuSemiring,
) -> dict[Optional[str], tuple[Congruence, ...]]:
    """The lattice, under the key None, and the lattice filtered by
    each flag, computed once per carrier."""
    lattice = _all_congruences(R)
    flag_sets = [_basic_flags(R, c) for c in lattice]
    l_congs = [c for c, flags in zip(lattice, flag_sets) if FLAG_L in flags]
    family: dict[Optional[str], list[Congruence]] = {}
    for c, flags in zip(lattice, flag_sets):
        if FLAG_L in flags:
            flags |= _relative_flags(c, l_congs)
        for flag in (None, *flags):
            family.setdefault(flag, []).append(c)
    return {flag: tuple(cs) for flag, cs in family.items()}


def classify(
    R: FiniteNuSemiring,
    theta: Congruence,
    bound: int = DEFAULT_BOUND,
) -> frozenset[str]:
    """Flag set for a congruence.

    The two flags relative to the whole l-congruence family
    (TanglyMinimal, MaximalL) need the lattice enumerated and are only
    emitted when the carrier is within the bound.
    """
    flags = _basic_flags(R, theta)
    if FLAG_L in flags and R.size <= bound:
        flags |= _relative_flags(theta, _flag_family(R).get(FLAG_L, ()))
    return frozenset(flags)


def enumerate_congruences(
    R: FiniteNuSemiring,
    bound: int = DEFAULT_BOUND,
    kind: Optional[str] = None,
) -> tuple[Congruence, ...]:
    """All congruences, optionally filtered by a classifier flag.  The
    size bound is checked before validity, which cong_closure needs: it
    translates pairs on the right only."""
    if R.size > bound:
        raise BoundError(
            f"carrier has {R.size} elements, enumeration bound is {bound}"
        )
    require_valid(R)
    return _flag_family(R).get(kind, ())


# -- quotients and localizations ----------------------------------------


def _op_tables(
    reps: Sequence,
    index: Mapping | Sequence[int],
    add: Callable,
    mul: Callable,
    nu: Callable,
) -> tuple[
    tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...]
]:
    """Add, mul and nu tables of the carrier whose element i stands for
    reps[i]; index maps each result of add, mul and nu to an element."""
    return (
        tuple(tuple(index[add(x, y)] for y in reps) for x in reps),
        tuple(tuple(index[mul(x, y)] for y in reps) for x in reps),
        tuple(index[nu(x)] for x in reps),
    )


def quotient(
    R: FiniteNuSemiring, theta: Congruence
) -> tuple[FiniteNuSemiring, tuple[int, ...]]:
    """Carrier of classes plus the projection map.

    Requires a valid carrier and a q-congruence; without the latter,
    some unit's class leaks out of the tangible part and the quotient
    has no consistent layering.
    """
    require_valid(R)
    for u in sorted(R.units):
        if u not in theta.iT:
            cls = "{" + ", ".join(R.names[i] for i in theta.class_of(u)) + "}"
            raise PreconditionError(
                f"not a q-congruence: class {cls} of unit "
                f"{R.names[u]} is not tangible"
            )
    classes = theta.classes()
    class_idx = {members[0]: k for k, members in enumerate(classes)}
    proj = tuple(class_idx[r] for r in theta.reps)
    add_t, mul_t, nu_t = _op_tables(
        [members[0] for members in classes], proj, R.add, R.mul, R.nu
    )
    tangible = frozenset(
        k for k, members in enumerate(classes) if set(members) <= R.tangible
    )
    out = make_semiring(
        ["|".join(R.names[i] for i in members) for members in classes],
        proj[R.zero],
        proj[R.one],
        add_t,
        mul_t,
        nu_t,
        tangible,
    )
    _require_passed(validate(out), "quotient")
    return out, proj


def localize_finite(
    R: FiniteNuSemiring, C: Iterable[int]
) -> tuple[FiniteNuSemiring, tuple[int, ...]]:
    """Fractions a/c over a prudent tangible monoid C, plus a -> a/1.

    Two fractions are identified when some c'' in C equalizes them.  A
    fraction class is tangible only when every numerator appearing in it
    is tangible.  When a tangible numerator collides with a ghost one
    (a*c'' = b*c'' with b ghost), the whole class is ghost: the ghost
    kernel of a -> a/1 is exactly {a : a*c in ghost0 for some c in C}.
    Denominators that are not units therefore make a -> a/1 lossy on
    finite carriers.

    The classes are keyed directly.  Let s be the product of C and r_c
    the product of C without c, so that c*r_c = s.  Then a/c and b/d
    are identified exactly when a*r_c*s^2 = b*r_d*s^2: multiplying
    a*d*c'' = b*c*c'' by r_c*r_d*r_c'' gives the key equation, and
    conversely c'' = r_c*r_d*s^2 lies in C and equalizes a/c and b/d.
    So the relation is already transitive, and one pass over the
    fractions finds its classes, each numbered by its least fraction.
    Both directions use commutativity and associativity, so the carrier
    must pass validation.
    """
    require_valid(R)
    C = sorted(set(C))
    if R.one not in C:
        raise PreconditionError("localization set must contain one")
    stray = [c for c in C if c not in R.prudent]
    if stray:
        raise PreconditionError(
            "localization only by prudent elements; offending: "
            + ", ".join(R.names[c] for c in stray)
        )
    for c in C:
        for d in C:
            if R.mul(c, d) not in C:
                raise PreconditionError(
                    "localization set is not multiplicatively closed: "
                    f"{R.names[c]} * {R.names[d]} escapes"
                )

    mul = R.mul
    s = reduce(mul, C)
    s2 = mul(s, s)
    rest = {c: reduce(mul, [d for d in C if d != c], R.one) for c in C}
    by_key: dict[int, list[tuple[int, int]]] = {}
    for a in range(R.size):
        for c in C:
            by_key.setdefault(mul(mul(a, rest[c]), s2), []).append((a, c))
    classes = list(by_key.values())
    cls = {p: k for k, members in enumerate(classes) for p in members}

    def name_of(members: list[tuple[int, int]]) -> str:
        ghostly = [p for p in members if p[0] not in R.tangible]
        a, c = min(ghostly or members)
        return R.names[a] if c == R.one else f"{R.names[a]}/{R.names[c]}"

    add_t, mul_t, nu_t = _op_tables(
        [members[0] for members in classes],
        cls,
        lambda p, q: (
            R.add(mul(p[0], q[1]), mul(q[0], p[1])), mul(p[1], q[1])
        ),
        lambda p, q: (mul(p[0], q[0]), mul(p[1], q[1])),
        lambda p: (R.nu(p[0]), p[1]),
    )
    tangible = frozenset(
        k
        for k, members in enumerate(classes)
        if all(a in R.tangible for a, _ in members)
    )
    out = make_semiring(
        [name_of(members) for members in classes],
        cls[(R.zero, R.one)],
        cls[(R.one, R.one)],
        add_t,
        mul_t,
        nu_t,
        tangible,
    )
    _require_passed(validate(out), "localization")
    return out, tuple(cls[(a, R.one)] for a in range(R.size))


# -- radicals -----------------------------------------------------------


# what crad, srad and jac return when no member of their family
# contains theta: the radical over an empty family
EMPTY_RADICAL = None


def nu_primes(
    R: FiniteNuSemiring, bound: int = DEFAULT_BOUND
) -> tuple[Congruence, ...]:
    return enumerate_congruences(R, bound, FLAG_PRIME)


def _meet_above(
    theta: Congruence, family: Iterable[Congruence]
) -> Optional[Congruence]:
    """Intersection of the members of family containing theta; None if
    none does."""
    containing = [c for c in family if theta.refines(c)]
    return cong_intersect(*containing) if containing else None


def crad(
    R: FiniteNuSemiring,
    theta: Congruence,
    bound: int = DEFAULT_BOUND,
) -> Optional[Congruence]:
    """Intersection of the nu-primes containing theta; None when no
    nu-prime contains theta."""
    return _meet_above(theta, nu_primes(R, bound))


def srad(
    R: FiniteNuSemiring,
    elements: Iterable[int],
    bound: int = DEFAULT_BOUND,
) -> Optional[Congruence]:
    """Radical of a ghostified element set: crad of ghostify(R,
    elements), so None when no nu-prime contains that congruence."""
    return crad(R, ghostify(R, elements), bound)


def ghostpotent_over(R: FiniteNuSemiring, G: frozenset[int]) -> frozenset[int]:
    """The elements some power of which lies in G."""
    return frozenset(a for a in range(R.size) if R.powers_of(a) & G)


def gprad(R: FiniteNuSemiring) -> frozenset[int]:
    """Ghostpotent elements: some power falls into the ghost ideal."""
    return ghostpotent_over(R, R.ghost0)


def jac(
    R: FiniteNuSemiring,
    theta: Congruence,
    bound: int = DEFAULT_BOUND,
) -> Optional[Congruence]:
    """Intersection of the maximal l-congruences containing theta; None
    when no maximal l-congruence contains theta."""
    return _meet_above(theta, enumerate_congruences(R, bound, FLAG_MAXIMAL_L))


# -- homomorphisms ------------------------------------------------------


@dataclass(frozen=True)
class QHom:
    """Map of carriers that respects both operations, nu, and layering."""

    src: FiniteNuSemiring
    dst: FiniteNuSemiring
    mapping: tuple[int, ...]


def check_q_homomorphism(phi: QHom) -> Optional[str]:
    """None when phi is a q-homomorphism, else a counterexample."""
    R, S, f = phi.src, phi.dst, phi.mapping
    if len(f) != R.size:
        return "mapping length mismatch"
    if f[R.zero] != S.zero:
        return "zero not preserved"
    if f[R.one] != S.one:
        return "one not preserved"
    for a in range(R.size):
        if f[R.nu(a)] != S.nu(f[a]):
            return f"nu broken at {R.names[a]}"
        for b in range(R.size):
            if f[R.add(a, b)] != S.add(f[a], f[b]):
                return f"addition broken at {R.names[a]}, {R.names[b]}"
            if f[R.mul(a, b)] != S.mul(f[a], f[b]):
                return f"multiplication broken at {R.names[a]}, {R.names[b]}"
    for a in range(R.size):
        if f[a] in S.tangible and a not in R.tangible:
            return f"tangible pullback broken at {R.names[a]}"
    return None


def pullback(phi: QHom, theta: Congruence) -> Congruence:
    """Congruence on the source identifying a, b when phi(a) = phi(b) mod theta."""
    if theta.semiring is not phi.dst and theta.semiring != phi.dst:
        raise PreconditionError("congruence lives on the wrong carrier")
    witness = check_q_homomorphism(phi)
    if witness is not None:
        raise PreconditionError(f"not a q-homomorphism: {witness}")
    keys = [theta.reps[b] for b in phi.mapping]
    return Congruence(phi.src, _reps_by_key(keys))


def find_isomorphism(
    A: FiniteNuSemiring, B: FiniteNuSemiring
) -> Optional[tuple[int, ...]]:
    """A structure-preserving bijection as a tuple, or None.

    A depth-first search that propagates each choice (after McKay,
    "Practical graph isomorphism", 1981).  An element may only go to one
    with the same invariants: the profile (zero, one, tangible, prudent,
    ghost, number of powers) and the down-set size #{c : a + c = a},
    which every isomorphism keeps.  f(a) = b forces f(nu a) = nu b,
    f(a + c) = b + f(c) and f(a * c) = b * f(c) for each mapped c; a
    clash, a repeated image or a changed invariant prunes the branch.
    Pruned branches hold no isomorphism, and elements are placed by
    profile and then index, candidates in index order, so the first
    complete map is the one the former scan over permutations within
    profile groups returned first.
    """
    if A.size != B.size:
        return None
    n = A.size

    def invariants(R: FiniteNuSemiring) -> list[tuple]:
        return [
            (a == R.zero, a == R.one, a in R.tangible, a in R.prudent,
             a in R.ghost0, len(R.powers_of(a)), R.add_table[a].count(a))
            for a in range(n)
        ]

    inv_a, inv_b = invariants(A), invariants(B)
    if sorted(inv_a) != sorted(inv_b):
        return None
    order = sorted(range(n), key=lambda a: inv_a[a][:-1])  # profile, index

    def extend(f: list[int], a: int, b: int) -> Optional[list[int]]:
        """f with f(a) = b and everything it forces; None on a clash."""
        f = f[:]
        mapped = [c for c in range(n) if f[c] >= 0]
        work = [(a, b)]
        while work:
            a, b = work.pop()
            if f[a] < 0 and b not in f and inv_a[a] == inv_b[b]:
                f[a] = b
                mapped.append(a)
                work.append((A.nu(a), B.nu(b)))
                for c in mapped:
                    work.append((A.add(a, c), B.add(b, f[c])))
                    work.append((A.mul(a, c), B.mul(b, f[c])))
            elif f[a] != b:
                return None
        return f

    def search(f: list[int], k: int) -> Optional[tuple[int, ...]]:
        while k < n and f[order[k]] >= 0:
            k += 1
        if k == n:
            ok = check_q_homomorphism(QHom(A, B, tuple(f))) is None
            return tuple(f) if ok else None
        for b in range(n):
            g = extend(f, order[k], b)
            found = None if g is None else search(g, k + 1)
            if found is not None:
                return found
        return None

    return search([-1] * n, 0)


# -- JSON ---------------------------------------------------------------


def carrier_obj(R: FiniteNuSemiring) -> dict:
    """The carrier as the JSON object that to_json writes."""
    return {
        "elements": list(R.names),
        "zero": R.names[R.zero],
        "one": R.names[R.one],
        "tangible": [R.names[a] for a in sorted(R.tangible)],
        "prudent": [R.names[a] for a in sorted(R.prudent)],
        "add": [
            [R.names[v] for v in row] for row in R.add_table
        ],
        "mul": [
            [R.names[v] for v in row] for row in R.mul_table
        ],
        "nu": {R.names[a]: R.names[R.nu(a)] for a in range(R.size)},
    }


def to_json(R: FiniteNuSemiring) -> str:
    return json.dumps(carrier_obj(R), sort_keys=True, indent=2)


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None


def semiring_from_json(text: str) -> FiniteNuSemiring:
    obj = _loads(text)
    try:
        names = tuple(str(x) for x in obj["elements"])
        pos = {name: i for i, name in enumerate(names)}
        if len(pos) != len(names):
            raise ParseError("duplicate element names")
        for name in names:
            # a comma would split the name in --elements and --monoid, a
            # line break would split a one-line message listing names,
            # and those lists strip each item and drop empty ones
            if "," in name or "".join(name.splitlines()) != name:
                raise ParseError(
                    f"element name {name!r} contains a comma or a line break"
                )
            if not name or name.strip() != name:
                raise ParseError(
                    f"element name {name!r} is empty or padded with whitespace"
                )

        def look(name) -> int:
            if name not in pos:
                raise ParseError(f"unknown element {name!r}")
            return pos[name]

        add_t = tuple(
            tuple(look(v) for v in row) for row in obj["add"]
        )
        mul_t = tuple(
            tuple(look(v) for v in row) for row in obj["mul"]
        )
        nu_map = obj["nu"]
        nu_t = tuple(look(nu_map[name]) for name in names)
        R = FiniteNuSemiring(
            names,
            look(obj["zero"]),
            look(obj["one"]),
            add_t,
            mul_t,
            nu_t,
            frozenset(look(v) for v in obj["tangible"]),
            frozenset(look(v) for v in obj["prudent"]),
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed carrier description: {exc}") from None
    return R


def class_names(theta: Congruence) -> list[list[str]]:
    """The classes of theta, each as the names of its members."""
    R = theta.semiring
    return [[R.names[i] for i in members] for members in theta.classes()]


def cong_to_json(theta: Congruence) -> str:
    obj = {"classes": class_names(theta)}
    return json.dumps(obj, sort_keys=True, indent=2)


def cong_from_json(R: FiniteNuSemiring, text: str) -> Congruence:
    obj = _loads(text)
    try:
        classes = obj["classes"]
        seen: dict[int, int] = {}
        for members in classes:
            block = sorted(R.index(name) for name in members)
            for i in block:
                if i in seen:
                    raise ParseError("element repeated across classes")
                seen[i] = block[0]
        if len(seen) != R.size:
            raise ParseError("classes do not cover the carrier")
        reps = tuple(seen[i] for i in range(R.size))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed congruence description: {exc}") from None
    if not is_congruence(R, reps):
        raise PreconditionError("partition is not a congruence")
    return Congruence(R, reps)


# -- builders -----------------------------------------------------------


def _from_kernel(
    elems: Sequence[NuElement], names: Sequence[str]
) -> FiniteNuSemiring:
    index = {el: i for i, el in enumerate(elems)}
    add_t, mul_t, nu_t = _op_tables(
        elems, index, kernel_add, kernel_mul, kernel_nu
    )
    zero = next(i for i, el in enumerate(elems) if el.layer is Layer.ZERO)
    one = index[one_of(elems[zero].monoid)]
    tangible = frozenset(
        i for i, el in enumerate(elems) if el.layer is Layer.TANGIBLE
    )
    return make_semiring(
        names, zero, one, add_t, mul_t, nu_t, tangible
    )


def superboolean() -> FiniteNuSemiring:
    elems = [zero_of(TRIVIAL), one_of(TRIVIAL), kernel_nu(one_of(TRIVIAL))]
    return _from_kernel(elems, ["b0", "b1", "b1v"])


def _chain_names(n: int) -> list[str]:
    names = ["0", "1", "1v"]
    for k in range(1, n):
        base = "a" if k == 1 else f"a{k}"
        names += [base, base + "v"]
    return names


def _str_of_chain(monoid: ValueMonoid, n: int) -> FiniteNuSemiring:
    elems: list[NuElement] = [zero_of(monoid)]
    for v in range(n):
        elems.append(kernel_tangible(monoid, v))
        elems.append(ghost(monoid, v))
    return _from_kernel(elems, _chain_names(n))


def str_chain(n: int) -> FiniteNuSemiring:
    """Semiring of the n-element join chain, collision-ghosted."""
    if n < 1:
        raise PreconditionError("chain length must be positive")
    return _str_of_chain(chain_monoid(n, "max"), n)


def str_trunc(n: int) -> FiniteNuSemiring:
    """Semiring of the n-step truncated addition chain, collision-ghosted."""
    if n < 1:
        raise PreconditionError("chain length must be positive")
    return _str_of_chain(chain_monoid(n, "trunc"), n)


def _assemble_blocks(
    level_tangibles: Sequence[Sequence[str]],
    ghost_names: Sequence[str],
    tan_mul: Mapping[tuple[str, str], str],
) -> FiniteNuSemiring:
    """Carrier from a chain of nu-levels with named tangible fibers.

    Addition is determined by the level chain; multiplication of two
    tangibles is looked up symmetrically in tan_mul and may land on a
    ghost (a collision), anything else ghosts at the joined level.
    """
    names = ["0"]
    level = {"0": -1}  # zero sits below every level
    tangibles: set[str] = set()
    for k, fiber in enumerate(level_tangibles):
        for t in fiber:
            names.append(t)
            level[t] = k
            tangibles.add(t)
        names.append(ghost_names[k])
        level[ghost_names[k]] = k
    pos = {name: i for i, name in enumerate(names)}

    def mul_name(x: str, y: str) -> str:
        if x == "0" or y == "0":
            return "0"
        lev = max(level[x], level[y])
        if x in tangibles and y in tangibles:
            out = tan_mul.get((x, y)) or tan_mul[(y, x)]
            assert level[out] == lev, "product level mismatch"
            return out
        return ghost_names[lev]

    def nu_name(x: str) -> str:
        return x if x == "0" else ghost_names[level[x]]

    def add_name(x: str, y: str) -> str:
        if level[x] != level[y]:
            return x if level[x] > level[y] else y
        return nu_name(x)

    add_t, mul_t, nu_t = _op_tables(names, pos, add_name, mul_name, nu_name)
    return make_semiring(
        names, 0, pos["1"], add_t, mul_t, nu_t, frozenset(pos[t] for t in tangibles)
    )


def flat_idempotent() -> FiniteNuSemiring:
    """{0, 1, t, 1v} with an idempotent non-unit sharing 1's nu-value."""
    return _assemble_blocks(
        [("1", "t")],
        ("1v",),
        {("1", "1"): "1", ("1", "t"): "t", ("t", "t"): "t"},
    )


def unit_pair() -> FiniteNuSemiring:
    """{0, 1, u, 1v} with an order-two unit."""
    return _assemble_blocks(
        [("1", "u")],
        ("1v",),
        {("1", "1"): "1", ("1", "u"): "u", ("u", "u"): "1"},
    )


def ghost_tower() -> FiniteNuSemiring:
    """flat_idempotent extended by a strictly higher pure ghost gv."""
    return _assemble_blocks(
        [("1", "t"), ()],
        ("1v", "gv"),
        {("1", "1"): "1", ("1", "t"): "t", ("t", "t"): "t"},
    )


def mixed_units() -> FiniteNuSemiring:
    """{0, 1, u, t, 1v}: an order-two unit and an idempotent absorbing it."""
    return _assemble_blocks(
        [("1", "u", "t")],
        ("1v",),
        {
            ("1", "1"): "1",
            ("1", "u"): "u",
            ("1", "t"): "t",
            ("u", "u"): "1",
            ("u", "t"): "t",
            ("t", "t"): "t",
        },
    )


def two_level(tangible_product: bool) -> FiniteNuSemiring:
    """Six elements over two nu-levels; t*a may stay tangible or collide."""
    return _assemble_blocks(
        [("1", "t"), ("a",)],
        ("1v", "av"),
        {
            ("1", "1"): "1",
            ("1", "t"): "t",
            ("1", "a"): "a",
            ("t", "t"): "t",
            ("t", "a"): "a" if tangible_product else "av",
            ("a", "a"): "av",
        },
    )


def bundled_suite() -> tuple[tuple[str, FiniteNuSemiring], ...]:
    """Named carriers exercised by the cross-module test batteries."""
    return (
        ("superboolean", superboolean()),
        ("str-chain:2", str_chain(2)),
        ("str-trunc:3", str_trunc(3)),
        ("flat-idempotent", flat_idempotent()),
        ("unit-pair", unit_pair()),
        ("ghost-tower", ghost_tower()),
        ("mixed-units", mixed_units()),
        ("two-level-t", two_level(True)),
        ("two-level-g", two_level(False)),
    )


def permute_semiring(
    R: FiniteNuSemiring, perm: Sequence[int]
) -> FiniteNuSemiring:
    """Isomorphic copy with element i renumbered to perm[i]."""
    inv = [0] * R.size
    for i, p in enumerate(perm):
        inv[p] = i
    add_t, mul_t, nu_t = _op_tables(inv, perm, R.add, R.mul, R.nu)
    return FiniteNuSemiring(
        tuple(R.names[i] for i in inv),
        perm[R.zero],
        perm[R.one],
        add_t,
        mul_t,
        nu_t,
        frozenset(perm[a] for a in R.tangible),
        frozenset(perm[a] for a in R.prudent),
    )


def random_semiring(seed: int) -> FiniteNuSemiring:
    """Seeded 4-6 element carrier from the verified structured family."""
    rng = random.Random(seed)
    template = rng.choice(
        [
            flat_idempotent(),
            unit_pair(),
            ghost_tower(),
            mixed_units(),
            str_chain(2),
            two_level(True),
            two_level(False),
        ]
    )
    perm = list(range(template.size))
    rng.shuffle(perm)
    return permute_semiring(template, perm)


def builtin_semiring(spec: str) -> FiniteNuSemiring:
    """Carrier named on the command line: builtin, sized, or seeded.

    Sized chains longer than MAX_CHAIN raise BoundError before any
    table is built.
    """
    if spec == "superboolean":
        return superboolean()
    for prefix, builder in (("str-chain:", str_chain), ("str-trunc:", str_trunc)):
        if spec.startswith(prefix):
            try:
                n = int(spec[len(prefix):])
                if n <= MAX_CHAIN:
                    return builder(n)
            except ValueError:
                raise ParseError(f"bad chain length in {spec!r}") from None
            raise BoundError(
                f"chain length {n} in {spec!r} exceeds MAX_CHAIN = {MAX_CHAIN}"
            )
    if spec.startswith("random:"):
        try:
            return random_semiring(int(spec[len("random:"):]))
        except ValueError:
            raise ParseError(f"bad seed in {spec!r}") from None
    for name, carrier in bundled_suite():
        if spec == name:
            return carrier
    raise ParseError(f"unknown carrier {spec!r}")
