"""Finite ghost-augmented semirings given by tables, and their congruences.

A carrier is a finite commutative semiring with a ghost map nu, a
distinguished tangible subset and a prudent subset of it.  Everything
is indexed: elements are 0..n-1, tables are nested tuples, so carriers
hash and compare structurally and serialize to stable JSON.

Congruences replace ideals here: the ghost cluster iG (elements
identified with their own ghost) plays the role of the vanishing set,
and the tangible cluster iT collects elements whose whole class stays
tangible.  On a valid carrier the two clusters partition the carrier
(the proof is in classify), as a prime ideal and its complement do.
classify recognizes the kinds that a congruence decides alone: the
q-congruences keep every unit's class tangible, the l-congruences have
a multiplicatively closed iT, and the nu-primes forbid ghost products
of non-ghost factors.  By the partition, the nu-primes are exactly the
l-congruences, and a congruence is determined (no class mixes
tangibles with ghosts) exactly when its ghost cluster is ghost0.

The principal congruences Cg(a, b), each a worklist closure over
union-find, and one join search over them serve two ends.  From the
diagonal the search reaches the whole congruence lattice, at a cost in
the number of congruences rather than of set partitions; it is built
anew on each enumeration and kept nowhere.  From the ghostify of each
candidate ghost cluster it reaches exactly the nu-primes (the proof is
in FiniteNuSemiring._primes), so the points need no lattice, nor do
the flags relative to them and the Jacobson radical, which spectra
reads from them.  Both stay exact and gated by
the same size bound.  A carrier object computes its validity report,
its principals and its points once, on first use, as plain ints that
are freed with it; an equal but distinct carrier computes its own.
The nu-radicals need no lattice either: each is a closure that
ghostifies ghostpotent elements until none is left, so no size bound
caps them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property, reduce
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
# N = 32 (65 elements) takes about 0.1 s to build and 0.1 s to validate
# (a 2-core x86-64 Linux VM, Python 3.11)
MAX_CHAIN = 32

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
        return frozenset(a for a, v in enumerate(self.nu_table) if v == a)

    @cached_property
    def units(self) -> frozenset[int]:
        return frozenset(
            a for a, row in enumerate(self.mul_table) if self.one in row
        )

    @cached_property
    def validity(self) -> ValidationReport:
        """The axiom battery's report, run once for this carrier object."""
        return validate(self)

    @cached_property
    def _principals(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """Each principal congruence Cg(a, b) as reps, with a pair (a, b)
        that generates it.  Read it only past validity, which
        cong_closure needs."""
        return {
            cong_closure(self, [(a, b)]).reps: (a, b)
            for a in range(self.size) for b in range(a + 1, self.size)
        }

    @cached_property
    def _primes(self) -> tuple[tuple[int, ...], ...]:
        """The nu-primes as sorted reps, each found above its ghost
        cluster.  Read it only past validity, which the proof needs.

        For each m let F(m) be the divisors of the powers of m, with 1
        included, and P its complement.  The candidates are the P that
        contain ghost0 (so m lies outside it).  From ghostify(R, P) the
        search joins with principals and keeps each join whose ghost
        cluster is still P, that is, in which no member of F(m) has
        turned ghost, since iG only grows along joins.

        Every nu-prime theta is found.  iG(theta) is an ideal (a ~ nu(a)
        gives ab ~ nu(a)b = nu(ab)), so its complement iT(theta) (the
        partition lemma in classify) is saturated: ab in iT puts a
        and b in iT.  iT is multiplicatively closed, since theta is an
        l-congruence, and holds 1.  A saturated multiplicative set T of
        a finite commutative monoid is F(m) for m the product of T
        (Grillet, Commutative Semigroups, 2001): each member of T
        divides m, and a divisor of a power of m lies in T.  m is in iT,
        so outside ghost0, and P = iG(theta), the complement of F(m),
        contains ghost0.  theta ghostifies P, so it lies above
        ghostify(R, P) and is the join of that congruence with the
        principals Cg(a, b) of its own pairs.  iG is monotone, so every
        partial join has ghost cluster P and is kept: the search
        reaches theta.

        Only nu-primes are found.  The start ghostify(R, P) has ghost
        cluster exactly P.  F(m) is saturated, so P is an ideal.  Let E
        put each ghost g in one class with the x in P for which nu(x) =
        g.  E is a congruence.  Addition is fixed by the ghost chain
        (nu-order-total, nm-dominance, nm-tie, nm-zero), so for x in P
        and any c, x + c and nu(x) + c are x and nu(x) again, or both c,
        or both nu(x).  And xc with nu(x)c = nu(xc) is a pair of E, as
        xc lies in P.  So ghostify(R, P) = E, in which each member of
        F(m) is alone in its class.  Every join kept has ghost cluster
        P as well.  So everything found has tangible cluster F(m) by the
        partition lemma, which is multiplicatively closed and holds the
        units (they divide 1).  So it is an l-congruence, which is the
        same thing as a nu-prime.
        """
        M, N, g0 = self.mul_table, self.nu_table, self.ghost0
        found: set[tuple[int, ...]] = set()
        for m in range(self.size):
            divided = self.powers_of(m) | {self.one}
            F = frozenset(a for a, row in enumerate(M) if not divided.isdisjoint(row))
            P = frozenset(range(self.size)) - F
            if g0 <= P:
                found |= _joins(
                    self, ghostify(self, P).reps,
                    lambda reps: all(reps[a] != reps[N[a]] for a in F),
                )
        return tuple(sorted(found))

    def ghost_divisors(self) -> frozenset[int]:
        """Non-ghost elements with a non-ghost cofactor ghosting the product."""
        g0 = self.ghost0
        live = [a for a in range(self.size) if a not in g0]
        return frozenset(
            a for a in live if any(self.mul_table[a][b] in g0 for b in live)
        )

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
    is formatted only for a failure.  The checks read the tables, not
    the element methods.

    The cubic checks gate each row a, as in Light's associativity test
    for Cayley tables: one comparison of two lists of tuples tests
    (a . b) . c = a . (b . c), or a * (b + c) = a * b + a * c, for
    every b and c at once.  Only a row that fails the gate is scanned
    entry by entry, in the order of the plain triple loop.  A row that
    passes has no counterexample, so every witness, and the whole
    report, is the triple loop's.  The gate may flag a row that has
    none (list rows never equal tuple rows); that costs time, not a
    witness.
    """
    n = R.size
    rng = range(n)
    nm = R.names
    A, M, N = R.add_table, R.mul_table, R.nu_table
    zero, one, e = R.zero, R.one, R.e
    tan, g0 = R.tangible, R.ghost0
    failures: list[tuple[str, str]] = []
    checked: list[str] = []

    def check(name: str, witnesses: Iterable[str]) -> None:
        checked.append(name)
        witness = next(iter(witnesses), None)
        if witness is not None:
            failures.append((name, witness))

    def associative(T: Sequence[Sequence[int]], op: str) -> Iterable[str]:
        for a, Ta in enumerate(T):
            if [T[x] for x in Ta] != [tuple(map(Ta.__getitem__, Tb)) for Tb in T]:
                yield from (
                    f"({nm[a]} {op} {nm[b]}) {op} {nm[c]}"
                    for b in rng for c in rng if T[Ta[b]][c] != Ta[T[b][c]]
                )

    def distributive() -> Iterable[str]:
        for a, Ma in enumerate(M):
            if [tuple(map(Ma.__getitem__, Ab)) for Ab in A] != [
                tuple(map(A[x].__getitem__, Ma)) for x in Ma
            ]:
                yield from (
                    f"{nm[a]} * ({nm[b]} + {nm[c]})"
                    for b in rng for c in rng
                    if Ma[A[b][c]] != A[Ma[b]][Ma[c]]
                )

    check("add-commutative", (
        f"{nm[a]} + {nm[b]}"
        for a in rng for b in rng if A[a][b] != A[b][a]
    ))
    check("add-associative", associative(A, "+"))
    check("add-identity", (
        f"{nm[a]} + 0" for a in rng if A[a][zero] != a
    ))
    check("mul-commutative", (
        f"{nm[a]} * {nm[b]}"
        for a in rng for b in rng if M[a][b] != M[b][a]
    ))
    check("mul-associative", associative(M, "*"))
    check("mul-identity", (
        f"{nm[a]} * 1" for a in rng if M[a][one] != a
    ))
    check("mul-zero", (
        f"{nm[a]} * 0" for a in rng if M[a][zero] != zero
    ))
    check("distributive", distributive())
    check("nu-is-e-multiple", (
        f"nu({nm[a]})" for a in rng if N[a] != M[e][a]
    ))
    check("nu-idempotent", (
        f"nu(nu({nm[a]}))" for a in rng if N[N[a]] != N[a]
    ))
    check("nu-kernel-trivial", (
        f"nu({nm[a]}) = 0" for a in rng if N[a] == zero and a != zero
    ))
    check("tangible-partition", (
        witness
        for witness, bad in (
            ("zero tangible", zero in tan),
            ("one not tangible", one not in tan),
            ("tangible meets ghost", bool(tan & g0)),
        )
        if bad
    ))
    check("ghost-ideal", (
        f"{nm[a]} * {nm[g]}"
        for a in rng for g in g0 if M[a][g] not in g0
    ))
    check("nu-order-total", (
        f"nu({nm[a]}) + nu({nm[b]})"
        for a, na in enumerate(N) for b, nb in enumerate(N)
        if A[na][nb] not in (na, nb)
    ))
    check("nm-dominance", (
        f"{nm[a]} + {nm[b]}"
        for a, na in enumerate(N) for b, nb in enumerate(N)
        if na != nb and A[na][nb] == na and A[a][b] != a
    ))
    check("nm-tie", (
        f"{nm[a]} + {nm[b]}"
        for a, na in enumerate(N) for b, nb in enumerate(N)
        if na == nb and A[a][b] != na
    ))
    check("nm-zero", (
        f"{nm[a]} + {nm[b]}"
        for a in rng if N[a] == zero for b in rng if A[a][b] != b
    ))
    check("prudent-powers", (
        f"{nm[a]}^k" for a in R.prudent if not R.powers_of(a) <= R.prudent
    ))
    check("prudent-maximal", (
        ["prudent differs from the maximal admissible set"]
        if R.prudent != computed_prudent(M, tan)
        else []
    ))
    check("units-prudent", (
        f"unit {nm[u]}" for u in R.units if u not in R.prudent
    ))
    check("tangible-sum-stability", (
        f"{nm[a]} + nu({nm[b]})"
        for a, Aa in enumerate(A) for b, s in enumerate(Aa)
        if s in tan and s != a and s != b and Aa[N[b]] in g0
    ))
    # every tangible c + nu(d), found once for all m
    decomposable = {A[c][N[d]] for c in tan for d in tan}
    check("tame", (
        f"{nm[m]} has no tangible c + nu(d) decomposition"
        for m in rng
        if m not in tan and m not in g0 and m not in decomposable
    ))
    return ValidationReport(
        not failures, tuple(failures), tuple(checked)
    )


def require_valid(R: FiniteNuSemiring, what: str = "carrier") -> None:
    """The one validity gate, for inputs and for built carriers alike."""
    if not R.validity.passed:
        raise PreconditionError(
            f"{what} fails validation: " + ", ".join(R.validity.failed_checks())
        )


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


def _in_range(what: str, n: int, indices: Iterable[int]) -> frozenset[int]:
    """The indices as a set, each checked to name one of n things."""
    out = frozenset(indices)
    for i in out:
        if not (0 <= i < n):
            raise PreconditionError(f"no {what} with index {i}")
    return out


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
    _in_range("carrier element", R.size, (x for pair in work for x in pair))
    while work:
        a, b = work.pop()
        if _union(parent, a, b):
            work.extend(zip(add_t[a], add_t[b]))
            work.extend(zip(mul_t[a], mul_t[b]))
    return Congruence(R, _canonical_reps(parent))


def ghostify(R: FiniteNuSemiring, elements: Iterable[int]) -> Congruence:
    """Least congruence making every given element a ghost."""
    elements = _in_range("carrier element", R.size, elements)
    return cong_closure(R, [(b, R.nu(b)) for b in elements])


def cong_intersect(*congs: Congruence) -> Congruence:
    """Meet of congruences, all on the carrier of the first."""
    if not congs:
        raise ValueError("need at least one congruence")
    R = congs[0].semiring
    for theta in congs:
        _require_on(R, theta)
    keys = [tuple(c.reps[i] for c in congs) for i in range(R.size)]
    return Congruence(R, _reps_by_key(keys))


def is_congruence(R: FiniteNuSemiring, reps: Sequence[int]) -> bool:
    """Whether the partition given by reps is compatible with + and *.

    Each element's row of each table, read through reps, must equal
    its representative's; by transitivity that covers every pair in a
    class.
    """
    return all(
        [reps[x] for x in T[a]] == [reps[x] for x in T[ra]]
        for T in (R.add_table, R.mul_table)
        for a, ra in enumerate(reps) if ra != a
    )


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


def _joins(R: FiniteNuSemiring, start: tuple[int, ...], keep: Callable) -> set[tuple]:
    """start and its joins with principal congruences, repeated from
    every join that keep accepts; all as reps.

    A join is tried only with a principal not yet below it, and only
    the joins keep accepts are kept and joined further.
    """
    found, todo = {start}, [start]
    while todo:
        theta = todo.pop()
        for p, (a, b) in R._principals.items():
            if theta[a] != theta[b]:
                joined = _join(theta, p)
                if joined not in found and keep(joined):
                    found.add(joined)
                    todo.append(joined)
    return found


def _all_congruences(R: FiniteNuSemiring) -> tuple[Congruence, ...]:
    """The whole lattice: the diagonal, the principal congruences
    Cg(a, b), and their joins (Freese, "Computing congruences
    efficiently", Algebra Universalis 59, 2008).

    Every congruence is the join of the principals of its pairs, so
    joining from the diagonal with every principal not yet below
    reaches them all, at a cost in the lattice size, not in Bell(n).
    The lattice is built on each call and kept nowhere.
    """
    lattice = _joins(R, tuple(range(R.size)), lambda reps: True)
    return tuple(Congruence(R, reps) for reps in sorted(lattice))


def classify(R: FiniteNuSemiring, theta: Congruence) -> frozenset[str]:
    """The flags that theta decides alone, for a congruence of a valid
    carrier.  TanglyMinimal and MaximalL are relative to the whole
    l-congruence family, the points, so Spectrum.flags_of adds them;
    nothing here searches.

    The flags rest on one lemma: iT(theta) and iG(theta) partition the
    carrier.  Every element is tangible or in ghost0: tame writes any
    other element m as c + nu(d) with c and d tangible, and
    nu-order-total, nm-dominance and nm-tie put that sum in
    {c, nu(c), nu(d)}.  So a class that is not all tangible holds some
    g = nu(g), and a ~ g gives nu(a) = e*a ~ e*g = g ~ a: the whole
    class lies in iG.  tangible-partition makes the clusters disjoint.

    Two corollaries.  theta is a nu-prime exactly when it is an
    l-congruence: a, b outside iG means a, b in iT, so "ab in iG forces
    a or b in iG" is "iT is multiplicatively closed".  And theta is
    determined (each class all tangible or all in ghost0) exactly when
    iG(theta) = ghost0, since ghost0 always lies in iG and a class
    outside iT lies in iG.
    """
    _require_on(R, theta)
    require_valid(R)
    iT, iG = theta.iT, theta.iG
    flags: set[str] = set()
    if theta.contains(R.one, R.nu(R.one)):
        flags.add(FLAG_GHOST)
    q = R.units <= iT
    if q:
        flags.add(FLAG_Q)
    if q and all(R.mul(a, b) in iT for a in iT for b in iT):
        flags |= {FLAG_L, FLAG_PRIME}
    if q and ghostpotent_over(R, iG) <= iG:
        flags.add(FLAG_RADICAL)
    if iG == R.ghost0:
        flags.add(FLAG_DETERMINED)
    return frozenset(flags)


def enumerate_congruences(
    R: FiniteNuSemiring,
    bound: int = DEFAULT_BOUND,
    kind: Optional[str] = None,
) -> tuple[Congruence, ...]:
    """All congruences, optionally only those that classify flags with
    kind; the lattice is built on every call.  The flags relative to
    the points are the spectrum's, so they are no kind here."""
    if kind in (FLAG_TANGLY_MINIMAL, FLAG_MAXIMAL_L):
        raise PreconditionError(f"{kind} is relative to the spectrum: use Spectrum.flags_of")
    _require_within(R, bound)
    return tuple(
        c for c in _all_congruences(R) if kind is None or kind in classify(R, c)
    )


def _require_within(R: FiniteNuSemiring, bound: int) -> None:
    """Gate of the two exponential searches, the lattice in
    enumerate_congruences and the points in nu_primes: the size bound,
    then validity, which cong_closure needs since it translates pairs
    on the right only."""
    if R.size > bound:
        raise BoundError(
            f"carrier has {R.size} elements, enumeration bound is {bound}"
        )
    require_valid(R)


def _require_on(R: FiniteNuSemiring, theta: Congruence) -> None:
    if theta.semiring is not R and theta.semiring != R:
        raise PreconditionError("congruence lives on the wrong carrier")


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
    _require_on(R, theta)
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
    require_valid(out, "quotient")
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
    C = sorted(_in_range("carrier element", R.size, C))
    if R.one not in C:
        raise PreconditionError("localization set must contain one")
    stray = [c for c in C if c not in R.prudent]
    if stray:
        raise PreconditionError(
            "localization only by prudent elements; offending: "
            + ", ".join(R.names[c] for c in stray)
        )
    M = R.mul_table
    for c in C:
        for d in C:
            if M[c][d] not in C:
                raise PreconditionError(
                    "localization set is not multiplicatively closed: "
                    f"{R.names[c]} * {R.names[d]} escapes"
                )

    def product(xs: Iterable[int]) -> int:
        return reduce(lambda x, y: M[x][y], xs, R.one)

    # the key a*r_c*s^2 is s2_row[rest_row[a]], by commutativity
    s2_row = M[product(C * 2)]
    rest_rows = [(c, M[product(d for d in C if d != c)]) for c in C]
    by_key: dict[int, list[tuple[int, int]]] = {}
    for a in range(R.size):
        for c, rest_row in rest_rows:
            by_key.setdefault(s2_row[rest_row[a]], []).append((a, c))
    classes = list(by_key.values())
    cls = {p: k for k, members in enumerate(classes) for p in members}

    def name_of(members: list[tuple[int, int]]) -> str:
        ghostly = [p for p in members if p[0] not in R.tangible]
        a, c = min(ghostly or members)
        return R.names[a] if c == R.one else f"{R.names[a]}/{R.names[c]}"

    A, N = R.add_table, R.nu_table
    add_t, mul_t, nu_t = _op_tables(
        [members[0] for members in classes],
        cls,
        lambda p, q: (A[M[p[0]][q[1]]][M[q[0]][p[1]]], M[p[1]][q[1]]),
        lambda p, q: (M[p[0]][q[0]], M[p[1]][q[1]]),
        lambda p: (N[p[0]], p[1]),
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
    require_valid(out, "localization")
    return out, tuple(cls[(a, R.one)] for a in range(R.size))


# -- radicals -----------------------------------------------------------


# what crad and srad return when a unit's class leaves the tangible
# cluster, the same as no nu-prime containing theta (crad proves one
# direction, the tests check the other); and what spectra.jac returns
# when no maximal l-congruence contains theta
EMPTY_RADICAL = None


def nu_primes(
    R: FiniteNuSemiring, bound: int = DEFAULT_BOUND
) -> tuple[Congruence, ...]:
    """The nu-primes in canonical order, found without the lattice
    (FiniteNuSemiring._primes); the size bound still gates them."""
    _require_within(R, bound)
    return tuple(Congruence(R, reps) for reps in R._primes)


def crad(R: FiniteNuSemiring, theta: Congruence) -> Optional[Congruence]:
    """Radical of theta: the least radical q-congruence above it, or
    None when a unit's class leaves the tangible cluster on the way.

    The closure joins theta with ghostify of the elements that have a
    power in iG(theta) but are not in it, until none is left, which is
    exactly when theta carries the Radical flag.  iT only shrinks as
    theta grows, so once a unit leaves it no later step brings it back.

    The classical relation is that this is the meet of the nu-primes
    containing theta.  Half of it is proved.  Let P be a q-congruence
    over the current theta whose ghost cluster holds every element with
    a power in it: a radical one, or a nu-prime, whose iG is a prime
    ideal.  An element with a power in iG(theta), a subset of iG(P),
    lies in iG(P); ghostify of such elements is below P, and so is its
    join with theta.  Hence the result is below every such P, so it is
    the least radical q-congruence over theta and lies below the meet
    of the primes over theta.  If a unit leaves iT(theta), it leaves
    iT(P) too, since iT only shrinks; so no such P contains theta, and
    the meet of the primes is None as well.

    The converse is not proved.  In R/rad(theta) the ghost cluster is a
    radical monoid ideal, so for x outside it an ideal maximal among
    those containing it and avoiding the powers of x is prime (Grillet,
    Commutative Semigroups, 2001).  But ghostify of that ideal may
    ghost further elements through addition, and a prime must also
    keep apart the non-ghost pairs that rad(theta) keeps apart, so the
    argument does not yield a nu-prime.  The converse, None included,
    is checked against the meet of the primes on the test corpora.
    """
    _require_on(R, theta)
    require_valid(R)
    while R.units <= theta.iT:
        grown = ghostpotent_over(R, theta.iG) - theta.iG
        if not grown:
            return theta
        theta = Congruence(R, _join(theta.reps, ghostify(R, grown).reps))
    return EMPTY_RADICAL


def srad(R: FiniteNuSemiring, elements: Iterable[int]) -> Optional[Congruence]:
    """Radical of a ghostified element set: crad of ghostify(R,
    elements)."""
    return crad(R, ghostify(R, elements))


def ghostpotent_over(R: FiniteNuSemiring, G: frozenset[int]) -> frozenset[int]:
    """The elements some power of which lies in G."""
    return frozenset(a for a in range(R.size) if R.powers_of(a) & G)


def gprad(R: FiniteNuSemiring) -> frozenset[int]:
    """Ghostpotent elements: some power falls into the ghost ideal."""
    return ghostpotent_over(R, R.ghost0)


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
    for a, b in enumerate(f):
        if not isinstance(b, int) or not 0 <= b < S.size:
            return f"mapping entry out of range at {R.names[a]}"
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
    _require_on(phi.dst, theta)
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


def _typed(value, kind: type, what: str):
    """value, which the JSON must give as an array (list) or object (dict)."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} is not an {'array' if kind is list else 'object'}")
    return value


def semiring_from_json(text: str) -> FiniteNuSemiring:
    obj = _loads(text)
    try:
        names = tuple(_typed(obj["elements"], list, "elements"))
        for name in names:
            if not isinstance(name, str):
                raise ParseError(f"element name {json.dumps(name)} is not a string")
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

        def table(key: str) -> tuple[tuple[int, ...], ...]:
            return tuple(
                tuple(look(v) for v in _typed(row, list, f"a row of {key}"))
                for row in _typed(obj[key], list, key)
            )

        add_t, mul_t = table("add"), table("mul")
        nu_map = _typed(obj["nu"], dict, "nu")
        nu_t = tuple(look(nu_map[name]) for name in names)
        R = FiniteNuSemiring(
            names,
            look(obj["zero"]),
            look(obj["one"]),
            add_t,
            mul_t,
            nu_t,
            frozenset(look(v) for v in _typed(obj["tangible"], list, "tangible")),
            frozenset(look(v) for v in _typed(obj["prudent"], list, "prudent")),
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
        seen: dict[int, int] = {}
        for members in _typed(obj["classes"], list, "classes"):
            if not _typed(members, list, "a class"):
                raise ValueError("a class is empty")
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


def _spec_number(text: str) -> int:
    """The number in a carrier spec, in its one plain spelling: ASCII
    decimal digits with no sign, space, underscore or leading zero, so
    that each carrier has one name.  Anything else is a ValueError."""
    if not (text.isascii() and text.isdigit()) or text != str(int(text)):
        raise ValueError(f"not a plain decimal: {text!r}")
    return int(text)


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
                n = _spec_number(spec[len(prefix):])
                if n <= MAX_CHAIN:
                    return builder(n)
            except ValueError:
                raise ParseError(f"bad chain length in {spec!r}") from None
            raise BoundError(
                f"chain length {n} in {spec!r} exceeds MAX_CHAIN = {MAX_CHAIN}"
            )
    if spec.startswith("random:"):
        try:
            return random_semiring(_spec_number(spec[len("random:"):]))
        except ValueError:
            raise ParseError(f"bad seed in {spec!r}") from None
    for name, carrier in bundled_suite():
        if spec == name:
            return carrier
    raise ParseError(f"unknown carrier {spec!r}")
