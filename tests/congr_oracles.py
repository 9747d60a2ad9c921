"""Slow, independent carrier oracles shared by the test modules.

The congruence oracles read only a carrier's tables and share no code
with supertrop.congr, so the library's lattice and closure can be
checked against them.  All return least-representative tuples (reps).

The last five are the library's former validate, which formatted a
witness for every case it checked, its former localize_finite, which
found the fraction classes by a pairwise union-find over all fraction
pairs, its former find_isomorphism, which scanned the permutations
within groups of same-profile elements, and the two power walks that
FiniteNuSemiring.powers_of and computed_prudent each ran on their own.
They are kept verbatim as differential references.

meet_crad is the library's former crad, the meet of the nu-primes over
a congruence.  Unlike the others it reads the library's points through
nu_primes; it is the reference for the closure radical.

flag_family is the lattice that a carrier once kept, filed under every
flag: the whole lattice under None, and the l-congruences' relative
flags read from the l-congruences of the lattice.  It reads the
library's lattice and classify, never its prime search, and is the
reference for nu_primes, spectra.jac, Spectrum.flags_of and
enumerate_congruences by kind.  relative_flags is the library's former
_relative_flags, kept verbatim, so that the relative flags share no
code with Spectrum.flags_of.

found_joins is the library's former _joins, kept verbatim: it tried
every principal on every congruence it reached and dropped repeats
through a growing found set.  It reads the library's principals and
_join, so it checks only the search order of the Close-by-One _joins.

scan_basic_flags is an earlier form of the flags in classify, which
tested NuPrime by a scan over all products landing in the ghost cluster
and Determined by a scan over the classes.  It is the reference for the
partition lemma that replaced both scans.
"""

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from supertrop.congr import (
    DEFAULT_BOUND,
    FLAG_DETERMINED,
    FLAG_GHOST,
    FLAG_L,
    FLAG_PRIME,
    FLAG_Q,
    FLAG_RADICAL,
    Congruence,
    FiniteNuSemiring,
    QHom,
    ValidationReport,
    FLAG_MAXIMAL_L,
    FLAG_TANGLY_MINIMAL,
    _all_congruences,
    _canonical_reps,
    _find,
    _join,
    _union,
    check_q_homomorphism,
    classify,
    computed_prudent,
    cong_intersect,
    ghostpotent_over,
    nu_primes,
    validate,
)
from supertrop.errors import PreconditionError


def all_partition_reps(n: int):
    """Least-representative tuples of every partition of range(n)."""
    out = []

    def grow(rgs: list[int]):
        if len(rgs) == n:
            first = {}
            rep = []
            for i, cls in enumerate(rgs):
                first.setdefault(cls, i)
                rep.append(first[cls])
            out.append(tuple(rep))
            return
        top = max(rgs) if rgs else -1
        for cls in range(top + 2):
            grow(rgs + [cls])

    grow([])
    return out


def brute_congruences(R):
    """Every partition compatible with both tables, by a Bell(n) scan."""
    reps_list = []
    rng_n = range(R.size)
    for rep in all_partition_reps(R.size):
        ok = True
        for a in rng_n:
            for b in rng_n:
                if rep[a] != rep[b]:
                    continue
                for c in rng_n:
                    if (
                        rep[R.add(a, c)] != rep[R.add(b, c)]
                        or rep[R.mul(a, c)] != rep[R.mul(b, c)]
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            reps_list.append(rep)
    return reps_list


def pruned_congruences(R):
    """The same set as brute_congruences, by a partition search that
    drops a branch once two elements placed in one block have placed
    translates in different blocks.  Fast enough for 13 elements."""
    n = R.size
    tables = (R.add_table, R.mul_table)
    block = [-1] * n
    out = []

    def consistent(i: int) -> bool:
        for a in range(i + 1):
            for b in range(a + 1, i + 1):
                if block[a] != block[b]:
                    continue
                for t in tables:
                    for x, y in zip(t[a], t[b]):
                        if x <= i and y <= i and block[x] != block[y]:
                            return False
        return True

    def grow(i: int, top: int):
        if i == n:
            first = {}
            out.append(tuple(first.setdefault(block[k], k) for k in range(n)))
            return
        for b in range(top + 2):
            block[i] = b
            if consistent(i):
                grow(i + 1, max(top, b))
        block[i] = -1

    grow(0, -1)
    return sorted(out)


def fixpoint_closure(R, pairs):
    """Least congruence holding the pairs: union-find plus full passes
    over every class until a pass merges nothing."""
    parent = list(range(R.size))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[max(ra, rb)] = min(ra, rb)
        return True

    for a, b in pairs:
        union(a, b)
    changed = True
    while changed:
        changed = False
        groups: dict[int, list[int]] = {}
        for i in range(R.size):
            groups.setdefault(find(i), []).append(i)
        for members in groups.values():
            base = members[0]
            for b in members[1:]:
                for c in range(R.size):
                    changed |= union(R.add(base, c), R.add(b, c))
                    changed |= union(R.mul(base, c), R.mul(b, c))
    return tuple(find(i) for i in range(R.size))


def partition_join(x, y):
    """Reps of the finest partition coarser than both x and y."""
    n = len(x)
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for rel in (x, y):
            for i in range(n):
                low = min(label[i], label[rel[i]])
                if label[i] != low or label[rel[i]] != low:
                    label[i] = label[rel[i]] = low
                    changed = True
    first = {}
    return tuple(first.setdefault(label[i], i) for i in range(n))


def eager_validate(R: FiniteNuSemiring) -> ValidationReport:
    """Run the axiom battery; report the first counterexample per check."""
    n = R.size
    rng = range(n)
    nm = R.names
    failures: list[tuple[str, str]] = []
    checked: list[str] = []

    def check(name: str, witness: Optional[str]) -> None:
        checked.append(name)
        if witness is not None:
            failures.append((name, witness))

    def first(pred_pairs) -> Optional[str]:
        for witness, ok in pred_pairs:
            if not ok:
                return witness
        return None

    check("add-commutative", first(
        (f"{nm[a]} + {nm[b]}", R.add(a, b) == R.add(b, a))
        for a in rng for b in rng
    ))
    check("add-associative", first(
        (f"({nm[a]} + {nm[b]}) + {nm[c]}",
         R.add(R.add(a, b), c) == R.add(a, R.add(b, c)))
        for a in rng for b in rng for c in rng
    ))
    check("add-identity", first(
        (f"{nm[a]} + 0", R.add(a, R.zero) == a) for a in rng
    ))
    check("mul-commutative", first(
        (f"{nm[a]} * {nm[b]}", R.mul(a, b) == R.mul(b, a))
        for a in rng for b in rng
    ))
    check("mul-associative", first(
        (f"({nm[a]} * {nm[b]}) * {nm[c]}",
         R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c)))
        for a in rng for b in rng for c in rng
    ))
    check("mul-identity", first(
        (f"{nm[a]} * 1", R.mul(a, R.one) == a) for a in rng
    ))
    check("mul-zero", first(
        (f"{nm[a]} * 0", R.mul(a, R.zero) == R.zero) for a in rng
    ))
    check("distributive", first(
        (f"{nm[a]} * ({nm[b]} + {nm[c]})",
         R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c)))
        for a in rng for b in rng for c in rng
    ))
    check("nu-is-e-multiple", first(
        (f"nu({nm[a]})", R.nu(a) == R.mul(R.e, a)) for a in rng
    ))
    check("nu-idempotent", first(
        (f"nu(nu({nm[a]}))", R.nu(R.nu(a)) == R.nu(a)) for a in rng
    ))
    check("nu-kernel-trivial", first(
        (f"nu({nm[a]}) = 0", a == R.zero)
        for a in rng if R.nu(a) == R.zero
    ))
    check("tangible-partition", first(
        [
            ("zero tangible", R.zero not in R.tangible),
            ("one not tangible", R.one in R.tangible),
            (
                "tangible meets ghost",
                not (R.tangible & R.ghost0),
            ),
        ]
    ))
    check("ghost-ideal", first(
        (f"{nm[a]} * {nm[g]}", R.mul(a, g) in R.ghost0)
        for a in rng for g in R.ghost0
    ))
    check("nu-order-total", first(
        (f"nu({nm[a]}) + nu({nm[b]})",
         R.add(R.nu(a), R.nu(b)) in (R.nu(a), R.nu(b)))
        for a in rng for b in rng
    ))
    check("nm-dominance", first(
        (f"{nm[a]} + {nm[b]}", R.add(a, b) == a)
        for a in rng for b in rng
        if R.nu(a) != R.nu(b) and R.add(R.nu(a), R.nu(b)) == R.nu(a)
    ))
    check("nm-tie", first(
        (f"{nm[a]} + {nm[b]}", R.add(a, b) == R.nu(a))
        for a in rng for b in rng
        if R.nu(a) == R.nu(b)
    ))
    check("nm-zero", first(
        (f"{nm[a]} + {nm[b]}", R.add(a, b) == b)
        for a in rng for b in rng
        if R.nu(a) == R.zero
    ))
    check("prudent-powers", first(
        (f"{nm[a]}^k", R.powers_of(a) <= R.prudent)
        for a in R.prudent
    ))
    check("prudent-maximal", first(
        [(
            "prudent differs from the maximal admissible set",
            R.prudent == computed_prudent(R.mul_table, R.tangible),
        )]
    ))
    check("units-prudent", first(
        (f"unit {nm[u]}", u in R.prudent) for u in R.units
    ))
    check("tangible-sum-stability", first(
        (f"{nm[a]} + nu({nm[b]})", R.add(a, R.nu(b)) not in R.ghost0)
        for a in rng for b in rng
        if R.add(a, b) in R.tangible and R.add(a, b) not in (a, b)
    ))
    mixed = [
        m for m in rng if m not in R.tangible and m not in R.ghost0
    ]
    check("tame", first(
        (
            f"{nm[m]} has no tangible c + nu(d) decomposition",
            any(
                R.add(c, R.nu(d)) == m
                for c in R.tangible for d in R.tangible
            ),
        )
        for m in mixed
    ))
    return ValidationReport(
        not failures, tuple(failures), tuple(checked)
    )


def pairwise_localize_finite(
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
    """
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

    pairs = [(a, c) for a in range(R.size) for c in C]
    idx = {p: i for i, p in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def related(p: tuple[int, int], q: tuple[int, int]) -> bool:
        (a, c), (a2, c2) = p, q
        return any(
            R.mul(R.mul(a, c2), c3) == R.mul(R.mul(a2, c), c3) for c3 in C
        )

    for i, p in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            if _find(parent, i) != _find(parent, j) and related(p, pairs[j]):
                _union(parent, i, j)

    root_of = _canonical_reps(parent)
    roots = sorted(set(root_of))
    class_no = {r: k for k, r in enumerate(roots)}
    of_pair = [class_no[r] for r in root_of]
    members: list[list[tuple[int, int]]] = [[] for _ in roots]
    for i, p in enumerate(pairs):
        members[of_pair[i]].append(p)

    tangible_cls = set()
    for k, mem in enumerate(members):
        if all(a in R.tangible for a, _ in mem):
            tangible_cls.add(k)

    def cls(a: int, c: int) -> int:
        return of_pair[idx[(a, c)]]

    def name_of(k: int) -> str:
        mem = members[k]
        if k not in tangible_cls:
            ghostly = [p for p in mem if p[0] not in R.tangible]
            if ghostly:
                mem = ghostly
        a, c = min(mem)
        if c == R.one:
            return R.names[a]
        return f"{R.names[a]}/{R.names[c]}"

    n = len(roots)
    add_t = []
    mul_t = []
    for i in range(n):
        a, c = members[i][0]
        row_a = []
        row_m = []
        for j in range(n):
            a2, c2 = members[j][0]
            row_a.append(
                cls(R.add(R.mul(a, c2), R.mul(a2, c)), R.mul(c, c2))
            )
            row_m.append(cls(R.mul(a, a2), R.mul(c, c2)))
        add_t.append(tuple(row_a))
        mul_t.append(tuple(row_m))
    nu_t = tuple(cls(R.nu(members[i][0][0]), members[i][0][1]) for i in range(n))

    out = FiniteNuSemiring(
        tuple(name_of(k) for k in range(n)),
        cls(R.zero, R.one),
        cls(R.one, R.one),
        tuple(add_t),
        tuple(mul_t),
        nu_t,
        frozenset(tangible_cls),
        computed_prudent(tuple(mul_t), frozenset(tangible_cls)),
    )
    report = validate(out)
    if not report.passed:
        raise PreconditionError(
            "localization fails validation: "
            + ", ".join(report.failed_checks())
        )
    tau = tuple(cls(a, R.one) for a in range(R.size))
    return out, tau


def scan_isomorphism(
    A: FiniteNuSemiring, B: FiniteNuSemiring
) -> Optional[tuple[int, ...]]:
    """A structure-preserving bijection as a tuple, or None.

    Brute force over permutations, pruned by matching each element
    profile (tangible, prudent, ghost, zero, one) across the two
    carriers.
    """
    if A.size != B.size:
        return None

    def profile(R: FiniteNuSemiring, a: int) -> tuple:
        return (
            a == R.zero,
            a == R.one,
            a in R.tangible,
            a in R.prudent,
            a in R.ghost0,
            len(R.powers_of(a)),
        )

    groups_a: dict[tuple, list[int]] = {}
    groups_b: dict[tuple, list[int]] = {}
    for a in range(A.size):
        groups_a.setdefault(profile(A, a), []).append(a)
    for b in range(B.size):
        groups_b.setdefault(profile(B, b), []).append(b)
    if set(groups_a) != set(groups_b):
        return None
    if any(len(groups_a[k]) != len(groups_b[k]) for k in groups_a):
        return None

    keys = sorted(groups_a)
    pools = [
        itertools.permutations(groups_b[k]) for k in keys
    ]
    for choice in itertools.product(*pools):
        f = [0] * A.size
        for k, perm in zip(keys, choice):
            for src, dst in zip(groups_a[k], perm):
                f[src] = dst
        mapping = tuple(f)
        if check_q_homomorphism(QHom(A, B, mapping)) is None:
            return mapping
    return None


def loop_powers_of(R: FiniteNuSemiring, a: int) -> frozenset[int]:
    """All distinct positive powers of a (the sequence cycles)."""
    seen = {a}
    cur = a
    while True:
        cur = R.mul(cur, a)
        if cur in seen:
            return frozenset(seen)
        seen.add(cur)


def loop_computed_prudent(mul_table, tangible: frozenset[int]) -> frozenset[int]:
    """Tangible elements all of whose powers stay tangible."""
    out = set()
    for a in tangible:
        cur = a
        seen = set()
        good = True
        while cur not in seen:
            seen.add(cur)
            if cur not in tangible:
                good = False
                break
            cur = mul_table[cur][a]
        if good:
            out.add(a)
    return frozenset(out)


def meet_crad(
    R: FiniteNuSemiring,
    theta: Congruence,
    bound: int = DEFAULT_BOUND,
) -> Optional[Congruence]:
    """Intersection of the nu-primes containing theta; None when no
    nu-prime contains theta."""
    containing = [c for c in nu_primes(R, bound) if theta.refines(c)]
    return cong_intersect(*containing) if containing else None


def scan_basic_flags(R: FiniteNuSemiring, theta: Congruence) -> set[str]:
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


def relative_flags(
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


# kept per carrier, since spectra_oracles.height asks once per point
@lru_cache(maxsize=4)
def flag_family(R: FiniteNuSemiring) -> dict[Optional[str], tuple[Congruence, ...]]:
    """The lattice under the key None, and filtered by each flag."""
    lattice = _all_congruences(R)
    flag_sets = [set(classify(R, c)) for c in lattice]
    l_congs = [c for c, flags in zip(lattice, flag_sets) if FLAG_L in flags]
    family: dict[Optional[str], list[Congruence]] = {}
    for c, flags in zip(lattice, flag_sets):
        if FLAG_L in flags:
            flags |= relative_flags(c, l_congs)
        for flag in (None, *flags):
            family.setdefault(flag, []).append(c)
    return {flag: tuple(cs) for flag, cs in family.items()}


def found_joins(R: FiniteNuSemiring, start: tuple[int, ...], keep: Callable) -> set[tuple]:
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
