"""A structurally wide corpus of valid carriers, one per isomorphism
class, and a family of carriers with many distinct tangible clusters.

The bundled carriers and str-chain/str-trunc 1..5 are closed under two
operations: the quotient by every q-congruence other than the diagonal,
and the localization at the powers of each prudent element together
with one.  Every output that validates is kept unless it is isomorphic
to a carrier already found.  The closure is deterministic and built
once per test session.

The corpus reaches Krull dimension 1 only: no carrier in it has more
than two distinct point clusters.  idempotent_carrier(k) reaches
dimension k with 2^k clusters.
"""

from functools import lru_cache
from itertools import combinations

from supertrop.congr import (
    FLAG_Q,
    FiniteNuSemiring,
    _assemble_blocks,
    bundled_suite,
    enumerate_congruences,
    find_isomorphism,
    localize_finite,
    quotient,
    str_chain,
    str_trunc,
    validate,
)
from supertrop.errors import PreconditionError


def _derived(R: FiniteNuSemiring) -> list[FiniteNuSemiring]:
    """The quotients and power localizations of R that validate."""
    out = []
    for theta in enumerate_congruences(R, R.size, FLAG_Q):
        if theta.reps != tuple(range(R.size)):
            try:
                out.append(quotient(R, theta)[0])
            except PreconditionError:
                pass
    for p in sorted(R.prudent):
        try:
            out.append(localize_finite(R, R.powers_of(p) | {R.one})[0])
        except PreconditionError:
            pass
    return out


@lru_cache(maxsize=None)
def wide_corpus() -> tuple[FiniteNuSemiring, ...]:
    """One carrier per isomorphism class of the closure, in the order
    found."""
    classes: list[FiniteNuSemiring] = []

    def is_new(R: FiniteNuSemiring) -> bool:
        if not validate(R).passed or any(
            C.size == R.size and find_isomorphism(C, R) is not None
            for C in classes
        ):
            return False
        classes.append(R)
        return True

    seeds = [R for _, R in bundled_suite()]
    seeds += [build(n) for n in range(1, 6) for build in (str_chain, str_trunc)]
    todo = [R for R in seeds if is_new(R)]
    while todo:
        todo += [D for D in _derived(todo.pop(0)) if is_new(D)]
    return tuple(classes)


def idempotent_carrier(k: int) -> FiniteNuSemiring:
    """The free idempotent commutative monoid on k generators, the
    subsets of k letters under union, as 2^k tangibles at one nu-level
    over the ghost 1v, with zero: 2^k + 2 elements.  The divisors of a
    subset are its subsets, so each subset is a point cluster, and the
    Krull dimension is k."""
    letters = "abcdefgh"[:k]
    subsets = [
        "".join(c) for r in range(k + 1) for c in combinations(letters, r)
    ]
    name = {s: s or "1" for s in subsets}
    product = {
        (name[x], name[y]): name["".join(sorted(set(x) | set(y)))]
        for x in subsets for y in subsets
    }
    return _assemble_blocks([[name[s] for s in subsets]], ("1v",), product)
