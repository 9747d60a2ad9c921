"""A structurally wide corpus of valid carriers, one per isomorphism class.

The bundled carriers and str-chain/str-trunc 1..5 are closed under two
operations: the quotient by every q-congruence other than the diagonal,
and the localization at the powers of each prudent element together
with one.  Every output that validates is kept unless it is isomorphic
to a carrier already found.  The closure is deterministic and built
once per test session.
"""

from functools import lru_cache

from supertrop.congr import (
    FLAG_Q,
    FiniteNuSemiring,
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
