"""Slow, independent polynomial oracles shared by the test modules.

Essentiality: two Fourier-Motzkin eliminations per term on Fraction
rows, one for the strict and one for the weak dominance system, each
row carrying its own strictness flag.  It shares no elimination code
with supertrop.poly, only the Essentiality labels, so the library's
one-pass classification can be checked against it.

Powers: n multiplications in a row, left to right, so the library's
repeated squaring can be checked against the plain product.
"""

from fractions import Fraction
from typing import Iterable, Sequence

from supertrop.core import RATIONAL, one_of
from supertrop.errors import PreconditionError
from supertrop.poly import Essentiality, Exponent, TropPoly, p_const, p_mul

Ineq = tuple[tuple[Fraction, ...], Fraction, bool]  # coeffs . x >= rhs (> if strict)


def _feasible(ineqs: Iterable[Ineq], nvars: int) -> bool:
    cur = list(set(ineqs))
    for k in range(nvars - 1, -1, -1):
        lowers: list[Ineq] = []
        uppers: list[Ineq] = []
        rest: list[Ineq] = []
        for item in cur:
            ck = item[0][k]
            if ck > 0:
                lowers.append(item)
            elif ck < 0:
                uppers.append(item)
            else:
                rest.append(item)
        for cl, bl, sl in lowers:
            for cu, bu, su in uppers:
                al, au = cl[k], -cu[k]
                coeffs = tuple(au * cl[i] + al * cu[i] for i in range(nvars))
                rest.append((coeffs, au * bl + al * bu, sl or su))
        cur = list(set(rest))
    for _, rhs, strict in cur:
        if strict:
            if rhs >= 0:
                return False
        elif rhs > 0:
            return False
    return True


def _dominance_system(
    exps: Sequence[Exponent],
    values: Sequence[Fraction],
    i: int,
    strict: bool,
) -> list[Ineq]:
    """Inequalities stating that term i attains the maximum.

    Strict mode additionally requires every other term to fall
    strictly below.
    """
    out: list[Ineq] = []
    ei, vi = exps[i], values[i]
    for j, (ej, vj) in enumerate(zip(exps, values)):
        if j == i:
            continue
        coeffs = tuple(Fraction(a - b) for a, b in zip(ei, ej))
        out.append((coeffs, vj - vi, strict))
    return out


def essential_exponents(f: TropPoly) -> dict[Exponent, Essentiality]:
    """Classify each exponent by how its term meets the upper envelope.

    Unreachable exponents never attain the maximum at any tangible
    point and do not affect the function.  Requires f nonzero.
    """
    if f.is_zero:
        raise PreconditionError("zero polynomial has no essential exponents")
    exps = [e for e, _ in f.terms]
    values = [c.value for _, c in f.terms]
    out: dict[Exponent, Essentiality] = {}
    for i, exp in enumerate(exps):
        if _feasible(_dominance_system(exps, values, i, strict=True), f.nvars):
            out[exp] = Essentiality.STRICTLY_ESSENTIAL
        elif _feasible(_dominance_system(exps, values, i, strict=False), f.nvars):
            out[exp] = Essentiality.TIE_ONLY
        else:
            out[exp] = Essentiality.UNREACHABLE
    return out


def p_pow(f: TropPoly, n: int) -> TropPoly:
    if n < 0:
        raise ValueError("negative power")
    out = p_const(f.nvars, one_of(RATIONAL))
    for _ in range(n):
        out = p_mul(out, f)
    return out
