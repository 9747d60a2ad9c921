"""Polynomials over the rational ghost-augmented max-plus semiring.

A polynomial is a finite dict from exponent vectors to nonzero
coefficients.  Addition and multiplication follow the carrier
semiring, so equal powers merge by the carrier sum and products
distribute term by term.

Two distinct notions of sameness matter here.  Coefficient-wise
equality is the strictest.  Functional equality identifies
polynomials that evaluate identically on every point, including
points with ghost or zero coordinates.  ``canonicalize`` computes a
representative in between: unreachable terms are dropped and terms
that only ever tie for the maximum are forced to ghost coefficients.
``func_equal`` decides functional equality exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core import (
    Layer,
    NuElement,
    RATIONAL,
    add,
    e_of,
    format_element,
    mul,
    nu,
    one_of,
    parse_element,
    power,
    rat_g,
    rat_t,
    tangible,
    zero_of,
)
from .errors import ParseError, PreconditionError

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class TropPoly:
    """Immutable polynomial; ``terms`` is sorted by exponent vector."""

    nvars: int
    terms: tuple[tuple[Exponent, NuElement], ...]

    def __post_init__(self) -> None:
        seen: set[Exponent] = set()
        for exp, coeff in self.terms:
            if len(exp) != self.nvars:
                raise ValueError("exponent arity mismatch")
            if any(k < 0 for k in exp):
                raise ValueError("negative exponent")
            if exp in seen:
                raise ValueError("duplicate exponent")
            if coeff.layer is Layer.ZERO:
                raise ValueError("zero coefficient stored")
            if coeff.monoid is not RATIONAL:
                raise ValueError("coefficients must be rational")
            seen.add(exp)
        if tuple(sorted(self.terms)) != self.terms:
            raise ValueError("terms not sorted")

    @property
    def is_zero(self) -> bool:
        return not self.terms


def make_poly(nvars: int, coeffs: Mapping[Exponent, NuElement]) -> TropPoly:
    """Normalize a mapping into a TropPoly, dropping zero coefficients."""
    items = sorted(
        (tuple(exp), c) for exp, c in coeffs.items() if c.layer is not Layer.ZERO
    )
    return TropPoly(nvars, tuple(items))


def p_zero(nvars: int) -> TropPoly:
    return TropPoly(nvars, ())


def p_const(nvars: int, c: NuElement) -> TropPoly:
    return make_poly(nvars, {(0,) * nvars: c})


def p_var(nvars: int, i: int) -> TropPoly:
    if not 0 <= i < nvars:
        raise ValueError("variable index out of range")
    exp = tuple(1 if j == i else 0 for j in range(nvars))
    return make_poly(nvars, {exp: one_of(RATIONAL)})


def p_add(f: TropPoly, g: TropPoly) -> TropPoly:
    if f.nvars != g.nvars:
        raise ValueError("arity mismatch")
    acc = dict(f.terms)
    for exp, c in g.terms:
        acc[exp] = add(acc[exp], c) if exp in acc else c
    return make_poly(f.nvars, acc)


def p_mul(f: TropPoly, g: TropPoly) -> TropPoly:
    if f.nvars != g.nvars:
        raise ValueError("arity mismatch")
    acc: dict[Exponent, NuElement] = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            exp = tuple(a + b for a, b in zip(e1, e2))
            prod = mul(c1, c2)
            acc[exp] = add(acc[exp], prod) if exp in acc else prod
    return make_poly(f.nvars, acc)


def p_pow(f: TropPoly, n: int) -> TropPoly:
    """f^n by repeated squaring: polynomial multiplication over the
    nu-semiring is associative and commutative, so any bracketing of
    the n factors gives the same polynomial."""
    if n < 0:
        raise ValueError("negative power")
    out = p_const(f.nvars, one_of(RATIONAL))
    while n:
        if n & 1:
            out = p_mul(out, f)
        n >>= 1
        if n:
            f = p_mul(f, f)
    return out


def frobenius_pow(f: TropPoly, m: int) -> TropPoly:
    """Termwise m-th power; agrees with p_pow by the Frobenius identity."""
    if m < 1:
        raise ValueError("power must be positive")
    return make_poly(
        f.nvars,
        {tuple(k * m for k in exp): power(c, m) for exp, c in f.terms},
    )


def p_eval(f: TropPoly, point: Sequence[NuElement]) -> NuElement:
    """Evaluate at a point of the carrier; coordinates may be ghost or zero."""
    if len(point) != f.nvars:
        raise ValueError("point arity mismatch")
    acc = zero_of(RATIONAL)
    for exp, c in f.terms:
        term = c
        for x, k in zip(point, exp):
            if k:
                term = mul(term, power(x, k))
        acc = add(acc, term)
    return acc


# -- essentiality -----------------------------------------------------
#
# Term i attains the maximum at x when (e_i - e_j) . x >= v_j - v_i for
# every other term j, and attains it alone when every row holds strictly.
# Both systems share their rows, so one Fourier-Motzkin elimination
# decides them: its final rows read 0 >= r, and with r the largest such
# right-hand side the term is strictly essential when r < 0 or no row is
# left, tie-only when r = 0, and unreachable when r > 0.  Coefficients
# are sums of exponent differences, kept as primitive integer vectors;
# only right-hand sides are Fractions.  Of the rows sharing a vector only
# the one with the largest right-hand side is kept, as it implies the
# rest, so in one variable at most x >= r and -x >= r survive.

Row = tuple[int, ...]  # coeffs . x >= rhs, coeffs primitive


def _add_row(
    rows: dict[Row, Fraction], coeffs: Sequence[int], rhs: Fraction
) -> None:
    """Record coeffs . x >= rhs unless a kept row already implies it."""
    g = math.gcd(*coeffs)
    if g > 1:
        coeffs, rhs = [c // g for c in coeffs], rhs / g
    key = tuple(coeffs)
    if key not in rows or rows[key] < rhs:
        rows[key] = rhs


def _residual(rows: dict[Row, Fraction], nvars: int) -> Optional[Fraction]:
    """Largest r among the rows 0 >= r left after eliminating every
    variable, or None when no row is left."""
    for k in range(nvars - 1, -1, -1):
        lowers, uppers = [], []
        rest: dict[Row, Fraction] = {}
        for coeffs, rhs in rows.items():
            if coeffs[k] > 0:
                lowers.append((coeffs, rhs))
            elif coeffs[k] < 0:
                uppers.append((coeffs, rhs))
            else:
                rest[coeffs] = rhs
        for cl, bl in lowers:
            for cu, bu in uppers:
                al, au = cl[k], -cu[k]
                diff = [au * a + al * b for a, b in zip(cl, cu)]
                _add_row(rest, diff, au * bl + al * bu)
        rows = rest
    return max(rows.values(), default=None)


class Essentiality(Enum):
    STRICTLY_ESSENTIAL = "StrictlyEssential"
    TIE_ONLY = "TieOnly"
    UNREACHABLE = "Unreachable"


def essential_exponents(f: TropPoly) -> dict[Exponent, Essentiality]:
    """Classify each exponent by how its term meets the upper envelope.

    Unreachable exponents never attain the maximum at any tangible
    point and do not affect the function.  Requires f nonzero.
    """
    if f.is_zero:
        raise PreconditionError("zero polynomial has no essential exponents")
    out: dict[Exponent, Essentiality] = {}
    for ei, ci in f.terms:
        rows: dict[Row, Fraction] = {}
        for ej, cj in f.terms:
            if ej != ei:
                diff = [a - b for a, b in zip(ei, ej)]
                _add_row(rows, diff, cj.value - ci.value)
        r = _residual(rows, f.nvars)
        if r is None or r < 0:
            out[ei] = Essentiality.STRICTLY_ESSENTIAL
        elif r == 0:
            out[ei] = Essentiality.TIE_ONLY
        else:
            out[ei] = Essentiality.UNREACHABLE
    return out


@dataclass(frozen=True, eq=True)
class CanonicalForm:
    poly: TropPoly
    essentiality: tuple[tuple[Exponent, Essentiality], ...]

    def essentiality_map(self) -> dict[Exponent, Essentiality]:
        return dict(self.essentiality)


def canonicalize(f: TropPoly) -> CanonicalForm:
    """Drop unreachable terms and ghost the tie-only coefficients.

    The result computes the same function as f at every point,
    including points with ghost or zero coordinates: an unreachable
    term stays strictly below the envelope there as well, and a term
    that only ties never determines the layer alone.  The form itself
    is a fixed point of this operation.  Requires f nonzero.
    """
    ess = essential_exponents(f)
    coeffs: dict[Exponent, NuElement] = {}
    for exp, c in f.terms:
        kind = ess[exp]
        if kind is Essentiality.UNREACHABLE:
            continue
        coeffs[exp] = nu(c) if kind is Essentiality.TIE_ONLY else c
    return CanonicalForm(
        make_poly(f.nvars, coeffs), tuple(sorted(ess.items()))
    )


def reduced_strict_part(f: TropPoly) -> TropPoly:
    """The strictly essential terms of f, with their coefficients.

    These are the terms the canonical form keeps unchanged, since
    canonicalize only drops or ghosts the others.  This is a complete
    invariant of the function computed by f: two polynomials evaluate
    identically everywhere precisely when their reduced strict parts
    coincide coefficient-wise.
    """
    if f.is_zero:
        return f
    ess = essential_exponents(f)
    keep = Essentiality.STRICTLY_ESSENTIAL
    return TropPoly(f.nvars, tuple(t for t in f.terms if ess[t[0]] is keep))


def func_equal(f: TropPoly, g: TropPoly) -> bool:
    """Exact functional equality over all carrier points."""
    if f.nvars != g.nvars:
        raise ValueError("arity mismatch")
    return reduced_strict_part(f) == reduced_strict_part(g)


# -- univariate factorization ----------------------------------------


@dataclass(frozen=True)
class Factorization:
    """unit times the product of factor^multiplicity, functionally."""

    unit: NuElement
    factors: tuple[tuple[TropPoly, int], ...]

    def expand(self) -> TropPoly:
        nvars = self.factors[0][0].nvars if self.factors else 1
        out = p_const(nvars, self.unit)
        for base, mult in self.factors:
            out = p_mul(out, p_pow(base, mult))
        return out


def _linear_tangible(b: Fraction) -> TropPoly:
    return make_poly(1, {(1,): one_of(RATIONAL), (0,): rat_t(b)})


def _linear_left_ghost(b: Fraction) -> TropPoly:
    # ghost exactly on (-inf, b]
    return make_poly(1, {(1,): one_of(RATIONAL), (0,): rat_g(b)})


def _linear_right_ghost(b: Fraction) -> TropPoly:
    # ghost exactly on [b, +inf)
    return make_poly(1, {(1,): e_of(RATIONAL), (0,): rat_t(b)})


def _quadratic_ghost(lo: Fraction, hi: Fraction) -> TropPoly:
    # ghost exactly on [lo, hi]; requires lo < hi
    return make_poly(
        1,
        {(2,): one_of(RATIONAL), (1,): rat_g(hi), (0,): rat_t(lo + hi)},
    )


def factor_univariate(f: TropPoly) -> Factorization:
    """Factor a univariate polynomial up to functional equality.

    The product of the returned unit and factors is func_equal to f.
    Factors are the function-irreducible shapes: x + b, x + bv,
    0v*x + b, and x^2 + hv*x + (lo+hi) for a ghost interval [lo, hi],
    plus x itself for a monomial part.  Tangible monomials, constants
    and the zero polynomial admit no such factorization and raise
    PreconditionError.
    """
    if f.nvars != 1:
        raise PreconditionError("factorization requires one variable")
    red = reduced_strict_part(f)
    if red.is_zero:
        raise PreconditionError("cannot factor the zero polynomial")
    verts = list(red.terms)  # ascending exponents
    if len(verts) == 1:
        (i,), c = verts[0]
        if i == 0:
            raise PreconditionError("cannot factor a constant")
        return Factorization(c, ((p_var(1, 0), i),))

    factors: list[tuple[TropPoly, int]] = []
    i0 = verts[0][0][0]
    if i0 > 0:
        factors.append((p_var(1, 0), i0))

    coeffs = [c for _, c in verts]
    unit_ghost = all(c.layer is Layer.GHOST for c in coeffs)
    if unit_ghost:
        coeffs = [tangible(RATIONAL, c.value) for c in coeffs]

    exps = [e[0] - i0 for e, _ in verts]
    values = [c.value for c in coeffs]
    ghostly = [c.layer is Layer.GHOST for c in coeffs]
    k = len(verts) - 1
    # dominance region of piece m is [bp[m], bp[m+1]]; breakpoints
    # strictly increase because the reduced form keeps only vertices
    # of the upper envelope
    bp = [
        (values[m - 1] - values[m]) / (exps[m] - exps[m - 1])
        for m in range(1, k + 1)
    ]
    assert all(bp[m] < bp[m + 1] for m in range(k - 1))
    budget = [exps[m] - exps[m - 1] for m in range(1, k + 1)]

    m = 0
    while m <= k:
        if not ghostly[m]:
            m += 1
            continue
        q = m
        while q < k and ghostly[q + 1]:
            q += 1
        if m == 0:
            # run covers (-inf, bp[q]]; q < k since not all ghost
            factors.append((_linear_left_ghost(bp[q]), 1))
            budget[q] -= 1
        elif q == k:
            factors.append((_linear_right_ghost(bp[m - 1]), 1))
            budget[m - 1] -= 1
        else:
            factors.append((_quadratic_ghost(bp[m - 1], bp[q]), 1))
            budget[m - 1] -= 1
            budget[q] -= 1
        m = q + 1
    assert all(b >= 0 for b in budget)

    for m, b in enumerate(bp):
        if budget[m] > 0:
            factors.append((_linear_tangible(b), budget[m]))

    # a ghost leading region is carried by its 0v*x + b factor, and a
    # wholly ghost polynomial by a ghost unit; either way the scalar
    # here starts from the tangible leading value
    unit = tangible(RATIONAL, values[-1])
    if unit_ghost:
        unit = nu(unit)
    return Factorization(unit, tuple(factors))


def tangible_root(f: TropPoly) -> Optional[Fraction]:
    """A tangible point in the ghost locus, or None for tangible monomials.

    Multi-term polynomials always admit one at their smallest
    breakpoint; ghost monomials and the zero polynomial are ghost
    everywhere, so 0 serves.
    """
    if f.nvars != 1:
        raise PreconditionError("tangible_root requires one variable")
    red = reduced_strict_part(f)
    if red.is_zero:
        return Fraction(0)
    verts = list(red.terms)
    if len(verts) == 1:
        _, c = verts[0]
        if c.layer is Layer.TANGIBLE:
            return None
        return Fraction(0)
    (i0,), c0 = verts[0]
    (i1,), c1 = verts[1]
    return (c0.value - c1.value) / (i1 - i0)


# -- parsing and printing --------------------------------------------
#
# expr   := term ('+' term)*
# term   := factor ('*' factor)*
# factor := atom ('^' nat)?
# atom   := literal | var | '(' expr ')'
#
# Variables are either the letters x, y, z or the indexed family
# x1, x2, ...; the two styles cannot be mixed.  Literals follow the
# carrier element syntax, e.g. 3/2, -1v, -inf.  Parentheses nest at
# most MAX_NESTING deep; the parser recurses once per level, so the
# cap keeps deep input a parse error instead of a stack overflow.
# Indexed variables stop at x64 (MAX_VARIABLES), since the highest index
# is the length of every exponent vector (canon "x1000000+0" took 1.1 s
# and 56 MB on a 2-core x86-64 Linux VM, Python 3.11).

MAX_NESTING = 100
MAX_VARIABLES = 64

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<minf>-inf)"
    r"|(?P<lit>-?\d+(?:/\d+)?v?)"
    r"|(?P<var>x\d+|[xyz])"
    r"|(?P<op>[-+*^()]))"
)

_LETTER_INDEX = {"x": 0, "y": 1, "z": 2}


class _Parser:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character at position {pos}")
                break
            for kind in ("minf", "lit", "var", "op"):
                val = m.group(kind)
                if val is not None:
                    self.tokens.append((kind, val, m.start(kind)))
                    break
            pos = m.end()
        self.i = 0
        self.depth = 0
        self.nvars = self._scan_vars()

    def _scan_vars(self) -> int:
        letters = set()
        indexed = set()
        for kind, val, at in self.tokens:
            if kind != "var":
                continue
            if val in _LETTER_INDEX:
                letters.add(val)
                continue
            digits = val[1:].lstrip("0") or "0"
            if len(digits) > len(str(MAX_VARIABLES)) or int(digits) > MAX_VARIABLES:
                raise ParseError(f"variable at position {at} is past x{MAX_VARIABLES}")
            indexed.add(int(digits))
        if letters and indexed:
            raise ParseError("cannot mix letter and indexed variables")
        if indexed:
            if min(indexed) < 1:
                raise ParseError("indexed variables start at x1")
            return max(indexed)
        if letters:
            return max(_LETTER_INDEX[v] for v in letters) + 1
        return 1

    def _peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def _var_index(self, name: str) -> int:
        if name in _LETTER_INDEX:
            return _LETTER_INDEX[name]
        return int(name[1:].lstrip("0")) - 1

    def parse(self) -> TropPoly:
        if not self.tokens:
            raise ParseError("empty polynomial")
        out = self.expr()
        if self._peek() is not None:
            _, val, at = self._peek()  # type: ignore[misc]
            raise ParseError(f"unexpected token {val!r} at position {at}")
        return out

    def expr(self) -> TropPoly:
        out = self.term()
        while (tok := self._peek()) and tok[:2] == ("op", "+"):
            self._next()
            out = p_add(out, self.term())
        return out

    def term(self) -> TropPoly:
        out = self.factor()
        while (tok := self._peek()) and tok[:2] == ("op", "*"):
            self._next()
            out = p_mul(out, self.factor())
        return out

    def factor(self) -> TropPoly:
        base = self.atom()
        if (tok := self._peek()) and tok[:2] == ("op", "^"):
            self._next()
            kind, val, at = self._next()
            if kind != "lit" or not val.isdigit():
                raise ParseError(f"expected an exponent at position {at}")
            base = p_pow(base, int(val))
        return base

    def atom(self) -> TropPoly:
        kind, val, at = self._next()
        if kind == "minf":
            return p_zero(self.nvars)
        if kind == "lit":
            try:
                return p_const(self.nvars, parse_element(val))
            except ValueError as exc:
                raise ParseError(f"{exc} at position {at}") from None
        if kind == "var":
            return p_var(self.nvars, self._var_index(val))
        if (kind, val) == ("op", "("):
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} "
                    f"at position {at}"
                )
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            kind2, val2, at2 = self._next()
            if (kind2, val2) != ("op", ")"):
                raise ParseError(f"expected ')' at position {at2}")
            return inner
        raise ParseError(f"unexpected token {val!r} at position {at}")


def parse_poly(text: str, nvars: Optional[int] = None) -> TropPoly:
    """Parse a polynomial expression; arity is inferred from the
    variables used unless given explicitly."""
    parser = _Parser(text)
    if nvars is not None:
        if nvars < parser.nvars:
            raise ParseError("explicit arity below the variables used")
        parser.nvars = nvars
    return parser.parse()


def _var_name(i: int, nvars: int) -> str:
    if nvars <= 3:
        return "xyz"[i]
    return f"x{i + 1}"


def format_poly(f: TropPoly) -> str:
    """Render in graded lexicographic descending order.

    Tangible unit coefficients are omitted on nonconstant monomials;
    the zero polynomial prints as -inf.
    """
    if f.is_zero:
        return "-inf"
    ordered = sorted(f.terms, key=lambda t: (sum(t[0]), t[0]), reverse=True)
    parts = []
    for exp, c in ordered:
        atoms = []
        is_const = not any(exp)
        if is_const or c != one_of(RATIONAL):
            atoms.append(format_element(c))
        for i, k in enumerate(exp):
            if k == 1:
                atoms.append(_var_name(i, f.nvars))
            elif k > 1:
                atoms.append(f"{_var_name(i, f.nvars)}^{k}")
        parts.append("*".join(atoms))
    return " + ".join(parts)
