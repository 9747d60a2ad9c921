"""Exact arithmetic for supertropical semirings.

A supertropical semiring splits into a zero, a tangible part T and a ghost
ideal G, with an idempotent projection nu: a -> e*a onto the ghosts, where
e = 1 + 1.  Addition picks the operand with the larger nu-value and keeps its
layer; a tie of nu-values produces the ghost of the shared value.  "Being
ghost" plays the role classically played by "being zero".

Elements live over a small ordered value monoid: the rationals under addition
(max-plus in logarithmic notation, where 1 = 0 and 0 = -inf) or a finite chain
{0..n-1} with an explicit commutative operation; the one-point chain's
supertropical extension is the superboolean semifield {0, 1, 1v}.

Everything is exact.  Rational values are fractions.Fraction, never floats.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .errors import BoundError

RationalLike = Union[int, str, Fraction]


class Layer(Enum):
    ZERO = "zero"
    TANGIBLE = "tangible"
    GHOST = "ghost"


class NuOrder(Enum):
    LESS = "Less"
    NU_EQUIVALENT = "NuEquivalent"
    GREATER = "Greater"


@dataclass(frozen=True)
class ValueMonoid:
    """An ordered commutative monoid of values.

    kind is one of "rational" (exact rationals under addition) or
    "chain" (carrier {0..size-1}, operation given by an explicit table,
    natural order).  The order must respect the operation; chain tables
    are checked exhaustively on construction.
    """

    kind: str
    size: int = 0
    table: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.kind == "chain":
            n, t = self.size, self.table
            if n < 1 or t is None or len(t) != n or any(len(r) != n for r in t):
                raise ValueError("malformed chain monoid table")
            for i in range(n):
                if t[0][i] != i:
                    raise ValueError("chain monoid identity must be index 0")
                for j in range(n):
                    if t[i][j] != t[j][i]:
                        raise ValueError("chain monoid table not commutative")
                    for k in range(n):
                        if t[t[i][j]][k] != t[i][t[j][k]]:
                            raise ValueError("chain monoid table not associative")
            # order compatibility: i <= j implies i*k <= j*k
            for i in range(n):
                for j in range(i, n):
                    for k in range(n):
                        if t[i][k] > t[j][k]:
                            raise ValueError("chain monoid table not order compatible")
        elif self.kind != "rational":
            raise ValueError(f"unknown value monoid kind {self.kind!r}")

    @property
    def identity(self):
        return Fraction(0) if self.kind == "rational" else 0

    def op(self, v, w):
        if self.kind == "rational":
            return v + w
        return self.table[v][w]

    def invertible(self, v) -> bool:
        return self.kind != "chain" or any(
            self.table[v][w] == 0 for w in range(self.size)
        )

    def strict_at(self, v, w) -> bool:
        """Whether the operation is strictly monotone at the pair (v, w) in
        both slots.  Products of tangibles stay tangible exactly there; a
        collision (two comparable values mapped together, as at the top of a
        saturating chain) must ghost the product, or distributivity of the
        supertropical extension fails.  Cancellative monoids are strict
        everywhere."""
        if self.kind != "chain":
            return True
        t = self.table
        return all(t[v][b] != t[v][w] for b in range(w)) and all(
            t[b][w] != t[v][w] for b in range(v)
        )


RATIONAL = ValueMonoid("rational")


def chain_monoid(n: int, op: str = "trunc") -> ValueMonoid:
    """Finite chain {0..n-1}.  op "trunc" is saturating index addition
    (truncated max-plus, the default); op "max" is the idempotent maximum."""
    if op == "trunc":
        table = tuple(tuple(min(i + j, n - 1) for j in range(n)) for i in range(n))
    elif op == "max":
        table = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
    else:
        raise ValueError(f"unknown chain op {op!r}")
    return ValueMonoid("chain", size=n, table=table)


TRIVIAL = chain_monoid(1)


@dataclass(frozen=True)
class NuElement:
    """A supertropical element: a value plus a layer tag.

    The value is absent exactly when the layer is ZERO.  Equality is
    componentwise; two elements over different value monoids never mix.
    """

    monoid: ValueMonoid
    layer: Layer
    value: object = None

    def __post_init__(self) -> None:
        if self.layer is Layer.ZERO:
            if self.value is not None:
                raise ValueError("zero carries no value")
        else:
            if self.value is None:
                raise ValueError("nonzero element needs a value")
            if self.monoid.kind == "chain" and not (
                isinstance(self.value, int) and 0 <= self.value < self.monoid.size
            ):
                raise ValueError("chain value out of range")

    @property
    def is_zero(self) -> bool:
        return self.layer is Layer.ZERO

    @property
    def is_tangible(self) -> bool:
        return self.layer is Layer.TANGIBLE

    @property
    def is_ghost(self) -> bool:
        return self.layer is Layer.GHOST

    def __repr__(self) -> str:
        return f"NuElement({format_element(self)!r})"


def _coerce(monoid: ValueMonoid, value):
    if monoid.kind == "rational" and not isinstance(value, Fraction):
        return Fraction(value)
    return value


def tangible(monoid: ValueMonoid, value) -> NuElement:
    return NuElement(monoid, Layer.TANGIBLE, _coerce(monoid, value))


def ghost(monoid: ValueMonoid, value) -> NuElement:
    return NuElement(monoid, Layer.GHOST, _coerce(monoid, value))


def zero_of(monoid: ValueMonoid) -> NuElement:
    return NuElement(monoid, Layer.ZERO, None)


def one_of(monoid: ValueMonoid) -> NuElement:
    return tangible(monoid, monoid.identity)


def e_of(monoid: ValueMonoid) -> NuElement:
    """The distinguished ghost unit e = 1 + 1."""
    return ghost(monoid, monoid.identity)


def rat_t(value: RationalLike) -> NuElement:
    return tangible(RATIONAL, Fraction(value))


def rat_g(value: RationalLike) -> NuElement:
    return ghost(RATIONAL, Fraction(value))


RAT_ZERO = zero_of(RATIONAL)


def _same_monoid(a: NuElement, b: NuElement) -> ValueMonoid:
    if a.monoid != b.monoid:
        raise ValueError("mismatched value monoids")
    return a.monoid


def add(a: NuElement, b: NuElement) -> NuElement:
    """Supertropical sum: larger value wins and keeps its layer, equal
    values ghost, zero is neutral."""
    _same_monoid(a, b)
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.value == b.value:
        return NuElement(a.monoid, Layer.GHOST, a.value)
    return a if a.value > b.value else b


def mul(a: NuElement, b: NuElement) -> NuElement:
    """Supertropical product: values combine in the monoid, ghostness is
    absorbing, zero is absorbing.  A product of tangibles stays tangible
    only where the value monoid is strictly monotone; at a collision pair
    it ghosts, which is what keeps multiplication distributive over
    finite saturating chains."""
    m = _same_monoid(a, b)
    if a.is_zero or b.is_zero:
        return zero_of(m)
    if a.is_tangible and b.is_tangible and m.strict_at(a.value, b.value):
        layer = Layer.TANGIBLE
    else:
        layer = Layer.GHOST
    return NuElement(m, layer, m.op(a.value, b.value))


def nu(a: NuElement) -> NuElement:
    """The ghost projection a -> e*a.  Fixes zero and ghosts."""
    if a.is_zero:
        return a
    return NuElement(a.monoid, Layer.GHOST, a.value)


def nu_compare(a: NuElement, b: NuElement) -> NuOrder:
    """Compare nu-values only; zero sits below every nonzero element."""
    _same_monoid(a, b)
    if a.is_zero and b.is_zero:
        return NuOrder.NU_EQUIVALENT
    if a.is_zero:
        return NuOrder.LESS
    if b.is_zero:
        return NuOrder.GREATER
    if a.value == b.value:
        return NuOrder.NU_EQUIVALENT
    return NuOrder.LESS if a.value < b.value else NuOrder.GREATER


def gs_ge(a: NuElement, b: NuElement) -> bool:
    """Ghost surpassing: a = b + c for some ghost-or-zero c.

    Over a totally ordered value monoid this reduces to a closed form:
    a equals b, or a is ghost and dominates b in nu-value (which covers
    b = 0 as well).  A tangible a surpasses only itself.
    """
    _same_monoid(a, b)
    if a == b:
        return True
    if not a.is_ghost:
        return False
    if b.is_zero:
        return True
    return a.value >= b.value


def power(a: NuElement, n: int) -> NuElement:
    """a**n by repeated product; over cancellative instances layers are
    preserved for n >= 1, while chain tangibles may ghost on saturation.
    n = 0 is only defined for invertible elements and yields 1."""
    if n < 0:
        raise ValueError("negative powers are not defined")
    if n == 0:
        if a.is_tangible and a.monoid.invertible(a.value):
            return one_of(a.monoid)
        raise ValueError("zeroth power of a non invertible element")
    if a.is_zero:
        return a
    if a.monoid.kind == "rational":
        return NuElement(a.monoid, a.layer, a.value * n)
    acc = a
    for _ in range(n - 1):
        acc = mul(acc, a)
    return acc


def hyper_contains(x: NuElement, v: NuElement) -> bool:
    """Membership v in P_x for the hyperfield view of the semiring:
    P_0 = {0}, P_a = {a} for tangible a, and P_{a^nu} is every tangible
    or zero element with nu-value at most a."""
    _same_monoid(x, v)
    if v.is_ghost:
        raise ValueError("hyperfield members are tangible or zero")
    if x.is_zero or x.is_tangible:
        return x == v
    if v.is_zero:
        return True
    return v.value <= x.value


_RAT_RE = re.compile(r"^(-?\d+(?:/\d+)?)(v?)$")


def parse_element(text: str) -> NuElement:
    """Parse an element literal.

    Rational instance: "3/2" tangible, "3/2v" ghost, "-inf" zero.
    Superboolean instance: "b0", "b1", "b1v".
    """
    s = text.strip()
    if s == "-inf":
        return RAT_ZERO
    if s == "b0":
        return zero_of(TRIVIAL)
    if s == "b1":
        return one_of(TRIVIAL)
    if s == "b1v":
        return e_of(TRIVIAL)
    m = _RAT_RE.match(s)
    if m is None:
        raise ValueError(f"bad element literal {text!r}")
    try:
        x = Fraction(m.group(1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in element literal {text!r}") from None
    return rat_g(x) if m.group(2) else rat_t(x)


def format_number(x: Union[int, Fraction]) -> str:
    """str(x), or BoundError for a number too long for Python's
    int-string limit to print."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise BoundError(f"a result has more than {limit} digits to print") from None


def format_element(a: NuElement) -> str:
    if a.monoid == TRIVIAL:
        if a.is_zero:
            return "b0"
        return "b1v" if a.is_ghost else "b1"
    if a.is_zero:
        return "-inf"
    body = format_number(a.value)
    return body + "v" if a.is_ghost else body
