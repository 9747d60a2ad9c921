"""Independent oracles for the benchmark.

Nothing here calls the library function whose output it judges.  The
max-plus evaluator, the element rules and the carrier checks are
written from the definitions, over plain tuples, so a regression in
the library cannot also hide in its own checker.

Elements are ``(value, ghost)`` pairs with ``value`` a Fraction, or
``None`` for the additive identity -inf.  A polynomial is a list of
``(exponent, value, ghost)`` triples.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (None, False)


# -- elements -----------------------------------------------------------


def el_of(a) -> tuple:
    """Library NuElement to a plain pair (reads data fields only)."""
    if a.value is None:
        return ZERO
    return (a.value, a.layer.name == "GHOST")


def el_add(a, b):
    if a[0] is None:
        return b
    if b[0] is None:
        return a
    if a[0] == b[0]:
        return (a[0], True)
    return a if a[0] > b[0] else b


def el_mul(a, b):
    if a[0] is None or b[0] is None:
        return ZERO
    return (a[0] + b[0], a[1] or b[1])


def el_power(a, n: int):
    if n == 0:
        return (Fraction(0), False)
    if a[0] is None:
        return ZERO
    return (a[0] * n, a[1])


def el_nu(a):
    return a if a[0] is None else (a[0], True)


def el_gs_ge(a, b) -> bool:
    if a == b:
        return True
    if not a[1]:
        return False
    return b[0] is None or a[0] >= b[0]


# -- polynomials --------------------------------------------------------


def terms_of(f) -> list:
    """Library TropPoly to plain triples."""
    return [(e, c.value, c.layer.name == "GHOST") for e, c in f.terms]


def evaluate(terms, point):
    """Supertropical value of a polynomial at a point of pairs.

    The maximum of the term values; ghost when two terms attain it or
    the one attaining term is ghost (ghost coefficient or a ghost
    coordinate raised to a positive power).
    """
    best = None
    hits = 0
    ghost = False
    for exp, c, g in terms:
        v = c
        for (xv, xg), k in zip(point, exp):
            if k:
                if xv is None:
                    v = None
                    break
                v = v + k * xv
                g = g or xg
        if v is None:
            continue
        if best is None or v > best:
            best, hits, ghost = v, 1, g
        elif v == best:
            hits += 1
    if best is None:
        return ZERO
    return (best, ghost or hits > 1)


def tangible_point(coords) -> list:
    return [(Fraction(x), False) for x in coords]


def same_function_at(f_terms, g_terms, points) -> str | None:
    for pt in points:
        a, b = evaluate(f_terms, pt), evaluate(g_terms, pt)
        if a != b:
            return f"values differ at {pt}: {a} vs {b}"
    return None


def scaled_at(f_terms, g_terms, k: int, points) -> str | None:
    """Check g(x) = k * f(x) with the same layer at every point."""
    for pt in points:
        a, b = evaluate(f_terms, pt), evaluate(g_terms, pt)
        if b != el_power(a, k):
            return f"power/product value wrong at {pt}"
    return None


def product_at(f_terms, g_terms, h_terms, points) -> str | None:
    """Check h = f * g pointwise."""
    for pt in points:
        want = el_mul(evaluate(f_terms, pt), evaluate(g_terms, pt))
        if evaluate(h_terms, pt) != want:
            return f"product value wrong at {pt}"
    return None


def factorization_at(unit, factors, points) -> list:
    """Values of unit * prod(base^mult) at tangible points."""
    out = []
    for pt in points:
        acc = el_of(unit)
        for base, mult in factors:
            acc = el_mul(acc, el_power(evaluate(terms_of(base), pt), mult))
        out.append(acc)
    return out


# -- plane geometry -----------------------------------------------------


def cross(a, b, p) -> Fraction:
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def area2(pts) -> Fraction:
    n = len(pts)
    return sum(
        pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1]
        for i in range(n)
    )


def cell_contains(kind: str, polygon, p) -> bool:
    if kind == "vertex":
        return polygon[0] == p
    if kind == "edge":
        a, b = polygon
        return (
            cross(a, b, p) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        )
    n = len(polygon)
    return all(cross(polygon[i], polygon[(i + 1) % n], p) > 0 for i in range(n))


def ghost_label(systems, p) -> str:
    """Label the locus gives a tangible point: ghost when every
    polynomial of the system is non-tangible there."""
    pt = tangible_point(p)
    ghost = all(
        evaluate(terms, pt)[0] is None or evaluate(terms, pt)[1]
        for terms in systems
    )
    return "GhostRegion" if ghost else "TangibleRegion"


# -- finite carriers ----------------------------------------------------


def is_compatible(R, reps) -> bool:
    """A partition (least-member representatives) respects + and *."""
    n = R.size
    add, mul = R.add_table, R.mul_table
    for a in range(n):
        ra = reps[a]
        if ra == a:
            continue
        for c in range(n):
            if reps[add[a][c]] != reps[add[ra][c]]:
                return False
            if reps[mul[a][c]] != reps[mul[ra][c]]:
                return False
    return True


def is_homomorphism(A, B, f) -> str | None:
    """f: A -> B preserves zero, one, nu, both tables and tangibility."""
    if sorted(f) != list(range(B.size)) or A.size != B.size:
        return "not a bijection"
    if f[A.zero] != B.zero or f[A.one] != B.one:
        return "zero or one not preserved"
    for a in range(A.size):
        if f[A.nu_table[a]] != B.nu_table[f[a]]:
            return "nu not preserved"
        if (a in A.tangible) != (f[a] in B.tangible):
            return "tangible set not preserved"
        for b in range(A.size):
            if f[A.add_table[a][b]] != B.add_table[f[a]][f[b]]:
                return "addition not preserved"
            if f[A.mul_table[a][b]] != B.mul_table[f[a]][f[b]]:
                return "multiplication not preserved"
    return None


def carrier_laws(R) -> str | None:
    """Commutative semiring laws plus the basic nu facts, checked
    directly on the tables."""
    n = R.size
    add, mul, nu = R.add_table, R.mul_table, R.nu_table
    for a in range(n):
        if add[a][R.zero] != a or mul[a][R.one] != a or mul[a][R.zero] != R.zero:
            return f"identity law fails at {a}"
        if nu[nu[a]] != nu[a]:
            return f"nu not idempotent at {a}"
        for b in range(n):
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                return f"not commutative at {a},{b}"
            for c in range(n):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return "addition not associative"
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return "multiplication not associative"
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    return "not distributive"
    return None


def carrier_signature(R) -> tuple:
    """Isomorphism invariant of a carrier, for cross-copy comparison."""
    n = R.size
    return (
        n,
        len(R.tangible),
        sum(1 for a in range(n) if R.nu_table[a] == a),
        tuple(sorted(sum(1 for b in range(n) if R.mul_table[a][b] == a) for a in range(n))),
    )


def least_congruence(R, pair, congruences):
    """Meet of the enumerated congruences that identify a pair: by
    completeness of the enumeration, the least congruence holding it."""
    a, b = pair
    holding = [c.reps for c in congruences if c.reps[a] == c.reps[b]]
    key = {i: tuple(reps[i] for reps in holding) for i in range(R.size)}
    least: dict = {}
    for i in range(R.size):
        least.setdefault(key[i], i)
    return tuple(least[key[i]] for i in range(R.size))


def refines(reps_a, reps_b) -> bool:
    return all(reps_b[a] == reps_b[reps_a[a]] for a in range(len(reps_a)))
