from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from supertrop.core import (
    Layer,
    NuOrder,
    RATIONAL,
    RAT_ZERO,
    TRIVIAL,
    add,
    chain_monoid,
    e_of,
    format_element,
    ghost,
    gs_ge,
    hyper_contains,
    mul,
    nu,
    nu_compare,
    one_of,
    parse_element,
    power,
    rat_g,
    rat_t,
    tangible,
    zero_of,
)

# superboolean semifield {0, 1, 1v} built over the one-point value monoid
B0 = zero_of(TRIVIAL)
B1 = one_of(TRIVIAL)
B1V = e_of(TRIVIAL)
BOOLS = [B0, B1, B1V]


def test_superboolean_add_table():
    expect = {
        (0, 0): B0, (0, 1): B1, (0, 2): B1V,
        (1, 0): B1, (1, 1): B1V, (1, 2): B1V,
        (2, 0): B1V, (2, 1): B1V, (2, 2): B1V,
    }
    for (i, j), want in expect.items():
        assert add(BOOLS[i], BOOLS[j]) == want


def test_superboolean_mul_table():
    expect = {
        (0, 0): B0, (0, 1): B0, (0, 2): B0,
        (1, 0): B0, (1, 1): B1, (1, 2): B1V,
        (2, 0): B0, (2, 1): B1V, (2, 2): B1V,
    }
    for (i, j), want in expect.items():
        assert mul(BOOLS[i], BOOLS[j]) == want


def test_superboolean_nu():
    assert nu(B0) == B0
    assert nu(B1) == B1V
    assert nu(B1V) == B1V


def chain_elements(monoid):
    out = [zero_of(monoid)]
    for v in range(monoid.size):
        out.append(tangible(monoid, v))
        out.append(ghost(monoid, v))
    return out


def test_chain_axioms_exhaustive():
    for op in ("trunc", "max"):
        m = chain_monoid(3, op)
        elems = chain_elements(m)
        zero = zero_of(m)
        for a in elems:
            assert add(a, zero) == a
            assert mul(a, zero) == zero
            assert mul(a, one_of(m)) == a
            assert add(a, a) == nu(a)
            assert nu(a) == mul(e_of(m), a)
            for b in elems:
                assert add(a, b) == add(b, a)
                assert mul(a, b) == mul(b, a)
                for c in elems:
                    assert add(add(a, b), c) == add(a, add(b, c))
                    assert mul(mul(a, b), c) == mul(a, mul(b, c))
                    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_chain_nmc_exhaustive():
    # if a+b is not ghost while a+nu(b) is, then a+b = nu(a)+b
    for op in ("trunc", "max"):
        m = chain_monoid(4, op)
        elems = chain_elements(m)
        for a in elems:
            for b in elems:
                s = add(a, b)
                if not s.is_ghost and add(a, nu(b)).is_ghost:
                    assert s == add(nu(a), b)


def test_gs_ge_matches_brute_force_on_chain():
    m = chain_monoid(3)
    elems = chain_elements(m)
    ghosts = [x for x in elems if x.is_ghost] + [zero_of(m)]
    for a in elems:
        for b in elems:
            brute = any(add(b, c) == a for c in ghosts)
            assert gs_ge(a, b) == brute, (a, b)


def test_gs_ge_examples():
    assert gs_ge(rat_g(5), rat_t(5))
    assert gs_ge(rat_t(5), rat_t(5))
    assert not gs_ge(rat_t(5), rat_t(3))
    assert gs_ge(rat_g(3), RAT_ZERO)
    assert not gs_ge(RAT_ZERO, rat_g(3))


rationals = st.fractions(max_denominator=12)
rat_elems = st.one_of(
    st.just(RAT_ZERO),
    st.builds(rat_t, rationals),
    st.builds(rat_g, rationals),
)


@given(rat_elems, rat_elems, rat_elems)
def test_rational_semiring_laws(a, b, c):
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(rat_elems, rat_elems)
def test_rational_nu_monotone_absorption(a, b):
    # NMa and NMb in one shot: the sum is determined by nu-values
    s = add(a, b)
    cmp = nu_compare(a, b)
    if cmp is NuOrder.GREATER:
        assert s == a
    elif cmp is NuOrder.LESS:
        assert s == b
    else:
        assert s == nu(a)


@given(rat_elems)
def test_rational_ghost_projection(a):
    assert add(a, a) == nu(a)
    assert add(a, nu(a)) == nu(a)
    assert nu(nu(a)) == nu(a)
    assert nu(a) == mul(rat_g(0), a)


@given(rat_elems, rat_elems)
def test_rational_nmc(a, b):
    s = add(a, b)
    if not s.is_ghost and add(a, nu(b)).is_ghost:
        assert s == add(nu(a), b)


@given(rat_elems, rat_elems)
def test_tangible_sums_absorb(a, b):
    # a tangible sum is never essential over a total order: one summand
    # absorbs the other, so tangible sums involve no ghost contribution
    s = add(a, b)
    if s.is_tangible:
        assert s == a or s == b


@settings(max_examples=200)
@given(rat_elems, rat_elems, st.integers(min_value=2, max_value=8))
def test_frobenius(a, b, n):
    assert power(add(a, b), n) == add(power(a, n), power(b, n))


@given(rat_elems, st.integers(min_value=1, max_value=6))
def test_power_layers(a, n):
    p = power(a, n)
    assert p.layer == a.layer
    if not a.is_zero:
        assert p.value == a.value * n


def test_power_zero_exponent():
    assert power(rat_t(7), 0) == rat_t(0)
    m = chain_monoid(3)
    assert power(tangible(m, 0), 0) == one_of(m)
    for bad in (tangible(m, 1), rat_g(2), RAT_ZERO):
        try:
            power(bad, 0)
        except ValueError:
            pass
        else:
            raise AssertionError("zeroth power must require invertibility")


def test_chain_power_is_repeated_product():
    for op in ("trunc", "max"):
        for size in (1, 2, 3, 4):
            m = chain_monoid(size, op)
            for a in chain_elements(m):
                acc = a
                for n in range(1, 7):
                    assert power(a, n) == acc, (op, size, a, n)
                    acc = mul(acc, a)
    # saturation: 1 * 1 = 2 stays tangible in the 3-step truncated chain,
    # but 2 * 1 collides with 2 * 0 and ghosts the cube
    trunc = chain_monoid(3, "trunc")
    assert power(tangible(trunc, 1), 2) == tangible(trunc, 2)
    assert power(tangible(trunc, 1), 3) == ghost(trunc, 2)
    # max is idempotent, so every tangible square but the unit's collides
    top = chain_monoid(3, "max")
    assert power(tangible(top, 0), 5) == tangible(top, 0)
    assert power(tangible(top, 1), 2) == ghost(top, 1)


def test_superboolean_format_parse_roundtrip():
    for text, a in zip(("b0", "b1", "b1v"), BOOLS):
        assert format_element(a) == text
        assert parse_element(format_element(a)) == a


def test_nu_compare_zero_is_bottom():
    assert nu_compare(RAT_ZERO, rat_t(-100)) is NuOrder.LESS
    assert nu_compare(rat_g(-100), RAT_ZERO) is NuOrder.GREATER
    assert nu_compare(RAT_ZERO, RAT_ZERO) is NuOrder.NU_EQUIVALENT
    assert nu_compare(rat_t(3), rat_g(3)) is NuOrder.NU_EQUIVALENT


def test_hyper_contains_examples():
    assert hyper_contains(rat_g(5), rat_t(3))
    assert hyper_contains(rat_g(5), rat_t(5))
    assert hyper_contains(rat_g(5), RAT_ZERO)
    assert not hyper_contains(rat_g(5), rat_t(6))
    assert hyper_contains(rat_t(5), rat_t(5))
    assert not hyper_contains(rat_t(5), rat_t(4))
    assert hyper_contains(RAT_ZERO, RAT_ZERO)
    assert not hyper_contains(RAT_ZERO, rat_t(0))


tangible_or_zero = st.one_of(st.just(RAT_ZERO), st.builds(rat_t, rationals))


@given(rat_elems, rat_elems, tangible_or_zero, tangible_or_zero)
def test_hyper_contains_homomorphic(x, y, v, w):
    # products of members are members; for sums the containment is
    # P_{v+w} inside P_{x+y}, sampled over candidate members u
    if hyper_contains(x, v) and hyper_contains(y, w):
        assert hyper_contains(mul(x, y), mul(v, w))
        s = add(v, w)
        candidates = [v, w, RAT_ZERO]
        if not s.is_zero:
            candidates.append(rat_t(s.value - 1))
        for u in candidates:
            if hyper_contains(s, u):
                assert hyper_contains(add(x, y), u)


@given(rat_elems)
def test_parse_format_roundtrip(a):
    assert parse_element(format_element(a)) == a


def test_parse_literals():
    assert parse_element("3/2") == rat_t(Fraction(3, 2))
    assert parse_element("3/2v") == rat_g(Fraction(3, 2))
    assert parse_element("-7v") == rat_g(-7)
    assert parse_element("-inf") == RAT_ZERO
    assert parse_element("b0") == B0
    assert parse_element("b1") == B1
    assert parse_element("b1v") == B1V
    for bad in ("", "x", "3//2", "v", "1.5", "1/0", "-2/0v"):
        try:
            parse_element(bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"{bad!r} must not parse")


def test_mismatched_monoids_rejected():
    try:
        add(B1, rat_t(0))
    except ValueError:
        pass
    else:
        raise AssertionError("mixing value monoids must fail")
