"""Polynomial layer: arithmetic, canonical forms, factorization, text."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertrop.core import (
    Layer,
    RATIONAL,
    add,
    e_of,
    mul,
    one_of,
    rat_g,
    rat_t,
    zero_of,
)
from supertrop.errors import ParseError, PreconditionError
from supertrop.poly import (
    MAX_NESTING,
    MAX_VARIABLES,
    CanonicalForm,
    Essentiality,
    TropPoly,
    canonicalize,
    essential_exponents,
    factor_univariate,
    format_poly,
    frobenius_pow,
    func_equal,
    make_poly,
    p_add,
    p_const,
    p_eval,
    p_mul,
    p_pow,
    p_var,
    p_zero,
    parse_poly,
    reduced_strict_part,
    tangible_root,
)
from supertrop.locus import z_member

from poly_oracles import essential_exponents as two_pass_essentiality
from poly_oracles import p_pow as stepwise_pow

RAT_ZERO = zero_of(RATIONAL)
ONE = one_of(RATIONAL)


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3]))


def rand_coeff(rng: random.Random):
    v = rand_fraction(rng)
    return rat_g(v) if rng.random() < 0.3 else rat_t(v)


def rand_poly(rng: random.Random, nvars: int, max_deg: int = 6,
              max_terms: int = 6) -> TropPoly:
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exp = tuple(rng.randint(0, max_deg) for _ in range(nvars))
            if sum(exp) <= max_deg:
                break
        coeffs[exp] = rand_coeff(rng)
    return make_poly(nvars, coeffs)


def rand_point(rng: random.Random, nvars: int):
    out = []
    for _ in range(nvars):
        r = rng.random()
        if r < 0.15:
            out.append(RAT_ZERO)
        elif r < 0.35:
            out.append(rat_g(rand_fraction(rng)))
        else:
            out.append(rat_t(rand_fraction(rng)))
    return tuple(out)


# -- ring structure ----------------------------------------------------


def test_add_merges_equal_exponents():
    f = parse_poly("x + 0")
    g = parse_poly("x + 1")
    assert p_add(f, g) == parse_poly("0v*x + 1")


def test_eval_is_homomorphic():
    rng = random.Random(7)
    for _ in range(300):
        nvars = rng.choice([1, 2, 3])
        f = rand_poly(rng, nvars)
        g = rand_poly(rng, nvars)
        pt = rand_point(rng, nvars)
        assert p_eval(p_add(f, g), pt) == add(p_eval(f, pt), p_eval(g, pt))
        assert p_eval(p_mul(f, g), pt) == mul(p_eval(f, pt), p_eval(g, pt))


def test_eval_zero_coordinate_absorbs():
    f = parse_poly("x*y + 3*x + 1")
    val = p_eval(f, (rat_t(Fraction(5)), RAT_ZERO))
    # only the terms not using y survive
    assert val == rat_t(Fraction(8))
    g = parse_poly("x*y")
    assert p_eval(g, (rat_t(Fraction(5)), RAT_ZERO)) == RAT_ZERO


def test_eval_ghost_coordinate_ghosts_the_term():
    f = parse_poly("x + 0")
    assert p_eval(f, (rat_g(Fraction(4)),)) == rat_g(Fraction(4))
    # below the constant the tangible constant still dominates
    assert p_eval(f, (rat_g(Fraction(-9)),)) == rat_t(Fraction(0))
    assert p_eval(f, (rat_g(Fraction(0)),)) == rat_g(Fraction(0))


def test_pow_matches_repeated_mul():
    rng = random.Random(11)
    for _ in range(40):
        f = rand_poly(rng, 2, max_deg=3, max_terms=4)
        assert p_pow(f, 3) == p_mul(f, p_mul(f, f))


def test_pow_matches_stepwise_oracle():
    rng = random.Random(17)
    bases = [p_zero(2), p_const(1, ONE), parse_poly("x + 0v"), parse_poly("1/2v*x + -1/3")]
    # monomials take p_pow's one-term shortcut: tangible and ghost
    # coefficients, in one to three variables
    bases += [
        make_poly(1, {(2,): rat_t(Fraction(-3, 2))}),
        make_poly(1, {(0,): rat_g(Fraction(5))}),
        make_poly(2, {(1, 3): rat_g(Fraction(-1, 3))}),
        make_poly(2, {(0, 1): ONE}),
        make_poly(3, {(2, 0, 1): rat_t(Fraction(7, 2))}),
        make_poly(3, {(1, 1, 1): rat_g(Fraction(0))}),
    ]
    for nvars in (1, 2, 3):
        for _ in range(15):
            bases.append(rand_poly(rng, nvars, max_deg=2, max_terms=3))
    for f in bases:
        for n in range(13):
            assert p_pow(f, n) == stepwise_pow(f, n), (f, n)


def test_pow_of_large_exponent_is_fast():
    # squaring needs about 2*log2(n) products instead of n
    assert parse_poly("0^463863") == p_const(1, ONE)
    assert parse_poly("1/2v^463863") == p_const(1, rat_g(Fraction(463863, 2)))
    assert parse_poly("x^463863").terms == (((463863,), ONE),)


def test_frobenius_agrees_with_pow():
    # cross terms of the expanded power never rise strictly above the
    # pure powers, so the two agree as functions; coefficient-wise the
    # expansion may carry extra tie-only ghosts
    rng = random.Random(13)
    for _ in range(60):
        f = rand_poly(rng, rng.choice([1, 2]), max_deg=3, max_terms=4)
        for m in (2, 3, 4):
            assert func_equal(frobenius_pow(f, m), p_pow(f, m))


def test_frobenius_on_monomials_is_exact():
    rng = random.Random(14)
    for _ in range(30):
        f = make_poly(2, {(rng.randint(0, 3), rng.randint(0, 3)): rand_coeff(rng)})
        assert frobenius_pow(f, 3) == p_pow(f, 3)


def test_zero_polynomial_is_neutral_and_absorbing():
    f = parse_poly("x^2 + 1v")
    z = p_zero(1)
    assert p_add(f, z) == f
    assert p_mul(f, z) == z
    assert p_eval(z, (rat_t(Fraction(3)),)) == RAT_ZERO


# -- essentiality and canonical forms ---------------------------------


def test_unreachable_middle_term_dropped():
    f = parse_poly("x^2 + 0*x + 1")
    form = canonicalize(f)
    assert format_poly(form.poly) == "x^2 + 1"
    assert form.essentiality_map() == {
        (2,): Essentiality.STRICTLY_ESSENTIAL,
        (1,): Essentiality.UNREACHABLE,
        (0,): Essentiality.STRICTLY_ESSENTIAL,
    }


def test_square_of_linear_is_already_canonical():
    rng = random.Random(17)
    for _ in range(50):
        a = rand_fraction(rng)
        f = p_pow(parse_poly(f"x + {a}"), 2)
        form = canonicalize(f)
        assert form.poly == f
        expected = make_poly(
            1, {(2,): ONE, (1,): rat_g(a), (0,): rat_t(2 * a)}
        )
        assert f == expected
        assert form.essentiality_map()[(1,)] is Essentiality.TIE_ONLY


def test_tie_only_term_is_ghosted():
    # x and the constant tie at x = 0 under x^2 + 0v; the middle of a
    # fresh tangible tie gets ghosted
    f = make_poly(1, {(2,): ONE, (1,): rat_t(Fraction(0)), (0,): ONE})
    # envelope: max(2x, x, 0); x attains only at x = 0 where 2x and 0 tie
    form = canonicalize(f)
    assert form.essentiality_map()[(1,)] is Essentiality.TIE_ONLY
    assert dict(form.poly.terms)[(1,)] == rat_g(Fraction(0))


def test_canonicalize_idempotent():
    rng = random.Random(19)
    for _ in range(80):
        f = rand_poly(rng, rng.choice([1, 2]))
        once = canonicalize(f)
        twice = canonicalize(once.poly)
        assert once.poly == twice.poly
        kept = {
            e: k for e, k in once.essentiality
            if k is not Essentiality.UNREACHABLE
        }
        assert kept == twice.essentiality_map()


def test_canonicalize_preserves_values_on_grid():
    rng = random.Random(23)
    for _ in range(25):
        nvars = rng.choice([1, 2])
        f = rand_poly(rng, nvars)
        g = canonicalize(f).poly
        for _ in range(60):
            pt = rand_point(rng, nvars)
            assert p_eval(f, pt) == p_eval(g, pt)


def test_essentiality_of_single_term():
    f = parse_poly("3v*x^2")
    assert essential_exponents(f) == {(2,): Essentiality.STRICTLY_ESSENTIAL}
    with pytest.raises(PreconditionError):
        essential_exponents(p_zero(2))
    with pytest.raises(PreconditionError):
        canonicalize(p_zero(1))


def _essentiality_cases():
    """Seeded random polynomials in 1-3 variables (ghost coefficients
    included), tie-heavy powers, and terms on one line."""
    rng = random.Random(41)
    for _ in range(200):
        nvars = rng.choice([1, 2, 3])
        yield rand_poly(rng, nvars, max_deg=5, max_terms=9)
    for k in range(1, 13):
        yield parse_poly(f"(x+0)^{k}")
        yield parse_poly(f"(x+0v)^{k}")
    for k in range(1, 5):
        yield parse_poly(f"(x+y+0)^{k}")
        yield parse_poly(f"(x+1v*y+0)^{k}")
    yield parse_poly("(x+y+z+0)^2")
    for direction in [(1, 2), (1, 1, 0), (2, 1, 3), (0, 0, 1)]:
        for _ in range(6):
            base = tuple(rng.randint(0, 2) for _ in direction)
            coeffs = {}
            for t in range(rng.randint(1, 7)):
                exp = tuple(b + t * d for b, d in zip(base, direction))
                coeffs[exp] = rand_coeff(rng)
            yield make_poly(len(direction), coeffs)


def test_essentiality_matches_two_pass_oracle():
    for f in _essentiality_cases():
        assert essential_exponents(f) == two_pass_essentiality(f), str(f)


def test_canonical_form_equality():
    f = parse_poly("x^2 + 0*x + 1")
    g = parse_poly("x^2 + 1")
    # the forms share a polynomial; the classification remembers which
    # exponents of the input were dropped
    assert canonicalize(f).poly == canonicalize(g).poly
    assert canonicalize(g) == canonicalize(canonicalize(f).poly)
    assert isinstance(canonicalize(f), CanonicalForm)


# -- functional equality ----------------------------------------------


def test_func_equal_distinguishes_layers():
    assert not func_equal(parse_poly("x + 0"), parse_poly("x + 0v"))
    assert not func_equal(parse_poly("x"), parse_poly("0v*x"))
    assert func_equal(parse_poly("x + 0 + 0"), parse_poly("x + 0v"))


def test_func_equal_factored_product_identity():
    lhs = p_mul(parse_poly("x + y + 0"), parse_poly("x + y + x*y"))
    rhs = p_mul(
        p_mul(parse_poly("x + 0", nvars=2), parse_poly("y + 0")),
        parse_poly("x + y"),
    )
    # these two expansions coincide even coefficient-wise
    assert lhs == rhs
    assert func_equal(lhs, rhs)


def test_func_equal_ghosted_square_identity():
    # the fully ghosted square agrees with the half-ghosted product;
    # the tangible xy of the product is swallowed by a tie
    lhs = p_pow(parse_poly("0v*x + 0v*y + 0"), 2)
    rhs = p_mul(parse_poly("0v*x + y + 0"), parse_poly("x + 0v*y + 0"))
    assert func_equal(lhs, rhs)


def test_func_equal_zero_inputs():
    assert func_equal(p_zero(2), p_zero(2))
    assert not func_equal(p_zero(1), parse_poly("1v"))


def test_func_equal_agrees_with_sampling():
    rng = random.Random(29)
    for _ in range(60):
        nvars = rng.choice([1, 2])
        f = rand_poly(rng, nvars, max_deg=4, max_terms=4)
        g = rand_poly(rng, nvars, max_deg=4, max_terms=4)
        verdict = func_equal(f, g)
        if verdict:
            for _ in range(80):
                pt = rand_point(rng, nvars)
                assert p_eval(f, pt) == p_eval(g, pt)
        else:
            found = any(
                p_eval(f, pt) != p_eval(g, pt)
                for pt in (rand_point(rng, nvars) for _ in range(400))
            )
            # a disagreement point usually shows up by sampling; when it
            # does not, fall back to the reduced forms being different
            assert found or reduced_strict_part(f) != reduced_strict_part(g)


def test_func_equal_is_a_congruence():
    rng = random.Random(31)
    for _ in range(40):
        f = rand_poly(rng, 1, max_deg=3, max_terms=3)
        g = canonicalize(f).poly
        h = rand_poly(rng, 1, max_deg=3, max_terms=3)
        assert func_equal(f, g)
        assert func_equal(p_add(f, h), p_add(g, h))
        assert func_equal(p_mul(f, h), p_mul(g, h))


# -- factorization ----------------------------------------------------


def test_factor_perfect_square():
    fac = factor_univariate(parse_poly("x^2 + 6"))
    assert fac.unit == ONE
    assert fac.factors == ((parse_poly("x + 3"), 2),)


def test_factor_primitive_quadratic_fixed():
    f = parse_poly("x^2 + 3v*x + 0")
    fac = factor_univariate(f)
    assert fac.unit == ONE
    assert fac.factors == ((f, 1),)


def test_factor_right_ghost_ray():
    f = parse_poly("0v*x + 0")
    fac = factor_univariate(f)
    assert fac.unit == ONE
    assert fac.factors == ((parse_poly("0v*x + 0"), 1),)
    assert func_equal(fac.expand(), f)


def test_factor_left_ghost_ray():
    f = parse_poly("x + 2v")
    fac = factor_univariate(f)
    assert fac.factors == ((f, 1),)


def test_factor_wholly_ghost():
    f = parse_poly("0v*x + 0v")
    fac = factor_univariate(f)
    assert fac.unit == rat_g(Fraction(0))
    assert fac.factors == ((parse_poly("x + 0"), 1),)
    assert func_equal(fac.expand(), f)


def test_factor_monomial():
    fac = factor_univariate(parse_poly("5*x^3"))
    assert fac.unit == rat_t(Fraction(5))
    assert fac.factors == ((parse_poly("x"), 3),)
    ghost_mono = factor_univariate(parse_poly("5v*x^2"))
    assert ghost_mono.unit == rat_g(Fraction(5))


def test_factor_rejects_constants_and_zero():
    with pytest.raises(PreconditionError):
        factor_univariate(parse_poly("3"))
    with pytest.raises(PreconditionError):
        factor_univariate(parse_poly("3v"))
    with pytest.raises(PreconditionError):
        factor_univariate(p_zero(1))
    with pytest.raises(PreconditionError):
        factor_univariate(parse_poly("x + y"))


def test_factor_roundtrip_random():
    rng = random.Random(37)
    checked = 0
    for _ in range(120):
        f = canonicalize(rand_poly(rng, 1)).poly
        red = reduced_strict_part(f)
        if red.is_zero or (len(red.terms) == 1 and red.terms[0][0] == (0,)):
            continue
        fac = factor_univariate(f)
        assert func_equal(fac.expand(), f)
        checked += 1
    assert checked >= 80


def test_factor_ghost_run_multiplicity():
    # budget 2 at one breakpoint: one copy ghosted, one tangible
    f = p_mul(parse_poly("x + 1"), parse_poly("x + 1v"))
    fac = factor_univariate(f)
    assert func_equal(fac.expand(), f)
    bases = {format_poly(b) for b, _ in fac.factors}
    assert "x + 1v" in bases


# -- tangible roots ----------------------------------------------------


def test_tangible_root_examples():
    assert tangible_root(parse_poly("x + 5")) == Fraction(5)
    assert tangible_root(parse_poly("x^2 + 6")) == Fraction(3)
    assert tangible_root(parse_poly("7")) is None
    assert tangible_root(parse_poly("2*x^3")) is None
    assert tangible_root(parse_poly("2v*x")) == Fraction(0)
    assert tangible_root(p_zero(1)) == Fraction(0)


def test_tangible_root_lies_in_ghost_locus():
    rng = random.Random(41)
    hits = 0
    for _ in range(150):
        f = rand_poly(rng, 1)
        r = tangible_root(f)
        if r is None:
            red = reduced_strict_part(f)
            assert len(red.terms) == 1
            assert red.terms[0][1].layer is Layer.TANGIBLE
        else:
            assert z_member([f], (r,))
            hits += 1
    assert hits >= 100


# -- parsing and printing ----------------------------------------------


def test_parse_literals_and_vars():
    assert parse_poly("-inf") == p_zero(1)
    assert parse_poly("3/2v") == p_const(1, rat_g(Fraction(3, 2)))
    assert parse_poly("x*y*z").nvars == 3
    assert parse_poly("x3 + x1").nvars == 3
    assert parse_poly("y").nvars == 2
    assert parse_poly("x", nvars=4).nvars == 4


def test_parse_parenthesized_products():
    f = parse_poly("(x + 0) * (x + 1)")
    assert f == parse_poly("x^2 + 1*x + 1")
    g = parse_poly("(x + y)^2")
    assert g == p_pow(parse_poly("x + y"), 2)


def test_parse_errors():
    for bad in ("", "x +", "(x", "x-3", "2.5", "x1 + y", "x^-2", "x0",
                "x^1v", "3//2", ")("):
        with pytest.raises(ParseError):
            parse_poly(bad)
    with pytest.raises(ParseError):
        parse_poly("x*y", nvars=1)


def test_parse_rejects_zero_denominators():
    for bad in ("1/0", "1/0*x", "x + -3/0v"):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_poly(bad)


def test_parse_nesting_cap():
    deepest = "(" * MAX_NESTING + "x + 0" + ")" * MAX_NESTING
    assert parse_poly(deepest) == parse_poly("x + 0")
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_poly("(" * depth + "x" + ")" * depth)


def test_parse_variable_cap():
    assert parse_poly(f"x{MAX_VARIABLES}").nvars == MAX_VARIABLES
    # leading zeros name the same variable, however many there are
    assert parse_poly("x" + "0" * 5000 + "1") == parse_poly("x1")
    for index in (MAX_VARIABLES + 1, 10**9, "9" * 5000):
        with pytest.raises(ParseError, match=f"past x{MAX_VARIABLES}$"):
            parse_poly(f"x{index} + 0")


def test_format_examples():
    assert format_poly(p_zero(2)) == "-inf"
    assert format_poly(parse_poly("x^2 + 1")) == "x^2 + 1"
    f = parse_poly("0 + 3v*x*y + x*y^2 + x^2*y")
    assert format_poly(f) == "x^2*y + x*y^2 + 3v*x*y + 0"
    assert format_poly(parse_poly("0v*x + -3/2")) == "0v*x + -3/2"
    assert format_poly(parse_poly("x1*x4")) == "x1*x4"


def test_parse_format_roundtrip():
    rng = random.Random(43)
    for _ in range(200):
        f = rand_poly(rng, rng.choice([1, 2, 3]))
        assert parse_poly(format_poly(f), nvars=f.nvars) == f


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 5))
def test_linear_factor_profile(a_num, b_num, den):
    # ghost locus of x + a is exactly {a}
    a = Fraction(a_num, den)
    b = Fraction(b_num, den)
    f = parse_poly(f"x + {a}")
    assert z_member([f], (b,)) == (a == b)
