"""Spectra: points, closed sets, dimension, sections, and stalks."""

import hashlib
import itertools
import json
import random

import pytest

from supertrop import congr, spectra
from supertrop.congr import (
    DEFAULT_BOUND,
    EMPTY_RADICAL,
    FLAG_PRIME,
    FiniteNuSemiring,
    QHom,
    all_pairs,
    bundled_suite,
    classify,
    cong_closure,
    cong_intersect,
    crad,
    diagonal,
    enumerate_congruences,
    find_isomorphism,
    flat_idempotent,
    ghost_tower,
    ghostify,
    jac,
    localize_finite,
    mixed_units,
    nu_primes,
    permute_semiring,
    pullback,
    quotient,
    random_semiring,
    srad,
    str_chain,
    str_trunc,
    superboolean,
    two_level,
    unit_pair,
    validate,
)
from supertrop.errors import PreconditionError
from supertrop.spectra import (
    Spectrum,
    _hasse_edges,
    closure_of,
    d_restricted,
    d_set,
    focal_zone,
    i_of,
    irreducible,
    is_closed,
    is_nu_strict,
    krull_check,
    krull_dim,
    nullstellensatz_check,
    rcl,
    s_of_f,
    sections,
    spec,
    spectrum_to_json,
    stalk,
    v_set,
)

import spectra_oracles
from carrier_corpus import wide_corpus

B = superboolean()
CHAIN2 = str_chain(2)
FLAT = flat_idempotent()


def twin_flats() -> FiniteNuSemiring:
    """Two incomparable idempotents s, t whose product is ghost.

    The smallest carrier whose spectrum has two incomparable closed
    points over a common specialization, and whose whole spectrum is
    reducible.
    """
    names = ("0", "1", "s", "t", "1v")
    add = (
        (0, 1, 2, 3, 4),
        (1, 4, 4, 4, 4),
        (2, 4, 4, 4, 4),
        (3, 4, 4, 4, 4),
        (4, 4, 4, 4, 4),
    )
    mul = (
        (0, 0, 0, 0, 0),
        (0, 1, 2, 3, 4),
        (0, 2, 2, 4, 4),
        (0, 3, 4, 3, 4),
        (0, 4, 4, 4, 4),
    )
    nu = (0, 4, 4, 4, 4)
    return FiniteNuSemiring(
        names, 0, 1, add, mul, nu,
        frozenset({1, 2, 3}), frozenset({1, 2, 3}),
    )


TW = twin_flats()
# twin_flats prime reps, in spectrum order
TW_MERGE_S = (0, 1, 1, 3, 3)   # 1 = s, t ghosted
TW_MERGE_T = (0, 1, 2, 1, 2)   # 1 = t, s ghosted
TW_BOTH = (0, 1, 2, 2, 2)      # s and t ghosted
TW_GH_S = (0, 1, 2, 3, 2)
TW_GH_T = (0, 1, 2, 3, 3)


def suite():
    return list(bundled_suite()) + [("twin-flats", TW)]


def spec_of(R: FiniteNuSemiring) -> Spectrum:
    return spec(R)


def corpus() -> list[FiniteNuSemiring]:
    """The suite, str-chain and str-trunc 1-6, and random:0..39."""
    out = [R for _, R in suite()]
    out += [str_chain(n) for n in range(1, 7)]
    out += [str_trunc(n) for n in range(1, 7)]
    return out + [random_semiring(seed) for seed in range(40)]


# -- independent point enumeration ---------------------------------------


def all_partitions(n):
    def rec(prefix, m):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for k in range(m + 1):
            yield from rec(prefix + [k], max(m, k + 1) if k == m else m)

    yield from rec([0], 1)


def least_reps(labels):
    first = {}
    out = []
    for i, lab in enumerate(labels):
        first.setdefault(lab, i)
        out.append(first[lab])
    return tuple(out)


def prime_reps_by_enumeration(R: FiniteNuSemiring) -> list:
    """Nu-primes recomputed from the definitions, off the raw tables."""
    n = R.size

    def compatible(rep):
        for a in range(n):
            for b in range(a + 1, n):
                if rep[a] != rep[b]:
                    continue
                if rep[R.nu(a)] != rep[R.nu(b)]:
                    return False
                for c in range(n):
                    if rep[R.add(a, c)] != rep[R.add(b, c)]:
                        return False
                    if rep[R.mul(a, c)] != rep[R.mul(b, c)]:
                        return False
        return True

    def prime(rep):
        cls = {}
        for i, r in enumerate(rep):
            cls.setdefault(r, []).append(i)
        iT = {
            i
            for mem in cls.values()
            if all(m in R.tangible for m in mem)
            for i in mem
        }
        for u in R.units:
            if any(m not in R.tangible for m in cls[rep[u]]):
                return False
        if any(R.mul(a, b) not in iT for a in iT for b in iT):
            return False
        iG = {a for a in range(n) if rep[a] == rep[R.nu(a)]}
        return not any(
            R.mul(a, b) in iG and a not in iG and b not in iG
            for a in range(n)
            for b in range(n)
        )

    found = set()
    for labels in all_partitions(n):
        rep = least_reps(labels)
        if rep not in found and compatible(rep) and prime(rep):
            found.add(rep)
    return sorted(found)


def test_twin_flats_validates():
    assert validate(TW).passed


def test_points_match_partition_enumeration():
    for name, R in suite():
        S = spec_of(R)
        assert [p.reps for p in S.points] == prime_reps_by_enumeration(R), name


def test_point_goldens():
    assert [p.reps for p in spec_of(B).points] == [(0, 1, 2)]
    assert [p.reps for p in spec_of(CHAIN2).points] == [
        (0, 1, 2, 2, 2),
        (0, 1, 2, 3, 3),
    ]
    assert [p.reps for p in spec_of(str_trunc(3)).points] == [
        (0, 1, 2, 2, 2, 2, 2),
        (0, 1, 2, 3, 3, 3, 3),
        (0, 1, 2, 3, 3, 5, 5),
    ]
    assert [p.reps for p in spec_of(FLAT).points] == [
        (0, 1, 1, 3),
        (0, 1, 2, 2),
        (0, 1, 2, 3),
    ]
    assert [p.reps for p in spec_of(TW).points] == [
        TW_MERGE_S, TW_MERGE_T, TW_BOTH, TW_GH_S, TW_GH_T,
    ]


def test_tangible_clusters_of_points():
    S = spec_of(TW)
    one, s, t = TW.index("1"), TW.index("s"), TW.index("t")
    assert [sorted(p.iT) for p in S.points] == [
        [one, s], [one, t], [one], [one, t], [one, s],
    ]


def test_prime_clusters_are_complementary():
    # on carriers that split into tangibles and ghosts, a class
    # avoiding the ghost cluster can never touch a ghost or zero
    for name, R in suite():
        for p in spec_of(R).points:
            assert p.iT == frozenset(range(R.size)) - p.iG, name


def test_spectrum_names_and_index():
    S = spec_of(TW)
    assert S.index_of(S.points[2]) == 2
    foreign = ghostify(TW, [TW.index("1v")])
    with pytest.raises(PreconditionError):
        S.index_of(foreign)


def test_spec_requires_valid_carrier():
    bad = FiniteNuSemiring(
        ("0", "1"), 0, 1,
        ((0, 1), (1, 0)),   # addition not idempotent-compatible
        ((0, 0), (0, 1)),
        (0, 1),
        frozenset({1}), frozenset({1}),
    )
    with pytest.raises(PreconditionError):
        spec(bad)


# -- dimension and height -------------------------------------------------


def test_krull_dimensions():
    expected = {
        "superboolean": 0,
        "str-chain:2": 0,
        "str-trunc:3": 0,
        "flat-idempotent": 1,
        "unit-pair": 0,
        "ghost-tower": 1,
        "mixed-units": 1,
        "two-level-t": 1,
        "two-level-g": 1,
        "twin-flats": 1,
    }
    for name, R in suite():
        assert krull_dim(spec(R)) == expected[name], name


def test_heights():
    expected = {
        "superboolean": [0],
        "str-chain:2": [0, 0],
        "str-trunc:3": [0, 0, 0],
        "flat-idempotent": [0, 1, 0],
        "unit-pair": [0, 0],
        "ghost-tower": [0, 0, 1, 1, 0, 0],
        "mixed-units": [0, 1, 0, 1, 0],
        "two-level-t": [0, 0, 1, 1, 0, 0],
        "two-level-g": [0, 0, 1, 1, 0, 0],
        "twin-flats": [0, 0, 1, 0, 0],
    }
    for name, R in suite():
        S = spec_of(R)
        assert list(S.heights) == expected[name], name


def test_height_rejects_non_primes():
    with pytest.raises(PreconditionError):
        spec(CHAIN2).index_of(ghostify(CHAIN2, [CHAIN2.index("1v")]))


def test_dimension_needs_strictly_shrinking_tangibles():
    # the two chain-2 primes are strictly nested, but both keep the
    # tangible cluster {1}; the nesting contributes no dimension
    S = spec_of(CHAIN2)
    big, small = S.points[0], S.points[1]
    assert small.refines(big) and small.reps != big.reps
    assert small.iT == big.iT
    assert krull_dim(S) == 0


def test_dimension_witness_on_flat():
    # ghostifying the idempotent strictly shrinks the tangible cluster
    S = spec_of(FLAT)
    diag = S.points[2]
    gh_t = S.points[1]
    assert diag.refines(gh_t)
    assert gh_t.iT < diag.iT
    assert S.heights[S.index_of(gh_t)] == 1


def test_order_matches_refines_oracles():
    rng = random.Random(0)
    carriers = []
    for R in corpus():
        perm = list(range(R.size))
        rng.shuffle(perm)
        carriers += [R, permute_semiring(R, perm)]
    for R in carriers:
        bound = max(R.size, DEFAULT_BOUND)
        S = spec(R, bound)
        fresh = spec(R, bound)
        below = spectra_oracles._strictly_below(S.points)
        assert [sorted(b) for b in S.below] == below, R
        heights = [spectra_oracles.height(R, p, bound) for p in S.points]
        assert list(S.heights) == heights, R
        assert krull_dim(S) == max(heights, default=-1), R
        assert sorted(_hasse_edges(S)) == sorted(
            spectra_oracles._hasse_edges(S.points)
        ), R
        assert [S.index_of(p) for p in S.points] == list(range(len(S.points)))
        # the cached order, index and heights stay out of == and hash
        assert S == fresh and hash(S) == hash(fresh), R
    assert krull_dim(Spectrum(B, ())) == -1


# -- closed sets -----------------------------------------------------------


def test_v_of_elements():
    S = spec_of(TW)
    assert v_set(S, [TW.index("s")]).members == {1, 2, 3}
    assert v_set(S, [TW.index("t")]).members == {0, 2, 4}
    assert v_set(S, [TW.index("s"), TW.index("t")]).members == {2}
    assert v_set(S, [TW.index("1v")]).members == {0, 1, 2, 3, 4}
    assert v_set(S, [TW.index("1")]).members == set()
    assert v_set(S, []).members == {0, 1, 2, 3, 4}


def test_v_of_congruence_vs_ghostification():
    S = spec_of(TW)
    for size in (1, 2):
        for E in itertools.combinations(range(1, TW.size), size):
            theta = ghostify(TW, list(E))
            assert v_set(S, theta).members == v_set(S, E).members


def test_v_of_congruence_separates_tangible_merges():
    # merge-of-tangibles primes share their ghost cluster with a pure
    # ghostification; only the congruence-level V tells them apart
    S = spec_of(TW)
    merge_s = S.points[0]
    gh_t = S.points[4]
    assert merge_s.iG == gh_t.iG
    assert v_set(S, merge_s).members == {0}
    assert v_set(S, gh_t).members == {0, 2, 4}
    assert v_set(S, sorted(merge_s.iG)).members == {0, 2, 4}


def test_d_complement_and_products():
    for name, R in [("twin-flats", TW), ("flat", FLAT), ("tower", ghost_tower())]:
        S = spec_of(R)
        whole = set(range(len(S.points)))
        for f in range(R.size):
            assert d_set(S, f).members == whole - v_set(S, [f]).members
            for g in range(R.size):
                assert (
                    d_set(S, f).members & d_set(S, g).members
                    == d_set(S, R.mul(f, g)).members
                ), name
        for f in range(R.size):
            fn = f
            for _ in range(3):
                fn = R.mul(fn, f)
                assert d_set(S, fn).members == d_set(S, f).members


def test_d_set_goldens():
    S = spec_of(TW)
    assert d_set(S, TW.index("s")).members == {0, 4}
    assert d_set(S, TW.index("t")).members == {1, 3}
    assert d_set(S, TW.index("1")).members == {0, 1, 2, 3, 4}
    assert d_set(S, TW.index("1v")).members == set()
    assert d_set(S, TW.index("s")).source == TW.index("s")


def test_d_restricted():
    S = spec_of(TW)
    s, t = TW.index("s"), TW.index("t")
    assert d_restricted(S, [s], s).members == {0, 4}
    assert d_restricted(S, [t], s).members == set()
    assert d_restricted(S, [], s).members == d_set(S, s).members


def test_i_of_points():
    S = spec_of(TW)
    for k, p in enumerate(S.points):
        assert i_of(S, [k]).reps == p.reps
    assert i_of(S, [0, 1]).reps == (0, 1, 2, 3, 4)
    assert i_of(S, [0, 2, 4]).reps == TW_GH_T
    assert i_of(S, range(5)).reps == (0, 1, 2, 3, 4)


def test_i_of_empty_is_improper():
    S = spec_of(TW)
    improper = i_of(S, [])
    assert improper.reps == (0,) * TW.size
    assert v_set(S, improper).members == set()


def test_closure_and_closedness():
    S = spec_of(TW)
    assert closure_of(S, [4]).members == {0, 2, 4}
    assert closure_of(S, [3]).members == {1, 2, 3}
    assert not is_closed(S, [4])
    assert is_closed(S, [0])
    assert is_closed(S, [0, 2, 4])
    assert is_closed(S, [])
    assert is_closed(S, range(5))
    # closure is idempotent
    for size in range(3):
        for Y in itertools.combinations(range(5), size):
            c1 = closure_of(S, Y).members
            assert closure_of(S, c1).members == c1


def test_closed_family_golden():
    S = spec_of(TW)
    closed = [
        set(Y)
        for r in range(6)
        for Y in itertools.combinations(range(5), r)
        if is_closed(S, Y)
    ]
    assert closed == [
        set(),
        {0}, {1}, {2},
        {0, 2, 4}, {1, 2, 3},
        {0, 1, 2, 3, 4},
    ]
    # the congruence family is not stable under union: both closed
    # points sit over p2, but their union misses it
    assert not is_closed(S, [0, 1])
    assert closure_of(S, [0, 1]).members == {0, 1, 2, 3, 4}


def test_ghost_radical_identity():
    # I(V(E)) is the s-radical of E, with the empty radical paired to
    # the improper relation
    for name, R in [("twin-flats", TW), ("flat", FLAT), ("chain", CHAIN2)]:
        S = spec_of(R)
        for size in range(R.size):
            for E in itertools.combinations(range(R.size), size):
                rad = srad(R, E)
                got = i_of(S, v_set(S, E))
                if rad is EMPTY_RADICAL:
                    assert got.reps == (0,) * R.size, (name, E)
                else:
                    assert got.reps == rad.reps, (name, E)


def test_rcl():
    s = TW.index("s")
    assert rcl(TW, [s]) == {0, s, TW.index("1v")}
    assert rcl(TW, [TW.index("1")]) == frozenset()
    assert rcl(TW, []) == {0, TW.index("1v")}
    closed = rcl(TW, [s])
    assert rcl(TW, sorted(closed)) == closed


def test_v_of_rcl_matches_v():
    S = spec_of(TW)
    for size in range(TW.size):
        for E in itertools.combinations(range(TW.size), size):
            closure = rcl(TW, E)
            if srad(TW, E) is EMPTY_RADICAL:
                assert v_set(S, E).members == set()
            else:
                assert v_set(S, sorted(closure)).members == v_set(S, E).members


# -- irreducibility ---------------------------------------------------------


def test_irreducible_matches_topological_definition():
    for name, R in [("twin-flats", TW), ("flat", FLAT), ("units", mixed_units())]:
        S = spec_of(R)
        n = len(S.points)
        closed = [
            frozenset(Y)
            for r in range(n + 1)
            for Y in itertools.combinations(range(n), r)
            if is_closed(S, Y)
        ]
        for Y in closed:
            if not Y:
                assert not irreducible(S, Y)
                continue
            split = any(
                Z1 | Z2 == Y
                for Z1 in closed
                if Z1 < Y
                for Z2 in closed
                if Z2 < Y
            )
            assert irreducible(S, Y) == (not split), (name, sorted(Y))


def test_irreducible_rejects_non_closed():
    S = spec_of(TW)
    with pytest.raises(PreconditionError):
        irreducible(S, [4])


def test_whole_space_irreducibility():
    # a carrier whose tangibles multiply without collisions has an
    # irreducible spectrum; twin flats decompose into V(s) and V(t)
    assert irreducible(spec_of(B), [0])
    S = spec_of(FLAT)
    assert irreducible(S, range(3))
    T = spec_of(TW)
    assert not irreducible(T, range(5))
    assert v_set(T, [TW.index("s")]).members | v_set(T, [TW.index("t")]).members \
        == set(range(5))


def test_irreducible_closed_sets_biject_with_points():
    # closure is injective on points and every irreducible closed set
    # is a point closure
    for name, R in suite():
        S = spec_of(R)
        n = len(S.points)
        closures = {}
        for k in range(n):
            Y = closure_of(S, [k]).members
            assert irreducible(S, Y), name
            assert i_of(S, Y).reps == S.points[k].reps, name
            closures[Y] = k
        assert len(closures) == n, name
        for r in range(n + 1):
            for Y in itertools.combinations(range(n), r):
                Y = frozenset(Y)
                if Y and is_closed(S, Y) and irreducible(S, Y):
                    assert Y in closures, name


# -- denominator monoids, sections, stalks ----------------------------------


def test_s_of_one_is_the_unit_group():
    for name, R in suite():
        assert s_of_f(spec(R), R.one) == R.units, name


def test_s_of_f_goldens():
    s, t = TW.index("s"), TW.index("t")
    assert s_of_f(spec(TW), s) == {TW.one, s}
    assert s_of_f(spec(TW), t) == {TW.one, t}
    assert s_of_f(spec(TW), TW.index("1v")) == {TW.one}
    F = FLAT
    assert s_of_f(spec(F), F.index("t")) == {F.one, F.index("t")}
    M = mixed_units()
    assert s_of_f(spec(M), M.index("u")) == M.units
    assert s_of_f(spec(M), M.index("t")) == {M.one, M.index("u"), M.index("t")}


def test_s_of_ghostpotent_is_all_safe_denominators():
    # a ghostpotent has an empty basic open, so every prudent
    # non-ghost-divisor qualifies
    a = CHAIN2.index("a")
    S = spec_of(CHAIN2)
    assert d_set(S, a).members == set()
    assert s_of_f(S, a) == {CHAIN2.one}
    assert s_of_f(S, a) == CHAIN2.prudent - CHAIN2.ghost_divisors()


def test_focal_zone_fills_basic_opens():
    # non-ghost classes on these carriers are wholly tangible, so the
    # denominators of S(f) stay tangible at every point of D(f)
    for name, R in suite():
        S = spec_of(R)
        for f in range(R.size):
            assert focal_zone(S, f).members == d_set(S, f).members, name
            assert is_nu_strict(S, f), name


def test_sections_over_whole_spectrum():
    for name, R in suite():
        S = spec_of(R)
        sec = sections(S, d_set(S, R.one))
        assert find_isomorphism(sec, R) is not None, name


def test_sections_over_basic_open():
    S = spec_of(TW)
    sec = sections(S, d_set(S, TW.index("s")))
    assert sec.size == 3
    assert find_isomorphism(sec, B) is not None
    # an element argument means its basic open
    again = sections(S, TW.index("s"))
    assert again.names == sec.names


def test_sections_need_a_defining_element():
    S = spec_of(TW)
    with pytest.raises(PreconditionError):
        sections(S, v_set(S, [TW.index("s")]))


def test_sections_agree_with_power_localization():
    # the section carrier of D(f) localizes by S(f); inverting just
    # the powers of f gives the same carrier whenever f is prudent
    M = mixed_units()
    S = spec_of(M)
    t = M.index("t")
    sec = sections(S, d_set(S, t))
    by_powers, _ = localize_finite(M, sorted({M.one} | M.powers_of(t)))
    assert find_isomorphism(sec, by_powers) is not None


def test_stalks_localize_at_point_clusters():
    for name, R in suite():
        S = spec_of(R)
        for x in range(len(S.points)):
            Q = stalk(S, x)
            direct, _ = localize_finite(R, sorted(S.points[x].iT))
            assert Q.names == direct.names, name
            assert validate(Q).passed, name


def test_stalk_goldens():
    S = spec_of(TW)
    assert find_isomorphism(stalk(S, 2), TW) is not None
    for x in (0, 1, 3, 4):
        assert stalk(S, x).size == 3
        assert find_isomorphism(stalk(S, x), B) is not None
    with pytest.raises(PreconditionError):
        stalk(S, 5)


def test_out_of_range_and_foreign_inputs_are_rejected():
    S = spec_of(FLAT)
    t = FLAT.index("t")
    for index in (99, -1):
        for call in (
            lambda: v_set(S, [t, index]),
            lambda: d_set(S, index),
            lambda: d_restricted(S, [index], t),
            lambda: d_restricted(S, [t], index),
            lambda: s_of_f(S, index),
            lambda: focal_zone(S, index),
            lambda: is_nu_strict(S, index),
            lambda: sections(S, index),
            lambda: localize_finite(CHAIN2, [1, index]),
            lambda: ghostify(FLAT, [index]),
            lambda: srad(FLAT, [index]),
            lambda: rcl(FLAT, [index]),
            lambda: cong_closure(FLAT, [(0, index)]),
        ):
            with pytest.raises(PreconditionError) as exc:
                call()
            assert str(exc.value) == f"no carrier element with index {index}"
        for call in (
            lambda: stalk(S, index),
            lambda: i_of(S, [0, index]),
            lambda: is_closed(S, [index]),
        ):
            with pytest.raises(PreconditionError) as exc:
                call()
            assert str(exc.value) == f"no spectrum point with index {index}"
    M = mixed_units()
    foreign = d_set(spec(M), M.index("t"))
    with pytest.raises(PreconditionError) as exc:
        sections(S, foreign)
    assert str(exc.value) == "point set lives on another spectrum"
    # a fresh spectrum of the same carrier is the same spectrum
    assert sections(spec(FLAT), d_set(S, t)).names == sections(S, t).names


def test_stalk_with_collision_denominators():
    # inverting t on the collision variant drags a into the ghosts;
    # the stalk is still defined, with a four-element carrier
    G = two_level(False)
    S = spec_of(G)
    x = S.index_of(ghostify(G, [G.index("a")]))
    Q = stalk(S, x)
    assert Q.size == 4
    assert sorted(Q.names) == sorted(("0", "1", "1v", "av"))


def test_stalks_are_local():
    # every stalk has a least tangible cluster among its primes, so
    # all tangibly minimal primes share that projection
    for name, R in suite():
        S = spec_of(R)
        for x in range(len(S.points)):
            Q = stalk(S, x)
            clusters = [p.iT for p in nu_primes(Q)]
            least = min(clusters, key=len)
            assert all(least <= c for c in clusters), name


# -- localization and quotient correspondences ------------------------------


def admissible_monoids(R):
    safe = R.prudent - R.ghost_divisors()
    out = []
    for size in range(1, len(safe) + 1):
        for C in itertools.combinations(sorted(safe), size):
            C = set(C) | {R.one}
            if all(R.mul(a, b) in C for a in C for b in C):
                out.append(tuple(sorted(C)))
    return sorted(set(out))


def test_localization_points_embed():
    # points of a localization pull back injectively, preserving
    # inclusion, onto primes whose tangible cluster holds the
    # denominators; for unit denominators this is a bijection
    for name, R in suite():
        S = spec_of(R)
        for C in admissible_monoids(R):
            L, tau = localize_finite(R, list(C))
            SL = spec(L)
            pulled = [
                pullback(QHom(R, L, tau), q).reps for q in SL.points
            ]
            assert len(set(pulled)) == len(pulled), name
            over = {
                p.reps for p in S.points if set(C) <= p.iT
            }
            assert set(pulled) <= over, name
            order_src = [
                (i, j)
                for i in range(len(SL.points))
                for j in range(len(SL.points))
                if SL.points[i].refines(SL.points[j])
            ]
            by_reps = {p.reps: p for p in S.points}
            for i, j in order_src:
                assert by_reps[pulled[i]].refines(by_reps[pulled[j]]), name
            if set(C) <= R.units:
                assert set(pulled) == over, name


def test_localization_embedding_is_strict_for_collisions():
    # inverting the idempotent s identifies 1 with s, so the pure
    # ghostification of t can no longer be separated from the merge
    s = TW.index("s")
    L, tau = localize_finite(TW, [TW.one, s])
    assert find_isomorphism(L, B) is not None
    SL = spec(L)
    assert len(SL.points) == 1
    image = pullback(QHom(TW, L, tau), SL.points[0]).reps
    assert image == TW_MERGE_S
    S = spec_of(TW)
    over = {p.reps for p in S.points if {TW.one, s} <= p.iT}
    assert over == {TW_MERGE_S, TW_GH_T}


def test_quotient_spectrum_matches_closed_set():
    # primes of a quotient pull back bijectively onto V(theta),
    # preserving inclusion
    cases = [
        (TW, spec_of(TW).points[4]),
        (TW, spec_of(TW).points[2]),
        (FLAT, spec_of(FLAT).points[1]),
        (TW, i_of(spec_of(TW), range(5))),  # diagonal: whole spectrum
    ]
    for R, theta in cases:
        S = spec_of(R)
        Q, proj = quotient(R, theta)
        SQ = spec(Q)
        pulled = sorted(
            pullback(QHom(R, Q, proj), q).reps for q in SQ.points
        )
        target = sorted(
            S.points[i].reps for i in v_set(S, theta).members
        )
        assert pulled == target, theta.reps


# -- reports and serialization ----------------------------------------------


def test_nullstellensatz_check_passes_on_suite():
    for R in corpus():
        bound = max(R.size, DEFAULT_BOUND)
        for theta in enumerate_congruences(R, bound):
            report = nullstellensatz_check(R, theta, bound)
            assert report.passed, (R.names, theta.reps, report.failures)
            assert report.checked == R.size


def test_nullstellensatz_check_can_fail(monkeypatch):
    # the right side reads theta alone: with theta's own point gone no
    # point lies over it, so 1 reads ghost at every point, yet no
    # power of 1 is ghost in theta
    S = spec_of(FLAT)
    theta = S.points[1]
    monkeypatch.setattr(
        spectra, "nu_primes", lambda R, bound: (S.points[0], S.points[2])
    )
    report = nullstellensatz_check(FLAT, theta)
    assert not report.passed
    assert report.failures == (
        "1: ghost at all points is True, in radical ghost cluster is False",
    )


def test_krull_check_passes_on_suite():
    for name, R in suite():
        report = krull_check(R)
        assert report.passed, (name, report.failures)
    for R in wide_corpus():
        report = krull_check(R, R.size)
        assert report.passed, (R.names, report.failures)


def test_krull_check_can_fail(monkeypatch):
    # the closure radical of str-chain:2 is the meet of both points;
    # without the second point the meet is larger
    S = spec_of(CHAIN2)
    monkeypatch.setattr(spectra, "nu_primes", lambda R, bound: S.points[:1])
    report = krull_check(CHAIN2)
    assert (report.passed, report.checked) == (False, 4)
    assert report.failures == ("srad of empty set differs from prime intersection",)
    monkeypatch.setattr(spectra, "nu_primes", lambda R, bound: ())
    assert krull_check(CHAIN2).failures == ("no primes yet a nonempty radical",)


def test_foreign_congruences_are_rejected():
    S = spec_of(FLAT)
    for call in (
        lambda: v_set(S, diagonal(unit_pair())),
        lambda: S.index_of(spec(unit_pair()).points[0]),
        lambda: crad(FLAT, diagonal(unit_pair())),
        lambda: crad(FLAT, diagonal(str_chain(2))),
        lambda: nullstellensatz_check(FLAT, diagonal(unit_pair())),
        lambda: quotient(CHAIN2, diagonal(str_chain(3))),
        lambda: classify(CHAIN2, diagonal(str_chain(3))),
        lambda: jac(CHAIN2, diagonal(str_chain(3))),
        lambda: quotient(unit_pair(), all_pairs(FLAT)),
        lambda: cong_intersect(diagonal(CHAIN2), diagonal(str_chain(3))),
    ):
        with pytest.raises(PreconditionError) as exc:
            call()
        assert str(exc.value) == "congruence lives on the wrong carrier"


def test_check_report_json():
    report = krull_check(TW)
    decoded = json.loads(report.to_json())
    assert decoded == {
        "name": "krull",
        "passed": True,
        "checked": 4,
        "failures": [],
    }
    assert report.to_json() == report.to_json()


# sha256 of spectrum_to_json(spec(R, b), b) with b = max(R.size, 7),
# taken when every point's flags came from classify and the lattice
SPECTRUM_JSON_DIGESTS = {
    "superboolean":
        "46e80faf041c133a1db11492fc3eca4011c0111509f2a8458407898e7b1b8014",
    "str-chain:2":
        "7b3b0886609f73b963681d93e253829bcf88ae3f2827690aaa919e17d03a8cb2",
    "str-trunc:3":
        "15dfeb5b9d51719365acb0253fc706bd746966ce68ace0876d5dfd32378ad47a",
    "flat-idempotent":
        "5c8bf14cdc8d17eb7c20afebed9fa796e7ec65df7796dc5186f1bd67c65bce81",
    "unit-pair":
        "7ebd96659cf9e0a6a2985ebf866072ca800c45fd65462a0846d9ef26507e8250",
    "ghost-tower":
        "48e8b569e0d3b0d75ed78c0d19ca26aab00a29d97f8c2d79ddf0514fd12af005",
    "mixed-units":
        "e8bf8589e061df04ac148d4dd5353f297c927d9681cb1d557c30d2655c0995b0",
    "two-level-t":
        "01347c2241266a1d691f32fdbd390b001253f4de9110eed30399a6264255dc09",
    "two-level-g":
        "01347c2241266a1d691f32fdbd390b001253f4de9110eed30399a6264255dc09",
    "str-chain:1":
        "04e863c4b2eaea0382760afcad884b8c95bf1da49f2cc34ae0f8fe5c0dbd0bd0",
    "str-trunc:1":
        "04e863c4b2eaea0382760afcad884b8c95bf1da49f2cc34ae0f8fe5c0dbd0bd0",
    "str-trunc:2":
        "7b3b0886609f73b963681d93e253829bcf88ae3f2827690aaa919e17d03a8cb2",
    "str-chain:3":
        "a35342605ad1ea421297b77c2209d3adc5fe812ee19a853d6e5d28205cc321c4",
    "str-chain:4":
        "66475f29b35b5fe62d2c7365c9ee942091e87d9a4f207b8d1b26eb650c5629db",
    "str-trunc:4":
        "a576969124daeb8bf8aeb105efc1018eba010157984285d92fd8cee5f2661bc0",
}


def test_spectrum_flags_need_neither_lattice_nor_bound(monkeypatch):
    S = spec(str_chain(4), 9)
    assert spectrum_to_json(S) == spectrum_to_json(S, 9)
    assert "MaximalL" in spectrum_to_json(S)
    carriers = dict(bundled_suite())
    carriers.update(
        (f"{prefix}:{n}", build(n))
        for n in range(1, 5)
        for prefix, build in (("str-chain", str_chain), ("str-trunc", str_trunc))
    )
    spectra_by_name = {
        name: spec(R, max(R.size, DEFAULT_BOUND)) for name, R in carriers.items()
    }

    def no_lattice(*args):
        raise AssertionError("spectrum_to_json searched the congruences")

    # spec found each carrier's points; drop them, so that a read would
    # search again, and make both the lattice and the search raise
    for S in spectra_by_name.values():
        del vars(S.carrier)["_primes"]
    monkeypatch.setattr(congr, "_all_congruences", no_lattice)
    monkeypatch.setattr(congr, "_joins", no_lattice)
    assert set(spectra_by_name) == set(SPECTRUM_JSON_DIGESTS)
    for name, S in spectra_by_name.items():
        dumped = spectrum_to_json(S).encode()
        assert hashlib.sha256(dumped).hexdigest() == SPECTRUM_JSON_DIGESTS[name]


def test_spectrum_paths_never_build_the_lattice(monkeypatch):
    # the points come from the prime search; only congs and nullcheck
    # without a congruence build the lattice
    carriers = [(R, R.size) for R in wide_corpus()]
    carriers.append((str_chain(9), 19))

    def no_lattice(R):
        raise AssertionError("a spectrum path built the congruence lattice")

    monkeypatch.setattr(congr, "_all_congruences", no_lattice)
    for R, bound in carriers:
        S = spec(R, bound)
        assert spectrum_to_json(S) == spectrum_to_json(S, bound)
        assert krull_check(R, bound).passed, R.names
        # every point of a small spectrum, and 16 of a large one
        step = max(1, len(S.points) // 16)
        for x in range(0, len(S.points), step):
            p = S.points[x]
            assert FLAG_PRIME in classify(R, p, bound)
            assert nullstellensatz_check(R, p, bound).passed, R.names
            assert p.refines(jac(R, p, bound)), R.names
            assert stalk(S, x).size >= 1
        for f in range(R.size):
            assert sections(S, f).size >= 1
        assert jac(R, diagonal(R), bound) is not EMPTY_RADICAL
        assert nullstellensatz_check(R, diagonal(R), bound).passed
    assert len(S.points) == 256
    with pytest.raises(AssertionError):
        enumerate_congruences(R, bound)


def test_spectrum_json_shape():
    S = spec_of(TW)
    dumped = spectrum_to_json(S)
    assert dumped == spectrum_to_json(S)
    doc = json.loads(dumped)
    assert set(doc) == {"points", "hasse"}
    assert len(doc["points"]) == 5
    assert doc["hasse"] == [[3, 1], [3, 2], [4, 0], [4, 2]]
    point = doc["points"][2]
    assert set(point) == {"classes", "iT", "iG", "flags"}
    assert point["iT"] == ["1"]
    assert point["iG"] == ["0", "1v", "s", "t"]
    assert "NuPrime" in point["flags"]
    assert json.dumps(doc, sort_keys=True) == dumped
