"""Finite carriers, their validation, and the congruence toolkit."""

import collections
import dataclasses
import functools
import gc
import importlib
import itertools
import json
import pkgutil
import random
import time
import weakref

import pytest

import supertrop
from supertrop import congr
from supertrop.congr import (
    Congruence,
    DEFAULT_BOUND,
    _assemble_blocks,
    _powers,
    EMPTY_RADICAL,
    FLAG_DETERMINED,
    FLAG_GHOST,
    FLAG_L,
    FLAG_MAXIMAL_L,
    FLAG_PRIME,
    FLAG_Q,
    FLAG_RADICAL,
    FLAG_TANGLY_MINIMAL,
    FLAGS,
    FiniteNuSemiring,
    QHom,
    ValidationReport,
    all_pairs,
    bundled_suite,
    builtin_semiring,
    check_q_homomorphism,
    classify,
    computed_prudent,
    cong_closure,
    cong_from_json,
    cong_intersect,
    cong_to_json,
    crad,
    diagonal,
    enumerate_congruences,
    find_isomorphism,
    flat_idempotent,
    ghost_tower,
    ghostify,
    gprad,
    is_congruence,
    localize_finite,
    make_semiring,
    mixed_units,
    nu_primes,
    permute_semiring,
    pullback,
    quotient,
    random_semiring,
    require_valid,
    semiring_from_json,
    srad,
    str_chain,
    str_trunc,
    superboolean,
    to_json,
    two_level,
    unit_pair,
    validate,
)
from supertrop.errors import BoundError, ParseError, PreconditionError
from supertrop.spectra import (
    jac,
    krull_check,
    nullstellensatz_check,
    rcl,
    spec,
)

from carrier_corpus import wide_corpus
from congr_oracles import (
    all_partition_reps,
    brute_congruences,
    eager_validate,
    fixpoint_closure,
    flag_family,
    found_joins,
    loop_computed_prudent,
    loop_powers_of,
    meet_crad,
    pairwise_localize_finite,
    partition_join,
    pruned_congruences,
    scan_basic_flags,
    scan_isomorphism,
)

B = superboolean()
CHAIN2 = str_chain(2)
FLAG_KINDS = (
    FLAG_Q, FLAG_L, FLAG_PRIME, FLAG_RADICAL, FLAG_DETERMINED, FLAG_GHOST,
    FLAG_TANGLY_MINIMAL, FLAG_MAXIMAL_L,
)


def orthogonal_idempotents(k: int) -> FiniteNuSemiring:
    """1 and k idempotents whose pairwise products ghost: every
    permutation of the idempotents is an automorphism."""
    idem = [f"e{i}" for i in range(k)]
    tan_mul = {("1", x): x for x in ["1", *idem]}
    for i, x in enumerate(idem):
        for y in idem[i:]:
            tan_mul[(x, y)] = x if x == y else "1v"
    return _assemble_blocks([("1", *idem)], ("1v",), tan_mul)


def crossed_pairs() -> FiniteNuSemiring:
    """Idempotents s, t over tangibles a, b with s*a = a, t*b = b and the
    crossed products ghost: the one non-trivial automorphism swaps s with
    t and a with b together, so a search must backtrack to find it."""
    tan_mul = {("1", x): x for x in ("1", "s", "t", "a", "b")}
    tan_mul.update({
        ("s", "s"): "s", ("t", "t"): "t", ("s", "t"): "1v",
        ("s", "a"): "a", ("s", "b"): "av", ("t", "a"): "av", ("t", "b"): "b",
        ("a", "a"): "av", ("a", "b"): "av", ("b", "b"): "av",
    })
    return _assemble_blocks([("1", "s", "t"), ("a", "b")], ("1v", "av"), tan_mul)


def small_carriers() -> list[tuple[str, FiniteNuSemiring]]:
    """The bundled carriers, the chains of length 1-5, random:0..39 and
    three carriers with non-trivial automorphisms."""
    out = list(bundled_suite())
    for n in range(1, 6):
        out += [(f"str-chain:{n}", str_chain(n)), (f"str-trunc:{n}", str_trunc(n))]
    out += [(f"random:{s}", random_semiring(s)) for s in range(40)]
    return out + [
        ("orthogonal:2", orthogonal_idempotents(2)),
        ("orthogonal:3", orthogonal_idempotents(3)),
        ("crossed-pairs", crossed_pairs()),
    ]


def names_of(R: FiniteNuSemiring, indices) -> set:
    return {R.names[i] for i in indices}


def cong_of(R: FiniteNuSemiring, *blocks: tuple) -> Congruence:
    seen = {}
    for block in blocks:
        idx = sorted(R.index(n) for n in block)
        for i in idx:
            seen[i] = idx[0]
    reps = tuple(seen.get(i, i) for i in range(R.size))
    reps = tuple(min(r, i) if reps[i] == i else r for i, r in enumerate(reps))
    return Congruence(R, tuple(seen.get(i, i) for i in range(R.size)))


# -- carrier tables ------------------------------------------------------


def test_superboolean_golden_tables():
    assert B.names == ("b0", "b1", "b1v")
    assert (B.zero, B.one) == (0, 1)
    assert B.add_table == ((0, 1, 2), (1, 2, 2), (2, 2, 2))
    assert B.mul_table == ((0, 0, 0), (0, 1, 2), (0, 2, 2))
    assert B.nu_table == (0, 2, 2)
    assert B.tangible == {1}
    assert B.prudent == {1}
    assert B.ghost0 == {0, 2}
    assert B.units == {1}


def test_chain2_collision_ghosts_the_square():
    a = CHAIN2.index("a")
    av = CHAIN2.index("av")
    assert CHAIN2.mul(a, a) == av
    assert CHAIN2.prudent == {CHAIN2.one}
    assert CHAIN2.tangible == {CHAIN2.index("1"), a}


def test_trunc3_has_seven_elements_and_strict_products():
    R = str_trunc(3)
    assert R.size == 7
    a, a2 = R.index("a"), R.index("a2")
    # 1 + 1 = 2 is still below the top, so a * a stays tangible
    assert R.mul(a, a) == a2
    assert R.mul(a, a2) == R.index("a2v")
    assert R.prudent == {R.one}


def test_every_bundled_carrier_validates():
    for name, R in bundled_suite():
        report = validate(R)
        assert report.passed, (name, report.failures)
        assert len(report.checked) >= 20


def test_validate_reports_broken_tables():
    rows = [list(r) for r in B.add_table]
    rows[1][2] = 1  # b1 + b1v should be b1v
    broken = FiniteNuSemiring(
        B.names, B.zero, B.one,
        tuple(tuple(r) for r in rows),
        B.mul_table, B.nu_table, B.tangible, B.prudent,
    )
    report = validate(broken)
    assert not report.passed
    failed = report.failed_checks()
    assert "nm-dominance" in failed or "add-commutative" in failed


def test_validate_flags_untame_carrier():
    base = flat_idempotent()
    # demoting t out of the tangible set leaves it neither tangible nor
    # ghost, and no tangible c + nu(d) reaches it
    stripped = FiniteNuSemiring(
        base.names, base.zero, base.one, base.add_table, base.mul_table,
        base.nu_table,
        frozenset({base.one}),
        frozenset({base.one}),
    )
    report = validate(stripped)
    assert "tame" in report.failed_checks()


def _perturbed(R: FiniteNuSemiring, rng: random.Random) -> FiniteNuSemiring:
    """R after one to three random edits of a table entry, a subset
    membership, zero or one; table edits are often made symmetric so
    that failures also reach the checks after commutativity."""
    add_t = [list(row) for row in R.add_table]
    mul_t = [list(row) for row in R.mul_table]
    nu_t = list(R.nu_table)
    tangible, prudent = set(R.tangible), set(R.prudent)
    zero, one = R.zero, R.one
    for _ in range(rng.randint(1, 3)):
        a, b, v = (rng.randrange(R.size) for _ in range(3))
        kind = rng.choice(["add", "mul", "nu", "tangible", "prudent", "unit"])
        if kind in ("add", "mul"):
            table = add_t if kind == "add" else mul_t
            table[a][b] = v
            if rng.random() < 0.5:
                table[b][a] = v
        elif kind == "nu":
            nu_t[a] = v
        elif kind == "tangible":
            tangible ^= {a}
        elif kind == "prudent":
            prudent ^= {a}
        elif rng.random() < 0.5:
            zero = v
        else:
            one = v
    return FiniteNuSemiring(
        R.names, zero, one,
        tuple(map(tuple, add_t)), tuple(map(tuple, mul_t)), tuple(nu_t),
        frozenset(tangible), frozenset(prudent),
    )


def test_validate_matches_eager_oracle():
    rng = random.Random(5)
    carriers = [R for _, R in bundled_suite()]
    carriers += [str_chain(n) for n in range(1, 5)]
    carriers += [str_trunc(n) for n in range(1, 5)]
    failed_checks = set()
    invalid = 0
    for R in carriers:
        assert validate(R) == eager_validate(R)
        for _ in range(60):
            P = _perturbed(R, rng)
            report = validate(P)
            assert report == eager_validate(P), (P, report)
            invalid += not report.passed
            failed_checks.update(report.failed_checks())
    assert invalid > 900
    assert failed_checks == set(validate(B).checked)


def _edited(
    R: FiniteNuSemiring, op: str, a: int, b: int, v: int
) -> FiniteNuSemiring:
    """R with the entries (a, b) and (b, a) of its + or * table set to
    v: commutativity stays, associativity or distributivity may not."""
    tables = {"+": [list(row) for row in R.add_table],
              "*": [list(row) for row in R.mul_table]}
    tables[op][a][b] = tables[op][b][a] = v
    return FiniteNuSemiring(
        R.names, R.zero, R.one,
        tuple(map(tuple, tables["+"])), tuple(map(tuple, tables["*"])),
        R.nu_table, R.tangible, R.prudent,
    )


def test_validate_matches_eager_oracle_on_wide_carriers():
    # the row gate of the cubic checks must pass over no witness: edits
    # in the last rows put the first witness of associativity and
    # distributivity behind rows that the gate lets through
    rng = random.Random(22)
    carriers = list(wide_corpus())
    carriers += [build(n) for n in range(5, 9) for build in (str_chain, str_trunc)]
    carriers += [
        permute_semiring(R, rng.sample(range(R.size), R.size)) for R in carriers
    ]
    cubic = ("add-associative", "mul-associative", "distributive")
    late = collections.Counter()
    for R in carriers:
        report = validate(R)
        assert report.passed and report == eager_validate(R), R.names
        last = range(R.size // 2, R.size)
        for _ in range(3):
            P = _edited(
                R, rng.choice("+*"), rng.choice(last), rng.choice(last),
                rng.randrange(R.size),
            )
            report = validate(P)
            assert report == eager_validate(P), (P, report)
            for name, witness in report.failures:
                if name in cubic:
                    row = P.names.index(witness.lstrip("(").split(" ")[0])
                    late[name] += row > 0
    assert all(late[name] for name in cubic), late


def test_power_walk_matches_loop_oracles():
    carriers = [R for _, R in bundled_suite()]
    carriers += [str_chain(n) for n in range(1, 9)]
    carriers += [str_trunc(n) for n in range(1, 9)]
    rng = random.Random(0)
    for seed in range(40):
        R = random_semiring(seed)
        perm = list(range(R.size))
        rng.shuffle(perm)
        carriers += [R, permute_semiring(R, perm)]
    # the perturbed tables of test_validate_matches_eager_oracle: the
    # same seed and the same base carriers draw the same edits
    rng = random.Random(5)
    bases = [R for _, R in bundled_suite()]
    bases += [str_chain(n) for n in range(1, 5)]
    bases += [str_trunc(n) for n in range(1, 5)]
    carriers += [_perturbed(R, rng) for R in bases for _ in range(60)]
    for R in carriers:
        for a in range(R.size):
            walk = _powers(R.mul_table, a)
            assert R.powers_of(a) == walk == loop_powers_of(R, a), (R, a)
        assert computed_prudent(R.mul_table, R.tangible) == loop_computed_prudent(
            R.mul_table, R.tangible
        ), R


def test_prudence_on_flat_and_unit_carriers():
    F = flat_idempotent()
    assert names_of(F, F.prudent) == {"1", "t"}
    U = unit_pair()
    assert names_of(U, U.prudent) == {"1", "u"}
    assert names_of(U, U.units) == {"1", "u"}
    G = two_level(False)
    t, a = G.index("t"), G.index("a")
    assert G.mul(t, a) == G.index("av")
    assert a in G.ghost_divisors()


# -- congruence basics ---------------------------------------------------


def test_is_congruence_matches_bell_scan():
    carriers = [R for _, R in bundled_suite()]
    carriers += [build(n) for n in range(1, 4) for build in (str_chain, str_trunc)]
    checked = 0
    for R in carriers:
        if R.size > 7:
            continue
        congs = set(brute_congruences(R))
        for rep in all_partition_reps(R.size):
            assert is_congruence(R, rep) == (rep in congs), (R.names, rep)
        checked += 1
    assert checked >= 10


def test_table_kernels_never_call_the_element_methods(monkeypatch):
    # validate, is_congruence and localize_finite read the tables; a
    # slide back to per-element method calls fails here
    def carriers():
        return [R for _, R in bundled_suite()] + [str_chain(5)]

    def localizations(R):
        return [R.powers_of(p) | {R.one} for p in sorted(R.prudent)]

    def partitions(R):
        # every congruence, and one coarse partition that need not be
        return [c.reps for c in enumerate_congruences(R, R.size)] + [
            (0,) * (R.size - 1) + (R.size - 1,)
        ]

    expected = [
        (
            validate(R),
            [(reps, is_congruence(R, reps)) for reps in partitions(R)],
            [localize_finite(R, C) for C in localizations(R)],
        )
        for R in carriers()
    ]

    def refuse(self, *args):
        raise AssertionError("an element method was called")

    for method in ("add", "mul", "nu"):
        monkeypatch.setattr(FiniteNuSemiring, method, refuse)
    # fresh carriers, so no report or lattice computed above is reused
    for R, (report, answers, localized) in zip(carriers(), expected):
        assert "validity" not in vars(R), R.names
        assert validate(R) == report
        for reps, answer in answers:
            assert is_congruence(R, reps) == answer, (R.names, reps)
        assert [localize_finite(R, C) for C in localizations(R)] == localized
    with pytest.raises(AssertionError):
        CHAIN2.add(0, 0)


def test_superboolean_congruence_lattice():
    congs = enumerate_congruences(B)
    assert len(congs) == 3
    parts = {c.reps for c in congs}
    assert diagonal(B).reps in parts
    assert all_pairs(B).reps in parts
    assert (0, 1, 1) in parts  # b1 identified with b1v
    assert [c.reps for c in enumerate_congruences(B, kind=FLAG_Q)] == [
        diagonal(B).reps
    ]


def test_clusters_of_the_diagonal():
    theta = diagonal(B)
    iT, iG = theta.iT, theta.iG
    assert names_of(B, iT) == {"b1"}
    assert names_of(B, iG) == {"b0", "b1v"}


def test_closure_of_ghost_zero_identification_is_improper():
    theta = cong_closure(B, [(B.index("b1v"), B.index("b0"))])
    assert theta.is_improper


def test_ghostify_a_on_the_chain():
    theta = ghostify(CHAIN2, [CHAIN2.index("a")])
    assert names_of(CHAIN2, theta.iT) == {"1"}
    assert names_of(CHAIN2, theta.iG) == {"0", "1v", "a", "av"}
    blocks = {tuple(sorted(names_of(CHAIN2, m))) for m in theta.classes()}
    assert blocks == {("0",), ("1",), ("1v",), ("a", "av")}


def test_closure_matches_brute_force_minimum():
    rng = random.Random(41)
    small = [
        (name, R) for name, R in bundled_suite() if R.size <= 5
    ]
    assert len(small) >= 5
    for name, R in small:
        congs = enumerate_congruences(R)
        for _ in range(50):
            k = rng.randint(1, 3)
            pairs = [
                (rng.randrange(R.size), rng.randrange(R.size))
                for _ in range(k)
            ]
            theta = cong_closure(R, pairs)
            containing = [
                c
                for c in congs
                if all(c.contains(a, b) for a, b in pairs)
            ]
            assert containing, name
            minimum = cong_intersect(*containing)
            assert theta.reps == minimum.reps, (name, pairs)


# -- lattice construction against independent oracles -------------------


def _oracle_carriers():
    """Bundled carriers and str-chain / str-trunc up to 7 elements, each
    with two seeded renumbered copies."""
    bases = list(bundled_suite()) + [
        (f"{prefix}:{k}", builder(k))
        for prefix, builder in (("str-chain", str_chain), ("str-trunc", str_trunc))
        for k in (1, 2, 3)
    ]
    rng = random.Random(2008)
    out = []
    for name, R in bases:
        out.append((name, R))
        for copy in range(2):
            perm = list(range(R.size))
            rng.shuffle(perm)
            out.append((f"{name}/copy{copy}", permute_semiring(R, perm)))
    return out


ORACLE_CARRIERS = _oracle_carriers()


def test_lattice_matches_partition_scan():
    assert max(R.size for _, R in ORACLE_CARRIERS) == 7
    for name, R in ORACLE_CARRIERS:
        got = [c.reps for c in enumerate_congruences(R)]
        assert got == sorted(brute_congruences(R)), name


def test_closure_matches_fixpoint_oracle():
    rng = random.Random(59)
    carriers = ORACLE_CARRIERS + [("str-chain:5", str_chain(5))]
    for name, R in carriers:
        for _ in range(30):
            pairs = [
                (rng.randrange(R.size), rng.randrange(R.size))
                for _ in range(rng.randint(1, 4))
            ]
            got = cong_closure(R, pairs).reps
            assert got == fixpoint_closure(R, pairs), (name, pairs)


def test_str_chain_6_lattice():
    # 13 elements: Bell(13) = 27.6 M partitions is out of reach for the
    # plain scan, so the count comes from the pruned search instead
    R = str_chain(6)
    congs = enumerate_congruences(R, bound=R.size)
    reps = [c.reps for c in congs]
    assert len(reps) == 276
    assert reps == pruned_congruences(R)
    assert all(is_congruence(R, r) for r in reps)
    family = set(reps)
    for x, y in itertools.combinations(congs, 2):
        assert cong_intersect(x, y).reps in family
        assert partition_join(x.reps, y.reps) in family


def holds_congruence(value) -> bool:
    """Whether a value is or contains a Congruence, through dicts,
    tuples, sets and dataclass fields."""
    if isinstance(value, Congruence):
        return True
    if isinstance(value, dict):
        return any(map(holds_congruence, [*value, *value.values()]))
    if isinstance(value, (tuple, list, set, frozenset)):
        return any(map(holds_congruence, value))
    if dataclasses.is_dataclass(value):
        return any(map(holds_congruence, vars(value).values()))
    return False


def test_lattice_caches_are_bounded():
    # each copy keeps its report, principals and points on itself as
    # plain data, and no Congruence, so nothing it holds points back at
    # it: refcounting alone frees a dropped copy, with the collector off
    R = str_chain(3)
    refs = []
    gc.disable()
    try:
        for k in range(40):
            copy = FiniteNuSemiring(
                tuple(f"{s}.{k}" for s in R.names), R.zero, R.one,
                R.add_table, R.mul_table, R.nu_table, R.tangible, R.prudent,
            )
            require_valid(copy)
            enumerate_congruences(copy)
            assert len(spec(copy).points) == 4
            assert {"validity", "_principals", "_primes"} <= set(vars(copy))
            assert not any(map(holds_congruence, vars(copy).values()))
            refs.append(weakref.ref(copy))
        del copy
        assert [ref() for ref in refs] == [None] * 40
    finally:
        gc.enable()


def test_no_module_holds_an_lru_cache():
    # the report and the lattice live on their carrier, not in a
    # module-level cache keyed by whole carriers
    for info in pkgutil.iter_modules(supertrop.__path__):
        module = importlib.import_module(f"supertrop.{info.name}")
        for name, value in vars(module).items():
            held = [value]
            if isinstance(value, type):  # a cache on a class is module-level too
                held += vars(value).values()
            assert not any(hasattr(v, "cache_clear") for v in held), name


def counted_property(monkeypatch, name: str) -> list:
    """Patch a cached property of FiniteNuSemiring to log each carrier
    it is computed for; returns the log."""
    computed = []
    func = vars(FiniteNuSemiring)[name].func

    def counted(R):
        computed.append(R)
        return func(R)

    prop = functools.cached_property(counted)
    prop.__set_name__(FiniteNuSemiring, name)
    monkeypatch.setattr(FiniteNuSemiring, name, prop)
    return computed


def test_validity_and_lattice_are_computed_once_per_carrier(monkeypatch):
    # the report, the principals and the points are kept on each
    # carrier object; the lattice is deliberately kept nowhere
    battery, lattices = [], []
    all_congruences = congr._all_congruences

    def counted_validate(R):
        battery.append(R)
        return validate(R)

    def counted_lattice(R):
        lattices.append(R)
        return all_congruences(R)

    monkeypatch.setattr(congr, "validate", counted_validate)
    monkeypatch.setattr(congr, "_all_congruences", counted_lattice)
    principals = counted_property(monkeypatch, "_principals")
    points = counted_property(monkeypatch, "_primes")
    R = str_chain(3)
    equal = dataclasses.replace(R)
    renamed = FiniteNuSemiring(
        tuple(f"{s}'" for s in R.names), R.zero, R.one,
        R.add_table, R.mul_table, R.nu_table, R.tangible, R.prudent,
    )
    for carrier in (R, equal, renamed):
        require_valid(carrier)
        require_valid(carrier)
        assert enumerate_congruences(carrier) == enumerate_congruences(carrier)
        assert nu_primes(carrier) == nu_primes(carrier)
        for log in (battery, lattices, principals, points):
            assert log[-1] is carrier
    # an equal but distinct carrier computes its own report, principals
    # and points; each enumeration builds the lattice again
    assert len(battery) == len(principals) == len(points) == 3
    assert len(lattices) == 6


def test_flag_family_matches_classify():
    bound = 11
    relative = {FLAG_TANGLY_MINIMAL, FLAG_MAXIMAL_L}
    for name, R in small_carriers():
        if R.size > bound:
            continue
        lattice = enumerate_congruences(R, bound)
        S = spec(R, bound)
        flags = [S.flags_of(c) for c in lattice]
        assert enumerate_congruences(R, bound, None) == lattice, name
        for c, fl in zip(lattice, flags):
            assert classify(R, c) == fl - relative, (name, c.reps)
        for kind in [k for k in FLAG_KINDS if k not in relative]:
            expected = tuple(c for c, fl in zip(lattice, flags) if kind in fl)
            assert enumerate_congruences(R, bound, kind) == expected, (name, kind)
        # the two relative flags, straight from their definitions
        l_congs = enumerate_congruences(R, bound, FLAG_L)
        minimal = tuple(
            c for c in l_congs if not any(d.iT < c.iT for d in l_congs)
        )
        maximal = tuple(
            c for c in l_congs
            if not any(c.refines(d) and c != d for d in l_congs)
        )
        for kind, expected in ((FLAG_TANGLY_MINIMAL, minimal), (FLAG_MAXIMAL_L, maximal)):
            got = tuple(c for c, fl in zip(lattice, flags) if kind in fl)
            assert got == expected, (name, kind)


def test_congruence_intersection_preserves_kinds():
    for name, R in bundled_suite():
        if R.size > 5:
            continue
        qs = enumerate_congruences(R, kind=FLAG_Q)
        for c1, c2 in itertools.combinations(qs, 2):
            meet = cong_intersect(c1, c2)
            assert FLAG_Q in classify(R, meet)
            assert meet.iG == c1.iG & c2.iG
            assert meet.iT >= c1.iT | c2.iT


def test_inclusion_reverses_tangible_clusters():
    for name, R in bundled_suite():
        if R.size > 5:
            continue
        congs = enumerate_congruences(R)
        for c1 in congs:
            for c2 in congs:
                if c1.refines(c2):
                    assert c1.iT >= c2.iT
                    assert c1.iG <= c2.iG


# -- classification ------------------------------------------------------


def test_classify_ghostify_a_on_chain2():
    theta = ghostify(CHAIN2, [CHAIN2.index("a")])
    flags = spec(CHAIN2).flags_of(theta)
    assert classify(CHAIN2, theta) == flags - {FLAG_TANGLY_MINIMAL}
    assert {FLAG_Q, FLAG_L, FLAG_PRIME, FLAG_RADICAL} <= flags
    assert FLAG_TANGLY_MINIMAL in flags
    # the class {a, av} mixes layers, and a strictly larger prime
    # exists (1v, a, av in one class), so these two are absent
    assert FLAG_DETERMINED not in flags
    assert FLAG_MAXIMAL_L not in flags
    assert FLAG_GHOST not in flags


def test_diagonal_on_chain2_is_not_prime():
    # a is tangible but a * a is ghost, so iT(diag) = {1, a} is not
    # multiplicatively closed and diag is not even an l-congruence
    flags = classify(CHAIN2, diagonal(CHAIN2))
    assert FLAG_Q in flags
    assert FLAG_L not in flags
    assert FLAG_PRIME not in flags


def test_spec_points_of_chain2():
    primes = nu_primes(CHAIN2)
    assert len(primes) == 2
    small, large = primes
    if not small.refines(large):
        small, large = large, small
    assert small.reps == ghostify(CHAIN2, [CHAIN2.index("a")]).reps
    assert names_of(CHAIN2, large.iG) == {"0", "1v", "a", "av"}
    assert small.iT == large.iT


def test_ghost_congruence_flag():
    theta = cong_closure(B, [(B.one, B.nu(B.one))])
    assert FLAG_GHOST in classify(B, theta)
    assert theta.is_improper is False or theta.is_improper


def test_improper_congruence_is_not_q():
    assert FLAG_Q not in classify(B, all_pairs(B))


# -- quotients -----------------------------------------------------------


def test_quotient_by_ghostify_a_has_four_classes():
    theta = ghostify(CHAIN2, [CHAIN2.index("a")])
    Q, proj = quotient(CHAIN2, theta)
    assert Q.size == 4
    assert validate(Q).passed
    assert proj[CHAIN2.index("a")] == proj[CHAIN2.index("av")]
    # the merged class becomes a pure ghost sitting above 1v
    top = _assemble_blocks([("1",), ()], ("1v", "gv"), {("1", "1"): "1"})
    assert find_isomorphism(Q, top) is not None
    assert find_isomorphism(Q, B) is None


def test_quotient_rejects_non_q_congruence():
    theta = cong_closure(B, [(B.one, B.nu(B.one))])
    with pytest.raises(PreconditionError) as exc:
        quotient(B, theta)
    assert "b1" in str(exc.value)


def test_quotient_projection_is_q_homomorphism():
    theta = ghostify(CHAIN2, [CHAIN2.index("a")])
    Q, proj = quotient(CHAIN2, theta)
    assert check_q_homomorphism(QHom(CHAIN2, Q, proj)) is None


# -- localization --------------------------------------------------------


def test_localize_by_trivial_monoid_is_identity():
    for name, R in bundled_suite():
        S, tau = localize_finite(R, [R.one])
        assert S.size == R.size
        assert sorted(tau) == list(range(R.size))
        iso = find_isomorphism(R, S)
        assert iso is not None


def test_localize_by_units_is_bijective():
    U = unit_pair()
    S, tau = localize_finite(U, sorted(U.units))
    assert S.size == U.size
    assert len(set(tau)) == U.size


def test_localize_flat_carrier_collapses_to_superboolean():
    F = flat_idempotent()
    C = [F.index("1"), F.index("t")]
    S, tau = localize_finite(F, C)
    assert S.size == 3
    assert find_isomorphism(S, B) is not None
    assert tau[F.index("1")] == tau[F.index("t")]


def test_localize_two_level_inverts_t():
    G = two_level(True)
    C = [G.index("1"), G.index("t")]
    S, tau = localize_finite(G, C)
    assert S.size == 5
    assert find_isomorphism(S, CHAIN2) is not None


def test_localize_rejects_imprudent_denominators():
    C = [CHAIN2.index("1"), CHAIN2.index("a")]
    with pytest.raises(PreconditionError) as exc:
        localize_finite(CHAIN2, C)
    assert "prudent" in str(exc.value)


def test_localize_ghosts_collision_classes():
    G = two_level(False)
    # t is prudent here, but a/1 = av/1 once t cancels; the merged
    # class must come out ghost, since a*t lands in the ghosts
    C = [G.index("1"), G.index("t")]
    S, tau = localize_finite(G, C)
    assert S.size == 4
    assert tau[G.index("1")] == tau[G.index("t")]
    assert tau[G.index("a")] == tau[G.index("av")]
    assert tau[G.index("a")] not in S.tangible
    assert S.names[tau[G.index("a")]] == "av"
    expected = _assemble_blocks([("1",), ()], ("1v", "gv"), {("1", "1"): "1"})
    assert find_isomorphism(S, expected) is not None


def test_localize_ghost_kernel_matches_cancellation():
    # x maps to a ghost fraction exactly when some denominator drags
    # x*c into the ghosts
    for R, C in [
        (two_level(False), ["1", "t"]),
        (flat_idempotent(), ["1", "t"]),
        (mixed_units(), ["1", "u"]),
    ]:
        idx = [R.index(n) for n in C]
        S, tau = localize_finite(R, idx)
        ghost0 = {x for x in range(R.size) if x not in R.tangible}
        absorbed = {
            x
            for x in range(R.size)
            if any(R.mul(x, c) in ghost0 for c in idx)
        }
        image_ghost = {x for x in range(R.size) if tau[x] not in S.tangible}
        assert image_ghost == absorbed


def test_localize_requires_monoid():
    U = mixed_units()
    with pytest.raises(PreconditionError):
        localize_finite(U, [U.index("t")])  # missing one
    # an order-three unit gives a prudent set whose proper subsets are
    # not multiplicatively closed
    C3 = _assemble_blocks(
        [("1", "u", "w")],
        ("1v",),
        {
            ("1", "1"): "1",
            ("1", "u"): "u",
            ("1", "w"): "w",
            ("u", "u"): "w",
            ("u", "w"): "1",
            ("w", "w"): "u",
        },
    )
    assert validate(C3).passed
    with pytest.raises(PreconditionError) as exc:
        localize_finite(C3, [C3.index("1"), C3.index("u")])
    assert "closed" in str(exc.value)


def test_localize_canonical_map_is_q_homomorphism():
    F = ghost_tower()
    C = [F.index("1"), F.index("t")]
    S, tau = localize_finite(F, C)
    assert check_q_homomorphism(QHom(F, S, tau)) is None


def _localize_or_message(localize, R, C):
    try:
        return localize(R, C)
    except PreconditionError as exc:
        return str(exc)


def test_localize_matches_pairwise_oracle():
    rng = random.Random(3)
    bundled = [R for _, R in bundled_suite()]
    carriers = bundled + [random_semiring(seed) for seed in range(40)]
    carriers += [str_chain(n) for n in range(1, 6)]
    carriers += [str_trunc(n) for n in range(1, 6)]
    for R in bundled:
        for _ in range(2):
            perm = list(range(R.size))
            rng.shuffle(perm)
            carriers.append(permute_semiring(R, perm))
    proper = 0
    for R in carriers:
        others = sorted(R.prudent - {R.one})
        monoids = [
            [R.one, *extra]
            for k in range(len(others) + 1)
            for extra in itertools.combinations(others, k)
        ][:16]
        S = spec(R, max(R.size, DEFAULT_BOUND))
        monoids += [sorted(p.iT) for p in S.points]
        # a set without one, and one with imprudent elements
        monoids += [others, list(range(R.size))]
        for C in monoids:
            got = _localize_or_message(localize_finite, R, C)
            assert got == _localize_or_message(
                pairwise_localize_finite, R, C
            ), (R.names, C)
            proper += not isinstance(got, str) and len(C) > 1
    assert proper > 100


def test_built_carriers_pass_the_one_validity_gate(monkeypatch):
    R = mixed_units()
    require_valid(R)  # the input's report, computed before the patches
    theta = ghostify(R, [R.index("t")])
    C = [R.one, R.index("t")]
    checked = []

    def counted_validate(out):
        checked.append(out)
        return validate(out)

    # each built carrier runs the battery exactly once
    monkeypatch.setattr(congr, "validate", counted_validate)
    for build in (lambda: quotient(R, theta), lambda: localize_finite(R, C)):
        out, _ = build()
        assert checked == [out]
        require_valid(out)
        assert checked == [out]
        checked.clear()
    failing = ValidationReport(False, (("tame", "x"),), ("tame",))
    monkeypatch.setattr(congr, "validate", lambda out: failing)
    for call, message in (
        (lambda: quotient(R, theta), "quotient fails validation: tame"),
        (lambda: localize_finite(R, C), "localization fails validation: tame"),
    ):
        with pytest.raises(PreconditionError) as exc:
            call()
        assert str(exc.value) == message


def test_quotient_and_localize_reject_invalid_carriers():
    F = flat_idempotent()
    # only the prudent set is wrong, so the quotient by the diagonal and
    # the localization at {1} would themselves validate
    wrong_prudent = FiniteNuSemiring(
        F.names, F.zero, F.one, F.add_table, F.mul_table, F.nu_table,
        F.tangible, frozenset({F.one}),
    )
    rows = [list(r) for r in B.add_table]
    rows[1][2] = 0
    broken_add = FiniteNuSemiring(
        B.names, B.zero, B.one, tuple(map(tuple, rows)),
        B.mul_table, B.nu_table, B.tangible, B.prudent,
    )
    # the mixed-units copy with t * u = 1v that the CLI tests use
    M = mixed_units()
    rows = [list(r) for r in M.mul_table]
    rows[M.index("t")][M.index("u")] = M.index("1v")
    ghost_tu = FiniteNuSemiring(
        M.names, M.zero, M.one, M.add_table, tuple(map(tuple, rows)),
        M.nu_table, M.tangible, M.prudent,
    )
    for R, failed in (
        (wrong_prudent, "prudent-maximal"),
        (broken_add, ", ".join(validate(broken_add).failed_checks())),
        (ghost_tu, ", ".join(validate(ghost_tu).failed_checks())),
    ):
        message = f"carrier fails validation: {failed}"
        for call in (
            lambda: quotient(R, diagonal(R)),
            lambda: localize_finite(R, [R.one]),
            lambda: enumerate_congruences(R),
            lambda: srad(R, [R.one]),
            lambda: classify(R, diagonal(R)),
        ):
            with pytest.raises(PreconditionError) as exc:
                call()
            assert str(exc.value) == message
    # the size bound is checked before validity, so an oversize invalid
    # carrier stops before any cubic work
    T = str_trunc(4)
    rows = [list(r) for r in T.add_table]
    rows[1][2] = 0
    oversize = FiniteNuSemiring(
        T.names, T.zero, T.one, tuple(map(tuple, rows)),
        T.mul_table, T.nu_table, T.tangible, T.prudent,
    )
    assert not validate(oversize).passed
    for call in (
        lambda: enumerate_congruences(oversize),
        lambda: spec(oversize),
        lambda: krull_check(oversize),
        lambda: nullstellensatz_check(oversize, diagonal(oversize)),
    ):
        with pytest.raises(BoundError):
            call()


def test_relative_kinds_are_refused_by_the_enumeration():
    # TanglyMinimal and MaximalL are flags of the spectrum's points,
    # which Spectrum.flags_of adds; classify never holds them
    for kind in (FLAG_TANGLY_MINIMAL, FLAG_MAXIMAL_L):
        with pytest.raises(PreconditionError) as exc:
            enumerate_congruences(CHAIN2, kind=kind)
        assert str(exc.value) == (
            f"{kind} is relative to the spectrum: use Spectrum.flags_of"
        )


def test_classify_never_searches(monkeypatch):
    # classify reads theta alone: with the join search and the lattice
    # both raising, it flags every congruence of the wide corpus, on
    # fresh copies that hold no points
    cases = [(R, enumerate_congruences(R, R.size)) for R in wide_corpus()]
    expected = [[classify(R, c) for c in congs] for R, congs in cases]

    def no_search(*args):
        raise AssertionError("classify searched the congruences")

    monkeypatch.setattr(congr, "_joins", no_search)
    monkeypatch.setattr(congr, "_all_congruences", no_search)
    checked = 0
    for (R, congs), flags in zip(cases, expected):
        fresh = dataclasses.replace(R)
        assert [classify(fresh, c) for c in congs] == flags, R.names
        assert "_primes" not in vars(fresh) and "_principals" not in vars(fresh)
        checked += len(congs)
    assert checked > 1000


# -- enumeration bound ----------------------------------------------------


def test_enumeration_bound():
    R = str_trunc(4)
    assert R.size == 9
    with pytest.raises(BoundError):
        enumerate_congruences(R)
    assert len(enumerate_congruences(R, bound=9)) >= 1


# -- radicals --------------------------------------------------------------


def test_srad_of_nothing_is_intersection_of_primes():
    for name, R in bundled_suite():
        if R.size > 7:
            continue
        primes = nu_primes(R)
        rad = srad(R, [])
        if not primes:
            assert rad is EMPTY_RADICAL
        else:
            assert rad.reps == cong_intersect(*primes).reps


def test_ghostpotents_match_radical_ghost_cluster():
    for name, R in bundled_suite():
        rad = srad(R, [])
        if rad is EMPTY_RADICAL:
            continue
        assert gprad(R) == rad.iG, name


def test_crad_empty_marker():
    # all-pairs is contained in no prime: primes are q-congruences and
    # keep the unit cluster tangible
    assert crad(B, all_pairs(B)) is EMPTY_RADICAL
    assert crad(CHAIN2, all_pairs(CHAIN2)) is EMPTY_RADICAL


def test_jacobson_of_diagonal():
    assert jac(spec(B), diagonal(B)).reps == diagonal(B).reps
    out = jac(spec(CHAIN2), diagonal(CHAIN2))
    assert out is not EMPTY_RADICAL
    assert FLAG_L in classify(CHAIN2, out)


def test_radical_congruences_are_radical():
    for name, R in bundled_suite():
        if R.size > 5:
            continue
        rad = srad(R, [])
        if rad is EMPTY_RADICAL:
            continue
        assert FLAG_RADICAL in classify(R, rad)


def test_wide_corpus_classes():
    corpus = wide_corpus()
    assert len(corpus) == 49
    assert sorted(collections.Counter(R.size for R in corpus).items()) == [
        (3, 1), (4, 3), (5, 5), (6, 7), (7, 8), (8, 9), (9, 9), (10, 5),
        (11, 2),
    ]


def square_root_of_idempotent() -> FiniteNuSemiring:
    """{0, 1, x, t, 1v} with x * x = t idempotent.  Ghostifying t leaves
    x tangible although x * x is ghost: the radical must ghostify the
    elements ghostpotent over the ghost cluster, not just over the
    ghosts, which no wide-corpus carrier tells apart."""
    return _assemble_blocks(
        [("1", "x", "t")],
        ("1v",),
        {
            ("1", "1"): "1",
            ("1", "x"): "x",
            ("1", "t"): "t",
            ("x", "x"): "t",
            ("x", "t"): "t",
            ("t", "t"): "t",
        },
    )


def test_crad_is_the_meet_of_primes():
    # the closure against the former definition, None included; on the
    # q-congruences the Radical flag marks exactly the closure's fixed
    # points
    rng = random.Random(21)
    base = [*wide_corpus(), square_root_of_idempotent()]
    carriers = list(base)
    for R in base:
        perm = list(range(R.size))
        rng.shuffle(perm)
        carriers.append(permute_semiring(R, perm))
    carriers += [build(n) for n in range(1, 7) for build in (str_chain, str_trunc)]
    checked = fixed = 0
    for R in carriers:
        bound = max(R.size, DEFAULT_BOUND)
        radical = {c.reps for c in enumerate_congruences(R, bound, FLAG_RADICAL)}
        q_congs = {c.reps for c in enumerate_congruences(R, bound, FLAG_Q)}
        for theta in enumerate_congruences(R, bound):
            rad = crad(R, theta)
            assert rad == meet_crad(R, theta, bound), (R.names, theta.reps)
            if theta.reps in q_congs:
                assert (theta.reps in radical) == (rad == theta), theta.reps
                fixed += rad == theta
            checked += 1
    assert checked > 3000 and fixed > 300


def test_clusters_partition_and_flags_match_the_scans():
    # on a valid carrier iT and iG partition the carrier, so NuPrime is
    # LCong and Determined is iG = ghost0; the former scans must agree
    rng = random.Random(24)
    carriers = list(wide_corpus())
    carriers += [
        permute_semiring(R, rng.sample(range(R.size), R.size)) for R in carriers
    ]
    carriers += [build(n) for n in range(1, 7) for build in (str_chain, str_trunc)]
    checked = 0
    for R in carriers:
        bound = max(R.size, DEFAULT_BOUND)
        everything = frozenset(range(R.size))
        l_congs = []
        for theta in enumerate_congruences(R, bound):
            assert theta.iT | theta.iG == everything, (R.names, theta.reps)
            assert not theta.iT & theta.iG, (R.names, theta.reps)
            flags = classify(R, theta)
            assert flags == scan_basic_flags(R, theta), (R.names, theta.reps)
            if FLAG_L in flags:
                l_congs.append(theta.reps)
            checked += 1
        # the points are the lattice's l-congruences, in the same order
        assert [p.reps for p in nu_primes(R, bound)] == l_congs, R.names
    assert len(carriers) == 110 and checked > 3000


def test_points_and_flags_match_the_lattice_oracle():
    # the prime search, jac and every filtered enumeration against the
    # lattice filed by flag that each carrier once kept
    rng = random.Random(26)
    carriers = list(wide_corpus())
    carriers += [
        permute_semiring(R, rng.sample(range(R.size), R.size)) for R in carriers
    ]
    carriers += [build(n) for n in range(1, 8) for build in (str_chain, str_trunc)]
    points = 0
    for R in carriers:
        bound = max(R.size, DEFAULT_BOUND)
        family = flag_family(R)
        assert nu_primes(R, bound) == family.get(FLAG_PRIME, ()), R.names
        for kind in [k for k in FLAGS if k not in (FLAG_TANGLY_MINIMAL, FLAG_MAXIMAL_L)]:
            expected = family.get(kind, ())
            assert enumerate_congruences(R, bound, kind) == expected, (R.names, kind)
        # every congruence's flags, the relative ones included
        S = spec(R, bound)
        filed = {c.reps: set() for c in family[None]}
        for kind in FLAGS:
            for c in family.get(kind, ()):
                filed[c.reps].add(kind)
        for c in family[None]:
            assert S.flags_of(c) == filed[c.reps], (R.names, c.reps)
        maximal = family.get(FLAG_MAXIMAL_L, ())
        for theta in (diagonal(R), *family.get(FLAG_PRIME, ())):
            over = [c for c in maximal if theta.refines(c)]
            expected = cong_intersect(*over) if over else EMPTY_RADICAL
            assert jac(S, theta) == expected, (R.names, theta.reps)
        points += len(family.get(FLAG_PRIME, ()))
    assert len(carriers) == 112 and points > 900


def test_close_by_one_matches_the_found_set_search():
    # _joins reaches each congruence once, and the same ones as the
    # former search that dropped repeats through a found set: from the
    # diagonal, and from every candidate ghost cluster with the prime keep
    rng = random.Random(32)
    carriers = list(wide_corpus())
    carriers += [
        permute_semiring(R, rng.sample(range(R.size), R.size)) for R in carriers
    ]
    carriers += [build(n) for n in range(1, 8) for build in (str_chain, str_trunc)]
    searches = 0
    for R in carriers:
        elements = range(R.size)
        starts = [(tuple(elements), lambda reps: True)]
        for m in elements:
            divided = R.powers_of(m) | {R.one}
            F = {a for a in elements if any(R.mul(a, b) in divided for b in elements)}
            if not F & R.ghost0:
                starts.append((
                    ghostify(R, set(elements) - F).reps,
                    lambda reps, F=F: all(reps[a] != reps[R.nu(a)] for a in F),
                ))
        expected = [found_joins(R, start, keep) for start, keep in starts]
        for (start, keep), found in zip(starts, expected):
            got = congr._joins(R, start, keep)
            assert len(got) == len(set(got)), (R.names, start)
            assert set(got) == found, (R.names, start)
            searches += 1
        # the lattice still comes sorted by reps
        lattice = enumerate_congruences(R, max(R.size, DEFAULT_BOUND))
        assert [c.reps for c in lattice] == sorted(expected[0]), R.names
    assert len(carriers) == 112 and searches > 200


def test_radicals_never_build_the_lattice(monkeypatch):
    # fresh copies of the shared corpus, so no points are kept on them,
    # and str-chain:12, whose 25 elements are over the default bound
    carriers = [dataclasses.replace(R) for R in wide_corpus()]
    carriers.append(str_chain(12))

    def no_lattice(R):
        raise AssertionError("a radical built the congruence lattice")

    def no_bound(R, bound):
        raise AssertionError("a radical checked the size bound")

    monkeypatch.setattr(congr, "_all_congruences", no_lattice)
    monkeypatch.setattr(congr, "_require_within", no_bound)
    for R in carriers:
        assert "_primes" not in vars(R), R.names
        rad = srad(R, ())
        assert rad.iG == gprad(R), R.names
        assert FLAG_RADICAL in classify(R, rad)
        assert crad(R, diagonal(R)) == rad
        for a in range(R.size):
            rad_a = srad(R, [a])
            assert rcl(R, [a]) == (
                frozenset() if rad_a is EMPTY_RADICAL else rad_a.iG
            )
        # nor do they search for the points
        assert "_primes" not in vars(R), R.names
    # both searches still check the bound
    with pytest.raises(AssertionError, match="size bound"):
        enumerate_congruences(str_chain(12), 25)
    with pytest.raises(AssertionError, match="size bound"):
        nu_primes(str_chain(12), 25)


# -- homomorphisms ---------------------------------------------------------


def test_pullback_along_inclusion():
    mapping = tuple(
        CHAIN2.index(n) for n in ("0", "1", "1v")
    )
    phi = QHom(B, CHAIN2, mapping)
    assert check_q_homomorphism(phi) is None
    theta = ghostify(CHAIN2, [CHAIN2.index("a")])
    back = pullback(phi, theta)
    assert back.reps == diagonal(B).reps
    assert pullback(phi, all_pairs(CHAIN2)).is_improper


def test_pullback_rejects_non_homomorphism():
    bad = QHom(B, CHAIN2, (0, 1, 1))
    with pytest.raises(PreconditionError):
        pullback(bad, diagonal(CHAIN2))


def test_q_homomorphism_entries_are_range_checked():
    # past the end, negative (which would wrap) and non-integer entries
    for mapping in ((0, 1, 99), (0, 1, -1), (0, 1, 2.0)):
        phi = QHom(B, B, mapping)
        assert check_q_homomorphism(phi) == "mapping entry out of range at b1v"
        with pytest.raises(PreconditionError) as exc:
            pullback(phi, diagonal(B))
        assert str(exc.value) == (
            "not a q-homomorphism: mapping entry out of range at b1v"
        )


def test_find_isomorphism_positive_and_negative():
    F = flat_idempotent()
    S, _ = localize_finite(F, [F.index("1"), F.index("t")])
    iso = find_isomorphism(S, B)
    assert iso is not None
    for a in range(S.size):
        for b in range(S.size):
            assert iso[S.add(a, b)] == B.add(iso[a], iso[b])
            assert iso[S.mul(a, b)] == B.mul(iso[a], iso[b])
    assert find_isomorphism(flat_idempotent(), unit_pair()) is None
    assert find_isomorphism(B, CHAIN2) is None
    # same element profiles, different tables
    assert find_isomorphism(two_level(True), two_level(False)) is None
    rng = random.Random(13)
    for name, R in bundled_suite():
        perm = list(range(R.size))
        rng.shuffle(perm)
        P = permute_semiring(R, perm)
        iso = find_isomorphism(R, P)
        assert iso is not None and sorted(iso) == list(range(R.size)), name
        assert check_q_homomorphism(QHom(R, P, iso)) is None, name


def test_find_isomorphism_matches_scan_oracle():
    rng = random.Random(29)
    for name, R in small_carriers():
        assert validate(R).passed, name
        assert find_isomorphism(R, R) == scan_isomorphism(R, R), name
        for _ in range(3):
            perm = list(range(R.size))
            rng.shuffle(perm)
            P = permute_semiring(R, perm)
            for X, Y in ((R, P), (P, R)):
                iso = find_isomorphism(X, Y)
                assert iso is not None, name
                assert iso == scan_isomorphism(X, Y), name
    bundled = bundled_suite()
    for (na, X), (nb, Y) in itertools.product(bundled, bundled):
        assert find_isomorphism(X, Y) == scan_isomorphism(X, Y), (na, nb)


def test_find_isomorphism_on_long_chains_is_fast():
    rng = random.Random(31)
    for R in (str_chain(32), str_trunc(32)):
        perm = list(range(R.size))
        rng.shuffle(perm)
        P = permute_semiring(R, perm)
        start = time.perf_counter()
        iso = find_isomorphism(R, P)
        assert time.perf_counter() - start < 1.0
        assert iso is not None and sorted(iso) == list(range(R.size))
        assert check_q_homomorphism(QHom(R, P, iso)) is None


def test_permuted_copies_are_isomorphic():
    for seed in range(10):
        R = random_semiring(seed)
        assert validate(R).passed, seed
        assert 4 <= R.size <= 6


# -- serialization ----------------------------------------------------------


def test_semiring_json_roundtrip():
    for name, R in bundled_suite():
        text = to_json(R)
        again = semiring_from_json(text)
        assert again == R
        assert to_json(again) == text
    obj = json.loads(to_json(B))
    assert set(obj) == {
        "elements", "zero", "one", "tangible", "prudent", "add", "mul", "nu"
    }


def test_semiring_json_errors():
    with pytest.raises(ParseError):
        semiring_from_json("{not json")
    with pytest.raises(ParseError):
        semiring_from_json(json.dumps({"elements": ["a"]}))
    good = json.loads(to_json(B))
    good["add"][0][0] = "mystery"
    with pytest.raises(ParseError):
        semiring_from_json(json.dumps(good))


def test_element_name_contracts():
    # the JSON reader rejects names that a comma-separated list or a
    # one-line message cannot carry
    for name in ("b,1", "b\n1", "b\r\n1", "b\u20281"):
        text = to_json(B).replace('"b1"', json.dumps(name))
        with pytest.raises(ParseError, match="comma or a line break"):
            semiring_from_json(text)
    # a constructed carrier whose names collide is a violated precondition
    with pytest.raises(PreconditionError, match="'b1' repeats"):
        FiniteNuSemiring(
            ("b0", "b1", "b1"), B.zero, B.one, B.add_table, B.mul_table,
            B.nu_table, B.tangible, B.prudent,
        )


def test_congruence_json_roundtrip():
    theta = ghostify(CHAIN2, [CHAIN2.index("a")])
    text = cong_to_json(theta)
    again = cong_from_json(CHAIN2, text)
    assert again.reps == theta.reps
    obj = json.loads(text)
    assert list(obj) == ["classes"]
    with pytest.raises(PreconditionError):
        cong_from_json(
            CHAIN2,
            json.dumps({"classes": [["0", "1"], ["1v"], ["a"], ["av"]]}),
        )
    with pytest.raises(ParseError):
        cong_from_json(CHAIN2, json.dumps({"classes": [["0"]]}))


def test_builtin_semiring_specs():
    assert builtin_semiring("superboolean") == B
    assert builtin_semiring("str-chain:2") == CHAIN2
    assert builtin_semiring("str-trunc:3").size == 7
    assert builtin_semiring("random:3") == random_semiring(3)
    assert builtin_semiring("unit-pair") == unit_pair()
    with pytest.raises(ParseError):
        builtin_semiring("str-chain:x")
    with pytest.raises(ParseError):
        builtin_semiring("mystery")
