"""The four workloads: algebra, plane, carriers and cli.

Every workload is a stream of rounds.  Round r draws its inputs from
``random.Random(f"{workload}:{seed}:{r}")``, so a seed fixes the whole
op list.  Every round of a workload has the same shape and so the same
cost: the seed moves coefficients, points and permutations, never the
size of a polynomial, a complex or a carrier.

Shapes stay fixed because the costs they probe grow exponentially: a
3-variable polynomial with 16 terms canonicalizes in 0.03 s or in
1.5 s depending on its Newton polytope.  Seeded inputs are therefore
affine translates of fixed shapes (x -> x + a, plus a constant), which
leave every essentiality question, every tie-line arrangement and so
every cost unchanged while changing every number the library sees.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import oracle
from harness import Op, interleave, run_round

from supertrop import congr, core, locus, poly, spectra

ROOT = Path(__file__).resolve().parent.parent
VARS = "xyz"
STRUCTURE_SEED = 2019  # fixes the polynomial shapes; never the run seed


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _rat(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


# -- polynomial text ------------------------------------------------------


def poly_text(terms, nv: int) -> str:
    """Text for (exponent, value, ghost) triples, parseable by parse_poly."""
    parts = []
    for exp, c, g in terms:
        atoms = [f"{c}{'v' if g else ''}"]
        for i, k in enumerate(exp):
            if k == 1:
                atoms.append(VARS[i])
            elif k > 1:
                atoms.append(f"{VARS[i]}^{k}")
        parts.append("*".join(atoms))
    return " + ".join(parts)


def translate(shape, a, c0):
    """Coefficients of f(x + a) + c0 for base triples."""
    return [
        (e, c + sum(k * ai for k, ai in zip(e, a)) + c0, g) for e, c, g in shape
    ]


def random_shape(nv: int, t: int, rng: random.Random):
    """t distinct exponents under a concave lift; every third term is
    pushed down so that some terms are unreachable or tie-only."""
    d = 1
    while True:
        pool = [e for e in itertools.product(range(d + 1), repeat=nv) if sum(e) <= d]
        if len(pool) >= min(2 * t, t + 12) or (nv == 1 and len(pool) >= t):
            break
        d += 1
    exps = sorted(rng.sample(pool, t))
    shape = []
    for i, e in enumerate(exps):
        c = Fraction(-sum(k * k for k in e) + rng.randint(-4, 4), 2)
        if i % 3 == 2:
            c -= 3
        shape.append((e, c, False))
    return shape


def bumped(terms):
    """Raise the lexicographically largest exponent, a vertex of the
    Newton polytope and so strictly essential: the function changes."""
    i = max(range(len(terms)), key=lambda i: terms[i][0])
    out = list(terms)
    e, c, g = out[i]
    out[i] = (e, c + 1, g)
    return out


def with_hidden_term(terms):
    """Add a term strictly below the envelope everywhere: the midpoint
    of two exponents, under the average of their coefficients."""
    have = {e for e, _, _ in terms}
    for (e1, c1, _), (e2, c2, _) in itertools.combinations(terms, 2):
        if all((a + b) % 2 == 0 for a, b in zip(e1, e2)):
            m = tuple((a + b) // 2 for a, b in zip(e1, e2))
            if m not in have:
                return list(terms) + [(m, (c1 + c2) / 2 - 1, False)]
    e, c, g = terms[0]
    return list(terms) + [(e, c - 1, False)]  # merges into the first term


def parsed_terms(terms):
    """What parse_poly must produce: equal exponents merged by the sum."""
    acc: dict = {}
    for e, c, g in terms:
        el = (c, g)
        acc[e] = oracle.el_add(acc[e], el) if e in acc else el
    return sorted((e, v[0], v[1]) for e, v in acc.items())


def check_parsed(want):
    def check(f):
        got = oracle.terms_of(f)
        return None if got == want else "parsed terms differ from the input"
    return check


def eval_points(rng, terms, nv: int, n: int = 6):
    """Seeded tangible points, two of them on a tie of two terms."""
    pts = [[_rat(rng, -8, 8, 4) for _ in range(nv)] for _ in range(n)]
    for p in pts[:2]:
        (e1, c1, _), (e2, c2, _) = rng.sample(terms, 2)
        j = next(i for i in range(nv) if e1[i] != e2[i])
        rest = sum((e1[i] - e2[i]) * p[i] for i in range(nv) if i != j)
        p[j] = (c2 - c1 - rest) / (e1[j] - e2[j])
    return [oracle.tangible_point(p) for p in pts]


def lib_point(pt):
    return tuple(
        core.RAT_ZERO if v is None else (core.rat_g(v) if g else core.rat_t(v))
        for v, g in pt
    )


# -- algebra ------------------------------------------------------------


# Kept exponents and, among them, the tie-only ones of each fixed shape
# random_shape draws from STRUCTURE_SEED (one variable written as plain
# integers).  Essentiality depends only on exponents and coefficient
# values, and every seeded translate keeps it, so these sets hold for
# every round.  They were computed once; the self-test rederives the
# one-variable rows from an upper hull.
ESSENTIALS = {
    (1, 15): ([0, 4, 6, 7, 9, 12, 13, 14], [13]),
    (1, 30): ([0, 3, 7, 9, 12, 15, 18, 19, 21, 22, 25, 27, 29], []),
    (1, 60): ([0, 1, 3, 6, 7, 9, 10, 13, 15, 18, 19, 21, 24, 25, 27, 28, 30, 31, 33, 34, 35,
               37, 39, 40, 42, 43, 45, 48, 49, 51, 52, 54, 58, 59], [34]),
    (2, 8): ([(0, 1), (1, 2), (1, 4), (2, 1), (3, 2), (4, 0)], []),
    (2, 16): ([(0, 0), (0, 1), (0, 5), (0, 6), (1, 2), (2, 0), (2, 1), (2, 3), (3, 0), (3, 1),
               (3, 3), (4, 2), (5, 0), (5, 1)], [(1, 2), (2, 0)]),
    (2, 24): ([(0, 0), (0, 1), (0, 4), (0, 7), (1, 5), (2, 0), (2, 4), (3, 1), (3, 2), (3, 4),
               (4, 0), (4, 3), (5, 0)], []),
    (3, 8): ([(0, 0, 0), (0, 0, 1), (0, 0, 3), (0, 1, 0), (0, 1, 2), (0, 2, 0), (1, 0, 0),
              (1, 0, 2)], []),
    (3, 12): ([(0, 1, 0), (0, 3, 0), (1, 1, 0), (1, 1, 2), (1, 3, 0), (2, 0, 1), (2, 1, 1),
               (3, 0, 0), (3, 0, 1), (4, 0, 0)], []),
    (3, 16): ([(0, 0, 1), (0, 0, 2), (0, 0, 4), (0, 1, 0), (0, 3, 0), (1, 0, 1), (1, 0, 3),
               (2, 0, 2), (2, 2, 0), (3, 0, 0), (3, 1, 0)], []),
    # the self-test's buckets
    (1, 6): ([0, 1, 4, 5], []),
    (2, 5): ([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)], []),
    (3, 5): ([(0, 0, 1), (0, 0, 2), (0, 1, 0), (1, 0, 1), (1, 1, 0)], []),
}


def essentials(nv: int, t: int):
    """(kept, tie-only) exponent sets of the fixed (nv, t) shape."""
    kept, tie_only = ESSENTIALS[(nv, t)]
    as_exp = lambda e: (e,) if nv == 1 else e
    return {as_exp(e) for e in kept}, {as_exp(e) for e in tie_only}


class Algebra:
    """Polynomial algebra; the LP layer (essentiality by Fourier-Motzkin
    today) does almost all the work, and locus and congr never run."""

    name = "algebra"
    child_import = "import supertrop"
    BUCKETS = [(1, 15), (1, 30), (1, 60), (2, 8), (2, 16), (2, 24), (3, 8), (3, 12), (3, 16)]
    # Many small LP problems, so that the p90 falls inside a dense
    # cluster of like-sized LP calls: among the few large ones, one rank
    # step can double it.
    REPEATS = {(2, 8): 15, (3, 8): 15}
    POWERS = [(3, 3), (1, 20)]  # (variables, k) for (sum of variables + c)^k
    TINY_BUCKETS = [(1, 6), (2, 5), (3, 5)]
    TINY_POWERS = [(3, 2), (1, 5)]
    BATCHES, BATCH = 4, 250

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        buckets = self.TINY_BUCKETS if tiny else self.BUCKETS
        self.powers = self.TINY_POWERS if tiny else self.POWERS
        srng = random.Random(STRUCTURE_SEED)
        self.shapes = [(nv, t, random_shape(nv, t, srng)) for nv, t in buckets]
        if not tiny:
            self.shapes += [s for s in self.shapes for _ in range(self.REPEATS.get(s[:2], 1) - 1)]
        self.batches = 1 if tiny else self.BATCHES

    def plan(self, r: int) -> dict:
        rng = _rng(self.name, self.seed, r)
        items = []
        for nv, t, shape in self.shapes:
            a = [_rat(rng, -3, 3, 4) for _ in range(nv)]
            terms = translate(shape, a, _rat(rng, -4, 4, 2))
            terms = [(e, c, rng.random() < 0.2) for e, c, _ in terms]
            items.append(self._item(rng, nv, f"v{nv}t{t}", terms, None, essentials(nv, t),
                                    len(items) % 2 == 0))
        for nv, k in self.powers:
            base = [(tuple(1 if j == i else 0 for j in range(nv)), _rat(rng, -3, 3, 2), False) for i in range(nv)]
            base.append(((0,) * nv, _rat(rng, -3, 3, 2), False))
            frob = [(tuple(k * x for x in e), c * k, g) for e, c, g in base]
            items.append(self._item(rng, nv, f"v{nv}t{comb(nv + k, nv)}", frob, (base, k),
                                    _power_essentials(nv, k), len(items) % 2 == 0))
        batches = [
            [(_element(rng), _element(rng), rng.randint(1, 6)) for _ in range(self.BATCH)]
            for _ in range(self.batches)
        ]
        return {"items": items, "batches": batches, "order": rng.random()}

    def _item(self, rng, nv, tag, terms, power, ess, equal):
        """Inputs for one polynomial.  Without ``power`` the polynomial is
        ``terms``; with ``(base, k)`` it is base^k and ``terms`` is its
        termwise (Frobenius) power, functionally equal to it.  ``ess`` is
        its (kept, tie-only) exponent sets; ``equal`` says whether its
        func_equal partner is equal.  Items alternate between the two in
        a fixed pattern, so that every round has the same mix of
        func_equal costs, whatever the seed."""
        if not equal:
            partner = bumped(terms)
        else:
            partner = terms if power is not None else with_hidden_term(terms)
        probe = eval_points(rng, terms, nv)
        ghost_pt = [(_rat(rng, -4, 4, 2), rng.random() < 0.5) for _ in range(nv)]
        zero_pt = list(ghost_pt)
        zero_pt[rng.randrange(nv)] = oracle.ZERO
        lin = [(tuple(1 if j == i else 0 for j in range(nv)), _rat(rng, -2, 2, 2), False) for i in range(nv)]
        lin.append(((0,) * nv, _rat(rng, -2, 2, 2), False))
        return {
            "nv": nv,
            "tag": tag,
            "terms": terms,
            "power": power,
            "partner": partner,
            "equal": equal,
            "probe": probe,
            "points": [probe[2], ghost_pt, zero_pt],
            "lin": lin,
            "ess": ess,
        }

    def round(self, plan):
        seqs = [self._kernel_ops(b) for b in plan["batches"]]
        seqs += [self._poly_ops(it) for it in plan["items"]]
        yield from interleave(random.Random(plan["order"]), seqs)

    def _kernel_ops(self, batch):
        args = [(lib_point([x])[0], lib_point([y])[0], n) for x, y, n in batch]
        yield Op("core.kernel", kernel_batch, (args,), check=_check_kernel(batch),
                 key=lambda res: repr([tuple(map(repr, r)) for r in res]))

    def _poly_ops(self, it):
        nv, tag = it["nv"], it["tag"]
        probe = it["probe"]
        if it["power"] is None:
            want = parsed_terms(it["terms"])
            f = yield Op("poly.parse_poly", poly.parse_poly, (poly_text(it["terms"], nv), nv),
                         check=check_parsed(want), key=poly.format_poly)
        else:
            base, k = it["power"]
            base_terms = parsed_terms(base)
            b = yield Op("poly.parse_poly", poly.parse_poly, (poly_text(base, nv), nv),
                         check=check_parsed(base_terms), key=poly.format_poly)
            f = yield Op("poly.p_pow", poly.p_pow, (b, k),
                         check=_check_power(base_terms, k, probe, comb(nv + k, nv)),
                         key=poly.format_poly)
            want = oracle.terms_of(f)
        g_want = parsed_terms(it["partner"])
        g = yield Op("poly.parse_poly", poly.parse_poly, (poly_text(it["partner"], nv), nv),
                     check=check_parsed(g_want), key=poly.format_poly)
        lin_want = parsed_terms(it["lin"])
        lin = yield Op("poly.parse_poly", poly.parse_poly, (poly_text(it["lin"], nv), nv),
                       check=check_parsed(lin_want), key=poly.format_poly)
        yield Op("poly.p_mul", poly.p_mul, (f, lin),
                 check=_check_product(want, lin_want, probe), key=poly.format_poly)
        cf = yield Op("poly.canonicalize", poly.canonicalize, (f,), tag=tag,
                      check=_check_canonical(want, *it["ess"], probe),
                      count=lambda res, n=len(f.terms): {
                          "poly.canonicalize.terms_in": n,
                          "poly.canonicalize.terms_kept": len(res.poly.terms)},
                      key=lambda res: poly.format_poly(res.poly))
        yield Op("poly.format_poly", poly.format_poly, (cf.poly,),
                 check=_check_format(cf.poly), key=str)
        yield Op("poly.func_equal", poly.func_equal, (f, g),
                 check=lambda res, e=it["equal"]: None if res is e else f"expected {e}", key=str)
        if nv == 1:
            yield Op("poly.factor_univariate", poly.factor_univariate, (f,),
                     check=_check_factor(want, probe),
                     key=lambda res: repr((res.unit, [(poly.format_poly(b), m) for b, m in res.factors])))
        for pt in it["points"]:
            yield Op("poly.p_eval", poly.p_eval, (f, lib_point(pt)),
                     check=lambda res, pt=pt: None if oracle.el_of(res) == oracle.evaluate(want, pt)
                     else "p_eval disagrees with the max-plus evaluator",
                     key=core.format_element)

    def warm_up(self):
        f = poly.parse_poly("x^2 + 0*x + 1")
        poly.format_poly(poly.canonicalize(f).poly)
        poly.factor_univariate(f)
        poly.func_equal(f, poly.p_mul(f, f))
        poly.p_eval(f, (core.rat_t(1),))


def _element(rng):
    """A seeded rational element: one in ten is -inf, three in ten ghost."""
    if rng.random() < 0.1:
        return oracle.ZERO
    return (_rat(rng, -5, 5, 2), rng.random() < 0.3)


def kernel_batch(args):
    out = []
    for a, b, n in args:
        out.append((core.add(a, b), core.mul(a, b), core.power(a, n), core.nu(a), core.gs_ge(a, b)))
    return out


def _check_kernel(batch):
    def check(res):
        for (x, y, n), (s, p, pw, nu, ge) in zip(batch, res):
            want = (oracle.el_add(x, y), oracle.el_mul(x, y), oracle.el_power(x, n), oracle.el_nu(x))
            got = tuple(oracle.el_of(v) for v in (s, p, pw, nu))
            if got != want or ge is not oracle.el_gs_ge(x, y):
                return f"kernel disagrees on {x}, {y}"
        return None if len(res) == len(batch) else "batch length"
    return check


def _check_power(base_terms, k, probe, n_terms):
    def check(res):
        if len(res.terms) != n_terms:
            return f"{len(res.terms)} terms, expected {n_terms}"
        return oracle.scaled_at(base_terms, oracle.terms_of(res), k, probe)
    return check


def _check_product(f_terms, g_terms, probe):
    return lambda res: oracle.product_at(f_terms, g_terms, oracle.terms_of(res), probe)


def _check_canonical(f_terms, kept, tie_only, probe):
    """The canonical form keeps exactly ``kept``, ghosts the ``tie_only``
    coefficients, leaves the others as they are and classifies every
    exponent of f accordingly; it must also compute f's function."""
    want = [(e, c, g or e in tie_only) for e, c, g in f_terms if e in kept]
    kinds = sorted(
        (e, "UNREACHABLE" if e not in kept else "TIE_ONLY" if e in tie_only else "STRICTLY_ESSENTIAL")
        for e, _, _ in f_terms
    )
    def check(res):
        got = oracle.terms_of(res.poly)
        if got != want:
            return f"canonical form keeps {len(got)} terms, expected {len(want)} (or wrong ghosts)"
        if [(e, k.name) for e, k in res.essentiality] != kinds:
            return "essentiality map differs"
        return oracle.same_function_at(f_terms, got, probe)
    return check


def _power_essentials(nv: int, k: int):
    """(a*x + b*y + ... + c)^k: every lifted exponent lies on one affine
    hyperplane, so every term ties and only the pure powers are strict."""
    exps = {e for e in itertools.product(range(k + 1), repeat=nv) if sum(e) <= k}
    vertices = {(0,) * nv} | {tuple(k if j == i else 0 for j in range(nv)) for i in range(nv)}
    return exps, exps - vertices


def _check_format(p):
    return lambda text: None if poly.parse_poly(text, p.nvars) == p else "format does not parse back"


def _check_factor(f_terms, probe):
    """Every factor is one of the irreducible shapes (x; a two-term
    linear; x^2 + hv*x + c with a ghost middle coefficient), their
    degrees add up to f's, and the product has f's values."""
    degree = max(e[0] for e, _, _ in f_terms)
    def check(res):
        total = 0
        for base, mult in res.factors:
            terms = oracle.terms_of(base)
            exps = [e[0] for e, _, _ in terms]
            if not (exps == [1] or exps == [0, 1] or (exps == [0, 1, 2] and terms[1][2])):
                return f"factor with exponents {exps} is not irreducible"
            total += exps[-1] * mult
        if total != degree:
            return f"factor degrees add up to {total}, expected {degree}"
        got = oracle.factorization_at(res.unit, res.factors, probe)
        want = [oracle.evaluate(f_terms, pt) for pt in probe]
        return None if got == want else "factorization differs from f"
    return check


# -- plane --------------------------------------------------------------


PLANE_SHAPES = [
    # (tag, box half-width, system); the tag is the cell count, which
    # every seeded translate keeps
    ("c29", 2, ["x + y + 0"]),
    ("c57", 4, ["x^2*y + x*y^2 + 2*x*y + 0"]),
    ("c151", 10, ["-2*x^2 + -1 + -5*y^3 + -5/2*x*y^2", "x + y + 0"]),
    ("c269", 12, ["-2*x^2 + -5/2*x^3 + -3/2 + -6*y^3 + -5/2*y^2 + -2*x"]),
    ("c457", 12, ["-2*x^2 + -5/2*x^3 + -3/2 + -6*y^3 + -5/2*y^2 + -2*x", "x*y + -1*x + 1*y + 0"]),
    ("c821", 11, ["-5*x^2*y + -11/2*y^3 + -7/2*x^3 + -5/2*x + 1 + -7/2*x*y + -2*y^2 + -3*x^2"]),
]


class Plane:
    """Planar loci: locus2d builds, then point location and membership
    queries; p_eval and the cell scan do the work and no LP runs."""

    name = "plane"
    child_import = "import supertrop"
    QUERIES = 16

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        shapes = PLANE_SHAPES[:2] if tiny else PLANE_SHAPES
        self.queries = 4 if tiny else self.QUERIES
        self.shapes = [
            (tag, half, [oracle.terms_of(poly.parse_poly(t, nvars=2)) for t in texts])
            for tag, half, texts in shapes
        ]

    def plan(self, r: int) -> dict:
        rng = _rng(self.name, self.seed, r)
        items = []
        for tag, half, system in self.shapes:
            a = [_rat(rng, -2, 2, 4) for _ in range(2)]
            c0 = _rat(rng, -2, 2, 2)
            terms = [translate(s, a, c0) for s in system]
            box = ((-half - a[0], half - a[0]), (-half - a[1], half - a[1]))
            polys = [poly.parse_poly(poly_text(t, 2), nvars=2) for t in terms]
            items.append({"tag": tag, "terms": terms, "polys": polys, "box": box,
                          "points": self._points(rng, terms, box)})
        return {"items": items, "order": rng.random()}

    def _points(self, rng, systems, box):
        (x0, x1), (y0, y1) = box
        inside = lambda p: x0 <= p[0] <= x1 and y0 <= p[1] <= y1
        lines = []
        for terms in systems:
            for (e1, c1, _), (e2, c2, _) in itertools.combinations(terms, 2):
                lines.append((e1[0] - e2[0], e1[1] - e2[1], c2 - c1))
        vertices = []
        for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
            det = a1 * b2 - a2 * b1
            if det:
                p = ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)
                if inside(p):
                    vertices.append(p)
        vertices = sorted(set(vertices))
        frac = lambda: Fraction(rng.randint(1, 199), 200)
        pts = []
        while len(pts) < self.queries:
            kind = len(pts) % 3
            p = (x0 + (x1 - x0) * frac(), y0 + (y1 - y0) * frac())
            if kind == 1:  # on a tie line; a line can miss the box, so retry
                for _ in range(20):
                    a, b, c = rng.choice(lines)
                    q = (p[0], (c - a * p[0]) / b) if b else (c / a, p[1])
                    if inside(q):
                        p = q
                        break
            elif kind == 2 and vertices:
                p = rng.choice(vertices)
            pts.append(p)
        return pts

    def round(self, plan):
        seqs = [self._shape_ops(it) for it in plan["items"]]
        yield from interleave(random.Random(plan["order"]), seqs)

    def _shape_ops(self, it):
        systems, tag = it["terms"], it["tag"]
        L = yield Op("locus.locus2d", locus.locus2d, (it["polys"], it["box"]), tag=tag,
                     check=_check_complex(systems, it["box"], int(tag[1:])),
                     count=lambda res: {"locus.locus2d.cells": len(res.cells)},
                     key=lambda res: repr(res.cells))
        for p in it["points"]:
            label = oracle.ghost_label(systems, p)
            yield Op("locus.locate", locus.locate, (L, p[0], p[1]), tag=tag,
                     check=_check_cell(p, label), key=repr)
            yield Op("locus.z_member", locus.z_member, (it["polys"], p),
                     check=lambda res, g=label == "GhostRegion": None if res is g else "membership wrong",
                     key=str)
        yield Op("locus.render_svg", locus.render_svg, (L,), check=_check_svg(L),
                 key=lambda res: res.decode())
        yield Op("locus.to_json", locus.to_json, (L,), check=_check_json(L), key=str)

    def warm_up(self):
        L = locus.locus2d([poly.parse_poly("x + y + 0", nvars=2)])
        locus.locate(L, Fraction(0), Fraction(0))
        locus.render_svg(L)
        locus.to_json(L)


def _check_complex(systems, box, cells):
    (x0, x1), (y0, y1) = box
    def check(L):
        if len(L.cells) != cells:
            return f"{len(L.cells)} cells, expected {cells}"
        faces = [c for c in L.cells if c.kind == "face"]
        edges = sum(1 for c in L.cells if c.kind == "edge")
        verts = len(L.cells) - len(faces) - edges
        if verts - edges + len(faces) != 1:
            return "Euler characteristic of the box is not 1"
        if sum(oracle.area2(c.polygon) for c in faces) != 2 * (x1 - x0) * (y1 - y0):
            return "faces do not tile the box"
        for c in faces:
            if c.label != oracle.ghost_label(systems, c.witness):
                return "face label disagrees with the evaluator"
        return None
    return check


def _check_cell(p, label):
    def check(cell):
        if not oracle.cell_contains(cell.kind, cell.polygon, p):
            return f"{cell.kind} does not contain {p}"
        return None if cell.label == label else "cell label disagrees with the evaluator"
    return check


def _check_svg(L):
    faces = sum(1 for c in L.cells if c.kind == "face")
    verts = sum(1 for c in L.cells if c.kind == "vertex")
    def check(svg):
        if not (svg.startswith(b"<svg") and svg.endswith(b"</svg>\n")):
            return "not a complete svg document"
        if svg.count(b"<polygon") != faces or svg.count(b"<circle") != verts:
            return "svg shape count differs from the complex"
        return None
    return check


def _check_json(L):
    def check(text):
        cells = json.loads(text)["cells"]
        if [c["kind"] for c in cells] != [c.kind for c in L.cells]:
            return "json cells differ from the complex"
        return None
    return check


# -- carriers -----------------------------------------------------------


# (congruences, nu-primes) of each base carrier.  36 and 98 for
# str-chain:4 and :5 are the figures the roadmap records; the rest were
# counted once and are checked against every isomorphic copy.
EXPECTED_COUNTS = {
    "superboolean": (3, 1),
    "str-chain:2": (6, 2),
    "str-chain:3": (14, 4),
    "str-trunc:3": (10, 3),
    "str-chain:4": (36, 8),
    "str-trunc:4": (15, 4),
    "str-chain:5": (98, 16),
    "str-trunc:5": (21, 5),
    "flat-idempotent": (5, 3),
    "unit-pair": (4, 2),
    "ghost-tower": (9, 6),
    "mixed-units": (7, 5),
    "two-level-t": (11, 6),
    "two-level-g": (11, 6),
}
# the structured family random:N draws from, identified by signature
RANDOM_TEMPLATES = ["flat-idempotent", "unit-pair", "ghost-tower", "mixed-units",
                    "str-chain:2", "two-level-t", "two-level-g"]


class Carriers:
    """Finite carriers, used two ways: cold lattice construction on a
    fresh isomorphic copy (what every CLI call pays) and warm queries
    against the spectrum built from it (what a long-lived caller pays)."""

    name = "carriers"
    child_import = "import supertrop"
    SIZED = ["str-chain:3", "str-trunc:3", "str-chain:4", "str-trunc:4", "str-chain:5", "str-trunc:5"]
    TINY = ["str-chain:3", "superboolean", "flat-idempotent"]

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        names = self.TINY if tiny else self.SIZED + [n for n, _ in congr.bundled_suite()]
        self.bases = [(n, congr.builtin_semiring(n)) for n in names]
        self.random_sig = {}
        for n in RANDOM_TEMPLATES:
            sig = oracle.carrier_signature(congr.builtin_semiring(n))
            if self.random_sig.setdefault(sig, n) != n:
                raise RuntimeError("random-carrier templates share a signature")
        self.seen: dict = {}  # cross-copy invariants, keyed by base
        self.copies = 0

    def plan(self, r: int) -> dict:
        rng = _rng(self.name, self.seed, r)
        bases = list(self.bases)
        if not self.tiny:
            # the seed picks N; the round number picks which template
            # random:N must come from, so every run has the same op mix
            want = RANDOM_TEMPLATES[r % len(RANDOM_TEMPLATES)]
            n = rng.randrange(10**6)
            while self.random_sig.get(oracle.carrier_signature(congr.random_semiring(n))) != want:
                n += 1
            bases.append((f"random:{n}", congr.builtin_semiring(f"random:{n}")))
        return {"items": [self._copy(rng, name, R0) for name, R0 in bases], "order": rng.random()}

    def _copy(self, rng, spec, R0):
        """A fresh isomorphic copy: seeded permutation, and element names
        tagged with a copy number so no two copies are ever equal (small
        carriers have few permutations) and every lru_cache stays cold."""
        perm = list(range(R0.size))
        rng.shuffle(perm)
        P = congr.permute_semiring(R0, perm)
        self.copies += 1
        R = congr.FiniteNuSemiring(
            tuple(f"{s}.{self.copies}" for s in P.names), P.zero, P.one,
            P.add_table, P.mul_table, P.nu_table, P.tangible, P.prudent)
        pairs = list(itertools.combinations(range(R.size), 2))
        rng.shuffle(pairs)
        name = spec
        if spec.startswith("random:"):
            name = self.random_sig[oracle.carrier_signature(R0)]
        return {"spec": spec, "name": name, "R0": R0, "R": R, "inv": [perm.index(i) for i in range(R.size)],
                "pairs": pairs, "pick": rng.random()}

    def round(self, plan):
        """Each 11-element copy heads its own part of the round, and the
        copies of a part run interleaved: the warm queries of the large
        carriers then spread over the round instead of bunching right
        after their enumeration."""
        rng = random.Random(plan["order"])
        big = [it for it in plan["items"] if it["R"].size == 11]
        rest = [it for it in plan["items"] if it["R"].size != 11]
        parts = [[b] + rest[i::len(big)] for i, b in enumerate(big)] or [rest]
        for part in parts:
            yield from interleave(rng, [self._carrier_ops(it) for it in part])

    def _carrier_ops(self, it):
        R, R0, spec, inv = it["R"], it["R0"], it["spec"], it["inv"]
        n = R.size
        bound = max(n, congr.DEFAULT_BOUND)
        want_c, want_p = EXPECTED_COUNTS[it["name"]]
        yield Op("congr.validate", congr.validate, (R,),
                 check=lambda rep: None if rep.passed and oracle.carrier_laws(R) is None else "validation failed",
                 key=repr)
        cs = yield Op("congr.enumerate_congruences", congr.enumerate_congruences, (R, bound),
                      tag=f"n{n}", check=_check_lattice(R, want_c),
                      count=lambda res: {"congr.enumerate_congruences.found": len(res)},
                      key=lambda res: repr(sorted(_base_classes(c, inv) for c in res)))
        S = yield Op("spectra.spec", spectra.spec, (R, bound), check=_check_spec(cs, want_p),
                     count=lambda res: {"spectra.spec.points": len(res.points)},
                     key=lambda res: repr(sorted(_base_classes(p, inv) for p in res.points)))
        yield Op("spectra.spectrum_to_json", spectra.spectrum_to_json, (S, bound),
                 check=_check_spectrum_json(S), key=lambda res: str(len(res)))
        yield Op("congr.find_isomorphism", congr.find_isomorphism, (R, R0),
                 check=lambda f: "no isomorphism found" if f is None else oracle.is_homomorphism(R, R0, f),
                 key=lambda f: "found" if f else "none")
        theta = S.points[int(it["pick"] * len(S.points))]
        yield Op("congr.quotient", congr.quotient, (R, theta), check=_check_quotient(R, theta),
                 key=lambda res: str(res[0].size))
        yield Op("spectra.krull_check", spectra.krull_check, (R, bound),
                 check=lambda rep: None if rep.passed else "krull check failed", key=repr)
        yield Op("spectra.nullstellensatz_check", spectra.nullstellensatz_check, (R, theta, bound),
                 check=lambda rep: None if rep.passed else "nullstellensatz check failed", key=repr)
        # warm queries against the same spectrum
        for f in range(n):
            yield Op("spectra.sections", spectra.sections, (S, f),
                     check=self._check_same(("sections", spec, inv[f])), key=_carrier_key)
        for x, p in enumerate(S.points):
            base_cls = _base_classes(p, inv)
            yield Op("spectra.stalk", spectra.stalk, (S, x),
                     check=self._check_same(("stalk", spec, base_cls)), key=_carrier_key)
            yield Op("congr.localize_finite", congr.localize_finite, (R, sorted(p.iT)),
                     check=_check_localization(R), key=lambda res: _carrier_key(res[0]))
            closed = frozenset(j for j, q in enumerate(S.points) if oracle.refines(p.reps, q.reps))
            yield Op("spectra.irreducible", spectra.irreducible, (S, closed, bound),
                     check=lambda res: None if res is True else "closure of a point is not irreducible",
                     key=str)
        for pair in it["pairs"]:
            yield Op("congr.cong_closure", congr.cong_closure, (R, [pair]),
                     check=lambda res, pair=pair: None if res.reps == oracle.least_congruence(R, pair, cs)
                     else "not the least congruence holding the pair",
                     key=lambda res: repr(_base_classes(res, inv)))

    def _check_same(self, key):
        """Result is a carrier, and isomorphic copies agree on it."""
        def check(res):
            bad = oracle.carrier_laws(res)
            if bad:
                return bad
            sig = oracle.carrier_signature(res)
            return None if self.seen.setdefault(key, sig) == sig else "copies disagree"
        return check

    def warm_up(self):
        plan = {"items": [self._copy(random.Random(0), "superboolean", congr.superboolean())], "order": 0}
        run_round(self.round(plan), False, -1)


def _base_classes(theta, inv):
    """Classes of a congruence on a copy, in the base carrier's indices."""
    return tuple(sorted(tuple(sorted(inv[i] for i in cls)) for cls in theta.classes()))


def _carrier_key(R) -> str:
    return repr(oracle.carrier_signature(R))


def _check_lattice(R, want):
    def check(cs):
        if len(cs) != want:
            return f"{len(cs)} congruences, expected {want}"
        if len({c.reps for c in cs}) != len(cs):
            return "duplicate congruences"
        for c in cs:
            if not oracle.is_compatible(R, c.reps):
                return f"{c.reps} is not compatible"
        return None
    return check


def _check_spec(cs, want):
    known = {c.reps for c in cs}
    def check(S):
        if len(S.points) != want:
            return f"{len(S.points)} points, expected {want}"
        return None if all(p.reps in known for p in S.points) else "point is not a congruence"
    return check


def _check_spectrum_json(S):
    def check(text):
        pts = json.loads(text)["points"]
        if len(pts) != len(S.points):
            return "json point count differs"
        return None if all("NuPrime" in p["flags"] for p in pts) else "point without NuPrime flag"
    return check


def _check_quotient(R, theta):
    classes = theta.classes()
    def check(res):
        Q, proj = res
        if Q.size != len(classes):
            return "quotient size differs from the class count"
        for a in range(R.size):
            for b in range(R.size):
                if proj[R.add_table[a][b]] != Q.add_table[proj[a]][proj[b]]:
                    return "projection does not respect addition"
                if proj[R.mul_table[a][b]] != Q.mul_table[proj[a]][proj[b]]:
                    return "projection does not respect multiplication"
        return oracle.carrier_laws(Q)
    return check


def _check_localization(R):
    def check(res):
        S, tau = res
        if tau[R.one] != S.one or tau[R.zero] != S.zero:
            return "a -> a/1 moves zero or one"
        for a in range(R.size):
            for b in range(R.size):
                if tau[R.mul_table[a][b]] != S.mul_table[tau[a]][tau[b]]:
                    return "a -> a/1 does not respect multiplication"
        return oracle.carrier_laws(S)
    return check


# -- cli ----------------------------------------------------------------


def _json_has(**want):
    """Expectation on a JSON document: the named keys hold these values."""
    def check(out: str):
        obj = json.loads(out)
        for k, v in want.items():
            got = len(obj[k[:-4]]) if k.endswith("_len") else obj[k]
            if got != v:
                return f"{k} is {got!r}, expected {v!r}"
        return None
    return check


NESTED = "(" * 3000 + "x" + ")" * 3000
QUOTIENT_THETA = '{"classes": [["0"], ["1"], ["1v", "a", "av"]]}'

# (verb args, expected exit code, expected stdout or a check, known defect).
# Outputs were written from the README examples and the documented exit
# codes.  `canon "(x+0)^3000"` also runs without a budget today, but for
# more than 60 s, so it is left out to keep the run short.
CLI_CASES = [
    (["eval", "x^2 + 0*x + 1", "3"], 0, "6\n", False),
    (["eval", "x*y + 0", "2,-2"], 0, "0v\n", False),
    (["canon", "x^2 + 0*x + 1"], 0, "x^2 + 1\n", False),
    (["equal", "(x+y+0)*(x+y+x*y)", "(x+0)*(y+0)*(x+y)"], 0, "true\n", False),
    (["equal", "x^2 + 0*x + 1", "x^2 + 1"], 0, "true\n", False),
    (["factor", "x^2 + 0*x + 1"], 0, "0 * (x + 1/2)^2\n", False),
    (["root", "x^2 + 1v*x + 3"], 0, "3/2\n", False),
    (["zlocus", "x^2*y + x*y^2 + 2*x*y + 0", "--format", "text"], 0,
     "polynomials: 1\nbox: x in [-4, 4], y in [-4, 4]\nvertices: 15\nedges: 28\nfaces: 14 (0 ghost)\n", False),
    (["zlocus", "x + y + 0", "--format", "json"], 0, _json_has(cells_len=29), False),
    (["validate", "--semiring", "superboolean"], 0, _json_has(passed=True, failures=[]), False),
    (["congs", "--semiring", "str-chain:2", "--kind", "NuPrime"], 0, _json_has(count=2), False),
    (["congs", "--semiring", "flat-idempotent"], 0, _json_has(count=5), False),
    (["spec", "--semiring", "flat-idempotent"], 0, _json_has(points_len=3), False),
    (["radical", "--semiring", "str-chain:2", "--elements", "a"], 0,
     _json_has(classes=[["0"], ["1"], ["1v"], ["a", "av"]]), False),
    (["quotient", "--semiring", "str-chain:2", "--congruence", QUOTIENT_THETA], 0,
     _json_has(map={"0": "0", "1": "1", "1v": "1v|a|av", "a": "1v|a|av", "av": "1v|a|av"}), False),
    (["localize", "--semiring", "mixed-units", "--monoid", "1,t"], 0,
     lambda out: None if json.loads(out)["carrier"]["elements"] == ["0", "1", "1v"] else "wrong carrier", False),
    (["sections", "--semiring", "superboolean", "--element", "b1"], 0,
     _json_has(elements=["b0", "b1", "b1v"], tangible=["b1"]), False),
    (["stalk", "--semiring", "flat-idempotent", "--point", "1"], 0,
     _json_has(elements=["0", "1", "t", "1v"]), False),
    (["nullcheck", "--semiring", "str-trunc:3"], 0, _json_has(passed=True, congruences=6, checked=42), False),
    (["krullcheck", "--semiring", "superboolean"], 0,
     '{"checked": 4, "failures": [], "name": "krull", "passed": true}\n', False),
    (["spec", "--semiring", "str-chain:4"], 4, "", False),
    (["eval", "x + 0", "1", "--out"], 2, "", False),
    # the three failures the roadmap records: expected exit 2, no traceback
    (["eval", "x", "1/0"], 2, "", True),
    (["canon", "1/0*x"], 2, "", True),
    (["canon", NESTED], 2, "", True),
]


def cli_env() -> dict:
    """A child's environment: the checkout's src/ on the path, and
    bytecode written, so that an untimed first import warms the cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_cli(argv, env):
    """One child process, waited for; returns (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class Cli:
    """One `python -m supertrop.cli` child per operation with small
    inputs, so interpreter start, import, argparse and output emission
    dominate."""

    name = "cli"
    child_import = "import supertrop.cli"
    STARTUPS = 2
    EVALS = 3

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.env = cli_env()
        self.cases = CLI_CASES[:-3:4] + CLI_CASES[-3:] if tiny else CLI_CASES
        self.evals = 1 if tiny else self.EVALS

    def plan(self, r: int) -> dict:
        rng = _rng(self.name, self.seed, r)
        ops = [(["-m", "supertrop.cli", *args], code, out, defect, args[0])
               for args, code, out, defect in self.cases]
        for _ in range(self.evals):
            terms = [((2,), _rat(rng, -3, 3, 2), rng.random() < 0.3), ((1,), _rat(rng, -3, 3, 2), False),
                     ((0,), _rat(rng, -3, 3, 2), False)]
            x = (_rat(rng, -4, 4, 2), rng.random() < 0.3)
            want = oracle.evaluate(terms, [x])
            text = f"{want[0]}{'v' if want[1] else ''}\n"
            ops.append((["-m", "supertrop.cli", "eval", "--", poly_text(terms, 1),
                         f"{x[0]}{'v' if x[1] else ''}"], 0, text, False, "eval"))
        for _ in range(self.STARTUPS):
            ops.append((["-c", "import supertrop.cli"], 0, "", False, "startup"))
        rng.shuffle(ops)
        return {"ops": ops}

    def round(self, plan):
        for argv, code, out, defect, verb in plan["ops"]:
            yield Op(f"cli.{verb}", run_cli, (argv, self.env), check=_check_cli(code, out),
                     key=lambda res: f"{res[0]}:{res[1]}", known_defect=defect)

    def warm_up(self):
        run_cli(["-m", "supertrop.cli", "eval", "x", "0"], self.env)


def _check_cli(code, out):
    def check(res):
        rc, stdout, stderr = res
        if "Traceback" in stderr:
            return f"traceback (exit {rc})"
        if rc != code:
            return f"exit {rc}, expected {code}"
        if callable(out):
            return out(stdout)
        return None if stdout == out else f"stdout {stdout!r}, expected {out!r}"
    return check


WORKLOADS = {w.name: w for w in (Algebra, Plane, Carriers, Cli)}
