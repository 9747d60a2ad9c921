"""Planar arrangement and ghost-locus cell labeling."""

import json
import random
from fractions import Fraction

import pytest

import locus_oracles as oracle
from supertrop import locus
from supertrop.core import rat_g, rat_t
from supertrop.errors import BoundError, PreconditionError
from supertrop.locus import (
    GHOST_REGION,
    MAX_TIE_LINES,
    LocusComplex,
    default_box,
    locate,
    locus2d,
    render_svg,
    to_json,
    z_member,
)
from supertrop.poly import make_poly, p_zero, parse_poly


def F(v) -> Fraction:
    return Fraction(v)


def triangle_system(alpha: int):
    # joint locus: x <= alpha, y <= alpha, x + y >= alpha
    return [
        parse_poly(f"x + {alpha}v", nvars=2),
        parse_poly(f"y + {alpha}v"),
        parse_poly(f"-{alpha}v*x*y + 0"),
    ]


def elliptic(alpha: str):
    return [parse_poly(f"x^2*y + x*y^2 + {alpha}*x*y + 0")]


BOX5 = ((F(-5), F(5)), (F(-5), F(5)))


def grid_agrees(L: LocusComplex, n: int) -> bool:
    (x0, x1), (y0, y1) = L.box
    for i in range(n + 1):
        x = x0 + Fraction(i, n) * (x1 - x0)
        for j in range(n + 1):
            y = y0 + Fraction(j, n) * (y1 - y0)
            cell = locate(L, x, y)
            if (cell.label == GHOST_REGION) != z_member(L.polys, (x, y)):
                return False
    return True


def ghost_graph_betti(L: LocusComplex) -> int:
    """First Betti number of the union of ghost edges and vertices."""
    verts = [
        c.polygon[0]
        for c in L.cells
        if c.kind == "vertex" and c.label == GHOST_REGION
    ]
    edges = [
        c.polygon
        for c in L.cells
        if c.kind == "edge" and c.label == GHOST_REGION
    ]
    index = {p: i for i, p in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in edges:
        # the locus is closed, so ghost edge endpoints are ghost vertices
        assert a in index and b in index
        ra, rb = find(index[a]), find(index[b])
        parent[ra] = rb
    components = len({find(i) for i in range(len(verts))})
    return len(edges) - len(verts) + components


# -- structural invariants ----------------------------------------------


def test_euler_characteristic_is_one():
    for polys in (
        triangle_system(1),
        elliptic("2"),
        [parse_poly("x + y + 0")],
        [parse_poly("0v*x", nvars=2)],
    ):
        L = locus2d(polys, BOX5)
        assert L.euler_characteristic() == 1


def test_faces_tile_the_box():
    L = locus2d(triangle_system(1), BOX5)

    def area2(pts):
        total = Fraction(0)
        for i in range(len(pts)):
            x0, y0 = pts[i]
            x1, y1 = pts[(i + 1) % len(pts)]
            total += x0 * y1 - x1 * y0
        return total

    total = sum(area2(c.polygon) for c in L.faces())
    assert total == 2 * 10 * 10


def test_cell_interiors_are_uniformly_labeled():
    rng = random.Random(3)
    for polys in (triangle_system(1), elliptic("2"), elliptic("2v")):
        L = locus2d(polys, BOX5)
        for cell in L.cells:
            for _ in range(5):
                if cell.kind == "face":
                    weights = [rng.randint(1, 9) for _ in cell.polygon]
                    s = sum(weights)
                    x = sum(w * p[0] for w, p in zip(weights, cell.polygon)) / s
                    y = sum(w * p[1] for w, p in zip(weights, cell.polygon)) / s
                elif cell.kind == "edge":
                    t = Fraction(rng.randint(1, 99), 100)
                    a, b = cell.polygon
                    x = a[0] + t * (b[0] - a[0])
                    y = a[1] + t * (b[1] - a[1])
                else:
                    (x, y) = cell.polygon[0]
                inside = z_member(L.polys, (x, y))
                assert inside == (cell.label == GHOST_REGION)


def test_single_term_ghost_everywhere():
    L = locus2d([parse_poly("0v*x", nvars=2)], BOX5)
    assert all(c.label == GHOST_REGION for c in L.cells)
    assert len(L.faces()) == 1


def test_zero_polynomial_is_ghost_everywhere():
    L = locus2d([p_zero(2)], BOX5)
    assert all(c.label == GHOST_REGION for c in L.cells)
    assert L.cells[0].attaining == ((),)


def test_z_member_signature():
    f = parse_poly("x + 0")
    assert z_member([f], (F(0),))
    assert not z_member([f], (F(2),))
    assert z_member([], (F(1), F(2)))
    with pytest.raises(PreconditionError):
        z_member([f], (F(0), F(0)))


def test_preconditions():
    with pytest.raises(PreconditionError):
        locus2d([], BOX5)
    with pytest.raises(PreconditionError):
        locus2d([parse_poly("x + 0")], BOX5)
    with pytest.raises(PreconditionError):
        locus2d([parse_poly("x + y")], ((F(1), F(1)), (F(0), F(2))))
    L = locus2d([parse_poly("x + y")], BOX5)
    with pytest.raises(PreconditionError):
        locate(L, F(9), F(0))


def test_default_box_scales_with_coefficients():
    box = default_box([parse_poly("x + y + -7")])
    assert box == ((F(-14), F(14)), (F(-14), F(14)))
    assert default_box([parse_poly("x + y")]) == (
        (F(-2), F(2)),
        (F(-2), F(2)),
    )


# -- the three reference figures ------------------------------------------


def test_triangle_locus():
    L = locus2d(triangle_system(1), BOX5)
    ghost_faces = [c for c in L.faces() if c.label == GHOST_REGION]
    assert len(ghost_faces) == 1
    corners = set(ghost_faces[0].polygon)
    assert corners == {(F(1), F(0)), (F(0), F(1)), (F(1), F(1))}
    ghost_edges = [c for c in L.edges() if c.label == GHOST_REGION]
    assert len(ghost_edges) == 3
    ghost_verts = {
        c.polygon[0] for c in L.vertices() if c.label == GHOST_REGION
    }
    assert ghost_verts == corners
    assert grid_agrees(L, 40)


def test_elliptic_tangible_coefficient():
    L = locus2d(elliptic("2"), BOX5)
    assert not [c for c in L.faces() if c.label == GHOST_REGION]
    assert ghost_graph_betti(L) == 1
    assert grid_agrees(L, 40)


def test_elliptic_ghost_coefficient():
    L = locus2d(elliptic("2v"), BOX5)
    ghost_faces = [c for c in L.faces() if c.label == GHOST_REGION]
    assert ghost_faces
    assert grid_agrees(L, 40)


def test_random_systems_match_grid():
    rng = random.Random(9)
    for _ in range(12):
        coeffs = {}
        for _ in range(rng.randint(2, 4)):
            exp = (rng.randint(0, 2), rng.randint(0, 2))
            v = Fraction(rng.randint(-3, 3))
            coeffs[exp] = v
        text = " + ".join(
            f"{v}{'v' if rng.random() < 0.4 else ''}"
            + (f"*x^{e[0]}" if e[0] else "")
            + (f"*y^{e[1]}" if e[1] else "")
            for e, v in coeffs.items()
        )
        f = parse_poly(text, nvars=2)
        if f.is_zero:
            continue
        L = locus2d([f], ((F(-4), F(4)), (F(-4), F(4))))
        assert L.euler_characteristic() == 1
        assert grid_agrees(L, 16)


# -- differential checks against the Fraction oracle ---------------------


def rand_poly(rng: random.Random, nvars: int, max_terms: int = 4):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, 3) for _ in range(nvars))
        v = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
        coeffs[exp] = rat_g(v) if rng.random() < 0.3 else rat_t(v)
    return make_poly(nvars, coeffs)


def rand_interval(rng: random.Random) -> tuple[Fraction, Fraction]:
    while True:
        a, b = (
            Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 4]))
            for _ in range(2)
        )
        if a != b:
            return min(a, b), max(a, b)


def rand_system(rng: random.Random):
    polys = [rand_poly(rng, 2) for _ in range(rng.randint(1, 3))]
    roll = rng.random()
    if roll < 0.1:
        polys.append(p_zero(2))
    elif roll < 0.2:
        polys = [rand_poly(rng, 2, max_terms=1)]
    box = None
    if rng.random() < 0.8:
        box = (rand_interval(rng), rand_interval(rng))
    return polys, box


def query_points(L: LocusComplex, n: int):
    (x0, x1), (y0, y1) = L.box
    pts = [c.witness for c in L.cells]  # vertices, edge midpoints, centroids
    for i in range(n + 1):
        t = Fraction(i, n)
        x, y = x0 + t * (x1 - x0), y0 + t * (y1 - y0)
        pts += [(x, y0), (x, y1), (x0, y), (x1, y)]  # the box boundary
        pts += [(x, y0 + Fraction(j, n) * (y1 - y0)) for j in range(n + 1)]
    return pts


def oracle_systems():
    """Fixed systems, among them the zero polynomial and a single term,
    then 40 seeded random ones."""
    rng = random.Random(41)
    fixed = [
        (triangle_system(1), BOX5),
        (elliptic("2v"), ((F("-7/2"), F(5)), (F("-9/4"), F(3)))),
        ([p_zero(2)], BOX5),
        ([parse_poly("0v*x", nvars=2)], ((F("1/3"), F("1/2")), (F(-1), F(0)))),
    ]
    return fixed + [rand_system(rng) for _ in range(40)]


def test_locus_matches_fraction_oracle():
    for polys, box in oracle_systems():
        scaled = [locus._scaled(f) for f in polys]
        assert locus._tie_lines(scaled) == oracle._tie_lines(polys), polys
        L = locus2d(polys, box)
        O = oracle.locus2d(polys, box)
        assert L.box == O.box
        assert repr(L.cells) == repr(O.cells), (polys, box)
        for x, y in query_points(L, 8):
            assert locate(L, x, y) == oracle.locate(O, x, y), (polys, box, x, y)


def test_writers_match_json_dumps_and_fraction_oracles():
    rng = random.Random(47)
    systems = oracle_systems() + [rand_system(rng) for _ in range(80)]
    for polys, box in systems:
        L = locus2d(polys, box)
        assert to_json(L) == oracle.to_json(L), (polys, box)
        assert render_svg(L) == oracle.render_svg(L), (polys, box)
    # other sizes change every pixel constant
    L = locus2d(*systems[1])
    for size in (1, 173, 1000):
        assert render_svg(L, size) == oracle.render_svg(L, size)


def test_locate_accepts_what_fraction_accepts():
    L = locus2d(triangle_system(1), BOX5)
    cell = locate(L, F("1/2"), F(1))
    assert locate(L, F("1/2"), 1) == cell
    assert locate(L, 0.5, 1.0) == cell
    assert locate(L, "1/2", "1") == cell
    assert z_member(triangle_system(1), ("1/2", 1.0)) == (cell.label == GHOST_REGION)
    with pytest.raises(PreconditionError):
        locate(L, "11/2", 0)


def test_z_member_matches_p_eval_oracle():
    rng = random.Random(43)
    coords = [F(-2), F(-1), F(0), F(1), F(2), F("1/2"), F("-3/2"), F("2/3")]
    for nvars in (1, 2, 3):
        for _ in range(150):
            polys = [rand_poly(rng, nvars) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.1:
                polys.append(p_zero(nvars))
            point = tuple(rng.choice(coords) for _ in range(nvars))
            assert z_member(polys, point) == oracle.z_member(polys, point)


def many_lines(t: int):
    """t terms whose t(t-1)/2 tie lines are pairwise distinct: the pair
    (i, j) ties along x + (i+j)*y = -(i^2 + i*j + j^2)."""
    return parse_poly(
        " + ".join(f"{i ** 3}*x^{i}*y^{i * i}" for i in range(t)), nvars=2
    )


def test_tie_line_budget():
    t = 2
    while t * (t - 1) // 2 <= MAX_TIE_LINES:
        t += 1
    with pytest.raises(BoundError):
        locus2d([many_lines(t)], BOX5)
    assert len(oracle._tie_lines([many_lines(t - 1)])) <= MAX_TIE_LINES
    assert len(oracle._tie_lines([many_lines(t)])) > MAX_TIE_LINES
    L = locus2d([many_lines(5)], BOX5)
    assert len(L.lines) == 10 + 4
    assert L.euler_characteristic() == 1
    # the k-th binomial ties along x - y = -k; only k = 1 cuts the box
    parallel = [parse_poly(f"{k}*x + y") for k in range(MAX_TIE_LINES + 1)]
    unit = ((F(0), F(1)), (F(1), F(2)))
    assert len(locus2d(parallel[:-1], unit).faces()) == 2
    with pytest.raises(BoundError):
        locus2d(parallel, unit)


# -- output formats --------------------------------------------------------


def test_json_is_stable_and_wellformed():
    L1 = locus2d(triangle_system(1), BOX5)
    L2 = locus2d(triangle_system(1), BOX5)
    assert to_json(L1) == to_json(L2)
    obj = json.loads(to_json(L1))
    assert set(obj) == {"box", "cells"}
    kinds = {c["kind"] for c in obj["cells"]}
    assert kinds == {"face", "edge", "vertex"}
    cell = obj["cells"][0]
    assert set(cell) == {"kind", "label", "polygon", "attaining"}
    assert cell["label"] in {"GhostRegion", "TangibleRegion"}
    assert all(isinstance(v, str) for pt in cell["polygon"] for v in pt)
    assert len(cell["attaining"]) == 3


def test_svg_is_stable_and_complete():
    L = locus2d(triangle_system(1), BOX5)
    svg1 = render_svg(L)
    svg2 = render_svg(locus2d(triangle_system(1), BOX5))
    assert isinstance(svg1, bytes)
    assert svg1 == svg2
    assert svg1.startswith(b"<svg ")
    assert svg1.count(b"<polygon") == len(L.faces())
    assert svg1.count(b"<circle") == len(L.vertices())
    # tie edges plus grid rulings plus the two axes
    assert svg1.count(b"<line") > len(L.edges())
    assert b"#e4e4e4" in svg1 and b"#8899aa" in svg1
