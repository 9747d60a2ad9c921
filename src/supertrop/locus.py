"""Exact planar ghost-locus geometry for bivariate polynomials.

The tie lines of a polynomial system cut the viewing box into an
arrangement of convex faces, open edges and vertices.  On each cell
the attaining term set of every polynomial is constant, hence so is
membership in the ghost locus; one rational witness per cell decides
the label exactly.

The build keeps points as reduced integer homogeneous triples
(X, Y, D) with D > 0, standing for (X/D, Y/D).  Every vertex is the
meet of two integer lines, a primitive tie line or a box side
x = p/q written q*x = p, so side tests and clip intersections are
integer arithmetic.  Points become Fraction pairs only when cells are
emitted, and are sorted once; faces and edges are then ordered by the
ranks of their points.  One scaled-integer evaluator of c + e.w gives
every cell its attaining sets and label, and answers z_member.

The writers are exact too.  to_json writes the fixed schema directly,
byte for byte as json.dumps(sort_keys=True, indent=2) would, and
render_svg computes each pixel coordinate as an integer quotient.

Each cell is keyed by its sign vector against the sorted tie lines and
the four box sides.  The signs are constant on a cell and tell cells
apart, so `locate` is one integer side test per line and one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .core import Layer, format_number
from .errors import BoundError, PreconditionError
from .poly import Exponent, TropPoly

Point = tuple[Fraction, Fraction]
Box = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
Line = tuple[int, int, int]  # A*x + B*y = C, primitive, sign-normalized
HPoint = tuple[int, int, int]  # (X, Y, D) for (X/D, Y/D), D > 0, reduced
SignVector = tuple[int, ...]

GHOST_REGION = "GhostRegion"
TANGIBLE_REGION = "TangibleRegion"

# Work budget of locus2d, checked before any splitting.  n lines in
# general position cross in about n^2/2 vertices, and each cell is
# evaluated against every polynomial and signed against every line.
# The slowest admitted build measured, 118 binomials whose tie lines
# all cross inside the box (25k cells), took 8.5 to 9.8 s on a 2-core
# x86-64 machine under Python 3.11; one 16-term polynomial with 119
# tie lines (24k cells) took 2.3 to 3 s.
MAX_TIE_LINES = 120


@dataclass(frozen=True)
class Cell:
    kind: str  # face | edge | vertex
    polygon: tuple[Point, ...]
    witness: Point
    label: str  # GhostRegion | TangibleRegion
    attaining: tuple[tuple[Exponent, ...], ...]  # one entry per polynomial


@dataclass(frozen=True)
class LocusComplex:
    polys: tuple[TropPoly, ...]
    box: Box
    cells: tuple[Cell, ...]
    # tie lines then box sides, and each cell keyed by its signs against them
    lines: tuple[Line, ...] = field(default=(), repr=False, compare=False)
    index: dict[SignVector, Cell] = field(
        default_factory=dict, repr=False, compare=False
    )

    def faces(self) -> list[Cell]:
        return [c for c in self.cells if c.kind == "face"]

    def edges(self) -> list[Cell]:
        return [c for c in self.cells if c.kind == "edge"]

    def vertices(self) -> list[Cell]:
        return [c for c in self.cells if c.kind == "vertex"]

    def euler_characteristic(self) -> int:
        return (
            len(self.vertices()) - len(self.edges()) + len(self.faces())
        )


def default_box(polys: Sequence[TropPoly]) -> Box:
    """Square window wide enough to show every bounded feature."""
    m = Fraction(1)
    for f in polys:
        for _, c in f.terms:
            m = max(m, abs(c.value))
    return ((-2 * m, 2 * m), (-2 * m, 2 * m))


def _tie_lines(system: Sequence[Scaled]) -> list[Line]:
    """The sorted tie lines of a system of scaled polynomials.  Two terms
    c1 + w1.x and c2 + w2.x tie on (w1 - w2).x = c2 - c1, divided by its
    gcd and signed so that A > 0, or A = 0 and B > 0.  Such a line is
    unique, so it does not depend on how each polynomial was scaled."""
    lines: set[Line] = set()
    for f in system:
        for i, (c1, w1, _, _) in enumerate(f):
            for c2, w2, _, _ in f[i + 1:]:
                a, b, c = w1[0] - w2[0], w1[1] - w2[1], c2 - c1
                g = gcd(a, b, c)
                if a < 0 or (a == 0 and b < 0):
                    g = -g
                lines.add((a // g, b // g, c // g))
    return sorted(lines)


def _common(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The numerators of xs over their least common denominator d, and d."""
    d = lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def _homogeneous(x: Fraction, y: Fraction) -> HPoint:
    (X, Y), d = _common((x, y))
    return (X, Y, d)


def _signs(lines: Sequence[Line], p: HPoint) -> SignVector:
    X, Y, D = p
    sides = [a * X + b * Y - c * D for a, b, c in lines]
    return tuple((s > 0) - (s < 0) for s in sides)


def _meet(p: HPoint, q: HPoint, s0: int, s1: int) -> HPoint:
    """Point where the segment pq crosses a line, from the side values
    s0 at p and s1 at q, which have opposite signs."""
    if s0 < 0:
        s0, s1 = -s0, -s1
    X = s0 * q[0] - s1 * p[0]
    Y = s0 * q[1] - s1 * p[1]
    D = s0 * q[2] - s1 * p[2]
    g = gcd(X, Y, D)
    return (X // g, Y // g, D // g)


def _area2(pts: Sequence[HPoint]) -> tuple[int, int]:
    """Twice the signed area as an unreduced fraction (num, den > 0)."""
    num, den = 0, 1
    X0, Y0, D0 = pts[-1]
    for X1, Y1, D1 in pts:
        dd = D0 * D1
        num = num * dd + (X0 * Y1 - X1 * Y0) * den
        den *= dd
        X0, Y0, D0 = X1, Y1, D1
    return num, den


def _split(pts: list[HPoint], line: Line) -> Sequence[list[HPoint]]:
    """Pieces of a convex face on the nonnegative, then the nonpositive
    side of a line; the face itself unless the line crosses its interior."""
    a, b, c = line
    sides = [a * X + b * Y - c * D for X, Y, D in pts]
    if min(sides) >= 0 or max(sides) <= 0:
        return (pts,)
    pos: list[HPoint] = []
    neg: list[HPoint] = []
    n = len(pts)
    for i in range(n):
        cur, s0, s1 = pts[i], sides[i], sides[i + 1 - n]
        if s0 >= 0:
            pos.append(cur)
        if s0 <= 0:
            neg.append(cur)
        if (s0 > 0 > s1) or (s0 < 0 < s1):
            m = _meet(cur, pts[i + 1 - n], s0, s1)
            pos.append(m)
            neg.append(m)
    n0, d0 = _area2(pts)
    n1, d1 = _area2(pos)
    n2, d2 = _area2(neg)
    if len(pos) < 3 or len(neg) < 3 or n1 <= 0 or n2 <= 0:
        raise AssertionError("clip lost area")
    if (n1 * d2 + n2 * d1) * d0 != n0 * d1 * d2:
        raise AssertionError("split lost area")
    return pos, neg


# -- evaluation -------------------------------------------------------
#
# At a tangible point x = N/d, with q the lcm of a polynomial's
# coefficient denominators, q*d*(c + e.x) = (c*q)*d + q*(e.N) is an
# integer for every term, so terms compare exactly without Fractions.

Scaled = list[tuple[int, tuple[int, ...], Exponent, bool]]  # c*q, q*e, e, ghost


def _scaled(f: TropPoly) -> Scaled:
    q = lcm(*(c.value.denominator for _, c in f.terms))
    return [
        (
            c.value.numerator * (q // c.value.denominator),
            tuple(q * k for k in e),
            e,
            c.layer is Layer.GHOST,
        )
        for e, c in f.terms
    ]


def _evaluate(
    system: Sequence[Scaled], nums: Sequence[int], d: int
) -> tuple[tuple[tuple[Exponent, ...], ...], bool]:
    """The exponents attaining each polynomial's maximum at the tangible
    point nums/d, and whether the point lies in the common ghost locus:
    every polynomial is zero there, or two or more of its terms tie, or
    its one attaining term has a ghost coefficient."""
    attaining = []
    ghost = True
    for f in system:
        if not f:
            attaining.append(())
            continue
        values = [cq * d + sum(map(mul, w, nums)) for cq, w, _, _ in f]
        top = max(values)
        if values.count(top) == 1:
            _, _, e, g = f[values.index(top)]
            attaining.append((e,))
            ghost = ghost and g
        else:
            attaining.append(tuple(t[2] for t, v in zip(f, values) if v == top))
    return tuple(attaining), ghost


def z_member(polys: Sequence[TropPoly], point: Sequence[Fraction]) -> bool:
    """Whether a tangible point lies in the common ghost locus.

    Membership asks every polynomial of the system to evaluate to a
    non-tangible element there; the empty system has the whole space
    as its locus.  Works in any number of variables.
    """
    nums, d = _common([Fraction(x) for x in point])
    for f in polys:
        if f.nvars != len(nums):
            raise PreconditionError("point arity does not match the system")
    return _evaluate([_scaled(f) for f in polys], nums, d)[1]


# -- the cell complex -------------------------------------------------


def locus2d(polys: Sequence[TropPoly], box: Optional[Box] = None) -> LocusComplex:
    """Cut the box along every tie line and label every cell.

    The box must be a nondegenerate axis-aligned rectangle; the cell
    list holds faces, then edges, then vertices, each sorted by their
    point data.  More than MAX_TIE_LINES tie lines raise BoundError.
    """
    polys = tuple(polys)
    if not polys:
        raise PreconditionError("at least one polynomial required")
    if any(f.nvars != 2 for f in polys):
        raise PreconditionError("planar loci need bivariate polynomials")
    if box is None:
        box = default_box(polys)
    (x0, x1), (y0, y1) = box
    if not (x0 < x1 and y0 < y1):
        raise PreconditionError("degenerate box")
    system = [_scaled(f) for f in polys]
    ties = _tie_lines(system)
    if len(ties) > MAX_TIE_LINES:
        raise BoundError(
            f"{len(ties)} tie lines, more than locus.MAX_TIE_LINES = {MAX_TIE_LINES}"
        )

    faces = [[_homogeneous(x, y) for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]]
    for line in ties:
        faces = [piece for pts in faces for piece in _split(pts, line)]

    point_of: dict[HPoint, Point] = {}
    for pts in faces:
        for h in pts:
            if h not in point_of:
                point_of[h] = (Fraction(h[0], h[2]), Fraction(h[1], h[2]))
    # one Fraction sort; faces and edges then compare point ranks
    order = sorted(point_of, key=point_of.__getitem__)
    rank = {h: i for i, h in enumerate(order)}
    edge_set: set[tuple[HPoint, HPoint]] = set()
    for pts in faces:
        for a, b in zip(pts, pts[1:] + pts[:1]):
            edge_set.add((a, b) if rank[a] < rank[b] else (b, a))

    # every cell with its homogeneous witness: the centroid of a face,
    # the midpoint of an edge, a vertex itself
    witnesses: list[tuple[str, tuple[Point, ...], HPoint]] = []
    for pts in sorted(faces, key=lambda pts: [rank[h] for h in pts]):
        d = lcm(*(D for _, _, D in pts))
        centroid = (
            sum(X * (d // D) for X, _, D in pts),
            sum(Y * (d // D) for _, Y, D in pts),
            d * len(pts),
        )
        witnesses.append(("face", tuple(point_of[h] for h in pts), centroid))
    for a, b in sorted(edge_set, key=lambda e: (rank[e[0]], rank[e[1]])):
        (Xa, Ya, Da), (Xb, Yb, Db) = a, b
        midpoint = (Xa * Db + Xb * Da, Ya * Db + Yb * Da, 2 * Da * Db)
        witnesses.append(("edge", (point_of[a], point_of[b]), midpoint))
    for h in order:
        witnesses.append(("vertex", (point_of[h],), h))

    lines = (
        *ties,
        (x0.denominator, 0, x0.numerator),
        (x1.denominator, 0, x1.numerator),
        (0, y0.denominator, y0.numerator),
        (0, y1.denominator, y1.numerator),
    )
    cells: list[Cell] = []
    index: dict[SignVector, Cell] = {}
    for kind, polygon, (X, Y, D) in witnesses:
        attaining, ghost = _evaluate(system, (X, Y), D)
        w = polygon[0] if kind == "vertex" else (Fraction(X, D), Fraction(Y, D))
        cell = Cell(
            kind,
            polygon,
            w,
            GHOST_REGION if ghost else TANGIBLE_REGION,
            attaining,
        )
        cells.append(cell)
        index[_signs(lines, (X, Y, D))] = cell
    if len(index) != len(cells):
        raise AssertionError("two cells share a sign vector")
    return LocusComplex(polys, box, tuple(cells), lines, index)


def locate(L: LocusComplex, x: Fraction, y: Fraction) -> Cell:
    """Cell of the arrangement containing the point; exact.  Coordinates
    may be anything Fraction accepts, as in z_member."""
    x, y = Fraction(x), Fraction(y)
    (x0, x1), (y0, y1) = L.box
    if not (x0 <= x <= x1 and y0 <= y <= y1):
        raise PreconditionError("point outside the box")
    cell = L.index.get(_signs(L.lines, _homogeneous(x, y)))
    if cell is None:
        raise AssertionError("point not located")
    return cell


# -- serialization -----------------------------------------------------
#
# Both writers format each distinct point once per call, keyed by the
# identity of the point tuple: the cells share the tuples of one build,
# and the complex keeps them alive while the writer runs.


def _json_list(items: Sequence[str], indent: str) -> str:
    """A JSON array of already formatted items, laid out as
    json.dumps(..., indent=2) lays it out when its closing bracket
    stands at the given indent."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def to_json(L: LocusComplex) -> str:
    """The box and every cell's kind, label, polygon and attaining sets,
    byte-identical to json.dumps(obj, sort_keys=True, indent=2) of that
    object, written directly (indent forces the stdlib's pure-Python
    encoder)."""
    points: dict[int, str] = {}
    exponents: dict[Exponent, str] = {}
    cells = []
    for c in L.cells:
        polygon = []
        for p in c.polygon:
            text = points.get(id(p))
            if text is None:
                x, y = format_number(p[0]), format_number(p[1])
                text = points[id(p)] = _json_list((f'"{x}"', f'"{y}"'), " " * 8)
            polygon.append(text)
        attaining = []
        for per_poly in c.attaining:
            exps = []
            for e in per_poly:
                text = exponents.get(e)
                if text is None:
                    text = exponents[e] = _json_list([*map(format_number, e)], " " * 10)
                exps.append(text)
            attaining.append(_json_list(exps, " " * 8))
        cells.append(
            '{\n      "attaining": ' + _json_list(attaining, " " * 6)
            + f',\n      "kind": "{c.kind}",\n      "label": "{c.label}"'
            + ',\n      "polygon": ' + _json_list(polygon, " " * 6)
            + "\n    }"
        )
    box = [_json_list([f'"{format_number(v)}"' for v in b], " " * 4) for b in L.box]
    return (
        '{\n  "box": ' + _json_list(box, "  ")
        + ',\n  "cells": ' + _json_list(cells, "  ")
        + "\n}"
    )


def render_svg(L: LocusComplex, size: int = 600) -> bytes:
    """Deterministic standalone SVG document.

    Ghost cells are drawn dark over a light background, with a unit
    (or coarser) coordinate grid and the two axes for orientation.
    """
    (x0, x1), (y0, y1) = L.box
    margin = 20
    span = max(x1 - x0, y1 - y0)
    # The pixel of v = n/d is margin + (v - x0) * (size - 2*margin) / span
    # across and margin + (y1 - v) * (size - 2*margin) / span down, that
    # is (ax*n + bx*d) / (cx*d) and (ay*n + by*d) / (cy*d) in integers.
    # int / int is the correctly rounded float of the fraction, reduced
    # or not, so every ":.2f" string is the one Fraction arithmetic gives.
    w = (size - 2 * margin) * span.denominator
    s = span.numerator
    ax = x0.denominator * w
    bx = margin * s * x0.denominator - x0.numerator * w
    cx = s * x0.denominator
    ay = -y1.denominator * w
    by = margin * s * y1.denominator + y1.numerator * w
    cy = s * y1.denominator

    def sx(v: Fraction) -> str:
        n, d = v.numerator, v.denominator
        return f"{(ax * n + bx * d) / (cx * d):.2f}"

    def sy(v: Fraction) -> str:
        n, d = v.numerator, v.denominator
        return f"{(ay * n + by * d) / (cy * d):.2f}"

    pixels: dict[int, tuple[str, str]] = {}

    def pixel(p: Point) -> tuple[str, str]:
        xy = pixels.get(id(p))
        if xy is None:
            xy = pixels[id(p)] = (sx(p[0]), sy(p[1]))
        return xy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    for c in L.cells:
        if c.kind != "face":
            continue
        pts = " ".join(",".join(pixel(p)) for p in c.polygon)
        fill = "#b9b9b9" if c.label == GHOST_REGION else "#ffffff"
        parts.append(f'<polygon points="{pts}" fill="{fill}" stroke="none"/>')

    def x_line(v: Fraction, style: str) -> None:
        parts.append(
            f'<line x1="{sx(v)}" y1="{sy(y0)}" x2="{sx(v)}" y2="{sy(y1)}" {style}/>'
        )

    def y_line(v: Fraction, style: str) -> None:
        parts.append(
            f'<line x1="{sx(x0)}" y1="{sy(v)}" x2="{sx(x1)}" y2="{sy(v)}" {style}/>'
        )

    # coordinate grid at integer multiples of a step coarse enough to
    # stay readable, then the axes where they cross the box
    step = (span + 15) // 16 if span > 16 else Fraction(1)
    grid = 'stroke="#e4e4e4" stroke-width="0.5"'
    for k in range(ceil(x0 / step), floor(x1 / step) + 1):
        x_line(k * step, grid)
    for k in range(ceil(y0 / step), floor(y1 / step) + 1):
        y_line(k * step, grid)
    axis = 'stroke="#8899aa" stroke-width="1.5"'
    if x0 <= 0 <= x1:
        x_line(Fraction(0), axis)
    if y0 <= 0 <= y1:
        y_line(Fraction(0), axis)

    for c in L.cells:
        if c.kind != "edge":
            continue
        (ua, va), (ub, vb) = map(pixel, c.polygon)
        if c.label == GHOST_REGION:
            style = 'stroke="#222222" stroke-width="3"'
        else:
            style = 'stroke="#d0d0d0" stroke-width="1"'
        parts.append(f'<line x1="{ua}" y1="{va}" x2="{ub}" y2="{vb}" {style}/>')
    for c in L.cells:
        if c.kind != "vertex":
            continue
        px, py = pixel(c.polygon[0])
        if c.label == GHOST_REGION:
            style = 'r="4" fill="#111111"'
        else:
            style = 'r="2.5" fill="#ffffff" stroke="#999999"'
        parts.append(f'<circle cx="{px}" cy="{py}" {style}/>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
