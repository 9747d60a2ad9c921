"""Slow, independent planar-locus oracles shared by the test modules.

The cell build clips Fraction polygons, running both clips and three
area sums for every face and tie line; labels come from p_eval over
NuElements; point location scans the vertices, then the edges, then
the faces with Fraction cross products.  It shares no geometry or
evaluation code with supertrop.locus, only the Cell and LocusComplex
types, so the library's integer build, its evaluator and its
sign-vector lookup can be checked against it.

The writers serialize through json.dumps and draw with Fraction
pixel arithmetic, so the library's direct JSON writer and its integer
SVG coordinates can be compared with them byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from supertrop.core import Layer, rat_t
from supertrop.errors import PreconditionError
from supertrop.locus import (
    GHOST_REGION,
    TANGIBLE_REGION,
    Box,
    Cell,
    LocusComplex,
    Point,
    default_box,
)
from supertrop.poly import Exponent, TropPoly, p_eval

Line = tuple[int, int, int]  # A*x + B*y = C, primitive, sign-normalized


def _tie_lines(polys: Sequence[TropPoly]) -> list[Line]:
    lines: set[Line] = set()
    for f in polys:
        terms = list(f.terms)
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                (e1, c1), (e2, c2) = terms[i], terms[j]
                a = e1[0] - e2[0]
                b = e1[1] - e2[1]
                c = c2.value - c1.value
                den = c.denominator
                ai, bi, ci = a * den, b * den, c.numerator
                g = gcd(gcd(abs(ai), abs(bi)), abs(ci))
                if g:
                    ai, bi, ci = ai // g, bi // g, ci // g
                if ai < 0 or (ai == 0 and bi < 0):
                    ai, bi, ci = -ai, -bi, -ci
                lines.add((ai, bi, ci))
    return sorted(lines)


def _side(line: Line, p: Point) -> Fraction:
    a, b, c = line
    return a * p[0] + b * p[1] - c


def _clip(pts: Sequence[Point], line: Line, keep_nonneg: bool) -> list[Point]:
    out: list[Point] = []
    n = len(pts)
    for i in range(n):
        cur, nxt = pts[i], pts[(i + 1) % n]
        s0, s1 = _side(line, cur), _side(line, nxt)
        keep = s0 >= 0 if keep_nonneg else s0 <= 0
        if keep:
            out.append(cur)
        if (s0 > 0 > s1) or (s0 < 0 < s1):
            t = s0 / (s0 - s1)
            out.append(
                (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            )
    dedup: list[Point] = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if dedup and len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _area2(pts: Sequence[Point]) -> Fraction:
    total = Fraction(0)
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


def _drop_collinear(pts: list[Point]) -> list[Point]:
    changed = True
    while changed and len(pts) > 3:
        changed = False
        for i in range(len(pts)):
            a = pts[i - 1]
            b = pts[i]
            c = pts[(i + 1) % len(pts)]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross == 0:
                pts.pop(i)
                changed = True
                break
    return pts


def _split(pts: list[Point], line: Line) -> list[list[Point]]:
    pieces = []
    for keep_nonneg in (True, False):
        piece = _clip(pts, line, keep_nonneg)
        if len(piece) >= 3 and _area2(piece) > 0:
            pieces.append(piece)
    # a line missing the interior leaves the polygon whole; both clips
    # returning it would duplicate, so fall back to the original
    if not pieces:
        return [pts]
    if len(pieces) == 2 and _area2(pieces[0]) + _area2(pieces[1]) != _area2(pts):
        raise AssertionError("split lost area")
    if len(pieces) == 1 and _area2(pieces[0]) != _area2(pts):
        raise AssertionError("clip lost area")
    return pieces


def _attaining(f: TropPoly, w: Point) -> tuple[Exponent, ...]:
    if f.is_zero:
        return ()
    levels = [
        (c.value + e[0] * w[0] + e[1] * w[1], e) for e, c in f.terms
    ]
    top = max(v for v, _ in levels)
    return tuple(e for v, e in levels if v == top)


def z_member(polys: Sequence[TropPoly], point: Sequence[Fraction]) -> bool:
    """Whether a tangible point lies in the common ghost locus.

    Membership asks every polynomial of the system to evaluate to a
    non-tangible element there; the empty system has the whole space
    as its locus.  Works in any number of variables.
    """
    pt = tuple(rat_t(Fraction(x)) for x in point)
    for f in polys:
        if f.nvars != len(pt):
            raise PreconditionError("point arity does not match the system")
    return all(p_eval(f, pt).layer is not Layer.TANGIBLE for f in polys)


def _label(polys: Sequence[TropPoly], w: Point) -> str:
    return GHOST_REGION if z_member(polys, w) else TANGIBLE_REGION


def _centroid(pts: Sequence[Point]) -> Point:
    n = len(pts)
    return (
        sum(p[0] for p in pts) / n,
        sum(p[1] for p in pts) / n,
    )


def locus2d(polys: Sequence[TropPoly], box: Optional[Box] = None) -> LocusComplex:
    """Cut the box along every tie line and label every cell.

    The box must be a nondegenerate axis-aligned rectangle; the cell
    list holds faces, then edges, then vertices, each sorted by their
    point data.
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

    faces: list[list[Point]] = [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]]
    for line in _tie_lines(polys):
        faces = [piece for pts in faces for piece in _split(pts, line)]
    faces = [_drop_collinear(pts) for pts in faces]

    edge_set: set[tuple[Point, Point]] = set()
    vertex_set: set[Point] = set()
    for pts in faces:
        for i, p in enumerate(pts):
            vertex_set.add(p)
            q = pts[(i + 1) % len(pts)]
            edge_set.add((p, q) if p <= q else (q, p))

    cells: list[Cell] = []
    for pts in sorted(faces):
        w = _centroid(pts)
        cells.append(
            Cell(
                "face",
                tuple(pts),
                w,
                _label(polys, w),
                tuple(_attaining(f, w) for f in polys),
            )
        )
    for a, b in sorted(edge_set):
        w = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        cells.append(
            Cell(
                "edge",
                (a, b),
                w,
                _label(polys, w),
                tuple(_attaining(f, w) for f in polys),
            )
        )
    for p in sorted(vertex_set):
        cells.append(
            Cell(
                "vertex",
                (p,),
                p,
                _label(polys, p),
                tuple(_attaining(f, p) for f in polys),
            )
        )
    return LocusComplex(polys, box, tuple(cells))


def _between(a: Point, b: Point, p: Point) -> bool:
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    if cross != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def locate(L: LocusComplex, x: Fraction, y: Fraction) -> Cell:
    """Cell of the arrangement containing the point; exact."""
    (x0, x1), (y0, y1) = L.box
    if not (x0 <= x <= x1 and y0 <= y <= y1):
        raise PreconditionError("point outside the box")
    p = (x, y)
    for cell in L.cells:
        if cell.kind == "vertex" and cell.polygon[0] == p:
            return cell
    for cell in L.cells:
        if cell.kind == "edge" and _between(cell.polygon[0], cell.polygon[1], p):
            return cell
    for cell in L.cells:
        if cell.kind != "face":
            continue
        pts = cell.polygon
        inside = True
        for i, a in enumerate(pts):
            b = pts[(i + 1) % len(pts)]
            cross = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
            if cross < 0:
                inside = False
                break
        if inside:
            return cell
    raise AssertionError("point not located")


# -- serialization -----------------------------------------------------


def _point_json(p: Point) -> list[str]:
    return [str(p[0]), str(p[1])]


def to_json(L: LocusComplex) -> str:
    obj = {
        "box": [
            [str(L.box[0][0]), str(L.box[0][1])],
            [str(L.box[1][0]), str(L.box[1][1])],
        ],
        "cells": [
            {
                "kind": c.kind,
                "label": c.label,
                "polygon": [_point_json(p) for p in c.polygon],
                "attaining": [
                    [list(e) for e in per_poly] for per_poly in c.attaining
                ],
            }
            for c in L.cells
        ],
    }
    return json.dumps(obj, sort_keys=True, indent=2)


def render_svg(L: LocusComplex, size: int = 600) -> bytes:
    """Deterministic standalone SVG document.

    Ghost cells are drawn dark over a light background, with a unit
    (or coarser) coordinate grid and the two axes for orientation.
    """
    (x0, x1), (y0, y1) = L.box
    margin = 20
    span = max(x1 - x0, y1 - y0)
    scale = Fraction(size - 2 * margin) / span

    def sx(v: Fraction) -> str:
        return f"{float(margin + (v - x0) * scale):.2f}"

    def sy(v: Fraction) -> str:
        return f"{float(margin + (y1 - v) * scale):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    for c in L.cells:
        if c.kind != "face":
            continue
        pts = " ".join(f"{sx(p[0])},{sy(p[1])}" for p in c.polygon)
        fill = "#b9b9b9" if c.label == GHOST_REGION else "#ffffff"
        parts.append(f'<polygon points="{pts}" fill="{fill}" stroke="none"/>')

    # coordinate grid at integer multiples of a step coarse enough to
    # stay readable, then the axes where they cross the box
    step = (span + 15) // 16 if span > 16 else Fraction(1)
    k = -(-x0 // step)  # ceil
    while k * step <= x1:
        v = k * step
        parts.append(
            f'<line x1="{sx(v)}" y1="{sy(y0)}" x2="{sx(v)}" y2="{sy(y1)}" '
            f'stroke="#e4e4e4" stroke-width="0.5"/>'
        )
        k += 1
    k = -(-y0 // step)
    while k * step <= y1:
        v = k * step
        parts.append(
            f'<line x1="{sx(x0)}" y1="{sy(v)}" x2="{sx(x1)}" y2="{sy(v)}" '
            f'stroke="#e4e4e4" stroke-width="0.5"/>'
        )
        k += 1
    if x0 <= 0 <= x1:
        z = Fraction(0)
        parts.append(
            f'<line x1="{sx(z)}" y1="{sy(y0)}" x2="{sx(z)}" y2="{sy(y1)}" '
            f'stroke="#8899aa" stroke-width="1.5"/>'
        )
    if y0 <= 0 <= y1:
        z = Fraction(0)
        parts.append(
            f'<line x1="{sx(x0)}" y1="{sy(z)}" x2="{sx(x1)}" y2="{sy(z)}" '
            f'stroke="#8899aa" stroke-width="1.5"/>'
        )

    for c in L.cells:
        if c.kind != "edge":
            continue
        (a, b) = c.polygon
        if c.label == GHOST_REGION:
            style = 'stroke="#222222" stroke-width="3"'
        else:
            style = 'stroke="#d0d0d0" stroke-width="1"'
        parts.append(
            f'<line x1="{sx(a[0])}" y1="{sy(a[1])}" '
            f'x2="{sx(b[0])}" y2="{sy(b[1])}" {style}/>'
        )
    for c in L.cells:
        if c.kind != "vertex":
            continue
        (p,) = c.polygon
        if c.label == GHOST_REGION:
            style = 'r="4" fill="#111111"'
        else:
            style = 'r="2.5" fill="#ffffff" stroke="#999999"'
        parts.append(f'<circle cx="{sx(p[0])}" cy="{sy(p[1])}" {style}/>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
