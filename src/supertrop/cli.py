"""Command-line front end for the toolkit.

Polynomial verbs (eval, canon, equal, factor, root, zlocus) work over
the rational supertropical semifield in logarithmic notation, where 0
is the multiplicative unit and -inf the additive one; the notation is
fixed and not configurable.  Carrier verbs (validate, congs, spec,
radical, quotient, localize, sections, stalk, nullcheck, krullcheck)
act on a finite carrier selected by --semiring, which accepts a
builtin name (superboolean, str-chain:N, str-trunc:N, random:SEED, or
a bundled-suite name), a path to a JSON table file, or an inline JSON
literal; --seed N is shorthand for the seeded random carrier.

Every command is deterministic: identical inputs produce byte-identical
output (JSON is emitted with sorted keys, SVG carries no timestamps).
Errors are reported on stderr with distinct exit codes: 2 for parse
errors, 3 for violated preconditions, 4 for enumeration bounds.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from . import congr, locus, poly, spectra
from .core import RATIONAL, format_element, parse_element
from .errors import BoundError, ParseError, PreconditionError

Payload = Union[str, bytes]


def _json_text(text: str, what: str) -> str:
    """An inline JSON literal as it is, or else the text of the file it names."""
    if text.lstrip().startswith("{"):
        return text
    try:
        return Path(text).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {text!r}: {exc}") from None


def _load_semiring(args: argparse.Namespace) -> congr.FiniteNuSemiring:
    """Carrier from --seed, an inline JSON literal, a file, or a builtin name."""
    if getattr(args, "seed", None) is not None:
        return congr.random_semiring(args.seed)
    text = args.semiring
    path = Path(text)
    if text.lstrip().startswith("{") or path.suffix == ".json" or path.exists():
        return congr.semiring_from_json(_json_text(text, "carrier"))
    return congr.builtin_semiring(text)


def _load_congruence(
    R: congr.FiniteNuSemiring, text: str
) -> congr.Congruence:
    return congr.cong_from_json(R, _json_text(text, "congruence"))


def _element_list(R: congr.FiniteNuSemiring, text: str) -> list[int]:
    return [R.index(s.strip()) for s in text.split(",") if s.strip()]


def _parse_box(text: str) -> locus.Box:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 4:
        raise ParseError(
            f"box needs four comma-separated rationals xmin,xmax,ymin,ymax, got {text!r}"
        )
    try:
        x0, x1, y0, y1 = (Fraction(s) for s in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad box coordinate: {exc}") from None
    if x0 >= x1 or y0 >= y1:
        raise PreconditionError(f"box {text!r} has empty interior")
    return ((x0, x1), (y0, y1))


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _cmd_eval(args: argparse.Namespace) -> Payload:
    f = poly.parse_poly(args.poly)
    literals = [s.strip() for s in args.point.split(",") if s.strip()]
    try:
        point = tuple(parse_element(s) for s in literals)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if any(x.monoid is not RATIONAL for x in point):
        raise ParseError("eval expects rational coordinates like 3, -1/2v, -inf")
    if len(point) != f.nvars:
        raise PreconditionError(
            f"polynomial has {f.nvars} variable(s), point has {len(point)}"
        )
    return format_element(poly.p_eval(f, point))


def _cmd_canon(args: argparse.Namespace) -> Payload:
    f = poly.parse_poly(args.poly)
    return poly.format_poly(poly.canonicalize(f).poly)


def _cmd_equal(args: argparse.Namespace) -> Payload:
    f = poly.parse_poly(args.left)
    g = poly.parse_poly(args.right)
    n = max(f.nvars, g.nvars)
    if f.nvars != n:
        f = poly.parse_poly(args.left, nvars=n)
    if g.nvars != n:
        g = poly.parse_poly(args.right, nvars=n)
    return "true" if poly.func_equal(f, g) else "false"


def _cmd_factor(args: argparse.Namespace) -> Payload:
    fac = poly.factor_univariate(poly.parse_poly(args.poly))
    if args.format == "json":
        obj = {
            "unit": format_element(fac.unit),
            "factors": [
                {"base": poly.format_poly(base), "mult": mult}
                for base, mult in fac.factors
            ],
        }
        return _dumps(obj)
    parts = [format_element(fac.unit)]
    for base, mult in fac.factors:
        text = f"({poly.format_poly(base)})"
        parts.append(text + (f"^{mult}" if mult > 1 else ""))
    return " * ".join(parts)


def _cmd_root(args: argparse.Namespace) -> Payload:
    r = poly.tangible_root(poly.parse_poly(args.poly))
    return "none" if r is None else str(r)


def _cmd_zlocus(args: argparse.Namespace) -> Payload:
    polys = [poly.parse_poly(text, nvars=2) for text in args.polys]
    box = _parse_box(args.box) if args.box is not None else None
    L = locus.locus2d(polys, box)
    if args.format == "svg":
        return locus.render_svg(L)
    if args.format == "json":
        return locus.to_json(L)
    ghost_faces = sum(1 for c in L.faces() if c.label == "GhostRegion")
    lines = [
        f"polynomials: {len(L.polys)}",
        f"box: x in [{L.box[0][0]}, {L.box[0][1]}], y in [{L.box[1][0]}, {L.box[1][1]}]",
        f"vertices: {len(L.vertices())}",
        f"edges: {len(L.edges())}",
        f"faces: {len(L.faces())} ({ghost_faces} ghost)",
    ]
    return "\n".join(lines)


def _cmd_validate(args: argparse.Namespace) -> Payload:
    report = congr.validate(_load_semiring(args))
    obj = {
        "passed": report.passed,
        "checked": list(report.checked),
        "failures": [
            {"check": name, "witness": witness}
            for name, witness in report.failures
        ],
    }
    return _dumps(obj)


def _cmd_congs(args: argparse.Namespace) -> Payload:
    R = _load_semiring(args)
    congs = congr.enumerate_congruences(R, args.bound)
    S = spectra.spec(R, args.bound)
    items = []
    for theta in congs:
        flags = S.flags_of(theta)
        if args.kind is None or args.kind in flags:
            items.append({"classes": congr.class_names(theta), "flags": sorted(flags)})
    return _dumps({"count": len(items), "congruences": items})


def _cmd_spec(args: argparse.Namespace) -> Payload:
    S = spectra.spec(_load_semiring(args), args.bound)
    return spectra.spectrum_to_json(S)


def _cmd_radical(args: argparse.Namespace) -> Payload:
    R = _load_semiring(args)
    if args.elements is not None:
        result = congr.srad(R, _element_list(R, args.elements))
    else:
        theta = _load_congruence(R, args.congruence)
        result = congr.crad(R, theta)
    if result is None:
        return _dumps({"classes": None})
    return congr.cong_to_json(result)


def _carrier_and_map(
    R: congr.FiniteNuSemiring, out: congr.FiniteNuSemiring, f: Sequence[int]
) -> Payload:
    """A constructed carrier and the map from R onto it, by names."""
    names = {R.names[i]: out.names[f[i]] for i in range(R.size)}
    return _dumps({"carrier": congr.carrier_obj(out), "map": names})


def _cmd_quotient(args: argparse.Namespace) -> Payload:
    R = _load_semiring(args)
    theta = _load_congruence(R, args.congruence)
    return _carrier_and_map(R, *congr.quotient(R, theta))


def _cmd_localize(args: argparse.Namespace) -> Payload:
    R = _load_semiring(args)
    C = sorted(set(_element_list(R, args.monoid)))
    if not C:
        raise ParseError("localize needs at least one monoid element")
    return _carrier_and_map(R, *congr.localize_finite(R, C))


def _cmd_sections(args: argparse.Namespace) -> Payload:
    R = _load_semiring(args)
    S = spectra.spec(R, args.bound)
    f = R.index(args.element)
    return congr.to_json(spectra.sections(S, f))


def _cmd_stalk(args: argparse.Namespace) -> Payload:
    R = _load_semiring(args)
    S = spectra.spec(R, args.bound)
    return congr.to_json(spectra.stalk(S, args.point))


def _cmd_nullcheck(args: argparse.Namespace) -> Payload:
    R = _load_semiring(args)
    if args.congruence is not None:
        theta = _load_congruence(R, args.congruence)
        return spectra.nullstellensatz_check(R, theta, args.bound).to_json()
    reports = [
        spectra.nullstellensatz_check(R, theta, args.bound)
        for theta in congr.enumerate_congruences(R, args.bound, congr.FLAG_Q)
    ]
    obj = {
        "name": "nullstellensatz",
        "passed": all(r.passed for r in reports),
        "congruences": len(reports),
        "checked": sum(r.checked for r in reports),
        "failures": [w for r in reports for w in r.failures],
    }
    return _dumps(obj)


def _cmd_krullcheck(args: argparse.Namespace) -> Payload:
    return spectra.krull_check(_load_semiring(args), args.bound).to_json()


def _build_parser() -> argparse.ArgumentParser:
    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument(
        "--out", metavar="FILE", help="write the result to FILE instead of stdout"
    )

    ring_flags = argparse.ArgumentParser(add_help=False)
    group = ring_flags.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--semiring",
        metavar="SPEC",
        help="builtin carrier name, JSON file path, or inline JSON literal",
    )
    group.add_argument(
        "--seed",
        type=int,
        metavar="N",
        help="use the seeded random carrier (same as --semiring random:N)",
    )
    ring_flags.add_argument(
        "--bound",
        type=int,
        default=congr.DEFAULT_BOUND,
        metavar="N",
        help=f"carrier-size cap for enumeration (default {congr.DEFAULT_BOUND})",
    )

    parser = argparse.ArgumentParser(
        prog="supertrop",
        description="Exact supertropical algebra: polynomials, ghost loci, "
        "congruences, and nu-prime spectra of finite carriers.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    p = sub.add_parser(
        "eval", parents=[out_flags], help="evaluate a polynomial at a point"
    )
    p.add_argument("poly", help="polynomial, e.g. \"x^2 + 0*x + 1\"")
    p.add_argument(
        "point",
        nargs="?",
        default="",
        help="comma-separated coordinates, e.g. \"3,-1/2v\"",
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "canon", parents=[out_flags], help="canonical form of a polynomial"
    )
    p.add_argument("poly")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser(
        "equal",
        parents=[out_flags],
        help="decide whether two polynomials define the same function",
    )
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser(
        "factor", parents=[out_flags], help="factor a univariate polynomial"
    )
    p.add_argument("poly")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser(
        "root",
        parents=[out_flags],
        help="a tangible point of the ghost locus of a univariate polynomial",
    )
    p.add_argument("poly")
    p.set_defaults(func=_cmd_root)

    p = sub.add_parser(
        "zlocus",
        parents=[out_flags],
        help="planar ghost-locus cell complex of bivariate polynomials",
    )
    p.add_argument("polys", nargs="+", metavar="poly")
    p.add_argument(
        "--box", metavar="X0,X1,Y0,Y1", help="clip window (rational corners)"
    )
    p.add_argument("--format", choices=("json", "svg", "text"), default="json")
    p.set_defaults(func=_cmd_zlocus)

    p = sub.add_parser(
        "validate",
        parents=[out_flags, ring_flags],
        help="run the carrier axiom battery",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "congs",
        parents=[out_flags, ring_flags],
        help="enumerate congruences with classifier flags",
    )
    p.add_argument(
        "--kind",
        choices=congr.FLAGS,
        help="keep only congruences carrying this flag",
    )
    p.set_defaults(func=_cmd_congs)

    p = sub.add_parser(
        "spec",
        parents=[out_flags, ring_flags],
        help="nu-prime spectrum with its inclusion order",
    )
    p.set_defaults(func=_cmd_spec)

    p = sub.add_parser(
        "radical",
        parents=[out_flags, ring_flags],
        help="radical of an element set (srad) or of a congruence (crad)",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--elements", metavar="A,B,...", help="comma-separated element names"
    )
    group.add_argument(
        "--congruence", metavar="SPEC", help="congruence JSON file or literal"
    )
    p.set_defaults(func=_cmd_radical)

    p = sub.add_parser(
        "quotient",
        parents=[out_flags, ring_flags],
        help="quotient carrier by a q-congruence, with the projection map",
    )
    p.add_argument(
        "--congruence",
        required=True,
        metavar="SPEC",
        help="congruence JSON file or literal",
    )
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser(
        "localize",
        parents=[out_flags, ring_flags],
        help="localization at a prudent tangible monoid, with a -> a/1",
    )
    p.add_argument(
        "--monoid",
        required=True,
        metavar="A,B,...",
        help="comma-separated element names generating the denominators",
    )
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser(
        "sections",
        parents=[out_flags, ring_flags],
        help="carrier of structure-sheaf sections over the basic open D(f)",
    )
    p.add_argument("--element", required=True, metavar="F", help="element name f")
    p.set_defaults(func=_cmd_sections)

    p = sub.add_parser(
        "stalk",
        parents=[out_flags, ring_flags],
        help="stalk of the structure sheaf at a spectrum point",
    )
    p.add_argument(
        "--point", required=True, type=int, metavar="I", help="point index"
    )
    p.set_defaults(func=_cmd_stalk)

    p = sub.add_parser(
        "nullcheck",
        parents=[out_flags, ring_flags],
        help="ghost-residue radical identity over one or all q-congruences",
    )
    p.add_argument(
        "--congruence", metavar="SPEC", help="congruence JSON file or literal"
    )
    p.set_defaults(func=_cmd_nullcheck)

    p = sub.add_parser(
        "krullcheck",
        parents=[out_flags, ring_flags],
        help="ghostpotents against the intersection of all nu-primes",
    )
    p.set_defaults(func=_cmd_krullcheck)

    return parser


def _emit(payload: Payload, out: Optional[str]) -> None:
    if out is not None:
        try:
            if isinstance(payload, bytes):
                Path(out).write_bytes(payload)
            else:
                text = payload if payload.endswith("\n") else payload + "\n"
                Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot write output file {out!r}: {exc}") from None
        return
    if isinstance(payload, bytes):
        sys.stdout.buffer.write(payload)
        sys.stdout.flush()
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _emit(args.func(args), args.out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except BoundError as exc:
        print(f"enumeration bound exceeded: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
