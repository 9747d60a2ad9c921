"""Command-line front end: verbs, exit codes, stable bytes, round-trips."""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supertrop import congr
from supertrop.cli import main
from supertrop.congr import (
    MAX_CHAIN,
    bundled_suite,
    builtin_semiring,
    class_names,
    cong_from_json,
    enumerate_congruences,
    flat_idempotent,
    mixed_units,
    semiring_from_json,
    str_chain,
    str_trunc,
    superboolean,
    to_json,
)
from supertrop.poly import (
    canonicalize,
    format_poly,
    MAX_VARIABLES,
    make_poly,
    parse_poly,
)
from supertrop.core import rat_g, rat_t
from supertrop.errors import ParseError
from supertrop.locus import MAX_TIE_LINES


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def renamed(obj, old, new):
    """A JSON value with the string old replaced by new everywhere, keys
    included."""
    if isinstance(obj, dict):
        return {renamed(k, old, new): renamed(v, old, new) for k, v in obj.items()}
    if isinstance(obj, list):
        return [renamed(x, old, new) for x in obj]
    return new if obj == old else obj


def rand_poly_text(rng: random.Random, nvars: int) -> str:
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        while True:
            exp = tuple(rng.randint(0, 6) for _ in range(nvars))
            if sum(exp) <= 6:
                break
        v = Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3]))
        coeffs[exp] = rat_g(v) if rng.random() < 0.3 else rat_t(v)
    f = canonicalize(make_poly(nvars, coeffs)).poly
    return format_poly(f)


# -- golden commands ---------------------------------------------------


def test_canon_golden(capsys):
    code, out, err = run(capsys, "canon", "x^2 + 0*x + 1")
    assert (code, out, err) == (0, "x^2 + 1\n", "")


def test_equal_golden(capsys):
    code, out, _ = run(
        capsys, "equal", "(x+y+0)*(x+y+x*y)", "(x+0)*(y+0)*(x+y)"
    )
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "equal", "x + 0", "x + 1")
    assert (code, out) == (0, "false\n")


def test_equal_pads_variable_counts(capsys):
    code, out, _ = run(capsys, "equal", "x + y", "y + x")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "equal", "x", "x + y")
    assert (code, out) == (0, "false\n")


def test_spec_superboolean_has_one_point(capsys):
    code, out, _ = run(capsys, "spec", "--semiring", "superboolean")
    assert code == 0
    assert json.loads(out) == {
        "hasse": [],
        "points": [
            {
                "classes": [["b0"], ["b1"], ["b1v"]],
                "flags": [
                    "Determined",
                    "LCong",
                    "MaximalL",
                    "NuPrime",
                    "QCong",
                    "Radical",
                    "TanglyMinimal",
                ],
                "iG": ["b0", "b1v"],
                "iT": ["b1"],
            }
        ],
    }


# -- polynomial verbs --------------------------------------------------


def test_eval(capsys):
    assert run(capsys, "eval", "x^2 + 0*x + 1", "3")[:2] == (0, "6\n")
    assert run(capsys, "eval", "x^2 + 0*x + 1", "1/2")[:2] == (0, "1v\n")
    assert run(capsys, "eval", "x*y + 0", "2,-2")[:2] == (0, "0v\n")
    assert run(capsys, "eval", "--", "x + 0", "-inf")[:2] == (0, "0\n")
    assert run(capsys, "eval", "--", "-inf", "5")[:2] == (0, "-inf\n")


def test_factor_text_and_json(capsys):
    code, out, _ = run(capsys, "factor", "x^2 + 0*x + 1")
    assert (code, out) == (0, "0 * (x + 1/2)^2\n")
    code, out, _ = run(capsys, "factor", "x^2 + 0*x + 1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "unit": "0",
        "factors": [{"base": "x + 1/2", "mult": 2}],
    }


def test_root(capsys):
    assert run(capsys, "root", "x^2 + 1v*x + 3")[:2] == (0, "3/2\n")
    assert run(capsys, "root", "0")[:2] == (0, "none\n")


def test_zlocus_text_summary(capsys):
    code, out, _ = run(
        capsys, "zlocus", "x + y + 0", "--box=-3,3,-3,3", "--format", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "polynomials: 1"
    assert lines[1] == "box: x in [-3, 3], y in [-3, 3]"


def test_zlocus_json_lists_cells(capsys):
    code, out, _ = run(capsys, "zlocus", "x + y + 0")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) >= {"box", "cells"}
    assert obj["cells"]


def test_zlocus_svg_to_file(capsys, tmp_path):
    target = tmp_path / "locus.svg"
    code, out, _ = run(
        capsys, "zlocus", "x + y + 0", "--format", "svg", "--out", str(target)
    )
    assert (code, out) == (0, "")
    data = target.read_bytes()
    assert data.startswith(b"<svg")
    assert data.rstrip().endswith(b"</svg>")


def test_zlocus_svg_stdout_is_binary(capsysbinary):
    code = main(["zlocus", "x + y + 0", "--format", "svg"])
    assert code == 0
    assert capsysbinary.readouterr().out.startswith(b"<svg")


# sha256 of the zlocus JSON and SVG output of the Fraction build kept in
# tests/locus_oracles.py, which the integer build must reproduce byte
# for byte: the README curve on its default box, the triangle system,
# and two polynomials on a box with fractional bounds
ZLOCUS_GOLDENS = [
    (
        ["x^2*y + x*y^2 + 2*x*y + 0"],
        "abd25d5d57f66868a5d9265768a0f3a3919d1a56d2bbd74562ad0c5bb5ed1545",
        "7cbb6824dfbc0b3afd1ba93818d0219faca0a06cc076bc99750e85a2f5fc547e",
    ),
    (
        ["x + 1v", "y + 1v", "-1v*x*y + 0", "--box=-5,5,-5,5"],
        "0b56348ce43e66e56c1b5b768d9c326eb432ea94bc80adcde806eea041d1674e",
        "e56c1492f664291ac38a2b019f84dc6a18ad704c1f7d55e8567236e578c2753d",
    ),
    (
        ["x^2 + 1/2*x*y + -1*y + 0", "x + -1/3*y + 1v",
         "--box=-7/2,5/3,-9/4,11/3"],
        "cc2b7851a043f0c9eb3138fe171a838a16e8209b7de971cb6d9f63cb7eb5b1ee",
        "465b1eba80f78eb0f3a6ed147d945193da2cbf9dd20f6f6b2d8adc93743afddd",
    ),
    (  # span above 16: the grid takes the coarse step
        ["x + y + 0", "--box=-20,20,-20,20"],
        "1320a8ec316b3c081d73ef5ee2e18b2d6e0126273399abc5134e294a81f4f7a8",
        "78abf54e65297e8c9ea0855239c3b1ebe908c80a7b442fd91c862eb79d57bf69",
    ),
    (  # the origin lies outside the box: no axes
        ["x + y + 0", "--box=1,3,2,5"],
        "c68c5e294ab26f12cadbb2f3dbfd9b697f246efa15b2d6e04fc2d74a96aaa5ea",
        "e740d6ff6f7be333a47d6ce45cff8a633bf40818df5ab4e08a68586c3068750e",
    ),
    (  # a wide, fractional, non-square box
        ["x^2 + 1/2*x*y + y^2 + 3", "--box=-101/3,57/2,-40,17/7"],
        "566a41d4fc6858311bbe46f2159ed75daa332d18ecc0fd994aad0b1ceb399940",
        "610c2a188955dafb008160d5861178359d0d5644085b457a227acbabff23c1af",
    ),
]


@pytest.mark.parametrize("args,json_sha,svg_sha", ZLOCUS_GOLDENS)
def test_zlocus_golden_digests(capsysbinary, args, json_sha, svg_sha):
    for fmt, digest in (("json", json_sha), ("svg", svg_sha)):
        assert main(["zlocus", *args, "--format", fmt]) == 0
        out = capsysbinary.readouterr().out
        assert hashlib.sha256(out).hexdigest() == digest, fmt


def test_zlocus_tie_line_budget_exits_4(capsys):
    # t terms whose t(t-1)/2 tie lines are pairwise distinct
    t = 2
    while t * (t - 1) // 2 <= MAX_TIE_LINES:
        t += 1
    text = " + ".join(f"{i ** 3}*x^{i}*y^{i * i}" for i in range(t))
    code, out, err = run(capsys, "zlocus", text, "--box=-1000,1000,-1000,1000")
    assert (code, out) == (4, "")
    assert len(err.splitlines()) == 1
    assert "MAX_TIE_LINES" in err


# -- carrier verbs -----------------------------------------------------


def test_validate_passes_builtin(capsys):
    code, out, _ = run(capsys, "validate", "--semiring", "superboolean")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["failures"] == []
    assert "add-commutative" in obj["checked"]


def test_validate_reports_broken_table(capsys):
    obj = json.loads(to_json(superboolean()))
    obj["add"][1][2] = "b0"
    code, out, _ = run(capsys, "validate", "--semiring", json.dumps(obj))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is False
    assert any(f["check"] == "add-commutative" for f in report["failures"])


def test_congs_counts_and_kind_filter(capsys):
    R = superboolean()
    code, out, _ = run(capsys, "congs", "--semiring", "superboolean")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == len(enumerate_congruences(R, 7))
    assert obj["count"] == len(obj["congruences"])
    code, out, _ = run(
        capsys, "congs", "--semiring", "superboolean", "--kind", "NuPrime"
    )
    obj = json.loads(out)
    assert obj["count"] == 1
    assert all("NuPrime" in c["flags"] for c in obj["congruences"])


def test_congs_kind_filters_the_full_listing(capsys):
    carriers = [["--semiring", "str-chain:4", "--bound", "9"]]
    carriers += [["--semiring", name] for name, _ in bundled_suite()]
    for carrier in carriers:
        code, out, _ = run(capsys, "congs", *carrier)
        assert code == 0, carrier
        listing = json.loads(out)["congruences"]
        for kind in congr.FLAGS:
            kept = [c for c in listing if kind in c["flags"]]
            code, out, err = run(capsys, "congs", *carrier, "--kind", kind)
            assert (code, err) == (0, ""), (carrier, kind)
            assert json.loads(out) == {"count": len(kept), "congruences": kept}


def test_radical_of_elements(capsys):
    code, out, _ = run(
        capsys, "radical", "--semiring", "str-chain:2", "--elements", "a"
    )
    assert code == 0
    assert json.loads(out) == {
        "classes": [["0"], ["1"], ["1v"], ["a", "av"]]
    }


def test_radical_of_unit_is_empty(capsys):
    code, out, _ = run(
        capsys, "radical", "--semiring", "superboolean", "--elements", "b1"
    )
    assert code == 0
    assert json.loads(out) == {"classes": None}


def test_radical_of_congruence(capsys):
    theta = json.dumps(
        {"classes": [["0"], ["1"], ["1v"], ["a", "av"]]}
    )
    code, out, _ = run(
        capsys, "radical", "--semiring", "str-chain:2", "--congruence", theta
    )
    assert code == 0
    assert json.loads(out)["classes"] == [["0"], ["1"], ["1v"], ["a", "av"]]


def test_quotient_carrier_and_map(capsys):
    theta = json.dumps({"classes": [["0"], ["1"], ["1v"], ["a", "av"]]})
    code, out, _ = run(
        capsys, "quotient", "--semiring", "str-chain:2", "--congruence", theta
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["carrier"]["elements"] == ["0", "1", "1v", "a|av"]
    assert obj["map"] == {
        "0": "0", "1": "1", "1v": "1v", "a": "a|av", "av": "a|av"
    }


def test_localize_collapses_non_units(capsys):
    code, out, _ = run(
        capsys, "localize", "--semiring", "mixed-units", "--monoid", "1,t"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["carrier"]["elements"] == ["0", "1", "1v"]
    assert obj["map"]["t"] == "1"
    assert obj["map"]["u"] == "1"


def test_sections_over_unit_open_is_whole_carrier(capsys):
    code, out, _ = run(
        capsys, "sections", "--semiring", "superboolean", "--element", "b1"
    )
    assert code == 0
    assert json.loads(out)["elements"] == ["b0", "b1", "b1v"]


def test_stalk(capsys):
    code, out, _ = run(
        capsys, "stalk", "--semiring", "flat-idempotent", "--point", "1"
    )
    assert code == 0
    assert set(json.loads(out)["elements"]) == {"0", "1", "t", "1v"}


# sha256 of the stdout of the quotient, localize, sections and stalk
# verbs, produced by the pairwise localization kept in
# tests/congr_oracles.py, which the keyed fraction classes must
# reproduce byte for byte: the README examples, a str-chain:4 case of
# each verb, a localization with a collision class, and a stalk that
# inverts a non-unit; then congs and spec on str-chain:4, whose classes
# list their members in index order, not in name order; and the radical
# of an element of the 65-element str-chain:32, which no size bound caps
CARRIER_GOLDENS = [
    (
        ["quotient", "--semiring", "str-chain:2", "--congruence",
         '{"classes": [["0"], ["1"], ["1v"], ["a", "av"]]}'],
        "b213953d32b10d491b579269f3a345e9b41ab01c0981c0b4594dda9750005b10",
    ),
    (
        ["quotient", "--semiring", "str-chain:4", "--bound", "9",
         "--congruence",
         '{"classes": [["0"], ["1"], ["1v"], ["a", "av"], ["a2", "a2v"], '
         '["a3"], ["a3v"]]}'],
        "68f52ea4dfa71c1e5398efaa61d90961f335f7687f7ba07e483ffc63d7683e6c",
    ),
    (
        ["localize", "--semiring", "mixed-units", "--monoid", "1,t"],
        "f260ccc9db5041175f77ff12cba2221ca29057b8e208e8a54695761a5140766c",
    ),
    (
        ["localize", "--semiring", "str-chain:4", "--monoid", "1"],
        "5bb032b0037bde3a0257fdc086a7c40b5c1729d25644fb813a187733b83fd68d",
    ),
    (
        ["localize", "--semiring", "two-level-g", "--monoid", "1,t"],
        "502b1eb196021b49334fb9da112fd34161bb37dcf8691a5ab0efd62e42f0a9ac",
    ),
    (
        ["sections", "--semiring", "superboolean", "--element", "b1"],
        "92a20535194002e5302857c6736f97e212612dda28566d9b86d61c168fb1f523",
    ),
    (
        ["sections", "--semiring", "str-chain:4", "--bound", "9",
         "--element", "a2"],
        "f67c0b6ec3459291f4e0ff1b6497d0674be5251caac2400895ac8e67a7af58ef",
    ),
    (
        ["stalk", "--semiring", "flat-idempotent", "--point", "1"],
        "78f7968c44dae05a8cc8f71ca4334993ac67e73ab82224ea983b965da70a90ca",
    ),
    (
        ["stalk", "--semiring", "str-chain:4", "--bound", "9", "--point", "5"],
        "f67c0b6ec3459291f4e0ff1b6497d0674be5251caac2400895ac8e67a7af58ef",
    ),
    (
        ["stalk", "--semiring", "two-level-t", "--point", "2"],
        "7a0ea2483581ab6db8a9ca3fc267901af60c4c45fa0c5bbd63afe0690aa4b2b4",
    ),
    (
        ["congs", "--semiring", "str-chain:4", "--bound", "9"],
        "17fd087519cff7c4c564023ea754e38fbce902fa2de95f99ad1f75fd86935b30",
    ),
    (
        ["spec", "--semiring", "str-chain:4", "--bound", "9"],
        "f4ab43b80c6f40d39843bd8d0ae1e910e4b38b359b9ad4ab50a2f5a5ba979130",
    ),
    (
        ["radical", "--semiring", "str-chain:32", "--elements", "a"],
        "7934f3c600d9a6a5bf9643635f4c454f4c9c9b566b9483598c28977ac99065bb",
    ),
]


@pytest.mark.parametrize("argv,digest", CARRIER_GOLDENS)
def test_carrier_verb_golden_digests(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# a q-congruence of each carrier below, for radical and nullcheck
_THETAS = {
    "str-chain:3": '{"classes": [["0"], ["1"], ["1v"], ["a", "av"], ["a2", "a2v"]]}',
    "str-trunc:3": '{"classes": [["0"], ["1"], ["1v"], ["a"], ["av", "a2", "a2v"]]}',
    "two-level-t": '{"classes": [["0"], ["1"], ["t"], ["1v"], ["a", "av"]]}',
}

# sha256 of the stdout of every other JSON verb on two 7-element chains
# and a bundled carrier, so that a change to the lattice cache or to the
# spectrum functions keeps the bytes; the last three are a radical that
# prints {"classes": null} from each side and the JSON factorization
JSON_VERB_GOLDENS = [
    (["validate", "--semiring", "str-chain:3"],
     "292d60a093b6ae4b4d7a7bcecc385ad6a9c46d9fe475ea69c7140b141a511d55"),
    (["congs", "--semiring", "str-chain:3"],
     "692a57a48e54be03b8777ac6c824fdb202157aad5f5349db67bbe635d39dafed"),
    (["congs", "--semiring", "str-chain:3", "--kind", "NuPrime"],
     "0a9258ac322b0b0cce3a08df35d231322af9bc2a8820733f73d7c4ca1a78329e"),
    (["congs", "--semiring", "str-chain:3", "--kind", "MaximalL"],
     "fc9c7565c537f6ac21d164da16a1f5603f6a81bb806118358a5fb48ac5a91b55"),
    (["spec", "--semiring", "str-chain:3"],
     "2a7c3a2eff726df6bb517b007a4e5a69ee24cc387f3be65f789228fb22bf518a"),
    (["radical", "--semiring", "str-chain:3", "--elements", "a"],
     "d1cb1b86f089447ec82ebef6119779b264775ebb84a4adc331719625b11f180d"),
    (["radical", "--semiring", "str-chain:3", "--congruence", _THETAS["str-chain:3"]],
     "d1cb1b86f089447ec82ebef6119779b264775ebb84a4adc331719625b11f180d"),
    (["nullcheck", "--semiring", "str-chain:3"],
     "c48003a57bd574eac4b0512d342ab22fea8fd28bf407f4546276515698292498"),
    (["nullcheck", "--semiring", "str-chain:3", "--congruence", _THETAS["str-chain:3"]],
     "7f4c2700436db3631ce007b7d28b24775d5067e78e5ce6026ffda32ccd003a39"),
    (["krullcheck", "--semiring", "str-chain:3"],
     "0812bcf19fcfd58af21a127d2daaa42fe071d921f67839b25b291f57d889e66a"),
    (["sections", "--semiring", "str-chain:3", "--element", "a"],
     "2fcb42e146317d410455b3f1e7d70397fd0f45fff02d4b233b5cf72e1f3aff96"),
    (["validate", "--semiring", "str-trunc:3"],
     "292d60a093b6ae4b4d7a7bcecc385ad6a9c46d9fe475ea69c7140b141a511d55"),
    (["congs", "--semiring", "str-trunc:3"],
     "cb67128cec99d589438ee485da1010222d9d8433b6fdeb7df0a936ec425aa7b6"),
    (["congs", "--semiring", "str-trunc:3", "--kind", "NuPrime"],
     "4012b2898a897531d0e1eef04208a9ae9d4042e48ff275cf9e799755caea993f"),
    (["congs", "--semiring", "str-trunc:3", "--kind", "MaximalL"],
     "fc9c7565c537f6ac21d164da16a1f5603f6a81bb806118358a5fb48ac5a91b55"),
    (["spec", "--semiring", "str-trunc:3"],
     "f01ca1a4b10a419d8d3d71d3ae481b3a2732d3c91e7cfa1df47ce57a23b1349e"),
    (["radical", "--semiring", "str-trunc:3", "--elements", "a2"],
     "d1cb1b86f089447ec82ebef6119779b264775ebb84a4adc331719625b11f180d"),
    (["radical", "--semiring", "str-trunc:3", "--congruence", _THETAS["str-trunc:3"]],
     "60c541accbf83da8c0e72d7f231cabbe56314b60069138a823ade0d5399c11f3"),
    (["nullcheck", "--semiring", "str-trunc:3"],
     "ffdb5921172c0088d669f5fc20a5247cf636c019fc688e1e9caaef7259255538"),
    (["nullcheck", "--semiring", "str-trunc:3", "--congruence", _THETAS["str-trunc:3"]],
     "7f4c2700436db3631ce007b7d28b24775d5067e78e5ce6026ffda32ccd003a39"),
    (["krullcheck", "--semiring", "str-trunc:3"],
     "0812bcf19fcfd58af21a127d2daaa42fe071d921f67839b25b291f57d889e66a"),
    (["sections", "--semiring", "str-trunc:3", "--element", "a2"],
     "8675e738eab4e7d679c358b56e3cef35435c6aefa5ac66527551cf6bdb1ed771"),
    (["validate", "--semiring", "two-level-t"],
     "292d60a093b6ae4b4d7a7bcecc385ad6a9c46d9fe475ea69c7140b141a511d55"),
    (["congs", "--semiring", "two-level-t"],
     "ee9336de36e5a7c4c9cb298cb68187bd8cc91f85e979a365d81cbf0fae8a13ef"),
    (["congs", "--semiring", "two-level-t", "--kind", "NuPrime"],
     "9d6b0957714c091ce763905ee8f8420cd73dfca3b63912595ac53e2ff84cdaf7"),
    (["congs", "--semiring", "two-level-t", "--kind", "MaximalL"],
     "bf427cf204be6b2105941a57301d0a88893a9acb99712117fbda94049aa3dc30"),
    (["spec", "--semiring", "two-level-t"],
     "e386ce963e5032d47ae8f2bd755100ecf6734d361e7d932fe3a898cd52f600d0"),
    (["radical", "--semiring", "two-level-t", "--elements", "t"],
     "a95cbbafd5fd071c125a139383afeb32b0ffcc8c4fdc9fdeca3300424f4d9912"),
    (["radical", "--semiring", "two-level-t", "--congruence", _THETAS["two-level-t"]],
     "a822d002b9a4129c189223ff71986777b45a8acdac7c40a793400848eef22c9b"),
    (["nullcheck", "--semiring", "two-level-t"],
     "7823377b939c58bf013ccd12d1710237d44dd5957bce5a7a5835cc36f35ed76e"),
    (["nullcheck", "--semiring", "two-level-t", "--congruence", _THETAS["two-level-t"]],
     "7692d2e11740aea05b7b64baefda86d71d6a274d9113695ee952928d671e2abb"),
    (["krullcheck", "--semiring", "two-level-t"],
     "0812bcf19fcfd58af21a127d2daaa42fe071d921f67839b25b291f57d889e66a"),
    (["sections", "--semiring", "two-level-t", "--element", "t"],
     "f6489866771da999aa99deba2483fa27c7e8e72deaebc4ac75e2befe86de3042"),
    (["radical", "--semiring", "str-chain:3", "--elements", "1"],
     "10c11922ae24a24a7df29855bcd84010edbdf93312d00cacef8ecb35df44497c"),
    (["radical", "--semiring", "str-chain:3", "--congruence",
      '{"classes": [["0", "1", "1v", "a", "av", "a2", "a2v"]]}'],
     "10c11922ae24a24a7df29855bcd84010edbdf93312d00cacef8ecb35df44497c"),
    (["factor", "--format", "json", "x^3 + 1*x^2 + 3*x + 2"],
     "334f55090d7e2f79ff4424e419cd90c990642af9d69aa99ee5d57e2c01fc64b9"),
]


@pytest.mark.parametrize("argv,digest", JSON_VERB_GOLDENS)
def test_json_verb_golden_digests(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_readers_require_arrays_and_objects(capsys):
    # strings are not read as lists of one-character names
    strings = {
        "elements": "01e", "zero": "0", "one": "1",
        "add": ["01e", "1ee", "eee"], "mul": ["000", "01e", "0ee"],
        "nu": {"0": "0", "1": "e", "e": "e"}, "tangible": "1", "prudent": "1",
    }
    base = json.loads(to_json(str_chain(2)))
    cases = [(strings, "elements is not an array")]
    for key, value, what in (
        ("elements", "".join(base["elements"]), "elements is not an array"),
        ("tangible", "1", "tangible is not an array"),
        ("prudent", {"1": "1"}, "prudent is not an array"),
        ("add", "0", "add is not an array"),
        ("mul", None, "mul is not an array"),
        ("nu", [[k, v] for k, v in base["nu"].items()], "nu is not an object"),
    ):
        cases.append(({**base, key: value}, what))
    for key in ("add", "mul"):
        rows = [*base[key][:-1], "".join(base[key][-1])]
        cases.append(({**base, key: rows}, f"a row of {key} is not an array"))
    for obj, what in cases:
        for verb in ("validate", "spec"):
            code, out, err = run(capsys, verb, "--semiring", json.dumps(obj))
            assert (code, out) == (2, ""), what
            assert err.splitlines() == [
                f"parse error: malformed carrier description: {what}"
            ]
    # element names are JSON strings: a superboolean whose b0 is null,
    # spelled "None" elsewhere, or the number 0 is refused up front
    for name, elsewhere in ((None, "None"), (0, 0)):
        def swap(x):
            return elsewhere if x == "b0" else x

        sb = json.loads(to_json(superboolean()))
        obj = {
            "elements": [name, "b1", "b1v"],
            "zero": swap(sb["zero"]), "one": sb["one"],
            "add": [[swap(x) for x in row] for row in sb["add"]],
            "mul": [[swap(x) for x in row] for row in sb["mul"]],
            "nu": {str(name) if k == "b0" else k: swap(v) for k, v in sb["nu"].items()},
            "tangible": sb["tangible"], "prudent": sb["prudent"],
        }
        for verb in ("validate", "spec"):
            code, out, err = run(capsys, verb, "--semiring", json.dumps(obj))
            assert (code, out) == (2, ""), name
            assert err.splitlines() == [
                f"parse error: element name {json.dumps(name)} is not a string"
            ]
    for spec, classes, what in (
        ("str-chain:2", [["0"], ["1"], ["1v"], "av"], "a class is not an array"),
        ("str-chain:1", [["0"], "1", ["1v"]], "a class is not an array"),
        ("str-chain:1", [["0"], ["1"], ["1v"], []], "a class is empty"),
        ("str-chain:1", "0", "classes is not an array"),
    ):
        congruence = json.dumps({"classes": classes})
        code, out, err = run(
            capsys, "quotient", "--semiring", spec, "--congruence", congruence
        )
        assert (code, out) == (2, ""), classes
        assert err.splitlines() == [
            f"parse error: malformed congruence description: {what}"
        ]
    # every bundled carrier and every golden congruence still parses
    for name, R in bundled_suite():
        assert semiring_from_json(to_json(R)) == R, name
    argvs = [argv for argv, _ in CARRIER_GOLDENS + JSON_VERB_GOLDENS]
    argvs += [["--semiring", k, "--congruence", v] for k, v in _THETAS.items()]
    parsed = 0
    for argv in argvs:
        if "--congruence" in argv:
            R = builtin_semiring(argv[argv.index("--semiring") + 1])
            cong_from_json(R, argv[argv.index("--congruence") + 1])
            parsed += 1
    assert parsed == 12


def test_quotient_and_localize_reject_invalid_carrier_exit_3(capsys):
    obj = json.loads(to_json(flat_idempotent()))
    obj["prudent"] = ["1"]  # t belongs to the maximal admissible set
    carrier = json.dumps(obj)
    diagonal = json.dumps({"classes": [[x] for x in obj["elements"]]})
    for argv in (
        ["quotient", "--congruence", diagonal],
        ["localize", "--monoid", "1"],
        ["congs"],
        ["radical", "--elements", "1"],
    ):
        code, out, err = run(capsys, *argv, "--semiring", carrier)
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            "precondition violated: carrier fails validation: prudent-maximal"
        ]


def test_unknown_element_names_list_the_carrier(capsys):
    R = flat_idempotent()
    listing = ", ".join(R.names)
    congruence = json.dumps({"classes": [["0", "1", "t", "1v", "q"]]})
    for argv in (
        ["sections", "--element", "q"],
        ["localize", "--monoid", "1,q"],
        ["radical", "--elements", "q"],
        ["quotient", "--congruence", congruence],
    ):
        code, out, err = run(capsys, *argv, "--semiring", "flat-idempotent")
        assert (code, out) == (2, ""), argv
        assert err.splitlines() == [
            f"parse error: no element named 'q'; carrier has {listing}"
        ], argv


def test_size_bound_is_checked_before_validity(capsys):
    # a 9-element carrier over the default bound of 7, and a 5-element
    # one within it, each failing validation
    big = json.loads(to_json(str_trunc(4)))
    big["add"][1][2] = big["zero"]
    small = json.loads(to_json(mixed_units()))
    small["mul"][small["elements"].index("t")][small["elements"].index("u")] = "1v"
    for obj, bounded_code in ((big, 4), (small, 3)):
        diagonal = json.dumps({"classes": [[x] for x in obj["elements"]]})
        for argv, code in (
            (["congs"], bounded_code),
            (["spec"], bounded_code),
            (["sections", "--element", "1"], bounded_code),
            (["stalk", "--point", "0"], bounded_code),
            (["nullcheck"], bounded_code),
            (["nullcheck", "--congruence", diagonal], bounded_code),
            (["krullcheck"], bounded_code),
            # no enumeration, so no size bound
            (["quotient", "--congruence", diagonal], 3),
            (["localize", "--monoid", "1"], 3),
            (["radical", "--elements", "1"], 3),
            (["radical", "--congruence", diagonal], 3),
        ):
            got, out, err = run(capsys, *argv, "--semiring", json.dumps(obj))
            assert (got, out) == (code, ""), (len(obj["elements"]), argv)
            assert len(err.splitlines()) == 1, argv
            prefix = "enumeration bound" if code == 4 else "precondition"
            assert err.startswith(prefix), argv


def test_only_the_enumerating_verbs_cap_a_valid_carrier(capsys):
    # str-chain:4 passes validation with 9 elements, over the default
    # bound of 7; a verb the bound does not cap answers as at bound 9
    obj = json.loads(to_json(str_chain(4)))
    diagonal = json.dumps({"classes": [[x] for x in obj["elements"]]})
    for argv, code in (
        (["congs"], 4),
        (["spec"], 4),
        (["sections", "--element", "a"], 4),
        (["stalk", "--point", "0"], 4),
        (["nullcheck"], 4),
        (["nullcheck", "--congruence", diagonal], 4),
        (["krullcheck"], 4),
        (["validate"], 0),
        (["quotient", "--congruence", diagonal], 0),
        (["localize", "--monoid", "1"], 0),
        (["radical", "--elements", "a"], 0),
        (["radical", "--congruence", diagonal], 0),
    ):
        got, out, err = run(capsys, *argv, "--semiring", "str-chain:4")
        if code == 4:
            assert (got, out) == (4, ""), argv
            assert err.startswith("enumeration bound exceeded"), argv
        else:
            bounded = run(capsys, *argv, "--semiring", "str-chain:4", "--bound", "9")
            assert (got, out, err) == bounded, argv
            assert (got, err) == (0, "") and out, argv


def test_spec_stops_an_oversize_carrier_before_validating(capsys, monkeypatch):
    def no_validation(R):
        raise AssertionError("validate ran on an oversize carrier")

    # the CLI builds a fresh carrier, so no report is cached on it
    monkeypatch.setattr(congr, "validate", no_validation)
    code, out, err = run(capsys, "spec", "--semiring", f"str-chain:{MAX_CHAIN}")
    assert (code, out) == (4, "")
    assert err.startswith("enumeration bound exceeded: carrier has 65 elements")


def test_constructed_name_collision_exits_3(capsys):
    obj = renamed(json.loads(to_json(str_chain(2))), "1v", "a|av")
    classes = json.dumps({"classes": [["0"], ["1"], ["a|av"], ["a", "av"]]})
    code, out, err = run(
        capsys, "quotient", "--semiring", json.dumps(obj), "--congruence", classes
    )
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "precondition violated: element names must be distinct: 'a|av' repeats"
    ]


@pytest.mark.parametrize("name", ["t,x", "t\nx", "t\rx"])
def test_element_names_with_comma_or_line_break_exit_2(capsys, name):
    carrier = json.dumps(renamed(json.loads(to_json(flat_idempotent())), "t", name))
    for argv in (["validate"], ["radical", "--elements", "q"]):
        code, out, err = run(capsys, *argv, "--semiring", carrier)
        assert (code, out) == (2, ""), argv
        assert err.splitlines() == [
            f"parse error: element name {name!r} contains a comma or a line break"
        ], argv


@pytest.mark.parametrize("name", [" t", "t ", ""])
def test_empty_or_padded_element_names_exit_2(capsys, name):
    # a list item is stripped and dropped when empty, so such a name
    # could be given to --element but never to --elements or --monoid
    carrier = json.dumps(renamed(json.loads(to_json(flat_idempotent())), "t", name))
    for argv in (["validate"], ["sections", "--element", name],
                 ["radical", "--elements", name]):
        code, out, err = run(capsys, *argv, "--semiring", carrier)
        assert (code, out) == (2, ""), argv
        assert err.splitlines() == [
            f"parse error: element name {name!r} is empty or padded with whitespace"
        ], argv


def test_nullcheck_aggregates_all_q_congruences(capsys):
    code, out, _ = run(capsys, "nullcheck", "--semiring", "str-trunc:3")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["failures"] == []
    assert obj["congruences"] > 0
    assert obj["checked"] > 0


def test_nullcheck_single_congruence(capsys):
    theta = json.dumps(
        {"classes": [["b0"], ["b1"], ["b1v"]]}
    )
    code, out, _ = run(
        capsys, "nullcheck", "--semiring", "superboolean",
        "--congruence", theta,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["checked"] == 3


def test_krullcheck(capsys):
    code, out, _ = run(capsys, "krullcheck", "--semiring", "superboolean")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["name"] == "krull"


def test_seed_matches_random_spec(capsys):
    code, by_seed, _ = run(capsys, "spec", "--seed", "3")
    assert code == 0
    code, by_name, _ = run(capsys, "spec", "--semiring", "random:3")
    assert code == 0
    assert by_seed == by_name


# -- inputs from files -------------------------------------------------


def test_semiring_from_file(capsys, tmp_path):
    path = tmp_path / "carrier.json"
    path.write_text(to_json(superboolean()), encoding="utf-8")
    code, from_file, _ = run(capsys, "spec", "--semiring", str(path))
    assert code == 0
    code, from_name, _ = run(capsys, "spec", "--semiring", "superboolean")
    assert from_file == from_name


def test_congruence_from_file(capsys, tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(
        json.dumps({"classes": [["0"], ["1"], ["1v"], ["a", "av"]]}),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "quotient", "--semiring", "str-chain:2",
        "--congruence", str(path),
    )
    assert code == 0
    assert json.loads(out)["carrier"]["elements"] == ["0", "1", "1v", "a|av"]


def test_out_redirects_stdout(capsys, tmp_path):
    target = tmp_path / "canon.txt"
    code, out, _ = run(
        capsys, "canon", "x^2 + 0*x + 1", "--out", str(target)
    )
    assert (code, out) == (0, "")
    assert target.read_text(encoding="utf-8") == "x^2 + 1\n"


@pytest.mark.parametrize(
    "argv",
    [("canon", "x+0"), ("zlocus", "x + y + 0", "--format", "svg")],
    ids=["text", "svg-bytes"],
)
@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_unwritable_out_exits_2(capsys, tmp_path, argv, where):
    target = tmp_path / "nosuch" / "f.txt" if where == "missing-parent" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: cannot write output file {str(target)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# -- exit codes --------------------------------------------------------


def test_parse_errors_exit_2(capsys):
    assert run(capsys, "canon", "x^^2")[0] == 2
    assert run(capsys, "spec", "--semiring", "nosuch")[0] == 2
    assert run(capsys, "eval", "x + 0", "zz")[0] == 2
    assert run(capsys, "radical", "--semiring", "superboolean",
               "--elements", "zz")[0] == 2
    assert run(capsys, "zlocus", "x + y", "--box", "1,2,3")[0] == 2
    code, _, err = run(capsys, "spec", "--semiring", "{not json")
    assert code == 2
    assert "parse error" in err


def test_zero_denominators_and_deep_nesting_exit_2(capsys):
    nested = "(" * 3000 + "x" + ")" * 3000
    for argv in (("eval", "x", "1/0"), ("canon", "1/0*x"), ("canon", nested)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv[:2]
        assert out == ""
        assert err.startswith("parse error: ") and err.count("\n") == 1


def test_indexed_variables_past_the_cap_exit_2_at_once(capsys):
    # the highest index is the length of every exponent vector; without
    # MAX_VARIABLES, x1000000 alone took about a second and x999999999
    # would need gigabytes
    for text in ("x65", "x1000000+0", "x999999999", "x" + "9" * 5000):
        start = time.perf_counter()
        code, out, err = run(capsys, "canon", text)
        assert time.perf_counter() - start < 0.5, text[:12]
        assert (code, out) == (2, "")
        assert err == f"parse error: variable at position 0 is past x{MAX_VARIABLES}\n"
    assert run(capsys, "canon", f"x{MAX_VARIABLES} + x0001")[:2] == (
        0, f"x1 + x{MAX_VARIABLES}\n"
    )


def test_precondition_errors_exit_3(capsys):
    assert run(capsys, "eval", "x + y", "3")[0] == 3
    code, _, err = run(
        capsys, "stalk", "--semiring", "superboolean", "--point", "99"
    )
    assert code == 3
    assert "precondition" in err
    assert run(capsys, "localize", "--semiring", "superboolean",
               "--monoid", "b1v")[0] == 3
    assert run(capsys, "zlocus", "x + y", "--box", "2,1,0,1")[0] == 3


def test_bound_errors_exit_4(capsys):
    code, _, err = run(capsys, "spec", "--semiring", "str-chain:4")
    assert code == 4
    assert "bound" in err
    big = builtin_semiring("str-chain:4").size
    code, out, _ = run(
        capsys, "spec", "--semiring", "str-chain:4", "--bound", str(big)
    )
    assert code == 0
    assert json.loads(out)["points"]


def test_chain_length_cap_exits_4_before_building(capsys):
    for kind in ("str-chain", "str-trunc"):
        code, out, err = run(
            capsys, "congs", "--semiring", f"{kind}:{MAX_CHAIN + 1}"
        )
        assert (code, out) == (4, "")
        assert "MAX_CHAIN" in err
    code, out, _ = run(
        capsys, "validate", "--semiring", f"str-chain:{MAX_CHAIN}"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert run(capsys, "validate", "--semiring", "str-chain:0")[0] == 2


def test_carrier_spec_numbers_have_one_spelling(capsys):
    # int() would read each of these as a plain number, giving one
    # carrier several names (and random:-1 the carrier of random:1)
    for kind, message in (("str-chain", "bad chain length"),
                          ("str-trunc", "bad chain length"),
                          ("random", "bad seed")):
        for number in ("1_0", " 3", "+3", "03", "３", "-1", "3 ", ""):
            spec = f"{kind}:{number}"
            code, out, err = run(capsys, "validate", "--semiring", spec)
            assert (code, out) == (2, ""), spec
            assert message in err, (spec, err)
        code, out, _ = run(capsys, "validate", "--semiring", f"{kind}:3")
        assert code == 0 and json.loads(out)["passed"] is True
    assert run(capsys, "validate", "--semiring", "random:0")[0] == 0


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["spec"]) == 2
    assert main(["spec", "--semiring", "superboolean", "--seed", "1"]) == 2
    assert main(["canon", "x", "--nonsense"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for verb in ("eval", "canon", "equal", "factor", "root", "zlocus",
                 "validate", "congs", "spec", "radical", "quotient",
                 "localize", "sections", "stalk", "nullcheck", "krullcheck"):
        assert verb in out


# -- determinism and round-trips ---------------------------------------


def test_outputs_are_byte_stable(capsys):
    pairs = [
        ("canon", "x^2 + 0*x + 1"),
        ("spec", "--semiring", "flat-idempotent"),
        ("zlocus", "x + y + 0", "--format", "json"),
        ("congs", "--semiring", "str-chain:2"),
    ]
    for argv in pairs:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


def test_svg_bytes_are_stable(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for target in (a, b):
        code, _, _ = run(
            capsys, "zlocus", "x^2 + y + 0", "x + y",
            "--format", "svg", "--out", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_poly_round_trip_200(capsys):
    rng = random.Random(97)
    for i in range(200):
        nvars = 1 + i % 3
        text = rand_poly_text(rng, nvars)
        assert format_poly(parse_poly(text, nvars=nvars)) == text
        code, out, _ = run(capsys, "canon", "--", text)
        assert code == 0
        assert out == text + "\n"


def test_bundled_semirings_round_trip(capsys):
    for name, R in bundled_suite():
        recovered = json.loads(to_json(R))
        assert tuple(recovered["elements"]) == R.names
        code, from_json, _ = run(
            capsys, "validate", "--semiring", to_json(R)
        )
        assert code == 0
        assert json.loads(from_json)["passed"] is True


def test_element_error_lists_carrier_names(capsys):
    code, _, err = run(
        capsys, "sections", "--semiring", "superboolean", "--element", "x"
    )
    assert code == 2
    assert "b0, b1, b1v" in err


# -- fuzzing -------------------------------------------------------------
#
# The parser and the LP verbs have no work budget yet, so the inputs
# stay cheap: exponents of at most 9, short text, and at most 40 terms
# once a polynomial has two or more variables.  zlocus stops past
# locus.MAX_TIE_LINES on its own, so its bivariate systems skip the
# term limit; their boxes are well-formed, degenerate or malformed.

_ATOMS = ["x", "y", "z", "x1", "x2", "0", "3", "-2", "1/2", "-1v", "0v",
          "-inf", "2/0"]


def _poly_strategy(atoms, alphabet):
    atom = st.sampled_from(atoms)
    factor = st.one_of(
        atom,
        st.builds("{}^{}".format, atom, st.integers(0, 9)),
        st.builds(
            "({})^{}".format,
            st.lists(atom, min_size=1, max_size=3).map("+".join),
            st.integers(0, 9),
        ),
    )
    return st.one_of(
        st.lists(
            st.lists(factor, min_size=1, max_size=2).map("*".join),
            min_size=1,
            max_size=3,
        ).map(" + ".join),
        st.text(alphabet=alphabet, max_size=12),
    )


_poly_text = _poly_strategy(_ATOMS, "xyz0123456789v/+-*^() ")
_bivariate_text = _poly_strategy(
    [a for a in _ATOMS if a not in ("z", "x1", "x2")], "xy0123456789v/+-*^() "
)
_point_text = st.lists(
    st.sampled_from(["0", "3", "-1/2", "2v", "-inf", "1/0", "q"]), max_size=3
).map(",".join)
_box_text = st.one_of(
    st.none(),
    st.lists(
        st.sampled_from(["-7", "-3", "-1/2", "0", "1/3", "2", "5/2", "9"]),
        min_size=4,
        max_size=4,
    ).map(",".join),
    st.text(alphabet="0123456789-/,v ", max_size=14),
)


def _small_exponents(text: str) -> bool:
    # p_pow squares, but the power of a sum still grows: (x+0)^2000 has
    # 2,001 terms and parsing it alone takes seconds
    return not re.search(r"\^\s*\d\d", text)


def _cheap(text: str) -> bool:
    if not _small_exponents(text):
        return False
    try:
        f = parse_poly(text)
    except ParseError:
        return True
    return f.nvars == 1 or len(f.terms) <= 40


@settings(max_examples=150, deadline=None)
@given(
    verb=st.sampled_from(["eval", "canon", "equal", "factor", "root", "zlocus"]),
    left=_poly_text,
    right=_poly_text,
    point=_point_text,
    system=st.lists(_bivariate_text, min_size=1, max_size=3),
    box=_box_text,
    fmt=st.sampled_from(["json", "text"]),
)
def test_polynomial_verbs_never_raise(verb, left, right, point, system, box, fmt):
    if verb == "zlocus":
        assume(all(_small_exponents(text) for text in system))
        argv = [verb, "--format", fmt]
        if box is not None:
            argv.append(f"--box={box}")
        argv += ["--", *system]
    else:
        assume(_cheap(left) and _cheap(right))
        argv = [verb, "--", left]
    if verb == "eval":
        argv.append(point)
    elif verb == "equal":
        argv.append(right)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert code != 4 or verb == "zlocus", argv
    assert (code == 0) == bool(out.getvalue()), argv
    assert "Traceback" not in err.getvalue()


# The carrier verbs read inline JSON carriers of at most 7 elements: a
# bundled carrier as it is, with one element renamed, with edited
# tables, subsets, zero or one, or malformed text.  Congruences are the base carrier's own, random
# partitions, or malformed text; element lists may name unknown
# elements.  Malformed text starts with "{", so it is never read as a
# file path or a builtin name.

_VERBS = ["validate", "congs", "spec", "radical", "quotient", "localize",
          "sections", "stalk", "nullcheck", "krullcheck"]
_BASES = [
    (json.loads(to_json(R)), [class_names(c) for c in enumerate_congruences(R)])
    for _, R in bundled_suite()
]
_junk = st.text(alphabet='{}[]":,01abtv ', max_size=16).map("{".__add__)
# names like the ones the quotient ("|") and localization ("/")
# constructions build, and names the name rule rejects
_RENAMES = ["a|av", "1|1v", "t,x", "t\nx", "1/t", " t", "t ", ""]


@st.composite
def _carrier_argv(draw):
    obj, congs = draw(st.sampled_from(_BASES))
    obj = copy.deepcopy(obj)
    if draw(st.integers(0, 2)) == 0:
        # rename one element consistently across the whole object, maybe
        # to the name a quotient gives one of the carrier's classes
        old = draw(st.sampled_from(obj["elements"]))
        joined = ["|".join(c) for cs in congs for c in cs if len(c) > 1]
        new = draw(st.sampled_from(_RENAMES + joined))
        obj, congs = renamed(obj, old, new), renamed(congs, old, new)
    names, one = obj["elements"], obj["one"]
    name = st.sampled_from(names + ["zz"])
    edits = st.tuples(
        st.sampled_from(["add", "mul", "nu", "tangible", "prudent", "zero",
                         "one"]),
        st.integers(0, len(names) - 1), st.integers(0, len(names) - 1),
        name,
    )
    for field, i, j, v in draw(st.lists(edits, max_size=3)):
        if field in ("add", "mul"):
            obj[field][i][j] = v
        elif field == "nu":
            obj["nu"][names[i]] = v
        elif field in ("tangible", "prudent"):
            obj[field] = sorted(set(obj[field]) ^ {v})
        else:
            obj[field] = v
    if draw(st.integers(0, 7)) == 0:
        del obj[draw(st.sampled_from(sorted(obj)))]
    carrier = json.dumps(obj) if draw(st.integers(0, 7)) else draw(_junk)
    labels = st.lists(
        st.integers(0, len(names) - 1), min_size=len(names),
        max_size=len(names),
    )
    partition = labels.map(lambda ks: [
        [x for x, k in zip(names, ks) if k == block] for block in sorted(set(ks))
    ])
    congruence = draw(st.one_of(
        st.sampled_from(congs).map(lambda cs: json.dumps({"classes": cs})),
        partition.map(lambda cs: json.dumps({"classes": cs})),
        _junk,
    ))
    elements = ",".join(
        draw(st.sampled_from([[], [one]])) + draw(st.lists(name, max_size=3))
    )
    verb = draw(st.sampled_from(_VERBS))
    argv = [verb, "--semiring", carrier]
    argv += draw(st.sampled_from([[], ["--bound", "0"], ["--bound", "9"]]))
    if verb == "congs":
        argv += draw(st.sampled_from(
            [[]] + [["--kind", k] for k in ("QCong", "NuPrime", "MaximalL")]
        ))
    elif verb == "radical":
        argv += draw(st.sampled_from([["--elements", elements],
                                      ["--congruence", congruence]]))
    elif verb == "quotient":
        argv += ["--congruence", congruence]
    elif verb == "localize":
        argv += ["--monoid", elements]
    elif verb == "sections":
        argv += ["--element", draw(name)]
    elif verb == "stalk":
        argv += ["--point", str(draw(st.integers(-1, 8)))]
    elif verb == "nullcheck":
        argv += draw(st.sampled_from([[], ["--congruence", congruence]]))
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_carrier_argv())
def test_carrier_verbs_never_raise(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert (code == 0) == bool(out.getvalue()), argv
    assert len(err.getvalue().splitlines()) == (code != 0), argv


# -- packaging -----------------------------------------------------------


def test_runtime_imports_only_the_standard_library():
    # -S keeps site-packages .pth files, which may import third-party
    # modules at start-up, out of the count
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import supertrop, supertrop.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(m for m in new\n"
        "             if m != 'supertrop' and m not in sys.stdlib_module_names))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "[]\n"
