"""Self-test of the benchmark: a tiny run of every workload, traced and
untraced, passes every oracle and reports exactly the metrics that
BENCHMARK.json declares.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import run

assert run.use_source(), "the self-test needs the library source in src/"

import harness  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from supertrop import core, poly  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def test_declared_names_match_the_code():
    assert WORKLOADS == ["algebra", "plane", "carriers", "cli"]
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(run.layer_metrics())
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in DECLARED["end_to_end"])
    assert all(m["unit"] == run.layer_metrics()[m["name"]] for m in DECLARED["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, tmp_path):
    defects = 3 if workload == "cli" else 0  # the known CLI failures, per round
    for trace, names in ((False, run.END_TO_END), (True, run.layer_metrics())):
        out = run.run(workload, 3, 0, trace, tiny=True, out_dir=tmp_path)
        res = out["result"]
        assert res["correct"], out["info"]["unexpected_failures"]
        assert res["failed"] == defects * out["info"]["rounds"]
        assert list(res["metrics"]) == list(names)
        assert all(v["value"] >= 0 for v in res["metrics"].values())
    assert res["metrics"]["trace.overhead_ratio"]["value"] > 0
    calls = sum(v["value"] for k, v in res["metrics"].items() if k.endswith(".calls"))
    assert calls > 0 or workload == "cli"


def test_same_seed_same_digest(tmp_path):
    a = run.run("plane", 5, 0, False, tiny=True, out_dir=tmp_path)["info"]["digest"]
    b = run.run("plane", 5, 0, False, tiny=True, out_dir=tmp_path)["info"]["digest"]
    c = run.run("plane", 6, 0, False, tiny=True, out_dir=tmp_path)["info"]["digest"]
    assert a == b != c


def test_oracles_catch_wrong_answers():
    f = [((2,), Fraction(0), False), ((1,), Fraction(0), False), ((0,), Fraction(1), False)]
    canon = [((2,), Fraction(0), False), ((0,), Fraction(1), False)]
    pts = [oracle.tangible_point([Fraction(x, 2)]) for x in range(-6, 7)]
    assert oracle.same_function_at(f, canon, pts) is None
    assert oracle.same_function_at(f, canon[:1], pts) is not None
    # at x = 1/2 the terms x^2 and 1 tie at the maximum 1, so it is ghost
    assert oracle.evaluate(f, oracle.tangible_point([Fraction(1, 2)])) == (Fraction(1), True)


def test_pace_scales_to_the_reference_speed_and_drops_probes():
    pace = harness.Pace()
    ref = harness.REF_PROBE_S
    # the machine runs at half the reference speed: every probe takes 2 * ref
    pace.probes = [(t, t + 3 * ref, 2 * ref) for t in (0.0, 1.0, 2.0, 3.0)]
    pace._freeze()
    assert pace.busy(0.5, 0.9) == pytest.approx(0.2)
    # an interval holding the probe at 1.0 loses that probe's time
    assert pace.wall(0.5, 1.5) == pytest.approx(1.0 - 3 * ref)
    assert pace.busy(0.5, 1.5) == pytest.approx((1.0 - 3 * ref) / 2)


def _upper_envelope(points):
    """Kept and tie-only exponents of a univariate max-plus polynomial
    given as (exponent, value) pairs: points on its upper concave hull,
    and those of them that are not hull vertices."""
    hull = []
    for p in sorted(points):
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
            >= (p[0] - hull[-2][0]) * (hull[-1][1] - hull[-2][1])
        ):
            hull.pop()
        hull.append(p)
    kept = {v[0] for v in hull}
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        kept |= {x for x, y in points if x0 < x < x1 and (y - y0) * (x1 - x0) == (y1 - y0) * (x - x0)}
    return kept, kept - {v[0] for v in hull}


@pytest.mark.parametrize("buckets", [workloads.Algebra.BUCKETS, workloads.Algebra.TINY_BUCKETS])
def test_univariate_essentials_match_the_upper_hull(buckets):
    srng = random.Random(workloads.STRUCTURE_SEED)
    for nv, t in buckets:
        shape = workloads.random_shape(nv, t, srng)
        if nv == 1:
            kept, tie_only = _upper_envelope([(e[0], c) for e, c, _ in shape])
            assert workloads.essentials(1, t) == ({(e,) for e in kept}, {(e,) for e in tie_only})


def test_canonical_and_factor_oracles_reject_shortcuts():
    f = [((0,), Fraction(0), False), ((1,), Fraction(-1), False), ((2,), Fraction(0), False)]
    pts = [oracle.tangible_point([Fraction(x, 2)]) for x in range(-6, 7)]
    check = workloads._check_canonical(f, {(0,), (2,)}, set(), pts)
    lib = poly.parse_poly("0 + -1*x + x^2")
    assert check(poly.canonicalize(lib)) is None
    unchanged = poly.CanonicalForm(lib, tuple((e, poly.Essentiality.STRICTLY_ESSENTIAL) for e, _, _ in f))
    assert check(unchanged) is not None
    factor = workloads._check_factor(f, pts)
    assert factor(poly.factor_univariate(lib)) is None
    assert factor(poly.Factorization(core.rat_t(0), ((lib, 1),))) is not None


def test_bare_directory_fails_without_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for p in run.HERE.iterdir():
        if p.is_file():
            (bare / "perfbench" / p.name).write_bytes(p.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plane", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
