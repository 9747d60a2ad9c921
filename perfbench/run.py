#!/usr/bin/env python3
"""Seeded, closed-loop benchmark of supertrop.

Run from the repository root:

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 24 --trace 0

Workloads: algebra, plane, carriers, cli (see README.md next to this
file for why each exists).  One client drives the library through its
public functions, in a single process (plus one child process at a
time for cli), pinned to one CPU.  Rounds of operations run until they
have taken ``--seconds`` of wall time (and at least two rounds and 100
operations); the round in progress always finishes, so every round
counts whole.  Times are reported at a reference speed (see
``harness.Pace``), and on the wall clock in the lines before the
result.

``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer
metrics, from one span per public call, plus the tracing overhead.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and the run digest
are written to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from harness import Pace, judge, percentile, run_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 9
MIN_ROUNDS = 2  # the run digest covers the first two rounds
MIN_SAMPLES = 100  # so that at least 10 latency samples lie above the p90

FUNCTIONS = [
    "core.kernel",
    "poly.parse_poly", "poly.p_mul", "poly.p_pow", "poly.p_eval",
    "poly.canonicalize", "poly.func_equal", "poly.factor_univariate", "poly.format_poly",
    "locus.locus2d", "locus.locate", "locus.z_member", "locus.render_svg", "locus.to_json",
    "congr.validate", "congr.enumerate_congruences", "congr.cong_closure", "congr.quotient",
    "congr.localize_finite", "congr.find_isomorphism",
    "spectra.spec", "spectra.spectrum_to_json", "spectra.sections", "spectra.stalk",
    "spectra.irreducible", "spectra.krull_check", "spectra.nullstellensatz_check",
]
CLI_VERBS = [
    "startup", "eval", "canon", "equal", "factor", "root", "zlocus", "validate", "congs",
    "spec", "radical", "quotient", "localize", "sections", "stalk", "nullcheck", "krullcheck",
]
SWEEPS = {
    "poly.canonicalize": ["v1t15", "v1t21", "v1t30", "v1t60", "v2t8", "v2t16", "v2t24",
                          "v3t8", "v3t12", "v3t16", "v3t20"],
    "congr.enumerate_congruences": ["n7", "n9", "n11"],
    "locus.locate": ["c29", "c57", "c151", "c269", "c457", "c821"],
}
COUNTS = {
    "poly.canonicalize.terms_in": "count",
    "poly.canonicalize.terms_kept": "count",
    "poly.canonicalize.kept_ratio": "ratio",
    "locus.locus2d.cells": "count",
    "congr.enumerate_congruences.found": "count",
    "spectra.spec.points": "count",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_metrics() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for f in FUNCTIONS:
        out[f"{f}.calls"] = "count"
        out[f"{f}.busy_s"] = "s"
        out[f"{f}.p50_ms"] = "ms"
    for verb in CLI_VERBS:
        out[f"cli.{verb}.p50_ms"] = "ms"
    for f, tags in SWEEPS.items():
        for tag in tags:
            out[f"{f}.{tag}.p50_ms"] = "ms"
    out.update(COUNTS)
    return out


def use_source() -> bool:
    """Put the checkout's src/ on the import path; False if absent."""
    if not (SRC / "supertrop" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def setup(cls, seed: int, tiny: bool):
    """Build the workload SETUP_REPEATS times; return it, the first
    round's plan and the wall interval of each set-up.  One set-up is a
    fresh interpreter importing the library, generation of the first
    round and the warm-up."""
    import workloads

    env = workloads.cli_env()

    def import_child() -> None:
        rc, _, err = workloads.run_cli(["-c", cls.child_import], env)
        if rc:
            raise RuntimeError(f"a fresh interpreter cannot import the library: {err}")

    import_child()  # fills the bytecode cache; not timed
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        import_child()
        wl = cls(seed, tiny)
        plan = wl.plan(0)
        wl.warm_up()
        times.append((t0, perf_counter()))
    return wl, plan, times


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        out_dir: Path = OUT_DIR) -> dict:
    """One benchmark run; returns the result object and writes the trace."""
    import workloads

    cls = workloads.WORKLOADS[workload]
    pace = Pace()
    with pace.running():
        wl, plan, setups = setup(cls, seed, tiny)
        digest = hashlib.sha256()
        rounds = []
        attempted = failed = 0
        unexpected: list = []
        counts: dict = {}
        r = 0
        while True:
            traced = trace and r % 2 == 1
            rr = run_round(wl.round(plan), traced, r)
            f, bad, c = judge(rr, digest if r < MIN_ROUNDS else None)
            rr.records.clear()  # outputs are judged; keep the heap flat
            rounds.append((traced, rr))
            attempted += len(rr.times)
            failed += f
            unexpected += bad
            if traced:
                for k, v in c.items():
                    counts[k] = counts.get(k, 0) + v
            r += 1
            measured = sum(x.end - x.start for _, x in rounds)
            enough = tiny or (measured >= seconds and attempted >= MIN_SAMPLES)
            if r >= MIN_ROUNDS and enough and not (trace and r % 2):
                break
            plan = wl.plan(r)

    if trace:
        metrics = _layer_values(rounds, counts, pace)
    else:
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        values = _timings(rounds, setups, pace.busy)
        values["success_rate"] = (attempted - failed) / attempted
        values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "ops": attempted,
        "measured_s": sum(rr.end - rr.start for _, rr in rounds),
        "error_rate": failed / attempted,
        "wall": _timings(rounds, setups, pace.wall),
        "probes": len(pace.probes),
        "digest": digest.hexdigest(),
        "unexpected_failures": unexpected[:20],
    }
    _write_trace(out_dir, info, rounds, metrics)
    return {
        "info": info,
        "result": {
            "correct": not unexpected,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _timings(rounds, setups, clock) -> dict:
    """The timed end-to-end metrics, with ``clock(t0, t1)`` measuring an
    interval: in reference time for the metrics, on the wall clock for
    the record."""
    lat = [clock(t0, t1) for _, rr in rounds for t0, t1 in rr.times]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": percentile(lat, 50) * 1000,
        "latency_p90_ms": percentile(lat, 90) * 1000,
        "setup_s": statistics.median(clock(t0, t1) for t0, t1 in setups),
    }


def _layer_values(rounds, counts, pace: Pace) -> dict:
    """Per-layer metrics from the spans of the traced rounds, in
    reference time."""
    by_name: dict = {}
    by_tag: dict = {}
    busy: dict = {}
    for s in (s for traced, rr in rounds if traced for s in rr.spans):
        if s[0] == "round":
            continue
        # operations never nest, so an op span's self time is its length
        own = pace.busy(s[1], s[2])
        ms = own * 1000
        by_name.setdefault(s[0], []).append(ms)
        busy[s[0]] = busy.get(s[0], 0.0) + own
        if s[5] is not None:
            by_tag.setdefault((s[0], s[5]), []).append(ms)
    values: dict = {}
    for f in FUNCTIONS:
        got = by_name.get(f, [])
        values[f"{f}.calls"] = len(got)
        values[f"{f}.busy_s"] = busy.get(f, 0.0)
        values[f"{f}.p50_ms"] = percentile(got, 50) if got else 0.0
    for verb in CLI_VERBS:
        got = by_name.get(f"cli.{verb}", [])
        values[f"cli.{verb}.p50_ms"] = percentile(got, 50) if got else 0.0
    for f, tags in SWEEPS.items():
        for tag in tags:
            got = by_tag.get((f, tag), [])
            values[f"{f}.{tag}.p50_ms"] = percentile(got, 50) if got else 0.0
    for k in COUNTS:
        values[k] = counts.get(k, 0)
    n_in = counts.get("poly.canonicalize.terms_in", 0)
    values["poly.canonicalize.kept_ratio"] = (
        counts.get("poly.canonicalize.terms_kept", 0) / n_in if n_in else 0.0
    )
    # rounds run in untraced/traced pairs of the same shape
    plain = sum(pace.busy(rr.start, rr.end) for traced, rr in rounds if not traced)
    traced_wall = sum(pace.busy(rr.start, rr.end) for traced, rr in rounds if traced)
    values["trace.overhead_ratio"] = traced_wall / plain
    values["trace.accounted_ratio"] = sum(busy.values()) / plain
    return {k: {"value": values[k], "unit": u} for k, u in layer_metrics().items()}


def _write_trace(out_dir: Path, info: dict, rounds, metrics) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = [list(s) for traced, rr in rounds if traced for s in rr.spans]
    path = out_dir / f"{info['workload']}-seed{info['seed']}-trace{info['trace']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "metrics": metrics,
                   "spans": ["name start end parent op_id tag".split()] + spans}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["algebra", "plane", "carriers", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_source():
        print(f"perfbench: no library source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # one CPU for this process and its children, so that the speed
    # probe always measures the core a cli child runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info = out["info"]
    print(f"perfbench: {info['workload']} seed={info['seed']} trace={info['trace']} "
          f"rounds={info['rounds']} ops={info['ops']} measured_s={info['measured_s']:.2f}")
    n = info["ops"]
    print(f"perfbench: latency samples={n} (p90 leaves {n - math.ceil(0.9 * n)} above) "
          f"error_rate={info['error_rate']:.4f} digest={info['digest']}")
    wall = ", ".join(f"{k}={v:.4g}" for k, v in info["wall"].items())
    print(f"perfbench: wall clock (not at reference speed): {wall}; speed probes={info['probes']}")
    for msg in info["unexpected_failures"]:
        print(f"perfbench: unexpected failure: {msg}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
