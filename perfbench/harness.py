"""Closed-loop round runner and span tracer.

A workload is a sequence of rounds.  A round is a generator that
yields ``Op`` objects and receives each result back, so an operation
can depend on the output of the one before it; the next operation
starts only when the previous one has returned (one client, closed
loop, so no operation ever waits in a queue).

Each operation is timed on its own.  Its oracle runs after the round
has finished, outside every timed interval.  In a traced round one
span is kept per operation, with the round's span as parent; spans
stay in memory and are written out when the run ends.

Times are reported at a fixed reference speed (see ``Pace``): the
shared machine this was written on changes speed by up to 1.7x for
periods of seconds to minutes, more than any run can average out.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable, Optional


class OpFailed(Exception):
    """Thrown into a round generator when an operation raised."""


@dataclass
class Op:
    """One public call.

    ``name`` is the layer metric prefix (``poly.canonicalize``);
    ``check`` returns None or a failure message; ``count`` returns
    work counts taken from the output; ``key`` renders the output for
    the run digest.  A ``known_defect`` op is expected to fail today:
    its failure counts as failed but does not make the run incorrect.
    """

    name: str
    fn: Callable
    args: tuple = ()
    check: Optional[Callable[[Any], Optional[str]]] = None
    tag: Optional[str] = None
    count: Optional[Callable[[Any], dict]] = None
    key: Callable[[Any], str] = repr
    known_defect: bool = False


REF_PROBE_S = 0.0005  # the probe's time at the reference speed


def reference_work() -> Fraction:
    """The speed probe: fixed work of the kinds the library does
    (Fraction arithmetic, tuples, dicts, small calls), from the standard
    library only, so that a change to the library never moves it."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 60):
        q = Fraction(i, 7) - Fraction(3, i)
        acc = max(acc, q) + Fraction(1, i)
        seen[(i % 5, i)] = (q, acc)
    return acc


class Pace:
    """Converts wall-clock intervals to reference time.

    While ``running``, an interval timer runs the probe every ``EVERY``
    seconds, inside operations as well as between them: the slowest
    operations last a second or more, as long as a slow spell of the
    machine.  The speed at a moment is the probe's reference time over
    the median of the probe times nearest that moment (``WINDOW``
    probes each side), and an interval counts as the integral of that
    speed over it, less the probes run inside it.  A slow spell then
    stretches the probe and the operations alike and cancels out.
    """

    EVERY = 0.04
    WINDOW = 3

    def __init__(self):
        self.probes: list = []  # (start, end, timed seconds), wall clock
        self._starts: list = []

    def probe(self) -> None:
        a = perf_counter()
        reference_work()  # untimed: the first pass after a wait runs cold
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.probes.append((a, t1, t1 - t0))

    def _tick(self, *_signal) -> None:
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, self.EVERY)  # re-armed here, so never re-entered

    @contextmanager
    def running(self):
        """Probe on a timer for the duration of the block (main thread)."""
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        self.probe()
        self._freeze()

    def _freeze(self) -> None:
        self._starts = [a for a, _, _ in self.probes]
        durs = [d for _, _, d in self.probes]
        k = self.WINDOW
        self._scale = [REF_PROBE_S / statistics.median(durs[max(0, i - k):i + k + 1])
                       for i in range(len(durs))]
        self._cum = [0.0]
        for i in range(1, len(durs)):
            self._cum.append(self._cum[-1] + (self._starts[i] - self._starts[i - 1]) * self._scale[i - 1])

    def _at(self, t: float) -> float:
        i = max(0, bisect.bisect_right(self._starts, t) - 1)
        return self._cum[i] + (t - self._starts[i]) * self._scale[i]

    def _inside(self, t0: float, t1: float) -> list:
        return self.probes[bisect.bisect_left(self._starts, t0):bisect.bisect_left(self._starts, t1)]

    def busy(self, t0: float, t1: float) -> float:
        """Reference time of the wall interval [t0, t1], probes excluded."""
        span = lambda a, b: self._at(b) - self._at(a)
        return span(t0, t1) - sum(span(a, b) for a, b, _ in self._inside(t0, t1))

    def wall(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1], probes excluded."""
        return t1 - t0 - sum(b - a for a, b, _ in self._inside(t0, t1))


@dataclass
class RoundResult:
    start: float
    end: float
    times: list  # (start, end) of each operation, wall clock
    records: list  # (op, result, error)
    spans: list = field(default_factory=list)


def run_round(gen, traced: bool, round_no: int) -> RoundResult:
    """Drive one round generator; time every operation."""
    records = []
    times = []
    spans = []
    send: Any = None
    throw: Optional[BaseException] = None
    t_start = perf_counter()
    while True:
        try:
            op = gen.throw(throw) if throw is not None else gen.send(send)
        except (StopIteration, OpFailed):  # an unhandled failure ends the round
            break
        throw = None
        t0 = perf_counter()
        try:
            result = op.fn(*op.args)
        except Exception as exc:  # a failed operation is data, not a crash
            t1 = perf_counter()
            records.append((op, None, f"{type(exc).__name__}: {exc}"))
            throw = OpFailed(op.name)
            send = None
        else:
            t1 = perf_counter()
            records.append((op, result, None))
            send = result
        times.append((t0, t1))
        if traced:
            spans.append((op.name, t0, t1, round_no, len(records) - 1, op.tag))
    t_end = perf_counter()
    if traced:
        spans.append(("round", t_start, t_end, None, round_no, None))
    return RoundResult(t_start, t_end, times, records, spans)


def interleave(rng, seqs):
    """Merge op sequences into one round in a seeded order.

    Each sequence keeps its own order, since a later op may use an
    earlier one's result.  At every step a randomly drawn active
    sequence issues its next op.  This spreads every kind of operation
    over the round, so a few seconds in which the shared machine runs
    slow do not all fall on one kind.  A sequence whose op failed is
    dropped.
    """
    active = []
    for seq in seqs:
        try:
            active.append([seq, next(seq)])
        except StopIteration:
            pass
    while active:
        i = rng.randrange(len(active))
        seq, op = active[i]
        try:
            result = yield op
        except OpFailed:
            seq.close()
            active.pop(i)
            continue
        try:
            active[i][1] = seq.send(result)
        except StopIteration:
            active.pop(i)


def judge(rr: RoundResult, digest: Optional["hashlib._Hash"]):
    """Run the oracles of a finished round.

    Returns (failed, unexpected failures as messages, work counts).
    """
    failed = 0
    unexpected = []
    counts: dict = {}
    for op, result, error in rr.records:
        if error is None and op.check is not None:
            try:
                error = op.check(result)
            except Exception as exc:  # an oracle crash is a failed check
                error = f"oracle raised {type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            if not op.known_defect:
                unexpected.append(f"{op.name}: {error}")
        elif op.count is not None:
            for k, v in op.count(result).items():
                counts[k] = counts.get(k, 0) + v
        if digest is not None:
            text = "error" if result is None else op.key(result)
            digest.update(f"{op.name}\x00{text}\x01".encode())
    return failed, unexpected, counts


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]

