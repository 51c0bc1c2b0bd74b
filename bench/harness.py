"""Running instances through reeseq in-process, and checking the verdicts.

An operation is what `reeseq <op>` does after reading the matrix file:
build the semigroup, parse the words, and decide with witness search on.
Only public functions of reeseq's modules are called.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

import refeval
from workloads import MATRICES

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPS = 15
CALIB_EVERY_S = 0.2   # timed work between two speed samples
# Median of Speed.sample() on a 2-vCPU x86-64 VM (CPython 3.11), the speed
# every scaled figure is expressed at
CALIB_REF_S = 0.009
FAILURES = ("BudgetExceededError", "WitnessSearchError",
            "UnsupportedMatrixError", "OtherReesError", "NonReesError")


class CheckFailure(Exception):
    """A wrong verdict or a witness that fails the reference check."""


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics declared in
    BENCHMARK.json, in declared order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def load_program():
    """Import reeseq afresh and build every structure matrix."""
    for name in [n for n in sys.modules
                 if n == "reeseq" or n.startswith("reeseq.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"reeseq.{m}")
            for m in ("core", "words", "decide", "groups", "reductions",
                      "errors")}
    prog = SimpleNamespace(**mods)
    prog.mats = {name: prog.core.matrix(rows)
                 for name, rows in MATRICES.items()}
    return prog


def failure_name(errors, exc) -> str:
    """The FAILURES name an exception counts under (errors: reeseq.errors)."""
    name = type(exc).__name__
    if not isinstance(exc, errors.ReesError):
        return "NonReesError"
    return name if name in FAILURES else "OtherReesError"


def _target(prog, text, S):
    if text == "0":
        return prog.core.ZERO
    if text == "1":
        return prog.core.ONE
    return prog.words.parse_polynomial(text, S).word[0].elem


def run_op(prog, inst, brute: bool):
    """One operation; returns (verdict, polynomial built by reeseq or None)."""
    M = prog.mats[inst.matrix]
    d = prog.decide
    if inst.op == "sigma-zero":
        G = prog.reductions.simple_graph(*inst.graph)
        poly = prog.reductions.sigma(G).polynomial
        return d.pol_zero(M, poly, allow_brute=brute), poly
    S = prog.core.combinatorial(M, inst.identity)
    ps = [prog.words.parse_polynomial(t, S) for t in inst.words]
    kw = {"adjoin_identity": inst.identity, "allow_brute": brute}
    if inst.op == "term-eq":
        v = (d.term_eq_s1 if inst.identity else d.term_eq)(M, *ps)
    elif inst.op == "term-eq-group":
        v = d.term_eq_group(M, prog.groups.cyclic_group(inst.group), *ps)
    elif inst.op == "pol-zero":
        v = d.pol_zero(M, ps[0], **kw)
    elif inst.op == "zset-eq":
        v = d.pol_zset_eq(M, *ps, **kw)
    elif inst.op == "pol-eq":
        v = d.pol_eq(M, *ps, **kw)
    else:
        v = d.pol_sat(M, ps[0], _target(prog, inst.target, S), **kw)
    return v, None


def _element(e):
    if e.kind == "zero":
        return refeval.ZERO
    if e.kind == "one":
        return refeval.ONE
    return (e.i, e.g, e.lam)


def _symbols(poly):
    return tuple(("v", s.name) if s.is_var else ("c", _element(s.elem))
                 for s in poly.word)


def check_answer(inst, kind: str, witness, printed: bool = True) -> None:
    """Compare a verdict kind with the expected answer and re-check the
    witness (a name -> reference element mapping) of a negative or sat
    verdict.  printed=False is for output that carries no witnesses."""
    if kind != inst.expected:
        raise CheckFailure(f"{inst.op} on {inst.matrix}: got {kind}, "
                           f"expected {inst.expected} for {inst.words}")
    if kind not in refeval.NEGATIVE_KINDS or not printed:
        return
    if witness is None:
        raise CheckFailure(f"{inst.op}: {kind} verdict without a witness")
    words = inst.checked_words
    names = refeval.variables(*words)
    if set(names) - set(witness):
        raise CheckFailure(f"{inst.op}: witness misses variables")
    target = refeval.parse_element(inst.target) if inst.target else None
    if not refeval.verdict_holds(inst.semigroup(), inst.op, words, target,
                                 witness):
        raise CheckFailure(f"{inst.op} on {inst.matrix}: witness {witness} "
                           f"fails for {inst.words}")


def check(inst, verdict, poly=None) -> None:
    witness = None
    if verdict.witness is not None:
        witness = {n: _element(e) for n, e in verdict.witness.assignment}
    if poly is not None:
        inst = inst.with_words(_symbols(poly))
    check_answer(inst, verdict.kind, witness)


# ---------------------------------------------------------------------------
# The closed loop

@dataclass
class LoopResult:
    """Outcomes of whole passes over a fixed pool of items."""
    samples: list = field(default_factory=list)  # per item: seconds per pass
    pass_s: list = field(default_factory=list)   # wall time of each pass
    pass_correct: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    attempted: int = 0
    correct: int = 0
    by_construction: int = 0
    reference_checked: int = 0
    first_error: str = ""

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def count_check(self, inst) -> None:
        self.correct += 1
        if inst.basis == "construction":
            self.by_construction += 1
        else:
            self.reference_checked += 1

    def fail(self, name: str, what: str) -> float:
        """Record a failed item; it ranks as infinitely slow."""
        self.failures[name] += 1
        if not self.first_error:
            self.first_error = what
        return math.inf

    def latencies(self, keep=None) -> list:
        """Every pass's latency of every item (inf for a failure);
        keep(index), if given, selects the items."""
        return [x for k, s in enumerate(self.samples)
                if keep is None or keep(k) for x in s]

    def verdicts_per_s(self) -> float:
        """Median over passes of correct verdicts per second of wall time,
        the time of failed items included."""
        return statistics.median(c / s for c, s in
                                 zip(self.pass_correct, self.pass_s))


def closed_loop(pool, run_item, seconds: float, speed=None) -> LoopResult:
    """One caller: run_item(index, item, res) runs one item, records its
    outcome in res and returns (latency_s, checking_s); the next item starts
    when it returns.  Whole passes over the pool until their wall time,
    checking left out, reaches `seconds`; at least one pass.  With a Speed,
    a speed sample is taken after every CALIB_EVERY_S of work and left out
    of the wall time too."""
    res = LoopResult(samples=[[] for _ in pool])
    last = time.perf_counter()
    while True:
        untimed = 0.0
        before = res.correct
        t0 = time.perf_counter()
        for idx, item in enumerate(pool):
            latency, checked = run_item(idx, item, res)
            res.samples[idx].append(latency)
            untimed += checked
            if speed is not None and time.perf_counter() - last \
                    >= CALIB_EVERY_S:
                untimed += speed.sample()
                last = time.perf_counter()
        res.pass_s.append(time.perf_counter() - t0 - untimed)
        res.pass_correct.append(res.correct - before)
        if sum(res.pass_s) >= seconds:
            return res


def op_runner(prog, brute: bool, span=None):
    """run_item for in-process operations; span(item, index), if given,
    makes the context each operation runs in."""
    def run_item(idx, inst, res):
        res.attempted += 1
        ctx = span(inst, idx) if span else contextlib.nullcontext()
        t = time.perf_counter()
        try:
            with ctx:
                verdict, poly = run_op(prog, inst, brute)
        except Exception as exc:  # every exception is a failed operation
            return res.fail(failure_name(prog.errors, exc),
                            f"{inst.op} on {inst.matrix}: {exc!r}"), 0.0
        latency = time.perf_counter() - t
        t = time.perf_counter()
        check(inst, verdict, poly)
        res.count_check(inst)
        return latency, time.perf_counter() - t
    return run_item


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; failures sort above every success."""
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def percentile_ms(samples, q: float, res: LoopResult) -> float:
    """A percentile in ms; a failure that lands on it counts as taking a
    whole pass, the longest any item of the run could take."""
    v = percentile(samples, q)
    return (statistics.median(res.pass_s) if math.isinf(v) else v) * 1e3


def median_setup(setup, speed):
    """Run setup() SETUP_REPS times from a collected heap, each after a
    speed sample; returns the last result and the wall times."""
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        speed.sample()
        t = time.perf_counter()
        out = setup()
        times.append(time.perf_counter() - t)
    return out, times


def scaled(raw: dict, scale: float) -> dict:
    """Times multiplied, rates divided by a run's Speed.scale()."""
    return {k: v / scale if k == "verdicts_per_s" else v * scale
            for k, v in raw.items()}


class Speed:
    """How fast the machine runs through one run, from a fixed computation
    of the benchmark's own: an exhaustive reference-evaluator scan, pure
    Python like reeseq but none of its code.  A virtual machine on a shared
    host can change speed by tens of percent within seconds and over
    minutes; a run's times multiplied by scale() are those of a machine on
    which the computation takes CALIB_REF_S, which cancels that drift,
    while a change in reeseq shows in full."""

    H3 = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    WORD = "x y z x [1,1] y"   # 1000 assignments over H3, all evaluated
    REPS = 2

    def __init__(self):
        self.S = refeval.Semigroup(self.H3)
        self.word = refeval.parse_word(self.WORD)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the computation once; returns the seconds it took."""
        t = time.perf_counter()
        for _ in range(self.REPS):
            if refeval.first_witness(self.S, "term-eq",
                                     (self.word, self.word), None):
                raise AssertionError("a word differs from itself")
        dt = time.perf_counter() - t
        self.samples.append(dt)
        return dt

    def scale(self) -> float:
        return CALIB_REF_S / statistics.median(self.samples)

    def report(self) -> str:
        return (f"speed: {len(self.samples)} samples, median "
                f"{statistics.median(self.samples) * 1e3:.3f} ms, times "
                f"scaled by {self.scale():.4f} to a {CALIB_REF_S * 1e3:g} ms "
                f"machine")


# ---------------------------------------------------------------------------
# Output

def emit(correct: bool, attempted: int, failed: int, values: dict,
         kind: str) -> None:
    """Readable metric lines, then the result as the last line of JSON.
    values must hold exactly the `kind` metrics of BENCHMARK.json."""
    units = metric_units(kind)
    if set(values) != set(units):
        raise KeyError(f"metrics not in BENCHMARK.json: "
                       f"{sorted(set(values) - set(units))}, missing: "
                       f"{sorted(set(units) - set(values))}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": u}
                                  for n, u in units.items()}}))


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def write_spans(tracer, name: str, seed: int) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{name}-seed{seed}.tsv.gz")
    tracer.write(path)
    print(f"{len(tracer)} spans written to {os.path.relpath(path, ROOT)}")
