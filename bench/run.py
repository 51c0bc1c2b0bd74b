"""The reeseq benchmark: one command, named workloads, checked verdicts.

    python3 bench/run.py --workload fastpath --seed 1 --seconds 20 --trace 0

Workloads: fastpath, fanout, oracle (in-process, one caller in a closed
loop) and cli (one `python -m reeseq.cli` child process at a time).  The
seed fixes every generated input.  With --trace 0 the last line of stdout
is a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a separate traced pass.  Human-readable lines,
including sample counts, come before it.  A wrong verdict or a witness
that fails the reference check stops the run with exit code 1.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time

import cliload
import layers
import tracing
from harness import (SETUP_REPS, SRC, CheckFailure, Speed, closed_loop,
                     emit, load_program, median_setup, op_runner,
                     peak_rss_mb, percentile_ms, scaled, write_spans)
from workloads import POOL_CYCLES, WORKLOADS, generate

TRACE_CYCLES = {"fastpath": 6, "fanout": 1, "oracle": 8}


def report_loop(res, label: str) -> None:
    n = res.attempted
    print(f"{label}: {len(res.pass_s)} passes over {len(res.samples)} "
          f"instances, {n} operations, {res.correct} correct verdicts, "
          f"{res.failed} failed in {sum(res.pass_s):.3f} s (p50 over {n} "
          f"samples, {n - math.ceil(0.5 * n)} above it; p90 with "
          f"{n - math.ceil(0.9 * n)} above it)")
    print(f"  failed_share {res.failed / max(res.attempted, 1):.6f} "
          f"{dict(res.failures)}")
    print(f"  checked by construction {res.by_construction}, by the "
          f"reference evaluator {res.reference_checked}")
    if res.first_error:
        print(f"  first failure: {res.first_error}")


# ---------------------------------------------------------------------------
# In-process workloads

def make_cycles(workload, seed: int):
    pool = generate(workload.slots, seed, POOL_CYCLES[workload.name])
    n = len(workload.slots)
    return [pool[c * n:(c + 1) * n] for c in range(len(pool) // n)]


def setup_inprocess(cycles):
    """Import reeseq, build the matrices, warm up every semigroup's
    classification and multiplication table."""
    prog = load_program()
    for inst in cycles[0]:
        M = prog.mats[inst.matrix]
        S = prog.core.combinatorial(M, inst.identity)
        x = prog.words.parse_polynomial("x", S)
        prog.decide.pol_zero(M, x, adjoin_identity=inst.identity,
                             allow_brute=True)
        first = prog.words.parse_polynomial("[1,1]", S).word[0].elem
        prog.decide.pol_sat(M, x, first, adjoin_identity=inst.identity,
                            allow_brute=True)
    return prog


def run_inprocess(workload, seed: int, seconds: float) -> int:
    t = time.perf_counter()
    cycles = make_cycles(workload, seed)
    pool = [inst for c in cycles for inst in c]
    print(f"generated {len(pool)} instances in "
          f"{time.perf_counter() - t:.3f} s")
    speed = Speed()
    prog, times = median_setup(lambda: setup_inprocess(cycles), speed)
    try:
        res = closed_loop(pool, op_runner(prog, workload.brute), seconds,
                          speed)
    except CheckFailure as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    report_loop(res, f"{workload.name} seed {seed}")
    lat = res.latencies()
    raw = {"setup_s": statistics.median(times),
           "verdict_ms_p50": percentile_ms(lat, 0.5, res),
           "verdict_ms_p90": percentile_ms(lat, 0.9, res),
           "verdicts_per_s": res.verdicts_per_s()}
    print(f"  setup_s over {SETUP_REPS} set-ups: "
          f"{[round(t, 4) for t in times]}")
    print(f"  unscaled: {raw}")
    print(f"  {speed.report()}")
    values = scaled(raw, speed.scale())
    values.update({"decided_share": (res.attempted - res.failed)
                   / res.attempted,
                   "peak_rss_mb": peak_rss_mb()})
    emit(True, res.attempted, res.failed, values, "end_to_end")
    return 0


def trace_inprocess(workload, seed: int) -> int:
    cycles = make_cycles(workload, seed)
    prog = setup_inprocess(cycles)
    instances = [i for c in cycles[:TRACE_CYCLES[workload.name]] for i in c]
    try:
        base = closed_loop(instances, op_runner(prog, workload.brute), 0)
        tracer = tracing.Tracer(prog.errors)
        restore = tracing.instrument(tracer)
        try:
            traced = closed_loop(instances, op_runner(
                prog, workload.brute,
                span=lambda inst, idx: tracer.root(f"op.{inst.op}", idx)), 0)
        finally:
            restore()
        curves = {}
        if workload.name == "fanout":
            curves = layers.fanout_curves(prog, seed)
        elif workload.name == "oracle":
            curves = layers.oracle_curves(prog, seed)
    except CheckFailure as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    report_loop(base, "untraced pass")
    report_loop(traced, "traced pass")
    values = layers.traced_metrics(
        tracer, instances, traced.by_construction, traced.reference_checked,
        traced.verdicts_per_s() / base.verdicts_per_s())
    values.update(curves)
    write_spans(tracer, workload.name, seed)
    emit(True, traced.attempted, traced.failed, values, "per_layer")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("fastpath", "fanout", "oracle", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reeseq", "__init__.py")):
        print(f"error: no reeseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if ns.workload == "cli":
        return (cliload.trace(ns.seed) if ns.trace
                else cliload.run(ns.seed, ns.seconds))
    wl = WORKLOADS[ns.workload]
    if ns.trace:
        return trace_inprocess(wl, ns.seed)
    return run_inprocess(wl, ns.seed, ns.seconds)


if __name__ == "__main__":
    sys.exit(main())
