"""Per-layer metrics: figures derived from a traced pass, and scaling curves.

The metric names and units are those BENCHMARK.json declares under
"per_layer"; bench/README.md says which end-to-end metric each should move.
A layer a workload never reaches reads 0.
"""

from __future__ import annotations

import random
import statistics
import time

from harness import FAILURES, check, metric_units, run_op
from tracing import NEGATIVE, OK, RAISED, SpanStats
from workloads import Slot, make_instance

CALLS = ("core.combinatorial", "groups.trivial_group", "words.evaluate",
         "decide.classify_matrix", "matrices.retract", "decide.term_profile",
         "graphs.components", "matrices.hat_transform",
         "decide.zset_constraints", "words.substitute_elements")
SELF_MS = ("core.combinatorial", "groups.trivial_group",
           "words.parse_polynomial", "words.evaluate",
           "decide.classify_matrix", "decide.term_profile",
           "graphs.components", "graphs.build_bipartite",
           "graphs.antichain_table", "reductions.sigma")
KS = range(7, 12)
SCAN_MATRICES = (("I2", 4), ("T23", 6), ("I3", 9), ("T34", 12), ("I4", 16))
ORACLE_VARS = range(2, 6)
ORACLE_SIZES = (("N23", 7), ("H3", 10), ("H4", 17))
CURVE_REPS = 3


def span_metrics(tracer, requests) -> dict:
    """Layer figures from a traced pass; requests[rid] is the instance."""
    st = SpanStats(tracer)
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = st.calls.get(name, 0)
    for name in SELF_MS:
        out[f"{name}.self_ms"] = st.self_ms.get(name, 0.0)

    out["decide.pol_zero.nested_calls"] = sum(
        1 for k in st.spans(lambda n: n == "decide.pol_zero")
        if st.has_ancestor(k, ("decide.pol_eq", "decide.pol_sat")))

    decide_names = {n for n in tracer.names if n.startswith("decide.")}
    outer = [k for k in st.spans(lambda n: n in decide_names)
             if not st.has_ancestor(k, decide_names)]
    out["decide.negative_self_ms"] = sum(
        st.self_s[k] for k in outer if tracer.outcome[k] == NEGATIVE) * 1e3
    failed = dict.fromkeys(FAILURES, 0)
    for k in outer:
        if tracer.outcome[k] == RAISED:
            failed[tracer.errors[k]] += 1
    for name, n in failed.items():
        out[f"decide.failed.{name}"] = n

    brute = st.spans(lambda n: n.startswith("decide.brute_"))
    out["decide.brute.calls"] = len(brute)
    out["decide.brute.self_ms"] = sum(st.self_s[k] for k in brute) * 1e3
    full = [k for k in brute if tracer.outcome[k] == OK]
    evals = sum(requests[tracer.rid[k]].space for k in full)
    busy = sum(st.self_s[k] for k in full)
    out["decide.oracle_evals_per_s"] = evals / busy if busy else 0.0
    return out


# ---------------------------------------------------------------------------
# Scaling curves: latency of single operations at stated sizes, untraced

def _median_ms(prog, inst, brute) -> float:
    times = []
    for _ in range(CURVE_REPS):
        t = time.perf_counter()
        verdict, poly = run_op(prog, inst, brute)
        times.append(time.perf_counter() - t)
        check(inst, verdict, poly)
    return statistics.median(times) * 1e3


def fanout_curves(prog, seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    for op, consts, label in (("term-eq", 0, "term_eq_s1"),
                              ("pol-zero", 1, "pol_zero_s1"),
                              ("zset-eq", 1, "zset_eq_s1")):
        for k in KS:
            inst = make_instance(Slot(op, "I2", "+", (k,), identity=True,
                              consts=consts), rng, 0)
            out[f"fanout.{label}_ms.k{k}"] = _median_ms(prog, inst, False)
    for name, mn in SCAN_MATRICES:
        inst = make_instance(Slot("pol-eq", name, "+", (3,), ends=3), rng, 0)
        out[f"fanout.pol_eq_scan_ms.mn{mn}"] = _median_ms(prog, inst, False)
    return out


def oracle_curves(prog, seed: int) -> dict:
    """pol-zero on identically-zero words: a full scan of |S|^vars."""
    rng = random.Random(seed)
    out = {}
    for v in ORACLE_VARS:
        inst = make_instance(Slot("pol-zero", "H3", "+", (v,), consts=1), rng, 0)
        out[f"oracle.brute_ms.v{v}"] = _median_ms(prog, inst, True)
    for name, size in ORACLE_SIZES:
        inst = make_instance(Slot("pol-zero", name, "+", (4,), consts=1), rng, 0)
        out[f"oracle.brute_ms.s{size}"] = _median_ms(prog, inst, True)
    return out


def traced_metrics(tracer, requests, by_construction: int,
                   reference_checked: int, overhead: float) -> dict:
    """Every per-layer metric: span figures, check counts and the tracing
    overhead (traced over untraced verdicts per second); curves and the
    CLI start-up breakdown read 0 until the caller fills them in."""
    values = dict.fromkeys(metric_units("per_layer"), 0)
    values.update(span_metrics(tracer, requests))
    values["check.by_construction"] = by_construction
    values["check.reference_checked"] = reference_checked
    values["trace.overhead"] = overhead
    return values
