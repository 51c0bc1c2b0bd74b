"""Tests of the benchmark itself: generation, reference answers, tracing.

    python3 -m pytest bench
"""

import json
import os
import statistics
import subprocess
import sys
import time

import pytest

import cliload
import harness
import layers
import refeval
import tracing
from workloads import (CLI_BATCH_EQ, CLI_BATCH_ZERO, CLI_SINGLES, WORKLOADS,
                       generate, shares)

sys.path.insert(0, harness.SRC)

I2 = ((1, 0), (0, 1))
H3 = ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def answer(rows, op, *texts, identity=False):
    S = refeval.Semigroup(rows, identity=identity)
    return refeval.enumerate_answer(
        S, op, tuple(refeval.parse_word(t) for t in texts))


def test_reference_reproduces_worked_facts():
    assert answer(I2, "term-eq", "x x y y", "y y x x") == "equal"
    assert answer(I2, "pol-zero", "[1,1] x x [2,2]") == "zero"
    assert answer(H3, "term-eq", "x y", "y x") == "not-equal"
    assert answer(I2, "pol-zero", "x y") == "not-zero"
    # with the identity adjoined, x y x and x x y differ (README example)
    assert answer(I2, "term-eq", "x y x", "x x y", identity=True) \
        == "not-equal"


def test_reference_product_rule():
    S = refeval.Semigroup(I2, order=3, identity=True)
    assert S.mul((0, 1, 0), (0, 2, 1)) == (0, 0, 1)
    assert S.mul((0, 1, 1), (0, 2, 1)) == refeval.ZERO
    assert S.mul(refeval.ONE, (1, 0, 1)) == (1, 0, 1)
    assert S.size == 2 * 2 * 3 + 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic(name):
    slots = WORKLOADS[name].slots
    assert generate(slots, 5, 2) == generate(slots, 5, 2)
    assert generate(slots, 5, 2) != generate(slots, 6, 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rationale_matches_generated_mix(name):
    wl = WORKLOADS[name]
    cycles = 3
    got = shares(generate(wl.slots, 11, cycles))
    want = wl.declared
    assert got["ops"] == {k: v * cycles for k, v in want["ops"].items()}
    assert got["classes"] == {k: v * cycles
                              for k, v in want["classes"].items() if v}
    assert got["identity"] == want["identity"] * cycles


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_expected_answers_hold_under_enumeration(name):
    """Constructed and sampled answers agree with exhaustive enumeration
    wherever the space is small enough to enumerate."""
    seen = 0
    for inst in generate(WORKLOADS[name].slots, 3, 2):
        if inst.op == "sigma-zero" or inst.space > 20_000:
            continue
        S = inst.semigroup()
        target = refeval.parse_element(inst.target) if inst.target else None
        assert refeval.enumerate_answer(S, inst.op, inst.checked_words,
                                        target) == inst.expected, inst
        seen += 1
    assert seen >= 5


def test_cli_instances_hold_under_enumeration():
    for slots in (CLI_SINGLES, CLI_BATCH_ZERO, CLI_BATCH_EQ):
        for inst in generate(slots, 4, 2):
            S = inst.semigroup()
            target = (refeval.parse_element(inst.target) if inst.target
                      else None)
            assert refeval.enumerate_answer(
                S, inst.op, inst.checked_words, target) == inst.expected


def test_sigma_expectation_follows_coloring():
    assert refeval.three_colorable(3, ((0, 1), (1, 2), (0, 2)))
    k4 = tuple((a, b) for a in range(4) for b in range(a + 1, 4))
    assert not refeval.three_colorable(4, k4)


def test_check_rejects_wrong_verdicts_and_witnesses():
    inst = generate(WORKLOADS["fastpath"].slots, 1, 1)[1]  # term-eq, "-"
    assert inst.expected == "not-equal"
    with pytest.raises(harness.CheckFailure):
        harness.check_answer(inst, "equal", None)
    with pytest.raises(harness.CheckFailure):
        harness.check_answer(inst, "not-equal", None)
    names = refeval.variables(*inst.checked_words)
    S = inst.semigroup()
    same = {x: S.triples[0] for x in names}
    if refeval.verdict_holds(S, inst.op, inst.checked_words, None, same):
        pytest.skip("constant assignment happens to distinguish")
    with pytest.raises(harness.CheckFailure):
        harness.check_answer(inst, "not-equal", same)


def test_percentile_ranks_failures_last():
    lat = [0.001] * 8 + [float("inf")] * 2
    assert harness.percentile(lat, 0.5) == 0.001
    assert harness.percentile(lat, 0.9) == float("inf")


def test_cli_exit_code_accounting():
    inst = generate(CLI_SINGLES, 1, 1)[0]  # term-eq, "+"
    call = cliload.Call("verdict", [], inst)
    assert cliload._check_verdict(call, 0, "verdict: equal\n") == 1
    assert cliload._check_verdict(call, 2, "") is None       # failure
    assert cliload._check_verdict(call, 1, "Traceback") is None  # crash
    with pytest.raises(harness.CheckFailure):
        cliload._check_verdict(call, 1, "verdict: equal\n")
    assert cliload._parse_witness("x = [1,2], y#1 = 0, z = 1") == {
        "x": (0, 0, 1), "y#1": refeval.ZERO, "z": refeval.ONE}


def test_closed_loop_runs_whole_passes():
    def run_item(idx, item, res):
        time.sleep(item)
        res.correct += 1
        return item, 0.0
    res = harness.closed_loop([0.001, 0.002, 0.0], run_item, 0.02)
    passes = len(res.pass_s)
    assert passes >= 2 and sum(res.pass_s) >= 0.02
    assert [len(s) for s in res.samples] == [passes] * 3
    assert res.latencies() == [0.001] * passes + [0.002] * passes \
        + [0.0] * passes
    assert res.latencies(lambda k: k == 1) == [0.002] * passes
    assert res.pass_correct == [3] * passes
    once = harness.closed_loop([0.0], run_item, 0)
    assert len(once.pass_s) == 1


def test_speed_samples_stay_out_of_the_timed_passes():
    class SlowSpeed(harness.Speed):
        def sample(self):
            time.sleep(0.1)
            self.samples.append(0.1)
            return 0.1

    def run_item(idx, item, res):
        time.sleep(item)
        return item, 0.0
    speed = SlowSpeed()
    res = harness.closed_loop([0.05] * 6, run_item, 0.5, speed)
    # a sample after every CALIB_EVERY_S of work, none inside a pass's time
    assert len(speed.samples) >= len(res.pass_s) * 0.3 \
        / (harness.CALIB_EVERY_S + 0.05)
    assert all(0.3 <= s < 0.38 for s in res.pass_s)


def test_speed_scale_and_scaled_figures():
    speed = harness.Speed()
    for _ in range(3):
        speed.sample()
    assert speed.scale() == pytest.approx(
        harness.CALIB_REF_S / statistics.median(speed.samples))
    raw = {"verdict_ms_p50": 2.0, "setup_s": 1.0, "verdicts_per_s": 100.0}
    assert harness.scaled(raw, 0.5) == {"verdict_ms_p50": 1.0,
                                        "setup_s": 0.5,
                                        "verdicts_per_s": 200.0}


def test_failures_are_classified_by_exception_type():
    prog = harness.load_program()
    name = harness.failure_name
    assert name(prog.errors, KeyError("x")) == "NonReesError"
    assert name(prog.errors, prog.errors.BudgetExceededError("b")) \
        == "BudgetExceededError"
    assert name(prog.errors, prog.errors.ParseError("p")) == "OtherReesError"


def test_traced_failures_count_non_rees_exceptions():
    prog = harness.load_program()
    tracer = tracing.Tracer(prog.errors)
    restore = tracing.instrument(tracer)
    try:
        # a decide call that crashes with an exception reeseq does not define
        with pytest.raises(AttributeError):
            with tracer.root("op.pol-zero", 0):
                prog.decide.pol_zero(prog.mats["I2"], None)
    finally:
        restore()
    out = layers.span_metrics(tracer, [None])
    assert out["decide.failed.NonReesError"] == 1
    assert sum(out[f"decide.failed.{n}"] for n in harness.FAILURES) == 1


def test_instrument_wraps_every_binding():
    prog = harness.load_program()
    import reeseq.decide as decide
    import reeseq.graphs as graphs
    import reeseq.groups as groups
    import reeseq.core as core
    original = graphs.components
    tracer = tracing.Tracer(prog.errors)
    restore = tracing.instrument(tracer)
    try:
        assert decide.components is graphs.components is not original
        assert core.trivial_group is groups.trivial_group
        assert core.trivial_group.__wrapped__ is not None
        with tracer.root("op.test", 0):
            M = core.matrix(I2)
            decide.pol_zero(M, __import__("reeseq").word_of("x y"))
    finally:
        restore()
    assert graphs.components is original and decide.components is original
    st = tracing.SpanStats(tracer)
    assert st.calls["decide.pol_zero"] == 1
    assert st.calls["graphs.components"] >= 1
    root = 0
    assert tracer.parent[root] == -1
    assert all(tracer.rid[k] == 0 for k in range(len(tracer)))
    total = tracer.end[root] - tracer.start[root]
    assert sum(st.self_s) == pytest.approx(total, rel=1e-6)


def test_benchmark_json_declares_what_is_computed():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(list(WORKLOADS) + ["cli"])
    prog = harness.load_program()
    span_figures = layers.span_metrics(tracing.Tracer(prog.errors), [])
    assert set(span_figures) <= set(harness.metric_units("per_layer"))


def _trace_counts(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, os.path.join(harness.BENCH, "run.py"),
         "--workload", "fastpath", "--seed", "3", "--seconds", "1",
         "--trace", "1"],
        env=env, capture_output=True, text=True, timeout=170, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] == "count"}


def test_traced_call_counts_repeat_exactly():
    assert _trace_counts(1) == _trace_counts(2)
