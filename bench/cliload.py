"""The cli workload: one `python -m reeseq.cli` child process at a time.

A cycle runs every single-call instance of one pool cycle (term-eq,
pol-zero, pol-sat, zset-eq), one `reduce 3col`, one `gen rank1` and one
`--file` batch (pol-zero and pol-eq batches alternate).  The CLI is started
with the repository's src on PYTHONPATH; nothing is installed.

Exit codes follow the CLI's contract: 0 or 1 with a printed verdict is a
decided operation, 2 is a failure, and 1 without a verdict is a crash,
which is a failure too.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import layers
import refeval
import tracing
from harness import (OUT, SETUP_REPS, SRC, CheckFailure, Speed,
                     check_answer, closed_loop, emit, load_program,
                     median_setup, peak_rss_mb, percentile_ms, scaled,
                     write_spans)
from workloads import (CLI_BATCH_EQ, CLI_BATCH_LINES, CLI_BATCH_ZERO,
                       CLI_SINGLES, MATRICES, POOL_CYCLES, generate,
                       random_graph)

CYCLES = POOL_CYCLES["cli"]
EXIT_0 = frozenset(("equal", "zero", "sat"))  # the CLI's positive verdicts
RANK1 = ((2, 3), (5, 2))      # gen rank1 p n, one per cycle
GRAPH_SIZES = (4, 6)          # reduce 3col, one graph per cycle
MODULES = ("reeseq", "reeseq.errors", "reeseq.groups", "reeseq.core",
           "reeseq.words", "reeseq.graphs", "reeseq.matrices",
           "reeseq.decide", "reeseq.fields", "reeseq.reductions")
STARTUP_REPS = 7
TIMEOUT_S = 120
CLI = ("-m", "reeseq.cli")


class Call:
    """One CLI invocation and what its output must show."""

    def __init__(self, kind, argv, inst=None, expect=None):
        self.kind = kind        # "verdict", "reduce", "gen" or "batch"
        self.argv = argv
        self.inst = inst        # verdict: the instance; batch: the lines
        self.expect = expect    # reduce: (n, edges); gen: (p, n)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def generate_inputs(seed: int):
    """Single-call instances, batch lines and graphs for one seed."""
    rng = random.Random(seed)
    return (generate(CLI_SINGLES, seed, CYCLES),
            generate(CLI_BATCH_ZERO, seed + 1,
                     CLI_BATCH_LINES // len(CLI_BATCH_ZERO)),
            generate(CLI_BATCH_EQ, seed + 2,
                     CLI_BATCH_LINES // len(CLI_BATCH_EQ)),
            [random_graph(rng, n, 0.3) for n in GRAPH_SIZES])


def write_inputs(inputs, out_dir: str):
    """Write matrix, batch and graph files; returns the cycles of calls."""
    singles, zero_lines, eq_lines, graphs = inputs
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name in sorted({i.matrix for i in singles + zero_lines + eq_lines}):
        rows = MATRICES[name]
        paths[name] = os.path.join(out_dir, f"{name}.mat")
        _write(paths[name], f"{len(rows)} {len(rows[0])}\n" + "".join(
            " ".join(map(str, r)) + "\n" for r in rows))

    def single(inst):
        argv = [inst.op, "--matrix", paths[inst.matrix]]
        if inst.identity:
            argv.append("--adjoin-identity")
        argv += list(inst.words) + ([inst.target] if inst.target else [])
        return Call("verdict", argv, inst)

    def batch(op, lines):
        path = os.path.join(out_dir, f"batch-{op}.txt")
        _write(path, "".join(
            (f"EQ {i.words[0]} | {i.words[1]}" if len(i.words) == 2
             else i.words[0]) + "\n" for i in lines))
        return Call("batch", [op, "--matrix", paths[lines[0].matrix],
                              "--file", path], lines)

    reduces = []
    for j, (n, edges) in enumerate(graphs):
        path = os.path.join(out_dir, f"g{j}.graph")
        _write(path, f"{n} {len(edges)}\n" + "".join(
            f"{a + 1} {b + 1}\n" for a, b in edges))
        reduces.append(Call("reduce", ["reduce", "3col", path],
                            expect=(n, edges)))
    gens = [Call("gen", ["gen", "rank1", str(p), str(n)], expect=(p, n))
            for p, n in RANK1]
    batches = [batch("pol-zero", zero_lines), batch("pol-eq", eq_lines)]
    per = len(CLI_SINGLES)
    cycles = []
    for c in range(CYCLES):
        calls = [single(i) for i in singles[c * per:(c + 1) * per]]
        calls += [reduces[c], gens[c], batches[c % 2]]
        cycles.append(calls)
    return cycles


def _env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def spawn(args, src):
    """Run one interpreter to completion; (wall_s, code, stdout, stderr)."""
    t = time.perf_counter()
    r = subprocess.run([sys.executable, *args], env=_env(src),
                       capture_output=True, text=True, timeout=TIMEOUT_S)
    return time.perf_counter() - t, r.returncode, r.stdout, r.stderr


# ---------------------------------------------------------------------------
# Output checks: each returns the number of checked verdicts, or None for a
# failed call (exit 2, or a crash); a wrong answer raises CheckFailure.

def _parse_witness(text):
    out = {}
    for part in text.split(", "):
        name, value = part.split(" = ")
        out[name.strip()] = refeval.parse_element(value)
    return out


def _check_verdict(call, code, stdout):
    lines = dict(ln.split(": ", 1) for ln in stdout.splitlines()
                 if ": " in ln)
    kind = lines.get("verdict")
    if code not in (0, 1) or kind is None:
        return None
    inst = call.inst
    if code != (0 if kind in EXIT_0 else 1):
        raise CheckFailure(f"{inst.op}: exit {code} with verdict {kind}")
    witness = lines.get("witness")
    check_answer(inst, kind.strip(),
                 _parse_witness(witness) if witness else None)
    return 1


def _check_batch(call, code, stdout):
    got = [ln.split(": ", 1)[1].split(" [")[0]
           for ln in stdout.splitlines() if ln.startswith("line ")]
    if code not in (0, 1) or len(got) != len(call.inst):
        return None
    worst = 0
    for inst, kind in zip(call.inst, got):
        check_answer(inst, kind, None, printed=False)
        worst = max(worst, 0 if kind in EXIT_0 else 1)
    if code != worst:
        raise CheckFailure(f"batch exit {code}, expected {worst}")
    return len(got)


def _check_reduce(call, code, stdout):
    if code != 0:
        return None
    n, edges = call.expect
    poly, mapping = stdout.splitlines()[:2]
    mapping = json.loads(mapping)
    walk = [v - 1 for v in mapping["walk"]]
    if (mapping["vertices"] != n or mapping["edges"] != len(edges)
            or not refeval.is_closed_double_walk(walk, edges)
            or len(poly.split()) != 50 * len(walk)):
        raise CheckFailure(f"reduce 3col output does not match the graph "
                           f"{call.expect}")
    return 0


def _check_gen(call, code, stdout):
    if code != 0:
        return None
    p, n = call.expect
    lines = stdout.split("\n")
    rows = tuple(tuple(int(v) for v in ln.split()) for ln in lines[1:] if ln)
    want = refeval.rank1_rows(p, n)
    # the units group of GF(2) is trivial, and trivial groups go unnamed
    head = [str(len(want))] * 2 + ([f"units{p}"] if p > 2 else [])
    if lines[0].split() != head or rows != want:
        raise CheckFailure(f"gen rank1 {p} {n} printed another matrix")
    return 0


CHECKS = {"verdict": _check_verdict, "batch": _check_batch,
          "reduce": _check_reduce, "gen": _check_gen}


def record(call, code, stdout, res) -> bool:
    """Check one call's output and count it in res; False for a failure."""
    res.attempted += 1
    if CHECKS[call.kind](call, code, stdout) is None:
        res.fail("exit2" if code == 2 else "crash",
                 f"{' '.join(call.argv)}: exit {code}")
        return False
    checked = {"batch": call.inst, "verdict": [call.inst]}
    for inst in checked.get(call.kind, ()):
        res.count_check(inst)
    return True


def run_call(idx, call, res):
    """run_item for closed_loop: one child process."""
    wall, code, stdout, _ = spawn([*CLI, *call.argv], SRC)
    t = time.perf_counter()
    ok = record(call, code, stdout, res)
    return (wall if ok else math.inf), time.perf_counter() - t


def _setup(inputs, out_dir):
    cycles = write_inputs(inputs, out_dir)
    warm = cycles[0][0]
    _, code, stdout, _ = spawn([*CLI, *warm.argv], SRC)
    if _check_verdict(warm, code, stdout) is None:
        raise CheckFailure(f"warm-up call failed with exit {code}")
    return cycles


def run(seed: int, seconds: float) -> int:
    out_dir = os.path.join(OUT, "cli")
    inputs = generate_inputs(seed)
    try:
        speed = Speed()
        cycles, times = median_setup(lambda: _setup(inputs, out_dir), speed)
        pool = [call for cyc in cycles for call in cyc]
        res = closed_loop(pool, run_call, seconds, speed)
    except CheckFailure as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1

    def kind(*kinds):
        return res.latencies(lambda k: pool[k].kind in kinds)
    verdict_s, call_s = kind("verdict"), kind("verdict", "reduce", "gen")
    batch_lines = sum(len(c.inst) for c in pool if c.kind == "batch")
    v, n = len(verdict_s), len(call_s)
    print(f"cli seed {seed}: {len(res.pass_s)} passes over {len(pool)} "
          f"processes, {res.attempted} processes, {res.failed} failed "
          f"{dict(res.failures)}, {res.correct} correct verdicts in "
          f"{sum(res.pass_s):.3f} s; {v} single verdict calls "
          f"({v - math.ceil(0.9 * v)} above p90), {n} single calls in all, "
          f"{batch_lines} batch lines per pass")
    print(f"  failed_share {res.failed / res.attempted:.6f}; checked by "
          f"construction {res.by_construction}, by the reference "
          f"evaluator {res.reference_checked}")
    print(f"  cli_call_ms_p50 {percentile_ms(call_s, 0.5, res):.3f} ms, "
          f"cli_call_ms_p90 {percentile_ms(call_s, 0.9, res):.3f} ms "
          f"(n={n}), cli_batch_verdicts_per_s "
          f"{len(res.pass_s) * batch_lines / sum(kind('batch')):.2f} 1/s")
    print(f"  setup_s over {SETUP_REPS} set-ups: "
          f"{[round(t, 4) for t in times]}")
    raw = {"setup_s": statistics.median(times),
           "verdict_ms_p50": percentile_ms(verdict_s, 0.5, res),
           "verdict_ms_p90": percentile_ms(verdict_s, 0.9, res),
           "verdicts_per_s": res.verdicts_per_s()}
    print(f"  unscaled: {raw}")
    print(f"  {speed.report()}")
    values = scaled(raw, speed.scale())
    values.update({"decided_share": 1 - res.failed / res.attempted,
                   "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)})
    emit(True, res.attempted, res.failed, values, "end_to_end")
    return 0


# ---------------------------------------------------------------------------
# Traced run: start-up breakdown from child processes, layers in-process

def _importtime(stderr):
    """{module: (self_us, cumulative_us, top_level)} from -X importtime."""
    out = {}
    for ln in stderr.splitlines():
        if not ln.startswith("import time:") or "imported package" in ln:
            continue
        self_us, cum_us, name = ln[len("import time:"):].split("|")
        out[name.strip()] = (int(self_us), int(cum_us),
                             not name[1:].startswith(" "))
    return out


def startup_breakdown(src, argv) -> dict:
    interp = [spawn(["-c", "pass"], src) for _ in range(STARTUP_REPS)]
    _, _, _, base = spawn(["-X", "importtime", "-c", "pass"], src)
    baseline = set(_importtime(base))
    totals, per_mod = [], {m: [] for m in MODULES}
    for _ in range(STARTUP_REPS):
        _, _, _, err = spawn(["-X", "importtime", *CLI, *argv], src)
        table = _importtime(err)
        totals.append(sum(cum for name, (_, cum, top) in table.items()
                          if top and name not in baseline) / 1e3)
        for m in MODULES:
            per_mod[m].append(table.get(m, (0, 0, False))[0] / 1e3)
    out = {"cli.interpreter_ms": statistics.median(w for w, *_ in interp)
           * 1e3,
           "cli.import_ms": statistics.median(totals)}
    for m, vals in per_mod.items():
        out[f"cli.import.{m.split('.')[-1]}_ms"] = statistics.median(vals)
    return out


def main_runner(main, tracer=None):
    """run_item for closed_loop: reeseq.cli.main(argv) in-process, output
    captured, inside a root span when tracing."""
    def run_item(idx, call, res):
        out, err = io.StringIO(), io.StringIO()
        span = (tracer.root(f"op.cli.{call.argv[0]}", idx) if tracer
                else contextlib.nullcontext())
        t = time.perf_counter()
        with span, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = main(call.argv)
            except SystemExit as exc:  # argparse rejecting the arguments
                code = exc.code
            except Exception:  # a crash: exit 1 without a verdict
                code = 1
        wall = time.perf_counter() - t
        t = time.perf_counter()
        ok = record(call, code, out.getvalue(), res)
        return (wall if ok else math.inf), time.perf_counter() - t
    return run_item


def trace(seed: int) -> int:
    out_dir = os.path.join(OUT, "cli")
    try:
        cycles = write_inputs(generate_inputs(seed), out_dir)
        values = startup_breakdown(SRC, cycles[0][0].argv)
        prog = load_program()
        import reeseq.cli as cli
        calls = [c for cyc in cycles for c in cyc]

        # look cli.main up on each call, so the traced pass gets the wrapper
        def main(argv):
            return cli.main(argv)
        base = closed_loop(calls, main_runner(main), 0)
        tracer = tracing.Tracer(prog.errors)
        restore = tracing.instrument(tracer)
        try:
            traced = closed_loop(calls, main_runner(main, tracer), 0)
        finally:
            restore()
    except CheckFailure as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    for label, r in (("untraced", base), ("traced", traced)):
        print(f"{label} in-process pass: {r.attempted} calls, "
              f"{r.correct} correct verdicts, {r.failed} failed "
              f"in {r.pass_s[0]:.3f} s")
    requests = [c.inst if c.kind == "verdict" else None for c in calls]
    metrics = layers.traced_metrics(
        tracer, requests, traced.by_construction, traced.reference_checked,
        traced.verdicts_per_s() / base.verdicts_per_s())
    metrics.update(values)
    metrics["cli.main.self_ms"] = tracing.SpanStats(tracer).self_ms.get(
        "cli.main", 0.0)
    write_spans(tracer, "cli", seed)
    emit(True, traced.attempted, traced.failed, metrics, "per_layer")
    return 0
