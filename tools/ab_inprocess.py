"""Time two source trees of reeseq on one bench workload, in one interpreter.

    python3 tools/ab_inprocess.py BEFORE AFTER --workload oracle \
        --seed 7 [13 21 ...] --seconds 20

BEFORE and AFTER are source trees (each holding src/reeseq, or reeseq
itself).  Each tree's package is copied under its own name (reeseq_a,
reeseq_b) into a temporary directory, so both load side by side.  The
workload's pool, as the bench generates it, runs on both trees: each
instance on one tree, then at once on the other, so a drift of the
machine's speed reaches both alike.  Whichever tree runs second gains from
the first one's warm caches, so the run is made twice, each order for half
the time, and each order's result is printed: per op, the sum over the
pool's slots of each slot's median time, then the total and the ratio
BEFORE / AFTER (above 1 when AFTER is faster).  Last come each op's ratio
and the total's, each the mean of the two orders'.  Given several seeds,
the tool does all of this for each seed's pool in turn, --seconds per
seed, and ends with one line of every seed's total ratio.  Every verdict
is checked against the instance's expected answer, as the bench does, and
the two trees' (kind, method, witness, detail) are compared on every
instance, the witness and the detail rows as text, rendered as reeseq.cli
renders them (each tree has its own classes, so their values never compare
equal).

Nothing under bench/ is changed; its modules are imported as they are.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from harness import check, run_op  # noqa: E402
from workloads import MATRICES, POOL_CYCLES, WORKLOADS, generate  # noqa: E402

MODULES = ("core", "words", "decide", "groups", "reductions", "errors")


def package_dir(tree: str) -> str:
    for path in (os.path.join(tree, "src", "reeseq"),
                 os.path.join(tree, "reeseq")):
        if os.path.isfile(os.path.join(path, "__init__.py")):
            return path
    raise SystemExit(f"error: no reeseq package under {tree}")


def load(tree: str, name: str, into: str) -> SimpleNamespace:
    """The tree's reeseq, copied to into/name and imported as name, in the
    shape bench/harness.load_program gives."""
    shutil.copytree(package_dir(tree), os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    prog = SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                              for m in MODULES})
    prog.mats = {k: prog.core.matrix(rows) for k, rows in MATRICES.items()}
    return prog


def stable(part) -> str:
    """A detail row's part as text, as reeseq.cli._stable renders it: a
    frozenset sorted, whatever the hash seed."""
    if isinstance(part, frozenset):
        return "{" + ", ".join(sorted(stable(x) for x in part)) + "}"
    if isinstance(part, tuple):
        return "(" + ", ".join(stable(x) for x in part) + ")"
    return str(part)


def outcome(verdict) -> tuple:
    return (verdict.kind, verdict.method, str(verdict.witness),
            tuple(tuple(stable(part) for part in row)
                  for row in verdict.detail))


def warm(progs, pool, brute: bool) -> int:
    """Run every instance once on each tree, checking each verdict; the
    number of instances on which the trees' outcomes differ."""
    differ = 0
    for inst in pool:
        seen = set()
        for prog in progs:
            verdict, poly = run_op(prog, inst, brute)
            check(inst, verdict, poly)
            seen.add(outcome(verdict))
        differ += len(seen) > 1
    return differ


def timed(progs, pool, brute: bool, seconds: float) -> list:
    """Per tree, per slot, the seconds of each run, alternating the trees
    per instance in the given order until seconds have passed."""
    samples = [[[] for _ in pool] for _ in progs]
    clock = time.perf_counter
    end = clock() + seconds
    while True:
        for idx, inst in enumerate(pool):
            for k, prog in enumerate(progs):
                t = clock()
                run_op(prog, inst, brute)
                samples[k][idx].append(clock() - t)
        if clock() >= end:
            return samples


def report(label: str, pool, samples) -> dict:
    """Print the sums of per-slot medians of trees A and B (samples in that
    order) by op and in all; returns the ratio of A's sum to B's by op,
    and in all under "total"."""
    medians = [[statistics.median(s) for s in tree] for tree in samples]
    print(f"{label}: {len(samples[0][0])} passes over {len(pool)} instances "
          "(sum of per-slot medians, us)")
    ratios = {}
    for op in sorted({inst.op for inst in pool}) + ["total"]:
        sums = [sum(m for m, inst in zip(tree, pool)
                    if op in ("total", inst.op))
                for tree in medians]
        ratios[op] = sums[0] / sums[1]
        print(f"  {op:16s}" + "".join(f" {n} {s * 1e6:10.1f}"
                                      for n, s in zip("AB", sums))
              + f"  ratio {ratios[op]:.3f}")
    return ratios


def run_seed(progs, ns, seed: int) -> tuple[int, float]:
    """Check and time one seed's pool on both trees, printing its tables;
    the number of instances whose outcomes differ, and the mean of both
    orders' total ratio."""
    wl = WORKLOADS[ns.workload]
    pool = generate(wl.slots, seed, POOL_CYCLES[ns.workload])
    differ = warm(progs, pool, wl.brute)
    print(f"{ns.workload} seed {seed}: {len(pool)} instances, "
          f"{differ} with differing (kind, method, witness, detail)")
    ratios = []
    for label, order in (("order A,B", 1), ("order B,A", -1)):
        gc.collect()
        samples = timed(progs[::order], pool, wl.brute, ns.seconds / 2)
        ratios.append(report(label, pool, samples[::order]))
    print("mean of both orders:")
    for op in ratios[0]:
        if op != "total":
            print(f"  {op:16s}  ratio "
                  f"{statistics.mean(r[op] for r in ratios):.3f}")
    total = statistics.mean(r["total"] for r in ratios)
    print(f"ratio A/B, mean of the two orders: {total:.3f} "
          f"(A = {ns.before}, B = {ns.after})")
    return differ, total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--workload", required=True,
                    choices=("fastpath", "fanout", "oracle"))
    ap.add_argument("--seed", type=int, nargs="+", required=True,
                    help="one or more pool seeds, each run in turn")
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed seconds per seed, split between the two "
                         "orders")
    ns = ap.parse_args(argv)
    tmp = tempfile.mkdtemp(prefix="ab_inprocess_")
    sys.path.insert(0, tmp)
    try:
        progs = (load(ns.before, "reeseq_a", tmp),
                 load(ns.after, "reeseq_b", tmp))
        results = [run_seed(progs, ns, seed) for seed in ns.seed]
        if len(results) > 1:
            print("ratio A/B by seed: " + ", ".join(
                f"{seed} {total:.3f}"
                for seed, (_, total) in zip(ns.seed, results)))
        return 1 if any(differ for differ, _ in results) else 0
    finally:
        sys.path.remove(tmp)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
