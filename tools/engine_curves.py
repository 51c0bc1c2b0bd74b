"""Scaling curves of the homomorphism engine for two source trees of reeseq.

    python3 tools/engine_curves.py BEFORE AFTER --seed 1

BEFORE and AFTER are source trees, loaded side by side as in
ab_inprocess.py.  Two curves, each point the mean over a few instances of
each instance's median time over --reps calls, the trees alternating per
call and their order per repetition:

* word length: random words over the hollow 3x3 matrix H3 with k = 3..12
  variables and 3k symbols, timed for pol-zero and for pol-eq against the
  same word with one square u u written u u u (an equal word with the same
  adjacent pairs);
* sigma size: pol-zero over H3 of sigma(G), the coloring reduction, for
  random connected graphs G on 3..8 vertices (the bench's random_graph,
  edge density 0.4).

Every verdict of the two trees is compared; the columns are milliseconds
and the ratio BEFORE / AFTER.
"""

from __future__ import annotations

import argparse
import random
import shutil
import statistics
import sys
import tempfile
import time
from functools import partial

from ab_inprocess import load
from workloads import random_graph

H3 = ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def word_pair(rng, k: int) -> tuple[str, str]:
    """A word over k variables with 3k symbols and a square u u, and the
    same word with that square written u u u."""
    names = [f"v{j}" for j in range(k)]
    syms = names + [rng.choice(names) for _ in range(2 * k - 1)]
    rng.shuffle(syms)
    at = rng.randrange(len(syms))
    syms.insert(at, syms[at])
    longer = syms[:at] + [syms[at]] + syms[at:]
    return " ".join(syms), " ".join(longer)


def median_ms(calls, reps: int) -> list:
    """Per tree, the median milliseconds of its call over reps calls,
    alternating the trees and, per repetition, their order; the verdicts
    of the trees must agree."""
    times = [[] for _ in calls]
    kinds = set()
    for rep in range(reps):
        for k in (0, 1) if rep % 2 == 0 else (1, 0):
            t = time.perf_counter()
            v = calls[k]()
            times[k].append(time.perf_counter() - t)
            kinds.add((v.kind, v.method))
    if len(kinds) > 1:
        raise SystemExit(f"error: the trees disagree: {sorted(kinds)}")
    return [statistics.median(ts) * 1e3 for ts in times]


def row(label, columns) -> str:
    cells = []
    for a, b in columns:
        cells.append(f"{a:9.3f} {b:9.3f} {a / b:6.3f}")
    return f"{label:>10s}  " + "   ".join(cells)


def word_curve(progs, rng, reps: int, count: int) -> None:
    print("word length: H3, ms per word (before, after, ratio)")
    print(f"{'k / len':>10s}  {'pol-zero':^26s}   {'pol-eq u u -> u u u':^26s}")
    for k in range(3, 13):
        pairs = [word_pair(rng, k) for _ in range(count)]
        sums = [[0.0, 0.0], [0.0, 0.0]]
        for texts in pairs:
            words = [[prog.words.parse_polynomial(
                t, prog.core.combinatorial(prog.M)) for t in texts]
                for prog in progs]
            zero = median_ms([partial(prog.decide.pol_zero, prog.M, p)
                              for prog, (p, _) in zip(progs, words)], reps)
            eq = median_ms([partial(prog.decide.pol_eq, prog.M, p, q)
                            for prog, (p, q) in zip(progs, words)], reps)
            for j in range(2):
                sums[0][j] += zero[j] / count
                sums[1][j] += eq[j] / count
        print(row(f"{k} / {3 * k}", sums))


def sigma_curve(progs, rng, reps: int, count: int) -> None:
    print("sigma size: pol-zero of sigma(G) over H3, ms per graph "
          "(before, after, ratio)")
    for n in range(3, 9):
        graphs = [random_graph(rng, n, 0.4) for _ in range(count)]
        sums = [0.0, 0.0]
        symbols = 0
        for _, edges in graphs:
            polys = [prog.reductions.sigma(prog.reductions.simple_graph(
                n, edges)).polynomial for prog in progs]
            symbols += len(polys[0].word) / count
            ms = median_ms([partial(prog.decide.pol_zero, prog.M, p)
                            for prog, p in zip(progs, polys)], reps)
            for j in range(2):
                sums[j] += ms[j] / count
        print(row(f"{n} ({symbols:.0f})", [sums]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=9)
    ap.add_argument("--count", type=int, default=6,
                    help="instances per point")
    ns = ap.parse_args(argv)
    tmp = tempfile.mkdtemp(prefix="engine_curves_")
    sys.path.insert(0, tmp)
    try:
        progs = (load(ns.before, "reeseq_a", tmp),
                 load(ns.after, "reeseq_b", tmp))
        for prog in progs:
            prog.M = prog.core.matrix(H3)
        word_curve(progs, random.Random(ns.seed), ns.reps, ns.count)
        sigma_curve(progs, random.Random(ns.seed), ns.reps, ns.count)
        return 0
    finally:
        sys.path.remove(tmp)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
