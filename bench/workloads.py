"""Workload definitions and deterministic instance generation.

A workload is a list of slots.  One cycle holds one instance per slot, so
the mix of op kinds, matrix classes and answers is fixed by the slot list;
the seed only chooses the words, variable names and graphs.  Every instance
carries its expected answer, established here without reeseq: either by
construction (a rewrite that preserves the function, a dead constant pair,
a constant endpoint that fixes a coordinate, a brute-force 3-coloring) or
by the reference evaluator (a sampled witness it re-checked, or exhaustive
enumeration under a cap).
"""

from __future__ import annotations

import random
import string
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

from refeval import (ENUM_CAP, NEGATIVE, POSITIVE, Semigroup, classify,
                     enumerate_answer, find_witness, parse_word,
                     three_colorable, variables, word_text)

MATRICES = {
    # all-ones
    "J22": ((1, 1), (1, 1)),
    "J23": ((1, 1, 1), (1, 1, 1)),
    # totally balanced
    "I2": ((1, 0), (0, 1)),
    "I3": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "I4": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "T32": ((1, 0), (0, 1), (0, 1)),
    "T33": ((1, 1, 0), (1, 1, 0), (0, 0, 1)),
    "T23": ((1, 1, 0), (0, 0, 1)),
    "T34": ((1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    # bordered
    "BI2": ((1, 0, 1), (0, 1, 1), (1, 1, 1)),
    "BH2": ((0, 1, 1), (1, 0, 1), (1, 1, 1)),
    "BI3": ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1)),
    # no fast path
    "H3": ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
    "C3": ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
    "H4": ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)),
    "N23": ((1, 1, 0), (0, 1, 1)),
}


@dataclass(frozen=True)
class Slot:
    op: str
    matrix: str
    polarity: str        # "+": equal / zero / unsat; "-": the other answer
    k: tuple             # variable counts, cycled through across cycles
    identity: bool = False
    consts: int = 0      # constants mixed into each word
    ends: int = 0        # pol-eq: distinct end variables of two zero words
    group: int = 1       # order of the cyclic group (term-eq-group)
    mutation: int = -1   # negatives: the mutation kind, -1 for any


@dataclass(frozen=True)
class Instance:
    op: str
    matrix: str
    identity: bool
    words: tuple
    target: str | None
    expected: str
    basis: str           # "construction" or "reference"
    group: int = 1
    graph: tuple | None = None
    symbols: tuple = ()  # parsed words, when reeseq built them (sigma)

    @cached_property
    def checked_words(self) -> tuple:
        """The words in reference form, for checking witnesses."""
        return self.symbols or tuple(parse_word(w) for w in self.words)

    def with_words(self, symbols) -> "Instance":
        return replace(self, symbols=(symbols,))

    @property
    def matrix_class(self) -> str:
        return "group" if self.group > 1 else classify(MATRICES[self.matrix])

    def semigroup(self) -> Semigroup:
        return Semigroup(MATRICES[self.matrix], self.group, self.identity)

    @property
    def space(self) -> int:
        """Assignments an exhaustive scan enumerates: |S|^vars."""
        size = (self.group if self.op == "term-eq-group"
                else self.semigroup().size)
        return size ** len(variables(*(parse_word(w) for w in self.words)))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple
    brute: bool          # allow_brute for the decide calls
    declared: dict       # per-cycle counts by op, class and identity


# -- fastpath: small words on fast-path classes, plain and with identity ------

_FASTPATH = (
    Slot("term-eq", "J22", "+", (2, 3)),
    Slot("term-eq", "J23", "-", (2, 3)),
    Slot("term-eq", "I2", "+", (2, 3, 4)),
    Slot("term-eq", "I3", "-", (2, 3)),
    Slot("term-eq", "T33", "+", (3, 4)),
    Slot("term-eq", "BI2", "-", (2, 3)),
    Slot("term-eq", "BH2", "+", (2, 3)),
    Slot("term-eq", "J22", "+", (2, 3), identity=True),
    Slot("term-eq", "I2", "+", (2, 3, 4), identity=True),
    Slot("term-eq", "I2", "-", (2, 3), identity=True),
    Slot("term-eq", "T32", "+", (3, 4), identity=True),
    Slot("term-eq", "BI2", "+", (2, 3), identity=True),
    Slot("pol-zero", "I2", "+", (1, 2, 3), consts=2),
    Slot("pol-zero", "I3", "-", (2, 3), consts=2),
    Slot("pol-zero", "T33", "+", (2, 3), consts=2),
    Slot("pol-zero", "BI2", "+", (2, 3), consts=2),
    Slot("pol-zero", "BH2", "-", (2, 3, 4), consts=2),
    Slot("pol-zero", "J23", "-", (1, 2, 3), consts=2),
    Slot("pol-zero", "I2", "+", (2, 3), consts=2, identity=True),
    Slot("pol-zero", "T32", "-", (2, 3, 4), consts=2, identity=True),
    Slot("pol-zero", "BI2", "+", (2, 3), consts=2, identity=True),
    Slot("pol-zero", "J22", "-", (1, 2), consts=1, identity=True),
    Slot("zset-eq", "J23", "+", (2, 3), consts=1),
    Slot("zset-eq", "J23", "-", (2, 3), consts=1),
    Slot("zset-eq", "I2", "+", (2, 3), consts=2),
    Slot("zset-eq", "I2", "-", (2, 3), consts=2),
    Slot("zset-eq", "T33", "+", (2, 3), consts=1),
    Slot("zset-eq", "BI2", "+", (2, 3), consts=1),
    Slot("zset-eq", "BI2", "-", (2, 3), consts=1),
    Slot("zset-eq", "BH2", "+", (2, 3), consts=1),
    Slot("zset-eq", "J22", "-", (2, 3), consts=1, identity=True),
    Slot("zset-eq", "I3", "+", (2, 3), consts=1, identity=True),
    Slot("zset-eq", "T33", "-", (2, 3), consts=1, identity=True),
    Slot("pol-eq", "I2", "+", (2, 3), consts=1),
    Slot("pol-eq", "I2", "-", (2, 3), consts=1),
    Slot("pol-eq", "T33", "+", (2, 3), consts=1),
    Slot("pol-eq", "BI2", "+", (2, 3), consts=1),
    Slot("pol-eq", "BI2", "-", (2, 3), consts=1),
    Slot("pol-eq", "J22", "+", (2, 3), consts=1),
    Slot("pol-sat", "I2", "-", (1, 2, 3), consts=1),
    Slot("pol-sat", "I2", "+", (2, 3), consts=1),
    Slot("pol-sat", "BH2", "-", (2, 3), consts=1),
    Slot("pol-sat", "BH2", "+", (2, 3), consts=1),
    Slot("pol-sat", "T33", "-", (2, 3), consts=1),
    Slot("pol-sat", "J23", "-", (1, 2), consts=1),
)

# The fanout and oracle cycles are laid out so that p50 and p90 each fall
# inside a block of operations of similar cost: a percentile that sits in a
# gap between cost levels jumps with small changes in the inputs.

# -- fanout: one decision fans out into 2^k slices or (mn)^e zero tests -------

def _s1(op, matrix, k, polarity="+", **kw):
    return Slot(op, matrix, polarity, (k,), identity=True,
                consts=0 if op == "term-eq" else 1, **kw)


_FANOUT = (
    *(_s1(op, m, k) for op in ("term-eq", "pol-zero", "zset-eq")
      for k, m in zip(range(7, 12), ("I2", "I3", "T33", "I2", "I3"))),
    # the block around the median: term-eq and pol-zero at k = 9
    *(_s1(op, m, 9) for op in ("term-eq", "pol-zero")
      for m in ("I2", "I3", "T33", "I2")),
    # the fixed minority of identity-adjoined negatives: at k = 8 the
    # witness comes from exhaustive search, at k = 10 it exceeds the budget
    _s1("term-eq", "I2", 8, "-"),
    _s1("term-eq", "I2", 10, "-"),
    _s1("zset-eq", "I3", 9, "-", mutation=4),
    _s1("pol-zero", "T33", 11, "-"),
    # endpoint scans over identically-zero words
    Slot("pol-eq", "I3", "+", (3,), ends=3),
    Slot("pol-eq", "BI2", "+", (3,), ends=3),
    Slot("pol-eq", "T34", "+", (3,), ends=3),
    Slot("pol-eq", "BI2", "-", (3, 4), consts=1),
    Slot("pol-sat", "I4", "+", (3, 4), consts=1),
    Slot("pol-sat", "BI3", "+", (3, 4), consts=1),
    Slot("pol-sat", "BI3", "-", (3, 4), consts=1),
)

# -- oracle: no fast path, the exhaustive enumerator decides ----------------

_ORACLE = (
    # full scans of about 10^5 assignments: the block around p90
    Slot("pol-zero", "H3", "+", (5,), consts=2),
    Slot("pol-zero", "C3", "+", (5,), consts=2),
    Slot("pol-zero", "H4", "+", (4,), consts=2),
    Slot("zset-eq", "H3", "+", (4,), consts=1),
    Slot("zset-eq", "N23", "+", (5,), consts=1),
    Slot("pol-eq", "H3", "+", (4,), consts=1),
    Slot("pol-eq", "C3", "+", (4,), consts=1),
    Slot("pol-zero", "H3", "+", (4,), consts=2),
    Slot("pol-sat", "H3", "+", (4,), consts=1),
    Slot("pol-sat", "C3", "+", (4,), consts=1),
    Slot("pol-eq", "H4", "+", (3,), consts=1),
    # three-variable full scans: the block around the median
    Slot("zset-eq", "H3", "+", (3,), consts=1),
    Slot("pol-eq", "H3", "+", (3,), consts=1),
    Slot("pol-eq", "C3", "+", (3,), consts=1),
    Slot("pol-sat", "BI2", "+", (3,), identity=True, consts=1),
    Slot("pol-zero", "C3", "+", (3,), consts=2),
    Slot("pol-zero", "H3", "+", (3,), consts=2),
    Slot("pol-sat", "H3", "+", (3,), consts=1),
    Slot("pol-sat", "C3", "+", (3,), consts=1),
    # witnesses found early, identity-adjoined pol-eq/pol-sat, group lift
    Slot("pol-zero", "H3", "-", (4,), consts=2),
    Slot("pol-zero", "N23", "-", (4,), consts=2),
    Slot("zset-eq", "C3", "-", (3,), consts=1),
    Slot("pol-eq", "N23", "-", (4,), consts=1),
    Slot("pol-sat", "H3", "-", (3,), consts=1),
    Slot("pol-eq", "I2", "+", (3,), identity=True, consts=1),
    Slot("pol-eq", "J22", "-", (3,), identity=True, consts=1),
    Slot("pol-sat", "I2", "-", (3,), identity=True, consts=1),
    Slot("term-eq-group", "I2", "+", (3,), group=3),
    Slot("term-eq-group", "J22", "-", (3,), group=2),
    Slot("sigma-zero", "H3", "?", (3, 4, 5, 4)),
)

# -- cli: single processes and --file batches (instances per single call) ----

CLI_SINGLES = (
    Slot("term-eq", "I2", "+", (2, 3)),
    Slot("term-eq", "BI2", "-", (2, 3)),
    Slot("pol-zero", "I2", "+", (2, 3), consts=2),
    Slot("pol-zero", "BH2", "-", (2, 3), consts=2),
    Slot("pol-sat", "I2", "-", (2, 3), consts=1),
    Slot("pol-sat", "BH2", "+", (2, 3), consts=1),
    Slot("zset-eq", "I2", "+", (2, 3), consts=2),
    Slot("zset-eq", "BI2", "-", (2, 3), consts=1),
)
CLI_BATCH_ZERO = (
    Slot("pol-zero", "BI2", "+", (2, 3), consts=2),
    Slot("pol-zero", "BI2", "-", (2, 3, 4), consts=2),
)
CLI_BATCH_EQ = (
    Slot("pol-eq", "BI2", "+", (2, 3), consts=1),
    Slot("pol-eq", "BI2", "-", (2, 3), consts=1),
)
CLI_BATCH_LINES = 200


def _declare(ops: dict, classes: dict, identity: int) -> dict:
    return {"ops": ops, "classes": classes, "identity": identity}


WORKLOADS = {
    "fastpath": Workload(
        "fastpath",
        "all five ops on all-ones, balanced and bordered matrices up to 3x3 "
        "with 1-4 variables: per-call overhead (semigroup construction, "
        "parsing, classify_matrix, graphs, witness re-checks) dominates",
        _FASTPATH, False,
        _declare({"term-eq": 12, "pol-zero": 10, "zset-eq": 11, "pol-eq": 6,
                  "pol-sat": 6},
                 {"all-ones": 10, "balanced": 22, "bordered": 13},
                 12)),
    "fanout": Workload(
        "fanout",
        "identity-adjoined term-eq, pol-zero and zset-eq with 7-11 variables "
        "(2^k slices) and pol-eq/pol-sat endpoint scans on 3x3 and 4x4: "
        "graphs and term_profile run thousands of times per verdict",
        _FANOUT, False,
        _declare({"term-eq": 11, "pol-zero": 10, "zset-eq": 6, "pol-eq": 4,
                  "pol-sat": 3},
                 {"balanced": 30, "bordered": 4},
                 27)),
    "oracle": Workload(
        "oracle",
        "matrices with no fast path (H3, 3-cycle, hollow(4), 2x3), pol-eq and "
        "pol-sat with identity, the group lift and sigma(G): the exhaustive "
        "enumerator does nearly all the work",
        _ORACLE, True,
        _declare({"pol-zero": 8, "zset-eq": 4, "pol-eq": 8, "pol-sat": 7,
                  "term-eq-group": 2, "sigma-zero": 1},
                 {"general": 24, "balanced": 2, "all-ones": 1, "bordered": 1,
                  "group": 2},
                 4)),
}


# Cycles in the fixed pool that a timed run repeats: whole periods of the
# slots' k rotations (the cli count is of CLI_SINGLES cycles), few enough
# that every run makes several passes over the pool
POOL_CYCLES = {"fastpath": 24, "fanout": 4, "oracle": 16, "cli": 2}


# ---------------------------------------------------------------------------
# Word construction

class _Gen:
    """Random words over one semigroup, all answers established locally."""

    def __init__(self, rng: random.Random, S: Semigroup):
        self.rng = rng
        self.S = S
        self.rows = S.rows

    def names(self, k):
        return [("v", x) for x in self.rng.sample(string.ascii_lowercase, k)]

    def const(self):
        return ("c", self.rng.choice([e for e in self.S.triples if e[1] == 0]))

    def dead_pair(self):
        pairs = [(a, b) for a in self.S.triples for b in self.S.triples
                 if a[1] == b[1] == 0 and self.rows[a[2]][b[0]] == 0]
        a, b = self.rng.choice(pairs)
        return [("c", a), ("c", b)]

    def live(self, word) -> bool:
        """No adjacent constant pair is dead."""
        return not any(x[0] == y[0] == "c" and self.rows[x[1][2]][y[1][0]] == 0
                       for x, y in zip(word, word[1:]))

    def word(self, vs, length, consts):
        """Random word using every variable of vs at least once."""
        w = list(vs)
        while len(w) < length:
            w.append(self.rng.choice(vs))
        self.rng.shuffle(w)
        for _ in range(consts):
            w.insert(self.rng.randrange(len(w) + 1), self.const())
        return w

    def insert(self, w, factor):
        t = self.rng.randrange(len(w) + 1)
        return w[:t] + factor + w[t:], t

    def rewrite_pair(self, w, plain, power):
        """(p, q) equal as functions: p holds u u and q holds u u u (or, over
        the plain semigroup, u v u against u v u v u); power > 1 repeats the
        extra u for a cyclic group of that order."""
        def pick(n):
            return [self.rng.choice(w) for _ in range(n)]
        if plain and power == 1 and self.rng.random() < 0.5:
            u, v = pick(1), pick(self.rng.choice((1, 2)))
            p, t = self.insert(w, u + v + u)
            q = p[:t] + u + v + u + v + u + p[t + len(u + v + u):]
            return p, q
        u = pick(self.rng.choice((1, 2)))
        p, t = self.insert(w, u + u)
        q = p[:t] + u * (2 + power) + p[t + 2 * len(u):]
        return p, q

    def mutate(self, w, kind):
        w = list(w)
        kind = self.rng.randrange(5) if kind < 0 else kind
        t = self.rng.randrange(len(w))
        vs = sorted({s for s in w if s[0] == "v"})
        if kind == 4 and len(vs) > 1:
            gone = self.rng.choice(vs)
            w = [s for s in w if s != gone]
        elif kind == 0 and len(w) > 1:
            t = min(t, len(w) - 2)
            w[t], w[t + 1] = w[t + 1], w[t]
        elif kind == 1 and vs:
            w[t] = self.rng.choice(vs)
        elif kind == 2 and len(w) > 1:
            del w[t]
        else:
            w.insert(t, w[t])
        return w


def random_graph(rng: random.Random, n: int, density: float):
    """A connected graph on n vertices: a random tree plus random edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[j], order[rng.randrange(j)])))
             for j in range(1, n)}
    edges |= {(a, b) for a in range(n) for b in range(a + 1, n)
              if rng.random() < density}
    return n, tuple(sorted(edges))


def _vars_of(*ws):
    return {s for w in ws for s in w if s[0] == "v"}


def make_instance(slot: Slot, rng: random.Random, cycle: int) -> Instance:
    """The instance for a slot in a given cycle."""
    k = slot.k[cycle % len(slot.k)]
    S = Semigroup(MATRICES[slot.matrix], slot.group, slot.identity)
    g = _Gen(rng, S)
    plain = not slot.identity
    length = 2 * k
    op = slot.op

    def done(words, expected, basis, target=None, graph=None):
        return Instance(op, slot.matrix, slot.identity,
                        tuple(word_text(w) for w in words), target, expected,
                        basis, slot.group, graph)

    if op == "sigma-zero":
        n, edges = random_graph(rng, k, 0.5)
        expected = "not-zero" if three_colorable(n, edges) else "zero"
        return done((), expected, "construction", graph=(n, edges))

    for _ in range(200):
        vs = g.names(k)
        if op == "pol-sat":
            w = g.word(vs, length, slot.consts)
            if slot.polarity == "+":
                # unsat: a constant end fixes a coordinate the target lacks,
                # or a dead constant pair kills every value
                if S.n >= 2 and rng.random() < 0.5:
                    c = g.const()
                    w = [c] + w
                    i = rng.choice([i for i in range(S.n) if i != c[1][0]])
                    b = (i, 0, rng.randrange(S.m))
                else:
                    w, _ = g.insert(w, g.dead_pair())
                    b = rng.choice(S.triples)
                return done((w,), "unsat", "construction",
                            target=word_text([("c", b)]))
            if not g.live(w):
                continue
            a = find_witness(S, "pol-zero", (w,), None, rng)
            if a is None:
                continue
            b = S.value(w, a)
            return done((w,), "sat", "reference", target=word_text([("c", b)]))

        if op == "pol-zero":
            w = g.word(vs, length, slot.consts)
            if slot.polarity == "+":
                w, _ = g.insert(w, g.dead_pair())
                return done((w,), "zero", "construction")
            if g.live(w) and find_witness(S, op, (w,), None, rng):
                return done((w,), "not-zero", "reference")
            continue

        if op == "pol-eq" and slot.ends:
            # two identically-zero words with `ends` distinct end variables
            names = g.names(k + 4)
            vs, (a, b, c, d) = names[:k], names[k:]
            p, _ = g.insert(g.word(vs, length, 0), g.dead_pair())
            q, _ = g.insert(g.word(vs, length, 0), g.dead_pair())
            p = [a] + p + [b]
            q = [c] + q + [b if slot.ends == 3 else d]
            return done((p, q), "equal", "construction")

        w = g.word(vs, length, slot.consts)
        if slot.polarity == "+":
            p, q = g.rewrite_pair(w, plain, power=slot.group)
            return done((p, q), POSITIVE[op], "construction")
        p = w
        for _ in range(20):
            q = g.mutate(p, slot.mutation)
            if q == p or _vars_of(q) - _vars_of(p):
                continue
            if op == "term-eq-group":
                size = S.size ** len(_vars_of(p))
                if size > ENUM_CAP:
                    continue
                if enumerate_answer(S, op, (p, q)) == NEGATIVE[op]:
                    return done((p, q), NEGATIVE[op], "reference")
                continue
            if find_witness(S, op, (p, q), None, rng):
                return done((p, q), NEGATIVE[op], "reference")
    raise RuntimeError(f"could not generate an instance for {slot}")


def generate(slots, seed: int, cycles: int) -> list:
    """`cycles` cycles of instances, one per slot each, in slot order."""
    rng = random.Random(seed)
    return [make_instance(s, rng, c) for c in range(cycles) for s in slots]


def shares(instances) -> dict:
    """Counts by op, matrix class and identity flag."""
    return {"ops": Counter(i.op for i in instances),
            "classes": Counter(i.matrix_class for i in instances),
            "identity": sum(i.identity for i in instances)}
