"""Reference semantics for checking reeseq's verdicts.

Written straight from the product rule of a Rees matrix semigroup over a
cyclic group Z_k (k = 1 is the combinatorial case):

    [i, g, lam] * [j, h, gam] = [i, g + (M(lam, j) - 1) + h mod k, gam]
                                                   if M(lam, j) != 0
                              = 0                  otherwise,

with ZERO absorbing and an optional adjoined ONE.  It imports nothing from
reeseq, so a verdict checked here is checked against an answer reeseq did
not produce.  Matrices are tuples of rows; M(lam, j) is rows[lam][j].
Elements are ZERO, ONE or (i, g, lam) tuples with 0-based coordinates.
"""

from __future__ import annotations

import itertools
import re

ZERO = "0"
ONE = "1"
ENUM_CAP = 200_000   # largest space enumerate_answer will scan
SAMPLE_TRIES = 40    # random assignments find_witness tries first
SMALL_SPACE = 4000   # find_witness enumerates spaces up to this size

_TOKEN = re.compile(r"(\[(\d+),(\d+)(?:,(\d+))?\]|[A-Za-z_][A-Za-z0-9_#.']*)"
                    r"(?:\^(\d+))?")


class Semigroup:
    """Rees matrix semigroup over Z_order on a matrix given as rows."""

    def __init__(self, rows, order: int = 1, identity: bool = False):
        self.rows = tuple(tuple(r) for r in rows)
        self.m = len(self.rows)
        self.n = len(self.rows[0])
        self.order = order
        self.identity = identity
        self.triples = tuple((i, g, lam) for i in range(self.n)
                             for g in range(order) for lam in range(self.m))
        self.elements = ((ZERO,) + self.triples
                         + ((ONE,) if identity else ()))

    @property
    def size(self) -> int:
        return len(self.elements)

    def mul(self, a, b):
        if a == ZERO or b == ZERO:
            return ZERO
        if a == ONE:
            return b
        if b == ONE:
            return a
        v = self.rows[a[2]][b[0]]
        if v == 0:
            return ZERO
        return (a[0], (a[1] + v - 1 + b[1]) % self.order, b[2])

    def value(self, word, assignment):
        """Fold a parsed word left to right under a variable assignment."""
        acc = None
        for kind, x in word:
            e = assignment[x] if kind == "v" else x
            acc = e if acc is None else self.mul(acc, e)
            if acc == ZERO:
                return ZERO
        return acc


def parse_word(text: str):
    """Parse reeseq word syntax into ("v", name) / ("c", element) symbols."""
    out = []
    for tok in text.split():
        m = _TOKEN.fullmatch(tok)
        if not m:
            raise ValueError(f"bad token {tok!r}")
        if m.group(2):
            g = int(m.group(4)) - 1 if m.group(4) else 0
            sym = ("c", (int(m.group(2)) - 1, g, int(m.group(3)) - 1))
        else:
            sym = ("v", m.group(1))
        out.extend([sym] * int(m.group(5) or 1))
    return tuple(out)


def variables(*words) -> tuple:
    """Variable names of the words in first-occurrence order."""
    return tuple(dict.fromkeys(x for w in words for kind, x in w
                               if kind == "v"))


def element_text(e) -> str:
    if e == ZERO:
        return "0"
    if e == ONE:
        return "1"
    i, g, lam = e
    return f"[{i + 1},{lam + 1}]" if g == 0 else f"[{i + 1},{g + 1},{lam + 1}]"


def parse_element(text: str):
    text = text.strip()
    if text in (ZERO, ONE):
        return text
    (kind, e), = parse_word(text)
    if kind != "c":
        raise ValueError(f"not an element: {text!r}")
    return e


def word_text(word) -> str:
    return " ".join(x if kind == "v" else element_text(x) for kind, x in word)


# ---------------------------------------------------------------------------
# Answers

def verdict_holds(S: Semigroup, op: str, words, target, assignment) -> bool:
    """Does the assignment witness the negative (or sat) answer of op?"""
    vals = [S.value(w, assignment) for w in words]
    if op in ("term-eq", "pol-eq", "term-eq-group"):
        return vals[0] != vals[1]
    if op in ("pol-zero", "sigma-zero"):
        return vals[0] != ZERO
    if op == "zset-eq":
        return (vals[0] == ZERO) != (vals[1] == ZERO)
    if op == "pol-sat":
        return vals[0] == target
    raise ValueError(op)


POSITIVE = {"term-eq": "equal", "pol-eq": "equal", "term-eq-group": "equal",
            "zset-eq": "equal", "pol-zero": "zero", "sigma-zero": "zero",
            "pol-sat": "unsat"}
NEGATIVE = {"term-eq": "not-equal", "pol-eq": "not-equal",
            "term-eq-group": "not-equal", "zset-eq": "not-equal",
            "pol-zero": "not-zero", "sigma-zero": "not-zero",
            "pol-sat": "sat"}
NEGATIVE_KINDS = frozenset(NEGATIVE.values())


def first_witness(S: Semigroup, op: str, words, target):
    """The first witnessing assignment in enumeration order, or None."""
    names = variables(*words)
    for combo in itertools.product(S.elements, repeat=len(names)):
        a = dict(zip(names, combo))
        if verdict_holds(S, op, words, target, a):
            return a
    return None


def enumerate_answer(S: Semigroup, op: str, words, target=None) -> str:
    """Exhaustive answer: the witnessed verdict if any assignment witnesses
    it, else the other one.  Refuses spaces above ENUM_CAP."""
    size = S.size ** len(variables(*words))
    if size > ENUM_CAP:
        raise ValueError(f"{size} assignments exceed cap {ENUM_CAP}")
    return (NEGATIVE[op] if first_witness(S, op, words, target) is not None
            else POSITIVE[op])


def sample_witness(S: Semigroup, op: str, words, target, rng):
    """SAMPLE_TRIES random assignments, mostly nonzero and, with an
    identity, often ONE; the first witness found, or None."""
    names = variables(*words)
    extra = [ZERO] + ([ONE] * 4 if S.identity else [])
    for t in range(SAMPLE_TRIES):
        bias = (0.1, 0.5, 0.8)[t % 3]
        a = {x: (rng.choice(extra) if rng.random() < bias
                 else rng.choice(S.triples)) for x in names}
        if verdict_holds(S, op, words, target, a):
            return a
    return None


def find_witness(S: Semigroup, op: str, words, target, rng):
    """A witness by sampling, else by enumeration when the space is at most
    SMALL_SPACE; None when neither finds one."""
    a = sample_witness(S, op, words, target, rng)
    if a is not None or S.size ** len(variables(*words)) > SMALL_SPACE:
        return a
    return first_witness(S, op, words, target)


def three_colorable(n: int, edges) -> bool:
    return any(all(c[a] != c[b] for a, b in edges)
               for c in itertools.product(range(3), repeat=n))


def is_closed_double_walk(walk, edges) -> bool:
    """Closed walk using every edge exactly once in each direction."""
    steps = list(zip(walk, walk[1:]))
    want = sorted([(a, b) for a, b in edges] + [(b, a) for a, b in edges])
    return walk[0] == walk[-1] and sorted(steps) == want


# ---------------------------------------------------------------------------
# Matrix classes, by definition

def classify(rows) -> str:
    rows = tuple(tuple(r) for r in rows)
    m, n = len(rows), len(rows[0])
    if all(v for r in rows for v in r):
        return "all-ones"
    if not any(rows[a][c] and rows[a][d] and rows[b][c] and not rows[b][d]
               for a in range(m) for b in range(m)
               for c in range(n) for d in range(n)):
        return "balanced"
    if m >= 2 and n >= 2 and all(rows[m - 1]) and all(r[n - 1] for r in rows):
        return "bordered"
    return "general"


def rank1_rows(p: int, n: int):
    """Structure matrix of the rank-1 n x n matrices over GF(p): one monic
    vector per line, sorted, with entries the dot products."""
    reps = sorted(v for v in itertools.product(range(p), repeat=n)
                  if any(v) and next(x for x in v if x) == 1)
    return tuple(tuple(sum(a * b for a, b in zip(u, w)) % p for w in reps)
                 for u in reps)
