"""Identity-adjoined questions decided over elimination slices, against the
exhaustive oracles over S^1."""

import random
from functools import partial

import pytest

import reeseq as r
from conftest import checked_kind, matrix_classes
from references import is_totally_balanced
from reeseq import decide

# every regular class up to 3x3, plus the 4x4 identity and hollow matrices
WALK_MATRICES = matrix_classes(3, 3) + [r.identity(4), r.hollow(4)]
T32 = r.matrix(((1, 0), (0, 1), (0, 1)))  # two equal rows
T23 = r.matrix(((1, 0, 0), (0, 1, 1)))    # two equal columns


def _pool(M, rng, count=24, max_len=6):
    """Random words over x, y, z and two of M's constants."""
    S = r.combinatorial(M)
    consts = [f"[{i + 1},{lam + 1}]" for i in range(M.n) for lam in range(M.m)]
    syms = ["x", "y", "z"] * 2 + rng.sample(consts, min(2, len(consts)))
    texts = {" ".join(rng.choice(syms) for _ in range(rng.randint(1, max_len)))
             for _ in range(count)}
    return [r.parse_polynomial(t, S) for t in sorted(texts)]


def _rewrite(rng, p):
    """p with one symbol repeated, dropped or swapped: often an equal word
    over S^1, or one that differs on a single slice."""
    w = list(p.word)
    k = rng.randrange(len(w))
    pick = rng.random()
    if pick < 0.5:
        w.insert(k, w[k])
    elif pick < 0.7 and len(w) > 1:
        del w[k]
    else:
        j = rng.randrange(len(w))
        w[k], w[j] = w[j], w[k]
    return r.Polynomial(tuple(w))


def _walked_eq(M, p, q):
    """pol-eq over S^1 by the plain slice walk, with no slice key."""
    prof = decide.classify_matrix(M)
    nodes = decide._Budget(None)
    settle = partial(decide._eq_slice, M, prof, nodes)
    return decide._emit_eq(r.combinatorial(M, True), p, q,
                           *decide._walk((p, q), nodes, settle))


@pytest.mark.parametrize("M", WALK_MATRICES, ids=lambda M: str(M.entries))
def test_walks_match_the_oracles(M):
    # all four gated questions with the identity adjoined, on random words
    # with constants and on rewrites of them, against the oracles over
    # S^1; on the balanced class the slice keys pick the slice that the
    # plain walk picks, so the witnesses agree too
    rng = random.Random(repr(M.entries))
    S1 = r.combinatorial(M, True)
    balanced = is_totally_balanced(M)
    pool = _pool(M, rng)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(20)]
    pairs += [(p, _rewrite(rng, p)) for p in pool]
    for p, q in pairs:
        v = r.pol_eq(M, p, q, adjoin_identity=True)
        assert checked_kind(v) == r.brute_eq(S1, p, q).kind, (str(p), str(q))
        if balanced:
            assert v.witness == _walked_eq(M, p, q).witness, (str(p), str(q))
        v = r.pol_zset_eq(M, p, q, adjoin_identity=True)
        assert checked_kind(v) == r.brute_zset_eq(S1, p, q).kind, \
            (str(p), str(q))
    targets = [r.pair(i, lam) for i in range(M.n) for lam in range(M.m)]
    for p in pool:
        v = r.pol_zero(M, p, adjoin_identity=True)
        assert checked_kind(v) == r.brute_zero(S1, p).kind, str(p)
        for b in rng.sample(targets, min(3, len(targets))):
            v = r.pol_sat(M, p, b, adjoin_identity=True)
            assert checked_kind(v) == r.brute_sat(S1, p, b).kind, (str(p), b)


@pytest.mark.parametrize("M,p,q,kind", [
    # T32: the rows of [1,1]'s class are one row, so a variable pinned to
    # that class ends on a fixed row, whatever the end symbol
    (T32, "b [1,1] b b", "b b b b b [1,1]", "equal"),
    (T32, "b [1,1] c c", "b c c [1,1]", "equal"),
    (T32, "b [1,1] c [1,1]", "b c c [1,1]", "equal"),
    # [2,2] and [2,3] lie in the class of the two equal rows: their rows
    # differ, and a variable pinned to that class keeps a choice of two
    (T32, "x [2,2]", "x [2,3]", "not-equal"),
    (T32, "x [2,2] y", "x [2,3] y", "not-equal"),  # equal plain
    (T32, "y x [2,2]", "y x x [2,2]", "not-equal"),
    (T32, "b [2,2] b b", "b b [2,2] b", "equal"),
    # the transposes, on equal columns
    (T23, "[1,1] b b c", "b b [1,1] c", "equal"),
    (T23, "[2,2] x", "[3,2] x", "not-equal"),
    (T23, "x [2,2] y", "x [3,2] y", "not-equal"),  # equal plain
    # all-ones: an end symbol counts whenever its side has two lines
    (r.all_ones(2, 2), "x [1,1]", "x x [1,1]", "equal"),
    (r.all_ones(2, 2), "[1,2] x [2,1]", "[1,1] x [2,1]", "equal"),
    (r.all_ones(2, 2), "[1,1] x", "[2,1] x", "not-equal"),
    (r.all_ones(2, 1), "[1,1] x", "[1,2] x", "not-equal"),  # equal plain
    (r.all_ones(2, 2), "x y", "x [1,1] y", "not-equal"),  # equal plain
], ids=lambda x: x if isinstance(x, str) else None)
def test_equal_lines_and_constants(M, p, q, kind):
    # with equal lines and constants, an end symbol counts only where the
    # class of its line can hold two lines
    S1 = r.combinatorial(M, True)
    p, q = (r.parse_polynomial(t, S1) for t in (p, q))
    assert r.brute_eq(S1, p, q).kind == kind
    for a, b in ((p, q), (q, p)):
        v = r.pol_eq(M, a, b, adjoin_identity=True)
        assert checked_kind(v) == kind
        assert v.method == "balanced-elimination-slices"


def test_end_constants_guard_the_certificate():
    # [2,2] and [3,2] hat-transform alike over T23, so the two words have
    # equal records; the certificate must not settle their left ends
    S1 = r.combinatorial(T23, True)
    p, q = (r.parse_polynomial(t, S1) for t in ("x [2,2] y", "x [3,2] y"))
    assert r.pol_eq(T23, p, q).kind == "equal"
    v = r.pol_eq(T23, p, q, adjoin_identity=True)
    assert checked_kind(v) == "not-equal" == r.brute_eq(S1, p, q).kind
    assert v.detail[0] == ("identity slice", ("x",))


@pytest.mark.parametrize("k", range(7, 13))
def test_long_balanced_pairs_decide_at_the_default_budget(k):
    # 11^k assignments over S^1 of I3, past the default budget from k = 7
    I3 = r.identity(3)
    S1 = r.combinatorial(I3, True)
    rest = " ".join(f"v{j}" for j in range(1, k))
    p = r.parse_polynomial(f"[1,1] v0 v0 {rest} [1,1]", S1)
    q = r.parse_polynomial(f"[1,1] v0 v0 v0 {rest} [1,1]", S1)
    v = r.pol_eq(I3, p, q, adjoin_identity=True)
    assert (v.kind, v.method) == ("equal", "balanced-elimination-slices")
    w = r.parse_polynomial(f"[1,1] v0 {rest} [2,2]", S1)
    v = r.pol_eq(I3, p, w, adjoin_identity=True)
    assert checked_kind(v) == "not-equal"


def _no_walk(*args):
    raise AssertionError("walked the slices")


def test_pol_sat_refutes_every_slice_from_its_constants(monkeypatch):
    # an end constant outside the target, or a zero constant pair, refutes
    # every slice before any is walked
    monkeypatch.setattr(decide, "_walk", _no_walk)
    H3 = r.hollow(3)
    S1 = r.combinatorial(H3, True)
    for text, b in (("[1,2] x y", r.pair(1, 1)), ("x y [1,2]", r.pair(0, 0)),
                    ("x [1,1] [1,2] y", r.pair(0, 0))):
        p = r.parse_polynomial(text, S1)
        v = r.pol_sat(H3, p, b, adjoin_identity=True)
        assert (v.kind, v.method) == ("unsat", "elimination-slices")
        assert r.brute_sat(S1, p, b).kind == "unsat"


def test_walk_spends_one_node_per_slice():
    # an equal pair over hollow(3) with the identity walks all 8 slices,
    # each spending one node of the budget besides its searches' nodes
    H3 = r.hollow(3)
    p, q = r.word_of("x y z x"), r.word_of("x y z x")
    with pytest.raises(r.BudgetExceededError):
        r.pol_eq(H3, p, q, adjoin_identity=True, budget=7)
    v = r.pol_eq(H3, p, q, adjoin_identity=True, budget=10 ** 4)
    assert v.kind == "equal"
    assert v.detail == (("elimination slices", 8),)


def test_empty_slice_words():
    # an empty slice word reads the identity: equal only to another empty
    # word, and never zero, so its zero set is another word's exactly when
    # that word is never zero (constants that do not meet a zero entry)
    H3 = r.hollow(3)
    S = r.combinatorial(H3)
    nodes = decide._Budget(None)
    live, dead, var = (r.parse_polynomial(t, S)
                       for t in ("[1,2] [1,3]", "[1,1] [1,2]", "x [2,3]"))
    zset = partial(decide._zset_slice, H3, nodes)
    assert zset(None, None)[0] is None and zset(None, live)[0] is None
    assert zset(dead, None) == ({}, (("empty slice word", False, True),))
    assert zset(None, var)[0] == {"x": r.ZERO}
    eq = partial(decide._eq_slice, H3, decide.classify_matrix(H3), nodes)
    assert eq(None, None)[0] is None
    assert eq(None, live) == ({}, (("empty slice word", True, False),))
    assert eq(var, None)[0] == {"x": r.ZERO}
