"""Decision procedures against their exhaustive oracles, plus the worked
facts each procedure is pinned to."""

import ast
import itertools
import pathlib
import random
import re
import types
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import reeseq as r
from conftest import all_terms, checked_kind, matrix_classes
from references import is_totally_balanced
from reeseq import cli, decide, oracles
from reeseq.core import ReesSemigroup, StructureMatrix
from reeseq.errors import (BudgetExceededError, ReesError,
                           UnsupportedMatrixError, WitnessSearchError)
from reeseq.groups import cyclic_group


I2 = r.identity(2)
H3 = r.hollow(3)
S_I2 = r.combinatorial(I2)
S_H3 = r.combinatorial(H3)
BORDER_H3 = r.border(H3)


# ---------------------------------------------------------------------------
# term equivalence

def test_worked_identity_over_i2():
    v = r.term_eq(I2, r.word_of("x x y y"), r.word_of("y y x x"))
    assert v.kind == "equal"
    assert v.method == "balanced-components"


def test_hollow_terms_differ_with_witness():
    v = r.term_eq(H3, r.word_of("x y"), r.word_of("y x"))
    assert v.kind == "not-equal"
    w = v.witness.as_dict()
    assert r.evaluate(S_H3, r.word_of("x y"), w) != \
        r.evaluate(S_H3, r.word_of("y x"), w)


def test_point_semigroup_terms():
    J11 = r.all_ones(1, 1)
    assert r.term_eq(J11, r.word_of("x y"), r.word_of("y x")).kind == "equal"
    assert r.term_eq(J11, r.word_of("x"), r.word_of("y")).kind == "not-equal"


def test_term_eq_rejects_polynomials():
    p = r.parse_polynomial("[1,1] x", S_I2)
    with pytest.raises(ReesError):
        r.term_eq(I2, p, r.word_of("x"))


def test_term_eq_s1_examples():
    v = r.term_eq_s1(I2, r.word_of("x y x"), r.word_of("x x y"))
    assert v.kind == "not-equal"
    w = v.witness.as_dict()
    S1 = r.combinatorial(I2, True)
    assert r.evaluate(S1, r.word_of("x y x"), w) != \
        r.evaluate(S1, r.word_of("x x y"), w)

    p = r.word_of("x y z x")
    assert r.term_eq_s1(H3, p, p).kind == "equal"

    v = r.term_eq_s1(r.all_ones(2, 2), r.word_of("x y"), r.word_of("x z y"))
    assert v.kind == "not-equal"


def test_term_eq_s1_witness_from_first_mismatching_slice(monkeypatch):
    # decided from the slice profiles; the witness is the plain witness of
    # an elimination slice on which the words differ, the one the profiles
    # name, not the first of 11^7 assignments, so the search kernel never
    # runs: balanced (TB1), general (G1), bordered and all-ones (J1)
    p = r.word_of("a b c d e f g a b c d e f g")
    q = r.word_of("a b c d e f g g f e d c b a")
    monkeypatch.setattr(oracles, "_first", _no_search)
    for M in (r.identity(3), H3, r.border(I2), r.all_ones(2, 2)):
        v = r.term_eq_s1(M, p, q)
        assert v.kind == "not-equal", M
        S1 = r.combinatorial(M, True)
        w = v.witness.as_dict()
        assert r.evaluate(S1, p, w) != r.evaluate(S1, q, w), M


def _no_slice_walk(*args):
    raise AssertionError("walked the elimination slices")


def test_term_eq_s1_witness_slice_read_off_profiles(monkeypatch):
    # outside the balanced class the witness slice is read off the two
    # profiles, with no walk over the 2^k slices.  The k = 20 pair first
    # differs in its left sequencings at position 20; x x x y and
    # x x y y have the same sequencings and differ only in the antichain
    # family of the pair (y, y)
    xs = " ".join(f"x{j}" for j in range(20))
    k20 = (r.word_of(f"{xs} y z {xs}"), r.word_of(f"{xs} z y {xs}"))
    antichains = (r.word_of("x x x y"), r.word_of("x x y y"))
    monkeypatch.setattr(decide, "_slice_masks", _no_slice_walk)
    for M, (p, q) in ((r.all_ones(2, 2), k20), (H3, k20), (H3, antichains)):
        v = r.term_eq_s1(M, p, q)
        assert v.kind == "not-equal", (M, p, q)
        assert _separates(r.combinatorial(M, True), p, q, v), (M, p, q)
    assert [agree for *_, agree in v.detail[1:]] == [True, True, False]


def test_identity_slices_settled_without_a_walk(monkeypatch):
    # on the balanced class with identity, slice 0 and one families scan
    # settle equal words, and a dead adjacent constant pair settles zero,
    # with no walk over the 2^12 slices
    xs = [f"x{j}" for j in range(12)]
    monkeypatch.setattr(decide, "_slice_masks", _no_slice_walk)
    for M in (r.identity(3), r.matrix(((1, 1, 0), (1, 1, 0), (0, 0, 1)))):
        S = r.combinatorial(M)
        for u in (["x3"], ["x3", "x7"]):
            w = xs[:4] + u + u + xs[4:] + xs[::-1]
            p = r.word_of(" ".join(w))
            q = r.word_of(" ".join(w[:4] + u + w[4:]))
            v = r.term_eq_s1(M, p, q)
            assert v.kind == "equal", (M, u)
            assert v.detail[-1] == ("identity-elimination slices compared",
                                    2 ** 12 - 1)
        live = " ".join(xs[:6] + ["[1,1]", "x5", "x5"] + xs[6:] + ["[3,3]"])
        p = r.parse_polynomial(live, S)
        q = r.parse_polynomial(live.replace("x5 x5", "x5 x5 x5"), S)
        v = r.pol_zset_eq(M, p, q, adjoin_identity=True, allow_brute=False)
        assert v.kind == "equal", M
        dead = r.parse_polynomial(" ".join(xs[:6] + ["[1,1]", "[3,3]"]
                                           + xs[6:]), S)
        v = r.pol_zero(M, dead, adjoin_identity=True, allow_brute=False)
        assert v.kind == "zero" and v.detail[-1] == ("surviving slice", None)


BALANCED_S1 = [M for M in matrix_classes(3, 3)
               if r.classify_matrix(M).totally_balanced
               and not r.classify_matrix(M).all_ones]


def _certificate_pairs(M, rng, count, consts):
    """Word pairs over x, y, z: u u against u u u, one symbol doubled, or
    two random words over the same variables."""
    cs = [f"[{i + 1},{lam + 1}]" for i in range(M.n) for lam in range(M.m)]

    def word(vs):
        w = vs + [rng.choice(vs) for _ in range(rng.randint(0, 3))]
        rng.shuffle(w)
        for _ in range(rng.randint(0, 2) if consts else 0):
            w.insert(rng.randrange(len(w) + 1), rng.choice(cs))
        return w

    for _ in range(count):
        vs = rng.sample(("x", "y", "z"), rng.randint(1, 3))
        w = word(vs)
        t = rng.randrange(len(w))
        kind = rng.randrange(3)
        if kind == 0:
            u = w[t:t + rng.choice((1, 2))]
            pair = (w[:t] + u + u + w[t + len(u):],
                    w[:t] + u + u + u + w[t + len(u):])
        elif kind == 1:
            pair = (w, w[:t + 1] + [w[t]] + w[t + 1:])
        else:
            pair = (w, word(vs))
        yield tuple(" ".join(x) for x in pair)


def _compiled_pair(M, p, q):
    from reeseq.graphs import CompiledWord
    plan = r.classify_matrix(M).plan
    names = tuple(sorted(set(p.variables) | set(q.variables)))
    return (CompiledWord(r.hat_transform(w, plan), names) for w in (p, q))


def _tier_agrees(M, p, q, tier):
    """Do the two words' variables and records (or families) agree?"""
    cwp, cwq = _compiled_pair(M, p, q)
    return cwp.varmask == cwq.varmask and \
        getattr(cwp, tier)() == getattr(cwq, tier)()


def _fresh_object(cw):
    return object()  # equal to nothing, so that tier settles nothing


@pytest.mark.parametrize("M", BALANCED_S1, ids=lambda M: str(M.entries))
def test_families_certificate_is_sound(monkeypatch, M):
    # whenever two words' records, or their families, agree, the oracle
    # over S^1 finds them equal (terms as functions, polynomials in their
    # zero sets); the records certify every pair the families do; and
    # every verdict, certified or not, is the one the later tiers give
    # with records (then families too) made to settle nothing
    rng = random.Random(14)
    S, S1 = r.combinatorial(M), r.combinatorial(M, True)
    cases, certified = [], {"records": 0, "families": 0}
    for consts in (False, True):
        for texts in _certificate_pairs(M, rng, 300, consts):
            p, q = (r.parse_polynomial(t, S) for t in texts)
            if consts:
                fast = r.pol_zset_eq(M, p, q, adjoin_identity=True)
                brute = r.brute_zset_eq
            else:
                fast, brute = r.term_eq_s1(M, p, q), r.brute_eq
            agree = [tier for tier in certified if _tier_agrees(M, p, q, tier)]
            if agree:
                assert brute(S1, p, q).kind == "equal", texts
                assert fast.kind == "equal", texts
            for tier in agree:
                certified[tier] += 1
            cases.append((consts, p, q, fast))
    assert certified["records"] == certified["families"] > len(cases) // 3
    for tier in certified:
        monkeypatch.setattr(decide.CompiledWord, tier, _fresh_object)
        for consts, p, q, fast in cases:
            slower = r.pol_zset_eq(M, p, q, adjoin_identity=True) \
                if consts else r.term_eq_s1(M, p, q)
            assert slower == fast, (tier, str(p), str(q))


def test_families_settle_what_records_miss(monkeypatch):
    # over I2, x y x y y x and x y y y y x differ in their records but
    # not in their families, so the families tier settles them equal
    # with no walk over the slices
    p, q = r.word_of("x y x y y x"), r.word_of("x y y y y x")
    cwp, cwq = _compiled_pair(I2, p, q)
    assert cwp.records() != cwq.records()
    assert cwp.families() == cwq.families()
    monkeypatch.setattr(decide, "_slice_masks", _no_slice_walk)
    assert r.term_eq_s1(I2, p, q).kind == "equal"
    assert r.pol_zset_eq(I2, p, q, adjoin_identity=True,
                         allow_brute=False).kind == "equal"


BALANCED = [M for M in matrix_classes(3, 3)
            if r.classify_matrix(M).totally_balanced]


@pytest.mark.parametrize("M", BALANCED, ids=lambda M: str(M.entries))
def test_balanced_term_witness_is_plain_pol_eqs(M):
    # a negative term-eq verdict, plain or with the identity, carries the
    # witness that plain pol-eq gives on the words of its deciding slice,
    # the slice's eliminated variables (those set to ONE) on ONE
    rng = random.Random(16)
    terms = list({" ".join(rng.choice("xyz") for _ in range(rng.randint(1, 6)))
                  for _ in range(120)})
    negatives = 0
    for _ in range(300):
        p, q = (r.word_of(rng.choice(terms)) for _ in range(2))
        for v in (r.term_eq(M, p, q), r.term_eq_s1(M, p, q)):
            if v.kind == "equal":
                continue
            w = v.witness.as_dict()
            W = [u for u, e in w.items() if e == r.ONE]
            pw, qw = (r.eliminate_variables(u, W) for u in (p, q))
            plain = r.pol_eq(M, pw, qw).witness.as_dict()
            assert w == {**plain, **dict.fromkeys(W, r.ONE)}, \
                (str(p), str(q), W)
            negatives += 1
    assert negatives > 300


@pytest.mark.parametrize("M", [M for M in BALANCED
                               if not r.classify_matrix(M).all_ones],
                         ids=lambda M: str(M.entries))
def test_balanced_term_eq_s1_is_pol_eq_with_identity(M):
    # with the identity adjoined, term-eq and pol-eq share one slice key
    # and one comparison (_eq_mismatch) on the balanced class, and term-eq
    # reads its witness off the deciding slice's labels: on terms both
    # reach the same verdict and the same witness
    rng = random.Random(25)
    terms = list({" ".join(rng.choice("xyz") for _ in range(rng.randint(1, 6)))
                  for _ in range(120)})
    negatives = 0
    for _ in range(200):
        p, q = (r.word_of(rng.choice(terms)) for _ in range(2))
        v = r.term_eq_s1(M, p, q)
        u = r.pol_eq(M, p, q, adjoin_identity=True)
        assert (v.kind, v.witness) == (u.kind, u.witness), (str(p), str(q))
        negatives += v.kind == "not-equal"
    assert negatives > 100


def test_term_oracle_agreement_2x2():
    # fast verdicts match the exhaustive oracle on every pair, both plain
    # and with the identity adjoined (smoke-scale; the acceptance suite
    # runs the full family)
    terms = all_terms(("x", "y"), 4)
    for M in matrix_classes(2, 2):
        S = r.combinatorial(M)
        S1 = r.combinatorial(M, True)
        for p in terms:
            for q in terms:
                assert checked_kind(r.term_eq(M, p, q)) == \
                    r.brute_eq(S, p, q).kind, (M, p, q)
                assert checked_kind(r.term_eq_s1(M, p, q)) == \
                    r.brute_eq(S1, p, q).kind, (M, p, q)


def _separates(S, p, q, v):
    w = v.witness.as_dict()
    return r.evaluate(S, p, w) != r.evaluate(S, q, w)


@pytest.mark.parametrize("p,q", [
    ("a b c d e f", "a a b c d e f"),
    ("x x y", "x y"),
    ("x y", "x x y"),
], ids=["six-variables", "loop-left", "loop-right"])
def test_loop_edge_hint(monkeypatch, p, q):
    # the words differ only in the loop edge (a, a) or (x, x) of their
    # adjacency graphs; the witness comes from pol_eq's engine runs, never
    # from the oracle kernel
    p, q = r.word_of(p), r.word_of(q)
    monkeypatch.setattr(oracles, "_first", _no_search)
    v = r.term_eq(H3, p, q)
    assert v.kind == "not-equal" and _separates(S_H3, p, q, v)


def test_loop_edge_pair_at_default_budget():
    # the witness comes from pol_eq's engine runs at the default budget;
    # the oracle kernel would face 10^8 evaluations here
    p, q = r.word_of("a b c d e f g h"), r.word_of("a a b c d e f g h")
    v = r.term_eq(H3, p, q)
    assert v.kind == "not-equal" and _separates(S_H3, p, q, v)


# ---------------------------------------------------------------------------
# identically zero

def test_pol_zero_balanced():
    p = r.parse_polynomial("[1,1] x x [2,2]", S_I2)
    assert r.pol_zero(I2, p).kind == "zero"
    q = r.parse_polynomial("[1,1] x [2,2]", S_I2)
    v = r.pol_zero(I2, q)
    assert v.kind == "not-zero"
    assert r.evaluate(S_I2, q, v.witness.as_dict()) != r.ZERO


def test_pol_zero_bordered_examples():
    S = r.combinatorial(BORDER_H3)
    assert r.pol_zero(BORDER_H3,
                      r.parse_polynomial("[1,1] [1,1]", S)).kind == "zero"
    v = r.pol_zero(BORDER_H3, r.parse_polynomial("[1,1] x [2,2]", S))
    assert v.kind == "not-zero"
    assert v.witness.as_dict()["x"] == r.pair(3, 3)


def test_pol_zero_identity_slice():
    # identically zero plain, yet alive once a variable may take the identity
    S = r.combinatorial(I2)
    p = r.parse_polynomial("[1,1] v x [2,2] v y", S)
    assert r.pol_zero(I2, p).kind == "zero"
    v = r.pol_zero(I2, p, adjoin_identity=True)
    assert v.kind == "not-zero"
    assert v.witness.as_dict()["v"] == r.ONE


IDENTITY_SLICE_MATRICES = (
    r.identity(2), r.identity(3), r.matrix(((1, 1, 0), (1, 1, 0), (0, 0, 1))),
    r.matrix(((1, 0), (0, 1), (0, 1))))


def random_words(M, rng, count, names=("x", "y", "z"), max_len=5):
    S = r.combinatorial(M)
    consts = [f"[{i + 1},{lam + 1}]" for i in range(M.n) for lam in range(M.m)]
    syms = list(names) + consts
    texts = dict.fromkeys(" ".join(rng.choice(syms)
                                   for _ in range(rng.randint(1, max_len)))
                          for _ in range(count))
    return [r.parse_polynomial(t, S) for t in texts]


@pytest.mark.parametrize("M", IDENTITY_SLICE_MATRICES,
                         ids=["I2", "I3", "T33", "T32"])
def test_identity_slices_match_oracles(M):
    # pol_zero and pol_zset_eq with the identity adjoined walk every
    # elimination slice; compare both against the oracles over S^1
    rng = random.Random(11)
    S1 = r.combinatorial(M, True)
    pool = random_words(M, rng, 300)
    for p in pool:
        assert r.pol_zero(M, p, adjoin_identity=True).kind == \
            r.brute_zero(S1, p).kind, str(p)
    for _ in range(2500):
        p, q = rng.choice(pool), rng.choice(pool)
        assert checked_kind(r.pol_zset_eq(M, p, q, adjoin_identity=True)) \
            == r.brute_zset_eq(S1, p, q).kind, (str(p), str(q))
    for _ in range(200):
        p, q = rng.choice(pool), rng.choice(pool)
        v = r.pol_zset_eq(M, p, q, adjoin_identity=True)
        assert v.kind == r.brute_zset_eq(S1, p, q).kind, (str(p), str(q))


@st.composite
def _rewritten_pair(draw, M):
    """Two words over one to four variables, perhaps with constants of M:
    u u against u u u inside one word, a word against itself with one of
    its symbols inserted once more, or a word against a shuffle of it."""
    consts = [f"[{i + 1},{lam + 1}]" for i in range(M.n) for lam in range(M.m)]
    names = ["w", "x", "y", "z"][:draw(st.integers(1, 4))]
    syms = names + (consts if draw(st.booleans()) else [])
    w = draw(st.permutations(names + draw(st.lists(st.sampled_from(syms),
                                                   max_size=4))))
    kind = draw(st.sampled_from(("cube", "insert", "shuffle")))
    if kind == "shuffle":
        return w, draw(st.permutations(w))
    t = draw(st.integers(0, len(w) - 1))
    if kind == "insert":
        return w, w[:t] + [draw(st.sampled_from(w))] + w[t:]
    u = w[t:t + draw(st.integers(1, 3))]
    return w[:t] + u + u + w[t + len(u):], w[:t] + u + u + u + w[t + len(u):]


@pytest.mark.parametrize("M", IDENTITY_SLICE_MATRICES[:3],
                         ids=["I2", "I3", "T33"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_equal_records_are_equal_over_s1(M, data):
    # equal variables and records of the hat-transformed words mean equal
    # terms, and equal zero sets for words with constants, over S^1
    texts = data.draw(_rewritten_pair(M))
    S = r.combinatorial(M)
    p, q = (r.parse_polynomial(" ".join(t), S) for t in texts)
    if _tier_agrees(M, p, q, "records"):
        brute = r.brute_eq if p.is_term and q.is_term else r.brute_zset_eq
        assert brute(r.combinatorial(M, True), p, q).kind == "equal", texts


@pytest.mark.parametrize("M", IDENTITY_SLICE_MATRICES[:3],
                         ids=["I2", "I3", "T33"])
def test_equal_records_read_no_slice(monkeypatch, M):
    # equal records settle every slice, slice 0 included, so term-eq,
    # zset-eq and pol-eq with the identity decide such a pair equal without
    # reading the labels of any slice
    labels, calls = decide.CompiledWord.labels, []

    def counted(cw, drop=0):
        calls.append(drop)
        return labels(cw, drop)

    monkeypatch.setattr(decide.CompiledWord, "labels", counted)
    rng = random.Random(15)
    S = r.combinatorial(M)
    checked = dict.fromkeys(("term-eq", "zset-eq", "pol-eq"), 0)
    for consts in (False, True):
        for texts in _certificate_pairs(M, rng, 200, consts):
            p, q = (r.parse_polynomial(t, S) for t in texts)
            if not _tier_agrees(M, p, q, "records"):
                continue
            runs = {"zset-eq": partial(r.pol_zset_eq, M, p, q,
                                       adjoin_identity=True)}
            # pol-eq trusts the records once the end constants agree
            if decide._end_constants(p) == decide._end_constants(q):
                runs["pol-eq"] = partial(r.pol_eq, M, p, q,
                                         adjoin_identity=True)
            if not consts:
                runs["term-eq"] = partial(r.term_eq_s1, M, p, q)
            for op, run in runs.items():
                calls.clear()
                assert run().kind == "equal", (op, texts)
                assert calls == [], (op, texts)
                checked[op] += 1
    assert min(checked.values()) > 20, checked
    # the counter does see the slices of words whose records differ: slice
    # 0 settles x y against y x, and its labels give the witness
    v = r.term_eq_s1(M, r.word_of("x y"), r.word_of("y x"))
    assert v.kind == "not-equal" and calls == [0, 0]


@pytest.mark.parametrize("M", [r.matrix(((1, 1, 0, 0), (0, 0, 1, 0),
                                         (0, 0, 0, 1))), r.border(I2)],
                         ids=["balanced-3x4", "border-identity2"])
def test_endpoint_scan_matches_oracle(M):
    # identically-zero words with three distinct end variables make pol_eq
    # scan every endpoint assignment; random pairs add scans that find a
    # surviving assignment
    rng = random.Random(12)
    S = r.combinatorial(M)
    dead = next(f"[{i + 1},{lam + 1}] [{j + 1},{gam + 1}]"
                for i in range(M.n) for lam in range(M.m)
                for j in range(M.n) for gam in range(M.m)
                if not M.entry(lam, j))
    cases = []
    for _ in range(6):
        inner = [" ".join(rng.choice(("x", "x", dead)) for _ in range(2))
                 for _ in range(2)]
        cases.append((r.parse_polynomial(f"a {inner[0]} {dead} b", S),
                      r.parse_polynomial(f"c {dead} {inner[1]} b", S)))
    pool = random_words(M, rng, 60, names=("a", "b", "x"), max_len=4)
    cases += [(rng.choice(pool), rng.choice(pool)) for _ in range(150)]
    for p, q in cases:
        assert r.pol_eq(M, p, q).kind == r.brute_eq(S, p, q).kind, \
            (str(p), str(q))


def test_pol_zero_unsupported_class():
    S = r.combinatorial(H3)
    p = r.parse_polynomial("x [1,1]", S)
    with pytest.raises(UnsupportedMatrixError):
        r.pol_zero(H3, p, allow_brute=False)
    v = r.pol_zero(H3, p)  # the general class goes to homomorphism search
    assert v.method == "homomorphism-search"


# class -> question -> method tags for x [1,1] y (and y [1,1] x, or the
# target [1,1]) with allow_brute, plain and with the identity adjoined; no
# route ends in an exhaustive oracle
_ROUTES = {
    "all-ones": {"pol-zero": ("balanced-consistency",) * 2,
                 "zset-eq": ("all-ones-variables",) * 2,
                 "pol-eq": ("zset-plus-endpoints",
                            "balanced-elimination-slices"),
                 "pol-sat": ("homomorphism-search", "elimination-slices")},
    "balanced": {"pol-zero": ("balanced-consistency",) * 2,
                 "zset-eq": ("balanced-constraint-systems",) * 2,
                 "pol-eq": ("zset-plus-endpoints",
                            "balanced-elimination-slices"),
                 "pol-sat": ("homomorphism-search", "elimination-slices")},
    "bordered": {"pol-zero": ("border-evaluation",) * 2,
                 "zset-eq": ("homomorphism-search", "elimination-slices"),
                 "pol-eq": ("zset-plus-endpoints", "elimination-slices"),
                 "pol-sat": ("homomorphism-search", "elimination-slices")},
    "general": {"pol-zero": ("homomorphism-search", "elimination-slices"),
                "zset-eq": ("homomorphism-search", "elimination-slices"),
                "pol-eq": ("zset-plus-endpoints", "elimination-slices"),
                "pol-sat": ("homomorphism-search", "elimination-slices")},
}
_ROUTE_MATRICES = {"all-ones": r.all_ones(2, 2), "balanced": I2,
                   "bordered": r.border(I2), "general": H3}


@pytest.mark.parametrize("identity", [False, True], ids=["plain", "S1"])
@pytest.mark.parametrize("cls", sorted(_ROUTES))
def test_brute_gate_routes(cls, identity):
    # with allow_brute each gated question runs the pinned procedure, or
    # with the identity its walk over the elimination slices; without it,
    # it gives the same verdict off the general class, and there refuses,
    # naming the question, the class and what allow_brute runs
    M = _ROUTE_MATRICES[cls]
    S = r.combinatorial(M, identity)
    p, q = (r.parse_polynomial(t, S) for t in ("x [1,1] y", "y [1,1] x"))
    calls = {"pol-zero": partial(r.pol_zero, M, p),
             "zset-eq": partial(r.pol_zset_eq, M, p, q),
             "pol-eq": partial(r.pol_eq, M, p, q),
             "pol-sat": partial(r.pol_sat, M, p, r.pair(0, 0))}
    for question, run in calls.items():
        v = run(adjoin_identity=identity)
        method = _ROUTES[cls][question][identity]
        assert v.method == method, question
        checked_kind(v)
        if cls != "general":
            assert run(adjoin_identity=identity, allow_brute=False) == v
            continue
        with pytest.raises(UnsupportedMatrixError) as err:
            run(adjoin_identity=identity, allow_brute=False)
        text = str(err.value)
        assert text.startswith(question + ":"), text
        assert "for general matrices" in text, text
        assert text.endswith("homomorphism search on each elimination slice"
                             if identity else "homomorphism search"), text


# ---------------------------------------------------------------------------
# homomorphism search

C3 = r.matrix(((1, 1, 0), (0, 1, 1), (1, 0, 1)))
N23 = r.matrix(((1, 1, 0), (0, 1, 1)))


def test_homomorphism_matches_oracles(monkeypatch):
    # the engine on every class up to 3x3, balanced and bordered included,
    # against brute_zero and, with the ends pinned, brute_sat for every
    # nonzero target; the oracles run first, the engine with the search
    # kernel patched to raise, and every witness is evaluated again.  Each
    # word's network is compiled once and serves all of its runs, so a run
    # that left its choices behind would spoil the next
    rng = random.Random(14)
    cases = []
    for M in matrix_classes(3, 3):
        S = r.combinatorial(M)
        for _ in range(10):
            p = _random_word(rng, S, ("x", "y", "z")[:rng.randint(1, 3)])
            sat = {b: r.brute_sat(S, p, b).kind == "sat"
                   for b in S.nonzero_triples()}
            cases.append((M, S, p, r.brute_zero(S, p).kind == "not-zero",
                          sat))
    monkeypatch.setattr(oracles, "_first", _no_search)
    for M, S, p, nonzero, sat in cases:
        net = decide._Network(M, p)
        doms = list(net.doms)
        w = decide._homomorphism(net, (), decide._Budget(None))
        assert (w is not None) == nonzero, (M, str(p))
        if w is not None:
            assert r.evaluate(S, p, w) != r.ZERO
        for b, solvable in sat.items():
            ends = ((p.leftmost, 1, 1 << b.i), (p.rightmost, 2, 1 << b.lam))
            w = decide._homomorphism(net, ends, decide._Budget(None))
            assert net.doms == doms, (M, str(p), b)
            assert (w is not None) == solvable, (M, str(p), b)
            if w is not None:
                assert r.evaluate(S, p, w) == b


@pytest.mark.parametrize("M", [H3, C3, r.hollow(4), N23,
                               r.direct_sum(r.border(I2), H3)],
                         ids=["H3", "C3", "H4", "N23", "BI2+H3"])
def test_general_class_pol_zero_and_pol_sat(M):
    # on a matrix neither balanced nor bordered, pol_zero and pol_sat with
    # allow_brute go to the engine and agree with the oracles; so do pol_eq
    # and pol_zset_eq, on each word against the next and against a shuffle
    # of itself (the same variables, so the zero-pair and end runs), with
    # every witness evaluated again
    assert not (is_totally_balanced(M) or r.is_bordered(M))
    rng = random.Random(str(M))
    S = r.combinatorial(M)
    targets = S.nonzero_triples()
    most = 3 if S.size <= 17 else 2
    words = []
    for _ in range(25):
        p = _random_word(rng, S, ("x", "y", "z")[:rng.randint(1, most)])
        v = r.pol_zero(M, p)
        assert v.method == "homomorphism-search"
        assert v.kind == r.brute_zero(S, p).kind, str(p)
        for b in rng.sample(targets, 4):
            v = r.pol_sat(M, p, b)
            assert v.method == "homomorphism-search"
            assert v.kind == r.brute_sat(S, p, b).kind, (str(p), b)
        words.append(p)
    for p, after in zip(words, words[1:]):
        for q in (after, r.poly(*rng.sample(p.word, p.length))):
            if len(set(p.variables + q.variables)) > most:
                continue
            for run, brute, zset in ((r.pol_eq, r.brute_eq, False),
                                     (r.pol_zset_eq, r.brute_zset_eq, True)):
                v = run(M, p, q)
                assert v.kind == brute(S, p, q).kind, (run, str(p), str(q))
                if v.kind == "not-equal":
                    assert _check_witness(S, p, q, v, zset), (str(p), str(q))


def test_homomorphism_budget_counts_search_nodes():
    # over H3, x y leaves four vertices undecided after arc consistency,
    # and each costs one search node
    p = r.parse_polynomial("x y", S_H3)
    with pytest.raises(BudgetExceededError):
        r.pol_zero(H3, p, budget=1)
    assert r.pol_zero(H3, p, budget=4).kind == "not-zero"


def test_homomorphism_budget_is_per_verdict():
    # pol_eq's runs over H3 for x y x y vs x y y x take 4, 4 and 2
    # nodes: the two words' zero checks (p's also tells pol_eq that p is
    # nonzero somewhere), one zero-pair run.  Each fits in 4 nodes, as
    # pol_zero shows, but the verdict needs all 10
    p, q = r.word_of("x y x y"), r.word_of("x y y x")
    for word in (p, q):
        assert r.pol_zero(H3, word, budget=4).kind == "not-zero"
    for budget in (4, 9):
        with pytest.raises(BudgetExceededError):
            r.pol_eq(H3, p, q, budget=budget)
    v = r.pol_eq(H3, p, q, budget=10)
    assert v.kind == "not-equal" and _check_witness(S_H3, p, q, v, False)


def test_equal_pair_sets_skip_the_second_zero_check():
    # x y x y and y x y x share their adjacent pairs, so p's zero check (4
    # nodes) settles both zero sets and one end run (3 nodes) separates
    # the words: 7 in all
    p, q = r.word_of("x y x y"), r.word_of("y x y x")
    with pytest.raises(BudgetExceededError):
        r.pol_eq(H3, p, q, budget=6)
    v = r.pol_eq(H3, p, q, budget=7)
    assert v.kind == "not-equal" and _check_witness(S_H3, p, q, v, False)


def test_homomorphism_long_chain():
    # the search keeps an explicit stack: 1000 distinct variables in a row
    # decide without recursion
    p = r.word_of(" ".join(f"v{k}" for k in range(1000)))
    v = r.pol_zero(H3, p)
    assert v.kind == "not-zero"
    assert r.evaluate(S_H3, p, v.witness.as_dict()) != r.ZERO


def _check_witness(S, p, q, v, zset):
    w = v.witness.as_dict()
    a, b = r.evaluate(S, p, w), r.evaluate(S, q, w)
    return (a == r.ZERO) != (b == r.ZERO) if zset else a != b


def _at(s, w, side):
    """The column (side 1) or row (side 2) of symbol s under w."""
    e = w[s.name] if s.is_var else s.elem
    return e.i if side == 1 else e.lam


def _check_detail(S, p, q, v):
    """The names of the detail rows that locate the witness, once the zero
    cell and the end indices they report are seen to be the witness's."""
    w = v.witness.as_dict()
    seen = set()
    for name, *row in v.detail:
        if name == "zero pair":
            s, t = r.parse_polynomial(row[0], S).word
            lam, i = (int(k) - 1 for k in
                      re.fullmatch(r"M\((\d+),(\d+)\) = 0", row[1]).groups())
            assert S.matrix.entry(lam, i) == 0, row
            assert (_at(s, w, 2), _at(t, w, 1)) == (lam, i), row
        elif name.endswith("at the ends"):
            side = 1 if "columns" in name else 2
            a, b = ((p.leftmost, q.leftmost) if side == 1
                    else (p.rightmost, q.rightmost))
            assert row[0] != row[1], row
            assert (_at(a, w, side) + 1, _at(b, w, side) + 1) == tuple(row)
        else:
            continue
        seen.add(name)
    return seen


def test_pinned_search_matches_oracles(monkeypatch):
    # plain zset-eq, pol-eq and term-eq on every class up to 3x3, general
    # ones included, and on H4 and I4, against brute_zset_eq and brute_eq;
    # the oracles run first, the fast paths with the search kernel patched
    # to raise, and every witness is evaluated again, with the zero cell
    # and the end indices its detail reports
    rng = random.Random(15)
    terms = all_terms(("x", "y", "z"), 4)
    cases = []
    for M in matrix_classes(3, 3) + [r.hollow(4), r.identity(4)]:
        S = r.combinatorial(M)
        pool = random_words(M, rng, 30)
        for k in range(12):
            p = rng.choice(pool)
            q = _same_variables(rng, pool, p) if k % 2 else rng.choice(pool)
            cases.append((S, p, q, partial(r.pol_zset_eq, M, p, q), True,
                          r.brute_zset_eq(S, p, q).kind))
            cases.append((S, p, q, partial(r.pol_eq, M, p, q), False,
                          r.brute_eq(S, p, q).kind))
        for k in range(6):
            p = rng.choice(terms)
            q = _same_variables(rng, terms, p) if k % 2 else rng.choice(terms)
            cases.append((S, p, q, partial(r.term_eq, M, p, q), False,
                          r.brute_eq(S, p, q).kind))
    monkeypatch.setattr(oracles, "_first", _no_search)
    located = set()
    for S, p, q, run, zset, expected in cases:
        v = run()
        assert v.kind == expected, run
        if v.kind == "not-equal":
            assert _check_witness(S, p, q, v, zset), run
            located |= _check_detail(S, p, q, v)
    assert located == {"zero pair", "distinct columns at the ends",
                       "distinct rows at the ends"}


def test_pol_eq_end_test_runs_once_per_index(monkeypatch):
    # one engine run per index of p's end, with q's end on every other
    # index, and none on a side whose two ends are one symbol: over I4,
    # one run per column for the left ends y and x, the right ends being
    # x and x; the zero-set comparison's labels already show that p is
    # not identically zero, so no unpinned run checks it again
    runs = []
    engine = decide._homomorphism

    def counted(*args):
        runs.append(args)
        return engine(*args)

    monkeypatch.setattr(decide, "_homomorphism", counted)
    v = r.pol_eq(r.identity(4), r.word_of("y x y x x"), r.word_of("x y y x"))
    assert v.kind == "equal"
    assert len(runs) == 4
    assert all(args[1] for args in runs)  # every run pinned


def test_general_class_pairs_at_scale(monkeypatch):
    # twenty variables over the hollow 3x3 matrix, a general class: the
    # engine decides each pair in a few pinned runs, where enumeration
    # would cover 10^20 evaluations
    names = [f"v{k}" for k in range(20)]
    p = r.word_of(" ".join(names))
    q = r.word_of(" ".join(names[:19] + ["v18"] + names[19:]))
    monkeypatch.setattr(oracles, "_first", _no_search)
    for run, zset in ((r.pol_eq, False), (r.pol_zset_eq, True),
                      (r.term_eq, False)):
        v = run(H3, p, q)
        assert v.kind == "not-equal", run
        assert _check_witness(S_H3, p, q, v, zset), run
    # u u = u u u: both are u's idempotent value or zero
    p = r.word_of(" ".join(n + " " + n for n in names))
    q = r.word_of(" ".join(n + " " + n + (" " + n if k % 3 == 0 else "")
                           for k, n in enumerate(names)))
    for run in (r.pol_eq, r.pol_zset_eq, r.term_eq):
        assert run(H3, p, q).kind == "equal", run


# ---------------------------------------------------------------------------
# zero-set equality and matchability

def test_zset_triangle_pair():
    p = r.parse_polynomial("[1,1] u^2 [1,1]", S_I2)
    q = r.parse_polynomial("[1,1] u [1,1]", S_I2)
    assert r.pol_zset_eq(I2, p, q).kind == "equal"
    assert r.brute_zset_eq(S_I2, p, q).kind == "equal"


def test_zset_distinct_variables():
    v = r.pol_zset_eq(I2, r.word_of("x"), r.word_of("y"))
    assert v.kind == "not-equal"
    w = v.witness.as_dict()
    assert (r.evaluate(S_I2, r.word_of("x"), w) == r.ZERO) != \
        (r.evaluate(S_I2, r.word_of("y"), w) == r.ZERO)


def test_zset_bordered_constants():
    S = r.combinatorial(BORDER_H3)
    p = r.parse_polynomial("x [1,2] y", S)
    q = r.parse_polynomial("x [1,3] y", S)
    fast = r.pol_zset_eq(BORDER_H3, p, q)
    oracle = r.brute_zset_eq(S, p, q)
    assert fast.kind == oracle.kind
    assert fast.method == "homomorphism-search"


@pytest.mark.parametrize("M", [r.border(I2), H3],
                         ids=["border-identity2", "hollow3"])
def test_zset_with_identity_off_balanced_walks_slices(M):
    # bordered and general matrices decide identity-adjoined zero sets by
    # walking the elimination slices with homomorphism search, never the
    # oracle; the general class needs allow_brute for it
    S1 = r.combinatorial(M, with_identity=True)
    pool = [r.parse_polynomial(t, S1)
            for t in ("u", "v", "u v", "v u", "u u", "u [1,2] v", "[2,1] u",
                      "[1,2] [2,1]", "[1,2] u [2,1]")]
    kinds = set()
    for p in pool:
        for q in pool:
            fast = r.pol_zset_eq(M, p, q, adjoin_identity=True)
            assert fast.kind == r.brute_zset_eq(S1, p, q).kind, \
                (str(p), str(q))
            assert fast.method == "elimination-slices"
            kinds.add(checked_kind(fast))
            if r.is_bordered(M):
                assert r.pol_zset_eq(M, p, q, adjoin_identity=True,
                                     allow_brute=False) == fast
                continue
            with pytest.raises(UnsupportedMatrixError):
                r.pol_zset_eq(M, p, q, adjoin_identity=True,
                              allow_brute=False)
    assert kinds == {"equal", "not-equal"}


@pytest.mark.parametrize("N", [BORDER_H3, r.border(I2)],
                         ids=["border-hollow3", "border-identity2"])
def test_bordered_suite_matches_oracles(N):
    # all four procedures against the oracles over bordered matrices
    # (border of the 2x2 identity is bordered but not totally balanced)
    assert r.is_bordered(N) and not is_totally_balanced(N)
    S = r.combinatorial(N)
    consts = [f"[{i + 1},{lam + 1}]" for i in range(N.n) for lam in range(N.m)]
    texts = ["u", "v", "u v", "u u", "u v u"]
    texts += [f"{c} u" for c in consts[:4]]
    texts += [f"u {c} v" for c in consts[:4]]
    texts += [f"{consts[0]} u u {c}" for c in consts[:4]]
    pool = [r.parse_polynomial(t, S) for t in texts]
    for p in pool:
        assert r.pol_zero(N, p).kind == r.brute_zero(S, p).kind, str(p)
    for p in pool:
        for q in pool:
            assert checked_kind(r.pol_zset_eq(N, p, q)) == \
                r.brute_zset_eq(S, p, q).kind, (str(p), str(q))
            assert checked_kind(r.pol_eq(N, p, q)) == \
                r.brute_eq(S, p, q).kind, (str(p), str(q))
    targets = [r.pair(i, lam) for i in range(N.n) for lam in range(N.m)]
    for p in pool[:8]:
        for b in targets + [r.ZERO]:
            assert r.pol_sat(N, p, b).kind == r.brute_sat(S, p, b).kind


# ---------------------------------------------------------------------------
# polynomial equivalence and satisfiability

def test_pol_eq_examples():
    p = r.parse_polynomial("[1,1] u^2 [1,1]", S_I2)
    q = r.parse_polynomial("[1,1] u [1,1]", S_I2)
    assert r.pol_eq(I2, p, p).kind == "equal"
    assert r.pol_eq(I2, p, q).kind == "equal"
    v = r.pol_eq(I2, r.word_of("x"), r.word_of("x x"))
    assert v.kind == r.brute_eq(S_I2, r.word_of("x"), r.word_of("x x")).kind
    assert v.kind == "not-equal"


def test_pol_sat_examples():
    v = r.pol_sat(I2, r.word_of("x"), r.pair(0, 1))
    assert v.kind == "sat"
    assert v.witness.as_dict()["x"] == r.pair(0, 1)

    S = r.combinatorial(I2)
    p = r.parse_polynomial("x [2,2] y", S)
    for b in [r.pair(i, lam) for i in range(2) for lam in range(2)]:
        assert r.pol_sat(I2, p, b).kind == r.brute_sat(S, p, b).kind

    assert r.pol_sat(I2, r.word_of("x"), r.ZERO).kind == "sat"
    assert r.pol_sat(I2, r.parse_polynomial("[1,1]", S), r.ZERO).kind == "unsat"
    S1 = r.combinatorial(I2, True)
    assert r.pol_sat(I2, r.word_of("x y"), r.ONE,
                     adjoin_identity=True).kind == "sat"
    assert r.pol_sat(I2, r.parse_polynomial("[1,1] x", S1), r.ONE,
                     adjoin_identity=True).kind == "unsat"


# ---------------------------------------------------------------------------
# the group lift

def test_group_lift_examples():
    Z2 = cyclic_group(2)
    p, q = r.word_of("x y x y"), r.word_of("y x y x")
    v = r.term_eq_group(I2, Z2, p, q)
    entries = tuple(tuple(1 if e else 0 for e in row) for row in I2.entries)
    S = ReesSemigroup(StructureMatrix(entries), Z2)
    assert v.kind == r.brute_eq(S, p, q).kind
    assert r.term_eq_group(I2, Z2, p, p).kind == "equal"
    # a word equals itself over every group, and over an abelian group two
    # words whose counts agree modulo the exponent are equal: neither is
    # enumerated (4^12 group readings, past the default budget).  p12 and
    # its reverse differ in the shadow alone
    names = [f"v{k}" for k in range(12)]
    p12 = r.word_of(" ".join(names))
    v = r.term_eq_group(I2, cyclic_group(4), p12, p12)
    assert v.kind == "equal"
    assert v.detail == (("shadow equal", True), ("group equal", True))
    rev = r.word_of(" ".join(reversed(names)))
    v = r.term_eq_group(I2, cyclic_group(4), p12, rev)
    assert v.kind == "not-equal"
    assert v.detail == (("shadow equal", False), ("group equal", True))
    S4 = _group_semigroup(I2, cyclic_group(4))
    assert r.evaluate(S4, p12, v.witness) != r.evaluate(S4, rev, v.witness)
    # the trivial group reduces to the plain procedure
    triv = r.term_eq_group(I2, r.trivial_group(), r.word_of("x y"),
                           r.word_of("y x"))
    assert triv.kind == r.term_eq(I2, r.word_of("x y"),
                                  r.word_of("y x")).kind


def _s3():
    """The symmetric group on three points, as a Cayley table."""
    perms = list(itertools.permutations(range(3)))
    index = {g: k for k, g in enumerate(perms)}
    return r.finite_group(tuple(tuple(index[tuple(g[h[t]] for t in range(3))]
                                      for h in perms) for g in perms),
                          name="S3")


def test_group_orders_and_exponent():
    S3 = _s3()
    assert (sorted(S3.orders), S3.exponent, S3.is_abelian) == \
        ([1, 2, 2, 2, 3, 3], 6, False)
    Z6 = cyclic_group(6)
    assert (Z6.orders, Z6.exponent, Z6.is_abelian) == \
        ((1, 6, 3, 2, 3, 6), 6, True)
    assert (r.units_group(5).exponent, r.trivial_group().exponent) == (4, 1)
    # the cached values are not fields: equality and repr are unchanged
    assert cyclic_group(6) == Z6 and "orders" not in repr(Z6)


def _group_reading(G, word, e):
    acc = G.identity
    for s in word.word:
        acc = G.mul(acc, e.get(s.name, G.identity))
    return acc


def test_group_counting_matches_the_oracle():
    # the count test decides every cyclic and units group up to order 7,
    # and S3 together with its enumeration; a counterexample separates the
    # two readings.  Half the pairs are shuffles or carry a power of the
    # exponent, so equal readings are common
    rng = random.Random(17)
    groups = [cyclic_group(k) for k in range(1, 8)]
    groups += [r.units_group(p) for p in (2, 3, 5, 7)] + [_s3()]
    kinds = set()
    for G in groups:
        for k in range(60):
            p = [rng.choice("xyz") for _ in range(rng.randint(1, 6))]
            if k % 3 == 0:
                q = rng.sample(p, len(p))
            elif k % 3 == 1:
                x = rng.choice(p)
                q = p[:] + [x] * G.exponent
                rng.shuffle(q)
            else:
                q = [rng.choice("xyz") for _ in range(rng.randint(1, 6))]
            p, q = r.word_of(" ".join(p)), r.word_of(" ".join(q))
            got = decide._group_counterexample(G, p, q)
            want = r.brute_group_eq(G, p, q)
            assert (got is None) == (want is None), (G.name, str(p), str(q))
            kinds.add(got is None)
            if got is not None:
                assert _group_reading(G, p, got) != _group_reading(G, q, got)
    assert kinds == {True, False}


def test_group_lift_counts_without_enumerating(monkeypatch):
    # an abelian group never reaches brute_group_eq; S3 does once the
    # counts agree, and x y against y x differs there
    monkeypatch.setattr(decide, "brute_group_eq", _no_search)
    names = [f"v{k}" for k in range(12)]
    p = r.word_of(" ".join(names + names[:1]))
    q = r.word_of(" ".join(names[::-1] + names[:1] * 7))
    for G, kind in ((cyclic_group(6), "equal"), (cyclic_group(4), "not-equal"),
                    (r.units_group(7), "equal")):
        v = r.term_eq_group(r.all_ones(1, 1), G, p, q)
        assert (v.kind, v.detail[1]) == (kind, ("group equal", kind == "equal"))
    monkeypatch.undo()
    v = r.term_eq_group(r.all_ones(1, 1), _s3(), r.word_of("x y"),
                        r.word_of("y x"))
    assert v.kind == "not-equal"


def test_group_lift_uses_group_side():
    Z2 = cyclic_group(2)
    # same shadow profile, different group value: x vs x^3 over the shadow
    # of the all-ones matrix collapses, the group side separates them
    J = r.all_ones(1, 1)
    v = r.term_eq_group(J, Z2, r.word_of("x"), r.word_of("x x x"))
    assert v.kind == "equal"  # x = x^3 in a group of exponent 2 and J is a point
    v2 = r.term_eq_group(J, Z2, r.word_of("x"), r.word_of("x x"))
    assert v2.kind == "not-equal"


def test_group_lift_builds_each_profile_once(monkeypatch):
    # the shadows of x y x y and y x y x differ over H3; the witness is
    # pol_eq's, with no second build of the two term profiles
    calls = []
    profile = decide.term_profile

    def counted(*args):
        calls.append(args)
        return profile(*args)

    monkeypatch.setattr(decide, "term_profile", counted)
    Z2 = cyclic_group(2)
    p, q = r.word_of("x y x y"), r.word_of("y x y x")
    v = r.term_eq_group(H3, Z2, p, q)
    assert len(calls) == 2
    assert v.kind == "not-equal"
    assert v.detail == (("shadow equal", False), ("group equal", True))
    w = v.witness.as_dict()
    S = _group_semigroup(H3, Z2)
    assert r.evaluate(S, p, w) != r.evaluate(S, q, w)


def _group_semigroup(M, G):
    """M(G, M): the 0-1 matrix M with the group identity for its ones."""
    return ReesSemigroup(StructureMatrix(tuple(
        tuple(G.identity + 1 if e else 0 for e in row) for row in M.entries)),
        G)


def test_group_lift_witnesses_without_search(monkeypatch):
    # the witness comes from the side that differs, never from a search:
    # verdicts from the oracle first, then the search kernel is forbidden.
    # The named cases differ on one side each: x y vs y x in the shadow of
    # I2 only, x vs x x in the group reading only.
    rng = random.Random(5)
    cases = [(I2, 2, "x y", "y x", (False, True)),
             (r.all_ones(1, 1), 2, "x", "x x", (True, False))]
    for M in (I2, H3, r.all_ones(2, 2), r.matrix(((1, 1, 0), (0, 1, 1)))):
        for order in (2, 3):
            for _ in range(10):
                p = [rng.choice("xyz") for _ in range(rng.randint(1, 4))]
                q = [rng.choice("xyz") for _ in range(rng.randint(1, 4))]
                if rng.random() < 0.5:  # a cube: equal when the order is 2
                    k = rng.randrange(len(p))
                    q = p[:k] + [p[k]] * 3 + p[k + 1:]
                cases.append((M, order, " ".join(p), " ".join(q), None))
    runs = []
    for M, order, p, q, sides in cases:
        G = cyclic_group(order)
        S = _group_semigroup(M, G)
        p, q = r.word_of(p), r.word_of(q)
        runs.append((M, G, S, p, q, sides, r.brute_eq(S, p, q).kind))
    assert {kind for *_, kind in runs} == {"equal", "not-equal"}
    monkeypatch.setattr(oracles, "_first", _no_search)
    for M, G, S, p, q, sides, kind in runs:
        v = r.term_eq_group(M, G, p, q)
        assert v.kind == kind, (M, G.name, p, q)
        if sides is not None:
            assert tuple(ok for _, ok in v.detail) == sides
        if kind == "not-equal":
            w = v.witness.as_dict()
            assert r.evaluate(S, p, w) != r.evaluate(S, q, w), (p, q, w)


# ---------------------------------------------------------------------------
# oracle plumbing

def test_not_balanced_terms_zero_sets_reduce_to_adjacency():
    # over a not totally balanced matrix, terms share zero sets exactly when
    # their adjacency digraphs agree
    from reeseq.graphs import build_adjacency
    terms = all_terms(("x", "y"), 4)
    for M in matrix_classes(2, 2):
        if is_totally_balanced(M):
            continue
        S = r.combinatorial(M)
        for p in terms:
            for q in terms:
                assert (build_adjacency(p) == build_adjacency(q)) == \
                    (r.brute_zset_eq(S, p, q).kind == "equal")


def test_caches_are_bounded():
    from reeseq import decide
    for cached in (decide.classify_matrix, oracles._tables):
        assert cached.cache_info().maxsize is not None


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        r.brute_eq(S_H3, r.word_of("a b c d e"), r.word_of("e d c b a"),
                   budget=100)
    # the group oracle refuses the same way: 2^3 assignments fit in 8, and
    # a zero budget is refused, not read as the default
    Z2, p, q = cyclic_group(2), r.word_of("x y z"), r.word_of("z y x")
    assert r.brute_group_eq(Z2, p, q, budget=8) is None
    for budget in (7, 0):
        with pytest.raises(BudgetExceededError):
            r.brute_group_eq(Z2, p, q, budget=budget)
    # no budget means the one default, 10^7: 10^8 evaluations are refused
    eight = r.word_of("a b c d e f g h")
    assert decide.DEFAULT_BUDGET == 10 ** 7
    with pytest.raises(BudgetExceededError,
                       match=f"exceed budget {decide.DEFAULT_BUDGET}$"):
        r.brute_eq(S_H3, eight, eight)


def test_engine_refuses_a_nonpositive_budget():
    # every homomorphism-search path refuses before any run, with the
    # oracles' message, and decides at the default budget
    p, q = r.word_of("[1,2] x [2,1]"), r.word_of("[1,2] x y [2,1]")
    calls = ((partial(r.pol_zero, H3, p), "not-zero"),
             (partial(r.pol_zset_eq, H3, p, q), "not-equal"),
             (partial(r.pol_eq, H3, p, q), "not-equal"),
             (partial(r.pol_sat, H3, p, r.pair(0, 0)), "sat"))
    for call, kind in calls:
        for budget in (0, -5):
            with pytest.raises(BudgetExceededError,
                               match=f"budget must be positive, got {budget}"):
                call(budget=budget)
        assert call(budget=None).kind == kind


def test_brute_trivials():
    p = r.word_of("x y")
    assert r.brute_eq(S_I2, p, p).kind == "equal"
    for b in S_I2.elements():
        if b != r.ZERO:
            assert r.brute_sat(S_I2, r.word_of("x"), b).kind == "sat"
    values = r.value_vector(S_I2, r.word_of("x"), ("x",))
    assert len(values) == S_I2.size
    assert [e for e, v in zip(S_I2.elements(), values) if v == 0] == [r.ZERO]


def test_verdict_exit_semantics():
    assert r.Verdict("equal", "m").positive
    assert r.Verdict("zero", "m").positive
    assert r.Verdict("sat", "m").positive
    assert not r.Verdict("not-equal", "m").positive
    assert not r.Verdict("unsat", "m").positive


# ---------------------------------------------------------------------------
# the search kernel against a plain lexicographic scan

KERNEL_SEMIGROUPS = {
    "H3": S_H3,
    "C3": r.combinatorial(r.matrix(((1, 1, 0), (0, 1, 1), (1, 0, 1)))),
    "N23": r.combinatorial(r.matrix(((1, 1, 0), (0, 1, 1)))),
    "I2+1": r.combinatorial(I2, with_identity=True),
    "Z3-rees": ReesSemigroup(StructureMatrix(((1, 2), (3, 1))),
                             cyclic_group(3)),
}


def _random_word(rng, S, names):
    consts = S.nonzero_triples()
    syms = [r.var(rng.choice(names)) if rng.random() < 0.7
            else r.const(rng.choice(consts))
            for _ in range(rng.randint(1, 6))]
    return r.poly(*syms)


def _scan(S, words, test):
    """First evaluation, in itertools.product order over the union of the
    words' variables in first-occurrence order, at which test holds for the
    words' values under words.evaluate; None when there is none."""
    union = tuple(dict.fromkeys(v for p in words for v in p.variables))
    for combo in itertools.product(S.elements(), repeat=len(union)):
        e = dict(zip(union, combo))
        if test(*(r.evaluate(S, p, e) for p in words)):
            return r.Evaluation.of(e)
    return None


def _differs_in_zero(a, b):
    return (a == r.ZERO) != (b == r.ZERO)


def _check_kernel(S, p, q, b, names):
    cases = (
        (r.brute_eq(S, p, q), ("equal", "not-equal"),
         _scan(S, (p, q), lambda u, v: u != v)),
        (r.brute_zset_eq(S, p, q), ("equal", "not-equal"),
         _scan(S, (p, q), _differs_in_zero)),
        (r.brute_zero(S, p), ("zero", "not-zero"),
         _scan(S, (p,), lambda u: u != r.ZERO)),
        (r.brute_sat(S, p, b), ("unsat", "sat"),
         _scan(S, (p,), lambda u: u == b)),
    )
    for verdict, (none, found), witness in cases:
        assert verdict.kind == (none if witness is None else found), (p, q, b)
        assert verdict.witness == witness, (p, q, b)
    combos = list(itertools.product(S.elements(), repeat=len(names)))
    values = r.value_vector(S, p, names)
    assert {c for c, v in zip(combos, values) if v == 0} == {
        combo for combo in combos
        if r.evaluate(S, p, dict(zip(names, combo))) == r.ZERO}


@pytest.mark.parametrize("name", sorted(KERNEL_SEMIGROUPS))
def test_kernel_matches_lexicographic_scan(name):
    S = KERNEL_SEMIGROUPS[name]
    rng = random.Random(name)
    most = 4 if S.size <= 7 else 3
    for _ in range(60):
        names = ("x", "y", "z", "w")[:rng.randint(1, most)]
        p, q = (_random_word(rng, S, names) for _ in range(2))
        _check_kernel(S, p, q, rng.choice(S.elements()), names)


@pytest.mark.parametrize("name", sorted(KERNEL_SEMIGROUPS))
def test_kernel_budget_is_the_space(name):
    S = KERNEL_SEMIGROUPS[name]
    p, q = r.word_of("x y z"), r.word_of("z y x")
    space = S.size ** 3
    oracles = (lambda budget: r.brute_eq(S, p, q, budget=budget),
               lambda budget: r.brute_zset_eq(S, p, q, budget=budget),
               lambda budget: r.brute_zero(S, p, budget=budget),
               lambda budget: r.brute_sat(S, p, r.ZERO, budget=budget),
               lambda budget: r.value_vector(S, p, p.variables,
                                             budget=budget))
    for oracle in oracles:
        oracle(space)
        with pytest.raises(BudgetExceededError):
            oracle(space - 1)


def test_kernel_budget_covers_the_multiplication_table():
    # with fewer than two variables the |S|^2 products that build the
    # multiplication table outnumber the evaluations, and the budget counts
    # them: I3's semigroup has 10 elements, so 100 products
    S, x = r.combinatorial(r.identity(3)), r.word_of("x")
    assert S.size == 10
    oracles = (lambda budget: r.brute_eq(S, x, x, budget=budget),
               lambda budget: r.brute_zset_eq(S, x, x, budget=budget),
               lambda budget: r.brute_zero(S, x, budget=budget),
               lambda budget: r.brute_sat(S, x, r.ZERO, budget=budget),
               lambda budget: r.value_vector(S, x, ("x",), budget=budget))
    for oracle in oracles:
        with pytest.raises(BudgetExceededError, match=re.escape(
                "10^2 = 100 products for the multiplication table exceed "
                "budget 99")):
            oracle(99)
        oracle(100)


def test_zset_witness_from_mismatching_slice():
    # the mismatching slice keeps both words whole, over the same variables;
    # the witness is built from one pin that separates their constraint
    # systems, with no search, so a budget of 1 suffices (the words over
    # S^1 span 6^9 evaluations)
    p = r.word_of("a b c d e f g h i")
    q = r.word_of("i h g f e d c b a")
    S1 = r.combinatorial(I2, with_identity=True)
    v = r.pol_zset_eq(I2, p, q, adjoin_identity=True, budget=1)
    assert v.kind == "not-equal" and v.witness is not None
    w = v.witness.as_dict()
    assert (r.evaluate(S1, p, w) == r.ZERO) != (r.evaluate(S1, q, w) == r.ZERO)


# ---------------------------------------------------------------------------
# witnesses from the complete fast paths

def _no_search(*args):
    raise AssertionError("a fast path called the search kernel")


def _same_variables(rng, pool, p):
    return rng.choice([q for q in pool if set(q.variables) == set(p.variables)])


def test_fast_paths_never_search(monkeypatch):
    # on balanced, all-ones and bordered matrices every witness comes from
    # the complete fast paths; half the pairs share their variables, so the
    # first slice alone does not separate them
    rng = random.Random(13)
    terms = all_terms(("x", "y", "z"), 4)
    cases = []
    for M in matrix_classes(3, 3):
        balanced = is_totally_balanced(M)
        if not (balanced or r.is_bordered(M)):
            continue
        S, S1 = r.combinatorial(M), r.combinatorial(M, True)
        pool = random_words(M, rng, 40)
        for k in range(24):
            p = rng.choice(terms)
            q = _same_variables(rng, terms, p) if k % 2 else rng.choice(terms)
            cases.append((partial(r.term_eq, M, p, q),
                          r.brute_eq(S, p, q).kind))
            cases.append((partial(r.term_eq_s1, M, p, q),
                          r.brute_eq(S1, p, q).kind))
            p = rng.choice(pool)
            q = _same_variables(rng, pool, p) if k % 2 else rng.choice(pool)
            cases.append((partial(r.pol_zset_eq, M, p, q),
                          r.brute_zset_eq(S, p, q).kind))
            if balanced:
                cases.append((partial(r.pol_zset_eq, M, p, q,
                                      adjoin_identity=True),
                              r.brute_zset_eq(S1, p, q).kind))
    monkeypatch.setattr(oracles, "_first", _no_search)
    for run, expected in cases:
        v = run()
        assert v.kind == expected, run
        assert v.positive or v.witness is not None, run


@pytest.mark.parametrize("live,dead", [
    ("x", "[1,1] x"),
    ("[1,1] x", "[2,2] x"),
    ("x y", "x x y"),
    ("[1,1] y x", "x y"),
    ("x [1,2] y", "x y"),
], ids=["pin-live-lacks", "differing-pins", "gluing-live-lacks",
        "gluing-one-pinned", "gluing-both-pinned"])
def test_zset_separator_cases(monkeypatch, live, dead):
    # slice words over the same variables whose constraint systems differ:
    # one pin that the live word allows and the dead word forbids separates
    # them, whichever side the live word is on
    live, dead = (r.parse_polynomial(t, S_I2) for t in (live, dead))
    monkeypatch.setattr(oracles, "_first", _no_search)
    for p, q in ((live, dead), (dead, live)):
        v = r.pol_zset_eq(I2, p, q)
        assert v.kind == "not-equal"
        w = v.witness.as_dict()
        assert (r.evaluate(S_I2, p, w) == r.ZERO) != \
            (r.evaluate(S_I2, q, w) == r.ZERO)


def _global_names(code):
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _global_names(const)


def _codes(namespace, name):
    """The code of the function of that name in a module's namespace, or of
    every method of its class of that name, if the module defines it;
    nothing for other names."""
    obj = namespace.get(name)
    obj = getattr(obj, "__wrapped__", obj)  # classify_matrix is cached
    fns = vars(obj).values() if isinstance(obj, type) else (obj,)
    return [fn.__code__ for fn in fns if isinstance(fn, types.FunctionType)
            and fn.__module__ == namespace["__name__"]]


def _reached(namespace, start):
    """The names of a module's namespace that the code of start reaches,
    through the functions and classes the module defines."""
    seen, todo = set(start), list(start)
    while todo:
        for code in _codes(namespace, todo.pop()):
            for ref in _global_names(code):
                if ref in namespace and ref not in seen:
                    seen.add(ref)
                    todo.append(ref)
    return seen


SRC = pathlib.Path(r.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}


def _package_imports(source):
    """The (module, name) pairs that the import statements of source take
    from the reeseq package, written relative or absolute: ("decide",
    "Verdict") for from .decide import Verdict, ("decide", "*") for a whole
    module, and ("", name) for a name of the package itself, ("", "*")
    for import reeseq."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {(module, "*") for head, _, module in
                    (alias.name.partition(".") for alias in node.names)
                    if head == "reeseq"}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                head, _, module = module.partition(".")
                if head != "reeseq":
                    continue
            out |= {(alias.name, "*") if not module and alias.name in MODULES
                    else (module, alias.name) for alias in node.names}
    return out


# the six names oracles takes from decide, and all that their code reaches
# there: an emitter's evaluation and check, the budget, Verdict's setters
ORACLE_IMPORTS = {"Verdict", "_emit_eq", "_emit_nonzero", "_emit_sat",
                  "_emit_eq_zset", "_space"}
ORACLE_REACH = ORACLE_IMPORTS | {
    "evaluate", "Evaluation", "ZERO", "element_str", "WitnessSearchError",
    "_Budget", "BudgetExceededError", "DEFAULT_BUDGET", "_set_kind",
    "_set_method", "_set_witness", "_set_detail"}
# the modules of the fast paths, and "" for the package, which reaches all
FAST_PATHS = ("", "decide", "graphs", "matrices")


def _fast_path_imports(source):
    return {(m, n) for m, n in _package_imports(source) if m in FAST_PATHS}


def _imports_oracles(source):
    return any(m == "oracles" or not m and n in r._ORACLES
               for m, n in _package_imports(source))


def test_oracles_never_reach_fast_paths():
    # the oracles certify the fast paths, so they share no code with them,
    # as a fact of the import graph: oracles takes six names from decide
    # and nothing else from the fast paths' modules, and those six reach
    # nothing in decide past an emitter's check and the budget; no module
    # imports oracles, whose names decide no longer defines, and
    # brute-check reaches it through the package's hook
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    assert _fast_path_imports(sources["oracles"]) == \
        {("decide", name) for name in ORACLE_IMPORTS}
    assert _reached(vars(decide), ORACLE_IMPORTS) == ORACLE_REACH
    assert {stem for stem, source in sources.items()
            if _imports_oracles(source)} == set()
    assert not {"oracle", "brute_eq", "brute_zero", "brute_sat",
                "brute_zset_eq", "value_vector", "_first", "_tables"} & \
        set(vars(decide))
    assert "oracles" in set(_global_names(cli._run_brute_check.__code__))


def test_oracle_reaching_a_fast_path_is_caught():
    fake = ("import itertools\nimport reeseq\n"
            "from . import matrices, words\n"
            "from .core import ZERO\n"
            "from .decide import Verdict, term_profile\n"
            "from reeseq.graphs import CompiledWord\n")
    assert _fast_path_imports(fake) == {
        ("", "*"), ("matrices", "*"), ("decide", "Verdict"),
        ("decide", "term_profile"), ("graphs", "CompiledWord")}
    for source in ("from . import oracles\n", "import reeseq.oracles\n",
                   "from .oracles import _first\n",
                   "from reeseq import brute_eq\n"):
        assert _imports_oracles(source), source
    assert not _imports_oracles("import reeseq\nfrom .decide import pol_eq\n")
    namespace = {"__name__": "fake"}
    exec("def _emit_eq(S, p):\n    return evaluate(S, p)\n\n"
         "def evaluate(S, p):\n    return term_profile(S, p)\n\n"
         "def term_profile(S, p):\n    return S.shadow\n", namespace)
    assert _reached(namespace, {"_emit_eq"}) == {"_emit_eq", "evaluate",
                                                 "term_profile"}


EMITTERS = {"_emit_eq", "_emit_nonzero", "_emit_sat", "_emit_eq_zset"}
QUESTIONS = {"term_eq", "term_eq_s1", "term_eq_group", "pol_zero",
             "pol_zset_eq", "pol_eq", "pol_sat"}


def _sites(namespace, targets):
    """The functions and classes of a module's namespace whose code names
    any of targets."""
    return {name for name in namespace
            if any(set(_global_names(code)) & targets
                   for code in _codes(namespace, name))}


def test_questions_emit_and_emitters_evaluate():
    # procedures find, questions emit: only the public questions and the
    # oracles turn a finding into a verdict, and only the emitters evaluate
    # a witness
    assert _sites(vars(decide), EMITTERS) == QUESTIONS
    assert _sites(vars(oracles), EMITTERS) == {
        "brute_eq", "brute_zero", "brute_sat", "brute_zset_eq"}
    assert _sites(vars(decide), {"evaluate"}) == EMITTERS
    assert _sites(vars(oracles), {"evaluate"}) == set()


def test_extra_emission_site_is_caught():
    namespace = {"__name__": "fake"}
    exec("def _emit_eq(S, p):\n    return evaluate(S, p)\n\n"
         "def pol_eq(S, p):\n    return _emit_eq(S, p)\n\n"
         "def _eq_plain(S, p):\n    return [_emit_eq(S, u) for u in p]\n\n"
         "class _Net:\n    def run(self):\n        return evaluate(self)\n",
         namespace)
    assert _sites(namespace, EMITTERS) == {"pol_eq", "_eq_plain"}
    assert _sites(namespace, {"evaluate"}) == {"_emit_eq", "_Net"}


def _all_zero(*words):
    """An assignment that puts every variable of words on ZERO: it
    separates no two words and solves no nonzero target."""
    return {u: r.ZERO for w in words for u in w.variables}


@pytest.mark.parametrize("question", [
    lambda p, q: r.pol_eq(H3, p, q),
    lambda p, q: r.pol_eq(H3, p, q, adjoin_identity=True),
    lambda p, q: r.pol_eq(I2, p, q, adjoin_identity=True),
    lambda p, q: r.term_eq(H3, p, q),
    lambda p, q: r.term_eq(I2, p, q),
    lambda p, q: r.term_eq_s1(H3, p, q),
    lambda p, q: r.term_eq_s1(I2, p, q),
    lambda p, q: r.term_eq_group(H3, cyclic_group(2), p, q),
    lambda p, q: r.pol_zset_eq(H3, p, q),
    lambda p, q: r.pol_zset_eq(H3, p, q, adjoin_identity=True),
    lambda p, q: r.pol_sat(H3, p, r.pair(0, 1)),
    lambda p, q: r.pol_sat(H3, p, r.pair(0, 1), adjoin_identity=True),
    lambda p, q: r.pol_zero(H3, p),
    lambda p, q: r.pol_zero(H3, p, adjoin_identity=True),
], ids=["pol-eq", "pol-eq-S1", "pol-eq-I2-S1", "term-eq", "term-eq-I2",
        "term-eq-S1", "term-eq-I2-S1", "term-eq-group", "zset-eq",
        "zset-eq-S1", "pol-sat", "pol-sat-S1", "pol-zero", "pol-zero-S1"])
def test_a_bad_finding_still_raises(monkeypatch, question):
    # the procedures' findings are checked by the question alone; a finding
    # that does not separate must still raise
    monkeypatch.setattr(decide, "_eq_plain", lambda M, prof, p, q, nodes:
                        (_all_zero(p, q), ()))
    monkeypatch.setattr(decide, "_zset_zero_pairs", lambda M, netp, q, nodes:
                        (_all_zero(netp.word, q), (), True))
    monkeypatch.setattr(decide, "_search_slice", lambda M, nodes, b, pw:
                        (_all_zero(pw), ()))
    # balanced term-eq reads its witness off the deciding slice's labels
    monkeypatch.setattr(decide, "_zset_witness",
                        lambda prof, names, W, pw, qw, lp, lq:
                        _all_zero(pw, qw))
    monkeypatch.setattr(decide, "_end_scan", lambda M, net, p, q, nodes:
                        (_all_zero(p, q), ()))
    with pytest.raises(WitnessSearchError):
        question(r.word_of("x y"), r.word_of("y x"))


def test_cli_exits_2_on_a_bad_finding(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(decide, "_eq_plain", lambda M, prof, p, q, nodes:
                        (_all_zero(p, q), ()))
    path = tmp_path / "H3.mat"
    path.write_text(r.format_matrix_file(H3), encoding="utf-8")
    assert cli.main(["pol-eq", "--matrix", str(path), "--brute",
                     "x y", "y x"]) == 2
    assert "bogus inequality witness" in capsys.readouterr().err


@pytest.mark.parametrize("run", [
    lambda p, q: r.pol_eq(r.all_ones(2, 2), r.word_of(p), r.word_of(q),
                          adjoin_identity=True),
    lambda p, q: r.term_eq_s1(I2, r.word_of(p), r.word_of(q)),
], ids=["pol-eq-J22-S1", "term-eq-I2-S1"])
@pytest.mark.parametrize("p,q", [("x y", "y x"), ("x y x", "x x y")])
def test_each_witness_is_evaluated_once(monkeypatch, run, p, q):
    # one evaluation per word, by the question's emitter over S1
    calls = []

    def counted(S, word, w):
        calls.append(S.has_identity)
        return r.evaluate(S, word, w)

    monkeypatch.setattr(decide, "evaluate", counted)
    v = run(p, q)
    assert checked_kind(v) == "not-equal"
    assert calls == [True, True]


BORDER_I2 = r.border(I2)


def _word(M, text):
    return r.parse_polynomial(text, r.combinatorial(M))


@pytest.mark.parametrize("run,calls", [
    (lambda: r.pol_zero(BORDER_I2, _word(BORDER_I2, "x [1,1] y")), [False]),
    (lambda: r.pol_zero(BORDER_I2, _word(BORDER_I2, "x [1,1] y"),
                        adjoin_identity=True), [True]),
    (lambda: r.pol_zero(BORDER_I2, _word(BORDER_I2, "[1,1] [2,2]")), []),
    (lambda: r.pol_sat(I2, _word(I2, "[1,1] [2,2]"), r.ZERO), [False]),
    (lambda: r.pol_sat(I2, _word(I2, "[1,1] [1,1]"), r.ZERO), []),
], ids=["border-not-zero", "border-not-zero-S1", "border-zero",
        "zero-target-sat", "zero-target-unsat"])
def test_border_and_zero_target_are_evaluated_by_the_emitter(
        monkeypatch, run, calls):
    # _dead_pair decides the bordered pol-zero and pol-sat's zero target,
    # so only a witness is evaluated, once, by the emitter
    seen = []

    def counted(S, word, w):
        seen.append(S.has_identity)
        return r.evaluate(S, word, w)

    monkeypatch.setattr(decide, "evaluate", counted)
    v = run()
    assert seen == calls
    assert (v.witness is None) == (not calls)
