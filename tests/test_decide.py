"""Decision procedures against their exhaustive oracles, plus the worked
facts each procedure is pinned to."""

import itertools
import random

import pytest

import reeseq as r
from conftest import all_terms, matrix_classes
from reeseq.core import ReesSemigroup, StructureMatrix
from reeseq.errors import (BudgetExceededError, ReesError,
                           UnsupportedMatrixError)
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


def test_term_eq_s1_witness_from_first_mismatching_slice():
    # decided from the slice profiles; the witness comes from the plain
    # hints of the first mismatching slice, not from exhausting 11^7
    # assignments, so even a budget of 10 suffices
    I3 = r.identity(3)
    p = r.word_of("a b c d e f g a b c d e f g")
    q = r.word_of("a b c d e f g g f e d c b a")
    v = r.term_eq_s1(I3, p, q, budget=10)
    assert v.kind == "not-equal"
    S1 = r.combinatorial(I3, True)
    w = v.witness.as_dict()
    assert r.evaluate(S1, p, w) != r.evaluate(S1, q, w)


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
                assert r.term_eq(M, p, q, find_witness=False).kind == \
                    r.brute_eq(S, p, q).kind, (M, p, q)
                assert r.term_eq_s1(M, p, q, find_witness=False).kind == \
                    r.brute_eq(S1, p, q).kind, (M, p, q)


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
        assert r.pol_zset_eq(M, p, q, adjoin_identity=True,
                             find_witness=False).kind == \
            r.brute_zset_eq(S1, p, q).kind, (str(p), str(q))
    for _ in range(200):
        p, q = rng.choice(pool), rng.choice(pool)
        v = r.pol_zset_eq(M, p, q, adjoin_identity=True)
        assert v.kind == r.brute_zset_eq(S1, p, q).kind, (str(p), str(q))


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
    v = r.pol_zero(H3, p)  # oracle fallback is tagged
    assert v.method == "brute-force"


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


def test_matchability():
    S = r.combinatorial(BORDER_H3)
    p = r.parse_polynomial("x y", S)
    # the one edge of the bipartite graph joins y's first and x's second
    with pytest.raises(ReesError):
        r.p_matchable(BORDER_H3, p, ("v", "y", 1), ("v", "x", 2))
    # a zero can land on the non-edge (x1, y2) while p stays nonzero:
    # pin x = [1,.], y = [.,1] and complete the rest with border indices
    assert r.p_matchable(BORDER_H3, p, ("v", "x", 1), ("v", "y", 2))
    # constant vertices are forced, so a nonzero entry between them is
    # never matchable
    q = r.parse_polynomial("x [1,2] y", S)
    assert not r.p_matchable(BORDER_H3, q, ("c", 0, 1), ("c", 1, 2))


def test_zset_bordered_constants():
    S = r.combinatorial(BORDER_H3)
    p = r.parse_polynomial("x [1,2] y", S)
    q = r.parse_polynomial("x [1,3] y", S)
    fast = r.pol_zset_eq(BORDER_H3, p, q)
    oracle = r.brute_zset_eq(S, p, q)
    assert fast.kind == oracle.kind
    assert fast.method == "border-matchability"


@pytest.mark.parametrize("N", [BORDER_H3, r.border(I2)],
                         ids=["border-hollow3", "border-identity2"])
def test_bordered_suite_matches_oracles(N):
    # all four procedures against the oracles over bordered matrices
    # (border of the 2x2 identity is bordered but not totally balanced)
    assert r.is_bordered(N) and not r.is_totally_balanced(N)
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
            assert r.pol_zset_eq(N, p, q, find_witness=False).kind == \
                r.brute_zset_eq(S, p, q).kind, (str(p), str(q))
            assert r.pol_eq(N, p, q, find_witness=False).kind == \
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
    # the trivial group reduces to the plain procedure
    triv = r.term_eq_group(I2, r.trivial_group(), r.word_of("x y"),
                           r.word_of("y x"))
    assert triv.kind == r.term_eq(I2, r.word_of("x y"),
                                  r.word_of("y x")).kind


def test_group_lift_uses_group_side():
    Z2 = cyclic_group(2)
    # same shadow profile, different group value: x vs x^3 over the shadow
    # of the all-ones matrix collapses, the group side separates them
    J = r.all_ones(1, 1)
    v = r.term_eq_group(J, Z2, r.word_of("x"), r.word_of("x x x"))
    assert v.kind == "equal"  # x = x^3 in a group of exponent 2 and J is a point
    v2 = r.term_eq_group(J, Z2, r.word_of("x"), r.word_of("x x"))
    assert v2.kind == "not-equal"


def test_custom_group_oracle_is_used():
    calls = []

    def oracle(G, p, q):
        calls.append((p, q))
        return r.brute_group_eq(G, p, q)

    r.term_eq_group(I2, cyclic_group(2), r.word_of("x"), r.word_of("x"),
                    group_oracle=oracle)
    assert calls


# ---------------------------------------------------------------------------
# oracle plumbing

def test_not_balanced_terms_zero_sets_reduce_to_adjacency():
    # over a not totally balanced matrix, terms share zero sets exactly when
    # their adjacency digraphs agree
    from reeseq.graphs import build_adjacency
    terms = all_terms(("x", "y"), 4)
    for M in matrix_classes(2, 2):
        if r.is_totally_balanced(M):
            continue
        S = r.combinatorial(M)
        for p in terms:
            for q in terms:
                assert (build_adjacency(p) == build_adjacency(q)) == \
                    (r.brute_zset_eq(S, p, q).kind == "equal")


def test_caches_are_bounded():
    from reeseq import decide
    for cached in (decide.classify_matrix, decide._tables):
        assert cached.cache_info().maxsize is not None


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        r.brute_eq(S_H3, r.word_of("a b c d e"), r.word_of("e d c b a"),
                   budget=100)


def test_budget_environment_default(monkeypatch):
    monkeypatch.setenv("REESEQ_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        r.brute_eq(S_H3, r.word_of("a b"), r.word_of("b a"))
    monkeypatch.delenv("REESEQ_BUDGET")
    assert r.brute_eq(S_H3, r.word_of("a b"), r.word_of("b a")).kind == \
        "not-equal"


def test_brute_trivials():
    p = r.word_of("x y")
    assert r.brute_eq(S_I2, p, p).kind == "equal"
    for b in S_I2.elements():
        if b != r.ZERO:
            assert r.brute_sat(S_I2, r.word_of("x"), b).kind == "sat"
    z = r.brute_zset(S_I2, r.word_of("x"))
    assert z.variables == ("x",)
    assert (r.ZERO,) in z.zeros and len(z.zeros) == 1


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
    zeros = r.brute_zset(S, p, var_order=names)
    assert zeros.zeros == {
        combo for combo in itertools.product(S.elements(), repeat=len(names))
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
               lambda budget: r.brute_zset(S, p, budget=budget))
    for oracle in oracles:
        oracle(space)
        with pytest.raises(BudgetExceededError):
            oracle(space - 1)


def test_zset_witness_from_mismatching_slice():
    # the mismatching slice keeps both words whole, so no hint applies; the
    # witness comes from the slice's words over the plain semigroup (5^9
    # evaluations) instead of the words over S^1 (6^9, over the budget)
    p = r.word_of("a b c d e f g h i")
    q = r.word_of("i h g f e d c b a")
    S1 = r.combinatorial(I2, with_identity=True)
    v = r.pol_zset_eq(I2, p, q, adjoin_identity=True)
    assert v.kind == "not-equal" and v.witness is not None
    w = v.witness.as_dict()
    assert (r.evaluate(S1, p, w) == r.ZERO) != (r.evaluate(S1, q, w) == r.ZERO)
