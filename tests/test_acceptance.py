"""Acceptance criteria: oracle agreement at desk scale plus pinned facts.

Each test prints one pass/fail line with its runtime.  Bulk sweeps compare
the library's per-term profiles (exactly what the deciders compare) against
exhaustive value-vector equivalence classes, which certifies agreement over
every pair; sampled instances additionally exercise the full verdict API,
witnesses included.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

import reeseq as r
from conftest import (all_terms, checked_kind, matrix_classes,
                      partitions_match, regular_grids)
from references import is_totally_balanced
from reeseq import reductions as red
from reeseq.core import ReesSemigroup, StructureMatrix
from reeseq.errors import UnsupportedMatrixError
from reeseq.fields import l2_quotient_check, rank1_semigroup
from reeseq.groups import cyclic_group
from reeseq.words import evaluate, transpose_polynomial, permute_polynomial


@contextmanager
def criterion(number, desc, limit_seconds):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({desc}): FAIL "
              f"({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    print(f"criterion {number} ({desc}): PASS ({elapsed:.1f}s)")
    assert elapsed < limit_seconds


VAR_ORDER = ("x", "y", "z")


def poly_pool(S, seed, extra=40):
    """Deterministic mixed pool: short exhaustive words, seeded longer ones."""
    rng = random.Random(seed)
    consts = [f"[{i + 1},{lam + 1}]"
              for i in range(S.n) for lam in range(S.m)]
    alphabet = ["u", "v"] + consts[:2] + consts[-1:]
    texts = []
    for length in (1, 2, 3):
        for word in itertools.product(alphabet, repeat=length):
            texts.append(" ".join(word))
    for _ in range(extra):
        length = rng.randint(4, 6)
        texts.append(" ".join(rng.choice(["u", "v", rng.choice(consts)])
                              for _ in range(length)))
    return [r.parse_polynomial(t, S) for t in dict.fromkeys(texts)]


def test_criterion_01_worked_identity():
    with criterion(1, "worked identity over the 2x2 identity matrix", 1.0):
        v = r.term_eq(r.identity(2), r.word_of("x x y y"),
                      r.word_of("y y x x"))
        assert v.kind == "equal"


def test_criterion_02_term_eq_oracle_agreement():
    with criterion(2, "term equivalence matches the oracle, plain", 600):
        terms = all_terms(VAR_ORDER, 5)
        rng = random.Random(2)
        for M in matrix_classes(3, 3):
            S = r.combinatorial(M)
            vecs = {p: r.value_vector(S, p, VAR_ORDER) for p in terms}
            assert partitions_match(terms,
                                    lambda p: r.term_profile(M, p),
                                    vecs.__getitem__), M.entries
            for p, q in [(rng.choice(terms), rng.choice(terms))
                         for _ in range(40)]:
                fast = r.term_eq(M, p, q)
                assert (fast.kind == "equal") == (vecs[p] == vecs[q])
                if fast.kind == "not-equal":
                    w = fast.witness.as_dict()
                    assert r.evaluate(S, p, w) != r.evaluate(S, q, w)


def test_criterion_03_term_eq_oracle_agreement_s1():
    with criterion(3, "term equivalence matches the oracle, identity "
                   "adjoined", 600):
        terms = all_terms(VAR_ORDER, 4)
        rng = random.Random(3)
        for M in matrix_classes(3, 3):
            S1 = r.combinatorial(M, True)
            vecs = {p: r.value_vector(S1, p, VAR_ORDER) for p in terms}
            assert partitions_match(
                terms,
                lambda p: r.term_profile(M, p, with_identity=True),
                vecs.__getitem__), M.entries
            for p, q in [(rng.choice(terms), rng.choice(terms))
                         for _ in range(25)]:
                fast = r.term_eq_s1(M, p, q)
                assert (fast.kind == "equal") == (vecs[p] == vecs[q])
                if fast.witness is not None:
                    w = fast.witness.as_dict()
                    assert r.evaluate(S1, p, w) != r.evaluate(S1, q, w)


BALANCED_SUITE = (
    r.identity(2),
    r.identity(3),
    r.all_ones(2, 2),
    r.all_ones(2, 3),
    r.matrix(((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1))),
)


def test_criterion_04_balanced_polynomial_suite():
    with criterion(4, "balanced-matrix polynomial procedures match the "
                   "oracles", 600):
        for M in BALANCED_SUITE:
            S = r.combinatorial(M)
            pool = poly_pool(S, seed=4)
            for p in pool:
                assert checked_kind(r.pol_zero(M, p)) == \
                    r.brute_zero(S, p).kind, (M.entries, str(p))
            for p in pool[:60]:
                for q in pool[:60]:
                    assert checked_kind(r.pol_zset_eq(M, p, q)) == \
                        r.brute_zset_eq(S, p, q).kind, (str(p), str(q))
                    assert checked_kind(r.pol_eq(M, p, q)) == \
                        r.brute_eq(S, p, q).kind, (str(p), str(q))
            targets = [r.pair(i, lam) for i in range(M.n)
                       for lam in range(M.m)] + [r.ZERO]
            for p in pool[:40]:
                for b in targets:
                    assert r.pol_sat(M, p, b).kind == \
                        r.brute_sat(S, p, b).kind, (str(p), b)
            # sampled witnesses on the equality side
            rng = random.Random(14)
            checked = 0
            for p, q in [(rng.choice(pool), rng.choice(pool))
                         for _ in range(60)]:
                v = r.pol_eq(M, p, q)
                if v.witness is not None:
                    w = v.witness.as_dict()
                    assert r.evaluate(S, p, w) != r.evaluate(S, q, w)
                    checked += 1
            assert checked


def test_criterion_05_bordered_class():
    with criterion(5, "bordered-matrix procedures match the oracles and the "
                   "alternating family dispatches", 600):
        N = r.border(r.hollow(3))
        S = r.combinatorial(N)
        rng = random.Random(5)
        consts = [f"[{i + 1},{lam + 1}]" for i in range(4) for lam in range(4)]
        texts = []
        for length in (1, 2):
            for word in itertools.product(["u", "v"] + consts[:3], repeat=length):
                texts.append(" ".join(word))
        for _ in range(70):
            length = rng.randint(3, 5)
            texts.append(" ".join(rng.choice(["u", "v", rng.choice(consts)])
                                  for _ in range(length)))
        pool = [r.parse_polynomial(t, S) for t in dict.fromkeys(texts)]
        for p in pool:
            assert checked_kind(r.pol_zero(N, p)) == \
                r.brute_zero(S, p).kind, str(p)
        for p in pool[:55]:
            for q in pool[:55]:
                assert checked_kind(r.pol_eq(N, p, q)) == \
                    r.brute_eq(S, p, q).kind, (str(p), str(q))

        # the alternating chain: bordered members take the fast path, the
        # direct-sum members are rejected by every fast path
        a3 = r.direct_sum(N, r.hollow(3))
        a4 = r.border(a3)
        assert r.is_bordered(a4) and not is_totally_balanced(a4)
        assert not r.is_bordered(a3) and not is_totally_balanced(a3)
        Sa4 = r.combinatorial(a4)
        p = r.parse_polynomial("[1,1] x [2,2]", Sa4)
        v = r.pol_zero(a4, p, allow_brute=False)
        assert v.method == "border-evaluation"
        Sa3 = r.combinatorial(a3)
        q = r.parse_polynomial("[1,1] x [2,2]", Sa3)
        for fn in (lambda: r.pol_zero(a3, q, allow_brute=False),
                   lambda: r.pol_eq(a3, q, q, allow_brute=False),
                   lambda: r.pol_zset_eq(a3, q, q, allow_brute=False),
                   lambda: r.pol_sat(a3, q, r.pair(0, 0), allow_brute=False)):
            with pytest.raises(UnsupportedMatrixError):
                fn()


def test_criterion_06_retraction_characterization():
    with criterion(6, "retraction recognizes balance on every grid up to "
                   "4x4", 300):
        for m in range(1, 5):
            for n in range(1, 5):
                for grid in regular_grids(m, n):
                    M = r.matrix(grid)
                    plan, _ = r.retract(M)
                    assert (plan is not None) == is_totally_balanced(M), \
                        grid


def test_criterion_07_block_level_gadget():
    with criterion(7, "coloring gadget blocks kill exactly the mirrored "
                   "value and measure 50", 60):
        S = red.h3_semigroup()
        nonzero = S.nonzero_triples()
        for s, t in red.color_pairs():
            block = red.gadget_block(0, s, t)
            helper = f"x#1#{s}.{t}"
            for x in nonzero:
                alive = any(
                    evaluate(S, block, {red.vertex_var(0): x, helper: a})
                    != r.ZERO for a in nonzero)
                assert alive == (x != r.pair(t - 1, s - 1))
        assert red.sigma_of_variable(0).length == 50


def test_criterion_08_graph_level_gadget():
    with criterion(8, "triangle admits a structured witness, the complete "
                   "4-graph has none", 60):
        S = red.h3_semigroup()
        k3 = red.complete_graph(3)
        inst3 = red.sigma(k3)
        e = red.complete_nonzero_evaluation(k3, (1, 2, 3))
        assert evaluate(S, inst3.polynomial, e) != r.ZERO
        assert red.decode_coloring(k3, e) == (1, 2, 3)

        k4 = red.complete_graph(4)
        walk = red.edge_walk(k4)
        # every nil assignment hits a dead junction (non-nil assignments are
        # excluded by the block property of criterion 7): zero absorbs, so
        # no buffer extension can revive the word
        for coloring in itertools.product((1, 2, 3), repeat=4):
            assert any(coloring[a] == coloring[b]
                       for a, b in zip(walk, walk[1:]))


def test_criterion_09_field_semigroups():
    with criterion(9, "rank-1 semigroups quotient onto hollow matrices and "
                   "the presentation is an isomorphism", 120):
        perm2 = l2_quotient_check(2)
        shadow2 = rank1_semigroup(2, 2).semigroup.h_quotient().matrix
        assert r.permute(shadow2, list(range(3)), perm2) == r.hollow(3)
        perm3 = l2_quotient_check(3)
        shadow3 = rank1_semigroup(3, 2).semigroup.h_quotient().matrix
        assert r.permute(shadow3, list(range(4)), perm3) == r.hollow(4)

        from reeseq.fields import MatrixSemigroup, PrimeField
        for p, n in ((2, 2), (2, 3), (3, 2)):
            rk = rank1_semigroup(p, n)
            S = rk.semigroup
            T = MatrixSemigroup(PrimeField(p), n)
            els = S.elements()
            mats = {e: rk.triple_to_matrix(e) for e in els}
            assert len(set(mats.values())) == len(els)
            assert set(mats.values()) == set(T.low_rank_elements())
            for a in els:
                for b in els:
                    assert mats[S.multiply(a, b)] == \
                        T.multiply(mats[a], mats[b])


def test_criterion_10_group_lift():
    with criterion(10, "group lift matches the oracle over the cyclic group "
                   "of order two", 300):
        Z2 = cyclic_group(2)
        terms = all_terms(VAR_ORDER, 4)
        rng = random.Random(10)
        for M in (r.identity(2), r.hollow(3)):
            entries = tuple(tuple(1 if v else 0 for v in row)
                            for row in M.entries)
            S = ReesSemigroup(StructureMatrix(entries), Z2)
            vecs = {p: r.value_vector(S, p, VAR_ORDER) for p in terms}

            def lift_key(p):
                parity = tuple(sum(1 for s in p.word if s.name == v) % 2
                               for v in VAR_ORDER)
                return (r.term_profile(M, p), parity)

            assert partitions_match(terms, lift_key, vecs.__getitem__)
            for p, q in [(rng.choice(terms), rng.choice(terms))
                         for _ in range(30)]:
                fast = r.term_eq_group(M, Z2, p, q)
                assert (fast.kind == "equal") == (vecs[p] == vecs[q])
                if fast.witness is not None:
                    w = fast.witness.as_dict()
                    assert r.evaluate(S, p, w) != r.evaluate(S, q, w)


def test_criterion_11_transfer_invariance():
    with criterion(11, "verdicts survive transposition and line "
                   "permutations", 300):
        rng = random.Random(11)
        term_mats = matrix_classes(3, 3)
        poly_mats = list(BALANCED_SUITE) + [r.border(r.hollow(3))]
        terms = all_terms(("x", "y"), 4)
        checked = 0
        for _ in range(100):
            if rng.random() < 0.5:
                M = rng.choice(term_mats)
                p, q = rng.choice(terms), rng.choice(terms)
                decide = r.term_eq_s1 if rng.random() < 0.4 else r.term_eq
                base = checked_kind(decide(M, p, q))
                flipped = checked_kind(decide(M.transpose(),
                                              transpose_polynomial(p),
                                              transpose_polynomial(q)))
                rp = list(range(M.m))
                cp = list(range(M.n))
                rng.shuffle(rp)
                rng.shuffle(cp)
                relabeled = checked_kind(decide(r.permute(M, rp, cp), p, q))
                assert base == flipped == relabeled, (M.entries, p, q)
            else:
                M = rng.choice(poly_mats)
                S = r.combinatorial(M)
                pool = poly_pool(S, seed=rng.randint(0, 10 ** 6), extra=6)
                p, q = rng.choice(pool), rng.choice(pool)
                rp = list(range(M.m))
                cp = list(range(M.n))
                rng.shuffle(rp)
                cp_shuffled = cp[:]
                rng.shuffle(cp_shuffled)
                op = rng.choice(("zero", "zset", "eq"))
                if op == "zero":
                    base = checked_kind(r.pol_zero(M, p))
                    flipped = checked_kind(r.pol_zero(
                        M.transpose(), transpose_polynomial(p)))
                    relabeled = checked_kind(r.pol_zero(
                        r.permute(M, rp, cp_shuffled),
                        permute_polynomial(p, rp, cp_shuffled)))
                else:
                    decide = r.pol_zset_eq if op == "zset" else r.pol_eq
                    base = checked_kind(decide(M, p, q))
                    flipped = checked_kind(decide(
                        M.transpose(), transpose_polynomial(p),
                        transpose_polynomial(q)))
                    relabeled = checked_kind(decide(
                        r.permute(M, rp, cp_shuffled),
                        permute_polynomial(p, rp, cp_shuffled),
                        permute_polynomial(q, rp, cp_shuffled)))
                assert base == flipped == relabeled, \
                    (M.entries, str(p), str(q), op)
            checked += 1
        assert checked == 100
