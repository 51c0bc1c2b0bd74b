"""Matrix classification, retraction plans, the hat transform, constructors."""

import random

import pytest

import reeseq as r
from conftest import matrix_classes, regular_grids
from references import is_totally_balanced, is_totally_balanced_by_lines
from reeseq.errors import (IrregularMatrixError, ReesError,
                           UnsupportedMatrixError)
from reeseq.matrices import is_all_ones, lift_element_map


def test_regularity():
    assert r.is_regular(r.identity(2))
    assert r.is_regular(r.hollow(3))
    assert not r.is_regular(r.matrix(((1, 1), (0, 0))))
    assert not r.is_regular(r.matrix(((1, 0), (1, 0))))


def test_totally_balanced_basics():
    assert is_totally_balanced(r.identity(4))
    assert is_totally_balanced(r.all_ones(2, 3))
    assert not is_totally_balanced(r.hollow(3))
    # the two characterizations agree on every regular grid up to 3x3
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for grid in regular_grids(m, n):
                M = r.matrix(grid)
                assert is_totally_balanced(M) == \
                    is_totally_balanced_by_lines(M)


def test_retraction_certifies_balance():
    for M in matrix_classes(3, 3):
        plan, residual = r.retract(M)
        assert (plan is not None) == is_totally_balanced(M)
        if plan is not None:
            # the plan reproduces the zero pattern through class labels
            for lam in range(M.m):
                for i in range(M.n):
                    assert (M.entry(lam, i) == 1) == \
                        (plan.row_class[lam] == plan.col_class[i])


def test_retract_examples():
    plan, _ = r.retract(r.all_ones(3, 2))
    assert plan is not None and plan.k == 1
    plan, residual = r.retract(r.hollow(3))
    assert plan is None and residual == r.hollow(3)
    plan, residual = r.retract(r.matrix(((1, 1, 0, 0), (1, 1, 0, 0),
                                         (0, 0, 1, 1))))
    assert plan is not None and plan.k == 2


def test_only_all_ones_retracts_to_a_point():
    for M in matrix_classes(3, 3):
        plan, _ = r.retract(M)
        if plan is not None:
            assert (plan.k == 1) == is_all_ones(M)


def test_retraction_order_does_not_matter():
    # deleting duplicate lines in any order leaves the same residual up to
    # permutation: compare sorted distinct rows/columns of the residual
    rng = random.Random(5)
    M = r.matrix(((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0)))
    _, residual = r.retract(M)
    base = (sorted(set(residual.entries)),
            sorted({residual.col(i) for i in range(residual.n)}))
    for _ in range(10):
        rp = list(range(M.m))
        cp = list(range(M.n))
        rng.shuffle(rp)
        rng.shuffle(cp)
        _, res2 = r.retract(r.permute(M, rp, cp))
        got = (sorted(set(res2.entries)),
               sorted({res2.col(i) for i in range(res2.n)}))
        assert got == base


def test_hat_transform():
    M = r.matrix(((1, 1, 0), (1, 1, 0), (0, 0, 1)))
    plan, _ = r.retract(M)
    S = r.combinatorial(M)
    term = r.word_of("x y")
    assert r.hat_transform(term, plan) == term
    p = r.parse_polynomial("[1,1] x [3,3]", S)
    ph = r.hat_transform(p, plan)
    k = plan.k
    Sk = r.combinatorial(r.identity(k))
    for s in ph.word:
        if not s.is_var:
            Sk.check_element(s.elem)
    assert ph.length == p.length


def _relabelled(p, plan):
    """The hat transform by its definition: a new word, every constant
    sent through the plan."""
    return r.Polynomial(tuple(
        s if s.is_var else r.const(r.triple(plan.col_class[s.elem.i],
                                            s.elem.g,
                                            plan.row_class[s.elem.lam]))
        for s in p.word))


@pytest.mark.parametrize("M,text,same", [
    (r.identity(3), "[1,1] x [3,3] y [2,2]", True),
    (r.matrix(((1, 1, 0), (1, 1, 0), (0, 0, 1))), "[1,1] x [3,3] y [2,2]",
     False),
    (r.matrix(((1, 1, 0), (1, 1, 0), (0, 0, 1))), "x [1,1] y", True),
    (r.matrix(((1, 1, 0), (1, 1, 0), (0, 0, 1))), "x y x", True),
], ids=["I3", "T33", "T33-fixed-constant", "T33-term"])
def test_hat_transform_keeps_a_word_no_constant_moves_in(M, text, same):
    plan, _ = r.retract(M)
    p = r.parse_polynomial(text, r.combinatorial(M))
    assert p.variables == ("x", "y")
    ph = r.hat_transform(p, plan)
    assert ph == _relabelled(p, plan)
    assert (ph is p) == same


def test_hat_preserves_zero_set_comparisons():
    # brute force over a 3x2 totally balanced matrix with duplicate rows
    M = r.matrix(((1, 0), (1, 0), (0, 1)))
    plan, _ = r.retract(M)
    S = r.combinatorial(M)
    Sk = r.combinatorial(r.identity(plan.k))
    pool = ["x y", "[1,1] x", "x [2,3] y", "x x", "[1,2] x [1,1]"]
    polys = [r.parse_polynomial(t, S) for t in pool]
    for p in polys:
        for q in polys:
            lhs = r.brute_zset_eq(S, p, q).kind
            rhs = r.brute_zset_eq(Sk, r.hat_transform(p, plan),
                                  r.hat_transform(q, plan)).kind
            assert lhs == rhs, (p, q)


def test_lift_map_respects_classes():
    M = r.matrix(((1, 1, 0), (1, 1, 0), (0, 0, 1)))
    plan, _ = r.retract(M)
    lift = lift_element_map(plan)
    for i in range(plan.k):
        for lam in range(plan.k):
            e = lift(r.pair(i, lam))
            assert plan.col_class[e.i] == i and plan.row_class[e.lam] == lam


def test_constructors():
    N = r.border(r.hollow(3))
    assert N.m == N.n == 4
    assert all(N.entry(3, i) == 1 for i in range(4))
    assert all(N.entry(lam, 3) == 1 for lam in range(4))
    assert tuple(tuple(row[:3]) for row in N.entries[:3]) == r.hollow(3).entries
    assert r.direct_sum(r.identity(1), r.identity(1)) == r.identity(2)
    assert all(sum(row) == 2 for row in r.hollow(3).entries)
    with pytest.raises(ReesError):
        r.hollow(1)


def test_border_of_matrix_with_zero_is_not_balanced():
    for M in matrix_classes(2, 2):
        if any(v == 0 for row in M.entries for v in row):
            assert not is_totally_balanced(r.border(M))
    assert is_totally_balanced(r.border(r.all_ones(2, 2)))


def test_bordered_recognition():
    assert r.is_bordered(r.border(r.hollow(3)))
    assert not r.is_bordered(r.hollow(3))
    assert r.is_bordered(r.all_ones(2, 2))
    N3 = r.direct_sum(r.border(r.hollow(3)), r.hollow(3))
    assert not r.is_bordered(N3)
    assert r.is_bordered(r.border(N3))


def test_permute_matches_element_relabeling():
    M = r.matrix(((1, 0, 1), (0, 1, 1)))
    rp, cp = (1, 0), (2, 0, 1)
    N = r.permute(M, rp, cp)
    for lam in range(M.m):
        for i in range(M.n):
            assert N.entry(rp[lam], cp[i]) == M.entry(lam, i)


@pytest.mark.parametrize("rows,error,message", [
    (((2, 1), (1, 1)), UnsupportedMatrixError,
     "fast procedures expect a 0-1 matrix"),
    (((2, 0), (0, 0)), UnsupportedMatrixError,
     "fast procedures expect a 0-1 matrix"),
    (((1, 1), (0, 0)), IrregularMatrixError,
     "structure matrix must be regular"),
], ids=["two", "two-irregular", "irregular"])
def test_refusals_of_classify_and_retract(rows, error, message):
    # retract validates for classify_matrix, and each keeps its own
    # refusal
    M = r.matrix(rows)
    with pytest.raises(error, match=f"^{message}$"):
        r.classify_matrix.__wrapped__(M)
    with pytest.raises(ReesError) as info:
        r.retract(M)
    assert type(info.value) is ReesError
    assert str(info.value) == "retraction expects a regular 0-1 matrix"


def _check_profile(M, balanced):
    """Every MatrixProfile field of M against its definition; balanced is
    a reference verdict on total balance."""
    prof = r.classify_matrix.__wrapped__(M)  # uncached: every grid is new
    rows, cols = M.entries, [M.col(i) for i in range(M.n)]
    assert prof.all_ones == all(v == 1 for row in rows for v in row)
    assert prof.totally_balanced == balanced
    assert prof.bordered == (M.m >= 2 and M.n >= 2 and all(rows[-1])
                             and all(cols[-1]))
    assert prof.equal_rows == (len(set(rows)) < M.m)
    assert prof.equal_cols == (len(set(cols)) < M.n)
    assert all((prof.support[0][i] >> lam & 1) == M.entry(lam, i)
               and (prof.support[1][lam] >> i & 1) == M.entry(lam, i)
               for lam in range(M.m) for i in range(M.n))
    assert len(prof.support[0]) == M.n and len(prof.support[1]) == M.m
    plan = prof.plan
    assert (plan is not None) == balanced
    if plan is not None:
        # one class per distinct row and column, the defining property,
        # and a line of each class picked back out
        assert plan.k == len(set(rows)) == len(set(cols))
        assert all((M.entry(lam, i) == 1)
                   == (plan.row_class[lam] == plan.col_class[i])
                   for lam in range(M.m) for i in range(M.n))
        assert [plan.row_class[lam] for lam in plan.class_row] == \
            [plan.col_class[i] for i in plan.class_col] == list(range(plan.k))


def test_profile_fields_on_every_grid_up_to_4x4():
    # the definitional scan is the reference for total balance here
    count = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for grid in regular_grids(m, n):
                M = r.matrix(grid)
                _check_profile(M, is_totally_balanced(M))
                count += 1
    assert count == 46312


def _random_regular(rng, m, n):
    """A random regular m x n 0-1 matrix: a random pattern, a balanced one
    (line classes, entry 1 on equal classes) or a balanced one with one
    entry flipped, its empty lines then given a 1 each."""
    kind = rng.randrange(3)
    if kind == 0:
        density = rng.random()
        grid = [[int(rng.random() < density) for _ in range(n)]
                for _ in range(m)]
    else:
        k = rng.randint(1, min(m, n))
        rc = [rng.randrange(k) for _ in range(m)]
        cc = [rng.randrange(k) for _ in range(n)]
        grid = [[int(rc[lam] == cc[i]) for i in range(n)] for lam in range(m)]
        if kind == 2:
            lam, i = rng.randrange(m), rng.randrange(n)
            grid[lam][i] ^= 1
    for lam in range(m):
        if not any(grid[lam]):
            grid[lam][rng.randrange(n)] = 1
    for i in range(n):
        if not any(grid[lam][i] for lam in range(m)):
            grid[rng.randrange(m)][i] = 1
    return r.matrix(tuple(tuple(row) for row in grid))


def test_profile_fields_on_random_matrices_up_to_12x12():
    # the lines characterization is the reference here, the scan being
    # O(m^2 n^2); both kinds of answer must occur
    rng = random.Random(8)
    seen = set()
    for _ in range(3000):
        M = _random_regular(rng, rng.randint(1, 12), rng.randint(1, 12))
        balanced = is_totally_balanced_by_lines(M)
        _check_profile(M, balanced)
        seen.add(balanced)
    assert seen == {False, True}
