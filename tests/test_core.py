"""Semigroup arithmetic, derived semigroups, and the matrix file format."""

import itertools
import tracemalloc

import pytest

import reeseq as r
from reeseq.core import ReesSemigroup, StructureMatrix
from reeseq.errors import (GroupTableError, InvalidElementError,
                           IrregularMatrixError, ParseError)
from reeseq.groups import cyclic_group, finite_group, units_group


def h3():
    return r.combinatorial(r.hollow(3))


def test_multiplication_rule_hollow():
    S = h3()
    assert S.multiply(r.pair(0, 1), r.pair(0, 2)) == r.pair(0, 2)
    assert S.multiply(r.pair(0, 0), r.pair(0, 1)) == r.ZERO


def test_zero_absorbs_and_identity_neutral():
    S = h3()
    for e in S.elements():
        assert S.multiply(r.ZERO, e) == r.ZERO
        assert S.multiply(e, r.ZERO) == r.ZERO
    S1 = S.adjoin_identity()
    for e in S1.elements():
        assert S1.multiply(r.ONE, e) == e
        assert S1.multiply(e, r.ONE) == e


def test_sizes():
    S = h3()
    assert S.size == 3 * 3 + 1
    assert len(S.elements()) == S.size
    assert S.adjoin_identity().size == S.size + 1
    G2 = cyclic_group(2)
    T = ReesSemigroup(StructureMatrix(((1, 1), (1, 1))), G2)
    assert T.size == 2 * 2 * 2 + 1


def test_invalid_elements_rejected():
    S = h3()
    with pytest.raises(InvalidElementError):
        S.multiply(r.triple(5, 0, 0), r.pair(0, 0))
    with pytest.raises(InvalidElementError):
        S.check_element(r.ONE)  # no identity adjoined
    with pytest.raises(IrregularMatrixError):
        r.combinatorial(r.matrix(((1, 0), (1, 0))))


def test_group_table_validation():
    with pytest.raises(GroupTableError):
        finite_group(((0, 0), (1, 1)))
    with pytest.raises(GroupTableError):
        finite_group(((1, 0), (1, 0)))
    g = units_group(5)
    assert g.order == 4
    assert g.mul(1, 2) == g.inv(g.inv(g.mul(1, 2)))
    with pytest.raises(GroupTableError):
        units_group(6)


def test_named_groups_are_shared_through_bounded_caches():
    assert cyclic_group(3) is cyclic_group(3)
    assert units_group(5) is units_group(5)
    assert cyclic_group(3) == finite_group(cyclic_group(3).table,
                                           name="cyclic3")
    for build in (cyclic_group, units_group):
        assert build.cache_info().maxsize == r.groups.GROUP_CACHE_SIZE


def test_named_groups_past_the_bound_are_refused_unbuilt():
    bound = r.groups.MAX_GROUP_ORDER
    assert cyclic_group(bound).order == bound
    # 67 is prime, its units group of order 66 past the bound
    tracemalloc.start()
    try:
        for build, arg in ((cyclic_group, bound + 1), (units_group, 67),
                           (cyclic_group, 10 ** 9), (units_group, 10 ** 18)):
            with pytest.raises(GroupTableError, match=f"exceeds the limit "
                               f"{bound}$"):
                build(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_trivial_group_is_shared():
    # every combinatorial semigroup is built over it, so it is validated
    # once, not on each call
    assert r.trivial_group() is r.trivial_group()
    assert r.combinatorial(r.identity(2)).group is r.trivial_group()


def test_combinatorial_shares_one_semigroup_per_key():
    from reeseq import core
    S = r.combinatorial(r.hollow(3))
    # an equal matrix built anew, and every spelling of "no identity"
    assert r.combinatorial(r.matrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))) is S
    assert r.combinatorial(r.hollow(3), False) is S
    assert r.combinatorial(r.hollow(3), with_identity=False) is S
    S1 = r.combinatorial(r.hollow(3), with_identity=True)
    assert S1 is not S and S1.has_identity
    assert r.combinatorial(r.hollow(3), True) is S1
    assert S1 == S.adjoin_identity()
    assert core._combinatorial.cache_info().maxsize is not None


def test_combinatorial_irregular_raises_every_time():
    # a failed construction leaves nothing in the cache to hand out
    M = r.matrix(((1, 0), (1, 0)))
    for _ in range(3):
        with pytest.raises(IrregularMatrixError):
            r.combinatorial(M)


@pytest.mark.parametrize("S", [
    r.combinatorial(r.identity(2)),
    r.combinatorial(r.hollow(3)),
    r.combinatorial(r.matrix(((1, 1, 0), (0, 1, 1)))),
    ReesSemigroup(StructureMatrix(((1, 2), (0, 1))), cyclic_group(2)),
    ReesSemigroup(StructureMatrix(((1, 1, 0), (1, 0, 1))),
                  cyclic_group(3)).adjoin_identity(),
])
def test_associativity_exhaustive(S):
    assert S.size <= 200
    els = S.elements()
    for a in els:
        for b in els:
            ab = S.multiply(a, b)
            for c in els:
                assert S.multiply(ab, c) == S.multiply(a, S.multiply(b, c))


def test_zero_simplicity():
    # usv = t is solvable for every pair of nonzero elements
    for M in (r.identity(2), r.hollow(3)):
        S = r.combinatorial(M)
        nz = S.nonzero_triples()
        for s in nz:
            for t in nz:
                assert any(S.multiply(S.multiply(u, s), v) == t
                           for u in nz for v in nz)


def test_product_zero_iff_adjacent_pair_zero():
    S = h3()
    els = S.nonzero_triples()
    for word in itertools.product(els, repeat=3):
        prod = S.product(word)
        pairwise = any(S.multiply(a, b) == r.ZERO
                       for a, b in zip(word, word[1:]))
        assert (prod == r.ZERO) == pairwise


def test_nonzero_product_coordinates():
    S = h3()
    els = S.nonzero_triples()
    for word in itertools.product(els, repeat=3):
        prod = S.product(word)
        if prod != r.ZERO:
            assert prod.i == word[0].i
            assert prod.lam == word[-1].lam
            assert prod == r.pair(word[0].i, word[-1].lam)


def test_evaluate_examples():
    S = h3()
    p = r.word_of("x y")
    assert r.evaluate(S, p, {"x": r.pair(0, 1), "y": r.pair(2, 0)}) == r.pair(0, 0)
    assert r.evaluate(S, p, {"x": r.ZERO, "y": r.pair(0, 0)}) == r.ZERO
    S1 = r.combinatorial(r.identity(2), True)
    assert r.evaluate(S1, r.word_of("x"), {"x": r.ONE}) == r.ONE


def test_transpose_is_anti_isomorphism():
    M = r.matrix(((1, 1, 0), (0, 1, 1)))
    S = r.combinatorial(M)
    T = S.transpose()
    assert r.identity(3).transpose() == r.identity(3)
    assert r.hollow(3).transpose() == r.hollow(3)
    for a in S.elements():
        for b in S.elements():
            lhs = r.transpose_element(S.multiply(a, b))
            rhs = T.multiply(r.transpose_element(b), r.transpose_element(a))
            assert lhs == rhs


def test_h_quotient_shadow():
    G2 = cyclic_group(2)
    entries = tuple(tuple(0 if v == 0 else 1 + (i + j) % 2
                          for j, v in enumerate(row))
                    for i, row in enumerate(r.hollow(3).entries))
    S = ReesSemigroup(StructureMatrix(entries), G2)
    Q = S.h_quotient()
    assert Q.matrix == r.hollow(3)
    assert Q.is_combinatorial
    # the quotient map respects products
    for a in S.elements():
        for b in S.elements():
            assert r.quotient_element(S.multiply(a, b)) == \
                Q.multiply(r.quotient_element(a), r.quotient_element(b))


def test_bar_map_preserves_zero_products():
    # a word over the group semigroup is identically zero exactly when its
    # shadow is; checked by brute force on a small instance
    G2 = cyclic_group(2)
    S = ReesSemigroup(StructureMatrix(((1, 2), (0, 1))), G2)
    Q = S.h_quotient()
    p = r.parse_polynomial("x [1,2,2] y", S)
    pbar = r.Polynomial(tuple(
        s if s.is_var else r.const(r.quotient_element(s.elem))
        for s in p.word))
    assert r.brute_zero(S, p).kind == r.brute_zero(Q, pbar).kind


def test_permutation_isomorphism():
    M = r.matrix(((1, 1, 0), (0, 1, 1)))
    S = r.combinatorial(M)
    rp, cp = (1, 0), (2, 0, 1)
    N = r.permute(M, rp, cp)
    T = r.combinatorial(N)

    def phi(e):
        if e.kind != "triple":
            return e
        return r.triple(cp[e.i], e.g, rp[e.lam])

    for a in S.elements():
        for b in S.elements():
            assert phi(S.multiply(a, b)) == T.multiply(phi(a), phi(b))


def test_row_rescaling_isomorphism():
    # multiplying a row by a group element leaves the semigroup unchanged
    # up to the explicit correction on that row's elements
    G = cyclic_group(3)
    M = StructureMatrix(((1, 2), (3, 1)))
    S = ReesSemigroup(M, G)
    g = 1  # rescale row 0 on the left by group element 1
    scaled = (tuple(0 if v == 0 else 1 + G.mul(g, v - 1)
                    for v in M.entries[0]),)
    L = StructureMatrix(scaled + M.entries[1:])
    T = ReesSemigroup(L, G)
    ginv = G.inv(g)

    def phi(e):
        if e.kind != "triple":
            return e
        return r.triple(e.i, G.mul(e.g, ginv) if e.lam == 0 else e.g, e.lam)

    for a in S.elements():
        for b in S.elements():
            assert phi(S.multiply(a, b)) == T.multiply(phi(a), phi(b))


def test_column_rescaling_isomorphism():
    G = cyclic_group(3)
    M = StructureMatrix(((1, 2), (3, 1)))
    S = ReesSemigroup(M, G)
    g = 2  # rescale column 1 on the right by group element 2
    L = StructureMatrix(tuple(
        (row[0], 0 if row[1] == 0 else 1 + G.mul(row[1] - 1, g))
        for row in M.entries))
    T = ReesSemigroup(L, G)
    ginv = G.inv(g)

    def phi(e):
        if e.kind != "triple":
            return e
        return r.triple(e.i, G.mul(ginv, e.g) if e.i == 1 else e.g, e.lam)

    for a in S.elements():
        for b in S.elements():
            assert phi(S.multiply(a, b)) == T.multiply(phi(a), phi(b))


def test_matrix_file_round_trip(tmp_path):
    M = r.hollow(3)
    text = r.format_matrix_file(M)
    assert text.splitlines()[0] == "3 3"
    M2, g = r.parse_matrix_file(text)
    assert M2 == M and g.is_trivial

    G = units_group(3)
    text = r.format_matrix_file(StructureMatrix(((1, 2), (2, 0))), G)
    assert text.splitlines()[0] == "2 2 units3"
    M3, g3 = r.parse_matrix_file(text)
    assert g3.name == "units3" and M3.entries == ((1, 2), (2, 0))

    path = tmp_path / "m.mat"
    path.write_text(r.format_matrix_file(r.identity(2)), encoding="utf-8")
    M4, _ = r.load_matrix(path)
    assert M4 == r.identity(2)


def test_matrix_file_errors():
    with pytest.raises(ParseError):
        r.parse_matrix_file("")
    with pytest.raises(ParseError):
        r.parse_matrix_file("2 2\n1 1\n")
    with pytest.raises(ParseError):
        r.parse_matrix_file("1 2\n1 5\n")  # entry above trivial group order
