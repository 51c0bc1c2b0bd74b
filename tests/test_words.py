"""Parsing, printing and structural operations on words."""

import itertools

import pytest

import reeseq as r
from reeseq.errors import (InvalidElementError, MissingAssignmentError,
                           ParseError)


I2 = r.identity(2)
S2 = r.combinatorial(I2)


def test_parse_plain_word():
    p = r.parse_polynomial("x x y y", S2)
    assert [s.name for s in p.word] == ["x", "x", "y", "y"]
    assert p.is_term and p.length == 4


def test_parse_constants_and_powers():
    p = r.parse_polynomial("[1,1] u^2 [1,1]", S2)
    kinds = [s.kind for s in p.word]
    assert kinds == ["const", "var", "var", "const"]
    assert p.word[0].elem == r.pair(0, 0)
    assert not p.is_term
    q = r.parse_polynomial("[1,2]^3", S2)
    assert q.length == 3 and q.word[0].elem == r.pair(0, 1)


def test_parse_errors():
    with pytest.raises(ParseError):
        r.parse_polynomial("[5,1] x", S2)
    with pytest.raises(ParseError):
        r.parse_polynomial("", S2)
    with pytest.raises(ParseError):
        r.parse_polynomial("x ^2", S2)
    with pytest.raises(ParseError):
        r.parse_polynomial("[0,1]", S2)
    with pytest.raises(ParseError):
        r.parse_polynomial("x^0", S2)
    with pytest.raises(ParseError):
        r.parse_polynomial("[1,2,2]", S2)  # group part over a combinatorial S


def test_print_parse_round_trip():
    texts = ["x", "x y x", "[1,1] u u [1,1]", "[2,1] x [1,2]"]
    for t in texts:
        p = r.parse_polynomial(t, S2)
        assert r.parse_polynomial(r.polynomial_str(p), S2) == p


def test_group_constants_round_trip():
    from reeseq.core import ReesSemigroup, StructureMatrix
    from reeseq.groups import cyclic_group
    S = ReesSemigroup(StructureMatrix(((1, 2), (2, 1))), cyclic_group(2))
    p = r.parse_polynomial("[1,2,2] x [2,1]", S)
    assert p.word[0].elem == r.triple(0, 1, 1)
    assert p.word[2].elem == r.triple(1, 0, 0)  # omitted part means identity
    printed = r.polynomial_str(p)
    assert printed == "[1,2,2] x [2,1]"
    assert r.parse_polynomial(printed, S) == p
    with pytest.raises(ParseError):
        r.parse_polynomial("[1,3,2]", S)  # group index out of range


def test_accessors():
    p = r.parse_polynomial("x y x", S2)
    assert p.leftmost.name == "x" and p.rightmost.name == "x"
    q = r.parse_polynomial("[1,2] x", S2)
    assert q.leftmost.kind == "const" and q.leftmost.elem == r.pair(0, 1)
    assert r.word_of("x y x z").variables == ("x", "y", "z")


def test_substitute():
    p = r.word_of("x y")
    m = {"x": r.parse_polynomial("x [1,1] w", S2)}
    q = r.substitute(p, m)
    assert q.length == 4
    assert r.substitute(p, {}) == p
    # length never exceeds the obvious bound
    longest = max(v.length for v in m.values())
    assert q.length <= p.length * longest


def test_eliminate_variable():
    assert r.eliminate_variables(r.word_of("x y x"), {"x"}) == r.word_of("y")
    assert r.eliminate_variables(r.word_of("x y z y"), ("x", "y")) == \
        r.word_of("z")
    assert r.eliminate_variables(r.word_of("x y"), ("z",)) == r.word_of("x y")
    p = r.parse_polynomial("x [1,1] y", S2)
    assert r.eliminate_variables(p, ("x", "y")) == \
        r.parse_polynomial("[1,1]", S2)
    assert r.eliminate_variables(r.word_of("x y x"), ("x", "y")) is None


def test_sequencings():
    p = r.word_of("y x y z")
    assert r.left_sequencing(p) == ("y", "x", "z")
    assert r.right_sequencing(p) == ("z", "y", "x")
    single = r.word_of("x")
    assert r.left_sequencing(single) == r.right_sequencing(single) == ("x",)
    assert r.left_sequencing(r.word_of("x y")) != r.left_sequencing(r.word_of("y x"))


def test_evaluate_missing_assignment():
    with pytest.raises(MissingAssignmentError):
        r.evaluate(S2, r.word_of("x y"), {"x": r.pair(0, 0)})


def test_evaluate_checks_values_and_constants():
    # the fold checks nothing, so evaluate itself must refuse an
    # out-of-range value or constant, a lone constant included
    p = r.word_of("x y")
    with pytest.raises(InvalidElementError):
        r.evaluate(S2, p, {"x": r.pair(2, 0), "y": r.pair(0, 0)})
    with pytest.raises(InvalidElementError):
        r.evaluate(S2, p, {"x": r.pair(0, 0), "y": r.ONE})
    bad = r.const(r.pair(0, 2))
    for word in (r.poly(r.var("x"), bad), r.poly(bad)):
        with pytest.raises(InvalidElementError):
            r.evaluate(S2, word, {"x": r.pair(0, 0)})


def test_substitution_composes_with_evaluation():
    # evaluating a substituted word equals evaluating the word against the
    # evaluated replacements, exhaustively on a small instance
    p = r.word_of("x y x")
    m = {"x": r.word_of("x z"), "y": r.parse_polynomial("[1,1] y", S2)}
    pq = r.substitute(p, m)
    els = S2.elements()
    for combo in itertools.product(els, repeat=3):
        e = dict(zip(("x", "y", "z"), combo))
        inner = {v: r.evaluate(S2, m[v], e) if v in m else e[v]
                 for v in p.variables}
        assert r.evaluate(S2, pq, e) == r.evaluate(S2, p, inner)


def test_transpose_polynomial_reverses():
    p = r.parse_polynomial("[1,2] x y", S2)
    t = r.transpose_polynomial(p)
    assert [s.kind for s in t.word] == ["var", "var", "const"]
    assert t.word[2].elem == r.triple(1, 0, 0)
    # transposing twice restores the word
    assert r.transpose_polynomial(t) == p


def test_instance_files():
    from reeseq.words import parse_instance_lines
    recs = parse_instance_lines("""
# comment
x y
EQ x y | y x
[1,1] u
""")
    assert recs == [("pol", "x y"), ("eq", "x y", "y x"), ("pol", "[1,1] u")]
    with pytest.raises(ParseError):
        parse_instance_lines("EQ x y")
