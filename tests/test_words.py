"""Parsing, printing and structural operations on words."""

import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import reeseq as r
from references import word_facts
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
    # a bad token still raises after a good occurrence of a similar one:
    # each distinct token is checked on its own
    for text, message in (
            ("x [1,1] x [9,9]",
             "constant '[9,9]' out of range for 2x2 matrix"),
            ("x x^0", "repetition must be positive in 'x^0'"),
            ("[1,1] [1,1,2]", "group component in '[1,1,2]' over a "
                              "combinatorial semigroup"),
            ("x^2 x x^2 x!", "bad token 'x!'")):
        with pytest.raises(ParseError, match=re.escape(message)):
            r.parse_polynomial(text, S2)


def test_token_table_is_bounded():
    size = r.words._token.cache_info().maxsize
    assert size == r.words.TOKEN_TABLE_SIZE and isinstance(size, int)


def test_repetition_past_the_word_bound_is_refused():
    # each expansion is checked against MAX_WORD_LENGTH before it is built,
    # so a count past it allocates nothing in proportion to the count,
    # whether the token alone or the word so far passes the bound
    bound = r.words.MAX_WORD_LENGTH
    assert r.parse_polynomial(f"x^{bound}", S2).length == bound
    message = f"makes the word longer than {bound} symbols"
    for text, tok in ((f"x^{bound + 1}", f"x^{bound + 1}"),
                      (f"x y^{bound}", f"y^{bound}"),
                      ("x^" + "9" * 5000, "x^" + "9" * 5000)):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=re.escape(
                    f"{tok!r} {message}")):
                r.parse_polynomial(text, S2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (text[:20], peak)


def test_constants_are_checked_against_each_semigroup():
    # the token table keeps what the text says; the range check runs per
    # parse, against the semigroup of that parse
    S3 = r.combinatorial(r.identity(3))
    assert r.parse_polynomial("x [3,3]", S3).word[1].elem == r.pair(2, 2)
    with pytest.raises(ParseError, match=re.escape(
            "constant '[3,3]' out of range for 2x2 matrix")):
        r.parse_polynomial("x [3,3]", S2)
    assert r.parse_polynomial("[3,3]", S3).length == 1


@pytest.mark.parametrize("text,message", [
    ("x!", "bad token 'x!'"),
    ("x^0", "repetition must be positive in 'x^0'"),
    ("[1,2,1]", "group component in '[1,2,1]' over a combinatorial "
                "semigroup"),
    ("[0,1]", "constant '[0,1]' out of range for 2x2 matrix"),
])
def test_parse_errors_are_raised_on_every_parse(text, message):
    for _ in range(2):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            r.parse_polynomial(text, S2)


def _random_tokens(rng, group_order):
    """(text, symbols) pairs drawn from a small pool, so tokens repeat:
    variables, constants and, over a nontrivial group, three-part
    constants, each with an optional ^k."""
    out = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.random()
        if kind < 0.5:
            name = rng.choice(("x", "y", "z1", "v#2", "a.b", "_u", "w'"))
            text, sym = name, r.var(name)
        else:
            i, lam = rng.randint(1, 3), rng.randint(1, 2)
            g = rng.randint(1, group_order) if kind < 0.75 else None
            if g is None or group_order == 1:
                text, g = f"[{i},{lam}]", 1
            else:
                text = f"[{i},{g},{lam}]"
            sym = r.const(r.triple(i - 1, g - 1, lam - 1))
        reps = 1
        if rng.random() < 0.3:
            reps = rng.randint(1, 3)
            text += f"^{reps}"
        out.append((text, [sym] * reps))
    return out


def test_parse_matches_token_by_token_reference():
    from reeseq.core import ReesSemigroup, StructureMatrix
    from reeseq.groups import cyclic_group
    rng = random.Random(5)
    semigroups = (r.combinatorial(r.matrix(((1, 0, 1), (0, 1, 1)))),
                  ReesSemigroup(StructureMatrix(((1, 2, 1), (2, 1, 3))),
                                cyclic_group(3)))
    repeats = 0
    for S in semigroups:
        for _ in range(300):
            tokens = _random_tokens(rng, S.group.order)
            texts = [t for t, _ in tokens]
            repeats += len(texts) - len(set(texts))
            want = r.Polynomial(tuple(s for _, run in tokens for s in run))
            assert r.parse_polynomial(" ".join(texts), S) == want
    assert repeats > 0


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


def test_group_constants_read_as_printed():
    # a three-part constant is [i,g,lam], the order elements print in; over
    # the 4x4 matrix of gen rank1 3 2 (units of GF(3)), triple(0, 1, 2)
    # prints as [1,2,3], and every element reads back as itself
    S = r.fields.rank1_semigroup(3, 2).semigroup
    assert r.element_str(r.triple(0, 1, 2)) == "[1,2,3]"
    assert r.parse_polynomial("x [1,2,3]", S).word[1].elem == \
        r.triple(0, 1, 2)
    for e in S.nonzero_triples():
        p = r.parse_polynomial(f"x {r.element_str(e)} x", S)
        assert p.word[1].elem == e
        assert r.parse_polynomial(r.polynomial_str(p), S) == p


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
    # an Evaluation, as a verdict's witness comes, reads like its dict
    e = {"x": r.pair(0, 1), "y": r.pair(1, 0)}
    assert r.evaluate(S2, r.word_of("x y"), r.Evaluation.of(e)) == \
        r.evaluate(S2, r.word_of("x y"), e)
    with pytest.raises(MissingAssignmentError):
        r.evaluate(S2, r.word_of("x y"),
                   r.Evaluation.of({"x": r.pair(0, 0)}))


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


T33 = r.matrix(((1, 1, 0), (1, 1, 0), (0, 0, 1)))
# connected graphs whose sigma words reach a few hundred symbols
SIGMA_GRAPHS = (((0, 1),), ((0, 1), (1, 2)), ((0, 1), (1, 2), (0, 2)),
                ((0, 1), (0, 2), (0, 3)))


@st.composite
def _built_words(draw):
    """A word from one of the package's word constructors, most of them
    applied to a word parsed over I2, I3 or T33 with repetitions."""
    M = draw(st.sampled_from((I2, r.identity(3), T33)))
    S = r.combinatorial(M)
    names = st.sampled_from(["w", "x", "y", "z"])
    consts = [f"[{i},{lam}]" for i in range(1, M.n + 1)
              for lam in range(1, M.m + 1)]
    tokens = draw(st.lists(st.one_of(names, st.sampled_from(consts)),
                           min_size=1, max_size=8))
    p = r.parse_polynomial(" ".join(
        t + draw(st.sampled_from(("", "", "^2", "^3"))) for t in tokens), S)
    how = draw(st.sampled_from((
        "parse", "poly", "word_of", "substitute", "eliminate", "hat",
        "transpose", "permute", "sigma")))
    if how == "poly":
        return r.poly(*p.word)
    if how == "word_of":
        return r.word_of(" ".join(draw(st.lists(names, min_size=1))))
    if how == "substitute":
        return r.substitute(p, {"x": r.parse_polynomial("[1,1] y x", S),
                                "y": r.word_of("z w z")})
    if how == "eliminate":
        return r.eliminate_variables(p, set(draw(st.lists(names)))) or p
    if how == "hat":
        return r.hat_transform(p, r.retract(M)[0])
    if how == "transpose":
        return r.transpose_polynomial(p)
    if how == "permute":
        return r.permute_polynomial(p, draw(st.permutations(range(M.m))),
                                    draw(st.permutations(range(M.n))))
    if how == "sigma":
        edges = draw(st.sampled_from(SIGMA_GRAPHS))
        G = r.reductions.simple_graph(1 + max(map(max, edges)), edges)
        return r.reductions.sigma(G).polynomial
    return p


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=_built_words())
def test_word_facts_are_read_off_the_word(p):
    # every constructor ends in Polynomial.__init__, which reads the facts
    # off the word; they are derived slots, not fields
    assert (p.variables, p.constants, p.is_term) == word_facts(p)
    assert repr(p) == f"Polynomial(word={p.word!r})"
    assert hash(p) == hash((p.word,))
