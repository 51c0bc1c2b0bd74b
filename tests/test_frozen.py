"""Value semantics of the package's immutable classes (reeseq.frozen)."""

import itertools

import pytest

import reeseq as r
from reeseq import decide, fields, graphs, reductions as red
from reeseq.frozen import Frozen, cached_value


def _values():
    """class name -> (value, an equal value built anew, a value of the same
    class that differs in a field)."""
    def three(build, other):
        return build(), build(), other()

    G3 = red.simple_graph(3, [(0, 1), (1, 2)])
    return {
        "Element": three(lambda: r.triple(0, 1, 2),
                         lambda: r.triple(0, 1, 1)),
        "StructureMatrix": three(lambda: r.matrix(((1, 0), (1, 1))),
                                 lambda: r.matrix(((1, 1), (0, 1)))),
        "ReesSemigroup": three(
            lambda: r.ReesSemigroup(r.identity(2), r.cyclic_group(2)),
            lambda: r.ReesSemigroup(r.identity(2), r.cyclic_group(2), True)),
        # cyclic_group shares one value per order, so the equal value is
        # built anew from its table
        "FiniteGroup": three(lambda: r.finite_group(
                                 r.cyclic_group(3).table, name="cyclic3"),
                             lambda: r.units_group(5)),
        "Symbol": three(lambda: r.var("x"),
                        lambda: r.const(r.pair(0, 0))),
        "Polynomial": three(lambda: r.word_of("x y x"),
                            lambda: r.word_of("x x y")),
        "Evaluation": three(lambda: r.Evaluation.of({"x": r.ZERO}),
                            lambda: r.Evaluation.of({"x": r.ONE})),
        "Verdict": three(
            lambda: r.Verdict("not-zero", "m",
                              r.Evaluation.of({"x": r.pair(0, 0)}), (1,)),
            lambda: r.Verdict("not-zero", "m",
                              r.Evaluation.of({"x": r.pair(0, 0)}))),
        "MatrixProfile": three(
            lambda: decide.MatrixProfile(True, True, False, None, False,
                                         False, ((1,), (1,))),
            lambda: decide.MatrixProfile(True, True, True, None, False,
                                         False, ((1,), (1,)))),
        "Digraph": three(lambda: graphs.build_adjacency(r.word_of("x y")),
                         lambda: graphs.build_adjacency(r.word_of("y x"))),
        "Bigraph": three(lambda: graphs.build_bipartite(r.word_of("x y")),
                         lambda: graphs.build_identified(
                             r.parse_polynomial("x [1,1]", r.combinatorial(
                                 r.identity(2))))),
        "RetractionPlan": three(lambda: r.retract(r.identity(2))[0],
                                lambda: r.retract(r.identity(3))[0]),
        "PrimeField": three(lambda: fields.PrimeField(5),
                            lambda: fields.PrimeField(3)),
        "Rank1Semigroup": three(lambda: fields.rank1_semigroup(2, 2),
                                lambda: fields.rank1_semigroup(3, 2)),
        "MatrixSemigroup": three(
            lambda: fields.MatrixSemigroup(fields.PrimeField(2), 2),
            lambda: fields.MatrixSemigroup(fields.PrimeField(2), 3)),
        "SimpleGraph": three(lambda: red.simple_graph(3, [(0, 1), (1, 2)]),
                             lambda: red.complete_graph(3)),
        "ColoringInstance": three(lambda: red.sigma(G3),
                                  lambda: red.sigma(red.complete_graph(3))),
        "PlaneContext": three(lambda: red.plane_context(3),
                              lambda: red.plane_context(4)),
        "TripleContext": three(lambda: red.triple_context(3, 3),
                               lambda: red.triple_context(5, 3)),
    }


VALUES = _values()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_frozen_class_is_covered():
    assert {c.__name__ for c in _subclasses(Frozen)} == set(VALUES)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_give_equal_values(name):
    a, b, c = VALUES[name]
    assert type(a).__name__ == name
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b
    assert a != c and not a == c


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_cannot_be_assigned(name):
    a = VALUES[name][0]
    for field in a._field_names():
        value = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is value
    with pytest.raises(AttributeError):
        a.not_a_field = 1


def test_values_of_different_classes_are_never_equal():
    values = [v for name in sorted(VALUES) for v in VALUES[name]]
    for a, b in itertools.combinations(values, 2):
        if type(a) is not type(b):
            assert a != b and not a == b
    # not even with the same fields, nor against the tuple of those fields
    v, e = frozenset({1}), frozenset()
    assert graphs.Digraph(v, e) != graphs.Bigraph(v, e)
    assert graphs.Digraph(v, e) == graphs.Digraph(v, e)
    for name in sorted(VALUES):
        a = VALUES[name][0]
        assert a != a._values() and a._values() != a


def test_text_forms_are_unchanged():
    assert repr(r.ZERO) == "Element(0)" and repr(r.ONE) == "Element(1)"
    assert repr(r.triple(0, 1, 2)) == "Element[1,2,3]"
    assert repr(r.var("x#1")) == "x#1"
    assert repr(r.const(r.pair(1, 0))) == "Element[2,1,1]"
    w = r.Evaluation.of({"y": r.triple(0, 1, 0), "x": r.ZERO})
    assert str(w) == "x = 0, y = [1,2,1]"
    assert str(r.Verdict("not-equal", "oracle", w)) == \
        "not-equal [oracle] witness: x = 0, y = [1,2,1]"
    assert str(r.Verdict("equal", "all-ones-endpoints")) == \
        "equal [all-ones-endpoints]"
    # the classes without a text form of their own list their fields
    assert repr(fields.PrimeField(5)) == "PrimeField(p=5)"
    assert repr(r.word_of("x y")) == "Polynomial(word=(x, y))"
    assert repr(r.Verdict("zero", "m")) == \
        "Verdict(kind='zero', method='m', witness=None, detail=())"


def test_cached_properties_are_kept_per_value():
    G = red.simple_graph(2, [(0, 1)])
    assert G.adjacency is G.adjacency and "adjacency" in G.__dict__
    # the other classes keep no dictionary at all; a word keeps its
    # variables and constants in derived slots, filled by its constructor
    p = r.word_of("x y x")
    assert p.variables == ("x", "y") and not hasattr(p, "__dict__")
    assert not hasattr(r.triple(0, 0, 0), "__dict__")
    assert not hasattr(r.var("x"), "__dict__")


def test_cached_value_computes_once_and_keeps_it():
    calls = []

    class K:
        @cached_value
        def v(self):
            """The value."""
            calls.append(self)
            return [len(calls)]

    k = K()
    assert k.v is k.v and k.v == [1] and calls == [k]
    assert k.__dict__ == {"v": [1]}
    assert K.v is K.__dict__["v"] and K.v.__doc__ == "The value."
    assert K().v == [2]

    class Slotted:
        __slots__ = ()

        @cached_value
        def v(self):
            return 0

    with pytest.raises(TypeError, match="Slotted has no '__dict__' slot"):
        Slotted().v


def test_derived_slots_are_not_fields():
    # a matrix keeps its hash, a semigroup its bounds and a word its
    # variables and constants, out of equality, hashing and repr
    p = r.parse_polynomial("x [1,1] y x", r.combinatorial(r.identity(2)))
    assert p._field_names() == ["word"] and hash(p) == hash((p.word,))
    assert repr(p) == f"Polynomial(word={p.word!r})"
    M = r.matrix(((1, 0), (1, 1)))
    assert hash(M) == hash((M.entries,)) and M._field_names() == ["entries"]
    assert repr(M) == "StructureMatrix(entries=((1, 0), (1, 1)))"
    S = r.ReesSemigroup(M, r.cyclic_group(2))
    assert hash(S) == hash((M, S.group, False))
    assert repr(S) == (f"ReesSemigroup(matrix={M!r}, group={S.group!r}, "
                       "has_identity=False)")
    with pytest.raises(AttributeError):
        M._hash = 0


def test_checks_run_on_construction():
    with pytest.raises(r.EmptyWordError):
        r.Polynomial(())
    with pytest.raises(r.ReesError, match="not prime"):
        fields.PrimeField(4)
    with pytest.raises(r.IrregularMatrixError):
        r.ReesSemigroup(r.matrix(((1, 0), (1, 0))), r.trivial_group())
    with pytest.raises(r.InvalidElementError):
        r.ReesSemigroup(r.matrix(((2,),)), r.trivial_group())
    with pytest.raises(r.ReesError, match=r"^bad edge \(0, 3\)$"):
        red.SimpleGraph(3, frozenset({(0, 3)}))
    S = r.combinatorial(r.identity(2))
    S1 = S.adjoin_identity()
    assert S1.has_identity and S1.matrix is S.matrix and S1.group is S.group
    assert S1 == r.combinatorial(r.identity(2), True)
    with pytest.raises(r.InvalidElementError):
        S1.adjoin_identity()
