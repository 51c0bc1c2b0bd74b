"""Graph encodings: adjacency digraph, bipartite graphs, components,
consistency and antichain families."""

import itertools
import random

import reeseq as r
from conftest import all_terms, matrix_classes, partitions_match
from references import (antichain, factor_variable_sets, identified_image,
                        is_consistent)
from reeseq.graphs import build_adjacency, build_bipartite, build_identified


S2 = r.combinatorial(r.identity(2))


def digraph_edges(p):
    g = build_adjacency(p)
    return {(a[1], b[1]) for a, b in g.edges
            if a[0] == "v" and b[0] == "v"}


def test_adjacency_graph_examples():
    p = r.word_of("x x y y")
    q = r.word_of("y y x x")
    assert digraph_edges(p) == {("x", "x"), ("x", "y"), ("y", "y")}
    assert digraph_edges(q) == {("y", "y"), ("y", "x"), ("x", "x")}
    assert build_adjacency(p) != build_adjacency(q)
    assert build_adjacency(r.word_of("x")).edges == frozenset()


def test_equal_adjacency_graphs_give_equal_zero_sets():
    # brute check over every regular 2x2 matrix class and words up to 4
    terms = all_terms(("x", "y"), 4)
    for M in matrix_classes(2, 2):
        S = r.combinatorial(M)
        for p in terms:
            for q in terms:
                if build_adjacency(p) == build_adjacency(q):
                    assert r.brute_zset_eq(S, p, q).kind == "equal", (M, p, q)


def test_bipartite_triangle_example():
    p = r.parse_polynomial("[1,1] u^2 [1,1]", S2)
    bb = build_identified(p)
    assert bb.vertices == frozenset({("m", 0), ("v", "u", 1), ("v", "u", 2)})
    assert len(bb.edges) == 3  # a triangle

    q = r.parse_polynomial("[1,1] u [1,1]", S2)
    bq = build_bipartite(q)
    assert len(r.components(bq)) > 1  # disconnected before identification
    bbq = build_identified(q)
    assert bbq.vertices == bb.vertices
    assert len(r.components(bbq)) == 1


def test_terms_have_no_identification():
    p = r.word_of("x y x")
    assert build_identified(p).vertices == build_bipartite(p).vertices
    assert build_identified(p).edges == build_bipartite(p).edges


def test_identified_graph_is_the_image_of_the_bipartite_graph():
    # one pass over the word gives what merging the bipartite graph's
    # constant vertices by index gives
    rng = random.Random(11)
    for M in (r.identity(2), r.identity(3),
              r.matrix(((1, 1, 0), (1, 1, 0), (0, 0, 1)))):
        S = r.combinatorial(M)
        syms = ["x", "y", "z"] + [f"[{i},{lam}]" for i in range(1, M.n + 1)
                                  for lam in range(1, M.m + 1)]
        for _ in range(200):
            p = r.parse_polynomial(" ".join(
                rng.choice(syms) for _ in range(rng.randint(1, 8))), S)
            g = build_identified(p)
            assert (g.vertices, g.edges) == \
                identified_image(build_bipartite(p)), str(p)


def test_worked_components_example():
    S5 = r.combinatorial(r.identity(5))
    q = r.parse_polynomial("[1,1] u^2 [1,2] v^2 [3,4] w [4,4] w [5,4]", S5)
    part = r.components(build_bipartite(q))
    expected = {
        frozenset({("c", 0, 1), ("v", "u", 1), ("v", "u", 2), ("c", 0, 2)}),
        frozenset({("c", 1, 2), ("v", "v", 1), ("v", "v", 2), ("c", 2, 1)}),
        frozenset({("c", 3, 2), ("v", "w", 1)}),
        frozenset({("v", "w", 2), ("c", 3, 1), ("c", 4, 1)}),
    }
    assert part == expected
    flags = {tuple(sorted(c)): is_consistent(c) for c in part}
    consistent = [c for c in part if is_consistent(c)]
    assert len(consistent) == 2
    assert frozenset({("c", 3, 2), ("v", "w", 1)}) in consistent


def test_all_variable_components_consistent():
    p = r.word_of("x y z x")
    assert all(is_consistent(c) for c in r.components(build_bipartite(p)))


def test_consistency_matches_identified_index_count():
    # all components consistent iff every identified component carries at
    # most one index
    pool = ["[1,1] u [2,2]", "[1,1] u u [1,1]", "x y", "[1,2] x [2,1]",
            "[1,1] x [1,2] y [2,2]"]
    for text in pool:
        p = r.parse_polynomial(text, S2)
        lhs = all(is_consistent(c) for c in r.components(build_bipartite(p)))
        rhs = all(len({v[1] for v in c if v[0] == "m"}) <= 1
                  for c in r.components(build_identified(p)))
        assert lhs == rhs, text


def test_compiled_word_matches_identified_graph():
    # every slice of a compiled word agrees with the explicit graphs of the
    # word with those variables eliminated: zero exactly when a bipartite
    # component is inconsistent, otherwise the same variable components
    # and the same pinned indices as the identified graph
    from reeseq.graphs import CompiledWord
    S3 = r.combinatorial(r.identity(3))
    rng = random.Random(5)
    syms = ["x", "y", "z", "[1,1]", "[1,2]", "[2,2]", "[3,1]", "[3,3]"]
    for _ in range(300):
        p = r.parse_polynomial(" ".join(rng.choice(syms)
                                        for _ in range(rng.randint(1, 7))), S3)
        names = ("x", "y", "z")
        cw = CompiledWord(p, names)
        for drop in range(8):
            gone = {u for j, u in enumerate(names) if drop >> j & 1}
            kept = [s for s in p.word if not (s.is_var and s.name in gone)]
            labels = cw.labels(drop)
            if not kept:
                assert labels == [None] * 6
                continue
            pw = r.Polynomial(tuple(kept))
            zero = not all(is_consistent(c)
                           for c in r.components(build_bipartite(pw)))
            assert (labels is None) == zero, (str(p), drop)
            if zero:
                continue
            expected = set()
            for comp in r.components(build_identified(pw)):
                verts = {v for v in comp if v[0] == "v"}
                pins = {v[1] for v in comp if v[0] == "m"}
                if verts:
                    expected.add((frozenset(verts), frozenset(pins)))
            groups = {}
            for v, c in enumerate(labels):
                if c is not None:
                    groups.setdefault(c, set()).add(
                        ("v", names[v // 2], 1 + v % 2))
            got = {(frozenset(vs), frozenset({-1 - c} if c < 0 else ()))
                   for c, vs in groups.items()}
            assert got == expected, (str(p), drop)


def test_zero_characterization_small():
    # a word dies exactly when a variable is zero or an edge constraint fails
    for M in (r.identity(2), r.matrix(((1, 1), (1, 0)))):
        S = r.combinatorial(M)
        pool = ["x y", "[1,1] x", "x [2,1] y", "x x"]
        for text in pool:
            p = r.parse_polynomial(text, S)
            b = build_bipartite(p)
            els = S.elements()
            for combo in itertools.product(els, repeat=len(p.variables)):
                e = dict(zip(p.variables, combo))

                def vertex_value(v):
                    if v[0] == "c":
                        return v[1]
                    return e[v[1]].i if v[2] == 1 else e[v[1]].lam

                expected_zero = any(x.kind == "zero" for x in combo) or any(
                    M.entry(vertex_value(y), vertex_value(x)) == 0
                    for x, y in b.edges
                    if all(val.kind != "zero" for val in combo))
                assert (r.evaluate(S, p, e) == r.ZERO) == expected_zero


def test_antichain_examples():
    assert antichain(r.word_of("x y"), "x", "y") == {frozenset()}
    p = r.word_of("x z y x y")
    fam = factor_variable_sets(p, "x", "y")
    assert frozenset({"z"}) in fam and frozenset() in fam
    assert antichain(p, "x", "y") == {frozenset()}
    assert antichain(r.word_of("x z y"), "x", "y") == {frozenset({"z"})}
    assert antichain(r.word_of("x w y"), "x", "y") == {frozenset({"w"})}
    # the diagonal pair sees factors between two occurrences of one variable
    assert antichain(r.word_of("x z x"), "x", "x") == {frozenset({"z"})}


def test_families_read_every_slice():
    # an edge of slice `drop` is a pair (y, x) with a mask inside drop and
    # neither vertex dropped, and START and END give the slice's ends, so
    # the families alone fix what labels and ends read off every slice
    from reeseq.graphs import END, START, CompiledWord
    S3 = r.combinatorial(r.identity(3))
    rng = random.Random(7)
    syms = ["x", "y", "z", "x", "y", "z", "[1,1]", "[1,2]", "[3,3]"]
    names = ("x", "y", "z")
    for _ in range(300):
        p = r.parse_polynomial(" ".join(rng.choice(syms)
                                        for _ in range(rng.randint(1, 8))), S3)
        cw = CompiledWord(p, names)
        fam = cw.families()
        for drop in range(8):
            kept = [(START, START, START)] + [
                pos for pos in cw.positions if not pos[0] & drop] + \
                [(END, END, END)]
            edges = {(a[2], b[1]) for a, b in zip(kept, kept[1:])}

            def live(v):
                return v < 0 or v >= cw.base or not drop >> (v >> 1) & 1

            read = {key for key, masks in fam.items()
                    if all(map(live, key))
                    and any(m & drop == m for m in masks)}
            assert read == edges, (str(p), drop)


def test_families_are_the_minimal_records():
    # families() keeps, under each (y, x) of records(), the masks with no
    # other mask of that key inside them; the records are scanned once
    from reeseq.graphs import CompiledWord
    S3 = r.combinatorial(r.identity(3))
    rng = random.Random(9)
    syms = ["w", "x", "y", "z", "x", "y", "[1,1]", "[1,2]", "[2,3]", "[3,3]"]
    names = ("w", "x", "y", "z")
    for _ in range(300):
        p = r.parse_polynomial(" ".join(rng.choice(syms)
                                        for _ in range(rng.randint(1, 10))), S3)
        cw = CompiledWord(p, names)
        records = cw.records()
        assert cw.records() is records
        masks = {}
        for y, x, mask in records:
            masks.setdefault((y, x), set()).add(mask)
        assert cw.families() == {
            key: frozenset(m for m in ms
                           if not any(n != m and n & m == n for n in ms))
            for key, ms in masks.items()}, str(p)


def test_antichain_table_matches_definition():
    # the table is read off one families scan; it must equal the factor
    # definition pair by pair, constants skipped inside a factor
    S3 = r.combinatorial(r.identity(3))
    rng = random.Random(8)
    syms = ["x", "y", "z", "w", "x", "y", "[1,1]", "[2,3]"]
    for _ in range(500):
        p = r.parse_polynomial(" ".join(rng.choice(syms)
                                        for _ in range(rng.randint(1, 10))), S3)
        names = sorted(p.variables)
        assert r.antichain_table(p) == tuple(
            ((x, y), antichain(p, x, y)) for x in names for y in names), \
            str(p)


def test_antichain_is_antichain_and_idempotent():
    for p in all_terms(("x", "y", "z"), 5)[::7]:
        for a in p.variables:
            for b in p.variables:
                fam = antichain(p, a, b)
                for s in fam:
                    for t in fam:
                        assert not s < t
                refam = frozenset(s for s in fam
                                  if not any(t < s for t in fam))
                assert refam == fam


def test_empty_set_membership_matches_adjacency():
    for p in all_terms(("x", "y"), 4):
        g = digraph_edges(p)
        for a in p.variables:
            for b in p.variables:
                assert (frozenset() in factor_variable_sets(p, a, b)) == \
                    ((a, b) in g)


def test_zero_sets_match_antichains_over_identity_extension():
    # over a not totally balanced 2x2 matrix with identity adjoined, terms
    # have equal zero sets exactly when their variables and antichain
    # families agree (brute partition comparison)
    M = r.matrix(((1, 1), (1, 0)))
    S1 = r.combinatorial(M, True)
    terms = all_terms(("x", "y", "z"), 5)
    order = ("x", "y", "z")

    def zvec(p):
        return tuple(v == 0 for v in r.value_vector(S1, p, order))

    def akey(p):
        return (frozenset(p.variables), r.antichain_table(p))

    assert partitions_match(terms, akey, zvec)


def test_dot_export():
    p = r.parse_polynomial("[1,1] u", S2)
    dot = r.to_dot(build_bipartite(p))
    assert dot.startswith("graph")
    assert dot.count("--") == len(build_bipartite(p).edges)
    dot2 = r.to_dot(build_adjacency(p))
    assert "->" in dot2 and dot2.startswith("digraph")
