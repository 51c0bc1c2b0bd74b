"""Coloring reduction and the hosted-gadget transformations."""

import itertools
import random
import tracemalloc

import pytest

import reeseq as r
from reeseq import reductions as red
from reeseq.errors import BudgetExceededError, ParseError, ReesError
from reeseq.words import evaluate


S3 = red.h3_semigroup()


def connected_graphs(n):
    """Every connected simple graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = [e for e, b in zip(pairs, bits) if b]
        try:
            yield red.simple_graph(n, edges)
        except ReesError:
            continue


def random_connected_graph(rng, n, chords):
    """A random tree on n vertices plus the given number of chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    target = min(len(edges) + chords, n * (n - 1) // 2)
    while len(edges) < target:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return red.simple_graph(n, edges)


def is_proper(G, coloring):
    return all(coloring[a] != coloring[b] for a, b in G.edges)


def three_colorable(G):
    return any(is_proper(G, c)
               for c in itertools.product((1, 2, 3), repeat=G.n))


# ---------------------------------------------------------------------------
# walks

def test_walk_examples():
    k2 = red.complete_graph(2)
    assert red.edge_walk(k2) == (0, 1, 0)
    k3 = red.complete_graph(3)
    walk = red.edge_walk(k3)
    assert len(walk) == 2 * 3 + 1
    path3 = red.simple_graph(3, [(0, 1), (1, 2)])
    assert len(red.edge_walk(path3)) == 2 * 2 + 1
    # the sigma text follows this order
    assert red.edge_walk(red.complete_graph(4)) == \
        (0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 0)


def test_walk_covers_each_direction_once():
    # every connected graph on 2-4 vertices, and a 2,000-vertex tree plus
    # 200 chords
    graphs = [G for n in (2, 3, 4) for G in connected_graphs(n)]
    graphs.append(random_connected_graph(random.Random(3), 2000, 200))
    for G in graphs:
        walk = red.edge_walk(G)
        steps = list(zip(walk, walk[1:]))
        assert walk[0] == walk[-1] == 0
        assert len(steps) == 2 * len(G.edges)
        assert set(steps) == {(a, b) for a, b in G.edges} | \
            {(b, a) for a, b in G.edges}
        for a, b in steps:
            assert (min(a, b), max(a, b)) in G.edges


def test_adjacency_is_the_neighbour_sets():
    rng = random.Random(11)
    for n in range(1, 9):
        for _ in range(20):
            G = random_connected_graph(rng, n, rng.randrange(n + 1))
            assert G.adjacency == tuple(
                tuple(sorted({b if a == v else a
                              for a, b in G.edges if v in (a, b)}))
                for v in range(n))
    assert red.simple_graph(1, []).adjacency == ((),)


def test_disconnected_rejected():
    for n, edges in ((4, [(0, 1), (2, 3)]), (3, []), (0, []),
                     (5, [(0, 1), (1, 2), (3, 4)])):
        with pytest.raises(ReesError, match="^graph must be connected$"):
            red.simple_graph(n, edges)
    with pytest.raises(ReesError):
        red.simple_graph(2, [(0, 0)])


def test_sparse_graph_refused_before_its_adjacency():
    # fewer than n - 1 edges cannot connect n vertices, so such a header is
    # refused before one adjacency list per vertex is built
    tracemalloc.start()
    try:
        with pytest.raises(ReesError, match="^graph must be connected$"):
            red.parse_graph_file("1000000 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_graph_file_parsing():
    G = red.parse_graph_file("3 2\n1 2\n2 3\n")
    assert G.n == 3 and G.edges == frozenset({(0, 1), (1, 2)})
    # the file checks its own 1-based endpoints; the library's message
    # stays in its 0-based terms
    for edge in ("1 4", "0 2"):
        with pytest.raises(ParseError, match=f"^line 3: edge '{edge}' has "
                           "an endpoint outside 1..3$"):
            red.parse_graph_file(f"3 2\n1 2\n{edge}\n")
    # a loop, and an edge given again either way round, are refused too
    with pytest.raises(ParseError, match="^line 3: edge '3 3' is a loop$"):
        red.parse_graph_file("3 2\n1 2\n3 3\n")
    for again in ("1 2", "2 1"):
        with pytest.raises(ParseError, match=f"^line 4: edge '{again}' "
                           "repeats line 2$"):
            red.parse_graph_file(f"3 3\n1 2\n2 3\n{again}\n")
    with pytest.raises(ReesError, match=r"^bad edge \(0, 3\)$"):
        red.simple_graph(3, [(0, 1), (0, 3)])


# ---------------------------------------------------------------------------
# the coloring gadget

def test_wrapper_is_fifty_symbols():
    for v in range(3):
        assert red.sigma_of_variable(v).length == 50


def test_wrappers_are_shared_through_a_bounded_cache():
    # a wrapper depends on its vertex alone, so each is built once
    assert red.sigma_of_variable(2) is red.sigma_of_variable(2)
    info = red.sigma_of_variable.cache_info()
    assert info.maxsize == red.SIGMA_WRAPPER_CACHE_SIZE
    # sigma still builds a new instance and a new word from the shared
    # wrappers, the same word from a cold cache as from a warm one
    G = red.complete_graph(4)
    warm = red.sigma(G)
    assert red.sigma(G).polynomial is not warm.polynomial
    red.sigma_of_variable.cache_clear()
    assert str(red.sigma(G).polynomial) == str(warm.polynomial)


def test_instance_size_is_linear_in_the_walk():
    for G in (red.complete_graph(3), red.complete_graph(4)):
        inst = red.sigma(G)
        assert inst.polynomial.length == 50 * len(inst.walk)


def test_block_kills_exactly_the_mirrored_constant():
    # for each ordered color pair (s, t): x = [t, s] dies under every
    # assignment of the block helper; any other nonzero x survives some
    nonzero = S3.nonzero_triples()
    for s, t in red.color_pairs():
        block = red.gadget_block(0, s, t)
        xname = red.vertex_var(0)
        aname = f"x#{1}#{s}.{t}"
        for x in nonzero:
            alive = any(
                evaluate(S3, block, {xname: x, aname: a}) != r.ZERO
                for a in nonzero)
            assert alive == (x != r.pair(t - 1, s - 1)), (s, t, x)


def test_wrapper_survivors_are_exactly_the_nils():
    # survivors of the 50-symbol wrapper are the square-zero values, and a
    # surviving evaluation returns the value itself
    nils = set(red.nil_elements(S3))
    assert nils == {r.pair(z, z) for z in range(3)}
    G1 = red.simple_graph(1, [])
    for z in (1, 2, 3):
        e = red.complete_nonzero_evaluation(G1, (z,))
        got = evaluate(S3, red.sigma_of_variable(0), e)
        assert got == r.pair(z - 1, z - 1)


def test_no_adjacent_repeats_of_vertex_variables():
    inst = red.sigma(red.complete_graph(4))
    main = {red.vertex_var(v) for v in range(4)}
    word = inst.polynomial.word
    for a, b in zip(word, word[1:]):
        if a.is_var and b.is_var and a.name == b.name:
            assert a.name not in main


def test_coloring_round_trip_k3():
    G = red.complete_graph(3)
    inst = red.sigma(G)
    coloring = (1, 2, 3)
    e = red.complete_nonzero_evaluation(G, coloring)
    assert evaluate(S3, inst.polynomial, e) != r.ZERO
    assert red.decode_coloring(G, e) == coloring
    partial = red.encode_coloring(G, coloring)
    assert all(e[k] == v for k, v in partial.items())


def test_decode_rejects_zero_evaluations():
    G = red.complete_graph(3)
    e = red.complete_nonzero_evaluation(G, (1, 2, 3))
    e[red.vertex_var(0)] = r.pair(0, 1)  # not a nil: kills its wrapper
    with pytest.raises(ReesError):
        red.decode_coloring(G, e)


def test_colorability_matches_structured_search():
    # over every connected graph on up to 4 vertices: 3-colorability equals
    # the existence of a nil assignment whose walk junctions stay alive (the
    # wrapper blocks cover the rest per the block property above)
    for n in (1, 2, 3, 4):
        for G in connected_graphs(n):
            walk = red.edge_walk(G)
            structured = False
            for coloring in itertools.product((1, 2, 3), repeat=n):
                if all(coloring[a] != coloring[b]
                       for a, b in zip(walk, walk[1:])):
                    structured = True
                    break
            assert structured == three_colorable(G), G


def test_k3_nonzero_and_k4_zero():
    G4 = red.complete_graph(4)
    walk = red.edge_walk(G4)
    for coloring in itertools.product((1, 2, 3), repeat=4):
        assert any(coloring[a] == coloring[b]
                   for a, b in zip(walk, walk[1:]))


def test_sigma_decided_end_to_end():
    # pol_zero over H3 decides the instance itself: the triangle's witness
    # decodes to a proper coloring, K4 and K5 are identically zero
    H3 = r.hollow(3)
    k3 = red.complete_graph(3)
    v = r.pol_zero(H3, red.sigma(k3).polynomial)
    assert v.kind == "not-zero" and v.method == "homomorphism-search"
    assert is_proper(k3, red.decode_coloring(k3, v.witness.as_dict()))
    for n in (4, 5):
        v = r.pol_zero(H3, red.sigma(red.complete_graph(n)).polynomial)
        assert v.kind == "zero", n


def test_sigma_matches_three_colorability():
    rng = random.Random(16)
    checked = 0
    while checked < 30:
        n = rng.randint(3, 6)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.6]
        try:
            G = red.simple_graph(n, edges)
        except ReesError:  # not connected
            continue
        checked += 1
        v = r.pol_zero(r.hollow(3), red.sigma(G).polynomial)
        assert (v.kind == "not-zero") == three_colorable(G), G
        if v.witness is not None:
            assert is_proper(G, red.decode_coloring(G, v.witness.as_dict()))


# pol_zero(H3, sigma(K3)), recorded before the branching order moved into
# a heap: the order picks the same vertex at every step, so it finds the
# same witness
K3_WITNESS = (
    "x#1 = [2,2], x#1#1.2 = [1,3], x#1#1.3 = [1,3], x#1#2.1 = [3,1], "
    "x#1#2.3 = [1,3], x#1#3.1 = [3,1], x#1#3.2 = [3,1], x#2 = [3,3], "
    "x#2#1.2 = [1,2], x#2#1.3 = [1,2], x#2#2.1 = [2,1], x#2#2.3 = [2,1], "
    "x#2#3.1 = [2,1], x#2#3.2 = [1,2], x#3 = [1,1], x#3#1.2 = [3,2], "
    "x#3#1.3 = [2,3], x#3#2.1 = [2,3], x#3#2.3 = [2,3], x#3#3.1 = [3,2], "
    "x#3#3.2 = [3,2], y#1#1.2 = [1,1], y#1#1.3 = [2,1], y#1#2.1 = [2,1], "
    "y#1#2.3 = [2,1], y#1#3.1 = [2,1], y#1#3.2 = [2,1], y#2#1.2 = [1,1], "
    "y#2#1.3 = [2,1], y#2#2.1 = [2,1], y#2#2.3 = [2,1], y#2#3.1 = [2,1], "
    "y#2#3.2 = [2,1], y#3#1.2 = [2,2], y#3#1.3 = [2,2], y#3#2.1 = [2,2], "
    "y#3#2.3 = [2,2], y#3#3.1 = [2,2], y#3#3.2 = [2,2], z#1#1.2 = [1,1], "
    "z#1#1.3 = [1,1], z#1#2.1 = [1,1], z#1#2.3 = [1,1], z#1#3.1 = [1,1], "
    "z#1#3.2 = [1,1], z#2#1.2 = [1,1], z#2#1.3 = [1,1], z#2#2.1 = [1,1], "
    "z#2#2.3 = [1,1], z#2#3.1 = [1,1], z#2#3.2 = [1,1], z#3#1.2 = [2,1], "
    "z#3#1.3 = [2,1], z#3#2.1 = [2,1], z#3#2.3 = [2,1], z#3#3.1 = [2,1], "
    "z#3#3.2 = [2,2]")


def test_sigma_verdict_text_is_pinned():
    # the triangle is 3-colorable and K4 is not
    H3 = r.hollow(3)
    got = [str(r.pol_zero(H3, red.sigma(red.complete_graph(n)).polynomial))
           for n in (3, 4)]
    assert got == ["not-zero [homomorphism-search] witness: " + K3_WITNESS,
                   "zero [homomorphism-search]"]


def test_sigma_search_budget():
    # the budget counts search nodes; arc consistency alone does not
    # settle K4
    p = red.sigma(red.complete_graph(4)).polynomial
    with pytest.raises(BudgetExceededError):
        r.pol_zero(r.hollow(3), p, budget=10)


# ---------------------------------------------------------------------------
# hosting transformations

def test_alpha_examples():
    gadget = red.alpha(r.word_of("x"), 4)
    assert gadget.length == 3
    S4 = r.combinatorial(r.hollow(4))
    for e in S4.nonzero_triples():
        got = evaluate(S4, gadget, {"x": e})
        assert got == (e if e.i < 3 and e.lam < 3 else r.ZERO)
    # the instance map is linear in the word length
    p = r.word_of("x y x")
    assert red.alpha(p, 6).length == p.length * red.alpha(r.word_of("x"), 6).length


def test_alpha_preserves_zero_ness():
    S = red.h3_semigroup()
    S4 = r.combinatorial(r.hollow(4))
    words = ["x", "x x", "x y", "[1,1] x [1,1]", "x [2,2] x"]
    for t in words:
        p = r.parse_polynomial(t, S)
        assert r.brute_zero(S, p).kind == \
            r.brute_zero(S4, red.alpha(p, 4)).kind, t


def test_rho_and_sat_lift():
    S = red.h3_semigroup()
    S1 = r.combinatorial(r.hollow(3), True)
    sconst = r.pair(0, 1)
    for t in ["x", "x y", "x [1,2] y", "x x"]:
        p = r.parse_polynomial(t, S)
        jacket = red.rho(p, sconst)
        occurrences = sum(1 for s in p.word if s.is_var)
        assert jacket.length == p.length + 2 * occurrences
        assert r.brute_zero(S, p).kind == r.brute_zero(S1, jacket).kind, t
        lifted = red.sat_lift(p)
        assert lifted.length == p.length + 2
        assert r.brute_zero(S, p).kind == r.brute_zero(S, lifted).kind, t


def test_plane_gadget_blocks():
    ctx = red.plane_context(3)
    S = ctx.target.semigroup
    els = S.nonzero_triples()
    for a, b in ctx.pairs:
        ab = tuple((x + y) % 2 for x, y in zip(a, b))
        gadget = red.tau_gadget(ctx, a, b, "x", "y")
        for x in els:
            dies = (ctx.target.reps[x.i] == ab or
                    ctx.target.reps[x.lam] == ab)
            alive = any(evaluate(S, gadget, {"x": x, "y": y}) != r.ZERO
                        for y in els)
            assert alive != dies, (a, b, x)


def test_plane_rehosting_is_linear_and_valid():
    source = red.plane_context(3).source
    p = r.parse_polynomial("x [1,2] y", source.semigroup)
    hosted = red.tau(p, 3)
    ctx = red.plane_context(3)
    per_var = red.tau_of_variable(ctx, "x").length
    assert hosted.length == 2 * per_var + 1
    for s in hosted.word:
        if not s.is_var:
            ctx.target.semigroup.check_element(s.elem)
    with pytest.raises(ReesError):
        red.tau(p, 2)


def test_sum_of_squares_roots():
    for p in (3, 5, 7, 11):
        c, d = red.sum_of_squares_root(p)
        assert (1 + c * c + d * d) % p == 0


def test_orthogonal_triple_basis():
    basis, tri = red.orthogonal_basis_with_triple(3, 4)
    F = red.PrimeField(3)
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            if i != j:
                assert F.dot(u, v) == 0
    for w in tri:
        assert sum(1 for u in tri if F.dot(u, w) == 0) == 1


def test_reach_of_reach_is_the_three_lines():
    ctx = red.triple_context(3, 3)
    F = ctx.target.field
    rr = red.nonorthogonal_set(F, 3, ctx.reach)
    lines = {tuple(F.mul(k, x) for x in w)
             for w in ctx.triple for k in range(1, 3)}
    assert set(rr) == lines


def test_triple_gadget_kill_and_fix():
    ctx = red.triple_context(3, 3)
    S = ctx.target.semigroup
    protected = set(ctx.triple_indices())
    for e in S.nonzero_triples():
        inside = e.i in protected and e.lam in protected
        dead = any(
            evaluate(S, red.zeta_core(ctx, v, w, "x"), {"x": e}) == r.ZERO
            for v, w in itertools.product(ctx.reach, ctx.reach))
        assert dead != inside, e
        if inside:
            fix = red.zeta_fixing_evaluation(ctx, e)
            assert evaluate(S, red.zeta_of_variable(ctx, "x"), fix) == e


def test_triple_rehosting_maps_hollow_constants():
    S = red.h3_semigroup()
    ctx = red.triple_context(3, 3)
    p = r.parse_polynomial("x [1,2] y", S)
    hosted = red.zeta(p, 3, 3)
    for s in hosted.word:
        if not s.is_var:
            ctx.target.semigroup.check_element(s.elem)
    # the constant map preserves the zero pattern of adjacent products
    TS = ctx.target.semigroup
    for a in range(3):
        for b in range(3):
            for a2 in range(3):
                for b2 in range(3):
                    lhs = S.multiply(r.pair(a, b), r.pair(a2, b2)) == r.ZERO
                    rhs = TS.multiply(red.zeta_constant(ctx, r.pair(a, b)),
                                      red.zeta_constant(ctx, r.pair(a2, b2))) \
                        == r.ZERO
                    assert lhs == rhs
    with pytest.raises(ReesError):
        red.triple_context(2, 3)
