"""The homomorphism engine: the pair-set certificate of zero-set
comparison, the node counts of small components and the witnesses of a
fixed sample of runs."""

import os
import random

import pytest

import reeseq as r
from reeseq import decide, reductions
from reeseq.errors import BudgetExceededError

H3 = r.hollow(3)
C3 = r.matrix(((1, 1, 0), (0, 1, 1), (1, 0, 1)))
N23 = r.matrix(((1, 1, 0), (0, 1, 1)))

# neither totally balanced nor bordered, then bordered ones, then all-ones
ENGINE_MATRICES = {
    "H3": H3, "C3": C3, "H4": r.hollow(4), "N23": N23,
    "BI2": r.border(r.identity(2)), "BH2": r.border(r.hollow(2)),
    "J23": r.all_ones(2, 3),
}

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_homomorphism.txt")


# ---------------------------------------------------------------------------
# the pair-set certificate

def _rewritten_pairs(rng, S, count):
    """Pairs of words with equal adjacent-pair sets and variables: a word
    with a factor u u or u v u, and the same word with that factor written
    u u u or u v u v u (u and v constants at times), in either order."""
    consts = [r.const(e) for e in S.nonzero_triples()]
    names = [r.var(u) for u in "xyz"]

    def sym():
        return rng.choice(consts) if rng.random() < 0.25 else rng.choice(names)

    pairs = []
    for _ in range(count):
        u, v = sym(), sym()
        short, long = (((u, u), (u, u, u)) if rng.random() < 0.5
                       else ((u, v, u), (u, v, u, v, u)))
        pre = tuple(sym() for _ in range(rng.randint(0, 2)))
        post = tuple(sym() for _ in range(rng.randint(0, 2)))
        p, q = r.poly(*pre, *short, *post), r.poly(*pre, *long, *post)
        pairs.append((p, q) if rng.random() < 0.5 else (q, p))
    return pairs


@pytest.mark.parametrize("name", ["H3", "C3", "N23", "H4", "BI2", "BH2"])
def test_equal_pair_sets_match_the_oracles(name):
    # words that share their adjacent pairs share their plain zero sets, so
    # p's zero check alone decides plain zset-eq; with the identity and for
    # pol-eq the words may still differ, and the oracles say how
    M = ENGINE_MATRICES[name]
    rng = random.Random(name)
    for identity in (False, True):
        S = r.combinatorial(M, identity)
        for p, q in _rewritten_pairs(rng, r.combinatorial(M), 8):
            assert decide._pair_keys(p).keys() == decide._pair_keys(q).keys()
            for run, brute in ((r.pol_zset_eq, r.brute_zset_eq),
                               (r.pol_eq, r.brute_eq)):
                v = run(M, p, q, adjoin_identity=identity)
                assert v.kind == brute(S, p, q).kind, (run, str(p), str(q))
            if not identity:
                v = r.pol_zset_eq(M, p, q)
                assert v.kind == "equal"
                assert v.detail in (
                    (("zero pairs", "none separates the words"),),
                    (("both identically zero", True),)), v.detail


def test_equal_pair_sets_build_one_network(monkeypatch):
    # plain zset-eq compiles and searches p alone when the pair sets agree,
    # and both words when they differ
    built, runs = [], []
    engine = decide._homomorphism

    class Counted(decide._Network):
        __slots__ = ()

        def __init__(self, M, p):
            built.append(p)
            super().__init__(M, p)

    def counted(*args):
        runs.append(args)
        return engine(*args)

    monkeypatch.setattr(decide, "_Network", Counted)
    monkeypatch.setattr(decide, "_homomorphism", counted)
    rng = random.Random(5)
    for p, q in _rewritten_pairs(rng, r.combinatorial(H3), 10):
        built.clear()
        runs.clear()
        assert r.pol_zset_eq(H3, p, q).kind == "equal"
        assert built == [p] and len(runs) == 1, (str(p), str(q))
    built.clear()
    runs.clear()
    p, q = r.word_of("x y"), r.word_of("y x")
    assert r.pol_zset_eq(H3, p, q).kind == "not-equal"
    assert built == [p, q] and len(runs) >= 2


# ---------------------------------------------------------------------------
# node counts

def _components(net) -> list:
    """The sizes of the connected components of net's undecided vertices,
    in the order a run with no wants discovers them."""
    doms, seen, sizes = net.doms, set(), []
    for root in net.undecided:
        if root in seen:
            continue
        seen.add(root)
        stack, size = [root], 0
        while stack:
            size += 1
            for u in net.nbrs[stack.pop()]:
                if u not in seen and doms[u] & (doms[u] - 1):
                    seen.add(u)
                    stack.append(u)
        sizes.append(size)
    return sizes


@pytest.mark.parametrize("name, text, sizes, n", [
    ("H3", "x y", [1, 2, 1], 4),
    ("H3", "x y [2,1] z w", [1, 2, 1, 1, 2, 1], 8),
    ("H3", "x y x", [2, 2], 4),
    ("H3", "x x [1,1] x", [2], 1),
    ("N23", "x [1,2] y", [1, 1, 1], 3),
    ("N23", "x [1,1] y z", [1, 1, 2, 1], 5),
    ("C3", "x [1,1] y z", [1, 1, 1, 2, 1], 6),
    ("C3", "[2,2] x y", [1, 2, 1], 4),
])
def test_small_components_spend_the_heap_searchs_nodes(name, text, sizes, n):
    # components of one and two undecided vertices are settled without the
    # heap, at the node counts the heap search spent: one per single
    # vertex, one or two per pair (a pair whose second vertex keeps one
    # value once the first is chosen costs one).  The verdict needs all n
    # nodes, and a run writes its count back to the budget
    M = ENGINE_MATRICES[name]
    p = r.parse_polynomial(text, r.combinatorial(M))
    net = decide._Network(M, p)
    assert _components(net) == sizes
    nodes = decide._Budget(None)
    assert decide._homomorphism(net, (), nodes) is not None
    assert nodes.spent == n
    if n > 1:
        with pytest.raises(BudgetExceededError):
            r.pol_zero(M, p, budget=n - 1)
    assert r.pol_zero(M, p, budget=n).kind == "not-zero"


def test_a_tied_pair_branches_on_more_neighbours():
    # over H3, x's row and y's column both keep the indices 1 and 2, and
    # y's column also meets z's row, decided to 3: y's column goes first,
    # to 1, which leaves x's row only 2.  Then z's column (2 or 3) goes
    # before y's row (any index), to 2, and y's row takes 1 of the 1 and 3
    # left: four nodes, as in the heap search
    p = r.parse_polynomial("x [3,1] x y z [1,1] z [2,1] z y",
                           r.combinatorial(H3))
    net = decide._Network(H3, p)
    assert _components(net) == [1, 2, 2]
    nodes = decide._Budget(None)
    w = decide._homomorphism(net, (), nodes)
    assert {u: r.element_str(e) for u, e in w.items()} == {
        "x": "[2,2]", "y": "[1,1]", "z": "[2,3]"}
    assert nodes.spent == 4


def test_a_failed_search_writes_back_its_nodes():
    # sigma(K4) is identically zero over H3, which arc consistency alone
    # does not show: the search fails after 12 nodes, and a run that raises
    # leaves the count one past the limit
    p = reductions.sigma(reductions.complete_graph(4)).polynomial
    net = decide._Network(H3, p)
    nodes = decide._Budget(None)
    assert decide._homomorphism(net, (), nodes) is None
    assert nodes.spent == 12
    nodes = decide._Budget(11)
    with pytest.raises(BudgetExceededError):
        decide._homomorphism(net, (), nodes)
    assert nodes.spent == 12
    assert r.pol_zero(H3, p, budget=12).kind == "zero"


# ---------------------------------------------------------------------------
# witnesses

def _golden_runs() -> list:
    """A fixed sample of runs, with and without a want, on general,
    bordered and all-ones matrices, one line each: matrix, word, want
    (symbol, side, mask in binary), nodes spent and the witness."""
    rng = random.Random(22)
    out = []
    for name, M in ENGINE_MATRICES.items():
        S = r.combinatorial(M)
        consts = S.nonzero_triples()
        for _ in range(3):
            names = [f"v{j}" for j in range(rng.randint(3, 7))]
            p = r.poly(*[r.var(rng.choice(names)) if rng.random() < 0.85
                         else r.const(rng.choice(consts))
                         for _ in range(rng.randint(4, 14))])
            net = decide._Network(M, p)
            s = rng.choice(p.word)
            side = rng.randint(1, 2)
            mask = rng.randint(1, (1 << (M.n if side == 1 else M.m)) - 1)
            for wants in ((), ((s, side, mask),)):
                nodes = decide._Budget(None)
                w = decide._homomorphism(net, wants, nodes)
                pins = " ".join(f"{r.polynomial_str(r.poly(t))} {k} {b:b}"
                                for t, k, b in wants)
                shown = "zero" if w is None else " ".join(
                    f"{u}={r.element_str(e)}" for u, e in w.items())
                out.append(f"{name} | {r.polynomial_str(p)} | {pins} | "
                           f"{nodes.spent} | {shown}")
    return out


def test_witnesses_match_the_recorded_runs():
    # the branching order and the value order fix every witness; these
    # were recorded before components of one and two vertices left the
    # heap and the heap's keys became integers
    with open(GOLDEN, encoding="utf-8") as fh:
        recorded = fh.read()
    assert "\n".join(_golden_runs()) + "\n" == recorded
