"""Hardness-reduction generators: graph coloring into zero-ness of words.

The centerpiece turns a simple connected graph into a polynomial over the
3x3 hollow-matrix semigroup that is identically zero exactly when the graph
is not 3-colorable.  A closed walk covering every edge once per direction
gives a term whose adjacent variables mirror the graph's edges; each variable
is then wrapped in a gadget that survives evaluation only on the square-zero
elements [z, z], which play the role of the three colors.

The remaining transformations re-host zero-ness questions: padding the
hollow matrix up to larger sizes, jacketing variables for ideal extensions,
and the two vector-space gadgets that confine rank-1 matrix coordinates to a
fixed plane or a fixed orthogonal triple.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial

from .core import Element, ReesSemigroup, ZERO, combinatorial, pair
from .errors import ParseError, ReesError
from .fields import PrimeField, Rank1Semigroup, rank1_semigroup
from .frozen import Frozen, cached_value
from .matrices import hollow
from .words import (Polynomial, Symbol, const, evaluate, poly, substitute,
                    var)


# ---------------------------------------------------------------------------
# Graphs and walks

class SimpleGraph(Frozen):
    # edges: unordered 0-based pairs stored sorted; __dict__ holds the
    # cached_value values
    __slots__ = ("n", "edges", "__dict__")

    def __init__(self, n: int, edges: frozenset):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        for a, b in self.edges:
            if not (0 <= a < b < self.n):
                raise ReesError(f"bad edge ({a}, {b})")
        # a connected graph has at least n - 1 edges; refusing fewer first
        # keeps a large n from building one adjacency list per vertex
        if self.n > len(self.edges) + 1 or not self.is_connected:
            raise ReesError("graph must be connected")

    @cached_value
    def adjacency(self) -> tuple:
        """The sorted neighbour tuple of each vertex, built once."""
        nbrs = [[] for _ in range(self.n)]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(tuple(sorted(vs)) for vs in nbrs)

    @property
    def is_connected(self) -> bool:
        if self.n < 1:
            return False
        seen = {0}
        frontier = [0]
        while frontier:
            for w in self.adjacency[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n


def simple_graph(n, edge_list) -> SimpleGraph:
    edges = set()
    for a, b in edge_list:
        if a == b:
            raise ReesError("loops are not allowed")
        edges.add((min(a, b), max(a, b)))
    return SimpleGraph(n, frozenset(edges))


def complete_graph(n) -> SimpleGraph:
    return simple_graph(n, itertools.combinations(range(n), 2))


def parse_graph_file(text: str) -> SimpleGraph:
    """First line 'n m', then m lines of 1-based edge endpoints.

    An endpoint outside 1..n, a loop and an edge given twice (either way
    round) are refused here, naming the file's line counted from 1, as an
    editor shows it.
    """
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1)
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("empty graph file")
    try:
        n, m = (int(x) for x in lines[0][1].split())
    except ValueError as exc:
        raise ParseError("graph header must be 'n m'") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines")
    first: dict = {}  # each edge's line
    for k, ln in lines[1:]:
        try:
            a, b = (int(x) for x in ln.split())
        except ValueError as exc:
            raise ParseError(f"bad edge line {ln!r}") from exc
        edge = f"line {k}: edge {ln.strip()!r}"
        if not (1 <= a <= n and 1 <= b <= n):
            raise ParseError(f"{edge} has an endpoint outside 1..{n}")
        if a == b:
            raise ParseError(f"{edge} is a loop")
        seen = first.setdefault((min(a, b) - 1, max(a, b) - 1), k)
        if seen != k:
            raise ParseError(f"{edge} repeats line {seen}")
    return simple_graph(n, first)


def edge_walk(G: SimpleGraph) -> tuple:
    """Closed walk traversing every edge exactly once in each direction.

    The doubled graph has even degree everywhere, so a circuit exists; the
    walk has 2|E| steps (a single vertex when there are no edges).
    """
    if not G.edges:
        return (0,)
    # each directed edge (v, w) sits once in v's list and v's pointer only
    # moves forward, so no edge is taken twice
    adj = G.adjacency  # connected: none empty
    ptr = [0] * G.n
    stack, circuit = [0], []
    while stack:
        v = stack[-1]
        if ptr[v] < len(adj[v]):
            stack.append(adj[v][ptr[v]])
            ptr[v] += 1
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    if len(circuit) != 2 * len(G.edges) + 1:
        raise ReesError("walk failed to cover the doubled edges")
    return tuple(circuit)


# ---------------------------------------------------------------------------
# The coloring reduction over the 3x3 hollow matrix

COLORS = (1, 2, 3)


def h3_semigroup() -> ReesSemigroup:
    return combinatorial(hollow(3))


def nil_elements(S: ReesSemigroup) -> list[Element]:
    """Elements with square zero."""
    return [e for e in S.nonzero_triples() if S.multiply(e, e) == ZERO]


def vertex_var(v: int) -> str:
    return f"x#{v + 1}"


def _aux(prefix: str, v: int, s: int, t: int) -> str:
    return f"{prefix}#{v + 1}#{s}.{t}"


def color_pairs():
    return [(s, t) for s in COLORS for t in COLORS if s != t]


def gadget_block(v: int, s: int, t: int) -> Polynomial:
    """Six-symbol word that dies exactly on x = [t, s]: x a a [s,t] a x."""
    x = var(vertex_var(v))
    a = var(_aux("x", v, s, t))
    c = const(pair(s - 1, t - 1))
    return poly(x, a, a, c, a, x)


def _wrapped(name: str, blocks) -> Polynomial:
    """x u1 g1 v1 ... uk gk vk x for x = var(name), from the blocks
    (before name u, gadget g, after name v)."""
    x = var(name)
    word = [x]
    for before, gadget, after in blocks:
        word.append(var(before))
        word.extend(gadget.word)
        word.append(var(after))
    word.append(x)
    return Polynomial(tuple(word))


def _rehost(p: Polynomial, wrap, host) -> Polynomial:
    """Each variable of p through its wrapper wrap(name), built once per
    variable, each constant through host(element)."""
    wrappers = {name: wrap(name).word for name in p.variables}
    out: list[Symbol] = []
    for s in p.word:
        if s.is_var:
            out.extend(wrappers[s.name])
        else:
            out.append(const(host(s.elem)))
    return Polynomial(tuple(out))


# the vertex wrappers kept: one per vertex index of the graphs a process
# reduces, far above the bench's and the tests' graphs (a few KB each)
SIGMA_WRAPPER_CACHE_SIZE = 256


@lru_cache(maxsize=SIGMA_WRAPPER_CACHE_SIZE)
def sigma_of_variable(v: int) -> Polynomial:
    """The 50-symbol wrapper around one vertex variable, shared: words are
    frozen, and it depends on v alone, so each v's wrapper is built once
    and kept in a bounded LRU cache."""
    return _wrapped(vertex_var(v),
                    ((_aux("y", v, s, t), gadget_block(v, s, t),
                      _aux("z", v, s, t)) for s, t in color_pairs()))


class ColoringInstance(Frozen):
    # polynomial: the gadget-wrapped walk term; variable_map: (variable
    # name, 1-based vertex) pairs
    __slots__ = ("graph", "walk", "polynomial", "variable_map")

    def __init__(self, graph: SimpleGraph, walk: tuple,
                 polynomial: Polynomial, variable_map: tuple):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "walk", walk)
        object.__setattr__(self, "polynomial", polynomial)
        object.__setattr__(self, "variable_map", variable_map)


def sigma(G: SimpleGraph) -> ColoringInstance:
    """Wrap the walk term of G; the result is identically zero over the
    hollow 3x3 semigroup exactly when G has no proper 3-coloring."""
    walk = edge_walk(G)
    term = Polynomial(tuple(var(vertex_var(v)) for v in walk))
    mapping = {vertex_var(v): sigma_of_variable(v) for v in set(walk)}
    instance = substitute(term, mapping)
    vmap = tuple((vertex_var(v), v + 1) for v in sorted(set(walk)))
    return ColoringInstance(G, walk, instance, vmap)


def encode_coloring(G: SimpleGraph, coloring) -> dict[str, Element]:
    """Partial evaluation sending each vertex variable to its color's nil."""
    if len(coloring) != G.n:
        raise ReesError("coloring must assign every vertex")
    if any(c not in COLORS for c in coloring):
        raise ReesError("colors must be 1..3")
    return {vertex_var(v): pair(coloring[v] - 1, coloring[v] - 1)
            for v in range(G.n)}


def complete_nonzero_evaluation(G: SimpleGraph, coloring) -> dict[str, Element]:
    """Extend a proper coloring to a total evaluation of the instance.

    Auxiliary variables recur with identical neighborhoods at every
    occurrence of a vertex block, so a per-block local choice is global.
    """
    for a, b in G.edges:
        if coloring[a] == coloring[b]:
            raise ReesError("not a proper coloring")
    S = h3_semigroup()
    e = encode_coloring(G, coloring)
    for v in range(G.n):
        z = coloring[v] - 1
        prev_second = z  # the block wrapper starts right after x
        for s, t in color_pairs():
            block = gadget_block(v, s, t)
            aname = _aux("x", v, s, t)
            choice = next(a for a in S.nonzero_triples()
                          if evaluate(S, block,
                                      {vertex_var(v): pair(z, z),
                                       aname: a}) != ZERO)
            e[aname] = choice
            ybuf = next(b for b in S.nonzero_triples()
                        if b.i != prev_second and b.lam != z)
            e[_aux("y", v, s, t)] = ybuf
            zbuf = next(b for b in S.nonzero_triples()
                        if b.i != z and b.lam != z)
            e[_aux("z", v, s, t)] = zbuf
            prev_second = zbuf.lam
    return e


def decode_coloring(G: SimpleGraph, e) -> tuple:
    """Read a proper coloring off a nonzero evaluation of the instance."""
    S = h3_semigroup()
    inst = sigma(G)
    if evaluate(S, inst.polynomial, e) == ZERO:
        raise ReesError("evaluation sends the instance to zero")
    colors = []
    for v in range(G.n):
        val = e[vertex_var(v)]
        if val.kind != "triple" or val.i != val.lam:
            raise ReesError(f"vertex value {val!r} is not a nil element")
        colors.append(val.i + 1)
    return tuple(colors)


# ---------------------------------------------------------------------------
# Padding the hollow matrix: 3x3 zero-ness hosted in n x n

def alpha(p: Polynomial, n: int) -> Polynomial:
    """Replace x by x [4,4] x [5,5] x ... [n,n] x; constants pass through.

    Evaluated over the n x n hollow matrix, each diagonal constant sits
    between two occurrences of x, so any value with a coordinate above 3 is
    killed and the remaining values are fixed.  (A single run of constants
    between two x's would only screen coordinates 4 and n.)
    """
    if n < 4:
        raise ReesError("padding needs n >= 4")
    mapping = {}
    for name in p.variables:
        word = [var(name)]
        for u in range(4, n + 1):
            word.append(const(pair(u - 1, u - 1)))
            word.append(var(name))
        mapping[name] = Polynomial(tuple(word))
    return substitute(p, mapping)


# ---------------------------------------------------------------------------
# Ideal-extension jacket and the product lift

def _fresh(base: str, taken) -> str:
    name = base
    k = 1
    while name in taken:
        name = f"{base}.{k}"
        k += 1
    return name


def rho(p: Polynomial, s: Element) -> Polynomial:
    """Replace each variable occurrence x by x s y_x (fresh y per variable).

    Confines products into the ideal generated by s, so zero-ness over a
    0-minimal ideal transfers to any ideal extension.
    """
    if s.kind != "triple":
        raise ReesError("the jacket constant must be a nonzero element")
    taken = set(p.variables)
    mapping = {}
    for name in p.variables:
        fresh = _fresh(f"y#{name}", taken)
        taken.add(fresh)
        mapping[name] = Polynomial((var(name), const(s), var(fresh)))
    return substitute(p, mapping)


def sat_lift(p: Polynomial) -> Polynomial:
    """y1 p y2 with fresh outer variables; zero-ness is unchanged."""
    taken = set(p.variables)
    left = _fresh("y#l", taken)
    right = _fresh("y#r", taken | {left})
    return Polynomial((var(left), *p.word, var(right)))


# ---------------------------------------------------------------------------
# Rank-1 gadget: confining coordinates to the first two dimensions (GF(2))

class PlaneContext(Frozen):
    # source: dimension 2; target: dimension n; pairs: distinct (a, b),
    # a + b off the protected plane
    __slots__ = ("source", "target", "pairs")

    def __init__(self, source: Rank1Semigroup, target: Rank1Semigroup,
                 pairs: tuple):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "pairs", pairs)


def _pad(v, n):
    return tuple(v) + (0,) * (n - len(v))


def plane_context(n: int) -> PlaneContext:
    if n < 3:
        raise ReesError("the plane gadget needs n >= 3")
    source = rank1_semigroup(2, 2)
    target = rank1_semigroup(2, n)
    plane = tuple(sorted(_pad(v, n)
                         for v in ((1, 0), (0, 1), (1, 1))))
    nonzero = sorted(target.field.nonzero_vectors(n))
    pairs = tuple((a, b) for a in nonzero for b in nonzero
                  if a != b and tuple((x + y) % 2 for x, y in zip(a, b))
                  not in plane)
    return PlaneContext(source, target, pairs)


def tau_gadget(ctx: PlaneContext, a, b, x_name: str, y_name: str) -> Polynomial:
    """Inner block x y [a,a] y [b,b] y x killing coordinates equal to a + b."""
    x, y = var(x_name), var(y_name)
    ca = const(ctx.target.element_for_vectors(a, a))
    cb = const(ctx.target.element_for_vectors(b, b))
    return poly(x, y, ca, y, cb, y, x)


def tau_of_variable(ctx: PlaneContext, name: str) -> Polynomial:
    return _wrapped(name, ((f"u#{name}#{k}",
                            tau_gadget(ctx, a, b, name, f"y#{name}#{k}"),
                            f"v#{name}#{k}")
                           for k, (a, b) in enumerate(ctx.pairs, start=1)))


def tau(p: Polynomial, n: int) -> Polynomial:
    """Re-host a word over the 2-dimensional rank-1 semigroup in dimension n."""
    ctx = plane_context(n)
    return _rehost(p, partial(tau_of_variable, ctx),
                   lambda e: ctx.target.element_for_vectors(
                       _pad(ctx.source.reps[e.i], n),
                       _pad(ctx.source.reps[e.lam], n)))


# ---------------------------------------------------------------------------
# Rank-1 gadget over odd primes: confining to an orthogonal triple

def sum_of_squares_root(p: int) -> tuple:
    """(c, d) with 1 + c^2 + d^2 = 0 mod p; exists for every odd prime."""
    for c in range(p):
        for d in range(p):
            if (1 + c * c + d * d) % p == 0:
                return c, d
    raise ReesError(f"no root mod {p}")


def orthogonal_basis_with_triple(p: int, n: int):
    """Orthogonal basis v1..vn where each of v1, v2, v1+v2 is orthogonal to
    exactly one member of that triple."""
    if n < 3:
        raise ReesError("need dimension >= 3")
    F = PrimeField(p)
    if p == 2:
        raise ReesError("the triple gadget needs an odd prime")
    c, d = sum_of_squares_root(p)
    basis = [tuple(1 if i == 0 else 0 for i in range(n)),
             tuple((c if i == 1 else d if i == 2 else 0) for i in range(n)),
             tuple((d if i == 1 else F.neg(c) if i == 2 else 0)
                   for i in range(n))]
    for j in range(3, n):
        basis.append(tuple(1 if i == j else 0 for i in range(n)))
    v1, v2 = basis[0], basis[1]
    triple_vs = (v1, v2, tuple(F.add(a, b) for a, b in zip(v1, v2)))
    return tuple(basis), triple_vs


def nonorthogonal_set(F: PrimeField, n: int, constraints) -> tuple:
    """All nonzero vectors non-orthogonal to every constraint vector."""
    return tuple(v for v in F.nonzero_vectors(n)
                 if all(F.dot(v, c) for c in constraints))


class TripleContext(Frozen):
    # triple: (v1, v2, v1 + v2); reach: vectors non-orthogonal to the
    # whole triple; zero_col: for each triple index, which triple member
    # it kills
    __slots__ = ("target", "triple", "reach", "zero_col")

    def __init__(self, target: Rank1Semigroup, triple: tuple, reach: tuple,
                 zero_col: tuple):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "reach", reach)
        object.__setattr__(self, "zero_col", zero_col)

    def triple_indices(self):
        return tuple(self.target.index_of(v) for v in self.triple)

    def in_protected_square(self, e: Element) -> bool:
        idx = set(self.triple_indices())
        return e.kind == "triple" and e.i in idx and e.lam in idx


def triple_context(p: int, n: int) -> TripleContext:
    tri = orthogonal_basis_with_triple(p, n)[1]
    target = rank1_semigroup(p, n)
    F = target.field
    reach = nonorthogonal_set(F, n, tri)
    zero_col = []
    for w in tri:
        zs = [g for g, u in enumerate(tri) if F.dot(u, w) == 0]
        if len(zs) != 1:
            raise ReesError("triple is not singly orthogonal")
        zero_col.append(zs[0])
    return TripleContext(target, tri, reach, tuple(zero_col))


def zeta_core(ctx: TripleContext, v, w, x_name: str) -> Polynomial:
    """Three-symbol core x [v,w] x; dead unless x stays in the triple square."""
    return poly(var(x_name), const(ctx.target.element_for_vectors(v, w)),
                var(x_name))


def zeta_of_variable(ctx: TripleContext, name: str) -> Polynomial:
    return _wrapped(name, ((f"y#{name}#{k}", zeta_core(ctx, v, w, name),
                            f"z#{name}#{k}")
                           for k, (v, w) in enumerate(
                               itertools.product(ctx.reach, ctx.reach),
                               start=1)))


def zeta_constant(ctx: TripleContext, e: Element) -> Element:
    """Hollow-3x3 constant hosted on the protected triple square."""
    col = ctx.zero_col[e.i]
    return ctx.target.element_for_vectors(ctx.triple[col], ctx.triple[e.lam])


def zeta(p: Polynomial, prime: int, n: int) -> Polynomial:
    """Re-host a hollow-3x3 word inside the rank-1 semigroup over GF(prime)."""
    ctx = triple_context(prime, n)
    return _rehost(p, partial(zeta_of_variable, ctx),
                   partial(zeta_constant, ctx))


def zeta_fixing_evaluation(ctx: TripleContext, x_value: Element):
    """Buffer assignment making the wrapped variable evaluate to its value.

    Works for values on the protected square: buffers take a common
    non-self-orthogonal reach vector, and one scalar is corrected at the end.
    """
    S = ctx.target.semigroup
    F = ctx.target.field
    if not ctx.in_protected_square(x_value):
        raise ReesError("value is outside the protected square")
    g = next((v for v in ctx.reach if F.dot(v, v)), None)
    if g is None:
        raise ReesError("no non-self-orthogonal reach vector")
    word = zeta_of_variable(ctx, "x")
    e = {"x": x_value}
    buffers = [s.name for s in word.word if s.is_var and s.name != "x"]
    for name in buffers:
        e[name] = ctx.target.element_for_vectors(g, g)
    got = evaluate(S, word, e)
    if got == ZERO:
        raise ReesError("buffer choice died unexpectedly")
    last = buffers[-1]
    for scalar in range(1, F.p):
        e[last] = ctx.target.element_for_vectors(g, g, scalar)
        if evaluate(S, word, e) == x_value:
            return e
    raise ReesError("no scalar correction restored the value")
