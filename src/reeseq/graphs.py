"""Graph encodings of a word's zero behavior.

Three graphs are attached to a polynomial p over a combinatorial Rees matrix
semigroup:

* the adjacency digraph on p's symbols, with an arc (c, d) exactly when the
  two-symbol word cd divides p syntactically;
* a bipartite graph on first-coordinate vertices (side X) and
  second-coordinate vertices (side Y): an adjacent pair vw in p contributes
  the edge {w_1 in X, v_2 in Y}, so an edge {x, y} carries the nonzero
  constraint M(e(y), e(x)) != 0 on evaluations;
* the identified graph, where constant vertices carrying the same index are
  merged across sides.  Merging compares row and column indices as integers,
  which is meaningful over identity-matrix contexts (the only place it is
  used); variable vertices are never merged.

Vertices are plain tuples: ("v", name, side) for variables,
("c", index, side) for constants, and ("m", index) after identification,
with side 1 = X and side 2 = Y.

Procedures that test many slices of one word (its variables partly
eliminated) use CompiledWord instead: the identified graph on integer
vertices, one union-find pass per slice, and the word's records, what one
scan meets, with the families minimised from them.  Two words' slices are
compared in the order records, slice 0, families, walk: equal records
settle every slice at once, slice 0 included, and so do equal families.
"""

from __future__ import annotations

from itertools import compress

from .frozen import Frozen, cached_value
from .words import Polynomial


class Digraph(Frozen):
    __slots__ = ("vertices", "edges")  # edges: ordered pairs

    def __init__(self, vertices: frozenset, edges: frozenset):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)


class Bigraph(Frozen):
    # edges: (x_vertex, y_vertex) pairs, X side first
    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: frozenset, edges: frozenset):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)


def _sym_vertex(s, side: int):
    if s.is_var:
        return ("v", s.name, side)
    idx = s.elem.i if side == 1 else s.elem.lam
    return ("c", idx, side)


def build_adjacency(p: Polynomial) -> Digraph:
    verts = frozenset(("v", s.name) if s.is_var else ("k", s.elem)
                      for s in p.word)
    edges = set()
    for a, b in zip(p.word, p.word[1:]):
        ka = ("v", a.name) if a.is_var else ("k", a.elem)
        kb = ("v", b.name) if b.is_var else ("k", b.elem)
        edges.add((ka, kb))
    return Digraph(verts, frozenset(edges))


def build_bipartite(p: Polynomial) -> Bigraph:
    verts = set()
    for s in p.word:
        verts.add(_sym_vertex(s, 1))
        verts.add(_sym_vertex(s, 2))
    edges = set()
    for v, w in zip(p.word, p.word[1:]):
        edges.add((_sym_vertex(w, 1), _sym_vertex(v, 2)))
    return Bigraph(frozenset(verts), frozenset(edges))


def build_identified(p: Polynomial) -> Bigraph:
    """The bipartite graph with constant vertices merged by index, built
    in one pass over the word."""
    xs, ys = [], []  # each position's X and Y vertex
    for s in p.word:
        xs.append(("v", s.name, 1) if s.is_var else ("m", s.elem.i))
        ys.append(("v", s.name, 2) if s.is_var else ("m", s.elem.lam))
    return Bigraph(frozenset(xs + ys), frozenset(zip(xs[1:], ys)))


# ---------------------------------------------------------------------------
# Connected components

def _find(parent: list, x: int) -> int:
    """Root of x in an integer union-find forest, halving the path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def components(g: Bigraph) -> frozenset:
    """Partition of the vertex set into connected components."""
    verts = tuple(g.vertices)
    ids = {v: k for k, v in enumerate(verts)}
    parent = list(range(len(verts)))
    for a, b in g.edges:
        ra, rb = _find(parent, ids[a]), _find(parent, ids[b])
        if ra != rb:
            parent[rb] = ra
    groups: dict = {}
    for k, v in enumerate(verts):
        groups.setdefault(_find(parent, k), set()).add(v)
    return frozenset(frozenset(c) for c in groups.values())


# the ends of a word, as vertices of CompiledWord.records
START, END = -1, -2


class CompiledWord:
    """A word over an identity matrix, compiled for integer union-find passes.

    With V names, variable names[j] owns vertex 2j on side X and 2j + 1 on
    side Y, and constant index c is the vertex 2V + c on both sides, so the
    components are those of the identified graph.  Each position of the word
    is stored as (variable bit, X vertex, Y vertex), with bit 0 for a
    constant.  A slice drops the positions whose bit is in a mask; dropping
    removes only variables and never relabels a constant, so one compilation
    of the hat-transformed word serves every slice of it.  labels and ends
    read one slice; records and families read all 2^V of them from one
    scan, as far as comparing two words goes: records first, then slice 0,
    families only when the records differ, and a walk only when both do.
    """

    def __init__(self, p: Polynomial, names):
        self.names = tuple(names)
        index = {u: j for j, u in enumerate(self.names)}
        self.base = base = 2 * len(self.names)
        self.varmask = 0
        positions = []
        top = base
        for s in p.word:
            if s.is_var:
                j = index[s.name]
                self.varmask |= 1 << j
                positions.append((1 << j, 2 * j, 2 * j + 1))
            else:
                x, y = base + s.elem.i, base + s.elem.lam
                top = max(top, x + 1, y + 1)
                positions.append((0, x, y))
        self.positions = tuple(positions)
        self.size = top

    def labels(self, drop: int = 0):
        """Component labels of one slice, or None when the slice is zero.

        Keeps the positions whose bit is not in `drop` and joins each kept
        position's X vertex to the Y vertex of the kept position before it.
        Over an identity matrix the slice is identically zero exactly when
        a component holds two distinct constants; the pass stops there.
        Otherwise the list has one entry per variable vertex: -1 - c when
        its component holds constant c, else the rank of its component in
        order of first vertex, and None for a dropped or absent variable.
        """
        base = self.base
        parent = list(range(self.size))
        prev = -1
        for bit, x, y in self.positions:
            if bit & drop:
                continue
            if prev >= 0:
                a, b = _find(parent, x), _find(parent, prev)
                if a != b:
                    if a < base:
                        parent[a] = b
                    elif b < base:
                        parent[b] = a  # a constant stays the root
                    else:
                        return None
            prev = y
        kept = self.varmask & ~drop
        out = [None] * base
        rank: dict = {}
        for v in range(base):
            if kept >> (v >> 1) & 1:
                r = _find(parent, v)
                out[v] = base - 1 - r if r >= base else \
                    rank.setdefault(r, len(rank))
        return out

    def ends(self, drop: int = 0) -> tuple[int, int]:
        """X vertex of the first kept position, Y vertex of the last."""
        kept = [pos for pos in self.positions if not pos[0] & drop]
        return kept[0][1], kept[-1][2]

    def records(self) -> frozenset:
        """Every (y, x, mask) met by one forward scan from START and from
        each position: y is the Y vertex where the scan starts (START, -1,
        for the word's start), x the X vertex of a later position (END, -2,
        for the word's end) and mask the variables strictly between them.

        A scan stops at a constant or at its own variable again, and passes
        over a variable it has met already, whose mask would hold that of
        its first occurrence.  Scanned once per word; families() minimises
        the records, so equal records give equal families.
        """
        return self._records

    # families reads this, not records(), so that the tests can replace
    # either certificate on its own
    @cached_value
    def _records(self) -> frozenset:
        out = set()
        add = out.add
        positions = self.positions
        scans = [(START, 0, 0)] + [(y, bit, a + 1) for a, (bit, _, y)
                                   in enumerate(positions)]
        for y, own, start in scans:
            mask = 0
            for bit, x, _ in positions[start:]:
                if not bit & mask:
                    add((y, x, mask))
                if not bit or bit == own:
                    break
                mask |= bit
            else:
                add((y, END, mask))
        return frozenset(out)

    def families(self) -> dict:
        """(y, x) mapped to the inclusion-minimal masks of its records.

        Two kept positions are adjacent in slice `drop` exactly when all
        between them are dropped variables, so the slice has the edge
        {x, y} exactly when a mask of (y, x) lies inside drop and neither
        vertex is dropped, and its first and last kept positions are read
        off START and END alike.  Words with the same variables and equal
        families therefore have the same labels and ends in every slice.
        """
        fam: dict = {}
        for y, x, mask in self._records:
            fam.setdefault((y, x), []).append(mask)
        # masks under one key are distinct: n is below m when n | m == m
        return {key: frozenset(masks if len(masks) == 1 else
                               [m for m in masks
                                if not any(n | m == m != n for n in masks)])
                for key, masks in fam.items()}


# ---------------------------------------------------------------------------
# Antichain families for ordered variable pairs

def antichain_table(p: Polynomial) -> tuple:
    """Canonical table of antichain families over all ordered variable pairs.

    The antichain of (x, y) is the family of x's Y vertex and y's X vertex
    in the compiled word of p's variables: a factor skips constants, so
    they are left out, and then the two scans stop at the same places.
    """
    names = sorted(p.variables)
    if not names:
        return ()
    fam = CompiledWord(Polynomial(tuple([s for s in p.word if s.is_var])),
                       names).families()

    # a mask's names, read off its binary digits, most significant first
    high_first = names[::-1]
    digit_bits = bytes.maketrans(b"01", b"\0\1")

    def named(mask):
        digits = f"{mask:0{len(names)}b}".encode().translate(digit_bits)
        return frozenset(compress(high_first, digits))

    return tuple(((x, y), frozenset(map(named, fam.get((2 * i + 1, 2 * j),
                                                       ()))))
                 for i, x in enumerate(names) for j, y in enumerate(names))


# ---------------------------------------------------------------------------
# DOT export

def _vertex_label(v) -> str:
    if v[0] == "v":
        return v[1] if len(v) == 2 else f"{v[1]}_{v[2]}"
    if v[0] == "c":
        return f"{v[1] + 1}_{'X' if v[2] == 1 else 'Y'}"
    if v[0] == "m":
        return str(v[1] + 1)
    if v[0] == "k":  # adjacency-graph constant: an element
        e = v[1]
        return f"[{e.i + 1},{e.lam + 1}]" if e.g == 0 else \
            f"[{e.i + 1},{e.g + 1},{e.lam + 1}]"
    return str(v)


def to_dot(g, name: str = "g") -> str:
    """Graph text in DOT format, one edge per line."""
    lines = []
    directed = isinstance(g, Digraph)
    lines.append(("digraph" if directed else "graph") + f" {name} {{")
    arrow = "->" if directed else "--"
    for v in sorted(g.vertices, key=repr):
        lines.append(f'  "{_vertex_label(v)}";')
    for a, b in sorted(g.edges, key=repr):
        lines.append(f'  "{_vertex_label(a)}" {arrow} "{_vertex_label(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
