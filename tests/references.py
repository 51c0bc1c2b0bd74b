"""Definitional references that the tests check the package against.

None of these serves a decision procedure, so they live with the tests:
the two definitions of a totally balanced matrix that retract and
classify_matrix are checked against, the factor families of a word that
antichain_table reads off one scan, the facts a word reads off itself in
its constructor, the identified graph as an image of the bipartite one,
and the consistency of a graph component.
"""


def is_totally_balanced(M) -> bool:
    """No 2x2 submatrix with exactly one zero (definitional scan),
    O(m^2 n^2)."""
    rows, cols = range(M.m), range(M.n)
    return not any(M.entry(a, c) and M.entry(a, d) and M.entry(b, c)
                   and not M.entry(b, d)
                   for a in rows for b in rows if a != b
                   for c in cols for d in cols if c != d)


def is_totally_balanced_by_lines(M) -> bool:
    """Equivalent characterization: lines sharing a 1 are equal lines.

    A second, independent definition, O(m^2 n + m n^2), checked against
    is_totally_balanced and used as the reference for retract on matrices
    too large for the scan.
    """
    for a in range(M.m):
        for b in range(a + 1, M.m):
            if any(M.entry(a, i) and M.entry(b, i) for i in range(M.n)):
                if M.row(a) != M.row(b):
                    return False
    for c in range(M.n):
        for d in range(c + 1, M.n):
            if any(M.entry(lam, c) and M.entry(lam, d) for lam in range(M.m)):
                if M.col(c) != M.col(d):
                    return False
    return True


def factor_variable_sets(p, x: str, y: str) -> frozenset:
    """Sets of variables lying strictly between an x...y factor of p.

    A factor counts when neither x nor y occurs inside it (x = y allowed);
    the empty set appears exactly when xy divides p directly.  Constants
    inside a factor are permitted and ignored; the families are meaningful
    for terms.
    """
    word = p.word
    out = set()
    for a in range(len(word)):
        if not (word[a].is_var and word[a].name == x):
            continue
        inner: set[str] = set()
        for b in range(a + 1, len(word)):
            s = word[b]
            if s.is_var and s.name == y:
                out.add(frozenset(inner))
                break  # extending further would put y inside the factor
            if s.is_var and s.name == x:
                break
            if s.is_var:
                inner.add(s.name)
    return frozenset(out)


def antichain(p, x: str, y: str) -> frozenset:
    """Inclusion-minimal members of the factor family for the pair (x, y),
    the reference for antichain_table."""
    fam = factor_variable_sets(p, x, y)
    return frozenset(s for s in fam
                     if not any(t < s for t in fam))


def word_facts(p) -> tuple:
    """A word's variable names and its distinct constants, each in order
    of first occurrence, and whether it is a term, recomputed from p.word
    by symbol kind: the reference for Polynomial's variables, constants
    and is_term."""
    names, elems = [], []
    for s in p.word:
        if s.kind == "var":
            if s.name not in names:
                names.append(s.name)
        elif s.elem not in elems:
            elems.append(s.elem)
    return tuple(names), tuple(elems), not elems


def identified_image(b) -> tuple:
    """The vertices and edges of the bipartite graph b with each constant
    vertex ("c", index, side) merged into ("m", index): the reference for
    build_identified."""
    def merged(v):
        return ("m", v[1]) if v[0] == "c" else v
    return (frozenset(map(merged, b.vertices)),
            frozenset((merged(x), merged(y)) for x, y in b.edges))


def is_consistent(component) -> bool:
    """A component of a bipartite or identified graph is consistent when
    its constant vertices ("c" or "m") agree on one index."""
    return len({v[1] for v in component if v[0] in ("c", "m")}) <= 1
