"""Structure-matrix classification and canonicalization.

A regular 0-1 matrix is totally balanced when no 2x2 submatrix has exactly
one zero; equivalently, any two rows sharing a 1 in a common column are
identical, and likewise for columns.  Such matrices collapse, by deleting
duplicate rows and columns, to a permutation matrix; retract composes each
line's surviving duplicate with the permutation into a retraction plan onto
the k x k identity matrix.  So retract recognizes the class in O(mn): a plan
exists exactly when the matrix is totally balanced.  The plan relabels a
polynomial's constants (hat transform), reducing zero-set questions to the
identity-matrix case.
"""

from __future__ import annotations

from .core import StructureMatrix, is_regular, matrix, triple
from .errors import ReesError
from .frozen import Frozen
from .words import Polynomial, Symbol, const


# ---------------------------------------------------------------------------
# Recognition

def is_all_ones(M: StructureMatrix) -> bool:
    return all(v == 1 for row in M.entries for v in row)


def is_bordered(M: StructureMatrix) -> bool:
    """Last row and last column are all ones (and there is an inner corner)."""
    return (M.m >= 2 and M.n >= 2
            and all(v == 1 for v in M.row(M.m - 1))
            and all(v == 1 for v in M.col(M.n - 1)))


# ---------------------------------------------------------------------------
# Retraction

class RetractionPlan(Frozen):
    """Certificate that M retracts onto the k x k identity matrix.

    row_class/col_class send every line to its class in {0..k-1}: retract
    maps the line to its lowest-indexed duplicate, then relabels.  The
    defining property is

        M(lam, i) == 1  iff  row_class[lam] == col_class[i],

    and class_row/class_col pick one original line per class back out.
    """
    __slots__ = ("k", "row_class", "col_class", "class_row", "class_col")

    def __init__(self, k: int, row_class: tuple[int, ...],
                 col_class: tuple[int, ...], class_row: tuple[int, ...],
                 class_col: tuple[int, ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "row_class", row_class)
        object.__setattr__(self, "col_class", col_class)
        object.__setattr__(self, "class_row", class_row)
        object.__setattr__(self, "class_col", class_col)


def _dedup(lines) -> tuple[list[int], list[int]]:
    """The first occurrence of each distinct line, in order, and the first
    occurrence of every line's own, by index."""
    first: dict = {}
    to_first = [first.setdefault(line, idx) for idx, line in enumerate(lines)]
    return list(first.values()), to_first


def retract(M: StructureMatrix):
    """Delete duplicate rows and columns; certify the identity residual.

    Returns (plan, residual): the duplicate-free residual always, and a
    RetractionPlan exactly when the residual is a permutation matrix, which
    happens iff M is totally balanced.
    """
    if not is_regular(M) or not M.is_zero_one:
        raise ReesError("retraction expects a regular 0-1 matrix")
    entries = M.entries
    rows, row_to = _dedup(entries)
    cols, col_to = _dedup(zip(*entries))
    residual = StructureMatrix(tuple(tuple(entries[r][c] for c in cols)
                                     for r in rows))

    k = len(rows)
    # permutation matrix: square, exactly one 1 per residual row and column
    if len(cols) != k or any(sum(line) != 1 for line in residual.entries) \
            or any(sum(line) != 1 for line in zip(*residual.entries)):
        return None, residual

    # label row classes by survivor order, so that each class's surviving
    # row picks it back out, and columns by the residual row of their 1
    row_label = {r: t for t, r in enumerate(rows)}
    col_label = {c: next(r for r in range(k) if residual.entry(r, t))
                 for t, c in enumerate(cols)}
    class_col = [0] * k
    for c, t in col_label.items():
        class_col[t] = c
    row_class = tuple(row_label[r] for r in row_to)
    col_class = tuple(col_label[c] for c in col_to)
    plan = RetractionPlan(k, row_class, col_class, tuple(rows),
                          tuple(class_col))
    if any((v == 1) != (rc == cc) for row, rc in zip(entries, row_class)
           for v, cc in zip(row, col_class)):
        raise ReesError("retraction plan failed self-check")
    return plan, residual


def hat_transform(p: Polynomial, plan: RetractionPlan) -> Polynomial:
    """Relabel p's constants through the plan; variables pass through.

    When no constant moves, as in a term or over an identity plan, the
    result is p itself, and no new word is built.
    """
    col_class, row_class = plan.col_class, plan.row_class
    out: list[Symbol] = []
    moved = False
    for s in p.word:
        if not s.is_var:
            e = s.elem
            i, lam = col_class[e.i], row_class[e.lam]
            if i != e.i or lam != e.lam:
                s = const(triple(i, e.g, lam))
                moved = True
        out.append(s)
    return Polynomial(tuple(out)) if moved else p


def lift_element_map(plan: RetractionPlan):
    """Send an identity-matrix element back to a representative over M."""
    def lift(e):
        if e.kind != "triple":
            return e
        return triple(plan.class_col[e.i], e.g, plan.class_row[e.lam])
    return lift


# ---------------------------------------------------------------------------
# Constructors

# the most rows, and the most columns, of a matrix that identity, all_ones,
# hollow and fields.rank1_semigroup build: far above the 57 lines of the
# rank-1 matrix over GF(7)^3, and the largest such matrix builds in well
# under a second
MAX_GEN_LINES = 512


def check_gen_lines(what: str, lines: int) -> None:
    """Refuse a matrix with more than MAX_GEN_LINES rows or columns, what
    naming it, before anything is built."""
    if lines > MAX_GEN_LINES:
        raise ReesError(f"{what} exceeds the limit of {MAX_GEN_LINES} lines")


def identity(k: int) -> StructureMatrix:
    check_gen_lines(f"identity({k})", k)
    return matrix(tuple(tuple(1 if i == j else 0 for j in range(k))
                        for i in range(k)))


def all_ones(m: int, n: int) -> StructureMatrix:
    check_gen_lines(f"all_ones({m}, {n})", max(m, n))
    return matrix(tuple(tuple(1 for _ in range(n)) for _ in range(m)))


def hollow(k: int) -> StructureMatrix:
    """All-ones matrix with a zero diagonal; regular only for k >= 2."""
    if k < 2:
        raise ReesError("hollow matrix needs k >= 2 to stay regular")
    check_gen_lines(f"hollow({k})", k)
    return matrix(tuple(tuple(0 if i == j else 1 for j in range(k))
                        for i in range(k)))


def border(M: StructureMatrix) -> StructureMatrix:
    """Extend M with a final all-ones row and column."""
    rows = [row + (1,) for row in M.entries]
    rows.append(tuple(1 for _ in range(M.n + 1)))
    return matrix(tuple(rows))


def direct_sum(a: StructureMatrix, b: StructureMatrix) -> StructureMatrix:
    rows = [row + (0,) * b.n for row in a.entries]
    rows += [(0,) * a.n + row for row in b.entries]
    return matrix(tuple(rows))


def permute(M: StructureMatrix, row_perm, col_perm) -> StructureMatrix:
    """Relabel lines: row lam moves to row_perm[lam], column i to col_perm[i].

    Matches the constant relabeling of permute_polynomial, so the pair gives
    an isomorphism of the associated semigroups.
    """
    rows = [[0] * M.n for _ in range(M.m)]
    for lam in range(M.m):
        for i in range(M.n):
            rows[row_perm[lam]][col_perm[i]] = M.entry(lam, i)
    return matrix(tuple(tuple(r) for r in rows))
