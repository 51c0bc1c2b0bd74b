"""Structure-matrix classification and canonicalization.

A regular 0-1 matrix is totally balanced when no 2x2 submatrix has exactly
one zero; equivalently, any two rows sharing a 1 in a common column are
identical, and likewise for columns.  Such matrices collapse, by repeatedly
deleting duplicate rows and columns, to a permutation matrix; composing the
survivor maps with the permutation gives a retraction plan onto the k x k
identity matrix.  The plan relabels a polynomial's constants (hat transform),
reducing zero-set questions to the identity-matrix case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import StructureMatrix, is_regular, matrix, triple
from .errors import ReesError
from .words import Polynomial, Symbol, const


# ---------------------------------------------------------------------------
# Recognition

def is_totally_balanced(M: StructureMatrix) -> bool:
    """No 2x2 submatrix with exactly one zero."""
    return violating_submatrix(M) is None


def violating_submatrix(M: StructureMatrix):
    """Rows a, b and columns c, d of a 2x2 submatrix whose one zero is at
    (b, d), or None when M is totally balanced (definitional scan)."""
    for a in range(M.m):
        for b in range(M.m):
            if a == b:
                continue
            for c in range(M.n):
                for d in range(M.n):
                    if c == d:
                        continue
                    if (M.entry(a, c) and M.entry(a, d) and M.entry(b, c)
                            and not M.entry(b, d)):
                        return a, b, c, d
    return None


def is_totally_balanced_by_lines(M: StructureMatrix) -> bool:
    """Equivalent characterization: lines sharing a 1 are equal lines."""
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


def is_all_ones(M: StructureMatrix) -> bool:
    return all(v == 1 for row in M.entries for v in row)


def is_bordered(M: StructureMatrix) -> bool:
    """Last row and last column are all ones (and there is an inner corner)."""
    return (M.m >= 2 and M.n >= 2
            and all(v == 1 for v in M.row(M.m - 1))
            and all(v == 1 for v in M.col(M.n - 1)))


# ---------------------------------------------------------------------------
# Retraction

@dataclass(frozen=True)
class RetractionPlan:
    """Certificate that M retracts onto the k x k identity matrix.

    row_survivor/col_survivor send every line to its lowest-indexed duplicate;
    row_class/col_class compose the survivor maps with the relabeling onto
    {0..k-1}.  The defining property is

        M(lam, i) == 1  iff  row_class[lam] == col_class[i],

    and class_row/class_col pick one original line per class back out.
    """
    k: int
    row_survivor: tuple[int, ...]
    col_survivor: tuple[int, ...]
    row_class: tuple[int, ...]
    col_class: tuple[int, ...]
    class_row: tuple[int, ...]
    class_col: tuple[int, ...]


def _dedup(lines) -> tuple[list[int], dict[int, int]]:
    """Keep the first occurrence of each distinct line."""
    survivors: list[int] = []
    seen: dict = {}
    to_survivor: dict[int, int] = {}
    for idx, line in enumerate(lines):
        if line in seen:
            to_survivor[idx] = seen[line]
        else:
            seen[line] = idx
            survivors.append(idx)
            to_survivor[idx] = idx
    return survivors, to_survivor


def retract(M: StructureMatrix):
    """Delete duplicate rows and columns; certify the identity residual.

    Returns (plan, residual): the duplicate-free residual always, and a
    RetractionPlan exactly when the residual is a permutation matrix, which
    happens iff M is totally balanced.
    """
    if not is_regular(M) or not M.is_zero_one:
        raise ReesError("retraction expects a regular 0-1 matrix")
    rows, row_to = _dedup(M.entries)
    cols, col_to = _dedup(M.col(i) for i in range(M.n))
    residual = matrix(tuple(tuple(M.entry(r, c) for c in cols) for r in rows))

    k = len(rows)
    if len(cols) != k:
        return None, residual
    # permutation matrix: exactly one 1 per residual row and column
    if any(sum(row) != 1 for row in residual.entries):
        return None, residual
    if any(sum(residual.entry(r, c) for r in range(k)) != 1 for c in range(k)):
        return None, residual

    # label row classes by survivor order, columns by where their 1 sits
    row_label = {r: t for t, r in enumerate(rows)}
    col_label = {}
    for t, c in enumerate(cols):
        hit = next(r for r in range(k) if residual.entry(r, t))
        col_label[c] = row_label[rows[hit]]
    row_class = tuple(row_label[row_to[lam]] for lam in range(M.m))
    col_class = tuple(col_label[col_to[i]] for i in range(M.n))

    class_row = [0] * k
    class_col = [0] * k
    for r in rows:
        class_row[row_label[r]] = r
    for c in cols:
        class_col[col_label[c]] = c

    plan = RetractionPlan(k, tuple(row_to[lam] for lam in range(M.m)),
                          tuple(col_to[i] for i in range(M.n)),
                          row_class, col_class,
                          tuple(class_row), tuple(class_col))
    for lam in range(M.m):
        for i in range(M.n):
            if (M.entry(lam, i) == 1) != (row_class[lam] == col_class[i]):
                raise ReesError("retraction plan failed self-check")
    return plan, residual


def hat_transform(p: Polynomial, plan: RetractionPlan) -> Polynomial:
    """Relabel p's constants through the plan; variables pass through."""
    out: list[Symbol] = []
    for s in p.word:
        if s.is_var:
            out.append(s)
        else:
            e = s.elem
            out.append(const(triple(plan.col_class[e.i], e.g,
                                    plan.row_class[e.lam])))
    return Polynomial(tuple(out))


def lift_element_map(plan: RetractionPlan):
    """Send an identity-matrix element back to a representative over M."""
    def lift(e):
        if e.kind != "triple":
            return e
        return triple(plan.class_col[e.i], e.g, plan.class_row[e.lam])
    return lift


# ---------------------------------------------------------------------------
# Constructors

def identity(k: int) -> StructureMatrix:
    return matrix(tuple(tuple(1 if i == j else 0 for j in range(k))
                        for i in range(k)))


def all_ones(m: int, n: int) -> StructureMatrix:
    return matrix(tuple(tuple(1 for _ in range(n)) for _ in range(m)))


def hollow(k: int) -> StructureMatrix:
    """All-ones matrix with a zero diagonal; regular only for k >= 2."""
    if k < 2:
        raise ReesError("hollow matrix needs k >= 2 to stay regular")
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
