"""Prime fields, rank-1 matrix semigroups and the full matrix semigroup.

The multiplicative semigroup of rank-at-most-1 n x n matrices over GF(p) is
a Rees matrix semigroup: fix one representative vector per 1-dimensional
subspace of GF(p)^n, index rows and columns of the structure matrix by those
subspaces, and set the (lam, i) entry to the dot product of the two
representatives.  A rank-1 matrix with range spanned by v_i and kernel the
orthogonal complement of v_lam factors uniquely as (k v_i) v_lam^T with k a
unit, and maps to the triple [i, k, lam].
"""

from __future__ import annotations

import itertools

from .core import Element, ReesSemigroup, StructureMatrix, ZERO, triple
from .errors import ReesError
from .frozen import Frozen
from .groups import is_prime, units_group
from .matrices import check_gen_lines


class PrimeField(Frozen):
    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ReesError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, self.p - 2, self.p)

    def monic(self, v):
        """The multiple of a nonzero vector whose first nonzero coordinate
        is 1."""
        lead = next(x for x in v if x)
        return tuple(self.mul(self.inv(lead), x) for x in v)

    def dot(self, u, v):
        return sum(a * b for a, b in zip(u, v)) % self.p

    def vectors(self, n):
        return itertools.product(range(self.p), repeat=n)

    def nonzero_vectors(self, n):
        return (v for v in self.vectors(n) if any(v))


def subspace_representatives(F: PrimeField, n: int) -> tuple:
    """One vector per 1-dimensional subspace: the monic representative.

    Normalizing the first nonzero coordinate to 1 picks the lexicographically
    least vector on each line; output is sorted, so indexing is stable.
    """
    return tuple(sorted({F.monic(v) for v in F.nonzero_vectors(n)}))


def line_count(p: int, n: int) -> int:
    return (p ** n - 1) // (p - 1)


class Rank1Semigroup(Frozen):
    """The rank-1 semigroup as a Rees matrix semigroup plus the vector view."""
    __slots__ = ("field", "n", "reps", "semigroup")

    def __init__(self, field: PrimeField, n: int, reps: tuple,
                 semigroup: ReesSemigroup):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "semigroup", semigroup)

    def index_of(self, v) -> int:
        """Subspace index of a nonzero vector."""
        return self.reps.index(self.field.monic(v))

    def scalar_of(self, v) -> int:
        """The unit k with v = k * rep(<v>)."""
        return next(x for x in v if x)

    def triple_to_matrix(self, e: Element):
        if e == ZERO:
            return tuple(tuple(0 for _ in range(self.n))
                         for _ in range(self.n))
        F = self.field
        u = self.reps[e.i]
        w = self.reps[e.lam]
        k = e.g + 1
        return tuple(tuple(F.mul(F.mul(k, u[r]), w[c]) for c in range(self.n))
                     for r in range(self.n))

    def matrix_to_triple(self, A) -> Element:
        if not any(any(row) for row in A):
            return ZERO
        F = self.field
        r0 = next(r for r in range(self.n) if any(A[r]))
        c0 = next(c for c in range(self.n) if A[r0][c])
        col = tuple(A[r][c0] for r in range(self.n))
        row = tuple(A[r0])
        i = self.index_of(col)
        lam = self.index_of(row)
        u, w = self.reps[i], self.reps[lam]
        pos_u = next(r for r in range(self.n) if u[r])
        pos_w = next(c for c in range(self.n) if w[c])
        k = F.mul(A[pos_u][pos_w], F.inv(F.mul(u[pos_u], w[pos_w])))
        if k == 0:
            raise ReesError("matrix has rank above 1")
        return triple(i, k - 1, lam)

    def element_for_vectors(self, u, w, k: int = 1) -> Element:
        """Triple for the rank-1 matrix (k u) w^T."""
        F = self.field
        scal = F.mul(k, F.mul(self.scalar_of(u), self.scalar_of(w)))
        if scal == 0:
            raise ReesError("zero scalar")
        return triple(self.index_of(u), scal - 1, self.index_of(w))


def rank1_semigroup(p: int, n: int) -> Rank1Semigroup:
    """Rees matrix presentation of the rank-at-most-1 matrices over GF(p)."""
    if n < 1:
        raise ReesError("dimension must be positive")
    group = units_group(p)  # refuses a p past its bound before any line
    F = PrimeField(p)
    for k in range(2, n + 1):  # p >= 2: past the bound by k = 10
        check_gen_lines(f"rank1_semigroup({p}, {n})", line_count(p, k))
    reps = subspace_representatives(F, n)
    r = len(reps)
    if r != line_count(p, n):
        raise ReesError("subspace enumeration went wrong")
    entries = tuple(tuple(F.dot(reps[lam], reps[i]) for i in range(r))
                    for lam in range(r))
    M = StructureMatrix(entries)
    return Rank1Semigroup(F, n, reps, ReesSemigroup(M, group))


def l2_quotient_check(p: int):
    """Verify the quotient of the 2-dimensional rank-1 semigroup is hollow.

    Each row of the structure matrix has exactly one zero and no column is
    zeroed twice, so pushing each row's zero onto the diagonal turns the 0-1
    shadow into the (p+1) x (p+1) hollow matrix.  Returns the witnessing
    column permutation.
    """
    rk = rank1_semigroup(p, 2)
    shadow = rk.semigroup.h_quotient().matrix
    r = shadow.m
    if r != p + 1:
        raise ReesError("wrong number of lines")
    zero_col = []
    for lam in range(r):
        zeros = [i for i in range(r) if shadow.entry(lam, i) == 0]
        if len(zeros) != 1:
            raise ReesError(f"row {lam} has {len(zeros)} zeros")
        zero_col.append(zeros[0])
    if len(set(zero_col)) != r:
        raise ReesError("two rows share a zero column")
    # column zero_col[lam] moves to position lam
    perm = [0] * r
    for lam, c in enumerate(zero_col):
        perm[c] = lam
    for lam in range(r):
        for i in range(r):
            want = 0 if perm[i] == lam else 1
            if shadow.entry(lam, i) != want:
                raise ReesError("shadow is not hollow up to permutation")
    return perm


# ---------------------------------------------------------------------------
# Full matrix semigroup

class MatrixSemigroup(Frozen):
    """All n x n matrices over GF(p) under multiplication."""
    __slots__ = ("field", "n")

    def __init__(self, field: PrimeField, n: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)

    def elements(self):
        rows = list(itertools.product(range(self.field.p), repeat=self.n))
        return [tuple(m) for m in itertools.product(rows, repeat=self.n)]

    def identity(self):
        return tuple(tuple(1 if i == j else 0 for j in range(self.n))
                     for i in range(self.n))

    def multiply(self, A, B):
        F = self.field
        return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(self.n)) % F.p
                           for j in range(self.n)) for i in range(self.n))

    def rank(self, A) -> int:
        F = self.field
        rows = [list(r) for r in A]
        rank, col = 0, 0
        while rank < self.n and col < self.n:
            piv = next((r for r in range(rank, self.n) if rows[r][col]), None)
            if piv is None:
                col += 1
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = F.inv(rows[rank][col])
            rows[rank] = [F.mul(inv, x) for x in rows[rank]]
            for r in range(self.n):
                if r != rank and rows[r][col]:
                    c = rows[r][col]
                    rows[r] = [F.add(x, F.neg(F.mul(c, y)))
                               for x, y in zip(rows[r], rows[rank])]
            rank += 1
            col += 1
        return rank

    def low_rank_elements(self):
        """The rank-at-most-1 matrices (the candidate minimal nonzero ideal)."""
        return [A for A in self.elements() if self.rank(A) <= 1]


def is_zero_minimal_ideal(T: MatrixSemigroup, L) -> bool:
    """Is L a completely 0-minimal ideal of T?  Exhaustive, tiny sizes only.

    Checks L is an ideal and 0-simple: u s v = t solvable within L for all
    nonzero s, t, which rules out intermediate ideals.
    """
    lset = set(L)
    zero = tuple(tuple(0 for _ in range(T.n)) for _ in range(T.n))
    if zero not in lset:
        return False
    for A in T.elements():
        for B in L:
            if T.multiply(A, B) not in lset or T.multiply(B, A) not in lset:
                return False
    nonzero = [A for A in L if A != zero]
    for s in nonzero:
        for t in nonzero:
            if not any(T.multiply(T.multiply(u, s), v) == t
                       for u in nonzero for v in nonzero):
                return False
    return True
