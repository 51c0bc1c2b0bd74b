"""Rees matrix semigroups: structure matrices, elements and arithmetic.

A semigroup M(G, M) lives on the zero plus all triples [i, g, lam] with i a
column index of the m x n structure matrix M, lam a row index and g a group
element.  Products follow

    [i, g, lam] * [j, h, gam] = [i, g * M(lam, j) * h, gam]   if M(lam, j) != 0
                              = 0                             otherwise.

Indices are 0-based internally and 1-based in all text I/O.  Matrix entries
are stored in file convention: 0 for a zero, k >= 1 for the group element
with internal index k - 1 (always 1 in the combinatorial case).

All values here are immutable; every operation is a pure function, so the
module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidElementError, IrregularMatrixError, ParseError
from .groups import FiniteGroup, group_from_name, trivial_group


# ---------------------------------------------------------------------------
# Elements

@dataclass(frozen=True)
class Element:
    """The zero, the optional adjoined identity, or a triple [i, g, lam]."""
    kind: str  # "zero" | "one" | "triple"
    i: int = -1
    g: int = -1
    lam: int = -1

    def __repr__(self):
        if self.kind == "zero":
            return "Element(0)"
        if self.kind == "one":
            return "Element(1)"
        return f"Element[{self.i + 1},{self.g + 1},{self.lam + 1}]"


ZERO = Element("zero")
ONE = Element("one")


def triple(i: int, g: int, lam: int) -> Element:
    return Element("triple", i, g, lam)


def pair(i: int, lam: int) -> Element:
    """Combinatorial element [i, lam] (trivial group coordinate)."""
    return Element("triple", i, 0, lam)


def quotient_element(e: Element) -> Element:
    """Image of an element under the congruence that forgets the group part."""
    if e.kind != "triple":
        return e
    return pair(e.i, e.lam)


def transpose_element(e: Element) -> Element:
    """[i, g, lam] -> [lam, g, i]; zero and identity are fixed."""
    if e.kind != "triple":
        return e
    return triple(e.lam, e.g, e.i)


def element_str(e: Element, show_group: bool = False) -> str:
    if e.kind == "zero":
        return "0"
    if e.kind == "one":
        return "1"
    if show_group or e.g != 0:
        return f"[{e.i + 1},{e.g + 1},{e.lam + 1}]"
    return f"[{e.i + 1},{e.lam + 1}]"


# ---------------------------------------------------------------------------
# Structure matrices

@dataclass(frozen=True)
class StructureMatrix:
    """An m x n grid over {0} + 1-based group element indices."""
    entries: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])

    def entry(self, lam: int, i: int) -> int:
        return self.entries[lam][i]

    def row(self, lam: int) -> tuple[int, ...]:
        return self.entries[lam]

    def col(self, i: int) -> tuple[int, ...]:
        return tuple(row[i] for row in self.entries)

    @property
    def is_zero_one(self) -> bool:
        return all(v in (0, 1) for row in self.entries for v in row)

    def shadow(self) -> "StructureMatrix":
        """0-1 pattern of the matrix (nonzero entries become 1)."""
        return StructureMatrix(tuple(tuple(1 if v else 0 for v in row)
                                     for row in self.entries))

    def transpose(self) -> "StructureMatrix":
        return StructureMatrix(tuple(zip(*self.entries)))

    def __str__(self):
        return "\n".join(" ".join(str(v) for v in row) for row in self.entries)


def matrix(rows) -> StructureMatrix:
    rows = tuple(tuple(int(v) for v in row) for row in rows)
    if not rows or not rows[0]:
        raise ParseError("matrix must have at least one row and one column")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged matrix rows")
    if any(v < 0 for row in rows for v in row):
        raise ParseError("matrix entries must be nonnegative")
    return StructureMatrix(rows)


def is_regular(M: StructureMatrix) -> bool:
    """Every row and every column contains a nonzero entry."""
    return (all(any(v for v in row) for row in M.entries)
            and all(any(row[i] for row in M.entries) for i in range(M.n)))


# ---------------------------------------------------------------------------
# The semigroup

@dataclass(frozen=True)
class ReesSemigroup:
    matrix: StructureMatrix
    group: FiniteGroup
    has_identity: bool = False

    def __post_init__(self):
        if not is_regular(self.matrix):
            raise IrregularMatrixError("structure matrix must be regular")
        bad = max(v for row in self.matrix.entries for v in row)
        if bad > self.group.order:
            raise InvalidElementError(
                f"matrix entry {bad} exceeds group order {self.group.order}")

    @property
    def m(self) -> int:
        return self.matrix.m

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def is_combinatorial(self) -> bool:
        return self.group.is_trivial

    @property
    def size(self) -> int:
        base = self.m * self.n * self.group.order + 1
        return base + 1 if self.has_identity else base

    def elements(self) -> list[Element]:
        out = [ZERO]
        for i in range(self.n):
            for g in range(self.group.order):
                for lam in range(self.m):
                    out.append(triple(i, g, lam))
        if self.has_identity:
            out.append(ONE)
        return out

    def nonzero_triples(self) -> list[Element]:
        return [e for e in self.elements() if e.kind == "triple"]

    def check_element(self, e: Element) -> None:
        if e.kind == "zero":
            return
        if e.kind == "one":
            if not self.has_identity:
                raise InvalidElementError("identity used without adjoining it")
            return
        if not (0 <= e.i < self.n and 0 <= e.lam < self.m
                and 0 <= e.g < self.group.order):
            raise InvalidElementError(f"{e!r} out of range for {self.m}x{self.n} "
                                      f"matrix over group of order {self.group.order}")

    def multiply(self, a: Element, b: Element) -> Element:
        self.check_element(a)
        self.check_element(b)
        if a.kind == "zero" or b.kind == "zero":
            return ZERO
        if a.kind == "one":
            return b
        if b.kind == "one":
            return a
        v = self.matrix.entries[a.lam][b.i]
        if v == 0:
            return ZERO
        g = self.group.mul(a.g, self.group.mul(v - 1, b.g))
        return triple(a.i, g, b.lam)

    def product(self, elems) -> Element:
        # zero is absorbing, so the fold can stop early; callers validate
        # their inputs up front (evaluate, parse)
        acc = None
        for e in elems:
            acc = e if acc is None else self.multiply(acc, e)
            if acc.kind == "zero":
                return ZERO
        if acc is None:
            raise InvalidElementError("empty product")
        return acc

    # -- derived semigroups -------------------------------------------------

    def h_quotient(self) -> "ReesSemigroup":
        """Combinatorial quotient over the 0-1 shadow of the matrix."""
        return ReesSemigroup(self.matrix.shadow(), trivial_group(),
                             self.has_identity)

    def transpose(self) -> "ReesSemigroup":
        return ReesSemigroup(self.matrix.transpose(), self.group,
                             self.has_identity)

    def adjoin_identity(self) -> "ReesSemigroup":
        if self.has_identity:
            raise InvalidElementError("identity already adjoined")
        return replace(self, has_identity=True)


def combinatorial(M: StructureMatrix, with_identity: bool = False) -> ReesSemigroup:
    return ReesSemigroup(M, trivial_group(), with_identity)


# ---------------------------------------------------------------------------
# Matrix text format
#
#   first line:  "m n [group-name]"      (group omitted -> trivial)
#   then m lines of n whitespace-separated entries.

def format_matrix_file(M: StructureMatrix, group: FiniteGroup | None = None) -> str:
    group = group or trivial_group()
    head = f"{M.m} {M.n}"
    if not group.is_trivial:
        head += f" {group.name}"
    return head + "\n" + str(M) + "\n"


def parse_matrix_file(text: str) -> tuple[StructureMatrix, FiniteGroup]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("empty matrix file")
    head = lines[0].split()
    if len(head) not in (2, 3):
        raise ParseError("header must be 'm n [group-name]'")
    try:
        m, n = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}") from exc
    group = group_from_name(head[2]) if len(head) == 3 else trivial_group()
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        vals = ln.split()
        if len(vals) != n:
            raise ParseError(f"expected {n} entries in row {ln!r}")
        try:
            rows.append([int(v) for v in vals])
        except ValueError as exc:
            raise ParseError(f"bad entry in row {ln!r}") from exc
    M = matrix(rows)
    if any(v > group.order for row in M.entries for v in row):
        raise ParseError("matrix entry exceeds group order")
    return M, group


def load_matrix(path) -> tuple[StructureMatrix, FiniteGroup]:
    with open(path, encoding="utf-8") as fh:
        return parse_matrix_file(fh.read())
