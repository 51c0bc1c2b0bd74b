"""Rees matrix semigroups: structure matrices, elements and arithmetic.

A semigroup M(G, M) lives on the zero plus all triples [i, g, lam] with i a
column index of the m x n structure matrix M, lam a row index and g a group
element.  Products follow

    [i, g, lam] * [j, h, gam] = [i, g * M(lam, j) * h, gam]   if M(lam, j) != 0
                              = 0                             otherwise.

Indices are 0-based internally and 1-based in all text I/O.  Matrix entries
are stored in file convention: 0 for a zero, k >= 1 for the group element
with internal index k - 1 (always 1 in the combinatorial case).

All values here are immutable and every operation is a pure function, so
the module is safe for unrestricted concurrent use.  A StructureMatrix
keeps its hash and a ReesSemigroup its index bounds, each computed once in
__init__.  The one cache across calls, combinatorial's bounded store of
semigroups, hands out frozen values and changes no result.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidElementError, IrregularMatrixError, ParseError
from .frozen import Frozen, slot_setters
from .groups import FiniteGroup, group_from_name, trivial_group


# ---------------------------------------------------------------------------
# Elements

class Element(Frozen):
    """The zero, the optional adjoined identity, or a triple [i, g, lam]."""
    __slots__ = ("kind", "i", "g", "lam")  # kind: "zero" | "one" | "triple"

    def __init__(self, kind: str, i: int = -1, g: int = -1, lam: int = -1):
        _set_kind(self, kind)
        _set_i(self, i)
        _set_g(self, g)
        _set_lam(self, lam)

    def __eq__(self, other):
        if type(other) is not Element:
            return NotImplemented
        return ((self.kind, self.i, self.g, self.lam)
                == (other.kind, other.i, other.g, other.lam))

    def __hash__(self):
        return hash((self.kind, self.i, self.g, self.lam))

    def __repr__(self):
        if self.kind == "zero":
            return "Element(0)"
        if self.kind == "one":
            return "Element(1)"
        return f"Element[{self.i + 1},{self.g + 1},{self.lam + 1}]"


_set_kind, _set_i, _set_g, _set_lam = slot_setters(Element)

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


def element_str(e: Element) -> str:
    if e.kind == "zero":
        return "0"
    if e.kind == "one":
        return "1"
    if e.g != 0:
        return f"[{e.i + 1},{e.g + 1},{e.lam + 1}]"
    return f"[{e.i + 1},{e.lam + 1}]"


# ---------------------------------------------------------------------------
# Structure matrices

class StructureMatrix(Frozen):
    """An m x n grid over {0} + 1-based group element indices.

    Every question looks its matrix up in LRU caches, so the hash of the
    nested entries is computed once, here, and kept in _hash.
    """
    __slots__ = ("entries", "_hash")

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        _set_entries(self, entries)
        _set_hash(self, hash((entries,)))

    def __eq__(self, other):
        if type(other) is not StructureMatrix:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return self._hash

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


_set_entries, _set_hash = slot_setters(StructureMatrix)


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

class ReesSemigroup(Frozen):
    # _bounds: (n, m, group order), what check_element compares with
    __slots__ = ("matrix", "group", "has_identity", "_bounds")

    def __init__(self, matrix: StructureMatrix, group: FiniteGroup,
                 has_identity: bool = False):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "has_identity", has_identity)
        object.__setattr__(self, "_bounds",
                           (matrix.n, matrix.m, group.order))
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
        n, m, order = self._bounds
        if not (0 <= e.i < n and 0 <= e.lam < m and 0 <= e.g < order):
            raise InvalidElementError(f"{e!r} out of range for {self.m}x{self.n} "
                                      f"matrix over group of order {self.group.order}")

    def multiply(self, a: Element, b: Element) -> Element:
        self.check_element(a)
        self.check_element(b)
        return self.product((a, b))

    def product(self, elems) -> Element:
        """The product of a nonempty sequence of elements, folded left to
        right on the coordinates: the identity drops out and zero absorbs,
        so the fold stops at the first zero factor or zero entry met.

        No element is checked here.  multiply checks its two factors, and
        words.evaluate, the one other caller in the package, checks each
        assigned value and each constant of the word before folding.
        """
        entries, table = self.matrix.entries, self.group.table
        i = g = lam = None  # the coordinates of the product so far
        one = False
        for e in elems:
            if e.kind == "triple":
                if i is None:
                    i, g, lam = e.i, e.g, e.lam
                    continue
                v = entries[lam][e.i]
                if not v:
                    return ZERO
                g = table[g][table[v - 1][e.g]]
                lam = e.lam
            elif e.kind == "zero":
                return ZERO
            else:
                one = True
        if i is not None:
            return triple(i, g, lam)
        if one:
            return ONE
        raise InvalidElementError("empty product")

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
        return ReesSemigroup(self.matrix, self.group, True)


def combinatorial(M: StructureMatrix, with_identity: bool = False) -> ReesSemigroup:
    """The combinatorial semigroup of M (trivial group), with the identity
    adjoined on request.

    Equal matrices share one semigroup, kept in a bounded LRU cache of
    `_combinatorial` (the key is normalised, so every spelling of
    with_identity=False finds the same entry).  Sharing is safe because
    the semigroup is frozen.  A matrix that is not regular raises on every
    call, since failures are not cached.
    """
    return _combinatorial(M, bool(with_identity))


@lru_cache(maxsize=256)
def _combinatorial(M: StructureMatrix, with_identity: bool) -> ReesSemigroup:
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
