"""Finite groups given by explicit Cayley tables.

Elements are 0-based indices into the table.  Tables are validated eagerly:
Latin-square shape, identity and inverses always, associativity up to a size
bound (the cubic check is cheap at the scales used here).
"""

from __future__ import annotations

import math
import re
import warnings
from functools import lru_cache

from .errors import GroupTableError
from .frozen import Frozen, cached_value

ASSOCIATIVITY_CHECK_LIMIT = 64

# the largest cyclicK or unitsP built: far above the groups the bench and
# the examples use (order 7 at most), and no more than the associativity
# check's limit, so every named group is checked in full
MAX_GROUP_ORDER = 64

# the named groups kept per constructor: one per order a process uses
GROUP_CACHE_SIZE = 32


class FiniteGroup(Frozen):
    # __dict__ holds the cached_value values
    __slots__ = ("name", "table", "identity", "inverse", "labels", "__dict__")

    def __init__(self, name: str, table: tuple[tuple[int, ...], ...],
                 identity: int, inverse: tuple[int, ...],
                 labels: tuple[str, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "labels", labels)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    @property
    def is_trivial(self) -> bool:
        return len(self.table) == 1

    @cached_value
    def orders(self) -> tuple[int, ...]:
        """The order of each element."""
        out = []
        for a in range(len(self.table)):
            k, x = 1, a
            while x != self.identity:
                k, x = k + 1, self.table[x][a]
            out.append(k)
        return tuple(out)

    @cached_value
    def exponent(self) -> int:
        """The least e > 0 with g^e the identity for every g."""
        return math.lcm(*self.orders)

    @cached_value
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(len(t)) for b in range(a))


def finite_group(table, name="group", labels=None) -> FiniteGroup:
    """Build a validated group from a Cayley table (rows of element indices)."""
    n = len(table)
    rows = tuple(tuple(row) for row in table)
    if any(len(row) != n for row in rows):
        raise GroupTableError("table is not square")
    rng = set(range(n))
    for row in rows:
        if set(row) != rng:
            raise GroupTableError("table rows are not permutations")
    for j in range(n):
        if {rows[i][j] for i in range(n)} != rng:
            raise GroupTableError("table columns are not permutations")

    identity = next((e for e in range(n)
                     if all(rows[e][x] == x and rows[x][e] == x for x in range(n))),
                    None)
    if identity is None:
        raise GroupTableError("no identity element")
    inverse = []
    for a in range(n):
        b = next((b for b in range(n)
                  if rows[a][b] == identity and rows[b][a] == identity), None)
        if b is None:
            raise GroupTableError(f"element {a} has no inverse")
        inverse.append(b)

    if n <= ASSOCIATIVITY_CHECK_LIMIT:
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                        raise GroupTableError(
                            f"not associative at ({a}, {b}, {c})")
    else:
        warnings.warn(f"group of order {n}: associativity not checked "
                      f"(limit {ASSOCIATIVITY_CHECK_LIMIT})", stacklevel=2)

    if labels is None:
        labels = tuple(str(i + 1) for i in range(n))
    return FiniteGroup(name, rows, identity, tuple(inverse), tuple(labels))


_TRIVIAL = finite_group(((0,),), name="trivial")


def trivial_group() -> FiniteGroup:
    """The one-element group, shared: groups are frozen, and every
    combinatorial semigroup is built over it."""
    return _TRIVIAL


def _check_order(n: int) -> None:
    """Refuse a named group larger than MAX_GROUP_ORDER before its table
    is built."""
    if n > MAX_GROUP_ORDER:
        raise GroupTableError(f"group order {n} exceeds the limit "
                              f"{MAX_GROUP_ORDER}")


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def cyclic_group(k: int) -> FiniteGroup:
    """The cyclic group of order k, shared: groups are frozen, and equal
    orders find one value in a bounded LRU cache."""
    if k < 1:
        raise GroupTableError("cyclic group order must be positive")
    _check_order(k)
    table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    return finite_group(table, name=f"cyclic{k}")


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def units_group(p: int) -> FiniteGroup:
    """Multiplicative group of nonzero residues mod a prime p, shared as
    cyclic_group's groups are.

    Element index i stands for the residue i + 1, so labels carry field values.
    """
    _check_order(p - 1)
    if not is_prime(p):
        raise GroupTableError(f"{p} is not prime")
    table = tuple(tuple(((i + 1) * (j + 1)) % p - 1 for j in range(p - 1))
                  for i in range(p - 1))
    labels = tuple(str(i + 1) for i in range(p - 1))
    return finite_group(table, name=f"units{p}", labels=labels)


def group_from_name(name: str) -> FiniteGroup:
    """Resolve the group tag used in matrix files."""
    if name == "trivial":
        return trivial_group()
    m = re.fullmatch(r"(cyclic|units)(\d+)", name)
    if m:
        kind, digits = m.groups()
        # an order of many digits is past the bound, and is not converted:
        # int() refuses the longest digit strings
        if len(digits.lstrip("0")) > 18:
            raise GroupTableError(f"{kind} group order of {len(digits)} "
                                  f"digits exceeds the limit {MAX_GROUP_ORDER}")
        return (cyclic_group if kind == "cyclic" else units_group)(int(digits))
    raise GroupTableError(f"unknown group name {name!r} "
                          "(expected trivial, cyclicK or unitsP)")
