"""Shared enumeration helpers for the test suite."""

import itertools

import reeseq as r


def regular_grids(m, n):
    """All regular 0-1 grids of the given shape, as tuple matrices."""
    for bits in itertools.product((0, 1), repeat=m * n):
        grid = tuple(tuple(bits[i * n:(i + 1) * n]) for i in range(m))
        if all(any(row) for row in grid) and \
                all(any(grid[j][c] for j in range(m)) for c in range(n)):
            yield grid


def canonical_grid(grid):
    """Least representative under row and column permutations."""
    m, n = len(grid), len(grid[0])
    return min(tuple(tuple(grid[rp[i]][cp[j]] for j in range(n))
                     for i in range(m))
               for rp in itertools.permutations(range(m))
               for cp in itertools.permutations(range(n)))


def matrix_classes(max_m, max_n):
    """Regular matrices up to the given shape, one per permutation class."""
    out = []
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            seen = set()
            for grid in regular_grids(m, n):
                c = canonical_grid(grid)
                if c not in seen:
                    seen.add(c)
                    out.append(r.matrix(c))
    return out


def all_terms(alphabet, max_len):
    """Every word over the alphabet up to the length bound."""
    return [r.word_of(" ".join(w))
            for length in range(1, max_len + 1)
            for w in itertools.product(alphabet, repeat=length)]


def partitions_match(items, key_a, key_b):
    """Do two fingerprints induce the same equivalence classes?

    Equivalent to checking key_a(p) == key_a(q) iff key_b(p) == key_b(q)
    over every pair, without enumerating pairs.
    """
    by_a, by_b = {}, {}
    for it in items:
        by_a.setdefault(key_a(it), set()).add(it)
        by_b.setdefault(key_b(it), set()).add(it)
    return ({frozenset(v) for v in by_a.values()}
            == {frozenset(v) for v in by_b.values()})


def first_partition_conflict(items, key_a, key_b):
    for p in items:
        for q in items:
            if (key_a(p) == key_a(q)) != (key_b(p) == key_b(q)):
                return p, q
    return None


def checked_kind(v):
    """The kind of a verdict, once it is seen to carry a witness exactly
    when the kind calls for one."""
    assert (v.witness is not None) == \
        (v.kind in ("not-equal", "not-zero", "sat")), v
    return v.kind
