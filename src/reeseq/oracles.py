"""The exhaustive oracles, the ground truth the fast paths are tested against.

They enumerate evaluations into the semigroup (zero included, the identity
too when adjoined) through a precomputed multiplication table.  Every
first-match question goes through _first; value_vector, the one loop that
builds full value tables, has its own.  Before it builds the table, each
refuses when the |S|^n evaluations of its n variables, or the |S|^2
products of the table itself, exceed the budget.

The oracles certify the fast paths of reeseq.decide, so they share no code
with them.  From decide this module takes six names and no others: Verdict,
the four emitters that re-check a witness and turn a finding into a verdict
(_emit_eq, _emit_nonzero, _emit_sat, _emit_eq_zset), and _space, the one
budget check.  It imports nothing from graphs or matrices, and no module of
the package imports it: the CLI's brute-check and the tests reach it as
reeseq.oracles, through the package's PEP 562 hook.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache, partial

from .core import Element, ReesSemigroup
from .decide import (Verdict, _emit_eq, _emit_eq_zset, _emit_nonzero,
                     _emit_sat, _space)
from .errors import ReesError
from .words import Polynomial


@lru_cache(maxsize=64)
def _tables(S: ReesSemigroup):
    els = tuple(S.elements())
    index = {e: k for k, e in enumerate(els)}
    mul = tuple(tuple(index[S.multiply(a, b)] for b in els) for a in els)
    return els, index, mul


def _bounded_tables(S: ReesSemigroup, nvars: int, budget):
    """The tables of S, once the |S|^nvars evaluations and the |S|^2
    products that build its multiplication table both fit in budget."""
    _space(S.size, nvars, budget)
    _space(S.size, 2, budget, "products for the multiplication table")
    return _tables(S)


def _compiled(word, varpos, index):
    return tuple(-1 - varpos[s.name] if s.is_var else index[s.elem]
                 for s in word)


def _fold(word, assign, mul):
    acc = -1
    for t in word:
        idx = assign[-1 - t] if t < 0 else t
        if acc < 0:
            acc = idx
        else:
            acc = mul[acc][idx]
        if acc == 0:
            return 0
    return acc


def _zero_differs(a, b):
    return (a == 0) != (b == 0)


def _first(S: ReesSemigroup, words, test, budget) -> dict | None:
    """The lexicographically first evaluation of the variables of one or two
    words, as a name -> element dict, at which test(*values of words)
    holds; None when there is none.

    Values are indices into the element table, where 0 is the zero.  The
    order is that of itertools.product over the elements, with the variables
    in first-occurrence order across the words, the first most significant.
    Every evaluation up to the first match folds every word, so the number
    of evaluations depends on the space and the first match, not on where
    zeros fall in the words.  Raises BudgetExceededError up front when the
    space or the multiplication table exceeds budget.
    """
    names = tuple(dict.fromkeys(v for p in words for v in p.variables))
    els, index, mul = _bounded_tables(S, len(names), budget)
    varpos = {v: k for k, v in enumerate(names)}
    code = [_compiled(p.word, varpos, index) for p in words]
    combos = itertools.product(range(len(els)), repeat=len(names))
    if len(code) == 1:
        w, = code
        hits = (c for c in combos if test(_fold(w, c, mul)))
    else:
        u, w = code
        hits = (c for c in combos
                if test(_fold(u, c, mul), _fold(w, c, mul)))
    combo = next(hits, None)
    if combo is None:
        return None
    return {v: els[c] for v, c in zip(names, combo)}


def brute_eq(S: ReesSemigroup, p: Polynomial, q: Polynomial, *,
             budget: int | None = None) -> Verdict:
    return _emit_eq(S, p, q, _first(S, (p, q), operator.ne, budget),
                    "brute-force")


def brute_zero(S: ReesSemigroup, p: Polynomial, *,
               budget: int | None = None) -> Verdict:
    return _emit_nonzero(S, p, _first(S, (p,), bool, budget), "brute-force")


def brute_sat(S: ReesSemigroup, p: Polynomial, b: Element, *,
              budget: int | None = None) -> Verdict:
    S.check_element(b)
    index = _bounded_tables(S, len(p.variables), budget)[1]
    w = _first(S, (p,), partial(operator.eq, index[b]), budget)
    return _emit_sat(S, p, b, w, "brute-force")


def brute_zset_eq(S: ReesSemigroup, p: Polynomial, q: Polynomial, *,
                  budget: int | None = None) -> Verdict:
    return _emit_eq_zset(S, p, q, _first(S, (p, q), _zero_differs, budget),
                         "brute-force")


def value_vector(S: ReesSemigroup, p: Polynomial, var_order, *,
                 budget: int | None = None) -> tuple:
    """The full value table of p over assignments to var_order, as indices
    into the element table, where 0 is the zero, in itertools.product order
    over the elements.

    Two words agree as functions exactly when their vectors over a shared
    variable order are equal, and have the same zero set when the zeros of
    their vectors fall at the same positions.
    """
    if set(p.variables) - set(var_order):
        raise ReesError("var_order must cover the variables of p")
    els, index, mul = _bounded_tables(S, len(var_order), budget)
    varpos = {v: k for k, v in enumerate(var_order)}
    wp = _compiled(p.word, varpos, index)
    return tuple(_fold(wp, combo, mul)
                 for combo in itertools.product(range(len(els)),
                                                repeat=len(var_order)))
