"""Decision procedures for equivalence problems over Rees matrix semigroups.

Each fast procedure dispatches on the structure-matrix class:

* all-ones matrices: everything reduces to variable sets, endpoints and
  sequencings;
* totally balanced matrices: polynomials are relabeled onto an identity
  matrix (hat transform), where zero behavior is governed by connected
  components of the bipartite graph and their consistency;
* bordered matrices (all-ones last row and column): the border completion of
  a partial assignment is the most permissive extension, so zero-ness and
  matchability questions need only single evaluations;
* anything else falls back to the exhaustive oracle, under a budget, and the
  verdict records that it did.

Every verdict carries a method tag, and negative (positive, for
satisfiability) verdicts carry a witness evaluation that is re-checked
through words.evaluate at emission time.  The exhaustive oracles at the
bottom, the ground truth the fast paths are tested against, share one search
kernel with the witness search; no fast-path decision calls it.
value_vector is the one loop that builds full value tables.
"""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass
from functools import lru_cache, partial

from .core import (Element, ONE, ReesSemigroup, StructureMatrix, ZERO,
                   combinatorial, element_str, is_regular, pair, triple)
from .errors import (BudgetExceededError, InvalidElementError,
                     IrregularMatrixError, ReesError, UnsupportedMatrixError,
                     WitnessSearchError)
from .graphs import (CompiledWord, antichain_table, build_adjacency,
                     build_bipartite, build_identified, components)
from .groups import FiniteGroup
from .matrices import (hat_transform, is_all_ones, is_bordered,
                       is_totally_balanced, lift_element_map, retract,
                       violating_submatrix)
from .words import (Evaluation, Polynomial, evaluate, left_sequencing,
                    right_sequencing, substitute_elements,
                    validate_polynomial)


def default_budget() -> int:
    return int(os.environ.get("REESEQ_BUDGET", "10000000"))


# ---------------------------------------------------------------------------
# Verdicts

@dataclass(frozen=True)
class Verdict:
    kind: str  # equal | not-equal | zero | not-zero | sat | unsat
    method: str
    witness: Evaluation | None = None
    detail: tuple = ()

    @property
    def positive(self) -> bool:
        return self.kind in ("equal", "zero", "sat")

    def __str__(self):
        out = f"{self.kind} [{self.method}]"
        if self.witness is not None:
            out += f" witness: {self.witness}"
        return out


def _emit_eq(S, p, q, witness, method, detail=()):
    w = dict(witness)
    if evaluate(S, p, w) == evaluate(S, q, w):
        raise WitnessSearchError(f"bogus inequality witness {witness} "
                                 f"for {p} vs {q}")
    return Verdict("not-equal", method, Evaluation.of(w), detail)


def _emit_nonzero(S, p, witness, method, detail=()):
    w = dict(witness)
    if evaluate(S, p, w) == ZERO:
        raise WitnessSearchError(f"bogus nonzero witness {witness} for {p}")
    return Verdict("not-zero", method, Evaluation.of(w), detail)


def _emit_sat(S, p, b, witness, method, detail=()):
    w = dict(witness)
    if evaluate(S, p, w) != b:
        raise WitnessSearchError(f"bogus solution {witness} for {p} = "
                                 f"{element_str(b)}")
    return Verdict("sat", method, Evaluation.of(w), detail)


# ---------------------------------------------------------------------------
# Matrix classification

@dataclass(frozen=True)
class MatrixProfile:
    matrix: StructureMatrix
    all_ones: bool
    totally_balanced: bool
    bordered: bool
    plan: object
    equal_rows: bool
    equal_cols: bool


@lru_cache(maxsize=256)
def classify_matrix(M: StructureMatrix) -> MatrixProfile:
    if not M.is_zero_one:
        raise UnsupportedMatrixError("fast procedures expect a 0-1 matrix")
    if not is_regular(M):
        raise IrregularMatrixError("structure matrix must be regular")
    balanced = is_totally_balanced(M)
    plan = retract(M)[0] if balanced else None
    rows = len(set(M.entries)) < M.m
    cols = len({M.col(i) for i in range(M.n)}) < M.n
    return MatrixProfile(M, is_all_ones(M), balanced, is_bordered(M),
                         plan, rows, cols)


# ---------------------------------------------------------------------------
# Term equivalence

_PROFILE_FIELDS = {
    "J": ("variables", "left symbol", "right symbol"),
    "TB": ("variables", "graph components", "left-endpoint component",
           "right-endpoint component", "right symbol (equal rows)",
           "left symbol (equal columns)"),
    "G": ("adjacency graph", "left symbol", "right symbol"),
    "J1": ("variables", "left sequencing", "right sequencing"),
    "G1": ("left sequencing", "right sequencing", "antichain families"),
}


def term_profile(M: StructureMatrix, p: Polynomial,
                 with_identity: bool = False) -> tuple:
    """Hashable tuple of the conditions term equivalence compares.

    Two terms are equal over the semigroup exactly when their profiles are;
    the leading tag names the matrix class that was dispatched on.
    """
    if not p.is_term:
        raise ReesError("term procedures expect constant-free words")
    prof = classify_matrix(M)
    if prof.all_ones:
        if not with_identity:
            return ("J", frozenset(p.variables),
                    p.leftmost.name if M.n >= 2 else None,
                    p.rightmost.name if M.m >= 2 else None)
        return ("J1", frozenset(p.variables),
                left_sequencing(p) if M.n >= 2 else None,
                right_sequencing(p) if M.m >= 2 else None)
    if prof.totally_balanced:
        names = tuple(sorted(p.variables))
        cw = CompiledWord(p, names)  # a term has no constants to relabel
        if not with_identity:
            return ("TB", names) + _term_slice(prof, cw, 0)
        # An identity-valued variable drops out of the word, so equality
        # over the extended semigroup is equality of every elimination
        # slice over the plain one.  (Component sequencings alone miss
        # this: x x y x and x x y y contract to y and y y.)
        return ("TB1", names, tuple(_term_slice(prof, cw, W)
                                    for W in _slice_masks(len(names), False)))
    if not with_identity:
        return ("G", build_adjacency(p), p.leftmost.name, p.rightmost.name)
    return ("G1", left_sequencing(p), right_sequencing(p), antichain_table(p))


def _slice_masks(n: int, full: bool = True) -> list[int]:
    """Masks of eliminated variables in size-then-lexicographic order.

    Bit j stands for the j-th name; with full false, the mask eliminating
    all n variables is left out.
    """
    top = n + 1 if full else n
    return [sum(1 << j for j in combo) for k in range(top)
            for combo in itertools.combinations(range(n), k)]


def _mask_names(names, mask: int) -> tuple[str, ...]:
    return tuple(u for j, u in enumerate(names) if mask >> j & 1)


def _term_slice(prof, cw: CompiledWord, W: int) -> tuple:
    """The plain balanced-case conditions for one slice of a term, as a key:
    component labels, the labels of the end components and the gated end
    symbols."""
    lab = cw.labels(W)
    x, y = cw.ends(W)
    return (tuple(lab), lab[x], lab[y],
            cw.names[y >> 1] if prof.equal_rows else None,
            cw.names[x >> 1] if prof.equal_cols else None)


def _label_groups(names, labels) -> dict:
    """CompiledWord labels rendered as sets of ("v", name, side) vertices."""
    groups: dict = {}
    for v, c in enumerate(labels):
        if c is not None:
            groups.setdefault(c, set()).add(("v", names[v >> 1], 1 + (v & 1)))
    return {c: frozenset(vs) for c, vs in groups.items()}


def _readable_slice(names, key) -> tuple:
    """A term-slice key with its labels rendered as vertex sets."""
    comps = _label_groups(names, key[0])
    return (frozenset(comps.values()), comps[key[1]], comps[key[2]]) + key[3:]


def _profile_detail(kp, kq):
    out = [("matrix class", kp[0], kq[0], kp[0] == kq[0])]
    if kp[0] == "TB1":
        return tuple(out) + _slices_detail(kp, kq)
    if kp[0] == "TB":
        kp = kp[:2] + _readable_slice(kp[1], kp[2:])
        kq = kq[:2] + _readable_slice(kq[1], kq[2:])
    for name, a, b in zip(_PROFILE_FIELDS[kp[0]], kp[1:], kq[1:]):
        out.append((name, a, b, a == b))
    return tuple(out)


def _first_mismatch(kp, kq):
    """Index of the first elimination slice on which two TB1 profiles
    differ, or None when they agree (or have different variables)."""
    if kp[1] != kq[1]:
        return None
    return next((t for t, (a, b) in enumerate(zip(kp[2], kq[2])) if a != b),
                None)


def _slices_detail(kp, kq) -> tuple:
    """TB1 rows: the number of slices compared when the profiles agree,
    else the first mismatching slice with its two plain-slice profiles."""
    if kp == kq:
        return (("identity-elimination slices compared", len(kp[2])),)
    t = _first_mismatch(kp, kq)
    if t is None:
        return (("variables", kp[1], kq[1], False),)
    W = _slice_masks(len(kp[1]), False)[t]
    rows = [("first mismatching slice, eliminated",
             _mask_names(kp[1], W))]
    fields = _PROFILE_FIELDS["TB"][1:]
    a = _readable_slice(kp[1], kp[2][t])
    b = _readable_slice(kq[1], kq[2][t])
    rows += [(name, x, y, x == y) for name, x, y in zip(fields, a, b)]
    return tuple(rows)


def term_eq(M: StructureMatrix, p: Polynomial, q: Polynomial, *,
            find_witness: bool = True, budget: int | None = None) -> Verdict:
    """Decide p = q for terms over the combinatorial semigroup of M."""
    kp = term_profile(M, p)
    kq = term_profile(M, q)
    method = {"J": "all-ones-endpoints", "TB": "balanced-components",
              "G": "adjacency-endpoints"}[kp[0]]
    detail = _profile_detail(kp, kq)
    if kp == kq:
        return Verdict("equal", method, None, detail)
    if not find_witness:
        return Verdict("not-equal", method, None, detail)
    S = combinatorial(M)
    hints = _term_witness_hints(M, p, q, kp, kq)
    w = _search_distinguishing(S, p, q, hints, budget)
    return _emit_eq(S, p, q, w, method, detail)


def term_eq_s1(M: StructureMatrix, p: Polynomial, q: Polynomial, *,
               find_witness: bool = True, budget: int | None = None) -> Verdict:
    """Decide p = q for terms over the semigroup of M with identity adjoined."""
    kp = term_profile(M, p, with_identity=True)
    kq = term_profile(M, q, with_identity=True)
    method = {"J1": "all-ones-sequencing",
              "TB1": "balanced-elimination-slices",
              "G1": "sequencing-antichains"}[kp[0]]
    detail = _profile_detail(kp, kq)
    if kp == kq:
        return Verdict("equal", method, None, detail)
    if not find_witness:
        return Verdict("not-equal", method, None, detail)
    S = combinatorial(M, with_identity=True)
    hints = _slice_witness_hints(M, p, q, kp, kq) if kp[0] == "TB1" else ()
    w = _search_distinguishing(S, p, q, hints, budget)
    return _emit_eq(S, p, q, w, method, detail)


# -- targeted witnesses ------------------------------------------------------

def _nonzero_cell(M):
    for lam in range(M.m):
        for i in range(M.n):
            if M.entry(lam, i):
                return lam, i
    raise IrregularMatrixError("no nonzero entry")


def _term_witness_hints(M, p, q, kp, kq):
    """Cheap candidate evaluations for a failed term-profile comparison."""
    prof = classify_matrix(M)
    hints = []
    union = sorted(set(p.variables) | set(q.variables))
    lam0, i0 = _nonzero_cell(M)
    base = pair(i0, lam0)

    vp, vq = set(p.variables), set(q.variables)
    for v in sorted(vp ^ vq):
        e = {u: base for u in union}
        e[v] = ZERO
        hints.append(e)

    if kp[0] == "J":
        if kp[2] != kq[2] and M.n >= 2:  # left symbols differ
            e = {u: pair(0, 0) for u in union}
            e[q.leftmost.name] = pair(1, 0)
            hints.append(e)
        if kp[3] != kq[3] and M.m >= 2:
            e = {u: pair(0, 0) for u in union}
            e[q.rightmost.name] = pair(0, 1)
            hints.append(e)

    if kp[0] == "G":
        cells = violating_submatrix(M)
        if cells:
            a, b, c, d = cells
            gp, gq = kp[1], kq[1]
            for (x, y) in sorted(gp.edges ^ gq.edges, key=repr):
                if x[0] == "v" and y[0] == "v":
                    e = {u: pair(c, a) for u in union}
                    e[x[1]] = pair(c, b)
                    e[y[1]] = pair(d, a)
                    hints.append(e)
            if kp[2] != kq[2]:  # left symbols
                e = {u: pair(c, a) for u in union}
                e[q.leftmost.name] = pair(d, a)
                hints.append(e)
            if kp[3] != kq[3]:
                e = {u: pair(c, a) for u in union}
                e[q.rightmost.name] = pair(c, b)
                hints.append(e)

    if kp[0] == "TB":
        hints.extend(_balanced_term_hints(M, prof, p, q, kp, kq, union))
    return hints


def _balanced_term_hints(M, prof, p, q, kp, kq, union):
    hints = []
    plan = prof.plan
    if kp[1] != kq[1] or plan.k < 2:
        return hints  # different variables: the zero hints separate them
    lift = lift_element_map(plan)
    names, lab_p, lab_q = kp[1], kp[2], kq[2]

    def from_values(value):
        """Assignment giving vertex v the class value(v)."""
        return {name: lift(triple(value(2 * j), 0, value(2 * j + 1)))
                for j, name in enumerate(names)}

    if lab_p != lab_q:
        # two vertices glued in one word's graph and apart in the other's:
        # class 1 on the second vertex's component and 0 elsewhere keeps
        # the second word nonzero and kills the first
        for glued, apart in ((lab_p, lab_q), (lab_q, lab_p)):
            pair_ = next(((a, b) for a in range(len(glued))
                          for b in range(a + 1, len(glued))
                          if glued[a] == glued[b] and apart[a] != apart[b]),
                         None)
            if pair_ is not None:
                mark = apart[pair_[1]]
                hints.append(from_values(
                    lambda v, apart=apart, mark=mark: int(apart[v] == mark)))
    else:
        # partitions agree; endpoint components or gated symbols differ
        for slot in (3, 4):
            if kp[slot] != kq[slot]:
                mark = kq[slot]
                hints.append(from_values(lambda v, mark=mark:
                                         int(lab_p[v] == mark)))
        if kp[5] is not None and kp[5] != kq[5] and prof.equal_rows:
            rows = {}
            for lam in range(M.m):
                rows.setdefault(M.row(lam), []).append(lam)
            alpha, beta = next(v[:2] for v in rows.values() if len(v) > 1)
            istar = next(i for i in range(M.n) if M.entry(alpha, i))
            e = {u: pair(istar, alpha) for u in union}
            e[q.rightmost.name] = pair(istar, beta)
            hints.append(e)
        if kp[6] is not None and kp[6] != kq[6] and prof.equal_cols:
            cols = {}
            for i in range(M.n):
                cols.setdefault(M.col(i), []).append(i)
            c, d = next(v[:2] for v in cols.values() if len(v) > 1)
            lstar = next(lam for lam in range(M.m) if M.entry(lam, c))
            e = {u: pair(c, lstar) for u in union}
            e[q.leftmost.name] = pair(d, lstar)
            hints.append(e)
    return hints


def _slice_witness_hints(M, p, q, kp, kq):
    """Hints for a failed TB1 comparison: the plain hints for the kept words
    of the first mismatching slice, with its eliminated variables set to the
    identity.  Words over different variables get the zero hints."""
    t = _first_mismatch(kp, kq)
    if t is None:
        return _term_witness_hints(M, p, q, kp, kq)
    W = _mask_names(kp[1], _slice_masks(len(kp[1]), False)[t])
    pw, qw = _eliminate_names(p, W), _eliminate_names(q, W)
    hints = _term_witness_hints(M, pw, qw, term_profile(M, pw),
                                term_profile(M, qw))
    for h in hints:
        h.update(dict.fromkeys(W, ONE))
    return hints


# ---------------------------------------------------------------------------
# Identically-zero

def _eliminate_names(p: Polynomial, names) -> Polynomial | None:
    """Drop every occurrence of the given variables; None for the empty word."""
    kept = tuple(s for s in p.word
                 if not (s.is_var and s.name in names))
    return Polynomial(kept) if kept else None


def pol_zero(M: StructureMatrix, p: Polynomial, *,
             adjoin_identity: bool = False, allow_brute: bool = True,
             budget: int | None = None, find_witness: bool = True) -> Verdict:
    """Is p identically zero over the combinatorial semigroup of M?

    With the identity adjoined, an identity-valued variable drops out of the
    word, so the question closes over every elimination slice; a word can be
    identically zero plain yet revivable through the identity.
    """
    prof = classify_matrix(M)
    S = combinatorial(M, adjoin_identity)
    validate_polynomial(S, p)

    if prof.totally_balanced:
        method = "balanced-consistency"
        names = tuple(sorted(p.variables))
        cw = CompiledWord(hat_transform(p, prof.plan), names)
        masks = _slice_masks(len(names)) if adjoin_identity else (0,)
        alive = next((W for W in masks if cw.labels(W) is not None), None)
        W = None if alive is None else _mask_names(names, alive)
        detail = (("plan size", prof.plan.k), ("surviving slice", W))
        if W is None:
            return Verdict("zero", method, None, detail)
        if not find_witness:
            return Verdict("not-zero", method, None, detail)
        # the witness slice alone goes through the explicit graph
        pw = _eliminate_names(p, W)
        w = dict.fromkeys(W, ONE)
        if pw is not None:
            w.update(_balanced_nonzero_witness(
                prof.plan, hat_transform(pw, prof.plan), pw.variables))
        return _emit_nonzero(S, p, w, method, detail)

    if prof.bordered:
        # a dead border evaluation pins the zero on an adjacent constant
        # pair, which no assignment (identity included) can separate
        e0 = _border_completion(M, p, {})
        v = evaluate(combinatorial(M), p, e0)
        detail = (("border evaluation", Evaluation.of(e0)),)
        if v == ZERO:
            return Verdict("zero", "border-evaluation", None, detail)
        if not find_witness:
            return Verdict("not-zero", "border-evaluation", None, detail)
        return _emit_nonzero(S, p, e0, "border-evaluation", detail)

    if not allow_brute:
        raise UnsupportedMatrixError(
            "matrix is neither totally balanced nor bordered; "
            "pass allow_brute to use the oracle")
    return brute_zero(S, p, budget=budget)


def _balanced_nonzero_witness(plan, ph, variables):
    """Locally constant assignment over the identity matrix, lifted back."""
    values = {}
    for comp in components(build_identified(ph)):
        idxs = {v[1] for v in comp if v[0] == "m"}
        x = idxs.pop() if idxs else 0
        for v in comp:
            values[v] = x
    lift = lift_element_map(plan)
    return {name: lift(triple(values[("v", name, 1)], 0,
                              values[("v", name, 2)]))
            for name in variables}


def _border_completion(M, p, vertex_values):
    """Extend a partial vertex assignment with border indices.

    The border row and column are all ones, so this completion keeps every
    constraint involving an unassigned vertex satisfied; it reaches a nonzero
    value whenever any extension does.
    """
    e = {}
    for name in p.variables:
        e[name] = pair(vertex_values.get(("v", name, 1), M.n - 1),
                       vertex_values.get(("v", name, 2), M.m - 1))
    return e


# ---------------------------------------------------------------------------
# Zero-set equality

def pol_zset_eq(M: StructureMatrix, p: Polynomial, q: Polynomial, *,
                adjoin_identity: bool = False, allow_brute: bool = True,
                budget: int | None = None, find_witness: bool = True) -> Verdict:
    """Do p and q vanish on exactly the same evaluations?"""
    prof = classify_matrix(M)
    S = combinatorial(M, adjoin_identity)
    validate_polynomial(S, p)
    validate_polynomial(S, q)
    union = tuple(dict.fromkeys(p.variables + q.variables))

    if prof.all_ones:
        same = set(p.variables) == set(q.variables)
        detail = (("variables", tuple(sorted(p.variables)),
                   tuple(sorted(q.variables)), same),)
        if same:
            return Verdict("equal", "all-ones-variables", None, detail)
        if not find_witness:
            return Verdict("not-equal", "all-ones-variables", None, detail)
        v = sorted(set(p.variables) ^ set(q.variables))[0]
        e = {u: pair(0, 0) for u in union}
        e[v] = ZERO
        return _emit_eq_zset(S, p, q, e, "all-ones-variables", detail)

    if prof.totally_balanced:
        return _zset_balanced(S, M, prof, p, q, union, find_witness, budget,
                              adjoin_identity)

    if prof.bordered and not adjoin_identity:
        return _zset_bordered(S, M, p, q, union, find_witness)

    if not allow_brute:
        raise UnsupportedMatrixError("no fast zero-set procedure for this "
                                     "matrix class")
    return brute_zset_eq(S, p, q, budget=budget)


def _emit_eq_zset(S, p, q, witness, method, detail):
    w = dict(witness)
    if (evaluate(S, p, w) == ZERO) == (evaluate(S, q, w) == ZERO):
        raise WitnessSearchError(f"bogus zero-set witness {witness}")
    return Verdict("not-equal", method, Evaluation.of(w), detail)


def zset_constraints(M: StructureMatrix, p: Polynomial | None):
    """Canonical description of where a word vanishes, over a balanced M.

    Two words have the same zero set exactly when these values agree:
    either both are identically zero, or they share the variable set and
    the same constraint system, namely which variable vertices each
    connected component glues together and which index (if any) it pins
    them to.  Components without variable vertices constrain nothing, and
    so do unpinned singletons; both are dropped.  None stands for the empty
    word (never zero, no variables).
    """
    if p is None:
        return ("system", frozenset(), frozenset())
    names = p.variables
    cw = CompiledWord(hat_transform(p, classify_matrix(M).plan), names)
    labels = cw.labels()
    if labels is None:
        return ("zero",)
    system = frozenset((vv, -1 - c if c < 0 else None)
                       for c, vv in _label_groups(names, labels).items()
                       if c < 0 or len(vv) > 1)
    return ("system", frozenset(names), system)


def _zset_balanced(S, M, prof, p, q, union, find_witness, budget,
                   with_identity):
    method = "balanced-constraint-systems"
    names = tuple(sorted(union))
    cws = [CompiledWord(hat_transform(word, prof.plan), names)
           for word in (p, q)]
    # labels over shared vertex numbers are the constraint systems: None
    # entries give the kept variables, the rest the components and pins
    masks = _slice_masks(len(names)) if with_identity else (0,)
    mismatch = next((W for W in masks
                     if cws[0].labels(W) != cws[1].labels(W)), None)
    if mismatch is None:
        return Verdict("equal", method, None,
                       (("constraint systems", "agree on every slice"),))
    W = _mask_names(names, mismatch)
    pw, qw = _eliminate_names(p, W), _eliminate_names(q, W)
    cp, cq = zset_constraints(M, pw), zset_constraints(M, qw)
    detail = (("identity slice", W), ("constraints", cp, cq, False))
    if not find_witness:
        return Verdict("not-equal", method, None, detail)

    hint = _zset_balanced_hint(prof, pw, qw, union, W, cp, cq)
    if hint is not None:
        w = dict(hint)
        if (evaluate(S, p, w) == ZERO) != (evaluate(S, q, w) == ZERO):
            return _emit_eq_zset(S, p, q, w, method, detail)
    # pw and qw differ in zero set over the plain semigroup, and with W set
    # to the identity a witness for them is one for p and q.  Neither is
    # empty: a word made only of W's variables would make an earlier slice,
    # the empty one, mismatch first.
    w = _first(combinatorial(M), (pw, qw), _zero_differs, budget)
    if w is None:
        raise WitnessSearchError("zero sets agree under exhaustion; "
                                 "the fast path is wrong")
    w.update(dict.fromkeys(W, ONE))
    return _emit_eq_zset(S, p, q, w, method, detail)


def _zset_balanced_hint(prof, pw, qw, union, W, cp, cq):
    """Candidate separating evaluation for a failed slice comparison of the
    slice words pw and qw (None for an empty word), with W set to ONE."""
    kill = None
    if cp == ("zero",) and qw is not None:
        nz_word = qw
    elif cq == ("zero",) and pw is not None:
        nz_word = pw
    elif cp[0] == "system" and cq[0] == "system" and cp[1] != cq[1]:
        kill = sorted(cp[1] ^ cq[1])[0]
        nz_word = qw if kill in cp[1] else pw
    else:
        return None
    hint = _balanced_nonzero_witness(
        prof.plan, hat_transform(nz_word, prof.plan), nz_word.variables)
    base = lift_element_map(prof.plan)(triple(0, 0, 0))
    for u in union:
        hint.setdefault(u, base)
    hint.update(dict.fromkeys(W, ONE))
    if kill is not None:
        hint[kill] = ZERO
    return hint


# -- bordered matrices -------------------------------------------------------

def p_matchable(M: StructureMatrix, p: Polynomial, a, b) -> bool:
    """Can a zero land on the non-edge (a, b) while p stays nonzero?

    a is an X-side vertex, b a Y-side vertex of the bipartite graph of p
    (or constant vertices of a companion word).  Only sensible over bordered
    matrices, where the border completion decides extendability.
    """
    return _matchable_witness(M, p, a, b) is not None


def _matchable_witness(M, p, a, b):
    bp = build_bipartite(p)
    if (a, b) in bp.edges:
        raise ReesError(f"({a}, {b}) is an edge of the bipartite graph")
    avals = [a[1]] if a[0] == "c" else range(M.n)
    bvals = [b[1]] if b[0] == "c" else range(M.m)
    S = combinatorial(M)
    for av in avals:
        for bv in bvals:
            if M.entry(bv, av) != 0:
                continue
            assign = {}
            if a in bp.vertices:
                assign[a] = av
            if b in bp.vertices:
                assign[b] = bv
            e = _border_completion(M, p, assign)
            if evaluate(S, p, e) != ZERO:
                return e
    return None


def _zset_bordered(S, M, p, q, union, find_witness):
    method = "border-matchability"
    e0p = _border_completion(M, p, {})
    e0q = _border_completion(M, q, {})
    p_zero = evaluate(S, p, e0p) == ZERO
    q_zero = evaluate(S, q, e0q) == ZERO
    if p_zero and q_zero:
        return Verdict("equal", method,
                       None, (("both identically zero", True),))
    if p_zero != q_zero:
        detail = (("identically zero", p_zero, q_zero, False),)
        if not find_witness:
            return Verdict("not-equal", method, None, detail)
        e = dict(e0q if p_zero else e0p)
        for u in union:
            e.setdefault(u, pair(M.n - 1, M.m - 1))
        return _emit_eq_zset(S, p, q, e, method, detail)
    if set(p.variables) != set(q.variables):
        detail = (("variables", tuple(sorted(p.variables)),
                   tuple(sorted(q.variables)), False),)
        if not find_witness:
            return Verdict("not-equal", method, None, detail)
        v = sorted(set(p.variables) ^ set(q.variables))[0]
        e = dict(e0q if v in p.variables else e0p)
        for u in union:
            e.setdefault(u, pair(M.n - 1, M.m - 1))
        e[v] = ZERO
        return _emit_eq_zset(S, p, q, e, method, detail)

    for src, dst in ((p, q), (q, p)):
        # a violation of Z(dst) <= Z(src)
        bsrc = build_bipartite(src)
        for (a, b) in sorted(build_bipartite(dst).edges, key=repr):
            if (a, b) in bsrc.edges:
                continue
            w = _matchable_witness(M, src, a, b)
            if w is not None:
                detail = (("matchable pair", a, b, False),)
                if not find_witness:
                    return Verdict("not-equal", method, None, detail)
                for u in union:
                    w.setdefault(u, pair(M.n - 1, M.m - 1))
                return _emit_eq_zset(S, p, q, w, method, detail)
    return Verdict("equal", method, None,
                   (("matchability", "no violating pair either way"),))


# ---------------------------------------------------------------------------
# Polynomial equivalence and satisfiability

def _endpoint_symbols(p, q):
    out = []
    for s in (p.leftmost, q.leftmost, p.rightmost, q.rightmost):
        if s not in out:
            out.append(s)
    return out


def pol_eq(M: StructureMatrix, p: Polynomial, q: Polynomial, *,
           adjoin_identity: bool = False, allow_brute: bool = True,
           budget: int | None = None, find_witness: bool = True) -> Verdict:
    """Decide p = q as functions, for totally balanced or bordered matrices.

    Zero-set equality plus an endpoint scan: every assignment of the (at
    most four) end symbols to nonzero elements that mismatches the product
    coordinates must kill both words identically.
    """
    prof = classify_matrix(M)
    S = combinatorial(M, adjoin_identity)
    validate_polynomial(S, p)
    validate_polynomial(S, q)
    if adjoin_identity or not (prof.totally_balanced or prof.bordered):
        if not allow_brute:
            raise UnsupportedMatrixError("no fast equivalence procedure for "
                                         "this matrix class")
        return brute_eq(S, p, q, budget=budget)

    method = "zset-plus-endpoints"
    z = pol_zset_eq(M, p, q, allow_brute=False, find_witness=find_witness)
    if z.kind != "equal":
        return Verdict("not-equal", method, z.witness,
                       (("zero-sets equal", False),) + z.detail)

    ends = _endpoint_symbols(p, q)
    endvars = [s.name for s in ends if s.is_var]
    nonzero = [pair(i, lam) for i in range(M.n) for lam in range(M.m)]
    sides = [(side, _pin_test(M, prof, side)) for side in (p, q)]
    for combo in itertools.product(nonzero, repeat=len(endvars)):
        f = dict(zip(endvars, combo))

        def val(sym):
            return f[sym.name] if sym.is_var else sym.elem

        if (val(p.leftmost).i == val(q.leftmost).i
                and val(p.rightmost).lam == val(q.rightmost).lam):
            continue
        for side, alive in sides:
            if not alive(f):
                continue
            detail = (("zero-sets equal", True),
                      ("endpoint assignment", Evaluation.of(f)),
                      ("mismatched coordinates survive", str(side)))
            if not find_witness:
                return Verdict("not-equal", method, None, detail)
            w = dict(f)
            w.update(_pinned_witness(M, side, f))
            for u in p.variables + q.variables:
                w.setdefault(u, nonzero[0])
            return _emit_eq(S, p, q, w, method, detail)
    return Verdict("equal", method, None, (("zero-sets equal", True),
                                           ("endpoint scan", "clean")))


def _pin_test(M, prof, p):
    """Predicate on assignments f of some of p's variables to nonzero
    elements: is p, with f substituted, not identically zero?

    Only for the plain semigroup of a balanced or bordered M.  Substituting
    a variable pins its two vertices and leaves every edge in place, so p's
    graph is built once and each f is a check of pins.
    """
    if prof.totally_balanced:
        plan = prof.plan
        names = p.variables
        labels = CompiledWord(hat_transform(p, plan), names).labels()
        if labels is None:
            return lambda f: False
        index = {u: j for j, u in enumerate(names)}

        def alive(f):
            pins: dict = {}
            for u, e in f.items():
                j = index.get(u)
                if j is None:
                    continue
                for v, c in ((2 * j, plan.col_class[e.i]),
                             (2 * j + 1, plan.row_class[e.lam])):
                    lab = labels[v]
                    if lab < 0:
                        if -1 - lab != c:
                            return False
                    elif pins.setdefault(lab, c) != c:
                        return False
            return True
        return alive

    # bordered: an unpinned variable takes border indices, whose row and
    # column are all ones, so only a pair of constant or pinned symbols
    # can meet a zero entry
    pairs = tuple(zip(p.word, p.word[1:]))

    def alive(f):
        for s, t in pairs:
            a = f.get(s.name) if s.is_var else s.elem
            b = f.get(t.name) if t.is_var else t.elem
            if a is not None and b is not None and not M.entry(a.lam, b.i):
                return False
        return True
    return alive


def _pinned_witness(M, p, f) -> dict:
    """Witness for the rest of p once a pin test accepted f."""
    v = pol_zero(M, substitute_elements(p, f), allow_brute=False)
    if v.kind == "zero":
        raise WitnessSearchError(f"pin test accepted {Evaluation.of(f)} "
                                 f"but {p} is zero under it")
    return v.witness.as_dict()


def pol_sat(M: StructureMatrix, p: Polynomial, b: Element, *,
            adjoin_identity: bool = False, allow_brute: bool = True,
            budget: int | None = None) -> Verdict:
    """Does p = b have a solution?

    Nonzero targets reduce to identically-zero tests over the endpoint
    symbols pinned to the target coordinates.
    """
    S = combinatorial(M, adjoin_identity)
    validate_polynomial(S, p)
    S.check_element(b)

    if b == ZERO:
        if p.variables:
            w = {v: ZERO for v in p.variables}
            return _emit_sat(S, p, b, w, "zero-target")
        if evaluate(S, p, {}) == ZERO:
            return _emit_sat(S, p, b, {}, "zero-target")
        return Verdict("unsat", "zero-target")
    if b == ONE:
        if p.is_term:
            return _emit_sat(S, p, b, {v: ONE for v in p.variables},
                             "identity-target")
        return Verdict("unsat", "identity-target")

    prof = classify_matrix(M)
    if adjoin_identity or not (prof.totally_balanced or prof.bordered):
        if not allow_brute:
            raise UnsupportedMatrixError("no fast satisfiability procedure "
                                         "for this matrix class")
        return brute_sat(S, p, b, budget=budget)

    method = "endpoint-zero-tests"
    left, right = p.leftmost, p.rightmost
    alive = _pin_test(M, prof, p)
    for alpha in range(M.m):
        for r in range(M.n):
            f = {}
            if left.is_var:
                f[left.name] = pair(b.i, alpha)
            elif left.elem.i != b.i:
                continue
            if right.is_var:
                prev = f.get(right.name)
                cand = pair(r, b.lam)
                if prev is not None and prev != cand:
                    continue
                f[right.name] = cand
            elif right.elem.lam != b.lam:
                continue
            if not alive(f):
                continue
            w = dict(f)
            w.update(_pinned_witness(M, p, f))
            return _emit_sat(S, p, b, w, method,
                             (("pinned endpoints", Evaluation.of(f)),))
    return Verdict("unsat", method)


# ---------------------------------------------------------------------------
# Group lift

def brute_group_eq(G: FiniteGroup, p: Polynomial, q: Polynomial, *,
                   budget: int | None = None):
    """Counterexample assignment for the group reading of two terms, or None."""
    union = tuple(dict.fromkeys(p.variables + q.variables))
    budget = budget or default_budget()
    if G.order ** len(union) > budget:
        raise BudgetExceededError(f"{G.order}^{len(union)} group assignments "
                                  f"exceed budget {budget}")

    def run(word, e):
        acc = G.identity
        for s in word:
            acc = G.mul(acc, e[s.name])
        return acc

    for combo in itertools.product(range(G.order), repeat=len(union)):
        e = dict(zip(union, combo))
        if run(p.word, e) != run(q.word, e):
            return e
    return None


def term_eq_group(M: StructureMatrix, G: FiniteGroup, p: Polynomial,
                  q: Polynomial, group_oracle=None, *,
                  find_witness: bool = True, budget: int | None = None) -> Verdict:
    """Term equivalence over M(G, M) for a 0-1 matrix M.

    Splits into the combinatorial shadow and the group reading of the words;
    the group side is decided by a pluggable oracle (exhaustive by default).
    """
    if not M.is_zero_one:
        raise UnsupportedMatrixError("the group lift expects a 0-1 matrix")
    if not (p.is_term and q.is_term):
        raise ReesError("term procedures expect constant-free words")
    group_oracle = group_oracle or brute_group_eq
    shadow = term_eq(M, p, q, find_witness=False)
    gw = group_oracle(G, p, q)
    method = "shadow-plus-group"
    detail = (("shadow equal", shadow.kind == "equal"),
              ("group equal", gw is None))
    if shadow.kind == "equal" and gw is None:
        return Verdict("equal", method, None, detail)

    entries = tuple(tuple(G.identity + 1 if v else 0 for v in row)
                    for row in M.entries)
    S = ReesSemigroup(StructureMatrix(entries), G)
    if not find_witness:
        return Verdict("not-equal", method, None, detail)
    hints = []
    if gw is not None:
        lam0, i0 = _nonzero_cell(M)
        union = tuple(dict.fromkeys(p.variables + q.variables))
        hints.append({v: triple(i0, gw.get(v, G.identity), lam0)
                      for v in union})
    w = _search_distinguishing(S, p, q, hints, budget)
    return _emit_eq(S, p, q, w, method, detail)


# ---------------------------------------------------------------------------
# Exhaustive oracles
#
# These enumerate evaluations into the semigroup (zero included, the identity
# too when adjoined) through a precomputed multiplication table, and never
# consult the fast paths.  Every first-match question goes through _first;
# full value tables have their own loop in value_vector.

@dataclass(frozen=True)
class ZSet:
    variables: tuple[str, ...]
    zeros: frozenset


@lru_cache(maxsize=64)
def _tables(S: ReesSemigroup):
    els = tuple(S.elements())
    index = {e: k for k, e in enumerate(els)}
    mul = tuple(tuple(index[S.multiply(a, b)] for b in els) for a in els)
    return els, index, mul


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


def _space(S, nvars, budget):
    budget = budget if budget is not None else default_budget()
    if budget <= 0:
        raise BudgetExceededError(f"budget must be positive, got {budget}")
    size = S.size ** nvars
    if size > budget:
        raise BudgetExceededError(f"{S.size}^{nvars} = {size} evaluations "
                                  f"exceed budget {budget}")


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
    space exceeds budget.
    """
    names = tuple(dict.fromkeys(v for p in words for v in p.variables))
    _space(S, len(names), budget)
    els, index, mul = _tables(S)
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
    w = _first(S, (p, q), operator.ne, budget)
    if w is None:
        return Verdict("equal", "brute-force")
    return _emit_eq(S, p, q, w, "brute-force")


def brute_zero(S: ReesSemigroup, p: Polynomial, *,
               budget: int | None = None) -> Verdict:
    w = _first(S, (p,), bool, budget)
    if w is None:
        return Verdict("zero", "brute-force")
    return _emit_nonzero(S, p, w, "brute-force")


def brute_sat(S: ReesSemigroup, p: Polynomial, b: Element, *,
              budget: int | None = None) -> Verdict:
    S.check_element(b)
    w = _first(S, (p,), partial(operator.eq, _tables(S)[1][b]), budget)
    if w is None:
        return Verdict("unsat", "brute-force")
    return _emit_sat(S, p, b, w, "brute-force")


def brute_zset(S: ReesSemigroup, p: Polynomial, *, var_order=None,
               budget: int | None = None) -> ZSet:
    union = tuple(var_order) if var_order is not None else p.variables
    values = value_vector(S, p, union, budget=budget)
    combos = itertools.product(_tables(S)[0], repeat=len(union))
    return ZSet(union, frozenset(c for c, v in zip(combos, values) if v == 0))


def brute_zset_eq(S: ReesSemigroup, p: Polynomial, q: Polynomial, *,
                  budget: int | None = None) -> Verdict:
    w = _first(S, (p, q), _zero_differs, budget)
    if w is None:
        return Verdict("equal", "brute-force")
    return _emit_eq_zset(S, p, q, w, "brute-force", ())


def value_vector(S: ReesSemigroup, p: Polynomial, var_order, *,
                 budget: int | None = None) -> tuple:
    """The full value table of p over assignments to var_order, as indices.

    Oracle-side helper: two words agree as functions exactly when their
    vectors over a shared variable order are equal.
    """
    if set(p.variables) - set(var_order):
        raise ReesError("var_order must cover the variables of p")
    _space(S, len(var_order), budget)
    els, index, mul = _tables(S)
    varpos = {v: k for k, v in enumerate(var_order)}
    wp = _compiled(p.word, varpos, index)
    return tuple(_fold(wp, combo, mul)
                 for combo in itertools.product(range(len(els)),
                                                repeat=len(var_order)))


# ---------------------------------------------------------------------------
# Witness search

def _search_distinguishing(S, p, q, hints, budget):
    for h in hints:
        try:
            if evaluate(S, p, h) != evaluate(S, q, h):
                return h
        except (InvalidElementError, KeyError):
            continue
    w = _first(S, (p, q), operator.ne, budget)
    if w is None:
        raise WitnessSearchError("no distinguishing evaluation exists; "
                                 "the fast path disagrees with exhaustion")
    return w
