"""Decision procedures for equivalence problems over Rees matrix semigroups.

Over the plain semigroup of a 0-1 matrix M, p is nonzero exactly when its
bipartite graph, constants pinned, maps into the support pattern of M.  One
homomorphism search (arc consistency plus depth-first search) answers that
question as a list homomorphism: a symbol's column or row may be kept to a
mask of indices, its list.  A verdict compiles each word it searches once,
into a constraint network (variable index, arcs, and domains narrowed by
the constants and closed under arc consistency); each run applies its masks
on a trail, propagates from the masked vertices alone and undoes them
before it returns, so all of the verdict's runs share the network.  The
search covers each connected component of the undecided vertices, and
branches on the smallest domain, ties to the most neighbours and then to
discovery order.  On a component of three or more vertices that order is
kept in a heap of integer keys that changes only when a domain does, so a
search that needs about one node per vertex is near-linear; a component of
one or two vertices is settled directly, with the values and the nodes
the heap search would take.  All runs of one verdict spend one budget of
search nodes.  The plain questions reduce to the search:

* pol-zero on a matrix neither totally balanced nor bordered is one
  search with no masks;
* pol-sat masks the leftmost column and the rightmost row to the target's;
* zset-eq, on bordered and general matrices, searches for a nonzero
  evaluation of one word that puts an adjacent pair of the other on a
  zero entry of M, one search per row with a zero; words with the same
  variables and the same set of adjacent symbol pairs have the same
  network, so p's zero check alone settles them, and q's is not built;
* pol-eq checks the zero sets, then runs one search per index x, with p's
  leftmost symbol on column x and q's on any other column (likewise rows
  at the right ends);
* term-eq decides from term profiles and takes the plain pol-eq
  procedure's witness; on the totally balanced class it is read off the
  labels the profiles compared (a zero-set witness when they differ, else
  the end searches), with no second comparison.

The exceptions are the paper's polynomial certificates: pol-zero on totally
balanced matrices (the hat transform relabels words onto an identity
matrix, where zero-ness is consistency of graph components) and on
bordered ones (the border evaluation), and zset-eq on all-ones and totally
balanced matrices (variable sets and constraint systems).

With the identity adjoined, an assignment sets some variables to ONE,
dropping them from the word, so each question splits over these
elimination slices: p = q when on every slice the slice words are equal
over the plain semigroup or both empty; the zero sets agree when they
agree on every slice; p is zero when every slice is; p = b is solvable
when some slice solves it.  pol-zero keeps its certificates, over every
slice on the balanced class.  There zset-eq, term-eq and pol-eq compare
one key per slice: zset-eq the labels, the constraint system; term-eq and
pol-eq one key, plain pol-eq's (_eq_key), through one comparison
(_eq_mismatch) of the hat-transformed words.  Each compares first the
words' records (graphs.CompiledWord.records, what one scan meets), which
settle every slice when equal, then slice 0, then, only if the records
differ and slice 0 agrees, their families (the records' minimal masks),
which settle every slice alike; only words whose families differ too walk
the keys, up to the first slice that differs.
Elsewhere term-eq decides from term profiles, and every other question
walks the slices with the plain procedure (_walk) up to the first that
decides, after pol-sat and pol-zero have tried to refute every slice at
once from the constants.  A witness is the plain witness of the deciding
slice with its eliminated variables set to ONE; balanced term-eq reads it
off the labels of that slice, which the comparison holds already.

allow_brute (--brute in the CLI) admits what has no polynomial bound:
homomorphism search on general matrices (neither totally balanced nor
bordered), over each elimination slice with the identity adjoined; _gate
refuses those calls without it.  term-eq needs no allow_brute.  The
exhaustive oracles that certify these procedures live in reeseq.oracles,
which this module never imports.

Procedures find and questions emit: a procedure returns a witness (or
None) and detail rows, and only the public questions turn that finding
into a Verdict, through the four _emit_* functions, which the oracles
share.  Every verdict carries a method tag, and negative (positive, for
satisfiability) verdicts carry a witness evaluation, re-checked once, by
the question's emitter through words.evaluate, over the semigroup the
question is about.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from heapq import heapify, heappop, heappush

from .core import (Element, ONE, ReesSemigroup, StructureMatrix, ZERO,
                   combinatorial, element_str, is_regular, pair, triple)
from .errors import (BudgetExceededError, IrregularMatrixError, ReesError,
                     UnsupportedMatrixError, WitnessSearchError)
from .frozen import Frozen, slot_setters
from .graphs import (CompiledWord, antichain_table, build_identified,
                     components)
from .groups import FiniteGroup
from .matrices import (hat_transform, is_all_ones, is_bordered,
                       lift_element_map, retract)
from .words import (Evaluation, Polynomial, eliminate_variables, evaluate,
                    left_sequencing, right_sequencing, validate_polynomial)


# ---------------------------------------------------------------------------
# Verdicts

class Verdict(Frozen):
    # kind: equal | not-equal | zero | not-zero | sat | unsat
    __slots__ = ("kind", "method", "witness", "detail")

    def __init__(self, kind: str, method: str,
                 witness: Evaluation | None = None, detail: tuple = ()):
        _set_kind(self, kind)
        _set_method(self, method)
        _set_witness(self, witness)
        _set_detail(self, detail)

    def __eq__(self, other):
        if type(other) is not Verdict:
            return NotImplemented
        return ((self.kind, self.method, self.witness, self.detail)
                == (other.kind, other.method, other.witness, other.detail))

    def __hash__(self):
        return hash((self.kind, self.method, self.witness, self.detail))

    @property
    def positive(self) -> bool:
        return self.kind in ("equal", "zero", "sat")

    def __str__(self):
        out = f"{self.kind} [{self.method}]"
        if self.witness is not None:
            out += f" witness: {self.witness}"
        return out


_set_kind, _set_method, _set_witness, _set_detail = slot_setters(Verdict)

# The four emitters turn a question's finding, a witness (a name -> element
# dict) or None, into its verdict: the positive kind for None, else the
# negative one (sat for pol-sat) once the witness is checked over S, the
# semigroup of the question.

def _emit_eq(S, p, q, w, method, detail=()):
    if w is None:
        return Verdict("equal", method, None, detail)
    if evaluate(S, p, w) == evaluate(S, q, w):
        raise WitnessSearchError(f"bogus inequality witness {w} "
                                 f"for {p} vs {q}")
    return Verdict("not-equal", method, Evaluation.of(w), detail)


def _emit_nonzero(S, p, w, method, detail=()):
    if w is None:
        return Verdict("zero", method, None, detail)
    if evaluate(S, p, w) == ZERO:
        raise WitnessSearchError(f"bogus nonzero witness {w} for {p}")
    return Verdict("not-zero", method, Evaluation.of(w), detail)


def _emit_sat(S, p, b, w, method, detail=()):
    if w is None:
        return Verdict("unsat", method, None, detail)
    if evaluate(S, p, w) != b:
        raise WitnessSearchError(f"bogus solution {w} for {p} = "
                                 f"{element_str(b)}")
    return Verdict("sat", method, Evaluation.of(w), detail)


def _emit_eq_zset(S, p, q, w, method, detail=()):
    if w is None:
        return Verdict("equal", method, None, detail)
    if (evaluate(S, p, w) == ZERO) == (evaluate(S, q, w) == ZERO):
        raise WitnessSearchError(f"bogus zero-set witness {w}")
    return Verdict("not-equal", method, Evaluation.of(w), detail)


# ---------------------------------------------------------------------------
# Matrix classification

class MatrixProfile(Frozen):
    # support[side][k]: the indices of the other side that index k of a
    # column (side 0) or row (side 1) allows, as a bitmask
    __slots__ = ("all_ones", "totally_balanced", "bordered", "plan",
                 "equal_rows", "equal_cols", "support")

    def __init__(self, all_ones: bool, totally_balanced: bool,
                 bordered: bool, plan, equal_rows: bool, equal_cols: bool,
                 support: tuple):
        object.__setattr__(self, "all_ones", all_ones)
        object.__setattr__(self, "totally_balanced", totally_balanced)
        object.__setattr__(self, "bordered", bordered)
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "equal_rows", equal_rows)
        object.__setattr__(self, "equal_cols", equal_cols)
        object.__setattr__(self, "support", support)


@lru_cache(maxsize=256)
def classify_matrix(M: StructureMatrix) -> MatrixProfile:
    # a plan exists exactly when M is totally balanced, and the residual
    # keeps one line of each kind; retract validates M, and only when it
    # refuses is its refusal told apart here
    try:
        plan, residual = retract(M)
    except ReesError:
        if not M.is_zero_one:
            raise UnsupportedMatrixError(
                "fast procedures expect a 0-1 matrix") from None
        if not is_regular(M):
            raise IrregularMatrixError(
                "structure matrix must be regular") from None
        raise
    support = (tuple(sum(1 << lam for lam in range(M.m) if M.entry(lam, i))
                     for i in range(M.n)),
               tuple(sum(1 << i for i in range(M.n) if M.entry(lam, i))
                     for lam in range(M.m)))
    return MatrixProfile(is_all_ones(M), plan is not None, is_bordered(M),
                         plan, residual.m < M.m, residual.n < M.n, support)


# ---------------------------------------------------------------------------
# What allow_brute gates

def _gate(question, prof, S, allow_brute) -> None:
    """Refuse question on a general matrix (neither totally balanced nor
    bordered) unless allow_brute admits homomorphism search there, over
    each elimination slice when S has the identity adjoined."""
    if prof.totally_balanced or prof.bordered or allow_brute:
        return
    runs = " on each elimination slice" if S.has_identity else ""
    raise UnsupportedMatrixError(
        f"{question}: no polynomial procedure for general matrices (neither "
        f"totally balanced nor bordered); allow_brute (--brute) runs "
        f"homomorphism search{runs}")


# ---------------------------------------------------------------------------
# Term equivalence

_PROFILE_FIELDS = {
    "J": ("variables", "left symbol", "right symbol"),
    "TB": ("variables", "graph components", "left-endpoint component",
           "right-endpoint component", "right symbol (equal rows)",
           "left symbol (equal columns)"),
    "G": ("adjacency arcs", "left symbol", "right symbol"),
    "J1": ("variables", "left sequencing", "right sequencing"),
    "G1": ("left sequencing", "right sequencing", "antichain families"),
}


def term_profile(M: StructureMatrix, p: Polynomial,
                 with_identity: bool = False) -> tuple:
    """Hashable tuple of the conditions term equivalence compares.

    Two terms are equal over the semigroup exactly when their profiles are;
    the leading tag names the matrix class that was dispatched on.
    """
    _require_term(p)
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
        key = partial(_eq_key, prof, {cw: p}, cw)
        if not with_identity:
            return ("TB", names) + key(0)
        # An identity-valued variable drops out of the word, so equality
        # over the extended semigroup is equality of every elimination
        # slice over the plain one.  (Component sequencings alone miss
        # this: x x y x and x x y y contract to y and y y.)
        return ("TB1", names, tuple(map(key, _slice_masks(len(names)))))
    if not with_identity:
        # the arcs and the two end symbols fix the variables too
        arcs = frozenset((s.name, t.name) for s, t in zip(p.word, p.word[1:]))
        return ("G", arcs, p.leftmost.name, p.rightmost.name)
    return ("G1", left_sequencing(p), right_sequencing(p), antichain_table(p))


def _require_term(p: Polynomial) -> None:
    if not p.is_term:
        raise ReesError("term procedures expect constant-free words")


def _slice_masks(n: int):
    """Masks of eliminated variables in size-then-lexicographic order, made
    one at a time as they are read; bit j stands for the j-th name."""
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            yield sum(1 << j for j in combo)


def _mask_names(names, mask: int) -> tuple[str, ...]:
    # a list first, as in words.eliminate_variables
    return tuple([u for j, u in enumerate(names) if mask >> j & 1])


def _vertex(names, v: int) -> tuple:
    """The ("v", name, side) vertex of a CompiledWord vertex number."""
    return ("v", names[v >> 1], 1 + (v & 1))


def _label_groups(names, labels) -> dict:
    """CompiledWord labels rendered as sets of ("v", name, side) vertices."""
    groups: dict = {}
    for v, c in enumerate(labels):
        if c is not None:
            groups.setdefault(c, set()).add(_vertex(names, v))
    return {c: frozenset(vs) for c, vs in groups.items()}


def _readable_slice(names, key) -> tuple:
    """A term's _eq_key with its labels rendered as vertex sets and its end
    symbols in _PROFILE_FIELDS["TB"] order: rows, then columns."""
    comps = _label_groups(names, key[0])
    return (frozenset(comps.values()), comps[key[1]], comps[key[2]], key[4],
            key[3])


def _profile_detail(kp, kq):
    out = [("matrix class", kp[0], kq[0], kp[0] == kq[0])]
    if kp[0] == "TB":
        kp = kp[:2] + _readable_slice(kp[1], kp[2:])
        kq = kq[:2] + _readable_slice(kq[1], kq[2:])
    for name, a, b in zip(_PROFILE_FIELDS[kp[0]], kp[1:], kq[1:]):
        out.append((name, a, b, a == b))
    return tuple(out)


def _differing(a, b) -> int:
    """Index of the first position at which two sequences differ."""
    return next(t for t, (u, v) in enumerate(zip(a, b)) if u != v)


def _witness_slice(kp, kq) -> tuple[str, ...]:
    """Variables to set to the identity so that the plain profiles of the
    two slice words differ, read off two differing J1 or G1 profiles.

    Words over different variables differ whole.  Sequencings that first
    differ at position t lose the t variables before it, after which the
    leftmost (or rightmost) variables differ.  Otherwise (G1) the antichain
    families of some ordered pair x y differ, and a smallest set A in their
    symmetric difference goes: x y is then a factor of the slice word whose
    family has A, and of the other word's only if that family had a member
    inside A, which would be smaller than A or make A no antichain member.
    """
    if set(kp[1]) != set(kq[1]):  # each profile's variables, in some order
        return ()
    seqs = (kp[2:], kq[2:]) if kp[0] == "J1" else (kp[1:3], kq[1:3])
    for a, b in zip(*seqs):
        if a != b:
            return a[:_differing(a, b)]
    fp, fq = next((a, b) for (_, a), (_, b) in zip(kp[3], kq[3]) if a != b)
    return tuple(sorted(min(fp ^ fq, key=lambda A: (len(A), sorted(A)))))


def _slice_mismatch(key, cwp, cwq, certify: bool = True):
    """The first elimination slice on which two compiled words over the same
    names differ, as (mask, key of p, key of q), or None when every slice
    agrees; key(cw, mask) reads one slice: the labels for zset-eq, _eq_key
    for term-eq and pol-eq (_eq_mismatch).

    Words over the same variables agree on every slice, slice 0 included,
    when their records (CompiledWord.records) are equal, unless certify is
    false; so the records go first, then slice 0, then the families, the
    records' minimal masks, which settle every slice alike; only otherwise
    are the other slices walked, in _slice_masks order, up to the first
    that differs.
    """
    certify = certify and cwp.varmask == cwq.varmask
    if certify and cwp.records() == cwq.records():
        return None
    a, b = key(cwp, 0), key(cwq, 0)
    if a != b:
        return 0, a, b
    if certify and cwp.families() == cwq.families():
        return None
    masks = _slice_masks(len(cwp.names))
    for mask in itertools.islice(masks, 1, None):  # past slice 0
        a, b = key(cwp, mask), key(cwq, mask)
        if a != b:
            return mask, a, b
    return None


def _walk(words, nodes, settle):
    """A question over the semigroup with the identity adjoined that splits
    over the elimination slices of words, as the finding (witness, method,
    detail rows) of the first slice, in _slice_masks order, that settle
    decides; the witness is None when settle decides none.

    settle(*slice words), an empty one read as None, gives a plain witness
    over the slice words' variables, or None, and detail rows.  Each slice
    visited spends one node of the verdict's budget.
    """
    names = tuple(sorted(set().union(*(w.variables for w in words))))
    for mask in _slice_masks(len(names)):
        nodes.spend()
        W = _mask_names(names, mask)
        hit = settle(*[eliminate_variables(w, W) for w in words])
        if hit[0] is not None:
            return _on_slice(W, hit, "elimination-slices")
    return None, "elimination-slices", (("elimination slices",
                                         2 ** len(names)),)


def _on_slice(W, hit, method):
    """The finding (witness, method, detail rows) over the semigroup with
    the identity adjoined of hit, a plain witness and detail rows on the
    slice that eliminates W: W's variables set to ONE, the slice named
    first."""
    w, detail = hit
    w.update(dict.fromkeys(W, ONE))
    return w, method, (("identity slice", W),) + detail


def _dead_pair(M, p) -> bool:
    """Do two adjacent constants of p meet a zero entry of M?  Constants
    are never eliminated, so then every slice of p is zero."""
    return any(not (s.is_var or t.is_var) and not M.entry(s.elem.lam, t.elem.i)
               for s, t in zip(p.word, p.word[1:]))


def _balanced_s1(M, prof, p, q):
    """term-eq with the identity adjoined on the balanced class, for two
    terms: a witness or None, and TB1 detail rows, the number of slices
    compared, else the first mismatching slice with its two plain-slice
    profiles.  The witness is read off that slice's labels."""
    rows = [("matrix class", "TB1", "TB1", True)]
    names, other = (tuple(sorted(word.variables)) for word in (p, q))
    if names != other:
        rows.append(("variables", names, other, False))
        # terms are never zero, and terms over different variables are
        # told apart without their labels
        return _profile_witness(M, p, q, (), ((), ())), tuple(rows)
    hit = _eq_mismatch(prof, names, p, q)
    if hit is None:
        rows.append(("identity-elimination slices compared",
                     2 ** len(names) - 1))
        return None, tuple(rows)
    mask, a, b = hit
    W = _mask_names(names, mask)
    rows.append(("first mismatching slice, eliminated", W))
    fields = _PROFILE_FIELDS["TB"][1:]
    rows += [(name, x, y, x == y) for name, x, y in
             zip(fields, _readable_slice(names, a), _readable_slice(names, b))]
    return _profile_witness(M, p, q, W, (a[0], b[0])), tuple(rows)


def term_eq(M: StructureMatrix, p: Polynomial, q: Polynomial) -> Verdict:
    """Decide p = q for terms over the combinatorial semigroup of M.

    The verdict comes from the term profiles; a witness from the plain
    pol-eq procedure, which decides every 0-1 matrix by pinned homomorphism
    searches at the default budget, so no decided verdict is lost to an
    evaluation budget.  On the balanced class that witness is read off the
    labels the profiles hold.
    """
    kp = term_profile(M, p)
    kq = term_profile(M, q)
    method = {"J": "all-ones-endpoints", "TB": "balanced-components",
              "G": "adjacency-endpoints"}[kp[0]]
    w = None if kp == kq else _term_witness(M, p, q, kp, kq)
    return _emit_eq(combinatorial(M), p, q, w, method,
                    _profile_detail(kp, kq))


def _term_witness(M, p, q, kp, kq) -> dict:
    """_profile_witness for two terms whose plain profiles kp and kq
    differ, with the labels they hold on the balanced class (TB)."""
    return _profile_witness(M, p, q, (), (kp[2], kq[2]) if kp[0] == "TB"
                            else None)


def _profile_witness(M: StructureMatrix, p: Polynomial, q: Polynomial,
                     W=(), labels=None) -> dict:
    """The plain pol-eq procedure's witness for two terms whose profiles
    differ on the slice that eliminates W, with W's variables set to ONE.

    On the balanced class labels holds that slice's labels for p and q,
    over the vertices of their sorted names, and the slice words are not
    compared again: they differ in their zero sets when their labels or
    variables do, and _zset_witness separates them; else only at their
    ends, which pol-eq's end scan tells apart.
    """
    pw, qw = (eliminate_variables(u, W) for u in (p, q)) if W else (p, q)
    prof = classify_matrix(M)
    if labels is None:
        w, _ = _eq_plain(M, prof, pw, qw, _Budget(None))
    elif labels[0] != labels[1] or set(pw.variables) != set(qw.variables):
        names = tuple(sorted(set(p.variables + q.variables)))
        return _zset_witness(prof, names, W, pw, qw, *labels)
    else:
        w, _ = _end_scan(M, _Network(M, pw), pw, qw, _Budget(None))
    if w is None:
        raise WitnessSearchError(f"{p} and {q} agree with {W} eliminated; "
                                 "the term profiles are wrong")
    w.update(dict.fromkeys(W, ONE))
    return w


def term_eq_s1(M: StructureMatrix, p: Polynomial, q: Polynomial) -> Verdict:
    """Decide p = q for terms over the semigroup of M with identity adjoined.

    A witness comes from an elimination slice on which the plain words
    differ: the plain pol-eq procedure's witness for that slice, with its
    eliminated variables set to the identity.  On the balanced class (TB1)
    the verdict is that of the TB1 profiles, reached without building them
    through pol-eq's comparison (_eq_mismatch): the words' records, then
    slice 0, then their families, and only when those differ too a walk up
    to the first mismatching slice, whose labels give the witness.
    Elsewhere the slice is read off the two profiles by _witness_slice.
    """
    _require_term(p)  # first, as term_profile checks it
    prof = classify_matrix(M)
    if prof.totally_balanced and not prof.all_ones:
        _require_term(q)
        method = "balanced-elimination-slices"
        w, detail = _balanced_s1(M, prof, p, q)
    else:
        kp = term_profile(M, p, with_identity=True)
        kq = term_profile(M, q, with_identity=True)
        method = {"J1": "all-ones-sequencing",
                  "G1": "sequencing-antichains"}[kp[0]]
        detail = _profile_detail(kp, kq)
        W = None if kp == kq else _witness_slice(kp, kq)
        w = None if W is None else _profile_witness(M, p, q, W)
    return _emit_eq(combinatorial(M, with_identity=True), p, q, w, method,
                    detail)


# ---------------------------------------------------------------------------
# Identically-zero

def pol_zero(M: StructureMatrix, p: Polynomial, *,
             adjoin_identity: bool = False, allow_brute: bool = True,
             budget: int | None = None) -> Verdict:
    """Is p identically zero over the combinatorial semigroup of M?

    With the identity adjoined, an identity-valued variable drops out of the
    word, so the question closes over every elimination slice; a word can be
    identically zero plain yet revivable through the identity.

    allow_brute admits homomorphism search on general matrices, over each
    slice with the identity adjoined; without it those calls raise
    UnsupportedMatrixError.
    """
    prof = classify_matrix(M)
    S = combinatorial(M, adjoin_identity)
    validate_polynomial(S, p)
    _gate("pol-zero", prof, S, allow_brute)

    if prof.totally_balanced:
        method = "balanced-consistency"
        names = tuple(sorted(p.variables))
        ph = hat_transform(p, prof.plan)
        cw = CompiledWord(ph, names)
        # two adjacent constants that conflict kill every slice alike, and
        # slice 0 alone shows it
        walk = adjoin_identity and not _dead_pair(M, p)
        masks = _slice_masks(len(names)) if walk else (0,)
        alive = next((W for W in masks if cw.labels(W) is not None), None)
        W = None if alive is None else _mask_names(names, alive)
        detail = (("plan size", prof.plan.k), ("surviving slice", W))
        if W is None:
            return _emit_nonzero(S, p, None, method, detail)
        # the witness slice alone goes through the explicit graph
        pw = eliminate_variables(ph, W)
        w = dict.fromkeys(W, ONE)
        if pw is not None:
            w.update(_balanced_nonzero_witness(prof.plan, pw, {}))
        return _emit_nonzero(S, p, w, method, detail)

    if prof.bordered:
        # the border evaluation is zero exactly on an adjacent constant
        # pair that meets a zero entry, which no assignment (identity
        # included) can separate
        e0 = _border_completion(M, p)
        return _emit_nonzero(S, p, None if _dead_pair(M, p) else e0,
                             "border-evaluation",
                             (("border evaluation", Evaluation.of(e0)),))

    nodes = _Budget(budget)
    if not adjoin_identity:
        w, _ = _search_slice(M, nodes, None, p)
        return _emit_nonzero(S, p, w, "homomorphism-search")
    if _dead_pair(M, p):
        return _emit_nonzero(S, p, None, "elimination-slices",
                             (("every slice", "a zero constant pair"),))
    return _emit_nonzero(S, p, *_walk((p,), nodes,
                                      partial(_search_slice, M, nodes, None)))


def _balanced_nonzero_witness(plan, ph, pins):
    """Locally constant assignment over the identity matrix to the
    variables of ph, a hat-transformed word, lifted back.

    A component takes the index of its constant, else that of a pinned
    vertex in it (pins maps vertices to indices), else 0.
    """
    values = {}
    for comp in components(build_identified(ph)):
        idxs = {v[1] for v in comp if v[0] == "m"}
        idxs |= {pins[v] for v in comp if v in pins}
        x = idxs.pop() if idxs else 0
        for v in comp:
            values[v] = x
    lift = lift_element_map(plan)
    return {name: lift(triple(values[("v", name, 1)], 0,
                              values[("v", name, 2)]))
            for name in ph.variables}


def _border_completion(M, p):
    """Every variable of p on the border indices.

    The border row and column are all ones, so no adjacent pair with a
    variable in it meets a zero entry: p is nonzero here whenever it is
    nonzero anywhere.
    """
    return dict.fromkeys(p.variables, pair(M.n - 1, M.m - 1))


# ---------------------------------------------------------------------------
# Zero-set equality

def pol_zset_eq(M: StructureMatrix, p: Polynomial, q: Polynomial, *,
                adjoin_identity: bool = False, allow_brute: bool = True,
                budget: int | None = None) -> Verdict:
    """Do p and q vanish on exactly the same evaluations?

    With the identity adjoined, the balanced class compares constraint
    systems slice by slice; bordered and general matrices walk the slices
    with homomorphism search.  allow_brute admits homomorphism search on
    general matrices; without it those calls raise UnsupportedMatrixError.
    """
    prof = classify_matrix(M)
    S = combinatorial(M, adjoin_identity)
    validate_polynomial(S, p)
    validate_polynomial(S, q)
    _gate("zset-eq", prof, S, allow_brute)
    if prof.totally_balanced:
        w, method, detail, _ = _zset_balanced(prof, p, q, adjoin_identity)
        return _emit_eq_zset(S, p, q, w, method, detail)
    nodes = _Budget(budget)
    if adjoin_identity:
        return _emit_eq_zset(S, p, q, *_walk((p, q), nodes,
                                             partial(_zset_slice, M, nodes)))
    w, detail, _ = _zset_zero_pairs(M, _Network(M, p), q, nodes)
    return _emit_eq_zset(S, p, q, w, "homomorphism-search", detail)


def _zset_slice(M, nodes, pw, qw):
    """zset-eq on one elimination slice over the plain semigroup of M: a
    witness over the slice words' variables, or None when their zero sets
    agree, and detail rows.  An empty word reads ONE, never zero; a word
    is zero somewhere when it has a variable or its constants meet a zero."""
    if pw is None or qw is None:
        live = pw or qw
        if live is None or not live.variables and not _dead_pair(M, live):
            return None, ()
        return (dict.fromkeys(live.variables, ZERO),
                (("empty slice word", pw is None, qw is None),))
    return _zset_zero_pairs(M, _Network(M, pw), qw, nodes)[:2]


def _system(names, labels) -> tuple:
    """A slice's CompiledWord labels, rendered as its constraint system.

    Two words have the same zero set exactly when these values agree:
    either both are identically zero, or they keep the same variables and
    have the same constraint system, namely which variable vertices each
    connected component glues together and which index (if any) it pins
    them to.  Components without variable vertices constrain nothing, and
    so do unpinned singletons; both are dropped.  Each part is a sorted
    tuple, so that its repr is the same in every process.
    """
    if labels is None:
        return ("zero",)
    groups = _label_groups(names, labels)
    kept = tuple(sorted({v[1] for vs in groups.values() for v in vs}))
    return ("system", kept,
            tuple(sorted((tuple(sorted(vs)), -1 - c if c < 0 else None)
                         for c, vs in groups.items()
                         if c < 0 or len(vs) > 1)))


def _zset_balanced(prof, p, q, with_identity):
    """Zero sets compared on a totally balanced matrix, all-ones included,
    for validated words: a witness or None, the method and detail rows, and
    whether plain p is nonzero somewhere (None with the identity: no caller
    asks)."""
    if prof.all_ones:
        method = "all-ones-variables"
        same = set(p.variables) == set(q.variables)
        detail = (("variables", tuple(sorted(p.variables)),
                   tuple(sorted(q.variables)), same),)
        if same:
            return None, method, detail, True
        v = sorted(set(p.variables) ^ set(q.variables))[0]
        e = {u: pair(0, 0) for u in p.variables + q.variables}
        e[v] = ZERO
        return e, method, detail, True

    method = "balanced-constraint-systems"
    names = tuple(sorted(set(p.variables + q.variables)))
    ph, qh = (hat_transform(word, prof.plan) for word in (p, q))
    cwp, cwq = CompiledWord(ph, names), CompiledWord(qh, names)
    # labels over shared vertex numbers are the constraint systems: None
    # entries give the kept variables, the rest the components and pins
    if with_identity:
        alive = None
        hit = _slice_mismatch(CompiledWord.labels, cwp, cwq)
    else:
        lp, lq = cwp.labels(), cwq.labels()
        alive = lp is not None
        hit = None if lp == lq else (0, lp, lq)
    if hit is None:
        return None, method, (("constraint systems",
                               "agree on every slice"),), alive
    mask, lp, lq = hit
    W = _mask_names(names, mask)
    detail = (("identity slice", W),
              ("constraints", _system(names, lp), _system(names, lq), False))

    # neither slice word is empty: a word made only of W's variables would
    # make an earlier slice, the empty one, mismatch first
    w = _zset_witness(prof, names, W, eliminate_variables(ph, W),
                      eliminate_variables(qh, W), lp, lq)
    return w, method, detail, alive


def _zset_witness(prof, names, W, pw, qw, lp, lq) -> dict:
    """A plain evaluation separating the zero sets of pw and qw, the
    hat-transformed words of the slice that eliminates W, with W set to
    the identity, so that it separates the two words.

    lp and lq are that slice's labels over the vertices of names, None for
    a zero slice word, and are read only when both slice words are nonzero
    over the same variables.  A zero slice word leaves the other one's
    nonzero witness; a variable that one word lacks is set to zero; else a
    pin (_separator) that one constraint system allows and the other
    forbids.
    """
    pin = kill = None
    if lp is None or lq is None:
        live = qw if lp is None else pw
    elif set(pw.variables) != set(qw.variables):
        kill = sorted(set(pw.variables) ^ set(qw.variables))[0]
        live = qw if kill in pw.variables else pw
    else:
        live, pin = pw, _separator(lp, lq)
        if pin is None:
            live, pin = qw, _separator(lq, lp)
    pins = {} if pin is None else {_vertex(names, pin[0]): pin[1]}
    w = _balanced_nonzero_witness(prof.plan, live, pins)
    base = lift_element_map(prof.plan)(triple(0, 0, 0))
    for u in names:
        w.setdefault(u, base)
    w.update(dict.fromkeys(W, ONE))
    if kill is not None:
        w[kill] = ZERO
    return w


def _separator(live, dead):
    """A pin (vertex, class) that the live constraint system allows and the
    dead one forbids, or None when the dead system allows all the live one
    does.

    live and dead are the labels of two nonzero slices over the same
    variables.  The witness built around the pin gives every other unpinned
    live component class 0, so a free vertex is pinned to a class other
    than its partner's; a balanced matrix that is not all-ones retracts
    onto an identity matrix of size at least 2, so that class exists.
    """
    cls = [None if c is None else -1 - c if c < 0 else 0 for c in live]
    for v, d in enumerate(dead):
        if d is None:
            continue
        if d < 0:
            if live[v] >= 0:  # a pin the live word lacks
                return v, int(d == -1)
            if live[v] != d:  # two differing pins
                return v, cls[v]
        else:
            u = dead.index(d)
            if live[u] != live[v]:  # a gluing the live word lacks
                x, y = (v, u) if live[v] >= 0 else (u, v)
                return x, int(cls[y] == 0) if live[x] >= 0 else cls[x]
    return None


def _zset_zero_pairs(M, netp, q, nodes):
    """Zero sets of p and q compared through homomorphism search under
    pins, on p's compiled network and within one budget: a witness or
    None, detail rows, and whether p is nonzero somewhere, which the first
    search shows.

    Over the plain semigroup a word's network is fixed by its variables and
    its set of adjacent symbol pairs, so words that share both share their
    zero set: p's search alone then tells which rows apply, and q's network
    is never built.  Otherwise a word that is identically zero decides at
    once, and so does a variable that only one word has: set to zero, it
    kills that word alone.  Else, wherever a word is nonzero all its
    variables are, so Z(dst) leaves Z(src) exactly when src stays nonzero
    while some adjacent pair of dst meets a zero entry of M.
    """
    p = netp.word
    wp = _homomorphism(netp, (), nodes)
    same = set(p.variables) == set(q.variables)
    if same:
        pp, pq = _pair_keys(p), _pair_keys(q)
        if pp.keys() == pq.keys():
            if wp is None:
                return None, (("both identically zero", True),), False
            return None, (("zero pairs", "none separates the words"),), True
    netq = _Network(M, q)
    wq = _homomorphism(netq, (), nodes)
    if wp is None and wq is None:
        return None, (("both identically zero", True),), False
    if wp is None or wq is None:
        detail = (("identically zero", wp is None, wq is None, False),)
        w = wq if wp is None else wp
    elif not same:
        detail = (("variables", tuple(sorted(p.variables)),
                   tuple(sorted(q.variables)), False),)
        v = sorted(set(p.variables) ^ set(q.variables))[0]
        w = wq if v in p.variables else wp
        w[v] = ZERO
    else:
        hit = (_zero_pair(netp, pq, pp, nodes)
               or _zero_pair(netq, pp, pq, nodes))
        if hit is None:
            return None, (("zero pairs", "none separates the words"),), True
        st, cell, w = hit
        detail = (("zero pair", st, cell, False),)
    for u in p.variables + q.variables:
        w.setdefault(u, ZERO)
    return w, detail, wp is not None


def _pair_keys(p) -> dict:
    """p's adjacent symbol pairs in first-occurrence order, keyed by plain
    values (a variable's name, a constant's coordinates), which hash
    without calling Symbol.__hash__."""
    keys = [s.name if s.is_var else (s.elem.i, s.elem.g, s.elem.lam)
            for s in p.word]
    return dict(zip(zip(keys, keys[1:]), zip(p.word, p.word[1:])))


def _zero_pair(net, pairs, own, nodes):
    """An adjacent pair s t of dst and a zero entry M(lam, i), as text,
    and a nonzero evaluation of src, net's word, with s's row on lam and
    t's column on i, under which dst is zero; None when there is none.
    pairs and own are the _pair_keys of dst and src.  One search per row
    lam with a zero keeps t's column among that row's zeros, and i is read
    off the witness.  A pair that src has too would kill src as well, so it
    is skipped.
    """
    full = (1 << len(net.support[0])) - 1
    rows = [(lam, ones) for lam, ones in enumerate(net.support[1])
            if ones != full]
    for key, (s, t) in pairs.items():
        if key in own:
            continue
        for lam, ones in rows:
            w = _homomorphism(net, ((s, 2, 1 << lam), (t, 1, full ^ ones)),
                              nodes)
            if w is not None:
                i = (w[t.name] if t.is_var else t.elem).i
                return (str(Polynomial((s, t))),
                        f"M({lam + 1},{i + 1}) = 0", w)
    return None


# ---------------------------------------------------------------------------
# Polynomial equivalence and satisfiability

def pol_eq(M: StructureMatrix, p: Polynomial, q: Polynomial, *,
           adjoin_identity: bool = False, allow_brute: bool = True,
           budget: int | None = None) -> Verdict:
    """Decide p = q as functions.

    Over the plain semigroup: zero-set equality, then the ends.  A nonzero
    value is [i, lam] with i the column of the leftmost symbol and lam the
    row of the rightmost.  Once the zero sets agree, q is nonzero wherever
    p is, so p != q exactly when p stays nonzero with the two leftmost
    symbols on distinct columns, or the two rightmost on distinct rows:
    one homomorphism search per index x, p's end on x and q's on any
    other, at most n + m of them.  A side whose two ends are one symbol
    is skipped.

    With the identity adjoined, p = q exactly when on every elimination
    slice the slice words are equal or both empty.  The balanced class
    compares one key per slice (_eq_key) through _eq_mismatch, which
    term-eq shares, and searches only the slice that differs; every other
    class walks the slices with the plain procedure.  allow_brute admits
    homomorphism search on general matrices; without it those calls raise
    UnsupportedMatrixError.
    """
    prof = classify_matrix(M)
    S = combinatorial(M, adjoin_identity)
    validate_polynomial(S, p)
    validate_polynomial(S, q)
    _gate("pol-eq", prof, S, allow_brute)
    # one budget for every search and every slice of the verdict
    nodes = _Budget(budget)
    if not adjoin_identity:
        w, detail = _eq_plain(M, prof, p, q, nodes)
        return _emit_eq(S, p, q, w, "zset-plus-endpoints", detail)
    settle = partial(_eq_slice, M, prof, nodes)
    if not prof.totally_balanced:
        return _emit_eq(S, p, q, *_walk((p, q), nodes, settle))
    method = "balanced-elimination-slices"
    names = tuple(sorted(set(p.variables + q.variables)))
    hit = _eq_mismatch(prof, names, p, q)
    if hit is None:
        return _emit_eq(S, p, q, None, method,
                        (("slice keys", "agree on every slice"),))
    W = _mask_names(names, hit[0])
    found = settle(eliminate_variables(p, W), eliminate_variables(q, W))
    if found[0] is None:
        raise WitnessSearchError(f"{p} and {q} agree with {W} eliminated; "
                                 "the slice keys are wrong")
    return _emit_eq(S, p, q, *_on_slice(W, found, method))


def _eq_plain(M, prof, p, q, nodes):
    """pol-eq over the plain semigroup of M, for validated words: a witness
    or None, and detail rows."""
    # one network per word for every search of the verdict; the balanced
    # class (all-ones included) compares zero sets without one, and either
    # comparison says whether p is nonzero somewhere
    if prof.totally_balanced:
        net = None
        w, _, detail, alive = _zset_balanced(prof, p, q, False)
    else:
        net = _Network(M, p)
        w, detail, alive = _zset_zero_pairs(M, net, q, nodes)
    if w is not None:
        return w, (("zero-sets equal", False),) + detail
    # past this test p is nonzero somewhere, so (zero sets agreeing) both
    # words have the same variables and every want names one of p's
    if not alive:
        return None, (("zero-sets equal", True), ("identically zero", True))
    if net is None:
        net = _Network(M, p)
    return _end_scan(M, net, p, q, nodes)


def _end_scan(M, net, p, q, nodes):
    """pol-eq's end test over the plain semigroup of M, for words whose
    zero sets agree, p nonzero somewhere, on p's network net: a witness on
    which the two leftmost symbols take distinct columns, or the two
    rightmost distinct rows, or None, and detail rows."""
    for side, a, b, size in ((1, p.leftmost, q.leftmost, M.n),
                             (2, p.rightmost, q.rightmost, M.m)):
        if a == b:
            continue
        full = (1 << size) - 1
        for x in range(size):
            w = _homomorphism(net, ((a, side, 1 << x),
                                    (b, side, full ^ 1 << x)), nodes)
            if w is None:
                continue
            e = w[b.name] if b.is_var else b.elem
            y = e.i if side == 1 else e.lam
            return w, (("zero-sets equal", True),
                       ("distinct " + ("columns" if side == 1 else "rows")
                        + " at the ends", x + 1, y + 1))
    return None, (("zero-sets equal", True), ("endpoint scan", "clean"))


def _eq_slice(M, prof, nodes, pw, qw):
    """pol-eq on one elimination slice over the plain semigroup of M: a
    witness over the slice words' variables, or None when they are equal
    or both empty, and detail rows.  An empty word reads ONE, which no
    plain value equals."""
    if pw is None or qw is None:
        if pw is qw:
            return None, ()
        return (dict.fromkeys((pw or qw).variables, ZERO),
                (("empty slice word", pw is None, qw is None),))
    return _eq_plain(M, prof, pw, qw, nodes)


def _eq_key(prof, words, cw, W):
    """Plain pol-eq's key for slice W of a compiled word on the balanced
    class: two slice words are equal over the plain semigroup exactly when
    their keys are.  words maps each compiled word to its word.  It is the
    one slice key of term-eq (the TB and TB1 profiles, _eq_mismatch) and of
    pol-eq with the identity; a term's key reads (labels, end labels,
    left symbol, right symbol).

    An empty slice reads "empty" and a zero one None.  Otherwise equal
    words have equal zero sets: the kept variables on an all-ones matrix,
    elsewhere the labels, the constraint system.  They have equal ends
    too, the column of the first kept symbol and the row of the last.  Off
    all-ones the label of the first X vertex (a constant vertex reads as
    its pin) names the class of that column, and a free class can be any
    of at least two.  The class fixes the column unless it can hold two
    equal columns; only then does the end symbol (a variable's name, a
    constant's column) enter the key.  On an all-ones matrix, one class,
    that is whenever M has two columns.  Rows likewise.
    """
    positions = cw.positions
    kept = [t for t, pos in enumerate(positions) if not pos[0] & W]
    if not kept:
        return "empty"
    word = words[cw].word
    first, last = word[kept[0]], word[kept[-1]]
    sx = first.name if first.is_var else first.elem.i
    sy = last.name if last.is_var else last.elem.lam
    if prof.all_ones:
        return (cw.varmask & ~W, sx if prof.equal_cols else None,
                sy if prof.equal_rows else None)
    lab = cw.labels(W)
    if lab is None:
        return None
    base, plan = cw.base, prof.plan
    x, y = positions[kept[0]][1], positions[kept[-1]][2]
    lx = lab[x] if x < base else base - 1 - x
    ly = lab[y] if y < base else base - 1 - y
    if not prof.equal_cols or lx < 0 and plan.col_class.count(-1 - lx) < 2:
        sx = None
    if not prof.equal_rows or ly < 0 and plan.row_class.count(-1 - ly) < 2:
        sy = None
    return tuple(lab), lx, ly, sx, sy


def _eq_mismatch(prof, names, p, q):
    """The first elimination slice on which two validated words on the
    balanced class differ over the plain semigroup, as _slice_mismatch
    gives it under _eq_key, or None when p = q with the identity adjoined;
    each word is hat-transformed and compiled over names, the sorted union
    of their variables.  Equal records or families fix each slice's end
    vertices, so they settle the ends too once the constants that can be
    ends agree.  A word without constants, as a term, is neither
    transformed nor scanned for them."""
    words = {CompiledWord(hat_transform(w, prof.plan) if w.constants else w,
                          names): w
             for w in (p, q)}
    cwp, cwq = words
    return _slice_mismatch(partial(_eq_key, prof, words), cwp, cwq,
                           _end_constants(p) == _end_constants(q))


def _end_constants(p):
    """The column of p's first constant and the row of its last, the only
    constants that can end a slice of p; None for a term."""
    if not p.constants:
        return None
    consts = [s.elem for s in p.word if not s.is_var]
    return consts[0].i, consts[-1].lam


def pol_sat(M: StructureMatrix, p: Polynomial, b: Element, *,
            adjoin_identity: bool = False, allow_brute: bool = True,
            budget: int | None = None) -> Verdict:
    """Does p = b have a solution?

    Over the plain semigroup a nonzero target is one homomorphism search,
    with the leftmost symbol's column pinned to b's and the rightmost
    symbol's row to b's.  With the identity adjoined, p = b is solvable
    when some elimination slice solves it.  Constants are never eliminated,
    so a constant end outside b's column or row, or two adjacent constants
    on a zero entry, refutes every slice at once; otherwise the slices are
    walked up to the first that solves it.  The targets 0 and 1 are
    settled first, on every matrix.

    For other targets, allow_brute admits homomorphism search on general
    matrices; without it those calls raise UnsupportedMatrixError.
    """
    S = combinatorial(M, adjoin_identity)
    validate_polynomial(S, p)
    S.check_element(b)

    if b == ZERO:
        # a word of constants alone is zero exactly on a dead pair
        w = dict.fromkeys(p.variables, ZERO)
        if not w and not _dead_pair(M, p):
            w = None
        return _emit_sat(S, p, b, w, "zero-target")
    if b == ONE:
        w = dict.fromkeys(p.variables, ONE) if p.is_term else None
        return _emit_sat(S, p, b, w, "identity-target")

    _gate("pol-sat", classify_matrix(M), S, allow_brute)
    nodes = _Budget(budget)
    if not adjoin_identity:
        w, _ = _search_slice(M, nodes, b, p)
        return _emit_sat(S, p, b, w, "homomorphism-search")
    a, z = p.leftmost, p.rightmost
    if (not a.is_var and a.elem.i != b.i
            or not z.is_var and z.elem.lam != b.lam or _dead_pair(M, p)):
        return _emit_sat(S, p, b, None, "elimination-slices",
                         (("every slice", "refuted by the constants"),))
    return _emit_sat(S, p, b, *_walk((p,), nodes,
                                     partial(_search_slice, M, nodes, b)))


def _search_slice(M, nodes, b, pw):
    """One homomorphism search on a slice word over the plain semigroup,
    for a nonzero value (b None) or for the value b, the ends masked to
    b's column and row: its witness, or None, and no detail rows.  An
    empty word (None) reads ONE, nonzero and no target."""
    if pw is None:
        return (None if b is not None else {}), ()
    wants = () if b is None else ((pw.leftmost, 1, 1 << b.i),
                                  (pw.rightmost, 2, 1 << b.lam))
    return _homomorphism(_Network(M, pw), wants, nodes), ()


# ---------------------------------------------------------------------------
# Homomorphism search
#
# p is nonzero exactly when every adjacent pair s t of its word has
# M(lam_s, i_t) != 0: a map of p's bipartite graph, constants pinned, into
# the support pattern of M.  Variable j owns vertex 2j (its column index i)
# and vertex 2j+1 (its row index lam); a domain is a bitmask of indices.

class _Network:
    """p's constraint network over M, compiled once per verdict and shared
    by all of that verdict's runs of _homomorphism.

    doms[v] is v's domain, narrowed by p's constants and closed under arc
    consistency; nbrs[v] holds the vertices v shares an arc with, degree[v]
    their number; undecided lists, in order, the vertices left with more
    than one index; dead says that p is identically zero whatever a run
    masks, shown by a zero entry between two constants or by arc
    consistency.  A run narrows doms on its trail and restores them before
    it returns.
    """

    __slots__ = ("word", "index", "support", "doms", "nbrs", "degree",
                 "undecided", "dead")

    def __init__(self, M: StructureMatrix, p: Polynomial):
        self.word = p
        self.index = index = {}  # names in first-occurrence order
        self.support = support = classify_matrix(M).support
        cols, rows = support
        full = ((1 << M.n) - 1, (1 << M.m) - 1)
        doms: list = []
        arcs: list = []
        dead = False
        # one pass: x is the previous symbol's column vertex, -1 after a
        # constant (whose row is lam) and -2 before the first symbol
        x = -2
        for s in p.word:
            if s.is_var:
                j = index.get(s.name)
                if j is None:
                    j = index[s.name] = len(index)
                    doms += full
                    arcs += (set(), set())
                y = 2 * j
                if x >= 0:
                    arcs[x + 1].add(y)
                    arcs[y].add(x + 1)
                elif x == -1:
                    doms[y] &= rows[lam]
                x = y
            else:
                i = s.elem.i
                if x >= 0:
                    doms[x + 1] &= cols[i]
                elif x == -1 and not rows[lam] >> i & 1:
                    dead = True
                x, lam = -1, s.elem.lam
        # each set's own order, kept: a run discovers its components in it,
        # and the witness depends on that order
        self.nbrs = nbrs = [tuple(a) for a in arcs]
        self.degree = [len(a) for a in arcs]
        self.dead = dead or not all(doms) or not _narrow(
            doms, nbrs, support, list(range(len(doms))), [])
        self.doms = doms
        self.undecided = [v for v, d in enumerate(doms) if d & (d - 1)]


# the budget of a verdict or an oracle call that is given none
DEFAULT_BUDGET = 10 ** 7


class _Budget:
    """One verdict's search nodes, shared by all of its runs: every value
    tried is a node, and so is every elimination slice a walk visits; more
    than limit of them raise BudgetExceededError.  The one check of a
    budget, which _space, the exhaustive searches' check, reads too."""

    __slots__ = ("limit", "spent")

    def __init__(self, budget: int | None):
        self.limit = DEFAULT_BUDGET if budget is None else budget
        if self.limit <= 0:
            raise BudgetExceededError(
                f"budget must be positive, got {self.limit}")
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise self.exceeded()

    def exceeded(self) -> BudgetExceededError:
        return BudgetExceededError(f"search exceeds budget {self.limit} nodes")


def _space(base, nvars, budget, what="evaluations"):
    """Refuse a nonpositive budget, or base^nvars of what, the evaluations
    of an exhaustive search by default, when that is more than budget."""
    limit = _Budget(budget).limit
    size = base ** nvars
    if size > limit:
        raise BudgetExceededError(f"{base}^{nvars} = {size} {what} "
                                  f"exceed budget {limit}")


def _narrow(doms, nbrs, support, queue, trail) -> bool:
    """Narrow the neighbours of the queued vertices to a fixpoint of arc
    consistency (AC-3), each change recorded on trail as (vertex, domain
    before it); False on an empty domain."""
    while queue:
        v = queue.pop()
        # the neighbour indices that some value in v's domain supports
        allowed, rest, sup = 0, doms[v], support[v & 1]
        while rest:
            low = rest & -rest
            allowed |= sup[low.bit_length() - 1]
            rest ^= low
        for u in nbrs[v]:
            d = doms[u]
            if d & allowed != d:
                if not d & allowed:
                    return False
                trail.append((u, d))
                doms[u] = d & allowed
                queue.append(u)
    return True


def _homomorphism(net: _Network, wants, nodes: _Budget) -> dict | None:
    """A nonzero evaluation of net's word over the plain combinatorial
    semigroup of M, as a name -> element dict, or None when the word is
    identically zero under wants.

    wants are (symbol, side, mask) triples: side 1 keeps the symbol's
    column in mask, side 2 its row, and a constant outside its mask leaves
    no evaluation.  The run applies them to the compiled domains on its
    trail and restores to arc consistency from the vertices they narrowed
    alone.  A depth-first search then covers each connected component of
    the undecided vertices: it branches on the smallest domain, ties to
    the vertex with most neighbours and then to the first in the order in
    which the component was discovered, restores arc consistency after
    every choice and undoes its choices from the trail.  On a component of
    three or more vertices the branching order lives in a heap of integer
    keys (domain size, then degree, then discovery position), pushed
    whenever a choice narrows a domain or the trail restores one and
    dropped once stale, so a search that needs about one node per vertex
    takes near-linear time; one or two vertices are settled directly, with
    the values and the nodes the heap search would take.  Every value
    tried spends a node of the verdict's budget.  The trail is undone before the run
    returns, so the network is ready for the verdict's next run.
    """
    if net.dead:
        return None
    doms, nbrs, support, degree = net.doms, net.nbrs, net.support, net.degree
    trail: list = []  # (vertex, domain before a change)
    # the budget's count is kept here and written back on every exit
    spent, limit = nodes.spent, nodes.limit
    try:
        queue = []
        for s, side, mask in wants:
            if not s.is_var:
                if not mask >> (s.elem.i if side == 1 else s.elem.lam) & 1:
                    return None
                continue
            v = 2 * net.index[s.name] + side - 1
            d = doms[v]
            if not d & mask:
                return None
            if d & mask != d:
                trail.append((v, d))
                doms[v] = d & mask
                queue.append(v)
        if not _narrow(doms, nbrs, support, queue, trail):
            return None

        # arc consistency leaves every value of a vertex supported by its
        # decided neighbours, so only the undecided vertices need
        # searching, and each of their connected components on its own
        seen = set()
        for root in net.undecided:
            if root in seen or not doms[root] & (doms[root] - 1):
                continue
            comp, stack = [], [root]
            seen.add(root)
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in nbrs[v]:
                    if u not in seen and doms[u] & (doms[u] - 1):
                        seen.add(u)
                        stack.append(u)
            # only the component's own vertices change while it is
            # searched: a decided vertex is never narrowed, only emptied
            n = len(comp)
            if n <= 2:
                # arc consistency lets the first vertex in branching order
                # take its lowest value, and the other keep a value that
                # this one supports: its lowest, a second node only when
                # more than one is left
                v = root
                if n == 2:
                    u = comp[1]
                    dv, du = doms[v].bit_count(), doms[u].bit_count()
                    if du < dv or du == dv and degree[u] > degree[v]:
                        v, u = u, v
                spent += 1
                if spent > limit:
                    raise nodes.exceeded()
                d = doms[v]
                trail.append((v, d))
                doms[v] = low = d & -d
                if n == 2:
                    d = doms[u] & support[v & 1][low.bit_length() - 1]
                    if d & (d - 1):
                        spent += 1
                        if spent > limit:
                            raise nodes.exceeded()
                    trail.append((u, doms[u]))
                    doms[u] = d & -d
                continue
            # a heap key orders by domain size, then most neighbours, then
            # discovery position: count * span + tie[u], the position
            # being tie[u] % n
            top = max([degree[u] for u in comp])
            span = (top + 1) * n
            tie = {u: (top - degree[u]) * n + k for k, u in enumerate(comp)}
            heap = [doms[u].bit_count() * span + tie[u] for u in comp
                    if doms[u] & (doms[u] - 1)]
            heapify(heap)
            frames: list = []  # [vertex, values left to try, trail mark]
            while True:
                while heap and (doms[comp[heap[0] % n]].bit_count()
                                != heap[0] // span):
                    heappop(heap)
                if not heap:
                    break
                v = comp[heappop(heap) % n]
                frames.append([v, doms[v], len(trail)])
                while frames:
                    frame = frames[-1]
                    v, rest, mark = frame
                    if len(heap) > 2 * n:  # mostly stale entries
                        heap = [doms[u].bit_count() * span + tie[u]
                                for u in comp if doms[u] & (doms[u] - 1)]
                        heapify(heap)
                    while len(trail) > mark:
                        u, d = trail.pop()
                        doms[u] = d
                        if d & (d - 1):
                            heappush(heap, d.bit_count() * span + tie[u])
                    if not rest:
                        frames.pop()
                        continue
                    spent += 1
                    if spent > limit:
                        raise nodes.exceeded()
                    low = rest & -rest
                    frame[1] = rest ^ low
                    trail.append((v, doms[v]))
                    doms[v] = low
                    if _narrow(doms, nbrs, support, [v], trail):
                        for u, _ in trail[mark + 1:]:
                            d = doms[u]
                            if d & (d - 1):
                                heappush(heap, d.bit_count() * span + tie[u])
                        break
                else:
                    return None
        return {u: pair(doms[2 * j].bit_length() - 1,
                        doms[2 * j + 1].bit_length() - 1)
                for u, j in net.index.items()}
    finally:
        nodes.spent = spent
        for v, d in reversed(trail):
            doms[v] = d


# ---------------------------------------------------------------------------
# Group lift

def _nonzero_cell(M):
    for lam in range(M.m):
        for i in range(M.n):
            if M.entry(lam, i):
                return lam, i
    raise IrregularMatrixError("no nonzero entry")


def brute_group_eq(G: FiniteGroup, p: Polynomial, q: Polynomial, *,
                   budget: int | None = None):
    """Counterexample assignment for the group reading of two terms, or None."""
    union = tuple(dict.fromkeys(p.variables + q.variables))
    _space(G.order, len(union), budget)

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


def _group_counterexample(G: FiniteGroup, p: Polynomial, q: Polynomial):
    """An assignment on which the group readings of two terms differ, as
    name -> group element for the variables off the identity, or None.

    With every variable but x on the identity a word reads g^c(x), c(x)
    the count of x in it; so when the exponent of G does not divide the
    difference d of x's counts, an element whose order does not divide d,
    on x alone, separates the words.  In an abelian group a word reads the
    product of the g_x^c(x), so that count test decides; a non-abelian
    group that passes it is enumerated by brute_group_eq.
    """
    counts = {}
    for sign, word in ((1, p), (-1, q)):
        for s in word.word:
            counts[s.name] = counts.get(s.name, 0) + sign
    for x, d in counts.items():
        if d % G.exponent:
            return {x: next(g for g, k in enumerate(G.orders) if d % k)}
    return None if G.is_abelian else brute_group_eq(G, p, q)


def term_eq_group(M: StructureMatrix, G: FiniteGroup, p: Polynomial,
                  q: Polynomial) -> Verdict:
    """Term equivalence over M(G, M) for a 0-1 matrix M.

    Splits into the combinatorial shadow, compared by term profiles, and
    the group reading of the words, decided by _group_counterexample.  The
    witness comes from the side that differs, with no search: the group
    counterexample g placed on a nonzero cell M(lam0, i0), where every word
    takes the value [i0, w(g), lam0]; else the shadow witness with the group
    identity in every coordinate, since forgetting the group coordinate is a
    homomorphism onto the shadow.
    """
    if not M.is_zero_one:
        raise UnsupportedMatrixError("the group lift expects a 0-1 matrix")
    _require_term(p)
    _require_term(q)
    kp, kq = term_profile(M, p), term_profile(M, q)
    shadow_equal = kp == kq
    gw = None if p == q else _group_counterexample(G, p, q)
    method = "shadow-plus-group"
    detail = (("shadow equal", shadow_equal), ("group equal", gw is None))
    if shadow_equal and gw is None:
        return Verdict("equal", method, None, detail)

    entries = tuple(tuple(G.identity + 1 if v else 0 for v in row)
                    for row in M.entries)
    S = ReesSemigroup(StructureMatrix(entries), G)
    if gw is not None:
        lam0, i0 = _nonzero_cell(M)
        w = {v: triple(i0, gw.get(v, G.identity), lam0)
             for v in dict.fromkeys(p.variables + q.variables)}
    else:
        w = {v: e if e == ZERO else triple(e.i, G.identity, e.lam)
             for v, e in _term_witness(M, p, q, kp, kq).items()}
    return _emit_eq(S, p, q, w, method, detail)
