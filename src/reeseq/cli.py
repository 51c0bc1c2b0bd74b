"""Command-line front end.

Exit codes: 0 for a positive verdict (equal / zero / sat), 1 for a decided
negative, 2 for errors, unsupported matrix classes and exceeded budgets.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import decide, fields, matrices, reductions
from .core import (ONE, ZERO, combinatorial, element_str, format_matrix_file,
                   load_matrix)
from .errors import ParseError, ReesError
from .graphs import build_adjacency, build_bipartite, build_identified, to_dot
from .words import (Evaluation, parse_instance_lines, parse_polynomial,
                    polynomial_str)


def _add_common(sub, matrix_arg=True):
    if matrix_arg:
        sub.add_argument("--matrix", required=True, help="structure matrix file")
    sub.add_argument("--adjoin-identity", action="store_true",
                     help="work over the semigroup with identity adjoined")
    sub.add_argument("--budget", type=int, default=None,
                     help="evaluation budget for exhaustive search "
                          "(default REESEQ_BUDGET or 10^7)")
    sub.add_argument("--brute", action="store_true",
                     help="allow brute-force fallback on unsupported matrices")
    sub.add_argument("--explain", action="store_true",
                     help="print the dispatch path and certificate")
    sub.add_argument("--format", choices=("plain", "json"), default="plain")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reeseq",
        description="equivalence procedures for finite Rees matrix semigroups")
    subs = ap.add_subparsers(dest="command", required=True)

    for name, nargs, func in (("term-eq", 2, _run_eq), ("pol-eq", 2, _run_eq),
                              ("zset-eq", 2, _run_eq),
                              ("pol-zero", 1, _run_pol_zero)):
        sub = subs.add_parser(name)
        sub.set_defaults(func=func)
        _add_common(sub)
        sub.add_argument("words", nargs="*" if name in ("pol-eq", "pol-zero")
                         else nargs, help="polynomial text")
        if name in ("pol-eq", "pol-zero"):
            sub.add_argument("--file", help="instance file (one polynomial "
                             "per line, or 'EQ p | q' lines)")

    sub = subs.add_parser("pol-sat")
    sub.set_defaults(func=_run_pol_sat)
    _add_common(sub)
    sub.add_argument("words", nargs=2,
                     help="polynomial text and target element "
                          "(0, 1 or [i,lam])")

    sub = subs.add_parser("brute-check")
    sub.set_defaults(func=_run_brute_check)
    _add_common(sub)
    sub.add_argument("--op", required=True,
                     choices=("term-eq", "pol-eq", "pol-zero", "pol-sat"))
    sub.add_argument("words", nargs="+")

    sub = subs.add_parser("analyze-matrix")
    sub.set_defaults(func=_run_analyze)
    sub.add_argument("matrix", help="structure matrix file")
    sub.add_argument("--format", choices=("plain", "json"), default="plain")

    sub = subs.add_parser("graph")
    sub.set_defaults(func=_run_graph)
    sub.add_argument("--matrix", required=True)
    sub.add_argument("--kind", choices=("adjacency", "bipartite", "identified"),
                     default="bipartite")
    sub.add_argument("--out", help="output file (default stdout)")
    sub.add_argument("word")

    sub = subs.add_parser("reduce")
    sub.set_defaults(func=_run_reduce)
    sub.add_argument("problem", choices=("3col",))
    sub.add_argument("graph", help="graph file: 'n m' header plus edge lines")
    sub.add_argument("--out", help="write the polynomial here and the "
                     "variable map to <out>.map.json")

    sub = subs.add_parser("gen")
    sub.set_defaults(func=_run_gen)
    sub.add_argument("kind", choices=("identity", "hollow", "all-ones",
                                      "border", "direct-sum", "rank1",
                                      "shadow"))
    sub.add_argument("args", nargs="*")
    sub.add_argument("--out", help="output file (default stdout)")
    return ap


def _load_context(ns):
    M, group = load_matrix(ns.matrix)
    if not group.is_trivial:
        raise ReesError("this command works over combinatorial semigroups; "
                        "take the shadow first (gen shadow)")
    S = combinatorial(M, getattr(ns, "adjoin_identity", False))
    return M, S


def _witness_json(w: Evaluation | None):
    if w is None:
        return None
    return {k: element_str(v) for k, v in w.assignment}


def _stable(part) -> str:
    # frozensets have hash-dependent iteration order; render sorted
    if isinstance(part, frozenset):
        return "{" + ", ".join(sorted(_stable(x) for x in part)) + "}"
    if isinstance(part, tuple):
        return "(" + ", ".join(_stable(x) for x in part) + ")"
    return str(part)


def _print_verdict(ns, op, verdict):
    if ns.format == "json":
        record = {"op": op, "verdict": verdict.kind, "method": verdict.method,
                  "witness": _witness_json(verdict.witness)}
        if ns.explain:
            record["detail"] = [[_stable(part) for part in row]
                                for row in verdict.detail]
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"verdict: {verdict.kind}")
        print(f"method:  {verdict.method}")
        if verdict.witness is not None:
            print(f"witness: {verdict.witness}")
        if ns.explain:
            for row in verdict.detail:
                print("  " + " | ".join(_stable(part) for part in row))
    return 0 if verdict.positive else 1


def _parse_target(text, S):
    text = text.strip()
    if text == "0":
        return ZERO
    if text == "1":
        return ONE
    p = parse_polynomial(text, S)
    if p.length != 1 or p.word[0].is_var:
        raise ParseError(f"target must be 0, 1 or a constant, got {text!r}")
    return p.word[0].elem


def _run_eq(ns):
    op = ns.command
    M, S = _load_context(ns)
    if getattr(ns, "file", None):
        return _run_batch(ns, op, M, S)
    if len(ns.words) != 2:
        raise ParseError(f"{op} expects two polynomials (or --file)")
    p = parse_polynomial(ns.words[0], S)
    q = parse_polynomial(ns.words[1], S)
    if op == "term-eq":
        if ns.adjoin_identity:
            v = decide.term_eq_s1(M, p, q, budget=ns.budget)
        else:
            v = decide.term_eq(M, p, q, budget=ns.budget)
    elif op == "pol-eq":
        v = decide.pol_eq(M, p, q, adjoin_identity=ns.adjoin_identity,
                          allow_brute=ns.brute, budget=ns.budget)
    else:
        v = decide.pol_zset_eq(M, p, q, adjoin_identity=ns.adjoin_identity,
                               allow_brute=ns.brute, budget=ns.budget)
    return _print_verdict(ns, op, v)


def _run_batch(ns, op, M, S):
    with open(ns.file, encoding="utf-8") as fh:
        records = parse_instance_lines(fh.read())
    worst = 0
    for k, rec in enumerate(records, start=1):
        if rec[0] == "eq":
            p = parse_polynomial(rec[1], S)
            q = parse_polynomial(rec[2], S)
            v = decide.pol_eq(M, p, q, adjoin_identity=ns.adjoin_identity,
                              allow_brute=ns.brute, budget=ns.budget)
        else:
            p = parse_polynomial(rec[1], S)
            v = decide.pol_zero(M, p, adjoin_identity=ns.adjoin_identity,
                                allow_brute=ns.brute, budget=ns.budget)
        print(f"line {k}: {v.kind} [{v.method}]")
        worst = max(worst, 0 if v.positive else 1)
    return worst


def _run_pol_zero(ns):
    M, S = _load_context(ns)
    if ns.file:
        return _run_batch(ns, "pol-zero", M, S)
    if len(ns.words) != 1:
        raise ParseError("pol-zero expects one polynomial (or --file)")
    p = parse_polynomial(ns.words[0], S)
    v = decide.pol_zero(M, p, adjoin_identity=ns.adjoin_identity,
                        allow_brute=ns.brute, budget=ns.budget)
    return _print_verdict(ns, "pol-zero", v)


def _run_pol_sat(ns):
    M, S = _load_context(ns)
    p = parse_polynomial(ns.words[0], S)
    b = _parse_target(ns.words[1], S)
    v = decide.pol_sat(M, p, b, adjoin_identity=ns.adjoin_identity,
                       allow_brute=ns.brute, budget=ns.budget)
    return _print_verdict(ns, "pol-sat", v)


def _run_brute_check(ns):
    M, S = _load_context(ns)
    p = parse_polynomial(ns.words[0], S)
    if ns.op == "term-eq":
        q = parse_polynomial(ns.words[1], S)
        fast = (decide.term_eq_s1 if ns.adjoin_identity
                else decide.term_eq)(M, p, q, budget=ns.budget)
        oracle = decide.brute_eq(S, p, q, budget=ns.budget)
    elif ns.op == "pol-eq":
        q = parse_polynomial(ns.words[1], S)
        fast = decide.pol_eq(M, p, q, adjoin_identity=ns.adjoin_identity,
                             budget=ns.budget)
        oracle = decide.brute_eq(S, p, q, budget=ns.budget)
    elif ns.op == "pol-zero":
        fast = decide.pol_zero(M, p, adjoin_identity=ns.adjoin_identity,
                               budget=ns.budget)
        oracle = decide.brute_zero(S, p, budget=ns.budget)
    else:
        b = _parse_target(ns.words[1], S)
        fast = decide.pol_sat(M, p, b, adjoin_identity=ns.adjoin_identity,
                              budget=ns.budget)
        oracle = decide.brute_sat(S, p, b, budget=ns.budget)
    print(f"fast:   {fast.kind} [{fast.method}]")
    print(f"oracle: {oracle.kind} [{oracle.method}]")
    if fast.kind != oracle.kind:
        print("DISAGREEMENT", file=sys.stderr)
        return 2
    print("agree")
    return 0 if fast.positive else 1


def _run_analyze(ns):
    M, group = load_matrix(ns.matrix)
    from .core import is_regular
    shadow = M.shadow()
    regular = is_regular(M)
    balanced = matrices.is_totally_balanced(shadow) if regular else False
    plan = residual = None
    if regular and M.is_zero_one:
        plan, residual = matrices.retract(M)
    record = {
        "rows": M.m, "cols": M.n, "group": group.name,
        "regular": regular,
        "totally_balanced": balanced and M.is_zero_one,
        "bordered": matrices.is_bordered(shadow),
        "retract_k": plan.k if plan else None,
        "row_classes": list(plan.row_class) if plan else None,
        "col_classes": list(plan.col_class) if plan else None,
        "residual": [list(r) for r in residual.entries] if residual else None,
    }
    if ns.format == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        for key in ("rows", "cols", "group", "regular", "totally_balanced",
                    "bordered", "retract_k", "row_classes", "col_classes"):
            print(f"{key}: {record[key]}")
        if residual is not None:
            print("residual:")
            print(residual)
    return 0


def _run_graph(ns):
    M, group = load_matrix(ns.matrix)
    S = combinatorial(M)
    p = parse_polynomial(ns.word, S)
    builder = {"adjacency": build_adjacency, "bipartite": build_bipartite,
               "identified": build_identified}[ns.kind]
    text = to_dot(builder(p), name=ns.kind)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _run_reduce(ns):
    with open(ns.graph, encoding="utf-8") as fh:
        G = reductions.parse_graph_file(fh.read())
    inst = reductions.sigma(G)
    text = polynomial_str(inst.polynomial)
    mapping = {"variables": dict(inst.variable_map),
               "vertices": G.n, "edges": len(G.edges),
               "walk": [v + 1 for v in inst.walk]}
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        with open(ns.out + ".map.json", "w", encoding="utf-8") as fh:
            json.dump(mapping, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        print(text)
        print(json.dumps(mapping, sort_keys=True))
    return 0


def _gen_args(ns, *types):
    """The gen arguments converted by types, one each."""
    if len(ns.args) != len(types):
        raise ParseError(f"gen {ns.kind} expects {len(types)} argument(s), "
                         f"got {len(ns.args)}")
    try:
        return [t(a) for t, a in zip(types, ns.args)]
    except ValueError as exc:
        raise ParseError(f"gen {ns.kind}: bad argument: {exc}") from exc


def _run_gen(ns):
    kind = ns.kind
    group = None
    if kind == "identity":
        M = matrices.identity(*_gen_args(ns, int))
    elif kind == "hollow":
        M = matrices.hollow(*_gen_args(ns, int))
    elif kind == "all-ones":
        M = matrices.all_ones(*_gen_args(ns, int, int))
    elif kind == "border":
        M, group = load_matrix(*_gen_args(ns, str))
        M = matrices.border(M)
    elif kind == "direct-sum":
        A, B = (load_matrix(a)[0] for a in _gen_args(ns, str, str))
        M = matrices.direct_sum(A, B)
    elif kind == "rank1":
        rk = fields.rank1_semigroup(*_gen_args(ns, int, int))
        M, group = rk.semigroup.matrix, rk.semigroup.group
    else:  # shadow
        M = load_matrix(*_gen_args(ns, str))[0].shadow()
    text = format_matrix_file(M, group)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (ReesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is for decided negatives only
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
