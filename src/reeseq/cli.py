"""Command-line front end.

Exit codes: 0 for a positive verdict (equal / zero / sat), 1 for a decided
negative, 2 for errors, unsupported matrix classes and exceeded budgets.
"""

from __future__ import annotations

import argparse
import sys

# json is imported by the three functions that write JSON, since a verdict
# in plain format, the common call, never uses it; reeseq.fields,
# reeseq.oracles and reeseq.reductions load on first access, which only
# gen rank1, brute-check and reduce make
import reeseq

from . import decide, matrices
from .core import (ONE, ZERO, combinatorial, element_str, format_matrix_file,
                   is_regular, load_matrix)
from .errors import ParseError, ReesError
from .graphs import build_adjacency, build_bipartite, build_identified, to_dot
from .words import (Evaluation, parse_instance_lines, parse_polynomial,
                    polynomial_str)


def positive_int(text: str) -> int:
    """The type of --budget: argparse reports a ValueError as a usage error."""
    value = int(text)
    if value <= 0:
        raise ValueError(text)
    return value


def _add_common(sub):
    sub.add_argument("--matrix", required=True, help="structure matrix file")
    sub.add_argument("--adjoin-identity", action="store_true",
                     help="work over the semigroup with identity adjoined")
    sub.add_argument("--budget", type=positive_int, default=None,
                     help="evaluation budget for exhaustive search, search "
                          "nodes for all the homomorphism searches and "
                          "elimination slices of one verdict; term-eq "
                          "decides without one (default 10^7)")


# op -> (number of polynomials, fast procedure in decide, exhaustive oracle
# in oracles), looked up per call, so that rebinding one reaches the CLI
_OPS = {"term-eq": (2, "term_eq", "brute_eq"),
        "pol-eq": (2, "pol_eq", "brute_eq"),
        "zset-eq": (2, "pol_zset_eq", "brute_zset_eq"),
        "pol-zero": (1, "pol_zero", "brute_zero"),
        "pol-sat": (1, "pol_sat", "brute_sat")}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reeseq",
        description="equivalence procedures for finite Rees matrix semigroups")
    subs = ap.add_subparsers(dest="command", required=True)

    for op in _OPS:
        sub = subs.add_parser(op)
        sub.set_defaults(func=_run_op)
        _add_common(sub)
        sub.add_argument("--brute", action="store_true",
                         help="admit what has no polynomial bound: "
                              "homomorphism search on general matrices "
                              "(neither totally balanced nor bordered), over "
                              "each elimination slice with the identity "
                              "adjoined; term-eq needs no --brute")
        sub.add_argument("--explain", action="store_true",
                         help="print the dispatch path and certificate")
        sub.add_argument("--format", choices=("plain", "json"),
                         default="plain")
        batch = op in ("pol-eq", "pol-zero")
        sub.add_argument("words", nargs="*" if batch else 2,
                         help=("polynomial text and target element "
                               "(0, 1 or [i,lam])") if op == "pol-sat"
                         else "polynomial text")
        if batch:
            sub.add_argument("--file", help="instance file (one polynomial "
                             "per line, or 'EQ p | q' lines)")

    sub = subs.add_parser("brute-check")
    sub.set_defaults(func=_run_brute_check)
    _add_common(sub)
    sub.add_argument("--op", required=True, choices=list(_OPS))
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
        import json
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


def _args(op, texts, S):
    """The polynomials of op parsed from texts, plus pol-sat's target."""
    count = _OPS[op][0]
    need = count + (op == "pol-sat")
    if len(texts) != need:
        raise ParseError(f"{op} expects {need} argument(s), got {len(texts)}")
    args = [parse_polynomial(t, S) for t in texts[:count]]
    if op == "pol-sat":
        args.append(_parse_target(texts[-1], S))
    return args


def _fast(op, M, args, ns, allow_brute):
    """The fast procedure of op on parsed args, with the options of ns."""
    name = _OPS[op][1]
    if op == "term-eq":  # decided from term profiles, with no budget
        return getattr(decide, name + "_s1" if ns.adjoin_identity
                       else name)(M, *args)
    return getattr(decide, name)(M, *args, adjoin_identity=ns.adjoin_identity,
                                 allow_brute=allow_brute, budget=ns.budget)


def _run_op(ns):
    M, S = _load_context(ns)
    if getattr(ns, "file", None):
        return _run_batch(ns, M, S)
    v = _fast(ns.command, M, _args(ns.command, ns.words, S), ns, ns.brute)
    return _print_verdict(ns, ns.command, v)


def _run_batch(ns, M, S):
    with open(ns.file, encoding="utf-8") as fh:
        records = parse_instance_lines(fh.read())
    worst = 0
    for k, (kind, *texts) in enumerate(records, start=1):
        op = "pol-eq" if kind == "eq" else "pol-zero"
        v = _fast(op, M, _args(op, texts, S), ns, ns.brute)
        print(f"line {k}: {v.kind} [{v.method}]")
        worst = max(worst, 0 if v.positive else 1)
    return worst


def _run_brute_check(ns):
    M, S = _load_context(ns)
    args = _args(ns.op, ns.words, S)
    fast = _fast(ns.op, M, args, ns, allow_brute=True)
    oracle = getattr(reeseq.oracles, _OPS[ns.op][2])(S, *args,
                                                      budget=ns.budget)
    print(f"fast:   {fast.kind} [{fast.method}]")
    print(f"oracle: {oracle.kind} [{oracle.method}]")
    if fast.kind != oracle.kind:
        print("DISAGREEMENT", file=sys.stderr)
        return 2
    print("agree")
    return 0 if fast.positive else 1


def _run_analyze(ns):
    M, group = load_matrix(ns.matrix)
    shadow = M.shadow()
    regular = is_regular(M)
    plan = residual = None
    if regular and M.is_zero_one:
        plan, residual = matrices.retract(M)
    record = {
        "rows": M.m, "cols": M.n, "group": group.name,
        "regular": regular,
        "totally_balanced": plan is not None,
        "bordered": matrices.is_bordered(shadow),
        "retract_k": plan.k if plan else None,
        "row_classes": list(plan.row_class) if plan else None,
        "col_classes": list(plan.col_class) if plan else None,
        "residual": [list(r) for r in residual.entries] if residual else None,
    }
    if ns.format == "json":
        import json
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
    p = parse_polynomial(ns.word, _load_context(ns)[1])
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
    import json
    with open(ns.graph, encoding="utf-8") as fh:
        G = reeseq.reductions.parse_graph_file(fh.read())
    inst = reeseq.reductions.sigma(G)
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
        (A, ga), (B, gb) = (load_matrix(a) for a in _gen_args(ns, str, str))
        # a trivial-group matrix holds only 0 and 1, which read the same
        # over any group
        if not (ga.is_trivial or gb.is_trivial or ga == gb):
            raise ReesError(f"gen direct-sum: the matrices are over "
                            f"different groups, {ga.name} and {gb.name}")
        M = matrices.direct_sum(A, B)
        group = gb if ga.is_trivial else ga
    elif kind == "rank1":
        rk = reeseq.fields.rank1_semigroup(*_gen_args(ns, int, int))
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
