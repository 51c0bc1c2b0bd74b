"""Command-line interface: verdict output, exit codes, file tooling."""

import itertools
import json
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reeseq as r
from reeseq.cli import main


@pytest.fixture()
def i2_file(tmp_path):
    path = tmp_path / "I2.mat"
    path.write_text(r.format_matrix_file(r.identity(2)), encoding="utf-8")
    return str(path)


@pytest.fixture()
def bordered_file(tmp_path):
    path = tmp_path / "N.mat"
    path.write_text(r.format_matrix_file(r.border(r.hollow(3))),
                    encoding="utf-8")
    return str(path)


def test_term_eq_exit_codes(i2_file, capsys):
    assert main(["term-eq", "--matrix", i2_file, "x x y y", "y y x x"]) == 0
    out = capsys.readouterr().out
    assert "verdict: equal" in out
    assert main(["term-eq", "--matrix", i2_file, "x y", "y x"]) == 1


def test_golden_json_record(i2_file, capsys):
    code = main(["term-eq", "--matrix", i2_file, "--format", "json",
                 "x x y y", "y y x x"])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line == ('{"method": "balanced-components", "op": "term-eq", '
                    '"verdict": "equal", "witness": null}')


@pytest.mark.parametrize("name,argv,record", [
    ("I2", ["zset-eq", "x [1,1] y", "x y"],
     '{"detail": [["identity slice", "()"], ["constraints", "(system, '
     '(x, y), ((((v, x, 2), (v, y, 1)), 0)))", "(system, (x, y), ((((v, x, '
     '2), (v, y, 1)), None)))", "False"]], "method": '
     '"balanced-constraint-systems", "op": "zset-eq", "verdict": '
     '"not-equal", "witness": {"x": "[1,2]", "y": "[2,1]"}}'),
    ("J22", ["pol-eq", "--adjoin-identity", "x y z x", "x z y x"],
     '{"detail": [["identity slice", "(x)"], ["zero-sets equal", "True"], '
     '["distinct columns at the ends", "1", "2"]], "method": '
     '"balanced-elimination-slices", "op": "pol-eq", "verdict": '
     '"not-equal", "witness": {"x": "1", "y": "[1,1]", "z": "[2,1]"}}'),
    ("I2", ["term-eq", "--adjoin-identity", "x x y x", "x x y y"],
     '{"detail": [["matrix class", "TB1", "TB1", "True"], ["first '
     'mismatching slice, eliminated", "(x)"], ["graph components", '
     '"{{(v, y, 1)}, {(v, y, 2)}}", "{{(v, y, 1), (v, y, 2)}}", "False"], '
     '["left-endpoint component", "{(v, y, 1)}", "{(v, y, 1), (v, y, 2)}", '
     '"False"], ["right-endpoint component", "{(v, y, 2)}", "{(v, y, 1), '
     '(v, y, 2)}", "False"], ["right symbol (equal rows)", "None", "None", '
     '"True"], ["left symbol (equal columns)", "None", "None", "True"]], '
     '"method": "balanced-elimination-slices", "op": "term-eq", "verdict": '
     '"not-equal", "witness": {"x": "1", "y": "[1,2]"}}'),
], ids=["zset-eq-I2", "pol-eq-J22-S1", "term-eq-I2-S1"])
def test_golden_negative_records(tmp_path, capsys, name, argv, record):
    # negatives whose witness comes from a plain procedure, re-checked by
    # the question over its own semigroup (with an identity slice in two)
    M = {"I2": r.identity(2), "J22": r.all_ones(2, 2)}[name]
    path = tmp_path / f"{name}.mat"
    path.write_text(r.format_matrix_file(M), encoding="utf-8")
    op, *rest = argv
    code = main([op, "--matrix", str(path), "--format", "json", "--explain",
                 *rest])
    assert code == 1
    assert capsys.readouterr().out.strip() == record


def test_json_witness_round_trips(i2_file, capsys):
    main(["pol-zero", "--matrix", i2_file, "--format", "json", "x y"])
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "not-zero"
    assert set(record["witness"]) == {"x", "y"}


def test_pol_zero_exit_codes(bordered_file, capsys):
    assert main(["pol-zero", "--matrix", bordered_file, "[1,1] [1,1]"]) == 0
    assert main(["pol-zero", "--matrix", bordered_file, "[1,1] x [2,2]"]) == 1


def test_pol_sat(i2_file, capsys):
    assert main(["pol-sat", "--matrix", i2_file, "x", "[1,2]"]) == 0
    out = capsys.readouterr().out
    assert "witness" in out
    assert main(["pol-sat", "--matrix", i2_file, "[1,1]", "0"]) == 1


def test_unsupported_matrix_errors(tmp_path, capsys):
    path = tmp_path / "H3.mat"
    path.write_text(r.format_matrix_file(r.hollow(3)), encoding="utf-8")
    assert main(["pol-zero", "--matrix", str(path), "x [1,1]"]) == 2
    assert "error" in capsys.readouterr().err
    # the oracle fallback is opt-in
    assert main(["pol-zero", "--matrix", str(path), "--brute",
                 "x [1,1]"]) == 1


def test_explain_prints_certificate(i2_file, capsys):
    main(["term-eq", "--matrix", i2_file, "--explain", "x y", "y x"])
    out = capsys.readouterr().out
    assert "matrix class" in out


def test_explain_identity_slices(i2_file, capsys):
    # the balanced class with identity names the first mismatching slice
    # and its two plain profiles instead of every slice
    assert main(["term-eq", "--matrix", i2_file, "--adjoin-identity",
                 "--explain", "x y z x", "x z y x"]) == 1
    rows = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("  ")]
    assert rows[1] == "  first mismatching slice, eliminated | ()"
    assert rows[2].startswith("  graph components | ")
    assert len(rows) == 7
    assert main(["term-eq", "--matrix", i2_file, "--adjoin-identity",
                 "--explain", "x y z x", "x y z x"]) == 0
    out = capsys.readouterr().out
    assert "identity-elimination slices compared | 7" in out


def test_explain_is_the_same_under_every_hash_seed(tmp_path):
    # detail rows hold sets; the printed explanation must not follow their
    # hash order.  One process per hash seed runs every call, and the
    # outputs compare byte for byte
    argvs = []
    for name, M in (("I2", r.identity(2)), ("H3", r.hollow(3)),
                    ("BI2", r.border(r.identity(2)))):
        path = tmp_path / f"{name}.mat"
        path.write_text(r.format_matrix_file(M), encoding="utf-8")
        for op, extra in (("term-eq", []), ("term-eq", ["--adjoin-identity"]),
                          ("pol-eq", ["--brute"]), ("zset-eq", ["--brute"])):
            for fmt in ("plain", "json"):
                for p, q in (("x y z x", "x z y x"), ("x y z", "z y x"),
                             ("x [1,2] y x", "x y [1,2] x")):
                    if op != "term-eq" or "[" not in p:
                        argvs.append([op, "--matrix", str(path), "--explain",
                                      "--format", fmt, *extra, p, q])
    script = ("import json, sys\nfrom reeseq.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    print('exit', main(argv))\n")
    src = os.path.dirname(os.path.dirname(r.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def run(seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script,
                               json.dumps(argvs)], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        return done.stdout, done.stderr

    first = run(1)
    assert first[0].count("exit") == len(argvs)
    assert "adjacency arcs | {(x, y), (y, z), (z, x)}" in first[0]
    for seed in (2, 3):
        assert run(seed) == first, seed


def test_zset_eq(i2_file):
    assert main(["zset-eq", "--matrix", i2_file,
                 "[1,1] u^2 [1,1]", "[1,1] u [1,1]"]) == 0


def test_adjoin_identity_flag(i2_file):
    assert main(["term-eq", "--matrix", i2_file, "--adjoin-identity",
                 "x y x", "x x y"]) == 1


def test_brute_check_agreement(i2_file, capsys):
    # every --op, plain and with the identity adjoined, goes through the
    # same fast procedures as the single calls and agrees with its oracle
    for op, words, code in (("term-eq", ["x x y y", "y y x x"], 0),
                            ("pol-eq", ["[1,1] x x [2,2]", "[1,1] x [2,2]"], 1),
                            ("zset-eq", ["[1,1] u^2 [1,1]", "[1,1] u [1,1]"],
                             0),
                            ("pol-zero", ["[1,2] x [1,1] x [2,2]"], 0),
                            ("pol-sat", ["[1,1] x", "[2,1]"], 1)):
        for extra in ([], ["--adjoin-identity"]):
            argv = ["brute-check", "--matrix", i2_file, "--op", op, *extra]
            assert main(argv + words) == code, (op, extra)
            out = capsys.readouterr().out
            assert out.endswith("agree\n"), (op, extra, out)


def test_brute_check_with_identity_runs_the_walk(tmp_path, capsys):
    # with the identity adjoined the fast side of brute-check walks the
    # elimination slices, so it checks something other than the oracle
    path = tmp_path / "H3.mat"
    path.write_text(r.format_matrix_file(r.hollow(3)), encoding="utf-8")
    for op, words in (("pol-eq", ["x y x", "x y y x"]),
                      ("zset-eq", ["x y", "y x"]),
                      ("pol-zero", ["[1,2] x [2,1]"]),
                      ("pol-sat", ["x [1,2] y", "[2,3]"])):
        argv = ["brute-check", "--matrix", str(path), "--op", op,
                "--adjoin-identity", *words]
        assert main(argv) in (0, 1), op
        fast, oracle, verdict = capsys.readouterr().out.splitlines()
        assert fast.startswith("fast: ") and "[brute-force]" not in fast, op
        assert oracle.endswith("[brute-force]"), op
        assert fast.split()[1] == oracle.split()[1], op
        assert verdict == "agree", op


def test_constraint_rows_repr_alike_in_every_process():
    # the balanced zero-set detail holds unpinned components, whose pin is
    # None; two processes with one hash seed must repr it alike
    script = ("import reeseq as r\n"
              "M = r.identity(3)\nS = r.combinatorial(M)\n"
              "for p, q in (('x y z', 'x y y z'), ('x [1,1] y z', 'z y x'),\n"
              "             ('u v w u', 'u w v u'), ('a b c d', 'd c b a')):\n"
              "    p, q = r.parse_polynomial(p, S), r.parse_polynomial(q, S)\n"
              "    print(repr(r.pol_zset_eq(M, p, q).detail))\n"
              "    print(repr(r.pol_eq(M, p, q).detail))\n")
    src = os.path.dirname(os.path.dirname(r.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)
    runs = [subprocess.run([sys.executable, "-c", script], env=env,
                           check=True, capture_output=True, text=True,
                           timeout=60).stdout for _ in range(2)]
    assert "None" in runs[0]
    assert runs[0] == runs[1]


def test_batch_file(i2_file, tmp_path, capsys):
    inst = tmp_path / "batch.txt"
    inst.write_text("EQ x x y y | y y x x\n[1,1] x x [2,2]\n",
                    encoding="utf-8")
    assert main(["pol-eq", "--matrix", i2_file, "--file", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "line 1: equal" in out
    assert "line 2: zero" in out


def test_analyze_matrix(tmp_path, capsys):
    path = tmp_path / "M.mat"
    path.write_text(r.format_matrix_file(
        r.matrix(((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1)))),
        encoding="utf-8")
    assert main(["analyze-matrix", str(path), "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["regular"] and record["totally_balanced"]
    assert record["retract_k"] == 2
    assert record["row_classes"] == [0, 0, 1]


def test_graph_export(i2_file, capsys):
    assert main(["graph", "--matrix", i2_file, "--kind", "identified",
                 "[1,1] u^2 [1,1]"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph identified")
    assert out.count("--") == 3


def test_group_tagged_matrix_is_refused(tmp_path, capsys):
    # graph, like every decision op, works over the combinatorial shadow
    path = tmp_path / "L.mat"
    assert main(["gen", "rank1", "3", "2", "--out", str(path)]) == 0
    for argv in (["graph", "--matrix", str(path), "x y"],
                 ["pol-zero", "--matrix", str(path), "x y"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "take the shadow first" in err, argv


@pytest.mark.parametrize("budget", ["0", "-5", "abc"])
def test_budget_must_be_positive(i2_file, capsys, budget):
    # --budget is a positive integer for every op, refused by argparse
    for op, words in (("pol-zero", ["--brute", "[1,2] [1,2]"]),
                      ("term-eq", ["x", "y"]),
                      ("brute-check", ["--op", "pol-eq", "x", "y"])):
        with pytest.raises(SystemExit) as exc:
            main([op, "--matrix", i2_file, "--budget", budget] + words)
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err


def _loaded_modules(args, env):
    """The modules a new interpreter run with args imports."""
    err = subprocess.run([sys.executable, "-X", "importtime", *args],
                         env=env, capture_output=True, text=True,
                         check=True).stderr
    return {ln.rsplit("|", 1)[1].strip() for ln in err.splitlines()
            if ln.startswith("import time:")}


def _modules_after_main(argv, env):
    """The modules loaded once cli.main has run argv in a new interpreter."""
    script = ("import sys\nfrom reeseq.cli import main\n"
              "main(sys.argv[1:])\nprint(*sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


def test_verdict_call_imports_nothing_it_does_not_use(i2_file):
    # every CLI call is a new process, so each module it imports is paid
    # for on every call; compare with what a bare interpreter imports
    src = os.path.dirname(os.path.dirname(r.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    bare = _loaded_modules(["-c", "pass"], env)
    call = _loaded_modules(["-m", "reeseq.cli", "term-eq", "--matrix",
                            i2_file, "x x y y", "y y x x"], env)
    assert "reeseq.decide" in call - bare
    assert (call - bare) & {"dataclasses", "inspect", "json",
                            "reeseq.fields", "reeseq.oracles",
                            "reeseq.reductions"} == set()
    # -X importtime sees import statements only; what the package's hook
    # loads on first access shows in sys.modules after the call, and of
    # that brute-check alone loads the oracles
    deferred = {"reeseq.fields", "reeseq.oracles", "reeseq.reductions"}
    words = ["--matrix", i2_file, "x x y y", "y y x x"]
    assert _modules_after_main(["term-eq", *words], env) & deferred == set()
    assert _modules_after_main(["brute-check", "--op", "term-eq", *words],
                               env) & deferred == {"reeseq.oracles"}


def test_oracles_are_served_from_their_module():
    # the package serves the oracles from reeseq.oracles, which no module
    # imports
    from reeseq import oracles, value_vector
    for name in ("brute_eq", "brute_zero", "brute_sat", "brute_zset_eq",
                 "value_vector"):
        assert getattr(r, name) is getattr(oracles, name), name
    assert value_vector is oracles.value_vector


def test_gen_and_shadow(tmp_path, capsys):
    out = tmp_path / "T.mat"
    assert main(["gen", "rank1", "3", "2", "--out", str(out)]) == 0
    M, group = r.load_matrix(out)
    assert group.name == "units3" and M.m == 4

    shadow = tmp_path / "S.mat"
    assert main(["gen", "shadow", str(out), "--out", str(shadow)]) == 0
    M2, g2 = r.load_matrix(shadow)
    assert g2.is_trivial and M2 == M.shadow()

    assert main(["gen", "hollow", "3"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "3 3"

    a = tmp_path / "a.mat"
    main(["gen", "identity", "1", "--out", str(a)])
    assert main(["gen", "direct-sum", str(a), str(a)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["1 0", "0 1"]


@pytest.mark.parametrize("order", ["group-first", "group-second"])
def test_gen_direct_sum_keeps_the_group(tmp_path, capsys, order):
    # a sum with a trivial-group matrix stays over the other one's group,
    # and the printed file loads back as the same matrix and group
    c3 = tmp_path / "c3.mat"
    c3.write_text("2 2 cyclic3\n1 2\n3 1\n", encoding="utf-8")
    i2 = tmp_path / "i2.mat"
    i2.write_text(r.format_matrix_file(r.identity(2)), encoding="utf-8")
    operands = [c3, i2] if order == "group-first" else [i2, c3]
    out = tmp_path / "sum.mat"
    assert main(["gen", "direct-sum", *map(str, operands),
                 "--out", str(out)]) == 0
    A, B = (r.load_matrix(path)[0] for path in operands)
    assert r.load_matrix(out) == (r.direct_sum(A, B), r.cyclic_group(3))
    assert main(["analyze-matrix", str(out)]) == 0
    assert "group: cyclic3" in capsys.readouterr().out


def test_gen_direct_sum_refuses_two_groups(tmp_path, capsys):
    c3 = tmp_path / "c3.mat"
    c3.write_text("1 1 cyclic3\n2\n", encoding="utf-8")
    c2 = tmp_path / "c2.mat"
    c2.write_text("1 1 cyclic2\n2\n", encoding="utf-8")
    assert main(["gen", "direct-sum", str(c3), str(c3)]) == 0
    capsys.readouterr()
    assert main(["gen", "direct-sum", str(c3), str(c2)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: gen direct-sum: the matrices are over "
                            "different groups, cyclic3 and cyclic2\n")


def test_reduce_3col(tmp_path, capsys):
    gfile = tmp_path / "K3.graph"
    gfile.write_text("3 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
    out = tmp_path / "inst.poly"
    assert main(["reduce", "3col", str(gfile), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8").strip()
    S = r.combinatorial(r.hollow(3))
    p = r.parse_polynomial(text, S)
    assert p.length == 50 * 7
    mapping = json.loads((tmp_path / "inst.poly.map.json").read_text())
    assert mapping["vertices"] == 3 and mapping["edges"] == 3
    assert mapping["variables"]["x#1"] == 1


@pytest.mark.parametrize("n,code", [(3, 1), (4, 0)], ids=["K3", "K4"])
def test_reduce_3col_then_pol_zero(tmp_path, capsys, n, code):
    # the reduction's output decides end to end over H3: the triangle is
    # colorable (not zero, exit 1 with a witness), K4 is not (zero, exit 0)
    edges = list(itertools.combinations(range(1, n + 1), 2))
    gfile = tmp_path / "G.graph"
    gfile.write_text(f"{n} {len(edges)}\n"
                     + "".join(f"{a} {b}\n" for a, b in edges),
                     encoding="utf-8")
    inst = tmp_path / "inst.poly"
    assert main(["reduce", "3col", str(gfile), "--out", str(inst)]) == 0
    h3 = tmp_path / "H3.mat"
    h3.write_text(r.format_matrix_file(r.hollow(3)), encoding="utf-8")
    capsys.readouterr()
    assert main(["pol-zero", "--brute", "--matrix", str(h3),
                 inst.read_text(encoding="utf-8").strip()]) == code
    out = capsys.readouterr().out
    assert "method:  homomorphism-search" in out
    assert ("witness:" in out) == (code == 1)


def test_malformed_file_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 1\n", encoding="utf-8")
    assert main(["term-eq", "--matrix", str(bad), "x", "x"]) == 2


def test_reduce_names_the_line_of_an_out_of_range_edge(tmp_path, capsys):
    # endpoints are 1-based in the file; the blank and comment lines
    # count, so the message points at the line an editor shows
    gfile = tmp_path / "G.graph"
    gfile.write_text("3 2\n# a path\n1 2\n\n1 4\n", encoding="utf-8")
    assert main(["reduce", "3col", str(gfile)]) == 2
    assert capsys.readouterr().err == (
        "error: line 5: edge '1 4' has an endpoint outside 1..3\n")


@pytest.mark.parametrize("edges, message", [
    ("1 2\n2 3\n1 2\n", "line 4: edge '1 2' repeats line 2"),
    ("1 2\n3 3\n2 3\n", "line 3: edge '3 3' is a loop")])
def test_reduce_refuses_repeated_and_loop_edges(tmp_path, capsys, edges,
                                                message):
    gfile = tmp_path / "G.graph"
    gfile.write_text("3 3\n" + edges, encoding="utf-8")
    assert main(["reduce", "3col", str(gfile)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oversized_inputs_exit_2(i2_file, tmp_path, capsys):
    # a repetition past the word bound and a graph header with more than
    # m + 1 vertices are input errors, refused before they are built
    bound = r.words.MAX_WORD_LENGTH
    assert main(["term-eq", "--matrix", i2_file, "x", f"x^{bound + 1}"]) == 2
    assert capsys.readouterr().err == (
        f"error: 'x^{bound + 1}' makes the word longer than {bound} "
        "symbols\n")
    gfile = tmp_path / "G.graph"
    gfile.write_text("1000000 0\n", encoding="utf-8")
    assert main(["reduce", "3col", str(gfile)]) == 2
    assert capsys.readouterr().err == "error: graph must be connected\n"


def test_group_header_past_the_bound_exits_2(tmp_path, capsys):
    # the header's group is refused before its table is built
    bound = r.groups.MAX_GROUP_ORDER
    for name, order in ((f"cyclic{bound + 1}", bound + 1),
                        ("units67", 66), ("cyclic1000000", 10 ** 6)):
        path = tmp_path / f"{name}.mat"
        path.write_text(f"1 1 {name}\n1\n", encoding="utf-8")
        start = time.perf_counter()
        assert main(["term-eq", "--matrix", str(path), "x", "x"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: group order {order} exceeds the limit {bound}\n")
    # an order too long for int() is refused by its length
    path = tmp_path / "long.mat"
    path.write_text(f"1 1 units{'9' * 5000}\n1\n", encoding="utf-8")
    assert main(["term-eq", "--matrix", str(path), "x", "x"]) == 2
    assert capsys.readouterr().err == (
        f"error: units group order of 5000 digits exceeds the limit "
        f"{bound}\n")
    # gen rank1 checks its units group before it enumerates any line, and
    # before a trial division up to the square root of a large prime
    for p in (101, 10 ** 16 + 61):
        start = time.perf_counter()
        assert main(["gen", "rank1", str(p), "3"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: group order {p - 1} exceeds the limit {bound}\n")


def _gen_refusal(what: str) -> str:
    return (f"error: {what} exceeds the limit of "
            f"{r.matrices.MAX_GEN_LINES} lines\n")


@pytest.mark.parametrize("args,what", [
    (["identity", "513"], "identity(513)"),
    (["hollow", "513"], "hollow(513)"),
    (["all-ones", "1", "513"], "all_ones(1, 513)"),
    (["rank1", "2", "10"], "rank1_semigroup(2, 10)"),
    (["rank1", "23", "3"], "rank1_semigroup(23, 3)"),
])
def test_gen_past_the_line_bound_exits_2(capsys, args, what):
    # one line past the bound is refused before anything is allocated:
    # 1,023 and 553 lines for the rank-1 matrices
    assert r.matrices.MAX_GEN_LINES == 512
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["gen", *args])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and capsys.readouterr().err == _gen_refusal(what)
    assert elapsed < 1.0 and peak < 1 << 20, (elapsed, peak)


def test_gen_at_the_line_bound_builds(capsys):
    assert main(["gen", "hollow", "512"]) == 0
    assert capsys.readouterr().out.startswith("512 512\n0 1 1 ")
    assert main(["gen", "rank1", "2", "9"]) == 0
    assert capsys.readouterr().out.startswith("511 511\n")


def _capped_child():
    # 256 MB of address space and 5 s of CPU in the child alone: a missed
    # bound ends in a MemoryError or a kill, not a strained machine
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
    resource.setrlimit(resource.RLIMIT_CPU, (5, 5))


def _run_capped(*argv):
    src = os.path.dirname(os.path.dirname(r.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "reeseq.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          preexec_fn=_capped_child, capture_output=True,
                          text=True, timeout=30)


@pytest.mark.parametrize("args,what", [
    (["hollow", "20000"], "hollow(20000)"),
    (["identity", "20000"], "identity(20000)"),
    (["all-ones", "20000", "20000"], "all_ones(20000, 20000)"),
    (["rank1", "3", "12"], "rank1_semigroup(3, 12)"),
    (["rank1", "2", "100000000"], "rank1_semigroup(2, 100000000)"),
])
def test_gen_far_past_the_line_bound_exits_2_in_a_capped_child(args, what):
    done = _run_capped("gen", *args)
    assert (done.returncode, done.stderr) == (2, _gen_refusal(what))


def test_brute_check_past_the_table_budget_exits_2_in_a_capped_child(
        tmp_path):
    # I127's semigroup has 16,130 elements: one variable fits the default
    # budget, but the 2.6 x 10^8 products of the oracle's multiplication
    # table do not, and are refused before any is taken
    path = tmp_path / "I127.mat"
    path.write_text(r.format_matrix_file(r.identity(127)), encoding="utf-8")
    start = time.perf_counter()
    done = _run_capped("brute-check", "--matrix", str(path), "--op",
                       "pol-zero", "x")
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stderr) == (
        2, "error: 16130^2 = 260176900 products for the multiplication "
           "table exceed budget 10000000\n")
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("option", [["--brute"], ["--explain"],
                                    ["--format", "json"]])
def test_brute_check_refuses_the_verdict_options(i2_file, capsys, option):
    # brute-check always admits the search and prints plain text, so it
    # takes none of the options that would change that
    with pytest.raises(SystemExit) as exc:
        main(["brute-check", "--matrix", i2_file, "--op", "pol-zero",
              *option, "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and \
        f"unrecognized arguments: {option[0]}" in err


def test_brute_defaults_differ_between_library_and_cli(tmp_path, capsys):
    # the library admits homomorphism search on a general matrix by
    # default; the CLI refuses it without --brute
    H3 = r.hollow(3)
    p = r.parse_polynomial("x [1,1]", r.combinatorial(H3))
    assert r.pol_zero(H3, p).kind == "not-zero"
    path = tmp_path / "H3.mat"
    path.write_text(r.format_matrix_file(H3), encoding="utf-8")
    assert main(["pol-zero", "--matrix", str(path), "x [1,1]"]) == 2
    assert capsys.readouterr().err == (
        "error: pol-zero: no polynomial procedure for general matrices "
        "(neither totally balanced nor bordered); allow_brute (--brute) "
        "runs homomorphism search\n")


@pytest.fixture()
def foo_bar_graph(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("2 1\nfoo bar\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["gen", "hollow"],
    ["gen", "identity", "x"],
    ["reduce", "3col", "GRAPH"],
], ids=["gen-hollow-no-arg", "gen-identity-not-int", "reduce-bad-edge-line"])
def test_malformed_arguments_exit_2(argv, foo_bar_graph, capsys):
    argv = [foo_bar_graph if a == "GRAPH" else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_crash_exits_2_not_1(i2_file, monkeypatch, capsys):
    # exit 1 means a decided negative; an unexpected exception is not one
    def boom(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(r.decide, "term_eq", boom)
    assert main(["term-eq", "--matrix", i2_file, "x y", "y x"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# exit-code fuzz: 1 only for a printed negative verdict, never a traceback

_NEGATIVE = re.compile(r'^(verdict: |line \d+: |fast: +)(not-equal|not-zero|'
                       r'unsat)\b|"verdict": "(not-equal|not-zero|unsat)"',
                       re.MULTILINE)


@st.composite
def _word(draw):
    """A word over x, y, z and small constants; one time in five, one token
    is malformed or out of range."""
    tokens = draw(st.lists(st.sampled_from(["x", "y", "z", "x^2", "[1,1]",
                                            "[2,1]", "[1,2]"]),
                           min_size=1, max_size=6))
    if draw(st.sampled_from([False] * 4 + [True])):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(
            ["[3,3]", "[0,1]", "[1,1,2]", "x^0", "?"]))
    return " ".join(tokens)


_MATRICES = [r.identity(2), r.hollow(3), r.all_ones(2, 2),
             r.border(r.hollow(2)),
             r.matrix(((1, 1, 0), (0, 1, 1), (1, 0, 1))),
             r.matrix(((1, 1, 0), (0, 1, 1)))]


@st.composite
def _matrix_text(draw):
    """A small structure matrix file, broken in one of three ways one time
    in four."""
    text = r.format_matrix_file(draw(st.sampled_from(_MATRICES)))
    how = draw(st.sampled_from(["keep"] * 9 + ["cut", "header", "grid"]))
    if how == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    if how == "header":
        head = draw(st.sampled_from(["2", "2 2 cyclic2", "3 2", "2 2 nogroup",
                                     "a b"]))
        return head + text[text.index("\n"):]
    if how == "grid":
        m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        cell = st.integers(0, 2)
        rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                             min_size=m, max_size=m))
        return f"{m} {n}\n" + "".join(" ".join(map(str, row)) + "\n"
                                      for row in rows)
    return text


@st.composite
def _graph_text(draw):
    n = draw(st.integers(0, 5))
    edges = draw(st.lists(st.tuples(st.integers(0, n + 1),
                                    st.integers(0, n + 1)), max_size=8))
    head = draw(st.sampled_from([f"{n} {len(edges)}"] * 3
                                + [f"{n} {len(edges) + 1}", f"{n}", "n m"]))
    return head + "\n" + "".join(f"{a} {b}\n" for a, b in edges)


_ARITY = {"term-eq": 2, "pol-eq": 2, "zset-eq": 2, "pol-zero": 1,
          "pol-sat": 2, "brute-check": 2}


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(sorted(_ARITY) * 2 + [
        "analyze-matrix", "graph", "reduce", "gen"]))
    if cmd == "analyze-matrix":
        return [cmd, "MAT"] + draw(st.sampled_from([[], ["--format", "json"]]))
    if cmd == "reduce":
        return [cmd, "3col", "GRAPH"]
    if cmd == "gen":
        kind = draw(st.sampled_from(["identity", "hollow", "all-ones",
                                     "border", "direct-sum", "rank1",
                                     "shadow"]))
        return [cmd, kind] + draw(st.lists(
            st.sampled_from(["1", "2", "3", "0", "-1", "x", "MAT"]),
            max_size=3))
    if cmd == "graph":
        kind = draw(st.sampled_from(["adjacency", "bipartite", "identified"]))
        return [cmd, "--matrix", "MAT", "--kind", kind, draw(_word())]
    argv = [cmd, "--matrix", "MAT"]
    verdict_flags = ("--brute", "--explain")
    if cmd == "brute-check":
        argv += ["--op", draw(st.sampled_from(["term-eq", "pol-eq", "zset-eq",
                                               "pol-zero", "pol-sat"]))]
        verdict_flags = ()
    for flag in ("--adjoin-identity", *verdict_flags):
        if draw(st.booleans()):
            argv.append(flag)
    if verdict_flags and draw(st.booleans()):
        argv += ["--format", "json"]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--budget", draw(st.sampled_from(["-1", "0", "1", "50",
                                                   "100000"]))]
    count = draw(st.sampled_from([_ARITY[cmd]] * 4 + [0, 1, 3]))
    words = [draw(_word()) for _ in range(count)]
    if cmd in ("pol-sat", "brute-check") and count == 2:
        words[1] = draw(st.sampled_from(["0", "1", "[1,1]", "[2,1]", "[2,3]",
                                         "x", words[1]]))
    return argv + words


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv(), mat=_matrix_text(), graph=_graph_text())
def test_exit_codes_fuzz(tmp_path, capsys, argv, mat, graph):
    # MAT and GRAPH in argv stand for the generated files
    files = {"MAT": tmp_path / "fuzz.mat", "GRAPH": tmp_path / "fuzz.graph"}
    files["MAT"].write_text(mat, encoding="utf-8")
    files["GRAPH"].write_text(graph, encoding="utf-8")
    argv = [str(files[a]) if a in files else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err, (argv, err)
    assert "error: internal" not in err, (argv, err)
    assert "DISAGREEMENT" not in err, argv
    if code == 1:
        assert _NEGATIVE.search(out), (argv, out)
