"""Command-line interface: verdict output, exit codes, file tooling."""

import json

import pytest

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


def test_zset_eq(i2_file):
    assert main(["zset-eq", "--matrix", i2_file,
                 "[1,1] u^2 [1,1]", "[1,1] u [1,1]"]) == 0


def test_adjoin_identity_flag(i2_file):
    assert main(["term-eq", "--matrix", i2_file, "--adjoin-identity",
                 "x y x", "x x y"]) == 1


def test_brute_check_agreement(i2_file, capsys):
    assert main(["brute-check", "--matrix", i2_file, "--op", "term-eq",
                 "x x y y", "y y x x"]) == 0
    assert "agree" in capsys.readouterr().out


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


def test_malformed_file_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 1\n", encoding="utf-8")
    assert main(["term-eq", "--matrix", str(bad), "x", "x"]) == 2
