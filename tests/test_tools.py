"""Smoke tests of the measurement scripts under tools/."""

import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, *args):
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", script),
                           *args], capture_output=True, text=True, cwd=ROOT,
                          timeout=120)


def test_ab_inprocess_runs_one_tree_against_itself():
    out = _run("ab_inprocess.py", ROOT, ROOT, "--workload", "fanout",
               "--seed", "3", "5", "--seconds", "0.2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    # each seed's pool in turn, with its own tables and mean ratios
    starts = [k for k, ln in enumerate(lines) if ln.startswith("fanout seed")]
    assert [lines[k] for k in starts] == [
        f"fanout seed {seed}: 136 instances, 0 with differing (kind, "
        "method, witness, detail)" for seed in (3, 5)]
    for part in (lines[starts[0]:starts[1]], lines[starts[1]:-1]):
        assert "order A,B:" in part[1] and "order B,A:" in " ".join(part)
        assert part[-1].startswith("ratio A/B, mean of the two orders:")
        # each op's ratio too, as the mean of both orders
        means = part[part.index("mean of both orders:") + 1:-1]
        assert [ln.split()[0] for ln in means] == [
            "pol-eq", "pol-sat", "pol-zero", "term-eq", "zset-eq"]
        assert all(ln.split()[1] == "ratio" for ln in means)
    # then one line of every seed's total ratio
    assert re.fullmatch(r"ratio A/B by seed: 3 \d+\.\d{3}, 5 \d+\.\d{3}",
                        lines[-1])


def test_ab_inprocess_reports_differing_detail_rows(tmp_path):
    # a tree whose detail rows alone differ (one row's text, read by the
    # balanced zset-eq and pol-eq verdicts of the fanout pool) is reported,
    # and the tool exits 1
    src = os.path.join(ROOT, "src", "reeseq")
    dst = tmp_path / "reeseq"
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
    decide = dst / "decide.py"
    text = decide.read_text(encoding="utf-8")
    assert text.count('"agree on every slice"') == 2
    decide.write_text(text.replace('"agree on every slice"',
                                   '"agree on all slices"'), encoding="utf-8")
    out = _run("ab_inprocess.py", ROOT, str(tmp_path), "--workload",
               "fanout", "--seed", "3", "--seconds", "0.2")
    assert out.returncode == 1, out.stderr
    assert "136 instances, 0 with" not in out.stdout
    assert "with differing (kind, method, witness, detail)" in out.stdout


def test_engine_curves_cover_both_axes():
    out = _run("engine_curves.py", ROOT, ROOT, "--reps", "1", "--count", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert sum(line.lstrip().startswith(tuple(f"{k} / " for k in range(3, 13)))
               for line in lines) == 10
    sigma = lines.index(next(x for x in lines if x.startswith("sigma size")))
    assert len(lines) - sigma - 1 == 6  # 3..8 vertices


def test_loc_counts_code_lines_only(tmp_path):
    # blank lines, comments and module, class and function docstrings are
    # not code; a line of code with a trailing comment is, and so is each
    # line of a statement that spans several
    pkg = tmp_path / "reeseq"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""Package."""\n', encoding="utf-8")
    (pkg / "mod.py").write_text('''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """A class docstring."""

    x = ("a string, not a docstring",
         os.sep)

    def f(self):
        """A function
        docstring."""
        return 1
''', encoding="utf-8")
    out = _run("loc.py", str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == [
        "     0 __init__.py", "     6 mod.py", "     6 total", ""]
