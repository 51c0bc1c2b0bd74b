"""Count the code lines of each module of a reeseq source tree.

    python3 tools/loc.py [TREE]

TREE is a source tree holding src/reeseq, or reeseq itself (default: this
repository).  A code line is a line that holds a token of code: blank
lines, comment lines and the lines of module, class and function
docstrings are not counted.  A line that holds code and a trailing comment
counts.  Prints one line per module, `count path`, then the total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def package_dir(tree: str) -> str:
    for path in (os.path.join(tree, "src", "reeseq"),
                 os.path.join(tree, "reeseq")):
        if os.path.isfile(os.path.join(path, "__init__.py")):
            return path
    raise SystemExit(f"error: no reeseq package under {tree}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    pkg = package_dir(args[0] if args else ROOT)
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{count:6d} {name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
