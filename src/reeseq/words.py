"""Terms and polynomials over a Rees matrix semigroup.

A polynomial is a nonempty word of symbols; a symbol is either a variable or
a nonzero, non-identity constant of the semigroup.  A term is a polynomial
without constants.

Concrete syntax (whitespace-separated tokens):

    word   := symbol+
    symbol := IDENT | '[' INT ',' INT ']' | '[' INT ',' INT ',' INT ']'
    IDENT  := letter (letter | digit | '_' | '#' | '.' | "'")*

A postfix '^' INT on any symbol abbreviates repetition.  The three-component
constant form carries a 1-based group element index and is only accepted over
non-combinatorial semigroups.  The zero and the adjoined identity are not
expressible in source text; they arise only through evaluation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .core import (Element, ReesSemigroup, element_str,
                   transpose_element, triple)
from .errors import (EmptyWordError, InvalidElementError,
                     MissingAssignmentError, ParseError)


@dataclass(frozen=True)
class Symbol:
    kind: str  # "var" | "const"
    name: str = ""
    elem: Element | None = None

    @property
    def is_var(self) -> bool:
        return self.kind == "var"

    def __repr__(self):
        return self.name if self.is_var else repr(self.elem)


def var(name: str) -> Symbol:
    return Symbol("var", name=name)


def const(elem: Element) -> Symbol:
    if elem.kind != "triple":
        raise InvalidElementError("constants must be nonzero, non-identity elements")
    return Symbol("const", elem=elem)


@dataclass(frozen=True)
class Polynomial:
    word: tuple[Symbol, ...]

    def __post_init__(self):
        if not self.word:
            raise EmptyWordError("polynomials are nonempty words")

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_term(self) -> bool:
        return all(s.is_var for s in self.word)

    @cached_property
    def variables(self) -> tuple[str, ...]:
        """Variable names in first-occurrence order."""
        seen = []
        for s in self.word:
            if s.is_var and s.name not in seen:
                seen.append(s.name)
        return tuple(seen)

    @cached_property
    def constants(self) -> tuple[Element, ...]:
        seen = []
        for s in self.word:
            if not s.is_var and s.elem not in seen:
                seen.append(s.elem)
        return tuple(seen)

    @property
    def leftmost(self) -> Symbol:
        return self.word[0]

    @property
    def rightmost(self) -> Symbol:
        return self.word[-1]

    def __str__(self):
        return polynomial_str(self)


def poly(*symbols) -> Polynomial:
    return Polynomial(tuple(symbols))


def word_of(names: str) -> Polynomial:
    """Term from a whitespace-separated run of variable names."""
    return Polynomial(tuple(var(t) for t in names.split()))


def instance_size(*polys: Polynomial) -> int:
    """Size of a problem instance: the lengths of its words, added up."""
    return sum(p.length for p in polys)


# ---------------------------------------------------------------------------
# Parsing and printing

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_#.']*")
_CONST = re.compile(r"\[(\d+),(\d+)(?:,(\d+))?\]")
_TOKEN = re.compile(rf"({_CONST.pattern}|{_IDENT.pattern})(?:\^(\d+))?$")


def parse_polynomial(text: str, S: ReesSemigroup) -> Polynomial:
    """Parse a word, validating constants against S's matrix and group."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty polynomial")
    out: list[Symbol] = []
    for tok in tokens:
        m = _TOKEN.fullmatch(tok)
        if not m:
            raise ParseError(f"bad token {tok!r}")
        body = m.group(1)
        reps = int(m.group(5)) if m.group(5) else 1
        if reps < 1:
            raise ParseError(f"repetition must be positive in {tok!r}")
        cm = _CONST.fullmatch(body)
        if cm:
            i, lam = int(cm.group(1)), int(cm.group(2))
            g = int(cm.group(3)) if cm.group(3) else 1
            if cm.group(3) and S.is_combinatorial:
                raise ParseError(f"group component in {tok!r} over a "
                                 "combinatorial semigroup")
            if not (1 <= i <= S.n and 1 <= lam <= S.m and 1 <= g <= S.group.order):
                raise ParseError(f"constant {tok!r} out of range for "
                                 f"{S.m}x{S.n} matrix")
            sym = const(triple(i - 1, g - 1, lam - 1))
        else:
            sym = var(body)
        out.extend([sym] * reps)
    return Polynomial(tuple(out))


def polynomial_str(p: Polynomial, show_group: bool = False) -> str:
    return " ".join(s.name if s.is_var else element_str(s.elem, show_group)
                    for s in p.word)


# ---------------------------------------------------------------------------
# Evaluation

@dataclass(frozen=True)
class Evaluation:
    """A total assignment of semigroup elements to variable names.

    Thin wrapper over a mapping; exists mainly so witnesses print uniformly.
    """
    assignment: tuple[tuple[str, Element], ...]

    @staticmethod
    def of(mapping) -> "Evaluation":
        return Evaluation(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, Element]:
        return dict(self.assignment)

    def __str__(self):
        return ", ".join(f"{k} = {element_str(v)}" for k, v in self.assignment)


def evaluate(S: ReesSemigroup, p: Polynomial, assignment) -> Element:
    """Substitute elements for variables and fold the word left to right."""
    if isinstance(assignment, Evaluation):
        assignment = assignment.as_dict()
    for name in p.variables:
        if name not in assignment:
            raise MissingAssignmentError(f"variable {name!r} unassigned")
        S.check_element(assignment[name])
    return S.product(assignment[s.name] if s.is_var else s.elem
                     for s in p.word)


def validate_polynomial(S: ReesSemigroup, p: Polynomial) -> None:
    for e in p.constants:
        S.check_element(e)


# ---------------------------------------------------------------------------
# Structural operations

def substitute(p: Polynomial, mapping: dict[str, Polynomial]) -> Polynomial:
    """Replace each occurrence of a mapped variable by its word."""
    out: list[Symbol] = []
    for s in p.word:
        if s.is_var and s.name in mapping:
            out.extend(mapping[s.name].word)
        else:
            out.append(s)
    return Polynomial(tuple(out))


def substitute_elements(p: Polynomial, partial: dict[str, Element]) -> Polynomial:
    """Replace mapped variables by constant symbols (a partial evaluation)."""
    return substitute(p, {k: poly(const(v)) for k, v in partial.items()})


def eliminate_variable(p: Polynomial, name: str) -> Polynomial:
    kept = tuple(s for s in p.word if not (s.is_var and s.name == name))
    if not kept:
        raise EmptyWordError(f"eliminating {name!r} empties the word")
    return Polynomial(kept)


def left_sequencing(p: Polynomial) -> tuple[str, ...]:
    """Variables in order of first appearance scanning left to right."""
    return p.variables


def right_sequencing(p: Polynomial) -> tuple[str, ...]:
    seen = []
    for s in reversed(p.word):
        if s.is_var and s.name not in seen:
            seen.append(s.name)
    return tuple(seen)


def transpose_polynomial(p: Polynomial) -> Polynomial:
    """Mirror of p over the transposed semigroup.

    Transposition is an anti-isomorphism, so the word is reversed as well as
    having each constant transposed; evaluations then transfer verbatim.
    """
    out = tuple(s if s.is_var else const(transpose_element(s.elem))
                for s in reversed(p.word))
    return Polynomial(out)


def permute_polynomial(p: Polynomial, row_perm, col_perm) -> Polynomial:
    """Rewrite constants through a row/column relabeling of the matrix.

    row_perm[lam] and col_perm[i] give the new 0-based indices.
    """
    out = []
    for s in p.word:
        if s.is_var:
            out.append(s)
        else:
            e = s.elem
            out.append(const(triple(col_perm[e.i], e.g, row_perm[e.lam])))
    return Polynomial(tuple(out))


# ---------------------------------------------------------------------------
# Instance files: one polynomial per line, or "EQ p | q" pair lines.

def parse_instance_lines(text: str):
    """Yield ("pol", text) or ("eq", left, right) records."""
    out = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("EQ "):
            body = ln[3:]
            if "|" not in body:
                raise ParseError(f"EQ line without '|': {ln!r}")
            left, right = body.split("|", 1)
            out.append(("eq", left.strip(), right.strip()))
        else:
            out.append(("pol", ln))
    return out
