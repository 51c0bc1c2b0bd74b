"""Terms and polynomials over a Rees matrix semigroup.

A polynomial is a nonempty word of symbols; a symbol is either a variable or
a nonzero, non-identity constant of the semigroup.  A term is a polynomial
without constants.

Concrete syntax (whitespace-separated tokens):

    word   := symbol+
    symbol := IDENT | '[' INT ',' INT ']' | '[' INT ',' INT ',' INT ']'
    IDENT  := letter (letter | digit | '_' | '#' | '.' | "'")*

A postfix '^' INT on any symbol abbreviates repetition.  The three-component
constant form [i,g,lam] carries a 1-based group element index in the middle,
as elements print, and is only accepted over non-combinatorial semigroups.
The zero and the adjoined identity are not expressible in source text; they
arise only through evaluation.

A Polynomial reads its variables and constants off the word in its
constructor, in one loop, and keeps them in derived slots, so every word
pays for them once and no read computes anything.  One thing is cached:
parsing looks each token's text up in a table of TOKEN_TABLE_SIZE entries,
shared by every parse in the process, that holds what the text alone says:
the symbol, whether it names a group component, and the repetition count.
What depends on the semigroup, the range and group checks of a constant,
runs on every parse, and a token that fails to parse is never kept.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .core import (Element, ReesSemigroup, element_str,
                   transpose_element, triple)
from .errors import (EmptyWordError, InvalidElementError,
                     MissingAssignmentError, ParseError)
from .frozen import Frozen, slot_setters


class Symbol(Frozen):
    # kind: "var" | "const"; is_var, read in every inner loop, is set once
    __slots__ = ("kind", "name", "elem", "is_var")

    def __init__(self, kind: str, name: str = "", elem: Element | None = None):
        _set_kind(self, kind)
        _set_name(self, name)
        _set_elem(self, elem)
        _set_is_var(self, kind == "var")

    def __eq__(self, other):
        if type(other) is not Symbol:
            return NotImplemented
        return ((self.kind, self.name, self.elem)
                == (other.kind, other.name, other.elem))

    def __hash__(self):
        return hash((self.kind, self.name, self.elem))

    def __repr__(self):
        return self.name if self.is_var else repr(self.elem)


_set_kind, _set_name, _set_elem, _set_is_var = slot_setters(Symbol)


def var(name: str) -> Symbol:
    return Symbol("var", name)


def const(elem: Element) -> Symbol:
    if elem.kind != "triple":
        raise InvalidElementError("constants must be nonzero, non-identity elements")
    return Symbol("const", "", elem)


class Polynomial(Frozen):
    # _variables and _constants are derived slots, read off the word once
    __slots__ = ("word", "_variables", "_constants")

    def __init__(self, word: tuple[Symbol, ...]):
        if not word:
            raise EmptyWordError("polynomials are nonempty words")
        _set_word(self, word)
        names, elems = {}, {}  # ordered sets, by first occurrence
        for s in word:
            if s.is_var:
                names[s.name] = None
            else:
                elems[s.elem] = None
        _set_variables(self, tuple(names))
        _set_constants(self, tuple(elems))

    def __eq__(self, other):
        if type(other) is not Polynomial:
            return NotImplemented
        return self.word == other.word

    def __hash__(self):
        return hash((self.word,))

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_term(self) -> bool:
        return not self._constants

    @property
    def variables(self) -> tuple[str, ...]:
        """Variable names in first-occurrence order."""
        return self._variables

    @property
    def constants(self) -> tuple[Element, ...]:
        """Distinct constants in first-occurrence order."""
        return self._constants

    @property
    def leftmost(self) -> Symbol:
        return self.word[0]

    @property
    def rightmost(self) -> Symbol:
        return self.word[-1]

    def __str__(self):
        return polynomial_str(self)


_set_word, _set_variables, _set_constants = slot_setters(Polynomial)

def poly(*symbols) -> Polynomial:
    return Polynomial(tuple(symbols))


def word_of(names: str) -> Polynomial:
    """Term from a whitespace-separated run of variable names."""
    return Polynomial(tuple(var(t) for t in names.split()))


# ---------------------------------------------------------------------------
# Parsing and printing

# a constant's coordinates [i,g,lam] are groups 1-3 (g optional), a
# variable's name group 4 and the repetition count group 5
_TOKEN = re.compile(r"(?:\[(\d+),(?:(\d+),)?(\d+)\]"
                    r"|([A-Za-z_][A-Za-z0-9_#.']*))(?:\^(\d+))?")


# the token table's bound: far above the distinct tokens of a vocabulary of
# variable names and a few constants
TOKEN_TABLE_SIZE = 1024

# the longest word a parse builds: far above the words of the tests, the
# bench and reduce 3col on small graphs (hundreds to a few thousand
# symbols), and far below what exhausts memory
MAX_WORD_LENGTH = 10 ** 6


def parse_polynomial(text: str, S: ReesSemigroup) -> Polynomial:
    """Parse a word, validating constants against S's matrix and group.

    A token's symbol and repetition count come from the token table
    (_token); each constant is checked against S here, on every parse.  A
    repetition that would make the word longer than MAX_WORD_LENGTH is
    refused before it is expanded.
    """
    tokens = text.split()
    if not tokens:
        raise ParseError("empty polynomial")
    out: list[Symbol] = []
    for tok in tokens:
        sym, grouped, reps = _token(tok)
        if not sym.is_var:
            _check_constant(tok, sym.elem, grouped, S)
        if len(out) + reps > MAX_WORD_LENGTH:
            raise ParseError(f"{tok!r} makes the word longer than "
                             f"{MAX_WORD_LENGTH} symbols")
        if reps > 1:
            out += [sym] * (reps - 1)
        out.append(sym)
    return Polynomial(tuple(out))


@lru_cache(maxsize=TOKEN_TABLE_SIZE)
def _token(tok: str) -> tuple[Symbol, bool, int]:
    """What a token's text says without a semigroup: its symbol, whether
    it names a group component, and its repetition count.  A constant's
    coordinates are read as they are written, out of range or not."""
    m = _TOKEN.fullmatch(tok)
    if not m:
        raise ParseError(f"bad token {tok!r}")
    i, g, lam, name, reps = m.groups()
    # a count with more digits than MAX_WORD_LENGTH is past it, and is not
    # converted: int() refuses the longest digit strings
    digits = (reps or "1").lstrip("0") or "0"
    reps = (MAX_WORD_LENGTH + 1 if len(digits) > len(str(MAX_WORD_LENGTH))
            else int(digits))
    if reps < 1:
        raise ParseError(f"repetition must be positive in {tok!r}")
    if name is not None:
        return var(name), False, reps
    e = triple(int(i) - 1, int(g) - 1 if g else 0, int(lam) - 1)
    return const(e), g is not None, reps


def _check_constant(tok: str, e: Element, grouped: bool,
                    S: ReesSemigroup) -> None:
    """The checks of the constant e, written as tok, against S."""
    if grouped and S.is_combinatorial:
        raise ParseError(f"group component in {tok!r} over a "
                         "combinatorial semigroup")
    try:
        S.check_element(e)
    except InvalidElementError:
        raise ParseError(f"constant {tok!r} out of range for "
                         f"{S.m}x{S.n} matrix") from None


def polynomial_str(p: Polynomial) -> str:
    return " ".join(s.name if s.is_var else element_str(s.elem)
                    for s in p.word)


# ---------------------------------------------------------------------------
# Evaluation

class Evaluation(Frozen):
    """A total assignment of semigroup elements to variable names.

    Thin wrapper over a mapping; exists mainly so witnesses print uniformly.
    """
    __slots__ = ("assignment",)

    def __init__(self, assignment: tuple[tuple[str, Element], ...]):
        _set_assignment(self, assignment)

    def __eq__(self, other):
        if type(other) is not Evaluation:
            return NotImplemented
        return self.assignment == other.assignment

    def __hash__(self):
        return hash((self.assignment,))

    @staticmethod
    def of(mapping) -> "Evaluation":
        return Evaluation(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, Element]:
        return dict(self.assignment)

    def __str__(self):
        return ", ".join(f"{k} = {element_str(v)}" for k, v in self.assignment)


_set_assignment, = slot_setters(Evaluation)

def evaluate(S: ReesSemigroup, p: Polynomial, assignment) -> Element:
    """Substitute elements for variables and fold the word left to right.

    Every assigned value and every constant is checked against S here, once,
    so the fold itself checks nothing.
    """
    if isinstance(assignment, Evaluation):
        assignment = assignment.as_dict()
    for name in p.variables:
        if name not in assignment:
            raise MissingAssignmentError(f"variable {name!r} unassigned")
        S.check_element(assignment[name])
    validate_polynomial(S, p)
    return S.product([assignment[s.name] if s.is_var else s.elem
                      for s in p.word])


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


def eliminate_variables(p: Polynomial, names) -> Polynomial | None:
    """Drop every occurrence of the named variables, as an identity value
    would; None when nothing is left."""
    # a list first: CPython resizes a tuple grown from a generator, and a
    # process that calls this often then keeps ever more of them on the
    # tuple free lists
    kept = [s for s in p.word if not (s.is_var and s.name in names)]
    return Polynomial(tuple(kept)) if kept else None


def left_sequencing(p: Polynomial) -> tuple[str, ...]:
    """Variables in order of first appearance scanning left to right."""
    return p.variables


def right_sequencing(p: Polynomial) -> tuple[str, ...]:
    """Variables in order of first appearance scanning right to left."""
    return tuple(list(dict.fromkeys([s.name for s in reversed(p.word)
                                     if s.is_var])))


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
