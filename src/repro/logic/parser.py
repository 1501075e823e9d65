"""A small recursive-descent parser for the textual formula syntax.

The grammar accepted (case-insensitive keywords)::

    formula    :=  or_expr
    or_expr    :=  and_expr  (OR and_expr)*
    and_expr   :=  unary     (AND unary)*
    unary      :=  NOT unary
                |  (EXISTS|FORALL|EXISTSADOM|FORALLADOM) ident+ "." unary
                |  atom
    atom       :=  TRUE | FALSE
                |  ident "(" term ("," term)* ")"        -- relation atom
                |  term (cmp term)+                       -- chained comparisons
                |  "(" formula ")"
    term       :=  usual arithmetic with + - * ^ and rational literals  "3/4"

Chained comparisons such as ``0 <= x < y <= 1`` are expanded into a
conjunction.  The printer (:mod:`repro.logic.printer`) emits this syntax,
so ``parse(str(phi))`` round-trips.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .formulas import (
    Compare,
    Exists,
    ExistsAdom,
    FALSE,
    Forall,
    ForallAdom,
    Formula,
    RelAtom,
    TRUE,
    conjunction,
    disjunction,
)
from .terms import Add, Const, Mul, Neg, Pow, Term, Var
from .._errors import ReproError

__all__ = ["parse", "parse_term", "ParseError"]


class ParseError(ReproError, ValueError):
    """Raised when the input text is not a well-formed formula or term.

    Also a :class:`ValueError` for backwards compatibility with callers
    that predate the :class:`ReproError` hierarchy.
    """


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|!=|<|>|=|\+|-|\*|\^|\(|\)|,|\.))"
)

_KEYWORDS = {
    "AND",
    "OR",
    "NOT",
    "TRUE",
    "FALSE",
    "EXISTS",
    "FORALL",
    "EXISTSADOM",
    "FORALLADOM",
}

_QUANTIFIER_NODE = {
    "EXISTS": Exists,
    "FORALL": Forall,
    "EXISTSADOM": ExistsAdom,
    "FORALLADOM": ForallAdom,
}

_CMP_OPS = {"<", "<=", "=", "!=", ">=", ">"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ParseError(f"unexpected input at: {remainder[:20]!r}")
        pos = match.end()
        if match.group("number") is not None:
            tokens.append(("number", match.group("number")))
        elif match.group("ident") is not None:
            word = match.group("ident")
            if word.upper() in _KEYWORDS:
                tokens.append(("keyword", word.upper()))
            else:
                tokens.append(("ident", word))
        else:
            tokens.append(("op", match.group("op")))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token helpers -----------------------------------------------------
    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, value: str | None = None) -> str:
        token_kind, token_value = self.peek()
        if token_kind != kind or (value is not None and token_value != value):
            expected = value if value is not None else kind
            raise ParseError(f"expected {expected!r}, got {token_value!r}")
        self.advance()
        return token_value

    # -- formulas ----------------------------------------------------------
    def formula(self) -> Formula:
        return self.or_expr()

    def or_expr(self) -> Formula:
        parts = [self.and_expr()]
        while self.peek() == ("keyword", "OR"):
            self.advance()
            parts.append(self.and_expr())
        return disjunction(*parts) if len(parts) > 1 else parts[0]

    def and_expr(self) -> Formula:
        parts = [self.unary()]
        while self.peek() == ("keyword", "AND"):
            self.advance()
            parts.append(self.unary())
        return conjunction(*parts) if len(parts) > 1 else parts[0]

    def unary(self) -> Formula:
        kind, value = self.peek()
        if kind == "keyword" and value == "NOT":
            self.advance()
            return ~self.unary()
        if kind == "keyword" and value in _QUANTIFIER_NODE:
            self.advance()
            node = _QUANTIFIER_NODE[value]
            names = [self.expect("ident")]
            while self.peek()[0] == "ident":
                names.append(self.expect("ident"))
            self.expect("op", ".")
            body = self.unary()
            for name in reversed(names):
                body = node(name, body)
            return body
        return self.atom()

    def atom(self) -> Formula:
        kind, value = self.peek()
        if kind == "keyword" and value == "TRUE":
            self.advance()
            return TRUE
        if kind == "keyword" and value == "FALSE":
            self.advance()
            return FALSE
        if kind == "ident" and self.tokens[self.pos + 1] == ("op", "("):
            return self.rel_atom()
        if kind == "op" and value == "(":
            # Ambiguous: parenthesized formula or parenthesized term in a
            # comparison.  Try the comparison reading first, backtrack on
            # failure.
            saved = self.pos
            try:
                return self.comparison()
            except ParseError:
                self.pos = saved
            self.advance()
            inner = self.formula()
            self.expect("op", ")")
            return inner
        return self.comparison()

    def rel_atom(self) -> Formula:
        name = self.expect("ident")
        self.expect("op", "(")
        args = [self.term()]
        while self.peek() == ("op", ","):
            self.advance()
            args.append(self.term())
        self.expect("op", ")")
        return RelAtom(name, tuple(args))

    def comparison(self) -> Formula:
        left = self.term()
        atoms: list[Formula] = []
        while True:
            kind, value = self.peek()
            if kind == "op" and value in _CMP_OPS:
                self.advance()
                right = self.term()
                atoms.append(Compare(value, left, right))
                left = right
            else:
                break
        if not atoms:
            raise ParseError("expected a comparison operator")
        return conjunction(*atoms) if len(atoms) > 1 else atoms[0]

    # -- terms ---------------------------------------------------------------
    def term(self) -> Term:
        return self.add_expr()

    def add_expr(self) -> Term:
        parts = [self.mul_expr()]
        while True:
            kind, value = self.peek()
            if kind == "op" and value == "+":
                self.advance()
                parts.append(self.mul_expr())
            elif kind == "op" and value == "-":
                self.advance()
                parts.append(Neg(self.mul_expr()))
            else:
                break
        return Add(tuple(parts)) if len(parts) > 1 else parts[0]

    def mul_expr(self) -> Term:
        parts = [self.pow_expr()]
        while self.peek() == ("op", "*"):
            self.advance()
            parts.append(self.pow_expr())
        return Mul(tuple(parts)) if len(parts) > 1 else parts[0]

    def pow_expr(self) -> Term:
        base = self.unary_term()
        if self.peek() == ("op", "^"):
            self.advance()
            kind, value = self.advance()
            if kind != "number" or "/" in value:
                raise ParseError("exponent must be a non-negative integer")
            return Pow(base, int(value))
        return base

    def unary_term(self) -> Term:
        kind, value = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            # A negated literal is a negative constant, not Neg(Const),
            # so printed constants like (-3/7) round-trip structurally.
            next_kind, next_value = self.peek()
            if next_kind == "number":
                self.advance()
                return Const(-Fraction(next_value))
            return Neg(self.unary_term())
        return self.atom_term()

    def atom_term(self) -> Term:
        kind, value = self.advance()
        if kind == "number":
            return Const(Fraction(value))
        if kind == "ident":
            return Var(value)
        if kind == "op" and value == "(":
            inner = self.term()
            self.expect("op", ")")
            return inner
        raise ParseError(f"expected a term, got {value!r}")


def parse(text: str) -> Formula:
    """Parse *text* into a :class:`~repro.logic.formulas.Formula`."""
    return _parse_all(text, _Parser.formula)


def parse_term(text: str) -> Term:
    """Parse *text* into a :class:`~repro.logic.terms.Term`."""
    return _parse_all(text, _Parser.term)


def _parse_all(text: str, rule):
    """Run the parser *rule* over all of *text*; input nested deeper than
    the interpreter's recursion limit is a :class:`ParseError`."""
    parser = _Parser(text)
    try:
        result = rule(parser)
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    if parser.peek()[0] != "eof":
        raise ParseError(f"trailing input: {parser.peek()[1]!r}")
    return result
