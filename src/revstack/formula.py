"""Textual grammar for objective formulas.

Tokens: decimal numbers (optional fraction/exponent), variables
``u<level>_<index>`` (or ``u<level>`` when that level is scalar), operators
``+ - * ^`` and parentheses.  Precedence, tightest first: ``^`` (integer
exponents only, right-associative), unary minus, ``*``, then ``+``/``-``.
The parser expands as it reads: every constant, variable, sum, product,
power and negation becomes the plain terms of its polynomial, and the
formula's :class:`~revstack.model.Polynomial` is built once, at the end.
``-2`` is the constant 2 with its coefficient negated.
"""

from __future__ import annotations

import functools
import math
import re
from typing import List, Optional, Tuple

from .errors import DocumentError, FormulaError, RevstackError, UnknownVariableError
from .model import Dims, Polynomial, _merged, _power, _product, _sum, _Terms

__all__ = ["parse_formula"]

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>u\d+(?:_\d+)?)"
    r"|(?P<op>[-+*^()])"
    r")"
)

_MAX_EXPONENT = 1_000_000


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: List[Tuple[str, str, int]] = []  # (kind, value, position)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise FormulaError(
                    "unexpected character %r" % text[at], column=at + 1
                )
            if m.group("number") is not None:
                self.items.append(("number", m.group("number"), m.start("number")))
            elif m.group("ident") is not None:
                self.items.append(("ident", m.group("ident"), m.start("ident")))
            else:
                self.items.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.at = 0

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.items[self.at] if self.at < len(self.items) else None

    def next(self) -> Tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of formula", column=len(self.text) + 1)
        self.at += 1
        return tok


def _too_large(tok: Tuple[str, str, int]) -> FormulaError:
    return FormulaError("exponent is unreasonably large (limit %d)" % _MAX_EXPONENT,
                        column=tok[2] + 1)


def _negated(terms: _Terms) -> _Terms:
    keys, rows, coefs = terms
    return keys, rows, [-coef for coef in coefs]


class _Parser:
    """Recursive descent; each rule returns the plain terms of what it read.
    Sums and products combine their terms once all are read, left to right."""

    def __init__(self, text: str, dims: Dims):
        self.tokens = _Tokens(text)
        self.dims = dims

    def parse(self) -> _Terms:
        terms = self.expr()
        left = self.tokens.peek()
        if left is not None:
            raise FormulaError("trailing input %r" % left[1], column=left[2] + 1)
        return terms

    def expr(self) -> _Terms:
        terms = [self.term()]
        while True:
            tok = self.tokens.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                break
            self.tokens.next()
            nxt = self.term()
            terms.append(_negated(nxt) if tok[1] == "-" else nxt)
        return terms[0] if len(terms) == 1 else _sum(terms)

    def term(self) -> _Terms:
        factors = [self.factor()]
        while True:
            tok = self.tokens.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                break
            self.tokens.next()
            factors.append(self.factor())
        return functools.reduce(_product, factors)

    def factor(self) -> _Terms:
        tok = self.tokens.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.tokens.next()
            return _negated(self.factor())
        return self.power()

    def power(self) -> _Terms:
        base = self.atom()
        tok = self.tokens.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.tokens.next()
            return _power(base, self.exponent())
        return base

    def exponent(self) -> int:
        tok = self.tokens.next()
        if tok[0] != "number" or not tok[1].isdigit():
            raise FormulaError(
                "exponent must be a positive integer, got %r" % tok[1],
                column=tok[2] + 1,
            )
        if len(tok[1].lstrip("0")) > len(str(_MAX_EXPONENT)):
            raise _too_large(tok)
        value = int(tok[1])
        if value < 1:
            raise FormulaError("exponent must be >= 1", column=tok[2] + 1)
        nxt = self.tokens.peek()
        if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
            self.tokens.next()
            inner = self.exponent()  # right-associative chain, already bounded
            # value >= 2 gives value**inner >= 2**inner, past the limit from here on
            if value > 1 and inner >= _MAX_EXPONENT.bit_length():
                raise _too_large(tok)
            value = value ** inner
        if value > _MAX_EXPONENT:
            raise _too_large(tok)
        return value

    def atom(self) -> _Terms:
        tok = self.tokens.next()
        kind, text, pos = tok
        if kind == "number":
            value = float(text)
            if not math.isfinite(value):
                raise FormulaError("number overflows a double", column=pos + 1)
            return _merged((), [()], [value])
        if kind == "ident":
            return self.variable(text, pos)
        if kind == "op" and text == "(":
            inner = self.expr()
            close = self.tokens.next()
            if close[0] != "op" or close[1] != ")":
                raise FormulaError("expected ')'", column=close[2] + 1)
            return inner
        raise FormulaError("unexpected token %r" % text, column=pos + 1)

    def variable(self, text: str, pos: int) -> _Terms:
        if "_" in text:
            lev_s, idx_s = text[1:].split("_")
            level, index = int(lev_s), int(idx_s)
        else:
            level, index = int(text[1:]), 1
        if not 1 <= level <= self.dims.levels:
            raise UnknownVariableError(
                "variable %r: the hierarchy has levels 1..%d"
                % (text, self.dims.levels),
                column=pos + 1,
            )
        width = self.dims.m[level - 1]
        if "_" not in text and width != 1:
            raise FormulaError(
                "%r is ambiguous: level %d has width %d; write u%d_<index>"
                % (text, level, width, level),
                column=pos + 1,
            )
        if not 1 <= index <= width:
            raise UnknownVariableError(
                "variable %r: level %d has width %d" % (text, level, width),
                column=pos + 1,
            )
        return ((level, index),), [(1,)], [1.0]


def parse_formula(text: str, dims: Dims) -> Polynomial:
    """The polynomial of a formula over a hierarchy shape.  1-based variables.

    Malformed text, and an expansion the arithmetic refuses (with its
    message), raise FormulaError; a variable outside the shape raises
    UnknownVariableError.
    """
    try:
        return Polynomial._of(_Parser(text, dims).parse())
    except DocumentError:
        raise
    except RevstackError as exc:
        raise FormulaError(str(exc)) from None
