"""Closed-form coordinate expressions: parsing, printing, jet evaluation.

Grammar (EBNF)::

    expr   := term (("+"|"-") term)* ;
    term   := factor (("*"|"/") factor)* ;
    factor := base ("^" factor)? ;
    base   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" | "-" base ;

One table, ``_OPERATORS``, holds each binary operator's precedence,
associativity and jet function; the tokenizer, the parser, the printer
(associativity too) and the :class:`Evaluator` all read it.  ``^`` is
right-associative and a leading minus binds tighter than the ``^`` base (so
``-x^2`` means ``(-x)^2``).  Operations, negations, calls and brackets nest
at most 256 levels deep.  Known functions: ``jets.FUNCTION_NAMES`` (exp log
sin cos tan sinh cosh tanh sqrt).  NUMBER is a decimal with optional
exponent; IDENT matches :data:`IDENTIFIER`.  Trees are immutable after parse.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from . import jets
from .errors import (
    DomainError,
    ExpressionSyntaxError,
    UnknownFunctionError,
    UnknownIdentifierError,
)

__all__ = [
    "Expr",
    "Literal",
    "Variable",
    "Neg",
    "Binary",
    "Call",
    "parse_expression",
    "print_expression",
    "eval_expr",
    "Evaluator",
    "IDENTIFIER",
]


@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class Variable:
    index: int
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Literal, Variable, Neg, Binary, Call]


def _cached_hash(node) -> int:
    """The dataclass hash, computed once: an evaluator's memo looks up every subtree."""
    if "_hash" not in node.__dict__:
        node.__dict__["_hash"] = hash(tuple(getattr(node, f) for f in node.__dataclass_fields__))
    return node.__dict__["_hash"]


Neg.__hash__ = Binary.__hash__ = Call.__hash__ = _cached_hash


# -- operators, tokenizer, parser ------------------------------------------

# Binary operators: precedence, right-associativity, jet function.
_OPERATORS = {
    "+": (1, False, jets.add),
    "-": (1, False, jets.sub),
    "*": (2, False, jets.mul),
    "/": (2, False, jets.div),
    "^": (4, True, jets.power),
}
_MAX_DEPTH = 256  # nesting levels; hashing, ==, printing and evaluation recurse per level
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# Whitespace, then one token; a character that starts no token is "bad".
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{IDENTIFIER.pattern})|(?P<op>[{re.escape(''.join(_OPERATORS))}()])"
    r"|(?P<end>\Z)|(?P<bad>.))",
    re.DOTALL,
)


def _byte_offset(src: str, i: int) -> int:
    return len(src[:i].encode("utf-8"))


def _tokenize(src: str):
    """``(kind, text, index)`` triples, the last of kind ``"end"``."""
    tokens, i = [], 0
    while not tokens or tokens[-1][0] != "end":
        m = _TOKEN.match(src, i)
        kind, i = m.lastgroup, m.end()
        if kind == "bad":
            raise ExpressionSyntaxError(
                f"unexpected character {m[kind]!r}", _byte_offset(src, m.start(kind))
            )
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens


class _Parser:
    def __init__(self, src: str, coord_index: dict):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.coords = coord_index

    def _peek(self):
        return self.tokens[self.pos]

    def _advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _fail(self, message: str, tok):
        raise ExpressionSyntaxError(message, _byte_offset(self.src, tok[2]))

    def _nest(self, level: int, tok) -> None:
        """Fail at ``tok`` if the level it opens below ``level`` others passes the bound.  Parse
        functions take the enclosing ``depth`` and return a node and the levels it nests."""
        if level >= _MAX_DEPTH:
            self._fail(f"expression nests deeper than {_MAX_DEPTH} levels", tok)

    def parse(self) -> Expr:
        node, _ = self._expr(1, 0)
        tok = self._peek()
        if tok[0] != "end":
            self._fail("unexpected trailing input", tok)
        return node

    def _expr(self, min_prec: int, depth: int):
        """Precedence climbing: operands joined by operators of at least ``min_prec``."""
        node, height = self._base(depth)
        while True:
            tok = self._peek()
            prec, right, _ = _OPERATORS.get(tok[1], (0, False, None))
            if prec < min_prec:
                return node, height
            self._nest(depth + height, tok)
            self._advance()
            operand, below = self._expr(prec if right else prec + 1, depth + 1)
            node, height = Binary(tok[1], node, operand), 1 + max(height, below)

    def _closed(self, tok, depth: int):
        """The expression that ``tok`` opens one level below ``depth``, and the ``)`` after it."""
        self._nest(depth, tok)
        node, height = self._expr(1, depth + 1)
        closing = self._advance()
        if closing[1] != ")":
            self._fail("expected ')'", closing)
        return node, height + 1

    def _base(self, depth: int):
        tok = self._advance()
        kind, text, pos = tok
        if kind == "num":
            return Literal(float(text)), 0
        if kind == "ident":
            if self._peek()[1] == "(":
                if text not in jets.FUNCTION_NAMES:
                    raise UnknownFunctionError(text, _byte_offset(self.src, pos))
                self._advance()
                arg, height = self._closed(tok, depth)
                return Call(text, arg), height
            index = self.coords.get(text)
            if index is None:
                raise UnknownIdentifierError(text, _byte_offset(self.src, pos))
            return Variable(index, text), 0
        if text == "(":
            return self._closed(tok, depth)
        if text == "-":
            self._nest(depth, tok)
            operand, height = self._base(depth + 1)
            return Neg(operand), height + 1
        self._fail("expected a number, identifier, or '('", tok)


def parse_expression(src: str, coords) -> Expr:
    """Parse ``src`` against the declared coordinate names."""
    if not isinstance(src, str) or not src.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    coord_index = {name: i for i, name in enumerate(coords)}
    return _Parser(src, coord_index).parse()


# -- printer -------------------------------------------------------------

def _bracketed(operand: Expr, text: str, min_prec: int) -> str:
    """``text`` in brackets if ``operand`` is an operation of precedence below ``min_prec``."""
    if isinstance(operand, Binary) and _OPERATORS[operand.op][0] < min_prec:
        return f"({text})"
    return text


def print_expression(e: Expr) -> str:
    """Render a tree back to grammar-conformant source.

    An operand is bracketed when it binds looser than its operator, or as
    tightly but on the side that the operator's associativity in
    ``_OPERATORS`` does not group; a negation brackets every operation.
    So ``parse(print(parse(s)))`` equals ``parse(s)``.  Negative literals
    (which the grammar itself never produces) print as atoms and reparse
    as a negation node with the same meaning.
    """
    if isinstance(e, Literal):
        return repr(float(e.value))
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({print_expression(e.arg)})"
    if isinstance(e, Neg):
        return "-" + _bracketed(e.operand, print_expression(e.operand), math.inf)
    if isinstance(e, Binary):
        prec, right_assoc, _ = _OPERATORS[e.op]
        left = _bracketed(e.left, print_expression(e.left), prec + 1 if right_assoc else prec)
        right = _bracketed(e.right, print_expression(e.right), prec if right_assoc else prec + 1)
        if e.op in "+-":
            return f"{left} {e.op} {right}"
        return f"{left}{e.op}{right}"
    raise TypeError(f"not an expression node: {e!r}")


# -- evaluation -----------------------------------------------------------


class Evaluator:
    """Jets of expression trees at one point (shape (n,)) or S points (S, n).

    Evaluation is recursive and strictly left-to-right: a node evaluates its
    operands in order, then its operator, whose jet function comes from the
    operator table ``_OPERATORS`` (``^`` too, whose constant exponent arrives
    as a number).  Each distinct subtree is evaluated once per
    evaluator; the same memo keeps each metric's ``scenario.metric_geometry``.
    ``errors`` keeps the first failure detected at each point (by flat index),
    which ``bad`` marks: every operation acts on each point alone, so it is the
    error of the point alone.  An error that fails every point at once raises,
    naming its subexpression and the first point.
    """

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        self.shape = self.points.shape[:-1]
        self.n = self.points.shape[-1]
        self.bad = np.zeros(self.shape, dtype=bool)
        self.errors: dict = {}
        self._memo: dict = {}

    def point_at(self, i: int) -> tuple:
        """The point at flat index ``i``."""
        return tuple(self.points.reshape(-1, self.n)[i].tolist())

    def flag(self, mask, error_at) -> None:
        """Record ``error_at(i)`` at each flat point ``i`` where ``mask`` holds and none is yet."""
        new = np.broadcast_to(mask, self.shape) & ~self.bad
        self.errors.update((i, error_at(i)) for i in np.flatnonzero(new).tolist())
        self.bad |= new

    def report(self, mask, message: str, e: Expr | None = None) -> None:
        """:meth:`flag` a :class:`DomainError` naming the subexpression ``e``."""
        path = None if e is None else print_expression(e)
        self.flag(mask, lambda i: DomainError(message, path=path, point=self.point_at(i)))

    def jet(self, e: Expr, order: int) -> jets.Jet:
        """Jet of ``e`` of the given order at every point; numpy's warnings are the caller's."""
        try:
            out = self._node(e, order)
        except DomainError as err:
            if err.point is None and self.points.size:
                err.point = self.point_at(0)
            raise
        if not isinstance(out, jets.Jet):
            # A non-finite constant has already been flagged.
            out = jets.constant(out if math.isfinite(out) else 0.0, self.n, order, self.shape)
        return out

    def _node(self, e: Expr, order: int):
        if isinstance(e, Literal):
            if not math.isfinite(e.value):
                self.report(True, "constant must be finite")
            return e.value
        hit = self._memo.get(e)
        if hit is not None and hit[0] >= order:
            return jets.truncate(hit[1], order) if isinstance(hit[1], jets.Jet) else hit[1]
        if isinstance(e, Variable):
            out = jets.coordinate(e.index, self.points, order)
        elif isinstance(e, Neg):
            out = jets.neg(self._node(e.operand, order))
        elif isinstance(e, Call):
            out = self._apply(e, jets.apply_function, self._node(e.arg, order), e.func)
        elif isinstance(e, Binary) and e.op in _OPERATORS:
            left, right = self._node(e.left, order), self._node(e.right, order)
            out = self._apply(e, _OPERATORS[e.op][2], left, right)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        self._memo[e] = (order, out)
        return out

    def _apply(self, e: Expr, op, *args):
        """``op(*args)`` reporting each failing point under ``e``; an error that
        fails every point at once raises, naming ``e``."""
        try:
            return op(*args, partial(self.report, e=e))
        except DomainError as err:
            err.path = print_expression(e)
            raise


def at_point(point, build):
    """``build(ev)`` for a one-point evaluator ``ev``; raises the point's error, if any."""
    ev = Evaluator(point)
    with np.errstate(all="ignore"):
        out = build(ev)
    for error in ev.errors.values():
        raise error
    return out


def eval_expr(e: Expr, point, order: int = 2) -> jets.Jet:
    """Evaluate a parsed expression as a jet at ``point``.

    Domain failures propagate as :class:`DomainError` tagged with the
    innermost failing subexpression and the evaluation point.
    """
    if order not in (0, 1, 2):
        raise ValueError("jet order must be 0, 1 or 2")
    return at_point([float(c) for c in point], lambda ev: ev.jet(e, order))
