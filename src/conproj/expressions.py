"""Closed-form coordinate expressions: parsing, printing, jet evaluation.

Grammar (EBNF)::

    expr   := term (("+"|"-") term)* ;
    term   := factor (("*"|"/") factor)* ;
    factor := base ("^" factor)? ;
    base   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" | "-" base ;

``^`` is right-associative and a leading minus binds tighter than the
``^`` base (so ``-x^2`` means ``(-x)^2``).  Known functions: exp log sin
cos tan sinh cosh tanh sqrt.  NUMBER is a decimal with optional exponent.
Trees are immutable after parse.
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


# -- tokenizer / parser -------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_WS = " \t\r\n"


def _byte_offset(src: str, i: int) -> int:
    return len(src[:i].encode("utf-8"))


def _tokenize(src: str):
    tokens = []
    i = 0
    length = len(src)
    while i < length:
        ch = src[i]
        if ch in _WS:
            i += 1
            continue
        m = _NUM_RE.match(src, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(src, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(
            f"unexpected character {ch!r}", _byte_offset(src, i)
        )
    tokens.append(("end", "", length))
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

    def parse(self) -> Expr:
        node = self._expr()
        tok = self._peek()
        if tok[0] != "end":
            self._fail("unexpected trailing input", tok)
        return node

    def _expr(self) -> Expr:
        return self._chain("+-", self._term)

    def _term(self) -> Expr:
        return self._chain("*/", self._factor)

    def _chain(self, ops: str, operand) -> Expr:
        node = operand()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in ops:
                self._advance()
                node = Binary(text, node, operand())
            else:
                return node

    def _factor(self) -> Expr:
        base = self._base()
        kind, text, _ = self._peek()
        if kind == "op" and text == "^":
            self._advance()
            return Binary("^", base, self._factor())
        return base

    def _base(self) -> Expr:
        tok = self._advance()
        kind, text, pos = tok
        if kind == "num":
            return Literal(float(text))
        if kind == "ident":
            nxt = self._peek()
            if nxt[0] == "op" and nxt[1] == "(":
                if text not in jets.FUNCTION_NAMES:
                    raise UnknownFunctionError(text, _byte_offset(self.src, pos))
                self._advance()
                arg = self._expr()
                closing = self._advance()
                if closing[0] != "op" or closing[1] != ")":
                    self._fail("expected ')'", closing)
                return Call(text, arg)
            index = self.coords.get(text)
            if index is None:
                raise UnknownIdentifierError(text, _byte_offset(self.src, pos))
            return Variable(index, text)
        if kind == "op" and text == "(":
            node = self._expr()
            closing = self._advance()
            if closing[0] != "op" or closing[1] != ")":
                self._fail("expected ')'", closing)
            return node
        if kind == "op" and text == "-":
            return Neg(self._base())
        self._fail("expected a number, identifier, or '('", tok)


def parse_expression(src: str, coords) -> Expr:
    """Parse ``src`` against the declared coordinate names."""
    if not isinstance(src, str) or not src.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    coord_index = {name: i for i, name in enumerate(coords)}
    return _Parser(src, coord_index).parse()


# -- printer -------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 5


def _node_prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _NEG_PREC
    if isinstance(e, Literal) and e.value < 0:
        return _NEG_PREC
    return _ATOM_PREC


def _format_number(v: float) -> str:
    return repr(float(v))


def print_expression(e: Expr) -> str:
    """Render a tree back to grammar-conformant source.

    Parenthesization preserves the tree structure exactly, so
    ``parse(print(parse(s)))`` equals ``parse(s)``.  Negative literals
    (which the grammar itself never produces) reparse as a negation node
    with the same meaning.
    """
    if isinstance(e, Literal):
        return _format_number(e.value)
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({print_expression(e.arg)})"
    if isinstance(e, Neg):
        body = print_expression(e.operand)
        if isinstance(e.operand, Binary):
            body = f"({body})"
        return "-" + body
    if isinstance(e, Binary):
        prec = _PREC[e.op]
        left = print_expression(e.left)
        right = print_expression(e.right)
        if e.op == "^":
            if isinstance(e.left, Binary) or _node_prec(e.left) < _NEG_PREC:
                left = f"({left})"
            if isinstance(e.right, Binary) and e.right.op != "^":
                right = f"({right})"
        else:
            if _node_prec(e.left) < prec:
                left = f"({left})"
            if _node_prec(e.right) <= prec:
                right = f"({right})"
        if e.op in "+-":
            return f"{left} {e.op} {right}"
        return f"{left}{e.op}{right}"
    raise TypeError(f"not an expression node: {e!r}")


# -- evaluation -----------------------------------------------------------

_BINARY_OPS = {"+": jets.add, "-": jets.sub, "*": jets.mul, "/": jets.div, "^": jets.power}


class Evaluator:
    """Jets of expression trees at one point (shape (n,)) or S points (S, n).

    Evaluation is recursive and strictly left-to-right: a node evaluates its
    operands in order, then its operator (``^`` too, whose constant exponent
    arrives as a number).  Each distinct subtree is evaluated once per
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
        elif isinstance(e, Binary) and e.op in _BINARY_OPS:
            left, right = self._node(e.left, order), self._node(e.right, order)
            out = self._apply(e, _BINARY_OPS[e.op], left, right)
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
