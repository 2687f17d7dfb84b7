"""Closed-form coordinate expressions: parsing, printing, jet evaluation.

Grammar (EBNF)::

    expr   := term (("+"|"-") term)* ;
    term   := factor (("*"|"/") factor)* ;
    factor := base ("^" factor)? ;
    base   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" | "-" base ;

One table, ``_OPERATORS``, holds each binary operator's precedence,
associativity and jet function; the tokenizer, the parser, the printer
(associativity too) and the :class:`Plan` all read it.  ``^`` is
right-associative and a leading minus binds tighter than the ``^`` base (so
``-x^2`` means ``(-x)^2``).  Operations, negations, calls and brackets nest
at most 256 levels deep.  Known functions: ``jets.FUNCTION_NAMES`` (exp log
sin cos tan sinh cosh tanh sqrt).  NUMBER is a decimal with optional
exponent; IDENT matches :data:`IDENTIFIER`.  Trees are immutable after parse.

Trees are evaluated through a :class:`Plan`, a flat tape compiled once: the
trees are walked in post-order without recursion, nodes are interned (equal
subtrees become one node), each node is computed at the highest jet order
any consumer asks of it, literal subtrees fold to floats, and each slot is
freed after its last use.
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
    "Plan",
    "Batch",
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


# -- operators, tokenizer, parser ------------------------------------------

# Binary operators: precedence, right-associativity, jet function.
_OPERATORS = {
    "+": (1, False, jets.add),
    "-": (1, False, jets.sub),
    "*": (2, False, jets.mul),
    "/": (2, False, jets.div),
    "^": (4, True, jets.power),
}
_MAX_DEPTH = 256  # nesting levels; hashing, == and printing recurse per level
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


class Batch:
    """The points of one :meth:`Plan.run`, shape (n,) or (S, n), the plan's outputs there
    (``out``) and the first error detected at each point (``errors`` by flat index, marked
    in ``bad``): every operation acts on each point alone, so it is the point's own error."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        self.shape = self.points.shape[:-1]
        self.n = self.points.shape[-1]
        self.bad = np.zeros(self.shape, dtype=bool)
        self.errors: dict = {}
        self.out: list = []

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


def _literal(value: float, batch):
    if not math.isfinite(value):
        batch.report(True, "constant must be finite")
    return value


def _apply(op, e: Expr, batch, *args):
    """``op(*args)``, reporting each failing point under ``e``; an error that fails every
    point at once raises, naming ``e``."""
    try:
        return op(*args, check=partial(batch.report, e=e))
    except DomainError as err:
        err.path = print_expression(e)
        raise


def _operands(e) -> tuple:
    if isinstance(e, Binary):
        return e.left, e.right
    return (e.operand,) if isinstance(e, Neg) else (e.arg,) if isinstance(e, Call) else ()


class Plan:
    """A flat evaluation tape over jets, compiled once and run on any stack of points.

    :meth:`expr` interns the nodes of a tree by kind, payload and operand nodes, folding a
    node whose operands are constants and whose operation reports nothing.  :meth:`stack`
    and :meth:`step` add tensor steps, a step with a key once.  A step's operands are node
    values; node ``BATCH`` is the :class:`Batch`.  :meth:`run` replays the steps in the
    order their nodes were added: each point keeps its first error, and an error that
    fails every point at once raises, naming its subexpression and the first point.
    """

    BATCH = 0

    def __init__(self, n: int):
        self.n = n
        self._nodes: list = [(None, ())]  # (fn, args); an arg is (node, order read or None)
        self._need: list = [0]  # the highest order asked of each node
        self._keys: dict = {}
        self._seen: dict = {}  # id(tree) -> (tree, node)
        self._const: dict = {self.BATCH: None}  # folded node -> float; the batch's slot

    def _add(self, key, fn, args) -> int:
        """The node under ``key``, added if it is new; a key of None is never shared."""
        if key is None or key not in self._keys:
            self._nodes.append((fn, tuple(args)))
            self._need.append(0)
            self._keys[key] = len(self._nodes) - 1
        return self._keys[key]

    def expr(self, e: Expr) -> int:
        """The node of tree ``e``, its subtrees added in post-order, left to right."""
        todo = [e]
        while todo:
            operands = _operands(todo[-1])
            pending = [x for x in operands if id(x) not in self._seen]
            if pending:
                todo.extend(reversed(pending))
                continue
            top = todo.pop()
            if id(top) not in self._seen:
                node = self._intern(top, [self._seen[id(x)][1] for x in operands])
                self._seen[id(top)] = top, node
        return self._seen[id(e)][1]

    def _intern(self, e: Expr, operands: list) -> int:
        if isinstance(e, Literal):
            key, fn = ("literal", e.value, math.copysign(1.0, e.value)), partial(_literal, e.value)
        elif isinstance(e, Variable):  # at order 2: a consumer asking less reads a truncation
            key, fn = ("variable", e.index, e.name), partial(_coordinate, e.index)
        elif isinstance(e, Neg):
            key, fn = ("neg", *operands), lambda batch, a: jets.neg(a)
        elif isinstance(e, Call):
            key = ("call", e.func, *operands)
            fn = partial(_apply, partial(jets.apply_function, name=e.func), e)
        elif isinstance(e, Binary) and e.op in _OPERATORS:
            key, fn = ("binary", e.op, *operands), partial(_apply, _OPERATORS[e.op][2], e)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        if key in self._keys:
            return self._keys[key]
        node = self._add(key, fn, [(x, None) for x in [self.BATCH, *operands]])
        if isinstance(e, Variable):
            self._need[node] = 2
        elif isinstance(e, Literal):
            if math.isfinite(e.value):  # else its step reports
                self._const[node] = e.value
        elif all(x in self._const for x in operands):
            probe = Batch(np.zeros(self.n))
            with np.errstate(all="ignore"):
                try:
                    value = fn(probe, *(self._const[x] for x in operands))
                except DomainError:  # raised again when the step runs
                    return node
            if not probe.errors:
                self._const[node] = value
        return node

    def stack(self, trees, shape: tuple, order: int) -> int:
        """Node of the tensor jet of ``shape`` from expression ``trees`` (row-major) at
        ``order``; literal entries go straight into its arrays."""
        if order not in (0, 1, 2):
            raise ValueError("jet order must be 0, 1 or 2")
        nodes = [self.expr(e) for e in trees]
        args = [(self.BATCH, None)] + [(x, order) for x in nodes]
        return self._add(("stack", shape, order, *nodes), partial(_stack, shape, order), args)

    def step(self, fn, *nodes, key=None) -> int:
        """Node of ``fn(*values)`` over the whole values of earlier ``nodes``."""
        return self._add(key, fn, [(x, 2) for x in nodes])

    def finish(self, outputs) -> "Plan":
        """Lay out the steps that yield the nodes ``outputs`` as :meth:`run`'s ``Batch.out``;
        each expression node is computed at the highest order any consumer asks of it,
        and each slot is freed after its last read.  ``nodes`` counts the nodes."""
        need, count = self._need, len(self._nodes)
        for node in reversed(range(count)):
            for x, order in self._nodes[node][1]:
                need[x] = max(need[x], need[node] if order is None else order)
        steps, truncated = [], {}  # (fn, reads, out); truncations take new slots
        for node, (fn, args) in enumerate(self._nodes):
            if node in self._const:
                continue
            reads = []
            for x, order in args:
                order = need[node] if order is None else order
                if need[x] > order and x not in self._const:
                    if (x, order) not in truncated:
                        truncated[x, order] = count + len(truncated)
                        read = partial(jets.truncate, order=order)
                        steps.append((read, (x,), truncated[x, order]))
                    x = truncated[x, order]
                reads.append(x)
            steps.append((fn, tuple(reads), node))
        last = {x: i for i, step in enumerate(steps) for x in step[1] if x not in self._const}
        dead = [[] for _ in steps]
        for x, i in last.items():
            if x not in outputs:
                dead[i].append(x)
        self._steps = [step + (tuple(gone),) for step, gone in zip(steps, dead)]
        self._slots = [self._const.get(x) for x in range(count + len(truncated))]
        self._outputs, self.nodes = list(outputs), count
        del self._nodes, self._need, self._keys, self._seen, self._const
        return self

    def run(self, points) -> Batch:
        """The outputs at ``points`` as the returned batch's ``out``; numpy's warnings are
        the caller's."""
        batch, values = Batch(points), self._slots.copy()
        values[self.BATCH] = batch
        try:
            for fn, args, out, dead in self._steps:
                values[out] = fn(*[values[i] for i in args])
                for i in dead:
                    values[i] = None
        except DomainError as err:
            if err.point is None and batch.points.size:
                err.point = batch.point_at(0)
            raise
        batch.out = [values[i] for i in self._outputs]
        return batch


def _coordinate(axis: int, batch):
    return jets.coordinate(axis, batch.points, 2)


def _stack(shape: tuple, order: int, batch, *entries):
    return jets.stack(entries, shape, batch.n, order, batch.shape)




def at_point(plan: Plan, point, build=lambda batch: batch.out):
    """``build(batch)`` of ``plan`` run at one point; raises the point's error, if any."""
    with np.errstate(all="ignore"):
        batch = plan.run(point)
        out = build(batch)
    for error in batch.errors.values():
        raise error
    return out


def eval_expr(e: Expr, point, order: int = 2) -> jets.Jet:
    """Evaluate a parsed expression as a jet at ``point``.

    Domain failures propagate as :class:`DomainError` tagged with the
    innermost failing subexpression and the evaluation point.
    """
    point = [float(c) for c in point]
    plan = Plan(len(point))
    return at_point(plan.finish([plan.stack([e], (), order)]), point)[0]
