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
subtrees become one node, ``c*x`` and ``x*c`` too), each node is computed at
the highest jet order any consumer asks of it, literal subtrees fold to
floats, and each slot is freed after its last use.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache, partial
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
_MAX_DEPTH = 256  # nesting levels; hashing and == recurse per level
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

def _pieces(e: Expr) -> list:
    """The text of node ``e`` as strings and ``(operand, min_prec)`` pairs, in order: an
    operand is bracketed if it is an operation of precedence below ``min_prec``."""
    if isinstance(e, Literal):
        return [repr(float(e.value))]
    if isinstance(e, Variable):
        return [e.name]
    if isinstance(e, Call):
        return [f"{e.func}(", (e.arg, 0), ")"]
    if isinstance(e, Neg):
        return ["-", (e.operand, math.inf)]
    if isinstance(e, Binary):
        prec, right, _ = _OPERATORS[e.op]  # a right-associative operator groups on the right
        op = f" {e.op} " if e.op in "+-" else e.op
        return [(e.left, prec + right), op, (e.right, prec + 1 - right)]
    raise TypeError(f"not an expression node: {e!r}")


def print_expression(e: Expr) -> str:
    """Render a tree back to grammar-conformant source, without recursion.

    An operand is bracketed when it binds looser than its operator, or as
    tightly but on the side that the operator's associativity in
    ``_OPERATORS`` does not group; a negation brackets every operation.
    So ``parse(print(parse(s)))`` equals ``parse(s)``.  Negative literals
    (which the grammar itself never produces) print as atoms and reparse
    as a negation node with the same meaning.
    """
    text, todo = [], [(e, 0)]
    while todo:
        piece = todo.pop()
        if isinstance(piece, str):
            text.append(piece)
        else:
            operand, min_prec = piece
            bracket = isinstance(operand, Binary) and _OPERATORS[operand.op][0] < min_prec
            todo.extend(reversed(["(", *_pieces(operand), ")"] if bracket else _pieces(operand)))
    return "".join(text)


# -- evaluation -----------------------------------------------------------

_UNFLAGGED = np.iinfo(np.int64).max  # the rank of a point with no error
_AT_ONCE = -_UNFLAGGED  # added to a node's rank when its error fails every point


class Batch:
    """The points of one :meth:`Plan.run`, shape (n,) or (S, n), the plan's outputs there
    (``out``) and the error of each point (``errors`` by flat index, marked in ``bad``): of
    the errors flagged at a point, the one of lowest rank, the first flagged among equals.
    Every operation acts on each point alone, so it is the point's own error.  An error that
    fails every point at once is flagged at each of them, ranked below every other error."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        self.shape = self.points.shape[:-1]
        self.n = self.points.shape[-1]
        self.rank = np.full(self.shape, _UNFLAGGED)
        self.step = _UNFLAGGED - 1  # the rank of a flag that gives none: the running step's
        self.errors: dict = {}
        self.out: list = []

    @property
    def bad(self) -> np.ndarray:
        return self.rank != _UNFLAGGED

    def point_at(self, i: int) -> tuple:
        """The point at flat index ``i``."""
        return tuple(self.points.reshape(-1, self.n)[i].tolist())

    def flag(self, mask, error_at, rank=None) -> None:
        """Record ``error_at(i)`` at each flat point ``i`` where the boolean array ``mask``
        holds and no error of ``rank`` (by default :attr:`step`) or lower is yet."""
        if not mask.any():
            return
        rank = self.step if rank is None else rank
        new = np.broadcast_to(mask, self.shape) & (self.rank > rank)
        self.errors.update((i, error_at(i)) for i in np.flatnonzero(new).tolist())
        self.rank[new] = rank

    def report(self, mask, message: str, e: Expr | None = None, rank=None) -> None:
        """:meth:`flag` a :class:`DomainError` naming ``e``, printed once a point takes it."""
        path = cache(lambda: None if e is None else print_expression(e))
        self.flag(mask, lambda i: DomainError(message, path=path(), point=self.point_at(i)), rank)


def _operands(e) -> tuple:
    if isinstance(e, Binary):
        return e.left, e.right
    return (e.operand,) if isinstance(e, Neg) else (e.arg,) if isinstance(e, Call) else ()


def _exact(c: float) -> tuple:
    """A key that tells every float apart, -0.0 from 0.0 too."""
    return c, math.copysign(1.0, c)


def _index(seq):
    """The integers ``seq`` as a slice where they count up by one, else as an index array."""
    if list(seq) == list(range(seq[0], seq[0] + len(seq))):
        return slice(seq[0], seq[0] + len(seq))
    return np.array(seq, dtype=np.intp)


class Plan:
    """A flat evaluation tape over jets, compiled once and run on any stack of points.

    :meth:`expr` interns the nodes of a tree by kind, payload and operand nodes; a node
    whose operands are constants folds to one, and what its operation reports or raises
    there is flagged by every run.  :meth:`stack` and :meth:`step` add tensor steps, a step
    with a key once.  A node's rank is its place in the post-order in which nodes are added.

    :meth:`finish` sorts the expression nodes into groups of one depth above the leaves,
    operation, jet order and constant operands.  :meth:`run` makes one jets call per group,
    depth by depth, over its operands' rows stacked along a new leading axis; each node's
    value is a row of its group's array.  The tensor steps follow, in rank order.  Every
    error is flagged on the points it fails, with the rank of its node: each point keeps its
    error of lowest rank, which is its first in the plan's post-order, except that an error
    failing every point at once (a raise of jets on scalar operands, a folded raise, a
    non-finite coordinate) ranks below every error at one point.
    """

    BATCH = 0

    def __init__(self, n: int):
        self.n = n
        # (kind, payload, args); an arg is (node, order read or None for the node's own)
        self._nodes: list = [("batch", None, ())]
        self._need: list = [0]  # the highest order asked of each node
        self._keys: dict = {}
        self._seen: dict = {}  # id(tree) -> (tree, node)
        self._const: dict = {}  # folded node -> float
        self._alarms: list = []  # (rank, message, tree or None) of folded failures

    def _add(self, key, kind, payload, args) -> int:
        """The node under ``key``, added if it is new; a key of None is never shared."""
        if key is None or key not in self._keys:
            self._nodes.append((kind, payload, tuple(args)))
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
            key = ("literal", *_exact(e.value))
            if key not in self._keys:
                self._const[self._add(key, "literal", None, ())] = e.value
                if not math.isfinite(e.value):
                    self._alarms.append((self._keys[key], "constant must be finite", None))
            return self._keys[key]
        if isinstance(e, Variable):  # at order 2: a consumer asking less reads the first columns
            label, op, key = ("variable",), None, ("variable", e.index, e.name)
        elif isinstance(e, Neg):
            label, op = ("neg",), lambda a, check: jets.neg(a)
        elif isinstance(e, Call):
            label, op = ("call", e.func), partial(jets.apply_function, name=e.func)
        elif isinstance(e, Binary) and e.op in _OPERATORS:
            label, op = ("binary", e.op), _OPERATORS[e.op][2]
            if e.op in "+*":  # the constant on the right, as jets.add and jets.mul put it
                operands.sort(key=self._const.__contains__)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        if op is not None:
            key = (*label, *operands)
        if key in self._keys:
            return self._keys[key]
        node = self._add(key, "expr", (label, op, e), [(x, None) for x in operands])
        if op is None:
            self._need[node] = 2
        elif all(x in self._const for x in operands):
            messages = []
            record = lambda mask, message: messages.append(message) if np.any(mask) else None
            with np.errstate(all="ignore"):
                try:
                    self._const[node] = op(*(self._const[x] for x in operands), check=record)
                except DomainError as err:
                    self._const[node] = math.nan
                    self._alarms.append((node + _AT_ONCE, err.message, e))
                else:
                    if messages:
                        self._alarms.append((node, messages[0], e))
        return node

    def stack(self, trees, shape: tuple, order: int) -> int:
        """Node of the tensor jet of ``shape`` from expression ``trees`` (row-major) at
        ``order``; constant entries go straight into its arrays."""
        if order not in (0, 1, 2):
            raise ValueError("jet order must be 0, 1 or 2")
        nodes = [self.expr(e) for e in trees]
        key = ("stack", shape, order, *nodes)
        return self._add(key, "stack", (shape, order), [(x, order) for x in nodes])

    def step(self, fn, *nodes, key=None) -> int:
        """Node of ``fn(*values)`` over the whole values of earlier stack or step ``nodes``
        (or ``BATCH``)."""
        return self._add(key, "step", fn, [(x, 2) for x in nodes])

    def finish(self, outputs) -> "Plan":
        """Lay out the groups and tensor steps that yield the stack and step nodes
        ``outputs`` as :meth:`run`'s ``Batch.out``.  Each expression node is computed at the
        highest order any consumer asks of it, and a consumer asking less reads its first
        columns; each slot is freed after its last read.  ``nodes`` counts the nodes."""
        need, const, count = self._need, self._const, len(self._nodes)
        for node in reversed(range(count)):
            for x, order in self._nodes[node][2]:
                need[x] = max(need[x], need[node] if order is None else order)
        depth, groups = {}, {}
        for node, (kind, payload, args) in enumerate(self._nodes):
            if kind == "expr" and node not in const:
                xs, label = [x for x, _ in args], payload[0]
                depth[node] = 1 + max((depth[x] for x in xs if x not in const), default=-1)
                column = label[0] == "binary" and label[1] in "+-*"  # the others take scalars
                pattern = tuple(x in const and (column or _exact(const[x])) for x in xs)
                groups.setdefault((depth[node], label, need[node], pattern), []).append(node)
        self._where, steps = {}, []  # expression node -> (slot, row); (fn, reads, out)
        for key in sorted(groups, key=lambda key: (key[0], groups[key][0])):
            reads, nodes = [self.BATCH], groups[key]
            fn = self._compile_group(*key[1:], nodes, reads)
            steps.append((fn, tuple(reads), count + len(steps)))
            self._where.update((x, (steps[-1][2], row)) for row, x in enumerate(nodes))
        for node, (kind, payload, args) in enumerate(self._nodes):  # then the tensor steps
            if kind == "stack":
                reads, entries = [self.BATCH], [x for x, _ in args]
                jets_at = [(i, x) for i, x in enumerate(entries) if x not in const]
                at = np.array([i for i, x in enumerate(entries) if x in const], dtype=np.intp)
                values = np.array([const[x] for x in entries if x in const], dtype=float)
                fn = partial(_stack, self.n, *payload, self._sources(jets_at, reads), at, values)
            elif kind == "step":
                fn, reads = payload, [x for x, _ in args]
            else:
                continue
            steps.append((fn, tuple(reads), node))
        last = {x: i for i, step in enumerate(steps) for x in step[1] if x not in outputs}
        dead = [[] for _ in steps]
        for x, i in last.items():
            dead[i].append(x)
        self._steps = [step + (tuple(gone),) for step, gone in zip(steps, dead)]
        self._slots = [None] * (count + len(steps))
        self._outputs, self.nodes = list(outputs), count
        del self._nodes, self._need, self._keys, self._seen, self._const, self._where
        return self

    def _sources(self, entries, reads: list) -> list:
        """``(read, rows, at)`` per group slot that holds the nodes of ``entries``, pairs of
        a place and a node: the slot's place among the arrays after the batch in ``reads``
        (appended if new), the nodes' rows there and their places, each an index."""
        found = {}
        for at, x in entries:
            slot, row = self._where[x]
            found.setdefault(slot, []).append((row, at))
        reads.extend(slot for slot in found if slot not in reads)
        return [(reads.index(slot) - 1, *map(_index, zip(*pairs))) for slot, pairs in found.items()]

    def _compile_group(self, label, order: int, pattern, nodes: list, reads: list):
        """The step computing the expression ``nodes`` of one group as rows of one array."""
        trees = [self._nodes[x][1][2] for x in nodes]
        if label[0] == "variable":
            axes = [e.index for e in trees]
            return partial(_coordinates, axes, np.eye(self.n)[axes], nodes)
        operands = []
        for i, constant in enumerate(pattern):
            xs = [self._nodes[x][2][i][0] for x in nodes]
            if constant is False:
                sources = self._sources(enumerate(xs), reads)  # one holds them all in order
                one = len(sources) == 1
                operands.append(("view", sources[0][:2]) if one else ("rows", sources))
            elif constant is True:
                operands.append(("column", np.array([self._const[x] for x in xs])))
            else:
                operands.append(("scalar", self._const[xs[0]]))
        return partial(_group, self.n, self._nodes[nodes[0]][1][1], order, nodes, trees, operands)

    def run(self, points) -> Batch:
        """The outputs at ``points`` as the returned batch's ``out`` and each point's error in
        its ``errors``; it raises none.  numpy's warnings are the caller's."""
        batch, values = Batch(points), self._slots.copy()
        values[self.BATCH] = batch
        for rank, message, e in self._alarms:  # the folded failures
            batch.report(np.True_, message, e, rank)
        for fn, args, out, dead in self._steps:
            batch.step = out
            values[out] = fn(*[values[i] for i in args])
            for i in dead:
                values[i] = None
        batch.step = _UNFLAGGED - 1
        batch.out = [values[i] for i in self._outputs]
        return batch


def _coordinates(axes: list, gradients: np.ndarray, nodes: list, batch: Batch) -> np.ndarray:
    """Rows of the coordinate jets at order 2 along ``axes``, whose ``gradients`` are rows of
    the identity; a non-finite coordinate fails every point, flagged under the first of
    ``nodes`` that reads one."""
    value = batch.points[..., axes].transpose(-1, *range(batch.points.ndim - 1))
    if not np.isfinite(value).all():
        row = np.isfinite(value.reshape(len(axes), -1)).all(-1).argmin()
        batch.report(np.True_, jets._NON_FINITE, None, nodes[row] + _AT_ONCE)
    gradients = gradients.reshape(len(axes), *(1,) * len(batch.shape), -1)
    return jets._pack(batch.n, 2, value, gradients, 0.0).data


def _group(n: int, op, order: int, nodes: list, trees: list, operands: list, batch: Batch, *arrays):
    """Rows of ``op`` at ``order`` for the expression ``nodes``, over operands that are
    rows of ``arrays`` (one's rows in order as a ``"view"``, else gathered), a ``"column"``
    of constants or one ``"scalar"``; each failure is flagged under its row's node.  jets
    raises only on scalar operands, which every row shares: that fails every point, at row 0."""
    shape = (len(nodes),) + batch.shape + (jets._width(n, order),)
    args = []
    for kind, spec in operands:
        if kind == "view":
            args.append(jets._wrap(n, order, arrays[spec[0]][spec[1], ..., : shape[-1]]))
        elif kind == "rows":
            data = np.empty(shape)
            for read, rows, at in spec:
                data[at] = arrays[read][rows, ..., : shape[-1]]
            args.append(jets._wrap(n, order, data))
        else:
            column = kind == "column"
            args.append(spec.reshape(len(nodes), *(1,) * len(batch.shape)) if column else spec)
    try:
        return op(*args, check=partial(_report_rows, batch, nodes, trees)).data
    except DomainError as err:
        batch.report(np.True_, err.message, trees[0], nodes[0] + _AT_ONCE)
        return np.full(shape, np.nan)


def _report_rows(batch: Batch, nodes: list, trees: list, mask, message: str) -> None:
    if np.any(mask):
        mask = np.broadcast_to(mask, (len(nodes),) + batch.shape)
        for row, node in enumerate(nodes):
            batch.report(mask[row], message, trees[row], node)


def _stack(n: int, shape: tuple, order: int, sources: list, at, values, batch: Batch, *arrays):
    """The tensor jet of ``shape`` at ``order`` whose row-major entries are group rows,
    ``(read, rows, places)`` per array of ``arrays``, and the constants ``values`` at ``at``."""
    k, lead = jets._width(n, order), len(batch.shape)
    data = np.zeros(batch.shape + (math.prod(shape), k))
    rows_last = (*range(1, lead + 1), 0, lead + 1)  # the rows' axis after the points'
    for read, rows, places in sources:
        data[..., places, :] = arrays[read][rows, ..., :k].transpose(rows_last)
    data[..., at, 0] = values
    return jets._wrap(n, order, data.reshape(batch.shape + shape + (k,)))


def at_point(plan: Plan, point, build=lambda batch: batch.out):
    """``build(batch)`` of ``plan`` run at one point; raises the point's error, if any."""
    with np.errstate(all="ignore"):
        batch = plan.run(point)
        out = build(batch)
    for error in batch.errors.values():
        raise error
    return out


_EVAL_PLANS: dict = {}  # (id(tree), order, n) -> (tree, plan), the last 64 built; no tree hashing


def eval_expr(e: Expr, point, order: int = 2) -> jets.Jet:
    """Evaluate a parsed expression as a jet at ``point``.

    Domain failures propagate as :class:`DomainError` tagged with the
    innermost failing subexpression and the evaluation point.
    """
    point = [float(c) for c in point]
    key = (id(e), order, len(point))
    if key not in _EVAL_PLANS:
        plan = Plan(len(point))
        _EVAL_PLANS[key] = e, plan.finish([plan.stack([e], (), order)])
        if len(_EVAL_PLANS) > 64:
            del _EVAL_PLANS[next(iter(_EVAL_PLANS))]
    return at_point(_EVAL_PLANS[key][1], point)[0]
