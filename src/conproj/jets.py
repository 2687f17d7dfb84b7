"""Truncated Taylor arithmetic up to second order, over stacks of points.

A jet stores the value of a quantity with its gradient and Hessian (as far
as its order allows).  The value has a leading shape: ``()`` for a scalar
at one point, ``(S,)`` at S points, ``(S, n, n)`` for a matrix field at S
points; the gradient appends one axis of length n and the Hessian two.
Arithmetic, elementary functions and :func:`einsum` propagate derivatives
exactly through the chain and product rules.  Orders are capped at 2.

The functions report the points where a result is not finite, and why, to
``check(mask, message)``: by default they raise :class:`DomainError`, as
every operator does, and None skips the test.  The functions leave numpy's
floating-point warnings to their callers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "Jet",
    "constant",
    "coordinate",
    "partial_derivative",
    "derivative",
    "apply_function",
    "einsum",
    "stack",
    "FUNCTION_NAMES",
]

_MAX_INT_POWER = 9999
_NON_FINITE = "non-finite component in jet arithmetic"
_DERIVATIVE_AXES = "YZ"  # einsum letters of the two derivative axes


class Jet:
    """Value, gradient and Hessian of a quantity on an n-chart.

    ``order`` is 0, 1 or 2; ``gradient`` is present iff ``order >= 1`` and
    ``hessian`` iff ``order == 2``.  ``value`` is a float for a scalar at
    one point and an array of the leading shape otherwise.  The Hessian is
    symmetrized on write.  Jets are value objects: never mutate the
    component arrays.
    """

    __slots__ = ("n", "order", "value", "gradient", "hessian")

    def __init__(self, n, order, value, gradient=None, hessian=None):
        if not isinstance(n, int) or n < 1:
            raise ValueError("chart dimension must be a positive integer")
        if order not in (0, 1, 2):
            raise ValueError("jet order must be 0, 1 or 2")
        value = np.asarray(value, dtype=float)
        parts = [value]
        for k, (name, part) in enumerate((("gradient", gradient), ("hessian", hessian)), 1):
            shape = value.shape + (n,) * k
            part = np.broadcast_to(0.0, shape) if part is None else np.asarray(part, dtype=float)
            if part.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            parts.append(part if k <= order else None)
        self.n, self.order = n, order
        self.value = float(value) if not value.shape else value
        with np.errstate(all="ignore"):
            if order == 2:
                parts[2] = symmetric(parts[2], -1, -2)
            self.gradient, self.hessian = parts[1:]
            _checked(self, _raise)

    def __repr__(self):
        value = np.asarray(self.value).tolist()
        parts = [f"Jet(n={self.n}, order={self.order}, value={value!r}"]
        if self.gradient is not None:
            parts.append(f", gradient={self.gradient.tolist()!r}")
        if self.hessian is not None:
            parts.append(f", hessian={self.hessian.tolist()!r}")
        return "".join(parts) + ")"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return _operator(add, self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _operator(sub, self, other)

    def __rsub__(self, other):
        return _operator(sub, other, self)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return _operator(mul, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _operator(div, self, other)

    def __rtruediv__(self, other):
        return _operator(div, other, self)

    def __pow__(self, exponent):
        if isinstance(exponent, (int, float)):
            with np.errstate(all="ignore"):
                return power(self, float(exponent))
        return _operator(power, self, exponent)

    def __rpow__(self, base):
        return _operator(power, base, self)


def symmetric(x: np.ndarray, i: int, j: int) -> np.ndarray:
    """The part of ``x`` symmetric in axes ``i`` and ``j``; halving first cannot overflow."""
    return 0.5 * x + 0.5 * np.swapaxes(x, i, j)


def _make(n, order, value, gradient, hessian) -> Jet:
    """Trusted fast constructor: no validation, no symmetrization."""
    j = Jet.__new__(Jet)
    j.n, j.order = n, order
    j.value = float(value) if np.ndim(value) == 0 else value
    j.gradient, j.hessian = gradient, hessian
    return j


def _part(a: Jet, k: int):
    return (a.value, a.gradient, a.hessian)[k]


def _build(n: int, order: int, part) -> Jet:
    """Jet whose k-th component (value, gradient, Hessian) is ``part(k)``."""
    return _make(n, order, *(part(k) if k <= order else None for k in range(3)))


def truncate(a, order: int):
    """The same jet with the components above ``order`` dropped; a float is itself."""
    if not isinstance(a, Jet) or a.order <= order:
        return a
    return _build(a.n, order, lambda k: _part(a, k))


def bad_points(a) -> np.ndarray:
    """Mask of the points (leading positions) with a non-finite component."""
    if not isinstance(a, Jet):
        return np.bool_(not math.isfinite(a))
    bad = ~np.isfinite(a.value)
    for k, part in ((1, a.gradient), (2, a.hessian)):
        if part is not None:
            bad = bad | ~np.all(np.isfinite(part), axis=tuple(range(-k, 0)))
    return bad


def _raise(mask, message) -> None:
    """The default reporter: raise at the first failure."""
    if np.any(mask):
        raise DomainError(message)


def _checked(out, check, reasons=list):
    """``out``, each failing point reported to ``check`` under the first of the
    ``(mask, message)`` pairs of ``reasons()`` that holds there, else as non-finite."""
    if check is None:
        return out
    parts = (out.value, out.gradient, out.hessian) if isinstance(out, Jet) else (out,)
    # One NaN/Inf poisons the sum, so a healthy result costs one reduction per part;
    # a sum that overflows from finite parts is a false alarm, and bad_points says so.
    total = sum(p if isinstance(p, float) else float(p.sum()) for p in parts if p is not None)
    if not math.isfinite(total):
        bad = bad_points(out)
        for mask, message in reasons() + [(True, _NON_FINITE)]:
            check(bad & mask, message)
    return out


def _coerce(other, like: Jet):
    if isinstance(other, Jet):
        if other.n != like.n:
            raise ValueError(f"jet dimension mismatch: {other.n} vs {like.n}")
        return other
    if isinstance(other, (int, float)):
        c = float(other)
        if not math.isfinite(c):
            raise DomainError("constant must be finite")
        return c
    return None


def _operator(op, a, b):
    """``op(a, b)`` for a jet operator whose other operand may be a number."""
    like = a if isinstance(a, Jet) else b
    a, b = _coerce(a, like), _coerce(b, like)
    if a is None or b is None:
        return NotImplemented
    with np.errstate(all="ignore"):
        return op(a, b)


def _value(a):
    return a.value if isinstance(a, Jet) else a


def _col(v, axes: int):  # ``v`` broadcast over ``axes`` derivative axes
    return v if isinstance(v, float) else v[(...,) + (None,) * axes]


# -- elementwise arithmetic ------------------------------------------------
# Operands are jets or floats (constants); two floats give a float.


def add(a, b, check=_raise):
    if not isinstance(a, Jet):
        a, b = b, a
    if not isinstance(a, Jet):
        out = a + b
    elif not isinstance(b, Jet):
        out = _make(a.n, a.order, a.value + b, a.gradient, a.hessian)
    else:
        out = _build(a.n, min(a.order, b.order), lambda k: _part(a, k) + _part(b, k))
    return _checked(out, check)


def neg(a):
    return -a if not isinstance(a, Jet) else _scale(a, -1.0)


def sub(a, b, check=_raise):
    return add(a, neg(b), check)


def mul(a, b, check=_raise):
    if not isinstance(a, Jet):
        a, b = b, a
    if not isinstance(a, Jet):
        out = a * b
    elif not isinstance(b, Jet):
        out = _scale(a, b)
    else:
        order = min(a.order, b.order)
        va, vb = a.value, b.value
        g = h = None
        if order >= 1:
            g = a.gradient * _col(vb, 1) + b.gradient * _col(va, 1)
            if order == 2:
                cross = a.gradient[..., :, None] * b.gradient[..., None, :]
                h = a.hessian * _col(vb, 2) + b.hessian * _col(va, 2)
                h = h + cross + np.swapaxes(cross, -1, -2)
        out = _make(a.n, order, va * vb, g, h)
    return _checked(out, check)


def _scale(a: Jet, c: float) -> Jet:
    return _build(a.n, a.order, lambda k: _part(a, k) * c)


def div(a, b, check=_raise):
    out = mul(a, _reciprocal(b), None)
    return _checked(out, check, lambda: [(_value(b) == 0.0, "division by zero")])


def _chain(a, f0, f1, f2):
    if not isinstance(a, Jet):
        return float(f0)
    g = h = None
    if a.order >= 1:
        g = _col(f1, 1) * a.gradient
        if a.order == 2:
            outer = a.gradient[..., :, None] * a.gradient[..., None, :]
            h = _col(f1, 2) * a.hessian + _col(f2, 2) * outer
    return _make(a.n, a.order, f0, g, h)


def _reciprocal(a):
    f0 = 1.0 / np.asarray(_value(a), dtype=float)
    f1 = -f0 * f0
    return _chain(a, f0, f1, -2.0 * f1 * f0)


def power(base, exponent, check=_raise):
    """``base ** exponent``: an integral float exponent multiplies out by
    repeated squaring, any other exponent goes through exp(exponent * log(base))."""
    if isinstance(exponent, Jet) or not float(exponent).is_integer():
        if not isinstance(exponent, Jet) and not math.isfinite(exponent):
            raise DomainError("non-finite exponent")
        product = mul(exponent, apply_function(base, "log", None), None)
        out = apply_function(product, "exp", None)
        return _checked(out, check, lambda: [
            (_value(base) <= 0.0, "power with non-positive base requires an integer exponent"),
            (bad_points(product), _NON_FINITE),
            (~np.isfinite(_value(out)), "exp overflow"),
        ])
    k = int(exponent)
    if abs(k) > _MAX_INT_POWER:
        raise DomainError(f"integer exponent magnitude exceeds {_MAX_INT_POWER}")
    if k == 0:
        if not isinstance(base, Jet):
            return 1.0
        return constant(1.0, base.n, base.order, np.shape(base.value))
    out = base  # square-and-multiply over the bits of |k| after the leading one
    for bit in bin(abs(k))[3:]:
        out = mul(out, out, None)
        out = mul(out, base, None) if bit == "1" else out
    return _checked(out, check) if k > 0 else div(1.0, out, check)


# -- elementary functions ----------------------------------------------
# Each rule maps input values to (f, f', f''), NaN outside the domain.


def _log_rule(v):
    v = np.where(v > 0.0, v, np.nan)
    r = 1.0 / v
    return np.log(v), r, -r * r


def _sqrt_rule(v):
    v = np.where(v > 0.0, v, np.nan)
    s = np.sqrt(v)
    d = 0.5 / s
    return s, d, -0.5 * d / v


def _tan_rule(v):
    t = np.tan(np.where(np.cos(v) == 0.0, np.nan, v))
    d = 1.0 + t * t
    return t, d, 2.0 * t * d


def _tanh_rule(v):
    t = np.tanh(v)
    d = 1.0 - t * t
    return t, d, -2.0 * t * d


# Each function's rule and, where its rule can give NaN, the message for that.
_FUNCTIONS = {
    "exp": (lambda v: (np.exp(v),) * 3, None),
    "log": (_log_rule, "log of a non-positive value"),
    "sin": (lambda v: (np.sin(v), np.cos(v), -np.sin(v)), None),
    "cos": (lambda v: (np.cos(v), -np.sin(v), -np.cos(v)), None),
    "tan": (_tan_rule, "tan at a pole"),
    "sinh": (lambda v: (np.sinh(v), np.cosh(v), np.sinh(v)), None),
    "cosh": (lambda v: (np.cosh(v), np.sinh(v), np.cosh(v)), None),
    "tanh": (_tanh_rule, None),
    "sqrt": (_sqrt_rule, "sqrt of a non-positive value (derivative unbounded at 0)"),
}

FUNCTION_NAMES = frozenset(_FUNCTIONS)


def apply_function(a, name: str, check=_raise):
    """Apply an elementary function to a jet through the chain rule."""
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown function '{name}'")
    rule, domain = _FUNCTIONS[name]

    def reasons():  # a domain NaN, then an overflow, as far as the function has them
        overflow = [(~np.isfinite(f0), f"{name} overflow")]
        return [(np.isnan(f0), domain)] + overflow if domain else overflow

    with np.errstate(all="ignore"):
        f0, f1, f2 = rule(np.asarray(_value(a), dtype=float))
        return _checked(_chain(a, f0, f1, f2), check, reasons)


# -- tensors of jets ----------------------------------------------------


def constant(c: float, n: int, order: int = 2, shape: tuple = ()) -> Jet:
    """Jet of a constant: zero gradient and Hessian."""
    c = float(c)
    if not math.isfinite(c):
        raise DomainError("constant must be finite")
    if order not in (0, 1, 2):
        raise ValueError("jet order must be 0, 1 or 2")
    if not isinstance(n, int) or n < 1:
        raise ValueError("chart dimension must be a positive integer")
    shape = tuple(shape)
    part = lambda k: np.full(shape, c) if k == 0 else np.broadcast_to(0.0, shape + (n,) * k)
    return _build(n, order, part)


def coordinate(axis: int, point, order: int = 2) -> Jet:
    """Jet seeding coordinate ``axis`` (0-based) at ``point`` (shape (n,),
    or (S, n) for S points): the basis vector as gradient, no Hessian."""
    p = np.asarray(point, dtype=float)
    if p.ndim == 0 or p.shape[-1] < 1:
        raise ValueError("point must have at least one coordinate")
    if order not in (0, 1, 2):
        raise ValueError("jet order must be 0, 1 or 2")
    n = p.shape[-1]
    if not 0 <= axis < n:
        raise IndexError(f"coordinate axis {axis} out of range for dimension {n}")
    lead = p.shape[:-1]
    grad = None
    if order >= 1:
        grad = np.zeros(lead + (n,))
        grad[..., axis] = 1.0
    hess = np.broadcast_to(0.0, lead + (n, n)) if order == 2 else None
    return _checked(_make(n, order, p[..., axis], grad, hess), _raise)


def partial_derivative(a: Jet, axis: int) -> Jet:
    """Partial derivative along ``axis`` as a jet of order one less."""
    if not 0 <= axis < a.n:
        raise IndexError(f"coordinate axis {axis} out of range for dimension {a.n}")
    return entry(derivative(a), (axis,))


def derivative(a: Jet) -> Jet:
    """All first partials as one jet of order one less, whose last tensor
    axis is the derivative index."""
    if a.order < 1:
        raise ValueError("cannot take a partial derivative of an order-0 jet")
    return _make(a.n, a.order - 1, a.gradient, a.hessian, None)


def einsum(spec: str, *operands):
    """Product rule for ``np.einsum`` over jets and constant arrays.

    ``spec`` names the tensor axes only (``"ip,pjk->ijk"``); the leading
    axes of the jets broadcast against each other and lead the result.
    Constant arrays carry tensor axes only.  At most two operands may be
    jets; the result has the lower of their orders.
    """
    inputs, output = spec.split("->")
    terms = inputs.split(",")
    jets = [i for i, op in enumerate(operands) if isinstance(op, Jet)]
    if not 1 <= len(jets) <= 2:
        raise ValueError("einsum takes one or two jet operands")
    order = min(operands[i].order for i in jets)

    def run(marks: dict, tail: str) -> np.ndarray:
        """One term: operand i contributes its derivative part ``marks[i]``."""
        mark = [marks.get(i, "") for i in range(len(operands))]
        subs = [f"...{t}{mark[i]}" if i in jets else t for i, t in enumerate(terms)]
        arrays = [_part(op, len(mark[i])) if i in jets else op for i, op in enumerate(operands)]
        return np.einsum(",".join(subs) + "->..." + output + tail, *arrays)

    y, z = _DERIVATIVE_AXES
    value = run({}, "")
    grad = hess = None
    if order >= 1:
        grad = sum(run({i: y}, y) for i in jets)
        if order == 2:
            hess = sum(run({i: y + z}, y + z) for i in jets)
            if len(jets) == 2:
                first, second = jets
                cross = run({first: y, second: z}, y + z)
                hess = hess + cross + np.swapaxes(cross, -1, -2)
    return _make(operands[jets[0]].n, order, value, grad, hess)


def stack(entries, shape: tuple, n: int | None = None, order: int | None = None, lead=()) -> Jet:
    """Tensor jet of the given shape from its scalar entries in row-major order.  An entry
    is a jet, of which the parts up to ``order`` are read (by default the lowest jet order),
    or a float, a constant; entries broadcast over their leading shapes and ``lead``, and
    ``n`` defaults to the jets' dimension."""
    entries = list(entries)
    jet_entries = [j for j in entries if isinstance(j, Jet)]
    n = jet_entries[0].n if n is None else n
    order = min(j.order for j in jet_entries) if order is None else order
    lead = np.broadcast_shapes(lead, *(np.shape(j.value) for j in jet_entries))
    shape = tuple(shape)

    def gather(k):
        out = np.zeros(lead + (len(entries),) + (n,) * k)
        for i, j in enumerate(entries):
            if isinstance(j, Jet):
                out[(Ellipsis, i) + (slice(None),) * k] = _part(j, k)
            elif k == 0:
                out[..., i] = j
        return out.reshape(lead + shape + (n,) * k)

    return _build(n, order, gather)


def entry(a: Jet, index: tuple) -> Jet:
    """The scalar jet at tensor position ``index`` (a view)."""
    at = (Ellipsis,) + tuple(index)
    return _build(a.n, a.order, lambda k: _part(a, k)[at + (slice(None),) * k])
