"""Truncated Taylor arithmetic up to second order, over stacks of points.

A jet packs its value, gradient and row-major Hessian (as far as its order
allows) along the last axis of one float array ``data`` of shape lead +
tensor + (K,), with K = 1, 1 + n or 1 + n + n^2 at order 0, 1 or 2.  The
lead shape is ``()`` at one point and ``(S,)`` at S points; the tensor shape
is ``()`` for a scalar and ``(n, n)`` for a matrix field.  The components are
views of ``data`` and truncation is a slice, so a sum, a scaling or a
contraction with constants is one numpy call; elementary functions add the
chain rule terms.  Two kernels carry every product rule: :func:`mul`, whose
operands broadcast over their tensor axes as well (elementwise and outer
products), and :func:`matmul` with :func:`matvec` (contractions).  Orders are
capped at 2.

The functions report the points where a result is not finite, and why, to
``check(mask, message)``: by default they raise :class:`DomainError`, as
every operator does, and None skips the test.  The functions leave numpy's
floating-point warnings to their callers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["Jet", "constant", "coordinate", "partial_derivative", "derivative", "apply_function",
           "matmul", "matvec", "reshape", "FUNCTION_NAMES"]

_MAX_INT_POWER = 9999
_NON_FINITE = "non-finite component in jet arithmetic"


def _width(n: int, order: int) -> int:
    """Length of the packed axis of an order-``order`` jet on an n-chart."""
    return (1, 1 + n, 1 + n + n * n)[order]


class Jet:
    """Value, gradient and Hessian of a quantity on an n-chart, packed in ``data``.

    ``order`` is 0, 1 or 2; ``gradient`` is None at order 0 and ``hessian`` below
    order 2.  ``value`` is a float for a scalar at one point.  The constructor copies
    its inputs and symmetrizes the Hessian.  Never mutate ``data`` or its views.
    """

    __slots__ = ("n", "order", "data")

    def __init__(self, n, order, value, gradient=None, hessian=None):
        if not isinstance(n, int) or n < 1:
            raise ValueError("chart dimension must be a positive integer")
        if order not in (0, 1, 2):
            raise ValueError("jet order must be 0, 1 or 2")
        value = np.asarray(value, dtype=float)
        parts = [value, gradient, hessian]
        for k, name in ((1, "gradient"), (2, "hessian")):
            shape = value.shape + (n,) * k
            parts[k] = np.zeros(shape) if parts[k] is None else np.asarray(parts[k], dtype=float)
            if parts[k].shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
        with np.errstate(all="ignore"):
            parts[2] = symmetric(parts[2], -1, -2)
            self.n, self.order, self.data = n, order, _pack(n, order, *parts).data
            _checked(self, _raise)

    @property
    def value(self):
        return float(self.data[0]) if self.data.ndim == 1 else self.data[..., 0]

    @property
    def gradient(self):
        return self.data[..., 1 : 1 + self.n] if self.order >= 1 else None

    @property
    def hessian(self):
        return _hessian(self.data, self.n) if self.order == 2 else None

    def __repr__(self):
        names = ("value", "gradient", "hessian")[: self.order + 1]
        shown = "".join(f", {k}={np.asarray(getattr(self, k)).tolist()!r}" for k in names)
        return f"Jet(n={self.n}, order={self.order}{shown})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return _operator(add, self, other)

    def __sub__(self, other):
        return _operator(sub, self, other)

    def __rsub__(self, other):
        return _operator(sub, other, self)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return _operator(mul, self, other)

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

    __radd__, __rmul__ = __add__, __mul__


def symmetric(x: np.ndarray, i: int, j: int) -> np.ndarray:
    """The part of ``x`` symmetric in axes ``i`` and ``j``; halving first cannot overflow."""
    return 0.5 * x + 0.5 * np.swapaxes(x, i, j)


def _wrap(n: int, order: int, data: np.ndarray) -> Jet:
    """Trusted fast constructor over a packed array: no copy, validation or symmetrization."""
    j = Jet.__new__(Jet)
    j.n, j.order, j.data = n, order, data
    return j


def _pack(n: int, order: int, value, gradient, hessian) -> Jet:
    """Trusted constructor that copies the parts up to ``order`` into one new array."""
    data = np.empty(np.shape(value) + (_width(n, order),))
    data[..., 0] = value
    if order >= 1:
        data[..., 1 : 1 + n] = gradient
    if order == 2:
        _hessian(data, n)[...] = hessian
    return _wrap(n, order, data)


def _hessian(data: np.ndarray, n: int) -> np.ndarray:
    """The Hessian columns of ``data`` as a view of shape lead + tensor + (n, n)."""
    return data[..., 1 + n :].reshape(data.shape[:-1] + (n, n))


def truncate(a, order: int):
    """The same jet with the components above ``order`` dropped; a float is itself."""
    if not isinstance(a, Jet) or a.order <= order:
        return a
    return _wrap(a.n, order, a.data[..., : _width(a.n, order)])


def bad_points(a) -> np.ndarray:
    """Mask of the points (leading positions) with a non-finite component."""
    return ~np.isfinite(a.data).all(-1) if isinstance(a, Jet) else np.bool_(not math.isfinite(a))


def _raise(mask, message) -> None:
    """The default reporter: raise at the first failure."""
    if np.any(mask):
        raise DomainError(message)


def _checked(out, check, reasons=list):
    """``out``, each failing point reported to ``check`` under the first of the
    ``(mask, message)`` pairs of ``reasons()`` that holds there, else as non-finite."""
    if check is None:
        return out
    # One NaN/Inf poisons the sum; bad_points clears the false alarm of an overflowing sum.
    if not math.isfinite(out.data.sum() if isinstance(out, Jet) else out):
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


# -- elementwise arithmetic ------------------------------------------------
# Operands are jets or floats (constants); two floats give a float.  add, sub and mul
# also take an array of constants over the jet's leading shape.  Two jets broadcast
# over their lead and tensor axes, so an outer product is a mul of reshaped jets.


def _pair(ufunc, a: Jet, b: Jet) -> Jet:
    """``ufunc`` over the packed arrays of two jets, at the lower of their orders."""
    order = min(a.order, b.order)
    k = _width(a.n, order)
    return _wrap(a.n, order, ufunc(a.data[..., :k], b.data[..., :k]))


def add(a, b, check=_raise):
    if not isinstance(a, Jet):
        a, b = b, a
    if not isinstance(a, Jet):
        out = a + b
    elif not isinstance(b, Jet):
        data = a.data.copy()
        data[..., 0] += b
        out = _wrap(a.n, a.order, data)
    else:
        out = _pair(np.add, a, b)
    return _checked(out, check)


def neg(a):
    return -a if not isinstance(a, Jet) else _wrap(a.n, a.order, -a.data)


def sub(a, b, check=_raise):
    if isinstance(a, Jet) and isinstance(b, Jet):
        return _checked(_pair(np.subtract, a, b), check)
    return add(a, neg(b), check)


def mul(a, b, check=_raise):
    if not isinstance(a, Jet):
        a, b = b, a
    if not isinstance(a, Jet):
        out = a * b
    elif not isinstance(b, Jet):
        out = _wrap(a.n, a.order, a.data * np.asarray(b)[..., None])
    else:  # (a b)' = a' b + b' a, (a b)'' = a'' b + b'' a + a' b'^T + b' a'^T
        n, order = a.n, min(a.order, b.order)
        k = _width(n, order)
        data = a.data[..., :k] * b.data[..., :1]
        if order >= 1:
            data[..., 1:] += b.data[..., 1:k] * a.data[..., :1]
            if order == 2:
                hessian = _hessian(data, n)
                cross = a.data[..., 1 : 1 + n, None] * b.data[..., None, 1 : 1 + n]
                hessian += cross
                hessian += np.swapaxes(cross, -1, -2)
        out = _wrap(n, order, data)
    return _checked(out, check)


def div(a, b, check=_raise):
    out = mul(a, _reciprocal(b), None)
    return _checked(out, check, lambda: [(_value(b) == 0.0, "division by zero")])


def _chain(a, f0, f1, f2):
    """f(a) from the values f0, f1 = f'(a.value) and f2 = f''(a.value)."""
    if not isinstance(a, Jet):
        return float(f0)
    data = a.data * np.asarray(f1)[..., None]
    data[..., 0] = f0
    if a.order == 2:
        g, hessian = a.data[..., 1 : 1 + a.n], _hessian(data, a.n)
        hessian += np.asarray(f2)[..., None, None] * (g[..., :, None] * g[..., None, :])
    return _wrap(a.n, a.order, data)


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
        shape = np.shape(_value(base))
        return constant(1.0, base.n, base.order, shape) if isinstance(base, Jet) else 1.0
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
    return Jet(n, order, np.full(tuple(shape), c))


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
    return _checked(_pack(n, order, p[..., axis], np.eye(n)[axis], 0.0), _raise)


def partial_derivative(a: Jet, axis: int) -> Jet:
    """Partial derivative along ``axis`` as a jet of order one less."""
    if not 0 <= axis < a.n:
        raise IndexError(f"coordinate axis {axis} out of range for dimension {a.n}")
    return _wrap(a.n, a.order - 1, derivative(a).data[..., axis, :])


def derivative(a: Jet) -> Jet:
    """All first partials as one jet of order one less, whose last tensor
    axis is the derivative index."""
    if a.order < 1:
        raise ValueError("cannot take a partial derivative of an order-0 jet")
    data = a.gradient[..., None]  # d_i f, a view at order 1; then d_k d_i f
    return _wrap(a.n, a.order - 1, np.concatenate([data, a.hessian], -1) if a.order == 2 else data)


def matmul(a: Jet, b: Jet) -> Jet:
    """Matrix product of jets whose last tensor axes are (I, m) and (m, J), at the lower of
    their orders and at most order 1, by the product rule over the packed axis: a's value
    with every column of b, then a's derivative columns with b's value; lead axes broadcast."""
    n, order = a.n, min(a.order, b.order, 1)
    k = _width(n, order)
    x, y = a.data[..., :k], b.data[..., :k]
    data = x[..., 0] @ y.reshape(y.shape[:-2] + (y.shape[-2] * k,))
    data = data.reshape(data.shape[:-1] + y.shape[-2:])
    if order == 1:  # the columns as matrices: (c, I, m) with (m, J)
        columns = x[..., 1:].swapaxes(-1, -2).swapaxes(-2, -3) @ y[..., None, :, :, 0]
        data[..., 1:] += columns.swapaxes(-3, -2).swapaxes(-2, -1)
    return _wrap(n, order, data)


def matvec(a: Jet, v: Jet) -> Jet:
    """:func:`matmul` of ``a``, last tensor axes (I, m), with the vector ``v`` as one column,
    by the same two products."""
    n, order = a.n, min(a.order, v.order, 1)
    k = _width(n, order)
    x, y = a.data[..., :k], v.data[..., :k]
    data = x[..., 0] @ y
    if order == 1:
        columns = x[..., 1:].swapaxes(-1, -2).swapaxes(-2, -3) @ y[..., None, :, :1]
        data[..., 1:] += columns[..., 0].swapaxes(-1, -2)
    return _wrap(n, order, data)


def reshape(a: Jet, rank: int, shape: tuple) -> Jet:
    """``a`` with its last ``rank`` tensor axes reshaped to ``shape``."""
    lead, k = a.data.shape[: -1 - rank], a.data.shape[-1]
    return _wrap(a.n, a.order, a.data.reshape(lead + tuple(shape) + (k,)))

