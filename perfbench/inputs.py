"""Seeded benchmark inputs and the numpy oracles that check conproj's outputs.

Every scenario is generated from polynomial coefficients that this module
keeps, so the expected answers (the metric, the log-conformal factor, the
A and B residuals of constant-metric scenarios) are evaluated here with
plain Python and numpy, never by conproj.  conproj receives only the
generated scenario documents.

The monomials of every polynomial are fixed and only the coefficients
depend on the seed, so the work per operation barely moves between seeds.
"""

from __future__ import annotations

import math

import numpy as np

STEEP_AMPLITUDE = 0.3
STEEP_RATE = 8.0


def coords(n: int) -> list:
    return [f"x{i + 1}" for i in range(n)]


class Poly:
    """Polynomial given as (coefficient, monomial) terms; a monomial is a
    tuple of 0-based variable indices, () for the constant."""

    def __init__(self, terms):
        self.terms = tuple((float(c), tuple(m)) for c, m in terms)

    def source(self, names) -> str:
        parts = []
        for c, mon in self.terms:
            parts.append("*".join([repr(c)] + [names[k] for k in mon]))
        return " + ".join(parts) if parts else "0"

    def value(self, x) -> float:
        return sum(c * math.prod(x[k] for k in mon) for c, mon in self.terms)

    def grad(self, x) -> np.ndarray:
        out = np.zeros(len(x))
        for c, mon in self.terms:
            for pos, k in enumerate(mon):
                rest = mon[:pos] + mon[pos + 1 :]
                out[k] += c * math.prod(x[m] for m in rest)
        return out


def _random_poly(rng, monomials, scale: float) -> Poly:
    return Poly((rng.uniform(-scale, scale), mon) for mon in monomials)


def _signature(n: int, lorentzian: bool) -> np.ndarray:
    eta = np.eye(n)
    if lorentzian:
        eta[0, 0] = -1.0
    return eta


class MetricModel:
    """g = eta + P(x) with |P_ij| <= 0.4/n on the box [-1, 1]^n.

    By Gershgorin every eigenvalue keeps the sign of eta and stays at least
    0.6 away from zero, so no sample point is degenerate for any seed.
    """

    def __init__(self, rng, n: int, lorentzian: bool):
        self.n = n
        self.eta = _signature(n, lorentzian)
        budget = 0.4 / n
        self.entries = {}
        for i in range(n):
            for j in range(i, n):
                monomials = [(), ((i + j) % n,), (i, j)]
                raw = _random_poly(rng, monomials, 1.0)
                total = sum(abs(c) for c, _ in raw.terms)
                self.entries[i, j] = Poly((c * budget / total, m) for c, m in raw.terms)

    def rows(self, wrap: str | None = None) -> list:
        """Upper-triangle source rows; ``wrap`` is a factor such as exp(..)."""
        names = coords(self.n)
        out = []
        for i in range(self.n):
            row = [None] * i
            for j in range(i, self.n):
                text = f"{float(self.eta[i, j])!r} + {self.entries[i, j].source(names)}"
                row.append(text if wrap is None else f"({text})*{wrap}")
            out.append(row)
        return out

    def doc(self) -> dict:
        """A scenario holding just this metric (its connection is unused)."""
        return {"dimension": self.n, "coordinates": coords(self.n), "box": _box(self.n),
                "metric": self.rows(),
                "connection": {"kind": "levi_civita", "metric": self.rows()}}

    def value(self, x) -> np.ndarray:
        g = self.eta.copy()
        for (i, j), poly in self.entries.items():
            g[i, j] = g[j, i] = g[i, j] + poly.value(x)
        return g


class PhiModel:
    """Log-conformal factor: a quadratic polynomial, plus the steep front
    0.3*tanh(8*x1) on the steep profile."""

    def __init__(self, rng, n: int, steep: bool):
        monomials = [(k,) for k in range(n)] + [(0, 1), (n - 1, n - 1)]
        self.poly = _random_poly(rng, monomials, 0.25)
        self.steep = steep

    def source(self, names) -> str:
        text = self.poly.source(names)
        if self.steep:
            text = f"{STEEP_AMPLITUDE!r}*tanh({STEEP_RATE!r}*{names[0]}) + {text}"
        return text

    def value(self, x) -> float:
        v = self.poly.value(x)
        if self.steep:
            v += STEEP_AMPLITUDE * math.tanh(STEEP_RATE * x[0])
        return v

    def grad(self, x) -> np.ndarray:
        d = self.poly.grad(x)
        if self.steep:
            d[0] += STEEP_AMPLITUDE * STEEP_RATE / math.cosh(STEEP_RATE * x[0]) ** 2
        return d


def _box(n: int) -> dict:
    return {"min": [-1.0] * n, "max": [1.0] * n}


class RoundTrip:
    """Compatible by construction: the connection is a projective shift of
    the Levi-Civita connection of exp(2*phi)*g, so the shared metric is
    exp(2*phi)*g and integrate_phi(base, x) = phi(x) - phi(base)."""

    def __init__(self, rng, n: int, *, lorentzian: bool, steep: bool = False, samples: int):
        self.n = n
        self.metric = MetricModel(rng, n, lorentzian)
        self.phi = PhiModel(rng, n, steep)
        names = coords(n)
        psi = [_random_poly(rng, [(), ((k + 1) % n,)], 0.4) for k in range(n)]
        self.doc = {
            "dimension": n,
            "coordinates": names,
            "box": _box(n),
            "metric": self.metric.rows(),
            "connection": {
                "kind": "projective_transform",
                "base": {
                    "kind": "levi_civita",
                    "metric": self.metric.rows(f"exp(2*({self.phi.source(names)}))"),
                },
                "psi": [p.source(names) for p in psi],
            },
            "samples": samples,
            "seed": int(rng.integers(0, 2**31)),
        }
        self.verdict = "compatible"
        self.eps = "holds" if lorentzian else "vacuous"

    def recovered_metric(self, base, x) -> np.ndarray:
        return self.metric.value(x) * math.exp(2.0 * (self.phi.value(x) - self.phi.value(base)))


class ConstantMetricCase:
    """A scenario over a constant metric eta whose connection Gamma(x) is
    polynomial.  The Levi-Civita part vanishes, so the A and B residuals
    follow from Gamma and its gradient alone; ``residuals`` computes them
    with numpy from the coefficients."""

    def residuals(self, x):
        n = self.n
        g = self.eta
        ginv = np.linalg.inv(g)
        gamma, dgamma = self.gamma(x)
        diff, ddiff = -gamma, -dgamma  # Levi-Civita minus Gamma
        idx = np.arange(n)

        def trace_free(t):
            tr = np.einsum("ppk...->k...", t)
            out = t.copy()
            out[idx, idx, :] -= tr / (n + 1)
            out[idx, :, idx] -= tr / (n + 1)
            return out

        t, dt = trace_free(diff), trace_free(ddiff)
        coefficient = (n + 1) / ((n + 2) * (n - 1))
        t_up = coefficient * np.einsum("jk,ijk->i", ginv, t)
        dt_up = coefficient * np.einsum("jk,ijkl->il", ginv, dt)
        t_down, dt_down = g @ t_up, g @ dt_up
        a = t - t_up[:, None, None] * g[None, :, :]
        a[idx, idx, :] += t_down / (n + 1)
        a[idx, :, idx] += t_down / (n + 1)
        b = dt_down.T - dt_down
        scale = max(1.0, float(np.max(np.abs(gamma))), float(np.max(np.abs(g))),
                    float(np.max(np.abs(ginv))))
        return float(np.max(np.abs(a))) / scale, float(np.max(np.abs(b))) / scale

    def eta_rows(self) -> list:
        return [[repr(float(v)) for v in row] for row in self.eta]

    def _doc(self, rng, connection: dict, samples: int) -> dict:
        return {
            "dimension": self.n,
            "coordinates": coords(self.n),
            "box": _box(self.n),
            "metric": self.eta_rows(),
            "connection": connection,
            "samples": samples,
            "seed": int(rng.integers(0, 2**31)),
        }


class Drift(ConstantMetricCase):
    """Connection = Levi-Civita minus S^i g_jk with S^{n} = c*x2 (a
    non-gradient drift): A holds, dT = c dx2^dx_n, so the verdict is
    fails_B; null geodesics are shared, so EPS holds on a Lorentzian
    metric."""

    def __init__(self, rng, n: int, *, samples: int):
        self.n = n
        self.eta = _signature(n, True)
        c = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        self.s = [Poly([]) for _ in range(n - 1)] + [Poly([(c, (1,))])]
        names = coords(n)
        connection = {"kind": "modified_s", "metric": self.eta_rows(),
                      "s": [p.source(names) for p in self.s]}
        self.doc = self._doc(rng, connection, samples)
        self.verdict = "fails_B"
        self.eps = "holds"

    def gamma(self, x):
        s = np.array([p.value(x) for p in self.s])
        ds = np.array([p.grad(x) for p in self.s])
        return (-np.einsum("i,jk->ijk", s, self.eta),
                -np.einsum("il,jk->ijkl", ds, self.eta))


class Explicit(ConstantMetricCase):
    """A generic explicit connection over the Euclidean metric.

    Every component carries a random constant, and each component with
    three distinct indices a random linear term: those alone make A fail.
    The component Gamma^n_11 adds c*x2, whose trace one-form is not
    closed, so B fails too and the verdict is fails_A_and_B.
    """

    def __init__(self, rng, n: int, *, samples: int):
        self.n = n
        self.eta = np.eye(n)
        self.entries = {}
        for i in range(n):
            for j in range(n):
                for k in range(j, n):
                    monomials = [()]
                    if len({i, j, k}) == 3:
                        monomials.append(((i + j + k) % n,))
                    self.entries[i, j, k] = _random_poly(rng, monomials, 0.4)
        c = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        last = self.entries[n - 1, 0, 0]
        self.entries[n - 1, 0, 0] = Poly(last.terms + ((c, (1,)),))
        names = coords(n)
        gamma = [[[None] * j + [self.entries[i, j, k].source(names) for k in range(j, n)]
                  for j in range(n)] for i in range(n)]
        self.doc = self._doc(rng, {"kind": "explicit", "gamma": gamma}, samples)
        self.verdict = "fails_A_and_B"
        self.eps = "vacuous"

    def gamma(self, x):
        n = self.n
        values = np.zeros((n, n, n))
        grads = np.zeros((n, n, n, n))
        for (i, j, k), poly in self.entries.items():
            values[i, j, k] = values[i, k, j] = poly.value(x)
            grads[i, j, k] = grads[i, k, j] = poly.grad(x)
        return values, grads


def canonical(g: np.ndarray) -> np.ndarray:
    """g / max|g| with the first nonzero component positive."""
    g = g / np.max(np.abs(g))
    first = g.reshape(-1)[np.flatnonzero(np.abs(g.reshape(-1)) > 1e-12)[0]]
    return -g if first < 0 else g
