import numpy as np
import pytest

from conproj import (
    ConeSample,
    MetricValue,
    NonGenericConfiguration,
    TooFewVectors,
    canonicalize_metric,
    constant,
    reconstruct_conformal,
    sample_null_vectors,
)
from conproj.sampling import SplitMix64


def metric_from_values(values):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    return MetricValue(
        [[constant(values[i][j], n, 0) for j in range(n)] for i in range(n)]
    )


def test_two_d_cone_lines():
    # p + 2q + r = 0 and p - 2q + r = 0 force q = 0, p = -r
    g = reconstruct_conformal([(1.0, 1.0), (1.0, -1.0)], 2)
    assert np.allclose(g, canonicalize_metric(np.diag([-1.0, 1.0])))
    assert np.allclose(np.abs(g), np.eye(2))


def test_minkowski_three_d_round_trip():
    g_true = np.diag([-1.0, 1.0, 1.0])
    nulls = sample_null_vectors(metric_from_values(g_true), 5, SplitMix64(11))
    rec = reconstruct_conformal([nv.u for nv in nulls], 3)
    assert np.max(np.abs(rec - canonicalize_metric(g_true))) < 1e-8


def test_annihilation_invariant():
    rng = np.random.default_rng(97)
    redraws = 0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        base = np.diag(rng.choice([-1.0, 1.0], size=n))
        if np.all(base.diagonal() > 0) or np.all(base.diagonal() < 0):
            base[0, 0] = -base[0, 0]
        pert = rng.uniform(-0.15, 0.15, size=(n, n))
        g_true = base + 0.5 * (pert + pert.T)
        count = 2 * (n * (n + 1) // 2 - 1)
        # "generic" is a hypothesis on the draw: a 2-d cone is two lines and
        # a random sample can land on only one, which rightly raises; redraw.
        for attempt in range(8):
            nulls = sample_null_vectors(
                metric_from_values(g_true),
                count,
                SplitMix64(int(rng.integers(1, 2**31))),
            )
            vectors = [nv.u for nv in nulls]
            try:
                rec = reconstruct_conformal(vectors, n)
                break
            except NonGenericConfiguration:
                redraws += 1
        else:
            raise AssertionError("no generic draw in 8 attempts")
        for v in vectors:
            assert abs(v @ rec @ v) <= 1e-8 * float(v @ v)
        assert np.max(np.abs(rec - canonicalize_metric(g_true))) <= 1e-8
    assert redraws <= 3


def test_repeated_line_is_non_generic():
    with pytest.raises(NonGenericConfiguration) as excinfo:
        reconstruct_conformal([(1.0, 1.0), (2.0, 2.0)], 2)
    assert excinfo.value.nullity == 2


def test_too_few_vectors():
    with pytest.raises(TooFewVectors):
        reconstruct_conformal([(1.0, 1.0, 0.0)], 3)


def test_inconsistent_overdetermined_input_is_non_generic():
    # vectors not lying on any common quadric: elimination drives the null
    # space to dimension zero
    vectors = [
        (1.0, 1.0),
        (1.0, -1.0),
        (1.0, 0.5),
        (2.0, 0.3),
    ]
    with pytest.raises(NonGenericConfiguration) as excinfo:
        reconstruct_conformal(vectors, 2)
    assert excinfo.value.nullity == 0


def test_vector_validation():
    with pytest.raises(ValueError):
        reconstruct_conformal([(0.0, 0.0), (1.0, 1.0)], 2)
    with pytest.raises(ValueError):
        reconstruct_conformal([(1.0, 1.0, 1.0)], 2)
    with pytest.raises(ValueError):
        reconstruct_conformal([(1.0, 1.0), (1.0, -1.0)], 1)


def test_canonicalization_idempotent():
    rng = np.random.default_rng(101)
    for _ in range(20):
        m = rng.uniform(-3, 3, size=(3, 3))
        m = m + m.T
        if not m.any():
            continue
        once = canonicalize_metric(m)
        twice = canonicalize_metric(once)
        assert np.array_equal(once, twice)
        assert np.max(np.abs(once)) == 1.0
    with pytest.raises(ValueError):
        canonicalize_metric(np.zeros((2, 2)))


def test_cone_sample_validation():
    sample = ConeSample(point=(0.0, 0.0), vectors=((1.0, 1.0), (1.0, -1.0)))
    assert len(sample.vectors) == 2
    with pytest.raises(ValueError):
        ConeSample(point=(0.0, 0.0), vectors=((0.0, 0.0),))


def test_rank_threshold_is_relative():
    # two nearly equal lines span one equation numerically: nullity 2
    with pytest.raises(NonGenericConfiguration) as info:
        reconstruct_conformal([(1.0, 1.0), (1.0, 1.0 + 1e-13)], 2)
    assert info.value.nullity == 2
    # tiny but independent lines still determine the cone
    g = reconstruct_conformal([(1e-6, 1e-6), (1e-6, -1e-6)], 2)
    assert np.allclose(g, canonicalize_metric(np.diag([-1.0, 1.0])))
