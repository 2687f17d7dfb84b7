import numpy as np
import pytest

from conproj import (
    Jet,
    MetricValue,
    NonGenericConfiguration,
    TooFewVectors,
    canonicalize_metric,
    reconstruct_conformal,
    sample_null_vectors,
)
from conproj.cone import _unknowns
from conproj.sampling import SplitMix64


def metric_from_values(values):
    values = np.asarray(values, dtype=float)
    return MetricValue(Jet(values.shape[0], 0, values))


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
    for n in (1, "3", 2.5, True):
        with pytest.raises(ValueError, match="^dimension must be an integer >= 2$"):
            reconstruct_conformal([(1.0, 1.0), (1.0, -1.0)], n)
    # the first vector that fails names the error, whatever follows it
    nan = float("nan")
    with pytest.raises(ValueError, match="finite and nonzero"):
        reconstruct_conformal([(nan, 1.0), (1.0, 2.0, 3.0)], 2)
    with pytest.raises(ValueError, match="must have 2 components"):
        reconstruct_conformal([(1.0, 2.0, 3.0), (nan, 1.0)], 2)
    # an int beyond the float range is not finite
    with pytest.raises(ValueError, match="^vectors must be finite and nonzero$"):
        reconstruct_conformal([[1, 10**400], [1, 2]], 2)


@pytest.mark.parametrize("vectors", [5, None, "11", {"a": (1.0, 1.0)}, np.array(5.0)])
def test_vectors_that_are_not_an_array_of_vectors_raise_value_error(vectors):
    with pytest.raises(ValueError, match="vectors must be an array of 2-component vectors"):
        reconstruct_conformal(vectors, 2)


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


@pytest.mark.parametrize(
    "matrix",
    [np.ones((1, 3)), np.ones((2, 2, 2)), np.array([1.0, np.nan, 2.0]), 2.0, np.zeros((0, 0))],
)
def test_canonicalization_rejects_an_array_that_is_not_a_square_matrix(matrix):
    # the shape is judged before the entries: the 1-d input holds a NaN
    with pytest.raises(ValueError, match="^matrix must be a nonempty square 2-d array$"):
        canonicalize_metric(matrix)


def test_canonicalization_takes_its_sign_from_the_first_entry_above_roundoff():
    # the leading entry is below 1e-12 after scaling, so the next one sets the sign
    flipped = canonicalize_metric(np.array([[4e-13, -2.0], [-2.0, 1.0]]))
    assert np.array_equal(flipped, [[-2e-13, 1.0], [1.0, -0.5]])
    kept = canonicalize_metric(np.array([[-4e-13, 2.0], [2.0, 1.0]]))
    assert np.array_equal(kept, [[-2e-13, 1.0], [1.0, 0.5]])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_canonicalization_rejects_a_non_finite_entry(bad):
    with pytest.raises(ValueError, match="finite"):
        canonicalize_metric(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_canonicalization_of_a_huge_matrix_does_not_overflow():
    huge = np.array([[1e308, 1e308], [1e308, -1e308]])
    assert np.array_equal(canonicalize_metric(huge), [[1.0, 1.0], [1.0, -1.0]])


def test_rank_threshold_is_relative():
    # two nearly equal lines span one equation numerically: nullity 2
    with pytest.raises(NonGenericConfiguration) as info:
        reconstruct_conformal([(1.0, 1.0), (1.0, 1.0 + 1e-13)], 2)
    assert info.value.nullity == 2
    # tiny but independent lines still determine the cone
    g = reconstruct_conformal([(1e-6, 1e-6), (1e-6, -1e-6)], 2)
    assert np.allclose(g, canonicalize_metric(np.diag([-1.0, 1.0])))


def test_the_unknowns_come_from_a_bounded_read_only_cache():
    from conproj import cone

    g = metric_from_values(np.diag([-1.0, 1.0, 1.0, 1.0]))
    nulls = sample_null_vectors(g, 10, SplitMix64(3))
    vectors = [nv.u for nv in nulls]
    cone._unknowns.cache_clear()
    cold, warm = (reconstruct_conformal(vectors, 4) for _ in range(2))
    assert cold.tobytes() == warm.tobytes() and cone._unknowns.cache_info().hits == 1
    assert cone._unknowns.cache_info().maxsize is not None
    rows, cols, off = cone._unknowns(4)
    assert (off == (rows != cols)).all() and len(rows) == 10
    for table in (rows, cols, off):
        with pytest.raises(ValueError):
            table[0] = table[0]


def test_too_few_vectors_are_counted_before_the_unknowns_are_built():
    # n(n+1)/2 - 1 = 500000499999 at n = 10^6: the upper-triangle index arrays would
    # take gigabytes, so the count comes first and nothing is cached
    cached = _unknowns.cache_info().currsize
    with pytest.raises(TooFewVectors, match="need at least 500000499999 null vectors, got 0"):
        reconstruct_conformal([], 10**6)
    assert _unknowns.cache_info().currsize == cached
