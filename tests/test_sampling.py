import numpy as np
import pytest

from conproj.sampling import (
    MASK64,
    SplitMix64,
    draw_points,
    point_stream,
    uniform_draws,
)
from helpers import draw_point, next_u64, uniform


def test_point_stream_draws_are_pinned():
    # reports must not move across platforms or releases
    stream = point_stream(42, 0)
    assert [next_u64(stream) for _ in range(6)] == [
        0x992E555C3CBA188A,
        0x9F1EA4B8D3602245,
        0xD1509F37C5BE4CB6,
        0x994D5689217F298C,
        0xAE88F26BFA5440C2,
        0x92006A797F78B178,
    ]
    stream = point_stream(42, 0)
    assert [uniform(stream, -1.0, 1.0) for _ in range(3)] == [
        0.1967264843346619,
        0.24312266373340297,
        0.6352728864981023,
    ]


def test_uniform_draws_match_the_stream_across_the_wrap():
    gamma = 0x9E3779B97F4A7C15
    states = [MASK64, MASK64 - 3, (MASK64 - 1250 * gamma) & MASK64, (-7 * gamma) & MASK64]
    positions = np.arange(2500)
    got = uniform_draws(np.array(states, np.uint64)[:, None], positions, -0.5, 2.0)
    for state, row in zip(states, got):
        stream = SplitMix64(state)
        expected = [uniform(stream, -0.5, 2.0) for _ in positions]
        assert row.tolist() == expected


def test_skip_advances_like_draws():
    drawn, skipped = SplitMix64(MASK64 - 5), SplitMix64(MASK64 - 5)
    for _ in range(17):
        next_u64(drawn)
    skipped.skip(17)
    assert drawn.state == skipped.state
    assert next_u64(drawn) == next_u64(skipped)
    assert uniform_draws(skipped.state, 0, -1.0, 1.0) == uniform(drawn, -1.0, 1.0)


@pytest.mark.parametrize("seed", [0, 42, -3, 2**63 + 5, 2**64 - 1])
def test_draw_points_match_the_point_streams(seed):
    # the salt and gamma additions wrap past 2**64 for the large seeds
    box_min, box_max = (-1.0, 0.25, -3.0), (2.0, 0.75, 1e-3)
    points, states = draw_points(seed, 300, box_min, box_max)
    assert points.shape == (300, 3) and states.dtype == np.uint64
    for index, (point, state) in enumerate(zip(points.tolist(), states.tolist())):
        stream = point_stream(seed, index)
        assert tuple(point) == draw_point(stream, box_min, box_max)
        assert state == stream.state
