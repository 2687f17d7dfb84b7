"""Deterministic 64-bit sampling (splitmix-style).

The generator is pure integer arithmetic masked to 64 bits, so a given
seed yields the same sample points on every platform.  A stream is a 64-bit
state; draw k of it (0 is the next) is ``uniform_draws(state, k, lo, hi)``,
and ``SplitMix64.skip(k)`` moves a stream past k draws.  Streams are split
per point index: drawing for point ``i`` never disturbs the draws for
point ``j``, which keeps reports reproducible under data-parallel
evaluation.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03


def _mix64(z):
    """Finalizer of one draw; ``z`` is an int or a numpy ``uint64`` array."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """The position of one stream, whose draws :func:`uniform_draws` reads."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    @property
    def state(self) -> int:
        """The stream position that :func:`uniform_draws` continues from."""
        return self._state

    def skip(self, draws: int) -> None:
        self._state = (self._state + draws * _GAMMA) & MASK64


def uniform_draws(states, positions, lo: float, hi: float) -> np.ndarray:
    """Draw ``positions`` (0 is the next) of the streams in ``states``, uniform in [lo, hi):
    the top 53 bits of the mixed state after ``positions + 1`` steps; ``uint64`` arithmetic
    wraps."""
    with np.errstate(over="ignore"):
        z = np.asarray(states, np.uint64) + (np.asarray(positions, np.uint64) + 1) * _GAMMA
        return lo + (hi - lo) * ((_mix64(z) >> 11) * 2.0**-53)


def point_stream(seed: int, index: int) -> SplitMix64:
    """Independent deterministic stream for sample point ``index``."""
    return SplitMix64(_mix64((seed + (index + 1) * _STREAM_SALT) & MASK64))


def as_int(value, message: str, least=-float("inf")) -> int:
    """``value``, an int or a numpy integer (not a bool) of at least ``least``, as an int;
    else ``ValueError(message)``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(message)
    return int(value)


def as_floats(value, message: str) -> np.ndarray:
    """``np.asarray(value, dtype=float)``; ``ValueError(message)`` for an int beyond the
    float range, which numpy would raise as an ``OverflowError``."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(message) from None


def draw_points(seed: int, count: int, box_min, box_max):
    """Sample point ``i < count`` as row i of a ``(count, n)`` array, coordinate j draw j
    of ``point_stream(seed, i)`` in [box_min[j], box_max[j]), and the ``uint64`` state of
    each stream after its n draws."""
    count = as_int(count, "sample count must be positive", 1)
    seed = as_int(seed, "seed must be an integer")
    lo, hi = np.array(box_min), np.array(box_max)
    index = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        states = _mix64(np.uint64(seed & MASK64) + index * _STREAM_SALT)
        after = states + (len(lo) * _GAMMA & MASK64)
    return uniform_draws(states[:, None], np.arange(len(lo)), lo, hi), after
