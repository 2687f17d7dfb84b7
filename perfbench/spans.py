"""Timing of the benchmark's calls into conproj, with optional spans.

Every public call the benchmark makes goes through :meth:`Recorder.call`,
which charges its duration to the call's name and to the current
operation (one checked output).  A traced recorder also keeps a span per
call (name, start, end, parent span, operation id) in memory; the spans
are written out when the run ends.

Every round makes the same operations in the same order, so operation ids
line up across rounds and :class:`Rounds` can take each operation's
median over the rounds.

Other tenants of the host change its speed by up to 2x, in phases of
about a second to minutes.  :class:`HostSpeed` follows that speed: every
``SAMPLE_INTERVAL_S`` a timer signal interrupts the run and times a chunk
of fixed reference work that does not use conproj.  Each duration is
scaled by ``REFERENCE_CHUNK_S`` over the mean chunk time from the sample
just before it to its end, and the time spent in the samples is left
out.  Times are therefore seconds at one fixed host speed, the speed at
which a chunk takes ``REFERENCE_CHUNK_S``.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# About a reference chunk's time on this host when other tenants leave it
# alone (2.0 GHz Xeon, Python 3.11, numpy 2.4); it only fixes the unit.
REFERENCE_CHUNK_S = 3.7e-4
SAMPLE_INTERVAL_S = 0.02

_REFERENCE_MATRIX = np.array([
    [2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.2, 0.1], [0.1, 0.2, 1.2, 0.3], [0.0, 0.1, 0.3, 1.1],
])


def reference_chunk() -> float:
    """Fixed work of the same kind as conproj's: a Python loop over small
    numpy arrays, then one small inverse."""
    a, v, total = _REFERENCE_MATRIX, np.ones(4), 0.0
    for k in range(40):
        v = (np.outer(v, v) * 0.01 + a) @ v
        v = v / float(np.max(np.abs(v)))
        total += float(v[k % 4]) * 0.5 + k * 1e-3
    return total + float(np.linalg.inv(a + total * 1e-3 * np.eye(4))[0, 0])


class HostSpeed:
    """Samples of the host's speed, taken by a SIGALRM handler.

    A sample runs one chunk to warm the caches that the interrupted code
    evicted, then times a second one.  ``stolen`` is the total time spent
    in samples, which :meth:`seconds` leaves out of a duration.
    """

    def __init__(self):
        self.starts = array("d")  # perf_counter at each sample
        self.chunks = array("d")  # seconds of each sample's timed chunk
        self.stolen = 0.0
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # Ignored, not defaulted: an alarm already on its way must not end the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_chunk()
        timed = time.perf_counter()
        reference_chunk()
        end = time.perf_counter()
        self.starts.append(start)
        self.chunks.append(end - timed)
        self.stolen += time.perf_counter() - start
        self._busy = False

    def mark(self) -> tuple:
        """The moment a timed stretch starts, for :meth:`seconds`."""
        return time.perf_counter(), self.stolen

    def seconds(self, mark: tuple) -> float:
        """Seconds since ``mark``, at the reference speed, samples left out."""
        start, stolen = mark
        end = time.perf_counter()
        spent = end - start - (self.stolen - stolen)
        first = max(bisect.bisect_right(self.starts, start) - 1, 0)
        window = self.chunks[first:bisect.bisect_right(self.starts, end)]
        return spent * REFERENCE_CHUNK_S * len(window) / sum(window)


SPEED = HostSpeed()


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.calls = defaultdict(lambda: [0.0, 0])  # (op, call name) -> [seconds, calls]
        self.tallies = defaultdict(lambda: [0.0, 0])  # (op, key) -> [seconds, items]
        self.last = 0.0
        self.wall = 0.0  # the whole round, oracle checks included
        self.spans = []
        self._parents = []
        self.op_id = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` and charge its time, at the reference speed, to ``name``."""
        mark = SPEED.mark()
        result = fn(*args, **kwargs)
        self.last = SPEED.seconds(mark)
        entry = self.calls[self.op_id, name]
        entry[0] += self.last
        entry[1] += 1
        if self.traced:
            parent = self._parents[-1] if self._parents else None
            self.spans.append((name, mark[0], time.perf_counter(), parent, self.op_id))
        return result

    def tally(self, key, seconds: float, items: int) -> None:
        """Add seconds and a count of work items under ``key``."""
        entry = self.tallies[self.op_id, key]
        entry[0] += seconds
        entry[1] += items

    @contextmanager
    def group(self, name: str):
        """Parent span for the calls made inside it (traced runs only)."""
        if not self.traced:
            yield
            return
        index = len(self.spans)
        parent = self._parents[-1] if self._parents else None
        start = time.perf_counter()
        self._parents.append(index)
        self.spans.append(None)
        try:
            yield
        finally:
            self._parents.pop()
            self.spans[index] = (name, start, time.perf_counter(), parent, self.op_id)

    def attempt(self, label: str, body) -> None:
        """One operation: ``body`` returns None when every output matched
        its oracle, or a description of the mismatch.  An exception and a
        mismatch each count as a failure; the run goes on either way."""
        self.op_id += 1
        self.attempted += 1
        try:
            problem = body()
        except Exception as err:  # the run must reach its end; report and go on
            self.failed += 1
            print(f"failed: {label}: {type(err).__name__}: {err}", file=sys.stderr)
            return
        if problem:
            self.failed += 1
            self.wrong += 1
            print(f"wrong: {label}: {problem}", file=sys.stderr)


class Totals:
    """Seconds and counts summed over operations, by call name or key."""

    def __init__(self, calls: dict, tallies: dict):
        self.calls = defaultdict(lambda: [0.0, 0])
        self.tallies = defaultdict(lambda: [0.0, 0])
        for source, target in ((calls, self.calls), (tallies, self.tallies)):
            for (_, key), (seconds, count) in source.items():
                target[key][0] += seconds
                target[key][1] += count
        self.wall = sum(seconds for seconds, _ in self.calls.values())

    def seconds(self, name: str) -> float:
        return self.calls[name][0]

    def count(self, key) -> int:
        return self.tallies[key][1]

    def rate(self, key) -> float:
        """Work items per second under ``key`` (0 if none completed)."""
        seconds, items = self.tallies[key]
        return items / seconds if seconds else 0.0

    def per_item(self, key, scale: float) -> float:
        """Seconds per work item under ``key``, times ``scale``."""
        seconds, items = self.tallies[key]
        return scale * seconds / items if items else 0.0

    def per_call(self, name: str, scale: float) -> float:
        """Mean duration of the calls to ``name``, times ``scale``."""
        seconds, calls = self.calls[name]
        return scale * seconds / calls if calls else 0.0


class Rounds:
    """Each operation's median over the rounds, in seconds at the
    reference speed.

    Every round makes the same calls, so each (operation, call name) key
    has one duration per round; the median of those is the figure.
    Scaling by the host's speed removes its slow and fast phases, and the
    median removes the short stalls that other tenants add to single
    calls.
    """

    def __init__(self):
        # key -> (count, seconds of each round); the count is the same in
        # every round.  Flat arrays keep the memory that grows with the
        # number of rounds small, so that peak RSS shows conproj's memory.
        self.calls = {}
        self.tallies = {}
        self.walls = array("d")  # each round's time, oracle checks included
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add(self, rec: Recorder) -> None:
        for table, rounds in ((rec.calls, self.calls), (rec.tallies, self.tallies)):
            for key, (seconds, count) in table.items():
                rounds.setdefault(key, (count, array("d")))[1].append(seconds)
        self.walls.append(rec.wall)
        self.attempted += rec.attempted
        self.failed += rec.failed
        self.wrong += rec.wrong

    def totals(self) -> Totals:
        def medians(table):
            return {key: (statistics.median(seconds), count)
                    for key, (count, seconds) in table.items()}
        return Totals(medians(self.calls), medians(self.tallies))


def write_spans(path, recorders, info: dict) -> None:
    """One JSON line of run information, then one line per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(info) + "\n")
        for round_index, rec in enumerate(recorders):
            for name, start, end, parent, op in rec.spans:
                handle.write(json.dumps({
                    "round": round_index, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op,
                }) + "\n")
