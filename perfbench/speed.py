"""Host-speed normalisation for timings taken on a shared machine.

The hosts this benchmark runs on change speed by tens of percent from one
tenth of a second to the next, for every process alike.  A fixed loop of
small numpy updates that uses no package code (``probe``) measures that
speed.  While a unit of work runs, ``Sampler`` interleaves one short probe
chunk with it every ``PERIOD_S`` seconds on a timer signal, in the main
thread between bytecodes.  The unit's time minus the probe time, scaled by
``REFERENCE_CHUNK_S`` over the mean chunk time, is the time the unit would
take on a host where one chunk takes ``REFERENCE_CHUNK_S``.  Because the
probe and the unit share the same moments, fast changes of host speed
cancel, which timing the probe only before and after a unit cannot do.
"""

import signal
import time

import numpy as np

CHUNK_ITERATIONS = 1000
REFERENCE_CHUNK_S = 0.005
PERIOD_S = 0.06

_LOW = np.arange(0, 16, 2)
_HIGH = _LOW + 1
_GATE = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)


def probe(chunks: int = 1) -> float:
    """Mean seconds per chunk of the fixed loop, over `chunks` chunks."""
    state = np.zeros(16, dtype=complex)
    state[0] = 1.0
    start = time.perf_counter()
    for _ in range(chunks * CHUNK_ITERATIONS):
        low = state[_LOW]
        high = state[_HIGH]
        state[_LOW] = _GATE[0, 0] * low + _GATE[0, 1] * high
        state[_HIGH] = _GATE[1, 0] * low + _GATE[1, 1] * high
    return (time.perf_counter() - start) / chunks


def scale(seconds: float, chunk_s: float) -> float:
    """`seconds` measured while one chunk took `chunk_s`, at the reference speed."""
    return seconds * REFERENCE_CHUNK_S / chunk_s


class Sampler:
    """Context manager: probe chunks interleaved with the enclosed work."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, seconds: float) -> float:
        """The enclosed work's `seconds`, less the probe time, at the reference speed."""
        if not self.samples:  # work shorter than one period
            return scale(seconds, probe())
        spent = sum(self.samples)
        return scale(seconds - spent, spent / len(self.samples))
