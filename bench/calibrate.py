"""Reference kernels that measure how fast the machine is running right now.

On a shared virtual machine the same code runs up to twice as slow for
seconds or minutes at a time, when other tenants load the host.  Such a
slowdown shows as the CPU time of the process, not as steal, so neither
longer runs nor CPU time take it out.  The benchmark therefore times a
fixed reference kernel after each operation and every PERIOD_S during
one, subtracts the time the readings took, and scales each operation's
time by NOMINAL_S / (the median reading around it): a time reported at
the speed at which the kernel takes NOMINAL_S.  The kernels belong to the
benchmark and call nothing in photonlab, so a change to photonlab moves
the scaled time exactly as much as it moves the raw time.

Three kernels, because interpreter-bound code, memory-bound code and
process start slow down differently:

- ``interpreter``: builds small tuples, hashes them into a dict and does
  complex arithmetic, the way the Fock core handles basis states.  The
  tuples it makes are freed at once, so it never triggers a garbage
  collection and its speed does not depend on the size of the heap.
- ``array``: numpy exponentials, products and a matrix product on arrays
  of one to two megabytes, the way the field kernels use memory.
- ``spawn``: starts a Python process that imports numpy, for operations
  that are processes of their own.  A reading in the parent while such an
  operation runs measures the parent, not the child, so this kernel is
  read between operations only.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

from harness import NullTracer

# reference kernel -> its time at the speed reported, in seconds: about
# its median reading on the shared 2-vCPU machine the bounds were set on,
# so scaled times read close to raw ones there
NOMINAL_S = {"interpreter": 0.005, "array": 0.007, "spawn": 0.2}
# period of the readings taken while a meter runs; a spawn is never read
# on a timer
PERIOD_S = 0.1
# an interval is scaled by the readings from this long before it starts
# to this long after it ends: enough readings for a short operation,
# while the host's speed holds for seconds at a time
WINDOW_S = {"interpreter": 0.5, "array": 0.5, "spawn": 2.0}
READING_SPAN = "calibrate.reading_s"

_KEYS = [(i % 11, i % 7, i % 3) for i in range(231)]
_TABLE = {key: complex(i, 1) for i, key in enumerate(_KEYS)}
_INTERPRETER_ROUNDS = 72
_arrays = None


def _interpreter() -> complex:
    table, acc = _TABLE, 0j
    for _ in range(_INTERPRETER_ROUNDS):
        for a, b, c in _KEYS:
            acc = acc * 0.5 + table.get((a, b, c), 0j) * 1.0001
    return acc


def _array() -> float:
    global _arrays
    if _arrays is None:
        import numpy as np

        phase = np.linspace(0.0, 50.0, 1 << 17).reshape(128, 1024)
        basis = np.exp(1j * np.linspace(0.0, 3.0, 1024 * 16)).reshape(1024, 16)
        _arrays = (np, phase, basis)
    np, phase, basis = _arrays
    field = np.exp(1j * phase)
    power = float((field * field.conj()).real.sum())
    return power + float(np.abs(field @ basis).sum())


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


KERNELS = {"interpreter": _interpreter, "array": _array, "spawn": _spawn}


class SpeedMeter:
    """Times the reference kernel when asked and, while running, every PERIOD_S."""

    def __init__(self, kind: str, tracer=NullTracer()):
        self.kind = kind
        # each reading is a span of its own, so it is not counted in the
        # self time of a span it interrupts
        self._tracer = tracer
        self._kernel = KERNELS[kind]
        self._starts: list[float] = []
        self._times: list[float] = []
        self._busy = False

    def read(self) -> None:
        self._busy = True
        with self._tracer.span(READING_SPAN):
            t0 = time.perf_counter()
            self._kernel()
            self._starts.append(t0)
            self._times.append(time.perf_counter() - t0)
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:  # a timer reading never splits another reading
            self.read()

    @contextmanager
    def running(self):
        """Readings every PERIOD_S while the block runs, in this thread and inside its time."""
        if self.kind == "spawn":
            yield self
            return
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, t0: float, t1: float) -> list[float]:
        """Times of the readings that started between t0 and t1."""
        return self._times[bisect.bisect_left(self._starts, t0):bisect.bisect_right(self._starts, t1)]

    def taken(self, t0: float, t1: float) -> float:
        """Seconds the readings took between perf_counter times t0 and t1."""
        return sum(self._between(t0, t1))

    def scale(self, t0: float, t1: float) -> float:
        """Factor from raw seconds to seconds at the reference speed, for the interval t0..t1."""
        window = WINDOW_S[self.kind]
        return NOMINAL_S[self.kind] / statistics.median(self._between(t0 - window, t1 + window))
