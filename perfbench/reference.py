"""The reference kernel that the end-to-end task times are divided by.

On a shared machine the speed of the whole host drifts by up to 2x, in
phases of seconds to minutes, and process CPU time drifts with it.  So the
worker times this fixed kernel before and after every task and, with
``Sampler``, inside it, and reports the task's cost as ``task time /
kernel time``, in units of ``ref`` (one ``ref`` is one run of the kernel
at that moment).  The drift slows the task and the kernel alike and
cancels from the ratio, while a change to ``impulse_geo`` moves the task
time only: the kernel uses numpy and Python alone and never touches the
package.

The kernel mixes the kinds of work the package does: an explicit step of
a small ODE on length-2 numpy arrays, plain Python objects, and numpy on
whole arrays, as ``picard_solve`` does on its node grids.  One run takes
about 1.3 ms on a 2-vCPU cloud VM.
"""

import math
import signal
import statistics
import time

import numpy as np

SAMPLES = 3          # kernel runs per measurement; their median is taken
_MATRIX = np.random.default_rng(0).random((96, 96))


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y

    def step(self, other):
        return _Point(self.x * other.y - self.y * other.x + 1.0,
                      self.x + 0.5 * other.x)


def kernel():
    """Three parts of about equal time, one for each kind of work the
    workloads mix: a step loop on length-2 arrays, plain Python objects
    and dicts, and whole-array numpy on a 96 x 96 matrix."""
    y = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    h = 0.01
    acc = 0.0
    for i in range(75):
        r2 = float(y @ y)
        a = -y * (1.0 + 0.1 * r2)
        v = v + h * a
        y = y + h * v
        acc += math.sqrt(r2) * h
        if i % 8 == 0:
            acc += float(np.max(np.abs(np.outer(y, v))))
    table, p, q = {}, _Point(1.0, 2.0), _Point(0.5, 0.25)
    for i in range(450):
        p = q.step(_Point(i * 1e-3, 1.0))
        table[i & 255] = p.x
        acc += len(str(i & 63))
    acc += sum(table.values())
    m = _MATRIX
    for _ in range(8):
        m = np.tanh(m @ _MATRIX * 0.01)
        acc += float(m.sum())
    return acc


def measure():
    """Median wall time of ``SAMPLES`` kernel runs, in seconds."""
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm_up(runs=50):
    for _ in range(runs):
        kernel()


class Sampler:
    """Times the kernel every ``interval`` seconds while a task runs.

    A task of a second or more outlasts the host's short speed phases, so
    the kernel times on either side of it say little about its middle.  A
    ``SIGALRM`` handler takes the samples inside the task instead; the
    time they take is kept in ``spent``, for the caller to take off the
    task's time.  An ``interval`` of 0 takes no samples.
    """

    def __init__(self, interval):
        self.interval = interval
        self.samples, self.spent = [], 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(measure())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
