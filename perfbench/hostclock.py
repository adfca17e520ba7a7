"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a third, in phases of seconds to minutes.  A whole run can fall inside a
slow phase, so the median of its batches does not remove the drift.  To take
it out, a fixed piece of calibration work (small numpy eigendecompositions
and a pure-Python loop, the same mix of interpreter and LAPACK work as the
program's hot paths) is timed every TICK_S seconds of wall time while a batch
runs, from a SIGALRM handler in the timed process itself.  A batch's time is
then

    (wall time - time spent in the handler) * REFERENCE_S / median calibration time

i.e. its wall time at the host speed at which the calibration takes
REFERENCE_S.  The calibration uses numpy and the standard library only, never
the program, so a change to the program moves the figure and a change of host
speed does not.  It does run inside the program's process, between its
steps, and reads somewhat slower there when the program holds a large heap
(about 3.0 ms under protocol-certify against 2.8 ms under oracle-verify at
the same time), so the figure is comparable between two versions of the
program on one workload, not between workloads.
"""

import signal
import statistics
import time

import numpy as np

TICK_S = 0.25
CALIBRATION_ROUNDS = 200
# The calibration's median time in an oracle-verify batch on a 2-vCPU cloud VM
# in a quiet phase of the host (Python 3.11, numpy 2, BLAS on one thread).
REFERENCE_S = 0.0026

_MATRIX = np.array(
    [[2.0, 0.5, 0.1, 0.0], [0.5, 1.0, 0.3, 0.2], [0.1, 0.3, 3.0, 0.4], [0.0, 0.2, 0.4, 0.5]]
)


def calibration_work() -> float:
    acc = 0.0
    for i in range(CALIBRATION_ROUNDS):
        acc += float(np.linalg.eigh(_MATRIX + i * 1e-6)[0][0])
        acc += sum(x * x for x in range(40))
    return acc


def time_calibration() -> float:
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def speed_factor(samples) -> float:
    """REFERENCE_S over the median calibration time: below 1 on a slow host.
    The median leaves out single samples slowed by something other than the
    host's speed, such as a page fault."""
    return REFERENCE_S / statistics.median(samples)


def calibrated_setup(setup_s: float) -> float:
    """A cold set-up time at the reference host speed, from calibrations
    timed right after it (the first call of eigh pays LAPACK's lazy set-up,
    so one is made first)."""
    np.linalg.eigh(_MATRIX)
    return setup_s * speed_factor([time_calibration() for _ in range(5)])


class HostClock:
    """Calibration samples taken every TICK_S seconds while active.

    `with clock:` starts the ticks (with one sample at entry and one at exit,
    so a batch always has two); `busy_s` is the total time spent in
    calibration so far, to subtract from the wall time it interrupted.
    """

    def __init__(self):
        self.samples = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self, *_):
        took = time_calibration()
        self.samples.append(took)
        self.busy_s += took

    def __enter__(self):
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False
