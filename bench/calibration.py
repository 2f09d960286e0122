"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores are shared with other tenants, the same Python and
LAPACK code runs up to a third slower or faster for seconds or minutes at a
time, and the process's CPU time moves with its wall time. A fixed kernel,
timed a few times a second while a workload runs, tracks that drift. In
10-second windows of `sweep` on a 2-core Xeon, the workload's time and the
kernel's correlated at 0.93, and their ratio varied 4.7% (standard deviation
over mean) where the workload alone varied 12%.

`Calibration` runs the kernel from a SIGALRM handler every `interval`
seconds. Python runs the handler between bytecodes of the main thread, never
inside a C call, so the workload's numpy state is never touched mid-call.
The time the handler takes is kept in `spent`, for the caller to take out of
its timings.

`speed(t0, t1)` is REFERENCE_S over the median kernel time sampled from
`window` seconds before t0 to `window` seconds after t1. `factor(t0, t1)` is
that speed to the power `sensitivity`: a span timed from t0 to t1 and
multiplied by it is about the time the span would have taken at the speed
where one kernel run takes REFERENCE_S. The sensitivity is the workload's
own: how far its time moves with the kernel's (see `workloads.py`). The
kernel runs only numpy and the interpreter, never entspec, so a change to
entspec moves the calibrated time as much as the raw one.
"""

import bisect
import signal
import statistics
import time

import numpy as np

# Kernel time on a 2-core Intel Xeon (OpenBLAS 0.3.31, 1 thread) at its
# usual speed. It only fixes the unit in which calibrated times are given;
# any fixed value would do.
REFERENCE_S = 0.006


class Calibration:
    def __init__(self, sensitivity=1.0, interval=0.25, window=1.0):
        self.sensitivity = sensitivity
        self.interval = interval
        self.window = window
        self.times = []    # when each kernel sample started, perf_counter seconds
        self.samples = []  # kernel seconds, in the same order
        self.spent = 0.0
        self._matrix = np.random.default_rng(0).standard_normal((48, 48))
        self._previous = None

    def _run_kernel(self):
        for _ in range(8):
            np.linalg.svd(self._matrix)
        acc = 0
        for i in range(6000):
            acc += i * i

    def kernel(self):
        """Time the fixed kernel: a few small SVDs and a pure-Python loop,
        the two kinds of work the workloads do. A first, untimed run warms
        the caches, so that the time does not depend on how much of them
        the interrupted workload had filled."""
        self._run_kernel()
        t0 = time.perf_counter()
        self._run_kernel()
        dt = time.perf_counter() - t0
        self.times.append(t0)
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        for _ in range(3):
            self.kernel()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(3):
            self.kernel()
        return False

    def speed(self, t0=None, t1=None):
        """REFERENCE_S over the median kernel time near [t0, t1], or over
        the whole run without bounds. Near means within `window` seconds;
        with fewer than three samples there, the three nearest count."""
        if t0 is None:
            near = self.samples
        else:
            lo = bisect.bisect_left(self.times, t0 - self.window)
            hi = bisect.bisect_right(self.times, t1 + self.window)
            while hi - lo < 3 and (lo > 0 or hi < len(self.times)):
                if lo > 0 and (hi == len(self.times)
                               or t0 - self.times[lo - 1] < self.times[hi] - t1):
                    lo -= 1
                else:
                    hi += 1
            near = self.samples[lo:hi]
        return REFERENCE_S / statistics.median(near)

    def factor(self, t0=None, t1=None):
        return self.speed(t0, t1) ** self.sensitivity
