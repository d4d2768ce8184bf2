"""Host-speed sampler: corrects measured times for a host whose speed drifts.

On a shared 2-core VM the same pass over the corpus took anywhere from
9.5 s to 12.4 s within minutes, with `process_time` tracking wall time:
the host, not the program, changed speed.  To take that out, a profiling
timer interrupts the measured process every INTERVAL_S of CPU time and
times a fixed kernel of exact `Fraction` arithmetic and small-object
allocation, the same kind of work tensorcat does, written here so that no
change to tensorcat changes the kernel.  A time measured over an interval
is then scaled by REFERENCE_KERNEL_S over the mean kernel time sampled
in and around that interval: the result is seconds at the reference
host speed.  The raw times are reported beside the corrected ones.

The mean, not the median: the host switches between a fast and a slow
mode, so an interval's time is a mix of both.  Samples come at even steps
of CPU time, and their mean weighs the two modes as the interval did; a
median snaps to whichever mode had more samples.

The garbage collector is off while the kernel runs, so that a collection
of the measured program's heap never lands in a sample: the kernel times
the host, not the program's allocation state.
"""

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01              # CPU time between two samples
REFERENCE_KERNEL_S = 0.00025   # the kernel's time on an undisturbed host
WINDOW_S = 0.005               # samples this close to an interval count

_SIZE = 4
_M = [[Fraction(i + 1, j + 2) for j in range(_SIZE)] for i in range(_SIZE)]


def kernel():
    """A 4x4 product of rational matrices, kept as a dict of entries."""
    out = {}
    for r, row in enumerate(_M):
        for c in range(_SIZE):
            acc = Fraction(0)
            for k in range(_SIZE):
                acc += row[k] * _M[k][c]
            out[(r, c)] = acc
    return out


def take_samples(samples, count=1):
    """Append `count` (timestamp, kernel seconds) samples taken now, with
    the garbage collector off while each kernel runs."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            t0 = perf_counter()
            kernel()
            samples.append((t0, perf_counter() - t0))
    finally:
        if was_enabled:
            gc.enable()


class Sampler:
    """Samples the kernel on a profiling timer while started."""

    def __init__(self):
        self.samples = []
        self._old = None

    def _on_timer(self, _signum, _frame):
        take_samples(self.samples)

    def start(self):
        self._old = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old or signal.SIG_DFL)

    def burst(self, count):
        """Take `count` samples now, for intervals too short to be hit."""
        take_samples(self.samples, count)


def factor(samples, start, end) -> float:
    """Reference kernel time over the mean kernel time sampled within
    WINDOW_S of [start, end]; all samples when none is that close."""
    near = [d for t, d in samples if start - WINDOW_S <= t <= end + WINDOW_S]
    return REFERENCE_KERNEL_S / statistics.fmean(near or [d for _, d in samples])
