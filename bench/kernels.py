"""Reference kernels that rescale every timing to a fixed nominal host speed.

The host this benchmark was built on drifts in speed by up to 1.7x over
spans of 5-20 s, and CPU time drifts with it.  Each kernel below does a
fixed amount of work that does not touch tuttekit.  Timing it right before
and right after a job gives the host's speed during that job, and

    rescaled = raw * NOMINAL_S / kernel_s

reads as seconds at the kernel's nominal speed.  A kernel only cancels the
drift of work that resembles it, so each workload names the kernel that
matches where its time goes (see WORKLOADS in workloads.py):

- "python": exact arithmetic in the interpreter (Fraction sums and dict
  updates keyed by tuples), like rank elimination and MultiPoly sums;
- "numpy": an int16 compare-and-bincount loop over a 200k array, like the
  point-counting kernel of finite_field.point_profile.

This module imports nothing heavy at top level: the set-up measurement
times `import tuttekit.cli` in a fresh process after importing it.
"""

import time
from fractions import Fraction

# Medians of each kernel's duration on the reference host (2 vCPU VM,
# Python 3.11.7, numpy 2.4.6).  They only fix the unit of the rescaled
# numbers; changing them rescales every figure by the same factor.
NOMINAL_S = {"python": 0.0022, "numpy": 0.0012}

_REPS = 3


def _python_work():
    acc = Fraction(0)
    table = {}
    for i in range(1, 800):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        key = (i % 13, i % 11)
        table[key] = table.get(key, 0) + i * i
    return acc


class _NumpyWork:
    def __init__(self):
        import numpy as np
        self.np = np
        size = 200_000
        self.base = (np.arange(size, dtype=np.int64) * 7919 % 31).astype(np.int32)

    def __call__(self):
        np = self.np
        h = np.zeros(self.base.shape[0], dtype=np.int16)
        for t in range(12):
            h += self.base == t
        return np.bincount(h, minlength=13)


class Kernel:
    """One reference kernel: `measure()` returns its duration in seconds.

    The duration is the minimum of a few repetitions, so that one scheduler
    hiccup does not read as a slow host.
    """

    def __init__(self, kind):
        if kind not in NOMINAL_S:
            raise ValueError("unknown kernel %r" % kind)
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        self._work = _python_work if kind == "python" else _NumpyWork()

    def measure(self):
        best = None
        for _ in range(_REPS):
            t0 = time.perf_counter()
            self._work()
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
        return best

    def rescale(self, raw_s, before_s, after_s):
        """Raw seconds at the speed seen around the job -> nominal seconds."""
        return raw_s * self.nominal_s / ((before_s + after_s) / 2)
