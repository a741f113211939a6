"""Fixed reference kernels, timed between the program's units.

The machine the benchmark runs on is a share of a busy host. Its speed
changes by up to 1.5x from one second to the next and from one minute to
the next, and the process's CPU time per clip moves with it: ten runs of
the same code spread by 10-37% on CPU time alone. A kernel here is fixed
work of the kinds a workload does. Run at even intervals of the
program's CPU time, it samples the machine's speed at the moments the
program ran; the program's CPU time over the kernel's mean CPU time
cancels what the two share.

That ratio is reported in reference seconds: CPU seconds on a machine
that runs each kernel in its nominal time. The nominal times are the
kernels' CPU times on the development machine when it runs fast, so
reference seconds read close to its own CPU seconds.

The slowdown does not hit all work alike: interpreted Python slows by
more than a large eigensolve or a pass over memory does. So there are
two kernels, and each workload is scaled by the one its work resembles.
"""

from __future__ import annotations

import statistics
from time import process_time

import numpy as np

# kind -> CPU seconds one run takes on the reference machine
NOMINAL_S = {
    # Python dispatch, small numpy operations, a 48x48 eigensolve: the
    # loops at M=32 (training and held-out scoring), and set-up
    "interpreter": 0.002,
    # a 192x192 eigensolve and elementwise passes over two 8 MB arrays:
    # the loops at M=512 and M=2048, whose time goes to LAPACK and to
    # passes over M x M matrices of 2 MB and 32 MB
    "dense": 0.012,
}

# the kernel runs once per this many of its own runs' worth of program
# CPU time, so it adds ~8% to the timed loop at most
EVERY_RUNS = 12.5


def to_reference(program_s, kernel_s, kind="interpreter"):
    """``program_s`` CPU seconds in reference seconds, on a machine that
    ran the ``kind`` kernel in ``kernel_s`` CPU seconds."""
    return program_s * NOMINAL_S[kind] / kernel_s


class ReferenceKernel:
    def __init__(self, kind="interpreter"):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.every_s = EVERY_RUNS * NOMINAL_S[kind]
        if kind == "interpreter":
            a = rng.standard_normal((48, 48))
            self._vectors = [rng.standard_normal(16) for _ in range(24)]
        else:
            a = rng.standard_normal((192, 192))
            self._arrays = rng.standard_normal((2, 1 << 20))
        self._symmetric = a + a.T
        self.samples = []     # CPU seconds of each timed run
        self._owed = 0.0
        self._work()          # first-call paths, untimed

    def _work(self):
        if self.kind == "dense":
            np.linalg.eigh(self._symmetric)
            a, b = self._arrays
            return float(np.exp(a * 0.5 + b).sum())
        total = 0.0
        for _ in range(4):
            np.linalg.eigh(self._symmetric)
            for v in self._vectors:
                total += float(np.tanh(v * 0.5 + v).sum())
            table = {}
            for i in range(400):
                table[i % 31] = table.get(i % 31, 0) + i
        return total

    def run(self):
        """Time one run; returns its CPU seconds."""
        start = process_time()
        self._work()
        self.samples.append(process_time() - start)
        return self.samples[-1]

    def after(self, program_s):
        """Count ``program_s`` CPU seconds of program work; run the kernel
        once it is owed."""
        self._owed += program_s
        if self._owed >= self.every_s:
            self._owed = 0.0
            self.run()

    def scale(self, program_s):
        """``program_s`` CPU seconds in reference seconds, by the machine
        speed of every run so far."""
        if not self.samples:
            self.run()
        return to_reference(program_s, statistics.fmean(self.samples), self.kind)
