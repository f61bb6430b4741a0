"""Machine speed, sampled by a fixed calibration kernel while operations run.

On a shared host identical work runs 10-40 % slower for stretches from a
fraction of a second to minutes, and the slowdown shows in CPU time as
much as in wall time, so neither can be compared across runs as it is.
So while a workload measures, an interval timer interrupts it every
INTERVAL_S seconds and the signal handler times one call of a fixed
kernel, which is not ctcbox code.  The handler's time is taken out of the
operation it interrupted.  Each latency is then scaled by NOMINAL_S over
the median kernel time while the operation ran, or, for an operation too
short to be interrupted RECENT times, over the last RECENT calls.  The
result is the time the operation would take on a machine where the kernel
takes NOMINAL_S, its usual median during a run on the reference machine
(2 vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6).  A slowdown of
the host cancels; a slower ctcbox does not, because the kernel does not
call it.

There are two kernels, each close to the work it calibrates.  "python"
is dict and integer work, like the classical engine and the CLI.
"matrix" is small numpy calls, steps of a loop map on 8x8 complex
matrices with a trace norm, like the Deutsch solver; it imports numpy
only when it is chosen.  The timer is real time, so the samples go on
while a CLI child runs; the benchmark is held to one CPU (run.py), where
the child runs too.

    python3 perfbench/speed.py     # print each kernel's median time here
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
RECENT = 16
LOOPS = 2000
# median seconds of one kernel call during a run on the reference machine
NOMINAL_S = {"python": 6.0e-4, "matrix": 1.0e-3}
MATRIX_STEPS = 12


def python_kernel():
    table = {}
    acc = 0
    for i in range(LOOPS):
        key = (i * 40503) & 255
        table[key] = table.get(key, 0) + (acc ^ i)
        acc = (acc + key) & 0xFFFF
    return acc


def matrix_kernel():
    """A kernel of small numpy calls, built on first use: steps of a loop
    map on 8x8 complex matrices, each with a trace norm."""
    import numpy as np

    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    rho = np.diag([0.75, 0.25]).astype(complex)
    start = np.eye(4, dtype=complex) / 4

    def kernel():
        sigma = start
        for _ in range(MATRIX_STEPS):
            joint = u @ np.kron(rho, sigma) @ u.conj().T
            sigma = np.trace(joint.reshape(2, 4, 2, 4), axis1=0, axis2=2)
            sigma = (sigma + sigma.conj().T) / 2
            np.linalg.svd(sigma, compute_uv=False)
        return sigma

    return kernel


class Speed:
    """Samples the kernel on a timer and scales latencies; see the module doc."""

    def __init__(self, kind: str = "python"):
        self.kernel = matrix_kernel() if kind == "matrix" else python_kernel
        self.nominal = NOMINAL_S[kind]
        self.samples: list[float] = []
        self.stolen = 0.0  # seconds spent in the handler

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)
        self.stolen += time.perf_counter() - start

    def sample(self, calls: int):
        for _ in range(calls):
            self._tick(None, None)

    def start(self):
        """Start the timer after RECENT kernel calls, so the first
        operation has an estimate."""
        self.sample(RECENT)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int, float]:
        return time.perf_counter(), len(self.samples), self.stolen

    def elapsed(self, mark) -> tuple[float, float]:
        """Latency since ``mark`` without the handler's time, and that
        latency at the nominal speed."""
        start, calls, stolen = mark
        latency = time.perf_counter() - start - (self.stolen - stolen)
        during = self.samples[calls:]
        kernel_s = statistics.median(
            during if len(during) >= RECENT else self.samples[-RECENT:])
        return latency, latency * self.nominal / kernel_s

    def factor(self) -> float:
        """Nominal over the median kernel time so far."""
        return self.nominal / statistics.median(self.samples)


if __name__ == "__main__":
    for kind in NOMINAL_S:
        speed = Speed(kind)
        speed.sample(5000)
        print(f"{kind} kernel: median {statistics.median(speed.samples):.4g} s, "
              f"nominal {NOMINAL_S[kind]:.4g} s")
