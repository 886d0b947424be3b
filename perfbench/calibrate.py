"""Machine-speed reference for timing on a shared, drifting CPU.

On a virtual machine that shares its host the CPU speed drifts by up to 2x
over minutes, so the wall time of an unchanged computation moves more than
any bound worth setting.  ``Clock`` samples that speed while the measured code runs: every
``INTERVAL_S`` a SIGALRM handler runs one block of a fixed reference kernel,
independent of the library, in the main thread between bytecodes.  A call's
time, net of the blocks that ran inside it, is scaled by
``NOMINAL_S / mean block time`` around the call: it is the time the call
would take at the speed where one block takes ``NOMINAL_S``.

Measured on 2 vCPUs over 120 s, for a fixed 1.2 s library call: unscaled
times varied with a coefficient of variation of 20% (0.83-1.58 s), scaled
times with 7%.  Against sums of five calls, over 180 s, this kernel left a
2.5% variation for both action solves and Runge-Kutta orbits, a kernel of
small-vector work alone 4.5%.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

# typical block time on a shared 2-vCPU virtual machine; the unit of every
# scaled time
NOMINAL_S = 0.0025
INTERVAL_S = 0.1
BLOCK_ITERATIONS = 160
# blocks this close to a call also describe the machine's speed during it
MARGIN_S = 1.0


def kernel(iterations: int = BLOCK_ITERATIONS) -> float:
    """Fixed work shaped like the library's two hot loops: small-vector numpy
    operations driven from Python (Runge-Kutta stages) and whole-path array
    arithmetic with compensated sums (action assembly).  numpy is imported
    here so that importing this module leaves the BLAS thread settings to the
    caller."""
    import math
    import numpy as np
    mix = np.array([[0.2, 0.1, 0.0, 0.3, 0.1, 0.0, 0.2]])
    y = np.ones(4)
    K = np.ones((7, 4))
    W = np.linspace(0.0, 1.0, 482).reshape(241, 2)
    s = 0.0
    for i in range(iterations):
        K[i % 7] = y * 0.999 + 1e-3
        y = y + 1e-3 * (mix @ K)[0]
        s += float(np.linalg.norm(y)) * 1e-6
        if i % 8 == 0:
            d = W[1:] - W[:-1]
            s += math.fsum(np.sum(d * d, axis=-1)) + math.fsum(W[:, 0])
    return s


class Clock:
    """Context manager that samples machine speed on an interval timer."""

    def __init__(self):
        self.blocks = []        # (start, end) of every reference block
        self._previous = None

    def __enter__(self):
        kernel()  # import and warm the kernel outside the signal handler
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.blocks.append((t0, perf_counter()))

    def times(self, t0: float, t1: float):
        """(net, scaled) seconds of the interval [t0, t1]: net excludes the
        blocks that ran inside it; scaled is net at the nominal speed."""
        net = (t1 - t0) - sum(b - a for a, b in self.blocks if a >= t0 and b <= t1)
        near = [b - a for a, b in self.blocks
                if b >= t0 - MARGIN_S and a <= t1 + MARGIN_S]
        near = near or [b - a for a, b in self.blocks]
        if not near:
            return net, net
        return net, net * NOMINAL_S / statistics.mean(near)
