"""A fixed reference computation, timed to tell how fast the host runs now.

Usage: ``python calibrate.py``; prints the CPU seconds the computation took.

On a shared host the same work takes 1.6-2x its usual CPU time for
stretches of 0.2-2 s, on one virtual CPU at a time: the slowdowns of the
two CPUs of a 2-core host correlate at 0.12, so the load sits on the
physical core behind one of them.  ``run.py`` therefore keeps the workload and this
computation on one CPU and runs the computation before and after every
repetition; dividing a repetition's CPU time by the mean of the two
cancels most of the slowdown.  The computation mixes the kinds of work
the workloads do: integer arithmetic in the interpreter (as the
package's random number generator does), float64 matrix products in
numpy, and element-wise passes over an array too large for the caches
(as over the n x n distance matrices), with BLAS single-threaded like
the workloads.  It depends on nothing in the package, so a change to the
program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds this computation took on the host the baseline was measured
# on (2-core x86-64 VM, Python 3.11, OpenBLAS, BLAS threads 1), when that
# host was quiet.  Times are reported in these reference seconds.
REFERENCE_S = 1.2

_MASK = (1 << 64) - 1
_PY_STEPS = 450_000
_GEMMS = 45
_PASSES = 3


def _interpreter(n: int) -> int:
    s0, s1, s2, s3 = 1, 2, 3, 4
    out = 0
    for _ in range(n):
        x = (s0 + s3) & _MASK
        out ^= ((((x << 23) & _MASK) | (x >> 41)) + s0) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) & _MASK) | (s3 >> 19)
    return out


def _numpy(n: int) -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 1024))
    b = rng.standard_normal((1024, 500))
    total = 0.0
    for _ in range(n):
        c = a @ b
        np.maximum(c, 0.0, out=c)
        total += float((c * c).sum())
    return total


def _stream(n: int) -> float:
    x = np.random.default_rng(1).random(16_000_000)  # 128 MB
    y = np.empty_like(x)
    for _ in range(n):
        np.sqrt(x, out=y)
        y *= x
    return float(y.sum())


def measure() -> float:
    """CPU seconds of one pass over the reference computation."""
    began = time.process_time()
    _interpreter(_PY_STEPS)
    _numpy(_GEMMS)
    _stream(_PASSES)
    return time.process_time() - began


if __name__ == "__main__":
    print(repr(measure()))
