"""Independent reference computations shared by the test modules."""

from typing import Callable

import numpy as np


def numeric_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, step: float = 1e-6
) -> np.ndarray:
    """Central finite differences of a scalar function, element by element.

    Intended for verifying analytic gradients on small problems; cost is
    two function evaluations per element.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f(x)
        x[idx] = orig - step
        lo = f(x)
        x[idx] = orig
        out[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return out
