"""The complementary error function behind the closed-form solutions.

erfc elementwise over arrays: the standard library's correctly rounded
``math.erfc`` per element, behind a finiteness check so a NaN or infinity
is refused by name instead of propagating.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erfc"]

_erfc_elementwise = np.frompyfunc(math.erfc, 1, 1)


def erfc(x: float | np.ndarray) -> float | np.ndarray:
    """Complementary error function erfc(x) = 1 - erf(x), elementwise.

    Computed directly rather than by subtraction from 1, so the result
    keeps relative accuracy even where erf(x) is within rounding of 1,
    e.g. erfc(6) ~ 2.15e-17 is returned nonzero. Each element is
    ``math.erfc`` of that element, bit for bit.

    Parameters
    ----------
    x : float or array
        Argument. Every element must be finite.

    Returns
    -------
    float or array
        erfc(x), positive for all finite x: a float for a scalar x, a
        float64 array of x's shape otherwise.
    """
    x = np.asarray(x, dtype=float)
    finite = np.isfinite(x)
    if not finite.all():
        raise ValueError(f"x must be finite, got {float(x[~finite].flat[0])!r}")
    out = np.asarray(_erfc_elementwise(x), dtype=float)
    return float(out) if out.ndim == 0 else out
