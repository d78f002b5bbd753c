"""Special functions used by the closed-form heat-transfer solutions.

The error function, the complementary error function (elementwise over
arrays), and the exponential integral E1, each behind a finiteness check so
a NaN or infinity is refused by name instead of propagating. erf and erfc
are the standard library's correctly rounded routines; E1 is SciPy's
``scipy.special.exp1``, imported on first use so the forecasting path stays
free of SciPy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erf", "erfc", "exp_integral_e1"]

_erfc_elementwise = np.frompyfunc(math.erfc, 1, 1)


def _require_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def erf(x: float) -> float:
    """Error function erf(x) = (2/sqrt(pi)) * integral_0^x exp(-u^2) du.

    Odd in x; the returned double is exactly +-1 from |x| ~ 5.92 on.

    Parameters
    ----------
    x : float
        Argument. Must be finite.

    Returns
    -------
    float
        erf(x), in [-1, 1].
    """
    return math.erf(_require_finite(x, "x"))


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


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = integral_x^inf exp(-u)/u du, x > 0.

    SciPy's ``scipy.special.exp1``; it underflows to 0 beyond x ~ 700,
    which is the correct double.

    Parameters
    ----------
    x : float
        Argument, strictly positive and finite.

    Returns
    -------
    float
        E1(x), positive and strictly decreasing in x.
    """
    x = _require_finite(x, "x")
    if x <= 0.0:
        raise ValueError(f"exp_integral_e1 requires x > 0, got {x}")
    from scipy.special import exp1  # imported here: SciPy costs ~0.6 s at CLI start

    return float(exp1(x))
