"""Special functions against independent oracles and frozen references.

The oracles here are deliberately unrelated to the implementation: a
Maclaurin series for erf and an adaptive-quadrature integral for E1, plus
a handful of values frozen at full double precision.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from egstherm.specfun import erf, erfc, exp_integral_e1

# Frozen at full precision from the shipped routines; any drift is a change
# in behaviour, not a tolerance question.
ERF_FROZEN = {
    0.5: 0.52049987781304654,
    1.0: 0.84270079294971487,
    2.0: 0.99532226501895273,
}
ERFC_FROZEN = {
    1.0: 0.15729920705028513,
    3.0: 2.2090496998585441e-05,
    6.0: 2.1519736712498913e-17,
}
E1_FROZEN = {
    0.01: 4.0379295765381138,
    0.25: 1.0442826344437382,
    1.0: 0.21938393439552027,
    5.0: 0.0011482955912753258,
    10.0: 4.1569689296853243e-06,
}


def erf_series(x, terms=60):
    """Maclaurin series 2/sqrt(pi) sum (-1)^k x^(2k+1) / (k! (2k+1))."""
    total = 0.0
    term = x
    for k in range(terms):
        total += term / (2 * k + 1)
        term *= -x * x / (k + 1)
    return 2.0 / math.sqrt(math.pi) * total


def e1_quadrature(x):
    """E1(x) = integral of exp(-x u) / u over u in [1, inf)."""
    val, err = quad(lambda u: math.exp(-x * u) / u, 1.0, np.inf, limit=200)
    # quad reports a conservative ~4e-10 absolute bound on this family;
    # the values themselves agree with references to ~1e-11 relative
    assert err < 1e-8
    return val


@pytest.mark.parametrize("x,expected", sorted(ERF_FROZEN.items()))
def test_erf_frozen(x, expected):
    assert erf(x) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("x,expected", sorted(ERFC_FROZEN.items()))
def test_erfc_frozen(x, expected):
    assert erfc(x) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("x,expected", sorted(E1_FROZEN.items()))
def test_e1_frozen(x, expected):
    assert exp_integral_e1(x) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 3.0])
def test_erf_against_series_oracle(x):
    assert erf(x) == pytest.approx(erf_series(x), rel=1e-12)
    assert erf(-x) == pytest.approx(-erf_series(x), rel=1e-12)


@pytest.mark.parametrize("x", [0.01, 0.1, 0.25, 0.5, 0.9999, 1.0001, 2.0, 5.0, 10.0])
def test_e1_against_quadrature_oracle(x):
    assert exp_integral_e1(x) == pytest.approx(e1_quadrature(x), rel=1e-9)


def test_e1_continuous_across_algorithm_switch():
    # E1 is classically summed as a series below 1 and a continued fraction
    # above; the seam must be smooth
    lo = exp_integral_e1(1.0 - 1e-9)
    hi = exp_integral_e1(1.0 + 1e-9)
    assert abs(hi - lo) < 1e-8 * exp_integral_e1(1.0)


@pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 3.0, 8.0, 20.0])
def test_e1_bracketed_by_classic_bounds(x):
    # exp(-x) log(1 + 1/x) / something is looser; these are the standard ones:
    # e^-x / (x + 1) < E1(x) < e^-x / x
    val = exp_integral_e1(x)
    assert math.exp(-x) / (x + 1.0) < val < math.exp(-x) / x


def test_e1_derivative_identity():
    # d/dx E1 = -exp(-x)/x, checked by central difference
    x, h = 0.7, 1e-6
    num = (exp_integral_e1(x + h) - exp_integral_e1(x - h)) / (2 * h)
    assert num == pytest.approx(-math.exp(-x) / x, rel=1e-8)


def test_erf_erfc_complement():
    for x in (-2.0, -0.3, 0.0, 0.4, 1.7, 4.0):
        assert erf(x) + erfc(x) == pytest.approx(1.0, rel=0, abs=1e-15)


def test_erf_special_points():
    assert erf(0.0) == 0.0
    assert erfc(0.0) == 1.0
    # erf saturates to the correctly rounded double; erfc keeps relative
    # accuracy and stays nonzero far into the tail
    assert erf(6.0) == 1.0
    assert erf(-6.0) == -1.0
    assert 0.0 < erfc(6.5) < 1e-18
    assert erfc(-6.5) == 2.0


def test_erf_odd_erfc_reflection():
    for x in (0.2, 1.3, 2.8):
        assert erf(-x) == -erf(x)
        assert erfc(-x) == pytest.approx(2.0 - erfc(x), rel=1e-15)


def test_erf_monotone():
    xs = np.linspace(-3.0, 3.0, 41)
    vals = [erf(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_e1_monotone_decreasing():
    xs = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    vals = [exp_integral_e1(x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_e1_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            exp_integral_e1(bad)


def test_erfc_elementwise_matches_math_erfc():
    xs = np.concatenate([np.linspace(-7.0, 30.0, 371), [6.0, 5.92, 1e-300]])
    got = erfc(xs.reshape(11, 34))
    assert got.dtype == np.float64 and got.shape == (11, 34)
    assert np.array_equal(got.ravel(), [math.erfc(x) for x in xs])
    assert type(erfc(1.0)) is float
    assert erfc(np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_erfc_array_refuses_non_finite_element(bad):
    with pytest.raises(ValueError, match=f"x must be finite, got {bad!r}"):
        erfc(np.array([0.5, bad, 1.0]))


def test_erf_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            erf(bad)
        with pytest.raises(ValueError):
            erfc(bad)
