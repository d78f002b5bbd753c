"""The complementary error function against oracles, frozen references and identities.

The oracle is deliberately unrelated to the implementation: a Maclaurin
series for erf, checked through erf = 1 - erfc. Values are frozen at full
double precision; the identities check erfc against the standard library's
separately computed erf.
"""

import math

import numpy as np
import pytest

from egstherm.specfun import erfc

# Frozen at full precision; any drift is a change in behaviour, not a
# tolerance question. erf is reached as 1 - erfc.
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


def erf_series(x, terms=60):
    """Maclaurin series 2/sqrt(pi) sum (-1)^k x^(2k+1) / (k! (2k+1))."""
    total = 0.0
    term = x
    for k in range(terms):
        total += term / (2 * k + 1)
        term *= -x * x / (k + 1)
    return 2.0 / math.sqrt(math.pi) * total


@pytest.mark.parametrize("x,expected", sorted(ERF_FROZEN.items()))
def test_erf_frozen(x, expected):
    assert 1.0 - erfc(x) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("x,expected", sorted(ERFC_FROZEN.items()))
def test_erfc_frozen(x, expected):
    assert erfc(x) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 3.0])
def test_erf_against_series_oracle(x):
    assert 1.0 - erfc(x) == pytest.approx(erf_series(x), rel=1e-12)
    assert 1.0 - erfc(-x) == pytest.approx(-erf_series(x), rel=1e-12)


def test_erf_erfc_complement():
    for x in (-2.0, -0.3, 0.0, 0.4, 1.7, 4.0):
        assert math.erf(x) + erfc(x) == pytest.approx(1.0, rel=0, abs=1e-15)


def test_erf_special_points():
    assert erfc(0.0) == 1.0
    # erfc keeps relative accuracy and stays nonzero far into the tail
    assert 0.0 < erfc(6.5) < 1e-18
    assert erfc(-6.5) == 2.0


def test_erf_odd_erfc_reflection():
    for x in (0.2, 1.3, 2.8):
        assert erfc(-x) == pytest.approx(2.0 - erfc(x), rel=1e-15)


def test_erf_monotone():
    xs = np.linspace(-3.0, 3.0, 41)
    vals = [1.0 - erfc(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


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
            erfc(bad)
