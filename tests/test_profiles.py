"""Profile construction: analytic derivatives, supports, scalings."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from rellich import (
    Profile1D,
    bump,
    bump_corpus,
    plateau_profile,
    radial_power_bump,
)

from references import check_derivatives, log_squeezed

#: (1 - t^2)^3, the bump on [-1, 1], as numpy expands it
_BUMP = Polynomial([1.0, 0.0, -1.0]) ** 3


@pytest.mark.parametrize(
    "profile",
    [  # (profile, its polynomial in t on its support, or None if not polynomial)
        (bump(0.25, 0.5), _BUMP),
        (bump(-3.0, 7.0), _BUMP),
        (plateau_profile(50.0), _BUMP),
        (log_squeezed(bump(0.25, 0.5), 0.1), None),
        (bump(4.0, 5.0), _BUMP),
        (bump(2.0, 4.0), _BUMP),
        (radial_power_bump(1.5, 2.0), None),
    ],
)
def test_derivative_spot_check(profile):
    v, reference = profile
    if reference is None:
        # analytic d1/d2 match central differences at 100 interior points
        assert check_derivatives(v, points=100, rel_tol=1e-6) < 1e-6
        return
    # a polynomial jet is numpy's Polynomial and its derivatives, to rounding
    poly = Polynomial(reference.coef, domain=v.support)
    s = np.linspace(*v.support, 1001)[1:-1]
    for k, got in enumerate(v.jet(s)):
        want = poly.deriv(k)(s)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_oracle_rejects_a_wrong_jet(order):
    # the finite-difference oracle of the non-polynomial profiles can fail: a
    # jet whose v' or v'' is off by 1e-4 of its size is refused
    v = radial_power_bump(1.5, 2.0)

    def jet(s):
        out = list(v.jet(s))
        out[order] = out[order] * (1 + 1e-4)
        return tuple(out)

    with pytest.raises(AssertionError, match="finite differences"):
        check_derivatives(Profile1D(jet, v.support), points=100, rel_tol=1e-6)


@pytest.mark.parametrize("support", [(1.0, 3.0), (-200.0, 200.0)])
def test_jet_keeps_its_digits_near_the_ends(support):
    # v, v', v'' from 1e-12 to 1e-1 of the width from either end, against
    # exact rational arithmetic in the same float t; the expanded series
    # 1 - 3t^2 + 3t^4 - t^6 cancels there and keeps none of v's digits
    a, b = support
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    d = np.logspace(-12, -1)
    s = np.concatenate((a + (b - a) * d, b - (b - a) * d))
    jet = bump(a, b).jet(s)
    h = Fraction(half)
    for i, t in enumerate((s - mid) / half):
        t = Fraction(float(t))
        q = (1 - t) * (1 + t)
        exact = (q**3, -6 * t * q**2 / h, -6 * q * (1 - 5 * t * t) / h**2)
        for got, want in zip(jet, exact):
            assert abs(Fraction(float(got[i])) - want) <= Fraction(1, 10**14) * abs(want)


def test_endpoint_vanishing():
    for v in [bump(0.25, 0.5), plateau_profile(10.0), log_squeezed(bump(0.25, 0.5), 0.2)]:
        a, b = v.support
        for s in (a, b):
            for value in v.jet(np.array([s])):
                assert abs(float(value[0])) < 1e-12


def test_plateau_peak_and_scaling():
    for T in (25.0, 50.0, 100.0, 200.0):
        v = plateau_profile(T)
        assert float(v(np.array([0.0]))[0]) == 1.0
        s = np.linspace(-T, T, 4001)
        d2max = float(np.max(np.abs(v.jet(s)[2])))
        # ||v_T''||_inf = ||psi''||_inf / T^2
        ref = float(np.max(np.abs(bump(-1, 1).jet(np.linspace(-1, 1, 4001))[2])))
        assert abs(d2max - ref / T**2) < 1e-9


def test_bump_corpus_determinism_and_floor():
    a = bump_corpus(0, 5)
    b = bump_corpus(0, 5)
    assert [v.support for v in a] == [v.support for v in b]
    assert [v.support for v in bump_corpus(1, 5)] != [v.support for v in a]
    for v in bump_corpus(2, 20, center_range=(1.0, 3.0), left_min=math.log(2)):
        assert v.support[0] > math.log(2)


def test_profile_validation():
    with pytest.raises(ValueError):
        bump(1.0, 1.0)
    with pytest.raises(ValueError):
        Profile1D(lambda s: (s, s, s), (2.0, 1.0))
