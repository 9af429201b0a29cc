"""Green-function and heat-kernel bound evaluators."""

import math

import numpy as np
import pytest

from rellich import (
    DEFAULT_TOL,
    DZero,
    GreenBoundInput,
    OperatorParams,
    discriminant,
    g0,
    heat_kernel_bound,
    tail_exponent_integrable,
)
from rellich.quadrature import integrate

P5 = OperatorParams(5, 0, 0)
PD0 = OperatorParams(3, 1, -1)  # D = 0, s1 = 1


class TestInput:
    def test_triangle_guard(self):
        GreenBoundInput(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            GreenBoundInput(1.0, 1.0, 2.5)
        with pytest.raises(ValueError):
            GreenBoundInput(3.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GreenBoundInput(0.0, 1.0, 1.0)


class TestPositiveD:
    def test_unit_point(self):
        assert g0(P5, GreenBoundInput(1, 1, 1)) == 1.0

    def test_drift_prefactor(self):
        # prefactor r1^{-c/2} r2^{c/2} = 1/4; sqrt(D) - (N-2)/2 = 1 here
        P = OperatorParams(5, 2, 0)
        val = g0(P, GreenBoundInput(4, 1, 4))
        expected = 0.25 * 4.0 ** (2 - 5) * min(1.0, 4 * 1 / 16.0) ** 1
        assert abs(val - expected) < 1e-15 * expected

    def test_N2_branch_continuity(self):
        P = OperatorParams(2, 0, 1)  # D = 1
        r1, r2 = 1.3, 0.7
        d = math.sqrt(r1 * r2)
        lo = g0(P, GreenBoundInput(r1, r2, d * (1 - 1e-9)))
        hi = g0(P, GreenBoundInput(r1, r2, d * (1 + 1e-9)))
        assert abs(lo - hi) < 1e-7 * abs(hi)

    def test_ND_seam_continuity_and_decay(self):
        P = OperatorParams(5, 1, 2)
        r1, r2 = 0.9, 1.1
        seam = math.sqrt(r1 * r2)
        lo = g0(P, GreenBoundInput(r1, r2, seam - 1e-12))
        hi = g0(P, GreenBoundInput(r1, r2, seam + 1e-12))
        assert abs(lo - hi) < 1e-10 * abs(hi)
        vals = [g0(P, GreenBoundInput(r1, r2, d))
                for d in np.linspace(seam, r1 + r2, 50)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)


class TestZeroD:
    def test_exponential_range(self):
        val = g0(PD0, GreenBoundInput(1, 1, 2))
        assert abs(val - math.exp(-2)) < 1e-15

    def test_short_distance_amplification(self):
        val = g0(PD0, GreenBoundInput(1, 1, 0.5))
        assert abs(val - 2 * math.exp(-0.5)) < 1e-15

    def test_N2_branches(self):
        P = OperatorParams(2, 0, 0)
        inside = g0(P, GreenBoundInput(1, 1, 0.5))
        outside = g0(P, GreenBoundInput(1, 1, 1.5))
        assert abs(inside - (1 - math.log(0.5))) < 1e-15
        assert abs(outside - math.exp(-1.5)) < 1e-15

    def test_monotone_decay_N3(self):
        vals = [g0(PD0, GreenBoundInput(1, 1, d)) for d in np.linspace(1.0, 2.0, 30)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestHeatKernel:
    def test_positive_D_unit(self):
        val = heat_kernel_bound(P5, 1.0, 1.0, GreenBoundInput(1, 1, 0))
        assert val == 1.0

    def test_zero_D_value(self):
        # t^{-N/2} = 1 at t = 1; prefactor r1^{-1} r2^{0} = 1; Gaussian 1
        val = heat_kernel_bound(PD0, 1.0, 1.0, GreenBoundInput(1, 1, 0), lambda1=3.0)
        assert abs(val - math.exp(-1.0)) < 1e-15

    def test_long_time_decay(self):
        vals = [heat_kernel_bound(PD0, 1.0, t, GreenBoundInput(1, 1, 0), lambda1=3.0)
                for t in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def near_zero_D(D):
    """PD0 with b moved so that the discriminant is D (N = 3, c = 1, s1 = 1)."""
    return OperatorParams(3, 1, -1 + D)


class TestCaseFromD:
    # the D = 0 formulas up to tol, the D > 0 ones above it, DZero below -tol
    TOLS = (DEFAULT_TOL, 1e-3)

    def test_g0_formula_from_D(self):
        inp = GreenBoundInput(1, 1, 2)
        for tol in self.TOLS:
            # D = 0: r1^{-1} r2^0 e^{-d} min(1, d)^{-1} = e^{-2}
            val = g0(near_zero_D(tol / 2), inp, tol=tol)
            assert abs(val - math.exp(-2)) < 1e-15, tol
            # D > 0: r1^{-1/2} r2^{1/2} d^{-1} min(1, 1/d^2)^{sqrt(D) - 1/2}
            P = near_zero_D(2 * tol)
            val = g0(P, inp, tol=tol)
            expected = 0.5 * 0.25 ** (math.sqrt(discriminant(P)) - 0.5)
            assert abs(val - expected) < 1e-15 * expected, tol
            assert abs(val - 1.0) < 0.1, tol  # far from the D = 0 value e^{-2}

    def test_heat_kernel_formula_from_D(self):
        inp = GreenBoundInput(1, 1, 0)
        for tol in self.TOLS:
            # D = 0 at t = 1: e^{-lambda1 / 3}; D > 0: every factor is 1
            val = heat_kernel_bound(near_zero_D(tol / 2), 1.0, 1.0, inp, lambda1=3.0, tol=tol)
            assert abs(val - math.exp(-1.0)) < 1e-15, tol
            val = heat_kernel_bound(near_zero_D(2 * tol), 1.0, 1.0, inp, lambda1=3.0, tol=tol)
            assert val == 1.0, tol

    def test_below_minus_tol_raises(self):
        for tol in self.TOLS:
            P = near_zero_D(-2 * tol)
            with pytest.raises(DZero):
                g0(P, GreenBoundInput(1, 1, 2), tol=tol)
            with pytest.raises(DZero):
                heat_kernel_bound(P, 1.0, 1.0, GreenBoundInput(1, 1, 0), tol=tol)


class TestTailExponent:
    def test_matches_threshold(self):
        # finite iff alpha < base + sqrt(D); base + sqrt(D) = 2.5 here
        assert tail_exponent_integrable(P5, 2, 2.4)
        assert not tail_exponent_integrable(P5, 2, 2.6)

    def test_quadrature_divergence_cross_check(self):
        # 1-D model integral over (0,1): integral r^{e p' + N - 1} dr
        from rellich.params import conjugate_exponent

        for alpha in (2.0, 2.4, 2.6, 3.0):
            e = math.sqrt(2.25) - 1.5 + 0.0 - alpha
            pp = conjugate_exponent(2.0)
            exponent = e * pp + 5 - 1
            claimed = tail_exponent_integrable(P5, 2, alpha)
            # integrate on shrinking inner cutoffs; for a convergent tail
            # the increments shrink, for a divergent one they grow
            parts = []
            for cut in (1e-2, 1e-4, 1e-6):
                val, err = integrate(lambda r: r**exponent, cut, 1.0)
                # each integral is resolved, and err says so
                exact = (1.0 - cut ** (exponent + 1)) / (exponent + 1)
                assert abs(val - exact) <= 1e-12 * abs(exact), (alpha, cut, val, exact)
                assert err <= 1e-12 * abs(val), (alpha, cut, err, val)
                parts.append(val)
            diverges = (parts[2] - parts[1]) > (parts[1] - parts[0])
            assert claimed == (not diverges), (alpha, parts)
