"""Green-function and heat-kernel bound evaluators."""

import math

import numpy as np
import pytest

from rellich import (
    DNonzero,
    DZero,
    GreenBoundInput,
    HeatKernelVariant,
    OperatorParams,
    VariantMismatch,
    g0_positive_D,
    g0_zero_D,
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
        assert g0_positive_D(P5, GreenBoundInput(1, 1, 1)) == 1.0

    def test_drift_prefactor(self):
        # prefactor r1^{-c/2} r2^{c/2} = 1/4; sqrt(D) - (N-2)/2 = 1 here
        P = OperatorParams(5, 2, 0)
        val = g0_positive_D(P, GreenBoundInput(4, 1, 4))
        expected = 0.25 * 4.0 ** (2 - 5) * min(1.0, 4 * 1 / 16.0) ** 1
        assert abs(val - expected) < 1e-15 * expected

    def test_N2_branch_continuity(self):
        P = OperatorParams(2, 0, 1)  # D = 1
        r1, r2 = 1.3, 0.7
        d = math.sqrt(r1 * r2)
        lo = g0_positive_D(P, GreenBoundInput(r1, r2, d * (1 - 1e-9)))
        hi = g0_positive_D(P, GreenBoundInput(r1, r2, d * (1 + 1e-9)))
        assert abs(lo - hi) < 1e-7 * abs(hi)

    def test_ND_seam_continuity_and_decay(self):
        P = OperatorParams(5, 1, 2)
        r1, r2 = 0.9, 1.1
        seam = math.sqrt(r1 * r2)
        lo = g0_positive_D(P, GreenBoundInput(r1, r2, seam - 1e-12))
        hi = g0_positive_D(P, GreenBoundInput(r1, r2, seam + 1e-12))
        assert abs(lo - hi) < 1e-10 * abs(hi)
        vals = [g0_positive_D(P, GreenBoundInput(r1, r2, d))
                for d in np.linspace(seam, r1 + r2, 50)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    def test_requires_positive_D(self):
        with pytest.raises(DZero):
            g0_positive_D(OperatorParams(2, 0, 0), GreenBoundInput(1, 1, 1))


class TestZeroD:
    def test_exponential_range(self):
        val = g0_zero_D(PD0, GreenBoundInput(1, 1, 2), decay_k=1.0)
        assert abs(val - math.exp(-2)) < 1e-15

    def test_short_distance_amplification(self):
        val = g0_zero_D(PD0, GreenBoundInput(1, 1, 0.5), decay_k=1.0)
        assert abs(val - 2 * math.exp(-0.5)) < 1e-15

    def test_N2_branches(self):
        P = OperatorParams(2, 0, 0)
        inside = g0_zero_D(P, GreenBoundInput(1, 1, 0.5))
        outside = g0_zero_D(P, GreenBoundInput(1, 1, 1.5))
        assert abs(inside - (1 - math.log(0.5))) < 1e-15
        assert abs(outside - math.exp(-1.5)) < 1e-15

    def test_monotone_decay_N3(self):
        vals = [g0_zero_D(PD0, GreenBoundInput(1, 1, d)) for d in np.linspace(1.0, 2.0, 30)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_requires_zero_D(self):
        with pytest.raises(DNonzero):
            g0_zero_D(P5, GreenBoundInput(1, 1, 1))


class TestHeatKernel:
    def test_positive_D_unit(self):
        val = heat_kernel_bound(P5, HeatKernelVariant.POSITIVE_D, 1.0, 1.0,
                                GreenBoundInput(1, 1, 0))
        assert val == 1.0

    def test_zero_D_value(self):
        # t^{-N/2} = 1 at t = 1; prefactor r1^{-1} r2^{0} = 1; Gaussian 1
        val = heat_kernel_bound(PD0, HeatKernelVariant.ZERO_D, 1.0, 1.0,
                                GreenBoundInput(1, 1, 0), lambda1=3.0)
        assert abs(val - math.exp(-1.0)) < 1e-15

    def test_long_time_decay(self):
        vals = [
            heat_kernel_bound(PD0, HeatKernelVariant.ZERO_D, 1.0, t,
                              GreenBoundInput(1, 1, 0), lambda1=3.0)
            for t in (1.0, 2.0, 4.0, 8.0, 16.0)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_variant_mismatch(self):
        with pytest.raises(VariantMismatch):
            heat_kernel_bound(P5, HeatKernelVariant.ZERO_D, 1.0, 1.0,
                              GreenBoundInput(1, 1, 0))
        with pytest.raises(VariantMismatch):
            heat_kernel_bound(PD0, HeatKernelVariant.POSITIVE_D, 1.0, 1.0,
                              GreenBoundInput(1, 1, 0))


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
