"""Spectral regions, classifiers, and the parabola distance formula."""

import math

import numpy as np
import pytest

from rellich import (
    ADomain,
    DomainKind,
    GammaInterval,
    HarmonicSet,
    OperatorParams,
    OutOfRange,
    ParabolicRegion,
    classify_A,
    classify_gamma,
    classify_halfline_ode,
    decide,
    dist_to_parabola,
    eigen_lambda,
    gamma_p,
    in_region,
    mu_shift,
    ode_roots,
    omega_p,
    on_parabola,
    reduced_coefficients,
    region_section3,
    region_section4,
    resolvent_bound,
)

P5 = OperatorParams(5, 0, 0)
INF = math.inf


def brute_force_distance(beta: float, lam: complex, xi_max=None, grid=4001) -> float:
    """Oracle: min over a dense xi grid plus local ternary refinement."""
    lam = complex(lam)
    if xi_max is None:
        xi_max = math.sqrt(abs(lam) + beta**2) + 2.0

    def d(xi: float) -> float:
        return math.hypot(lam.real + xi**2, lam.imag - beta * xi)

    xs = np.linspace(-xi_max, xi_max, grid)
    vals = np.hypot(lam.real + xs**2, lam.imag - beta * xs)
    i = int(np.argmin(vals))
    lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, grid - 1)])
    for _ in range(60):
        third = (hi - lo) / 3
        m1, m2 = lo + third, hi - third
        if d(m1) < d(m2):
            hi = m2
        else:
            lo = m1
    return d((lo + hi) / 2)


class TestRegions:
    def test_section3_values(self):
        r = region_section3(P5, 2)
        assert (r.k, r.omega) == (-2.0, 1.25)
        r = region_section3(OperatorParams(5, 2, 0), INF)
        assert (r.k, r.omega) == (5.0, 0.0)
        r = region_section3(OperatorParams(4, 0, 0), 2)
        assert (r.k, r.omega) == (-2.0, 0.0)

    def test_section4_values(self):
        r = region_section4(P5, 2, 0)
        assert (r.k, r.omega) == (2.0, 11.25)
        r = region_section4(P5, 2, 1)  # alpha = base: degenerate
        assert (r.k, r.omega) == (0.0, 6.25)
        r = region_section4(P5, 2, 3)
        assert (r.k, r.omega) == (-4.0, -3.75)

    def test_section4_k_is_twice_base_gap(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            N = int(rng.integers(2, 13))
            c = float(rng.uniform(-4, 4))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, INF]))
            alpha = float(rng.uniform(-6, 6))
            P = OperatorParams(N, c, 0)
            r = region_section4(P, p, alpha)
            from rellich import base_alpha

            # algebraic identity k4 = 2(base - alpha), up to rounding
            assert abs(r.k - 2 * (base_alpha(P, p) - alpha)) \
                <= 1e-12 * (1 + N + abs(c) + 2 * abs(alpha))
            # beta shares the expression with -k4: bit-exact
            rc = reduced_coefficients(P, p, alpha, 0)
            assert rc.beta == -r.k

    def test_membership(self):
        r = ParabolicRegion(2.0, 0.0)
        assert in_region(r, -1) and not on_parabola(r, -1)
        assert on_parabola(r, complex(-1, 2))
        r0 = ParabolicRegion(0.0, 1.0)
        assert not in_region(r0, -0.5)
        assert in_region(r0, -1.5) and on_parabola(r0, -1.5)
        assert not in_region(r0, complex(-3, 0.5))  # off the real axis

    def test_membership_tolerance_scaling(self):
        r = ParabolicRegion(2.0, 0.0)
        lam = complex(-100, 20)  # exactly on P at xi = 10
        assert on_parabola(r, lam)
        assert on_parabola(r, lam + 1e-8)  # slack grows with |lambda|
        assert not on_parabola(r, lam + 1e-3)


class TestDistance:
    def test_frozen_values(self):
        assert dist_to_parabola(2, -1) == 1
        assert abs(dist_to_parabola(2, -4) - math.sqrt(12)) < 1e-15
        assert dist_to_parabola(0, -4) == 0.0
        assert dist_to_parabola(0, 3) == 3.0

    def test_against_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            beta = float(rng.uniform(-5, 5))
            lam = float(rng.uniform(-50, 10))
            got = dist_to_parabola(beta, lam)
            want = brute_force_distance(beta, lam)
            assert abs(got - want) < 1e-8, (beta, lam, got, want)


class TestOdeRoots:
    def test_frozen(self):
        assert ode_roots(0, -1) == (-1j, 1j)
        assert ode_roots(2, 0) == (-2, 0)
        assert ode_roots(2, 3) == (-3, 1)

    def test_vieta(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            beta = float(rng.uniform(-5, 5))
            lam = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            m1, m2 = ode_roots(beta, lam)
            assert abs(m1 + m2 + beta) < 1e-10
            assert abs(m1 * m2 + lam) < 1e-9 * (1 + abs(lam))


class TestHalfLineOde:
    def test_positive_cases(self):
        assert classify_halfline_ode(1, -1).in_point_certified
        c = classify_halfline_ode(-1, -1)
        assert c.in_residual_not_approx and not c.in_approx
        c = classify_halfline_ode(0, -1)
        assert c.in_approx and not c.in_point_certified

    def test_negative_side_mirrors(self):
        # s -> -s carries D^2 + beta D on (-inf, 0] to the call with -beta:
        # the same region Q, with certified and residual interiors swapped
        for beta in (-2.0, -0.5, 0.5, 2.0):
            for lam in (-1.0, complex(-2, 0.3), -0.1):
                a = classify_halfline_ode(beta, lam)
                b = classify_halfline_ode(-beta, lam)
                assert a.in_spectrum and b.in_spectrum
                assert a.in_point_certified == b.in_residual_not_approx == (beta > 0)
                assert b.in_point_certified == a.in_residual_not_approx == (beta < 0)

    def test_outside_Q(self):
        assert not classify_halfline_ode(1, 1).in_spectrum
        assert not classify_halfline_ode(1, complex(-0.5, 5)).in_spectrum

    def test_boundary_always_approx(self):
        for beta in (-2.0, 0.0, 1.5):
            for xi in (-1.3, 0.0, 2.2):
                lam = complex(-(xi**2), beta * xi)
                cls = classify_halfline_ode(beta, lam)
                assert cls.in_approx, (beta, xi)


class TestGamma:
    def test_half_line_is_parabola_only(self):
        w = omega_p(5, 2, 0)
        assert classify_gamma(P5, 2, GammaInterval.HALF_LINE, -w).in_approx
        assert not classify_gamma(P5, 2, GammaInterval.HALF_LINE, -w - 1).in_spectrum

    def test_unit_interval_cases(self):
        c = classify_gamma(P5, 2, GammaInterval.UNIT_INTERVAL, -omega_p(5, 2, 0) - 1)
        assert c.in_point_certified  # k = -2 < 0
        P56 = OperatorParams(5, 6, 0)
        c = classify_gamma(P56, 2, GammaInterval.UNIT_INTERVAL, -omega_p(5, 2, 6) - 1)
        assert c.in_residual_not_approx  # k = 4 > 0

    def test_unit_interval_degenerate_k(self):
        # N(1-2/p) - 2 + c = 0 for N=4, p=2, c=2
        P = OperatorParams(4, 2, 0)
        w = omega_p(4, 2, 2)
        c = classify_gamma(P, 2, GammaInterval.UNIT_INTERVAL, -w - 1)
        assert c.in_approx and not c.in_point_certified and not c.in_residual_not_approx
        assert not classify_gamma(P, 2, GammaInterval.UNIT_INTERVAL,
                                  complex(-w - 1, 0.5)).in_spectrum

    def test_boundary_points_approx(self):
        for c_par in (-1.0, 0.0, 6.0):
            P = OperatorParams(5, c_par, 0)
            region = region_section3(P, 2)
            for xi in (-2.0, 0.0, 1.0):
                lam = region.parabola_point(xi)
                cls = classify_gamma(P, 2, GammaInterval.UNIT_INTERVAL, lam)
                assert cls.in_approx


class TestClassifyA:
    def test_whole_space_shifted_vertex(self):
        lam = -omega_p(5, 2, 0) - eigen_lambda(5, 1)
        assert classify_A(P5, 2, HarmonicSet.all(), ADomain.WHOLE_SPACE, lam).in_approx

    def test_whole_space_between_parabolas(self):
        # real point left of the j=0 vertex but off every shifted parabola
        region = region_section3(P5, 2)
        lam = complex(-2.0, 10.0)  # xi for j=0 would be -5: Re = -25-1.25 != -2
        assert not classify_A(P5, 2, HarmonicSet.all(), ADomain.WHOLE_SPACE, lam).in_spectrum

    def test_ball_cases(self):
        c = classify_A(P5, 2, HarmonicSet.all(), ADomain.UNIT_BALL, -2.25)
        assert c.in_point_certified
        assert not classify_A(P5, 2, HarmonicSet.all(), ADomain.UNIT_BALL, 1.0).in_spectrum

    def test_ball_k_positive_residual(self):
        P = OperatorParams(5, 6, 0)  # k = 4 > 0
        w = omega_p(5, 2, 6)
        c = classify_A(P, 2, HarmonicSet.all(), ADomain.UNIT_BALL, -w - 0.5)
        assert c.in_residual_not_approx
        # on the j0-shifted parabola the point is approximate
        region = region_section3(P, 2)
        c = classify_A(P, 2, HarmonicSet.all(), ADomain.UNIT_BALL, region.parabola_point(1.0))
        assert c.in_approx

    def test_subspace_shift(self):
        # J = {n >= 1}: the ball spectrum shifts by lambda_1 = 4
        w = omega_p(5, 2, 0)
        J = HarmonicSet.at_least(1)
        assert not classify_A(P5, 2, J, ADomain.UNIT_BALL, -w - 1).in_spectrum
        assert classify_A(P5, 2, J, ADomain.UNIT_BALL, -w - 5).in_spectrum

    def test_whole_space_degenerate_k_half_line(self):
        # N(1-2/p) - 2 + c = 0 (N=4, p=2, c=2): the union of parabolas
        # collapses to the half line (-inf, -omega_p - lambda_{j0}]
        P = OperatorParams(4, 2, 0)
        w = omega_p(4, 2, 2)
        J = HarmonicSet.at_least(1)
        lam1 = eigen_lambda(4, 1)
        assert classify_A(P, 2, J, ADomain.WHOLE_SPACE, -w - lam1 - 3).in_approx
        assert not classify_A(P, 2, J, ADomain.WHOLE_SPACE, -w - lam1 + 0.5).in_spectrum
        assert not classify_A(P, 2, J, ADomain.WHOLE_SPACE,
                              complex(-w - lam1 - 3, 1.0)).in_spectrum

    def test_boundary_points_always_approx(self):
        # spectrum boundary points are approximate in every A classifier
        rng = np.random.default_rng(33)
        for _ in range(100):
            N = int(rng.integers(2, 9))
            c = float(rng.uniform(-4, 6))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, INF]))
            P = OperatorParams(N, c, 0)
            region = region_section3(P, p)
            j0 = int(rng.integers(0, 3))
            J = HarmonicSet.at_least(j0)
            xi = float(rng.uniform(-3, 3))
            lam0 = eigen_lambda(N, j0)
            # whole space: any shifted parabola point
            j = j0 + int(rng.integers(0, 3))
            pt = region.parabola_point(xi) - eigen_lambda(N, j)
            assert classify_A(P, p, J, ADomain.WHOLE_SPACE, pt).in_approx, (N, c, p, j)
            # ball: the boundary of Q - lambda_{j0}
            pt0 = region.parabola_point(xi) - lam0
            assert classify_A(P, p, J, ADomain.UNIT_BALL, pt0).in_approx, (N, c, p, j0)

    def test_decision_consistency_via_mu(self):
        # Rellich on the ball holds iff mu is not approximate spectrum of
        # A with drift c + 4 - 2 alpha on the same subspace
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 200:
            N = int(rng.integers(2, 9))
            c = float(rng.uniform(-3, 3))
            b = float(rng.uniform(-3, 3))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, INF]))
            alpha = float(rng.uniform(-4, 4))
            P = OperatorParams(N, c, b)
            # boundary-ambiguous draws excluded
            gaps = [abs(b + gamma_p(N, p, alpha, c) + eigen_lambda(N, j))
                    for j in range(0, 25)]
            if min(gaps) < 1e-6:
                continue
            holds = decide(P, p, alpha, DomainKind.UNIT_BALL).holds
            A_params = OperatorParams(N, c + 4 - 2 * alpha, 0)
            cls = classify_A(A_params, p, HarmonicSet.all(), ADomain.UNIT_BALL,
                             mu_shift(P, alpha))
            assert holds == (not cls.in_approx), (N, c, b, p, alpha)
            checked += 1


class TestDiscretizedOracle:
    def test_finite_difference_spectrum_inside_Q(self):
        # desk-scale cousin of the acceptance criterion: Dirichlet
        # discretization of D^2 + beta D on [0, 50], 2000 points
        import scipy.linalg

        S, n = 50.0, 2000
        h = S / (n + 1)
        for beta in (-1.0, 0.0, 1.0):
            upper = 1.0 / h**2 + beta / (2 * h)
            lower = 1.0 / h**2 - beta / (2 * h)
            d = np.full(n, -2.0 / h**2)
            e = np.full(n - 1, math.sqrt(upper * lower))
            eigs = scipy.linalg.eigvalsh_tridiagonal(d, e)
            assert float(np.max(eigs)) <= 1e-2
            if beta > 0:
                # eigenvalues accumulate below the vertex -beta^2/4
                assert float(np.max(eigs)) <= -(beta**2) / 4 + 1e-2


class TestResolventBound:
    def test_values(self):
        assert abs(resolvent_bound(P5, 2, 1) - 1 / 2.25) < 1e-15
        assert resolvent_bound(OperatorParams(5, 2, 0), INF, 1) == 1.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            resolvent_bound(P5, 2, -1.25)
