"""Reduced coefficients, separable ratios, counterexample families."""

import math

import numpy as np
import pytest

from rellich import (
    OperatorParams,
    PreconditionViolated,
    UnsupportedRegime,
    boundary_counterexample,
    bump,
    counterexample_ratio,
    critical_alphas,
    discriminant,
    eigen_lambda,
    fit_loglog_slope,
    plateau_profile,
    reduced_coefficients,
    rellich_ratio_separable,
    sqrt_nonneg_re,
    verify_critical_log,
)
from rellich.quadrature import REL_TOL, lp_norm
from rellich.radial import (CUTOFF, PHI_SUPPORT, counterexample_drift, counterexample_gamma,
                            reduced_norm)
from rellich.verify import EPS_LADDER

from references import log_squeezed, reference_lp_integral

P5 = OperatorParams(5, 0, 0)
INF = math.inf


class TestReducedCoefficients:
    def test_frozen(self):
        rc = reduced_coefficients(P5, 2, 0.0, 0)
        assert (rc.beta, rc.lambda_red) == (-2.0, 1.25)
        rc = reduced_coefficients(P5, 2, -0.5, 0)
        assert (rc.beta, rc.lambda_red) == (-3.0, 0.0)
        rc = reduced_coefficients(P5, 2, 2.5, 0)
        assert (rc.beta, rc.lambda_red) == (3.0, 0.0)

    def test_critical_collapse(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            N = int(rng.integers(2, 11))
            c = float(rng.uniform(-3, 3))
            b = float(rng.uniform(-4, 4))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, INF]))
            n = int(rng.integers(0, 4))
            P = OperatorParams(N, c, b)
            if discriminant(P) + eigen_lambda(N, n) < 0:
                continue  # collapse identity needs real indicial roots
            am, ap = critical_alphas(P, p, n)
            re_root = sqrt_nonneg_re(discriminant(P) + eigen_lambda(N, n)).real
            for alpha, sign in ((am, -1.0), (ap, 1.0)):
                rc = reduced_coefficients(P, p, alpha, n)
                assert abs(rc.lambda_red) < 1e-10 * (1 + abs(b) + eigen_lambda(N, n))
                assert abs(rc.beta - sign * 2 * re_root) < 1e-10 * (1 + re_root)


class TestSeparableRatio:
    def test_plateau_T200_window(self):
        r = rellich_ratio_separable(P5, 2, 0.0, 0, plateau_profile(200.0))
        assert 1.25 <= r.ratio <= 1.30

    def test_critical_alpha_drops_zero_order_term(self):
        # at lambda_red = 0 the ratio equals ||v'' + beta v'|| / ||v||
        v = bump(1.0, 3.0)
        r = rellich_ratio_separable(P5, 2, -0.5, 0, v)
        from rellich import lp_norm

        manual = lp_norm(lambda s: v.jet(s)[2] - 3.0 * v.jet(s)[1], v.support, 2)[0] \
            / lp_norm(v, v.support, 2)[0]
        assert abs(r.ratio - manual) < 1e-12

    def test_trapezoid_oracle_cross_check(self):
        # same ratio from an independent trapezoid rule, and consistency
        # under argument rescaling v -> v(./2)
        for v in (bump(1.0, 3.0), bump(2.0, 6.0)):
            rc = reduced_coefficients(P5, 2, 0.0, 0)
            r = rellich_ratio_separable(P5, 2, 0.0, 0, v)
            s = np.linspace(v.support[0], v.support[1], 200_001)
            v0, v1, v2 = v.jet(s)
            top = np.abs(v2 + rc.beta * v1 - rc.lambda_red * v0) ** 2
            bot = np.abs(v0) ** 2
            oracle = math.sqrt(np.trapezoid(top, s) / np.trapezoid(bot, s))
            assert abs(r.ratio - oracle) < 1e-6 * (1 + oracle)

    def test_dissipativity_floor(self):
        # ratios never dip below the certified constant: 20-profile corpus
        # per harmonic degree, optimality approached only from above
        from rellich import bump_corpus

        corpus = bump_corpus(5, 18) + [bump(0.5, 2.0), plateau_profile(30.0)]
        assert len(corpus) == 20
        for n in (0, 1, 2):
            for v in corpus:
                r = rellich_ratio_separable(P5, 2, 0.0, n, v)
                assert r.ratio >= 1.25 - 1e-3, (n, v.label, r.ratio)


class TestCounterexampleRatio:
    def test_slope_near_one(self):
        eps = [0.1, 0.05, 0.025]
        ratios = [r.ratio for r in counterexample_ratio(P5, 2, 0, "minus", eps)]
        slope = fit_loglog_slope(eps, ratios)
        assert 0.95 <= slope <= 1.05

    def test_halving(self):
        r1, r2 = (r.ratio for r in counterexample_ratio(P5, 2, 0, "minus", [0.05, 0.025]))
        assert abs(r2 / r1 - 0.5) < 0.05

    def test_sup_norm_path(self):
        rA, rB = (r.ratio for r in counterexample_ratio(P5, INF, 0, "minus", [0.1, 0.05]))
        K = rA / 0.1
        assert rB <= K * 0.05 * 1.05

    def test_plus_branch(self):
        ratios = [r.ratio for r in counterexample_ratio(P5, 2, 0, "plus", [0.1, 0.05, 0.025])]
        assert 0.95 <= fit_loglog_slope([0.1, 0.05, 0.025], ratios) <= 1.05

    def test_refusal_on_complex_roots(self):
        with pytest.raises(UnsupportedRegime):
            counterexample_ratio(OperatorParams(5, 0, -3), 2, 0, "minus", [0.1])

    @pytest.mark.parametrize("eps", [[0.1], [0.1, 0.1], []])
    def test_slope_needs_two_distinct_eps(self, eps):
        with pytest.raises(PreconditionViolated):
            fit_loglog_slope(eps, [1.0] * len(eps))

    def test_gamma_relation(self):
        # alpha_n^- - 2 + gamma = -N/p exactly
        rng = np.random.default_rng(21)
        for _ in range(200):
            N = int(rng.integers(2, 11))
            c = float(rng.uniform(-3, 3))
            b = float(rng.uniform(-1, 4))
            n = int(rng.integers(0, 4))
            P = OperatorParams(N, c, b)
            if discriminant(P) + eigen_lambda(N, n) < 0:
                continue
            for p in (1.0, 2.0, 3.0, INF):
                am, _ = critical_alphas(P, p, n)
                g = counterexample_gamma(P, n, "minus")
                target = 0.0 if math.isinf(p) else -N / p
                assert abs(am - 2 + g - target) < 1e-10 * (1 + N)

    def test_drift_is_twice_the_root_gap(self):
        # 2 gamma + N - 2 + c = +-2 Re sqrt(D + lambda_n), + on the minus
        # branch; it vanishes where the roots collide, which is where
        # verify_rellich expects slope 2
        rng = np.random.default_rng(23)
        for _ in range(300):
            N = int(rng.integers(2, 11))
            P = OperatorParams(N, float(rng.uniform(-3, 3)), float(rng.uniform(-4, 4)))
            n = int(rng.integers(0, 4))
            if discriminant(P) + eigen_lambda(N, n) < 0:
                continue
            root = sqrt_nonneg_re(discriminant(P) + eigen_lambda(N, n)).real
            scale = max(1.0, abs(N - 2 + P.c), root)
            for branch, sign in (("minus", 1.0), ("plus", -1.0)):
                assert abs(counterexample_drift(P, n, branch) - sign * 2 * root) \
                    <= 1e-12 * scale, (P, n, branch)
        assert counterexample_drift(OperatorParams(5, 0, -2.25), 0, "minus") == 0.0

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    def test_a_ladder_equals_its_one_eps_calls(self, p):
        # the ladder's numerators share one stack with the denominator; each
        # report is exactly the one its eps gets alone
        for P, n, branch in _sweep_critical_cases(6, seed=7):
            ladder = counterexample_ratio(P, p, n, branch, EPS_LADDER)
            assert ladder == [counterexample_ratio(P, p, n, branch, [e])[0] for e in EPS_LADDER]

    def test_support_and_eps_validation(self):
        with pytest.raises(ValueError):
            counterexample_ratio(P5, 2, 0, "minus", [0.1, 0.0])

    def test_reduces_to_the_separable_ratio(self, monkeypatch):
        # the collapsed display, and the weighted and unweighted ratios of
        # verify_critical_log, equal the reduced ratios of the reference
        # phi(e^{-eps s}) at the critical exponent of the branch.  The last
        # draw has complex roots (D + lambda_0 = -1.75), where only
        # verify_critical_log runs: there the rows of its smallest eps vanish
        # like the distance to the ends of the support, with no sign change
        import rellich.verify as verify_mod

        stacks = []  # the norms of verify_critical_log's one lp_norm call

        def recorded(*args):
            out = lp_norm(*args)
            stacks.append([norm for norm, _ in out])
            return out

        monkeypatch.setattr(verify_mod, "lp_norm", recorded)
        rng = np.random.default_rng(29)
        draws = []
        for _ in range(12):
            N = int(rng.integers(2, 9))
            c = float(rng.uniform(-2, 2))
            P = OperatorParams(N, c, float(rng.uniform(0.5, 6)) - ((N - 2 + c) / 2) ** 2)
            draws.append((P, int(rng.integers(0, 3)), float(rng.uniform(0.02, 0.3))))
        draws.append((OperatorParams(3, 0, -2), 0, None))
        k = len(EPS_LADDER)
        for P, n, eps in draws:
            d_lam = discriminant(P) + eigen_lambda(P.N, n)
            for p in (1.0, 1.5, 2.0, 3.0, INF):
                kappa = (1.0 if d_lam > 0 else 2.0) + (0.5 if p == 1 else 0.0)
                for i, branch in enumerate(("minus", "plus")):
                    alpha = critical_alphas(P, p, n)[i]
                    if eps is not None:
                        got = counterexample_ratio(P, p, n, branch, [eps])[0].ratio
                        v = log_squeezed(CUTOFF, eps)
                        want = rellich_ratio_separable(P, p, alpha, n, v).ratio
                        assert abs(got - want) <= 1e-13 * want, (P, n, eps, p, branch, got, want)
                    rc = reduced_coefficients(P, p, alpha, n)
                    rep = verify_critical_log(P, p, n, branch)
                    norms = stacks.pop()
                    for j, e in enumerate(EPS_LADDER):
                        num, den_w, den = (norm for norm, _ in reduced_norm(
                            log_squeezed(CUTOFF, e), p, (1.0, rc.beta, -rc.lambda_red),
                            (0.0, 0.0, 1.0, -kappa), (0.0, 0.0, 1.0)))
                        for got, want in ((rep.samples[j][1], num / den_w),
                                          (norms[j] / norms[k], num / den)):
                            assert abs(got - want) <= 1e-12 * want, (P, n, p, branch, e, got, want)


class TestBoundaryCounterexample:
    def test_active_case(self):
        rep = boundary_counterexample(P5, 3.0, 2)
        assert rep.residual_sup < 1e-8
        assert rep.norm_finite and rep.active

    def test_inactive_case(self):
        rep = boundary_counterexample(P5, 2.0, 2)
        assert rep.norm_finite and not rep.active

    def test_norm_infinite(self):
        rep = boundary_counterexample(P5, -3.0, 2)
        assert not rep.norm_finite

    def test_complex_roots_refused(self):
        with pytest.raises(UnsupportedRegime):
            boundary_counterexample(OperatorParams(5, 0, -3), 3.0, 2)

    def test_drifted_operator(self):
        P = OperatorParams(4, 1.5, 2.0)
        thr = 4 * 0 + 1 + 0.75 + math.sqrt(discriminant(P))
        rep = boundary_counterexample(P, thr + 0.5, 2)
        assert rep.residual_sup < 1e-8 and rep.active


def _sweep_critical_cases(count, seed=1):
    """Exactly critical (N, c, b, n, branch) as drawn by the verify sweep."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        N = int(rng.integers(3, 9))
        c = float(rng.uniform(-2, 2))
        D = float(rng.uniform(2.25, 6.0))
        yield (OperatorParams(N, c, D - ((N - 2 + c) / 2) ** 2), int(rng.integers(0, 3)),
               ("minus", "plus")[int(rng.integers(2))])


class TestLpNormAccuracy:
    def test_p1_counterexample_matches_split_quad_reference(self):
        # at p = 1 the numerator |eps s phi'' + g phi'| has kinks; the ratio
        # must match scipy quad split at the roots to 1e-12
        phi = bump(*PHI_SUPPORT)
        worst = 0.0
        for P, n, branch in _sweep_critical_cases(10):
            g = counterexample_drift(P, n, branch)
            den = reference_lp_integral(lambda s: phi(s) / s, *PHI_SUPPORT)
            for e, rep in zip(EPS_LADDER, counterexample_ratio(P, 1.0, n, branch, EPS_LADDER)):
                num = reference_lp_integral(
                    lambda s: e * s * phi.jet(s)[2] + (g + e) * phi.jet(s)[1], *PHI_SUPPORT)
                ref = e * num / den
                got = rep.ratio
                worst = max(worst, abs(got - ref) / ref)
        assert worst < 1e-12, worst

    def test_near_endpoint_root(self):
        # sweep case N=7, c=0.1526, b=-3.1508, n=1, plus at eps = 0.025: the
        # numerator changes sign about 0.002 from the end of the support
        P, n, branch = list(_sweep_critical_cases(4))[3]
        assert (P.N, round(P.c, 4), round(P.b, 4), n, branch) == (7, 0.1526, -3.1508, 1, "plus")
        e, phi = 0.025, bump(*PHI_SUPPORT)
        g = counterexample_drift(P, n, branch)

        def num(s):
            _, d1, d2 = phi.jet(s)
            return e * s * d2 + (g + e) * d1

        x = np.linspace(*PHI_SUPPORT, 4001)
        y = num(x)
        changes = x[np.flatnonzero(y[:-1] * y[1:] < 0)]
        assert np.min(np.minimum(changes - PHI_SUPPORT[0], PHI_SUPPORT[1] - changes)) < 0.003
        ref = e * reference_lp_integral(num, *PHI_SUPPORT) \
            / reference_lp_integral(lambda s: phi(s) / s, *PHI_SUPPORT)
        got = counterexample_ratio(P, 1.0, n, branch, [e])[0].ratio
        assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_error_estimate_within_tolerance(self, p):
        # c12's corpus on holding cases: err <= rel_tol * norm for both norms
        rng = np.random.default_rng(12)
        for _ in range(20):
            N = int(rng.integers(3, 9))
            c = float(rng.uniform(-2, 2))
            D = float(rng.uniform(0.8, 9.0))
            P = OperatorParams(N, c, D - ((N - 2 + c) / 2) ** 2)
            alpha = critical_alphas(P, p, 0)[0] + float(rng.uniform(0.3, 1.7)) * math.sqrt(D)
            for n, v in ((0, bump(1.0, 3.0)), (1, bump(2.0, 6.0))):
                rc = reduced_coefficients(P, p, alpha, n)

                def top(s, v=v, rc=rc):
                    v0, v1, v2 = v.jet(s)
                    return v2 + rc.beta * v1 - rc.lambda_red * v0

                for f in (top, v):
                    norm, err = lp_norm(f, v.support, p)
                    assert err <= REL_TOL * norm, (P, alpha, n, norm, err)


class TestSupErrorEstimate:
    @pytest.mark.parametrize("power", [-1.0, 0.5, 2.0])
    def test_reduced_norm_sup_under_a_weight(self, power):
        # s^power v peaks off the centre of the bump, where v peaks: the
        # sup is located from the weighted integrand itself
        v = bump(1.0, 3.0)
        s = np.linspace(1.0, 3.0, 200_001)
        exact = float(np.max(np.abs(s**power * v(s))))
        norm, err = reduced_norm(v, INF, (0.0, 0.0, 1.0, power))
        assert abs(norm - exact) <= max(err, 1e-9 * exact)

    def test_counterexample_p_inf_estimate_bounds_the_gap(self):
        # phi and the p = inf numerator s (eps s phi'' + g phi') are
        # polynomials on the support, so their sups are at the ends or at
        # roots of the derivative; the expanded polynomial locates them
        # for the reference, the factored profile gives the values
        from numpy.polynomial import Polynomial as Poly

        eps, n, branch = 0.1, 0, "minus"
        g = counterexample_drift(P5, n, branch)
        lo, hi = PHI_SUPPORT
        phi = bump(lo, hi)
        t = Poly([-(lo + hi) / (hi - lo), 2.0 / (hi - lo)])  # support -> [-1, 1]
        s = Poly([0.0, 1.0])
        phi_poly = (1 - t**2) ** 3
        top_poly = s * (eps * s * phi_poly.deriv(2) + (g + eps) * phi_poly.deriv())

        def top(x):
            _, d1, d2 = phi.jet(x)
            return x * (eps * x * d2 + (g + eps) * d1)

        def exact_sup(poly, fn):
            xs = [lo, hi] + [r.real for r in poly.deriv().roots()
                             if abs(r.imag) < 1e-12 and lo <= r.real <= hi]
            return float(np.max(np.abs(fn(np.array(xs)))))

        exact = eps * exact_sup(top_poly, top) / exact_sup(phi_poly, phi)
        rep, = counterexample_ratio(P5, INF, n, branch, [eps])
        assert rep.quad_error_estimate > 0.0
        assert abs(rep.ratio - exact) <= rep.quad_error_estimate
