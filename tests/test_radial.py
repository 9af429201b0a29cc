"""Reduced coefficients, separable ratios, counterexample families."""

import math
import warnings

import numpy as np
import pytest

from rellich import (
    Branch,
    DomainKind,
    HarmonicSet,
    NonFiniteIntegrand,
    OperatorParams,
    OutOfRange,
    PreconditionViolated,
    Profile1D,
    UnsupportedRegime,
    boundary_counterexample,
    bump,
    counterexample_ratio,
    critical_alphas,
    decide,
    discriminant,
    eigen_lambda,
    fit_loglog_slope,
    plateau_profile,
    reduced_coefficients,
    rellich_ratio_separable,
    sqrt_nonneg_re,
    tail_exponent_integrable,
    verify_critical_log,
    verify_rellich,
)
from rellich.quadrature import REL_TOL, lp_norm
from rellich.radial import (CUTOFF, PHI_SUPPORT, _block_stack, corpus_norms,
                            counterexample_drift, rellich_ratios)
from rellich.verify import EPS_LADDER

from references import exact_critical_alphas, log_squeezed, reference_lp_integral

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

    def test_slope_matches_polyfit(self):
        # the closed-form least-squares slope against numpy's fit
        rng = np.random.default_rng(17)
        for k in (2, 3, 4, 7):
            for _ in range(50):
                eps = rng.uniform(1e-3, 1.0, k)
                ratios = eps ** rng.uniform(0.5, 2.5) * rng.uniform(0.5, 2.0, k)
                want = np.polyfit(np.log(eps), np.log(ratios), 1)[0]
                assert abs(fit_loglog_slope(eps, ratios) - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("eps", [[0.1], [0.1, 0.1], []])
    def test_slope_needs_two_distinct_eps(self, eps):
        with pytest.raises(PreconditionViolated):
            fit_loglog_slope(eps, [1.0] * len(eps))

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

    @pytest.mark.parametrize("p, eps", [(1.5, 1e-300), (2.0, 1e-200), (3.0, 1e-150)])
    def test_a_numerator_that_underflows_is_out_of_range(self, p, eps):
        # |f|^p of the numerator underflows to 0 where the exact family does
        # not vanish; one such eps in a ladder refuses the whole ladder
        for branch in ("minus", "plus"):
            with pytest.raises(OutOfRange, match=f"eps={eps:g}, p={p:g}"):
                counterexample_ratio(P5, p, 0, branch, [0.1, eps])

    @pytest.mark.parametrize("p", [1.0, INF])
    def test_a_tiny_eps_stays_in_range_where_nothing_is_raised_to_p(self, p):
        # at p = 1 and p = inf no power of |f| is taken: ratio / eps at 1e-300
        # is the one at 1e-100
        for branch in ("minus", "plus"):
            small, tiny = counterexample_ratio(P5, p, 0, branch, [1e-100, 1e-300])
            assert abs(tiny.ratio / 1e-300 - small.ratio / 1e-100) \
                <= 1e-12 * (small.ratio / 1e-100), (branch, small, tiny)

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
                        rows = ((1.0, rc.beta, -rc.lambda_red), (0.0, 0.0, 1.0, -kappa),
                                (0.0, 0.0, 1.0))
                        num, den_w, den = (norm for norm, _ in corpus_norms(
                            p, [(log_squeezed(CUTOFF, e), rows)])[0])
                        for got, want in ((rep.samples[j][1], num / den_w),
                                          (norms[j] / norms[k], num / den)):
                            assert abs(got - want) <= 1e-12 * want, (P, n, p, branch, e, got, want)


class TestBoundaryCounterexample:
    def test_active_case(self):
        rep = boundary_counterexample(P5, 3.0, 2)
        assert rep.residual_sup < 1e-8
        assert rep.norm_finite and rep.active

    def test_inactive_case(self):
        # s2 = 3: near 0 the integrand |x|^{2(alpha-2)} u^2 r^4 goes like r^-2,
        # so the norm is infinite below the threshold 2.5
        rep = boundary_counterexample(P5, 2.0, 2)
        assert not rep.norm_finite and not rep.active

    def test_norm_infinite(self):
        rep = boundary_counterexample(P5, -3.0, 2)
        assert not rep.norm_finite

    def test_complex_roots_past_the_base(self):
        # D = -0.75: the roots 1.5 -/+ i sqrt(0.75) are conjugate, and the threshold
        # is base = 2.5; u is i times the real witness -2 r^-1.5 sin(sqrt(0.75) log r)
        rep = boundary_counterexample(OperatorParams(5, 0, -3), 3.0, 2)
        assert rep.norm_finite and rep.active and rep.residual_sup <= 1e-14

    def test_roots_beyond_float_range(self):
        # D + lambda_n overflows, so both roots are infinite
        with pytest.raises(OutOfRange):
            boundary_counterexample(OperatorParams(5, 2.4e154, 0.0), 3.0, 2, 10**154)

    def test_drifted_operator(self):
        P = OperatorParams(4, 1.5, 2.0)
        thr = 4 * 0 + 1 + 0.75 + math.sqrt(discriminant(P))
        rep = boundary_counterexample(P, thr + 0.5, 2)
        assert rep.residual_sup < 1e-8 and rep.active

    def test_negative_drift_past_the_threshold(self):
        # s1 = -2, s2 = 0 and the threshold is 0.5: near 0 |x|^{-1} u ~ r^-1,
        # which is in L^2 of the 3-ball, and so the witness defeats the inequality
        rep = boundary_counterexample(OperatorParams(3, -3.0, 0.0), 1.0, 2)
        assert rep.norm_finite and rep.active and rep.residual_sup == 0.0

    @pytest.mark.parametrize("P", [OperatorParams(5, 0.0, 1e300), OperatorParams(5, 1e150, 0.0)],
                             ids=["b-1e300", "c-1e150"])
    def test_huge_coefficients_stay_in_range(self, P):
        # the indicial roots reach 1e150, so their powers and squares leave float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = boundary_counterexample(P, 2e150, 2)
            report = verify_rellich(P, 2, 2e150, DomainKind.UNIT_BALL, HarmonicSet.all(),
                                    [(0, bump(1.0, 2.0))])
        assert rep.residual_sup <= 1e-14 and rep.norm_finite and rep.active
        assert report.passed and "boundary" in report.notes

    def test_flags_agree_with_the_decider_off_the_threshold(self):
        # off the threshold alpha_n^+, for either sign of D + lambda_n, the witness of
        # degree n has a finite norm exactly where the ball's decision for J = {j >= n}
        # fails at (n, boundary_obstruction), and, for n = 0 and D >= 0 (its domain),
        # where the Green tail exponent is not integrable; its residual is rounding.
        # The second range draws |c| and |b| up to 1e15, where base +- sqrt(D + lambda_n)
        # cancels, and puts alpha a relative 1e-8 to 1e-1 from the exact alpha_n^+,
        # whose side of alpha is a fourth answer
        rng = np.random.default_rng(23)
        mismatches = []
        for k in range(26_000):
            if k < 20_000:
                N = int(rng.integers(2, 11))
                c, D = float(rng.uniform(-4, 4)), float(rng.uniform(-9, 9))
                n = int(rng.integers(0, 6))
                p = (1.0, 1.5, 2.0, 3.0, INF)[int(rng.integers(5))]
                P = OperatorParams(N, c, D - ((N - 2 + c) / 2) ** 2)
                alpha = critical_alphas(P, p, n)[1] + float(rng.choice([-1.0, 1.0])) \
                    * 10.0 ** float(rng.uniform(-6, 1))
                truth = None
            else:
                N, n = int(rng.integers(2, 11)), int(rng.integers(0, 6))
                p = (1.0, 1.5, 2.0, 3.0, INF)[int(rng.integers(5))]
                c, b = (float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 15))
                        for _ in range(2))
                P = OperatorParams(N, c, b)
                D, exact = discriminant(P), exact_critical_alphas(P, p, n)[1]
                alpha = float(exact) + float(rng.choice([-1.0, 1.0])) * (abs(float(exact)) + 1) \
                    * 10.0 ** float(rng.uniform(-8, -1))
                truth = alpha > exact
            rep = boundary_counterexample(P, alpha, p, n)
            J = HarmonicSet.at_least(n)
            failing = decide(P, p, alpha, DomainKind.UNIT_BALL, J).failing_modes
            flags = [rep.norm_finite, rep.active, (n, Branch.BOUNDARY) in failing]
            if truth is not None:
                flags.append(truth)
            if n == 0 and D >= 0:
                flags.append(not tail_exponent_integrable(P, p, alpha))
            if len(set(flags)) > 1 or not rep.residual_sup <= 1e-14:
                mismatches.append((P, n, p, alpha, rep))
        assert mismatches == [], (len(mismatches), mismatches[:3])

    def test_tail_exponent_at_its_threshold(self):
        # alpha within 4 ulps of alpha_0^+ = base + sqrt(D): each input gets a bool
        # (no restated closed form that can disagree with the exponent in rounding)
        assert isinstance(tail_exponent_integrable(OperatorParams(3, 1.0, 2.0), INF,
                                                   4.732050807568877), bool)
        rng = np.random.default_rng(24)
        for _ in range(2_000):
            N, c = int(rng.integers(2, 11)), float(rng.uniform(-4, 4))
            P = OperatorParams(N, c, float(rng.uniform(0, 9)) - ((N - 2 + c) / 2) ** 2)
            p = (1.0, 1.5, 2.0, 3.0, INF)[int(rng.integers(5))]
            alpha, steps = critical_alphas(P, p, 0)[1], int(rng.integers(-4, 5))
            for _ in range(abs(steps)):
                alpha = math.nextafter(alpha, math.copysign(INF, steps))
            assert isinstance(tail_exponent_integrable(P, p, alpha), bool)


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
        (norm, err), = corpus_norms(INF, [(v, ((0.0, 0.0, 1.0, power),))])
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


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
@pytest.mark.parametrize("kappa", [None, 1.0, 2.5])
def test_critical_rows_match_the_rows_of_each_eps(p, kappa):
    # the stack built over an eps axis holds, bit for bit, the rows built
    # eps by eps: the numerators, the denominator, the weighted denominators.
    # They are the closed forms, and their norms in the measure dx/x are
    # those of the same rows times x^(-1/p) in dx
    from rellich.params import inv_p
    from rellich.radial import CRITICAL_MEASURE, critical_rows

    x = np.linspace(0.25, 0.5, 193)[1:-1]
    g, lam = 1.7, -0.35
    f = critical_rows(g, lam, EPS_LADDER, kappa)
    rows = f(x)
    alone = [critical_rows(g, lam, [e], kappa)(x) for e in EPS_LADDER]
    want = [r[0] for r in alone] + [alone[0][1]] + [r[2] for r in alone if kappa is not None]
    assert np.array_equal(rows, np.stack(want))
    v0, v1, v2 = CUTOFF.jet(x)
    closed = [e * x * (e * x * v2 + (g + e) * v1) - lam * v0 for e in EPS_LADDER] + [v0]
    if kappa is not None:
        closed += [v0 * (-np.log(x) / e) ** -kappa for e in EPS_LADDER]
    assert np.allclose(rows, np.stack(closed), rtol=1e-14, atol=1e-14)
    q = inv_p(p)
    in_dx = lp_norm(lambda s: s**-q * f(s), PHI_SUPPORT, p)
    for (norm, _), (want_norm, _) in zip(lp_norm(f, PHI_SUPPORT, p, CRITICAL_MEASURE), in_dx):
        assert abs(norm - want_norm) <= 1e-13 * want_norm, (norm, want_norm)


# a corpus: profiles on different supports, rows of the ratios, a weighted
# row (power != 0) and a term of one row
CORPUS_TERMS = [
    (bump(1.0, 3.0), ((1.0, -2.0, -1.25), (0.0, 0.0, 1.0))),
    (bump(2.0, 6.0), ((1.0, 0.7, -3.5), (0.0, 0.0, 1.0, -1.5), (0.0, 0.0, 1.0))),
    (bump(0.3, 0.9), ((-1.0, 1.5, 2.0),)),
    (plateau_profile(50.0), ((1.0, -2.0, -1.25), (0.0, 0.0, 1.0))),
]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
def test_corpus_norms_give_each_profile_its_own_pairs(p):
    # each term's pairs are those it gets alone, to 1e-14 of the norm: the
    # errs, rounding estimates themselves, to 1e-14 of the norm as well
    got = corpus_norms(p, CORPUS_TERMS)
    assert len(got) == len(CORPUS_TERMS)
    for (v, rows), pairs in zip(CORPUS_TERMS, got):
        want, = corpus_norms(p, [(v, rows)])
        if len(rows) == 1:
            pairs, want = [pairs], [want]
        assert len(pairs) == len(want)
        for (norm, err), (norm0, err0) in zip(pairs, want):
            assert abs(norm - norm0) <= 1e-14 * norm0, (p, v.label, norm, norm0)
            assert abs(err - err0) <= 1e-14 * norm0, (p, v.label, err, err0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
def test_a_one_term_corpus_is_its_lp_norm_call(p):
    # bit for bit: no change of variable, the profile's own support
    for v, rows in CORPUS_TERMS:
        assert corpus_norms(p, [(v, rows)]) == [lp_norm(v.integrand(*rows), v.support, p)]
        assert corpus_norms(p, [(v, rows, v.support)]) == corpus_norms(p, [(v, rows)])


def test_corpus_overflow_names_rows_of_the_whole_stack():
    # s^-400 overflows near the left end of (0.01, 1): the second row of
    # the second term, row 3 of the stack of 2 + 2 rows
    terms = [(bump(1.0, 3.0), ((1.0,), (0.0, 0.0, 1.0))),
             (bump(0.01, 1.0), ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0, -400.0)))]
    for p in (1.5, INF):
        with pytest.raises(NonFiniteIntegrand) as err:
            corpus_norms(p, terms)
        assert err.value.rows == (3,)


def _blocked(monkeypatch, rows, call):
    """call() with corpus_norms cut into blocks of at most rows rows, and the number of
    rows of the stack of each of its lp_norm calls."""
    import rellich.radial as radial_mod

    calls = []

    def counted(*args):
        out = lp_norm(*args)
        calls.append(len(out) if isinstance(out, list) else 1)
        return out

    with monkeypatch.context() as m:
        m.setattr(radial_mod, "_CORPUS_ROWS", rows)
        m.setattr(radial_mod, "lp_norm", counted)
        return call(), calls


# terms with supports of their own: one cut inside the profile's, one empty
# after cutting (clamped to zero width), one wider than the profile's
OWN_SUPPORT_TERMS = [
    (bump(1.0, 3.0), ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0, -1.0)), (2.0, 3.0)),
    (bump(1.0, 3.0), ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0, -1.0)), (5.0, 3.0)),
    (bump(2.0, 6.0), ((1.0, 0.5),), (1.0, 7.0)),
]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
def test_blocks_give_the_pairs_of_one_stack(monkeypatch, p):
    # a corpus cut into blocks, a term longer than the budget alone, gives
    # bit for bit the pairs of one stack of the whole corpus.  Its terms have
    # 2, 3, 1, 2, 2, 2 and 1 rows, three times over: blocks of 3 rows at most
    # are (2), (3), (1, 2), (2) and (2, 1) each time, stacks of 2, 3, 3, 2 and 3 rows
    terms = (CORPUS_TERMS + OWN_SUPPORT_TERMS) * 3
    one, calls = _blocked(monkeypatch, 10**9, lambda: corpus_norms(p, terms))
    assert calls == [39]
    for rows, blocks in ((1, [2, 3, 1, 2, 2, 2, 1] * 3), (3, [2, 3, 3, 2, 3] * 3),
                         (5, [5, 5, 5, 4, 4, 5, 4, 4, 3])):
        got, calls = _blocked(monkeypatch, rows, lambda: corpus_norms(p, terms))
        assert got == one and calls == blocks, (rows, calls)


@pytest.mark.parametrize("p", [1.0, 1.5, INF])
def test_terms_on_their_own_supports(p):
    # a term with a support is its profile's rows on that support; one that
    # is empty after cutting gives zeros, at p = inf too
    got = corpus_norms(p, OWN_SUPPORT_TERMS)
    assert got[1] == [(0.0, 0.0), (0.0, 0.0)]
    for (v, rows, support), pairs in zip(OWN_SUPPORT_TERMS, got):
        want = lp_norm(v.integrand(*rows), support, p)
        assert corpus_norms(p, [(v, rows, support)]) == [want]
        for (norm, err), (norm0, err0) in zip(*([x] if len(rows) == 1 else x
                                                for x in (pairs, want))):
            assert abs(norm - norm0) <= 1e-14 * norm0 and abs(err - err0) <= 1e-14 * norm0


def _jet_profile(jet, support):
    """The profile of jet on support, a jet recording the sorted points of each call in
    jet.seen."""
    def spied(s):
        spied.seen.append(np.sort(np.ravel(s)))
        return jet(s)

    spied.seen = []
    return Profile1D(spied, support)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, INF])
def test_each_term_of_a_block_is_sampled_at_its_own_pieces(monkeypatch, p):
    # terms of one row or several: a smooth row, rows with sign changes, a row
    # that halves and, on a support of its own, rows that halve past the cap.
    # In one block each term gets exactly the pairs it gets in a block alone,
    # from exactly the points its jet is sampled at there: the shared first
    # pass, then in each round of halving, on the graded pass and at the sup
    # candidates the points of its own rows' pieces only
    def terms():
        return [(_jet_profile(lambda s: (2.0 + np.cos(s), -np.sin(s), -np.cos(s)), (0.0, 3.0)),
                 ((0.0, 0.0, 1.0),)),
                (_jet_profile(bump(0.0, 3.0).jet, (0.0, 3.0)),
                 ((1.0, 0.5, -2.0), (0.0, 0.0, 1.0), (0.0, 1.0))),
                (_jet_profile(lambda s: (np.sin(40.0 * s), 40.0 * np.cos(40.0 * s),
                                         -1600.0 * np.sin(40.0 * s)), (0.0, 3.0)),
                 ((0.0, 0.0, 1.0),)),
                (_jet_profile(lambda s: (np.sin(2000.0 * s), 2000.0 * np.cos(2000.0 * s),
                                         -4e6 * np.sin(2000.0 * s)), (0.0, 3.0)),
                 ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0, 1.0)), (0.5, 2.5))]

    alone, together = terms(), terms()
    want, calls = _blocked(monkeypatch, 1, lambda: corpus_norms(p, alone))
    assert calls == [1, 3, 1, 2]
    got, calls = _blocked(monkeypatch, 10**9, lambda: corpus_norms(p, together))
    assert calls == [7] and got == want
    seen = [v.jet.seen for v, *_ in together]
    for mine, (v, *_) in zip(seen, alone):
        assert len(mine) == len(v.jet.seen) and all(map(np.array_equal, mine, v.jet.seen)), p
    assert max(map(len, seen)) > 2 and len(seen[0]) == (1 if p < INF else 2)


def test_a_block_stack_picks_rows_in_any_order():
    # pick(x, which) gives each entry its own row of the whole stack at its
    # points, bit for bit, whatever the order of which, for points in rows of
    # nodes (pieces) and one each (sup candidates)
    stack = _block_stack([(v, rows, v.support) for v, rows in CORPUS_TERMS] + OWN_SUPPORT_TERMS)
    k = len(stack(np.zeros(1)))
    rng = np.random.default_rng(3)
    which = np.sort(rng.integers(0, k, 60))
    for x in (rng.uniform(-1.0, 1.0, (60, 7)), rng.uniform(-1.0, 1.0, 60)):
        whole = stack(x.ravel()).reshape(k, *x.shape)[which, np.arange(60)]
        assert np.array_equal(stack.pick(x.copy(), which), whole)
        for _ in range(5):
            order = rng.permutation(60)
            assert np.array_equal(stack.pick(x[order], which[order]), whole[order])


@pytest.mark.parametrize("p", [1.0, 1.5, INF])
def test_an_empty_corpus_gives_no_pairs(p):
    assert corpus_norms(p, []) == []
    assert rellich_ratios(P5, p, 0.0, []) == []


@pytest.mark.parametrize("at", ["first", "middle", "last", "only"])
def test_a_term_of_no_rows_is_refused(at):
    # a term with no rows has no pairs to give: it is refused wherever it
    # stands, as its stack is, not an IndexError or a [] among the pairs
    v, one = bump(1.0, 3.0), ((0.0, 0.0, 1.0),)
    empty, full = (v, ()), [(v, one), (bump(2.0, 6.0), one)]
    terms = {"first": [empty, *full], "middle": [full[0], empty, full[1]],
             "last": [*full, empty], "only": [empty]}[at]
    for p in (1.0, 1.5, INF):
        with pytest.raises(PreconditionViolated, match="at least one row"):
            corpus_norms(p, terms)
    with pytest.raises(PreconditionViolated, match="at least one row"):
        v.integrand()


def test_corpus_overflow_names_rows_across_blocks(monkeypatch):
    # the overflowing row is row 3 of a corpus cut into blocks of 2 rows,
    # and row 301 of one of 151 terms, whose last block starts at row 256
    ok = (bump(1.0, 3.0), ((1.0,), (0.0, 0.0, 1.0)))
    bad = (bump(0.01, 1.0), ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0, -400.0)))
    for rows, terms, want in ((2, [ok, bad], (3,)), (256, [ok] * 150 + [bad], (301,))):
        with pytest.raises(NonFiniteIntegrand) as err:
            _blocked(monkeypatch, rows, lambda: corpus_norms(1.5, terms))
        assert err.value.rows == want
