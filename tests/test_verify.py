"""Verification harness: each operation on its stated cases plus invariants."""

import math

import numpy as np
import pytest

from rellich import (
    BetaZero,
    CorpusOutsideSubspace,
    DegenerateWeight,
    DomainKind,
    HarmonicSet,
    OperatorParams,
    OutOfRange,
    PreconditionViolated,
    VerificationReport,
    best_constant,
    bump,
    counterexample_ratio,
    lp_norm,
    oned_green_reconstruct,
    plateau_profile,
    radial_power_bump,
    rellich_ratio_separable,
    verify_aux_remainder,
    verify_critical_log,
    verify_dissipativity,
    verify_hardy,
    verify_oned_inequality,
    verify_rellich,
    verify_remainder,
)
from rellich.params import EPS_LADDER

P5 = OperatorParams(5, 0, 0)
ALL = HarmonicSet.all()


def small_corpus():
    return [(0, bump(0.8, 2.2)), (0, bump(4.0, 9.0)), (1, bump(1.5, 3.5))]


def test_report_verdict_is_read_off_the_samples():
    # no call finishes a report: a margin below -tolerance fails it at once
    rep = VerificationReport("claim", tolerance=0.5)
    assert rep.passed and rep.min_margin == 0.0
    rep.add("inside", 0.0, 0.4, -0.4)
    assert rep.passed and rep.min_margin == -0.4
    rep.add("outside", 0.0, 0.6, -0.6)
    assert not rep.passed and rep.min_margin == -0.6
    # a NaN margin fails the claim but is skipped by the minimum
    rep = VerificationReport("claim")
    rep.add("nan", 0.0, 0.0, math.nan)
    assert not rep.passed and rep.min_margin == math.inf
    rep.add("one", 1.0, 0.0, 1.0)
    assert rep.min_margin == 1.0


def test_empty_corpus_is_rejected():
    # a claim without samples would pass vacuously: refused before any quadrature
    for run in (lambda: verify_rellich(P5, 2, 0.0, DomainKind.WHOLE_SPACE, ALL, []),
                lambda: verify_oned_inequality(1.0, 2, 1.0, 0.5, []),
                lambda: verify_remainder(P5, 2, 0.0, []),
                lambda: verify_dissipativity(P5, 2, 1.0, [])):
        with pytest.raises(PreconditionViolated, match="empty corpus"):
            run()


class TestVerifyRellich:
    def test_whole_space_holds(self):
        rep = verify_rellich(P5, 2, 0.0, DomainKind.WHOLE_SPACE, ALL, small_corpus())
        assert rep.passed
        assert all(lhs >= 1.25 - 1e-3 for _, lhs, _, _ in rep.samples)

    def test_critical_decay(self):
        rep = verify_rellich(P5, 2, -0.5, DomainKind.WHOLE_SPACE, ALL, small_corpus())
        assert rep.passed
        assert "slope" in rep.samples[-1][0]

    def test_corpus_outside_subspace(self):
        with pytest.raises(CorpusOutsideSubspace):
            verify_rellich(P5, 2, 0.0, DomainKind.WHOLE_SPACE,
                           HarmonicSet.at_least(1), small_corpus())

    def test_ball_boundary_failure(self):
        rep = verify_rellich(P5, 2, 3.0, DomainKind.UNIT_BALL, ALL, small_corpus())
        assert rep.passed and "boundary" in rep.notes

    def test_exterior_reduces_to_kelvin_image(self):
        rep = verify_rellich(P5, 2, 2.0, DomainKind.EXTERIOR_BALL, ALL, small_corpus())
        assert rep.passed

    @pytest.mark.parametrize("domain", [DomainKind.EXTERIOR_BALL, DomainKind.EXTERIOR_SMOOTH])
    def test_exterior_subspace_rejected(self, domain):
        with pytest.raises(PreconditionViolated, match="only decided for J = all"):
            verify_rellich(OperatorParams(3), 2, 4.5, domain, HarmonicSet.finite([0]),
                           [(0, bump(0.8, 2.2))])

    def test_holds_without_constant(self):
        # alpha = -1 is valid on the ball but outside the symmetric range
        assert best_constant(P5, 2, -1.0) is None
        rep = verify_rellich(P5, 2, -1.0, DomainKind.UNIT_BALL, ALL, small_corpus())
        assert rep.passed and "no certified constant" in rep.notes


class TestVerifyHardy:
    def test_weighted_constant(self):
        rep = verify_hardy(5, 2, 2.0, bump(1.0, 2.0))
        assert rep.passed and "6.25" in rep.claim

    def test_classical_constant(self):
        rep = verify_hardy(3, 2, 0.0, bump(1.0, 2.0))
        assert rep.passed and "0.25" in rep.claim

    def test_degenerate_weight(self):
        with pytest.raises(DegenerateWeight):
            verify_hardy(2, 2, 0.0, bump(1.0, 2.0))

    def test_constant_beyond_float_range(self):
        with pytest.raises(OutOfRange):
            verify_hardy(5, 2, 1e300, bump(1.0, 2.0))

    def test_constant_approached_by_power_profiles(self):
        # u = r^{-(N-2+beta)/p} bump(log r / T): ratio -> ((N-2+beta)/p)^2.
        # Parameters with small q keep r^{-q-1} inside float range out to
        # T = 200 (support spans e^{+-T}).
        N, p, beta = 3, 2.0, 0.0
        q = (N - 2 + beta) / p
        K = q**2
        assert K == 0.25
        ratios = []
        for T in (25.0, 50.0, 100.0, 200.0):
            u = radial_power_bump(q, T)
            rep = verify_hardy(N, p, beta, u)
            _, lhs, rhs, _ = rep.samples[0]
            ratios.append(lhs / (rhs / K))
        assert abs(ratios[-1] - K) <= 0.05 * K
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(ratios, ratios[1:]))

    def test_integrands_at_the_ends_of_the_support(self, monkeypatch):
        # u vanishes at the ends of its support, where |u|^(p-2) is infinite
        # for p < 2: both integrands are 0 there and outside, without a
        # divide-by-zero warning
        import warnings

        import rellich.verify as verify_mod

        real, ends = verify_mod.integrate, []

        def at_ends(g, a, b):
            pad = 0.01 * (b - a)
            ends.append(g(np.array([a - pad, a, b, b + pad])))
            return real(g, a, b)

        monkeypatch.setattr(verify_mod, "integrate", at_ends)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_hardy(5, 1.5, 1.0, bump(1.0, 2.0))
        assert rep.passed and len(ends) == 2
        assert all(np.all(v == 0.0) for v in ends), ends


class TestGreenReconstruct:
    def test_beta_positive(self):
        assert oned_green_reconstruct(1.0, bump(1.0, 2.0)) < 1e-6

    def test_beta_negative(self):
        assert oned_green_reconstruct(-2.0, bump(1.0, 2.0)) < 1e-6

    @pytest.mark.parametrize("beta, support", [(6.0, (0.1, 7.0)), (4.0, (0.1, 7.0)),
                                               (2.0, (0.5, 20.0)), (12.0, (0.5, 20.0)),
                                               (-2.0, (0.5, 20.0)), (-1.0, (0.1, 7.0)),
                                               (-6.0, (0.1, 7.0))])
    def test_many_e_folds_keep_their_digits(self, beta, support):
        # |beta| (b - a) from 6.9 to 234 e-folds: e^{beta s} f taken on chunks
        # of about 4 e-folds, each normalised at its start, keeps the
        # rounding of one chunk; for beta < 0 in the right-tail form, whose
        # kernel decays too
        assert oned_green_reconstruct(beta, bump(*support)) <= 1e-12

    def test_beta_zero(self):
        with pytest.raises(BetaZero):
            oned_green_reconstruct(0.0, bump(1.0, 2.0))

    def test_support_guard(self):
        with pytest.raises(PreconditionViolated):
            oned_green_reconstruct(1.0, bump(-1.0, 2.0))

    def test_two_antiderivatives_suffice(self, monkeypatch):
        # both integrals of the representation, at every grid point, and the
        # two orthogonality integrals are read off the antiderivatives of f
        # and e^{beta s} f: two integrate calls, each resolved on one piece
        import rellich.verify as verify_mod

        points = []
        real = verify_mod.integrate

        def counted(f, a, b):
            n = [0]

            def g(s):
                n[0] += np.size(s)
                return f(s)

            out = real(g, a, b)
            points.append(n[0])
            return out

        monkeypatch.setattr(verify_mod, "integrate", counted)
        assert oned_green_reconstruct(0.7, bump(1.0, 3.0)) < 1e-6
        assert len(points) <= 2 and sum(points) <= 256


class TestOned:
    def test_bounded_family(self):
        corpus = [bump(c - w, c + w) for c, w in
                  [(2, 1), (5, 2), (9, 3), (14, 4), (3, 0.5)]]
        rep = verify_oned_inequality(1.0, 2, 1.0, 0.5, corpus)
        assert rep.passed

    def test_negative_control_blows_up(self):
        # beta = 0 with kappa = 1: dilating supports [M, 3M] push the
        # empirical constant to infinity
        sups = []
        for M in (10.0, 100.0, 1000.0):
            corpus = [bump(M, 3 * M)]
            rep = verify_oned_inequality(0.0, 2, 1.0, 0.5, corpus, kappa=1.0)
            sups.append(max(s[1] for s in rep.samples))
        assert sups[1] > 3 * sups[0] and sups[2] > 3 * sups[1]

    def test_kappa2_controls_beta_zero(self):
        # the weaker kappa = 2 inequality stays bounded on the same family
        sups = []
        for M in (10.0, 100.0, 1000.0):
            rep = verify_oned_inequality(0.0, 2, 1.0, 0.5, [bump(M, 3 * M)])
            sups.append(max(s[1] for s in rep.samples))
        assert max(sups) < 10 * sups[0]

    def test_p1_with_eps(self):
        rep = verify_oned_inequality(1.0, 1, 1.0, 0.5, [bump(2, 6), bump(5, 9)])
        assert rep.passed

    def test_weighted_norm_underflow_names_kappa(self):
        # s^-kappa underflows to 0 where the profile lives: no ratio to
        # report; a profile left of a has a weighted norm of 0 and ratio 0
        with pytest.raises(OutOfRange, match="kappa="):
            verify_oned_inequality(1.0, 1, 1.0, 1e5, [bump(2, 6)])
        assert verify_oned_inequality(1.0, 1, 10.0, 1e5, [bump(2, 6)]).samples[0][1] == 0.0


class TestAux:
    def test_basic(self):
        rep = verify_aux_remainder(-2.0, 1.25, 2, bump(1.0, 3.0))
        assert rep.passed

    def test_homogeneity(self):
        # scaling v by 10 scales both sides by 10^p; margin sign unchanged
        v = bump(1.0, 3.0)
        v10 = type(v)(
            jet=lambda s: tuple(10 * x for x in v.jet(s)),
            support=v.support,
        )
        r1 = verify_aux_remainder(-2.0, 1.25, 2, v)
        r10 = verify_aux_remainder(-2.0, 1.25, 2, v10)
        assert r1.passed and r10.passed
        assert abs(r10.samples[0][1] / r1.samples[0][1] - 100.0) < 1e-6

    def test_other_parameters(self):
        assert verify_aux_remainder(0.7, 2.0, 3, bump(0.5, 4.0)).passed

    def test_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            beta = float(rng.uniform(-4, 4))
            lam = float(rng.uniform(0.1, 5))
            p = float(rng.choice([1.5, 2.0, 2.5, 3.0, 4.0]))
            c0 = float(rng.uniform(0.5, 8))
            w = float(rng.uniform(0.3, 0.9)) * c0
            rep = verify_aux_remainder(beta, lam, p, bump(c0 - w, c0 + w))
            assert rep.passed, (beta, lam, p, c0, w)


class TestRemainder:
    def test_frozen_constant(self):
        corpus = [bump(1.0, 3.0), bump(2.0, 8.0)]
        rep = verify_remainder(P5, 2, 0.0, corpus)
        assert rep.passed and "c_rem=0.3125" in rep.claim

    def test_deep_log_stress(self):
        rep = verify_remainder(P5, 2, 0.0, [bump(8.8, 9.6)])  # r ~ 1e-4
        assert rep.passed

    def test_out_of_range(self):
        with pytest.raises(PreconditionViolated):
            verify_remainder(P5, 2, 2.6, [bump(1.0, 3.0)])

    def test_support_guard(self):
        with pytest.raises(PreconditionViolated):
            verify_remainder(P5, 2, 0.0, [bump(0.1, 3.0)])


def weighted_ratios(rep):
    return [lhs for _d, lhs, *_ in rep.samples]


def unweighted_ratios(branch):
    return [r.ratio for r in counterexample_ratio(P5, 2, 0, branch, EPS_LADDER)]


class TestCriticalLog:
    def test_positive_root_case(self):
        rep = verify_critical_log(P5, 2, 0, "minus")
        assert rep.passed
        assert min(weighted_ratios(rep)) > 0.1
        unweighted = unweighted_ratios("minus")
        assert unweighted[-1] < 0.3 * unweighted[0]

    def test_plus_branch(self):
        rep = verify_critical_log(P5, 2, 0, "plus")
        assert rep.passed and min(weighted_ratios(rep)) > 0.1
        unweighted = unweighted_ratios("plus")
        assert unweighted[-1] < 0.3 * unweighted[0]

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError, match="branch must be 'minus' or 'plus'"):
            verify_critical_log(P5, 2, 0, "bogus")

    def test_zero_discriminant_kappa2(self):
        P = OperatorParams(5, 0, -2.25)  # D = 0: kappa = 2 branch
        rep = verify_critical_log(P, 2, 0, "minus")
        assert "kappa=2" in rep.claim and rep.passed

    def test_p1_epsilon_exponent(self):
        rep = verify_critical_log(P5, 1, 0, "minus", log_eps=0.5)
        assert "kappa=1.5" in rep.claim and rep.passed

    def test_non_finite_log_eps_rejected(self):
        with pytest.raises(PreconditionViolated, match="log_eps must be finite"):
            verify_critical_log(P5, 1, 0, "minus", log_eps=math.nan)

    def test_one_lp_norm_call(self, monkeypatch):
        # the numerators of the whole ladder, their shared denominator and
        # the weighted denominators are one stack of 4 + 1 + 4 rows
        import rellich.radial as radial_mod
        import rellich.verify as verify_mod

        rows = []

        def counted(f, support, p):
            out = lp_norm(f, support, p)
            rows.append(len(out))
            return out

        monkeypatch.setattr(verify_mod, "lp_norm", counted)
        monkeypatch.setattr(radial_mod, "lp_norm", counted)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            assert verify_critical_log(P5, p, 0, "minus").passed
            assert rows == [2 * len(EPS_LADDER) + 1], (p, rows)
            rows.clear()


class TestDissipativity:
    def test_basic_modes(self):
        corpus = [(0, bump(-1.0, 2.0)), (2, bump(0.5, 3.0))]
        rep = verify_dissipativity(P5, 2, 1.0, corpus)
        assert rep.passed

    def test_small_lambda_limit(self):
        rep = verify_dissipativity(P5, 2, 1e-6, [(0, bump(-2.0, 2.0))])
        assert rep.passed

    def test_angular_term_helps(self):
        # margins grow with the harmonic degree
        v = bump(-1.0, 1.0)
        margins = [
            verify_dissipativity(P5, 2, 1.0, [(n, v)]).samples[0][3]
            for n in (0, 1, 2)
        ]
        assert margins[0] < margins[1] < margins[2]

    def test_drifted(self):
        rep = verify_dissipativity(OperatorParams(4, 1.5, 0), 3, 0.7,
                                   [(0, bump(-1, 3)), (1, bump(2, 5))])
        assert rep.passed


def test_overflowing_power_is_out_of_range():
    # lambda^p and C^{p-1} overflow at p = 1e300; |f|^p overflows in the norms
    with pytest.raises(OutOfRange, match="lambda=2.0"):
        verify_aux_remainder(0.0, 2.0, 1e300, bump(1.0, 3.0))
    with pytest.raises(OutOfRange, match="C=6.0"):
        verify_remainder(OperatorParams(5, 0, 10), 1e300, 1.0, [bump(1.0, 3.0)])
    with pytest.raises(OutOfRange, match="beyond float range"):
        verify_dissipativity(P5, 1e300, 1.0, [(0, bump(1.0, 3.0))])


def test_extremizer_convergence_monotone():
    # |ratio(v_T) - C| nonincreasing over T in {25, 50, 100, 200}
    rng = np.random.default_rng(31)
    cases = [(P5, 2.0, 0.0)]
    while len(cases) < 10:
        N = int(rng.integers(3, 9))
        c = float(rng.uniform(-2, 2))
        D = float(rng.uniform(0.8, 9.0))
        b = D - ((N - 2 + c) / 2) ** 2
        p = float(rng.choice([1.5, 2.0, 3.0]))
        P = OperatorParams(N, c, b)
        from rellich import base_alpha

        alpha = base_alpha(P, p) + float(rng.uniform(-0.7, 0.7)) * math.sqrt(D)
        if best_constant(P, p, alpha) is None:
            continue
        cases.append((P, p, alpha))
    for P, p, alpha in cases:
        C = best_constant(P, p, alpha)
        errs = [
            abs(rellich_ratio_separable(P, p, alpha, 0, plateau_profile(T)).ratio - C)
            for T in (25.0, 50.0, 100.0, 200.0)
        ]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:])), (P, p, alpha, errs)


def test_remainder_margin_shrinks_toward_extremizer():
    # plateau profiles approach equality in the remainder inequality:
    # relative margins decrease with T but stay nonnegative
    margins = []
    for T in (4.0, 8.0, 16.0):
        v = bump(1.0, 1.0 + 2 * T)
        rep = verify_remainder(P5, 2, 0.0, [v])
        _, lhs, rhs, margin = rep.samples[0]
        assert margin >= -rep.tolerance
        margins.append(margin / max(lhs, 1e-300))
    assert margins[2] < margins[0]
