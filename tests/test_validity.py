"""Decision procedures: frozen spec cases, cross-forms, Kelvin equivalence."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rellich import (
    DEFAULT_TOL,
    ADomain,
    Branch,
    DomainKind,
    DZero,
    HarmonicSet,
    OperatorParams,
    OutOfRange,
    PreconditionViolated,
    base_alpha,
    best_constant,
    classify_A,
    critical_alphas,
    decide,
    discriminant,
    eigen_lambda,
    gamma_p,
    in_region,
    kelvin_transform,
    lemma_parameters_flags,
    on_parabola,
    region_section3,
    tail_exponent_integrable,
)
from rellich.quadrature import integrate

P5 = OperatorParams(5, 0, 0)
INF = math.inf


class TestHarmonicSet:
    def test_parse_roundtrip(self):
        for text in ["all", "ge:1", "set:0,2", "ne:0"]:
            assert str(HarmonicSet.parse(text)) == text

    def test_membership(self):
        assert HarmonicSet.all().contains(7)
        assert not HarmonicSet.at_least(2).contains(1)
        assert HarmonicSet.finite([0, 2]).contains(2)
        assert not HarmonicSet.finite([0, 2]).contains(1)
        assert HarmonicSet.excluding([0]).contains(1)
        assert not HarmonicSet.excluding([0]).contains(0)

    def test_min_index(self):
        assert HarmonicSet.all().min_index == 0
        assert HarmonicSet.at_least(3).min_index == 3
        assert HarmonicSet.finite([2, 5]).min_index == 2
        assert HarmonicSet.excluding([0, 1, 3]).min_index == 2

    def test_empty_finite_rejected(self):
        with pytest.raises(ValueError):
            HarmonicSet.finite([])


class TestWholeSpace:
    def test_fails_at_minus_critical(self):
        v = decide(P5, 2, -0.5, DomainKind.WHOLE_SPACE)
        assert not v.holds and (0, Branch.MINUS) in v.failing_modes

    def test_holds_classical(self):
        assert decide(P5, 2, 0, DomainKind.WHOLE_SPACE).holds

    def test_excluded_mode_restores_validity(self):
        assert decide(P5, 2, -0.5, DomainKind.WHOLE_SPACE, HarmonicSet.at_least(1)).holds

    def test_plus_branch(self):
        v = decide(P5, 2, 2.5, DomainKind.WHOLE_SPACE)
        assert not v.holds and (0, Branch.PLUS) in v.failing_modes

    def test_degenerate_base_failure(self):
        # D + lambda_0 < 0 collapses both branches onto alpha = base
        P = OperatorParams(5, 0, -3)
        v = decide(P, 2, base_alpha(P, 2), DomainKind.WHOLE_SPACE)
        assert not v.holds
        # single collapsed mode reported
        assert v.failing_modes == [(0, Branch.MINUS)]

    def test_finite_set_only_scans_members(self):
        # failing mode n=0 not in J = {1, 3}
        assert decide(P5, 2, -0.5, DomainKind.WHOLE_SPACE, HarmonicSet.finite([1, 3])).holds
        v = decide(P5, 2, -1.5, DomainKind.WHOLE_SPACE, HarmonicSet.finite([1, 3]))
        assert not v.holds and v.failing_modes == [(1, Branch.MINUS)]

    def test_excluding_variant(self):
        assert decide(P5, 2, -0.5, DomainKind.WHOLE_SPACE, HarmonicSet.excluding([0])).holds
        assert not decide(P5, 2, -1.5, DomainKind.WHOLE_SPACE, HarmonicSet.excluding([0])).holds


class TestUnitBall:
    def test_boundary_obstruction(self):
        v = decide(P5, 2, 3, DomainKind.UNIT_BALL)
        assert not v.holds
        assert (0, Branch.BOUNDARY) in v.failing_modes

    def test_holds_above_whole_space_plus(self):
        # alpha = 2 is fine in the ball although close to alpha_0^+ = 2.5
        assert decide(P5, 2, 2, DomainKind.UNIT_BALL).holds

    def test_minus_mode(self):
        v = decide(P5, 2, -1.5, DomainKind.UNIT_BALL)
        assert not v.holds and (1, Branch.MINUS) in v.failing_modes

    def test_cross_form_b_gamma(self):
        # holds <=> b + gamma_p + lambda_j rule, split at alpha = base
        rng = np.random.default_rng(7)
        for _ in range(300):
            N = int(rng.integers(2, 10))
            c = float(rng.uniform(-3, 3))
            b = float(rng.uniform(-4, 4))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, INF]))
            alpha = float(rng.uniform(-5, 5))
            P = OperatorParams(N, c, b)
            base = base_alpha(P, p)
            # skip tolerance-ambiguous draws
            gaps = [
                abs(b + gamma_p(N, p, alpha, c) + eigen_lambda(N, j))
                for j in range(0, 25)
            ]
            if min(gaps) < 1e-6 or abs(alpha - base) < 1e-6:
                continue
            v = decide(P, p, alpha, DomainKind.UNIT_BALL)
            if alpha > base:
                expected = b + gamma_p(N, p, alpha, c) + eigen_lambda(N, 0) > 0
            else:
                expected = all(
                    b + gamma_p(N, p, alpha, c) + eigen_lambda(N, j) != 0
                    for j in range(0, 25)
                )
            assert v.holds == expected, (N, c, b, p, alpha)

    def test_tolerance_stability(self):
        # small perturbations that cross no critical value keep the verdict
        base_v = decide(P5, 2, 2.0, DomainKind.UNIT_BALL)
        for da in (-1e-4, -1e-6, 1e-6, 1e-4):
            assert decide(P5, 2, 2.0 + da, DomainKind.UNIT_BALL).holds == base_v.holds

    def test_endpoint_exponents(self):
        # the ball characterization covers p = 1 and p = inf; Laplacian:
        # threshold N(1 - 1/p), minus-exclusions 2 - N/p - n
        assert decide(P5, 1, -3.5, DomainKind.UNIT_BALL).holds          # threshold 0
        assert not decide(P5, 1, 0.5, DomainKind.UNIT_BALL).holds
        v = decide(P5, 1, -3.0, DomainKind.UNIT_BALL)                   # 2 - 5 - 0
        assert (0, Branch.MINUS) in v.failing_modes
        assert decide(P5, INF, 4.5, DomainKind.UNIT_BALL).holds         # threshold 5
        v = decide(P5, INF, 2.0, DomainKind.UNIT_BALL)                  # 2 - 0 - 0
        assert (0, Branch.MINUS) in v.failing_modes

    def test_j0_shifts_boundary_threshold(self):
        # J = {n >= 1}: obstruction moves to base + sqrt(D + lambda_1)
        thr = base_alpha(P5, 2) + math.sqrt(discriminant(P5) + eigen_lambda(5, 1))
        assert decide(P5, 2, thr - 0.1, DomainKind.UNIT_BALL, HarmonicSet.at_least(1)).holds
        v = decide(P5, 2, thr + 0.1, DomainKind.UNIT_BALL, HarmonicSet.at_least(1))
        assert (1, Branch.BOUNDARY) in v.failing_modes


class TestBounded:
    def test_holds_with_constant(self):
        v = decide(P5, 2, 0, DomainKind.BOUNDED_SMOOTH)
        assert v.holds and v.best_constant == 1.25

    def test_negative_D_rejected(self):
        with pytest.raises(PreconditionViolated):
            decide(OperatorParams(5, 0, -3), 2, 0, DomainKind.BOUNDED_SMOOTH)

    def test_endpoint_p_rejected(self):
        with pytest.raises(PreconditionViolated):
            decide(P5, 1, 0, DomainKind.BOUNDED_SMOOTH)
        with pytest.raises(PreconditionViolated):
            decide(P5, INF, 0, DomainKind.BOUNDED_SMOOTH)


class TestExterior:
    def test_holds(self):
        assert decide(P5, 2, 2, DomainKind.EXTERIOR_BALL).holds

    def test_plus_mode(self):
        v = decide(P5, 2, 2.5, DomainKind.EXTERIOR_BALL)
        assert not v.holds and (0, Branch.PLUS) in v.failing_modes

    def test_smooth_preconditions(self):
        with pytest.raises(PreconditionViolated):
            decide(OperatorParams(5, 0, -3), 2, 2, DomainKind.EXTERIOR_SMOOTH)
        with pytest.raises(PreconditionViolated):
            decide(P5, 1, 2, DomainKind.EXTERIOR_SMOOTH)
        # the ball complement tolerates both
        decide(OperatorParams(5, 0, -3), 2, 2, DomainKind.EXTERIOR_BALL)
        decide(P5, 1, 2, DomainKind.EXTERIOR_BALL)

    @pytest.mark.parametrize("kind", [DomainKind.EXTERIOR_BALL, DomainKind.EXTERIOR_SMOOTH])
    @pytest.mark.parametrize("J", [HarmonicSet.finite([0]), HarmonicSet.at_least(1),
                                   HarmonicSet.excluding([2])], ids=["set", "ge", "ne"])
    def test_only_J_all_is_decided(self, kind, J):
        # at alpha = 4.5 in N = 3 the failing mode n = 3 lies outside J = {0}
        with pytest.raises(PreconditionViolated,
                           match="^exterior domains are only decided for J = all$"):
            decide(OperatorParams(3), 2, 4.5, kind, J)
        assert not decide(OperatorParams(3), 2, 4.5, kind).holds

    def test_bounded_J_message_unchanged(self):
        with pytest.raises(PreconditionViolated,
                           match="^general bounded domains are only decided for J = all$"):
            decide(P5, 2, 0, DomainKind.BOUNDED_SMOOTH, HarmonicSet.finite([0]))

    def test_a_domain_that_is_not_a_kind_is_rejected(self):
        # a plain string that is no member value is named; a member value works
        with pytest.raises(ValueError, match="domain must be a DomainKind, got 'exterior'"):
            decide(P5, 2, 0, "exterior")
        for kind in DomainKind:
            assert decide(P5, 2, 0, kind.value) == decide(P5, 2, 0, kind)

    def test_kelvin_image_beyond_float_range_names_the_given_params(self):
        # b + (N - 2) c of the image overflows to -inf
        big = OperatorParams(15 * 10**153, -1.5e154, 0)
        with pytest.raises(OutOfRange, match=r"N=15000\d+, c=-1\.5e\+154, b=0 leaves float"):
            decide(big, 2, 0, DomainKind.EXTERIOR_BALL)

    def test_kelvin_equivalence_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            N = int(rng.integers(2, 10))
            c = float(rng.uniform(-3, 3))
            b = float(rng.uniform(-4, 4))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, INF]))
            alpha = float(rng.uniform(-5, 5))
            P = OperatorParams(N, c, b)
            v1 = decide(P, p, alpha, DomainKind.EXTERIOR_BALL)
            tp, ta = kelvin_transform(P, p, alpha)
            v2 = decide(tp, p, ta, DomainKind.UNIT_BALL)
            assert v1.holds == v2.holds


class TestBestConstant:
    def test_values(self):
        assert best_constant(P5, 2, 0) == 1.25
        assert best_constant(OperatorParams(10, 0, 0), 2, 0) == 15.0
        assert best_constant(P5, 2, 2.6) is None

    def test_range_boundary(self):
        # alpha = base + sqrt(D) is excluded (open range)
        assert best_constant(P5, 2, 2.5) is None
        assert best_constant(P5, 2, 2.4999) is not None

    def test_no_constant_when_D_nonpositive(self):
        assert best_constant(OperatorParams(2, 0, 0), 2, 0.1) is None


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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    def test_finite_below_alpha0_plus_only(self, p):
        # the exponent comparison is alpha < alpha_0^+ of critical_alphas;
        # at p = 1 it pairs with the sup norm, |y|^e bounded iff e >= 0
        rng = np.random.default_rng(26)
        for _ in range(500):
            N, c = int(rng.integers(2, 11)), float(rng.uniform(-4, 4))
            P = OperatorParams(N, c, float(rng.uniform(0, 9)) - ((N - 2 + c) / 2) ** 2)
            thr = critical_alphas(P, p, 0)[1]
            gap = (abs(thr) + 1) * 10.0 ** float(rng.uniform(-9, 1))
            assert tail_exponent_integrable(P, p, thr - gap), (P, p, thr, gap)
            assert not tail_exponent_integrable(P, p, thr + gap), (P, p, thr, gap)

    def test_at_D_zero_the_threshold_is_the_base(self):
        P = OperatorParams(3, 1, -1)  # D = 0, s1 = s2 = 1
        assert discriminant(P) == 0
        for p in (1.5, 2.0, 3.0):
            base = base_alpha(P, p)
            assert tail_exponent_integrable(P, p, base - 1e-9)
            assert not tail_exponent_integrable(P, p, base + 1e-9)

    def test_negative_D_raises(self):
        for D in (-1e-3, -1e-12, -4.0):
            P = OperatorParams(3, 1, -1 + D)
            assert discriminant(P) < 0
            with pytest.raises(DZero):
                tail_exponent_integrable(P, 2, 0.0)


class TestLemmaParameters:
    def test_frozen_cases(self):
        assert lemma_parameters_flags(P5, 2, 0, 0) == (True,) * 4
        assert lemma_parameters_flags(P5, 2, 3, 0) == (False,) * 4
        assert lemma_parameters_flags(OperatorParams(5, 0, -3), 2, 1, 0) == (False,) * 4

    def test_agreement_battery(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 2000:
            N = int(rng.integers(2, 13))
            c = float(rng.uniform(-4, 4))
            b = float(rng.uniform(-5, 5))
            p = float(rng.choice([1.0, 1.3, 2.0, 2.7, 4.0, INF]))
            alpha = float(rng.uniform(-6, 6))
            j = int(rng.integers(0, 6))
            P = OperatorParams(N, c, b)
            lam = eigen_lambda(N, j)
            # exclude equality boundaries
            if abs(b + gamma_p(N, p, alpha, c) + lam) < 1e-6:
                continue
            if abs(discriminant(P) + lam) < 1e-6:
                continue
            flags = lemma_parameters_flags(P, p, alpha, j)
            assert len(set(flags)) == 1, (N, c, b, p, alpha, j, flags)
            checked += 1


def test_laplacian_specialization_grid():
    # b = c = 0 decision on the ball matches the closed Laplacian rule
    for N in range(3, 9):
        for p in [1.5, 2.0, 3.0, INF]:
            kink = N * (1 - (0 if math.isinf(p) else 1 / p))
            excl = [2 - (0 if math.isinf(p) else N / p) - n for n in range(0, 12)]
            for alpha in np.linspace(-7, 7, 113):
                closed = alpha < kink - 1e-9 and all(
                    abs(alpha - e) > 1e-9 for e in excl
                )
                got = decide(OperatorParams(N, 0, 0), p, float(alpha), DomainKind.UNIT_BALL).holds
                assert got == closed, (N, p, alpha)


def test_whole_space_ball_consistency():
    # wherever the ball inequality holds, the whole-space minus-branch
    # exclusions below base cannot be hit either
    rng = np.random.default_rng(23)
    for _ in range(200):
        N = int(rng.integers(2, 9))
        c = float(rng.uniform(-2, 2))
        b = float(rng.uniform(-2, 4))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        alpha = float(rng.uniform(-4, 4))
        P = OperatorParams(N, c, b)
        vb = decide(P, p, alpha, DomainKind.UNIT_BALL)
        if vb.holds:
            vw = decide(P, p, alpha, DomainKind.WHOLE_SPACE)
            minus_below = [
                (j, br)
                for j, br in vw.failing_modes
                if br == Branch.MINUS and alpha < base_alpha(P, p)
            ]
            assert not minus_below


def test_decide_dispatch():
    assert decide(P5, 2, 0, DomainKind.WHOLE_SPACE, HarmonicSet.all()).holds
    assert decide(P5, 2, 2, DomainKind.UNIT_BALL, HarmonicSet.all()).holds
    assert decide(P5, 2, 0, DomainKind.BOUNDED_SMOOTH, HarmonicSet.all()).holds
    with pytest.raises(PreconditionViolated):
        decide(P5, 2, 0, DomainKind.BOUNDED_SMOOTH, HarmonicSet.at_least(1))
    assert decide(P5, 2, 2, DomainKind.EXTERIOR_BALL, HarmonicSet.all()).holds


def test_verdict_is_frozen():
    v = decide(P5, 2, -0.5, DomainKind.WHOLE_SPACE)
    assert not v.holds and v.failing_modes == [(0, Branch.MINUS)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.best_constant = 1.0


class TestInputValidation:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha(self, alpha):
        for domain in DomainKind:
            with pytest.raises(PreconditionViolated):
                decide(P5, 2, alpha, domain)

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, 1.0])
    def test_bad_tolerance(self, tol):
        with pytest.raises(PreconditionViolated):
            decide(P5, 2, -0.5, DomainKind.WHOLE_SPACE, tol=tol)
        with pytest.raises(PreconditionViolated):
            decide(P5, 2, -0.5, DomainKind.UNIT_BALL, tol=tol)

    @pytest.mark.parametrize("p, alpha, domain", [
        (2, 1e300, DomainKind.WHOLE_SPACE),
        (2, -1e300, DomainKind.UNIT_BALL),
        (2, 1e300, DomainKind.EXTERIOR_BALL),
        (INF, 1e300, DomainKind.WHOLE_SPACE),
    ])
    def test_degree_beyond_float_range(self, p, alpha, domain):
        # alpha_j^+ = 1e300 needs lambda_j near 1e600; the Kelvin map keeps
        # |alpha - base|, so the exterior names the distance it was given
        with pytest.raises(OutOfRange, match=r"^\|alpha - base\| = 1e\+300 puts the degree "):
            decide(P5, p, alpha, domain)

    def test_boundary_side_of_a_huge_alpha_stands(self):
        # no degree can hit on this side, so the decision stands
        v = decide(P5, 2, 1e300, DomainKind.UNIT_BALL)
        assert v.failing_modes == [(0, Branch.BOUNDARY)]

    def test_operator_params_rejects(self):
        for args in [(5.5,), (5, math.nan), (5, 0, math.inf), (5, 1e200, 1e300)]:
            with pytest.raises(ValueError):
                OperatorParams(*args)


# ---------------------------------------------------------------------------
# Oracle: the harmonic scan that the closed form replaced.  It walks the
# members of J upwards until a horizon closure fires, and applies the same
# hit predicates as the library.


def scan_members(J, stop):
    if J.kind == "finite":
        return list(J.data)
    out = []
    j = J.min_index
    while True:
        if J.contains(j):
            if stop(j):
                break
            out.append(j)
        j += 1
        assert j <= 10**7, "scan failed to terminate"
    return out


# the scans walk the degrees one by one to their own stop rule, and read each
# threshold from critical_alphas, whose accuracy test_params checks against an
# exact reference; a restated base -/+ root would differ from it in rounding
def scan_whole_space(P, p, alpha, J, tol):
    def stop(j):
        a_minus, a_plus = critical_alphas(P, p, j)
        return a_minus < alpha - 1.0 and a_plus > alpha + 1.0

    modes = []
    for j in scan_members(J, stop):
        a_minus, a_plus = critical_alphas(P, p, j)
        minus_hit = abs(alpha - a_minus) <= tol
        plus_hit = abs(alpha - a_plus) <= tol
        if minus_hit:
            modes.append((j, Branch.MINUS))
        if plus_hit and not (minus_hit and a_plus - a_minus <= 2 * tol):
            modes.append((j, Branch.PLUS))
    return modes


def scan_unit_ball(P, p, alpha, J, tol):
    j0 = J.min_index
    modes = []
    if alpha >= critical_alphas(P, p, j0)[1] - tol:
        modes.append((j0, Branch.BOUNDARY))

    def stop(j):
        return critical_alphas(P, p, j)[0] < alpha - 1.0

    for j in scan_members(J, stop):
        if abs(alpha - critical_alphas(P, p, j)[0]) <= tol:
            modes.append((j, Branch.MINUS))
    return modes


def scan_exterior(P, p, alpha, tol):
    tp, ta = kelvin_transform(P, p, alpha)
    return [(j, Branch.PLUS if b == Branch.MINUS else b)
            for j, b in scan_unit_ball(tp, p, ta, HarmonicSet.all(), tol)]


def scan_on_union(P, p, J, lam, tol):
    region = region_section3(P, p)

    def stop(j):
        return -region.omega - eigen_lambda(P.N, j) < lam.real - 1.0

    return any(on_parabola(region, lam + eigen_lambda(P.N, j), tol)
               for j in scan_members(J, stop))


def union_reference(P, p, J, lam, tol):
    if tol <= 1e-3:
        return scan_on_union(P, p, J, lam, tol)
    # the scan's horizon Re lam + lambda_j > 1 - omega comes too early once
    # tol (1 + |mu|) can pass 1 (already at tol = 0.2).  A hit needs Re lam +
    # lambda_j below (tol (1 + |Im lam|) + |omega|) / (1 - tol), so for these
    # inputs and tol <= 0.99 every hit lies below degree 1000
    region = region_section3(P, p)
    return any(on_parabola(region, lam + eigen_lambda(P.N, j), tol)
               for j in range(1000) if J.contains(j))


P_CHOICES = [1.0, 1.5, 2.0, 3.0, INF]

# quarter-integer drifts keep D exact, so D + lambda_j = 0 can be hit exactly
drifts = st.one_of(st.integers(-16, 16).map(lambda k: k / 4.0),
                   st.floats(-4.0, 4.0, allow_nan=False))
harmonic_sets = st.one_of(
    st.just(HarmonicSet.all()),
    st.integers(0, 4).map(HarmonicSet.at_least),
    st.lists(st.integers(0, 9), min_size=1, max_size=4).map(HarmonicSet.finite),
    st.lists(st.integers(0, 5), max_size=3).map(HarmonicSet.excluding),
)
tolerances = st.one_of(st.sampled_from([DEFAULT_TOL, 0.0, 1e-6, 1e-3]),
                       st.floats(0.25, 0.99))


@st.composite
def operators(draw):
    """(N, c, b) with D in [-10, 10], on -lambda_j (D + lambda_j = 0) or plain."""
    N = draw(st.integers(2, 12))
    c = draw(drifts)
    D = draw(st.one_of(
        st.floats(-10.0, 10.0, allow_nan=False),
        st.integers(0, 3).map(lambda j: -eigen_lambda(N, j)),
    ))
    return OperatorParams(N, c, D - ((N - 2 + c) / 2.0) ** 2)


@st.composite
def decision_inputs(draw):
    P = draw(operators())
    p = draw(st.sampled_from(P_CHOICES))
    J = draw(harmonic_sets)
    how = draw(st.sampled_from(["free", "critical", "base"]))
    if how == "critical":
        alpha = critical_alphas(P, p, draw(st.integers(0, 10)))[draw(st.integers(0, 1))]
    elif how == "base":
        alpha = base_alpha(P, p)
    else:
        alpha = draw(st.floats(-12.0, 12.0, allow_nan=False))
    return P, p, alpha, J, draw(tolerances)


@given(decision_inputs())
@settings(max_examples=400, deadline=None)
def test_decisions_match_scan(args):
    P, p, alpha, J, tol = args
    ALL = HarmonicSet.all()
    # domain -> (the subspace it is decided for, the scan's failing modes)
    expected = {
        DomainKind.WHOLE_SPACE: (J, scan_whole_space(P, p, alpha, J, tol)),
        DomainKind.UNIT_BALL: (J, scan_unit_ball(P, p, alpha, J, tol)),
        DomainKind.EXTERIOR_BALL: (ALL, scan_exterior(P, p, alpha, tol)),
    }
    if 1.0 < p < INF and discriminant(P) >= 0:
        expected[DomainKind.BOUNDED_SMOOTH] = (ALL, scan_unit_ball(P, p, alpha, ALL, tol))
        expected[DomainKind.EXTERIOR_SMOOTH] = (ALL, scan_exterior(P, p, alpha, tol))
    for domain, (K, modes) in expected.items():
        v = decide(P, p, alpha, domain, K, tol)
        assert v.failing_modes == modes and v.holds == (not modes), domain
        # certified for J = all where it holds, on the Kelvin image for the
        # ball's complement, never for a smooth exterior domain
        exterior = domain in (DomainKind.EXTERIOR_BALL, DomainKind.EXTERIOR_SMOOTH)
        Q, a = kelvin_transform(P, p, alpha) if exterior else (P, alpha)
        certified = not modes and K.kind == "all" and domain != DomainKind.EXTERIOR_SMOOTH
        assert v.best_constant == (best_constant(Q, p, a) if certified else None), domain


@st.composite
def spectral_inputs(draw):
    N = draw(st.integers(2, 10))
    p = draw(st.sampled_from(P_CHOICES))
    sign = draw(st.sampled_from(["neg", "zero", "pos"]))
    # k = N(1 - 2/p) - 2 + c; k = 0 exactly for p in {1, 2, inf}
    flat = {1.0: N + 2.0, 2.0: 2.0, INF: 2.0 - N}
    if sign == "zero":
        p = draw(st.sampled_from(sorted(flat)))
        c = flat[p]
    else:
        c = draw(drifts)
    P = OperatorParams(N, c)
    region = region_section3(P, p)
    assume(sign == "zero" or (region.k < 0) == (sign == "neg") and region.k != 0)
    J = draw(harmonic_sets)
    if draw(st.booleans()):
        # exactly on a shifted parabola P_p - lambda_j
        xi = draw(st.floats(-4.0, 4.0, allow_nan=False))
        lam = region.parabola_point(xi) - eigen_lambda(N, draw(st.integers(0, 12)))
    else:
        lam = complex(draw(st.floats(-60.0, 10.0, allow_nan=False)),
                      draw(st.floats(-20.0, 20.0, allow_nan=False)))
    return P, p, J, lam, draw(tolerances)


@given(spectral_inputs())
# k = c tiny: (Im lam / k)^2 overflows, and no parabola point has this height
@example((OperatorParams(2, 6.877229847592619e-281), INF, HarmonicSet.all(), 1j, DEFAULT_TOL))
# k = 0, omega = 0: j = 0 misses (|Im| > slack) and j = 1 hits, since |mu| grows
@example((OperatorParams(2), INF, HarmonicSet.all(), -0.3 + 1.1j, 0.5))
# k = 0: j = 0 hits with Re lam = 1.5, where the old scan had already stopped
@example((OperatorParams(2), INF, HarmonicSet.all(), 1.5 + 1.5j, 0.5))
@settings(max_examples=400, deadline=None)
def test_classify_A_matches_scan(args):
    P, p, J, lam, tol = args
    on_union = union_reference(P, p, J, lam, tol)
    assert classify_A(P, p, J, ADomain.WHOLE_SPACE, lam, tol).in_spectrum == on_union
    region = region_section3(P, p)
    if region.k > 0:
        # on the ball the union separates approximate from residual spectrum
        shifted = lam + eigen_lambda(P.N, J.min_index)
        inside = in_region(region, shifted, tol)
        interior = inside and not on_parabola(region, shifted, tol)
        ball = classify_A(P, p, J, ADomain.UNIT_BALL, lam, tol)
        assert ball.in_approx == (inside and (on_union or not interior))


def test_large_offset_matches_scan():
    # |alpha - base| = 1e5: the scan walks ~1e5 degrees, the closed form two
    alpha = base_alpha(P5, 2) + 1e5
    start = time.perf_counter()
    v = decide(P5, 2, alpha, DomainKind.WHOLE_SPACE)
    assert time.perf_counter() - start < 0.05
    assert v.failing_modes == scan_whole_space(P5, 2, alpha, HarmonicSet.all(), DEFAULT_TOL)
    # and exactly on a critical exponent that far out
    j = 316
    alpha = critical_alphas(P5, 2, j)[1]
    assert decide(P5, 2, alpha, DomainKind.WHOLE_SPACE).failing_modes == [(j, Branch.PLUS)]


def test_large_base_small_gap_matches_scan():
    # D = 0 and base = 1 + 1e12: the rounding pad grows with base times the gap,
    # not with base^2, so the window stays a few degrees wide
    P = OperatorParams(5, 2e12, -((3 + 2e12) / 2) ** 2)
    alpha = base_alpha(P, 2) + 1.0
    start = time.perf_counter()
    v = decide(P, 2, alpha, DomainKind.WHOLE_SPACE)
    assert time.perf_counter() - start < 0.05
    assert v.failing_modes == scan_whole_space(P, 2, alpha, HarmonicSet.all(), DEFAULT_TOL)


def test_plateau_lists_every_mode():
    # D = -4e10 and alpha = base: all ~2e5 degrees with D + lambda_j <= 0 fail
    P = OperatorParams(5, 0, -4e10 - 2.25)
    alpha = base_alpha(P, 2)
    modes = decide(P, 2, alpha, DomainKind.WHOLE_SPACE).failing_modes
    assert len(modes) > 10**5
    assert modes == scan_whole_space(P, 2, alpha, HarmonicSet.all(), DEFAULT_TOL)


def test_unresolvable_windows_raise():
    # |alpha - base| = 1e20: the rounding pad spans ~10^5 degrees
    start = time.perf_counter()
    with pytest.raises(OutOfRange):
        decide(P5, 2, 1e20, DomainKind.WHOLE_SPACE)
    # a plateau at D = -1e16 would list ~10^8 failing modes
    with pytest.raises(OutOfRange):
        decide(OperatorParams(5, 0, -1e16), 2, base_alpha(P5, 2), DomainKind.WHOLE_SPACE)
    assert time.perf_counter() - start < 0.05
