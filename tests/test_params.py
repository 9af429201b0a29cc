"""Closed-form parameter arithmetic: frozen values and algebraic identities."""

import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rellich import (
    OperatorParams,
    OutOfRange,
    base_alpha,
    conjugate_exponent,
    critical_alphas,
    discriminant,
    eigen_lambda,
    gamma_p,
    indicial_roots,
    kelvin_transform,
    mu_shift,
    omega_p,
    parse_p,
    sqrt_nonneg_re,
)

from references import exact_critical_alphas

INF = math.inf

# p values including the endpoints, for deterministic sweeps
P_GRID = [1.0, 1.5, 2.0, 3.0, 7.5, INF]

exponents = st.one_of(
    st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
    st.just(INF),
    st.just(1.0),
)


def test_discriminant_values():
    assert discriminant(OperatorParams(5, 0, 0)) == 2.25
    assert discriminant(OperatorParams(2, 0, 0)) == 0.0
    assert discriminant(OperatorParams(5, 0, -3)) == -0.75


def test_dimension_guard():
    with pytest.raises(ValueError):
        OperatorParams(1, 0, 0)


def test_eigen_lambda_values():
    assert eigen_lambda(5, 0) == 0
    assert eigen_lambda(5, 1) == 4
    assert eigen_lambda(4, 2) == 8
    with pytest.raises(ValueError):
        eigen_lambda(5, -1)


def test_eigen_lambda_monotone():
    for N in range(2, 13):
        vals = [eigen_lambda(N, n) for n in range(0, 30)]
        assert all(b > a for a, b in zip(vals[1:], vals[2:]))


def test_indicial_roots_values():
    s1, s2 = indicial_roots(OperatorParams(5, 0, 0), 0)
    assert s1 == 0 and s2 == 3
    s1, s2 = indicial_roots(OperatorParams(5, 0, -3), 0)
    assert abs(s1 - (1.5 - 1j * math.sqrt(0.75))) < 1e-12
    assert abs(s2 - (1.5 + 1j * math.sqrt(0.75))) < 1e-12
    s1, s2 = indicial_roots(OperatorParams(5, 0, 0), 1)
    assert s1 == -1 and s2 == 4
    # D + lambda_1 = 0 exactly: equal roots, where the product form puts s1 an ulp above s2
    P = OperatorParams(2, 0.9821080655846943, -1.2411340631216277)
    assert discriminant(P) + eigen_lambda(2, 1) == 0.0
    s1, s2 = indicial_roots(P, 1)
    assert s1 == s2


def test_exponents_match_an_exact_reference():
    # 60-digit decimal arithmetic from the same float inputs, with |c| and |b| up to
    # 1e15, where base -/+ sqrt(D + lambda_n) cancels: each alpha_n^-+ lies within
    # 4 eps (|2 - N/p| + |Re s|) of the exact value, and so does 2 - N/p + Re s,
    # which makes alpha_n^- - 2 - Re s1 = -N/p to rounding
    eps = sys.float_info.epsilon
    rng = np.random.default_rng(24)
    for _ in range(5_000):
        N, n = int(rng.integers(2, 11)), int(rng.integers(0, 6))
        p = (1.0, 1.5, 2.0, 3.0, INF)[int(rng.integers(5))]
        c, b = (float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 15)) for _ in range(2))
        P = OperatorParams(N, c, b)
        roots = indicial_roots(P, n)
        assert roots[0].real <= roots[1].real, (P, n)
        shift = 2.0 - N / p
        for got, want, s in zip(critical_alphas(P, p, n), exact_critical_alphas(P, p, n), roots):
            slack = 4 * eps * (abs(shift) + abs(s.real))
            assert abs(Decimal(got) - want) <= slack, (P, p, n, got, want)
            assert abs(Decimal(shift + s.real) - want) <= slack, (P, p, n, s, want)


def test_base_alpha_values():
    P = OperatorParams(5, 0, 0)
    assert base_alpha(P, 2) == 1.0
    assert base_alpha(P, INF) == 3.5
    assert base_alpha(P, 1) == -1.5


def test_critical_alphas_values():
    P = OperatorParams(5, 0, 0)
    assert critical_alphas(P, 2, 0) == (-0.5, 2.5)
    assert critical_alphas(P, 2, 1) == (-1.5, 3.5)
    Pneg = OperatorParams(5, 0, -3)
    assert critical_alphas(Pneg, 2, 0) == (1.0, 1.0)
    # where D + lambda_n <= 0 both are base_alpha bit for bit, which the ball's
    # gate alpha - base <= tol relies on
    for P, n in ((Pneg, 0), (OperatorParams(3, 0.3, -9.0), 2),
                 (OperatorParams(2, 0.9821080655846943, -1.2411340631216277), 1)):
        for p in P_GRID:
            assert critical_alphas(P, p, n) == (base_alpha(P, p),) * 2


def test_gamma_p_values():
    assert gamma_p(5, 2, 0, 0) == 1.25
    assert gamma_p(10, 2, 0, 0) == 15.0
    assert gamma_p(5, 2, 1, 0) == 2.25


def test_omega_p_values():
    assert omega_p(5, 2, 0) == 1.25
    assert omega_p(5, 1, 0) == -10.0
    assert omega_p(5, INF, 3) == 0.0


def test_omega_p_finite_at_huge_p():
    # p**2 overflows beyond p = 1.34e154, p (N-2+c) beyond 1e8 at c = -2e300
    for p in (1e154, 1e200, 1e300, 1.7976931348623157e308):
        assert omega_p(5, p, 0) == pytest.approx(15.0 / p, rel=1e-15)
    assert omega_p(5, 1e10, -2e300) == pytest.approx(-5e-10 * 2e300, rel=1e-15)


@settings(max_examples=300, deadline=None)
@given(N=st.integers(2, 50), p=st.floats(1.0, 1e150), c=st.floats(-1e6, 1e6))
def test_omega_p_bits_unchanged_where_finite(N, p, c):
    assert omega_p(N, p, c) == (N / p**2) * (p * (N - 2 + c) - N)


def test_beyond_float_range_is_rejected():
    with pytest.raises(ValueError, match="within float range"):
        OperatorParams(10**400)
    with pytest.raises(OutOfRange, match="beyond float range"):
        eigen_lambda(5, 10**200)
    assert eigen_lambda(5, 10**150) == float(10**150 * (10**150 + 3))


def test_omega_p_maximizer():
    # omega_p peaks at p = 2N/(N-2+c) with value ((N-2+c)/2)^2
    for N, c in [(5, 0.0), (4, 1.0), (3, -0.5)]:
        pbar = 2 * N / (N - 2 + c)
        peak = ((N - 2 + c) / 2) ** 2
        assert abs(omega_p(N, pbar, c) - peak) < 1e-12
        for p in (pbar * 0.7, pbar * 1.4):
            assert omega_p(N, p, c) < peak


def test_mu_shift_values():
    assert mu_shift(OperatorParams(5, 0, 0), 0) == -10.0
    assert mu_shift(OperatorParams(5, 0, 0), 2) == 0.0
    assert mu_shift(OperatorParams(3, 1, 2), 1) == -1.0


def test_kelvin_values():
    tp, ta = kelvin_transform(OperatorParams(5, 0, 0), 2, 0)
    assert (tp.N, tp.c, tp.b, ta) == (5, 0, 0, 2.0)
    tp, ta = kelvin_transform(OperatorParams(5, 2, 1), 2, 1)
    assert (tp.N, tp.c, tp.b, ta) == (5, -2, 7, 1.0)


def test_sqrt_convention():
    assert sqrt_nonneg_re(9) == 3
    assert sqrt_nonneg_re(-4) == 2j
    assert sqrt_nonneg_re(0) == 0
    assert sqrt_nonneg_re(complex(-1, 0)).imag > 0  # Im >= 0 on the cut
    for z in (3 + 4j, -3 + 4j, -3 - 4j, -7.0, 2.0):
        w = sqrt_nonneg_re(z)
        assert abs(w * w - z) < 1e-12 * (1 + abs(z))
        assert w.real >= 0


def test_conjugate_exponent():
    assert conjugate_exponent(1.0) == INF
    assert conjugate_exponent(INF) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    assert abs(1 / conjugate_exponent(3.0) + 1 / 3.0 - 1.0) < 1e-15


def test_parse_p():
    assert parse_p("2") == 2.0
    assert parse_p("inf") == INF
    assert parse_p("3.5") == 3.5
    with pytest.raises(ValueError):
        parse_p("0.5")


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=12),
    p=exponents,
    alpha=st.floats(min_value=-6, max_value=6, allow_nan=False),
    c=st.floats(min_value=-4, max_value=4, allow_nan=False),
)
def test_gamma_two_form_identity(N, p, alpha, c):
    base = base_alpha(OperatorParams(N, c, 0), p)
    two_form = ((N - 2 + c) / 2) ** 2 - (base - alpha) ** 2
    assert abs(gamma_p(N, p, alpha, c) - two_form) < 1e-10


def test_identity_batteries_10k():
    # the gamma two-form and shift identities on 10^4 random draws
    rng = np.random.default_rng(101)
    draws = 0
    while draws < 10_000:
        N = int(rng.integers(2, 13))
        kind = int(rng.integers(0, 3))
        p = [1.0, INF, float(rng.uniform(1.0, 40.0))][kind]
        alpha = float(rng.uniform(-6, 6))
        c = float(rng.uniform(-4, 4))
        b = float(rng.uniform(-5, 5))
        P = OperatorParams(N, c, b)
        base = base_alpha(P, p)
        two_form = ((N - 2 + c) / 2) ** 2 - (base - alpha) ** 2
        g = gamma_p(N, p, alpha, c)
        assert abs(g - two_form) < 1e-10 * (1 + abs(g))
        lhs = mu_shift(P, alpha) + omega_p(N, p, c + 4 - 2 * alpha)
        assert abs(lhs - (b + g)) < 1e-10 * (1 + abs(b + g))
        draws += 1


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=12),
    p=exponents,
    alpha=st.floats(min_value=-6, max_value=6, allow_nan=False),
    c=st.floats(min_value=-4, max_value=4, allow_nan=False),
    b=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_shift_identity(N, p, alpha, c, b):
    # mu + omega_p(N, p, c + 4 - 2 alpha) = b + gamma_p(alpha, c)
    P = OperatorParams(N, c, b)
    lhs = mu_shift(P, alpha) + omega_p(N, p, c + 4 - 2 * alpha)
    rhs = b + gamma_p(N, p, alpha, c)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=12),
    c=st.floats(min_value=-4, max_value=4, allow_nan=False),
    b=st.floats(min_value=-5, max_value=5, allow_nan=False),
    n=st.integers(min_value=0, max_value=8),
)
def test_root_symmetry(N, c, b, n):
    P = OperatorParams(N, c, b)
    s1, s2 = indicial_roots(P, n)
    assert abs(s1 + s2 - (N - 2 + c)) < 1e-12 * (1 + abs(N - 2 + c))
    prod_target = -(b + eigen_lambda(N, n))
    assert abs(s1 * s2 - prod_target) < 1e-12 * (1 + abs(prod_target))


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=12),
    p=exponents,
    c=st.floats(min_value=-4, max_value=4, allow_nan=False),
    b=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_critical_alpha_symmetry_and_monotonicity(N, p, c, b):
    P = OperatorParams(N, c, b)
    base = base_alpha(P, p)
    prev_minus, prev_plus = critical_alphas(P, p, 0)
    assert abs(prev_minus + prev_plus - 2 * base) < 1e-10 * (1 + abs(base))
    for n in range(1, 9):
        am, ap = critical_alphas(P, p, n)
        assert am <= prev_minus + 1e-12
        assert ap >= prev_plus - 1e-12
        prev_minus, prev_plus = am, ap


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=12),
    p=exponents,
    alpha=st.floats(min_value=-6, max_value=6, allow_nan=False),
    c=st.floats(min_value=-4, max_value=4, allow_nan=False),
    b=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_kelvin_involution(N, p, alpha, c, b):
    P = OperatorParams(N, c, b)
    tp, ta = kelvin_transform(P, p, alpha)
    assert abs(discriminant(tp) - discriminant(P)) < 1e-12 * (1 + abs(discriminant(P)))
    back, ba = kelvin_transform(tp, p, ta)
    assert (back.N, back.c) == (N, c)
    assert abs(back.b - b) < 1e-12 * (1 + abs(b) + abs((N - 2) * c))
    assert abs(ba - alpha) < 1e-12 * (1 + abs(alpha))
