"""Quadrature engine against closed-form integrals and norms."""

import math

import numpy as np
import pytest

from rellich import NonFiniteIntegrand, integrate, lp_norm, quadrature

# ten closed-form integrals: (integrand, interval, exact value)
CLOSED_FORMS = [
    (lambda s: s**2, (0.0, 1.0), 1.0 / 3.0),
    (lambda s: s**7, (0.0, 2.0), 2.0**8 / 8.0),
    (lambda s: np.exp(s), (0.0, 1.0), math.e - 1.0),
    (lambda s: s * np.exp(-s), (0.0, 5.0), 1.0 - 6.0 * math.exp(-5.0)),
    (lambda s: np.sin(s), (0.0, math.pi), 2.0),
    (lambda s: 1.0 / (1.0 + s**2), (0.0, 1.0), math.pi / 4.0),
    (lambda s: np.sqrt(s), (0.0, 4.0), 16.0 / 3.0),
    (lambda s: s**2 * np.exp(2 * s), (0.0, 1.0),
     (math.exp(2) * (2 * 1 - 2 * 1 + 1) - 1) / 4.0),  # ((2s^2-2s+1)e^{2s}/4)
    (lambda s: np.cos(3 * s), (0.0, 2.0), math.sin(6.0) / 3.0),
    (lambda s: np.log(s), (1.0, 3.0), 3 * math.log(3.0) - 2.0),
]


@pytest.mark.parametrize("case", range(len(CLOSED_FORMS)))
def test_closed_forms(case):
    f, (a, b), exact = CLOSED_FORMS[case]
    val, _ = integrate(f, a, b)
    assert abs(val - exact) < 1e-9 * (1 + abs(exact)), (case, val, exact)


def test_lp_norm_examples():
    assert abs(lp_norm(lambda s: np.ones_like(s), (0, 1), 2)[0] - 1.0) < 1e-12
    assert abs(lp_norm(lambda s: s, (0, 1), 2)[0] - 1 / math.sqrt(3)) < 1e-12
    val = lp_norm(lambda s: (1 - s**2) ** 3, (-1, 1), math.inf)[0]
    assert abs(val - 1.0) < 1e-12


def test_lp_norm_kinked_absolute_value():
    # |s - 1/3| has a kink; adaptivity must still deliver ~1e-9
    val = lp_norm(lambda s: s - 1.0 / 3.0, (0, 1), 1)[0]
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    assert abs(val - exact) < 1e-9


def test_fractional_p():
    # ||s||_{L^{2.5}(0,1)} = (1/3.5)^{1/2.5}
    val = lp_norm(lambda s: s, (0, 1), 2.5)[0]
    assert abs(val - (1 / 3.5) ** (1 / 2.5)) < 1e-10


def test_non_finite_detection():
    with pytest.raises(NonFiniteIntegrand), np.errstate(invalid="ignore"):
        integrate(lambda s: np.log(s - 0.5), 0, 1)  # nan left of the kink
    with pytest.raises(NonFiniteIntegrand):
        lp_norm(lambda s: np.where(s > 0.5, np.nan, 1.0), (0, 1), 2)[0]


def test_sup_norm_refinement(monkeypatch):
    # max of sin on [0, pi] is 1 at pi/2, strictly between grid points
    monkeypatch.setattr(quadrature, "SUP_GRID", 997)
    assert abs(lp_norm(np.sin, (0, math.pi), math.inf)[0] - 1.0) < 1e-12


def test_sup_norm_negative_peak():
    assert abs(lp_norm(lambda s: -np.exp(-((s - 2.0) ** 2)), (0, 4), math.inf)[0] - 1.0) < 1e-12


def test_empty_interval():
    assert integrate(lambda s: s, 1.0, 1.0) == (0.0, 0.0)
    assert lp_norm(lambda s: s, (2.0, 1.0), 2)[0] == 0.0


def test_scalar_callable_fallback():
    # non-vectorized integrands are wrapped transparently
    def scalar_only(s):
        return math.exp(float(s))

    val, _ = integrate(scalar_only, 0, 1)
    assert abs(val - (math.e - 1)) < 1e-9


def _counted(f, tally):
    def g(s):
        tally.append(np.size(s))
        return f(s)

    return g


def test_cancelling_integral_stops_early():
    # the sum over a period rounds to noise; the stop is relative to the
    # integral of |sin| = 4, so the 1- and 2-panel passes (64 + 128) decide
    tally = []
    val, err = integrate(_counted(np.sin, tally), 0.0, 2.0 * math.pi)
    assert abs(val) < 1e-14 and err <= 1e-10 * 4.0
    assert sum(tally) == 192


def test_kink_split_point_count():
    # |s - 1/3|: one sign change, found between Gauss nodes and split at
    tally = []
    val, err = lp_norm(_counted(lambda s: s - 1.0 / 3.0, tally), (0, 1), 1)
    assert abs(val - 5.0 / 18.0) < 1e-15 and err <= 1e-10 * val
    assert sum(tally) < 1000


def test_sup_polishes_every_local_maximum(monkeypatch):
    # two bumps, heights 1 and 1.2; with 20 grid intervals the grid hits the
    # lower peak's centre 0.25 and misses the higher one at 0.7125, so the
    # grid argmax sits on the lower peak
    def two_peaks(s):
        t1 = np.clip((s - 0.25) / 0.1, -1.0, 1.0)
        t2 = np.clip((s - 0.7125) / 0.03, -1.0, 1.0)
        return (1 - t1**2) ** 3 + 1.2 * (1 - t2**2) ** 3

    monkeypatch.setattr(quadrature, "SUP_GRID", 20)
    grid = np.linspace(0, 1, 21)
    assert np.argmax(two_peaks(grid)) == 5
    val, err = lp_norm(two_peaks, (0, 1), math.inf)
    assert 0.0 < err <= 1e-10
    assert abs(val - 1.2) <= err


def test_sup_error_estimate_of_a_boundary_maximum():
    # |f| is largest at the end b: the estimate is honest, not zero
    val, err = lp_norm(lambda s: s, (0, 1), math.inf)
    assert val == 1.0 and 0.0 < err < 1e-8


def _knot_profiles():
    from rellich import bump
    from rellich.profiles import reparametrised

    c12 = [bump(1.0, 3.0), bump(2.0, 6.0)]
    return c12 + [reparametrised(c12[0], scale=2.5), reparametrised(c12[1], shift=-1.5),
                  reparametrised(bump(0.25, 0.5), scale=3.0, shift=0.7)]


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
def test_knot_path_agrees_with_generic_path(p):
    # the same integrand with its polynomial shape (exact split points and
    # critical points) and without it (bracketing, grid polish)
    rng = np.random.default_rng(3)
    for v in _knot_profiles():
        for _ in range(6):
            beta, lam = float(rng.uniform(-4, 4)), float(rng.uniform(-2, 6))
            for f, shape in (v.integrand(1.0, beta, -lam), v.integrand(a0=1.0),
                             v.integrand((0.0, 0.1), beta, power=1.0)):
                norm, err = lp_norm(f, v.support, p, shape=shape)
                generic, _ = lp_norm(f, v.support, p)
                assert abs(norm - generic) <= 1e-10 * generic, (v.label, beta, lam)
                assert err <= 1e-10 * norm, (v.label, beta, lam, err)


def test_shape_is_built_only_when_needed():
    from rellich import plateau_profile

    calls = []

    def counted(shape):
        def build():
            calls.append(1)
            return shape()

        return build

    # a smooth plateau integrand: the 1- and 2-panel passes agree at once
    f, shape = plateau_profile(100.0).integrand(1.0, -2.0, -1.25)
    lp_norm(f, (-100.0, 100.0), 2, shape=counted(shape))
    assert calls == []
    # the sup always takes the critical points from the shape, once
    lp_norm(f, (-100.0, 100.0), math.inf, shape=counted(shape))
    assert calls == [1]


def test_knots_split_two_sign_changes_between_nodes():
    # a cubic with one sign change at -1/2 and two between a pair of
    # consecutive nodes of the 2-panel pass, where sampling cannot see them;
    # the knot path splits at all three, so each of the four pieces
    # converges on its first two passes
    from numpy.polynomial import Polynomial

    from rellich.profiles import polynomial_profile

    x, _ = np.polynomial.legendre.leggauss(64)
    nodes = np.concatenate(((x - 1) / 2, (x + 1) / 2))
    i = np.searchsorted(nodes, 0.3)
    mid, gap = 0.5 * (nodes[i - 1] + nodes[i]), nodes[i] - nodes[i - 1]
    roots = [-0.5, mid - 0.25 * gap, mid + 0.25 * gap]
    poly = Polynomial.fromroots(roots)
    f, shape = polynomial_profile(poly.coef, (-1.0, 1.0)).integrand(a0=1.0)
    tally = []
    val, err = lp_norm(_counted(f, tally), (-1.0, 1.0), 1, shape=shape)
    edges = [-1.0, *roots, 1.0]
    exact = sum(abs(poly.integ()(hi) - poly.integ()(lo)) for lo, hi in zip(edges[:-1], edges[1:]))
    assert abs(val - exact) <= 1e-14 * exact and err <= 1e-10 * val
    assert sum(tally) == 192 * 5
