"""Quadrature engine against closed-form integrals and norms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rellich import (NonFiniteIntegrand, OutOfRange, PreconditionViolated, integrate, lp_norm,
                     quadrature)

from references import (exact_lp_integral, log_squeezed, reference_lp_integral, reference_roots,
                        reference_sup)

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
    val, err = integrate(f, a, b)
    assert abs(val - exact) < 1e-9 * (1 + abs(exact)), (case, val, exact)
    assert abs(val - exact) <= err, (case, val, exact, err)


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


@pytest.mark.parametrize("p", [1.5, math.inf])
def test_non_finite_names_its_rows(p):
    # rows 1 and 3 of four are nan right of 0.5, in the first pass
    def f(s):
        out = np.stack([s, s, np.cos(s), s])
        out[1::2, s > 0.5] = np.nan
        return out

    with pytest.raises(NonFiniteIntegrand) as err:
        lp_norm(f, (0, 1), p)
    assert err.value.rows == (1, 3)
    with pytest.raises(NonFiniteIntegrand) as err:
        lp_norm(lambda s: np.where(s > 0.5, np.nan, 1.0), (0, 1), p)
    assert err.value.rows == (0,)


def test_sup_norm_refinement():
    # max of sin on [0, pi] is 1 at pi/2
    assert abs(lp_norm(np.sin, (0, math.pi), math.inf)[0] - 1.0) < 1e-12


def test_sup_norm_negative_peak():
    assert abs(lp_norm(lambda s: -np.exp(-((s - 2.0) ** 2)), (0, 4), math.inf)[0] - 1.0) < 1e-12


def test_empty_interval():
    assert integrate(lambda s: s, 1.0, 1.0) == (0.0, 0.0)
    assert lp_norm(lambda s: s, (2.0, 1.0), 2)[0] == 0.0


def test_integrand_of_another_shape_is_rejected():
    # an integrand maps an array to an array of its shape; a scalar result
    # is named with both shapes, not wrapped.  lp_norm also takes a stack of
    # such arrays, rows first; integrate does not, and neither takes the
    # rows last or a stack of stacks
    shapes = r"got shape \(\) for nodes of shape \(\d+,\)"
    norms = (lambda f: lp_norm(f, (0, 1), 2), lambda f: lp_norm(f, (0, 1), math.inf))
    for norm in (lambda f: integrate(f, 0, 1), *norms):
        with pytest.raises(PreconditionViolated, match=shapes):
            norm(lambda s: 1.0)
    with pytest.raises(PreconditionViolated, match=r"got shape \(2, 64\) for nodes of shape \(64,"):
        integrate(lambda s: np.stack([s, s]), 0, 1)
    for norm in norms:
        with pytest.raises(PreconditionViolated, match=r"got shape \(\d+, 2\) for nodes"):
            norm(lambda s: np.stack([s, s], axis=-1))
        with pytest.raises(PreconditionViolated, match=r"got shape \(2, 1, \d+\) for nodes"):
            norm(lambda s: np.stack([s, s])[:, None])


@pytest.mark.parametrize("call, error, match", [
    (lambda f: lp_norm(f, (0.0, 1.0), math.nan), ValueError, "p must lie in"),
    (lambda f: lp_norm(f, (0.0, math.nan), 2), PreconditionViolated, "upper end of the support"),
    (lambda f: integrate(f, 0.0, math.nan), PreconditionViolated, "upper limit"),
    (lambda f: integrate(f, math.nan, 1.0), PreconditionViolated, "lower limit"),
    (lambda f: integrate(f, 0.0, math.inf), PreconditionViolated, "upper limit"),
    (lambda f: lp_norm(f, (-math.inf, 1.0), math.inf), PreconditionViolated,
     "lower end of the support"),
], ids=["nan-p", "nan-end", "nan-upper", "nan-lower", "inf-upper", "inf-end"])
def test_non_finite_limit_or_p_is_named_before_sampling(call, error, match):
    # a NaN p is the p rule's error, and a limit that is not finite is named,
    # not charged to the integrand, before f is called or a warning is raised
    tally = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call(_counted(np.sin, tally))
    assert tally == []


_ROW = st.floats(-4.0, 4.0, allow_subnormal=False)
_POWER = st.sampled_from([0.0, -2.5, -1.0, -0.4, 0.5, 2.0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lo=st.floats(0.1, 5.0), width=st.floats(0.2, 8.0),
       rows=st.lists(st.tuples(_ROW, _ROW, _ROW, _POWER), min_size=2, max_size=5))
def test_a_stack_gives_each_row_its_own_norm(lo, width, rows):
    # every row of a stack gets exactly, value and err alike, what it gets
    # alone: its own first pass, split points and sup candidates
    from rellich import bump

    v = bump(lo, lo + width)
    for p in (1.0, 1.5, 2.0, 3.0, 4.0, math.inf):
        alone = [lp_norm(v.integrand(row), v.support, p) for row in rows]
        assert lp_norm(v.integrand(*rows), v.support, p) == alone, (p, rows)


@pytest.mark.parametrize("p", [1.0, 1.5, math.inf])
def test_a_stack_of_rows_that_halve_gives_each_row_its_own_norm(p):
    # rows that need halving, one beyond the cap of _MAX_PIECES pieces, after
    # a smooth row that does not split at finite p: each row keeps its own
    # budget and its own samples in the shared rounds
    def f(s):
        return np.stack((2.0 + np.cos(s), np.sin(40.0 * s) * np.exp(-s),
                         np.sin(2000.0 * s) * (1.0 + 0.1 * s), s * s - 1.0, np.cos(300.0 * s)))

    stack = lp_norm(f, (0.0, 3.0), p)
    assert stack == [lp_norm(lambda s, i=i: f(s)[i], (0.0, 3.0), p) for i in range(5)], p


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
@pytest.mark.parametrize("N, c, b, n, branch", [(5, 0.0, 0.0, 0, "minus"),
                                                (3, 0.0, -2.0, 0, "minus"),
                                                (6, 1.3, 0.4, 1, "plus")])
def test_a_stack_of_several_degrees_gives_each_row_its_own_norm(p, N, c, b, n, branch):
    # a critical-family stack whose rows resolve at different degrees (the
    # polynomial numerators and denominator, the weighted denominators):
    # located together, one eigvals call per degree, each row still gets
    # exactly what it gets alone, in the measure dx/x as in plain dx
    from rellich import OperatorParams
    from rellich.radial import CRITICAL_MEASURE, PHI_SUPPORT, counterexample_drift, critical_rows
    from rellich.verify import EPS_LADDER

    params = OperatorParams(N, c, b)
    f = critical_rows(counterexample_drift(params, n, branch), min(0.0, b), EPS_LADDER, 1.5)
    x = quadrature._rule(*PHI_SUPPORT, quadrature._PLAIN)[0]
    assert len(set(quadrature._resolve(None, *PHI_SUPPORT, f(x), range(9)).degree.tolist())) > 1
    for weight in (CRITICAL_MEASURE, None):
        stack = lp_norm(f, PHI_SUPPORT, p, weight)
        assert stack == [lp_norm(lambda s, i=i: f(s)[i], PHI_SUPPORT, p, weight)
                         for i in range(9)], (p, weight)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
def test_a_critical_stack_takes_one_eigvals_call_per_degree(monkeypatch, p):
    # the rows that are located share one eigvals call per degree of their
    # series, and the stack is sampled twice, as row by row: the first pass,
    # then the graded pieces or the sup candidates.  At finite p the split
    # rows are the numerators, polynomials of phi's degree 6 in the measure
    # dx/x, so their colleague matrices are at most 6 x 6
    from rellich import OperatorParams
    from rellich.radial import CRITICAL_MEASURE, PHI_SUPPORT, counterexample_drift, critical_rows
    from rellich.verify import EPS_LADDER

    f = critical_rows(counterexample_drift(OperatorParams(5, 0, 0), 0, "minus"), 0.0,
                      EPS_LADDER, 1.0)
    calls, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m.shape) or eigvals(m))
    tally = []
    lp_norm(_counted(f, tally), PHI_SUPPORT, p, CRITICAL_MEASURE)
    sizes = [d for _, d, _ in calls]
    assert len(tally) == 2 and len(set(sizes)) == len(sizes)
    located = sum(k for k, _, _ in calls)
    assert located >= 4 and len(calls) < located
    if p < math.inf:
        assert max(sizes) <= 6, calls
    # row by row, the same rows take one call each
    calls.clear()
    for i in range(9):
        lp_norm(lambda s, i=i: f(s)[i], PHI_SUPPORT, p, CRITICAL_MEASURE)
    assert len(calls) == located


def _picking_spy(f, seen):
    """f, a stack that can pick, recording for each row r in seen[r] the sorted points
    of each call that evaluates it: every point of a call of f, its own entries'
    points in a call of f.pick."""
    def g(s):
        for row in seen:
            row.append(np.sort(np.ravel(s)))
        return f(s)

    def pick(x, rows):
        for r in np.unique(rows).tolist():
            seen[r].append(np.sort(x[rows == r].ravel()))
        return f.pick(x, rows)

    g.pick = pick
    return g


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
@pytest.mark.parametrize("N, c, b, n, branch", [(5, 0.0, 0.0, 0, "minus"),
                                                (3, 0.0, -2.0, 0, "minus")])
def test_a_stack_that_picks_samples_each_row_at_its_own_pieces(p, N, c, b, n, branch):
    # a critical stack, with and without weighted rows, in dx/x and in dx: its
    # pairs are bit for bit those of the same stack without the hook, and each
    # row is evaluated at exactly the points that its one-row run samples
    from rellich import OperatorParams
    from rellich.radial import CRITICAL_MEASURE, PHI_SUPPORT, counterexample_drift, critical_rows
    from rellich.verify import EPS_LADDER

    params = OperatorParams(N, c, b)
    g = counterexample_drift(params, n, branch)
    for kappa in (None, 1.5):
        f = critical_rows(g, min(0.0, b), EPS_LADDER, kappa)
        k = len(f(np.array(PHI_SUPPORT)))
        for weight in (CRITICAL_MEASURE, None):
            seen = [[] for _ in range(k)]
            stack = lp_norm(_picking_spy(f, seen), PHI_SUPPORT, p, weight)
            assert stack == lp_norm(lambda s: f(s), PHI_SUPPORT, p, weight), (p, kappa, weight)
            for i in range(k):
                alone = []
                assert lp_norm(_spy(lambda s, i=i: f(s)[i], alone), PHI_SUPPORT, p,
                               weight) == stack[i]
                assert len(seen[i]) == len(alone), (p, kappa, weight, i)
                assert all(map(np.array_equal, seen[i], alone)), (p, kappa, weight, i)
            assert max(map(len, seen)) > 1  # some row was picked


def test_a_stack_that_picks_names_the_rows_non_finite_at_their_own_pieces():
    # at kappa = -200 the weighted row of eps = 0.025, row 8, overflows where
    # x < 0.419 and no other row does.  Through the hook, as without it, only
    # the rows whose own entries are not finite are named: row 8 on a piece in
    # (0.26, 0.3), not on one in (0.45, 0.5), nor row 2 on a piece in (0.26, 0.3)
    from rellich.radial import CRITICAL_MEASURE, PHI_SUPPORT, critical_rows
    from rellich.verify import EPS_LADDER

    f = critical_rows(1.0, 0.0, EPS_LADDER, -200.0)
    x = quadrature._rule(np.array([[0.26], [0.45], [0.26]]), np.array([[0.3], [0.5], [0.3]]),
                         quadrature._GRADED)[0]
    every = f(x.ravel()).reshape(9, *x.shape)
    assert not np.isfinite(every[8, 0]).all() and np.isfinite(every[:8]).all()
    for h in (f, lambda s: f(s)):
        S = quadrature._sampler(h, 9)
        with pytest.raises(NonFiniteIntegrand) as err:
            S(x, np.array([8, 8, 2]))
        assert err.value.rows == (8,)
        assert np.array_equal(S(x[1:], np.array([8, 2])), every[[8, 2], [1, 2]])
    with pytest.raises(NonFiniteIntegrand) as err:
        lp_norm(f, PHI_SUPPORT, 1.5, CRITICAL_MEASURE)
    assert err.value.rows == (8,)
    bad = lambda s: f(s)  # noqa: E731
    bad.pick = lambda x, rows: f.pick(x, rows)[:, :1]
    with pytest.raises(PreconditionViolated, match="pick"):
        quadrature._sampler(bad, 9)(x, np.array([0, 1, 2]))


def _weighted_cases():
    """The weight (1 + s^2) / s on (0.5, 3), and a callable and a stack: rows with sign
    changes and rows without."""
    from rellich import bump

    def one(s):
        return (s - 1.1) * (s - 2.3) * np.exp(-s)

    stack = bump(0.5, 3.0).integrand((1.0, 0.5, -2.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0, -1.0))
    return (lambda s: (1.0 + s * s) / s), [one, stack]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_a_weight_gives_the_norm_of_f_times_its_pth_root(p):
    # ||f||_{L^p(w dx)} = ||f w^(1/p)||_{L^p(dx)}: the weight multiplies the
    # Gauss weights of the first pass and of the graded pass alike
    weight, cases = _weighted_cases()

    def scaled(f):
        return lambda s: f(s) * weight(s) ** (1.0 / p)

    for f in cases:
        got = lp_norm(f, (0.5, 3.0), p, weight)
        want = lp_norm(scaled(f), (0.5, 3.0), p)
        for (norm, _), (want_norm, _) in zip(*((got, want) if isinstance(got, list)
                                               else ([got], [want]))):
            assert abs(norm - want_norm) <= 1e-14 * want_norm, (f, p, norm, want_norm)


def test_the_sup_ignores_the_weight():
    weight, cases = _weighted_cases()
    for f in cases:
        assert lp_norm(f, (0.5, 3.0), math.inf, weight) == lp_norm(f, (0.5, 3.0), math.inf)


@pytest.mark.parametrize("weight", [
    lambda s: 0.0 * s,
    lambda s: 1.0 - s,
    lambda s: np.where(s > 1.0, np.nan, 1.0),
    lambda s: np.where(s > 1.0, np.inf, 1.0),
    lambda s: np.ones(3),
], ids=["zero", "negative", "nan", "inf", "shape"])
def test_a_weight_must_be_finite_and_positive_at_the_nodes(weight):
    for f in (lambda s: s - 0.5, lambda s: np.stack((s - 0.5, s, s * s))):
        for p in (1.0, 2.5):
            with pytest.raises(PreconditionViolated, match="weight"):
                lp_norm(f, (0.0, 2.0), p, weight)
        lp_norm(f, (0.0, 2.0), math.inf, weight)  # the sup does not read it


@pytest.mark.parametrize("f", [[lambda s: s], (lambda s: s,), None], ids=["list", "tuple", "none"])
def test_an_integrand_that_is_not_callable_is_refused(f):
    # a sequence of callables is not a stack: both forms of an integrand are callables
    for p in (1.5, math.inf):
        with pytest.raises(PreconditionViolated, match="callable of one row.*stack of rows"):
            lp_norm(f, (0.0, 1.0), p)
    with pytest.raises(PreconditionViolated, match="callable of one row"):
        integrate(f, 0.0, 1.0)


@pytest.mark.parametrize("p", [1.0, 1.5, math.inf])
def test_a_stack_of_no_rows_gives_no_pairs(p):
    assert lp_norm(lambda s: np.empty((0, *np.shape(s))), (0.0, 1.0), p) == []


def _sorting(f, k):
    """The stack f of k rows, with a pick that hands f's sampler each row's entries
    together, rows ascending."""
    S = quadrature._sampler(f, k)

    def g(s):
        return f(s)

    def pick(x, rows):
        order = np.argsort(rows, kind="stable")
        v = np.empty(x.shape)
        v[order] = S(x[order], rows[order])
        return v

    g.pick = pick
    return g


def test_the_sup_needs_no_order_of_its_candidates():
    # the sup samples every row's ends and candidates in one call, unsorted:
    # each pair is bit for bit the one of a sampler that sees each row's
    # entries together, for a block of a corpus, a plain stack and a critical
    # stack that picks
    from rellich import OperatorParams, bump
    from rellich.radial import (CRITICAL_MEASURE, PHI_SUPPORT, _block_stack,
                                counterexample_drift, critical_rows)

    v = bump(0.5, 3.0)
    rows = (1.0, 0.5, -2.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0, -1.0)
    block = _block_stack([(v, rows, v.support), (bump(1.0, 4.0), rows[:1], (1.0, 4.0)),
                          (v, rows[1:], (1.0, 2.5))])
    g = counterexample_drift(OperatorParams(5), 0, "minus")
    for f, support, weight in ((block, (-1.0, 1.0), None),
                               (v.integrand(*rows), v.support, None),
                               (critical_rows(g, 0.0, (0.2, 0.1, 0.05), 1.5), PHI_SUPPORT,
                                CRITICAL_MEASURE)):
        k = len(f(np.array(support)))
        got = lp_norm(f, support, math.inf, weight)
        assert got == lp_norm(_sorting(f, k), support, math.inf, weight) and len(got) == k


def test_a_stack_on_an_empty_support_gives_zero_pairs():
    from rellich import bump

    f = bump(1.0, 3.0).integrand((1.0, 2.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0, -1.0))
    for p in (1.0, 2.5, math.inf):
        assert lp_norm(f, (3.0, 1.0), p) == [(0.0, 0.0)] * 3


def test_one_layout_per_panel_count():
    # many supports share three cached layouts on [-1, 1], one per pass:
    # the plain 1-panel Gauss-Legendre rule (the sup's first pass), the
    # finite-p first pass (plain 1-panel, then the 2-panel rule graded by
    # t = 3u^2 - 2u^3) and the graded pass over split pieces (graded 1- and
    # 2-panel); each part, the plain 2-panel rule too, is checked below
    quadrature._layout.cache_clear()
    for i in range(40):
        a = 0.1 * i
        for p in (1.0, 2.0, math.inf):
            lp_norm(lambda s: np.sin(7.0 * s) * np.exp(-s), (a, a + 1.0 + 0.05 * i), p)
    info = quadrature._layout.cache_info()
    assert info.misses == info.currsize == 3 and info.hits > 100
    x, w = np.polynomial.legendre.leggauss(quadrature.NODES)
    parts = {}
    for k in (1, 2):
        edges = np.linspace(-1.0, 1.0, k + 1)
        panels = list(zip(edges[:-1], edges[1:]))
        want_nodes = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * x for lo, hi in panels])
        want_weights = np.concatenate([0.5 * (hi - lo) * w for lo, hi in panels])
        u = 0.5 * (want_nodes + 1.0)
        for graded, nodes, weights in ((False, want_nodes, want_weights),
                                       (True, 2.0 * (3.0 * u**2 - 2.0 * u**3) - 1.0,
                                        6.0 * u * (1.0 - u) * want_weights)):
            got_nodes, got_weights = quadrature._layout(((k, graded),))
            assert np.max(np.abs(got_nodes - nodes)) <= 1e-15, (k, graded)
            assert np.max(np.abs(got_weights - weights)) <= 1e-15, (k, graded)
            parts[k, graded] = got_nodes, got_weights
    for layout in (quadrature._PLAIN, quadrature._FIRST, quadrature._GRADED):
        for got, want in zip(quadrature._layout(layout), zip(*(parts[q] for q in layout))):
            assert np.array_equal(got, np.concatenate(want)), layout


def _counted(f, tally):
    def g(s):
        tally.append(np.size(s))
        return f(s)

    return g


def test_cancelling_integral_stops_early():
    # the sum over a period rounds to noise, but the series of sin on the
    # period resolves on its first 64 nodes, so nothing else is sampled
    tally = []
    val, err = integrate(_counted(np.sin, tally), 0.0, 2.0 * math.pi)
    assert abs(val) < 1e-14 and err <= 1e-10 * 4.0
    assert sum(tally) == 64


def test_integral_to_each_upper_limit():
    # one call with an array of upper limits: the antiderivative of each
    # piece, against the scalar calls and the closed forms; a limit at most
    # a gives 0
    xs = np.linspace(-0.5, 7.0, 41)
    val, err = integrate(np.sin, 0.0, xs)
    assert val.shape == xs.shape and err <= 1e-13
    assert np.all(val[xs <= 0.0] == 0.0)
    assert np.max(np.abs(val - (1.0 - np.cos(np.maximum(xs, 0.0))))) <= 1e-14
    scalar = np.array([integrate(np.sin, 0.0, x)[0] for x in xs])
    assert np.max(np.abs(val - scalar)) <= 1e-14
    val, err = integrate(np.exp, -1.0, xs.reshape(1, -1))
    exact = np.exp(np.maximum(xs, -1.0)) - math.exp(-1.0)
    assert val.shape == (1, 41) and np.max(np.abs(val[0] - exact)) <= 1e-14 * exact[-1]
    assert err <= 1e-13 * exact[-1]


@pytest.mark.parametrize("d", [0.003, 0.01, 0.03, 0.1])
def test_a_row_that_vanishes_at_the_ends_takes_the_graded_sum(d):
    # f = q^3 + d q, q = 1 - t^2, has no sign change, but |f|^1.5 behaves
    # like q^1.5 at both ends: the plain 1- and 2-panel sums agree to
    # REL_TOL and are both off by up to 1e-11, while the graded 2-panel sum
    # is exact to rounding.  The reference is QUADPACK's rule for the
    # algebraic end weight (1 + t)^1.5 (1 - t)^1.5, times (q^2 + d)^1.5
    from scipy import integrate as si

    val, err = lp_norm(lambda t: (1 - t * t) ** 3 + d * (1 - t * t), (-1.0, 1.0), 1.5)
    ref = si.quad(lambda t: ((1 - t * t) ** 2 + d) ** 1.5, -1.0, 1.0, weight="alg",
                  wvar=(1.5, 1.5), epsabs=0.0, epsrel=2e-14)[0] ** (1 / 1.5)
    assert abs(val - ref) <= 1e-14 * ref and err <= 1e-10 * val, (val, ref, err)


def test_kink_split_point_count():
    # |s - 1/3|: one sign change, located from the 1-panel samples and split at
    tally = []
    val, err = lp_norm(_counted(lambda s: s - 1.0 / 3.0, tally), (0, 1), 1)
    assert abs(val - 5.0 / 18.0) < 1e-15 and err <= 1e-10 * val
    assert sum(tally) < 1000


def test_sup_polishes_every_local_maximum():
    # two bumps, heights 1 and 1.2, glued to zero with C^2 joins: the series
    # of the whole support is not resolved, so it is halved, and the
    # critical points of both peaks are found; a 20-interval grid would hit
    # the lower peak's centre 0.25 and miss the higher one at 0.7125
    def two_peaks(s):
        t1 = np.clip((s - 0.25) / 0.1, -1.0, 1.0)
        t2 = np.clip((s - 0.7125) / 0.03, -1.0, 1.0)
        return (1 - t1**2) ** 3 + 1.2 * (1 - t2**2) ** 3

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

    # c12's two bumps, then bumps on the supports of c12[0] scaled by 2.5,
    # of c12[1] shifted by -1.5, and of [0.25, 0.5] scaled by 3 and shifted by 0.7
    return [bump(1.0, 3.0), bump(2.0, 6.0), bump(2.5, 7.5), bump(0.5, 4.5), bump(1.45, 2.2)]


def _polynomial(v, a2=0.0, a1=0.0, a0=0.0, power=0):
    """s^power (a2 v'' + a1 v' + a0 v) as a numpy Polynomial, v a bump.

    A coefficient is a number or a tuple of power-series coefficients in s.
    The polynomial keeps the support as its domain, so it is stored in the
    variable t of the bump (1 - t^2)^3, which maps the support onto [-1, 1],
    and stays well conditioned.
    """
    from numpy.polynomial import Polynomial

    lo, hi = v.support
    psi = Polynomial((Polynomial([1.0, 0.0, -1.0]) ** 3).coef, domain=[lo, hi])
    s = Polynomial([0.5 * (lo + hi), 0.5 * (hi - lo)], domain=[lo, hi])

    def series(a):
        return sum((c * s**k for k, c in enumerate(a if isinstance(a, tuple) else (a,))),
                   0 * s)

    return s**power * (series(a2) * psi.deriv(2) + series(a1) * psi.deriv()
                       + series(a0) * psi)


def _tolerance(p):
    """Relative accuracy asked of a norm: rounding, for every p.  At p = 1.5,
    |f|^p has a |s - r|^1.5 singularity at the ends of the pieces next to
    each split point r; the graded rule turns it into 6 u^4 (1 - u) (3 - 2u)^1.5,
    which its 64 nodes integrate to rounding."""
    return 1e-12


def _reference_norm(f, support, p, poly=None):
    """||f||_p from an independent route: the exact polynomial integral for
    integer p (when f is the polynomial poly), scipy quad between brentq
    roots for other finite p, a zoomed dense grid for p = inf."""
    if math.isinf(p):
        return reference_sup(f, *support)
    if poly is not None and float(p).is_integer():
        return exact_lp_integral(poly, *support, p) ** (1 / p)
    return reference_lp_integral(f, *support, p) ** (1 / p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_knot_path_agrees_with_generic_path(p):
    # the norm with located split points and critical points against the
    # independent references of _reference_norm, on the polynomial
    # integrands of the reductions
    rng = np.random.default_rng(3)
    for v in _knot_profiles():
        for _ in range(6):
            beta, lam = float(rng.uniform(-4, 4)), float(rng.uniform(-2, 6))

            def top(s, v=v, beta=beta):
                # s (0.1 s v'' + beta v'): the shape of counterexample_ratio's numerator
                _, v1, v2 = v.jet(s)
                return (beta * v1 + 0.1 * s * v2) * s

            for f, poly in ((v.integrand((1.0, beta, -lam)), _polynomial(v, 1.0, beta, -lam)),
                            (v.integrand((0.0, 0.0, 1.0)), _polynomial(v, a0=1.0)),
                            (top, _polynomial(v, (0.0, 0.1), beta, power=1))):
                norm, err = lp_norm(f, v.support, p)
                ref = _reference_norm(f, v.support, p, poly)
                assert abs(norm - ref) <= _tolerance(p) * ref, (v.label, beta, lam, norm, ref)
                assert err <= 1e-10 * norm, (v.label, beta, lam, err)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_log_squeezed_and_weighted_norms_match_references(p):
    # the integrands that are not polynomials in s: the critical family
    # phi(e^{-eps s}) with and without the weights s^-kappa, and weighted
    # bumps; every one is located from its own samples
    from rellich import bump

    cases = []
    for eps in (0.2, 0.025):
        v = log_squeezed(bump(0.25, 0.5), eps)
        cases += [(v, v.integrand((1.0, -1.3, -0.4))), (v, v.integrand((1.0, 2.1, 0.0))),
                  (v, v.integrand((0.0, 0.0, 1.0, -1.0))), (v, v.integrand((0.0, 0.0, 1.0, -2.5)))]
    for v in (bump(1.0, 3.0), bump(0.2, 4.0)):
        cases += [(v, v.integrand((0.0, 0.0, 1.0, power))) for power in (-1.5, -1 / 3, 0.5)]
        cases.append((v, v.integrand((1.0, 0.7, -1.1, -1.0))))
    # 63 sign changes on the support of bump(0, 1), found on halved pieces
    cases.append((bump(0.0, 1.0), lambda s: np.sin(200.0 * s) * (1.0 + 0.1 * s)))
    for v, f in cases:
        norm, err = lp_norm(f, v.support, p)
        ref = _reference_norm(f, v.support, p)
        assert abs(norm - ref) <= _tolerance(p) * ref, (v.label, norm, ref)
        assert err <= 1e-10 * norm, (v.label, err)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_jump_and_kink_closed_forms(p):
    # on [0, 1]: a jump from -1 to 2 at 1/3, narrowed down to a tiny piece
    # by halving; |s - 1/3|, whose kink is a root; and the tent
    # 1 - |s - 1/2|, whose kink is no root but the first halving point
    def jump(s):
        return np.where(s < 1.0 / 3.0, -1.0, 2.0)

    def tent(s):
        return 1.0 - np.abs(s - 0.5)

    if math.isinf(p):
        exact_jump, exact_kink, exact_tent = 2.0, 2.0 / 3.0, 1.0
    else:
        exact_jump = (1.0 / 3.0 + 2.0**p * 2.0 / 3.0) ** (1 / p)
        exact_kink = (((1 / 3) ** (p + 1) + (2 / 3) ** (p + 1)) / (p + 1)) ** (1 / p)
        exact_tent = (2.0 * (1.0 - 0.5 ** (p + 1)) / (p + 1)) ** (1 / p)
    for f, exact in ((jump, exact_jump), (lambda s: s - 1.0 / 3.0, exact_kink),
                     (tent, exact_tent)):
        norm, err = lp_norm(f, (0.0, 1.0), p)
        assert abs(norm - exact) <= 1e-10 * exact, (norm, exact)
        assert abs(norm - exact) <= max(err, 1e-15 * exact), (norm, exact, err)


@pytest.mark.parametrize("p", [1.0, math.inf, pytest.param(None, id="integrate")])
def test_noise_work_is_bounded(p):
    # a callable with no resolved series anywhere: the locator stops at its
    # cap of 64 pieces of 64 nodes, and err says how rough it is; at finite
    # p, lp_norm adds its first pass (192 points) and the graded 1- and
    # 2-panel sums (192) on each piece between split points, here one; the sup
    # samples the ends and each node with its two neighbours; integrate
    # (p None) samples no more than the locator
    import time

    tally = []

    def noise(s):
        return np.modf(np.sin(np.asarray(s) * 12345.678) * 43758.5453)[0]

    start = time.perf_counter()
    if p is None:
        value, err = integrate(_counted(noise, tally), 0.0, 1.0)
        cap = 64 * 64
    else:
        value, err = lp_norm(_counted(noise, tally), (0.0, 1.0), p)
        cap = 4 * 64 * 64 + 2 if math.isinf(p) else 64 * 64 + 192 * 2
    assert time.perf_counter() - start < 5.0
    assert math.isfinite(value) and 0.0 < abs(value) <= 1.0
    assert math.isfinite(err) and err > 1e-6 * abs(value)
    assert sum(tally) <= cap


def test_sup_beyond_the_cap_has_an_honest_error():
    # sin(2000 s) (1 + s / 10) needs more Legendre terms than 64 pieces of
    # 64 nodes resolve: the sup of the samples comes with the spread of
    # their neighbours as its error
    def osc(s):
        return np.sin(2000.0 * s) * (1.0 + 0.1 * s)

    norm, err = lp_norm(osc, (0.0, 1.0), math.inf)
    ref = reference_sup(osc, 0.0, 1.0)
    assert math.isfinite(err) and abs(norm - ref) <= err


def test_smooth_norm_samples_the_first_pass_only():
    # a smooth plateau integrand: the 1- and 2-panel passes (64 + 128
    # points) agree, so nothing is located and nothing else is sampled
    from rellich import plateau_profile

    tally = []
    f = plateau_profile(100.0).integrand((1.0, -2.0, -1.25))
    lp_norm(_counted(f, tally), (-100.0, 100.0), 2)
    assert sum(tally) == 192


def test_smooth_stack_samples_its_profile_once():
    # three smooth plateau rows, the numerator and two denominators of a
    # ratio: one call of 192 points gives all three first passes
    from rellich import plateau_profile

    tally = []
    f = plateau_profile(100.0).integrand((1.0, -2.0, -1.25), (0.0, 0.0, 1.0), (0.0, 1.0))
    assert len(lp_norm(_counted(f, tally), (-100.0, 100.0), 2)) == 3
    assert tally == [192]


def test_knots_split_two_sign_changes_between_nodes():
    # a cubic with one sign change at -1/2 and two between a pair of
    # consecutive nodes of the 2-panel pass, where sampling cannot see them;
    # its series from the 1-panel samples gives all three, and each of the
    # four pieces takes its graded 1- and 2-panel sums once
    from numpy.polynomial import Polynomial

    x, _ = np.polynomial.legendre.leggauss(64)
    nodes = np.concatenate(((x - 1) / 2, (x + 1) / 2))
    i = np.searchsorted(nodes, 0.3)
    mid, gap = 0.5 * (nodes[i - 1] + nodes[i]), nodes[i] - nodes[i - 1]
    roots = [-0.5, mid - 0.25 * gap, mid + 0.25 * gap]
    poly = Polynomial.fromroots(roots)
    tally = []
    val, err = lp_norm(_counted(poly, tally), (-1.0, 1.0), 1)
    edges = [-1.0, *roots, 1.0]
    exact = sum(abs(poly.integ()(hi) - poly.integ()(lo)) for lo, hi in zip(edges[:-1], edges[1:]))
    assert abs(val - exact) <= 1e-14 * exact and err <= 1e-10 * val
    assert sum(tally) == 192 * 5


@pytest.mark.parametrize("eps", [0.2, 0.025])
def test_located_points_match_brentq(eps):
    # the split points of a log_squeezed numerator and the critical points
    # of a weighted log_squeezed profile (the roots of s v' - v) against
    # brentq, to well within the h/2 = 7e-9 (b - a) that the error bound
    # of the sup needs: the chop leaves about 1e-11 (b - a)
    from rellich import bump

    v = log_squeezed(bump(0.25, 0.5), eps)
    a, b = v.support
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * np.polynomial.legendre.leggauss(64)[0]

    def critical(s):
        v0, v1, _ = v.jet(s)
        return s * v1 - v0

    for f, zero, sup in ((v.integrand((1.0, -1.3, -0.4)), v.integrand((1.0, -1.3, -0.4)), False),
                         (v.integrand((0.0, 0.0, 1.0, -1.0)), critical, True)):
        [(got, _)] = quadrature._locate(quadrature._sampler(f, None), a, b, f(nodes)[None],
                                        range(1), sup)
        pad = 1e-3 * (b - a)  # f and f' vanish at the ends of the support
        ref = reference_roots(zero, a + pad, b - pad)
        assert ref and all(np.min(np.abs(got - r)) <= 1e-9 * (b - a) for r in ref), (got, ref)


def test_colleague_roots_match_numpy():
    # the colleague matrices of a stack of series, built in place, against
    # numpy's legroots row by row, and the derivative matrix against legder
    rng = np.random.default_rng(5)
    for d in (1, 2, 5, 9):
        c = rng.standard_normal((3, d + 1))
        got = np.linalg.eigvals(quadrature._colleague(c))
        for row, roots in zip(c, got):
            assert np.allclose(np.sort_complex(roots),
                               np.sort_complex(np.polynomial.legendre.legroots(row)), atol=1e-12)
    D = quadrature._legendre()[1]
    c = rng.standard_normal(16)
    assert np.allclose(D[:16, :16] @ c, np.append(np.polynomial.legendre.legder(c), 0.0),
                       atol=1e-12)


@pytest.mark.parametrize("f, p", [(lambda s: 2.0 + 0.0 * s, 1e300),
                                  (lambda s: 1e200 * np.sin(9.0 * s), 2.0)],
                         ids=["huge-p", "huge-f"])
def test_norm_beyond_float_range_is_out_of_range(f, p):
    # |f|^p overflows: a typed error, without an overflow RuntimeWarning
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="beyond float range"):
            lp_norm(f, (0.0, 1.0), p)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_a_sign_changing_row_near_the_float_maximum_keeps_a_finite_err(p):
    # its Legendre series is taken of its values over a power of two, so the
    # coefficients stay finite: no warning, and an err far below the value.
    # integrate scales its antiderivative back to the integral itself
    def f(s):
        return 1.7e308 * (2.0 * s - 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm, err = lp_norm(f, (0.0, 1.0), p)
        upto, err_int = integrate(f, 0.0, np.array([0.5, 1.0]))
    want = 1.7e308 * (0.5 if p == 1 else 1.0)
    assert abs(norm - want) <= 1e-14 * want and 0.0 < err <= 1e-13 * want, (norm, err)
    assert abs(upto[0] + 4.25e307) <= 1e-14 * 4.25e307 and abs(upto[1]) <= err_int <= 1e-13 * want


def test_integrate_scales_exactly_with_a_power_of_two():
    # values times 2^k give the integral and its err times 2^k, bit for bit:
    # the series is taken of the values over a power of two and scaled back,
    # its tails in err included (the kink leaves a piece unresolved, so they count)
    def f(s):
        return np.sqrt(np.abs(s - 0.3))

    value, err = integrate(f, 0.0, 1.0)
    for k in (-600, 40, 600):
        got = integrate(lambda s, k=k: np.ldexp(f(s), k), 0.0, 1.0)
        assert got == (np.ldexp(value, k), np.ldexp(err, k)), (k, got, value, err)


def _spy(f, seen):
    """f, recording the sorted points of each call in seen."""
    def g(s):
        seen.append(np.sort(np.ravel(s)))
        return f(s)

    return g


@pytest.mark.parametrize("p", [1.5, math.inf])
def test_a_term_is_sampled_alike_in_a_small_and_a_large_corpus(p):
    # a corpus of ten profiles, and one of 400 that repeats them (up to the
    # placement of the support): the most points any term is sampled at is
    # the same, as no term is sampled at the pieces of another
    from rellich import Profile1D, bump
    from rellich.radial import corpus_norms

    def most_points(count):
        tallies, terms = [], []
        for i in range(count):
            v = bump(0.1 * i, 0.1 * i + 0.5 * (1 + i % 5))
            tallies.append([])
            rows = ((1.0, 0.8, -2.0), (0.0, 0.0, 1.0)) if i % 2 else ((1.0, -1.5),)
            terms.append((Profile1D(_counted(v.jet, tallies[-1]), v.support), rows))
        corpus_norms(p, terms)
        return max(map(sum, tallies))

    assert most_points(10) == most_points(400) > (64 if p == math.inf else 192)
