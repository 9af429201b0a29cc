"""One-dimensional reduction of separable N-dimensional L^p quantities.

For u(r omega) = c(rho) P_n(omega) with c(rho) = rho^{-alpha+2-N/p} v(-log rho),
the weighted norms reduce exactly to unweighted 1-D integrals in the
logarithmic variable s = -log rho:

    || |x|^alpha L u ||_p^p   = S_P * || v'' + beta v' - lambda_red v ||_p^p
    || |x|^{alpha-2} u ||_p^p = S_P * || v ||_p^p

with beta the reduced drift of ``params.reduced_drift`` and
lambda_red = gamma_p(alpha, c) + b + lambda_n.  The spherical factor
S_P = integral |P|^p cancels in every ratio and is never computed.
Every reduced norm of a profile comes from ``corpus_norms``, which reads
a corpus in blocks of bounded size, one ``lp_norm`` stack each that picks.  ``critical_rows``
builds the critical family u_eps = r^gamma phi(r^eps) of a whole eps
ladder, read on phi's fixed support in x = r^eps with the measure dx/x
(``CRITICAL_MEASURE``), so that its numerator rows stay polynomials of
phi's degree.  ``lp_norm`` finds the sign changes and the sup of each row,
for any weight s^power, itself.  ``boundary_counterexample`` checks the
ball's boundary witness of any degree in closed form, from its indicial polynomial.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import NonFiniteIntegrand, OutOfRange, PreconditionViolated, UnsupportedRegime
from .params import (
    OperatorParams,
    check_p,
    critical_alphas,
    discriminant,
    eigen_lambda,
    gamma_p,
    indicial_roots,
    inv_p,
    reduced_drift,
)
from .profiles import Profile1D, bump, jet_rows
from .quadrature import lp_norm

#: Support of the counterexample cutoff phi; the reduced-norm identity
#: below is derived for this window.
PHI_SUPPORT = (0.25, 0.5)

#: the cutoff phi of the critical families u_eps = r^gamma phi(r^eps)
CUTOFF = bump(*PHI_SUPPORT)

#: the measure dx / x of ``critical_rows``, as ``lp_norm``'s weight
CRITICAL_MEASURE = np.reciprocal

#: most rows of one ``lp_norm`` call of ``corpus_norms``, which bounds its working set
_CORPUS_ROWS = 256


@dataclass(frozen=True)
class ReducedCoefficients:
    beta: float
    lambda_red: float


@dataclass(frozen=True)
class RatioReport:
    numerator: float
    denominator: float
    ratio: float
    quad_error_estimate: float  # estimated error of ratio, from both norms

    def __post_init__(self):
        assert self.denominator > 0


def reduced_coefficients(
    params: OperatorParams, p: float, alpha: float, n: int
) -> ReducedCoefficients:
    """Drift and zero-order coefficient of the reduced operator.

    beta equals -k4 where k4 = 2(base - alpha) is the section-4 region
    coefficient; lambda_red vanishes exactly at the critical exponents.
    """
    check_p(p)
    lam_red = gamma_p(params.N, p, alpha, params.c) + params.b + eigen_lambda(params.N, n)
    return ReducedCoefficients(reduced_drift(params, p, alpha), lam_red)


def corpus_norms(p: float, terms: Sequence[tuple]):
    """The (norm, err) pairs of each term (v, rows) or (v, rows, support): one pair for one
    row (a2, a1, a0, power) as ``Profile1D.integrand`` reads it, else a list of pairs,
    the L^p norms of s^power (a2 v'' + a1 v' + a0 v) on the support, v's own by default.

    One term is ``lp_norm(v.integrand(*rows), support, p)`` itself.  Several are cut
    into blocks of at most _CORPUS_ROWS rows (a longer term alone), each one ``lp_norm``
    call of its ``_block_stack`` on t in (-1, 1).  A term is sampled at its own pieces
    alone, so its pairs, times half^(1/p) (1 at p = inf), do not depend on the block.
    A support empty after cutting has zero width and gives zeros, a term of no rows
    PreconditionViolated.  A ``NonFiniteIntegrand`` names rows of the whole corpus, in order.
    """
    terms = [(v, rows, support[0] if support else v.support) for v, rows, *support in terms]
    if len(terms) == 1:
        (v, rows, support), = terms
        return [lp_norm(v.integrand(*rows), support, p)]
    q, out, offset = inv_p(p), [], 0
    for block in _blocks(terms):
        try:
            pairs = iter(lp_norm(_block_stack(block), (-1.0, 1.0), p))
        except NonFiniteIntegrand as err:
            err.rows = tuple(offset + r for r in err.rows)
            raise
        for _, rows, (a, b) in block:
            k = (0.5 * (b - a)) ** q if b > a else 0.0
            mine = [(norm * k, err * k) for norm, err in islice(pairs, len(rows))]
            out.append(mine if len(rows) > 1 else mine[0])
            offset += len(rows)
    return out


def _blocks(terms):
    """terms in runs of at most _CORPUS_ROWS rows; a term of more rows is a run alone."""
    start, size = 0, 0
    for i, (_, rows, _) in enumerate(terms):
        if size + len(rows) > _CORPUS_ROWS and i > start:
            yield terms[start:i]
            start, size = i, 0
        size += len(rows)
    if terms:
        yield terms[start:]


def _block_stack(block):
    """The rows of the terms (v, rows, (a, b)) of block in order: one stack of t in (-1, 1),
    each term's through s = mid + half t on its support, of zero width where b <= a.  Its
    ``pick(x, which)`` groups the entries by term with one stable argsort, so which may
    come in any order, and writes each entry's own row over x from one pick of its
    term's ``jet_rows`` stack at that term's entries alone."""
    terms, starts = [], [0]
    for v, rows, (a, b) in block:
        b = max(a, b)
        terms.append((v.integrand(*rows), 0.5 * (a + b), 0.5 * (b - a), len(rows)))
        starts.append(starts[-1] + len(rows))

    def stack(t):
        return np.concatenate([np.reshape(f(mid + half * t), (k, *t.shape))
                               for f, mid, half, k in terms])

    def pick(x, which):
        term = np.searchsorted(starts, which, "right") - 1
        order = np.argsort(term, kind="stable")
        cuts = np.searchsorted(term[order], np.arange(len(starts))).tolist()
        for (f, mid, half, k), start, lo, hi in zip(terms, starts, cuts, cuts[1:]):
            if lo < hi:
                mine = order[lo:hi]
                x[mine] = f.pick(mid + half * x[mine], which[mine] - start)
        return x

    stack.pick = pick
    return stack


def _ratio(num: tuple[float, float], den: tuple[float, float]) -> RatioReport:
    """Report of num / den from two (norm, err) pairs, with the ratio's estimated error."""
    (n, err_n), (d, err_d) = num, den
    if d <= 0:
        raise ValueError("denominator norm vanished")
    return RatioReport(n, d, n / d, (err_n + n * err_d / d) / d)


def rellich_ratio_separable(
    params: OperatorParams, p: float, alpha: float, n: int, v: Profile1D, norms=None
) -> RatioReport:
    """|| v'' + beta v' - lambda_red v ||_p / || v ||_p on the support of v.

    norms, the (norm, err) pairs of the two where the caller has them already
    (``rellich_ratios``, from the blocks of a corpus), stand in for the
    one-term ``corpus_norms`` call.
    """
    if norms is None:
        norms, = corpus_norms(p, [(v, _rellich_rows(params, p, alpha, n))])
    return _ratio(*norms)


def rellich_ratios(params: OperatorParams, p: float, alpha: float,
                   corpus: Sequence[tuple[int, Profile1D]]) -> list[RatioReport]:
    """``rellich_ratio_separable`` of each (n, v) of corpus, the norms of all from one
    ``corpus_norms`` call."""
    terms = [(v, _rellich_rows(params, p, alpha, n)) for n, v in corpus]
    return [rellich_ratio_separable(params, p, alpha, n, v, norms)
            for (n, v), norms in zip(corpus, corpus_norms(p, terms))]


def _rellich_rows(params: OperatorParams, p: float, alpha: float, n: int):
    """The rows of the reduced ratio's numerator and denominator for degree n."""
    rc = reduced_coefficients(params, p, alpha, n)
    return (1.0, rc.beta, -rc.lambda_red), (0.0, 0.0, 1.0)


def counterexample_drift(params: OperatorParams, n: int, branch: str) -> float:
    """The drift 2 gamma + N - 2 + c = +-Re(s2 - s1) (+ on the minus branch, gamma = -Re s1)
    of the critical family's reduced operator, s the ``indicial_roots`` of degree n: it is
    +-2 Re sqrt(D + lambda_n) and vanishes where the indicial roots collide."""
    s1, s2 = indicial_roots(params, n)
    if branch == "minus":
        return s2.real - s1.real
    if branch == "plus":
        return s1.real - s2.real
    raise ValueError(f"branch must be 'minus' or 'plus', got {branch!r}")


def counterexample_ratio(
    params: OperatorParams,
    p: float,
    n: int,
    branch: str,
    eps: Sequence[float],
) -> list[RatioReport]:
    """Exact reduced norm ratios of the critical family u_eps = r^gamma phi(r^eps), one per eps.

    At alpha = alpha_n^+- the ratio of the two Rellich norms collapses to

        eps * ( integral s^{p-1} |eps s phi'' + (2 gamma + N - 2 + c + eps) phi'|^p ds
                / integral |phi|^p / s ds )^{1/p}

    for finite p, and for p = inf to
    eps * sup |eps s^2 phi'' + (2 gamma + N - 2 + c + eps) s phi'| / sup |phi|.
    It tends to zero linearly in eps, witnessing failure of the inequality.
    Both are the norms of the one stack of ``critical_rows`` with lam = 0,
    in the measure dx/x, eps^{1/p} times the norms in s; a report's
    numerator and denominator are those norms.

    Requires D + lambda_n >= 0: the display presumes real indicial roots.
    OutOfRange where an eps is so small that a numerator norm underflows to 0.
    """
    check_p(p)
    for e in eps:
        if not (0.0 < e <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {e}")
    if discriminant(params) + eigen_lambda(params.N, n) < 0:
        raise UnsupportedRegime(
            "complex indicial roots (D + lambda_n < 0): the explicit "
            "counterexample family is only valid for real roots"
        )
    g = counterexample_drift(params, n, branch)
    *nums, den = lp_norm(critical_rows(g, 0.0, eps), PHI_SUPPORT, p, CRITICAL_MEASURE)
    for e, (num, _) in zip(eps, nums):
        # the exact numerator never vanishes: a 0 is |f|^p underflowing
        if num == 0:
            raise OutOfRange(f"the numerator norm underflows to 0 at eps={e:g}, p={p:g}")
    return [_ratio(num, den) for num in nums]


def critical_rows(g: float, lam: float, eps: Sequence[float], kappa: float | None = None):
    """The critical family's reduced norms for every eps, one ``lp_norm`` stack on PHI_SUPPORT
    in the measure ``CRITICAL_MEASURE``, dx / x.

    x = e^{-eps s} turns v'' - g v' - lam v of v(s) = phi(e^{-eps s}) into
    eps x (eps x phi'' + (g + eps) phi') - lam phi, and ds into dx / (eps x).
    The rows are that for each eps, then phi, and with kappa
    phi (-log(x) / eps)^{-kappa} for each eps: in dx / x their norms are
    eps^{1/p} times the norms in s, a factor that the ratios of one eps
    cancel.  The first two are polynomials of phi's degree 6, so ``lp_norm``
    locates their sign changes on series of that degree.  g is the drift of
    ``counterexample_drift``; lam = min(0, D + lambda_n) makes this the
    reduced Rellich operator at the critical exponent.

    The stack is the ``jet_rows`` stack of phi's Euler jet (phi, x phi', x^2 phi''),
    the weighted rows weighted by (-log(x) / eps)^{-kappa}: its ``pick(x, which)``
    gives row which[i] at x[i] alone, the stack's values bit for bit, so
    ``lp_norm`` samples each split row at its own pieces.
    """
    def jet(x):
        v0, v1, v2 = CUTOFF.jet(x)
        return v0, x * v1, x * x * v2

    rows = [(e * e, e * (g + e), -lam, None) for e in eps] + [(0.0, 0.0, 1.0, None)]
    if kappa is not None:
        rows += [(0.0, 0.0, 1.0, lambda x, e=e: (-np.log(x) / e) ** -kappa) for e in eps]
    return jet_rows(jet, rows)


@dataclass(frozen=True)
class BoundaryReport:
    residual_sup: float
    norm_finite: bool
    active: bool


def boundary_counterexample(params: OperatorParams, alpha: float, p: float,
                            n: int = 0) -> BoundaryReport:
    """Check the ball's boundary witness of degree n, u = (r^{-s2} - r^{-s1}) Y_n, in closed form.

    u vanishes on the sphere, and r^2 Lu = (P(s2) r^{-s2} - P(s1) r^{-s1}) Y_n with
    P(s) = s^2 - (N-2+c) s - b - lambda_n, whose roots are the indicial roots s1, s2
    of degree n.  residual_sup is the larger |P(s_i)| over m^2, m the largest of
    |s1|, |s2|, |N-2+c|, sqrt|b + lambda_n| and 1; each term is divided by m^2
    before the sum, so none overflows (analytically zero; rounding only).  Near 0,
    |u| ~ r^{-Re s2}, so ||x|^{alpha-2} u||_p is finite iff (alpha - 2 - Re s2) p + N > 0,
    or alpha - 2 - Re s2 >= 0 at p = inf: norm_finite.  Conjugate roots a -/+ i w
    make u i times the real witness -2 r^{-a} sin(w log r), and merged ones the limit
    r^{-s2} log r: the same residual and exponent.  `active` flags alpha > alpha_n^+
    of ``critical_alphas``; the two agree except at that threshold.  OutOfRange
    where the roots leave float range.
    """
    check_p(p)
    k, bl = params.N - 2.0 + params.c, params.b + eigen_lambda(params.N, n)
    roots = indicial_roots(params, n)
    m = max(*map(abs, roots), abs(k), math.sqrt(abs(bl)), 1.0)
    residual = max(abs((s / m) ** 2 - k / m * (s / m) - bl / m / m) for s in roots)
    if not math.isfinite(residual):
        raise OutOfRange(f"the indicial roots of degree {n} are beyond float range")
    e = alpha - 2.0 - roots[1].real
    norm_finite = e >= 0 if math.isinf(p) else e * p + params.N > 0
    return BoundaryReport(residual, norm_finite, alpha > critical_alphas(params, p, n)[1])


def fit_loglog_slope(eps_values, ratios) -> float:
    """Closed-form least-squares slope of log(ratio) against log(eps); needs two distinct eps."""
    if len(set(map(float, eps_values))) < 2:
        raise PreconditionViolated(f"a slope needs two distinct eps values, got {list(eps_values)}")
    x, y = (np.log(np.asarray(v, dtype=float)).tolist() for v in (eps_values, ratios))
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((u - mx) * (v - my) for u, v in zip(x, y, strict=True))
    return sxy / sum((u - mx) ** 2 for u in x)
