"""End-to-end numerical verification: decisions against quadrature.

Every check here evaluates both sides of an inequality on concrete
separable test functions and reports margins.  The reductions used are
exact (not approximations): for separable u the N-dimensional weighted
norms equal 1-D integrals in log coordinates, with the spherical factor
cancelling from every two-sided comparison.

Margin conventions: each report carries per-sample (lhs, rhs, margin)
rows and passes iff every margin is >= -tolerance for the claim; the
verdict and the smallest margin are read off the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BetaZero,
    CorpusOutsideSubspace,
    DegenerateWeight,
    NonFiniteIntegrand,
    OutOfRange,
    PreconditionViolated,
)
from .params import (
    DEFAULT_TOL,
    EPS_LADDER,
    OperatorParams,
    check_finite,
    check_inner_p,
    check_p,
    critical_alphas,
    discriminant,
    eigen_lambda,
    kelvin_transform,
    reduced_drift,
)
from .profiles import Profile1D
from .quadrature import integrate, lp_norm
from .radial import (CRITICAL_MEASURE, PHI_SUPPORT, boundary_counterexample, corpus_norms,
                     counterexample_drift, counterexample_ratio, critical_rows, fit_loglog_slope,
                     rellich_ratios)
from .spectral import region_section3
from .validity import Branch, DomainKind, HarmonicSet, best_constant, decide

#: relative slack on quadrature-limited identities / on limit-approach claims
SLACK_EXACT = 1e-6
SLACK_LIMIT = 1e-3

#: lower bound that verify_critical_log demands of every weighted ratio
POS_FLOOR = 1e-3


@dataclass
class VerificationReport:
    claim: str
    samples: list[tuple[str, float, float, float]] = field(default_factory=list)
    tolerance: float = 0.0
    notes: str = ""

    def add(self, descriptor: str, lhs: float, rhs: float, margin: float):
        self.samples.append((descriptor, float(lhs), float(rhs), float(margin)))

    @property
    def passed(self) -> bool:
        return all(m >= -self.tolerance for *_ignore, m in self.samples)

    @property
    def min_margin(self) -> float:
        """The smallest margin, folded from inf so NaN is skipped; 0.0 without samples."""
        return min([math.inf] + [m for *_ignore, m in self.samples]) if self.samples else 0.0


def verify_rellich(
    params: OperatorParams,
    p: float,
    alpha: float,
    domain: DomainKind,
    J: HarmonicSet,
    corpus: list[tuple[int, Profile1D]],
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Verify the Rellich decision numerically on a separable corpus.

    When the decision holds with a certified constant C, every sample
    ratio must be >= C (relative slack 1e-3, limit-approach).  When it fails
    past the ball's boundary threshold, the witness of the failing degree
    must solve Lu = 0 to rounding and have a finite weighted norm.  When it
    fails at a critical alpha with real indicial roots, the explicit family
    must decay to zero monotonically with log-log slope near 1.  The ratios of
    the whole corpus come from one ``lp_norm`` call, as do the critical
    family's.  domain is a DomainKind or the value of one; any other is
    ``decide``'s ValueError.
    """
    if not corpus:
        raise PreconditionViolated("empty corpus: nothing to verify")
    for n, _ in corpus:
        if not J.contains(n):
            raise CorpusOutsideSubspace(f"corpus degree n={n} not in J={J}")
    verdict = decide(params, p, alpha, domain, J, tol)  # ValueError for a domain of no kind
    domain = DomainKind(domain)  # a member value given as a string is that member

    # exterior domains reduce to the ball through the Kelvin transform;
    # verify the transformed inequality (same constants, same ratios)
    exterior = domain in (DomainKind.EXTERIOR_BALL, DomainKind.EXTERIOR_SMOOTH)
    work_params, work_alpha = kelvin_transform(params, p, alpha) if exterior else (params, alpha)

    report = VerificationReport(
        claim=f"rellich {domain.value} N={params.N} c={params.c} b={params.b} "
        f"p={p} alpha={alpha} J={J}"
    )
    if verdict.holds:
        C = verdict.best_constant
        if C is None:  # the ratios are compared with 0 at tolerance 0
            C = 0.0
            report.notes = "verdict holds; no certified constant, ratios reported"
        else:
            report.tolerance = SLACK_LIMIT * C  # relative: the ratios grow with C
            report.notes = f"verdict holds with certified constant C={C}"
        for (n, v), r in zip(corpus, rellich_ratios(work_params, p, work_alpha, corpus)):
            report.add(f"n={n} {v.label}", r.ratio, C, r.ratio - C)
        return report

    n_fail, branch = verdict.failing_modes[0]
    if exterior:
        # move the mode to the Kelvin image's coordinates, where the
        # verification runs: exterior plus-exclusions are ball minus ones
        branch = Branch.MINUS if branch == Branch.PLUS else branch
    if branch == Branch.BOUNDARY:
        if work_alpha > critical_alphas(work_params, p, n_fail)[1] + tol:
            # strictly past the threshold: the harmonic witness of degree n_fail
            # applies, and its weighted norm must be finite
            rep = boundary_counterexample(work_params, work_alpha, p, n_fail)
            report.notes = "boundary obstruction: harmonic witness checked"
            report.add("residual_rel", rep.residual_sup, 1e-8, 1e-8 - rep.residual_sup)
            report.add("norm_finite", float(rep.norm_finite), 1.0,
                       0.0 if rep.norm_finite else -1.0)
            return report
        # at the threshold itself the failure is the free plus-branch
        # counterexample; fall through to the decay verification
        branch = Branch.PLUS

    # counterexample_ratio raises UnsupportedRegime for complex indicial roots
    ratios = [r.ratio for r in counterexample_ratio(work_params, p, n_fail, branch.value,
                                                    EPS_LADDER)]
    # generic decay is linear in eps; when the indicial roots collide
    # (D + lambda_n = 0) the drift term vanishes and the rate doubles
    g = counterexample_drift(work_params, n_fail, branch.value)
    slope_target = 1.0 if abs(g) > 1e-8 else 2.0
    report.notes = (
        f"verdict fails at mode (n={n_fail}, {branch.value}); "
        f"family must decay with slope ~ {slope_target:g}"
    )
    for e1, e2, r1, r2 in zip(EPS_LADDER, EPS_LADDER[1:], ratios, ratios[1:]):
        report.add(f"decay eps {e1}->{e2}", r2, r1, r1 - r2)
    # fit on the asymptotic tail; the largest eps is pre-asymptotic and
    # the finite-eps bias scales like eps / sqrt(D + lambda_n)
    slope = fit_loglog_slope(EPS_LADDER[1:], ratios[1:])
    report.add("loglog slope", slope, slope_target, 0.15 - abs(slope - slope_target))
    return report


def verify_hardy(
    N: int,
    p: float,
    beta: float,
    u: Profile1D,
) -> VerificationReport:
    """Weighted Hardy inequality on a radial profile (coordinate r).

    integral |x|^beta |grad u|^2 |u|^{p-2}  >=  ((N-2+beta)/p)^2 *
    integral |x|^{beta-2} |u|^p, surface factor cancelled.  In s = -log r
    both sides are norms in the measure e^{-kappa s} ds, kappa = N-2+beta:
    the left ||r u' |u|^{(p-2)/2} e^{-kappa s/2}||_2^2 and the right
    ||u e^{-kappa s/p}||_p^p, each from ``lp_norm``.
    """
    check_inner_p(p, "the Hardy check")
    check_finite("beta", beta)
    kappa = N - 2 + beta
    if kappa == 0:
        raise DegenerateWeight(f"N - 2 + beta = 0 (N={N}, beta={beta})")
    try:
        K = (kappa / p) ** 2
    except OverflowError:
        raise OutOfRange(f"the Hardy constant ((N-2+beta)/p)^2 overflows at beta={beta}") from None

    def lhs_row(s):
        r = np.exp(-s)
        u0, u1, _ = u.jet(r)
        vv = np.abs(u0)
        w = np.power(vv, (p - 2.0) / 2.0, out=np.zeros_like(vv), where=vv > 0)
        return r * u1 * w * np.exp(-0.5 * kappa * s)

    def rhs_row(s):
        return u(np.exp(-s)) * np.exp(-kappa * s / p)

    r_lo, r_hi = u.support
    support = -math.log(r_hi), -math.log(r_lo)
    # an integrand that overflows ends in a typed error, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = lp_norm(lhs_row, support, 2)[0] ** 2
        rhs = K * lp_norm(rhs_row, support, p)[0] ** p
    report = VerificationReport(
        claim=f"hardy N={N} p={p} beta={beta} constant={K}",
        tolerance=SLACK_EXACT * max(abs(rhs), 1e-300),
    )
    report.add(u.label or "profile", lhs, rhs, lhs - rhs)
    return report


def oned_green_reconstruct(beta: float, v: Profile1D) -> float:
    """Reconstruct v from f = v'' + beta v' via the half-line Green formula.

    v(s) = -(1/beta) ( integral_0^s e^{-beta(s-sigma)} f + integral_s^inf f ).
    Also checks the two orthogonality identities integral f =
    integral e^{beta sigma} f = 0 (each to 1e-8 of its absolute-value
    scale).  Returns max |v_rec - v| over 201 points spanning the support,
    read off the antiderivatives of f and of e^{beta (sigma - c)} f on
    chunks of about 4 e-folds (at most 64), c the start of each, with the
    integral up to c carried across chunks; must be < 1e-6 ||v||_inf for
    the identity to count as verified.  For beta < 0 it takes the right-tail
    form, the formula for v(a + b - s) and drift -beta, so the kernel decays.
    """
    if beta == 0:
        raise BetaZero("the representation needs beta != 0")
    a, b = v.support
    if a <= 0:
        raise PreconditionViolated("v must be supported in (0, inf)")

    f = v.integrand((1.0, beta))
    pad = 0.1 * (b - a)
    grid_s = np.linspace(max(a - pad, 0.25 * a), b + pad, 201)
    want = v(grid_s)
    if beta < 0:  # the left form of w(y) = v(a + b - y): w'' - beta w' = f(a + b - y)
        grid_s, want = (a + b - grid_s)[::-1], want[::-1]
        f, beta = (lambda y, f=f: f(a + b - y)), -beta
    s = np.clip(grid_s, a, b)
    # the grid reaches past b, so the last entries are the whole integrals
    upto, _ = integrate(f, a, s)
    i_plain = float(upto[-1])
    scale_plain, _ = lp_norm(f, (a, b), 1)
    if abs(i_plain) > 1e-8 * max(scale_plain, 1e-300):
        raise AssertionError(f"orthogonality integral f = {i_plain} not ~ 0")

    # conv = integral_a^s e^{beta (sigma - s)} f; carry and size: integral_a^c
    # e^{beta (sigma - c)} f and |f| times the same, c the next chunk's start
    edges = np.linspace(a, b, math.ceil(min(64.0, abs(beta) * (b - a) / 4.0)) + 1)
    chunk = np.minimum(np.searchsorted(edges, s, "right") - 1, len(edges) - 2)
    conv = np.empty_like(s)
    carry = size = 0.0
    for j, (lo, hi) in enumerate(zip(edges[:-1].tolist(), edges[1:].tolist())):
        def f_exp(x, lo=lo):
            return np.exp(beta * (x - lo)) * f(x)

        part, _ = integrate(f_exp, lo, np.clip(s, lo, hi))
        here = chunk == j
        conv[here] = np.exp(-beta * (s[here] - lo)) * (carry + part[here])
        decay = math.exp(-beta * (hi - lo))
        carry = decay * (carry + float(part[-1]))
        size = decay * (size + lp_norm(f_exp, (lo, hi), 1)[0])
    if abs(carry) > 1e-8 * max(size, 1e-300):
        raise AssertionError(f"orthogonality integral e^(beta (s - b)) f = {carry} not ~ 0")

    v_rec = -(conv + (i_plain - upto)) / beta
    return float(np.max(np.abs(v_rec - want)))


def _weighted_norms(norms, kappa: float, weighted: dict[int, int]) -> list[float]:
    """norms(), the norms of a stack whose row w is ||v / s^kappa||_p, and row weighted[w]
    ||v||_p, for each w of weighted.  OutOfRange naming kappa where only weighted rows
    overflow, or where one underflows to 0 while its ||v||_p does not."""
    try:
        out = norms()
    except NonFiniteIntegrand as err:
        if weighted.keys() >= set(err.rows):
            raise OutOfRange(f"||v / s^kappa||_p overflows at kappa={kappa}") from err
        raise
    if any(out[w] == 0.0 < out[v] for w, v in weighted.items()):
        raise OutOfRange(f"||v / s^kappa||_p underflows to 0 at kappa={kappa}")
    return out


def verify_oned_inequality(
    beta: float,
    p: float,
    a: float,
    eps: float,
    corpus: list[Profile1D],
    kappa: float | None = None,
) -> VerificationReport:
    """Half-line weighted bound || v / s^kappa ||_{L^p(a,inf)} <= C || v'' + beta v' ||_p.

    kappa defaults per the proposition: 1 for beta != 0 and p > 1,
    1 + eps at p = 1; 2 (resp. 2 + eps) when beta = 0.  The report's
    samples carry the per-profile ratios; their sup is the empirical C.
    Pass kappa explicitly to run a negative control.  One ``corpus_norms`` call gives
    the numerators on each support, the denominators on its part in (a, inf).  OutOfRange
    where a weighted norm of a profile overflows, or, the profile not zero on (a, inf),
    underflows to 0.
    """
    check_p(p)
    for name, x in (("beta", beta), ("a", a), ("eps", eps)):
        check_finite(name, x)
    if a <= 0:
        raise ValueError("a must be positive")
    if kappa is None:
        kappa = (1.0 if beta != 0 else 2.0) + (0.0 if p > 1 else eps)
    if not corpus:
        raise PreconditionViolated("empty corpus: nothing to verify")
    if min(v.support[0] for v in corpus) <= 0:
        raise PreconditionViolated("corpus must be supported in (0, inf)")
    report = VerificationReport(claim=f"oned beta={beta} p={p} a={a} kappa={kappa}")
    dens = (0.0, 0.0, 1.0), (0.0, 0.0, 1.0, -kappa)  # ||v||_p and ||v / s^kappa||_p
    terms = [t for v in corpus
             for t in ((v, ((1.0, beta),)), (v, dens, (max(a, v.support[0]), v.support[1])))]

    def stack():  # each profile's three: its numerator, then its two denominators
        out = iter(corpus_norms(p, terms))
        return [m for num, pair in zip(out, out) for m, _ in (num, *pair)]

    norms = _weighted_norms(stack, kappa, {3 * i + 2: 3 * i + 1 for i in range(len(corpus))})
    for v, num, den in zip(corpus, norms[::3], norms[2::3]):
        ratio = den / num if num > 0 else math.inf
        report.add(v.label or "profile", ratio, 0.0,
                   1.0 if math.isfinite(ratio) else -1.0)
    report.notes = f"empirical C = {max(s[1] for s in report.samples):.6g}"
    return report


def _powers(what: str, lam: float, p: float) -> tuple[float, float]:
    """(lam^p, lam^{p-1} (p-1)/p^2), the powers of the remainder inequalities.

    OutOfRange names what where one of them overflows.
    """
    try:
        return lam**p, lam ** (p - 1.0) * (p - 1.0) / p**2
    except OverflowError:
        raise OutOfRange(f"a power of the remainder inequality overflows at {what}, "
                         f"p={p}") from None


def _remainders(claim: str, beta: float, lam: float, p: float,
                corpus: list[Profile1D]) -> VerificationReport:
    """``verify_aux_remainder`` on each profile of corpus, from one ``corpus_norms`` call;
    the tolerance is SLACK_EXACT times the largest ||Gamma v||_p^p, at least 1."""
    check_finite("beta", beta)
    if check_finite("lambda", lam) <= 0:
        raise PreconditionViolated(f"need lambda > 0, got {lam}")
    if min(v.support[0] for v in corpus) <= 0:
        raise PreconditionViolated("v must be supported in (0, inf)")
    lam_p, rem = _powers(f"lambda={lam}", lam, p)
    report = VerificationReport(claim=claim, tolerance=SLACK_EXACT)
    rows = (1.0, beta, -lam), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0, -2.0 / p)
    for v, pairs in zip(corpus, corpus_norms(p, [(v, rows) for v in corpus])):
        gnorm_p, vnorm_p, weighted = (norm**p for norm, _ in pairs)
        lhs, rhs = gnorm_p - lam_p * vnorm_p, rem * weighted
        report.add(v.label or "profile", lhs, rhs, lhs - rhs)
        report.tolerance = max(report.tolerance, SLACK_EXACT * abs(gnorm_p))
    return report


def verify_aux_remainder(
    beta: float,
    lam: float,
    p: float,
    v: Profile1D,
) -> VerificationReport:
    """||Gamma v||_p^p - lam^p ||v||_p^p >= lam^{p-1} (p-1)/p^2 integral |v|^p/s^2.

    Gamma = D^2 + beta D - lam, lam > 0, 1 < p < inf, v in C_c^2((0,inf)).
    """
    check_inner_p(p, "the aux remainder")
    return _remainders(f"aux beta={beta} lambda={lam} p={p}", beta, lam, p, [v])


def verify_remainder(
    params: OperatorParams,
    p: float,
    alpha: float,
    corpus: list[Profile1D],
) -> VerificationReport:
    """Remainder inequality for radial u supported in the half ball.

    In reduced form, with C = b + gamma_p the certified constant and
    c_rem = C^{p-1}(p-1)/p^2:

        ||v'' + beta v' - C v||_p^p - C^p ||v||_p^p >= c_rem integral |v|^p / s^2,

    which is verify_aux_remainder with lambda = C on each profile, the norms
    of all from one ``corpus_norms`` call.
    """
    check_inner_p(p, "the remainder")
    if not corpus:
        raise PreconditionViolated("empty corpus: nothing to verify")
    C = best_constant(params, p, alpha)
    if C is None:
        raise PreconditionViolated(
            "alpha outside the symmetric range: no certified constant"
        )
    c_rem = _powers(f"C={C}", C, p)[1]
    if min(v.support[0] for v in corpus) < math.log(2.0) - 1e-9:
        raise PreconditionViolated(
            "corpus must be supported in s > log 2 (u supported in B_{1/2})"
        )
    return _remainders(f"remainder N={params.N} c={params.c} b={params.b} p={p} alpha={alpha} "
                       f"C={C} c_rem={c_rem}", reduced_drift(params, p, alpha), C, p, corpus)


def verify_critical_log(
    params: OperatorParams,
    p: float,
    n: int,
    branch: str,
    log_eps: float = 0.5,
) -> VerificationReport:
    """Logarithmic substitute inequality at a critical exponent.

    At alpha = alpha_n^+- the plain inequality fails, but with the weight
    |log r|^{-kappa} (kappa = 1 if D + lambda_n > 0, 2 if <= 0, plus
    log_eps at p = 1) the reduced ratio ||v'' + beta v' - lambda_red v||_p /
    ||v/s^kappa||_p stays bounded below, above POS_FLOOR, over the critical
    family v_eps(s) = phi(e^{-eps s}), phi = CUTOFF and eps in EPS_LADDER.
    The unweighted ratio, reported alongside, tends to zero.  All of them
    are one ``lp_norm`` call of ``radial.critical_rows`` in the measure dx/x
    (``radial.CRITICAL_MEASURE``); OutOfRange where a weighted norm
    overflows or underflows to 0, or where |f|^p of a row sums beyond float
    range.
    """
    check_p(p)
    check_finite("log_eps", log_eps)
    g = counterexample_drift(params, n, branch)  # ValueError for any other branch
    d_lam = discriminant(params) + eigen_lambda(params.N, n)
    kappa = (1.0 if d_lam > 0 else 2.0) + (log_eps if p == 1 else 0.0)
    report = VerificationReport(
        claim=f"critical-log N={params.N} c={params.c} b={params.b} p={p} "
        f"n={n} branch={branch} kappa={kappa}",
    )
    k = len(EPS_LADDER)
    f = critical_rows(g, min(0.0, d_lam), EPS_LADDER, kappa)
    norms = _weighted_norms(lambda: [m for m, _ in lp_norm(f, PHI_SUPPORT, p, CRITICAL_MEASURE)],
                            kappa, dict.fromkeys(range(k + 1, 2 * k + 1), k))
    weighted = [num / den_w for num, den_w in zip(norms, norms[k + 1:])]
    unweighted = [num / norms[k] for num in norms[:k]]
    for e, rw in zip(EPS_LADDER, weighted):
        report.add(f"eps={e} weighted", rw, POS_FLOOR, rw - POS_FLOOR)
    report.notes = (
        f"empirical inf of weighted ratio = {min(weighted):.6g}; "
        f"unweighted ratios {['%.4g' % r for r in unweighted]}"
    )
    return report


def verify_dissipativity(
    params: OperatorParams,
    p: float,
    lam: float,
    corpus: list[tuple[int, Profile1D]],
) -> VerificationReport:
    """Quasi-dissipativity lambda ||u||_p <= ||(lambda - A - omega_p) u||_p.

    For u = f(r) P_n with f carried by w through the norm-preserving
    substitution f(r) = r^{-N/p} w(log r), the claim is the 1-D bound
    lambda ||w||_p <= ||(lambda + lambda_n) w - w'' - k w'||_p with
    k = N(1 - 2/p) - 2 + c.  The norms of the whole corpus come from one
    ``lp_norm`` call.
    """
    check_inner_p(p, "dissipativity")
    if check_finite("lambda", lam) <= 0:
        raise PreconditionViolated(f"need lambda > 0, got {lam}")
    if not corpus:
        raise PreconditionViolated("empty corpus: nothing to verify")
    k = region_section3(params, p).k
    report = VerificationReport(
        claim=f"dissipativity N={params.N} c={params.c} p={p} lambda={lam}"
    )
    worst = 1.0
    terms = [(w, ((-1.0, -k, lam + eigen_lambda(params.N, n)), (0.0, 0.0, 1.0)))
             for n, w in corpus]
    for (n, w), ((rhs, _), (norm, _)) in zip(corpus, corpus_norms(p, terms)):
        lhs = lam * norm
        report.add(f"n={n} {w.label}", rhs, lhs, rhs - lhs)
        worst = max(worst, rhs)
    report.tolerance = SLACK_EXACT * worst
    return report
