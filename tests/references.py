"""Independent references for L^p norms, written apart from rellich.quadrature,
and for profile derivatives.

``reference_roots`` finds the sign changes of f by brentq and
``reference_lp_integral`` integrates |f|^p by scipy's quad between them;
``reference_sup`` takes the largest |f| of a dense grid and refines each
near-top local maximum on three finer grids;
``check_derivatives`` compares a profile's jet with central finite differences;
``exact_lp_integral`` integrates |P|^p for a numpy polynomial P and an
integer p exactly, between the roots of P.  ``log_squeezed`` is the
critical family phi(e^{-eps s}) as a profile in the log variable s, on a
support that moves with eps: the form in which its reduced norms are
defined, against which the library's rows on the support of phi are checked.
``exact_critical_alphas`` is the pair alpha_n^-+ in 60-digit decimal arithmetic.
"""

import decimal
import math

import numpy as np


def _scalar(f):
    return lambda t: float(f(np.array([t]))[0])


def reference_roots(f, a, b, points=4001):
    """The sign changes of f between the points of a grid on [a, b], by brentq."""
    from scipy import optimize

    x = np.linspace(a, b, points)
    y = f(x)
    return [optimize.brentq(_scalar(f), x[i], x[i + 1], xtol=1e-300, rtol=1e-15)
            for i in np.flatnonzero(y[:-1] * y[1:] < 0)]


def reference_lp_integral(f, a, b, p=1.0):
    """integral of |f|^p over [a, b] by scipy quad, split at the brentq roots of f."""
    from scipy import integrate

    scalar = _scalar(f)
    edges = [a, *reference_roots(f, a, b), b]
    return sum(integrate.quad(lambda t: abs(scalar(t)) ** p, lo, hi, epsabs=0.0,
                              epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


def reference_sup(f, a, b, points=100_001):
    """sup |f| over [a, b]: a dense grid, its top local maxima refined by zooming."""
    x = np.linspace(a, b, points)
    y = np.abs(f(x))
    top, w = float(y.max()), x[1] - x[0]
    peak = (y >= np.maximum(np.roll(y, 1), np.roll(y, -1))) | (np.arange(points) % (points - 1) == 0)
    for c in x[peak & (y >= top * (1 - 1e-6))]:
        width = w
        for _ in range(3):
            xs = np.clip(np.linspace(c - width, c + width, 2001), a, b)
            ys = np.abs(f(xs))
            c, width = xs[np.argmax(ys)], width / 1000
            top = max(top, float(ys.max()))
    return top


def check_derivatives(v, points: int = 100, rel_tol: float = 1e-6) -> float:
    """Spot-check v', v'' against central finite differences at interior points.

    A test oracle for the profiles that are not polynomial.  Returns the
    worst relative error; raises AssertionError beyond rel_tol.
    """
    a, b = v.support
    # per-point steps proportional to |s| handle multiscale profiles
    # (radial ones compress features near r -> 0); the factor ladder
    # brackets the truncation/roundoff sweet spot
    pad = (b - a) * 1e-3
    s = np.linspace(a + pad, b - pad, points)
    v0, v1, v2 = v.jet(s)
    scale1 = float(np.max(np.abs(v1))) + 1e-30
    scale2 = float(np.max(np.abs(v2))) + 1e-30
    worst = math.inf
    for factor in (2e-4, 5e-5, 1.25e-5, 3e-6):
        h = factor * (np.abs(s) + (b - a) * 0.05)
        up, down = v(s + h), v(s - h)
        err1 = float(np.max(np.abs((up - down) / (2 * h) - v1))) / scale1
        err2 = float(np.max(np.abs((up - 2 * v0 + down) / h**2 - v2))) / scale2
        worst = min(worst, max(err1, err2))
    if worst > rel_tol:
        raise AssertionError(
            f"analytic derivatives disagree with finite differences: {worst:.3e}"
        )
    return worst


def exact_lp_integral(P, a, b, p):
    """integral of |P|^p over [a, b] for a numpy Polynomial P and an integer p >= 1."""
    roots = sorted(r.real for r in P.roots() if abs(r.imag) < 1e-9 and a < r.real < b)
    edges = [a, *roots, b]
    Q = (P ** int(p)).integ()
    return sum(abs(Q(hi) - Q(lo)) for lo, hi in zip(edges[:-1], edges[1:]))


def log_squeezed(phi, eps):
    """v(s) = phi(e^{-eps s}) on [-log(b0)/eps, -log(a0)/eps], for phi supported
    in (a0, b0) with 0 < a0 < b0 < 1 and eps > 0; the jet by the chain rule."""
    from rellich import Profile1D

    a0, b0 = phi.support
    assert eps > 0 and 0.0 < a0 < b0 < 1.0, (eps, phi.support)

    def jet(s):
        x = np.exp(-eps * np.asarray(s, dtype=float))
        v0, v1, v2 = phi.jet(x)
        return v0, -eps * x * v1, eps**2 * (x**2 * v2 + x * v1)

    return Profile1D(jet, (-math.log(b0) / eps, -math.log(a0) / eps),
                     f"{phi.label}(r^eps), eps={eps:g}")


def exact_critical_alphas(P, p, n):
    """(alpha_n^-, alpha_n^+) = 2 - N/p + Re(h -/+ sqrt(D + lambda_n)), h = (N-2+c)/2,
    as Decimals: 60-digit arithmetic on the exact values of P's float inputs."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        N, c, b = map(decimal.Decimal, (P.N, P.c, P.b))
        h = (N - 2 + c) / 2
        z = b + h * h + n * (N + n - 2)
        w = z.sqrt() if z > 0 else decimal.Decimal(0)
        shift = 2 - (0 if math.isinf(p) else N / decimal.Decimal(p))
        return shift + h - w, shift + h + w
