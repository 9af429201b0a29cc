"""Independent references for L^p norms, written apart from rellich.quadrature.

``reference_roots`` finds the sign changes of f by brentq and
``reference_lp_integral`` integrates |f|^p by scipy's quad between them;
``reference_sup`` takes the largest |f| of a dense grid and refines each
near-top local maximum on three finer grids;
``exact_lp_integral`` integrates |P|^p for a numpy polynomial P and an
integer p exactly, between the roots of P.
"""

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


def exact_lp_integral(P, a, b, p):
    """integral of |P|^p over [a, b] for a numpy Polynomial P and an integer p >= 1."""
    roots = sorted(r.real for r in P.roots() if abs(r.imag) < 1e-9 and a < r.real < b)
    edges = [a, *roots, b]
    Q = (P ** int(p)).integ()
    return sum(abs(Q(hi) - Q(lo)) for lo, hi in zip(edges[:-1], edges[1:]))
