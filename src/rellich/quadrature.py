"""Gauss-Legendre integrals and L^p norms on an interval, from Legendre series.

``integrate(f, a, b)`` is the signed integral of f and ``lp_norm(f,
support, p)`` the norm ||f||_{L^p(support)}, 1 <= p <= inf, computed from
the signed f.  Both return (value, err).  An integrand maps an array of
points to an array of the same shape; for ``lp_norm`` it may instead map
them to a stack of k such rows, shape (k, *points.shape), and gets k
(norm, err) pairs, each the one its row would get alone, from one sample
of f per pass.  Any other result raises PreconditionViolated, as does a
limit that is not finite, and a non-finite value NonFiniteIntegrand.

Both read f as chebfun does (Battles & Trefethen, SISC 2004): the Legendre
series of the polynomial that interpolates f at the ``NODES`` Gauss nodes
of an interval, chopped where it reaches rounding, is resolved when it is
short; an interval whose series is not is halved, up to a fixed number of
pieces.  A signed integral is the sum of the pieces' Gauss sums, and to a
point inside a piece it adds that piece's Legendre antiderivative
(chebfun's cumsum), so one call integrates to many upper limits.

For finite p, |f|^p has kinks at the sign changes of f, the real roots of
the series (eigenvalues of a colleague matrix).  ``lp_norm`` returns when
its 1- and 2-panel sums agree to ``REL_TOL``, as they do for smooth
integrands.  Otherwise it splits the support at the roots and takes, once
on every piece, 1- and 2-panel sums graded by t = 3u^2 - 2u^3 (the
substitution that periodises integrands for lattice rules, Sloan & Joe
1994): it turns the end behaviour |t - r|^p of a piece into u^(2p+1),
which is smooth when 2p is an integer and at least u^3, so one rule per
piece needs no refinement.  For p = inf the norm is the largest |f| at
the ends and at the critical points, the real roots of the series'
derivative.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import NonFiniteIntegrand, OutOfRange, PreconditionViolated
from .params import check_finite, check_p

#: Gauss-Legendre points per panel.  The resolver's series has as many
#: terms and resolves degrees below three quarters of that (the package's
#: integrands reach degree 8)
NODES = 64

#: the 1- and 2-panel sums of |f|^p on the support are taken when they agree
#: to this share of the integral; otherwise f is split at its sign changes
REL_TOL = 1e-10

#: rounding of a NODES-point sum, relative to the sum of its terms' sizes
_ROUNDING = NODES * math.ulp(1.0)

#: a Legendre coefficient below this share of the largest one counts as
#: zero; a series is resolved when its last quarter is zero
_CHOP = 1e-10

#: pieces the resolver samples at most, the first included
_MAX_PIECES = 64

#: largest imaginary part of a root taken as real, and nearest distance of
#: a split point to an end of the support, both relative to the support
_NEAR_REAL = 1e-6


@lru_cache(maxsize=32)
def _layout(k: int, graded: bool) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of k NODES-point Gauss-Legendre panels on [-1, 1]; ``_rule`` maps them.

    graded maps the nodes through t = 3u^2 - 2u^3 of u = (x + 1) / 2, weights times 6u(1 - u).
    """
    x, w = np.polynomial.legendre.leggauss(NODES)
    centres = (2.0 * np.arange(k) + 1.0 - k) / k
    x, w = (centres[:, None] + x / k).ravel(), np.tile(w / k, k)
    if graded:
        u = 0.5 * (x + 1.0)
        x, w = 2.0 * u * u * (3.0 - 2.0 * u) - 1.0, 6.0 * u * (1.0 - u) * w
    for m in (x, w):
        m.setflags(write=False)  # shared by every caller of the cache
    return x, w


def _checked(vals: np.ndarray, pts: np.ndarray, rows: int | None) -> np.ndarray:
    """vals, which must hold finite floats of the shape of pts, or of (rows, *pts.shape)."""
    if vals.shape != (pts.shape if rows is None else (rows, *pts.shape)):
        raise PreconditionViolated(f"an integrand must map an array to an array of its shape "
                                   f"(for lp_norm, or to a stack of them, as at its first call): "
                                   f"got shape {vals.shape} for nodes of shape {pts.shape}")
    if not np.isfinite(vals).all():
        raise NonFiniteIntegrand("integrand returned non-finite values")
    return vals


def _sample(f, pts: np.ndarray, rows: int | None = None) -> np.ndarray:
    """f(pts), checked by ``_checked``."""
    return _checked(np.asarray(f(pts), dtype=float), pts, rows)


def _rule(jobs, graded=False):
    """Composite rules for (a, b, panels) jobs, concatenated: the one place
    where Gauss nodes are mapped onto an interval.

    Returns (nodes, weights, offsets), offsets[i] being where the nodes
    of job i start.  graded takes the graded layouts of ``_layout``.
    """
    pts, wts = [], []
    for a, b, k in jobs:
        x, w = _layout(k, graded)
        half = 0.5 * (b - a)
        pts.append(0.5 * (a + b) + half * x)
        wts.append(half * w)
    return np.concatenate(pts), np.concatenate(wts), list(accumulate(map(len, pts[:-1]), initial=0))


@lru_cache(maxsize=1)
def _legendre():
    """(T, D, J, scl) for series of NODES Legendre terms on [-1, 1].

    T maps values at the NODES Gauss nodes to the coefficients of the
    interpolant.  It is the inverse of the Legendre-Vandermonde matrix: the
    transposed Gauss rule is exact too, but at 64 nodes it leaves rounding
    of 2e-13 in the coefficients, a hundred times more.  D maps
    coefficients to those of the derivative, and J with scl gives the
    colleague matrix of ``_roots``.
    """
    x, _ = _layout(1, False)
    k = np.arange(NODES)
    T = np.linalg.inv(np.polynomial.legendre.legvander(x, NODES - 1))
    D = np.where((k > k[:, None]) & ((k - k[:, None]) % 2 == 1), 2.0 * k[:, None] + 1, 0.0)
    scl = 1.0 / np.sqrt(2.0 * k + 1)
    J = np.diag(k[1:] * scl[:-1] * scl[1:], 1)
    out = T, D, J + J.T, scl
    for m in out:
        m.setflags(write=False)  # shared by every caller of the cache
    return out


def _roots(c, J, scl) -> np.ndarray:
    """Complex roots of sum c[k] P_k, c[-1] != 0: eigenvalues of its colleague matrix."""
    d = len(c) - 1
    m = J[:d, :d].copy()
    m[:, -1] -= c[:-1] * (scl[:d] * (d / ((2 * d - 1) * scl[d - 1] * c[-1])))
    return np.linalg.eigvals(m)


def _resolve(f, a: float, b: float, vals: np.ndarray):
    """(done, rest): the pieces of [a, b] whose Legendre series resolves, and those that do not.

    vals holds f at the NODES Gauss nodes of [a, b].  A piece's degree is
    that of its interpolant's series without the trailing coefficients
    below _CHOP of the largest, and it is resolved below three quarters of
    NODES.  Unresolved pieces are halved, the halves sampled in one call,
    until _MAX_PIECES pieces have been sampled.  Each piece is (lo, hi,
    coefficients, values at the nodes, degree).
    """
    n = NODES
    T = _legendre()[0]
    pieces, done, sampled = [(a, b)], [], 1
    while True:
        rows = vals.reshape(len(pieces), n)
        c = T @ rows.T
        mag = np.abs(c)
        big = mag > _CHOP * mag.max(axis=0)
        big[0] = True  # a piece where f vanishes has degree 0
        degree = (n - 1 - np.argmax(big[::-1], axis=0)).tolist()
        rest = []
        for (lo, hi), ci, row, d in zip(pieces, c.T, rows, degree):
            (rest if d >= n - n // 4 else done).append((lo, hi, ci, row, d))
        if not rest or sampled + 2 * len(rest) > _MAX_PIECES:
            return done, rest
        sampled += 2 * len(rest)
        pieces = [half for lo, hi, *_ in rest
                  for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]
        vals = _sample(f, _rule([(lo, hi, 1) for lo, hi in pieces])[0])


def _locate(f, a: float, b: float, vals: np.ndarray, sup: bool) -> tuple[np.ndarray, float]:
    """(sorted real roots inside (a, b) of f, or of f' when sup, bound), as chebfun finds them.

    vals holds f at the NODES Gauss nodes of [a, b].  Each resolved piece
    of ``_resolve`` gives the real eigenvalues of the colleague matrix of
    its chopped series (or of its derivative).  A root counts as real up to
    _NEAR_REAL, since rounding can split a double root into a near-real
    pair, and one within _NEAR_REAL of an end of the support is that end.
    The halving points count too, except one between two unresolved
    pieces.  For finite p those stay inside a piece; for the sup
    their nodes are candidates, and bound is the largest node value plus
    its spread (as in ``_sup_at``), 0 without such pieces.
    """
    _, D, J, scl = _legendre()
    near = _NEAR_REAL * (b - a)
    done, rest = _resolve(f, a, b, vals)
    out, bound = [], 0.0
    for lo, hi, c, _, d in done:
        if d > (1 if sup else 0):  # f (f') has a root to find
            t = _roots(D[:d, :d + 1] @ c[:d + 1] if sup else c[:d + 1], J, scl)
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            out += [mid + half * r.real for r in t.tolist()
                    if half * abs(r.imag) <= near and abs(r.real) <= 1.0 + _NEAR_REAL]
    if rest and sup:
        out += _rule([(lo, hi, 1) for lo, hi, *_ in rest])[0].tolist()
        v = np.abs(np.array([row for *_, row, _ in rest]))
        lower = np.minimum(np.concatenate((v[:, :1], v[:, :-1]), axis=1),
                           np.concatenate((v[:, 1:], v[:, -1:]), axis=1))
        bound = float(np.max(2.0 * v - lower))
    # f may have a kink where a piece was halved, unless it lies between two
    # pieces that stayed unresolved
    inner = {lo for lo, *_ in rest} & {hi for _, hi, *_ in rest}
    out += [lo for lo, *_ in done + rest if lo != a and lo not in inner]
    return np.array(sorted(s for s in out if a + near < s < b - near)), bound


def integrate(f, a: float, b):
    """(integral of f from a to b, or to each entry of an array b, error estimate).

    One ``_resolve`` of [a, max b]: the pieces' Gauss sums, plus the
    Legendre antiderivative of the piece where an entry of b ends; an entry
    at most a gives 0.  err sums each piece's width times its last two
    coefficients (two for series of one parity), so a piece still
    unresolved at the cap makes it large, and the rounding of each Gauss
    sum, ``_ROUNDING`` times the sum of its terms' sizes.
    """
    check_finite("the lower limit", a)
    if not np.isfinite(b).all():
        raise PreconditionViolated(f"the upper limit must be finite, got {b}")
    top = float(np.max(b))
    if top <= a:
        return (np.zeros(np.shape(b)) if np.ndim(b) else 0.0), 0.0
    done, rest = _resolve(f, a, top, _sample(f, _rule([(a, top, 1)])[0]))
    lo, hi, c, vals, _ = (np.array(col) for col in zip(*sorted(done + rest, key=lambda q: q[0])))
    half = 0.5 * (hi - lo)
    w = _layout(1, False)[1]
    sums = half * (vals @ w)
    tails = 2.0 * np.abs(c[:, -2:]).sum(axis=1)
    err = float(np.sum(half * (tails + _ROUNDING * (np.abs(vals) @ w))))
    if not np.ndim(b):
        return float(np.sum(sums)), err
    x = np.maximum(np.asarray(b, dtype=float), a)
    i = np.searchsorted(lo, x, "right") - 1
    F = np.polynomial.legendre.legint(c, lbnd=-1, axis=1)
    t = np.polynomial.legendre.legvander((x - lo[i]) / half[i] - 1.0, NODES)
    before = np.cumsum(sums) - sums
    return np.where(x > a, before[i] + half[i] * np.sum(t * F[i], axis=-1), 0.0), err


def _sup_at(F, a: float, b: float, found: list) -> list[tuple[float, float]]:
    """(max |f| over a, b and the critical points xs of f, err) for each row f of F,
    found holding each row's (xs, bound) from ``_locate``.

    F(x) is the (rows, len(x)) sample of the stack; the candidates of every
    row are sampled in one call.  Each critical point also gets neighbours
    at +-h = sqrt(eps) (b - a).  The computed point lies far within h/2 of
    the exact one, so the best of the three plus their spread (the centre
    minus the lower neighbour, at least four times the shortfall of the
    centre near a smooth maximum) bounds |f| there; the spread also shows
    the rounding of f.  err is at least bound - max.
    """
    h = math.sqrt(np.finfo(float).eps) * (b - a)
    pts = [np.clip(np.concatenate(([a, b], xs - h, xs, xs + h)), a, b) for xs, _ in found]
    vals = np.abs(F(np.concatenate(pts)))
    ends = list(accumulate(map(len, pts)))
    out = []
    for row, lo, hi, (_, node_bound) in zip(vals, [0, *ends], ends, found):
        v = row[lo:hi]
        top = float(np.max(v))
        trio = v[2:].reshape(3, -1)
        bound = np.max(2.0 * trio.max(axis=0) - trio.min(axis=0), initial=top)
        out.append((top, max(float(bound) - top, math.ulp(top), node_bound - top)))
    return out


def lp_norm(f, support: tuple[float, float],
            p: float) -> tuple[float, float] | list[tuple[float, float]]:
    """(||f||_{L^p(support)}, error estimate of the norm) for 1 <= p <= inf.

    f, the signed function, maps an array of points to an array of the
    same shape, or to a stack of k such rows, shape (k, *points.shape),
    for which the result is a list of k (norm, err) pairs.  Each row gets
    what it would get alone: its own first pass, split points and sup
    candidates.  The rows share the Gauss nodes and one call of f per
    pass: the first pass, the graded pass over the pieces of every row that
    splits, and the sup candidates.  For finite p the estimate is the
    change from the 1- to the 2-panel sums, on the support or on each
    piece, plus their rounding; for p = inf it is the spread of |f| around
    the sup.  An empty support (b <= a) gives zeros.  ValueError for p
    outside [1, inf], PreconditionViolated for an end of the support that
    is not finite, OutOfRange where the integral of |f|^p is beyond float
    range.
    """
    p = check_p(p)
    a, b = support
    check_finite("the lower end of the support", a)
    check_finite("the upper end of the support", b)
    sup = math.isinf(p)
    if b > a:
        pts, wts, offsets = _rule([(a, b, 1)] if sup else [(a, b, 1), (a, b, 2)])
    else:
        pts = np.empty(0)
    first = np.asarray(f(pts), dtype=float)
    stack = len(first) if first.ndim == 2 else None
    rows = 1 if stack is None else stack  # a single f is one row

    def F(x):
        """f at the points x as a (rows, len(x)) array."""
        return _sample(f, x, stack).reshape(rows, len(x))

    vals = _checked(first, pts, stack).reshape(rows, len(pts))
    if b <= a or not rows:
        out = [(0.0, 0.0)] * rows
    elif sup:
        out = _sup_at(F, a, b, [_locate(lambda x, i=i: F(x)[i], a, b, vals[i], sup=True)
                                for i in range(rows)])
    else:
        out = _lp_sums(F, a, b, p, vals, wts, offsets)
    return out if stack is not None else out[0]


def _lp_sums(F, a: float, b: float, p: float, vals, wts, offsets) -> list[tuple[float, float]]:
    """(norm, err) at finite p of each row of vals, F's 1- and 2-panel first pass on [a, b].

    A row whose two sums disagree is split at its own sign changes, and the
    pieces of every such row take their graded 1- and 2-panel sums from one
    call of F.
    """
    def g(v):
        return np.abs(v) ** p

    with np.errstate(over="ignore"):  # an overflow is the OutOfRange below
        first = np.add.reduceat(g(vals) * wts, offsets, axis=1).tolist()
        pieces = {}  # row -> its pieces between sign changes
        for i, (i1, i2) in enumerate(first):
            if not abs(i2 - i1) <= REL_TOL * i2:
                edges = [a, *_locate(lambda x, i=i: F(x)[i], a, b, vals[i, :offsets[1]],
                                     sup=False)[0].tolist(), b]
                pieces[i] = list(zip(edges, edges[1:]))
        graded = {}  # row -> its graded (1-panel, 2-panel) sums, piece by piece
        if pieces:
            pts, wts, starts = _rule([(lo, hi, k) for row in pieces.values()
                                      for lo, hi in row for k in (1, 2)], graded=True)
            sample, starts, at = F(pts), [*starts, len(pts)], 0
            for i, row in pieces.items():  # each row's sums on the nodes of its own pieces
                lo, at = at, at + 2 * len(row)
                nodes = slice(starts[lo], starts[at])
                graded[i] = np.add.reduceat(g(sample[i, nodes]) * wts[nodes],
                                            [s - starts[lo] for s in starts[lo:at]]).tolist()
        out = []
        for i, (i1, i2) in enumerate(first):
            if i in graded:
                sums = graded[i]
                total = sum(sums[1::2])
                err = sum(abs(q - c) for c, q in zip(sums[0::2], sums[1::2]))
            else:
                total, err = i2, abs(i2 - i1)
            if not math.isfinite(total):
                raise OutOfRange(f"the integral of |f|^p is beyond float range at p={p}")
            err += _ROUNDING * total
            norm = total ** (1.0 / p)
            out.append((norm, err ** (1.0 / p)) if total <= 0 else (norm, norm * err / (p * total)))
    return out
