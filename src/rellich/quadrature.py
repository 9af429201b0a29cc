"""Gauss-Legendre integrals and L^p norms on an interval, from Legendre series.

``integrate(f, a, b)`` is the signed integral of f and ``lp_norm(f,
support, p, weight=None)`` the norm ||f||_{L^p(support, weight dx)},
1 <= p <= inf, computed from the signed f.  Both return (value, err).  An
integrand maps an array of points to an array of the same shape; for
``lp_norm`` it may also be a stack of rows, as its docstring says.  Any
other integrand or result raises PreconditionViolated, as does a limit that
is not finite, and a non-finite value NonFiniteIntegrand, which names rows
of the stack.

Both read f as chebfun does (Battles & Trefethen, SISC 2004): the Legendre
series of the polynomial that interpolates f at the ``NODES`` Gauss nodes
of an interval, chopped where it reaches rounding, is resolved when it is
short; an interval whose series is not is halved, up to a fixed number of
pieces.  A signed integral is the sum of the pieces' Gauss sums, and to a
point inside a piece it adds that piece's Legendre antiderivative
(chebfun's cumsum), so one call integrates to many upper limits.

For finite p, |f|^p has kinks at the sign changes of f, the real roots of
the series (eigenvalues of a colleague matrix).  ``lp_norm`` returns sums
graded by t = 3u^2 - 2u^3 (the substitution that periodises integrands for
lattice rules, Sloan & Joe 1994): it turns the end behaviour |t - r|^p of
an interval into u^(2p+1), smooth when 2p is an integer and at least u^3,
so one rule per interval needs no refinement.  Where the plain 1-panel sum
on the support agrees with the graded 2-panel one to ``REL_TOL``, as it
does where f is smooth inside, the latter is the integral.  Otherwise the
support is split at the roots, and each piece takes graded 1- and 2-panel
sums.  For p = inf the norm is the largest |f| at the ends and at the
critical points, the real roots of the series' derivative.

A stack is read as a whole, every row alike: one ``_resolve`` of all the
rows that need one, one ``eigvals`` call per degree of their series, and
one call of the stack per pass (the first pass, each round of halving,
the graded pass over the pieces of every split row, the sup candidates).
The first pass calls it at the shared nodes; later passes go through one
sampler, which gives each piece the values of its own row.  A stack that
can pick, one with a method ``pick(x, rows)``, evaluates each piece's own
row alone; any other is evaluated in every row at every piece, and each
piece takes its own.
The Gauss nodes of a pass come from one cached layout on [-1, 1], mapped
onto every piece at once.  No row's result depends on the rows around it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteIntegrand, OutOfRange, PreconditionViolated
from .params import check_finite, check_p

#: Gauss-Legendre points per panel.  The resolver's series has as many
#: terms and resolves degrees below three quarters of that (the package's
#: integrands reach degree 8)
NODES = 64

#: the graded 2-panel sum of |f|^p on the support is taken when the plain 1-panel
#: one agrees to this share of it; otherwise f is split at its sign changes
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


class _Pieces(NamedTuple):
    """Pieces [lo, hi] of the rows that ``_resolve`` reads, one entry each."""

    lo: np.ndarray
    hi: np.ndarray
    row: np.ndarray  # its row's position among the rows resolved
    c: np.ndarray  # (pieces, NODES) Legendre coefficients of its interpolant, times 2^-scale
    vals: np.ndarray  # (pieces, NODES) its row at its Gauss nodes
    degree: np.ndarray  # of the series chopped at _CHOP
    scale: np.ndarray  # the exponent of its largest |value|, as np.frexp gives it


#: the node layouts of the passes, as (panels, graded) rules: the plain
#: 1-panel rule (the resolver's samples, the sup's first pass), the finite-p
#: first pass and the graded pass over split pieces
_PLAIN = ((1, False),)
_FIRST = ((1, False), (2, True))
_GRADED = ((1, True), (2, True))

#: a piece's series is resolved below this degree
_RESOLVED = NODES - NODES // 4


@lru_cache(maxsize=8)
def _layout(rules) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) on [-1, 1] of rules, concatenated; ``_rule`` maps them.

    A rule (k, graded) is k NODES-point Gauss-Legendre panels; graded maps
    their nodes through t = 3u^2 - 2u^3 of u = (x + 1) / 2, weights times 6u(1 - u).
    """
    x0, w0 = np.polynomial.legendre.leggauss(NODES)
    xs, ws = [], []
    for k, graded in rules:
        centres = (2.0 * np.arange(k) + 1.0 - k) / k
        x, w = (centres[:, None] + x0 / k).ravel(), np.tile(w0 / k, k)
        if graded:
            u = 0.5 * (x + 1.0)
            x, w = 2.0 * u * u * (3.0 - 2.0 * u) - 1.0, 6.0 * u * (1.0 - u) * w
        xs.append(x)
        ws.append(w)
    x, w = np.concatenate(xs), np.concatenate(ws)
    for m in (x, w):
        m.setflags(write=False)  # shared by every caller of the cache
    return x, w


def _shaped(vals, pts: np.ndarray, stack: int | None) -> np.ndarray:
    """vals, f's floats at the 1-D pts, as a (rows, len(pts)) array: they must be of the
    shape of pts, or of (stack, *pts.shape) for f that returns a stack of rows."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (pts.shape if stack is None else (stack, *pts.shape)):
        raise PreconditionViolated(f"an integrand must map an array to an array of its shape "
                                   f"(for lp_norm, or to a stack of them, as at its first call): "
                                   f"got shape {vals.shape} for nodes of shape {pts.shape}")
    return vals.reshape(1 if stack is None else stack, len(pts))


def _finite(vals: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """vals, whose entry i holds values of row rows[i], if they are finite: else
    NonFiniteIntegrand names the rows of the entries that are not."""
    if not np.isfinite(vals).all():
        bad = ~np.isfinite(vals.reshape(len(rows), -1)).all(axis=1)
        raise NonFiniteIntegrand("integrand returned non-finite values",
                                 tuple(np.unique(rows[bad]).tolist()))
    return vals


def _check_integrand(f) -> None:
    """PreconditionViolated unless f is callable, as both forms of an integrand are."""
    if not callable(f):
        raise PreconditionViolated(f"an integrand must be a callable of one row, or for lp_norm "
                                   f"of one row or a stack of rows: got {type(f).__name__}")


def _sampler(f, stack: int | None):
    """S(x, rows) for f, whose result is a stack of stack rows (None: one row).

    S gives, for each entry i of the int array rows, row rows[i] of f's stack
    at x[i] (a point, or a piece's row of nodes), in the shape of x.  A stack
    that can pick, one with a method ``f.pick(x, rows)`` that returns just
    that, is asked for it, so each entry's own row alone is evaluated; any
    other f is called at every point of x, and each entry takes its own row.
    Only the entries' own values must be finite.  A pick may write them over
    x, which is the sampler's to spend.
    """
    pick = getattr(f, "pick", None) if stack is not None else None
    if pick is None:
        def pick(x, rows):
            pts = x.ravel()
            v = _shaped(f(pts), pts, stack)
            return v.reshape(len(v), *x.shape)[rows, np.arange(len(rows))]

    def S(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        v = np.asarray(pick(x, rows), dtype=float)
        if v.shape != x.shape:
            raise PreconditionViolated(f"a stack's pick(x, rows) must return an array of the "
                                       f"shape of x {x.shape}, got shape {v.shape}")
        return _finite(v, rows)

    return S


def _rule(lo, hi, rules) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the layout of rules mapped onto [lo, hi]: the one
    place where Gauss nodes are mapped onto an interval.

    lo and hi are floats, or (m, 1) arrays for m pieces, one row of nodes
    and weights each.
    """
    x, w = _layout(rules)
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * x, half * w


@lru_cache(maxsize=1)
def _legendre():
    """(T, D, J, scl) for series of NODES Legendre terms on [-1, 1].

    T maps values at the NODES Gauss nodes to the coefficients of the
    interpolant.  It is the inverse of the Legendre-Vandermonde matrix: the
    transposed Gauss rule is exact too, but at 64 nodes it leaves rounding
    of 2e-13 in the coefficients, a hundred times more.  D maps
    coefficients to those of the derivative, and J with scl gives the
    colleague matrices of ``_colleague``.
    """
    x, _ = _layout(_PLAIN)
    k = np.arange(NODES)
    T = np.linalg.inv(np.polynomial.legendre.legvander(x, NODES - 1))
    D = np.where((k > k[:, None]) & ((k - k[:, None]) % 2 == 1), 2.0 * k[:, None] + 1, 0.0)
    scl = 1.0 / np.sqrt(2.0 * k + 1)
    J = np.diag(k[1:] * scl[:-1] * scl[1:], 1)
    out = T, D, J + J.T, scl
    for m in out:
        m.setflags(write=False)  # shared by every caller of the cache
    return out


def _rowwise(block: np.ndarray, M: np.ndarray) -> np.ndarray:
    """block @ M.T, row by row: a row's result does not depend on the rows around it,
    as it would in one 2-D product."""
    return (block[:, None, :] @ M.T)[:, 0]


def _colleague(c: np.ndarray) -> np.ndarray:
    """Colleague matrices, shape (k, d, d), of the k series sum_j c[i, j] P_j with
    c[i, d] != 0: the eigenvalues of matrix i are the roots of series i."""
    _, _, J, scl = _legendre()
    d = c.shape[1] - 1
    m = J[:d, :d][None].repeat(len(c), 0)
    m[..., -1] -= c[:, :-1] * (scl[:d] * (d / ((2 * d - 1) * scl[d - 1] * c[:, -1:])))
    return m


def _resolve(S, a: float, b: float, vals: np.ndarray, rows) -> _Pieces:
    """The pieces of [a, b] on which each row's Legendre series resolves, or not.

    vals[i] holds row rows[i] of the stack at the NODES Gauss nodes of
    [a, b].  A piece's series is that of its values times 2^-scale, at most
    1 in size, so that rows near the float maximum keep finite coefficients;
    its degree, without the trailing coefficients below _CHOP of the
    largest, is resolved below _RESOLVED.  Unresolved pieces are halved, the
    halves of every row sampled by one call of the sampler S (see
    ``_sampler``), while the row has sampled at most _MAX_PIECES pieces.
    """
    T = _legendre()[0]
    k = len(vals)
    lo, hi, row = np.array([float(a)] * k), np.array([float(b)] * k), np.arange(k)
    sampled, final = 1, []  # pieces each row has sampled
    while True:
        scale = np.frexp(np.abs(vals).max(axis=1))[1]
        c = _rowwise(np.ldexp(vals, -scale[:, None]), T)
        mag = np.abs(c)
        big = mag > _CHOP * mag.max(axis=1, keepdims=True)
        big[:, 0] = True  # a piece where f vanishes has degree 0
        final.append(_Pieces(lo, hi, row, c, vals, NODES - 1 - big[:, ::-1].argmax(axis=1),
                             scale))
        if max(final[-1].degree.tolist()) < _RESOLVED:
            break
        # each row halves its unresolved pieces while it has sampled at most _MAX_PIECES
        unresolved = final[-1].degree >= _RESOLVED
        sampled += 2 * np.bincount(row[unresolved], minlength=k)
        halve = unresolved & (sampled <= _MAX_PIECES)[row]
        if not halve.any():
            break
        final[-1] = _Pieces(*(m[~halve] for m in final[-1]))
        lo, hi, row = lo[halve], hi[halve], np.repeat(row[halve], 2)
        mid = 0.5 * (lo + hi)
        lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
        vals = S(_rule(lo[:, None], hi[:, None], _PLAIN)[0], np.asarray(rows)[row])
    return final[0] if len(final) == 1 else _Pieces(*map(np.concatenate, zip(*final)))


def _locate(S, a: float, b: float, vals: np.ndarray, rows,
            sup: bool) -> list[tuple[np.ndarray, float]]:
    """(sorted real roots inside (a, b) of f, or of f' when sup, bound) for
    each row f of the stack named by rows, as chebfun finds them.

    vals[i] holds row rows[i] at the NODES Gauss nodes of [a, b].  One
    ``_resolve`` reads every row, with one call of the sampler S per round
    of halving.
    The resolved pieces are grouped by the degree of their chopped series
    (or of its derivative), and each group takes one ``eigvals`` call on
    the stack of its colleague matrices (Battles & Trefethen, SISC 2004).
    The eigenvalues, a few per piece, are filtered and mapped to s as
    Python floats, which costs less here than a dozen array operations on
    each group.  A root counts as real up to _NEAR_REAL, since
    rounding can split a double root into a near-real pair, and one within
    _NEAR_REAL of an end of the support is that end.  The halving points
    count too, except one between two unresolved pieces of the row.  For
    finite p those stay inside a piece; for the sup their nodes are
    candidates, and bound is the largest node value plus its spread (as in
    ``_sup_at``), 0 without such pieces.
    """
    D = _legendre()[1]
    near = _NEAR_REAL * (b - a)
    lo, hi, row, c, v, degree, _ = _resolve(S, a, b, vals, rows)
    groups = {}  # degree of the series whose roots are sought -> its pieces
    for j, d in enumerate(degree.tolist()):
        if sup < d < _RESOLVED:
            groups.setdefault(d - sup, []).append(j)
    ends, row_of = (lo.tolist(), hi.tolist()), row.tolist()
    out = [[] for _ in range(len(vals))]
    for d, j in groups.items():
        cj = c[:, :d + 1 + sup].take(j, 0)
        cd = _rowwise(cj, D[:d + 1, :d + 2]) if sup else cj
        for i, t in zip(j, np.linalg.eigvals(_colleague(cd)).tolist()):
            mid, half = 0.5 * (ends[0][i] + ends[1][i]), 0.5 * (ends[1][i] - ends[0][i])
            out[row_of[i]] += [mid + half * r.real for r in t
                               if half * abs(r.imag) <= near and abs(r.real) <= 1.0 + _NEAR_REAL]
    bound = [0.0] * len(vals)
    if len(lo) > len(vals):  # pieces were halved
        resolved = degree < _RESOLVED
        # f may have a kink where a piece was halved, unless it lies between
        # two pieces of its row that stayed unresolved
        stuck = set.intersection(*(set(zip(row[~resolved].tolist(), e[~resolved].tolist()))
                                   for e in (lo, hi)))
        for r, x in zip(row_of, ends[0]):
            if x != a and (r, x) not in stuck:
                out[r].append(x)
        if sup and not resolved.all():
            u = ~resolved
            for r, x in zip(row[u].tolist(), _rule(lo[u, None], hi[u, None], _PLAIN)[0].tolist()):
                out[r] += x
            v = np.abs(v[u])
            lower = np.minimum(np.concatenate((v[:, :1], v[:, :-1]), axis=1),
                               np.concatenate((v[:, 1:], v[:, -1:]), axis=1))
            for r, x in zip(row[u].tolist(), np.max(2.0 * v - lower, axis=1).tolist()):
                bound[r] = max(bound[r], x)
    return [(np.array(sorted(x for x in xs if a + near < x < b - near)), e)
            for xs, e in zip(out, bound)]


def integrate(f, a: float, b):
    """(integral of f from a to b, or to each entry of an array b, error estimate).

    One ``_resolve`` of [a, max b]: the pieces' Gauss sums, plus the
    Legendre antiderivative of the piece where an entry of b ends; an entry
    at most a gives 0.  err sums each piece's width times its last two
    coefficients (two for series of one parity), so a piece still
    unresolved at the cap makes it large, and the rounding of each Gauss
    sum, ``_ROUNDING`` times the sum of its terms' sizes.
    """
    _check_integrand(f)
    check_finite("the lower limit", a)
    if not np.isfinite(b).all():
        raise PreconditionViolated(f"the upper limit must be finite, got {b}")
    top = float(np.max(b))
    if top <= a:
        return (np.zeros(np.shape(b)) if np.ndim(b) else 0.0), 0.0
    S = _sampler(f, None)
    pts = _rule(a, top, _PLAIN)[0]
    pieces = _resolve(S, a, top, S(pts[None], np.zeros(1, int)), range(1))
    by_lo = np.argsort(pieces.lo)
    lo, hi, _, c, vals, _, scale = (m[by_lo] for m in pieces)
    half = 0.5 * (hi - lo)
    w = _layout(_PLAIN)[1]
    sums = half * (vals @ w)
    tails = np.ldexp(2.0 * np.abs(c[:, -2:]).sum(axis=1), scale)
    err = float(np.sum(half * (tails + _ROUNDING * (np.abs(vals) @ w))))
    if not np.ndim(b):
        return float(np.sum(sums)), err
    x = np.maximum(np.asarray(b, dtype=float), a)
    i = np.searchsorted(lo, x, "right") - 1
    F = np.ldexp(np.polynomial.legendre.legint(c, lbnd=-1, axis=1), scale[:, None])
    t = np.polynomial.legendre.legvander((x - lo[i]) / half[i] - 1.0, NODES)
    before = np.cumsum(sums) - sums
    return np.where(x > a, before[i] + half[i] * np.sum(t * F[i], axis=-1), 0.0), err


def _sup_at(S, a: float, b: float, found: list) -> list[tuple[float, float]]:
    """(max |f| over a, b and the critical points xs of f, err) for each row f of the
    stack, found holding each row's (xs, bound) from ``_locate``.

    a, b and the candidates of every row are sampled by one call of the
    sampler S, each point in its own row.
    Each critical point also gets neighbours at +-h = sqrt(eps) (b - a),
    inside [a, b] since ``_locate`` keeps the points _NEAR_REAL (b - a)
    inside.  The computed point lies far within h/2 of the exact one, so the
    best of the three plus their spread (the centre minus the lower
    neighbour, at least four times the shortfall of the centre near a
    smooth maximum) bounds |f| there; the spread also shows the rounding of
    f.  err is at least bound - max.
    """
    h = math.sqrt(math.ulp(1.0)) * (b - a)
    k = len(found)
    xs = np.concatenate([x for x, _ in found])
    owner = np.repeat(np.arange(k), [len(x) for x, _ in found])
    rows = np.concatenate((np.arange(k), np.arange(k), owner, owner, owner))
    v = np.abs(S(np.concatenate(([a] * k, [b] * k, xs - h, xs, xs + h)), rows))
    top = np.maximum(v[:k], v[k:2 * k]).tolist()
    bound = top.copy()
    trios = v[2 * k:].reshape(3, len(xs)).T.tolist()
    for r, trio in zip(owner.tolist(), trios):
        peak = max(trio)
        top[r], bound[r] = max(top[r], peak), max(bound[r], 2.0 * peak - min(trio))
    return [(t, max(u - t, math.ulp(t), e - t)) for t, u, (_, e) in zip(top, bound, found)]


def _weight_at(weight, x: np.ndarray) -> np.ndarray:
    """The weight of ``lp_norm`` at the nodes x, which must be finite and positive."""
    w = np.asarray(weight(x), dtype=float)
    if w.shape != x.shape or not (np.isfinite(w).all() and (w > 0).all()):
        raise PreconditionViolated(f"a weight must be finite and positive at the nodes, in an "
                                   f"array of their shape {x.shape} (got shape {w.shape})")
    return w


def lp_norm(f, support: tuple[float, float], p: float,
            weight=None) -> tuple[float, float] | list[tuple[float, float]]:
    """(||f||_{L^p(support, weight dx)}, error estimate of the norm) for 1 <= p <= inf.

    f, the signed function, maps an array of points to an array of the
    same shape, or to a stack of k such rows, shape (k, *points.shape),
    for which the result is a list of k (norm, err) pairs; a stack may pick
    (see the module docstring).  Each row gets what it would get alone, its
    own first pass, split points and sup candidates, though the rows share
    every pass.  For finite p the estimate is the change from the plain 1-
    to the graded 2-panel sum on the support, or from the graded 1- to
    2-panel sum on each piece, plus their rounding; for p = inf it is the
    spread of |f| around the sup.  An empty support (b <= a) gives zeros.
    A weight, a callable like f of one row, multiplies the Gauss weights of
    the first pass and of the graded pass; the sup ignores it, as any
    positive weight leaves the ess sup as it is.  ValueError for p outside
    [1, inf], PreconditionViolated for an f that is not callable, an end of
    the support that is not finite or a weight that is not finite and
    positive at the nodes, OutOfRange where the integral of |f|^p is beyond
    float range.
    """
    p = check_p(p)
    a, b = support
    check_finite("the lower end of the support", a)
    check_finite("the upper end of the support", b)
    _check_integrand(f)
    sup = math.isinf(p)
    pts, wts = _rule(a, b, _PLAIN if sup else _FIRST) if b > a else (np.empty(0), None)
    if weight is not None and not sup and b > a:
        wts = wts * _weight_at(weight, pts)
    vals = np.asarray(f(pts), dtype=float)
    stack = len(vals) if vals.ndim == 2 else None
    vals = _finite(_shaped(vals, pts, stack), np.arange(1 if stack is None else stack))
    S = _sampler(f, stack)
    if b <= a or not len(vals):
        out = [(0.0, 0.0)] * len(vals)
    elif sup:
        out = _sup_at(S, a, b, _locate(S, a, b, vals, range(len(vals)), sup=True))
    else:
        out = _lp_sums(S, a, b, p, vals, wts, weight)
    return out[0] if stack is None else out


def _lp_sums(S, a: float, b: float, p: float, vals, wts,
             weight) -> list[tuple[float, float]]:
    """(norm, err) at finite p of each row of vals, the plain 1- and graded 2-panel first pass
    with the Gauss weights wts, the weight's values included.

    The rows whose two sums disagree are split at their own sign changes,
    found by one ``_locate``, and the pieces of all of them take their
    graded 1- and 2-panel sums from one call of the sampler S, their Gauss
    weights times the weight where there is one.
    """
    def sums(g, w):
        """The 1- and 2-panel sums of g^p w in each row of g = |f|, which they overwrite
        with g^p w."""
        g **= p
        g *= w
        return np.add.reduceat(g, [0, NODES], axis=1).tolist()

    with np.errstate(over="ignore"):  # an overflow is the OutOfRange below
        first = sums(np.abs(vals), wts)
        total, err = [two for _, two in first], [abs(two - one) for one, two in first]
        # a sum that overflows is the OutOfRange below, without a locate: its
        # series would overflow too
        split = [i for i, (t, e) in enumerate(zip(total, err)) if not e <= REL_TOL * t]
        if split and all(map(math.isfinite, total)):
            edges = [[a, *xs.tolist(), b]
                     for xs, _ in _locate(S, a, b, vals[split, :NODES], split, sup=False)]
            lo = np.array([x for e in edges for x in e[:-1]])[:, None]
            hi = np.array([x for e in edges for x in e[1:]])[:, None]
            row = [i for i, e in zip(split, edges) for _ in e[1:]]
            pts, wts = _rule(lo, hi, _GRADED)
            if weight is not None:  # before S writes its values over pts
                wts *= _weight_at(weight, pts)
            graded = sums(np.abs(S(pts, np.array(row)), out=pts), wts)
            at = 0
            for i, e in zip(split, edges):  # each split row's sums over its own pieces
                mine, at = graded[at:at + len(e) - 1], at + len(e) - 1
                total[i] = sum(two for _, two in mine)
                err[i] = sum(abs(two - one) for one, two in mine)
    out = []
    for t, e in zip(total, err):
        if not math.isfinite(t):
            raise OutOfRange(f"the integral of |f|^p is beyond float range at p={p}")
        e += _ROUNDING * t
        norm = t ** (1.0 / p)
        out.append((norm, e ** (1.0 / p)) if t <= 0 else (norm, norm * (e / t) / p))
    return out
