"""Reference answers the benchmark checks the library against.

Written from the closed-form rules in the README, not from the library's
code: decisions by a brute-force scan over harmonic degrees j with an
explicit horizon, spectral membership by the parabola equations, and the
L^p norm of the polynomial bump by its Beta-function closed form.
"""

from __future__ import annotations

import math

TOL = 1e-9  # the library's default decision tolerance

# harmonic sets as plain tuples: ("all",), ("at_least", n0),
# ("finite", (j, ...)), ("excluding", (j, ...))


def inv_p(p: float) -> float:
    return 0.0 if math.isinf(p) else 1.0 / p


def inv_conj(p: float) -> float:
    """1/p' for the Hoelder conjugate p'."""
    return 1.0 - inv_p(p)


def disc(N: int, c: float, b: float) -> float:
    return b + ((N - 2 + c) / 2.0) ** 2


def base(N: int, c: float, p: float) -> float:
    return N * (0.5 - inv_p(p)) + 1.0 + c / 2.0


def lam(N: int, j: int) -> float:
    return float(j * (N + j - 2))


def re_root(D: float, N: int, j: int) -> float:
    z = D + lam(N, j)
    return math.sqrt(z) if z > 0 else 0.0


def gamma(N: int, p: float, alpha: float, c: float) -> float:
    return (N * inv_p(p) - 2.0 + alpha) * (N * inv_conj(p) - alpha + c)


def contains(J: tuple, j: int) -> bool:
    kind = J[0]
    if kind == "all":
        return True
    if kind == "at_least":
        return j >= J[1]
    if kind == "finite":
        return j in J[1]
    return j not in J[1]


def min_index(J: tuple) -> int:
    j = 0
    while not contains(J, j):
        j += 1
    return j


def members(J: tuple, N: int, D: float, reach: float) -> list[int]:
    """Degrees in J whose D + lambda_j does not exceed reach^2."""
    if J[0] == "finite":
        return [j for j in J[1] if D + lam(N, j) <= reach**2]
    out, j = [], 0
    while D + lam(N, j) <= reach**2:
        if contains(J, j):
            out.append(j)
        j += 1
    return out


def certified_constant(N, c, b, p, alpha):
    """b + gamma_p inside the symmetric range |base - alpha| < sqrt(D), else None."""
    D = disc(N, c, b)
    if D <= 0 or abs(base(N, c, p) - alpha) >= math.sqrt(D):
        return None
    return b + gamma(N, p, alpha, c)


def _ball(N, c, b, p, alpha, J):
    D, bs = disc(N, c, b), base(N, c, p)
    j0 = min_index(J)
    modes = []
    if alpha >= bs + re_root(D, N, j0) - TOL:
        modes.append((j0, "boundary_obstruction"))
    # a minus hit needs Re sqrt(D + lambda_j) = base - alpha within TOL
    for j in members(J, N, D, max(bs - alpha, 0.0) + 1.0):
        if abs(alpha - (bs - re_root(D, N, j))) <= TOL:
            modes.append((j, "minus"))
    return modes


def decide(N, c, b, p, alpha, domain: str, J: tuple):
    """(failing modes as (j, branch) pairs, best constant or None)."""
    D, bs = disc(N, c, b), base(N, c, p)
    if domain == "whole_space":
        modes = []
        for j in members(J, N, D, abs(alpha - bs) + 1.0):
            r = re_root(D, N, j)
            minus = abs(alpha - (bs - r)) <= TOL
            plus = abs(alpha - (bs + r)) <= TOL
            if minus:
                modes.append((j, "minus"))
            if plus and not (minus and r <= TOL):
                modes.append((j, "plus"))
    elif domain in ("unit_ball", "bounded_smooth"):
        modes = _ball(N, c, b, p, alpha, J)
    else:
        # exterior: Kelvin transform to the ball, its minus exclusions are
        # the exterior plus exclusions
        tc, tb = -c, b + (N - 2) * c
        talpha = -alpha + N + 2.0 - 2.0 * N * inv_p(p)
        modes = [(j, "plus" if br == "minus" else br)
                 for j, br in _ball(N, tc, tb, p, talpha, ("all",))]
        if not modes and domain == "exterior_ball":
            return modes, certified_constant(N, tc, tb, p, talpha)
        return modes, None
    if modes or J[0] != "all":
        return modes, None
    return modes, certified_constant(N, c, b, p, alpha)


def region(N: int, c: float, p: float) -> tuple[float, float]:
    """(k, omega) of the parabola P = {-xi^2 + i k xi - omega}."""
    k = N * (1.0 - 2.0 * inv_p(p)) - 2.0 + c
    omega = 0.0 if math.isinf(p) else (N / p**2) * (p * (N - 2 + c) - N)
    return k, omega


def on_parabola(k: float, omega: float, z: complex) -> bool:
    slack = TOL * (1.0 + abs(z))
    if k == 0.0:
        return abs(z.imag) <= slack and z.real <= -omega + slack
    return abs(z.real + (z.imag / k) ** 2 + omega) <= slack


def in_region(k: float, omega: float, z: complex) -> bool:
    slack = TOL * (1.0 + abs(z))
    if k == 0.0:
        return abs(z.imag) <= slack and z.real <= -omega + slack
    return z.real <= -((z.imag / k) ** 2) - omega + slack


def spectrum_A(N, c, p, J: tuple, domain: str, z: complex) -> bool:
    """Is z in the spectrum of A = |x|^2 Delta + c x.grad on L^p_J?"""
    k, omega = region(N, c, p)
    if domain == "unit_ball":
        return in_region(k, omega, z + lam(N, min_index(J)))
    # P - lambda_j contains z only if lambda_j <= -omega - Re z + slack
    reach = (-omega - z.real + TOL * (1.0 + abs(z))) / (1.0 - TOL) + 1.0
    j = 0
    while lam(N, j) <= reach:
        if contains(J, j) and on_parabola(k, omega, z + lam(N, j)):
            return True
        j += 1
        if J[0] == "finite" and j > J[1][-1]:
            break
    return False


def spectrum_gamma(N, c, p, interval: str, z: complex) -> bool:
    k, omega = region(N, c, p)
    if interval == "half_line":
        return on_parabola(k, omega, z)
    return in_region(k, omega, z)


def bump_norm(a: float, b: float, p: float) -> float:
    """||(1 - t^2)^3 mapped onto [a, b]||_p = ((b - a)/2 * B(1/2, 3p + 1))^(1/p)."""
    if math.isinf(p):
        return 1.0
    beta = math.exp(math.lgamma(0.5) + math.lgamma(3 * p + 1) - math.lgamma(3 * p + 1.5))
    return (0.5 * (b - a) * beta) ** (1.0 / p)
