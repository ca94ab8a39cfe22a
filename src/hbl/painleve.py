"""Hastings-McLeod solution of Painleve II: q'' = s q + 2 q^3 with
q(s) ~ Ai(s) as s -> +infinity and q(s) ~ sqrt(-s/2) as s -> -infinity.

Shipped method: 6th-order finite-difference collocation on a uniform grid
with a damped inexact Newton iteration (double-precision banded Jacobian
solves steering an extended-precision residual).  Shooting is deliberately
not the shipped method; the connection problem is exponentially unstable
leftward and shooting survives only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
import numpy as np
import scipy.special
from mpmath import mp, mpf
from scipy.linalg import solve_banded

from . import numerics as nu
from .errors import DomainTooNarrow, NoConvergence, OutOfDomain

DEFAULT_TOL = mpf("1e-12")
MIN_TOL = mpf("1e-14")
_BANDWIDTH = 7
_INTERP_POINTS = 9


@lru_cache(maxsize=None)
def _fd_weights(offsets: tuple, order: int) -> tuple:
    """Exact finite-difference weights for d^order/ds^order at offset 0.

    Solves the Vandermonde moment system over rationals, so stencils of
    any one-sided shape are exact to polynomial degree len(offsets)-1.
    """
    n = len(offsets)
    rows = [[Fraction(o) ** r for o in offsets] for r in range(n)]
    rhs = [Fraction(factorial(r)) if r == order else Fraction(0) for r in range(n)]
    # Gaussian elimination over Fractions
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = rows[col][col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
                rhs[r] -= f * rhs[col]
    return tuple(rhs[i] / rows[i][i] for i in range(n))


def _second_derivative_stencils(npts: int):
    """(offsets, weights) per interior row for q'' on a unit grid, 6th order."""
    stencils = []
    for i in range(1, npts - 1):
        if 3 <= i <= npts - 4:
            offsets = tuple(range(-3, 4))
        elif i < 3:
            offsets = tuple(range(-i, 8 - i))
        else:
            offsets = tuple(range(-(7 - (npts - 1 - i)), npts - i))
        stencils.append((offsets, _fd_weights(offsets, 2)))
    return stencils


def _first_derivative_weights(i: int, npts: int):
    if 4 <= i <= npts - 5:
        offsets = tuple(range(-4, 5))
    elif i < 4:
        offsets = tuple(range(-i, 9 - i))
    else:
        offsets = tuple(range(-(8 - (npts - 1 - i)), npts - i))
    return offsets, _fd_weights(offsets, 1)


def left_asymptote(s) -> mpf:
    """Two-term negative-axis asymptote sqrt(-s/2) (1 - (1/8)(-s)^{-3})."""
    s = nu.to_ext(s)
    return mp.sqrt(-s / 2) * (1 - mpf(1) / 8 * (-s) ** mpf(-3))


@dataclass
class HmlSolution:
    """Sampled Hastings-McLeod solution with interpolation metadata."""

    s_lo: mpf
    s_hi: mpf
    h: mpf
    grid: list
    q: list
    q_prime: list
    order: int
    tol: mpf
    achieved_residual: mpf

    def _locate(self, s) -> int:
        return int((s - self.s_lo) / self.h + mpf(1) / 2)

    def evaluate(self, s, nder: int = 1):
        """q and its first ``nder`` derivatives at s via a local 9-point
        Lagrange polynomial (divided differences at working precision)."""
        s = nu.to_ext(s)
        if not self.s_lo <= s <= self.s_hi:
            raise OutOfDomain(f"s={s} outside [{self.s_lo}, {self.s_hi}]")
        i = self._locate(s)
        if s == self.grid[i] and nder <= 1:
            return (self.q[i],) if nder == 0 else (self.q[i], self.q_prime[i])
        half = _INTERP_POINTS // 2
        lo = min(max(i - half, 0), len(self.grid) - _INTERP_POINTS)
        xs = self.grid[lo : lo + _INTERP_POINTS]
        ys = self.q[lo : lo + _INTERP_POINTS]
        # Newton divided differences
        coef = list(ys)
        for j in range(1, _INTERP_POINTS):
            for r in range(_INTERP_POINTS - 1, j - 1, -1):
                coef[r] = (coef[r] - coef[r - 1]) / (xs[r] - xs[r - j])
        # value and derivatives by nested multiplication
        vals = [coef[-1]] + [mpf(0)] * nder
        for r in range(_INTERP_POINTS - 2, -1, -1):
            dx = s - xs[r]
            for d in range(nder, 0, -1):
                vals[d] = vals[d] * dx + d * vals[d - 1]
            vals[0] = vals[0] * dx + coef[r]
        return tuple(vals)


def solve_hastings_mcleod(
    s_lo=mpf(-10),
    s_hi=mpf(10),
    tol=DEFAULT_TOL,
    spacing=mpf("0.01"),
    max_newton: int = 60,
) -> HmlSolution:
    """Collocate the Hastings-McLeod boundary-value problem on [s_lo, s_hi].

    Right boundary: q(s_hi) = Ai(s_hi) (the q' value then matches Ai'
    automatically to the size of the neglected nonlinearity).  Left
    boundary: the two-term sqrt(-s/2) asymptote.  Residuals at the nodes
    converge to far below ``tol``; ``tol`` itself is the declared contract
    for grid and off-grid ODE residuals.
    """
    s_lo, s_hi = nu.to_ext(s_lo), nu.to_ext(s_hi)
    tol = nu.to_ext(tol)
    if tol < MIN_TOL:
        raise ValueError(f"tolerance below the supported minimum {MIN_TOL}")
    if s_hi < 6:
        raise DomainTooNarrow("right endpoint must satisfy s_hi >= 6")
    if s_lo > -6:
        raise DomainTooNarrow("left endpoint must satisfy s_lo <= -6")
    npts = int(mp.ceil((s_hi - s_lo) / nu.to_ext(spacing))) + 1
    h = (s_hi - s_lo) / (npts - 1)
    grid = [s_lo + i * h for i in range(npts)]
    s_float = np.array([float(v) for v in grid])
    ai_seed = scipy.special.airy(s_float)[0]
    blend = np.clip((s_float + 1) / 2, 0.0, 1.0)
    smooth = blend * blend * (3 - 2 * blend)
    sqrt_part = np.sqrt(np.maximum(-s_float, 0.01) / 2)
    q = [mpf(float(v)) for v in smooth * ai_seed + (1 - smooth) * sqrt_part]

    bc_left = left_asymptote(s_lo)
    bc_right = mp.airyai(s_hi)
    stencils = _second_derivative_stencils(npts)
    h2 = h * h
    mp_weights = [
        (off, tuple(mpf(w.numerator) / w.denominator for w in wts))
        for off, wts in stencils
    ]
    fl_weights = [
        (off, np.array([float(Fraction(w)) for w in wts])) for off, wts in stencils
    ]
    h2f = float(h2)

    def residual(qv):
        out = [qv[0] - bc_left]
        for i in range(1, npts - 1):
            off, wts = mp_weights[i - 1]
            acc = mpf(0)
            for o, w in zip(off, wts):
                acc += w * qv[i + o]
            out.append(acc / h2 - grid[i] * qv[i] - 2 * qv[i] ** 3)
        out.append(qv[npts - 1] - bc_right)
        return out

    target = mpf(10) ** (-40)  # far below any allowed tol, above mp noise
    res = residual(q)
    res_norm = max(abs(v) for v in res)
    for _ in range(max_newton):
        if res_norm <= target:
            break
        # banded float64 Jacobian: rows i, columns i+offset
        ab = np.zeros((2 * _BANDWIDTH + 1, npts))
        ab[_BANDWIDTH, 0] = 1.0
        ab[_BANDWIDTH, npts - 1] = 1.0
        qf = np.array([float(v) for v in q])
        for i in range(1, npts - 1):
            off, wts = fl_weights[i - 1]
            for o, w in zip(off, wts):
                ab[_BANDWIDTH - o, i + o] += w / h2f
            ab[_BANDWIDTH, i] += -(s_float[i] + 6.0 * qf[i] ** 2)
        rhs = np.array([float(v) for v in res])
        delta = solve_banded((_BANDWIDTH, _BANDWIDTH), ab, rhs)
        lam = 1.0
        improved = False
        for _ in range(12):
            lam_mp = mpf(lam)
            trial = [q[i] - lam_mp * mpf(float(delta[i])) for i in range(npts)]
            trial_res = residual(trial)
            trial_norm = max(abs(v) for v in trial_res)
            if trial_norm < res_norm:
                q, res, res_norm = trial, trial_res, trial_norm
                improved = True
                break
            lam /= 2
        if not improved:
            break
    if res_norm > tol:
        raise NoConvergence(f"collocation stalled at residual {res_norm}")

    q_prime = []
    for i in range(npts):
        off, wts = _first_derivative_weights(i, npts)
        acc = mpf(0)
        for o, w in zip(off, wts):
            acc += (mpf(w.numerator) / w.denominator) * q[i + o]
        q_prime.append(acc / h)
    return HmlSolution(
        s_lo=s_lo,
        s_hi=s_hi,
        h=h,
        grid=grid,
        q=q,
        q_prime=q_prime,
        order=6,
        tol=tol,
        achieved_residual=res_norm,
    )


def evaluate_q(sol: HmlSolution, s):
    """(q(s), q'(s)) interpolated to the declared order."""
    return sol.evaluate(s, nder=1)


def hamiltonian_u(sol: HmlSolution, s) -> mpf:
    """u(s) = q'(s)^2 - s q(s)^2 - q(s)^4; satisfies u' = -q^2."""
    s = nu.to_ext(s)
    qv, qp = sol.evaluate(s, nder=1)
    return qp**2 - s * qv**2 - qv**4


def ode_residual(sol: HmlSolution, s) -> mpf:
    """|q'' - s q - 2 q^3| at an arbitrary point of the domain."""
    s = nu.to_ext(s)
    qv, _, qpp = sol.evaluate(s, nder=2)
    return abs(qpp - s * qv - 2 * qv**3)
