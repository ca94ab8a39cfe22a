"""Hastings-McLeod solution of Painleve II: q'' = s q + 2 q^3 with
q(s) ~ Ai(s) as s -> +infinity and q(s) ~ sqrt(-s/2) as s -> -infinity.

Shipped method: 6th-order finite-difference collocation on a uniform grid
with one damped Newton iteration from a float64 seed.  It holds the grid
values as integers scaled by 2^P, P = prec + GUARD_BITS, and evaluates the
collocation residual exactly up to rounding at 2^-P; each step is a
float64 solve with the banded Jacobian (``solve_banded``: pure-Python
elimination over each row's stencil span).  It stops when the residual
reaches 1e-40 or the floor that rounding the values to working precision
leaves.  ``achieved_residual`` is the residual of the rounded values
returned.  ``HmlSolution.q_prime`` is formed on first read, from those
values at the solve's precision: the double-scaling study reads q alone
(``evaluate(s, nder=0)``) and never forms it.  Shooting is deliberately
not the shipped method; the connection problem is exponentially unstable
leftward and shooting survives only as a test oracle.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
import math
from math import factorial, gcd, lcm
from operator import mul
from mpmath import mp, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_add, mpf_div, mpf_mul_int, mpf_shift,
                          round_nearest, to_float)

from . import numerics as nu
from .errors import DomainTooNarrow, NoConvergence, OutOfDomain

DEFAULT_TOL = mpf("1e-12")
MIN_TOL = "1e-14"  # a decimal string: compared at the working precision
GUARD_BITS = 64  # fixed-point bits of the Newton values beyond working precision
_NEWTON_TARGET = 1e-40  # far below any allowed tol, above the 256-bit floor
MAX_NEWTON = 60  # Newton steps at most
_INTERP_POINTS = 9


@lru_cache(maxsize=None)
def _fd_weights(offsets: tuple, order: int) -> tuple:
    """(D, integer weights) of the exact finite-difference weights for
    d^order/ds^order at offset 0, over their least common denominator D.

    Each weight is the order-th derivative at 0 of a Lagrange basis
    polynomial, built over the integers, so stencils of any one-sided
    shape are exact to polynomial degree len(offsets)-1.
    """
    fracs = []  # (numerator, denominator) of each weight
    for j, oj in enumerate(offsets):
        coef, den = [1], 1  # prod_{k != j} (x - o_k), lowest degree first
        for ok in offsets[:j] + offsets[j + 1 :]:
            coef = [a - ok * b for a, b in zip([0] + coef, coef + [0])]
            den *= oj - ok
        fracs.append((factorial(order) * coef[order], den))
    D = lcm(*(abs(d) // gcd(n, d) for n, d in fracs))
    return D, tuple(n * D // d for n, d in fracs)


def _offsets(i: int, npts: int, half: int, edge: int) -> tuple:
    """Stencil offsets at node i: -half..half where the grid allows, else
    the ``edge``-point window flush with the nearer end of the grid."""
    if half <= i <= npts - 1 - half:
        return tuple(range(-half, half + 1))
    lo = 0 if i < half else npts - edge
    return tuple(range(lo - i, lo - i + edge))


def _int_rows(rows, npts: int, order: int, half: int, edge: int):
    """(D, [(first node, integer weights)]) of the 6th-order d^order stencil
    at each node of ``rows``, the weights over one common denominator D."""
    offs = [_offsets(i, npts, half, edge) for i in rows]
    exact = {o: _fd_weights(o, order) for o in set(offs)}
    den = lcm(*(d for d, _ in exact.values()))
    ints = {o: tuple(w * (den // d) for w in ws) for o, (d, ws) in exact.items()}
    return den, [(i + o[0], ints[o]) for i, o in zip(rows, offs)]


def _fill_in(rows) -> list:
    """The rows (first column, values) of a banded matrix, each padded with
    zeros to the last column that elimination without pivoting fills in,
    so that solve_banded never grows a row.  A row that needs no zeros is
    passed on as the same list."""
    ends = []
    for i, (a, w) in enumerate(rows):
        ends.append(max([a + len(w)] + ends[a:i]))
    return [(a, w if end == a + len(w) else w + [0.0] * (end - a - len(w)))
            for (a, w), end in zip(rows, ends)]


def solve_banded(rows, shift, rhs):
    """x with (A - diag(shift)) x = rhs, A given by its rows as (first
    column, values over the row's span, diagonal included) and padded by
    _fill_in; neither is changed.

    Gaussian elimination without pivoting over each row's span, each row
    copied once as it is reached.  The Hastings-McLeod Jacobian allows it:
    its interior is symmetric negative definite along the Newton path, and
    the Newton loop recomputes the exact residual of every step, so a poor
    one shows.  A zero pivot raises.
    """
    pivots, upper, y = [], [], []  # U's diagonal and the rest of its rows; L^-1 rhs
    for i, (a, w) in enumerate(rows):
        row = w[:]
        row[i - a] -= shift[i]
        b = rhs[i]
        for k in range(a, i):
            f = row[k - a] / pivots[k]
            j = k - a
            for v in upper[k]:
                j += 1
                row[j] -= f * v
            b -= f * y[k]
        if not row[i - a]:
            raise NoConvergence(f"zero pivot in row {i} of the banded Newton solve")
        pivots.append(row[i - a])
        upper.append(row[i - a + 1 :])
        y.append(b)
    x = [0.0] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        u = upper[i]
        x[i] = (y[i] - sum(map(mul, u, x[i + 1 : i + 1 + len(u)]))) / pivots[i]
    return x


def _scaled(raw: tuple, P: int) -> int:
    """int(v 2^P), truncated toward zero, of a raw finite mpf v."""
    sign, man, exp, _ = raw
    man = man << (exp + P) if exp + P >= 0 else man >> -(exp + P)
    return -man if sign else man


def _ai_float(x: float) -> float:
    """Airy Ai in float64 for the Newton seed: the Maclaurin series up to
    x = 2 (about 1e-16 absolute), three terms of the asymptotic series beyond
    (3e-3 relative just past 2, 4e-6 at 10)."""
    if x <= 2:
        f, g = 1.0, x  # the two Maclaurin solutions
        sum_f, sum_g, cube = f, g, x**3
        for k in range(12):
            f = f * cube / ((3 * k + 2) * (3 * k + 3))
            g = g * cube / ((3 * k + 3) * (3 * k + 4))
            sum_f += f
            sum_g += g
        return 0.355028053887817239 * sum_f - 0.258819403792806798 * sum_g
    zeta = 2 / 3 * x**1.5
    series = 1 - 5 / 72 / zeta + 385 / 10368 / zeta**2
    return math.exp(-zeta) / (2 * math.sqrt(math.pi) * x**0.25) * series


def left_asymptote(s) -> mpf:
    """Two-term negative-axis asymptote sqrt(-s/2) (1 - (1/8)(-s)^{-3})."""
    s = nu.to_ext(s)
    return mp.sqrt(-s / 2) * (1 - mpf(1) / 8 * (-s) ** mpf(-3))


class HmlSolution(namedtuple("HmlSolution", "s_lo s_hi h grid q tol achieved_residual prec")):
    """Sampled Hastings-McLeod solution with interpolation metadata; ``prec``
    is the working precision the solve ran at.  Instances keep a __dict__,
    where q_prime is stored once formed."""

    @cached_property
    def q_prime(self) -> list:
        """q' at the nodes, formed on first read: the 6th-order 9-point
        stencils of the returned q, summed exactly on the Newton scale
        2^(prec + GUARD_BITS) and rounded once at the solve's precision,
        whatever mp.prec is when it is read."""
        prec, npts = self.prec, len(self.q)
        P = prec + GUARD_BITS
        Q = [_scaled(v._mpf_, P) for v in self.q]
        den, first = _int_rows(range(npts), npts, 1, 4, 9)
        dh = mpf_shift(mpf_mul_int(self.h._mpf_, den, prec, round_nearest), P)
        return [mp.make_mpf(mpf_div(from_int(sum(map(mul, w, Q[a : a + len(w)]))), dh,
                                    prec, round_nearest)) for a, w in first]

    def _locate(self, s) -> int:
        return int((s - self.s_lo) / self.h + mpf(1) / 2)

    def evaluate(self, s, nder: int = 1):
        """q and its first ``nder`` derivatives at s via a local 9-point
        Lagrange polynomial (divided differences at working precision).
        At a node, q and q' are the stored values; nder=0 reads q alone."""
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
    if tol < nu.to_ext(MIN_TOL):
        raise ValueError(f"tolerance below the supported minimum {MIN_TOL}")
    if s_hi < 6:
        raise DomainTooNarrow("right endpoint must satisfy s_hi >= 6")
    if s_lo > -6:
        raise DomainTooNarrow("left endpoint must satisfy s_lo <= -6")
    # A quotient within 2^-32 of an integer is that integer: 20 / 0.01 rounds
    # above 2000 at some precisions, and the grid must not depend on them.
    npts = int(mp.ceil((s_hi - s_lo) / nu.to_ext(spacing) - mpf(2) ** -32)) + 1
    h = (s_hi - s_lo) / (npts - 1)
    # node i is s_lo + i*h rounded as mpf arithmetic rounds it; its float is
    # float(mpf), which rounds to nearest where to_float's default does not
    prec = mp.prec
    raw_grid = [mpf_add(s_lo._mpf_, mpf_mul_int(h._mpf_, i, prec, round_nearest),
                        prec, round_nearest) for i in range(npts)]
    s_float = [to_float(v, rnd=round_nearest) for v in raw_grid]
    q = []
    for s in s_float:
        blend = min(max((s + 1) / 2, 0.0), 1.0)
        smooth = blend * blend * (3 - 2 * blend)
        ai = _ai_float(s) if smooth else 0.0  # Ai enters only where s > -1
        q.append(smooth * ai + (1 - smooth) * math.sqrt(max(-s, 0.01) / 2))
    bc_left = left_asymptote(s_lo)
    bc_right = mp.airyai(s_hi)

    # the Jacobian is band - diag(shift(q)): the band holds the stencils
    # over h^2 between identity rows, row i as (first column, values); rows
    # with one stencil share one list, which solve_banded copies
    den, stencils = _int_rows(range(1, npts - 1), npts, 2, 3, 8)
    scale = 1.0 / (den * float(h) ** 2)
    floats = {w: [c * scale for c in w] for _, w in stencils}
    band = _fill_in([(0, [1.0])] + [(a, floats[w]) for a, w in stencils] + [(npts - 1, [1.0])])

    def shift(qf):
        return [0.0] + [s + 6.0 * v * v for s, v in zip(s_float[1:-1], qf[1:-1])] + [0.0]

    # rounding the returned values to working precision moves row i of the
    # residual by up to 2^-prec (|J| |q|)_i: no step gets below that floor.
    # On the default domain the seed gives it within 1e-4 of the solution's.
    rounding = 0.0
    for i, ((a, w), d) in enumerate(zip(band, shift(q))):
        row = w[:]
        row[i - a] -= d
        rounding = max(rounding, sum(map(abs, map(mul, row, q[a : a + len(row)]))))
    floor = max(_NEWTON_TARGET, rounding * 2.0**-prec)

    # Newton on scaled integers Q_i = q_i 2^P: products are exact, and only
    # the data and the shifts back to scale 2^P round, at 2^-P
    P = prec + GUARD_BITS
    one = 1 << P
    man, exp = h.man_exp
    inv_dh2 = (1 << (P - 2 * exp)) // (den * man * man)  # 2^P / (D h^2)
    S = [_scaled(v, P) for v in raw_grid[1:-1]]
    BL, BR = _scaled(bc_left._mpf_, P), _scaled(bc_right._mpf_, P)

    # rows lo..hi-1 share the centred stencil, whose weights are symmetric;
    # the rows nearer the ends keep their own windows
    centred = tuple(range(-3, 4))
    inner = [i for i in range(1, npts - 1) if _offsets(i, npts, 3, 8) == centred]
    lo, hi = inner[0], inner[-1] + 1
    c0, c1, c2, c3 = stencils[lo - 1][1][:4]
    edges = stencils[: lo - 1], stencils[hi - 1 :]

    def residual(Q):
        left, right = ([sum(map(mul, w, Q[a : a + len(w)])) for a, w in rows] for rows in edges)
        views = [Q[lo + o : hi + o] for o in centred]
        middle = [c3 * q3 + c2 * (q2 + q4) + c1 * (q1 + q5) + c0 * (q0 + q6)
                  for q0, q1, q2, q3, q4, q5, q6 in zip(*views)]
        out = [(acc * inv_dh2 - s * qi - (2 * qi**3 >> P)) >> P
               for acc, s, qi in zip(left + middle + right, S, Q[1:-1])]
        out = [Q[0] - BL] + out + [Q[-1] - BR]
        return out, max(map(abs, out))

    Q = [(n << P) // d for n, d in map(float.as_integer_ratio, q)]
    res, norm = residual(Q)
    for _ in range(MAX_NEWTON):
        if norm / one <= floor:
            break
        # the float64 banded solve J d = res, then Q - d with d halved up to
        # 12 times until the residual norm drops; stop if none does
        delta = solve_banded(band, shift([v / one for v in Q]), [v / one for v in res])
        for _ in range(12):
            trial = [v - (n << P) // d for v, (n, d) in zip(Q, map(float.as_integer_ratio, delta))]
            trial_res, trial_norm = residual(trial)
            if trial_norm < norm:
                break
            delta = [d / 2 for d in delta]
        else:
            break
        Q, res, norm = trial, trial_res, trial_norm

    # the values rounded to working precision, and back on the 2^P scale
    raws = [from_man_exp(v, -P, prec, round_nearest) for v in Q]
    Q = [_scaled(v, P) for v in raws]
    res_norm = mp.make_mpf(from_man_exp(residual(Q)[1], -P, prec, round_nearest))
    if res_norm > tol:
        raise NoConvergence(f"collocation stalled at residual {res_norm}")
    return HmlSolution(
        s_lo=s_lo,
        s_hi=s_hi,
        h=h,
        grid=[mp.make_mpf(v) for v in raw_grid],
        q=[mp.make_mpf(v) for v in raws],
        tol=tol,
        achieved_residual=res_norm,
        prec=prec,
    )


def hamiltonian_u(sol: HmlSolution, s) -> mpf:
    """u(s) = q'(s)^2 - s q(s)^2 - q(s)^4; satisfies u' = -q^2."""
    s = nu.to_ext(s)
    qv, qp = sol.evaluate(s, nder=1)
    return qp**2 - s * qv**2 - qv**4

