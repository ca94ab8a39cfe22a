"""Full RH matrix Y(z) from the rows of an RH expansion, closed-form Cauchy
transforms, correlation kernel and particle-density profiles.

Every Cauchy column entry of Y is a sum of transforms C[P w] of a
polynomial P times a Gaussian w = exp(-gamma (x - mu)^2 + c).  The
second-kind identity

    C[P w](z) = P(z) C[w](z) + (1/2 pi i) int (P(x) - P(z))/(x - z) w(x) dx

splits each into a part that needs one Faddeeva value,
C[w](z) = (e^c/2) w(zeta) with zeta = sqrt(gamma)(z - mu), and a polynomial
in z whose coefficients are sums of moments of w (mop.gaussian_moments),
fixed once per Y.  Y'(z) follows exactly from the same Faddeeva values,
since w'(zeta) = 2i/sqrt(pi) - 2 zeta w(zeta), and so does the boundary
value from below Y_-(x), the branch C(z) = -conj(C(conj z)) taken on the
real axis.

The correlation kernel does not go through Y: it is the Eynard-Mehta form
phi(x)^T G^{-1} psi(y) with the inverse of the bimoment matrix G(n, m).
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

from mpmath import mp, mpf, mpc, matrix

from . import numerics as nu
from .errors import DegenerateData, InvalidIndex, NoConvergence, SingularMatrix, WrongRegime
from .model import (
    BrownianConfig,
    Regime,
    classify_separation,
    ellipse_endpoints,
    semicircle_density,
)
from .mop import (
    MultiIndexPair,
    WeightSystem,
    _map_cores,
    bimoment_inverse,
    escalate,
    moment_tables,
)


def _second_kind(terms) -> list:
    """S(z) = sum of int (P(x) - P(z))/(x - z) w(x) dx over the pairs
    (coefficients P_j of P, moments M_j of w) in ``terms``: the coefficient
    of z^r is sum_{j>r} P_j M_{j-1-r}.  Descending powers, as mp.polyval
    takes them, and at least one."""
    terms = list(terms)
    width = max([1] + [len(cs) - 1 for cs, _ in terms])
    return [
        sum((cs[j] * ms[j - 1 - r] for cs, ms in terms for j in range(r + 1, len(cs))), mpf(0))
        for r in reversed(range(width))
    ]


def _gauss_cauchy(sqrt_g, mu, half_scale, z) -> tuple:
    """C[w](z) and its derivative for w = exp(-gamma (x - mu)^2 + c),
    half_scale = e^c/2, in the closed upper half-plane: one Faddeeva value
    w(zeta), zeta = sqrt(gamma)(z - mu)."""
    zeta = sqrt_g * (z - mu)
    w = nu.faddeeva(zeta)
    return half_scale * w, half_scale * sqrt_g * (2j / mp.sqrt(mp.pi) - 2 * zeta * w)


# ---------------------------------------------------------------------------
# The RH matrix Y(z)
# ---------------------------------------------------------------------------

class YEvaluator:
    """Evaluates Y(z) and Y'(z) from the p + q rows of an RhExpansion (which
    holds them only at |n| = |m|).

    It makes no solve of its own.  The entry (i, p+l) is
    d_i [sum_k A_k(z) C[w_kl](z) + S_il(z)/(2 pi i)], with d_i the D
    factor of the row and S_il = sum_k int (A_k(x) - A_k(z))/(x - z) w_kl(x) dx
    summed once here from the moment tables the expansion read; each
    evaluation then costs one Faddeeva value per product weight w_kl,
    which Y' shares with Y.
    """

    def __init__(self, exp):
        self.ws = ws = exp.ws
        self.rows = exp.rows
        self.size = ws.p + ws.q
        self._sqrt_g = mp.sqrt(ws.gamma)
        # Per (k, l): the centre mu_kl and e^{c_kl}/2 of C[w_kl].
        self._weights = {
            (k, l): (ws.mu(k, l), mp.exp(ws.log_scale(k, l)) / 2)
            for k in range(ws.p)
            for l in range(ws.q)
        }
        tables = moment_tables(ws, exp.idx)
        self._s_polys = {
            (i, l): _second_kind((cs, tables[k, l]) for k, cs in enumerate(sol.coeffs))
            for i, sol in enumerate(self.rows)
            if sol is not None
            for l in range(ws.q)
        }

    def value(self, z, boundary: str = "above"):
        """Y(z); for real z the boundary value from 'above' or 'below'."""
        if boundary not in ("above", "below"):
            raise ValueError(f"boundary must be 'above' or 'below', got {boundary!r}")
        z = mpc(z)
        below = z.imag < 0 or (z.imag == 0 and boundary == "below")
        return self._evaluate(z, below, derivative=False)[0]

    def jet(self, z):
        """(Y(z), Y'(z)) from one set of Faddeeva values; for real z the
        boundary value from above and its derivative."""
        z = mpc(z)
        return self._evaluate(z, z.imag < 0, derivative=True)

    def _evaluate(self, z, below: bool, derivative: bool) -> tuple:
        """(Y(z), Y'(z) if ``derivative`` else None).  The transforms
        C[w_kl] are taken at conj(z) and reflected, -conj(C(conj z)), when
        ``below``; on the real axis that is the boundary value from below."""
        p = self.ws.p
        zz = mp.conj(z) if below else z
        cw = {}
        for kl, (mu, half_scale) in self._weights.items():
            c, dc = _gauss_cauchy(self._sqrt_g, mu, half_scale, zz)
            cw[kl] = (-mp.conj(c), -mp.conj(dc)) if below else (c, dc)
        two_pi_i = 2j * mp.pi
        Y = matrix(self.size, self.size)
        dY = matrix(self.size, self.size) if derivative else None
        for i, sol in enumerate(self.rows):
            if sol is None:
                Y[i, i] = 1
                continue
            d = mpf(1) if i < p else -two_pi_i
            a = [sol.eval_A(k, z) for k in range(p)]
            for k in range(p):
                Y[i, k] = d * a[k]
            if derivative:
                da = [sol.eval_A_prime(k, z) for k in range(p)]
                for k in range(p):
                    dY[i, k] = d * da[k]
            for l in range(self.ws.q):
                c = [cw[k, l] for k in range(p)]
                s = self._s_polys[(i, l)]
                if derivative:
                    sv, ds = mp.polyval(s, z, derivative=True)
                    dacc = sum(da[k] * c[k][0] + a[k] * c[k][1] for k in range(p))
                    dY[i, p + l] = d * (dacc + ds / two_pi_i)
                else:
                    sv = mp.polyval(s, z)
                Y[i, p + l] = d * (sum(a[k] * c[k][0] for k in range(p)) + sv / two_pi_i)
        return Y, dY


# ---------------------------------------------------------------------------
# Correlation kernel and density
# ---------------------------------------------------------------------------

def _descending(coeffs) -> tuple:
    """mpf coefficients in ascending powers as (mantissa, exponent) pairs in
    descending powers, the form numerics._horner takes."""
    return tuple(nu._pair(v._mpf_) for v in reversed(coeffs))


@functools.lru_cache(maxsize=64)
def _kernel_form(ws: WeightSystem, idx: MultiIndexPair, bits: int):
    """G(n, m)^{-1} factored at ``bits`` in the process that asks, or None
    where G is numerically singular there: the bits, its blocks B^{kl} and,
    for the diagonal, each block collapsed to
    P_kl(x) = sum_{i+j=d} B^{kl}[i][j] x^d.  Blocks and diagonals are stored
    as pairs in descending powers (see _descending)."""
    with mp.workprec(bits):
        try:
            blocks = bimoment_inverse(ws, idx)
        except SingularMatrix:
            return None
        diagonal = {}
        for (k, l), block in blocks.items():
            coeffs = [mpf(0)] * max(idx.n[k] + idx.m[l] - 1, 0)
            for i, row in enumerate(block):
                for j, v in enumerate(row):
                    coeffs[i + j] += v
            diagonal[(k, l)] = _descending(coeffs)
    blocks = {kl: tuple(_descending(row) for row in block[::-1]) for kl, block in blocks.items()}
    return bits, blocks, diagonal


def _kernel_sum(ws: WeightSystem, form: tuple, x, y, confluent: bool):
    """The Eynard-Mehta sum from one kernel form, at the bits it was factored at;
    each polynomial value is that of mp.polyval (see numerics._horner)."""
    bits, blocks, diagonal = form
    xp, yp = nu._pair(x._mpf_), nu._pair(y._mpf_)
    with mp.workprec(bits):
        v1 = [ws.w1(k, x) for k in range(ws.p)]
        v2 = [ws.w2(l, y) for l in range(ws.q)]
        acc = mpf(0)
        for (k, l), block in blocks.items():
            if confluent:
                poly = nu._horner(diagonal[(k, l)], xp, bits)
            else:
                poly = nu._horner([nu._horner(row, yp, bits) for row in block], xp, bits)
            acc += v1[k] * v2[l] * mpf(poly)
    return acc


def correlation_kernel(ws: WeightSystem, idx: MultiIndexPair, x, y=None):
    """K(x, y) of the determinantal process, in the Eynard-Mehta form

        K(x, y) = sum_{k,l} w_{1,k}(x) w_{2,l}(y) sum_{i,j} x^i B^{kl}[i][j] y^j

    with B^{kl}[i][j] = (G^{-1})[(k, i), (l, j)] for the bimoment matrix
    G(n, m) (|n| = |m|).  G^{-1} is cached per (ws, idx, bits) by
    _kernel_form; a point then costs real polynomial evaluations and
    exponentials.

    The sum cancels about as many bits as the solve loses, and how many
    depends on the point (at n = m = (20, 20) on the large-separation
    config at t = 1/2, about 40 bits more inside the right group than in
    the left one).  So each value is checked against the same sum from a
    G^{-1} factored at twice the bits: at each rung b of mop.escalate the
    factorizations at b and then 2b, each made in this process unless it
    is cached, must both exist, G not being numerically singular at either
    (SingularMatrix otherwise), and their sums must agree to 2^-(prec/4)
    relative (NoConvergence otherwise).  Each miss names the point, and
    the sums at working precision.  The value returned is the sum at the
    rung that passed, rounded to working precision.  A point that is not
    finite raises ValueError before any factorization.
    """
    x = nu.to_ext(x)
    confluent = y is None or y == x
    y = x if y is None else nu.to_ext(y)
    if not (mp.isfinite(x) and mp.isfinite(y)):
        raise ValueError(f"kernel point ({x}, {y}) is not finite")
    tol = mpf(2) ** (-(mp.prec // 4))

    def attempt(bits):
        low = _kernel_form(ws, idx, bits)
        high = _kernel_form(ws, idx, 2 * bits)
        if not (low and high):
            raise SingularMatrix(
                f"kernel at ({x}, {y}): G(n, m) is numerically singular at "
                f"{2 * bits if low else bits} bits"
            )
        value = _kernel_sum(ws, low, x, y, confluent)
        ref = _kernel_sum(ws, high, x, y, confluent)
        if not abs(value - ref) <= tol * abs(ref):
            raise NoConvergence(
                f"kernel at ({x}, {y}): {value} at {bits} bits against {ref} at "
                f"{2 * bits} bits"
            )
        return value

    return +escalate(attempt)[0]


class KernelGrid(NamedTuple):
    """Sampled one-point density (1/n) K_n(x, x) with support bookkeeping."""

    xs: list
    values: list
    interval_flags: list  # 0 outside, 1 or 2 inside that group's support
    semicircle_1: list
    semicircle_2: list
    sup_distance_1: mpf
    sup_distance_2: mpf


#: share of each support interval, centred, over which density_profile
#: measures the distance to the semicircle law
INTERIOR_FRACTION = mpf("0.8")


def default_grid(cfg: BrownianConfig, t, points: int) -> list:
    al2, _ = ellipse_endpoints(cfg, t, 2)
    _, be1 = ellipse_endpoints(cfg, t, 1)
    lo = al2 - mpf(1) / 2
    hi = be1 + mpf(1) / 2
    h = (hi - lo) / (points - 1)
    return [lo + i * h for i in range(points)]


def density_profile(
    ws: WeightSystem, idx: MultiIndexPair, cfg: BrownianConfig, grid: Sequence
) -> KernelGrid:
    """(1/n) K_n(x, x) at time ws.t on ``grid`` plus sup-distance to the two
    semicircle laws over the middle INTERIOR_FRACTION of each support
    interval (edges carry Airy-size transients and are excluded).

    The semicircles take their group sizes from the fractions p of ``cfg``
    and the kernel from ``idx``, so the two must agree: n = m and
    |n_1 - p_1 |n|| < 1, InvalidIndex otherwise, before any factorization.
    A grid with no point in the middle of either support compares nothing:
    DegenerateData, also before any factorization."""
    rep = classify_separation(cfg)
    t = ws.t
    if rep.regime is Regime.SMALL:
        raise WrongRegime("density comparison needs large or critical separation")
    if rep.regime is Regime.CRITICAL and abs(t - rep.t_crit) < mpf("1e-12"):
        raise WrongRegime("critical separation at the critical time is out of scope")
    n = idx.size_n
    if idx.n != idx.m or not abs(idx.n[0] - cfg.p1 * n) < 1:
        raise InvalidIndex(
            f"density at p = ({cfg.p1}, {cfg.p2}) needs n = m with "
            f"|n_1 - p_1 |n|| < 1, got n = {list(idx.n)}, m = {list(idx.m)}"
        )
    grid = list(grid)
    margin = (1 - INTERIOR_FRACTION) / 2
    windows = []
    for j in (1, 2):
        alpha, beta = ellipse_endpoints(cfg, t, j)
        lo, hi = alpha + margin * (beta - alpha), beta - margin * (beta - alpha)
        if not any(lo <= x <= hi for x in grid):
            raise DegenerateData(
                f"no point of the {len(grid)}-point grid lies in the middle of "
                f"group {j}'s support, [{mp.nstr(lo, 15)}, {mp.nstr(hi, 15)}]"
            )
        windows.append((alpha, beta, lo, hi))
    # The first point factors, in this process, the forms it settles at;
    # the forked points inherit them, so a worker factors only for a point
    # that escalates further.
    diag = [correlation_kernel(ws, idx, x) for x in grid[:1]]
    diag += _map_cores(lambda x: correlation_kernel(ws, idx, x), grid[1:])
    values, flags, semi = [], [], ([], [])
    sup = [mpf(0), mpf(0)]
    for x, k in zip(grid, diag):
        val = k / n
        values.append(val)
        flag = 0
        for j, (alpha, beta, lo, hi) in enumerate(windows):
            s = mpf(0)
            if not flag and alpha <= x <= beta:  # the first support wins
                flag = j + 1
                s = semicircle_density(cfg, t, flag, x)
                if lo <= x <= hi:
                    sup[j] = max(sup[j], abs(val - s))
            semi[j].append(s)
        flags.append(flag)
    return KernelGrid(
        xs=grid,
        values=values,
        interval_flags=flags,
        semicircle_1=semi[0],
        semicircle_2=semi[1],
        sup_distance_1=sup[0],
        sup_distance_2=sup[1],
    )
