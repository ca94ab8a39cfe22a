"""Full RH matrix Y(z) from the rows of an RH expansion, closed-form Cauchy
transforms, correlation kernel and particle-density profiles.

Every Cauchy column entry of Y is a finite combination of Faddeeva values:
for a polynomial-times-Gaussian integrand the substitution
u = sqrt(gamma)(x-mu) turns (1/2 pi i) int P(x) e^{-gamma(x-mu)^2+c}/(x-z) dx
into moments I_j(zeta) driven by I_0(zeta) = i pi w(zeta).  The same
Faddeeva values give Y'(z) exactly, since d/dz C[f] = C[f'] and f' is again
polynomial-times-Gaussian, and the boundary value from below Y_-(x), the
branch C(z) = -conj(C(conj z)) taken on the real axis.

The correlation kernel does not go through Y: it is the Eynard-Mehta form
phi(x)^T G^{-1} psi(y) with the inverse of the bimoment matrix G(n, m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from mpmath import mp, mpf, mpc, matrix

from . import numerics as nu
from .errors import NormalizationImpossible, WrongRegime
from .model import (
    BrownianConfig,
    Regime,
    classify_separation,
    ellipse_endpoints,
    semicircle_density,
)
from .mop import (
    MAX_ESCALATED_PRECISION,
    MultiIndexPair,
    WeightSystem,
    _cached_map,
    _map_cores,
    bimoment_inverse,
)


@dataclass(frozen=True)
class PolyGaussian:
    """P(x) exp(-gamma (x - mu)^2 + c) with real coefficients."""

    coeffs: tuple
    gamma: mpf
    mu: mpf
    log_scale: mpf = mpf(0)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(nu.to_ext(v) for v in self.coeffs))
        object.__setattr__(self, "gamma", nu.to_ext(self.gamma))
        object.__setattr__(self, "mu", nu.to_ext(self.mu))
        object.__setattr__(self, "log_scale", nu.to_ext(self.log_scale))
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def __call__(self, x):
        weight = mp.exp(-self.gamma * (x - self.mu) ** 2 + self.log_scale)
        return mp.polyval(self.coeffs[::-1], x) * weight

    def mass(self) -> mpf:
        """int pg(x) dx via central Gaussian moments of the shifted polynomial."""
        m0 = mp.sqrt(mp.pi / self.gamma) * mp.exp(self.log_scale)
        shifted = _shift_poly(self.coeffs, self.mu, mpf(1))
        inv2g = 1 / (2 * self.gamma)
        central = [m0]
        for j in range(1, len(shifted)):
            central.append((j - 1) * inv2g * central[j - 2] if j >= 2 else mpf(0))
        return sum(c * central[j] for j, c in enumerate(shifted))

    def derivative(self) -> "PolyGaussian":
        """pg'(x): the polynomial P' - 2 gamma (x - mu) P on the same Gaussian."""
        out = [mpf(0)] * (len(self.coeffs) + 1)
        for j, c in enumerate(self.coeffs):
            out[j] += 2 * self.gamma * self.mu * c
            out[j + 1] -= 2 * self.gamma * c
            if j:
                out[j - 1] += j * c
        return PolyGaussian(out, self.gamma, self.mu, self.log_scale)


def _shift_poly(coeffs: Sequence, mu, scale) -> list:
    """Coefficients of P(mu + scale * u) in powers of u."""
    out = [mp.mpf(0)] * max(len(coeffs), 1)
    for c in reversed(coeffs):
        # out(u) <- out(u) * (mu + scale u) + c
        new = [mp.mpf(0)] * len(out)
        for j in range(len(out) - 1, -1, -1):
            new[j] = out[j] * mu + (out[j - 1] * scale if j >= 1 else 0)
        new[0] += c
        out = new
    return out


def _gauss_moments(jmax: int) -> list:
    """G_j = int u^j e^{-u^2} du: sqrt(pi) * (j-1)!! / 2^{j/2} for even j."""
    out = [mp.sqrt(mp.pi)]
    for j in range(1, jmax + 1):
        if j % 2 == 1:
            out.append(mpf(0))
        else:
            out.append(out[j - 2] * (j - 1) / 2)
    return out


def cauchy_transform(pg: PolyGaussian, z, w_value=None):
    """(1/(2 pi i)) int pg(x)/(x - z) dx, continuous up to the real axis
    from above; lower half-plane values via C(z) = -conj(C(conj z)).

    ``w_value`` may pass a precomputed Faddeeva value w(zeta) for reuse
    across entries.
    """
    z = mpc(z)
    if z.imag < 0:
        return -mp.conj(cauchy_transform(pg, mp.conj(z)))
    sqrt_g = mp.sqrt(pg.gamma)
    zeta = sqrt_g * (z - pg.mu)
    shifted = _shift_poly(pg.coeffs, pg.mu, 1 / sqrt_g)
    deg = len(shifted) - 1
    gm = _gauss_moments(max(deg, 1))
    w = nu.faddeeva(zeta) if w_value is None else w_value
    i_vals = [1j * mp.pi * w]
    for j in range(1, deg + 1):
        i_vals.append(zeta * i_vals[j - 1] + gm[j - 1])
    scale = mp.exp(pg.log_scale) / (2j * mp.pi)
    return scale * sum(c * i_vals[j] for j, c in enumerate(shifted))


# ---------------------------------------------------------------------------
# The RH matrix Y(z)
# ---------------------------------------------------------------------------

class YEvaluator:
    """Evaluates Y(z) and Y'(z) from the p + q rows of an RhExpansion (which
    holds them only at |n| = |m|).

    It makes no solve of its own; each evaluation costs one Faddeeva value
    per product weight, which Y' shares with Y.
    """

    def __init__(self, exp):
        self.ws = ws = exp.ws
        self.rows = exp.rows
        self.size = ws.p + ws.q
        # Per (row, l): the (k, PolyGaussian) pairs whose transforms sum to
        # the (row, p+l) entry before the D factor.
        self._pgs: dict = {}
        for i, sol in enumerate(self.rows):
            if sol is None:
                continue
            for l in range(ws.q):
                self._pgs[(i, l)] = [
                    (
                        k,
                        PolyGaussian(
                            coeffs=sol.coeffs[k],
                            gamma=ws.gamma,
                            mu=ws.mu(k, l),
                            log_scale=ws.log_scale(k, l),
                        ),
                    )
                    for k in range(ws.p)
                    if sol.coeffs[k]
                ]

    def value(self, z, boundary: str = "above"):
        """Y(z); for real z the boundary value from 'above' or 'below'."""
        if boundary not in ("above", "below"):
            raise ValueError(f"boundary must be 'above' or 'below', got {boundary!r}")
        z = mpc(z)
        below = z.imag < 0 or (z.imag == 0 and boundary == "below")
        return self._matrix(z, below, self._faddeeva(z, below), derivative=False)

    def jet(self, z):
        """(Y(z), Y'(z)) from one set of Faddeeva values; for real z the
        boundary value from above and its derivative."""
        z = mpc(z)
        below = z.imag < 0
        wmap = self._faddeeva(z, below)
        return (
            self._matrix(z, below, wmap, derivative=False),
            self._matrix(z, below, wmap, derivative=True),
        )

    def _faddeeva(self, z, below: bool) -> dict:
        """w(sqrt(gamma) (z - mu_kl)) per (k, l), at conj(z) when ``below``."""
        zz = mp.conj(z) if below else z
        sqrt_g = mp.sqrt(self.ws.gamma)
        return {
            (k, l): nu.faddeeva(sqrt_g * (zz - self.ws.mu(k, l)))
            for k in range(self.ws.p)
            for l in range(self.ws.q)
        }

    def _matrix(self, z, below: bool, wmap: dict, derivative: bool):
        """Y(z), or Y'(z) if ``derivative``: polynomial columns from A_k or
        A_k', Cauchy columns from C[f] or d/dz C[f] = C[f'] (integration by
        parts) on the Faddeeva values ``wmap``.  When ``below`` the Cauchy
        columns take the lower branch -conj(C(conj z)) of real-coefficient
        data, which on the real axis is the boundary value from below."""
        p, q = self.ws.p, self.ws.q
        zz = mp.conj(z) if below else z
        Y = matrix(self.size, self.size)
        for i, sol in enumerate(self.rows):
            if sol is None:
                Y[i, i] = mpf(0 if derivative else 1)
                continue
            d = mpf(1) if i < p else -2j * mp.pi
            for j in range(p):
                Y[i, j] = d * (sol.eval_A_prime(j, z) if derivative else sol.eval_A(j, z))
            for l in range(q):
                acc = mpc(0)
                for k, pg in self._pgs[(i, l)]:
                    f = pg.derivative() if derivative else pg
                    acc += cauchy_transform(f, zz, w_value=wmap[(k, l)])
                Y[i, p + l] = d * (-mp.conj(acc) if below else acc)
        return Y


# ---------------------------------------------------------------------------
# Correlation kernel and density
# ---------------------------------------------------------------------------

def _kernel_form_uncached(ws: WeightSystem, idx: MultiIndexPair, start: int) -> tuple:
    """G(n, m)^{-1} from a solve starting at ``start`` bits: the bits it
    settled at, its blocks B^{kl} and, for the diagonal, each block
    collapsed to P_kl(x) = sum_{i+j=d} B^{kl}[i][j] x^d.  Blocks and
    diagonals are stored in descending powers, as mp.polyval takes them."""
    with mp.workprec(start):
        blocks, bits = bimoment_inverse(ws, idx)
    diagonal = {}
    with mp.workprec(bits):
        for (k, l), block in blocks.items():
            coeffs = [mpf(0)] * max(idx.n[k] + idx.m[l] - 1, 0)
            for i, row in enumerate(block):
                for j, v in enumerate(row):
                    coeffs[i + j] += v
            diagonal[(k, l)] = coeffs[::-1]
    blocks = {kl: tuple(row[::-1] for row in block[::-1]) for kl, block in blocks.items()}
    return bits, blocks, diagonal


# (ws, idx, starting bits) -> kernel form, least recently used first
_KERNEL_FORMS: dict = {}
_KERNEL_FORMS_MAX = 64


def _kernel_forms(ws: WeightSystem, idx: MultiIndexPair, starts) -> list:
    """The kernel forms of G(n, m)^{-1} from solves starting at each of
    ``starts`` bits (see _kernel_form_uncached), cached; the missing ones
    are factored concurrently (see mop._map_cores)."""
    return _cached_map(
        _KERNEL_FORMS,
        _KERNEL_FORMS_MAX,
        lambda key: _kernel_form_uncached(*key),
        [(ws, idx, start) for start in starts],
        cost=lambda key: key[2],
    )


def _kernel_sum(ws: WeightSystem, form: tuple, x, y, confluent: bool):
    """The Eynard-Mehta sum from one kernel form, at the bits it settled at."""
    bits, blocks, diagonal = form
    with mp.workprec(bits):
        v1 = [ws.w1(k, x) for k in range(ws.p)]
        v2 = [ws.w2(l, y) for l in range(ws.q)]
        acc = mpf(0)
        for (k, l), block in blocks.items():
            if confluent:
                poly = mp.polyval(diagonal[(k, l)], x)
            else:
                poly = mp.polyval([mp.polyval(row, y) for row in block], x)
            acc += v1[k] * v2[l] * poly
    return acc


def correlation_kernel(ws: WeightSystem, idx: MultiIndexPair, x, y=None):
    """K(x, y) of the determinantal process, in the Eynard-Mehta form

        K(x, y) = sum_{k,l} w_{1,k}(x) w_{2,l}(y) sum_{i,j} x^i B^{kl}[i][j] y^j

    with B^{kl}[i][j] = (G^{-1})[(k, i), (l, j)] for the bimoment matrix
    G(n, m) (|n| = |m|).  G^{-1} is cached per (ws, idx, starting bits); a
    point then costs real polynomial evaluations and exponentials.

    The sum cancels about as many bits as the solve loses, and how many
    depends on the point (at n = m = (20, 20) on the large-separation
    config at t = 1/2, about 40 bits more inside the right group than in
    the left one).  So each value is checked against the same sum from a
    G^{-1} solved at twice the bits: they must agree to 2^-(prec/4)
    relative.  On a miss both move up one doubling; a miss with the lower
    one at MAX_ESCALATED_PRECISION (or the working precision, if higher)
    raises NormalizationImpossible.  The value returned is the lower sum,
    rounded to working precision.
    """
    x = nu.to_ext(x)
    confluent = y is None or y == x
    y = x if y is None else nu.to_ext(y)
    tol = mpf(2) ** (-(mp.prec // 4))
    ceiling = max(MAX_ESCALATED_PRECISION, mp.prec)
    (low,) = _kernel_forms(ws, idx, [mp.prec])
    while True:
        (high,) = _kernel_forms(ws, idx, [2 * low[0]])
        value = _kernel_sum(ws, low, x, y, confluent)
        ref = _kernel_sum(ws, high, x, y, confluent)
        if abs(value - ref) <= tol * abs(ref):
            return +value
        if high[0] > ceiling:
            raise NormalizationImpossible(
                f"kernel at ({x}, {y}): {value} at {low[0]} bits "
                f"against {ref} at {high[0]} bits"
            )
        low = high


@dataclass
class KernelGrid:
    """Sampled one-point density (1/n) K_n(x, x) with support bookkeeping."""

    t: mpf
    xs: list
    values: list
    interval_flags: list  # 0 outside, 1 or 2 inside that group's support
    semicircle_1: list
    semicircle_2: list
    sup_distance_1: mpf
    sup_distance_2: mpf

    def rows(self):
        for i, x in enumerate(self.xs):
            yield (
                x,
                self.values[i],
                self.semicircle_1[i],
                self.semicircle_2[i],
                self.interval_flags[i],
            )


#: share of each support interval, centred, over which density_profile
#: measures the distance to the semicircle law
INTERIOR_FRACTION = mpf("0.8")


def default_grid(cfg: BrownianConfig, t, points: int = 400) -> list:
    al2, _ = ellipse_endpoints(cfg, t, 2)
    _, be1 = ellipse_endpoints(cfg, t, 1)
    lo = al2 - mpf(1) / 2
    hi = be1 + mpf(1) / 2
    h = (hi - lo) / (points - 1)
    return [lo + i * h for i in range(points)]


def density_profile(
    ws: WeightSystem,
    idx: MultiIndexPair,
    cfg: BrownianConfig,
    t,
    grid: Optional[Sequence] = None,
) -> KernelGrid:
    """(1/n) K_n(x, x) on a grid plus sup-distance to the two semicircle
    laws over the middle INTERIOR_FRACTION of each support interval (edges
    carry Airy-size transients and are excluded)."""
    rep = classify_separation(cfg)
    t = nu.to_ext(t)
    if rep.regime is Regime.SMALL:
        raise WrongRegime("density comparison needs large or critical separation")
    if rep.regime is Regime.CRITICAL and abs(t - rep.t_crit) < mpf("1e-12"):
        raise WrongRegime("critical separation at the critical time is out of scope")
    n = idx.size_n
    if grid is None:
        grid = default_grid(cfg, t)
    sup1, sup2 = ellipse_endpoints(cfg, t, 1), ellipse_endpoints(cfg, t, 2)
    margin = (1 - INTERIOR_FRACTION) / 2
    # The two forms every point reads, factored at once.  If the first
    # escalated, its check form is factored too before the points are
    # forked, so a worker factors only for a point that escalates.
    low, _ = _kernel_forms(ws, idx, [mp.prec, 2 * mp.prec])
    _kernel_forms(ws, idx, [2 * low[0]])
    diag = _map_cores(lambda x: correlation_kernel(ws, idx, x), grid, cost=lambda x: 1)
    values, flags, semi1, semi2 = [], [], [], []
    d1 = d2 = mpf(0)
    for x, k in zip(grid, diag):
        val = k / n
        values.append(val)
        flag = 0
        s1 = s2 = mpf(0)
        if sup1[0] <= x <= sup1[1]:
            flag = 1
            s1 = semicircle_density(cfg, t, 1, x)
            lo = sup1[0] + margin * (sup1[1] - sup1[0])
            hi = sup1[1] - margin * (sup1[1] - sup1[0])
            if lo <= x <= hi:
                d1 = max(d1, abs(val - s1))
        elif sup2[0] <= x <= sup2[1]:
            flag = 2
            s2 = semicircle_density(cfg, t, 2, x)
            lo = sup2[0] + margin * (sup2[1] - sup2[0])
            hi = sup2[1] - margin * (sup2[1] - sup2[0])
            if lo <= x <= hi:
                d2 = max(d2, abs(val - s2))
        flags.append(flag)
        semi1.append(s1)
        semi2.append(s2)
    return KernelGrid(
        t=t,
        xs=list(grid),
        values=values,
        interval_flags=flags,
        semicircle_1=semi1,
        semicircle_2=semi2,
        sup_distance_1=d1,
        sup_distance_2=d2,
    )
