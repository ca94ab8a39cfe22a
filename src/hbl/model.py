"""Brownian-motion configuration, separation regimes, cloud geometry and
the scalar objects of the critical-separation analysis.

Two groups of non-intersecting Brownian bridges start at a1 > a2 and end
at b1 > b2, with limiting fractions p1 + p2 = 1, temperature T = n/N and
transition density ~ exp(-N (x-y)^2 / (2 t)).  For each time t in (0,1)
the groups asymptotically fill two intervals whose endpoints trace
ellipses in the time-space plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from mpmath import mp, mpf, mpc

from . import numerics as nu
from .errors import (
    BranchCutEvaluation,
    InequalityNotFound,
    InvalidConfig,
    OutOfSupport,
    UnsupportedFractions,
    WrongRegime,
)

CLASSIFY_RTOL = mpf("1e-12")


class Regime(str, Enum):
    LARGE = "large"
    SMALL = "small"
    CRITICAL = "critical"


@dataclass(frozen=True)
class BrownianConfig:
    """Endpoints, fractions and temperature rule of the two-group model.

    Exactly one of ``T`` (fixed temperature) or ``L`` (double-scaling rule
    T_n = 1 + L n^{-2/3}) is set.  Values can be given as decimal strings
    to avoid double-precision contamination.
    """

    a1: mpf
    a2: mpf
    b1: mpf
    b2: mpf
    p1: mpf = mpf(1) / 2
    p2: mpf = mpf(1) / 2
    T: Optional[mpf] = None
    L: Optional[mpf] = None

    def __post_init__(self):
        conv = nu.to_ext
        for name in ("a1", "a2", "b1", "b2", "p1", "p2"):
            object.__setattr__(self, name, conv(getattr(self, name)))
        if self.T is not None and self.L is not None:
            raise InvalidConfig("give either a fixed T or a scaling constant L")
        if self.T is None and self.L is None:
            object.__setattr__(self, "T", mpf(1))
        if self.T is not None:
            object.__setattr__(self, "T", conv(self.T))
            if self.T <= 0:
                raise InvalidConfig("temperature T must be positive")
        if self.L is not None:
            object.__setattr__(self, "L", conv(self.L))
        if not self.a1 > self.a2:
            raise InvalidConfig("starting points must satisfy a1 > a2")
        if not self.b1 > self.b2:
            raise InvalidConfig("ending points must satisfy b1 > b2")
        if not (0 < self.p1 < 1 and 0 < self.p2 < 1):
            raise InvalidConfig("fractions must lie in (0, 1)")
        if abs(self.p1 + self.p2 - 1) > mpf("1e-30"):
            raise InvalidConfig("fractions must satisfy p1 + p2 = 1")

    # -- temperature rule -------------------------------------------------
    def temperature(self, n: Optional[int] = None) -> mpf:
        """T for a fixed rule, or T_n = 1 + L n^{-2/3}; n=None gives the
        n -> infinity limit."""
        if self.T is not None:
            return self.T
        if n is None:
            return mpf(1)
        return 1 + self.L * mpf(n) ** (mpf(-2) / 3)

    def scale_N(self, n: int) -> mpf:
        """Inverse-variance scale N = n / T_n."""
        return mpf(n) / self.temperature(n)

    @property
    def fractions(self) -> tuple[mpf, mpf]:
        return (self.p1, self.p2)

    def position(self, group: str, j: int) -> mpf:
        return getattr(self, f"{group}{j}")


@dataclass(frozen=True)
class SeparationReport:
    regime: Regime
    t_crit: mpf
    T_crit: mpf


def critical_time(cfg: BrownianConfig) -> mpf:
    da, db = cfg.a1 - cfg.a2, cfg.b1 - cfg.b2
    return da / (da + db)


def critical_temperature(cfg: BrownianConfig) -> mpf:
    da, db = cfg.a1 - cfg.a2, cfg.b1 - cfg.b2
    return da * db / (mp.sqrt(cfg.p1) + mp.sqrt(cfg.p2)) ** 2


def classify_separation(cfg: BrownianConfig) -> SeparationReport:
    """Large / small / critical trichotomy of (a1-a2)(b1-b2) against
    T (sqrt(p1) + sqrt(p2))^2, with a relative tolerance around equality."""
    T = cfg.temperature()
    lhs = (cfg.a1 - cfg.a2) * (cfg.b1 - cfg.b2)
    rhs = T * (mp.sqrt(cfg.p1) + mp.sqrt(cfg.p2)) ** 2
    report = SeparationReport(
        regime=Regime.CRITICAL,
        t_crit=critical_time(cfg),
        T_crit=critical_temperature(cfg),
    )
    if abs(lhs - rhs) <= CLASSIFY_RTOL * T:
        return report
    regime = Regime.LARGE if lhs > rhs else Regime.SMALL
    return SeparationReport(regime=regime, t_crit=report.t_crit, T_crit=report.T_crit)


def _endpoints(a: mpf, b: mpf, p: mpf, T: mpf, t: mpf) -> tuple[mpf, mpf]:
    center = (1 - t) * a + t * b
    half = mp.sqrt(4 * p * T * t * (1 - t))
    return center - half, center + half


def ellipse_endpoints(cfg: BrownianConfig, t, j: int, T=None) -> tuple[mpf, mpf]:
    """Interval [alpha_j, beta_j] filled by group j at time t, with the
    limiting fractions p_j* and, unless ``T`` is given, the limiting
    temperature.
    """
    t = nu.to_ext(t)
    if not 0 < t < 1:
        raise InvalidConfig("time must lie in (0, 1)")
    if j not in (1, 2):
        raise InvalidConfig("group index must be 1 or 2")
    if T is None:
        T = cfg.temperature()
    a = cfg.position("a", j)
    b = cfg.position("b", j)
    p = cfg.fractions[j - 1]
    return _endpoints(a, b, p, nu.to_ext(T), t)


def semicircle_density(cfg: BrownianConfig, t, j: int, x):
    """Limiting particle density of group j at time t (semicircle law)."""
    t = nu.to_ext(t)
    x = nu.to_ext(x)
    T = cfg.temperature()
    alpha, beta = ellipse_endpoints(cfg, t, j)
    if not alpha <= x <= beta:
        # Boundary dust: callers may hand in endpoints rounded at a lower
        # precision than the ambient one (mp.quad elevates internally).
        slack = (beta - alpha) * max(mpf(2) ** (-(mp.prec - 16)), mpf("1e-60"))
        if alpha - slack <= x <= beta + slack:
            return mpf(0)
        raise OutOfSupport(f"x={x} outside [{alpha}, {beta}] for group {j}")
    return mp.sqrt((beta - x) * (x - alpha)) / (2 * mp.pi * T * t * (1 - t))


def phase_boundary(cfg: BrownianConfig, t) -> mpf:
    """Temperature on the upper phase-transition curve (one interval above,
    two intervals below), available for p1 = p2 = 1/2 only."""
    if abs(cfg.p1 - mpf(1) / 2) > mpf("1e-30"):
        raise UnsupportedFractions("phase boundary curve requires p1 = p2 = 1/2")
    t = nu.to_ext(t)
    if not 0 < t < 1:
        raise InvalidConfig("time must lie in (0, 1)")
    da, db = cfg.a1 - cfg.a2, cfg.b1 - cfg.b2
    return (da**2 * (1 - t) ** 2 + db**2 * t**2) / (4 * t * (1 - t))


# ---------------------------------------------------------------------------
# xi functions
# ---------------------------------------------------------------------------

def _sqrt_branch(z, alpha: mpf, beta: mpf):
    """((z-alpha)(z-beta))^{1/2} with cut on [alpha, beta], ~ z at infinity.

    The product of principal square roots sqrt(z-beta) * sqrt(z-alpha) has
    exactly this branch: on (-inf, alpha) both factors flip sign together.
    """
    z = mpc(z)
    return mp.sqrt(z - beta) * mp.sqrt(z - alpha)


@dataclass(frozen=True)
class XiValues:
    xi1: mpc
    xi2: mpc
    xi3: mpc
    xi4: mpc
    Xi1: mpf
    Xi2: mpf

    def as_tuple(self):
        return (self.xi1, self.xi2, self.xi3, self.xi4)


def xi_at(
    cfg: BrownianConfig,
    t,
    z,
    real_part_on_cut: bool = False,
    T=None,
) -> XiValues:
    """The four xi values at z together with the constants Xi1, Xi2.

    For real z inside a support interval the full value is ambiguous (the
    square root jumps); pass ``real_part_on_cut=True`` to receive the
    well-defined real part there instead of an error.
    """
    t = nu.to_ext(t)
    z = mpc(z)
    if T is None:
        T = cfg.temperature()
    T = nu.to_ext(T)
    pref = 1 / (2 * T * t * (1 - t))
    out = {}
    consts = {}
    for j in (1, 2):
        alpha, beta = ellipse_endpoints(cfg, t, j, T=T)
        a, b = cfg.position("a", j), cfg.position("b", j)
        base = -(1 - t) * a + t * b
        consts[j] = pref * base
        on_cut = z.imag == 0 and alpha <= z.real <= beta
        if on_cut:
            if not real_part_on_cut:
                raise BranchCutEvaluation(
                    f"z={z} lies on the support [{alpha}, {beta}] of group {j}"
                )
            root = mpc(0)
        else:
            root = _sqrt_branch(z, alpha, beta)
            if z.imag == 0:
                root = mpc(root.real)  # kill roundoff dust off the cut
        out[j] = pref * (base + root)       # xi_j  (plus branch)
        out[j + 2] = pref * (base - root)   # xi_{j+2} (minus branch)
    return XiValues(
        xi1=out[1], xi2=out[2], xi3=out[3], xi4=out[4],
        Xi1=consts[1], Xi2=consts[2],
    )


def _xi_real(cfg, t, x, T=None):
    v = xi_at(cfg, t, x, real_part_on_cut=True, T=T)
    return tuple(w.real for w in v.as_tuple())


# ---------------------------------------------------------------------------
# Critical-separation objects
# ---------------------------------------------------------------------------

def _require_critical(cfg: BrownianConfig) -> SeparationReport:
    rep = classify_separation(cfg)
    if rep.regime is not Regime.CRITICAL:
        raise WrongRegime(f"critical separation required, got {rep.regime.value}")
    return rep


def _critical_starred_geometry(cfg: BrownianConfig, t):
    """Starred endpoints at the critical temperature, so the tangency
    identities hold exactly for every critical configuration."""
    rep = _require_critical(cfg)
    t = nu.to_ext(t)
    if not 0 < t < rep.t_crit:
        raise WrongRegime("need 0 < t < t_crit")
    Tc = rep.T_crit
    e1 = ellipse_endpoints(cfg, t, 1, T=Tc)
    e2 = ellipse_endpoints(cfg, t, 2, T=Tc)
    return rep, t, Tc, e1, e2


def reference_point_value(cfg: BrownianConfig, t) -> mpf:
    """The distinguished point x0* between the two clouds (critical case):
    the sqrt(p)-weighted average of the two interval midpoints."""
    _, t, _, (a1, b1), (a2, b2) = _critical_starred_geometry(cfg, t)
    s1, s2 = mp.sqrt(cfg.p1), mp.sqrt(cfg.p2)
    return (s1 * (a2 + b2) / 2 + s2 * (a1 + b1) / 2) / (s1 + s2)


@dataclass(frozen=True)
class ReferencePointReport:
    x0_star: mpf
    #: residuals of the two product identities and two sum identities
    residual_product_1: mpf
    residual_product_2: mpf
    residual_sum_1: mpf
    residual_sum_2: mpf

    @property
    def max_residual(self) -> mpf:
        return max(
            self.residual_product_1,
            self.residual_product_2,
            self.residual_sum_1,
            self.residual_sum_2,
        )


def reference_point(cfg: BrownianConfig, t) -> ReferencePointReport:
    """x0* plus the residuals of the four tangency identities that pin it."""
    rep, t, Tc, (al1, be1), (al2, be2) = _critical_starred_geometry(cfg, t)
    s1, s2 = mp.sqrt(cfg.p1), mp.sqrt(cfg.p2)
    x0 = (s1 * (al2 + be2) / 2 + s2 * (al1 + be1) / 2) / (s1 + s2)
    da, db = cfg.a1 - cfg.a2, cfg.b1 - cfg.b2
    d = (1 - t) * da - t * db
    splus = (1 - t) * da + t * db
    r_p1 = abs(mp.sqrt((al1 - x0) * (be1 - x0)) - s1 / (s1 + s2) * d)
    r_p2 = abs(mp.sqrt((x0 - al2) * (x0 - be2)) - s2 / (s1 + s2) * d)
    r_s1 = abs((al1 + be1) / 2 - x0 - s1 / (s1 + s2) * splus)
    r_s2 = abs(x0 - (al2 + be2) / 2 - s2 / (s1 + s2) * splus)
    return ReferencePointReport(x0, r_p1, r_p2, r_s1, r_s2)


def third_derivative_constant(cfg: BrownianConfig, t) -> mpf:
    """Coefficient c in (lambda4* - lambda3*)(z) = c (z - x0*)^3/6 + ..."""
    rep = _require_critical(cfg)
    t = nu.to_ext(t)
    if not 0 < t < rep.t_crit:
        raise WrongRegime("need 0 < t < t_crit")
    s1, s2 = mp.sqrt(cfg.p1), mp.sqrt(cfg.p2)
    d = (1 - t) * (cfg.a1 - cfg.a2) - t * (cfg.b1 - cfg.b2)
    return 2 * (s1 + s2) ** 4 / mp.sqrt(cfg.p1 * cfg.p2) / d**3


@dataclass(frozen=True)
class ScalingConstants:
    K: mpf
    s: mpf
    c: mpf
    x0_star: mpf
    t_crit: mpf
    T_crit: mpf


def scaling_constants(cfg: BrownianConfig, L, t=None) -> ScalingConstants:
    """Double-scaling constants K and s = -(p1 p2)^{1/6}(sqrt p1 + sqrt p2)^{2/3} L,
    plus the local constants c and x0* at the given non-critical time t."""
    rep = _require_critical(cfg)
    L = nu.to_ext(L)
    s1, s2 = mp.sqrt(cfg.p1), mp.sqrt(cfg.p2)
    K = (cfg.p1 * cfg.p2) ** (mpf(1) / 6) / (s1 + s2) ** (mpf(4) / 3)
    s = -((cfg.p1 * cfg.p2) ** (mpf(1) / 6)) * (s1 + s2) ** (mpf(2) / 3) * L
    if t is None:
        t = rep.t_crit / 2
    c = third_derivative_constant(cfg, t)
    x0 = reference_point_value(cfg, t)
    return ScalingConstants(K=K, s=s, c=c, x0_star=x0, t_crit=rep.t_crit, T_crit=rep.T_crit)


# ---------------------------------------------------------------------------
# Conformal map near x0*
# ---------------------------------------------------------------------------

def lambda43_difference(cfg: BrownianConfig, t, z) -> mpc:
    """(lambda4* - lambda3*)(z) = int_{x0*}^{z} (xi4* - xi3*)(y) dy along a
    straight path (analytic in the strip between the two cuts)."""
    rep, t, Tc, _, _ = _critical_starred_geometry(cfg, t)
    x0 = reference_point_value(cfg, t)
    z = mpc(z)

    def integrand(u):
        y = x0 + u * (z - x0)
        v = xi_at(cfg, t, y, T=Tc)
        return (v.xi4 - v.xi3) * (z - x0)

    return mp.quad(integrand, [0, 1])


def conformal_map_f(cfg: BrownianConfig, t, z):
    """Value of f(z) = ((3/8)(lambda4* - lambda3*)(z))^{1/3} near x0*,
    on the cube-root branch with f'(x0*) > 0, plus the constant c.

    Returns (f(z), c).
    """
    rep, t, Tc, (al1, _), (_, be2) = _critical_starred_geometry(cfg, t)
    x0 = reference_point_value(cfg, t)
    z = mpc(z)
    delta = min(al1 - x0, x0 - be2)
    if abs(z - x0) > mpf("0.9") * delta:
        raise WrongRegime(
            f"z must stay within |z - x0*| <= 0.9 * {delta} (distance to the cuts)"
        )
    c = third_derivative_constant(cfg, t)
    if z == x0:
        return mpc(0), c
    g = mpf(3) / 8 * lambda43_difference(cfg, t, z)
    # Linearization f ~ (z - x0)/(2K ((1-t) da - t db)) fixes the branch.
    K = (cfg.p1 * cfg.p2) ** (mpf(1) / 6) / (mp.sqrt(cfg.p1) + mp.sqrt(cfg.p2)) ** (mpf(4) / 3)
    d = (1 - t) * (cfg.a1 - cfg.a2) - t * (cfg.b1 - cfg.b2)
    f_lin = (z - x0) / (2 * K * d)
    root = mp.cbrt(g)
    omega = mp.expjpi(mpf(2) / 3)
    best = min((root, root * omega, root * omega**2), key=lambda r: abs(r - f_lin))
    return best, c


# ---------------------------------------------------------------------------
# Inequality chain reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XiInequalityReport:
    regime: Regime
    x0: mpf
    xi: tuple
    #: margins of the chain xi2 >= xi3 > xi4 >= xi1 at x0
    margin_23: mpf
    margin_34: mpf
    margin_41: mpf
    #: |xi3 - xi4| residual for the critical regime check
    critical_residual: Optional[mpf] = None


def xi_inequality_report(
    cfg: BrownianConfig, t, grid_points: int = 10000
) -> XiInequalityReport:
    """Locate (large separation) or verify (critical separation) the chain
    xi2 >= xi3 > xi4 >= xi1 between the two clouds at time t."""
    rep = classify_separation(cfg)
    t = nu.to_ext(t)
    if rep.regime is Regime.CRITICAL:
        if not 0 < t < rep.t_crit:
            raise WrongRegime("critical-regime check needs 0 < t < t_crit")
        Tc = rep.T_crit
        x0 = reference_point_value(cfg, t)
        xi = _xi_real(cfg, t, x0, T=Tc)
        resid = abs(xi[2] - xi[3])
        if not (xi[1] > xi[2] and xi[3] > xi[0]):
            raise InequalityNotFound("outer inequalities fail at x0*")
        return XiInequalityReport(
            regime=rep.regime, x0=x0, xi=xi,
            margin_23=xi[1] - xi[2], margin_34=xi[2] - xi[3],
            margin_41=xi[3] - xi[0], critical_residual=resid,
        )
    if rep.regime is not Regime.LARGE:
        raise WrongRegime("inequality chain exists for large or critical separation")

    T = cfg.temperature()
    _, be2 = ellipse_endpoints(cfg, t, 2, T=T)
    al1, _ = ellipse_endpoints(cfg, t, 1, T=T)
    if not be2 < al1:
        raise InequalityNotFound("clouds overlap at this time")

    def margins(x):
        xi = _xi_real(cfg, t, x, T=T)
        return xi, min(xi[1] - xi[2], xi[2] - xi[3], xi[3] - xi[0])

    lo = be2 + (al1 - be2) / (grid_points * 10)
    hi = al1 - (al1 - be2) / (grid_points * 10)
    h = (hi - lo) / (grid_points - 1)
    best_x, best_m = None, None
    for i in range(grid_points):
        x = lo + i * h
        _, m = margins(x)
        if best_m is None or m > best_m:
            best_x, best_m = x, m
    # Golden-section polish of the scan maximum.
    a, b = max(lo, best_x - h), min(hi, best_x + h)
    phi = (mp.sqrt(5) - 1) / 2
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    m1, m2 = margins(c1)[1], margins(c2)[1]
    for _ in range(220):
        if m1 < m2:
            a, c1, m1 = c1, c2, m2
            c2 = a + phi * (b - a)
            m2 = margins(c2)[1]
        else:
            b, c2, m2 = c2, c1, m1
            c1 = b - phi * (b - a)
            m1 = margins(c1)[1]
    x0 = (a + b) / 2
    xi, m = margins(x0)
    tol = mpf(10) ** (-(mp.prec // 8))
    if m < -tol:
        raise InequalityNotFound(
            f"no x0 with the inequality chain found (best margin {m})"
        )
    return XiInequalityReport(
        regime=rep.regime, x0=x0, xi=xi,
        margin_23=xi[1] - xi[2], margin_34=xi[2] - xi[3], margin_41=xi[3] - xi[0],
    )
