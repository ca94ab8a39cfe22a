"""Separation regimes, cloud geometry, xi functions and critical objects.

The xi functions, the reference point x0*, the constant c, the conformal
map f and the xi inequality chain of the critical-separation analysis are
oracles defined here: no hbl command reads them.
"""

import random
from dataclasses import dataclass
from typing import Optional

import pytest
from mpmath import mp, mpf, mpc, findroot

from hbl import model as md
from hbl import numerics as nu
from hbl.errors import (
    HblError,
    InvalidConfig,
    OutOfSupport,
    UnsupportedFractions,
    WrongRegime,
)
from hbl.model import BrownianConfig, Regime


def _random_critical_config(rng):
    p1 = mpf(repr(rng.uniform(0.2, 0.8)))
    p2 = 1 - p1
    a1 = mpf(repr(rng.uniform(0.5, 1.5)))
    a2 = a1 - mpf(repr(rng.uniform(1.0, 2.5)))
    b1 = mpf(repr(rng.uniform(0.0, 1.0)))
    b2 = b1 - (mp.sqrt(p1) + mp.sqrt(p2)) ** 2 / (a1 - a2)
    return BrownianConfig(a1, a2, b1, b2, p1, p2)


# ---------------------------------------------------------------------------
# oracles: xi functions
# ---------------------------------------------------------------------------

class BranchCutEvaluation(HblError):
    """Full complex value requested on a branch cut."""

    code = "branch-cut"
    exit_code = 2


class InequalityNotFound(HblError):
    """Scan failed to locate the expected inequality chain."""

    code = "inequality-not-found"


def _sqrt_branch(z, alpha, beta):
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


def xi_at(cfg, t, z, real_part_on_cut=False, T=None) -> XiValues:
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
        alpha, beta = md.ellipse_endpoints(cfg, t, j, T=T)
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
# oracles: critical-separation objects
# ---------------------------------------------------------------------------

def _critical_starred_geometry(cfg, t):
    """Starred endpoints at the critical temperature, so the tangency
    identities hold exactly for every critical configuration."""
    rep = md.classify_separation(cfg)
    if rep.regime is not Regime.CRITICAL:
        raise WrongRegime(f"critical separation required, got {rep.regime.value}")
    t = nu.to_ext(t)
    if not 0 < t < rep.t_crit:
        raise WrongRegime("need 0 < t < t_crit")
    Tc = rep.T_crit
    e1 = md.ellipse_endpoints(cfg, t, 1, T=Tc)
    e2 = md.ellipse_endpoints(cfg, t, 2, T=Tc)
    return rep, t, Tc, e1, e2


def reference_point_value(cfg, t):
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
    def max_residual(self):
        return max(
            self.residual_product_1,
            self.residual_product_2,
            self.residual_sum_1,
            self.residual_sum_2,
        )


def reference_point(cfg, t) -> ReferencePointReport:
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


def third_derivative_constant(cfg, t):
    """Coefficient c in (lambda4* - lambda3*)(z) = c (z - x0*)^3/6 + ..."""
    _, t, _, _, _ = _critical_starred_geometry(cfg, t)
    s1, s2 = mp.sqrt(cfg.p1), mp.sqrt(cfg.p2)
    d = (1 - t) * (cfg.a1 - cfg.a2) - t * (cfg.b1 - cfg.b2)
    return 2 * (s1 + s2) ** 4 / mp.sqrt(cfg.p1 * cfg.p2) / d**3


def lambda43_difference(cfg, t, z):
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


def conformal_map_f(cfg, t, z):
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
# oracles: inequality chain reports
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


def xi_inequality_report(cfg, t, grid_points=10000) -> XiInequalityReport:
    """Locate (large separation) or verify (critical separation) the chain
    xi2 >= xi3 > xi4 >= xi1 between the two clouds at time t."""
    rep = md.classify_separation(cfg)
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
    _, be2 = md.ellipse_endpoints(cfg, t, 2, T=T)
    al1, _ = md.ellipse_endpoints(cfg, t, 1, T=T)
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


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_figure_configs(large_sep_config, small_sep_config, critical_config):
    assert md.classify_separation(large_sep_config).regime is Regime.LARGE
    assert md.classify_separation(small_sep_config).regime is Regime.SMALL
    rep = md.classify_separation(critical_config)
    assert rep.regime is Regime.CRITICAL
    assert abs(rep.t_crit - mpf(2) / 3) < mpf("1e-70")
    assert abs(rep.T_crit - 1) < mpf("1e-70")


def test_classify_validates_config():
    with pytest.raises(InvalidConfig):
        BrownianConfig("1", "2", "0.5", "-0.5")  # a1 < a2
    with pytest.raises(InvalidConfig):
        BrownianConfig("1", "-1", "0.5", "-0.5", "0.3", "0.6")  # p1+p2 != 1
    with pytest.raises(InvalidConfig):
        BrownianConfig("1", "-1", "0.5", "-0.5", T="-2")


def test_config_replace_builds_through_the_constructor():
    # namedtuple's _replace built the tuple without converting or
    # validating: T = -1 was accepted and "0.4" stayed a string
    cfg = BrownianConfig("1", "-1", "0.5", "-0.5")
    got = cfg._replace(b1="0.4")
    assert got == BrownianConfig("1", "-1", "0.4", "-0.5")
    assert isinstance(got.b1, type(mpf(0))) and hash(got) == hash(BrownianConfig("1", "-1", "0.4", "-0.5"))
    with pytest.raises(InvalidConfig, match="temperature T must be positive"):
        cfg._replace(T=-1)
    with pytest.raises(InvalidConfig, match="either a fixed T or a scaling constant L"):
        cfg._replace(L="0.5")


def test_double_scaling_temperature_must_be_positive():
    cfg = BrownianConfig("1", "-1", "0.5", "-0.5", L="-4")
    assert cfg.temperature(16) > 0  # 1 - 4 / 16^(2/3)
    with pytest.raises(InvalidConfig):
        cfg.temperature(8)  # exactly 0, though the rounded T_8 is not
    with pytest.raises(InvalidConfig):
        cfg.scale_N(7)
    # here the exact T_9 is positive, but it rounds to 0 at 256 bits
    cfg = BrownianConfig("1", "-1", "0.5", "-0.5", L=-(mpf(9) ** (mpf(2) / 3)))
    with pytest.raises(InvalidConfig):
        cfg.temperature(9)


def test_classify_tolerance_band_flips(critical_config):
    T_crit = md.classify_separation(critical_config).T_crit
    for eps, expected in (
        (mpf("1e-3"), Regime.SMALL),
        (-mpf("1e-3"), Regime.LARGE),
        (mpf("1e-14"), Regime.CRITICAL),
    ):
        probe = BrownianConfig(
            critical_config.a1, critical_config.a2, critical_config.b1, critical_config.b2, critical_config.p1, critical_config.p2,
            T=T_crit * (1 + eps),
        )
        assert md.classify_separation(probe).regime is expected


# ---------------------------------------------------------------------------
# ellipse endpoints and semicircle laws
# ---------------------------------------------------------------------------

def test_endpoints_symmetric_example():
    # a = b = (1, -1), p = 1/2, T = 1, t = 1/3 gives [0.33, 1.66], [-1.66, -0.33]
    cfg = BrownianConfig("1", "-1", "1", "-1")
    t = mpf(1) / 3
    a1, b1 = md.ellipse_endpoints(cfg, t, 1)
    a2, b2 = md.ellipse_endpoints(cfg, t, 2)
    assert abs(a1 - mpf(1) / 3) < mpf("1e-70")
    assert abs(b1 - mpf(5) / 3) < mpf("1e-70")
    assert abs(a2 + mpf(5) / 3) < mpf("1e-70")
    assert abs(b2 + mpf(1) / 3) < mpf("1e-70")


@pytest.mark.parametrize("t", ["1e-12", "0.999999999999"])
def test_endpoints_time_limits(large_sep_config, t):
    # t -> 0 collapses to a_j, t -> 1 collapses to b_j
    for j in (1, 2):
        alpha, beta = md.ellipse_endpoints(large_sep_config, mpf(t), j)
        target = large_sep_config.position("a", j) if mpf(t) < mpf("0.5") else large_sep_config.position("b", j)
        assert abs(alpha - target) < mpf("1e-5")
        assert abs(beta - target) < mpf("1e-5")


def test_semicircle_endpoint_and_midpoint(large_sep_config):
    t = mpf("0.4")
    alpha, beta = md.ellipse_endpoints(large_sep_config, t, 1)
    assert md.semicircle_density(large_sep_config, t, 1, alpha) == 0
    mid = (alpha + beta) / 2
    expect = (beta - alpha) / (4 * mp.pi * large_sep_config.T * t * (1 - t))
    assert abs(md.semicircle_density(large_sep_config, t, 1, mid) - expect) < mpf("1e-70")
    with pytest.raises(OutOfSupport):
        md.semicircle_density(large_sep_config, t, 1, beta + 1)


def test_semicircle_mass_quadrature_oracle():
    rng = random.Random(11)
    for _ in range(10):
        p1 = mpf(repr(rng.uniform(0.25, 0.75)))
        cfg = BrownianConfig(
            mpf(repr(rng.uniform(0.5, 1.5))),
            mpf(repr(rng.uniform(-1.5, -0.5))),
            mpf(repr(rng.uniform(0.2, 1.0))),
            mpf(repr(rng.uniform(-1.0, -0.2))),
            p1,
            1 - p1,
            T=mpf(repr(rng.uniform(0.5, 2.0))),
        )
        t = mpf(repr(rng.uniform(0.2, 0.8)))
        j = rng.choice((1, 2))
        alpha, beta = md.ellipse_endpoints(cfg, t, j)

        def clamped(x, j=j, t=t, alpha=alpha, beta=beta, cfg=cfg):
            # tanh-sinh abscissae can overshoot the endpoint by roundoff
            return md.semicircle_density(cfg, t, j, min(max(x, alpha), beta))

        mass = mp.quad(clamped, [alpha, beta])
        assert abs(mass - cfg.fractions[j - 1]) < mpf("1e-10")


def test_overlap_in_small_regime(small_sep_config):
    # converse of the disjointness equivalence: below the critical
    # temperature product the clouds overlap for some time window
    overlaps = False
    for i in range(1, 100):
        t = mpf(i) / 100
        a1, _ = md.ellipse_endpoints(small_sep_config, t, 1)
        _, b2 = md.ellipse_endpoints(small_sep_config, t, 2)
        if a1 < b2:
            overlaps = True
            break
    assert overlaps


def test_xi_identity_at_reference_point(asym_critical):
    t = mpf("0.3")
    x0 = reference_point(asym_critical, t).x0_star
    T_crit = md.classify_separation(asym_critical).T_crit
    v = xi_at(asym_critical, t, x0, real_part_on_cut=True, T=T_crit)
    assert abs(v.xi1 + v.xi3 - 2 * v.Xi1) < mpf("1e-70")
    assert abs(v.xi2 + v.xi4 - 2 * v.Xi2) < mpf("1e-70")


def test_disjointness_in_large_regime(large_sep_config):
    # alpha_1(t) > beta_2(t) across (0,1) in the large regime
    for i in range(1, 200):
        t = mpf(i) / 200
        a1, _ = md.ellipse_endpoints(large_sep_config, t, 1)
        _, b2 = md.ellipse_endpoints(large_sep_config, t, 2)
        assert a1 > b2


# ---------------------------------------------------------------------------
# phase boundary
# ---------------------------------------------------------------------------

def test_phase_boundary_values():
    inv_sqrt2 = 1 / mp.sqrt(2)
    cfg = BrownianConfig(inv_sqrt2, -inv_sqrt2, inv_sqrt2, -inv_sqrt2)
    assert abs(md.phase_boundary(cfg, "0.5") - 1) < mpf("1e-70")
    assert abs(md.phase_boundary(cfg, "0.25") - mpf(5) / 3) < mpf("1e-70")


def test_phase_boundary_symmetry(critical_config):
    cfg = BrownianConfig("1", "-1", "1", "-1")  # a1-a2 = b1-b2
    for t in ("0.15", "0.3", "0.45"):
        assert abs(
            md.phase_boundary(cfg, t) - md.phase_boundary(cfg, str(1 - mpf(t)))
        ) < mpf("1e-70")


def test_phase_boundary_requires_half_fractions():
    cfg = BrownianConfig("1", "-1", "1", "-1", "0.4", "0.6")
    with pytest.raises(UnsupportedFractions):
        md.phase_boundary(cfg, "0.5")


# ---------------------------------------------------------------------------
# xi functions
# ---------------------------------------------------------------------------

def test_xi_sum_identities_random_points(large_sep_config):
    rng = random.Random(5)
    t = mpf("0.37")
    for _ in range(50):
        z = mpc(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.05, 3))
        v = xi_at(large_sep_config, t, z)
        assert abs(v.xi1 + v.xi3 - 2 * v.Xi1) < mpf("1e-28")
        assert abs(v.xi2 + v.xi4 - 2 * v.Xi2) < mpf("1e-28")


def test_xi_intersection_value_figure3():
    # graphs of xi_2 and xi_3 cross at -sqrt(2)/6 for the symmetric config
    cfg = BrownianConfig("1", "-1", "1", "-1")
    t = mpf(1) / 3

    def gap(x):
        v = xi_at(cfg, t, x, real_part_on_cut=True)
        return (v.xi2 - v.xi3).real

    x_cross = findroot(gap, mpf("-0.2"))
    assert abs(x_cross + mp.sqrt(2) / 6) < mpf("1e-40")


def test_xi_constant_ordering(critical_config):
    rep = md.classify_separation(critical_config)
    for t in ("0.1", "0.3", "0.5", str(rep.t_crit)):
        v = xi_at(critical_config, mpf(t), mpc(0, 1))
        # equality holds exactly at t = t_crit, up to roundoff dust
        assert v.Xi2 - v.Xi1 >= -mpf("1e-70") * max(abs(v.Xi1), mpf(1))


def test_xi_branch_cut_rejection(large_sep_config):
    t = mpf("0.4")
    alpha, beta = md.ellipse_endpoints(large_sep_config, t, 1)
    x_in = (alpha + beta) / 2
    with pytest.raises(BranchCutEvaluation):
        xi_at(large_sep_config, t, x_in)
    v = xi_at(large_sep_config, t, x_in, real_part_on_cut=True)
    assert abs(v.xi1.real - v.Xi1) < mpf("1e-70")


def test_xi_behaves_like_z_at_infinity(large_sep_config):
    t = mpf("0.3")
    z = mpc("1e8", "3e7")
    v = xi_at(large_sep_config, t, z)
    T = large_sep_config.T
    # xi_1 ~ z / (2 T t (1-t)); relative error O(1/z)
    expect = z / (2 * T * t * (1 - t))
    assert abs(v.xi1 / expect - 1) < mpf("1e-7")


# ---------------------------------------------------------------------------
# critical-separation objects
# ---------------------------------------------------------------------------

def test_reference_point_symmetric_is_zero(critical_config):
    rep = reference_point(critical_config, mpf(1) / 3)
    assert rep.x0_star == 0
    assert rep.max_residual < mpf("1e-25")


def test_reference_point_identities_random_critical():
    rng = random.Random(31)
    for _ in range(10):
        cfg = _random_critical_config(rng)
        t_crit = md.classify_separation(cfg).t_crit
        t = t_crit * mpf(repr(rng.uniform(0.2, 0.9)))
        rep = reference_point(cfg, t)
        assert rep.max_residual < mpf("1e-25")


def test_reference_point_between_clouds(asym_critical):
    t = mpf("0.3")
    rep = reference_point(asym_critical, t)
    T_crit = md.classify_separation(asym_critical).T_crit
    _, be2 = md.ellipse_endpoints(asym_critical, t, 2, T=T_crit)
    al1, _ = md.ellipse_endpoints(asym_critical, t, 1, T=T_crit)
    assert be2 < rep.x0_star < al1


def test_reference_point_wrong_regime(large_sep_config):
    with pytest.raises(WrongRegime):
        reference_point(large_sep_config, mpf("0.3"))


def test_scaling_constants_exact_values(critical_config):
    sc = md.scaling_constants(critical_config, L=1)
    assert abs(sc.K - mpf(1) / 2) < mpf("1e-70")
    assert abs(sc.s + 1) < mpf("1e-70")
    sc0 = md.scaling_constants(critical_config, L=0)
    assert sc0.s == 0
    # t_crit comes from classify_separation
    assert abs(md.classify_separation(critical_config).t_crit - mpf(2) / 3) < mpf("1e-70")


def test_conformal_map_linearization(asym_critical):
    t = mpf("0.3")
    rep = reference_point(asym_critical, t)
    x0 = rep.x0_star
    f0, c = conformal_map_f(asym_critical, t, x0)
    assert f0 == 0
    # numeric f'(x0*) against 1/(2K((1-t)(a1-a2) - t(b1-b2)))
    sc = md.scaling_constants(asym_critical, 0)
    d = (1 - t) * (asym_critical.a1 - asym_critical.a2) - t * (
        asym_critical.b1 - asym_critical.b2
    )
    expect = 1 / (2 * sc.K * d)
    h = mpf("1e-12")
    fp = (conformal_map_f(asym_critical, t, x0 + h)[0]
          - conformal_map_f(asym_critical, t, x0 - h)[0]) / (2 * h)
    assert abs(fp - expect) < mpf("1e-10") * abs(expect)


def test_third_derivative_constant_vs_finite_differences(asym_critical):
    # c from the closed formula against a 5-point second derivative of
    # (xi4* - xi3*), i.e. the third derivative of the lambda difference
    t = mpf("0.3")
    rep = reference_point(asym_critical, t)
    x0 = rep.x0_star
    T_crit = md.classify_separation(asym_critical).T_crit
    h = mpf("1e-7")

    def xid(y):
        v = xi_at(asym_critical, t, y, T=T_crit)
        return (v.xi4 - v.xi3).real

    with mp.extraprec(80):
        second = (
            -xid(x0 + 2 * h) + 16 * xid(x0 + h) - 30 * xid(x0)
            + 16 * xid(x0 - h) - xid(x0 - 2 * h)
        ) / (12 * h**2)
    c_formula = third_derivative_constant(asym_critical, t)
    assert abs(second - c_formula) < mpf("1e-8") * abs(c_formula)
    assert c_formula > 0


def test_conformal_map_domain_guard(asym_critical):
    t = mpf("0.3")
    x0 = reference_point(asym_critical, t).x0_star
    with pytest.raises(WrongRegime):
        conformal_map_f(asym_critical, t, x0 + 10)


def test_conformal_map_cube_consistency(asym_critical):
    # f(z)^3 = (3/8)(lambda4* - lambda3*)(z) on a small circle around x0*
    t = mpf("0.3")
    x0 = reference_point(asym_critical, t).x0_star
    for angle in (0, 1, 2, 3):
        z = x0 + mpf("0.04") * mp.expjpi(mpf(angle) / 2)
        fz, _ = conformal_map_f(asym_critical, t, z)
        target = mpf(3) / 8 * lambda43_difference(asym_critical, t, z)
        assert abs(fz**3 - target) < mpf("1e-40") * max(abs(target), mpf("1e-30"))


# ---------------------------------------------------------------------------
# inequality chain reports
# ---------------------------------------------------------------------------

def test_inequality_chain_large_separation(large_sep_config):
    rep = xi_inequality_report(large_sep_config, mpf(1) / 3, grid_points=2000)
    assert rep.regime is Regime.LARGE
    assert rep.margin_23 >= 0 and rep.margin_41 >= 0
    assert rep.margin_34 > 0
    xi = rep.xi
    assert xi[1] >= xi[2] > xi[3] >= xi[0]


def test_inequality_critical_residual(asym_critical):
    rep = xi_inequality_report(asym_critical, mpf("0.3"))
    assert rep.critical_residual < mpf("1e-25")
    assert rep.margin_23 > 0 and rep.margin_41 > 0


def test_inequality_large_at_critical_time_degenerates(large_sep_config):
    # at t = t_crit (large separation) only xi2 = xi3 > xi4 = xi1 survives
    t_crit = md.classify_separation(large_sep_config).t_crit
    rep = xi_inequality_report(large_sep_config, t_crit, grid_points=4000)
    assert abs(rep.margin_23) < mpf("1e-12")
    assert abs(rep.margin_41) < mpf("1e-12")
    assert rep.margin_34 > mpf("1e-6")


def test_inequality_chain_general_temperature():
    # the chain scan also works off the T = 1 normalization
    cfg = BrownianConfig("1", "-1", "0.7", "-0.7", T="0.9")
    rep = xi_inequality_report(cfg, mpf("0.35"), grid_points=2000)
    xi = rep.xi
    assert xi[1] >= xi[2] > xi[3] >= xi[0]


def test_inequality_wrong_regime(small_sep_config):
    with pytest.raises(WrongRegime):
        xi_inequality_report(small_sep_config, mpf("0.4"))
