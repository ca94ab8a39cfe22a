"""Brownian-motion configuration, separation regimes, cloud geometry and
the double-scaling constants of the critical-separation analysis.

Two groups of non-intersecting Brownian bridges start at a1 > a2 and end
at b1 > b2, with limiting fractions p1 + p2 = 1, temperature T = n/N and
transition density ~ exp(-N (x-y)^2 / (2 t)).  For each time t in (0,1)
the groups asymptotically fill two intervals whose endpoints trace
ellipses in the time-space plane.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import NamedTuple, Optional

from mpmath import mp, mpf

from . import numerics as nu
from .errors import InvalidConfig, OutOfSupport, UnsupportedFractions, WrongRegime

CLASSIFY_RTOL = mpf("1e-12")


class Regime(str, Enum):
    LARGE = "large"
    SMALL = "small"
    CRITICAL = "critical"


class BrownianConfig(namedtuple("BrownianConfig", "a1 a2 b1 b2 p1 p2 T L")):
    """Endpoints, fractions and temperature rule of the two-group model.

    Exactly one of ``T`` (fixed temperature) or ``L`` (double-scaling rule
    T_n = 1 + L n^{-2/3}) is set.  Values can be given as decimal strings
    to avoid double-precision contamination.
    """

    __slots__ = ()

    def __new__(cls, a1, a2, b1, b2, p1=mpf(1) / 2, p2=mpf(1) / 2, T=None, L=None):
        if T is not None and L is not None:
            raise InvalidConfig("give either a fixed T or a scaling constant L")
        if T is None and L is None:
            T = mpf(1)
        values = []
        for name, value in zip(cls._fields, (a1, a2, b1, b2, p1, p2, T, L)):
            if value is not None:
                try:
                    value = nu.to_ext(value)
                except (TypeError, ValueError):
                    raise InvalidConfig(f"{name} must be a decimal number, got {value!r}") from None
                if not mp.isfinite(value):
                    raise InvalidConfig(f"{name} must be finite, got {value}")
            values.append(value)
        self = super().__new__(cls, *values)
        if self.T is not None and self.T <= 0:
            raise InvalidConfig("temperature T must be positive")
        if not self.a1 > self.a2:
            raise InvalidConfig("starting points must satisfy a1 > a2")
        if not self.b1 > self.b2:
            raise InvalidConfig("ending points must satisfy b1 > b2")
        if not (0 < self.p1 < 1 and 0 < self.p2 < 1):
            raise InvalidConfig("fractions must lie in (0, 1)")
        if abs(self.p1 + self.p2 - 1) > mpf("1e-30"):
            raise InvalidConfig("fractions must satisfy p1 + p2 = 1")
        return self

    def __reduce__(self):
        # the fields as they are: __new__ would round them again at the
        # loading side's precision
        return tuple.__new__, (type(self), tuple(self))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through here, so it converts and validates too
        return cls(*iterable)

    # -- temperature rule -------------------------------------------------
    def temperature(self, n: Optional[int] = None) -> mpf:
        """T for a fixed rule, or T_n = 1 + L n^{-2/3}; n=None gives the
        n -> infinity limit."""
        if self.T is not None:
            return self.T
        if n is None:
            return mpf(1)
        L = self.L
        T_n = 1 + L * mpf(n) ** (mpf(-2) / 3)
        # T_n <= 0 exactly when n^2 <= (-L)^3, with the cube taken exactly:
        # the rounded T_n can be a tiny positive number where the exact one
        # is zero, or zero where the exact one is tiny and positive
        if T_n <= 0 or L < 0 and n**2 <= mp.fmul(mp.fmul(L, L, exact=True), -L, exact=True):
            raise InvalidConfig(f"T_n = 1 + L n^(-2/3) is not positive at L = {L}, n = {n}")
        return T_n

    def scale_N(self, n: int) -> mpf:
        """Inverse-variance scale N = n / T_n."""
        return mpf(n) / self.temperature(n)

    @property
    def fractions(self) -> tuple[mpf, mpf]:
        return (self.p1, self.p2)

    def position(self, group: str, j: int) -> mpf:
        return getattr(self, f"{group}{j}")


class SeparationReport(NamedTuple):
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


class ScalingConstants(NamedTuple):
    K: mpf
    s: mpf


def scaling_constants(cfg: BrownianConfig, L) -> ScalingConstants:
    """Double-scaling constants K = (p1 p2)^{1/6} / (sqrt p1 + sqrt p2)^{4/3}
    and s = -(p1 p2)^{1/6}(sqrt p1 + sqrt p2)^{2/3} L (critical separation)."""
    rep = classify_separation(cfg)
    if rep.regime is not Regime.CRITICAL:
        raise WrongRegime(f"critical separation required, got {rep.regime.value}")
    L = nu.to_ext(L)
    s1, s2 = mp.sqrt(cfg.p1), mp.sqrt(cfg.p2)
    K = (cfg.p1 * cfg.p2) ** (mpf(1) / 6) / (s1 + s2) ** (mpf(4) / 3)
    s = -((cfg.p1 * cfg.p2) ** (mpf(1) / 6)) * (s1 + s2) ** (mpf(2) / 3) * L
    return ScalingConstants(K=K, s=s)
