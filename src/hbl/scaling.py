"""Finite-n recurrence coefficients against their large-n laws.

Three study harnesses: the double-scaling regime at critical separation
(temperature T_n = 1 + L n^{-2/3}, Painleve II predictions), the
small-separation regime (algebraic limits), and the large-separation
regime (exponential decay of the cross coefficients).  Each row at n is
the system of WeightSystem.from_config(cfg, t, n), at N = n / T_n with
T_n = cfg.temperature(n), as every other command reads it.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from mpmath import mp, mpf

from . import mop, rh
from . import numerics as nu
from .errors import DegenerateData, UnsupportedFractions, WrongRegime
from .model import BrownianConfig, Regime, classify_separation, scaling_constants
from .mop import MultiIndexPair, WeightSystem
from .painleve import solve_hastings_mcleod

DEFAULT_N_LIST = (8, 12, 16, 24, 32, 48, 64)


def split_count(p1, n: int) -> tuple[int, int]:
    """n1 = round(p1 n), n2 = n - n1; realizes p_j = p_j* + O(1/n)."""
    n1 = int(mp.floor(nu.to_ext(p1) * n + mpf(1) / 2))
    n1 = min(max(n1, 1), n - 1)
    return n1, n - n1


def _study_systems(cfg, t, n_list) -> list:
    """(ws, idx) of the RH expansion per n of n_list, largest n first, so
    a batch starts its longest jobs first: n1 + n2 = n and N = n / T_n
    with T_n = cfg.temperature(n).  Each study assembles them in one batch
    and turns every expansion into one row with _study_row, in ascending
    n, after the batch has returned."""
    systems = []
    for n in sorted(n_list, reverse=True):
        split = split_count(cfg.p1, n)
        systems.append((WeightSystem.from_config(cfg, t, n), MultiIndexPair(split, split)))
    return systems


def _study_row(cfg, exp, predictions: dict) -> dict:
    """One row of the study at exp, as a dict in artifact column order:
    n, n1 and n2 (ints); T_n and N; the six products c_ij c_ji; the four
    diagonal ratios c_ab c_bd / c_ad; the predictions, each key prefixed
    with pred_; and relation_residual_1..4 (rh.relation_residuals).  The
    values are unformatted; cli._fmt prints them."""
    n, (n1, n2) = exp.idx.size_n, exp.idx.n
    row = {"n": n, "n1": n1, "n2": n2, "T_n": cfg.temperature(n), "N": exp.ws.N}
    for i, j in ((1, 2), (1, 4), (1, 3), (2, 3), (2, 4), (3, 4)):
        row[f"c{i}{j}c{j}{i}"] = exp.product(i, j)
    c = exp.c
    for a, b in ((1, 2), (2, 1)):
        for d in (3, 4):
            row[f"c{a}{b}c{b}{d}_c{a}{d}"] = (c(a, b) * c(b, d) / c(a, d)).real
    row.update(("pred_" + key, val) for key, val in predictions.items())
    for i, val in enumerate(rh.relation_residuals(exp), 1):
        row[f"relation_residual_{i}"] = val
    return row


def double_scaling_study(cfg: BrownianConfig, t, n_list: Sequence[int]) -> tuple:
    """Sample the recurrence coefficients along T_n = 1 + L n^{-2/3} at a
    critical-separation configuration and tabulate the Painleve II
    predictions next to them.  L is the config's; a fixed T = 1 counts as
    L = 0, and any other fixed T raises WrongRegime.  The predictions hold
    for 0 < t < t_crit only; any other t raises WrongRegime.  Returns the
    rows and the metadata L, K, s and q_of_s.

    The Hastings-McLeod solve is queued in one batch with the expansions
    (see mop._map_cores), ahead of the largest n, so one worker takes it
    while the others take the expansions; the job returns q(s) alone, and
    its error comes before any expansion's, as if it ran first.
    """
    rep = classify_separation(cfg)
    if rep.regime is not Regime.CRITICAL or cfg.temperature() != 1:
        raise WrongRegime(
            f"double scaling needs critical separation at T = 1, "
            f"(a1-a2)(b1-b2) = (sqrt p1 + sqrt p2)^2; the config is in the "
            f"{rep.regime.value} regime at T = {cfg.temperature()}"
        )
    t = nu.to_ext(t)
    if abs(t - rep.t_crit) < mpf("1e-9"):
        raise WrongRegime("the multi-critical time t = t_crit is out of scope")
    if not 0 < t < rep.t_crit:
        raise WrongRegime("need 0 < t < t_crit")
    L = mpf(0) if cfg.L is None else cfg.L
    consts = scaling_constants(cfg, L)
    da, db = cfg.a1 - cfg.a2, cfg.b1 - cfg.b2

    def predictions(n: int, qs) -> dict:
        K2q2 = consts.K**2 * qs**2
        fac = mpf(n) ** (mpf(-2) / 3)
        return {
            "c12c21": -K2q2 * t**2 * db**2 * fac,
            "c14c41": K2q2 * t * (1 - t) * da * db * fac,
            "c12c23_c13": -K2q2 * t * db * mp.sqrt(da * db / cfg.p1) * fac,
            "c12c24_c14": -t * mp.sqrt(cfg.p2 * db / da),
            "c21c13_c23": t * mp.sqrt(cfg.p1 * db / da),
            "c21c14_c24": K2q2 * t * db * mp.sqrt(da * db / cfg.p2) * fac,
        }

    def solve():
        return solve_hastings_mcleod().evaluate(consts.s, nder=0)[0]

    expand = [partial(rh.assemble_rh_expansion, *system)
              for system in _study_systems(cfg, t, n_list)]
    qs, *exps = mop._map_cores(lambda job: job(), [solve] + expand)
    rows = [_study_row(cfg, exp, predictions(exp.idx.size_n, qs)) for exp in exps[::-1]]
    return rows, {"L": L, "K": consts.K, "s": consts.s, "q_of_s": qs}


def small_separation_study(cfg: BrownianConfig, t, n_list: Sequence[int]) -> tuple:
    """Deviations from the small-separation limits (p1 = p2 = 1/2 only,
    UnsupportedFractions otherwise):

    c12c21 -> -(t^2/(16 da^2)) (4 - da^2 db^2),
    c14c41 -> (t(1-t)/8) (2 - da db).

    Returns the rows and the metadata: each limit and the fitted order of
    convergence to it.
    """
    rep = classify_separation(cfg)
    if rep.regime is not Regime.SMALL:
        raise WrongRegime("small-separation study requires the small regime")
    if abs(cfg.p1 - mpf(1) / 2) > mpf("1e-30"):
        raise UnsupportedFractions("small-separation expansions assume p1 = p2 = 1/2")
    t = nu.to_ext(t)
    da, db = cfg.a1 - cfg.a2, cfg.b1 - cfg.b2
    limits = {
        "c12c21": -(t**2 / (16 * da**2)) * (4 - da**2 * db**2),
        "c14c41": t * (1 - t) / 8 * (2 - da * db),
    }
    exps = rh.assemble_rh_expansions(_study_systems(cfg, t, n_list))[::-1]
    rows = [_study_row(cfg, exp, limits) for exp in exps]
    ns = [r["n"] for r in rows]
    meta = {}
    for name, lim in limits.items():
        meta["limit_" + name] = lim
        meta["order_" + name] = convergence_rate_fit([r[name] for r in rows], ns, lim)
    return rows, meta


def large_separation_decay(cfg: BrownianConfig, t, n_list: Sequence[int]) -> tuple:
    """Fit log |c12 c21| and log |c14 c41| against n in the large regime.
    Returns the rows and the metadata: the slope and R^2 of each fit, as
    floats.

    The coefficients decay exponentially, so the default precision is
    raised to at least 512 bits: the values themselves are fine at 256
    bits, but a healthy guard keeps the regression clean down to ~1e-120.
    A higher working precision is kept.
    """
    rep = classify_separation(cfg)
    if rep.regime is not Regime.LARGE:
        raise WrongRegime("decay study requires the large regime")
    t = nu.to_ext(t)
    with mp.workprec(max(512, mp.prec)):
        exps = rh.assemble_rh_expansions(_study_systems(cfg, t, n_list))[::-1]
        rows = [_study_row(cfg, exp, {}) for exp in exps]
    ns = [r["n"] for r in rows]
    meta = {}
    for name in ("c12c21", "c14c41"):
        logs = [mp.log(abs(r[name])) for r in rows]
        slope, intercept = _line_fit(ns, logs)
        mean = mp.fsum(logs) / len(logs)
        ss_res = mp.fsum((y - slope * x - intercept) ** 2 for x, y in zip(ns, logs))
        ss_tot = mp.fsum((y - mean) ** 2 for y in logs)
        meta["slope_" + name] = float(slope)
        meta["r_squared_" + name] = float(1 - ss_res / ss_tot if ss_tot > 0 else 1)
    return rows, meta


def _line_fit(xs, ys) -> tuple:
    """(slope, intercept) of the least-squares line through the points
    (xs, ys), in mpf at working precision."""
    mx, my = mp.fsum(xs) / len(xs), mp.fsum(ys) / len(ys)
    sxx = mp.fsum((x - mx) ** 2 for x in xs)
    if not sxx:
        raise DegenerateData("all abscissae equal; cannot fit a line")
    slope = mp.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return slope, my - slope * mx


def convergence_rate_fit(values, n_list, predicted_limit) -> float:
    """The estimated convergence order of values to predicted_limit:
    minus the least-squares slope of log |value - limit| against log n."""
    if len(values) != len(n_list) or len(values) < 4:
        raise ValueError("need at least 4 samples")
    limit = nu.to_ext(predicted_limit)
    scale = max(abs(limit), mpf(1))
    devs = [abs(nu.to_ext(v) - limit) for v in values]
    if any(d < mpf("1e-30") * scale for d in devs):
        raise DegenerateData("deviation below resolution; cannot fit a rate")
    slope, _ = _line_fit([mp.log(n) for n in n_list], [mp.log(d) for d in devs])
    return float(-slope)
