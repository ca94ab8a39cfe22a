"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned verbatim.  Criterion 9 checks the O(1/n) error
bound of the small-separation analysis: a fitted order of at least 0.7 and
n*|deviation| strictly decreasing.  The bound is not sharp; the pinned
configuration converges at order ~2.
"""

import random
import time

from mpmath import mp, mpf, mpc

from hbl import kernel as kn
from hbl import numerics as nu
from hbl import painleve as pv
from hbl import rh
from hbl import scaling as sc
from hbl.model import BrownianConfig
from hbl.mop import MultiIndexPair, WeightSystem

from conftest import (
    PolyGaussian, cauchy_transform, jump_matrix, recurrence_residuals,
)


#: collected criterion lines, re-printed by the terminal-summary hook
REPORT_LINES: list = []


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}"
    REPORT_LINES.append(line)
    print(line)


# ---------------------------------------------------------------------------
# 1. scalar-product identities
# ---------------------------------------------------------------------------

def test_criterion_01_scalar_products():
    tol = mpf("1e-20")
    configs = {
        "symmetric": BrownianConfig("1", "-1", "0.7", "-0.7"),
        "asymmetric": BrownianConfig("1.1", "-0.4", "0.9", "-0.3", "0.36", "0.64"),
    }
    worst = mpf(0)
    slowest = 0.0
    for name, cfg in configs.items():
        t0 = time.monotonic()
        for comps in ((8, 8), (8, 3)):
            idx = MultiIndexPair(comps, comps)
            ws = WeightSystem.from_config(cfg, mpf("0.35"), idx.size_n)
            rep = rh.scalar_product_report(rh.assemble_rh_expansion(ws, idx))
            worst = max(worst, rep.max_residual)
        slowest = max(slowest, time.monotonic() - t0)
    ok = worst <= tol and slowest <= 30
    _report(1, ok, f"max residual {mp.nstr(worst, 3)} (tol 1e-20), "
                   f"worst config time {slowest:.1f}s (cap 30s)")
    assert ok


# ---------------------------------------------------------------------------
# 2. five-term recurrences with dual diagonal coefficient
# ---------------------------------------------------------------------------

def test_criterion_02_five_term_recurrences():
    tol = mpf("1e-18")
    cfg = BrownianConfig("1", "-1", "0.7", "-0.7")
    zs = (mpf(0), mpf(1), mpc(-1, 1))
    worst_rec = mpf(0)
    worst_diag = mpf(0)
    for comps in ((2, 2), (4, 4)):
        idx = MultiIndexPair(comps, comps)
        ws = WeightSystem.from_config(cfg, mpf(1) / 3, idx.size_n)
        exp = rh.assemble_rh_expansion(ws, idx)
        res = recurrence_residuals(ws, idx, zs)
        for k in range(2):
            for l in range(2):
                worst_rec = max(worst_rec, res[k, l][0])
                worst_diag = max(
                    worst_diag, rh.diagonal_recurrence(exp, k, l).disagreement
                )
    ok = worst_rec <= tol and worst_diag <= tol
    _report(2, ok, f"recurrence residual {mp.nstr(worst_rec, 3)}, "
                   f"diagonal-route disagreement {mp.nstr(worst_diag, 3)} (tol 1e-18)")
    assert ok


# ---------------------------------------------------------------------------
# 3. transfer-matrix inverse
# ---------------------------------------------------------------------------

def test_criterion_03_transfer_inverse():
    tol = mpf("1e-20")
    cfg = BrownianConfig("1", "-1", "0.7", "-0.7")
    idx = MultiIndexPair((3, 3), (3, 3))
    ws = WeightSystem.from_config(cfg, mpf("0.45"), idx.size_n)
    exp = rh.assemble_rh_expansion(ws, idx)
    rng = random.Random(33)
    worst = mpf(0)
    for k in range(2):
        for l in range(2):
            exp_sh = rh.assemble_rh_expansion(ws, idx.shift_n(k).shift_m(l))
            for _ in range(5):
                z = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                U = rh.forward_transfer(exp, exp_sh, k, l, z)
                Ub = rh.backward_transfer(exp, exp_sh, k, l, z)
                worst = max(worst, mp.mnorm(U * Ub - mp.eye(4), "inf"))
    ok = worst <= tol
    _report(3, ok, f"max |U Ub - I| {mp.nstr(worst, 3)} (tol 1e-20)")
    assert ok


# ---------------------------------------------------------------------------
# 4. Lax ODE
# ---------------------------------------------------------------------------

def test_criterion_04_lax_ode():
    cfg = BrownianConfig("1", "-1", "0.7", "-0.7")
    worst = mpf(0)
    worst_poly = mpf(0)
    for comps in ((1, 1), (2, 2), (3, 3)):
        idx = MultiIndexPair(comps, comps)
        ws = WeightSystem.from_config(cfg, mpf(1) / 3, idx.size_n)
        for z in (mpc(0, 1), mpc(3, -2)):
            res, res_poly = rh.verify_lax_ode(ws, idx, z)
            worst = max(worst, res)
            worst_poly = max(worst_poly, res_poly)
    ok = worst <= mpf("1e-10") and worst_poly <= mpf("1e-20")
    _report(4, ok, f"relative residual {mp.nstr(worst, 3)} (tol 1e-10), "
                   f"polynomial columns {mp.nstr(worst_poly, 3)} (tol 1e-20)")
    assert ok


# ---------------------------------------------------------------------------
# 5. spectral-curve expansions
# ---------------------------------------------------------------------------

def test_criterion_05_spectral_expansions():
    tol = mpf("1e-10")
    cfg = BrownianConfig("1", "-1", "0.7", "-0.7")
    worst = mpf(0)
    for comps in ((2, 2), (3, 2)):
        idx = MultiIndexPair(comps, comps)
        n = idx.size_n
        ws = WeightSystem.from_config(cfg, mpf("0.4"), n)
        report = rh.spectral_curve(rh.assemble_rh_expansion(ws, idx))
        want = [-mpf(idx.n[0]) / n, -mpf(idx.n[1]) / n,
                mpf(idx.m[0]) / n, mpf(idx.m[1]) / n]
        for target, branch in zip(want, report.branches):
            worst = max(worst, abs(branch.inverse_z - target))
    ok = worst <= tol
    _report(5, ok, f"max |c_-1 -+ n_k/n| {mp.nstr(worst, 3)} (tol 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 6. involution
# ---------------------------------------------------------------------------

def test_criterion_06_involution():
    tol = mpf("1e-20")
    cfg = BrownianConfig("1.1", "-0.4", "0.9", "-0.3", "0.36", "0.64")
    idx = MultiIndexPair((2, 2), (2, 2))
    ws = WeightSystem.from_config(cfg, mpf("0.3"), idx.size_n)
    exp = rh.assemble_rh_expansion(ws, idx)
    ws_sw, idx_sw = rh.swapped_system(ws, idx)
    exp_sw = rh.assemble_rh_expansion(ws_sw, idx_sw)
    resid = rh.involution_check(exp, exp_sw)
    ok = resid <= tol
    _report(6, ok, f"swap residual {mp.nstr(resid, 3)} (tol 1e-20)")
    assert ok


# ---------------------------------------------------------------------------
# 7. Painleve II
# ---------------------------------------------------------------------------

def test_criterion_07_painleve():
    from scipy.integrate import solve_ivp

    t0 = time.monotonic()
    sol = pv.solve_hastings_mcleod()
    resid_grid = sol.achieved_residual
    shoot = solve_ivp(
        lambda s, y: [y[1], s * y[0] + 2 * y[0] ** 3],
        [12.0, 0.0],
        [float(mp.airyai(12)), float(mp.airyai(12, derivative=1))],
        method="DOP853",
        rtol=1e-13,
        atol=1e-30,
    )
    q0_err = abs(sol.evaluate(0)[0] - mpf(float(shoot.y[0][-1])))
    airy_err = max(
        abs(sol.evaluate(mpf(6) + mpf(i) / 10)[0] - mp.airyai(mpf(6) + mpf(i) / 10))
        for i in range(0, 41, 4)
    )
    h = mpf("1e-6")
    ham_err = mpf(0)
    for i in range(25):
        s = mpf(-9) + i * mpf(18) / 24
        du = (pv.hamiltonian_u(sol, s + h) - pv.hamiltonian_u(sol, s - h)) / (2 * h)
        ham_err = max(ham_err, abs(du + sol.evaluate(s)[0] ** 2))
    elapsed = time.monotonic() - t0
    ok = (
        resid_grid <= mpf("1e-12")
        and q0_err <= mpf("1e-10")
        and airy_err <= mpf("1e-8")
        and ham_err <= mpf("1e-8")
        and elapsed <= 10
    )
    _report(7, ok, f"grid residual {mp.nstr(resid_grid, 3)} (1e-12), "
                   f"q(0) vs shooting {mp.nstr(q0_err, 3)} (1e-10), "
                   f"|q-Ai| on [6,10] {mp.nstr(airy_err, 3)} (1e-8), "
                   f"u'+q^2 {mp.nstr(ham_err, 3)} (1e-8), {elapsed:.1f}s (cap 10s)")
    assert ok


# ---------------------------------------------------------------------------
# 8. double scaling
# ---------------------------------------------------------------------------

def test_criterion_08_double_scaling(hml_solution, monkeypatch):
    t0 = time.monotonic()
    cfg = BrownianConfig("1", "-1", "0.5", "-0.5", L="0")
    monkeypatch.setattr(sc, "solve_hastings_mcleod", lambda: hml_solution)
    with mp.workprec(512):
        rows, meta = sc.double_scaling_study(
            cfg, t=mpf(1) / 3, n_list=(8, 12, 16, 24, 32, 48, 64)
        )
    signs_ok = all(r["c12c21"] < 0 < r["c14c41"] for r in rows)
    da, db = cfg.a1 - cfg.a2, cfg.b1 - cfg.b2
    t = mpf(1) / 3
    limit = meta["K"]**2 * t * (1 - t) * da * db * meta["q_of_s"]**2
    devs = {
        r["n"]: abs(mpf(r["n"]) ** (mpf(2) / 3) * r["c14c41"] - limit) / limit
        for r in rows
    }
    tail = [devs[n] for n in (16, 24, 32, 48, 64)]
    dev_ok = all(a > b for a, b in zip(tail, tail[1:]))
    rel_ok = all(r[f"relation_residual_{i}"] <= mpf("1e-18") for r in rows for i in range(1, 5))
    ratio_limit = -t * mp.sqrt(cfg.p2 * db / da)
    order = sc.convergence_rate_fit(
        [r["c12c24_c14"] for r in rows],
        [r["n"] for r in rows],
        ratio_limit,
    )
    order_ok = mpf("0.15") <= mpf(repr(order)) <= mpf("0.6")
    elapsed = time.monotonic() - t0
    ok = signs_ok and dev_ok and rel_ok and order_ok and elapsed <= 1200
    _report(8, ok, f"signs {'ok' if signs_ok else 'BAD'}, "
                   f"deviation decreasing 16->64 {'ok' if dev_ok else 'BAD'}, "
                   f"relations<=1e-18 {'ok' if rel_ok else 'BAD'}, "
                   f"fitted order {order:.3f} in [0.15,0.6] {'ok' if order_ok else 'BAD'}, "
                   f"{elapsed:.0f}s (cap 1200s)")
    assert ok


# ---------------------------------------------------------------------------
# 9. small separation  (the analysis bounds the error by O(1/n); the pinned
#    config converges at order ~2, inside that bound)
# ---------------------------------------------------------------------------

def test_criterion_09_small_separation():
    cfg = BrownianConfig("0.4", "-0.4", "0.3", "-0.3")
    rows, meta = sc.small_separation_study(cfg, t=mpf(1) / 2, n_list=(8, 16, 32, 64))
    d12 = [abs(r["c12c21"] - meta["limit_c12c21"]) for r in rows]
    d14 = [abs(r["c14c41"] - meta["limit_c14c41"]) for r in rows]
    mono_ok = all(a > b for a, b in zip(d12, d12[1:])) and all(
        a > b for a, b in zip(d14, d14[1:])
    )
    orders = (meta["order_c12c21"], meta["order_c14c41"])
    order_ok = all(o >= 0.7 for o in orders)
    # the O(1/n) bound without a fit: n*|dev| shrinks along the n-list
    s12 = [r["n"] * d for r, d in zip(rows, d12)]
    s14 = [r["n"] * d for r, d in zip(rows, d14)]
    bound_ok = all(a > b for a, b in zip(s12, s12[1:])) and all(
        a > b for a, b in zip(s14, s14[1:])
    )
    ok = mono_ok and order_ok and bound_ok
    _report(9, ok, f"monotone decrease {'ok' if mono_ok else 'BAD'}, "
                   f"fitted orders {orders[0]:.2f}/{orders[1]:.2f} vs >= 0.7 "
                   f"(O(1/n) bound) {'ok' if order_ok else 'BAD'}, "
                   f"n*|dev| decreasing {'ok' if bound_ok else 'BAD'}")
    assert ok


# ---------------------------------------------------------------------------
# 10. large separation
# ---------------------------------------------------------------------------

def test_criterion_10_large_separation():
    t0 = time.monotonic()
    cfg = BrownianConfig("1", "-1", "0.7", "-0.7")
    t = mpf(1) / 2
    _, fit = sc.large_separation_decay(cfg, t, n_list=(8, 16, 24, 32, 40))
    decay_ok = fit["slope_c12c21"] < 0 and fit["r_squared_c12c21"] >= 0.99
    grid = kn.default_grid(cfg, t, points=400)
    sups = {}
    for n in (8, 16, 24):
        ws = WeightSystem.from_config(cfg, t, n)
        idx = MultiIndexPair((n // 2, n // 2), (n // 2, n // 2))
        prof = kn.density_profile(ws, idx, cfg, grid)
        sups[n] = (prof.sup_distance_1, prof.sup_distance_2)
    dens_ok = all(
        sups[8][i] > sups[16][i] > sups[24][i] for i in range(2)
    )
    elapsed = time.monotonic() - t0
    ok = decay_ok and dens_ok and elapsed <= 600
    _report(10, ok, f"log-decay slope {fit['slope_c12c21']:.3f} "
                    f"R^2 {fit['r_squared_c12c21']:.4f} (>=0.99) "
                    f"{'ok' if decay_ok else 'BAD'}, "
                    f"density sup-distance decreasing {'ok' if dens_ok else 'BAD'}, "
                    f"{elapsed:.0f}s (cap 600s)")
    assert ok


# ---------------------------------------------------------------------------
# 11. kernel plumbing
# ---------------------------------------------------------------------------

def test_criterion_11_kernel_plumbing():
    rng = random.Random(71)
    pg = PolyGaussian(
        coeffs=tuple(mpf(repr(rng.uniform(-2, 2))) for _ in range(13)),
        gamma="1.3",
        mu="0.2",
    )
    worst_ct = mpf(0)
    for _ in range(20):
        z = mpc(rng.uniform(-3, 3), rng.uniform(0.05, 3))
        got = cauchy_transform(pg, z)
        with mp.workprec(128):
            ref = mp.quad(
                lambda x: pg(x) / (x - z), [-mp.inf, float(z.real), mp.inf]
            ) / (2j * mp.pi)
        worst_ct = max(worst_ct, abs(got - ref) / max(abs(ref), mpf("1e-25")))
    cfg = BrownianConfig("1", "-1", "0.7", "-0.7")
    idx = MultiIndexPair((2, 2), (2, 2))
    ws = WeightSystem.from_config(cfg, mpf(1) / 2, idx.size_n)
    Y_at = kn.YEvaluator(rh.assemble_rh_expansion(ws, idx)).value
    worst_jump = mpf(0)
    for x in ("-1.2", "0", "0.9"):
        x = mpf(x)
        Yp = Y_at(x, boundary="above")
        Ym = Y_at(x, boundary="below")
        J = jump_matrix(ws, x)
        worst_jump = max(
            worst_jump, nu.max_abs(Yp * mp.inverse(J) * mp.inverse(Ym) - mp.eye(4))
        )
    det_err = abs(mp.det(Y_at(mpc(1, 1))) - 1)
    ok = worst_ct <= mpf("1e-18") and worst_jump <= mpf("1e-15") and det_err <= mpf("1e-18")
    _report(11, ok, f"cauchy vs quadrature {mp.nstr(worst_ct, 3)} (1e-18), "
                    f"jump {mp.nstr(worst_jump, 3)} (1e-15), "
                    f"det Y - 1 {mp.nstr(det_err, 3)} (1e-18)")
    assert ok
