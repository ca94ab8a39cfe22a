"""Convergence studies against the large-n laws of the three regimes."""

import os
from pathlib import Path

import pytest
from mpmath import mp, mpf

from hbl import mop, rh
from hbl import scaling as sc
from hbl.cli import main
from hbl.errors import (
    DegenerateData,
    InvalidConfig,
    NoConvergence,
    NormalizationImpossible,
    WrongRegime,
)
from hbl.model import BrownianConfig
from hbl.mop import MultiIndexPair, WeightSystem

from conftest import SolveLog

CRITICAL_CONFIG = Path(__file__).parent / "data" / "critical_config.json"


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_rate_fit_third_order_synthetic():
    ns = [8, 16, 32, 64, 128]
    vals = [1 + mpf(n) ** (mpf(-1) / 3) for n in ns]
    order = sc.convergence_rate_fit(vals, ns, 1)
    assert abs(order - mpf(1) / 3) < mpf("0.02")


def test_rate_fit_constant_degenerates():
    with pytest.raises(DegenerateData):
        sc.convergence_rate_fit([mpf(5)] * 5, [8, 16, 32, 64, 128], 5)


def test_rate_fit_first_order_with_correction():
    ns = [8, 16, 32, 64, 128]
    vals = [2 + 3 / mpf(n) + 1 / mpf(n) ** 2 for n in ns]
    order = sc.convergence_rate_fit(vals, ns, 2)
    assert abs(order - 1) < mpf("0.05")


def test_rate_fit_requires_enough_points():
    with pytest.raises(ValueError):
        sc.convergence_rate_fit([mpf(1), mpf(2)], [8, 16], 0)


def test_line_fit_exact_on_a_line():
    xs = [mpf(n) for n in (8, 16, 24, 40)]
    slope, intercept = sc._line_fit(xs, [mpf(-7) / 3 * x + mpf(5) / 7 for x in xs])
    assert abs(slope + mpf(7) / 3) < mpf(2) ** (-mp.prec + 8)
    assert abs(intercept - mpf(5) / 7) < mpf(2) ** (-mp.prec + 8)


def test_line_fit_matches_numpy_polyfit():
    import numpy as np

    xs = [mp.log(n) for n in (8, 16, 32, 64, 128)]
    ys = [mp.log(abs(mp.sin(n) / n**2)) for n in (8, 16, 32, 64, 128)]
    want = np.polyfit([float(x) for x in xs], [float(y) for y in ys], 1)
    got = sc._line_fit(xs, ys)
    assert all(abs(float(g) - w) <= 1e-12 * max(abs(w), 1) for g, w in zip(got, want))


def test_line_fit_equal_abscissae_degenerate():
    with pytest.raises(DegenerateData):
        sc._line_fit([mpf(16)] * 3, [mpf(1), mpf(2), mpf(3)])


def test_split_count_rounding():
    assert sc.split_count("0.5", 8) == (4, 4)
    assert sc.split_count("0.5", 9) == (5, 4)
    assert sc.split_count("0.36", 25) == (9, 16)


# ---------------------------------------------------------------------------
# double scaling (critical separation)
# ---------------------------------------------------------------------------

@pytest.fixture()
def shared_solve(hml_solution, monkeypatch):
    """The studies take the shared hml_solution as their Hastings-McLeod solve."""
    monkeypatch.setattr(sc, "solve_hastings_mcleod", lambda: hml_solution)


@pytest.fixture(scope="module")
def ds_study(critical_config, hml_solution):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sc, "solve_hastings_mcleod", lambda: hml_solution)
        return sc.double_scaling_study(critical_config, t=mpf(1) / 3, n_list=(8, 12, 16, 24))


def test_double_scaling_sign_pattern(ds_study):
    rows, _ = ds_study
    for row in rows:
        assert row["c12c21"] < 0
        assert row["c14c41"] > 0


def test_double_scaling_relations_hold_every_row(ds_study):
    rows, _ = ds_study
    for row in rows:
        assert max(row[f"relation_residual_{i}"] for i in range(1, 5)) < mpf("1e-20")


def test_double_scaling_prediction_improves(ds_study):
    rows, _ = ds_study
    devs = []
    for row in rows:
        fac = mpf(row["n"]) ** (mpf(2) / 3)
        pred = row["pred_c14c41"] * fac
        devs.append(abs(fac * row["c14c41"] - pred) / pred)
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_double_scaling_diagonal_ratio_limit(ds_study, critical_config):
    # c12 c24 / c14 -> -t sqrt(p2 (b1-b2)/(a1-a2)), deviation shrinking
    rows, _ = ds_study
    t = mpf(1) / 3
    limit = -t * mp.sqrt(critical_config.p2 * (critical_config.b1 - critical_config.b2) / (critical_config.a1 - critical_config.a2))
    devs = [abs(row["c12c24_c14"] - limit) for row in rows]
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_double_scaling_painleve_constants(ds_study):
    _, meta = ds_study
    assert meta["L"] == 0 and isinstance(meta["L"], mpf)
    assert abs(meta["K"] - mpf(1) / 2) < mpf("1e-60")
    assert meta["s"] == 0
    assert abs(meta["q_of_s"] - mpf("0.36706155154807")) < mpf("1e-11")


def test_double_scaling_wrong_regime(large_sep_config):
    with pytest.raises(WrongRegime):
        sc.double_scaling_study(large_sep_config, t=mpf(1) / 3, n_list=(8,))


def test_double_scaling_needs_T_1():
    # critical at T = 2, but T_n = 1 + L n^{-2/3} tends to 1
    cfg = BrownianConfig("1", "-1", "1", "-1", T=2)
    with pytest.raises(WrongRegime, match=r"at T = 1, .* critical regime at T = 2\.0$"):
        sc.double_scaling_study(cfg, t=mpf(1) / 3, n_list=(8,))


def test_double_scaling_rejects_critical_time(critical_config):
    with pytest.raises(WrongRegime):
        sc.double_scaling_study(critical_config, t=mpf(2) / 3, n_list=(8,))


def test_temperature_rule_is_exact(critical_config, shared_solve):
    rows, _ = sc.double_scaling_study(
        critical_config._replace(T=None, L="0.5"), t=mpf(1) / 3, n_list=(8, 12, 16, 24)
    )
    for row in rows:
        assert row["T_n"] == 1 + mpf("0.5") * mpf(row["n"]) ** (mpf(-2) / 3)
        assert row["N"] == mpf(row["n"]) / row["T_n"]


def test_double_scaling_nonzero_L(critical_config, shared_solve):
    # L = 1 maps to s = -1 for p = (1/2, 1/2); the same leading-order laws
    # must kick in with q(-1) in place of q(0)
    rows, meta = sc.double_scaling_study(
        critical_config._replace(T=None, L=1), t=mpf(1) / 3, n_list=(8, 12, 16, 24, 32)
    )
    assert abs(meta["s"] + 1) < mpf("1e-60")
    assert meta["q_of_s"] > mpf("0.5")  # q grows toward the left
    for row in rows:
        assert row["c12c21"] < 0 < row["c14c41"]
        assert max(row[f"relation_residual_{i}"] for i in range(1, 5)) < mpf("1e-20")
    devs = []
    for row in rows:
        fac = mpf(row["n"]) ** (mpf(2) / 3)
        pred = row["pred_c14c41"] * fac
        devs.append(abs(fac * row["c14c41"] - pred) / pred)
    # prediction captures the value within ~n^{-1/3} and keeps improving
    assert devs[-1] < devs[0]
    assert devs[-1] < mpf("0.2")


def test_double_scaling_second_time(critical_config, shared_solve):
    # the prediction structure is uniform in t (a second non-critical time)
    rows, _ = sc.double_scaling_study(critical_config, t=mpf(1) / 2, n_list=(8, 16, 32))
    devs = []
    for row in rows:
        assert row["c12c21"] < 0 < row["c14c41"]
        fac = mpf(row["n"]) ** (mpf(2) / 3)
        pred = row["pred_c14c41"] * fac
        devs.append(abs(fac * row["c14c41"] - pred) / pred)
    assert devs[-1] < devs[0]


def test_double_scaling_extreme_L_smoke(critical_config, shared_solve):
    # |L| up to 8 stays inside the Hastings-McLeod sampling domain; the
    # finite-n identities remain exact even far from the asymptotic regime
    rows, meta = sc.double_scaling_study(
        critical_config._replace(T=None, L=8), t=mpf(1) / 3, n_list=(8, 12))
    assert abs(meta["s"] + 8) < mpf("1e-60")
    for row in rows:
        assert max(row[f"relation_residual_{i}"] for i in range(1, 5)) < mpf("1e-20")


def test_double_scaling_q_against_interpolant(critical_config, hml_solution, shared_solve):
    _, meta = sc.double_scaling_study(
        critical_config._replace(T=None, L="0.5"), t=mpf(1) / 3, n_list=(8, 12, 16, 24)
    )
    assert abs(meta["q_of_s"] - hml_solution.evaluate(meta["s"])[0]) == 0


# ---------------------------------------------------------------------------
# the Hastings-McLeod solve beside the expansion batch
# ---------------------------------------------------------------------------

def test_scaling_batch_queues_the_solve_first(critical_config, monkeypatch):
    # default n-list over two CPUs: the study queues the solve and then the
    # expansions largest n first, so the solve and n = 64 are the first two
    # jobs the workers start; every job runs once
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    log = SolveLog()  # (n, pid): n = 0 for the solve
    solve, expand = sc.solve_hastings_mcleod, rh.assemble_rh_expansion

    def recorded_solve():
        log.record(0, os.getpid())
        return solve()

    def recorded_expand(ws, idx):
        log.record(idx.size_n, os.getpid())
        return expand(ws, idx)

    monkeypatch.setattr(sc, "solve_hastings_mcleod", recorded_solve)
    monkeypatch.setattr(rh, "assemble_rh_expansion", recorded_expand)
    sc.double_scaling_study(critical_config, t=mpf(1) / 3, n_list=sc.DEFAULT_N_LIST)
    started = [n for n, _ in log]
    assert sorted(started) == [0, 8, 12, 16, 24, 32, 48, 64]
    assert set(started[:2]) == {0, 64}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fourth_relation_has_one_formula(critical_config, shared_solve, monkeypatch):
    # the study's fourth residual is the one in the scalar-product report of
    # the expansion its row was built from, recorded on one CPU
    t = mpf(1) / 3
    built, assemble = {}, rh.assemble_rh_expansion

    def recorded(ws, idx):
        built[idx.size_n] = assemble(ws, idx)
        return built[idx.size_n]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(rh, "assemble_rh_expansion", recorded)
    rows, _ = sc.double_scaling_study(critical_config, t=t, n_list=sc.DEFAULT_N_LIST)
    for row in rows:
        split = (row["n1"], row["n2"])
        exp = built[row["n"]]
        assert (exp.ws, exp.idx) == (
            WeightSystem.from_config(critical_config, t, row["n"]), MultiIndexPair(split, split))
        assert row["relation_residual_4"]._mpf_ == rh.scalar_product_report(exp).fourth_relation._mpf_


@pytest.mark.parametrize("regime", ["critical", "small", "large"])
def test_every_study_reads_T_n_and_N_from_the_config(regime, request, shared_solve):
    # an "L" config in every regime: the rows sample T_n = 1 + L n^{-2/3}
    base = request.getfixturevalue(regime + ("_config" if regime == "critical" else "_sep_config"))
    cfg = base._replace(T=None, L="0.5")
    t = mpf(1) / 3
    study = {
        "critical": sc.double_scaling_study,
        "small": sc.small_separation_study,
        "large": sc.large_separation_decay,
    }[regime]
    rows, _ = study(cfg, t, n_list=(8, 16) if regime == "large" else (8, 12, 16, 24))
    with mp.workprec(512 if regime == "large" else mp.prec):  # the decay study's bits
        for row in rows:
            assert row["T_n"]._mpf_ == cfg.temperature(row["n"])._mpf_
            assert row["N"]._mpf_ == WeightSystem.from_config(cfg, t, row["n"]).N._mpf_


def test_double_scaling_accepts_a_negative_L_past_its_bound(critical_config, shared_solve):
    # T_n = 1 - 4 n^{-2/3} vanishes at n = 8 and is positive beyond
    cfg = critical_config._replace(T=None, L=-4)
    rows, _ = sc.double_scaling_study(cfg, t=mpf(1) / 3, n_list=(16, 24))
    assert [row["n"] for row in rows] == [16, 24]
    assert all(0 < row["T_n"] < 1 for row in rows)
    with pytest.raises(InvalidConfig):
        sc.double_scaling_study(cfg, t=mpf(1) / 3, n_list=(8, 16))


@pytest.mark.parametrize(
    "n_list",
    [
        sc.DEFAULT_N_LIST,
        # the solve and n = 72 lead the queue, so on two CPUs each runs in
        # a worker of its own, and both errors cross a pipe
        (8, 72),
    ],
    ids=["solve-in-parent", "solve-in-worker"],
)
def test_scaling_batch_raises_the_solve_error(critical_config, hml_solution, monkeypatch, n_list):
    # at 128 bits with no room to escalate, n >= 48 fails too: its error
    # surfaces when the solve succeeds; when the solve fails too, the
    # solve's error wins, as when the solve ran before the batch, and no
    # child is left
    def failing_solve():
        raise NoConvergence("Newton stalled")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(mop, "MAX_ESCALATED_PRECISION", 128)
    monkeypatch.setattr(sc, "solve_hastings_mcleod", lambda: hml_solution)
    with mp.workprec(128):
        with pytest.raises(NormalizationImpossible):
            sc.double_scaling_study(critical_config, t=mpf(1) / 3, n_list=n_list)
        monkeypatch.setattr(sc, "solve_hastings_mcleod", failing_solve)
        with pytest.raises(NoConvergence, match="^Newton stalled$"):
            sc.double_scaling_study(critical_config, t=mpf(1) / 3, n_list=n_list)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "argv",
    [
        ["scaling", "--t", "0.333"],
        ["scaling", "--t", "0.333", "--L", "1.5", "--n-list", "8,16,32"],
        ["--precision", "512", "scaling", "--t", "0.333"],
    ],
    ids=["default", "L-1.5", "512-bits"],
)
def test_scaling_batch_artifacts_match_the_loop(argv, tmp_path, monkeypatch):
    # the study over two CPUs writes the bytes of the in-process loop and of
    # a one-CPU run that cannot fork
    def fork():
        raise AssertionError("forked on one CPU")

    at = argv.index("scaling") + 1
    argv = argv[:at] + ["--config", str(CRITICAL_CONFIG)] + argv[at:]
    def loop(fn, jobs):
        return [fn(job) for job in jobs]

    runs = []
    for name, cpus, map_cores in (("loop", {0, 1}, loop), ("two", {0, 1}, None),
                                  ("one", {0}, None)):
        monkeypatch.undo()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        if map_cores:
            monkeypatch.setattr(mop, "_map_cores", map_cores)
        if cpus == {0}:
            monkeypatch.setattr(os, "fork", fork)
        out = tmp_path / name
        assert main(["--out", str(out)] + argv) == 0
        runs.append([(out / f).read_bytes() for f in ("scaling.csv", "scaling.json")])
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# small separation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_study(small_sep_config):
    return sc.small_separation_study(small_sep_config, t=mpf(1) / 2, n_list=(8, 16, 32, 64))


def test_small_separation_limits_exact_arithmetic(small_study):
    # (typeaEvi1): -(t^2/(16 * 0.64)) (4 - 0.64*0.36); (typeaEvi2): t(1-t)/8 * (2 - 0.48)
    t = mpf(1) / 2
    lim12 = -(t**2 / (16 * mpf("0.64"))) * (4 - mpf("0.64") * mpf("0.36"))
    lim14 = t * (1 - t) / 8 * (2 - mpf("0.48"))
    _, meta = small_study
    assert abs(meta["limit_c12c21"] - lim12) < mpf("1e-70")
    assert abs(meta["limit_c14c41"] - lim14) < mpf("1e-70")


def test_small_separation_monotone_decrease(small_study):
    rows, meta = small_study
    d12 = [abs(r["c12c21"] - meta["limit_c12c21"]) for r in rows]
    d14 = [abs(r["c14c41"] - meta["limit_c14c41"]) for r in rows]
    assert all(a > b for a, b in zip(d12, d12[1:]))
    assert all(a > b for a, b in zip(d14, d14[1:]))


def test_small_separation_measured_order(small_study):
    # The measured decay is quadratic, inside the theoretical O(1/n) error
    # bound.  Mirror symmetry is not the cause: every two-start/two-end
    # config is an affine shift (alpha(1-t) + beta t) of a mirror-symmetric
    # one.  The likely cause is the swap of the two groups, a symmetry when
    # p1 = p2, which cancels the first correction.  (Acceptance criterion 9
    # checks the O(1/n) bound itself.)
    _, meta = small_study
    assert mpf("1.8") < meta["order_c12c21"] < mpf("2.2")
    assert mpf("1.8") < meta["order_c14c41"] < mpf("2.2")


def test_small_separation_wrong_regime(large_sep_config):
    with pytest.raises(WrongRegime):
        sc.small_separation_study(large_sep_config, t=mpf(1) / 2, n_list=(8, 16, 32, 64))


# ---------------------------------------------------------------------------
# large separation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def large_study(large_sep_config):
    return sc.large_separation_decay(large_sep_config, t=mpf(1) / 2, n_list=(8, 16, 24, 32))


def test_large_separation_negative_slope(large_study):
    _, meta = large_study
    assert meta["slope_c12c21"] < 0
    assert meta["slope_c14c41"] < 0
    assert meta["r_squared_c12c21"] > 0.99
    assert meta["r_squared_c14c41"] > 0.99


def test_large_separation_monotone(large_study):
    rows, _ = large_study
    by_n = {r["n"]: r for r in rows}
    assert abs(by_n[32]["c12c21"]) < abs(by_n[16]["c12c21"])


def test_large_separation_relations_regime_independent(large_study):
    rows, _ = large_study
    for row in rows:
        assert max(row[f"relation_residual_{i}"] for i in range(1, 5)) < mpf("1e-20")


def test_large_separation_wrong_regime(small_sep_config):
    with pytest.raises(WrongRegime):
        sc.large_separation_decay(small_sep_config, t=mpf(1) / 2, n_list=(8, 16))


def test_large_separation_follows_higher_working_precision(large_sep_config):
    # the study runs at max(512, working precision): at 1024 working bits
    # it agrees with a 2048-bit study far beyond what 512 bits can resolve
    t, n_list = mpf(1) / 2, (8, 16)
    with mp.workprec(1024):
        lo, _ = sc.large_separation_decay(large_sep_config, t, n_list)
    with mp.workprec(2048):
        hi, _ = sc.large_separation_decay(large_sep_config, t, n_list)
    for a, b in zip(lo, hi):
        for key in ("c12c21", "c14c41"):
            assert abs(a[key] - b[key]) <= mpf(2) ** -900 * abs(b[key])
