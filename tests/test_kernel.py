"""Cauchy transforms, the full Y(z) matrix, kernel and density profiles."""

import os
import random

import mpmath.ctx_mp_python as ctx_mp_python
import pytest
from mpmath import mp, mpf, mpc

from hbl import kernel as kn
from hbl import mop
from hbl import numerics as nu
from hbl import rh
from hbl.errors import NormalizationImpossible, WrongRegime
from hbl.model import BrownianConfig, ellipse_endpoints
from hbl.mop import MultiIndexPair, WeightSystem

from conftest import (
    PolyGaussian,
    cauchy_transform,
    count_solves,
    jump_matrix,
    polyval_kernel_oracle,
    rh_kernel_oracle,
)


@pytest.fixture(scope="module")
def cfg_large():
    return BrownianConfig("1", "-1", "0.7", "-0.7")


@pytest.fixture(scope="module")
def ws4(cfg_large):
    return WeightSystem.from_config(cfg_large, mpf(1) / 2, 4)


@pytest.fixture(scope="module")
def idx22():
    return MultiIndexPair((2, 2), (2, 2))


@pytest.fixture(scope="module")
def Y4(ws4, idx22):
    """Y(z, boundary="above") at ws4 and idx22, from one expansion."""
    return kn.YEvaluator(rh.assemble_rh_expansion(ws4, idx22)).value


# ---------------------------------------------------------------------------
# cauchy_transform
# ---------------------------------------------------------------------------

def test_cauchy_gaussian_at_i_vs_quadrature():
    pg = PolyGaussian(coeffs=(1,), gamma=1, mu=0)
    z = mpc(0, 1)
    got = cauchy_transform(pg, z)
    ref = mp.quad(lambda x: pg(x) / (x - z), [-mp.inf, 0, mp.inf]) / (2j * mp.pi)
    assert abs(got - ref) <= mpf("1e-18") * abs(ref)


def test_cauchy_vs_quadrature_20_points_degree_12():
    rng = random.Random(41)
    pg = PolyGaussian(
        coeffs=tuple(mpf(repr(rng.uniform(-2, 2))) for _ in range(13)),
        gamma="1.4",
        mu="-0.3",
        log_scale="0.2",
    )
    for _ in range(20):
        z = mpc(rng.uniform(-4, 4), rng.uniform(0, 4))
        if z.imag == 0:
            z += mpc(0, "0.5")
        got = cauchy_transform(pg, z)
        with mp.workprec(128):
            ref = mp.quad(
                lambda x: pg(x) / (x - z), [-mp.inf, float(z.real), mp.inf]
            ) / (2j * mp.pi)
        assert abs(got - ref) <= mpf("1e-18") * max(abs(ref), mpf("1e-20"))


def test_cauchy_large_z_mass_law():
    pg = PolyGaussian(coeffs=("2", "0.5", "-1", "0", "3"), gamma="1.7", mu="-0.4")
    z = mpc("1e4", "1")
    got = cauchy_transform(pg, z)
    lead = -pg.mass() / (2j * mp.pi * z)
    assert abs(got - lead) <= mpf("2e-4") * abs(got)


def test_cauchy_schwarz_reflection():
    pg = PolyGaussian(coeffs=("1", "0.25", "0.5"), gamma=2, mu="0.1")
    z = mpc("0.7", "1.3")
    upper = cauchy_transform(pg, z)
    lower = cauchy_transform(pg, mp.conj(z))
    assert abs(lower + mp.conj(upper)) < mpf("1e-60") * abs(upper)


# ---------------------------------------------------------------------------
# the RH matrix Y(z)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "z, boundary",
    [(mpc("0.7", "1.3"), "above"), (mpc("-0.4", "-0.9"), "above"), (mpf("0.35"), "below")],
    ids=["upper", "lower", "real-below"],
)
def test_y_cauchy_entries_vs_quadrature(ws4, idx22, z, boundary):
    # each Cauchy entry d_i sum_k C[A_k w_kl](z) against quadrature at 128
    # bits; on the real axis the boundary value from below is -f(x)/2 plus
    # the principal value int_0^inf (f(x + u) - f(x - u))/u du, over 2 pi i
    exp = rh.assemble_rh_expansion(ws4, idx22)
    Y = kn.YEvaluator(exp).value(z, boundary=boundary)
    for i, sol in enumerate(exp.rows):
        d = 1 if i < ws4.p else -2j * mp.pi
        for l in range(ws4.q):
            def f(x):
                return sum(sol.eval_A(k, x) * ws4.w1(k, x) for k in range(ws4.p)) * ws4.w2(l, x)

            with mp.workprec(128):
                if boundary == "below":
                    pv = mp.quad(lambda u: (f(z + u) - f(z - u)) / u, [0, 1, mp.inf])
                    ref = d * (-f(z) / 2 + pv / (2j * mp.pi))
                else:
                    cut = [-mp.inf, z.real, mp.inf]
                    ref = d * mp.quad(lambda x: f(x) / (x - z), cut) / (2j * mp.pi)
            err = abs(Y[i, ws4.p + l] - ref) / abs(ref)
            assert err <= mpf("1e-18"), (i, l)


@pytest.mark.parametrize(
    "z", [mpc("0.7", "1.3"), mpc("-0.4", "-0.9"), mpf("0.35")], ids=["upper", "lower", "real"]
)
def test_y_jet_derivative_is_derivative(ws4, idx22, z):
    # Y' of jet against mp.diff of Y itself, entry by entry; on the real
    # axis both are the boundary values from above
    ev = kn.YEvaluator(rh.assemble_rh_expansion(ws4, idx22))
    _, dY = ev.jet(z)
    for i in range(4):
        for j in range(4):
            ref = mp.diff(lambda u: ev.value(u)[i, j], z)
            assert abs(dY[i, j] - ref) <= mpf(2) ** (-(mp.prec // 2)) * abs(ref), (i, j)


def test_jump_relation_at_origin(ws4, Y4):
    Yp = Y4(mpf(0), boundary="above")
    Ym = Y4(mpf(0), boundary="below")
    J = jump_matrix(ws4, mpf(0))
    resid = Yp * mp.inverse(J) * mp.inverse(Ym) - mp.eye(4)
    assert nu.max_abs(resid) < mpf("1e-15")


def test_jump_relation_five_real_points(ws4, Y4):
    for x in ("-1.5", "-0.4", "0.1", "0.8", "1.6"):
        x = mpf(x)
        Yp = Y4(x, boundary="above")
        Ym = Y4(x, boundary="below")
        J = jump_matrix(ws4, x)
        resid = Yp * mp.inverse(J) * mp.inverse(Ym) - mp.eye(4)
        assert nu.max_abs(resid) < mpf("1e-15")


def test_det_y_is_one(Y4):
    rng = random.Random(13)
    for _ in range(10):
        z = mpc(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.2, 2))
        d = mp.det(Y4(z))
        assert abs(d - 1) < mpf("1e-20")


def test_det_y_cross_checked_at_doubled_precision(ws4, idx22):
    z = mpc(1, 1)
    with mp.workprec(256):
        d256 = mp.det(kn.YEvaluator(rh.assemble_rh_expansion(ws4, idx22)).value(z))
    with mp.workprec(512):
        d512 = mp.det(kn.YEvaluator(rh.assemble_rh_expansion(ws4, idx22)).value(z))
    assert abs(d256 - 1) < mpf("1e-18")
    assert abs(d512 - 1) < mpf(2) ** (-320)


def test_y_asymptotic_normalization(Y4):
    z = mpc("1e6", "1e6")
    Y = Y4(z)
    scaled = mp.matrix(4, 4)
    powers = [-2, -2, 2, 2]
    for i in range(4):
        for j in range(4):
            scaled[i, j] = Y[i, j] * z ** powers[j]
    assert nu.max_abs(scaled - mp.eye(4)) < mpf("1e-5")


# ---------------------------------------------------------------------------
# correlation kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["large_12_12", "asymmetric_31_22"])
def test_kernel_matches_rh_oracle(case, cfg_large):
    # the Eynard-Mehta form from G^{-1} against Y_+^{-1}(y) Y_+(x)
    if case == "large_12_12":
        ws = WeightSystem.from_config(cfg_large, mpf(1) / 2, 24)
        idx = MultiIndexPair((12, 12), (12, 12))
        xs = ("-1.3", "-0.85", "0.05", "0.7", "1.2")
        pairs = (("-0.9", "-0.8"), ("0.8", "0.95"), ("0.6", "0.7"))
    else:
        ws = WeightSystem(a=("1.1", "-0.4"), b=("0.9", "-0.3"), t=mpf(2) / 5, N=4)
        idx = MultiIndexPair((3, 1), (2, 2))
        xs = ("0.63", "-0.2", "1.4", "-1.1", "0.2")
        pairs = (("0.63", "0.5"), ("-0.2", "0.1"), ("1.4", "1.0"))
    oracle = rh_kernel_oracle(ws, idx)
    for x in xs:
        got = kn.correlation_kernel(ws, idx, mpf(x))
        ref = oracle(mpf(x))
        assert abs(got - ref) <= mpf("1e-50") * abs(ref), x
    for x, y in pairs:
        got = kn.correlation_kernel(ws, idx, mpf(x), mpf(y))
        ref = oracle(mpf(x), mpf(y))
        assert abs(got - ref) <= mpf("1e-50") * abs(ref), (x, y)


def test_kernel_factors_once(cfg_large, monkeypatch):
    # 100 points, diagonal and off it, share one factorization of G(8, 8)
    # and its doubled-precision check
    ws = WeightSystem.from_config(cfg_large, mpf(3) / 7, 16)
    idx = MultiIndexPair((8, 8), (8, 8))
    kn._kernel_form.cache_clear()
    calls = count_solves(monkeypatch)
    grid = kn.default_grid(cfg_large, mpf(3) / 7, points=50)
    for x in grid:
        kn.correlation_kernel(ws, idx, x)
        kn.correlation_kernel(ws, idx, x, x / 2)
    assert calls == [(16, mp.prec), (16, 2 * mp.prec)]


@pytest.mark.parametrize(
    "case, bits",
    [("large_12_12", 256), ("large_12_12", 1088), ("asymmetric_31_22", 128)],
)
def test_kernel_off_diagonal_bit_identical_to_polyval(case, bits, cfg_large):
    # K(x, y) off the diagonal, each block row summed at y and then at x on
    # pairs, against the same sum with mp.polyval: _mpf_-equal
    if case == "large_12_12":
        ws = WeightSystem.from_config(cfg_large, mpf(1) / 2, 24)
        idx = MultiIndexPair((12, 12), (12, 12))
    else:
        ws = WeightSystem(a=("1.1", "-0.4"), b=("0.9", "-0.3"), t=mpf(2) / 5, N=4)
        idx = MultiIndexPair((3, 1), (2, 2))
    pairs = (("-0.9", "-0.8"), ("0.8", "0.95"), ("0.6", "-0.7"), ("1.4", "0"), ("0", "-2.5"))
    with mp.workprec(bits):
        for x, y in pairs:
            got = kn.correlation_kernel(ws, idx, mpf(x), mpf(y))
            assert got._mpf_ == polyval_kernel_oracle(ws, idx, x, y)._mpf_, (x, y)


def test_warm_kernel_point_hashes_no_mpf(ws4, idx22, monkeypatch):
    # a WeightSystem hashes its six mpf fields once, when it is made, so the
    # kernel-form look-ups of a warm point hash no mpf
    kn.correlation_kernel(ws4, idx22, mpf("0.3"))
    calls = []
    mpf_hash = ctx_mp_python.mpf_hash
    monkeypatch.setattr(ctx_mp_python, "mpf_hash", lambda v: calls.append(v) or mpf_hash(v))
    kn.correlation_kernel(ws4, idx22, mpf("0.2"))
    kn.correlation_kernel(ws4, idx22, mpf("0.2"), mpf("-0.1"))
    assert calls == []


def test_kernel_escalates_with_its_factorization(cfg_large, monkeypatch):
    # at 128 bits the 48x48 G(24,24) is numerically singular; the kernel's
    # loop moves on to the 256-bit form and its 512-bit check, each
    # factored once, and then agrees with the 512-bit kernel
    ws = WeightSystem.from_config(cfg_large, mpf(1) / 2, 48)
    idx = MultiIndexPair((24, 24), (24, 24))
    xs = (mpf("-0.9"), mpf("0.1"), mpf("0.8"))
    kn._kernel_form.cache_clear()
    calls = count_solves(monkeypatch)
    with mp.workprec(128):
        got = [kn.correlation_kernel(ws, idx, x) for x in xs]
    assert sorted(calls) == [(48, 128), (48, 256), (48, 512)]
    with mp.workprec(512):
        ref = [kn.correlation_kernel(ws, idx, x) for x in xs]
    for g, r in zip(got, ref):
        assert abs(g - r) <= mpf(2) ** (-32) * abs(r)


def test_kernel_escalates_where_the_sum_cancels(cfg_large):
    # at 128 bits G(20, 20) is not singular, but the unchecked sum was
    # about 5000 times off at x = 1.03 (inside the right group); the
    # doubled-precision check escalates there and the result meets 2^-32
    ws = WeightSystem.from_config(cfg_large, mpf(1) / 2, 40)
    idx = MultiIndexPair((20, 20), (20, 20))
    xs = [mpf(x) for x in ("-1.03", "0", "0.51", "1.03", "1.54")]
    with mp.workprec(128):
        got = [kn.correlation_kernel(ws, idx, x) for x in xs]
        off = kn.correlation_kernel(ws, idx, xs[3], xs[2])
    with mp.workprec(1024):
        ref = [kn.correlation_kernel(ws, idx, x) for x in xs]
        ref_off = kn.correlation_kernel(ws, idx, xs[3], xs[2])
    for g, r in zip(got + [off], ref + [ref_off]):
        assert abs(g - r) <= mpf(2) ** (-32) * abs(r)


def test_kernel_raises_at_the_ceiling(cfg_large, monkeypatch):
    # with no room to escalate, a point whose check fails raises, and so
    # does one where G is numerically singular; each error names the bits
    # it gave up at and the --precision of the next doubling
    monkeypatch.setattr(mop, "MAX_ESCALATED_PRECISION", 128)
    cases = [
        # the check fails inside the right group (see the test above)
        (20, "1.03", "at 128 bits against"),
        (24, "0.1", "G(n, m) is numerically singular at 128 bits"),
    ]
    for n_k, x, miss in cases:
        ws = WeightSystem.from_config(cfg_large, mpf(1) / 2, 2 * n_k)
        idx = MultiIndexPair((n_k, n_k), (n_k, n_k))
        with mp.workprec(128):
            with pytest.raises(NormalizationImpossible) as err:
                kn.correlation_kernel(ws, idx, mpf(x))
        assert miss in str(err.value)
        assert str(err.value).endswith(
            "; gave up at 128 bits, the last step under the escalation ceiling of 128: "
            "retry with --precision 256"
        )


def test_kernel_miss_above_the_start_prints_at_working_precision(cfg_large, monkeypatch):
    # at n = m = (36, 36) the sum at x = 1.03 still misses at b = 256; with
    # the ceiling there the ladder starts at 128 and gives up at 256, and
    # the message prints the point and both sums at the 128 working bits
    monkeypatch.setattr(mop, "MAX_ESCALATED_PRECISION", 256)
    ws = WeightSystem.from_config(cfg_large, mpf(1) / 2, 72)
    idx = MultiIndexPair((36, 36), (36, 36))
    with mp.workprec(128):
        x = mpf("1.03")
        with pytest.raises(NormalizationImpossible) as err:
            kn.correlation_kernel(ws, idx, x)
        value, ref = (kn._kernel_sum(ws, kn._kernel_form(ws, idx, b), x, x, True)
                      for b in (256, 512))
        want = (
            f"kernel at ({x}, {x}): {value} at 256 bits against {ref} at 512 bits; "
            "gave up at 256 bits, the last step under the escalation ceiling of 256: "
            "retry with --precision 512"
        )
    assert str(err.value) == want


@pytest.mark.parametrize(
    "x, y", [("inf", None), ("-inf", None), ("nan", None), ("0.3", "inf"), ("0.3", "nan")]
)
def test_kernel_rejects_a_point_that_is_not_finite(cfg_large, monkeypatch, x, y):
    # a weight that is not finite fails the doubled-precision check at every
    # step; the point is refused before G^{-1} is factored at all
    ws = WeightSystem.from_config(cfg_large, mpf(1) / 2, 8)
    idx = MultiIndexPair((4, 4), (4, 4))
    kn._kernel_form.cache_clear()
    calls = count_solves(monkeypatch)
    with pytest.raises(ValueError, match="not finite"):
        kn.correlation_kernel(ws, idx, mpf(x), None if y is None else mpf(y))
    assert calls == []


def test_kernel_confluence_step_halving(ws4, idx22):
    x = mpf("0.2")
    diag = kn.correlation_kernel(ws4, idx22, x)
    gaps, errs = [mpf("1e-4"), mpf("5e-5"), mpf("2.5e-5")], []
    for g in gaps:
        errs.append(abs(kn.correlation_kernel(ws4, idx22, x, x + g) - diag))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[2] < mpf("1e-3") * max(abs(diag), mpf(1))


def test_kernel_reflection_symmetry_two_pipelines():
    # two independent runs: K(x,x) for an asymmetric configuration equals
    # K(-x,-x) for the space-reflected configuration (a -> -a reversed,
    # b -> -b reversed, fractions and index components swapped)
    ws = WeightSystem(a=("1.1", "-0.4"), b=("0.9", "-0.3"), t=mpf(2) / 5, N=4)
    ws_r = WeightSystem(a=("0.4", "-1.1"), b=("0.3", "-0.9"), t=mpf(2) / 5, N=4)
    idx = MultiIndexPair((3, 1), (2, 2))
    idx_r = MultiIndexPair((1, 3), (2, 2))
    for x in (mpf("0.63"), mpf("-0.2"), mpf("1.4")):
        lhs = kn.correlation_kernel(ws, idx, x)
        rhs = kn.correlation_kernel(ws_r, idx_r, -x)
        assert abs(lhs - rhs) <= mpf("1e-40") * max(abs(lhs), mpf(1))


def test_kernel_trace_reproduces_particle_count(ws4, idx22, cfg_large):
    # int K(x,x) dx = n; composite Simpson on a wide window
    t = mpf(1) / 2
    al2, _ = ellipse_endpoints(cfg_large, t, 2)
    _, be1 = ellipse_endpoints(cfg_large, t, 1)
    lo, hi = al2 - mpf("1.5"), be1 + mpf("1.5")
    m = 400  # intervals, even
    h = (hi - lo) / m
    with mp.workprec(128):
        total = mpf(0)
        for i in range(m + 1):
            w = 1 if i in (0, m) else (4 if i % 2 else 2)
            total += w * kn.correlation_kernel(ws4, idx22, lo + i * h)
        total *= h / 3
    assert abs(total - 4) < mpf("4e-6") * 4


def test_kernel_positive_on_grid(ws4, idx22, cfg_large):
    grid = kn.default_grid(cfg_large, mpf(1) / 2, points=80)
    vals = [kn.correlation_kernel(ws4, idx22, x) for x in grid]
    peak = max(abs(v) for v in vals)
    assert all(v >= -mpf("1e-10") * peak for v in vals)


# ---------------------------------------------------------------------------
# density profiles
# ---------------------------------------------------------------------------

def test_density_profile_self_convergence(cfg_large):
    t = mpf(1) / 2
    grid = kn.default_grid(cfg_large, t, points=80)
    sup = {}
    for n in (8, 16):
        ws = WeightSystem.from_config(cfg_large, t, n)
        idx = MultiIndexPair((n // 2, n // 2), (n // 2, n // 2))
        prof = kn.density_profile(ws, idx, cfg_large, grid)
        sup[n] = max(prof.sup_distance_1, prof.sup_distance_2)
    assert sup[16] < sup[8]


def test_density_profile_matches_the_point_loop(cfg_large, monkeypatch):
    # over two CPUs a worker takes every other point; each value is bit for
    # bit that of the in-process loop, and of a one-CPU run that cannot fork
    def fork():
        raise AssertionError("forked on one CPU")

    t = mpf(1) / 2
    ws = WeightSystem.from_config(cfg_large, t, 16)
    idx = MultiIndexPair((8, 8), (8, 8))
    grid = kn.default_grid(cfg_large, t, points=21)
    kn._kernel_form.cache_clear()
    want = [(kn.correlation_kernel(ws, idx, x) / 16)._mpf_ for x in grid]
    runs = []
    for cpus in ({0, 1}, {0}):
        kn._kernel_form.cache_clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        if cpus == {0}:
            monkeypatch.setattr(os, "fork", fork)
        prof = kn.density_profile(ws, idx, cfg_large, grid)
        runs.append([v._mpf_ for v in prof.values])
    assert runs == [want, want]


@pytest.mark.parametrize(
    "n_k, bits, lus",
    [
        (12, 256, [(24, 256), (24, 512)]),
        # G(24, 24) is singular at 128 bits: the first point moves on to
        # the 256-bit form and its 512-bit check before the points fork
        (24, 128, [(48, 128), (48, 256), (48, 512)]),
    ],
)
def test_density_factors_each_form_once(cfg_large, monkeypatch, n_k, bits, lus):
    # the form at working precision and its check at twice the bits are one
    # LU each, counted in the parent and in the worker; no point factors
    t = mpf(1) / 2
    ws = WeightSystem.from_config(cfg_large, t, 2 * n_k)
    idx = MultiIndexPair((n_k, n_k), (n_k, n_k))
    kn._kernel_form.cache_clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = count_solves(monkeypatch)
    with mp.workprec(bits):
        kn.density_profile(ws, idx, cfg_large, kn.default_grid(cfg_large, t, points=8))
    assert sorted(calls) == lus


def test_density_forks_one_round(cfg_large, monkeypatch):
    # the first point factors both forms in this process, so the only fork
    # round is that of the grid points: one worker per CPU
    t = mpf(1) / 2
    ws = WeightSystem.from_config(cfg_large, t, 24)
    idx = MultiIndexPair((12, 12), (12, 12))
    grid = kn.default_grid(cfg_large, t, points=8)
    kn._kernel_form.cache_clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    kn.density_profile(ws, idx, cfg_large, grid)
    assert len(forks) == min(2, len(grid) - 1)


def test_density_point_that_misses_in_a_worker(cfg_large, monkeypatch):
    # at 152 bits with no room to escalate, G(20, 20) passes its check at
    # x = -1.03 and 0 (the left group and the gap) and misses at x = 1
    # (the right group; see test_kernel_escalates_where_the_sum_cancels).
    # At 160 all three pass; at 144 x = -1.03 misses too, at 136 all miss.
    # The worker has x = 1, and the parent raises the in-process error.
    monkeypatch.setattr(mop, "MAX_ESCALATED_PRECISION", 152)
    t = mpf(1) / 2
    ws = WeightSystem.from_config(cfg_large, t, 40)
    idx = MultiIndexPair((20, 20), (20, 20))
    grid = [mpf("-1.03"), mpf("1"), mpf("0")]
    with mp.workprec(152):
        with pytest.raises(NormalizationImpossible) as want:
            kn.correlation_kernel(ws, idx, grid[1])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(NormalizationImpossible) as got:
            kn.density_profile(ws, idx, cfg_large, grid)
    assert str(got.value) == str(want.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_density_far_tail(cfg_large):
    t = mpf(1) / 2
    n = 16
    ws = WeightSystem.from_config(cfg_large, t, n)
    idx = MultiIndexPair((8, 8), (8, 8))
    al2, _ = ellipse_endpoints(cfg_large, t, 2)
    outside = kn.correlation_kernel(ws, idx, al2 - 1) / n
    mid1 = sum(ellipse_endpoints(cfg_large, t, 1)) / 2
    peak = kn.correlation_kernel(ws, idx, mid1) / n
    assert abs(outside) < mpf("1e-6") * peak


def test_density_total_mass(cfg_large):
    t = mpf(1) / 2
    n = 8
    ws = WeightSystem.from_config(cfg_large, t, n)
    idx = MultiIndexPair((4, 4), (4, 4))
    grid = kn.default_grid(cfg_large, t, points=400)
    prof = kn.density_profile(ws, idx, cfg_large, grid)
    h = grid[1] - grid[0]
    mass = sum(prof.values) * h - (prof.values[0] + prof.values[-1]) * h / 2
    assert abs(mass - 1) < mpf("1e-3")


def test_density_critical_config_off_critical_time(critical_config):
    # critical separation away from t_crit is inside the density contract
    t = mpf(1) / 3
    n = 8
    ws = WeightSystem.from_config(critical_config, t, n)
    idx = MultiIndexPair((4, 4), (4, 4))
    grid = kn.default_grid(critical_config, t, points=40)
    prof = kn.density_profile(ws, idx, critical_config, grid)
    assert prof.sup_distance_1 > 0 and prof.sup_distance_2 > 0
    assert max(prof.values) > mpf("0.1")


def test_density_wrong_regime(small_sep_config):
    ws = WeightSystem.from_config(small_sep_config, mpf(1) / 2, 4)
    with pytest.raises(WrongRegime):
        kn.density_profile(ws, MultiIndexPair((2, 2), (2, 2)), small_sep_config, [mpf(0)])
