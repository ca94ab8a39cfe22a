"""Y1/Y2 data, transfer matrices, recurrences, Lax pair, spectral curve."""

import os
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpc

from hbl import kernel as kn
from hbl import mop
from hbl import numerics as nu
from hbl import rh
from hbl.errors import (
    BranchCollision, HblError, InvalidIndex, NoConvergence, NormalizationImpossible
)
from hbl.model import BrownianConfig
from hbl.mop import MultiIndexPair, WeightSystem

from conftest import (
    count_solves,
    moment_system,
    mpf_to_fraction,
    orthogonality_residual,
    recurrence_residuals,
    solve_batch,
    transition_number,
)

TWO_PI_I = 2j * mp.pi


@pytest.fixture(scope="module")
def ws():
    cfg = BrownianConfig("1", "-1", "0.7", "-0.7")
    return WeightSystem.from_config(cfg, mpf(1) / 3, 4)


@pytest.fixture(scope="module")
def idx22():
    return MultiIndexPair((2, 2), (2, 2))


@pytest.fixture(scope="module")
def exp22(ws, idx22):
    return rh.assemble_rh_expansion(ws, idx22)


@pytest.fixture(scope="module")
def ws_asym():
    # asymmetric endpoints and fractions; N chosen away from n
    return WeightSystem(a=("1.1", "-0.4"), b=("0.9", "-0.3"), t=mpf(2) / 7, N=5)


# ---------------------------------------------------------------------------
# expansion structure
# ---------------------------------------------------------------------------

def test_base_case_upper_triangular(ws):
    exp0 = rh.assemble_rh_expansion(ws, MultiIndexPair((0, 0), (0, 0)))
    assert nu.max_abs(exp0.C21()) == 0
    assert nu.max_abs(exp0.C22()) == 0
    assert nu.max_abs(exp0.C11()) == 0
    assert nu.max_abs(exp0.C12()) > 0
    H = rh.recurrence_matrix_H(exp0)
    assert all(H[i, j] == 0 for i in range(4) for j in range(i + 1, 4))


def test_y1_off_diagonal_is_transition_number(ws, idx22, exp22):
    # (D^{-1} Y1 D)_{k, p+l} equals the transition number (II,k) -> (I,l)
    # at the row's index pair (n + e_k, m)
    tau = transition_number(ws, idx22.shift_n(0), ("II", 0), ("I", 0))
    got = exp22.Y1[0, 2] * (-TWO_PI_I)
    assert abs(got - tau) <= mpf("1e-60") * abs(tau)
    tau2 = transition_number(ws, idx22.shift_n(1), ("II", 1), ("II", 0))
    got2 = exp22.Y1[1, 0]
    assert abs(got2 - tau2) <= mpf("1e-60") * abs(tau2)


def test_y1_cauchy_entry_at_working_precision():
    # the (1, p+1) entry is -q_moment / (2 pi i) with 2 pi i at the working
    # precision; a 256-bit constant is off by about 3.5e-78 here
    with mp.workprec(1088):
        ws = WeightSystem.from_config(BrownianConfig("1", "-1", "0.7", "-0.7"), mpf(1) / 3, 4)
        idx = MultiIndexPair((2, 2), (2, 2))
        exp = rh.assemble_rh_expansion(ws, idx)
        moment = mop.q_moment(exp.rows[0], mop.moment_tables(ws, idx), 0, idx.m[0])
        want = -moment / (2j * mp.pi)
        assert abs(exp.Y1[0, 2] - want) <= mpf(2) ** -1080 * abs(want)


def test_y1_summed_at_the_bits_the_rows_settled_at(critical_config, monkeypatch):
    # at 128 bits G(40, 40) of the critical config is singular and the rows
    # settle at 256 bits; Y1 summed from them at 128 bits missed the
    # recurrence products by about 1e-10, summed at 256 bits it meets a
    # 640-bit expansion of the same weights to 2^-100
    idx = MultiIndexPair((20, 20), (20, 20))
    calls = count_solves(monkeypatch)
    with mp.workprec(128):
        ws = WeightSystem.from_config(critical_config, mpf(1) / 3, 40)
        exp = rh.assemble_rh_expansion(ws, idx)
        assert all(+v == v for row in exp.Y1.tolist() for v in row)  # rounded to 128 bits
    assert calls == [(40, 128), (40, 256)]
    with mp.workprec(640):
        ref = rh.assemble_rh_expansion(ws, idx)
        for i, j in ((1, 3), (1, 4)):
            want = ref.product(i, j)
            assert abs(exp.product(i, j) - want) <= mpf(2) ** -100 * abs(want)


def test_a_miss_after_the_factorization_redoes_it(ws, idx22, monkeypatch):
    # a miss raised in the Y1/Y2 sums, once at 256 bits, sends the whole
    # attempt up one rung: G is factored again at 512 bits, and Y1 is that
    # of a fresh 512-bit expansion, rounded once to the working 256 bits
    q_moment, missed = rh.q_moment, []

    def miss_once(*args):
        if mp.prec == 256 and not missed:
            missed.append(True)
            raise NoConvergence("the sums missed")
        return q_moment(*args)

    monkeypatch.setattr(rh, "q_moment", miss_once)
    calls = count_solves(monkeypatch)
    with mp.workprec(256):
        exp = rh.assemble_rh_expansion(ws, idx22)
    assert calls == [(4, 256), (4, 512)]
    monkeypatch.undo()
    with mp.workprec(512):
        fresh = rh.assemble_rh_expansion(ws, idx22)
    with mp.workprec(256):
        want = fresh.Y1.apply(lambda v: +v)

    def raw(y):
        return [(v.real._mpf_, v.imag._mpf_) for row in y.tolist() for v in row]

    assert raw(exp.Y1) == raw(want)


def _critical_n80(critical_config):
    # n = 80 at t = 0.25 and 256 bits: G(80, 80) is not singular, so the LU
    # raises nothing, but its c14c41 has a relative error of 0.081 against
    # 1600 bits (the scalar-product residual is 0.20).  The expansion's
    # certificate rejects that attempt and it settles at 512 bits.  At
    # t = 0.2 the 256-bit LU raises SingularMatrix instead
    ws = WeightSystem.from_config(critical_config, mpf("0.25"), 80)
    return ws, MultiIndexPair((40, 40), (40, 40))


def test_expansion_certified_or_raises_n80(critical_config):
    ws, idx = _critical_n80(critical_config)
    try:
        exp = rh.assemble_rh_expansion(ws, idx)
    except HblError:
        return
    assert rh.scalar_product_report(exp).max_residual <= mpf(2) ** -(mp.prec // 4)


def test_orthogonality_residual_blind_to_the_n80_defect(critical_config):
    # the 256-bit rows that give c14c41 off by 8% meet their orthogonality
    # conditions to about 2e-76: LU with partial pivoting
    # keeps that residual at rounding level, so it certifies nothing
    ws, idx = _critical_n80(critical_config)
    tables = mop.moment_tables(ws, idx)
    row_idx = [idx.shift_n(k) for k in range(2)] + [idx.shift_m(l, -1) for l in range(2)]
    for sol, i in zip(mop.shifted_solutions(ws, idx, tables), row_idx):
        assert orthogonality_residual(sol, i, tables) <= mpf(2) ** -(mp.prec // 4)


PRODUCTS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def _critical_products(critical_config, n, bits):
    # the six c_ij c_ji on the critical config at t = 0.3333333333, where at
    # n = 128 the 384-bit LU raises nothing and, uncertified, gives c14c41
    # off by 92%
    with mp.workprec(bits):
        ws = WeightSystem.from_config(critical_config, mpf("0.3333333333"), n)
        exp = rh.assemble_rh_expansion(ws, MultiIndexPair((n // 2,) * 2, (n // 2,) * 2))
        return {ij: exp.product(*ij) for ij in PRODUCTS}


@pytest.fixture(scope="module")
def critical_reference(critical_config):
    """n -> the six products at 1600 bits, each n computed once."""
    done = {}

    def reference(n):
        if n not in done:
            done[n] = _critical_products(critical_config, n, 1600)
        return done[n]

    return reference


@pytest.mark.parametrize("bits", [320, 384])
def test_expansion_certified_or_raises_n128(critical_config, critical_reference, bits):
    try:
        got = _critical_products(critical_config, 128, bits)[1, 4]
    except HblError:
        return
    ref = critical_reference(128)[1, 4]
    assert abs(got - ref) <= mpf(2) ** -(bits // 2) * abs(ref)


@pytest.mark.parametrize("n", [96, 128])
def test_expansion_certified_or_raises_at_default_flags(critical_config, critical_reference, n):
    # at the default 256 bits, n = 96 meets 1600 bits to about 3.5e-69; at
    # n = 128 the expansion settles at 512 bits and meets it to only about
    # 7.7e-39, inside the certificate's 2^-(prec/8) but not 2^-(prec/2)
    try:
        got = _critical_products(critical_config, n, mp.prec)
    except HblError:
        return
    ref = critical_reference(n)
    for ij in PRODUCTS:
        assert abs(got[ij] - ref[ij]) <= mpf(2) ** -(mp.prec // 8) * abs(ref[ij])


def _count_tables(monkeypatch) -> list:
    """The jmax of every table mop.gaussian_moments builds from now on."""
    built = []
    moments = mop.gaussian_moments
    monkeypatch.setattr(mop, "gaussian_moments", lambda *a: built.append(a[-1]) or moments(*a))
    return built


def test_expansion_builds_one_table_per_weight_pair(monkeypatch):
    # one expansion at n = m = (6, 6), on one CPU, makes one attempt: its LU
    # and its Y1/Y2 sums read the same p q = 4 tables, each built once
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ws = WeightSystem.from_config(BrownianConfig("1", "-1", "0.7", "-0.7"), mpf("0.4"), 12)
    calls = count_solves(monkeypatch)
    built = _count_tables(monkeypatch)
    rh.assemble_rh_expansion(ws, MultiIndexPair((6, 6), (6, 6)))
    assert calls == [(12, 256)]
    assert built == [14] * 4


def test_recurrences_build_no_table(monkeypatch):
    # every recurrence vector at n = m = (6, 6) takes its scale from its own
    # expansion's Y1: no moment table is built again
    ws = WeightSystem.from_config(BrownianConfig("1", "-1", "0.7", "-0.7"), mpf("0.4"), 12)
    exps = rh.assemble_rh_expansions(rh.recurrence_pairs(ws, MultiIndexPair((6, 6), (6, 6))))
    built = _count_tables(monkeypatch)
    rh.verify_recurrences(exps, [mpf(0), mpc(-1, 1)])
    assert built == []


def test_boundary_other_than_above_or_below_is_rejected(ws, idx22, exp22):
    # a misspelt boundary used to give the value from above
    ev = kn.YEvaluator(exp22)
    with pytest.raises(ValueError, match="'lower'"):
        ev.value(0, boundary="lower")
    above, below = (ev.value(0, boundary=b) for b in ("above", "below"))
    assert nu.max_abs(above - below) > mpf("0.1")


def test_y1_symmetric_config_reflection_pattern():
    # mirror symmetry x -> -x: entries map to the (1<->2, 3<->4) swapped
    # position with a parity sign; verified against the independently
    # solved reflected system (which coincides with the original)
    ws_sym = WeightSystem(a=("0.8", "-0.8"), b=("0.6", "-0.6"), t=mpf(1) / 3, N=4)
    idx = MultiIndexPair((1, 1), (1, 1))
    exp = rh.assemble_rh_expansion(ws_sym, idx)
    P = [1, 0, 3, 2]  # index swap
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            a, b = exp.Y1[i, j], exp.Y1[P[i], P[j]]
            assert abs(abs(a) - abs(b)) <= mpf("1e-50") * max(abs(a), mpf("1e-40"))
    # products are invariant under the swap
    assert abs(exp.product(1, 3) - exp.product(2, 4)) < mpf("1e-50")
    assert abs(exp.product(1, 4) - exp.product(2, 3)) < mpf("1e-50")


def test_h_matrix_row_column_sums(ws, idx22, exp22):
    H = rh.recurrence_matrix_H(exp22)
    base = ws.t * (1 - ws.t) / ws.N
    for k in range(2):
        row = H[k, 2] + H[k, 3]
        assert abs(row - base * idx22.n[k]) < mpf("1e-60")
    for l in range(2):
        col = H[0, 2 + l] + H[1, 2 + l]
        assert abs(col - base * idx22.m[l]) < mpf("1e-60")
    # c23 c32 = c14 c41 when n = m componentwise
    assert abs(H[1, 2] - H[0, 3]) < mpf("1e-60")


def test_h12_determined_by_single_entry(ws_asym):
    # reconstruct the H12 block from c14c41 plus the row/column sums
    idx = MultiIndexPair((3, 2), (3, 2))
    exp = rh.assemble_rh_expansion(ws_asym, idx)
    H = rh.recurrence_matrix_H(exp)
    base = ws_asym.t * (1 - ws_asym.t) / ws_asym.N
    c14c41 = H[0, 3]
    rec_13 = base * idx.n[0] - c14c41
    rec_23 = c14c41
    rec_24 = base * idx.n[1] - c14c41
    assert abs(H[0, 2] - rec_13) < mpf("1e-20")
    assert abs(H[1, 2] - rec_23) < mpf("1e-20")
    assert abs(H[1, 3] - rec_24) < mpf("1e-20")


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------

def test_forward_transfer_structure(ws, idx22, exp22):
    sh = idx22.shift_n(0).shift_m(1)
    exp_sh = rh.assemble_rh_expansion(ws, sh)
    z = mpc("0.4", "0.9")
    U = rh.forward_transfer(exp22, exp_sh, 0, 1, z)
    # row p+l has its diagonal zeroed; only the k-column entry survives
    assert U[3, 3] == 0
    assert U[3, 1] == 0 and U[3, 2] == 0
    assert U[1, 1] == 1 and U[2, 2] == 1
    assert abs(U[0, 0] - (z + exp_sh.Y1[0, 0] - exp22.Y1[0, 0])) < mpf("1e-70")


def test_backward_transfer_structure(ws, idx22, exp22):
    # the z coefficient of the backward matrix sits at entry (p+l, p+l)
    sh = idx22.shift_n(0).shift_m(1)
    exp_sh = rh.assemble_rh_expansion(ws, sh)
    z1 = mpc("0.3", "0.5")
    z2 = mpc("1.3", "0.5")
    U1 = rh.backward_transfer(exp22, exp_sh, 0, 1, z1)
    U2 = rh.backward_transfer(exp22, exp_sh, 0, 1, z2)
    diff = U2 - U1
    assert abs(diff[3, 3] - (z2 - z1)) < mpf("1e-70")
    assert max(
        abs(diff[i, j]) for i in range(4) for j in range(4) if (i, j) != (3, 3)
    ) == 0


def test_transfer_product_identity(ws, idx22, exp22):
    rng = random.Random(17)
    for k in range(2):
        for l in range(2):
            sh = idx22.shift_n(k).shift_m(l)
            exp_sh = rh.assemble_rh_expansion(ws, sh)
            for _ in range(5):
                z = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                U = rh.forward_transfer(exp22, exp_sh, k, l, z)
                Ub = rh.backward_transfer(exp22, exp_sh, k, l, z)
                assert nu.max_abs(U * Ub - mp.eye(4)) < mpf("1e-20")
                assert nu.max_abs(Ub * U - mp.eye(4)) < mpf("1e-20")


def test_transfer_maps_y_to_shifted_y(ws, idx22, exp22):
    # oracle: both sides via the full Y assembly from Cauchy transforms
    sh = idx22.shift_n(1).shift_m(0)
    exp_sh = rh.assemble_rh_expansion(ws, sh)
    Y_at, Ysh_at = (kn.YEvaluator(exp).value for exp in (exp22, exp_sh))
    rng = random.Random(8)
    for _ in range(5):
        z = mpc(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.3, 2))
        U = rh.forward_transfer(exp22, exp_sh, 1, 0, z)
        Y = Y_at(z)
        Ysh = Ysh_at(z)
        assert nu.max_abs(U * Y - Ysh) <= mpf("1e-20") * nu.max_abs(Ysh)
        Ub = rh.backward_transfer(exp22, exp_sh, 1, 0, z)
        assert nu.max_abs(Ub * Ysh - Y) <= mpf("1e-20") * nu.max_abs(Ysh)


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------

ZS = (mpf(0), mpf(1), mpc(-1, 1))
# an index with n != m, read besides idx22 by the recurrence tests
IDX_ASYM = MultiIndexPair((3, 2), (2, 3))


@pytest.fixture(scope="module")
def recurrences(ws, idx22):
    return [recurrence_residuals(ws, idx, ZS) for idx in (idx22, IDX_ASYM)]


@pytest.mark.parametrize("k,l", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_five_term_recurrence(recurrences, k, l):
    for res in recurrences:
        assert res[k, l][0] < mpf("1e-20")


def test_five_term_degenerate_base_refused(ws):
    with pytest.raises(InvalidIndex):
        rh.recurrence_pairs(ws, MultiIndexPair((1, 0), (1, 0)))


def test_recurrences_refuse_expansions_out_of_order(ws, idx22):
    # the rows of the expansion at n + e_1 + e_2 must not stand in for
    # those at n + e_2 + e_1
    exps = rh.assemble_rh_expansions(rh.recurrence_pairs(ws, idx22))
    exps[2], exps[3] = exps[3], exps[2]
    with pytest.raises(ValueError, match="recurrence_pairs"):
        rh.verify_recurrences(exps, ZS)


def test_backward_recurrence(recurrences):
    for res in recurrences:
        assert res[0, 0][1] < mpf("1e-20")
        assert res[1, 1][1] < mpf("1e-20")


def test_each_recurrence_reads_only_its_two_expansions(ws, idx22):
    # scaling the rows of the expansion at idx + e_k + e_l by 1 + 2^-100
    # moves both residuals of (k, l), whose left side or main vector it
    # holds in their own normalization, and no residual of another pair
    exps = rh.assemble_rh_expansions(rh.recurrence_pairs(ws, idx22))
    base = rh.verify_recurrences(exps, ZS)
    scale = 1 + mpf(2) ** -100
    for pos, pair in enumerate(base, 1):
        rows = tuple(
            sol._replace(coeffs=tuple(tuple(c * scale for c in cs) for cs in sol.coeffs))
            for sol in exps[pos].rows
        )
        perturbed = exps[:pos] + [exps[pos]._replace(rows=rows)] + exps[pos + 1 :]
        got = rh.verify_recurrences(perturbed, ZS)
        assert all(g != b for g, b in zip(got[pair], base[pair]))
        assert {key: got[key] for key in got if key != pair} == {
            key: base[key] for key in base if key != pair
        }


def test_recurrence_zero_scale_raises(ws, idx22):
    # a zero Y1 entry is a zero scale: NormalizationImpossible naming the
    # index pair and the column, never a ZeroDivisionError or an inf or nan;
    # row 3 of the expansion at (n, m) scales into (II,1), row 1 of the one
    # at (n + e_1, m + e_1) into (I,1)
    exps = rh.assemble_rh_expansions(rh.recurrence_pairs(ws, idx22))
    for pos, i, col, kind in ((0, 2, 0, "II,1"), (1, 0, 2, "I,1")):
        y1 = exps[pos].Y1.copy()
        y1[i, col] = 0
        zero = exps[:pos] + [exps[pos]._replace(Y1=y1)] + exps[pos + 1 :]
        with pytest.raises(NormalizationImpossible) as err:
            rh.verify_recurrences(zero, ZS)
        assert str(err.value) == (
            f"the type ({kind}) normalization of row {i + 1} of the expansion at "
            f"{exps[pos].idx} divides by zero: its Y1 entry in column {col + 1} is 0"
        )
        assert err.value.exit_code == 3


def _recurrences_on_both_routes(ws, idx, monkeypatch):
    # every vector the recurrences read is an expansion row, scaled by an
    # entry of its own Y1 to the normalization asked for; its values at ZS
    # must agree with those of its own LU solve from the test oracle to
    # 2^-(prec/2) relative, and the recurrences must hold on either route
    def key(exp, i, col):
        p = exp.p
        vec = exp.idx.shift_n(i) if i < p else exp.idx.shift_m(i - p, -1)
        return vec, ("II", col) if col < p else ("I", col - p)

    read = {}
    row_values = rh._row_values

    def recording(exp, i, col, zs):
        read[key(exp, i, col)] = row_values(exp, i, col, zs)
        return read[key(exp, i, col)]

    monkeypatch.setattr(rh, "_row_values", recording)
    batch = recurrence_residuals(ws, idx, ZS)
    own = solve_batch(ws, list(read))
    tol = mpf(2) ** -(mp.prec // 2)
    assert read
    for vec, values in read.items():
        for got, want in zip(values, rh._vector_values(own[vec], ZS), strict=True):
            scale = max(abs(w) for w in want)
            assert all(abs(g - w) <= tol * scale for g, w in zip(got, want, strict=True))
    monkeypatch.setattr(
        rh, "_row_values", lambda exp, i, col, zs: rh._vector_values(own[key(exp, i, col)], zs)
    )
    independent = recurrence_residuals(ws, idx, ZS)
    pairs = [(k, l) for k in range(ws.p) for l in range(ws.q)]
    for residuals in (batch, independent):
        assert sorted(residuals) == pairs
        assert max(max(both) for both in residuals.values()) < mpf("1e-20")


def test_recurrence_batch_matches_independent_route(ws, idx22, monkeypatch):
    for idx in (idx22, IDX_ASYM):
        with monkeypatch.context() as patch:
            _recurrences_on_both_routes(ws, idx, patch)


def test_five_term_on_rational_oracle_solutions(ws, idx22, exp22):
    # independent route: recompute every participating MOP with exact
    # Fraction arithmetic on the (exactly converted) moment matrices, then
    # evaluate the recurrence residual at z = 1 in Fractions
    def fraction_mop(idx, norm):
        A, rhs = moment_system(ws, idx, norm)
        n = len(A)
        rows = [[mpf_to_fraction(v) for v in row] for row in A]
        vec = [mpf_to_fraction(v) for v in rhs]
        for c in range(n):
            piv = next(r for r in range(c, n) if rows[r][c] != 0)
            rows[c], rows[piv] = rows[piv], rows[c]
            vec[c], vec[piv] = vec[piv], vec[c]
            for r in range(n):
                if r != c and rows[r][c] != 0:
                    f = rows[r][c] / rows[c][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
                    vec[r] -= f * vec[c]
        flat = [vec[i] / rows[i][i] for i in range(n)]
        return [
            [flat[sum(idx.n[:k]) + i] for i in range(idx.n[k])] for k in range(2)
        ]

    def eval_frac(coeffs, x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    k = l = 0
    lhs_c = fraction_mop(MultiIndexPair((4, 2), (3, 2)), ("II", 0))
    main_c = fraction_mop(idx22.shift_n(0), ("II", 0))
    off1_c = fraction_mop(idx22.shift_n(1), ("II", 0))
    offm0_c = fraction_mop(idx22.shift_m(0, -1), ("II", 0))
    offm1_c = fraction_mop(idx22.shift_m(1, -1), ("II", 0))
    diag = rh.diagonal_recurrence(exp22, 0, 0).via_lax
    coefs = {
        "12": exp22.product(1, 2),
        "13": exp22.product(1, 3),
        "14": exp22.product(1, 4),
    }
    x = Fraction(1)
    for comp in range(2):
        lhs = eval_frac(lhs_c[comp], x)
        rhs = (
            (x - mpf_to_fraction(diag)) * eval_frac(main_c[comp], x)
            - mpf_to_fraction(coefs["12"]) * eval_frac(off1_c[comp], x)
            - mpf_to_fraction(coefs["13"]) * eval_frac(offm0_c[comp], x)
            - mpf_to_fraction(coefs["14"]) * eval_frac(offm1_c[comp], x)
        )
        resid = abs(lhs - rhs)
        scale = max(abs(lhs), Fraction(1))
        assert resid / scale < Fraction(1, 10**20)


def test_diagonal_coefficient_routes_agree(ws, idx22, exp22):
    for k in range(2):
        for l in range(2):
            d = rh.diagonal_recurrence(exp22, k, l)
            assert d.disagreement <= mpf("1e-18") * max(1, abs(d.via_lax))


def test_diagonal_explicit_first_term_form(ws, idx22, exp22):
    # z - (1-t)a1 - t b1 + c12 c23 / c13 must equal z - (c11 - c~11)
    d = rh.diagonal_recurrence(exp22, 0, 0).via_lax
    explicit = (
        (1 - ws.t) * ws.a[0]
        + ws.t * ws.b[0]
        - (exp22.c(1, 2) * exp22.c(2, 3) / exp22.c(1, 3)).real
    )
    assert abs(d - explicit) < mpf("1e-60")


def test_diagonal_direct_difference(ws, idx22, exp22):
    exp_sh = rh.assemble_rh_expansion(ws, idx22.shift_n(0).shift_m(0))
    direct = exp22.Y1[0, 0] - exp_sh.Y1[0, 0]
    direct = direct.real if isinstance(direct, mpc) else direct
    assert abs(direct - rh.diagonal_recurrence(exp22, 0, 0).via_lax) < mpf("1e-60")


def test_diagonal_symmetric_sign_flip():
    ws_sym = WeightSystem(a=("0.8", "-0.8"), b=("0.6", "-0.6"), t=mpf(1) / 3, N=4)
    idx = MultiIndexPair((2, 2), (2, 2))
    exp = rh.assemble_rh_expansion(ws_sym, idx)
    d11 = rh.diagonal_recurrence(exp, 0, 0).via_lax
    d22 = rh.diagonal_recurrence(exp, 1, 1).via_lax
    # mirror symmetry flips the sign of the position combination
    assert abs(d11 + d22) < mpf("1e-50")


# ---------------------------------------------------------------------------
# Lax matrix and ODE
# ---------------------------------------------------------------------------

def test_lax_matrix_trace(ws, idx22, exp22):
    z = mpc("0.3", "0.7")
    V = rh.lax_matrix(exp22, z)
    tr = sum(V[i, i] for i in range(4))
    expect = -(ws.N / (ws.t * (1 - ws.t))) * (
        2 * z - (1 - ws.t) * (ws.a[0] + ws.a[1]) + ws.t * (ws.b[0] + ws.b[1])
    )
    assert abs(tr - expect) < mpf("1e-60") * abs(expect)


def test_lax_matrix_block_sign(ws, idx22, exp22):
    V = rh.lax_matrix(exp22, mpf(0))
    pref = ws.N / (ws.t * (1 - ws.t))
    for i in range(2):
        for l in range(2):
            assert abs(V[i, 2 + l] - pref * exp22.Y1[i, 2 + l]) < mpf("1e-60") * max(
                abs(V[i, 2 + l]), mpf("1e-40")
            )


def test_lax_matrix_base_case(ws):
    exp0 = rh.assemble_rh_expansion(ws, MultiIndexPair((0, 0), (0, 0)))
    V = rh.lax_matrix(exp0, mpf(1))
    assert V[2, 0] == 0 and V[3, 1] == 0  # C21 = 0 for the base case
    assert abs(V[0, 2]) > 0


@pytest.mark.parametrize("nm", [(1, 1), (2, 2)])
def test_lax_ode_residual(ws, nm):
    idx = MultiIndexPair(nm, nm)
    res, res_poly = rh.verify_lax_ode(ws, idx, mpc(0, 1))
    assert res < mpf("1e-10")
    assert res_poly < mpf("1e-20")
    res2, _ = rh.verify_lax_ode(ws, idx, mpc(3, -2))
    assert res2 < mpf("1e-10")


def _entry_bits(a) -> list:
    return [
        (v.real._mpf_, v.imag._mpf_) if isinstance(v, mpc) else v._mpf_
        for row in a.tolist() for v in row
    ]


def test_expansion_batch_matches_in_process(ws, monkeypatch):
    # expansions assembled by a worker are bit for bit the in-process ones,
    # rows included
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pairs = [(ws, MultiIndexPair(n, n)) for n in ((4, 4), (4, 3), (3, 4), (3, 3))]
    got = rh.assemble_rh_expansions(pairs)
    for (w, idx), exp in zip(pairs, got):
        want = rh.assemble_rh_expansion(w, idx)
        assert exp.idx == idx
        assert _entry_bits(exp.Y1) == _entry_bits(want.Y1)
        assert _entry_bits(exp.Y2) == _entry_bits(want.Y2)
        assert [[c._mpf_ for block in s.coeffs for c in block] for s in exp.rows] == [
            [c._mpf_ for block in s.coeffs for c in block] for s in want.rows
        ]


def test_lax_ode_factors_once(monkeypatch):
    # Y(z) and Y'(z) read their rows from the expansion: one LU of G(4, 4),
    # none for the evaluator, and the residual is bit for bit that of a
    # second check, which assembles the expansion afresh
    ws = WeightSystem(a=("1", "-1"), b=("0.7", "-0.7"), t=mpf(1) / 2, N=8)
    idx = MultiIndexPair((4, 4), (4, 4))
    calls = count_solves(monkeypatch)
    res, _ = rh.verify_lax_ode(ws, idx, mpc(0, 1))
    assert calls == [(8, 256)]
    fresh, _ = rh.verify_lax_ode(ws, idx, mpc(0, 1))
    assert res._mpf_ == fresh._mpf_


def test_lax_ode_makes_one_faddeeva_map(ws_32, monkeypatch):
    # Y and Y' share one Faddeeva value per product weight: p q calls
    idx = MultiIndexPair((2, 1, 1), (2, 2))
    calls = []
    faddeeva = nu.faddeeva
    monkeypatch.setattr(nu, "faddeeva", lambda z: calls.append(z) or faddeeva(z))
    rh.verify_lax_ode(ws_32, idx, mpc(0, 1))
    assert len(calls) == ws_32.p * ws_32.q


def _lax_entry_residual(ws, idx, z) -> mpf:
    """Max over entries of |Psi' - V Psi| relative to the larger side."""
    exp = rh.assemble_rh_expansion(ws, idx)
    Y, dY = kn.YEvaluator(exp).jet(z)
    fs, logderivs = rh._psi_exponent_factors(ws, z)
    size = ws.p + ws.q
    psi = mp.matrix(size, size)
    dpsi = mp.matrix(size, size)
    for i in range(size):
        for j in range(size):
            psi[i, j] = Y[i, j] * fs[j]
            dpsi[i, j] = (dY[i, j] + Y[i, j] * logderivs[j]) * fs[j]
    rhs = rh.lax_matrix(exp, z) * psi
    return max(
        abs(dpsi[i, j] - rhs[i, j]) / max(abs(dpsi[i, j]), abs(rhs[i, j]))
        for i in range(size)
        for j in range(size)
    )


@pytest.mark.parametrize(
    "comps, z, bits",
    [
        ((1, 1), mpc(0, 1), 256),
        ((1, 1), mpc(3, -2), 256),
        ((2, 2), mpc(0, 1), 256),
        ((2, 2), mpc(3, -2), 256),
        ((3, 3), mpc(0, 1), 256),
        ((3, 3), mpc(3, -2), 256),
        ((3, 3), mpc(3, -2), 1088),
    ],
    ids=["1-i", "1-3-2i", "2-i", "2-3-2i", "3-i", "3-3-2i", "3-3-2i-1088"],
)
def test_lax_ode_every_entry(comps, z, bits):
    # the criterion-4 systems: Psi' is exact, so every entry of
    # Psi' - V Psi is at rounding level, at any precision
    nu.set_precision(bits)
    idx = MultiIndexPair(comps, comps)
    cfg = BrownianConfig("1", "-1", "0.7", "-0.7")
    ws = WeightSystem.from_config(cfg, mpf(1) / 3, idx.size_n)
    assert _lax_entry_residual(ws, idx, z) <= mpf(2) ** (-(mp.prec // 2))


def test_lax_ode_rejects_real_z(ws, idx22):
    from hbl.errors import OnContour

    with pytest.raises(OnContour):
        rh.verify_lax_ode(ws, idx22, mpf("0.5"))


# ---------------------------------------------------------------------------
# scalar products
# ---------------------------------------------------------------------------

def test_scalar_products_small_index(ws):
    rep = rh.scalar_product_report(rh.assemble_rh_expansion(ws, MultiIndexPair((1, 1), (1, 1))))
    assert rep.max_residual < mpf("1e-22")


def test_scalar_products_base_case(ws):
    rep = rh.scalar_product_report(rh.assemble_rh_expansion(ws, MultiIndexPair((0, 0), (0, 0))))
    assert rep.max_residual == 0


def test_scalar_products_zero_component(ws):
    # with n_2 = 0 the second column of C21, and so of C12 C21, is zero: the
    # 2x2 determinant relations still hold, in closed form
    rep = rh.scalar_product_report(rh.assemble_rh_expansion(ws, MultiIndexPair((2, 0), (1, 1))))
    assert rep.determinant_top is not None and rep.determinant_bottom is not None
    assert rep.max_residual < mpf("1e-22")


def test_scalar_products_unequal_split(ws_asym):
    idx = MultiIndexPair((3, 2), (3, 2))
    rep = rh.scalar_product_report(rh.assemble_rh_expansion(ws_asym, idx))
    assert rep.max_residual < mpf("1e-20")
    assert rep.fourth_relation is not None and rep.fourth_relation < mpf("1e-20")


def test_scalar_products_random_sweep():
    # property sweep: the compatibility identities hold for every valid
    # configuration, index split and time
    rng = random.Random(2024)
    for _ in range(8):
        p1 = mpf(repr(rng.uniform(0.25, 0.75)))
        wsr = WeightSystem(
            a=(mpf(repr(rng.uniform(0.4, 1.4))), mpf(repr(rng.uniform(-1.4, -0.4)))),
            b=(mpf(repr(rng.uniform(0.3, 1.0))), mpf(repr(rng.uniform(-1.0, -0.3)))),
            t=mpf(repr(rng.uniform(0.15, 0.85))),
            N=mpf(rng.randint(2, 10)),
        )
        n1, m1 = rng.randint(0, 3), rng.randint(0, 3)
        n2 = rng.randint(max(0, 1 - n1), 3)
        total = n1 + n2
        m2 = total - m1
        if m2 < 0 or m2 > 6:
            continue
        idx = MultiIndexPair((n1, n2), (m1, m2))
        rep = rh.scalar_product_report(rh.assemble_rh_expansion(wsr, idx))
        assert rep.max_residual < mpf("1e-20"), (wsr, idx)


def test_scalar_products_residual_scales_with_precision(ws_asym):
    # identities are exact algebra: doubling the precision must shrink the
    # residuals by many orders of magnitude
    idx = MultiIndexPair((3, 2), (3, 2))
    with mp.workprec(256):
        r256 = rh.scalar_product_report(
            rh.assemble_rh_expansion(ws_asym, idx)
        ).max_residual
    with mp.workprec(512):
        r512 = rh.scalar_product_report(
            rh.assemble_rh_expansion(ws_asym, idx)
        ).max_residual
    assert r512 < r256 * mpf("1e-40")


def test_scalar_products_sympy_exact_oracle():
    # full symbolic pipeline at n = m = (1,1) with rational data; the row
    # sum identity reduces to exactly zero in exact arithmetic
    sympy = pytest.importorskip("sympy")
    sp = sympy
    t = sp.Rational(1, 3)
    N = sp.Integer(2)
    a = [sp.Integer(1), sp.Integer(-1)]
    b = [sp.Rational(1, 2), sp.Rational(-1, 2)]
    g = N / (2 * t * (1 - t))
    mu = {(k, l): (1 - t) * a[k] + t * b[l] for k in range(2) for l in range(2)}
    E = {kl: sp.exp(g * mu[kl] ** 2) for kl in mu}
    sqrt_pi_g = sp.sqrt(sp.pi / g)

    def moments(k, l, jmax):
        out = [sqrt_pi_g * E[(k, l)]]
        out.append(mu[(k, l)] * out[0])
        for j in range(2, jmax + 1):
            out.append(mu[(k, l)] * out[j - 1] + sp.Rational(j - 1) / (2 * g) * out[j - 2])
        return out

    M = {(k, l): moments(k, l, 6) for k in range(2) for l in range(2)}

    def solve_sym(nvec, mvec, norm):
        nun = sum(nvec)
        syms = sp.symbols(f"c0:{nun}")
        offs = [0, nvec[0]]
        eqs = []
        for l in range(2):
            for j in range(mvec[l]):
                eqs.append(
                    sp.Eq(
                        sum(
                            syms[offs[k] + i] * M[(k, l)][i + j]
                            for k in range(2)
                            for i in range(nvec[k])
                        ),
                        0,
                    )
                )
        kind, pos = norm
        if kind == "II":
            eqs.append(sp.Eq(syms[offs[pos] + nvec[pos] - 1], 1))
        else:
            eqs.append(
                sp.Eq(
                    sum(
                        syms[offs[k] + i] * M[(k, pos)][i + mvec[pos]]
                        for k in range(2)
                        for i in range(nvec[k])
                    ),
                    1,
                )
            )
        sol = sp.solve(eqs, syms, dict=True)[0]
        return [sol[s] for s in syms], offs

    rows = [
        (solve_sym([2, 1], [1, 1], ("II", 0)), [2, 1]),
        (solve_sym([1, 2], [1, 1], ("II", 1)), [1, 2]),
        (solve_sym([1, 1], [0, 1], ("I", 0)), [1, 1]),
        (solve_sym([1, 1], [1, 0], ("I", 1)), [1, 1]),
    ]

    def coeff_of(rowi, k, power):
        (coeffs, offs), nv = rows[rowi]
        if 0 <= power < nv[k]:
            return coeffs[offs[k] + power]
        return sp.Integer(0)

    def B_of(rowi, l, j):
        (coeffs, offs), nv = rows[rowi]
        return sum(
            coeffs[offs[k] + i] * M[(k, l)][i + j]
            for k in range(2)
            for i in range(nv[k])
        )

    nvec = mvec = [1, 1]
    base = t * (1 - t) / N
    # (C12 C21)_{kk} = sum_l B_k(l, m_l) * coeff_{p+l -> k}; D factors cancel
    for k in range(2):
        total = sum(B_of(k, l, mvec[l]) * coeff_of(2 + l, k, nvec[k] - 1) for l in range(2))
        diff = sp.simplify(sp.expand((total - base * nvec[k]).rewrite(sp.exp)))
        assert diff == 0
    # column sums
    for l in range(2):
        total = sum(B_of(2 + l, ll, mvec[ll]) * 0 for ll in range(2))
        total = sum(coeff_of(2 + l, k, nvec[k] - 1) * B_of(k, l, mvec[l]) for k in range(2))
        diff = sp.simplify(sp.expand((total - base * mvec[l]).rewrite(sp.exp)))
        assert diff == 0


# ---------------------------------------------------------------------------
# involution
# ---------------------------------------------------------------------------

def test_involution_residual(ws, idx22, exp22):
    ws_sw, idx_sw = rh.swapped_system(ws, idx22)
    exp_sw = rh.assemble_rh_expansion(ws_sw, idx_sw)
    assert rh.involution_check(exp22, exp_sw) < mpf("1e-20")


def test_involution_block_form(ws, idx22, exp22):
    ws_sw, idx_sw = rh.swapped_system(ws, idx22)
    exp_sw = rh.assemble_rh_expansion(ws_sw, idx_sw)
    # C11 of the swapped system equals -C22^T of the original
    c22t = exp22.C22()
    for i in range(2):
        for j in range(2):
            assert abs(exp_sw.C11()[i, j] + c22t[j, i]) < mpf("1e-50")


def test_involution_full_matrix_identity(ws, idx22, exp22):
    # the swapped RH matrix satisfies Y_sw(z) = J Y(z)^{-T} J^{-1} pointwise,
    # not only at the level of the expansion coefficients
    exp_sw = rh.assemble_rh_expansion(*rh.swapped_system(ws, idx22))
    Y_at, Ysw_at = (kn.YEvaluator(exp).value for exp in (exp22, exp_sw))
    J = rh.involution_matrix(2, 2)
    Jinv = J.T
    for z in (mpc("0.7", "1.1"), mpc("-1.2", "0.6")):
        Y = Y_at(z)
        Ysw = Ysw_at(z)
        Yinv = mp.inverse(Y)
        YinvT = mp.matrix(4, 4)
        for i in range(4):
            for j in range(4):
                YinvT[i, j] = Yinv[j, i]
        target = J * YinvT * Jinv
        assert nu.max_abs(Ysw - target) <= mpf("1e-40") * nu.max_abs(Ysw)


def test_involution_self_inverse(ws, idx22, exp22):
    ws_sw, idx_sw = rh.swapped_system(ws, idx22)
    ws_back, idx_back = rh.swapped_system(ws_sw, idx_sw)
    exp_back = rh.assemble_rh_expansion(ws_back, idx_back)
    assert nu.max_abs(exp_back.Y1 - exp22.Y1) < mpf("1e-60")


# ---------------------------------------------------------------------------
# general group counts (p = 3, q = 2)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ws_32():
    return WeightSystem(
        a=("1.2", "0.1", "-1.0"), b=("0.8", "-0.6"), t=mpf(2) / 5, N=5
    )


def test_general_pq_scalar_products(ws_32):
    idx = MultiIndexPair((2, 1, 1), (2, 2))
    rep = rh.scalar_product_report(rh.assemble_rh_expansion(ws_32, idx))
    assert len(rep.row_sums) == 3 and len(rep.column_sums) == 2
    assert rep.fourth_relation is None  # defined for p = q = 2 only
    assert rep.max_residual < mpf("1e-20")


def test_general_pq_row_column_sums(ws_32):
    idx = MultiIndexPair((2, 1, 1), (2, 2))
    exp = rh.assemble_rh_expansion(ws_32, idx)
    H = rh.recurrence_matrix_H(exp)
    base = ws_32.t * (1 - ws_32.t) / ws_32.N
    for k in range(3):
        row = sum(H[k, 3 + l] for l in range(2))
        assert abs(row - base * idx.n[k]) < mpf("1e-60")
    for l in range(2):
        col = sum(H[k, 3 + l] for k in range(3))
        assert abs(col - base * idx.m[l]) < mpf("1e-60")


def test_general_pq_transfer_and_recurrence(ws_32):
    idx = MultiIndexPair((2, 1, 1), (2, 2))
    exp = rh.assemble_rh_expansion(ws_32, idx)
    sh = idx.shift_n(2).shift_m(0)
    exp_sh = rh.assemble_rh_expansion(ws_32, sh)
    z = mpc("0.8", "-0.5")
    U = rh.forward_transfer(exp, exp_sh, 2, 0, z)
    Ub = rh.backward_transfer(exp, exp_sh, 2, 0, z)
    assert nu.max_abs(U * Ub - mp.eye(5)) < mpf("1e-20")
    Y = kn.YEvaluator(exp).value(z)
    Ysh = kn.YEvaluator(exp_sh).value(z)
    assert nu.max_abs(U * Y - Ysh) <= mpf("1e-20") * nu.max_abs(Ysh)
    # the six-term (p+q+1) recurrence
    assert recurrence_residuals(ws_32, idx, ZS)[0, 1][0] < mpf("1e-20")


def test_general_pq_recurrence_matches_independent_route(ws_32, monkeypatch):
    _recurrences_on_both_routes(ws_32, MultiIndexPair((2, 1, 1), (2, 2)), monkeypatch)


def test_general_pq_involution(ws_32):
    idx = MultiIndexPair((2, 1, 1), (2, 2))
    exp = rh.assemble_rh_expansion(ws_32, idx)
    ws_sw, idx_sw = rh.swapped_system(ws_32, idx)
    exp_sw = rh.assemble_rh_expansion(ws_sw, idx_sw)
    assert rh.involution_check(exp, exp_sw) < mpf("1e-20")


def test_general_pq_lax_ode(ws_32):
    idx = MultiIndexPair((2, 1, 1), (2, 2))
    res, res_poly = rh.verify_lax_ode(ws_32, idx, mpc(0, 1))
    assert res < mpf("1e-10")
    assert res_poly < mpf("1e-20")
    for z in (mpc(0, 1), mpc(3, -2)):
        assert _lax_entry_residual(ws_32, idx, z) <= mpf(2) ** (-(mp.prec // 2))


def test_general_pq_spectral_branches(ws_32):
    idx = MultiIndexPair((2, 1, 1), (2, 2))
    n = idx.size_n
    report = rh.spectral_curve(rh.assemble_rh_expansion(ws_32, idx))
    want = [-mpf(idx.n[0]) / n, -mpf(idx.n[1]) / n, -mpf(idx.n[2]) / n,
            mpf(idx.m[0]) / n, mpf(idx.m[1]) / n]
    for target, branch in zip(want, report.branches):
        assert abs(branch.inverse_z - target) < mpf("1e-10")


# ---------------------------------------------------------------------------
# spectral curve
# ---------------------------------------------------------------------------

def test_spectral_branch_expansions(ws, idx22, exp22):
    report = rh.spectral_curve(exp22)
    n = idx22.size_n
    slope = ws.N / (n * ws.t * (1 - ws.t))
    for k in range(2):
        br = report.branches[k]
        assert abs(br.slope - slope) < mpf("1e-12") * slope
        assert abs(br.constant + ws.N * ws.a[k] / (n * ws.t)) < mpf("1e-10")
        assert abs(br.inverse_z + mpf(idx22.n[k]) / n) < mpf("1e-10")
    for l in range(2):
        br = report.branches[2 + l]
        assert abs(br.slope) < mpf("1e-12") * slope
        # self-consistent constant: N b_l / (n (1-t))
        assert abs(br.constant - ws.N * ws.b[l] / (n * (1 - ws.t))) < mpf("1e-10")
        assert abs(br.inverse_z - mpf(idx22.m[l]) / n) < mpf("1e-10")


def test_spectral_printed_constant_at_half_time():
    # at t = 1/2 the printed constant N b_l/(n t) coincides with the
    # self-consistent N b_l/(n (1-t)); check it verbatim there
    cfg = BrownianConfig("1", "-1", "0.7", "-0.7")
    ws_half = WeightSystem.from_config(cfg, mpf(1) / 2, 4)
    idx = MultiIndexPair((2, 2), (2, 2))
    report = rh.spectral_curve(rh.assemble_rh_expansion(ws_half, idx))
    n = idx.size_n
    for l in range(2):
        br = report.branches[2 + l]
        printed = ws_half.N * ws_half.b[l] / (n * ws_half.t)
        assert abs(br.constant - printed) < mpf("1e-10")


def test_spectral_unequal_split(ws_asym):
    idx = MultiIndexPair((3, 2), (3, 2))
    report = rh.spectral_curve(rh.assemble_rh_expansion(ws_asym, idx))
    n = idx.size_n
    want = [-mpf(3) / 5, -mpf(2) / 5, mpf(3) / 5, mpf(2) / 5]
    got = [br.inverse_z for br in report.branches]
    for w, g in zip(want, got):
        assert abs(w - g) < mpf("1e-10")


def test_spectral_inverse_z_independent_of_temperature():
    # the 1/z coefficients are the particle fractions regardless of N = n/T
    cfg = BrownianConfig("1", "-1", "0.7", "-0.7", T="1.3")
    idx = MultiIndexPair((2, 2), (2, 2))
    ws_t = WeightSystem.from_config(cfg, mpf("0.4"), idx.size_n)
    report = rh.spectral_curve(rh.assemble_rh_expansion(ws_t, idx))
    for target, branch in zip((-0.5, -0.5, 0.5, 0.5), report.branches):
        assert abs(branch.inverse_z - mpf(target)) < mpf("1e-10")


def test_spectral_fit_error_decreases_with_extra_term(ws, idx22, exp22):
    # fit-order-increase oracle: the 3-term truncation of the same branch
    # data must carry a visibly larger 1/z-coefficient error than the
    # shipped 5-term fit
    from mpmath import matrix

    charpoly = rh.characteristic_polynomial(exp22)
    n = idx22.size_n
    radii = [mpf(10) ** 3, mpf(10) ** 4, mpf(10) ** 5]
    samples = []
    for r in radii:
        roots = rh._eigenvalues_at(exp22, charpoly, r)
        ordered = sorted(roots, key=lambda v: -abs(v))
        slope_part = sorted(ordered[:2], key=lambda v: v.real)
        samples.append(slope_part[0])
    rows = [[r, mpf(1), 1 / r] for r in radii]
    sol3 = mp.lu_solve(matrix(rows), samples)
    err3 = abs(sol3[2].real + mpf(idx22.n[0]) / n)
    report = rh.spectral_curve(exp22)
    err5 = abs(report.branches[0].inverse_z + mpf(idx22.n[0]) / n)
    assert err5 < err3 / 10


def test_spectral_branch_collision_detected():
    # the level repulsion of the exact curve keeps genuine configs apart
    # (nearly equal b_l widen the avoided crossing), so the detector is
    # exercised directly on an indistinguishable branch pair
    roots = [mpc(1000, 0), mpc(1001, 0), mpc("0.5"), mpc("0.5") + mpf("1e-16")]
    with pytest.raises(BranchCollision):
        rh.check_branch_separation(roots, mpf(1000))
    rh.check_branch_separation([mpc(1), mpc(2)], mpf(1000))  # no raise


def test_spectral_root_finder_failure_raises_no_convergence(exp22, monkeypatch):
    # mp.polyroots capped at one step misses its tolerance; the mpmath
    # exception surfaces as hbl's NoConvergence (exit 3)
    polyroots = mp.polyroots
    monkeypatch.setattr(
        mp, "polyroots", lambda coeffs, **kw: polyroots(coeffs, **{**kw, "maxsteps": 1})
    )
    with pytest.raises(NoConvergence) as info:
        rh.spectral_curve(exp22)
    assert info.value.exit_code == 3


def test_spectral_near_degenerate_endpoints_still_resolved():
    # nearly equal ending points: the spectral curve's avoided crossing
    # keeps the constant branches separated at the probe radii
    ws_deg = WeightSystem(
        a=("1", "-1"), b=("0.5", "0.4999999999999999999999999"), t=mpf(1) / 3, N=4
    )
    idx = MultiIndexPair((2, 2), (2, 2))
    report = rh.spectral_curve(rh.assemble_rh_expansion(ws_deg, idx))
    assert len(report.branches) == 4


def test_characteristic_polynomial_real_coefficients(ws, idx22, exp22):
    # imaginary parts of the D-conjugated entries cancel pairwise in the
    # determinant: the curve has real coefficients
    charpoly = rh.characteristic_polynomial(exp22)
    scale = max(abs(c) for c in charpoly.values())
    assert all(abs(mpc(c).imag) <= mpf("1e-60") * scale for c in charpoly.values())


def test_characteristic_polynomial_evaluates_to_det(ws, idx22, exp22):
    charpoly = rh.characteristic_polynomial(exp22)
    n = idx22.size_n
    z = mpc("1.3", "0.4")
    xi = mpc("0.2", "-1.1")
    direct = mp.det(xi * mp.eye(4) + rh.lax_matrix(exp22, z) / n)
    via_poly = sum(c * xi**i * z**j for (i, j), c in charpoly.items())
    assert abs(direct - via_poly) <= mpf("1e-60") * max(abs(direct), mpf(1))
