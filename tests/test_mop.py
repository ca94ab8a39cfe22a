"""Moment systems, MOP solves, normalizations and transition numbers."""

import gc
import os
import random
import select
import signal
import time
from fractions import Fraction

import pytest
from mpmath import matrix, mp, mpc, mpf

from hbl import mop
from hbl.errors import (
    InvalidIndex, NoConvergence, NormalizationImpossible, SingularMatrix, WorkerFailed
)
from hbl.mop import MultiIndexPair, WeightSystem

from conftest import (
    SolveLog,
    base_pair_job,
    count_solves,
    gaussian_moment,
    moment_system,
    mpf_to_fraction,
    orthogonality_residual,
    solve_batch,
    transition_number,
)


@pytest.fixture(scope="module")
def ws():
    return WeightSystem(a=("1", "-1"), b=("0.5", "-0.5"), t=mpf(1) / 3, N=6)


@pytest.fixture(scope="module")
def ws_symmetric():
    return WeightSystem(a=("0.8", "-0.8"), b=("0.6", "-0.6"), t=mpf(2) / 5, N=4)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_j0_is_gaussian_integral():
    # a_k = b_l = 0 makes the product weight a centered Gaussian
    ws0 = WeightSystem(a=("0", "-1"), b=("0", "-1"), t=mpf(1) / 2, N=3)
    gamma = ws0.gamma
    assert abs(gaussian_moment(ws0, 0, 0, 0) - mp.sqrt(mp.pi / gamma)) < mpf("1e-70")


def test_product_weight_closed_form_pointwise(ws):
    # w_{1,k} w_{2,l} = exp(-gamma (x - mu_kl)^2 + c_kl) pointwise
    for k in range(2):
        for l in range(2):
            for x in (mpf("-1.7"), mpf("0.3"), mpf("2.2")):
                direct = ws.w1(k, x) * ws.w2(l, x)
                closed = mp.exp(
                    -ws.gamma * (x - ws.mu(k, l)) ** 2 + ws.log_scale(k, l)
                )
                assert abs(direct - closed) <= mpf("1e-70") * direct


def test_moment_j1_is_mean(ws):
    m0 = gaussian_moment(ws, 0, 1, 0)
    m1 = gaussian_moment(ws, 0, 1, 1)
    assert abs(m1 - ws.mu(0, 1) * m0) < mpf("1e-70") * abs(m1)


@pytest.mark.parametrize("k,l,j", [(1, 0, 6), (0, 0, 13), (1, 1, 20)])
def test_moment_vs_quadrature_oracle(ws, k, l, j):
    rec = gaussian_moment(ws, k, l, j)
    quad = mp.quad(lambda x: x**j * ws.w1(k, x) * ws.w2(l, x), [-mp.inf, 0, mp.inf])
    assert abs(rec - quad) <= mpf("1e-20") * abs(rec)


def test_moment_vs_quadrature_random_configs():
    rng = random.Random(99)
    for _ in range(10):
        wsr = WeightSystem(
            a=(mpf(repr(rng.uniform(0.3, 1.2))), mpf(repr(rng.uniform(-1.2, -0.3)))),
            b=(mpf(repr(rng.uniform(0.2, 0.9))), mpf(repr(rng.uniform(-0.9, -0.2)))),
            t=mpf(repr(rng.uniform(0.25, 0.75))),
            N=mpf(rng.randint(2, 12)),
        )
        j = rng.randint(0, 20)
        k, l = rng.randint(0, 1), rng.randint(0, 1)
        rec = gaussian_moment(wsr, k, l, j)
        quad = mp.quad(
            lambda x: x**j * wsr.w1(k, x) * wsr.w2(l, x), [-mp.inf, 0, mp.inf]
        )
        assert abs(rec - quad) <= mpf("1e-20") * abs(rec)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def test_bimoment_rows_are_table_pairs_scaled_by_powers_of_two(monkeypatch):
    # each row of G and its entries of the right-hand sides are the moment
    # table's own pairs, every exponent shifted by one s per row, and the
    # row's largest entry lies in [1/2, 1); unit columns are (1, -s)
    from hbl import numerics as nu

    seen = []
    solve = nu.solve_pairs
    monkeypatch.setattr(nu, "solve_pairs", lambda a, b: seen.append((a, b)) or solve(a, b))
    ws = WeightSystem(a=("1", "-1"), b=("0.7", "-0.7"), t="0.4", N=14)
    idx = MultiIndexPair((4, 3), (2, 5))
    tags = [("II", 0), ("II", 1), ("I", 0), ("I", 1), ("G^-1", (1, 2))]
    mop._factor_and_solve(mop.moment_tables(ws, idx), idx, tags)
    ((rows, cols),) = seen
    tables = {kl: [nu._pair(v._mpf_) for v in col]
              for kl, col in mop.moment_tables(ws, idx).items()}
    row_keys = [(l, j) for l in range(2) for j in range(idx.m[l])]
    assert len(rows) == len(row_keys) == 7
    for r, ((l, j), row) in enumerate(zip(row_keys, rows)):
        want = [tables[k, l][i + j] for k in range(2) for i in range(idx.n[k])]
        assert [m for m, _ in row] == [m for m, _ in want]
        (s,) = {e0 - e for (_, e), (_, e0) in zip(row, want)}
        top = max(Fraction(abs(m)) * Fraction(2) ** e for m, e in row)
        assert Fraction(1, 2) <= top < 1
        assert cols[0][r] == (-tables[0, l][4 + j][0], tables[0, l][4 + j][1] - s)
        assert cols[1][r] == (-tables[1, l][3 + j][0], tables[1, l][3 + j][1] - s)
        unit = (1, -s)
        assert cols[2][r] == (unit if (l, j) == (0, 1) else (0, 0))
        assert cols[3][r] == (unit if (l, j) == (1, 4) else (0, 0))
        assert cols[4][r] == (unit if (l, j) == (1, 2) else (0, 0))


def test_trivial_index_pair(ws):
    idx = MultiIndexPair((1, 0), (0, 0))
    sol = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    assert sol.coeffs == ((mpf(1),), ())
    assert orthogonality_residual(sol, idx, mop.moment_tables(ws, idx)) == 0


def _fraction_solve(rows, rhs):
    n = len(rows)
    A = [list(r) for r in rows]
    b = list(rhs)
    for c in range(n):
        piv = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[piv] = A[piv], A[c]
        b[c], b[piv] = b[piv], b[c]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
                b[r] -= f * b[c]
    return [b[i] / A[i][i] for i in range(n)]


def test_solve_against_exact_rational_oracle(ws):
    # n=(2,1), m=(1,1), type (II,1): re-solve the same 3-unknown moment
    # system in exact rational arithmetic and compare coefficient vectors.
    idx = MultiIndexPair((2, 1), (1, 1))
    sol = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    tabs = {
        (k, l): [mpf_to_fraction(gaussian_moment(ws, k, l, j)) for j in range(4)]
        for k in range(2)
        for l in range(2)
    }
    rows, rhs = [], []
    for l in range(2):
        for j in range(idx.m[l]):
            rows.append([tabs[(0, l)][j], tabs[(0, l)][1 + j], tabs[(1, l)][j]])
            rhs.append(Fraction(0))
    rows.append([Fraction(0), Fraction(1), Fraction(0)])
    rhs.append(Fraction(1))
    oracle = _fraction_solve(rows, rhs)
    flat = [sol.coeffs[0][0], sol.coeffs[0][1], sol.coeffs[1][0]]
    for got, want in zip(flat, oracle):
        want_mp = mpf(want.numerator) / want.denominator
        assert abs(got - want_mp) <= mpf("1e-70") * max(1, abs(want_mp))


def test_reflection_symmetry_of_symmetric_system(ws_symmetric):
    # x -> -x maps the symmetric weight system onto itself with the index
    # roles 1 <-> 2 exchanged, so A-vectors of the two (II,k) solves are
    # mirror images up to parity signs.
    idx = MultiIndexPair((2, 1), (1, 1))
    idx_sw = MultiIndexPair((1, 2), (1, 1))
    sol1 = solve_batch(ws_symmetric, [(idx, ("II", 0))])[idx, ("II", 0)]
    sol2 = solve_batch(ws_symmetric, [(idx_sw, ("II", 1))])[idx_sw, ("II", 1)]
    for x in (mpf("0.3"), mpf("-0.8"), mpf("1.1")):
        lhs1 = sol1.eval_A(0, x)
        rhs1 = sol2.eval_A(1, -x)
        lhs2 = sol1.eval_A(1, x)
        rhs2 = sol2.eval_A(0, -x)
        # parity: deg A_1 = 1 in sol1 vs deg A_2 = 1 in sol2 (odd count of
        # sign flips), fixed by comparing against the reflected evaluation
        assert abs(lhs1 - -rhs1) < mpf("1e-60") * max(1, abs(lhs1)) or abs(
            lhs1 - rhs1
        ) < mpf("1e-60") * max(1, abs(lhs1))
        assert abs(lhs2 - -rhs2) < mpf("1e-60") * max(1, abs(lhs2)) or abs(
            lhs2 - rhs2
        ) < mpf("1e-60") * max(1, abs(lhs2))


def test_solve_orthogonality_residual(ws):
    idx = MultiIndexPair((3, 2), (2, 2))
    sol = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    resid = orthogonality_residual(sol, idx, mop.moment_tables(ws, idx))
    assert resid <= mpf(2) ** (-(mp.prec // 4))
    assert sol.coeffs[0][-1] == 1  # monic normalization is exact


def test_type1_normalization_exact(ws):
    idx = MultiIndexPair((2, 2), (2, 1))
    sol = solve_batch(ws, [(idx, ("I", 1))])[idx, ("I", 1)]
    moment = mop.q_moment(sol, mop.moment_tables(ws, idx), 1, idx.m[1])
    assert abs(moment - 1) < mpf("1e-60")


def test_negative_shift_rejected():
    with pytest.raises(InvalidIndex):
        MultiIndexPair((1, 0), (0, 0)).shift_m(0, -1)


def test_index_length_must_match_weights(ws):
    # a third component has no weight: G(n, m) would silently drop it
    wide, short = MultiIndexPair((2, 2, 2), (2, 2, 2)), MultiIndexPair((4,), (4,))
    for idx in (wide, short):
        with pytest.raises(InvalidIndex):
            mop.shifted_solutions(ws, idx, mop.moment_tables(ws, idx))
        with pytest.raises(InvalidIndex):
            mop.bimoment_inverse(ws, idx)


def test_precision_escalation_recovers_conditioning(ws):
    # at 128 bits the |n| = 48 moment system is numerically singular; the
    # solver must escalate internally and still return a valid solution
    from hbl import numerics as nu

    idx = MultiIndexPair((24, 24), (24, 23))
    nu.set_precision(128)
    try:
        sol = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
        resid = orthogonality_residual(sol, idx, mop.moment_tables(ws, idx))
    finally:
        nu.set_precision(nu.DEFAULT_PRECISION_BITS)
    assert resid <= mpf(2) ** (-32)
    assert sol.coeffs[0][-1] == 1


# ---------------------------------------------------------------------------
# escalate: the one precision ladder
# ---------------------------------------------------------------------------

def _missing_below(bits_needed, signal, tried):
    """An attempt that logs its bits and raises ``signal`` below bits_needed."""
    def attempt(bits):
        tried.append(bits)
        if bits < bits_needed:
            raise signal(f"missed at {bits} bits")
        return f"passed at {bits} bits"

    return attempt


@pytest.mark.parametrize("signal", [SingularMatrix, NoConvergence])
def test_escalate_climbs_on_either_signal(signal):
    # each miss asks for the next rung; the attempt passes at 1024 bits,
    # the last rung, and the working precision is left as it was
    tried = []
    with mp.workprec(128):
        got = mop.escalate(_missing_below(1024, signal, tried))
        assert mp.prec == 128
    assert got == ("passed at 1024 bits", 1024)
    assert tried == [128, 256, 512, 1024]


def test_escalate_tries_a_start_above_the_ceiling_once():
    tried = []
    with mp.workprec(2048):
        got = mop.escalate(_missing_below(0, SingularMatrix, tried))
        with pytest.raises(NormalizationImpossible) as err:
            mop.escalate(_missing_below(4096, SingularMatrix, tried))
    assert got == ("passed at 2048 bits", 2048)
    assert tried == [2048, 2048]
    assert str(err.value) == (
        "missed at 2048 bits; gave up at 2048 bits, the last step under the "
        "escalation ceiling of 2048: retry with --precision 4096"
    )


def test_escalate_names_the_ceiling_and_the_next_precision():
    # from 192 bits under a ceiling of 1024 the rungs are 192, 384 and 768;
    # the error carries the last miss and names 2 * 768, above the ceiling
    tried = []
    with mp.workprec(192):
        with pytest.raises(NormalizationImpossible) as err:
            mop.escalate(_missing_below(2048, NoConvergence, tried))
    assert tried == [192, 384, 768]
    assert str(err.value) == (
        "missed at 768 bits; gave up at 768 bits, the last step under the "
        "escalation ceiling of 1024: retry with --precision 1536"
    )


def test_escalate_passes_other_errors_through():
    tried = []
    with pytest.raises(InvalidIndex):
        mop.escalate(_missing_below(10**6, InvalidIndex, tried))
    assert tried == [mp.prec]


# ---------------------------------------------------------------------------
# shifted solutions: the p + q rows of Y from one factorization
# ---------------------------------------------------------------------------

def test_shifted_solutions_factor_once(ws, monkeypatch):
    calls = count_solves(monkeypatch)
    idx = MultiIndexPair((8, 8), (8, 8))
    rows = mop.shifted_solutions(ws, idx, mop.moment_tables(ws, idx))
    assert calls == [(16, mp.prec)]
    assert all(sol is not None for sol in rows)


def test_shifted_solutions_against_exact_rational_oracle(ws):
    idx = MultiIndexPair((2, 1), (1, 2))
    rows = mop.shifted_solutions(ws, idx, mop.moment_tables(ws, idx))
    expected = [(idx.shift_n(k), ("II", k)) for k in range(2)]
    expected += [(idx.shift_m(l, -1), ("I", l)) for l in range(2)]
    for sol, (sol_idx, norm) in zip(rows, expected):
        A, rhs = moment_system(ws, sol_idx, norm)
        oracle = _fraction_solve(
            [[mpf_to_fraction(v) for v in row] for row in A],
            [mpf_to_fraction(v) for v in rhs],
        )
        flat = [c for block in sol.coeffs for c in block]
        assert len(flat) == len(oracle)
        for got, want in zip(flat, oracle):
            want_mp = mpf(want.numerator) / want.denominator
            assert abs(got - want_mp) <= mpf("1e-60") * max(1, abs(want_mp))


def test_shifted_solutions_escalate_together(ws, monkeypatch):
    # at 128 bits G(24,24) is numerically singular; on the ladder of
    # escalate the one factorization is redone at doubled precision and
    # every row then meets the residual bound
    from hbl import numerics as nu

    def attempt(bits):
        with mp.workprec(bits):
            return mop.shifted_solutions(ws, idx, mop.moment_tables(ws, idx))

    calls = count_solves(monkeypatch)
    idx = MultiIndexPair((24, 24), (24, 24))
    nu.set_precision(128)
    try:
        rows, bits = mop.escalate(attempt)
        with mp.workprec(bits):
            tables = mop.moment_tables(ws, idx)
            row_idx = [idx.shift_n(k) for k in range(2)] + [idx.shift_m(l, -1) for l in range(2)]
            resids = [orthogonality_residual(sol, i, tables) for sol, i in zip(rows, row_idx)]
    finally:
        nu.set_precision(nu.DEFAULT_PRECISION_BITS)
    assert len(calls) > 1 and calls[0] == (48, 128)
    assert all(resid <= mpf(2) ** (-32) for resid in resids)
    assert rows[0].coeffs[0][-1] == 1 and rows[1].coeffs[1][-1] == 1


def test_solve_batch_one_lu_per_base_pair(ws, monkeypatch):
    # four requests around the ill-conditioned G(24, 24) share each LU of
    # it; around the well-conditioned G(2, 2) the 128-bit LU is made to
    # report a singular matrix, which must send that group alone to
    # doubled precision
    from hbl import numerics as nu

    calls = count_solves(monkeypatch)
    counted = nu.solve_pairs

    def singular_at_128(rows, cols):
        xs = counted(rows, cols)
        if len(rows) == 4 and mp.prec == 128:
            raise SingularMatrix("forced at 128 bits")
        return xs

    monkeypatch.setattr(nu, "solve_pairs", singular_at_128)
    big, small = MultiIndexPair((24, 24), (24, 24)), MultiIndexPair((2, 2), (2, 2))
    requests = [(big.shift_n(k), ("II", k)) for k in range(2)]
    requests += [(big.shift_m(l, -1), ("I", l)) for l in range(2)]
    requests += [(small.shift_n(0), ("II", 0)), (small.shift_m(1, -1), ("I", 1))]
    nu.set_precision(128)
    try:
        sols = solve_batch(ws, requests + requests[:1])
        resids = [
            orthogonality_residual(sol, idx, mop.moment_tables(ws, idx))
            for (idx, _), sol in sols.items()
        ]
    finally:
        nu.set_precision(nu.DEFAULT_PRECISION_BITS)
    assert set(sols) == set(requests)
    assert calls.count((48, 128)) == 1
    assert [c for c in calls if c[0] == 4] == [(4, 128), (4, 256)]
    assert all(resid <= mpf(2) ** (-32) for resid in resids)


def _bits(sols) -> list:
    return [[c._mpf_ for block in s.coeffs for c in block] for s in sols]


def _rows_requests(base):
    return [(base.shift_n(k), ("II", k)) for k in range(2)] + [
        (base.shift_m(l, -1), ("I", l)) for l in range(2)
    ]


def test_solve_batch_matches_in_process_groups(ws, monkeypatch):
    # over two CPUs a worker solves the two groups of size 11; every vector
    # is bit for bit the in-process solve of its group
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    bases = [MultiIndexPair((6, 6), (6, 6)), MultiIndexPair((6, 5), (5, 6)),
             MultiIndexPair((5, 6), (6, 5)), MultiIndexPair((5, 5), (5, 5))]
    sols = solve_batch(ws, [r for base in bases for r in _rows_requests(base)])
    for base in bases:
        requests = _rows_requests(base)
        want = mop._factor_and_solve(mop.moment_tables(ws, base), base, [n for _, n in requests])
        assert _bits(sols[r] for r in requests) == _bits(want)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_cores_runs_each_job_once_in_job_order(monkeypatch):
    # ten jobs over two CPUs, each run logged by the worker that pulled it:
    # every job runs exactly once, and the results come back in job order
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    log = SolveLog()

    def fn(job):
        log.record(job, os.getpid())
        time.sleep(0.01)
        return job * job

    jobs = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
    assert mop._map_cores(fn, jobs) == [job * job for job in jobs]
    assert sorted(job for job, _ in log) == sorted(jobs)
    _no_child_left()
    assert gc.get_freeze_count() == 0


def test_map_cores_workers_inherit_a_frozen_heap(monkeypatch):
    # the heap is frozen for the forks, so a worker's collections skip
    # what it inherits, and unfrozen again once the workers are reaped
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert all(mop._map_cores(lambda job: gc.get_freeze_count() > 0, [0, 1]))
    assert gc.get_freeze_count() == 0


def test_map_cores_reaps_children_and_reraises(ws, monkeypatch):
    # at 128 bits with no room to escalate, G(20, 20) and G(24, 24) are
    # singular; whichever worker pulls G(20, 20), the earlier job, its
    # error is raised with the type and message of the in-process solve
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(mop, "MAX_ESCALATED_PRECISION", 128)
    small, big = MultiIndexPair((20, 20), (20, 20)), MultiIndexPair((24, 24), (24, 24))
    with mp.workprec(128):
        with pytest.raises(NormalizationImpossible) as want:
            base_pair_job(ws, small, [("II", 0)])
        with pytest.raises(NormalizationImpossible) as got:
            solve_batch(ws, [(small.shift_n(0), ("II", 0)), (big.shift_n(0), ("II", 0))])
    assert str(got.value) == str(want.value)
    _no_child_left()
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("failing", [{0, 1, 2, 3}, {2, 3}], ids=["all", "late"])
def test_map_cores_raises_the_earliest_failed_job(failing, monkeypatch):
    # job 0 runs longest, so it fails last, after the other worker has
    # failed on a later job; the error raised is still the in-order loop's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def fn(job):
        time.sleep(0.2 if job == 0 else 0.02)
        if job in failing:
            raise ValueError(f"job {job}")
        return job

    with pytest.raises(ValueError) as got:
        mop._map_cores(fn, range(4))
    assert str(got.value) == f"job {min(failing)}"
    _no_child_left()
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("cpus", [2, 8])
def test_map_cores_queue_outgrows_its_pipe(cpus, monkeypatch):
    # 20 000 indices take 80 000 bytes, more than a 64 KiB pipe holds: this
    # process goes on writing the queue as the workers drain it.  On two
    # CPUs, and with more workers than cores, every job runs once within a
    # minute, and nothing stays open
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    log = SolveLog()
    # an earlier test's SolveLog, closed by a collection during the map,
    # would free a lower fd for the listing's own directory handle
    gc.collect()
    fds = set(os.listdir("/proc/self/fd"))

    def fn(job):
        log.record(job, 0)
        return -job

    def stalled(signum, frame):
        raise TimeoutError("the queue stalled")

    jobs = range(20000)
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(60)
    try:
        got = mop._map_cores(fn, jobs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got == [-job for job in jobs]
    assert sorted(job for job, _ in log) == list(jobs)
    _no_child_left()
    assert set(os.listdir("/proc/self/fd")) == fds


def test_map_cores_one_job_forks_nothing(monkeypatch):
    def fork():
        raise AssertionError("forked for one job")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "pipe", fork)
    assert mop._map_cores(lambda job: job + 1, [1]) == [2]


class TwoArgumentError(Exception):
    """Pickles as its message alone, so it fails to load again."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _raise_two_argument_error(job):
    if job == 2:
        raise TwoArgumentError("job 2", "no such value")
    return job


@pytest.mark.parametrize(
    "fn, message",
    [
        # the worker's result cannot be pickled
        (lambda job: (lambda: job) if job == 2 else job,
         "jobs [1] sent no result: a worker exited with status 1"),
        # the worker's exception cannot be unpickled
        (_raise_two_argument_error, "job 1 raised TwoArgumentError: job 2: no such value"),
    ],
    ids=["unpicklable-result", "unloadable-exception"],
)
def test_map_cores_names_a_worker_that_cannot_send(fn, message, monkeypatch):
    # jobs 1 and 2 over two CPUs: job 1 waits until the other worker has
    # taken job 2, whose outcome that worker cannot send
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ready, taken = os.pipe()

    def run(job):
        if job == 1:
            select.select([ready], [], [], 60)
        else:
            os.write(taken, b"x")
        return fn(job)

    try:
        with pytest.raises(WorkerFailed) as got:
            mop._map_cores(run, [1, 2])
    finally:
        os.close(ready)
        os.close(taken)
    assert str(got.value) == message
    _no_child_left()
    assert gc.get_freeze_count() == 0


def test_weight_system_replace_builds_through_the_constructor(ws):
    # namedtuple's _replace kept t = "0.4" as a string, and the result had
    # no cached hash, so hash() raised AttributeError
    got = ws._replace(t="0.4")
    want = WeightSystem(a=("1", "-1"), b=("0.5", "-0.5"), t="0.4", N=6)
    assert got == want and hash(got) == hash(want)
    assert got.t == mpf("0.4")
    with pytest.raises(ValueError, match="time t must lie in"):
        ws._replace(t="1.5")
    with pytest.raises(ValueError, match="scale N must be positive"):
        ws._replace(N=0)


def test_index_pair_replace_builds_through_the_constructor():
    # namedtuple's _replace accepted a negative component
    idx = MultiIndexPair((2, 2), (2, 2))
    got = idx._replace(m=[3, "1"])
    assert got == MultiIndexPair((2, 2), (3, 1)) and got.m == (3, 1)
    assert hash(got) == hash(MultiIndexPair((2, 2), (3, 1)))
    with pytest.raises(InvalidIndex, match="negative multi-index component"):
        idx._replace(n=(5, -3))
    with pytest.raises(InvalidIndex, match="must equal"):
        idx._replace(n=(5, 3))


def test_outcome_pickle_loads_raw_values_back(ws):
    # an expansion (mpc matrices, MopSolution rows) and a batch's
    # MopSolutions go through the pipe as raw tuples and load back equal
    import io
    import pickle

    from hbl import rh

    idx = MultiIndexPair((2, 2), (2, 2))
    exp = rh.assemble_rh_expansion(ws, idx)
    sols = solve_batch(ws, [(idx.shift_n(0), ("II", 1)), (idx.shift_m(1, -1), ("I", 0))])
    sink = io.BytesIO()
    mop._send_outcome(sink, ([0, 1], {0: exp, 1: list(sols.values())}, None))
    assert b"_mpf_" not in sink.getvalue() and b"_mpc" in sink.getvalue()
    taken, done, failed = pickle.loads(sink.getvalue())
    assert (taken, failed) == ([0, 1], None)

    def raw(sol):
        return [[c._mpf_ for c in cs] for cs in sol.coeffs]

    def entries(y):
        return [(type(v), getattr(v, "_mpc_", None) or v._mpf_) for v in y]

    got = done[0]
    assert (got.ws, got.idx) == (exp.ws, exp.idx)
    for y, want in ((got.Y1, exp.Y1), (got.Y2, exp.Y2)):
        assert entries(y) == entries(want)
    assert [raw(sol) for sol in got.rows] == [raw(sol) for sol in exp.rows]
    assert [raw(sol) for sol in done[1]] == [raw(sol) for sol in sols.values()]

    # records whose constructor rounds its fields come back with the bits
    # sent, not rounded again at the loading side's precision: a weight
    # system made at 512 bits and loaded at 256 is equal, with one hash
    with mp.workprec(512):
        sent = [WeightSystem(a=("1", "-1"), b=("0.5", "-0.5"), t=mpf(1) / 3, N="6.1"),
                MultiIndexPair((3, 2), (2, 2))]
        sink = io.BytesIO()
        mop._send_outcome(sink, ([0], {0: sent}, None))
    with mp.workprec(256):
        got = pickle.loads(sink.getvalue())[1][0]

    def bits(v):
        return tuple(map(bits, v)) if isinstance(v, tuple) else getattr(v, "_mpf_", v)

    names = [("a", "b", "t", "N"), ("n", "m")]
    for g, s, fields in zip(got, sent, names):
        assert type(g) is type(s)
        assert [bits(getattr(g, f)) for f in fields] == [bits(getattr(s, f)) for f in fields]
    assert got == sent
    assert [hash(r) for r in got] == [hash(r) for r in sent]


def test_one_cpu_forks_nothing(ws, monkeypatch):
    def fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", fork)
    bases = [MultiIndexPair((3, 3), (3, 3)), MultiIndexPair((3, 2), (2, 3))]
    sols = solve_batch(ws, [r for base in bases for r in _rows_requests(base)])
    assert len(sols) == 8


# ---------------------------------------------------------------------------
# evaluate_Q and orthogonality reporting
# ---------------------------------------------------------------------------

def evaluate_Q(sol, ws, x):
    """Q(x) = sum_k A_k(x) w_{1,k}(x) (test oracle)."""
    x = mp.mpmathify(x)
    return sum(sol.eval_A(k, x) * ws.w1(k, x) for k in range(ws.p))


def test_evaluate_q_trivial(ws):
    idx = MultiIndexPair((1, 0), (0, 0))
    sol = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    for x in (mpf(0), mpf("0.7"), mpf("-1.3")):
        assert abs(evaluate_Q(sol, ws, x) - ws.w1(0, x)) < mpf("1e-70")


def test_evaluate_q_at_zero_is_coefficient_sum(ws):
    idx = MultiIndexPair((2, 2), (2, 1))
    sol = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    expect = sol.coeffs[0][0] + sol.coeffs[1][0]  # w_{1,k}(0) = 1
    assert abs(evaluate_Q(sol, ws, 0) - expect) < mpf("1e-60") * max(1, abs(expect))


def test_q_gaussian_tail_decay(ws):
    # |Q(x)| <= C exp(-gamma' x^2 / 2) for large |x|: fit C on moderate x
    # and check the bound further out
    idx = MultiIndexPair((2, 2), (2, 1))
    sol = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    gamma_prime = ws.N / (2 * ws.t)  # the w1 width
    xs = [mpf(3), mpf(4)]
    C = max(abs(evaluate_Q(sol, ws, x)) * mp.exp(gamma_prime * x**2 / 2) for x in xs)
    for x in (mpf(5), mpf(6), mpf(-5)):
        assert abs(evaluate_Q(sol, ws, x)) <= 2 * C * mp.exp(-gamma_prime * x**2 / 2)


def test_q_moments_vs_quadrature_oracle(ws):
    # the recursion-based moments of Q against w_{2,l} agree with direct
    # adaptive quadrature of evaluate_Q
    idx = MultiIndexPair((2, 2), (2, 1))
    sol = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    tables = mop.moment_tables(ws, idx)
    for l, j in ((0, 2), (1, 1), (1, 3)):
        rec = mop.q_moment(sol, tables, l, j)
        quad = mp.quad(
            lambda x: evaluate_Q(sol, ws, x) * x**j * ws.w2(l, x),
            [-mp.inf, 0, mp.inf],
        )
        scale = max(abs(rec), abs(quad), mpf("1e-30"))
        assert abs(rec - quad) <= mpf("1e-20") * scale


def test_orthogonality_perturbation_sensitivity(ws):
    idx = MultiIndexPair((3, 2), (2, 2))
    sol = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    bad_coeffs = list(list(c) for c in sol.coeffs)
    bad_coeffs[0][0] += mpf("1e-3")
    bad = mop.MopSolution(coeffs=tuple(tuple(c) for c in bad_coeffs))
    assert orthogonality_residual(bad, idx, mop.moment_tables(ws, idx)) > mpf("1e-6")


# ---------------------------------------------------------------------------
# transition numbers
# ---------------------------------------------------------------------------

def test_transition_identity(ws):
    idx = MultiIndexPair((2, 1), (1, 1))
    assert transition_number(ws, idx, ("II", 0), ("II", 0)) == 1


def test_transition_reciprocal(ws):
    idx = MultiIndexPair((2, 1), (1, 1))
    tau = transition_number(ws, idx, ("II", 0), ("I", 0))
    tau_inv = transition_number(ws, idx, ("I", 0), ("II", 0))
    assert abs(tau * tau_inv - 1) < mpf("1e-60")


def test_transition_matches_rational_oracle(ws):
    # tau as the ratio of the leading coefficients of the two exact solves
    idx = MultiIndexPair((2, 1), (1, 1))
    tau = transition_number(ws, idx, ("II", 0), ("I", 0))
    sol2 = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    sol1 = solve_batch(ws, [(idx, ("I", 0))])[idx, ("I", 0)]
    ratio = sol2.coeffs[0][1] / sol1.coeffs[0][1]
    assert abs(tau - ratio) < mpf("1e-60") * abs(ratio)


def test_proportionality_across_points(ws):
    rng = random.Random(3)
    idx = MultiIndexPair((3, 2), (2, 2))
    tau = transition_number(ws, idx, ("II", 0), ("I", 1))
    a = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    b = solve_batch(ws, [(idx, ("I", 1))])[idx, ("I", 1)]
    for _ in range(5):
        x = mpf(repr(rng.uniform(-2, 2)))
        for k in range(2):
            lhs = a.eval_A(k, x)
            rhs = tau * b.eval_A(k, x)
            assert abs(lhs - rhs) <= mpf("1e-20") * max(abs(lhs), abs(rhs), mpf("1e-30"))


def test_type2_normalization_scale_free(ws):
    # scaling every weight by a positive constant scales all orthogonality
    # rows uniformly and leaves the (II,k) solution untouched
    idx = MultiIndexPair((3, 2), (2, 2))
    sol = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    rows, rhs = moment_system(ws, idx, ("II", 0))
    scale = mpf(17) / 5
    for row in rows[:-1]:  # last row is the normalization constraint
        row[:] = [v * scale for v in row]
    x = mp.lu_solve(matrix(rows), rhs)
    flat = [c for block in sol.coeffs for c in block]
    assert max(abs(a - b) for a, b in zip(x, flat)) < mpf("1e-65")


def test_solutions_bit_identical(ws):
    idx = MultiIndexPair((2, 1), (1, 1))
    sol = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    again = solve_batch(ws, [(idx, ("II", 0))])[idx, ("II", 0)]
    assert sol.coeffs == again.coeffs
