"""Hastings-McLeod collocation, interpolation and the Hamiltonian."""

import subprocess
import sys
from math import factorial, gcd
from pathlib import Path

import pytest
from conftest import hml_residual_oracle
from mpmath import mp, mpf

from hbl import painleve as pv
from hbl.errors import DomainTooNarrow, NoConvergence, OutOfDomain


def _shooting_oracle_q0():
    """Independent oracle: DOP853 shooting from s = 12 down to 0 with the
    Airy terminal data (the unstable direction grows only ~1e12 over this
    range, well inside double precision with rtol 1e-13)."""
    from scipy.integrate import solve_ivp

    y0 = [float(mp.airyai(12)), float(mp.airyai(12, derivative=1))]
    sol = solve_ivp(
        lambda s, y: [y[1], s * y[0] + 2 * y[0] ** 3],
        [12.0, 0.0],
        y0,
        method="DOP853",
        rtol=1e-13,
        atol=1e-30,
    )
    return mpf(float(sol.y[0][-1]))


def test_boundary_matches_airy(hml_solution):
    sol = hml_solution
    assert abs(sol.evaluate(mpf(8))[0] - mp.airyai(8)) < mpf("1e-10")
    # imposed boundary value, converged to the Newton target
    assert abs(sol.q[-1] - mp.airyai(10)) < mpf("1e-38")
    assert abs(sol.q_prime[-1] - mp.airyai(10, derivative=1)) < mpf("1e-12")


def test_airy_agreement_on_right_tail(hml_solution):
    for s in ("6", "7", "8.5", "9.5", "10"):
        q = hml_solution.evaluate(mpf(s))[0]
        assert abs(q - mp.airyai(mpf(s))) < mpf("1e-8")


def test_q0_matches_shooting_oracle(hml_solution):
    q0 = hml_solution.evaluate(0)[0]
    assert abs(q0 - _shooting_oracle_q0()) < mpf("1e-10")


def test_profile_matches_shooting_oracle_multipoint(hml_solution):
    # dense-output shooting across the whole domain; leftward instability
    # grows like exp((2 sqrt2/3)|s|^{3/2}) so the tolerance widens left
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda s, y: [y[1], s * y[0] + 2 * y[0] ** 3],
        [12.0, -8.0],
        [float(mp.airyai(12)), float(mp.airyai(12, derivative=1))],
        method="DOP853",
        rtol=1e-13,
        atol=1e-30,
        dense_output=True,
    )
    # the oracle's own error envelope ~ 1e-13 * exp((2 sqrt2/3)|s|^{3/2})
    for s, tol in ((5, "1e-11"), (2, "1e-11"), (-1, "1e-10"), (-4, "2e-9"), (-8, "5e-4")):
        mine = hml_solution.evaluate(mpf(s))[0]
        oracle = mpf(float(sol.sol(float(s))[0]))
        assert abs(mine - oracle) < mpf(tol)


def test_left_asymptote(hml_solution):
    q8 = hml_solution.evaluate(mpf(-8))[0]
    assert abs(q8 - 2) <= mpf("0.05")
    ratios = []
    for s in (-6, -8, -10):
        s = mpf(s)
        ratios.append(hml_solution.evaluate(s)[0] / mp.sqrt(-s / 2))
    # ratio increases toward 1 as s decreases, staying below 1
    assert ratios[0] < ratios[1] < ratios[2] < 1


def test_positivity(hml_solution):
    assert all(v > 0 for v in hml_solution.q)


def test_collocation_residual_on_grid(hml_solution):
    assert hml_solution.achieved_residual < mpf("1e-12")


def test_fd_weights_exact_on_polynomials():
    # every stencil shape the solver uses differentiates x^r exactly for
    # r below its number of points
    for half, edge, order in ((3, 8, 2), (4, 9, 1)):
        shapes = [tuple(range(-half, half + 1))]
        shapes += [tuple(range(-j, edge - j)) for j in range(edge)]
        for offsets in shapes:
            den, weights = pv._fd_weights(offsets, order)
            assert gcd(den, *weights) == 1  # the least common denominator
            for r in range(len(offsets)):
                moment = sum(w * o**r for o, w in zip(offsets, weights))
                assert moment == (den * factorial(order) if r == order else 0)


def test_returned_grid_meets_newton_target(hml_solution):
    # the values handed back, not a guarded iterate, meet the 1e-40 target,
    # and achieved_residual reports their residual
    oracle = hml_residual_oracle(hml_solution)
    assert oracle <= mpf("1e-40")
    assert oracle / 4 <= hml_solution.achieved_residual <= 4 * oracle


def test_128_bit_solve_stops_at_its_rounding_floor():
    # at 128 bits rounding the grid values to working precision leaves a
    # residual of about 2^-128 max(|J| |q|) ~ 4e-34, above the 1e-40 target
    with mp.workprec(128):
        sol = pv.solve_hastings_mcleod()
        oracle = hml_residual_oracle(sol)
    assert oracle <= mpf("1e-33")
    assert oracle / 4 <= sol.achieved_residual <= 4 * oracle


@pytest.mark.parametrize("bits", [128, 256, 512, 1088])
def test_default_grid_independent_of_precision(bits):
    # 20 / 0.01 rounds above 2000 at 512 and 1088 bits; the default domain
    # still has 2001 points, spaced 0.01 apart
    with mp.workprec(bits):
        sol = pv.solve_hastings_mcleod()
        assert len(sol.grid) == 2001 and sol.h == mpf(20) / 2000
        # each node is s_lo + i*h as mpf arithmetic rounds it
        assert all(v._mpf_ == (sol.s_lo + i * sol.h)._mpf_ for i, v in enumerate(sol.grid))


@pytest.mark.parametrize("s_lo, s_hi", [(-6, 6), (-20, 15)])
def test_newton_converges_from_the_seed_on_other_domains(hml_solution, s_lo, s_hi):
    # the one Newton loop starts from the blended float seed on any domain;
    # q(0) moves only by the truncation of the boundary asymptotes
    sol = pv.solve_hastings_mcleod(s_lo=mpf(s_lo), s_hi=mpf(s_hi))
    assert sol.achieved_residual <= mpf("1e-40")
    assert abs(sol.evaluate(0)[0] - hml_solution.evaluate(0)[0]) <= mpf("1e-9")


def test_coarse_grid_meets_the_residual_oracle():
    # 25 points on [-6, 6]: the centred rows and the rows at the ends
    # still give the residual the plain mpf sweep finds
    sol = pv.solve_hastings_mcleod(s_lo=mpf(-6), s_hi=mpf(6), spacing=mpf("0.5"))
    oracle = hml_residual_oracle(sol)
    assert len(sol.grid) == 25 and oracle <= mpf("1e-40")
    assert oracle / 4 <= sol.achieved_residual <= 4 * oracle


def test_grid_values_agree_across_precisions(hml_solution):
    with mp.workprec(512):
        fine = pv.solve_hastings_mcleod()
    assert len(fine.grid) == len(hml_solution.grid)
    assert max(abs(a - b) for a, b in zip(hml_solution.q, fine.q)) <= mpf("1e-38")


def ode_residual(sol, s):
    """|q'' - s q - 2 q^3| at an arbitrary point of the domain (test oracle)."""
    s = mpf(s)
    qv, _, qpp = sol.evaluate(s, nder=2)
    return abs(qpp - s * qv - 2 * qv**3)


def test_ode_residual_off_grid(hml_solution):
    for s in ("1.2345", "-7.777", "0.005", "-3.1415", "9.1"):
        assert ode_residual(hml_solution, mpf(s)) < 10 * hml_solution.tol


def test_on_grid_evaluation_is_exact(hml_solution):
    i = len(hml_solution.grid) // 3
    s = hml_solution.grid[i]
    q, qp = hml_solution.evaluate(s)
    assert q == hml_solution.q[i]
    assert qp == hml_solution.q_prime[i]


def test_values_alone_leave_q_prime_unformed():
    # q at a node and between nodes is the same with or without q', and
    # reading q alone forms no q'
    sol = pv.solve_hastings_mcleod()
    points = [mpf(0), sol.grid[777], mpf("1.2345"), mpf("-7.777")]
    values = [sol.evaluate(s, nder=0) for s in points]
    assert "q_prime" not in vars(sol)
    assert all(len(v) == 1 for v in values)
    assert [v[0] for v in values] == [sol.evaluate(s, nder=1)[0] for s in points]


def test_continuity(hml_solution):
    h = mpf("1e-4")
    for s in ("-4.3217", "0.7221", "5.05"):
        s = mpf(s)
        a = hml_solution.evaluate(s)[0]
        b = hml_solution.evaluate(s + h)[0]
        assert abs(a - b) <= 3 * h  # |q'| < 3 throughout the domain


def test_interpolation_matches_refined_grid(hml_solution):
    fine = pv.solve_hastings_mcleod(spacing=mpf("0.005"))
    s = mpf("1.5")
    assert abs(
        hml_solution.evaluate(s)[0] - fine.evaluate(s)[0]
    ) < mpf("1e-9")


def test_grid_halving_reduces_error_by_declared_order(hml_solution):
    # error against a fine reference must drop by ~2^6 when h halves
    ref = pv.solve_hastings_mcleod(spacing=mpf("0.0025"))
    s = mpf("0.3333")
    target = ref.evaluate(s)[0]
    coarse = pv.solve_hastings_mcleod(spacing=mpf("0.04"))
    half = pv.solve_hastings_mcleod(spacing=mpf("0.02"))
    e_coarse = abs(coarse.evaluate(s)[0] - target)
    e_half = abs(half.evaluate(s)[0] - target)
    assert e_half < e_coarse / 30  # order 6 nominal (2^6 = 64), with slack


def test_hamiltonian_identities(hml_solution):
    sol = hml_solution
    # u' = -q^2 by finite differences at 50 interior points
    h = mpf("1e-6")
    for i in range(50):
        s = mpf(-9) + i * mpf(18) / 49
        du = (pv.hamiltonian_u(sol, s + h) - pv.hamiltonian_u(sol, s - h)) / (2 * h)
        q = sol.evaluate(s)[0]
        assert abs(du + q * q) < mpf("1e-8")


def test_hamiltonian_at_right_edge(hml_solution):
    s = mpf(10)
    u = pv.hamiltonian_u(hml_solution, s)
    approx = mp.airyai(s, derivative=1) ** 2 - s * mp.airyai(s) ** 2
    assert abs(u - approx) < mpf("1e-12")


def test_hamiltonian_strictly_decreasing(hml_solution):
    us = [pv.hamiltonian_u(hml_solution, mpf(s)) for s in range(-10, 11)]
    assert all(a > b for a, b in zip(us, us[1:]))


def test_domain_validation():
    with pytest.raises(DomainTooNarrow):
        pv.solve_hastings_mcleod(s_hi=mpf(5))
    with pytest.raises(DomainTooNarrow):
        pv.solve_hastings_mcleod(s_lo=mpf(-4))
    with pytest.raises(ValueError):
        pv.solve_hastings_mcleod(tol=mpf("1e-16"))


def test_out_of_domain(hml_solution):
    with pytest.raises(OutOfDomain):
        hml_solution.evaluate(mpf(11))


def _recorded_jacobians(monkeypatch, bits):
    """(rows, rhs) of the Jacobian of every banded solve in one solve at
    ``bits``, the shift applied to the diagonal: the first is at the seed."""
    calls = []
    solve = pv.solve_banded

    def record(rows, shift, rhs):
        jacobian = [(a, list(w)) for a, w in rows]
        for i, (a, w) in enumerate(jacobian):
            w[i - a] -= shift[i]
        calls.append((jacobian, list(rhs)))
        return solve(rows, shift, rhs)

    monkeypatch.setattr(pv, "solve_banded", record)
    with mp.workprec(bits):
        pv.solve_hastings_mcleod()
    return calls


def test_solve_banded_matches_lapack(monkeypatch):
    # the elimination without pivoting against LAPACK's pivoted banded solve,
    # on the Jacobian at the seed and at the converged 128-bit grid
    import numpy as np
    from scipy.linalg import solve_banded as lapack_banded

    calls = _recorded_jacobians(monkeypatch, 128)
    for rows, rhs in (calls[0], calls[-1]):
        n = len(rows)
        reach = max(max(i - a, a + len(w) - 1 - i) for i, (a, w) in enumerate(rows))
        ab = np.zeros((2 * reach + 1, n))
        for i, (a, w) in enumerate(rows):
            for j, v in enumerate(w, a):
                ab[reach + i - j, j] = v
        want = lapack_banded((reach, reach), ab, np.array(rhs))
        got = np.array(pv.solve_banded(rows, [0.0] * n, rhs))
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize(
    "rows", [[(0, [0.0, 1.0]), (0, [1.0, 1.0])], [(0, [1.0, 1.0]), (0, [1.0, 1.0])]],
    ids=["first-pivot", "after-elimination"],
)
def test_solve_banded_zero_pivot_raises(rows):
    with pytest.raises(NoConvergence):
        pv.solve_banded(pv._fill_in(rows), [0.0, 0.0], [1.0, 1.0])


def test_fill_in_pads_to_the_eliminated_span():
    # row 2 is eliminated by row 1, whose span reaches column 4, and so
    # reaches it too; row 3 starts at its diagonal and stays as it is
    rows = [(0, [1.0, 2.0]), (0, [3.0, 4.0, 0.5, 0.25, 0.125]), (1, [5.0, 6.0]), (3, [7.0])]
    assert pv._fill_in(rows) == [
        (0, [1.0, 2.0]),
        (0, [3.0, 4.0, 0.5, 0.25, 0.125]),
        (1, [5.0, 6.0, 0.0, 0.0]),
        (3, [7.0]),
    ]


@pytest.mark.parametrize(
    "bits, digest",
    [(128, "6a30c0b656c9ed47"), (256, "179f4ca46d52922c"), (1088, "37da5dfb11e95593")],
)
def test_solve_bits_pinned(bits, digest):
    # the raw q, q' and achieved residual of the default solve, hashed; the
    # digests were taken before the banded solve stopped growing rows and
    # the final conversions moved to libmp, and must not move
    import hashlib

    with mp.workprec(bits):
        sol = pv.solve_hastings_mcleod()
    raw = (tuple(v._mpf_ for v in sol.q), tuple(v._mpf_ for v in sol.q_prime),
           sol.achieved_residual._mpf_)
    assert hashlib.sha256(repr(raw).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "bits, digest",
    [(128, "6a30c0b656c9ed47"), (256, "179f4ca46d52922c"), (1088, "37da5dfb11e95593")],
)
def test_q_prime_read_later_keeps_the_solve_bits(bits, digest):
    # q' is formed on first read, at the precision the solve ran at: read
    # at another precision, the pinned digest still holds
    import hashlib

    with mp.workprec(bits):
        sol = pv.solve_hastings_mcleod()
    with mp.workprec(96):
        q_prime = sol.q_prime
    raw = (tuple(v._mpf_ for v in sol.q), tuple(v._mpf_ for v in q_prime),
           sol.achieved_residual._mpf_)
    assert hashlib.sha256(repr(raw).encode()).hexdigest()[:16] == digest


def test_float_airy_seed():
    # the float64 Ai that seeds Newton, on both sides of its switch at s = 2
    nodes = ["-1", "-0.5", "0", "1", "1.99", "2", "2.01", "3", "5.5", "10"]
    for s in nodes:
        got, want = pv._ai_float(float(s)), mp.airyai(mpf(s))
        assert abs(got - want) <= mpf("1e-2") * want


def test_cli_import_leaves_out_numpy_and_scipy():
    src = str(Path(pv.__file__).resolve().parents[1])
    # nor the machinery of dataclasses (inspect with it) and of fractions
    # (decimal with it), which hbl does without
    absent = ("numpy", "scipy", "dataclasses", "inspect", "fractions", "decimal")
    code = ("import sys, hbl.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {absent!r}))")
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
