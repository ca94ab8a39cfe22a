"""Extended-precision scalar kernels: linear solves, Faddeeva, Airy."""

from fractions import Fraction
import random

import pytest
from conftest import fdot_once, solve_once_mpf, solve_real
from mpmath import mp, mpf, mpc, matrix
from mpmath.libmp import from_man_exp

from hbl import numerics as nu
from hbl.errors import SingularMatrix


# ---------------------------------------------------------------------------
# solve_pairs
# ---------------------------------------------------------------------------

def test_solve_identity():
    A = mp.eye(3)
    x = solve_real(A, [mpf(1), mpf(2), mpf(3)])
    assert x == [mpf(1), mpf(2), mpf(3)]


def test_solve_1x1():
    A = matrix([[mpf(2)]])
    assert solve_real(A, [mpf(4)])[0] == mpf(2)


def test_solve_hilbert_6x6_rational_oracle():
    # Exact oracle: with b = row sums of the Hilbert matrix, the solution
    # is the all-ones vector in exact rational arithmetic.
    n = 6
    H_frac = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    b_frac = [sum(row) for row in H_frac]
    A = matrix(n, n)
    b = []
    for i in range(n):
        for j in range(n):
            A[i, j] = mpf(H_frac[i][j].numerator) / H_frac[i][j].denominator
        b.append(mpf(b_frac[i].numerator) / b_frac[i].denominator)
    x = solve_real(A, b)
    # cond(H_6) ~ 1.5e7 eats ~24 bits of the 256 available
    assert max(abs(v - 1) for v in x) < mpf("1e-60")


def test_solve_residual_contract_random_8x8():
    rng = random.Random(20240817)
    for _ in range(5):
        A = matrix(8, 8)
        for i in range(8):
            for j in range(8):
                A[i, j] = mpf(rng.uniform(-1, 1)) + (4 if i == j else 0)
        xs = [mpf(rng.uniform(-2, 2)) for _ in range(8)]
        b = [sum(A[i, j] * xs[j] for j in range(8)) for i in range(8)]
        got = solve_real(A, b)
        resid = max(
            abs(sum(A[i, j] * got[j] for j in range(8)) - b[i]) for i in range(8)
        )
        bound = (
            mpf(2) ** (-(mp.prec // 2))
            * mp.mnorm(A, "inf")
            * max(abs(v) for v in got)
        )
        assert resid <= bound


def test_solve_singular_raises():
    A = matrix([[mpf(1), mpf(2)], [mpf(2), mpf(4)]])
    with pytest.raises(SingularMatrix):
        solve_real(A, [mpf(1), mpf(2)])


def test_several_right_hand_sides_bit_identical():
    # one elimination for several right-hand sides gives exactly the
    # single-solve answers, pivoting included
    rng = random.Random(7)
    A = matrix(7, 7)
    for i in range(7):
        for j in range(7):
            A[i, j] = mpf(rng.uniform(-1, 1))
    cols = [[mpf(rng.uniform(-2, 2)) for _ in range(7)] for _ in range(4)]
    together = solve_real(A, cols)
    assert together == [solve_real(A, b) for b in cols]


def test_solutions_are_deterministic():
    A = matrix([[mpf(3), mpf(1)], [mpf(1), mpf(2)]])
    b = [mpf(1), mpf(7)]
    first = solve_real(A, b)
    second = solve_real(A, b)
    assert all(u == v for u, v in zip(first, second))


def _raw(values):
    """Raw tuples of a solve's output (or the SingularMatrix message)."""
    if isinstance(values, str):
        return values
    if isinstance(values[0], list):
        return [_raw(v) for v in values]
    return [v._mpf_ for v in values]


def _outcome(solve, a, b):
    try:
        return _raw(solve(a, b))
    except SingularMatrix as exc:
        return str(exc)


def _entry(rng, kind, prec):
    """One matrix or right-hand-side entry of the given kind."""
    if kind == "spread":  # exponents far more than 2 prec apart
        return mpf(rng.uniform(-1, 1)) * mpf(2) ** rng.randint(-3 * prec, 3 * prec)
    if kind == "dyadic":  # small mantissas: exact half-way ties in the sums
        exp = rng.choice((0, 1, -1, prec, -prec, 1 - prec, -1 - prec))
        return rng.choice((-7, -3, -1, 1, 3, 5)) * mpf(2) ** exp
    if kind == "equal":  # equal-magnitude pivot candidates, zeros, singular
        return mpf(rng.choice((-2, -1, 0, 0, 1, 2)))
    if kind == "zeros":
        return mpf(0) if rng.random() < 0.4 else mpf(rng.uniform(-1, 1))
    with mp.workprec(3 * prec):  # "wide": more bits than the working precision
        return rng.choice((-1, 1)) * mpf(rng.getrandbits(3 * prec) | 1) * mpf(2) ** (-3 * prec)


@pytest.mark.parametrize("prec", [128, 256, 512, 1088])
def test_solve_bit_identical_to_exact_once_elimination(prec):
    # the integer-pair elimination against the same elimination on the
    # inputs rounded to working precision, each entry an exact sum rounded
    # once: _mpf_-equal solutions, or the same SingularMatrix message.  The
    # "spread" entries put terms about 6 prec bits apart in one sum.
    rng = random.Random(f"solve/{prec}")
    kinds = ("spread", "dyadic", "equal", "zeros", "wide")
    nu.set_precision(prec)
    sizes = [rng.randint(1, 12) for _ in range(14)] + [40]
    singular = 0
    for size in sizes:
        mix = rng.sample(kinds, 2)
        A = matrix(size, size)
        for i in range(size):
            for j in range(size):
                A[i, j] = _entry(rng, rng.choice(mix), prec)
        cols = [[_entry(rng, rng.choice(mix), prec) for _ in range(size)] for _ in range(3)]
        A_rounded, rounded = A.apply(lambda v: +v), [[+v for v in col] for col in cols]
        want = _outcome(solve_once_mpf, A_rounded, rounded)
        assert _outcome(solve_real, A, cols) == want, (size, mix)
        assert _outcome(solve_real, A, cols[-1]) == _outcome(
            solve_once_mpf, A_rounded, rounded[-1])
        singular += isinstance(want, str)
    assert 0 < singular < len(sizes)


def _bimoment_system(monkeypatch):
    """The real G(16, 16) of the large-separation weights with its four MOP
    right-hand sides, as the pairs numerics.solve_pairs receives."""
    from hbl import mop

    seen = []
    solve = nu.solve_pairs
    monkeypatch.setattr(nu, "solve_pairs", lambda a, b: seen.append((a, b)) or solve(a, b))
    ws = mop.WeightSystem(a=("1", "-1"), b=("0.7", "-0.7"), t="0.4", N=32)
    idx = mop.MultiIndexPair((16, 16), (16, 16))
    tags = [("II", 0), ("II", 1), ("I", 0), ("I", 1)]
    mop._factor_and_solve(mop.moment_tables(ws, idx), idx, tags)
    ((rows, cols),) = seen
    assert len(rows) == 32 and len(cols) == 4
    return rows, cols, solve


def _mpfs(pairs):
    return [mp.make_mpf(from_man_exp(*v)) for v in pairs]


def test_bimoment_solve_bit_identical_to_exact_once_elimination(monkeypatch):
    rows, cols, solve = _bimoment_system(monkeypatch)
    A = matrix([_mpfs(row) for row in rows])
    want = _raw(solve_once_mpf(A, [_mpfs(b) for b in cols]))
    assert [list(x) for x in solve(rows, cols)] == want
    assert _raw(solve_real(A, [_mpfs(b) for b in cols])) == want


def test_bimoment_exact_once_matches_fdot(monkeypatch):
    # mp.fdot (exact products, one rounding of their sum) in place of the
    # prec=0 libmp sum: no two terms of these sums are 2 prec bits apart,
    # where mpf_sum at working precision stops being exact
    rows, cols, _ = _bimoment_system(monkeypatch)
    A, bs = matrix([_mpfs(row) for row in rows]), [_mpfs(b) for b in cols]
    assert _raw(solve_once_mpf(A, bs, once=fdot_once)) == _raw(solve_once_mpf(A, bs))


@pytest.mark.parametrize("entry", [mp.inf, -mp.inf, mp.nan])
@pytest.mark.parametrize("where", ["matrix", "rhs"])
def test_solve_rejects_non_finite_entries(entry, where):
    A = matrix([[1, 2], [3, 4]])
    b = [mpf(1), mpf(2)]
    if where == "matrix":
        A[1, 0] = entry
    else:
        b[1] = entry
    with pytest.raises(ValueError):
        solve_real(A, b)


# ---------------------------------------------------------------------------
# Horner on (mantissa, exponent) pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("prec", [128, 256, 512, 1088])
def test_horner_bit_identical_to_polyval(prec):
    # the pair Horner against mp.polyval on the same mpf values, lengths 0
    # to 25: _mpf_-equal values.  The leading coefficient and x keep their
    # extra bits (polyval returns a lone coefficient unrounded); the other
    # coefficients are at working precision, as kernel forms hold them.
    rng = random.Random(f"horner/{prec}")
    kinds = ("spread", "dyadic", "equal", "zeros", "wide")
    nu.set_precision(prec)
    for length in range(26):
        for _ in range(6):
            mix = rng.sample(kinds, 2)
            coeffs = [_entry(rng, rng.choice(mix), prec) for _ in range(length)]
            coeffs[1:] = [+c for c in coeffs[1:]]
            x = _entry(rng, rng.choice(mix), prec)
            got = nu._horner([nu._pair(c._mpf_) for c in coeffs], nu._pair(x._mpf_), prec)
            assert from_man_exp(*got) == mp.polyval(coeffs, x)._mpf_, (length, mix)


# ---------------------------------------------------------------------------
# Faddeeva
# ---------------------------------------------------------------------------

def _continued_fraction_oracle(z, prec=512):
    """Independent continued-fraction evaluation (modified Lentz) of
    w(z) = (i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(...)))), Im z > 0."""
    with mp.workprec(prec):
        z = mpc(z)
        tiny = mpf(2) ** (-4 * prec)
        f, c, d = mpc(tiny), mpc(tiny), mpc(0)
        m = 0
        while m < 500000:
            a = mpc(1) if m == 0 else mpc(-m) / 2
            d = z + a * d
            if d == 0:
                d = mpc(tiny)
            c = z + a / c
            if c == 0:
                c = mpc(tiny)
            d = 1 / d
            delta = c * d
            f *= delta
            m += 1
            if abs(delta - 1) < mpf(2) ** (-(prec + 10)) and m > 8:
                break
        return +(1j / mp.sqrt(mp.pi) * f)


def test_faddeeva_at_zero():
    assert abs(nu.faddeeva(0) - 1) < mpf("1e-70")


def test_faddeeva_reflection_identity_point():
    z = mpc(1, 1)
    lhs = nu.faddeeva(-z) + nu.faddeeva(z)
    rhs = 2 * mp.exp(-z * z)
    assert abs(lhs - rhs) <= mpf("1e-60") * abs(rhs)


def test_faddeeva_against_cf_oracle_2i():
    # oracle is the 512-bit continued fraction
    got = nu.faddeeva(mpc(0, 2))
    ref = _continued_fraction_oracle(mpc(0, 2))
    assert abs(got - ref) <= mpf("1e-70") * abs(ref)


@pytest.mark.parametrize(
    "z",
    [mpc(3, 4), mpc(0, 7), mpc(6, "0.5"), mpc(2, 9)],
)
def test_faddeeva_vs_cf_oracle_off_axis(z):
    # the oracle at 256 bits agrees with itself at 512 bits to 2.9e-75 at
    # z = 6 + 0.5i, the slowest to converge, in about half the time
    got = nu.faddeeva(z)
    ref = _continued_fraction_oracle(z, prec=256)
    assert abs(got - ref) <= mpf("1e-60") * abs(ref)


def test_faddeeva_smooth_across_radius_9():
    # w is entire: values at |z| = 8.999 and 9.001 on one ray agree smoothly
    for arg_deg in (20, 45, 80):
        theta = mpf(arg_deg) * mp.pi / 180
        inner = nu.faddeeva(mpf("8.999") * mp.expjpi(theta / mp.pi))
        outer = nu.faddeeva(mpf("9.001") * mp.expjpi(theta / mp.pi))
        # values differ by O(|dz| * |w'|)
        assert abs(inner - outer) < mpf("0.01") * abs(inner)
        ref = _continued_fraction_oracle(mpf("9.001") * mp.expjpi(theta / mp.pi))
        assert abs(outer - ref) <= mpf("1e-30") * abs(ref)


@pytest.mark.parametrize(
    "z",
    [mpc(20, "0.001"), mpc(14, "1e-6"), mpc("8.999", "0.3")],
)
def test_faddeeva_near_real_large_modulus(z):
    # e^{-z^2} is tiny and erfc(-iz) huge here; the oracle is the same
    # formula at 600 bits
    got = nu.faddeeva(z)
    with mp.workprec(600):
        ref = mp.exp(-z * z) * mp.erfc(-1j * z)
    assert abs(got - ref) <= mpf(2) ** -250 * abs(ref)


def test_faddeeva_reflection_identity_grid():
    rng = random.Random(7)
    for _ in range(20):
        z = mpc(rng.uniform(-6, 6), rng.uniform(-6, 6))
        lhs = nu.faddeeva(-z) + nu.faddeeva(z)
        rhs = 2 * mp.exp(-z * z)
        assert abs(lhs - rhs) <= mpf("1e-28") * max(abs(rhs), mpf(1))


def test_faddeeva_pure_and_deterministic():
    z = mpc("1.25", "0.75")
    assert nu.faddeeva(z) == nu.faddeeva(z)


# ---------------------------------------------------------------------------
# Airy
# ---------------------------------------------------------------------------

def _airy_series_oracle_at_zero():
    # Maclaurin values: Ai(0) = 3^{-2/3}/Gamma(2/3) exactly
    return mpf(3) ** (mpf(-2) / 3) / mp.gamma(mpf(2) / 3)


def test_airy_at_zero_series_oracle():
    assert abs(mp.airyai(0) - _airy_series_oracle_at_zero()) < mpf("1e-70")


def test_airy_positive_decreasing_on_0_10():
    values = [mp.airyai(mpf(s) / 10) for s in range(0, 101, 5)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_airy_ode_residual_finite_differences():
    # Ai''(s) = s Ai(s); second derivative via 5-point central differences
    s = mpf(2)
    h = mpf("1e-8")
    with mp.extraprec(120):
        stencil = (
            -mp.airyai(s + 2 * h)
            + 16 * mp.airyai(s + h)
            - 30 * mp.airyai(s)
            + 16 * mp.airyai(s - h)
            - mp.airyai(s - 2 * h)
        ) / (12 * h**2)
        resid = abs(stencil - s * mp.airyai(s))
    assert resid < mpf("1e-25")


def test_airy_prime_matches_finite_differences():
    s = mpf("1.7")
    h = mpf("1e-10")
    with mp.extraprec(150):
        fd = (mp.airyai(s + h) - mp.airyai(s - h)) / (2 * h)
    assert abs(fd - mp.airyai(s, derivative=1)) < mpf("1e-19")


def test_airy_large_argument_no_underflow():
    v = mp.airyai(80)
    assert v > 0
    assert mp.log(v) < -450  # e^{-(2/3) 80^{1.5}} territory, still representable
