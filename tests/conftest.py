"""Shared fixtures: reference configurations and reusable heavy solves."""

from __future__ import annotations

import os
import tempfile
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, partial

import pytest
from mpmath import mp, mpf, mpc
import mpmath.libmp
from mpmath.libmp import (
    fzero, mpf_abs, mpf_cmp, mpf_div, mpf_mul, mpf_neg, mpf_pos, mpf_sum, round_nearest,
)

from hbl import mop, numerics as nu, rh
from hbl.errors import NormalizationImpossible, SingularMatrix
from hbl.kernel import YEvaluator, _gauss_cauchy, _second_kind
from hbl.model import BrownianConfig
from hbl.mop import gaussian_moments
from hbl.rh import assemble_rh_expansion


@pytest.fixture(autouse=True)
def default_precision():
    """Every test starts from the library default precision."""
    nu.set_precision(nu.DEFAULT_PRECISION_BITS)
    yield
    nu.set_precision(nu.DEFAULT_PRECISION_BITS)


@pytest.fixture(scope="session")
def large_sep_config():
    """Large separation: a = (1, -1), b = (0.7, -0.7), T = 1."""
    return BrownianConfig("1", "-1", "0.7", "-0.7")


@pytest.fixture(scope="session")
def small_sep_config():
    """Small separation: a = (0.4, -0.4), b = (0.3, -0.3), T = 1."""
    return BrownianConfig("0.4", "-0.4", "0.3", "-0.3")


@pytest.fixture(scope="session")
def critical_config():
    """Critical separation: a = (1, -1), b = (0.5, -0.5), T = 1."""
    return BrownianConfig("1", "-1", "0.5", "-0.5")


@pytest.fixture(scope="session")
def asym_critical():
    """Asymmetric critical configuration: b2 tuned so that
    (a1-a2)(b1-b2) = (sqrt p1 + sqrt p2)^2 exactly at T = 1."""
    p1 = mpf("0.36")
    p2 = 1 - p1
    a1, a2, b1 = mpf("1.3"), mpf("-0.9"), mpf("0.8")
    b2 = b1 - (mp.sqrt(p1) + mp.sqrt(p2)) ** 2 / (a1 - a2)
    return BrownianConfig(a1, a2, b1, b2, p1, p2)


@pytest.fixture(scope="session")
def hml_solution():
    """One Hastings-McLeod solve shared by every consumer test."""
    from hbl.painleve import solve_hastings_mcleod

    with mp.workprec(nu.DEFAULT_PRECISION_BITS):
        return solve_hastings_mcleod()


def hml_residual_oracle(sol, extra_bits=64):
    """max |collocation residual| of a Hastings-McLeod solution's grid
    values as returned (test oracle): the plain mpf sweep of the 6th-order
    q'' stencils (7 points, 8 at the two ends of the grid), evaluated with
    ``extra_bits`` guard bits on the boundary data of the working precision.
    """
    from hbl.painleve import _fd_weights, left_asymptote

    q, grid, npts = sol.q, sol.grid, len(sol.grid)
    out = [abs(q[0] - left_asymptote(sol.s_lo)), abs(q[-1] - mp.airyai(sol.s_hi))]
    with mp.workprec(mp.prec + extra_bits):
        for i in range(1, npts - 1):
            if 3 <= i <= npts - 4:
                offsets = tuple(range(-3, 4))
            elif i < 3:
                offsets = tuple(range(-i, 8 - i))
            else:
                offsets = tuple(range(npts - 8 - i, npts - i))
            den, weights = _fd_weights(offsets, 2)
            acc = mpf(0)
            for o, w in zip(offsets, weights):
                acc += w * q[i + o]
            out.append(abs(acc / den / sol.h**2 - grid[i] * q[i] - 2 * q[i] ** 3))
    return max(out)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpf (test oracle helper)."""
    num, den = mpmath.libmp.to_rational(x._mpf_)
    return Fraction(int(num), int(den))


def gaussian_moment(ws, k, l, j):
    """int x^j w_{1,k}(x) w_{2,l}(x) dx, 0-based k, l, read from the moment
    tables the solves use (test oracle helper)."""
    return mop.moment_tables(ws, mop.MultiIndexPair((j,), (j,)))[k, l][j]


def orthogonality_residual(sol, tables):
    """Max relative residual |sum of terms| / max |term| of the
    vanishing-moment conditions of a MopSolution (0 if none), the terms
    c * M^{kl}_{i+j} of mop.q_moment read from ``tables`` (test oracle).
    The terms, their sum and their max are exact; the ratio is rounded
    once to working precision."""
    worst, by_value = mpf(0), cmp_to_key(mpf_cmp)
    for l, ml in enumerate(sol.idx.m):
        for j in range(ml):
            terms = [
                mpf_mul(c._mpf_, tables[k, l][i + j]._mpf_)
                for k, cs in enumerate(sol.coeffs)
                for i, c in enumerate(cs)
            ]
            scale = max((mpf_abs(t) for t in terms), key=by_value, default=fzero)
            if scale != fzero:
                ratio = mpf_div(mpf_abs(mpf_sum(terms)), scale, mp.prec, round_nearest)
                worst = max(worst, mp.make_mpf(ratio))
    return worst


def moment_system(ws, idx, norm):
    """Unscaled square MOP system at |n| = |m| + 1, built entry by entry
    from gaussian_moment (test oracle helper).

    Unknowns are the coefficients (k, i), i < n_k, in that order.  Rows are
    the orthogonality conditions (l, j), j < m_l, then the normalization:
    leading coefficient of A_k equal to 1 for ("II", k), the moment against
    x^{m_l} w_{2,l} equal to 1 for ("I", l).
    """
    def moment_row(l, j):
        return [
            gaussian_moment(ws, k, l, i + j)
            for k in range(ws.p)
            for i in range(idx.n[k])
        ]

    rows = [moment_row(l, j) for l in range(ws.q) for j in range(idx.m[l])]
    kind, pos = norm
    if kind == "II":
        lead = sum(idx.n[: pos + 1]) - 1
        rows.append([mpf(c == lead) for c in range(idx.size_n)])
    else:
        rows.append(moment_row(pos, idx.m[pos]))
    rhs = [mpf(0)] * (len(rows) - 1) + [mpf(1)]
    return rows, rhs


def base_pair_job(ws, base, tags):
    """The MopSolutions for ``tags`` around the |n| = |m| pair ``base``:
    all right-hand sides of one LU of its G, redone together up the ladder
    of mop.escalate (test oracle helper)."""
    def attempt(bits):
        with mp.workprec(bits):
            return mop._factor_and_solve(mop.moment_tables(ws, base), base, tags)

    return mop.escalate(attempt)[0]


def solve_batch(ws, requests) -> dict:
    """{(idx, norm): MopSolution} for MOP vectors at |n| = |m| + 1, solved
    apart from any expansion (test oracle): the requests grouped by base
    pair, (n - e_k, m) for type (II,k) and (n, m + e_l) for type (I,l),
    one LU per group (see base_pair_job), the groups run concurrently by
    mop._map_cores.  Every base pair is made before any solve."""
    groups = {}
    for idx, norm in requests:
        kind, pos = norm
        base = idx.shift_n(pos, -1) if kind == "II" else idx.shift_m(pos)
        groups.setdefault(base, {})[norm] = None
    solved = mop._map_cores(
        lambda job: base_pair_job(ws, *job), [(base, list(tags)) for base, tags in groups.items()]
    )
    return {(sol.idx, sol.norm): sol for sols in solved for sol in sols}


def transition_number(ws, idx, frm, to):
    """Constant tau with A^{frm} = tau * A^{to} at one index pair,
    verified at 3 points (test oracle)."""
    if frm == to:
        return mpf(1)
    sols = solve_batch(ws, [(idx, frm), (idx, to)])
    sol_f, sol_t = sols[idx, frm], sols[idx, to]
    ref_k, ref_i, ref_mag = 0, 0, mpf(-1)
    for k in range(ws.p):
        for i, c in enumerate(sol_t.coeffs[k]):
            if abs(c) > ref_mag:
                ref_k, ref_i, ref_mag = k, i, abs(c)
    if ref_mag <= 0:
        raise NormalizationImpossible("target normalization is the zero vector")
    tau = sol_f.coeffs[ref_k][ref_i] / sol_t.coeffs[ref_k][ref_i]
    tol = mpf(2) ** (-(mp.prec // 4))
    for x in (mpf(0), mpf(3) / 10, mpf(-7) / 10):
        for k in range(ws.p):
            lhs = sol_f.eval_A(k, x)
            rhs = tau * sol_t.eval_A(k, x)
            scale = max(abs(lhs), abs(rhs), mpf(1) * ref_mag)
            if abs(lhs - rhs) > tol * scale:
                raise NormalizationImpossible(
                    "normalized vectors are not proportional (non-normal pair?)"
                )
    return tau


@dataclass(frozen=True)
class PolyGaussian:
    """P(x) exp(-gamma (x - mu)^2 + c) with real coefficients (test oracle)."""

    coeffs: tuple
    gamma: mpf
    mu: mpf
    log_scale: mpf = mpf(0)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(nu.to_ext(v) for v in self.coeffs))
        object.__setattr__(self, "gamma", nu.to_ext(self.gamma))
        object.__setattr__(self, "mu", nu.to_ext(self.mu))
        object.__setattr__(self, "log_scale", nu.to_ext(self.log_scale))
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def __call__(self, x):
        weight = mp.exp(-self.gamma * (x - self.mu) ** 2 + self.log_scale)
        return mp.polyval(self.coeffs[::-1], x) * weight

    def mass(self) -> mpf:
        """int pg(x) dx from the moments of the Gaussian."""
        moments = gaussian_moments(self.gamma, self.mu, self.log_scale, len(self.coeffs))
        return sum((c * m for c, m in zip(self.coeffs, moments)), mpf(0))


def cauchy_transform(pg, z):
    """(1/(2 pi i)) int pg(x)/(x - z) dx, continuous up to the real axis
    from above; lower half-plane values via C(z) = -conj(C(conj z)).
    Computed by the second-kind identity on the private pieces that
    kernel.YEvaluator sums its Cauchy columns with (test oracle)."""
    z = mpc(z)
    if z.imag < 0:
        return -mp.conj(cauchy_transform(pg, mp.conj(z)))
    sqrt_g = mp.sqrt(pg.gamma)
    cw, _ = _gauss_cauchy(sqrt_g, pg.mu, mp.exp(pg.log_scale) / 2, z)
    moments = gaussian_moments(pg.gamma, pg.mu, pg.log_scale, len(pg.coeffs))
    rest = mp.polyval(_second_kind([(pg.coeffs, moments)]), z)
    return mp.polyval(pg.coeffs[::-1], z) * cw + rest / (2j * mp.pi)


def recurrence_residuals(ws, idx, zs) -> dict:
    """rh.verify_recurrences at idx and zs, on the expansions of
    rh.recurrence_pairs assembled in one batch (test helper)."""
    return rh.verify_recurrences(rh.assemble_rh_expansions(rh.recurrence_pairs(ws, idx)), zs)


def jump_matrix(ws, x):
    """[[I, W(x)], [0, I]] with the rank-one block W = w1 w2^T."""
    p, q = ws.p, ws.q
    out = mp.eye(p + q)
    for k in range(p):
        w1 = ws.w1(k, x)
        for l in range(q):
            out[k, p + l] = w1 * ws.w2(l, x)
    return out


def solve_real(a, b):
    """numerics.solve_pairs on a real mp.matrix and one right-hand side, or
    a list of them, of real values: each entry is rounded to working
    precision on entry, and the solutions come back as lists of mpf."""
    def pairs(values):
        return [nu._pair((+mpf(v))._mpf_) for v in values]

    several = isinstance(b, list) and bool(b) and isinstance(b[0], (list, tuple))
    rows = [pairs(a[i, j] for j in range(a.cols)) for i in range(a.rows)]
    xs = nu.solve_pairs(rows, [pairs(col) for col in (b if several else [b])])
    out = [[mp.make_mpf(v) for v in x] for x in xs]
    return out if several else out[0]


def exact_once(a, terms):
    """a - sum(l*u) over the mpf pairs in ``terms``, summed exactly (libmp
    at prec=0) and rounded once to nearest-even at working precision."""
    prods = [mpf_neg(mpf_mul(l._mpf_, u._mpf_)) for l, u in terms]
    return mp.make_mpf(mpf_pos(mpf_sum([a._mpf_] + prods), mp.prec, round_nearest))


def fdot_once(a, terms):
    """exact_once by mp.fdot, whose sum is exact while no two terms are
    more than 2 prec bits apart."""
    return mp.fdot([(a, 1)] + [(l, -u) for l, u in terms])


def solve_once_mpf(a, b, once=exact_once):
    """The elimination of solve_real in mpf values (test oracle): the same
    pivoted elimination, right-looking, each entry of the working matrix
    kept as its input value and the products l*u subtracted from it, and
    rounded by ``once`` whenever it is read, so that each entry and each
    sum of the back substitution is its whole update rounded once.
    solve_real must match it bit for bit."""
    n = a.rows
    several = isinstance(b, list) and bool(b) and isinstance(b[0], (list, tuple))
    cols = [list(v) for v in b] if several else [[b[i] for i in range(len(b))]]
    rows = [[(a[i, j], []) for j in range(n)] + [(col[i], []) for col in cols]
            for i in range(n)]

    scale = max((abs(a[i, j]) for i in range(n) for j in range(n)), default=mpf(0))
    if scale == 0:
        raise SingularMatrix("zero matrix")
    threshold = scale * mpf(2) ** (-(mp.prec - 32))
    for col in range(n):
        cands = [once(*rows[r][col]) for r in range(col, n)]
        piv, piv_mag = 0, abs(cands[0])
        for i, v in enumerate(cands):
            if abs(v) > piv_mag:
                piv, piv_mag = i, abs(v)
        if piv_mag < threshold:
            raise SingularMatrix(
                f"pivot {piv_mag} below threshold {threshold} in column {col}"
            )
        rows[col], rows[col + piv] = rows[col + piv], rows[col]
        cands[0], cands[piv] = cands[piv], cands[0]
        rows[col] = pivot_row = [cands[0] if c == col else once(*v) if c > col else None
                                 for c, v in enumerate(rows[col])]
        inv_p = 1 / cands[0]
        for r, v in zip(range(col + 1, n), cands[1:]):
            f = v * inv_p
            for c in range(col + 1, len(pivot_row)):
                rows[r][c][1].append((f, pivot_row[c]))

    xs = []
    for s in range(n, n + len(cols)):
        x = [mpf(0)] * n
        for r in range(n - 1, -1, -1):
            acc = once(rows[r][s], [(rows[r][c], x[c]) for c in range(r + 1, n)])
            x[r] = acc / rows[r][r]
        xs.append(x)
    return xs if several else xs[0]


class SolveLog(list):
    """Integer pairs, such as (size, working bits) or (size, pid), that
    forked workers append to as well.

    Each record is a line of an unlinked O_APPEND file that the workers
    inherit; every read of the list first reloads it from that file.
    """

    def __init__(self):
        super().__init__()
        fd, path = tempfile.mkstemp()
        os.close(fd)
        self.fd = os.open(path, os.O_RDWR | os.O_APPEND)
        os.unlink(path)
        weakref.finalize(self, os.close, self.fd)

    def record(self, first: int, second: int) -> None:
        os.write(self.fd, b"%d %d\n" % (first, second))

    def reload(self) -> None:
        data = os.pread(self.fd, os.fstat(self.fd).st_size, 0).split()
        list.__init__(self, zip(map(int, data[::2]), map(int, data[1::2])))


def _reloading(name):
    method = getattr(list, name)

    def reload_first(self, *args):
        self.reload()
        return method(self, *args)

    return reload_first


for _name in ("__eq__", "__getitem__", "__iter__", "__len__", "__repr__", "count"):
    setattr(SolveLog, _name, _reloading(_name))


def count_solves(monkeypatch) -> list:
    """Record (size, working bits) of every LU, a numerics.solve_pairs call,
    in this process and in the workers it forks (see SolveLog)."""
    calls = SolveLog()
    solve = nu.solve_pairs

    def counting(rows, cols):
        calls.record(len(rows), mp.prec)
        return solve(rows, cols)

    monkeypatch.setattr(nu, "solve_pairs", counting)
    return calls


def rh_kernel_oracle(ws, idx, extra_bits=64):
    """K(x, y=None) from the RH matrix (test oracle): the sum over k, l of
    w_{1,k}(x) [Y_+^{-1}(y) Y_+(x)]_{p+l,k} w_{2,l}(y) / (2 pi i (x - y)),
    and for y = x its confluent limit with Y_+^{-1}(x) Y_+'(x).

    Y_+' is exact: YEvaluator.jet differentiates the polynomial columns and
    the integrands of the Cauchy columns, on the Faddeeva values of Y_+.
    The expansion is assembled once, here.  Everything runs with
    ``extra_bits`` guard bits; each value is rounded to the working
    precision of its call and keeps its (rounding-size) imaginary part.
    """
    with mp.workprec(mp.prec + extra_bits):
        ev = YEvaluator(assemble_rh_expansion(ws, idx))
    return partial(_rh_kernel, ev, extra_bits)


def _rh_kernel(ev, extra_bits, x, y=None):
    """One value of rh_kernel_oracle from the evaluator ``ev``."""
    ws = ev.ws
    p, q = ws.p, ws.q
    x = nu.to_ext(x)
    confluent = y is None or y == x
    y = x if y is None else nu.to_ext(y)
    with mp.workprec(mp.prec + extra_bits):
        if confluent:
            Y, dY = ev.jet(x)
            core = mp.inverse(Y) * dY
        else:
            core = mp.inverse(ev.value(y)) * ev.value(x)
        acc = mp.mpc(0)
        for l in range(q):
            for k in range(p):
                acc += ws.w2(l, y) * core[p + l, k] * ws.w1(k, x)
        if not confluent:
            acc /= x - y
        val = acc / (2j * mp.pi)
    return +val


def polyval_kernel_oracle(ws, idx, x, y):
    """The off-diagonal Eynard-Mehta sum of kernel.correlation_kernel with
    mp.polyval on mpf values (test oracle): the blocks of G^{-1} from
    bimoment_inverse at working precision, each row of B^{kl} evaluated at
    y and those values at x, summed at working precision.  Where
    correlation_kernel's check passes at once, it must return this value
    bit for bit."""
    from hbl.mop import bimoment_inverse

    x, y = nu.to_ext(x), nu.to_ext(y)
    acc = mpf(0)
    for (k, l), block in bimoment_inverse(ws, idx).items():
        poly = mp.polyval([mp.polyval(row[::-1], y) for row in block[::-1]], x)
        acc += ws.w1(k, x) * ws.w2(l, y) * poly
    return acc


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-print the acceptance criterion lines after every run."""
    try:
        from test_acceptance import REPORT_LINES
    except ImportError:
        return
    if REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(REPORT_LINES):
            terminalreporter.write_line(line)
