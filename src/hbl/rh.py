"""Riemann-Hilbert expansion data Y1/Y2, recurrence and transfer matrices,
the Lax matrix, and verification of the algebraic identities they satisfy.

Conventions: the expansion Y(z) = (I + Y1/z + Y2/z^2 + ...) diag(z^{n_k},
z^{-m_l}) fixes Y1, Y2.  Entries c_{i,j} of Y1 carry the D = diag(I_p,
-2 pi i I_q) factors, so polynomial-side entries of rows p+1..p+q and
moment-side entries of rows 1..p are purely imaginary while every product
c_{i,j} c_{j,i} appearing in a recurrence is real.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from mpmath import mp, mpf, mpc, matrix

from . import mop
from . import numerics as nu
from .errors import (
    BranchCollision,
    InvalidIndex,
    NoConvergence,
    OnContour,
    ZeroDenominator,
)
from .kernel import YEvaluator
from .mop import (
    MopSolution,
    MultiIndexPair,
    WeightSystem,
    escalate,
    moment_tables,
    q_moment,
    renormalized,
    shifted_solutions,
)


class RhExpansion(NamedTuple):
    """Y1 and Y2 of the large-z expansion, with block views, and the p+q
    shifted MOP rows they were built from (see assemble_rh_expansion)."""

    ws: WeightSystem
    idx: MultiIndexPair
    Y1: matrix
    Y2: matrix
    rows: tuple

    @property
    def p(self) -> int:
        return self.ws.p

    @property
    def q(self) -> int:
        return self.ws.q

    def C11(self):
        return self.Y1[: self.p, : self.p]

    def C12(self):
        return self.Y1[: self.p, self.p :]

    def C21(self):
        return self.Y1[self.p :, : self.p]

    def C22(self):
        return self.Y1[self.p :, self.p :]

    def c(self, i: int, j: int):
        """Entry c_{i,j} with 1-based indices, as in the recurrence relations."""
        return self.Y1[i - 1, j - 1]

    def product(self, i: int, j: int) -> mpf:
        """Real recurrence coefficient c_{i,j} c_{j,i} (1-based)."""
        return (self.Y1[i - 1, j - 1] * self.Y1[j - 1, i - 1]).real


def assemble_rh_expansion(ws: WeightSystem, idx: MultiIndexPair) -> RhExpansion:
    """Y1 and Y2 at idx: one factorization of G(n, m) and the sums from its
    rows make one attempt on the ladder of mop.escalate, both read from the
    one set of moment tables the attempt builds, and each entry is then
    rounded once to working precision; the rows keep their bits.

    An attempt is certified before it is returned: the largest residual of
    the scalar-product relations (and, at p = q = 2 and n = m, of the four
    relation_residuals), which hold exactly at finite n, must be at most
    2^-(prec/8) at working precision prec, or the attempt raises
    NoConvergence and the ladder climbs.  A badly conditioned G whose
    pivots stay above the singularity threshold is caught here.
    """
    size = ws.p + ws.q
    tol = mpf(2) ** -(mp.prec // 8)

    def attempt(bits):
        y1 = matrix(size, size)
        y2 = matrix(size, size)
        with mp.workprec(bits):
            tables = moment_tables(ws, idx)
            rows = shifted_solutions(ws, idx, tables)
            for i, sol in enumerate(rows):
                if sol is None:
                    continue  # degenerate unit row: zero contribution to Y1, Y2
                d = mpf(1) if i < ws.p else -2j * mp.pi
                for j in range(ws.p):
                    y1[i, j] = d * sol.coefficient(j, idx.n[j] - 1)
                    y2[i, j] = d * sol.coefficient(j, idx.n[j] - 2)
                moment_factor = -d / (2j * mp.pi)
                for l in range(ws.q):
                    ml = idx.m[l]
                    y1[i, ws.p + l] = moment_factor * q_moment(sol, tables, l, ml)
                    y2[i, ws.p + l] = moment_factor * q_moment(sol, tables, l, ml + 1)
            exp = RhExpansion(ws=ws, idx=idx, Y1=y1, Y2=y2, rows=tuple(rows))
            residual = scalar_product_report(exp).max_residual
            if ws.p == ws.q == 2 and idx.n == idx.m:
                residual = max(residual, *relation_residuals(exp))
        if not residual <= tol:
            raise NoConvergence(
                f"certificate residual {float(residual):.3g} of the expansion "
                f"at {idx} exceeds 2^-{mp.prec // 8} at {bits} bits"
            )
        return exp

    exp, _ = escalate(attempt)
    return exp._replace(Y1=exp.Y1.apply(lambda v: +v), Y2=exp.Y2.apply(lambda v: +v))


def assemble_rh_expansions(pairs) -> list:
    """[assemble_rh_expansion(ws, idx) for (ws, idx) in pairs], assembled
    concurrently in the order of ``pairs`` (see mop._map_cores)."""
    return mop._map_cores(lambda pair: assemble_rh_expansion(*pair), pairs)


def recurrence_matrix_H(exp: RhExpansion) -> matrix:
    """Strictly upper-triangular table of the products c_{i,j} c_{j,i}."""
    size = exp.p + exp.q
    out = matrix(size, size)
    for i in range(size):
        for j in range(i + 1, size):
            out[i, j] = exp.product(i + 1, j + 1)
    return out


# ---------------------------------------------------------------------------
# Transfer matrices
# ---------------------------------------------------------------------------

def forward_transfer(
    exp_nm: RhExpansion, exp_shifted: RhExpansion, k: int, l: int, z
) -> matrix:
    """U with Y_{n+e_k, m+e_l}(z) = U(z) Y_{n,m}(z); 0-based k, l."""
    p, q = exp_nm.p, exp_nm.q
    size = p + q
    z = mpc(z)
    out = matrix(size, size)
    for j in range(size):
        if j not in (k, p + l):
            out[j, j] = mpf(1)
    out[k, k] += z
    for i in range(size):
        out[i, k] += exp_shifted.Y1[i, k]
    for j in range(size):
        out[k, j] -= exp_nm.Y1[k, j]
    return out


def backward_transfer(
    exp_nm: RhExpansion, exp_shifted: RhExpansion, k: int, l: int, z
) -> matrix:
    """U~ with Y_{n,m}(z) = U~(z) Y_{n+e_k, m+e_l}(z); inverse of U."""
    p, q = exp_nm.p, exp_nm.q
    size = p + q
    z = mpc(z)
    out = matrix(size, size)
    for j in range(size):
        if j not in (k, p + l):
            out[j, j] = mpf(1)
    out[p + l, p + l] += z
    for i in range(size):
        out[i, p + l] += exp_nm.Y1[i, p + l]
    for j in range(size):
        out[p + l, j] -= exp_shifted.Y1[p + l, j]
    return out


# ---------------------------------------------------------------------------
# Diagonal recurrence coefficients
# ---------------------------------------------------------------------------

class DiagonalCoefficient(NamedTuple):
    """c_{k,k} - c~_{k,k} via the Lax compatibility formula and via Y2."""

    via_lax: mpf
    via_y2: mpf

    @property
    def disagreement(self) -> mpf:
        return abs(self.via_lax - self.via_y2)


def diagonal_recurrence(exp: RhExpansion, k: int, l: int) -> DiagonalCoefficient:
    """Diagonal recurrence coefficient from Y1 alone (Gaussian-weights
    formula) and from Y1 plus Y2; both routes must agree to 2^-(prec/4)
    relative.

    0-based k < p, l < q.
    """
    ws, p, q = exp.ws, exp.p, exp.q
    y1, y2 = exp.Y1, exp.Y2
    denom = y1[k, p + l]
    scale = max(nu.max_abs(y1), mpf(1))
    if abs(denom) < scale * mpf(2) ** (-(mp.prec - 16)):
        raise ZeroDenominator(f"c_{{{k + 1},{p + l + 1}}} vanished numerically")
    acc = mpc(0)
    for kk in range(p):
        if kk != k:
            acc += y1[k, kk] * y1[kk, p + l]
    via_lax = (1 - ws.t) * ws.a[k] + ws.t * ws.b[l] - acc / denom
    acc2 = mpc(0)
    for ll in range(q):
        acc2 += y1[k, p + ll] * y1[p + ll, p + l]
    via_y2 = (y2[k, p + l] - acc - acc2) / denom
    result = DiagonalCoefficient(via_lax=via_lax.real, via_y2=via_y2.real)
    if result.disagreement > mpf(2) ** (-(mp.prec // 4)) * max(mpf(1), abs(via_lax)):
        raise NoConvergence(
            f"diagonal coefficient routes disagree by {result.disagreement}"
        )
    return result


# ---------------------------------------------------------------------------
# Five-term (p+q+1 term) recurrences
# ---------------------------------------------------------------------------

def _vector_values(sol: MopSolution, zs) -> list:
    """[[A_k(z) for each k] for z in zs]."""
    return [[sol.eval_A(k, mpc(z)) for k in range(len(sol.coeffs))] for z in zs]


def _forward_requests(ws: WeightSystem, idx: MultiIndexPair, k: int, l: int):
    """MOP requests (index pair, tag) of the forward recurrence: left side,
    main vector, and the off vectors keyed by the Y1 row of their
    coefficient.  All use the type (II,k) normalization."""
    p, q = ws.p, ws.q
    tag = ("II", k)
    n_lhs = tuple(v + 2 * (i == k) for i, v in enumerate(idx.n))
    m_lhs = tuple(v + (i == l) for i, v in enumerate(idx.m))
    lhs = (MultiIndexPair(n_lhs, m_lhs), tag)
    main = (idx.shift_n(k), tag)
    off = [(kk, (idx.shift_n(kk), tag)) for kk in range(p) if kk != k]
    off += [(p + ll, (idx.shift_m(ll, -1), tag)) for ll in range(q)]
    return lhs, main, off


def _backward_requests(ws: WeightSystem, idx: MultiIndexPair, k: int, l: int):
    """As _forward_requests for the backward recurrence, type (I,l)."""
    p, q = ws.p, ws.q
    tag = ("I", l)
    shifted = idx.shift_n(k).shift_m(l)
    lhs = (idx.shift_m(l, -1), tag)
    main = (idx.shift_n(k), tag)
    off = [(kk, (shifted.shift_n(kk), tag)) for kk in range(p)]
    off += [(p + ll, (shifted.shift_m(ll, -1), tag)) for ll in range(q) if ll != l]
    return lhs, main, off


def _recurrence_residual(lhs_at, main_at, shift, terms, zs) -> mpf:
    """Max over zs and components of the relative residual of
    lhs(z) = (z + shift) main(z) - sum coef * vec(z) over (coef, vec) in terms,
    each vector given by its values at zs (see _vector_values)."""
    worst = mpf(0)
    for i, z in enumerate(zs):
        z, lhs = mpc(z), lhs_at[i]
        rows = [[(z + shift) * v for v in main_at[i]]]
        rows += [[-coef * v for v in vec_at[i]] for coef, vec_at in terms]
        for comp in range(len(lhs)):
            rhs = sum(row[comp] for row in rows)
            scale = max([abs(lhs[comp])] + [abs(row[comp]) for row in rows])
            if scale == 0:
                continue
            worst = max(worst, abs(lhs[comp] - rhs) / scale)
    return worst


def recurrence_pairs(ws: WeightSystem, idx: MultiIndexPair) -> list:
    """[(ws, idx)] and (ws, idx + e_k + e_l) for each (k, l), k major: the
    expansions verify_recurrences reads, in its order.  The recurrences
    shift n - e_k and m - e_l, so every component of idx must be at least
    1; otherwise InvalidIndex is raised here, before any factorization."""
    if min(idx.n + idx.m) < 1:
        raise InvalidIndex(f"every n_k and m_l must be at least 1, got {idx}")
    shifts = [(k, l) for k in range(ws.p) for l in range(ws.q)]
    return [(ws, idx)] + [(ws, idx.shift_n(k).shift_m(l)) for k, l in shifts]


def verify_recurrences(exps: Sequence, zs: Sequence) -> dict:
    """{(k, l): (forward, backward)} residuals of every recurrence at idx,
    the index of exps[0], and the points zs: the forward p+q+1 term
    recurrence in the type (II,k) normalization, the backward one in the
    type (I,l) normalization.

    ``exps`` are the expansions at the pairs of recurrence_pairs, in its
    order; any other list raises ValueError.  Their rows hold every vector
    a recurrence reads, each in some normalization, and mop.renormalized
    rescales it to the one asked for, reading the one set of moment tables
    at idx: those reach M_{n_k + m_l + 2}, the deepest entry a rescale
    reads.  A recurrence so relates the LUs at idx and idx + e_k + e_l.
    """
    exp, *exp_shifted = exps
    ws, idx, p = exp.ws, exp.idx, exp.p
    if [(e.ws, e.idx) for e in exps] != recurrence_pairs(ws, idx):
        raise ValueError("verify_recurrences needs the expansions of recurrence_pairs")
    pairs = [(k, l) for k in range(p) for l in range(ws.q)]
    specs = {
        (k, l): (_forward_requests(ws, idx, k, l), _backward_requests(ws, idx, k, l))
        for k, l in pairs
    }
    shifted = dict(zip(pairs, exp_shifted))
    # every row by (index, tag), and by index the first row that holds it
    by_tag, by_idx = {}, {}
    for e in exps:
        for sol in filter(None, e.rows):
            by_tag[sol.idx, sol.norm] = sol
            by_idx.setdefault(sol.idx, sol)
    tables = moment_tables(ws, idx)
    values = {}  # request -> its vector's values at zs, each evaluated once

    def at(req):
        if req not in values:
            vec_idx, tag = req
            sol = by_tag.get(req) or by_idx[vec_idx]
            sol = renormalized(sol, tables, tag)
            values[req] = _vector_values(sol, zs)
        return values[req]

    out = {}
    for k, l in pairs:
        (f_lhs, f_main, f_off), (b_lhs, b_main, b_off) = specs[k, l]
        exp_sh = shifted[k, l]
        forward = _recurrence_residual(
            at(f_lhs),
            at(f_main),
            -diagonal_recurrence(exp, k, l).via_lax,
            [(exp.product(k + 1, j + 1), at(r)) for j, r in f_off],
            zs,
        )
        backward = _recurrence_residual(
            at(b_lhs),
            at(b_main),
            exp.Y1[p + l, p + l] - exp_sh.Y1[p + l, p + l],
            [(exp_sh.Y1[p + l, j] * exp_sh.Y1[j, p + l], at(r)) for j, r in b_off],
            zs,
        )
        out[k, l] = (forward, backward)
    return out


# ---------------------------------------------------------------------------
# Lax matrix and differential equation
# ---------------------------------------------------------------------------

def lax_matrix(exp: RhExpansion, z) -> matrix:
    """V(z) = -(N/(t(1-t))) [[z I - D_a, -C12], [C21, D_b]]."""
    ws, p, q = exp.ws, exp.p, exp.q
    z = mpc(z)
    pref = -ws.N / (ws.t * (1 - ws.t))
    out = matrix(p + q, p + q)
    for i in range(p):
        out[i, i] = pref * (z - (1 - ws.t) * ws.a[i])
    for l in range(q):
        out[p + l, p + l] = pref * ws.t * ws.b[l]
    for i in range(p):
        for l in range(q):
            out[i, p + l] = -pref * exp.Y1[i, p + l]
    for l in range(q):
        for i in range(p):
            out[p + l, i] = pref * exp.Y1[p + l, i]
    return out


def _psi_exponent_factors(ws: WeightSystem, z):
    """f_j(z) and f_j'(z)/f_j(z) for the constant-jump conjugation."""
    p, q = ws.p, ws.q
    t, N = ws.t, ws.N
    fs, logderivs = [], []
    for k in range(p):
        fs.append(mp.exp(-(N / (2 * t * (1 - t))) * (z * z - 2 * (1 - t) * ws.a[k] * z)))
        logderivs.append(-(N / (t * (1 - t))) * (z - (1 - t) * ws.a[k]))
    for l in range(q):
        fs.append(mp.exp(-(N / (1 - t)) * ws.b[l] * z))
        logderivs.append(-(N / (1 - t)) * ws.b[l])
    return fs, logderivs


def verify_lax_ode(ws: WeightSystem, idx: MultiIndexPair, z):
    """Relative residual of Psi' = V Psi at a non-real z.

    Returns (relative_residual, polynomial_column_residual).  Psi' is exact:
    Y' comes from YEvaluator.jet (polynomial derivatives, and the Cauchy
    transforms of the differentiated integrands on the Faddeeva values of
    Y), plus the log-derivative of the exponent factor.
    """
    z = mpc(z)
    if z.imag == 0:
        raise OnContour("the Lax ODE check requires Im z != 0")
    p, q = ws.p, ws.q
    size = p + q
    exp = assemble_rh_expansion(ws, idx)
    Y, dY = YEvaluator(exp).jet(z)
    fs, logderivs = _psi_exponent_factors(ws, z)
    psi = matrix(size, size)
    dpsi = matrix(size, size)
    for i in range(size):
        for j in range(size):
            psi[i, j] = Y[i, j] * fs[j]
            dpsi[i, j] = (dY[i, j] + Y[i, j] * logderivs[j]) * fs[j]
    V = lax_matrix(exp, z)
    rhs = V * psi
    scale = nu.max_abs(rhs)
    res = nu.max_abs(dpsi - rhs) / scale
    res_poly = max(
        abs(dpsi[i, j] - rhs[i, j]) for i in range(size) for j in range(p)
    ) / scale
    return res, res_poly


# ---------------------------------------------------------------------------
# Scalar-product relations
# ---------------------------------------------------------------------------

class ScalarProductReport(NamedTuple):
    """Relative residuals of the Lax-compatibility scalar products."""

    row_sums: tuple      # (C12 C21)_{kk} = t(1-t) n_k / N
    column_sums: tuple   # (C21 C12)_{ll} = t(1-t) m_l / N
    skew_top: tuple      # off-diagonal (C12 C21) vs C11
    skew_bottom: tuple   # off-diagonal (C21 C12) vs C22
    fourth_relation: Optional[mpf]
    determinant_top: Optional[mpf]
    determinant_bottom: Optional[mpf]

    @property
    def max_residual(self) -> mpf:
        vals = list(self.row_sums) + list(self.column_sums)
        vals += list(self.skew_top) + list(self.skew_bottom)
        for v in (self.fourth_relation, self.determinant_top, self.determinant_bottom):
            if v is not None:
                vals.append(v)
        return max(vals) if vals else mpf(0)


def _rel(diff, *participants) -> mpf:
    scale = max((abs(x) for x in participants), default=mpf(0))
    if scale == 0:
        return abs(diff)
    return abs(diff) / scale


def relation_residuals(exp: RhExpansion) -> tuple:
    """Relative residuals of the four relations that the scalar products
    give among the recurrence products at p = q = 2 and n = m, with
    b = t(1-t)/N:

    1. c23c32 = c14c41,
    2. c13c31 = b n1 - c14c41,
    3. c24c42 = b n2 - c14c41,
    4. t^2 (b1-b2)^2 c34c43 = (1-t)^2 (a1-a2)^2 c12c21.

    Each holds exactly at finite n; the fourth is also
    scalar_product_report's fourth_relation.
    """
    ws = exp.ws
    t = ws.t
    base = t * (1 - t) / ws.N
    c14c41, c23c32 = exp.product(1, 4), exp.product(2, 3)
    out = [_rel(c23c32 - c14c41, c23c32, c14c41, base)]
    for k, (i, j) in enumerate(((1, 3), (2, 4))):
        prod, target = exp.product(i, j), base * exp.idx.n[k]
        out.append(_rel(prod - (target - c14c41), prod, target, c14c41))
    lhs = t**2 * (ws.b[0] - ws.b[1]) ** 2 * exp.product(3, 4)
    rhs = (1 - t) ** 2 * (ws.a[0] - ws.a[1]) ** 2 * exp.product(1, 2)
    out.append(_rel(lhs - rhs, lhs, rhs, base**2))
    return tuple(out)


def scalar_product_report(exp: RhExpansion) -> ScalarProductReport:
    ws, p, q = exp.ws, exp.p, exp.q
    idx = exp.idx
    t, N = ws.t, ws.N
    c12, c21 = exp.C12(), exp.C21()
    c11, c22 = exp.C11(), exp.C22()
    top = c12 * c21
    bottom = c21 * c12
    base = t * (1 - t) / N
    row_sums = tuple(
        _rel(top[k, k] - base * idx.n[k], top[k, k], base * idx.n[k])
        for k in range(p)
    )
    column_sums = tuple(
        _rel(bottom[l, l] - base * idx.m[l], bottom[l, l], base * idx.m[l])
        for l in range(q)
    )
    skew_top, skew_bottom = [], []
    for k in range(p):
        for kk in range(p):
            if k == kk:
                continue
            target = -(1 - t) * (ws.a[k] - ws.a[kk]) * c11[k, kk]
            skew_top.append(_rel(top[k, kk] - target, top[k, kk], target))
    for l in range(q):
        for ll in range(q):
            if l == ll:
                continue
            target = -t * (ws.b[l] - ws.b[ll]) * c22[l, ll]
            skew_bottom.append(_rel(bottom[l, ll] - target, bottom[l, ll], target))
    fourth = det_top = det_bottom = None
    if p == 2 and q == 2:
        if idx.n == idx.m:
            fourth = relation_residuals(exp)[3]
        det_t = top[0, 0] * top[1, 1] - top[0, 1] * top[1, 0]
        tgt_t = base**2 * idx.n[0] * idx.n[1] + (1 - t) ** 2 * (
            ws.a[0] - ws.a[1]
        ) ** 2 * exp.product(1, 2)
        det_top = _rel(det_t - tgt_t, det_t, tgt_t, base**2)
        det_b = bottom[0, 0] * bottom[1, 1] - bottom[0, 1] * bottom[1, 0]
        tgt_b = base**2 * idx.m[0] * idx.m[1] + t**2 * (
            ws.b[0] - ws.b[1]
        ) ** 2 * exp.product(3, 4)
        det_bottom = _rel(det_b - tgt_b, det_b, tgt_b, base**2)
    return ScalarProductReport(
        row_sums=row_sums,
        column_sums=column_sums,
        skew_top=tuple(skew_top),
        skew_bottom=tuple(skew_bottom),
        fourth_relation=fourth,
        determinant_top=det_top,
        determinant_bottom=det_bottom,
    )


# ---------------------------------------------------------------------------
# Involution symmetry
# ---------------------------------------------------------------------------

def swapped_system(ws: WeightSystem, idx: MultiIndexPair):
    """Exchange starting and ending data: t <-> 1-t, (a, n) <-> (b, m)."""
    return (
        WeightSystem(a=ws.b, b=ws.a, t=1 - ws.t, N=ws.N),
        MultiIndexPair(idx.m, idx.n),
    )


def involution_matrix(p: int, q: int) -> matrix:
    """J = [[0, I_q], [-I_p, 0]], mapping the original index space onto the
    swapped one (rows: q then p; columns: p then q)."""
    out = matrix(p + q, p + q)
    for l in range(q):
        out[l, p + l] = mpf(1)
    for k in range(p):
        out[q + k, k] = mpf(-1)
    return out


def involution_check(exp: RhExpansion, exp_swapped: RhExpansion) -> mpf:
    """Residual of Y1_swapped = -J Y1^T J^{-1}, J^{-1} = J^T (relative,
    max-entry scale)."""
    J = involution_matrix(exp.p, exp.q)
    target = -(J * exp.Y1.T * J.T)
    scale = max(nu.max_abs(exp_swapped.Y1), mpf(1))
    return nu.max_abs(exp_swapped.Y1 - target) / scale


# ---------------------------------------------------------------------------
# Spectral curve
# ---------------------------------------------------------------------------

class BranchFit(NamedTuple):
    slope: mpf
    constant: mpf
    inverse_z: mpf
    fit_error: mpf


class SpectralCurveReport(NamedTuple):
    #: {(i, j): coefficient of xi^i z^j} of det(xi I + V(z)/n)
    polynomial: dict
    branches: tuple  # BranchFit per sheet, slope sheets first


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, mpc(0)) + c1 * c2
    return out


def _poly_det(entries: list) -> dict:
    n = len(entries)
    if n == 1:
        return entries[0][0]
    out: dict = {}
    for col in range(n):
        sub = [
            [entries[r][c] for c in range(n) if c != col] for r in range(1, n)
        ]
        term = _poly_mul(entries[0][col], _poly_det(sub))
        sign = 1 if col % 2 == 0 else -1
        for key, val in term.items():
            out[key] = out.get(key, mpc(0)) + sign * val
    return {k: v for k, v in out.items() if v != 0}


def characteristic_polynomial(exp: RhExpansion) -> dict:
    """det(xi I + V(z)/n) as {(xi_power, z_power): coefficient}."""
    n = exp.idx.size_n
    size = exp.p + exp.q
    pref = -exp.ws.N / (exp.ws.t * (1 - exp.ws.t)) / n
    entries = []
    v_const = lax_matrix(exp, mpc(0))
    for i in range(size):
        row = []
        for j in range(size):
            e: dict = {}
            const = v_const[i, j] / n
            if const != 0:
                e[(0, 0)] = mpc(const)
            if i == j:
                e[(1, 0)] = e.get((1, 0), mpc(0)) + 1
                if i < exp.p:
                    e[(0, 1)] = e.get((0, 1), mpc(0)) + pref
            row.append(e)
        entries.append(row)
    return _poly_det(entries)


def _eigenvalues_at(exp: RhExpansion, charpoly: dict, z) -> list:
    """Roots in xi of the characteristic polynomial at numeric z.

    mp.polyroots stops on an absolute error of eps, and the slope branches
    reach about 4e7 at the outer probe radius, so it gets mp.prec extra
    bits (with mpmath's default of 10 it does not converge there).  A miss
    raises NoConvergence.
    """
    z = mpc(z)
    coeffs = [mpc(0)] * (exp.p + exp.q + 1)
    for (i, j), c in charpoly.items():
        coeffs[i] += c * z**j
    try:
        roots = mp.polyroots(coeffs[::-1], maxsteps=100, extraprec=mp.prec)
    except mp.NoConvergence as exc:
        raise NoConvergence(f"branch values at z = {z}: {exc}") from None
    check_branch_separation(roots, z)
    return roots


def check_branch_separation(roots, z) -> None:
    """Raise BranchCollision when two branch values are numerically
    indistinguishable (gap below 1e-15 of the branch scale) at a probe."""
    scale = max(abs(r) for r in roots)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < mpf("1e-15") * scale:
                raise BranchCollision(f"branches {i} and {j} coincide at z = {z}")


_PROBE_RADII = (mpf(10) ** 3, mpf(10) ** 4, mpf(10) ** 5, mpf(10) ** 6, mpf(10) ** 7)
_ERROR_RADIUS = 3 * mpf(10) ** 5


def spectral_curve(exp: RhExpansion) -> SpectralCurveReport:
    """Characteristic polynomial plus per-branch large-z expansion fits.

    Branches are sampled at five real radii and fitted against
    c1 z + c0 + c-1/z + c-2/z^2 + c-3/z^3; the reported triple is
    (c1, c0, c-1) and the fit error is the prediction error at an
    off-grid radius.  Slope branches (k = 1..p) are ordered by ascending
    constant term, constant branches (p+l) by descending value.
    """
    p, q = exp.p, exp.q
    charpoly = characteristic_polynomial(exp)
    samples = {}
    for r in _PROBE_RADII + (_ERROR_RADIUS,):
        roots = _eigenvalues_at(exp, charpoly, r)
        ordered = sorted(roots, key=lambda v: -abs(v))
        slope_part = sorted(ordered[:p], key=lambda v: v.real)
        const_part = sorted(ordered[p:], key=lambda v: -v.real)
        samples[r] = slope_part + const_part
    fit = matrix([[r, mpf(1), 1 / r, 1 / r**2, 1 / r**3] for r in _PROBE_RADII])
    fits = [mp.lu_solve(fit, [samples[r][b] for r in _PROBE_RADII]) for b in range(p + q)]
    branches = []
    for b, sol in enumerate(fits):
        pred = sum(
            c * v
            for c, v in zip(
                sol,
                [
                    _ERROR_RADIUS,
                    mpf(1),
                    1 / _ERROR_RADIUS,
                    1 / _ERROR_RADIUS**2,
                    1 / _ERROR_RADIUS**3,
                ],
            )
        )
        err = abs(pred - samples[_ERROR_RADIUS][b])
        branches.append(
            BranchFit(
                slope=sol[0].real,
                constant=sol[1].real,
                inverse_z=sol[2].real,
                fit_error=err,
            )
        )
    return SpectralCurveReport(polynomial=charpoly, branches=tuple(branches))
