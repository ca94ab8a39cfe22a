"""Extended-precision scalars, dense linear algebra and the Faddeeva function.

All arithmetic runs on mpmath's global context ``mp``.  The working
precision is a process-wide setting, default 256 bits; a caller that needs
a different precision for one computation wraps it in ``mp.workprec`` or
``mp.extraprec``.  Results carry the precision they were computed at;
mpmath never downgrades them silently.
"""

from __future__ import annotations

from mpmath import mp, mpf, mpc, matrix

from .errors import SingularMatrix

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 128

mp.prec = DEFAULT_PRECISION_BITS


def set_precision(bits: int) -> None:
    """Set the process-wide working precision (mantissa bits, >= 128)."""
    if bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"working precision must be at least {MIN_PRECISION_BITS} bits"
        )
    mp.prec = bits


def to_ext(x) -> mpf:
    """Parse a value to mpf at full working precision.

    Strings are the lossless path for decimal inputs ("0.7" becomes the
    nearest mpf at working precision, not the nearest double).
    """
    if isinstance(x, (mpf, int)):
        return mpf(x)
    if isinstance(x, str):
        return mpf(x)
    if isinstance(x, float):
        # repr(float) round-trips the shortest decimal, which is what a
        # config author typed in the common case.
        return mpf(repr(x))
    try:  # Fraction and friends
        return mpf(x.numerator) / mpf(x.denominator)
    except AttributeError:
        return mpf(x)


# ---------------------------------------------------------------------------
# Dense linear algebra
# ---------------------------------------------------------------------------

def _as_rows(a: matrix) -> list[list]:
    return [[a[i, j] for j in range(a.cols)] for i in range(a.rows)]


def solve_linear(a: matrix, b) -> list:
    """Solve A x = b by LU with partial pivoting at working precision.

    ``b`` is one right-hand side, or a list of right-hand sides that share
    the one elimination; the result is x, or the list of solutions in the
    same order.  Each solution is bit-identical to a solve of its own.
    Raises SingularMatrix when the best available pivot falls below a
    precision-scaled threshold relative to the largest initial entry.
    """
    n = a.rows
    if a.cols != n:
        raise ValueError("matrix must be square")
    rows = _as_rows(a)
    several = isinstance(b, list) and bool(b) and isinstance(b[0], (list, tuple))
    cols = [list(v) for v in b] if several else [[b[i] for i in range(len(b))]]
    if any(len(v) != n for v in cols):
        raise ValueError("right-hand side length mismatch")
    rhs = [list(v) for v in zip(*cols)]  # rhs[i][s]: row i of right-hand side s

    scale = max((abs(rows[i][j]) for i in range(n) for j in range(n)), default=mpf(0))
    if scale == 0:
        raise SingularMatrix("zero matrix")
    # Leave 32 bits of slack; anything smaller than this is numerically zero.
    threshold = scale * mpf(2) ** (-(mp.prec - 32))

    for col in range(n):
        piv, piv_mag = col, abs(rows[col][col])
        for r in range(col + 1, n):
            m = abs(rows[r][col])
            if m > piv_mag:
                piv, piv_mag = r, m
        if piv_mag < threshold:
            raise SingularMatrix(
                f"pivot {piv_mag} below threshold {threshold} in column {col}"
            )
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        pivot_row, pivot_rhs = rows[col], rhs[col]
        inv_p = 1 / pivot_row[col]
        for r in range(col + 1, n):
            row = rows[r]
            f = row[col] * inv_p
            if f == 0:
                continue
            row[col] = mpf(0)
            for c in range(col + 1, n):
                row[c] -= f * pivot_row[c]
            row_rhs = rhs[r]
            for s, v in enumerate(pivot_rhs):
                row_rhs[s] -= f * v

    xs = []
    for s in range(len(cols)):
        x = [mpf(0)] * n
        for r in range(n - 1, -1, -1):
            acc = rhs[r][s]
            for c in range(r + 1, n):
                acc -= rows[r][c] * x[c]
            x[r] = acc / rows[r][r]
        xs.append(x)
    return xs if several else xs[0]


def lu_det(a: matrix):
    """Determinant via the same pivoted elimination as solve_linear."""
    n = a.rows
    rows = _as_rows(a)
    det = mpf(1)
    for col in range(n):
        piv, piv_mag = col, abs(rows[col][col])
        for r in range(col + 1, n):
            m = abs(rows[r][col])
            if m > piv_mag:
                piv, piv_mag = r, m
        if piv_mag == 0:
            return mpf(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv_p = 1 / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv_p
            for c in range(col + 1, n):
                rows[r][c] -= f * rows[col][c]
    return det


def max_abs(a: matrix) -> mpf:
    return max(abs(a[i, j]) for i in range(a.rows) for j in range(a.cols))


def inf_norm(a: matrix) -> mpf:
    """Matrix infinity norm (max absolute row sum)."""
    return max(
        sum(abs(a[i, j]) for j in range(a.cols)) for i in range(a.rows)
    )


def identity(n: int) -> matrix:
    out = matrix(n, n)
    for i in range(n):
        out[i, i] = mpf(1)
    return out


# ---------------------------------------------------------------------------
# Faddeeva function w(z) = exp(-z^2) erfc(-iz)
# ---------------------------------------------------------------------------

def faddeeva(z) -> mpc:
    """w(z) = e^{-z^2} erfc(-iz), entire, relative error ~ working epsilon.

    Forming e^{-z^2} loses about 2 log2|z| bits, so the product is taken
    with that many guard bits and then rounded to working precision.
    """
    z = mpc(z)
    with mp.extraprec(2 * max(mp.mag(z), 0) + 10):
        w = mp.exp(-z * z) * mp.erfc(-1j * z)
    return +w
