"""Extended-precision scalars, dense linear algebra and the Faddeeva function.

All arithmetic runs on mpmath's global context ``mp``.  The working
precision is a process-wide setting, default 256 bits; a caller that needs
a different precision for one computation wraps it in ``mp.workprec`` or
``mp.extraprec``.  Results carry the precision they were computed at;
mpmath never downgrades them silently.

The dense LU (solve_pairs, which every factorization of hbl enters) and
the kernel sums (the Horner loops of kernel.correlation_kernel) run on the
integer mantissas and exponents inside each mpf, rounded as mpf rounds:
bit-identical results without mpf's overhead.  _fms is the one statement
of that rounding.
"""

from __future__ import annotations

from mpmath import mp, mpf, mpc, matrix
from mpmath.libmp import (
    fzero, from_man_exp, mpf_div, mpf_lt, mpf_mul, mpf_rdiv_int, mpf_shift,
    round_nearest,
)

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

def _pair(raw: tuple) -> tuple:
    """(signed mantissa, exponent) of a raw finite mpf tuple, exactly."""
    sign, man, exp, _ = raw
    return (-man if sign else man), exp


def _fms(a: tuple, u: tuple, v: tuple, prec: int) -> tuple:
    """a - u*v on (signed mantissa, exponent) pairs, the product and then the
    difference rounded to nearest-even at ``prec`` bits as mpf rounds them.
    Exponents over 2 prec + 8 apart: the larger term is the rounded result."""
    bm, be = u[0] * v[0], u[1] + v[1]
    k = bm.bit_length() - prec
    if k > 0:
        t = bm >> (k - 1)
        bm = (t >> 1) + 1 if t & 1 and (t & 2 or bm & ((1 << (k - 1)) - 1)) else t >> 1
        be += k
    am, ae = a
    d = ae - be
    if d >= 0:
        if d > 2 * prec + 8:
            return a if am else (-bm, be)
        am, ae = (am << d) - bm, be
    else:
        if d < -2 * prec - 8:
            return (-bm, be) if bm else a
        am -= bm << -d
    k = am.bit_length() - prec
    if k > 0:
        t = am >> (k - 1)
        am = (t >> 1) + 1 if t & 1 and (t & 2 or am & ((1 << (k - 1)) - 1)) else t >> 1
        ae += k
    return am, ae


def _horner(coeffs, x: tuple, prec: int) -> tuple:
    """c_0 x^d + ... + c_d on pairs, the coefficients in descending powers
    and all but c_0 of at most ``prec`` bits: each step c + x*p is
    _fms(c, x, -p), so the value is bit-identical to mp.polyval on the
    same mpf values at ``prec`` bits.  As there, one coefficient comes back
    unrounded and none gives zero."""
    if not coeffs:
        return 0, 0
    p = coeffs[0]
    for c in coeffs[1:]:
        p = _fms(c, x, (-p[0], p[1]), prec)
    return p


def _magnitude(v: tuple, prec: int) -> tuple:
    """A key that orders pairs of at most prec + 2 mantissa bits (a round-up
    in _fms leaves prec + 1) by absolute value, exactly; zero is least."""
    m, e = v
    b = m.bit_length()
    return (e + b, abs(m) << (prec + 2 - b)) if m else ()


def solve_pairs(rows: list, cols: list) -> list:
    """Solve A x = b for each b in ``cols`` by one LU with partial pivoting
    at working precision, on (signed mantissa, exponent) pairs: ``rows``
    are the rows of A and each b a list, all pairs of at most working
    precision bits.  Returns each x as a list of raw mpf values, each
    bit-identical to a solve of its own.

    The elimination runs with mpf's roundings in mpf's order (_fms,
    mpf_rdiv_int, mpf_div): x is bit-identical to the same elimination in
    mpf operations.  The first pivot of largest magnitude (rounded as
    ``abs`` rounds) wins.  Raises SingularMatrix when the best available
    pivot falls below a precision-scaled threshold relative to the largest
    entry of A.  A pair with no mantissa but an exponent, which only an
    infinite or NaN mpf gives, raises ValueError.
    """
    n = len(rows)
    rows = [row + [b[i] for b in cols] for i, row in enumerate(rows)]
    if any(e and not m for row in rows for m, e in row):
        raise ValueError("the solve needs finite entries")

    prec = mp.prec
    scale = max((v for row in rows for v in row[:n]), key=lambda v: _magnitude(v, prec),
                default=(0, 0))
    if not scale[0]:
        raise SingularMatrix("zero matrix")
    # Leave 32 bits of slack; anything smaller than this is numerically zero.
    threshold = mp.make_mpf(mpf_shift(from_man_exp(abs(scale[0]), scale[1]), -(prec - 32)))

    for col in range(n):
        piv = max(range(col, n), key=lambda r: _magnitude(rows[r][col], prec))
        piv_mag = from_man_exp(abs(rows[piv][col][0]), rows[piv][col][1], prec, round_nearest)
        if mpf_lt(piv_mag, threshold._mpf_):
            raise SingularMatrix(
                f"pivot {mp.make_mpf(piv_mag)} below threshold {threshold} in column {col}"
            )
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot_row = rows[col]
        inv_p = mpf_rdiv_int(1, from_man_exp(*pivot_row[col]), prec, round_nearest)
        for row in rows[col + 1:]:
            f = mpf_mul(from_man_exp(*row[col]), inv_p, prec, round_nearest)
            if f == fzero:
                continue
            f = _pair(f)
            # v - f*0 is v: zero pivot-row entries (unit right-hand sides) are skipped
            row[col + 1:] = [_fms(v, f, p, prec) if p[0] else v
                             for v, p in zip(row[col + 1:], pivot_row[col + 1:])]

    xs = []
    for s in range(n, n + len(cols)):
        x = [None] * n
        for r in range(n - 1, -1, -1):
            row, acc = rows[r], rows[r][s]
            for c in range(r + 1, n):
                acc = _fms(acc, row[c], x[c], prec)
            x[r] = _pair(mpf_div(from_man_exp(*acc), from_man_exp(*row[r]), prec, round_nearest))
        xs.append([from_man_exp(*v) for v in x])
    return xs


def max_abs(a: matrix) -> mpf:
    return max(abs(a[i, j]) for i in range(a.rows) for j in range(a.cols))


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
