"""Extended-precision scalars, dense linear algebra and the Faddeeva function.

All arithmetic runs on mpmath's global context ``mp``.  The working
precision is a process-wide setting, default 256 bits; a caller that needs
a different precision for one computation wraps it in ``mp.workprec`` or
``mp.extraprec``.  Results carry the precision they were computed at;
mpmath never downgrades them silently.

The dense LU (solve_pairs, which every factorization of hbl enters) and
the kernel sums (the Horner loops of kernel.correlation_kernel) run on the
integer mantissas and exponents inside each mpf, rounded to nearest-even
as mpf rounds, without mpf's overhead.  The LU rounds each entry once, from
an exact integer dot product of its whole update (_update), and each
multiplier from the integer product of the entry and the pivot's rounded
reciprocal; the kernel sums round each product and sum as mp.polyval does
(_horner), bit for bit.  _round is the one statement of that rounding.
"""

from __future__ import annotations

from operator import mul

from mpmath import mp, mpf, mpc, matrix
from mpmath.libmp import (
    from_man_exp, mpf_div, mpf_lt, mpf_rdiv_int, mpf_shift, round_nearest,
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


def _round(m: int, e: int, prec: int) -> tuple:
    """The pair m * 2^e rounded to nearest-even at ``prec`` bits as mpf
    rounds it (a round-up may leave prec + 1 bits); the one rounding of
    every pair operation here."""
    k = m.bit_length() - prec
    if k > 0:
        t = m >> (k - 1)
        m = (t >> 1) + 1 if t & 1 and (t & 2 or m & ((1 << (k - 1)) - 1)) else t >> 1
        e += k
    return m, e


def _horner(coeffs, x: tuple, prec: int) -> tuple:
    """c_0 x^d + ... + c_d on pairs, the coefficients in descending powers
    and all but c_0 of at most ``prec`` bits.  Each step c + x*p rounds the
    product and then the sum to nearest-even at ``prec`` bits, so the value
    is bit-identical to mp.polyval on the same mpf values at ``prec`` bits.
    As there, one coefficient comes back unrounded and none gives zero.
    Exponents over 2 prec + 8 apart: the larger term is the rounded sum."""
    if not coeffs:
        return 0, 0
    xm, xe = x
    pm, pe = coeffs[0]
    for cm, ce in coeffs[1:]:
        pm, pe = _round(xm * pm, xe + pe, prec)
        d = ce - pe
        if d >= 0:
            if d > 2 * prec + 8:
                if cm:
                    pm, pe = cm, ce
            else:
                pm, pe = _round((cm << d) + pm, pe, prec)
        elif d < -2 * prec - 8:
            if not pm:
                pm, pe = cm, ce
        else:
            pm, pe = _round(cm + (pm << -d), ce, prec)
    return pm, pe


def _magnitude(v: tuple, prec: int) -> tuple:
    """A key that orders pairs of at most prec + 2 mantissa bits (a round-up
    in _round leaves prec + 1) by absolute value, exactly; zero is least."""
    m, e = v
    b = m.bit_length()
    return (e + b, abs(m) << (prec + 2 - b)) if m else ()


class _Fixed(list):
    """The exact values of pairs, appended in order, as integers at one
    shared exponent ``exp``: a pair below it rescales those before."""

    __slots__ = ("exp",)

    def __init__(self, pairs=()):
        super().__init__()
        self.exp = None
        for v in pairs:
            self.push(v)

    def push(self, v: tuple) -> None:
        m, e = v
        if not m:
            self.append(0)
        elif self.exp is None:
            self.exp = e
            self.append(m)
        elif e >= self.exp:
            self.append(m << (e - self.exp))
        else:
            d, self.exp = self.exp - e, e
            self[:] = [w << d for w in self]
            self.append(m)


def _update(a: tuple, us: _Fixed, vs: _Fixed, prec: int) -> tuple:
    """a - sum(u*v) over two equally long _Fixed, summed exactly in one
    integer and rounded once, by _round."""
    am, ae = a
    s = sum(map(mul, us, vs))
    if not s:
        return _round(am, ae, prec)
    e = us.exp + vs.exp
    if ae >= e:
        return _round((am << (ae - e)) - s, e, prec)
    return _round(am - (s << (e - ae)), ae, prec)


def solve_pairs(rows: list, cols: list) -> list:
    """Solve A x = b for each b in ``cols`` by one LU with partial pivoting
    at working precision, on (signed mantissa, exponent) pairs: ``rows``
    are the rows of A and each b a list, all pairs of at most working
    precision bits.  Returns each x as a list of raw mpf values, each
    bit-identical to a solve of its own.

    Crout order: step k forms column k of the working matrix from row k
    down, picks the pivot among those entries, and then forms row k of U,
    the right-hand sides included.  Each entry, and each sum of the back
    substitution, is its whole update a - sum l*u as one exact integer dot
    product rounded once to nearest-even (_update).  The first pivot of
    largest magnitude wins.  Each multiplier is the entry times the
    rounded reciprocal of the pivot (mpf_rdiv_int), the integer product
    rounded by _round as mpf_mul rounds it, and each x_r is its rounded sum
    divided by the pivot (mpf_div).  Raises
    SingularMatrix when the best available pivot falls below a
    precision-scaled threshold relative to the largest entry of A.  A pair
    with no mantissa but an exponent, which only an infinite or NaN mpf
    gives, raises ValueError.
    """
    n = len(rows)
    rows = [row + [b[i] for b in cols] for i, row in enumerate(rows)]
    if any(e and not m for row in rows for m, e in row):
        raise ValueError("the solve needs finite entries")

    prec = mp.prec
    # the largest entry of A: its top bit first, mantissas only among ties
    top = max((e + m.bit_length() for row in rows for m, e in row[:n] if m), default=None)
    if top is None:
        raise SingularMatrix("zero matrix")
    scale = max((v for row in rows for v in row[:n] if v[0] and v[1] + v[0].bit_length() == top),
                key=lambda v: _magnitude(v, prec))
    # Leave 32 bits of slack; anything smaller than this is numerically zero.
    threshold = mp.make_mpf(mpf_shift(from_man_exp(abs(scale[0]), scale[1]), -(prec - 32)))

    width = n + len(cols)
    lower = [_Fixed() for _ in range(n)]  # row r's multipliers, one per step
    upper = [_Fixed() for _ in range(width)]  # column c of U, one entry per step
    urows = []  # the rows of U as pairs, each from its diagonal on
    for col in range(n):
        cands = [_update(rows[r][col], lower[r], upper[col], prec) for r in range(col, n)]
        best = max(range(n - col), key=lambda i: _magnitude(cands[i], prec))
        piv_mag = from_man_exp(abs(cands[best][0]), cands[best][1], prec, round_nearest)
        if mpf_lt(piv_mag, threshold._mpf_):
            raise SingularMatrix(
                f"pivot {mp.make_mpf(piv_mag)} below threshold {threshold} in column {col}"
            )
        piv = col + best
        rows[col], rows[piv] = rows[piv], rows[col]
        lower[col], lower[piv] = lower[piv], lower[col]
        cands[0], cands[best] = cands[best], cands[0]
        im, ie = _pair(mpf_rdiv_int(1, from_man_exp(*cands[0]), prec, round_nearest))
        for low, (cm, ce) in zip(lower[col + 1:], cands[1:]):
            low.push(_round(cm * im, ce + ie, prec))
        urow = [cands[0]]
        upper[col].push(cands[0])
        for c in range(col + 1, width):
            v = _update(rows[col][c], lower[col], upper[c], prec)
            upper[c].push(v)
            urow.append(v)
        urows.append(urow)

    # row r of U right of its diagonal, from column n - 1 down, the order
    # in which back substitution finds x
    tails = [_Fixed(reversed(urow[1:n - r])) for r, urow in enumerate(urows)]
    xs = []
    for s in range(n, width):
        x, done = [None] * n, _Fixed()
        for r in range(n - 1, -1, -1):
            acc = _update(urows[r][s - r], tails[r], done, prec)
            x[r] = mpf_div(from_man_exp(*acc), from_man_exp(*urows[r][0]), prec, round_nearest)
            done.push(_pair(x[r]))
        xs.append(x)
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
