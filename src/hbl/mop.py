"""Multiple Hermite polynomials: moment systems, solves and normalizations.

The two weight families are Gaussians

    w_{1,k}(x) = exp(-(N/2t)      (x^2 - 2 a_k x)),   k = 1..p,
    w_{2,l}(x) = exp(-(N/2(1-t))  (x^2 - 2 b_l x)),   l = 1..q,

whose products are again Gaussians with common width gamma = N/(2t(1-t))
and centers mu_kl = (1-t) a_k + t b_l.  All moments come from the closed
two-term recursion; quadrature only ever appears as a test oracle.
"""

from __future__ import annotations

import gc
import math
import os
import threading
from collections import namedtuple
from typing import NamedTuple

from mpmath import mp, mpc, mpf, matrix

from . import numerics as nu
from .errors import (
    InvalidIndex, NoConvergence, NormalizationImpossible, SingularMatrix, WorkerFailed
)

MAX_ESCALATED_PRECISION = 1024


class WeightSystem(namedtuple("WeightSystem", "a b t N")):
    """Gaussian weight data for p starting and q ending positions."""

    def __new__(cls, a, b, t, N):
        self = super().__new__(cls, tuple(nu.to_ext(v) for v in a),
                               tuple(nu.to_ext(v) for v in b), nu.to_ext(t), nu.to_ext(N))
        if not 0 < self.t < 1:
            raise ValueError("time t must lie in (0, 1)")
        if self.N <= 0:
            raise ValueError("scale N must be positive")
        # a cache key of the kernel forms: hashed once
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # the fields as they are: __new__ would round them again at the
        # loading side's precision
        return tuple.__new__, (type(self), tuple(self)), self.__dict__

    @classmethod
    def _make(cls, iterable):
        # _replace builds through here, so it converts and validates too
        return cls(*iterable)

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def q(self) -> int:
        return len(self.b)

    @property
    def gamma(self) -> mpf:
        return self.N / (2 * self.t * (1 - self.t))

    def mu(self, k: int, l: int) -> mpf:
        """Center of the product weight w_{1,k} w_{2,l} (0-based indices)."""
        return (1 - self.t) * self.a[k] + self.t * self.b[l]

    def log_scale(self, k: int, l: int) -> mpf:
        """Exponent c_kl in w_{1,k} w_{2,l} = exp(-gamma (x-mu)^2 + c_kl)."""
        return self.gamma * self.mu(k, l) ** 2

    def w1(self, k: int, x):
        return mp.exp(-(self.N / (2 * self.t)) * (x * x - 2 * self.a[k] * x))

    def w2(self, l: int, x):
        return mp.exp(-(self.N / (2 * (1 - self.t))) * (x * x - 2 * self.b[l] * x))

    @classmethod
    def from_config(cls, cfg, t, n: int) -> "WeightSystem":
        """Weight system at time t with N = n / T_n from the config's rule."""
        return cls(a=(cfg.a1, cfg.a2), b=(cfg.b1, cfg.b2), t=t, N=cfg.scale_N(n))


def gaussian_moments(gamma, mu, log_scale, jmax: int) -> list:
    """M_j = int x^j exp(-gamma (x - mu)^2 + log_scale) dx for j = 0..jmax:
    M_0 = sqrt(pi/gamma) e^{log_scale}, M_j = mu M_{j-1} + (j-1)/(2 gamma) M_{j-2}.
    The e^{log_scale} factor rides on the mpf exponent, which is unbounded,
    so no separate log-scale bookkeeping is needed."""
    m0 = mp.sqrt(mp.pi / gamma) * mp.exp(log_scale)
    moments = [m0, mu * m0]
    inv2g = 1 / (2 * gamma)
    for j in range(2, jmax + 1):
        moments.append(mu * moments[j - 1] + (j - 1) * inv2g * moments[j - 2])
    return moments[: jmax + 1]


# ---------------------------------------------------------------------------
# Multi-indices
# ---------------------------------------------------------------------------

class MultiIndexPair(namedtuple("MultiIndexPair", "n m")):
    """Index pair (n, m); |n| = |m| for RH matrices, |n| = |m| + 1 for MOP."""

    __slots__ = ()

    def __new__(cls, n, m):
        self = super().__new__(cls, tuple(int(v) for v in n), tuple(int(v) for v in m))
        if any(v < 0 for v in self.n + self.m):
            raise InvalidIndex(f"negative multi-index component in {self}")
        if self.size_n not in (self.size_m, self.size_m + 1):
            raise InvalidIndex(
                f"|n|={self.size_n} must equal |m|={self.size_m} or |m|+1"
            )
        return self

    def __reduce__(self):
        return tuple.__new__, (type(self), tuple(self))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through here, so it converts and validates too
        return cls(*iterable)

    @property
    def size_n(self) -> int:
        return sum(self.n)

    @property
    def size_m(self) -> int:
        return sum(self.m)

    def shift_n(self, k: int, by: int = 1) -> "MultiIndexPair":
        n = list(self.n)
        n[k] += by
        return MultiIndexPair(tuple(n), self.m)

    def shift_m(self, l: int, by: int = 1) -> "MultiIndexPair":
        m = list(self.m)
        m[l] += by
        return MultiIndexPair(self.n, tuple(m))


NormTag = tuple  # ("II", k) or ("I", l) with 0-based position index


class MopSolution(NamedTuple):
    """Coefficient arrays of A_1..A_p (ascending powers) plus its tag; the
    coefficients keep the bits their solve settled at (see escalate)."""

    idx: MultiIndexPair
    norm: NormTag
    coeffs: tuple  # tuple over k of tuple of mpf, length n_k

    def eval_A(self, k: int, x):
        return mp.polyval(self.coeffs[k][::-1], x)

    def eval_A_prime(self, k: int, x):
        cs = self.coeffs[k]
        return mp.polyval([j * cs[j] for j in range(len(cs) - 1, 0, -1)], x)

    def coefficient(self, k: int, power: int):
        """Coefficient of x^power in A_k; zero outside the stored range."""
        cs = self.coeffs[k]
        if 0 <= power < len(cs):
            return cs[power]
        return mpf(0)


def _flat_offsets(idx: MultiIndexPair) -> list:
    offsets, acc = [], 0
    for nk in idx.n:
        offsets.append(acc)
        acc += nk
    return offsets


def moment_tables(ws: WeightSystem, idx: MultiIndexPair) -> dict:
    """{(k, l): M^{kl}_0..M^{kl}_jmax} of the product weights w_{1,k} w_{2,l}
    at working precision (see gaussian_moments), jmax covering every entry
    that a solve at this pair, and the Y1/Y2 built from it, read."""
    jmax = max(idx.n) + max(idx.m, default=0) + 2
    return {
        (k, l): gaussian_moments(ws.gamma, ws.mu(k, l), ws.log_scale(k, l), jmax)
        for k in range(ws.p)
        for l in range(ws.q)
    }


def _check_shape(ws: WeightSystem, idx: MultiIndexPair) -> None:
    """idx must have one component per starting and per ending position."""
    if (len(idx.n), len(idx.m)) != (ws.p, ws.q):
        raise InvalidIndex(f"{idx} does not have {ws.p} + {ws.q} components")


def escalate(attempt) -> tuple:
    """(attempt(bits), bits) at the first bits = mp.prec, 2 mp.prec, ...
    where the attempt neither raises SingularMatrix nor NoConvergence: the
    one precision ladder of hbl.  The attempt enters mp.workprec(bits)
    itself where it needs to.

    Gaussian weights make every index pair normal, so a miss signals
    precision exhaustion, and the ladder climbs up to
    MAX_ESCALATED_PRECISION, read at call time.  A start above it is still
    tried once.  The error at the ceiling names the last bits tried and
    the --precision that would try the next doubling.
    """
    bits = mp.prec
    ceiling = max(MAX_ESCALATED_PRECISION, bits)
    while True:
        try:
            return attempt(bits), bits
        except (SingularMatrix, NoConvergence) as exc:
            miss = exc
        if 2 * bits > ceiling:
            raise NormalizationImpossible(
                f"{miss}; gave up at {bits} bits, the last step under the "
                f"escalation ceiling of {ceiling}: retry with --precision {2 * bits}"
            )
        bits *= 2


def _factor_and_solve(tables: dict, idx: MultiIndexPair, tags: list) -> list:
    """The solutions for ``tags`` from one LU of G(n, m) at working
    precision, its entries read from ``tables`` (moment_tables at idx).

    G has rows (l, j), j < m_l, and columns (k, i), i < n_k, with entries
    M^{kl}_{i+j}.  Tag ("II", k) gives the type (II,k) solution at
    (n + e_k, m): its leading coefficient is 1 and G x = -[M^{kl}_{n_k+j}].
    Tag ("I", l) gives the type (I,l) solution at (n, m - e_l):
    G x = e_(l, m_l - 1), the normalization row.  Tag ("G^-1", (l, j))
    gives column (l, j) of G^{-1}, G x = e_(l, j), as coefficient tuples
    over k.

    G and its right-hand sides go to numerics.solve_pairs as the
    (mantissa, exponent) pairs of the moment tables, each row and its
    right-hand side entries scaled by the power of two 2^-s that puts the
    row's largest entry in [1/2, 1): the scaling is exact, and the unit
    right-hand side of a row is (1, -s).
    """
    p, q = len(idx.n), len(idx.m)
    offsets = _flat_offsets(idx)
    tables = {kl: [nu._pair(v._mpf_) for v in col] for kl, col in tables.items()}
    # the exponent just above each moment's top bit; zero is below them all
    tops = {kl: [e + m.bit_length() if m else -math.inf for m, e in col]
            for kl, col in tables.items()}
    ks = [k for k in range(p) if idx.n[k]]
    rows, shifts, row_keys = [], [], []
    for l in range(q):
        for j in range(idx.m[l]):
            s = max((max(tops[k, l][j : j + idx.n[k]]) for k in ks), default=-math.inf)
            if s == -math.inf:
                raise NormalizationImpossible("empty orthogonality row")
            rows.append([(m, e - s if m else 0) for k in ks
                         for m, e in tables[k, l][j : j + idx.n[k]]])
            shifts.append(s)
            row_keys.append((l, j))
    rhs = []
    for kind, pos in tags:
        if kind == "II":
            col = [tables[pos, l][idx.n[pos] + j] for l, j in row_keys]
            rhs.append([(-m, e - s if m else 0) for (m, e), s in zip(col, shifts)])
        else:
            r = row_keys.index((pos, idx.m[pos] - 1) if kind == "I" else pos)
            col = [(0, 0)] * len(rows)
            col[r] = (1, -shifts[r])
            rhs.append(col)
    xs = nu.solve_pairs(rows, rhs) if rows else [[] for _ in tags]
    sols = []
    for (kind, pos), raws in zip(tags, xs):
        x = [mp.make_mpf(v) for v in raws]
        coeffs = [
            tuple(x[offsets[k] + i] for i in range(idx.n[k])) for k in range(p)
        ]
        if kind == "G^-1":
            sols.append(tuple(coeffs))
            continue
        if kind == "II":
            coeffs[pos] += (mpf(1),)
            sol_idx = idx.shift_n(pos)
        else:
            sol_idx = idx.shift_m(pos, -1)
        sols.append(MopSolution(sol_idx, (kind, pos), tuple(coeffs)))
    return sols


def _matrix(rows: list) -> matrix:
    """An mpmath matrix from its rows: mp.matrix is a class made per
    context, so a pickle names this function to rebuild one."""
    return matrix(rows)


def _mpf(raw: tuple) -> mpf:
    """An mpf from its raw _mpf_ tuple, as a pickle rebuilds one (see
    _send_outcome)."""
    return mp.make_mpf(raw)


def _mpc(raw: tuple) -> mpc:
    """An mpc from its raw _mpc_ pair of tuples, as _mpf."""
    return mp.make_mpc(raw)


def _run_queue(fn, jobs: list, take) -> tuple:
    """(the indices ``take`` gave until it gave None, {index: result} of
    the jobs run, (index, exception) of the earliest failed job or None).
    After a job fails only jobs of smaller index run, so the error kept is
    the first one an in-order loop over the taken jobs meets."""
    taken, done, failed = [], {}, None
    for i in iter(take, None):
        taken.append(i)
        if failed and failed[0] < i:
            continue
        try:
            done[i] = fn(jobs[i])
        except Exception as exc:
            failed = i, exc
    return taken, done, failed


def _send_outcome(sink, outcome: tuple) -> None:
    """Pickle a forked child's outcome (see _run_queue) into ``sink``.

    An exception that would not load again in the parent (one whose
    __init__ does not take its args, say) is sent as WorkerFailed with its
    type and message.  A result that cannot be pickled propagates, and the
    child then exits non-zero.  Matrices, mpf and mpc values go as their
    entries and raw tuples, which _matrix, _mpf and _mpc rebuild bit for
    bit, without mpf's own pickling through hex strings.
    """
    import pickle

    taken, done, failed = outcome
    if failed:
        i, exc = failed
        try:
            pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        except Exception:
            exc = WorkerFailed(f"job {i} raised {type(exc).__name__}: {exc}")
            outcome = taken, done, (i, exc)
    pickler = pickle.Pickler(sink, pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = {
        matrix: lambda a: (_matrix, (a.tolist(),)),
        mpf: lambda v: (_mpf, (v._mpf_,)),
        mpc: lambda v: (_mpc, (v._mpc_,)),
    }
    pickler.dump(outcome)
    sink.flush()


def _map_cores(fn, jobs) -> list:
    """[fn(job) for job in jobs], the jobs spread over the CPUs this
    process may run on.

    A forked child per CPU, up to one per job, runs the jobs; this process
    only feeds them and gathers their results, so what it runs does not
    depend on timing.  The job indices wait in a pipe in list order, so a
    caller lists its longest jobs first, and a child reads the next one
    whenever it is free.  Each child sends its results
    back as one pickle through a pipe of its own.  A child that failed at
    job i runs only the jobs below i that it still reads; once every child
    is reaped, the exception of the earliest failed job is raised, so
    results and errors are those of the in-order loop whichever child ran
    what.  A child that exits non-zero (it could not send its results, or
    was killed) raises WorkerFailed naming the jobs that sent no result
    and its exit status.  One CPU, one job, no os.fork or other live
    threads: the in-order loop here, with no child and no pipe.
    """
    jobs = list(jobs)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    if not hasattr(os, "fork") or threading.active_count() > 1:
        cpus = 1
    workers = min(cpus, len(jobs))
    if workers < 2:
        return [fn(job) for job in jobs]
    import pickle  # only when forking: `import hbl.cli` does not load it
    import select

    queue = b"".join(i.to_bytes(4, "little") for i in range(len(jobs)))
    read, write = os.pipe()

    def next_index():
        data = os.read(read, 4)
        return int.from_bytes(data, "little") if data else None

    children = []  # [pid, read end of its pipe]; pid is None until forked
    statuses = []
    # the children inherit this heap: frozen, their collections skip it
    # (and write none of its pages)
    gc.freeze()
    try:
        for _ in range(workers):
            result_read, result_write = os.pipe()
            children.append([None, open(result_read, "rb")])
            with open(result_write, "wb") as sink:
                children[-1][0] = os.fork()
                if children[-1][0] == 0:
                    status = 1
                    try:
                        os.close(write)
                        for _, source in children:
                            source.close()
                        _send_outcome(sink, _run_queue(fn, jobs, next_index))
                        status = 0
                    finally:
                        os._exit(status)
        os.close(read)
        read = None
        try:
            # a write of at most PIPE_BUF bytes is whole: no child reads
            # part of an index
            for start in range(0, len(queue), select.PIPE_BUF):
                os.write(write, queue[start : start + select.PIPE_BUF])
        except BrokenPipeError:
            pass  # every child is gone; their statuses tell why
        os.close(write)
        write = None
        results = []
        for _, source in children:
            try:
                results.append(pickle.load(source))
            except (EOFError, pickle.UnpicklingError):
                pass  # a child that sent no whole pickle exits non-zero
    finally:
        # the queue ends for the children, and one blocked on a full pipe of
        # its own sees it closed and exits
        for fd in (read, write):
            if fd is not None:
                os.close(fd)
        for pid, source in children:
            source.close()
            if pid:
                statuses.append(os.waitpid(pid, 0)[1])
        gc.unfreeze()
    status = next((status for status in statuses if status), 0)
    if status:
        reported = {i for taken, _, _ in results for i in taken}
        raise WorkerFailed(
            f"jobs {[i for i in range(len(jobs)) if i not in reported]} sent no "
            f"result: a worker exited with status {os.waitstatus_to_exitcode(status)}"
        )
    failed = [err for _, _, err in results if err]
    if failed:
        raise min(failed, key=lambda err: err[0])[1]
    out = [None] * len(jobs)
    for _, done, _ in results:
        for i, value in done.items():
            out[i] = value
    return out


def q_moment(sol: MopSolution, tables: dict, l: int, j: int) -> mpf:
    """int Q(x) x^j w_{2,l}(x) dx from ``tables`` (see moment_tables)."""
    terms = (
        c * tables[k, l][i + j] for k, cs in enumerate(sol.coeffs) for i, c in enumerate(cs)
    )
    return sum(terms, mpf(0))


def renormalized(sol: MopSolution, tables: dict, norm: NormTag) -> MopSolution:
    """The MOP vector of sol, a vector at |n| = |m| + 1, in the
    normalization ``norm``: every normalization at one index pair solves
    the same orthogonality conditions, so each is a multiple of sol.  Type
    (II,k) divides sol by its coefficient of x^(n_k - 1) in A_k, type (I,l)
    by q_moment(sol, tables, l, m_l).  sol itself when it has ``norm``
    already; a zero scale raises NormalizationImpossible."""
    if norm == sol.norm:
        return sol
    kind, pos = norm
    if kind == "II":
        scale = sol.coefficient(pos, sol.idx.n[pos] - 1)
    else:
        scale = q_moment(sol, tables, pos, sol.idx.m[pos])
    if not scale:
        raise NormalizationImpossible(
            f"the type ({kind},{pos + 1}) normalization of the MOP vector at "
            f"{sol.idx} divides by zero"
        )
    coeffs = tuple(tuple(c / scale for c in cs) for cs in sol.coeffs)
    return sol._replace(norm=norm, coeffs=coeffs)


def shifted_solutions(ws: WeightSystem, idx: MultiIndexPair, tables: dict) -> list:
    """The p + q solution rows of the RH matrix at |n| = |m|, from one
    factorization of G(n, m) at working precision, its entries read from
    ``tables``, moment_tables(ws, idx) (see _factor_and_solve).

    Row k (k < p):  type (II,k) at (n + e_k, m).
    Row p + l:      type (I,l)  at (n, m - e_l), or None when m_l = 0
                    (that row of Y degenerates to the unit row e_{p+l}).
    SingularMatrix propagates; the caller escalates (see
    rh.assemble_rh_expansion).
    """
    _check_shape(ws, idx)
    if idx.size_n != idx.size_m:
        raise InvalidIndex("RH rows need |n| = |m|")
    tags = [("II", k) for k in range(ws.p)]
    tags += [("I", l) for l in range(ws.q) if idx.m[l] > 0]
    by_tag = dict(zip(tags, _factor_and_solve(tables, idx, tags)))
    rows = [by_tag.get(("II", k)) for k in range(ws.p)]
    return rows + [by_tag.get(("I", l)) for l in range(ws.q)]


def bimoment_inverse(ws: WeightSystem, idx: MultiIndexPair) -> dict:
    """The blocks of G(n, m)^{-1} at |n| = |m|, by (k, l), from one
    factorization at working precision.

    B[(k, l)][i][j] = (G^{-1})[(k, i), (l, j)] for i < n_k, j < m_l: the
    columns are unit right-hand sides of the LU of _factor_and_solve.
    SingularMatrix propagates; the caller escalates (see
    kernel.correlation_kernel).
    """
    _check_shape(ws, idx)
    if idx.size_n != idx.size_m:
        raise InvalidIndex("G(n, m) is square only at |n| = |m|")
    keys = [(l, j) for l in range(ws.q) for j in range(idx.m[l])]
    tags = [("G^-1", key) for key in keys]
    cols = dict(zip(keys, _factor_and_solve(moment_tables(ws, idx), idx, tags)))
    return {
        (k, l): tuple(
            tuple(cols[l, j][k][i] for j in range(idx.m[l])) for i in range(idx.n[k])
        )
        for k in range(ws.p)
        for l in range(ws.q)
    }
