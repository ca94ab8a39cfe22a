"""Exception hierarchy shared by all hbl modules.

Every error carries a short machine-readable ``code`` so the CLI can map
failures onto exit codes and structured stderr reports.
"""

from __future__ import annotations


class HblError(Exception):
    """Base class for all library errors."""

    code = "error"
    #: CLI exit code family: 2 = configuration/regime, 3 = numerical failure,
    #: 64 = command-line usage.
    exit_code = 3

    def __init__(self, message: str = ""):
        super().__init__(message or self.__doc__)


class InvalidConfig(HblError):
    """Configuration violates a model invariant (ordering, fractions, T > 0)."""

    code = "invalid-config"
    exit_code = 2


class UsageError(HblError):
    """Command-line option value outside its accepted range."""

    code = "usage"
    exit_code = 64


class InvalidIndex(HblError):
    """Multi-index pair violates its invariants or a shift made it negative."""

    code = "invalid-index"
    exit_code = 2


class WrongRegime(HblError):
    """Operation requires a different separation regime."""

    code = "wrong-regime"
    exit_code = 2


class UnsupportedFractions(HblError):
    """Operation is only available for p1 = p2 = 1/2."""

    code = "unsupported-fractions"
    exit_code = 2


class OutOfSupport(HblError):
    """Evaluation point lies outside the density support."""

    code = "out-of-support"
    exit_code = 2


class OnContour(HblError):
    """Evaluation point lies on the jump contour."""

    code = "on-contour"
    exit_code = 2


class OutOfDomain(HblError):
    """Point lies outside the sampled solution domain."""

    code = "out-of-domain"
    exit_code = 2


class SingularMatrix(HblError):
    """Pivot fell below the precision-scaled threshold."""

    code = "singular-matrix"


class NormalizationImpossible(HblError):
    """Requested MOP normalization does not exist (non-normal index pair)."""

    code = "normalization-impossible"


class ZeroDenominator(HblError):
    """A recurrence-coefficient denominator vanished numerically."""

    code = "zero-denominator"


class BranchCollision(HblError):
    """Two spectral-curve branches are numerically indistinguishable."""

    code = "branch-collision"


class NoConvergence(HblError):
    """Iterative solver failed to reach its tolerance."""

    code = "no-convergence"


class DomainTooNarrow(HblError):
    """Requested solution domain is too small for the boundary matching."""

    code = "domain-too-narrow"
    exit_code = 2


class DegenerateData(HblError):
    """Data is constant or below resolution; no rate can be fitted."""

    code = "degenerate-data"


class WorkerFailed(HblError):
    """A forked worker died or could not send its results back."""

    code = "worker-failed"
