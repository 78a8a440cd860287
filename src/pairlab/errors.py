"""Exception types shared across the package.

Every error raised deliberately by pairlab derives from PairLabError, so
callers can catch the package's failures without trapping programming bugs.
"""


class PairLabError(Exception):
    """Base class for all pairlab errors."""


# ---------------------------------------------------------------------------
# graph construction / manipulation


class AsymmetricJoint(PairLabError):
    """The joint pair matrix is not symmetric within tolerance."""


class NotNormalized(PairLabError):
    """The joint pair matrix does not sum to 1 within tolerance."""


class ZeroMassVertex(PairLabError):
    """Some vertex has zero marginal probability."""


class DuplicateVertex(PairLabError):
    """Two vertices share identical coordinates."""


class NonFiniteVertex(PairLabError):
    """A vertex coordinate is NaN or infinite."""


class KernelNotNormalized(PairLabError):
    """An augmentation kernel row does not sum to 1."""


class MalformedGraphFile(PairLabError):
    """A serialized graph document is missing fields or has wrong shapes."""


class EmptySupport(PairLabError):
    """A base distribution or kernel has no support."""


class EmptySubset(PairLabError):
    """A vertex subset that must be non-empty is empty."""


class ZeroConditionalMass(PairLabError):
    """Conditioning on a subset that carries no joint mass."""


# ---------------------------------------------------------------------------
# spectral computations


class GraphMismatch(PairLabError):
    """A function/matrix does not match the graph it is evaluated on."""


class EigSolverFailure(PairLabError):
    """The eigenvalue solver failed to converge or returned garbage."""


class ZeroFunction(PairLabError):
    """An operation is undefined for the identically-zero function."""


class DegenerateCovariance(PairLabError):
    """A covariance required to be invertible is singular."""


# ---------------------------------------------------------------------------
# synthetic data generation


class SizeGuardExceeded(PairLabError):
    """A generator would produce more vertices than the size guard."""


class IncompleteLabelMap(PairLabError):
    """A label map does not cover every occurring pattern."""


# ---------------------------------------------------------------------------
# function classes / constructions


class UnknownClass(PairLabError):
    """Unknown representation-class name."""


class DimensionMismatch(PairLabError):
    """Parameter or input shapes do not match the class contract."""


class SpecMismatch(PairLabError):
    """A closed-form construction was asked for a graph it does not fit."""


class ConstructionVerificationFailed(PairLabError):
    """A closed-form construction failed its output-identity verification."""


class TooManyOutputs(PairLabError):
    """Requested output dimension exceeds what a construction supports."""


# ---------------------------------------------------------------------------
# optimization


class Divergence(PairLabError):
    """Training loss exceeded the divergence threshold."""


class NonFiniteGradient(PairLabError):
    """A gradient evaluation produced NaN or Inf."""


class SingularCovariance(PairLabError):
    """Representation covariance is too ill-conditioned to whiten."""


# ---------------------------------------------------------------------------
# probes / separability protocol


class BetaZero(PairLabError):
    """A bound is undefined because the expansion lower bound is zero."""


class AlphaExceedsPmin(PairLabError):
    """Cross-cluster mass exceeds the smallest cluster mass."""


class NotOrthonormal(PairLabError):
    """Reference eigenfunctions fail their orthonormality side conditions."""


class AllGridPointsFailed(PairLabError):
    """Every cell of a separability row failed (no b value available)."""


# ---------------------------------------------------------------------------
# config / CLI


class ConfigError(PairLabError):
    """Malformed, unversioned, or unknown-keyed configuration."""


class IncompatibleConfig(ConfigError):
    """Config describes an instance the requested check cannot run on."""
