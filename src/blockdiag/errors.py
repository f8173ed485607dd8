"""Exception hierarchy for the blockdiag toolkit.

The CLI maps these onto its exit-code contract: structural/parse problems
exit with 3, hypothesis or well-posedness failures with 2, and plain
numeric-tolerance failures with 1.
"""


class BlockdiagError(Exception):
    """Base class for all toolkit errors."""


class StructuralError(BlockdiagError, ValueError):
    """Shapes, layouts, or file contents violate the data model."""


class ContractError(BlockdiagError):
    """A documented precondition does not hold (e.g. non-Hermitian input)."""


class HypothesisError(ContractError):
    """A mathematical hypothesis required by a pipeline fails on the data.

    ``report`` is the report of the check that failed, when the pipeline
    has one, so that a caller can show it without running the check again;
    the CLI writes its fields under ``error.diagnostics``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NumericError(BlockdiagError):
    """A numeric routine failed or produced residuals beyond its guarantee."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class NotAGraphError(BlockdiagError):
    """Subspace is not representable as a graph over the requested base."""

    def __init__(self, message, sigma_min=None):
        super().__init__(message)
        self.sigma_min = sigma_min


class NotComplementaryError(BlockdiagError):
    """The graph pair is numerically non-complementary (I +/- Y singular)."""


class SylvesterSingularError(BlockdiagError):
    """Sylvester coefficients have (numerically) overlapping spectra."""


class ResolventError(BlockdiagError):
    """A shift lies in or too close to the relevant spectrum."""


class IllPosedRegionError(BlockdiagError):
    """Eigenvalue selector boundary intersects the spectrum."""


class TheoremViolationError(BlockdiagError):
    """A guaranteed structural property failed numerically.

    Raised when data that satisfies the pipeline hypotheses nevertheless
    breaks a property those hypotheses imply; signals numerical breakdown
    (or a hypothesis check that was too lax) and is itself a finding.
    """
