"""Exception types shared across the package.

Every error that a pipeline can surface to the CLI is a BerglabError so the
front-end can map failures to machine-readable reports.
"""


class BerglabError(Exception):
    """Base class for all package errors."""


class NonDisjointError(BerglabError):
    """Removed disks overlap each other or the unit circle (x1 too large)."""


class ScaleUnderflowError(BerglabError):
    """Scale recursion left the representable range (truncation too deep)."""


class NotBoundaryPointError(BerglabError):
    """Queried base point is off the boundary beyond tolerance."""


class RuleViolationError(BerglabError):
    """Cantor construction rule broken (l_{j+1} >= l_j / 2)."""


class BisectionFailureError(BerglabError):
    """Inverse scale lookup could not bracket the target."""


class GridTooSmallError(BerglabError):
    """Candidate grid too small for the requested configuration size."""


class EquilibriumSolveError(BerglabError):
    """Equilibrium energy not concave on the nodes, or a dropped node breaks KKT."""


class PreconditionViolatedError(BerglabError):
    """A documented operation precondition failed at run time."""


class QuadratureStallError(BerglabError):
    """Doubling the boundary rule moved the Gram matrix beyond its tolerance."""


class RankCollapseError(BerglabError):
    """Gram factorization lost more than half the basis (poles too clustered)."""


class OutsideDomainError(BerglabError):
    """Evaluation point is not inside the domain."""


class DegenerateConstraintError(BerglabError):
    """Kernel value vanished; the zero-at-point constraint is degenerate."""


class ScaleNotRetainedError(BerglabError):
    """Requested scale index lies outside the truncated range."""


class AnnulusEmptyError(BerglabError):
    """Boundary-point chain broke: the search annulus missed the boundary."""

    def __init__(self, level: int, center: complex, lo: float, hi: float):
        self.level, self.center, self.hi = level, center, hi
        super().__init__(f"level {level}: no boundary point in [{lo}, {hi}] around {center}")


class NoSecondPointError(BerglabError):
    """No second boundary point in the required distance window."""


class PolesTooCloseError(BerglabError):
    """A pole lies inside the integration domain or too close to its boundary."""


class ConfigInvalidError(BerglabError, ValueError):
    """Experiment configuration failed validation."""


class InsufficientSpanError(BerglabError):
    """Too few samples or too little scale span for an asymptotic fit."""
