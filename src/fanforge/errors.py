"""Exception hierarchy shared by all fanforge modules."""


class FanforgeError(Exception):
    """Base class for all errors raised by this package."""


class Unbounded(FanforgeError):
    """The feasible region admits a nonzero recession direction."""


class Empty(FanforgeError):
    """The feasible region contains no point."""


class DimensionDeficient(FanforgeError):
    """The feasible region has no interior point (affine hull is proper)."""


class SingularSystem(FanforgeError):
    """Back-substitution could not isolate a coordinate (knitting bug)."""


class NonPositiveParameter(FanforgeError):
    """A deformation parameter that must be strictly positive is not."""


class DegenerateWall(FanforgeError):
    """Wall ray matrix has kernel dimension != 1 (fan not simplicial)."""


class NotSimplicial(FanforgeError):
    """Type cone facet count differs from N - n."""


class InconsistentSystem(FanforgeError):
    """Exact data contradicts itself: a linear system of unexpected rank
    (facet bug upstream), or a type cone with no interior, which means the
    complete fan it came from is not polytopal."""


class BudgetExceeded(FanforgeError):
    """Seed BFS exceeded its node budget (input not of finite type?)."""


class InfiniteType(BudgetExceeded):
    """A seed reached by mutation has |b_ij * b_ji| > 3, so the cluster
    algebra is of infinite type and no node budget suffices."""
