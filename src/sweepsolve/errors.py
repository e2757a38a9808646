"""Exception types shared across the package."""

from __future__ import annotations


class SweepError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SweepError):
    pass


class OutOfRange(SweepError):
    pass


class AtSingularity(SweepError):
    """Degenerate projection target (the excluded-ball center): every boundary point is nearest."""

    def __init__(self, distance: float):
        super().__init__(f"the excluded-ball center has no unique projection ({distance:.6g} away)")
        self.distance = distance


class DidNotConverge(SweepError):
    pass


class NotAMember(SweepError):
    pass


class EmptyIntersection(SweepError):
    pass


class ModulusUnavailable(SweepError):
    """No step length certifies the requested one-sided continuity level."""


class NoPositiveTau(SweepError):
    pass


class NoFeasibleEps(SweepError):
    pass


class TubeViolation(SweepError):
    """A catching-up step found the previous iterate too far from the next set.

    Signals that the time grid is too coarse for the family; refinement policy
    belongs to the caller.
    """

    def __init__(self, step: int, distance: float, radius: float):
        super().__init__(
            f"step {step}: distance {distance:.6g} >= tube radius {radius:.6g}"
        )
        self.step = step
        self.distance = distance
        self.radius = radius


class CertificationFailed(SweepError):
    """A step's normal-defect bound (or, in an audit, the audited residual)
    exceeds the limit tol it must stay within."""

    def __init__(self, step: int, value: float, tol: float, what: str = "normal-defect bound"):
        super().__init__(f"step {step}: {what} {value:.3e} exceeds {tol:.3e}")
        self.step = step
        self.value = value
        self.tol = tol


class InapplicableBound(SweepError):
    """The hypotheses of a variation bound are violated by the supplied parameters."""


class SchemaError(SweepError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class UnknownShapeTag(SchemaError):
    pass


class InfeasibleInitialPoint(SweepError):
    def __init__(self, defect: float):
        super().__init__(f"initial point lies outside the t=0 set (containment defect {defect:.3e})")
        self.defect = defect
