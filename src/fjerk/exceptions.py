"""Exception hierarchy for fjerk."""


class FjerkError(Exception):
    """Base class for all fjerk domain errors."""


class InvalidConfig(FjerkError):
    """A solve/sweep configuration violates its invariants."""


class NonRationalOrder(FjerkError):
    """An operation requiring exact rational orders got a float."""


class SingularAngle(FjerkError):
    """sin(3*theta) vanishes (alpha = 2/3); the quadratic in r degenerates."""


class NegativeDiscriminant(FjerkError):
    """The discriminant of the quadratic in r is negative; no real roots."""


class NoPositiveRoot(FjerkError):
    """No positive root, or none that float arithmetic resolves."""


class ExcludedAlpha(FjerkError):
    """The critical-value denominator vanishes at this order."""


class CaseNotSatisfied(FjerkError):
    """Neither Hopf-bifurcation case condition holds for these inputs."""


class ZeroCoefficient(FjerkError):
    """A coefficient magnitude is below the sign-ambiguity guard."""


class UnsupportedClassification(FjerkError):
    """Stability classification refused (lift M too large for the sector criterion)."""


class EmptyAfterTransient(FjerkError):
    """Too few samples remain after discarding the transient."""


class DivergenceError(FjerkError):
    """The trajectory left the finite range.

    Attributes
    ----------
    time : float
        First sample time at which a non-finite state was produced.
    """

    def __init__(self, time):
        super().__init__(f"trajectory diverged (non-finite state) at t = {time:g}")
        self.time = time


class TangentCollapse(FjerkError):
    """A tangent-vector stretch factor underflowed to (near) zero."""
