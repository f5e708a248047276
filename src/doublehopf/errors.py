"""Exception types shared across the toolkit."""


class DoubleHopfError(Exception):
    """Base class for all toolkit errors."""


class HypothesisViolated(DoubleHopfError):
    """Parameters violate the admissibility conditions (gain bound or
    positive discriminant), so no pair of Hopf frequencies exists."""


class DegenerateRoot(DoubleHopfError):
    """The frequency quadratic has a (numerically) double root, so the
    transversality sign is undefined."""


class NoSignChange(DoubleHopfError):
    """Bracketing interval does not contain a zero of the gap function."""


class SingularNormalizer(DoubleHopfError):
    """An eigenbasis normalizer denominator is numerically zero."""


class DegenerateCubic(DoubleHopfError):
    """A cubic normal-form coefficient has vanishing real part; unfolding
    parameters are undefined."""


class BoundaryCase(DoubleHopfError):
    """A classification quantity sits on a sign boundary within tolerance,
    or is not finite, so it has no sign."""


class WrongCase(DoubleHopfError):
    """Operation only defined for unfolding case VIa."""


class OnBoundary(DoubleHopfError):
    """Query point lies on a bifurcation line within angular tolerance."""


class DegenerateDet(DoubleHopfError):
    """The interior-equilibrium determinant d0 - b0*c0 vanishes."""


class NonFiniteState(DoubleHopfError):
    """Simulation state overflowed.  Carries the blowup time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time

    def __reduce__(self):
        # rebuilt from both arguments, so the error survives pickling (a
        # run in a worker process raises it in its caller)
        return type(self), (self.args[0], self.time)


class InsufficientData(DoubleHopfError):
    """Too few section crossings for a reliable classification."""
