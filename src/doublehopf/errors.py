"""Exception types and the two argument checks shared across the toolkit.

A bad argument raises ValueError naming it (the CLI exits 2); a failure of
the mathematics raises a DoubleHopfError subclass (the CLI exits 1, and
NonFiniteState also carries ``time``).  No call returns a silent NaN or
raises an untyped error from inside.  A scalar argument is checked by one
of two rules, ``real`` or ``index``."""

import math
import numbers
import operator


def real(name: str, v) -> float:
    """v as a float when it is a finite real number; else (a bool, a str,
    an array, NaN, +-inf, an int beyond float range) ValueError naming it."""
    if isinstance(v, (float, int, numbers.Real)) and not isinstance(v, bool):
        try:
            if math.isfinite(f := float(v)):
                return f
        except OverflowError:  # an int beyond float range
            pass
    raise ValueError(f"{name} must be finite, got {v!r}")


def index(name: str, v, lo: int, hi: int) -> int:
    """v as an int when it is an integer in [lo, hi) of any __index__ type
    but bool; else (a float too, even 2.0) ValueError naming it."""
    if not isinstance(v, bool):
        try:
            if lo <= (i := operator.index(v)) < hi:
                return i
        except TypeError:  # no __index__, or an array of more than one
            pass
    top = f"2**{hi.bit_length() - 1}" if hi > 1024 and hi & hi - 1 == 0 else hi
    raise ValueError(f"{name} must be an integer >= {lo} and < {top}, got {v!r}")


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
