"""Planar amplitude system of the two critical modes.

After scaling, the radial dynamics of the slow/fast oscillation amplitudes
(r1, r2) reduce to

    r1' = r1*(c1 + r1^2 + b0*r2^2)
    r2' = r2*(c2 + c0*r1^2 + d0*r2^2)

truncated at third order.  Its nonnegative equilibria and periodic orbits
translate back to invariant sets of the full delayed system: the origin to
the trivial equilibrium, an axis equilibrium to a periodic orbit of the
corresponding mode, an interior equilibrium to a 2-torus, and a periodic
amplitude orbit to a 3-torus.

In the squared radii u = r1^2, v = r2^2 the truncation is the planar
Lotka-Volterra system u' = 2u(c1 + u + b0*v), v' = 2v(c2 + c0*u + d0*v).
With the Dulac function u^(a-1)*v^(b-1), for the (a, b) that cancel the
linear terms, its divergence is a positive multiple of the trace of the
Jacobian at the interior equilibrium (Hofbauer & Sigmund, Evolutionary
Games and Population Dynamics, 1998, ch. 5).  So the system has no
isolated periodic orbit: a periodic orbit must surround the interior
equilibrium, and there is one only when that trace vanishes, as a center
family filling the region around a linear center.  predict_attractor
therefore decides the attractors algebraically in the scaled (c1, c2)
plane; simulate_amplitude and the tests' find_attractor (tests/conftest.py)
integrate the system and serve as its independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import normalform
from .errors import DegenerateDet, WrongCase
from .normalform import UnfoldingParams

# Relative tolerance of the zero-trace test for a center at the interior
# equilibrium.  On the D5 probes of the worked instance's double-Hopf
# points |trace|/scale stays below 4e-15; every other region with an
# interior equilibrium has at least 0.33.
_CENTER_TOL = 1e-9

__all__ = [
    "AmplitudeState",
    "AmplitudeEquilibrium",
    "AttractorPrediction",
    "equilibria",
    "simulate_amplitude",
    "predict_attractor",
]


@dataclass(frozen=True)
class AmplitudeState:
    """Polar radii of the two modes; both finite and nonnegative."""

    r1: float
    r2: float

    def __post_init__(self):
        if not (0 <= self.r1 < math.inf and 0 <= self.r2 < math.inf):
            raise ValueError(
                f"radii must be finite and nonnegative, got {(self.r1, self.r2)}")


@dataclass(frozen=True)
class AmplitudeEquilibrium:
    state: AmplitudeState
    kind: str  # origin | r1_axis | r2_axis | interior
    eigenvalues: Tuple[complex, complex]

    @property
    def stable(self) -> bool:
        """Linearly stable: both eigenvalues in the open left half plane."""
        return all(z.real < 0.0 for z in self.eigenvalues)


@dataclass(frozen=True)
class AttractorPrediction:
    """Stable object predicted for one parameter region.

    kind is one of trivial_eq, periodic, torus2, torus3, none_stable;
    mode identifies the oscillating frequency (1 = slow, 2 = fast) for a
    periodic prediction, else None.
    """

    kind: str
    mode: Optional[int]
    region: int


def _eq(r1_sq: float, r2_sq: float, kind: str, lam1, lam2) -> AmplitudeEquilibrium:
    return AmplitudeEquilibrium(
        AmplitudeState(math.sqrt(r1_sq), math.sqrt(r2_sq)), kind,
        (complex(lam1), complex(lam2)),
    )


def _interior(c1, c2, b0, c0, d0) -> Tuple[float, float, float]:
    """(r1^2, r2^2, det) of the interior equilibrium, det = d0 - b0*c0;
    raises DegenerateDet when det vanishes."""
    det = d0 - b0 * c0
    if abs(det) < 1e-12:
        raise DegenerateDet(f"d0 - b0*c0 = {det:.3e}; interior branch undefined")
    return (b0 * c2 - d0 * c1) / det, (c0 * c1 - c2) / det, det


def equilibria(
    c1: float, c2: float, b0: float, c0: float, d0: float
) -> List[AmplitudeEquilibrium]:
    """All nonnegative-quadrant equilibria with eigenvalues and stability.

    Origin always; (sqrt(-c1), 0) when c1 < 0; (0, sqrt(-c2/d0)) when
    -c2/d0 > 0; and the interior point with r1^2 = (b0*c2 - d0*c1)/det,
    r2^2 = (c0*c1 - c2)/det when both radicands are positive.  Raises
    ValueError, naming it, for a parameter that is not finite, and
    DegenerateDet when det = d0 - b0*c0 vanishes (interior branch
    undefined).

    Eigenvalues in closed form: (c1, c2) at the origin, (-2*c1, c2 - c0*c1)
    and (c1 + b0*r2^2, -2*c2) on the axes, and q +- sqrt(q^2 -
    4*r1^2*r2^2*det) with q = r1^2 + d0*r2^2 at the interior point.
    """
    for name, v in zip(("c1", "c2", "b0", "c0", "d0"), (c1, c2, b0, c0, d0)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    out = [_eq(0.0, 0.0, "origin", c1, c2)]
    if c1 < 0.0:
        out.append(_eq(-c1, 0.0, "r1_axis", -2.0 * c1, c2 - c0 * c1))
    if d0 != 0.0 and -c2 / d0 > 0.0:
        r2_sq = -c2 / d0
        out.append(_eq(0.0, r2_sq, "r2_axis", c1 + b0 * r2_sq, -2.0 * c2))
    r1_sq, r2_sq, det = _interior(c1, c2, b0, c0, d0)
    if r1_sq > 0.0 and r2_sq > 0.0:
        q = r1_sq + d0 * r2_sq
        disc = q * q - 4.0 * r1_sq * r2_sq * det
        root = math.sqrt(disc) if disc >= 0.0 else 1j * math.sqrt(-disc)
        out.append(_eq(r1_sq, r2_sq, "interior", q + root, q - root))
    return out


# not called in the package; kept while perfbench/tracing.py spans this name
def simulate_amplitude(
    s0,
    params: Sequence[float],
    t_end: float,
    h: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-step fourth-order integration of the amplitude system.

    ``s0`` is an AmplitudeState or an (r1, r2) pair, checked as one.
    Radii are clamped at zero, keeping both axes exactly invariant.
    Returns (times, path) sampled at every step.
    """
    if not (0 < h < math.inf and 0 < t_end < math.inf):
        raise ValueError(f"need finite h > 0 and t_end > 0, got {h!r}, {t_end!r}")
    # Python floats: numpy scalars warn on the stage overflow before an escape
    c1, c2, b0, c0, d0 = (float(v) for v in params)
    if not isinstance(s0, AmplitudeState):
        s0 = AmplitudeState(s0[0], s0[1])
    r1, r2 = float(s0.r1), float(s0.r2)
    n = int(round(t_end / h))
    times = np.arange(n + 1) * h
    path = np.empty((n + 1, 2))
    path[0] = (r1, r2)
    for i in range(1, n + 1):
        k1a = r1 * (c1 + r1 * r1 + b0 * r2 * r2)
        k1b = r2 * (c2 + c0 * r1 * r1 + d0 * r2 * r2)
        xa = r1 + 0.5 * h * k1a
        ya = r2 + 0.5 * h * k1b
        k2a = xa * (c1 + xa * xa + b0 * ya * ya)
        k2b = ya * (c2 + c0 * xa * xa + d0 * ya * ya)
        xb = r1 + 0.5 * h * k2a
        yb = r2 + 0.5 * h * k2b
        k3a = xb * (c1 + xb * xb + b0 * yb * yb)
        k3b = yb * (c2 + c0 * xb * xb + d0 * yb * yb)
        xc = r1 + h * k3a
        yc = r2 + h * k3b
        k4a = xc * (c1 + xc * xc + b0 * yc * yc)
        k4b = yc * (c2 + c0 * xc * xc + d0 * yc * yc)
        r1 += h / 6.0 * (k1a + 2.0 * (k2a + k3a) + k4a)
        r2 += h / 6.0 * (k1b + 2.0 * (k2b + k3b) + k4b)
        if r1 < 0.0:
            r1 = 0.0
        if r2 < 0.0:
            r2 = 0.0
        path[i] = (r1, r2)
        if r1 > 1e6 or r2 > 1e6:
            return times[: i + 1], path[: i + 1]
    return times, path


def _probe_params(region: int, u: UnfoldingParams) -> Tuple[float, ...]:
    """Amplitude parameters (c1, c2, b0, c0, d0) at a region's probe.

    The probe is the unit bisector of the region's bounding rays in the
    scaled (c1, c2) plane (normalform._c_rays), or for D5, whose sector has
    zero width at linear order, the shared L4/L5 ray.  The truncated system
    is self-similar under (r, t) -> (s*r, t/s^2), c -> s^2*c, so the
    direction alone fixes the attractor, and a unit probe stands for the
    whole sector.
    """
    rays = normalform._c_rays(u.b0, u.c0)
    ends = [rays[4]] if region == 5 else [rays[region - 2], rays[region - 1]]
    c1, c2 = (sum(v) for v in zip(*ends))
    scale = math.hypot(c1, c2)
    return (c1 / scale, c2 / scale, u.b0, u.c0, float(u.d0))


def predict_attractor(region: int, u: UnfoldingParams) -> AttractorPrediction:
    """Stable object of the amplitude system in one case-VIa region.

    Decided in closed form at the region's probe in the scaled (c1, c2)
    plane (see _probe_params), so the label depends on (b0, c0, d0) alone,
    not on the parameter map, which may even reverse orientation; by the
    scaling symmetry the distance from the double-Hopf point never changes
    it either.

    1. torus3 when the interior equilibrium is a linear center: zero trace,
       |q| <= _CENTER_TOL*(r1^2 + |d0|*r2^2), q as in equilibria, and
       positive determinant, d0 - b0*c0 > 0 (det J = 4*r1^2*r2^2*(d0 -
       b0*c0)).  The center family of periodic amplitude orbits then
       surrounds it.
    2. Otherwise the first stable equilibrium in the order interior (torus2),
       r2_axis (periodic, mode 2), r1_axis (periodic, mode 1), origin
       (trivial_eq).
    3. Otherwise none_stable: by the Dulac argument of the module docstring
       the system has no isolated periodic orbit that could attract.

    The cubic truncation is degenerate across the D4/D5 band: its interior
    Hopf carries no isolated cycle (the center family sits exactly on the
    L5 ray, slow spirals on either side; the band between the true L4 and
    L5 opens only at the uncomputed quadratic order).  D5 is therefore
    probed on the shared L4/L5 ray itself, where the center family stands
    in for the amplitude limit cycle.  No amplitude orbit is integrated.

    The prediction's region is the one probed, as an int.  Raises
    ValueError for a region that is not one of the integers 1..8,
    BoundaryCase where classify_unfolding does, and WrongCase outside case
    VIa.
    """
    if region not in range(1, 9):
        raise ValueError(f"region must be an integer in 1..8, got {region!r}")
    region = int(region)
    case = normalform.classify_unfolding(u)
    if case != "VIa":
        raise WrongCase(f"attractor map defined for case VIa, not {case}")
    params = _probe_params(region, u)
    eqs = {e.kind: e for e in equilibria(*params)}
    if "interior" in eqs:
        r1_sq, r2_sq, det = _interior(*params)
        q = r1_sq + u.d0 * r2_sq
        if abs(q) <= _CENTER_TOL * (r1_sq + abs(u.d0) * r2_sq) and det > 0.0:
            return AttractorPrediction("torus3", None, region)
    for kind, label, mode in (
        ("interior", "torus2", None),
        ("r2_axis", "periodic", 2),
        ("r1_axis", "periodic", 1),
        ("origin", "trivial_eq", None),
    ):
        if kind in eqs and eqs[kind].stable:
            return AttractorPrediction(label, mode, region)
    return AttractorPrediction("none_stable", None, region)
