"""Eigenbasis, duality oracle, cubic normal form, and unfolding at a double-Hopf point.

Everything here lives in rescaled time t -> t/tau, which pins the delay at
exactly 1 and moves the critical eigenvalues to +-i*omega1*tau0 and
+-i*omega2*tau0.  The linear part splits into point masses: B1 acting on the
current state, B2 on the state one delay back, and the neutral mass
M = diag(0, mu) inside the difference operator D(phi) = phi(0) - M*phi(-1).

The dual pairing used to normalize the adjoint rows is

    (psi, phi) = psi(0)*phi(0) - psi(0)*M*phi(-1)
                 + int_{-1}^{0} [ psi(s+1)*B2*phi(s) - psi'(s+1)*M*phi(s) ] ds,

whose last term is the neutral contribution: on eigenpairs the whole pairing
collapses to u * Delta'(lam) * v, the derivative of the characteristic
matrix, so the normalizers are D_i = -1/Delta'(i*omega_i), evaluated by
``chareq.char_deriv`` in original time at (k0, tau0).
Dropping the psi' term breaks (Psi, Phi) = I; the duality residual below is
the arbiter for all sign conventions.

Signs of the four unfolding quantities (b0, c0, d0, d0 - b0*c0) select one
of twelve planar unfoldings; in case VIa eight bifurcation rays divide the
scaled (c1, c2) plane counterclockwise into the regions D1..D8 (D1 between
L8 and L1).  Mapped through the adjugate of the parameter map, the rays run
clockwise in the parameter plane exactly when its determinant is negative.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .chareq import _ValueEq, char_deriv
from .errors import (
    BoundaryCase,
    DegenerateCubic,
    OnBoundary,
    SingularNormalizer,
    WrongCase,
    real,
)
from .hopf_hopf import HopfHopfPoint

__all__ = [
    "LinearPieces",
    "EigenBasis",
    "NormalFormCoeffs",
    "UnfoldingParams",
    "ViaLine",
    "ViaLines",
    "UNFOLDING_TABLE",
    "eigenbasis",
    "bilinear_form",
    "duality_residual",
    "nf_coefficients",
    "unfolding_params",
    "classify_unfolding",
    "via_lines",
    "region_of",
]

# (sign d0, sign b0, sign c0, sign det) -> case label.  Four sign patterns
# are infeasible and absent: det = d0 - b0*c0 is forced positive when
# d0 = +1 with b0*c0 < 0, and forced negative when d0 = -1 with b0*c0 > 0.
UNFOLDING_TABLE = {
    (1, 1, 1, 1): "Ia",
    (1, 1, 1, -1): "Ib",
    (1, 1, -1, 1): "II",
    (1, -1, 1, 1): "III",
    (1, -1, -1, 1): "IVa",
    (1, -1, -1, -1): "IVb",
    (-1, 1, 1, -1): "V",
    (-1, 1, -1, 1): "VIa",
    (-1, 1, -1, -1): "VIb",
    (-1, -1, 1, 1): "VIIa",
    (-1, -1, 1, -1): "VIIb",
    (-1, -1, -1, -1): "VIII",
}

_SIGN_TOL = 1e-9  # classify_unfolding's margin about zero of each sign quantity
_RAY_TOL = 1e-6  # region_of's margin about each ray, in radians
_N_NODES = 64  # Gauss-Legendre nodes of bilinear_form's integral


@dataclass(frozen=True, eq=False)
class LinearPieces:
    """Point masses of the rescaled linear system (delay normalized to 1).

    B1 multiplies the current state, B2 the state at -1, and M is the
    neutral mass at -1 inside the difference operator.
    """

    B1: np.ndarray
    B2: np.ndarray
    M: np.ndarray

    @classmethod
    def at_point(cls, hh: HopfHopfPoint) -> "LinearPieces":
        t0, epsilon, mu = hh.tau0, hh.epsilon, hh.mu
        b1 = np.array(
            [[0.0, t0], [t0 * (-1.0 + epsilon * hh.k0 * (1.0 - mu)), epsilon * t0]]
        )
        b2 = np.array([[0.0, 0.0], [t0 * mu, -t0 * epsilon * mu]])
        m = np.array([[0.0, 0.0], [0.0, mu]])
        return cls(b1, b2, m)


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Critical eigenbasis Phi and adjoint rows Psi.

    phi(theta) is 2x4 on [-1, 0]; psi(s) is 4x2 on [0, 1]; psi_deriv is the
    exact s-derivative of psi (each row is a pure exponential).  B is the
    4x4 diagonal of the rescaled critical eigenvalues.  The normalizers
    D1, D2 enter through psi: the second components of its rows at s = 0
    are -D1, -conj(D1), -D2, -conj(D2).

    The three functions broadcast: an array of points gives the values
    at every point along trailing axes, (2, 4, n) for phi and (4, 2, n)
    for psi and psi_deriv at n points, each with the bits of a scalar
    call.  A scalar gives the 2x4 or 4x2 matrix.
    """

    B: np.ndarray
    phi: Callable[[float | np.ndarray], np.ndarray]
    psi: Callable[[float | np.ndarray], np.ndarray]
    psi_deriv: Callable[[float | np.ndarray], np.ndarray]
    pieces: LinearPieces


@dataclass(frozen=True)
class NormalFormCoeffs:
    """Cubic normal-form coefficients of the four critical modes.

    a11, a12 (a21, a22) multiply the two parameter offsets in the slow
    (fast) mode; c11, c22 are the cubic self couplings.  The shared factor
    structure makes the cross couplings c12 = 2*c11 and c21 = 2*c22, so
    they are properties.
    """

    a11: complex
    a12: complex
    c11: complex
    a21: complex
    a22: complex
    c22: complex

    @property
    def c12(self) -> complex:
        """The slow mode's cross coupling, 2*c11."""
        return 2.0 * self.c11

    @property
    def c21(self) -> complex:
        """The fast mode's cross coupling, 2*c22."""
        return 2.0 * self.c22


@dataclass(eq=False)
class UnfoldingParams(_ValueEq):
    """Scaled planar amplitude-system data derived from the cubic coefficients.

    c1_map and c2_map are the rows of the linear map (alpha1, alpha2) ->
    (c1, c2).  The unfolding case is classify_unfolding(u).  Two unfoldings
    are equal when every field is, the maps compared by value.
    """

    eps1: int
    eps2: int
    b0: float
    c0: float
    c1_map: np.ndarray
    c2_map: np.ndarray

    @property
    def d0(self) -> int:
        """eps1*eps2, the scaled fast self coupling."""
        return self.eps1 * self.eps2

    @property
    def det(self) -> float:
        """d0 - b0*c0 in Python floats, which overflow to inf with no warning."""
        return self.d0 - float(self.b0) * float(self.c0)


@dataclass(frozen=True)
class ViaLine:
    """One bifurcation ray: alpha2 = slope*alpha1 restricted to a half plane.

    ``angle`` is the ray direction in radians; slope is None for a vertical
    ray (half_plane then constrains alpha2).  L4 carries an uncomputed
    quadratic correction and is emitted with the same leading slope as L5
    (``tangent_correction_omitted``).
    """

    name: str
    slope: Optional[float]
    half_plane: str
    angle: float
    tangent_correction_omitted: bool = False


@dataclass(frozen=True)
class ViaLines:
    """The eight case-VIa rays L1..L8, in cyclic order (see region_of)."""

    lines: Tuple[ViaLine, ...]

    def __getitem__(self, name: str) -> ViaLine:
        for ln in self.lines:
            if ln.name == name:
                return ln
        raise KeyError(name)


def _check_point_instance(hh: HopfHopfPoint, epsilon: float, mu: float) -> None:
    """ValueError unless (epsilon, mu) is the instance the point was found for."""
    if (epsilon, mu) != (hh.epsilon, hh.mu):
        raise ValueError(
            f"(epsilon, mu) = ({epsilon!r}, {mu!r}) differs from the point's "
            f"instance ({hh.epsilon!r}, {hh.mu!r})"
        )


def _normalizers(hh: HopfHopfPoint) -> Tuple[complex, ...]:
    """D_i = -1/Delta'(i*omega_i) of the slow and fast modes at the point."""
    p = hh.params()
    derivs = [char_deriv(1j * om, p) for om in (hh.omega1, hh.omega2)]
    if min(abs(d) for d in derivs) < 1e-12:
        raise SingularNormalizer(
            "normalizer denominators "
            f"{abs(derivs[0]):.3e}, {abs(derivs[1]):.3e} below 1e-12"
        )
    return complex(-1.0 / derivs[0]), complex(-1.0 / derivs[1])


def _conj_pairs(values) -> np.ndarray:
    """[v1, conj(v1), v2, conj(v2)]: the mode order of the critical basis."""
    return np.array([z for v in values for z in (v, np.conj(v))])


def eigenbasis(hh: HopfHopfPoint, epsilon: float, mu: float) -> EigenBasis:
    """Closed-form critical eigenbasis at a double-Hopf point (rescaled time).

    The instance is the point's own; ``epsilon`` and ``mu`` must equal
    hh.epsilon and hh.mu, else ValueError names both pairs.  Modes are
    ordered slow, conjugate, fast, conjugate.  The adjoint rows are scaled
    by the normalizers D1, D2 = -1/Delta'(i*omega_i) (``chareq.char_deriv``);
    SingularNormalizer is raised when |Delta'| < 1e-12.
    """
    _check_point_instance(hh, epsilon, mu)
    t0, oms = hh.tau0, (hh.omega1, hh.omega2)
    norms = _normalizers(hh)

    lams = _conj_pairs([1j * t0 * om for om in oms])
    b_mat = np.diag(lams)
    dy = _conj_pairs([1j * om for om in oms])

    def phi(theta: float | np.ndarray) -> np.ndarray:
        row0 = np.exp(np.multiply.outer(lams, theta))
        return np.stack([row0, _lead(dy, row0) * row0])

    # first components of the four adjoint rows at s = 0; the second is -D_i
    heads = _conj_pairs([
        d * ((epsilon - 1j * om) * (1.0 - mu * np.exp(-1j * t0 * om)))
        for d, om in zip(norms, oms)
    ])
    scales = _conj_pairs(norms)

    def psi(s: float | np.ndarray) -> np.ndarray:
        ex = np.exp(np.multiply.outer(-lams, s))
        return np.stack([_lead(heads, ex) * ex, _lead(-scales, ex) * ex], axis=1)

    def psi_deriv(s: float | np.ndarray) -> np.ndarray:
        rows = psi(s)
        return _lead(-lams, rows) * rows

    return EigenBasis(b_mat, phi, psi, psi_deriv, LinearPieces.at_point(hh))


def _lead(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """The mode vector v shaped to scale axis 0 of ``like`` over its other axes."""
    return v.reshape(v.shape + (1,) * (like.ndim - 1))


@functools.cache
def _gauss_nodes(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 0], computed once per n.

    The arrays are shared between calls, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (x - 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def bilinear_form(
    psi_row: Callable[[float | np.ndarray], np.ndarray],
    phi_col: Callable[[float | np.ndarray], np.ndarray],
    pieces: LinearPieces,
    psi_row_deriv: Callable[[float | np.ndarray], np.ndarray],
) -> complex | np.ndarray:
    """Neutral dual pairing of adjoint rows with basis columns.

    psi_row maps s in [0, 1] to one length-2 row or an r x 2 block of rows,
    and psi_row_deriv (required) to its exact s-derivative, of the same
    shape.  phi_col maps theta in [-1, 0] to one length-2 column or a 2 x c
    block of columns.  One row with one column pairs to a complex; blocks
    pair to the r x c matrix of every row with every column.  The delta
    masses reduce the pairing to two point products plus one definite
    integral, evaluated by composite Gauss-Legendre quadrature with
    ``_N_NODES`` nodes.

    Each callable must also take a 1-D array of n points and return its
    value at every point along a trailing axis: (2, n) or (r, 2, n) for
    the rows, (2, n) or (2, c, n) for the columns, as ``EigenBasis``'s
    functions do.  The three are evaluated once each on all the nodes;
    the per-node integrands are then summed in node order, so the result
    has the bits of a node-by-node loop.
    """
    m = pieces.M
    b2 = pieces.B2
    row0 = psi_row(0.0)
    col0 = phi_col(0.0)
    val = row0 @ col0 - row0 @ (m @ phi_col(-1.0))
    nodes, weights = _gauss_nodes(_N_NODES)
    s = nodes + 1.0
    # node axis first, with a length-1 axis where a row or column is a
    # vector: each node's products have the matrix shapes of a scalar
    # call, on contiguous operands, and so take the same matmul kernels
    rows = np.moveaxis(psi_row(s), -1, 0)
    drows = np.moveaxis(psi_row_deriv(s), -1, 0)
    cols = np.moveaxis(phi_col(nodes), -1, 0)
    if row0.ndim == 1:
        rows, drows = rows[:, None, :], drows[:, None, :]
    if col0.ndim == 1:
        cols = cols[:, :, None]
    rows, drows, cols = map(np.ascontiguousarray, (rows, drows, cols))
    terms = rows @ (b2 @ cols) - drows @ (m @ cols)
    terms = weights[:, None, None] * terms
    terms = terms.reshape((len(nodes),) + np.shape(val))
    return np.add.accumulate(np.concatenate([[val], terms]))[-1]


def duality_residual(basis: EigenBasis) -> float:
    """Max-norm of (Psi, Phi) - I; the joint test of Phi, Psi, D1, D2.

    (Psi, Phi) is one block pairing: the 4 x 2 adjoint rows psi with their
    exact derivative psi_deriv, against the 2 x 4 basis columns phi.
    """
    gram = bilinear_form(basis.psi, basis.phi, basis.pieces, basis.psi_deriv)
    return float(np.max(np.abs(gram - np.eye(4))))


def nf_coefficients(hh: HopfHopfPoint, epsilon: float, mu: float) -> NormalFormCoeffs:
    """Closed-form cubic normal-form coefficients at the double-Hopf point.

    The parameter-linear terms a_ij come from pairing the adjoint rows with
    the parameter derivative of the linear part; the cubic terms c_ij from
    projecting the van der Pol nonlinearity (current and delayed x^2 x')
    onto the resonant monomials.  Only the normalizers D1, D2 enter beyond
    elementary functions of (k0, tau0, omega1, omega2).  The instance is
    the point's own; ``epsilon`` and ``mu`` must equal hh.epsilon and
    hh.mu, else ValueError names both pairs.
    """
    _check_point_instance(hh, epsilon, mu)
    t0, k0 = hh.tau0, hh.k0

    def mode(d: complex, om: float) -> Tuple[complex, complex, complex]:
        # (a_i1, a_i2, c_ii) of the mode with normalizer d and frequency om
        e = np.exp(-1j * t0 * om)
        a_1 = -d * epsilon * (1.0 - mu) * t0
        a_2 = d * (k0 * epsilon * (mu - 1.0) - mu * (om**2 + 1.0) * e + om**2 + 1.0)
        c_self = -0.5 * d * (2j * epsilon * mu * t0 * om * e - 2j * epsilon * t0 * om)
        return a_1, a_2, c_self

    (a11, a12, c11), (a21, a22, c22) = map(
        mode, _normalizers(hh), (hh.omega1, hh.omega2)
    )
    return NormalFormCoeffs(a11, a12, c11, a21, a22, c22)


def unfolding_params(coeffs: NormalFormCoeffs) -> UnfoldingParams:
    """Scale the amplitude system to unit cubic self-coupling.

    eps1, eps2 are the signs of Re c11, Re c22; the rescaling
    r -> r*sqrt(|Re c|), t -> eps1*t produces coefficients
    b0 = eps1*eps2*Re c12/Re c22, c0 = Re c21/Re c11, d0 = eps1*eps2 and
    the parameter maps c_i = eps1*(Re a_i1*alpha1 + Re a_i2*alpha2).
    Raises ValueError, naming it, for a real part that is not finite.
    """
    for name in ("a11", "a12", "c11", "a21", "a22", "c22"):
        real(f"Re {name}", getattr(coeffs, name).real)
    re11, re22 = coeffs.c11.real, coeffs.c22.real
    if abs(re11) < 1e-12 or abs(re22) < 1e-12:
        raise DegenerateCubic(
            f"Re c11 = {re11:.3e}, Re c22 = {re22:.3e}; unfolding undefined"
        )
    eps1 = 1 if re11 > 0 else -1
    eps2 = 1 if re22 > 0 else -1
    b0 = eps1 * eps2 * coeffs.c12.real / re22
    c0 = coeffs.c21.real / re11
    return UnfoldingParams(
        eps1=eps1,
        eps2=eps2,
        b0=b0,
        c0=c0,
        c1_map=eps1 * np.array([coeffs.a11.real, coeffs.a12.real]),
        c2_map=eps1 * np.array([coeffs.a21.real, coeffs.a22.real]),
    )


def classify_unfolding(u: UnfoldingParams) -> str:
    """Case label from the signs of (d0, b0, c0, d0 - b0*c0); BoundaryCase
    when one is not finite (an int beyond float range included) or lies
    within ``_SIGN_TOL`` of zero."""
    key = []
    for name in ("d0", "b0", "c0", "det"):
        val = getattr(u, name)  # det is formed once b0 and c0 are finite
        if not abs(val) <= sys.float_info.max:  # NaN, inf, an int beyond it
            raise BoundaryCase(f"{name} = {val!r} is not finite")
        if abs(val) < _SIGN_TOL:
            raise BoundaryCase(f"{name} = {val:.3e} within {_SIGN_TOL} of zero")
        key.append(1 if val > 0 else -1)
    key = tuple(key)
    label = UNFOLDING_TABLE.get(key)
    if label is None:
        # sign pattern incompatible with det = d0 - b0*c0
        raise BoundaryCase(f"inconsistent sign pattern {key}")
    return label


def _ray_table(b0: float, c0: float) -> tuple:
    """The case-VIa rays L1..L8 of the scaled (c1, c2) plane as (name, d1,
    d2), one direction per ray, not normalized: L1/L7 run along +-c1, L2/L8
    along +-c2; with b0 > 0 > c0, L3 lies on c2 = c0*c1, L5, the interior-
    equilibrium Hopf ray, on c2 = (c0-1)/(b0+1)*c1 and L6 on c2 = -c1/b0,
    all with c2 > 0.  L4, the torus-destroying connection, is tangent to L5
    at the origin; its quadratic correction is not computed, so it repeats L5.
    """
    hopf_slope = (c0 - 1.0) / (b0 + 1.0)
    return (
        ("L1", 1.0, 0.0),
        ("L2", 0.0, 1.0),
        ("L3", -1.0, -c0),
        ("L4", -1.0, -hopf_slope),
        ("L5", -1.0, -hopf_slope),
        ("L6", -1.0, 1.0 / b0),
        ("L7", -1.0, 0.0),
        ("L8", 0.0, -1.0),
    )


def _c_rays(b0: float, c0: float) -> Tuple[Tuple[float, float], ...]:
    """Unit (c1, c2) directions of the rays of _ray_table, counterclockwise
    in case VIa; they depend on (b0, c0) alone."""
    return tuple(
        (d1 / math.hypot(d1, d2), d2 / math.hypot(d1, d2))
        for _, d1, d2 in _ray_table(b0, c0)
    )


def via_lines(u: UnfoldingParams) -> ViaLines:
    """The eight case-VIa bifurcation rays of _ray_table in the parameter
    plane; L4 carries the L5 slope and is flagged (tangent_correction_omitted).
    Each c-plane direction d maps to adj(A) d / copysign(|adj(A) d|, det A),
    A = [c1_map; c2_map], so the rays run clockwise exactly when det A < 0.
    Raises BoundaryCase where classify_unfolding does, WrongCase outside
    case VIa, ValueError for a map entry that is not finite, DegenerateCubic
    for a singular map.
    """
    case = classify_unfolding(u)
    if case != "VIa":
        raise WrongCase(f"bifurcation rays defined for case VIa, not {case}")
    p, q = (real("c1_map", v) for v in u.c1_map)
    r, s = (real("c2_map", v) for v in u.c2_map)
    det = p * s - q * r
    if det == 0.0:
        raise DegenerateCubic("parameter map is singular; rays undefined")
    lines = []
    for name, d1, d2 in _ray_table(u.b0, u.c0):
        a1, a2 = s * d1 - q * d2, p * d2 - r * d1
        nrm = math.copysign(math.hypot(a1, a2), det)
        a1, a2 = a1 / nrm, a2 / nrm
        if abs(a1) < 1e-14:
            slope, half = None, "alpha2>0" if a2 > 0 else "alpha2<0"
        else:
            slope, half = a2 / a1, "alpha1>0" if a1 > 0 else "alpha1<0"
        lines.append(ViaLine(name, slope, half, math.atan2(a2, a1), name == "L4"))
    return ViaLines(tuple(lines))


def region_of(alpha1: float, alpha2: float, lines: ViaLines) -> int:
    """Sector index 1..8 of a parameter point among the eight rays.

    Region i lies between rays L_{i-1} and L_i, with D1 between L8 and L1;
    rays that run clockwise (those of a parameter map with negative
    determinant) are read in their mirror image.  Raises OnBoundary within
    ``_RAY_TOL`` radians of a ray (the L4/L5 pair is tangent at the origin,
    so the linear-order D5 sector has zero width and maps to OnBoundary).
    Raises ValueError for a non-finite point, the origin, or rays in
    neither cyclic order.
    """
    alpha1, alpha2 = real("alpha1", alpha1), real("alpha2", alpha2)
    if alpha1 == 0.0 and alpha2 == 0.0:
        raise ValueError("region undefined at the origin")
    theta = math.atan2(alpha2, alpha1)
    angles = [ln.angle for ln in lines.lines]
    for ang in angles:
        d = abs((theta - ang + math.pi) % (2.0 * math.pi) - math.pi)
        if d < _RAY_TOL:
            raise OnBoundary(
                f"point at angle {theta:.8f} lies on a ray within {_RAY_TOL}")
    two_pi = 2.0 * math.pi
    for sign in (1.0, -1.0):  # the diagram, then its mirror image
        # work counterclockwise from L8 so the wrap sits inside D1
        base = sign * angles[7]
        delta = (sign * theta - base) % two_pi
        offsets = [(sign * a - base) % two_pi for a in angles[:7]] + [two_pi]
        # ties allowed: the tangent pair L4/L5 shares an angle (zero-width D5)
        if all(offsets[i] <= offsets[i + 1] + 1e-12 for i in range(7)):
            return next(i + 1 for i, off in enumerate(offsets) if delta < off)
    raise ValueError("rays are in neither cyclic order; regions undefined")
