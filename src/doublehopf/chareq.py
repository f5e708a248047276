"""Characteristic-equation analysis of the delayed van der Pol system.

The oscillator x'' + eps*(x^2 - 1)*x' + x = eps*k*theta(t) with geometric
feedback memory theta(t) = (1-mu)*x(t) + mu*theta(t-tau) is equivalent to a
neutral delay system in (x, y=x').  Linearized about the origin, nontrivial
solutions e^{lam*t} exist when

    Delta(lam) = lam^2 - mu*lam^2*e^{-lam*tau} - eps*lam + eps*mu*lam*e^{-lam*tau}
                 - mu*e^{-lam*tau} + 1 - eps*k*(1-mu) = 0.

``eval_char`` and ``char_deriv`` are the one implementation of Delta and
Delta'; both take a complex scalar or a numpy array.  The Newton root
finder, the Hopf residual oracles and the eigenbasis normalizers of
``normalform`` all evaluate them.

A pure-imaginary root lam = i*omega requires rho = omega^2 to be a root of
the real quadratic W(rho) = a*rho^2 + b*rho + c.  Under the gain bound (h1)
and positive discriminant (h2) there are exactly two admissible frequencies
omega_minus < omega_plus, each the base of a ladder of critical delays
tau_j = tau_0 + j*2*pi/omega; every critical delay in the package is a rung
of such a ladder.  ``hopf_ladders`` is the one evaluator and the one ladder
type: it works on an array of gains, and ``hopf_frequencies``,
``tau_branch``, ``transversality_sign`` and ``stability_windows`` each read
one 1-element call of it, so a gain scanned in an array gets the bits of
the scalar call.
Its arithmetic is numpy's elementwise +, -, *, /, sqrt and Python-semantics
%, which round as Python floats do; only the angle atan2(sin, cos) is
taken per element with ``math.atan2``, because ``np.arctan2``'s vectorized
loop can differ from it in the last bit.  This module also gives the
crossing direction of roots at each critical delay and the resulting
stability windows of the origin.

All frequencies and delays here are in the original (unrescaled) time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DegenerateRoot, HypothesisViolated

__all__ = [
    "SystemParams",
    "WPoly",
    "HopfFrequencies",
    "HopfLadders",
    "StabilityWindows",
    "eval_char",
    "char_deriv",
    "w_poly",
    "gain_bound",
    "hopf_ladders",
    "hopf_frequencies",
    "tau_branch",
    "transversality_sign",
    "stability_windows",
    "rightmost_roots",
]

_TRANSVERSALITY_TOL = 1e-9  # transversality_sign's bound on |W'(omega^2)|


def _check_instance(epsilon: float, mu: float) -> None:
    """epsilon > 0 and 0 < mu < 1, NaN rejected; raises ValueError."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < mu < 1:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")


class _ValueEq:
    """Dataclass equality by value: every field equal, arrays compared by
    np.array_equal, where a generated __eq__ would ask an array for its
    truth value and raise.  A subclass is a dataclass with eq=False, and
    unhashable."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True)
class SystemParams:
    """The four scalars defining the delayed van der Pol system.

    epsilon : damping / feedback scale, > 0
    mu      : memory weight of the feedback, in (0, 1)
    k       : feedback gain, finite
    tau     : delay, finite and >= 0, original time units
    """

    epsilon: float
    mu: float
    k: float
    tau: float

    def __post_init__(self):
        _check_instance(self.epsilon, self.mu)
        if not math.isfinite(self.k):
            raise ValueError(f"k must be finite, got {self.k}")
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau}")


@dataclass(frozen=True)
class WPoly:
    """Quadratic a*rho^2 + b*rho + c whose roots are squared Hopf frequencies."""

    a: float
    b: float
    c: float

    def __call__(self, rho: float) -> float:
        return (self.a * rho + self.b) * rho + self.c

    def deriv(self, rho: float) -> float:
        return 2.0 * self.a * rho + self.b

    @property
    def discriminant(self) -> float:
        return self.b * self.b - 4.0 * self.a * self.c


@dataclass(frozen=True)
class HopfFrequencies:
    """The two positive frequencies, omega_minus < omega_plus (rad per unit time)."""

    omega_minus: float
    omega_plus: float


def _check_rung(j: int, name: str = "branch index j") -> None:
    """j is a ladder index, a nonnegative integer; raises ValueError naming it."""
    if not (j >= 0 and j % 1 == 0):  # NaN and inf fail it too
        raise ValueError(f"{name} must be a nonnegative integer, got {j}")


def _check_sign(sign: str) -> None:
    """sign names a branch, 'plus' or 'minus'; raises ValueError."""
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


@dataclass(frozen=True, eq=False)
class HopfLadders:
    """Both ladders of critical delays at every gain of a 1-D array ``k``.

    Elementwise: ``h1`` is the gain bound k < gain_bound(eps, mu), which
    forces c > 0 and b < 0 in the frequency quadratic; ``h2`` is its
    positive discriminant b^2 - 4ac; ``admissible`` is h1 & h2, since then
    both frequencies are positive up to the largest float under the bound:
    a float k below fl(1/eps) has eps*k < 1 exactly, so both factors of the
    computed c (see w_poly) and rho_minus = 2c/(sqrt(disc) - b) are
    positive.  ``omega`` and ``tau0`` map each branch sign to its
    frequencies and base delays (omega*tau0 in [0, 2*pi)); they are NaN on
    inadmissible gains.
    """

    epsilon: float
    mu: float
    k: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    omega: Dict[str, np.ndarray]
    tau0: Dict[str, np.ndarray]

    @property
    def admissible(self) -> np.ndarray:
        return self.h1 & self.h2

    def tau(self, sign: str, j: int) -> np.ndarray:
        """Critical delays tau_j of the branch at every gain."""
        return self.tau0[sign] + j * (2.0 * math.pi / self.omega[sign])

    def require_admissible(self) -> None:
        """Raise HypothesisViolated at the first inadmissible gain, if any."""
        ok = self.admissible
        if not ok.all():
            i = np.flatnonzero(~ok)[0]
            raise HypothesisViolated(
                f"(epsilon={self.epsilon}, mu={self.mu}, k={self.k[i].item()}) "
                f"fails h1={bool(self.h1[i])}, h2={bool(self.h2[i])}")


@dataclass(frozen=True)
class StabilityWindows:
    """Open delay intervals on which the origin is (linearly) stable."""

    windows: Tuple[Tuple[float, float], ...] = ()

    @property
    def m(self) -> Optional[int]:
        """The window count; None when there is no window (origin unstable
        for every delay)."""
        return len(self.windows) or None


def eval_char(lam, p: SystemParams):
    """Characteristic function Delta(lam) of the linearized neutral system.

    ``lam`` is a complex scalar or a numpy array.  A scalar is evaluated as
    a 1-element contiguous array, so it runs through the same vectorized
    numpy loops as an array's elements and gets the same bits.
    """
    z = np.ascontiguousarray(lam, dtype=complex)
    e = np.exp(-z * p.tau)
    z2 = z * z
    val = (
        z2
        - p.mu * z2 * e
        - p.epsilon * z
        + p.epsilon * p.mu * z * e
        - p.mu * e
        + 1.0
        - p.epsilon * p.k * (1.0 - p.mu)
    )
    return val if np.ndim(lam) else val[0]


def char_deriv(lam, p: SystemParams):
    """Derivative Delta'(lam), for the same arguments as ``eval_char``."""
    z = np.ascontiguousarray(lam, dtype=complex)
    e = np.exp(-z * p.tau)
    mu, eps, tau = p.mu, p.epsilon, p.tau
    val = (
        2.0 * z
        - eps
        - mu * (2.0 * z - tau * z * z) * e
        + eps * mu * (1.0 - tau * z) * e
        + mu * tau * e
    )
    return val if np.ndim(lam) else val[0]


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _two_product(x, y):
    """(hi, lo) with hi = fl(x*y) and hi + lo = x*y exactly, elementwise:
    Dekker's product (Numer. Math. 18, 1971) with Veltkamp's split, exact
    barring overflow and underflow."""
    hi = x * y
    cx, cy = _SPLIT * x, _SPLIT * y
    xh, yh = cx - (cx - x), cy - (cy - y)
    xl, yl = x - xh, y - yh
    return hi, xl * yl - (((hi - xh * yh) - xl * yh) - xh * yl)


def w_poly(epsilon: float, mu: float, k: float) -> WPoly:
    """Frequency quadratic for pure-imaginary characteristic roots.

    c = (1 - eps*k)*(1 + mu - eps*k*(1 - mu)) is u*(2*mu + (1 - mu)*u), with
    u = 1 - eps*k rounded once from the exact eps*k, so it keeps its
    relative precision as it vanishes at k = 1/eps.  Elementwise in k: an
    array of gains gives a WPoly of arrays."""
    a = 1.0 + mu
    b = 2.0 * epsilon * k - 2.0 * (1.0 + mu) + epsilon * epsilon * (1.0 + mu)
    p_hi, p_lo = _two_product(epsilon, k)
    u = (1.0 - p_hi) - p_lo
    return WPoly(a, b, u * (2.0 * mu + (1.0 - mu) * u))


def gain_bound(epsilon: float, mu: float) -> float:
    """Supremum min(1/eps, (1+mu)/eps - eps*(1+mu)/2) of the gains allowed by h1.

    Raises ValueError unless (epsilon, mu) is an instance SystemParams allows.
    """
    _check_instance(epsilon, mu)
    return min(
        1.0 / epsilon,
        (1.0 + mu) / epsilon - epsilon * (1.0 + mu) / 2.0,
    )


def _cos_sin_rhs(omega, epsilon: float, mu: float, k):
    """Right-hand sides for cos(omega*tau), sin(omega*tau) at a Hopf frequency.

    Elementwise in omega and k."""
    p = mu * omega * omega - mu
    q = epsilon * mu * omega
    r = omega * omega - 1.0 + epsilon * k * (1.0 - mu)
    s = epsilon * omega
    den = p * p + q * q
    return (p * r + q * s) / den, (-p * s + q * r) / den


def hopf_ladders(epsilon: float, mu: float, ks) -> HopfLadders:
    """Both Hopf ladders at every gain of ``ks`` (a scalar is a 1-element array).

    The frequencies are omega_-+ = sqrt(rho_-+), the roots rho_- = 2c/t and
    rho_+ = t/(2a), t = -b + sqrt(b^2-4ac), of the frequency quadratic, in
    forms without cancellation; each base delay tau_0 solves the cos/sin
    pair with omega*tau_0 = atan2(sin, cos) mod 2*pi.  Raises ValueError
    unless (epsilon, mu) is an instance SystemParams allows; inadmissible
    gains are only masked.
    """
    k = np.array(ks, dtype=float, ndmin=1)
    # inadmissible gains (NaN, +-inf, h2 failing) make NaN here, masked below
    with np.errstate(all="ignore"):
        h1 = k < gain_bound(epsilon, mu)
        w = w_poly(epsilon, mu, k)
        disc = w.discriminant
        h2 = disc > 0.0
        t = np.sqrt(disc) - w.b
        # row 0 the slow ("minus") branch, row 1 the fast ("plus") branch
        omega = np.sqrt(np.stack([2.0 * w.c / t, t / (2.0 * w.a)]))
    ok = h1 & h2
    om = omega[:, ok]
    cos_v, sin_v = _cos_sin_rhs(om, epsilon, mu, k[ok])
    theta = np.fromiter(
        map(math.atan2, sin_v.ravel().tolist(), cos_v.ravel().tolist()), float, om.size
    ).reshape(om.shape) % (2.0 * math.pi)
    tau0 = np.full_like(omega, np.nan)
    tau0[:, ok] = theta / om
    omega[:, ~ok] = np.nan
    return HopfLadders(
        epsilon, mu, k, h1, h2,
        {"minus": omega[0], "plus": omega[1]},
        {"minus": tau0[0], "plus": tau0[1]},
    )


def hopf_frequencies(epsilon: float, mu: float, k: float) -> HopfFrequencies:
    """The two positive frequencies omega_- < omega_+ at gain k.

    Raises HypothesisViolated unless both admissibility conditions hold.
    """
    lad = hopf_ladders(epsilon, mu, k)
    lad.require_admissible()
    return HopfFrequencies(lad.omega["minus"].item(), lad.omega["plus"].item())


def tau_branch(epsilon: float, mu: float, k: float, sign: str, j: int = 0) -> float:
    """Critical delay tau_j on the fast ('plus') or slow ('minus') branch at gain k.

    Raises ValueError for a ladder index that is not a nonnegative integer
    or an unknown sign, and HypothesisViolated outside the admissible
    region.
    """
    _check_rung(j)
    _check_sign(sign)
    lad = hopf_ladders(epsilon, mu, k)
    lad.require_admissible()
    return lad.tau(sign, j).item()


def transversality_sign(epsilon: float, mu: float, k: float, sign: str) -> int:
    """Sign of d(Re lam)/d(tau) at the branch's critical delays.

    Equals the sign of W'(rho) at rho = omega^2: +1 on the fast branch
    (roots cross rightward), -1 on the slow branch; DegenerateRoot when
    |W'| < ``_TRANSVERSALITY_TOL``.
    """
    _check_sign(sign)
    lad = hopf_ladders(epsilon, mu, k)
    lad.require_admissible()
    omega = lad.omega[sign].item()
    d = w_poly(epsilon, mu, k).deriv(omega * omega)
    if abs(d) < _TRANSVERSALITY_TOL:
        raise DegenerateRoot(
            f"|W'({omega}^2)| = {abs(d)} below tolerance {_TRANSVERSALITY_TOL}")
    return 1 if d > 0 else -1


def stability_windows(epsilon: float, mu: float, k: float) -> StabilityWindows:
    """Delay intervals (tau_j^-, tau_j^+) on which the origin is stable.

    The slow branch stabilizes and the fast branch destabilizes; windows
    accumulate while the ladders interlace, and stop at the first rung
    where the ordering fails.  Empty (m = None) when already tau_0^- >
    tau_0^+: the origin is then unstable for every delay.
    """
    lad = hopf_ladders(epsilon, mu, k)
    lad.require_admissible()
    windows: List[Tuple[float, float]] = []
    j = 0
    prev_hi = 0.0
    while True:
        lo, hi = lad.tau("minus", j).item(), lad.tau("plus", j).item()
        if lo >= hi or (j > 0 and lo <= prev_hi):
            break
        windows.append((lo, hi))
        prev_hi = hi
        j += 1
    return StabilityWindows(tuple(windows))


def rightmost_roots(
    p: SystemParams,
    re_min: float,
    re_max: float,
    im_max: float,
    grid_n: int = 24,
) -> List[complex]:
    """Characteristic roots inside [re_min, re_max] x [0, im_max].

    Newton iteration (60 steps, residual 1e-12) seeded on a grid_n x grid_n
    grid; non-convergent seeds are dropped and converged roots deduplicated
    at radius 1e-7.  Returned sorted by descending real part.  The root set
    of the full equation is closed under conjugation, so the lower half
    plane carries no extra information.

    The search gives numerical evidence only: no argument-principle count
    certifies completeness, and near the essential-spectrum abscissa
    log(mu)/tau (a vertical accumulation line of the neutral part when
    tau > 0) Newton may fail to converge at desk grid resolutions.
    """
    if not re_min < re_max:
        raise ValueError("re_min must be < re_max")
    if not im_max > 0:
        raise ValueError("im_max must be positive")
    if grid_n < 4:
        raise ValueError("grid_n must be >= 4")

    res = np.linspace(re_min, re_max, grid_n)
    ims = np.linspace(0.0, im_max, grid_n)
    z = (res[:, None] + 1j * ims[None, :]).ravel().astype(complex)
    for _ in range(60):
        f = eval_char(z, p)
        df = char_deriv(z, p)
        safe = np.abs(df) > 1e-300
        step = np.zeros_like(z)
        step[safe] = f[safe] / df[safe]
        z = z - step
        np.nan_to_num(z, copy=False, nan=1e9, posinf=1e9, neginf=-1e9)

    resid = np.abs(eval_char(z, p))
    ok = (
        (resid < 1e-12)
        & (z.real >= re_min - 1e-12)
        & (z.real <= re_max + 1e-12)
        & (z.imag >= -1e-9)
        & (z.imag <= im_max + 1e-12)
    )
    roots: List[complex] = []
    for zz in z[ok]:
        if abs(zz.imag) < 1e-9:
            zz = complex(zz.real, 0.0)
        if all(abs(zz - r) > 1e-7 for r in roots):
            roots.append(complex(zz))
    roots.sort(key=lambda r: (-r.real, r.imag))
    return roots
