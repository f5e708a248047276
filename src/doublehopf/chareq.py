"""Characteristic-equation analysis of the delayed van der Pol system.

The oscillator x'' + eps*(x^2 - 1)*x' + x = eps*k*theta(t) with geometric
feedback memory theta(t) = (1-mu)*x(t) + mu*theta(t-tau) is equivalent to a
neutral delay system in (x, y=x').  Linearized about the origin, nontrivial
solutions e^{lam*t} exist when

    lam^2 - mu*lam^2*e^{-lam*tau} - eps*lam + eps*mu*lam*e^{-lam*tau}
        - mu*e^{-lam*tau} + 1 - eps*k*(1-mu) = 0.

A pure-imaginary root lam = i*omega requires rho = omega^2 to be a root of
the real quadratic W(rho) = a*rho^2 + b*rho + c.  Under the gain bound (h1)
and positive discriminant (h2) there are exactly two admissible frequencies
omega_minus < omega_plus, each generating a ladder of critical delays
tau_j = tau_0 + 2*pi*j/omega.  This module computes those quantities, the
crossing direction of roots at each critical delay, the resulting stability
windows of the origin, and a numerical root finder for the characteristic
function used as an independent spectral oracle.

All frequencies and delays here are in the original (unrescaled) time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import DegenerateRoot, HypothesisViolated

__all__ = [
    "SystemParams",
    "WPoly",
    "HopfFrequencies",
    "HopfBranch",
    "StabilityWindows",
    "eval_char",
    "char_deriv",
    "w_poly",
    "gain_bound",
    "check_hypotheses",
    "hopf_frequencies",
    "tau_branch",
    "hopf_branch",
    "transversality_sign",
    "stability_windows",
    "rightmost_roots",
]


@dataclass(frozen=True)
class SystemParams:
    """The four scalars defining the delayed van der Pol system.

    epsilon : damping / feedback scale, > 0
    mu      : memory weight of the feedback, in (0, 1)
    k       : feedback gain
    tau     : delay, >= 0, original time units
    """

    epsilon: float
    mu: float
    k: float
    tau: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.mu < 1:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        if self.tau < 0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")


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


@dataclass(frozen=True)
class HopfBranch:
    """One ladder of critical delays tau_j = tau0 + j*period_step."""

    sign: str
    tau0: float
    period_step: float

    def tau(self, j: int) -> float:
        return self.tau0 + j * self.period_step


@dataclass(frozen=True)
class StabilityWindows:
    """Open delay intervals on which the origin is (linearly) stable.

    ``m`` is the window count; None when the first interval is already
    empty (origin unstable for every delay).
    """

    windows: Tuple[Tuple[float, float], ...] = field(default_factory=tuple)
    m: Optional[int] = None


def eval_char(lam: complex, p: SystemParams) -> complex:
    """Characteristic function of the linearized neutral system at ``lam``."""
    e = cmath.exp(-lam * p.tau)
    lam2 = lam * lam
    return (
        lam2
        - p.mu * lam2 * e
        - p.epsilon * lam
        + p.epsilon * p.mu * lam * e
        - p.mu * e
        + 1.0
        - p.epsilon * p.k * (1.0 - p.mu)
    )


def char_deriv(lam: complex, p: SystemParams) -> complex:
    """d/dlam of the characteristic function (used by the Newton root finder)."""
    e = cmath.exp(-lam * p.tau)
    mu, eps, tau = p.mu, p.epsilon, p.tau
    return (
        2.0 * lam
        - eps
        - mu * (2.0 * lam - tau * lam * lam) * e
        + eps * mu * (1.0 - tau * lam) * e
        + mu * tau * e
    )


def w_poly(epsilon: float, mu: float, k: float) -> WPoly:
    """Frequency quadratic for pure-imaginary characteristic roots."""
    a = 1.0 + mu
    b = 2.0 * epsilon * k - 2.0 * (1.0 + mu) + epsilon * epsilon * (1.0 + mu)
    c = epsilon * epsilon * k * k * (1.0 - mu) - 2.0 * epsilon * k + 1.0 + mu
    return WPoly(a, b, c)


def gain_bound(epsilon: float, mu: float) -> float:
    """Supremum min(1/eps, (1+mu)/eps - eps*(1+mu)/2) of the gains allowed by h1."""
    return min(
        1.0 / epsilon,
        (1.0 + mu) / epsilon - epsilon * (1.0 + mu) / 2.0,
    )


def check_hypotheses(epsilon: float, mu: float, k: float) -> dict:
    """Admissibility conditions for two positive Hopf frequencies.

    h1: the gain bound k < gain_bound(eps, mu), which forces c > 0 and
        b < 0 in the frequency quadratic.
    h2: positive discriminant b^2 - 4ac of the frequency quadratic.
    """
    h1 = k < gain_bound(epsilon, mu)
    h2 = w_poly(epsilon, mu, k).discriminant > 0.0
    return {"h1": bool(h1), "h2": bool(h2)}


def hopf_frequencies(epsilon: float, mu: float, k: float) -> HopfFrequencies:
    """The two positive frequencies omega_-+ = sqrt((-b -+ sqrt(b^2-4ac))/(2a)).

    Raises HypothesisViolated unless both admissibility conditions hold.
    """
    hyp = check_hypotheses(epsilon, mu, k)
    if not (hyp["h1"] and hyp["h2"]):
        raise HypothesisViolated(
            f"(epsilon={epsilon}, mu={mu}, k={k}) fails "
            f"h1={hyp['h1']}, h2={hyp['h2']}"
        )
    w = w_poly(epsilon, mu, k)
    sq = math.sqrt(w.discriminant)
    rho_minus = (-w.b - sq) / (2.0 * w.a)
    rho_plus = (-w.b + sq) / (2.0 * w.a)
    if rho_minus <= 0.0:
        # cannot occur under h1 (c > 0, b < 0), kept as a numerical guard
        raise HypothesisViolated("smaller quadratic root is not positive")
    return HopfFrequencies(math.sqrt(rho_minus), math.sqrt(rho_plus))


def _cos_sin_rhs(omega: float, epsilon: float, mu: float, k: float) -> Tuple[float, float]:
    """Right-hand sides for cos(omega*tau), sin(omega*tau) at a Hopf frequency."""
    p = mu * omega * omega - mu
    q = epsilon * mu * omega
    r = omega * omega - 1.0 + epsilon * k * (1.0 - mu)
    s = epsilon * omega
    den = p * p + q * q
    return (p * r + q * s) / den, (-p * s + q * r) / den


def _select_omega(epsilon: float, mu: float, k: float, sign: str) -> float:
    freqs = hopf_frequencies(epsilon, mu, k)
    if sign == "plus":
        return freqs.omega_plus
    if sign == "minus":
        return freqs.omega_minus
    raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


def tau_branch(epsilon: float, mu: float, k: float, sign: str, j: int = 0) -> float:
    """Critical delay tau_j on the given frequency branch.

    The base delay tau_0 is the unique solution of the cos/sin pair with
    omega*tau_0 in [0, 2*pi); the arccos branch is resolved by the sign of
    the sin right-hand side.  Higher rungs add 2*pi*j/omega.
    """
    if j < 0 or int(j) != j:
        raise ValueError(f"branch index j must be a nonnegative integer, got {j}")
    omega = _select_omega(epsilon, mu, k, sign)
    cos_v, sin_v = _cos_sin_rhs(omega, epsilon, mu, k)
    theta = math.acos(min(1.0, max(-1.0, cos_v)))
    if abs(math.sin(theta) - sin_v) > 1e-6:
        theta = 2.0 * math.pi - theta
    return (theta + 2.0 * math.pi * j) / omega


def hopf_branch(epsilon: float, mu: float, k: float, sign: str) -> HopfBranch:
    """Branch record bundling tau_0 with its rung spacing 2*pi/omega."""
    omega = _select_omega(epsilon, mu, k, sign)
    return HopfBranch(sign, tau_branch(epsilon, mu, k, sign, 0), 2.0 * math.pi / omega)


def transversality_sign(
    epsilon: float, mu: float, k: float, sign: str, tol: float = 1e-9
) -> int:
    """Sign of d(Re lam)/d(tau) at the branch's critical delays.

    Equals the sign of W'(rho) at rho = omega^2: +1 on the fast branch
    (roots cross rightward), -1 on the slow branch.
    """
    omega = _select_omega(epsilon, mu, k, sign)
    w = w_poly(epsilon, mu, k)
    d = w.deriv(omega * omega)
    if abs(d) < tol:
        raise DegenerateRoot(f"|W'({omega}^2)| = {abs(d)} below tolerance {tol}")
    return 1 if d > 0 else -1


def stability_windows(epsilon: float, mu: float, k: float) -> StabilityWindows:
    """Delay intervals (tau_j^-, tau_j^+) on which the origin is stable.

    The slow branch stabilizes and the fast branch destabilizes; windows
    accumulate while the ladders interlace, and stop at the first rung
    where the ordering fails.  Empty (m = None) when already tau_0^- >
    tau_0^+: the origin is then unstable for every delay.
    """
    windows: List[Tuple[float, float]] = []
    j = 0
    prev_hi = 0.0
    while True:
        lo = tau_branch(epsilon, mu, k, "minus", j)
        hi = tau_branch(epsilon, mu, k, "plus", j)
        if lo >= hi or (j > 0 and lo <= prev_hi):
            break
        windows.append((lo, hi))
        prev_hi = hi
        j += 1
    if not windows:
        return StabilityWindows((), None)
    return StabilityWindows(tuple(windows), len(windows))


def _eval_char_vec(z: np.ndarray, p: SystemParams) -> np.ndarray:
    e = np.exp(-z * p.tau)
    z2 = z * z
    return (
        z2
        - p.mu * z2 * e
        - p.epsilon * z
        + p.epsilon * p.mu * z * e
        - p.mu * e
        + 1.0
        - p.epsilon * p.k * (1.0 - p.mu)
    )


def _char_deriv_vec(z: np.ndarray, p: SystemParams) -> np.ndarray:
    e = np.exp(-z * p.tau)
    mu, eps, tau = p.mu, p.epsilon, p.tau
    return (
        2.0 * z
        - eps
        - mu * (2.0 * z - tau * z * z) * e
        + eps * mu * (1.0 - tau * z) * e
        + mu * tau * e
    )


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
        f = _eval_char_vec(z, p)
        df = _char_deriv_vec(z, p)
        safe = np.abs(df) > 1e-300
        step = np.zeros_like(z)
        step[safe] = f[safe] / df[safe]
        z = z - step
        np.nan_to_num(z, copy=False, nan=1e9, posinf=1e9, neginf=-1e9)

    resid = np.abs(_eval_char_vec(z, p))
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
