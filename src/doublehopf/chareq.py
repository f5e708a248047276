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
omega_minus < omega_plus.  ``hopf_branch`` turns each into a ladder of
critical delays tau_j = tau_0 + j*2*pi/omega (a ``HopfBranch``); every
critical delay in the package is a rung of such a ladder.  This module also
gives the crossing direction of roots at each critical delay and the
resulting stability windows of the origin.

All frequencies and delays here are in the original (unrescaled) time.
"""

from __future__ import annotations

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


def _check_instance(epsilon: float, mu: float) -> None:
    """epsilon > 0 and 0 < mu < 1, NaN rejected; raises ValueError."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < mu < 1:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")


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


@dataclass(frozen=True)
class HopfBranch:
    """One ladder of critical delays tau_j = tau0 + j*period_step.

    ``omega`` is the branch frequency and omega*tau0 lies in [0, 2*pi).
    """

    sign: str
    omega: float
    tau0: float

    @property
    def period_step(self) -> float:
        return 2.0 * math.pi / self.omega

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


def w_poly(epsilon: float, mu: float, k: float) -> WPoly:
    """Frequency quadratic for pure-imaginary characteristic roots."""
    a = 1.0 + mu
    b = 2.0 * epsilon * k - 2.0 * (1.0 + mu) + epsilon * epsilon * (1.0 + mu)
    c = epsilon * epsilon * k * k * (1.0 - mu) - 2.0 * epsilon * k + 1.0 + mu
    return WPoly(a, b, c)


def gain_bound(epsilon: float, mu: float) -> float:
    """Supremum min(1/eps, (1+mu)/eps - eps*(1+mu)/2) of the gains allowed by h1.

    Raises ValueError unless (epsilon, mu) is an instance SystemParams allows.
    """
    _check_instance(epsilon, mu)
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


def hopf_branch(epsilon: float, mu: float, k: float, sign: str) -> HopfBranch:
    """Ladder of critical delays on the fast ('plus') or slow ('minus') branch.

    The base delay tau_0 is the unique solution of the cos/sin pair with
    omega*tau_0 = atan2(sin, cos) mod 2*pi, in [0, 2*pi).  Raises
    ValueError for an unknown sign and HypothesisViolated outside the
    admissible region.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    freqs = hopf_frequencies(epsilon, mu, k)
    omega = freqs.omega_plus if sign == "plus" else freqs.omega_minus
    cos_v, sin_v = _cos_sin_rhs(omega, epsilon, mu, k)
    theta = math.atan2(sin_v, cos_v) % (2.0 * math.pi)
    return HopfBranch(sign, omega, theta / omega)


def tau_branch(epsilon: float, mu: float, k: float, sign: str, j: int = 0) -> float:
    """Critical delay tau_j = hopf_branch(...).tau(j) on the given branch."""
    if j < 0 or int(j) != j:
        raise ValueError(f"branch index j must be a nonnegative integer, got {j}")
    return hopf_branch(epsilon, mu, k, sign).tau(j)


def transversality_sign(
    epsilon: float, mu: float, k: float, sign: str, tol: float = 1e-9
) -> int:
    """Sign of d(Re lam)/d(tau) at the branch's critical delays.

    Equals the sign of W'(rho) at rho = omega^2: +1 on the fast branch
    (roots cross rightward), -1 on the slow branch.
    """
    omega = hopf_branch(epsilon, mu, k, sign).omega
    d = w_poly(epsilon, mu, k).deriv(omega * omega)
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
    slow = hopf_branch(epsilon, mu, k, "minus")
    fast = hopf_branch(epsilon, mu, k, "plus")
    windows: List[Tuple[float, float]] = []
    j = 0
    prev_hi = 0.0
    while True:
        lo, hi = slow.tau(j), fast.tau(j)
        if lo >= hi or (j > 0 and lo <= prev_hi):
            break
        windows.append((lo, hi))
        prev_hi = hi
        j += 1
    if not windows:
        return StabilityWindows((), None)
    return StabilityWindows(tuple(windows), len(windows))


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
