"""Locating double-Hopf points in the gain-delay plane.

The two critical-delay ladders tau_j^+(k) and tau_j^-(k) sweep curves in
the (k, tau) plane as the feedback gain varies.  Where a fast-branch curve
crosses a slow-branch curve the linearization carries two pure-imaginary
pairs simultaneously: a double-Hopf point.  It is found as a root of the
gap function g(k) = tau_jp^+(k) - tau_jm^-(k) by scan-and-bisect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple, Tuple

import numpy as np

from .chareq import (
    HopfLadders,
    SystemParams,
    _check_instance,
    _check_rung,
    gain_bound,
    hopf_ladders,
    tau_branch,  # not called here; perfbench/tracing.py counts calls through this name
)
from .errors import HypothesisViolated, NoSignChange

__all__ = [
    "HopfHopfPoint",
    "CurveRow",
    "HopfCurveTable",
    "find_hopf_hopf",
    "resonance_check",
    "scan_hopf_curves",
]

_SCAN_POINTS = 400
_GAP_TOL = 1e-10
# floats under the h1 bound searched for the highest gain with ladders
_TOP_ULPS = 64


@dataclass(frozen=True)
class HopfHopfPoint:
    """Critical gain and delay where two Hopf curves of one instance intersect.

    epsilon and mu are the instance the point was found for; they have no
    default, so every consumer reads the instance from the point.  omega1 <
    omega2 are the slow/fast frequencies at k0; j_plus and j_minus are the
    ladder indices of the intersecting curves.
    """

    epsilon: float
    mu: float
    k0: float
    tau0: float
    omega1: float
    omega2: float
    j_plus: int
    j_minus: int

    def params(self, alpha1: float = 0.0, alpha2: float = 0.0) -> SystemParams:
        """The system at the offset (alpha1, alpha2) from the point:
        k = k0 + alpha1 and tau = tau0 + alpha2 of the point's instance."""
        return SystemParams(self.epsilon, self.mu, self.k0 + alpha1, self.tau0 + alpha2)


class CurveRow(NamedTuple):
    """One point (k, tau) of the curve tau_j^{branch_sign}, with its frequency."""

    branch_sign: str
    j: int
    k: float
    tau: float
    omega: float


@dataclass(frozen=True, eq=False)
class HopfCurveTable:
    """The curves tau_j^{+-}(k), j = 0..j_max, over a gain grid, as columns.

    ``ladders`` holds both ladders at every gain of the grid, in input
    order.  ``curves`` gives the columns of each curve and ``rows`` the
    same table row by row, both ordered by (j, branch sign, k in input
    order); ``skipped_k`` are the inadmissible gains, in input order.
    """

    ladders: HopfLadders
    j_max: int

    @property
    def skipped_k(self) -> Tuple[float, ...]:
        return tuple(self.ladders.k[~self.ladders.admissible].tolist())

    def curves(self) -> Iterator[Tuple[str, int, np.ndarray, np.ndarray, np.ndarray]]:
        """(branch sign, j, k, tau, omega) of each curve, the last three arrays."""
        lad = self.ladders
        ok = lad.admissible
        k = lad.k[ok]
        for j in range(self.j_max + 1):
            for sign in ("minus", "plus"):
                yield sign, j, k, lad.tau(sign, j)[ok], lad.omega[sign][ok]

    @property
    def rows(self) -> Tuple[CurveRow, ...]:
        return tuple(chain.from_iterable(
            map(CurveRow._make,
                zip(repeat(sign), repeat(j), *(c.tolist() for c in cols)))
            for sign, j, *cols in self.curves()
        ))


def _gaps(
    epsilon: float, mu: float, ks: np.ndarray, j_plus: int, j_minus: int
) -> np.ndarray:
    """Delay gap tau_{j_plus}^+ - tau_{j_minus}^- at every gain of ks, in one
    evaluation; raises HypothesisViolated at the first inadmissible gain."""
    lad = hopf_ladders(epsilon, mu, ks)
    lad.require_admissible()
    return lad.tau("plus", j_plus) - lad.tau("minus", j_minus)


def _top_gain(epsilon: float, mu: float, k_max: float) -> float:
    """Where the scan of a bracket that reaches the h1 bound ends.

    k_max is the largest float under the bound.  When the 1/eps term sets
    the bound, c(1/eps) = 0, and on the floats just under it the smaller
    root of the frequency quadratic rounds to zero although h1 and h2 hold.
    Returns the first of the _TOP_ULPS floats from k_max down that is not
    such a gain (it is admissible or fails h2), or k_max when all are.
    """
    ks = [k_max]
    for _ in range(_TOP_ULPS - 1):
        ks.append(math.nextafter(ks[-1], -math.inf))
    lad = hopf_ladders(epsilon, mu, ks)
    rounded = lad.h1 & lad.h2 & ~lad.admissible
    return ks[int(np.argmin(rounded))]


def find_hopf_hopf(
    epsilon: float,
    mu: float,
    j_plus: int,
    j_minus: int,
    k_lo: float,
    k_hi: float,
) -> HopfHopfPoint:
    """Intersection of the tau_{j_plus}^+ and tau_{j_minus}^- curves in [k_lo, k_hi].

    k_hi is first clipped to the largest float below the closed-form gain
    bound of h1 (chareq.gain_bound); where the smaller frequency rounds to
    zero there, to the highest gain under the bound whose ladders exist
    (_top_gain).  The bracket is then scanned on 400 points for a sign
    change of the delay gap and bisected until |gap| < 1e-10.  Raises
    ValueError for a ladder index that is not a nonnegative integer,
    NoSignChange when the gap has constant sign on the bracket,
    HypothesisViolated when the clipped bracket is empty or a scanned gain
    still fails h2.  Every gain is one ``hopf_ladders`` call: the scan one
    call of 400 gains, each bisection gain a call of one, and tau0 and the
    frequencies come from one more at k0 (a bracket that reaches the bound
    takes one more, of the _TOP_ULPS gains under it).  All give the bits
    of ``tau_branch`` and ``hopf_frequencies``.
    """
    _check_rung(j_plus)
    _check_rung(j_minus)
    if not k_lo < k_hi:
        raise ValueError("need k_lo < k_hi")
    k_max = math.nextafter(gain_bound(epsilon, mu), -math.inf)
    if k_hi >= k_max:
        k_max = _top_gain(epsilon, mu, k_max)
    k_hi = min(k_hi, k_max)
    if not k_lo < k_hi:
        raise HypothesisViolated(
            f"gain bracket starts at {k_lo}, beyond the h1 bound {k_max!r}"
        )

    # the min only touches a point that would round onto the bound itself
    ks = np.minimum(
        k_lo + (k_hi - k_lo) * np.arange(_SCAN_POINTS) / (_SCAN_POINTS - 1), k_max
    )
    gaps = _gaps(epsilon, mu, ks, j_plus, j_minus)
    # first scan interval with a zero at its left end or a sign change
    hits = np.flatnonzero((gaps[:-1] == 0.0) | (gaps[:-1] * gaps[1:] < 0.0))
    if not len(hits):
        raise NoSignChange(
            f"delay gap has no sign change on [{k_lo}, {k_hi}] for "
            f"branches (+,{j_plus}) / (-,{j_minus})"
        )
    i = hits[0]
    lo, g_lo = float(ks[i]), float(gaps[i])
    hi = lo if g_lo == 0.0 else float(ks[i + 1])
    k0 = 0.5 * (lo + hi)
    for _ in range(200):
        k0 = 0.5 * (lo + hi)
        g_mid = _gaps(epsilon, mu, np.array([k0]), j_plus, j_minus).item()
        if abs(g_mid) < _GAP_TOL:
            break
        if g_lo * g_mid <= 0.0:
            hi = k0
        else:
            lo, g_lo = k0, g_mid

    # admissible: the last bisection gain was k0 itself
    lad = hopf_ladders(epsilon, mu, k0)
    return HopfHopfPoint(
        epsilon, mu, k0, lad.tau("plus", j_plus).item(),
        lad.omega["minus"].item(), lad.omega["plus"].item(), j_plus, j_minus,
    )


def resonance_check(omega1: float, omega2: float, tol: float = 1e-3) -> dict:
    """Test the frequency ratio against the low-order resonances 1:2 and 1:3.

    Returns nonresonant (true iff the ratio omega1/omega2 is farther than
    ``tol`` from both 1/2 and 1/3), the closer of the two ratios, and the
    ratio itself.  A NaN or negative ``tol`` raises ValueError.
    """
    if not 0 < omega1 < omega2:
        raise ValueError("need 0 < omega1 < omega2")
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    ratio = float(omega1 / omega2)
    d2 = abs(ratio - 0.5)
    d3 = abs(ratio - 1.0 / 3.0)
    return {
        "nonresonant": bool(d2 > tol and d3 > tol),
        "nearest_ratio": (1, 2) if d2 <= d3 else (1, 3),
        "ratio": ratio,
    }


def scan_hopf_curves(
    epsilon: float,
    mu: float,
    k_values: Iterable[float],
    j_max: int,
) -> HopfCurveTable:
    """Tabulate tau_j^{+-}(k) over a gain grid for plotting the Hopf curves.

    The whole grid is evaluated in one ``hopf_ladders`` call, which gives
    every row the bits of ``tau_branch`` and ``hopf_frequencies`` at its
    gain.
    Gains failing the admissibility conditions are skipped and reported in
    ``skipped_k``.  The table stores the grid's ladders, not its rows: rows
    are formed when read.  Raises ValueError, before any gain is examined,
    for an instance SystemParams forbids or j_max < 0.
    """
    _check_instance(epsilon, mu)
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    if not isinstance(k_values, np.ndarray):
        k_values = list(k_values)
    return HopfCurveTable(hopf_ladders(epsilon, mu, k_values), j_max)
