"""Locating double-Hopf points in the gain-delay plane.

The two critical-delay ladders tau_j^+(k) and tau_j^-(k) sweep curves in
the (k, tau) plane as the feedback gain varies.  Where a fast-branch curve
crosses a slow-branch curve the linearization carries two pure-imaginary
pairs simultaneously: a double-Hopf point.  It is found as a root of the
gap function g(k) = tau_jp^+(k) - tau_jm^-(k): a scan brackets it and
Illinois regula falsi narrows the bracket to adjacent floats.
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
) -> Tuple[HopfLadders, np.ndarray]:
    """The ladders at every gain of ks and the delay gap tau_{j_plus}^+ -
    tau_{j_minus}^- there; raises HypothesisViolated at the first
    inadmissible gain."""
    lad = hopf_ladders(epsilon, mu, ks)
    lad.require_admissible()
    return lad, lad.tau("plus", j_plus) - lad.tau("minus", j_minus)


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
    bound of h1 (chareq.gain_bound).  The bracket is then scanned on 400
    points for a sign change of the delay gap, and the first scan interval
    with one is narrowed by Illinois regula falsi steps (Dowell & Jarratt,
    BIT 11, 1971), with a bisection step wherever the bracket has not
    halved over the two steps before, until the gap is 0 or the ends are
    adjacent floats.  k0 is the end with the smaller |gap|.  Raises
    ValueError for a ladder index that is not a nonnegative integer, a
    non-finite k_lo or k_lo >= k_hi, NoSignChange when the gap has
    constant sign on the bracket,
    HypothesisViolated when the clipped bracket is empty or a scanned gain
    still fails h2.  Every gain is one ``hopf_ladders`` call: the scan one
    call of 400 gains and each step one call of one gain, and tau0 and the
    frequencies are read from the ladders of the call at k0, so they are
    the bits of ``tau_branch`` and ``hopf_frequencies``.
    """
    _check_rung(j_plus)
    _check_rung(j_minus)
    if not math.isfinite(k_lo):
        raise ValueError(f"k_lo must be finite, got {k_lo!r}")
    if not k_lo < k_hi:
        raise ValueError("need k_lo < k_hi")
    k_max = math.nextafter(gain_bound(epsilon, mu), -math.inf)
    k_hi = min(k_hi, k_max)
    if not k_lo < k_hi:
        raise HypothesisViolated(
            f"gain bracket starts at {k_lo}, beyond the h1 bound {k_max!r}"
        )

    # the min only touches a point that would round onto the bound itself
    ks = np.minimum(
        k_lo + (k_hi - k_lo) * np.arange(_SCAN_POINTS) / (_SCAN_POINTS - 1), k_max
    )
    lad, gaps = _gaps(epsilon, mu, ks, j_plus, j_minus)
    # first scan interval with a zero at its left end or a sign change
    hits = np.flatnonzero((gaps[:-1] == 0.0) | (gaps[:-1] * gaps[1:] < 0.0))
    if not len(hits):
        raise NoSignChange(
            f"delay gap has no sign change on [{k_lo}, {k_hi}] for "
            f"branches (+,{j_plus}) / (-,{j_minus})"
        )
    i = hits[0]
    # the ends (gain, gap, its ladders, its index there): b the latest step,
    # a the other end, whose gap the Illinois rule weighs as fa
    a, b = ((float(ks[j]), float(gaps[j]), lad, j) for j in (i, i + 1))
    fa, widths = a[1], [math.inf, math.inf]
    while a[1] != 0.0 and b[1] != 0.0:
        lo, hi = sorted((a[0], b[0]))
        if math.nextafter(lo, hi) == hi:
            break
        widths.append(hi - lo)
        if widths[-1] > 0.5 * widths[-3]:
            k = 0.5 * (lo + hi)
        else:
            k = b[0] - b[1] * (b[0] - a[0]) / (b[1] - fa)
        # a step that rounds onto an end moves one float inside it
        k = min(max(k, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        lad, g = _gaps(epsilon, mu, np.array([k]), j_plus, j_minus)
        if (g[0] < 0.0) != (b[1] < 0.0):
            a, fa = b, b[1]
        else:
            fa *= 0.5
        b = (k, float(g[0]), lad, 0)
    k0, _, lad, i = min(b, a, key=lambda end: abs(end[1]))
    return HopfHopfPoint(
        epsilon, mu, k0, lad.tau("plus", j_plus)[i].item(),
        lad.omega["minus"][i].item(), lad.omega["plus"][i].item(), j_plus, j_minus,
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
    for an instance SystemParams forbids or a j_max that is not a
    nonnegative integer.
    """
    _check_instance(epsilon, mu)
    _check_rung(j_max, "j_max")
    if not isinstance(k_values, np.ndarray):
        k_values = list(k_values)
    return HopfCurveTable(hopf_ladders(epsilon, mu, k_values), int(j_max))
