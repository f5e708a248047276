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
from typing import Iterable, List, Tuple

from .chareq import _check_instance, gain_bound, hopf_branch, hopf_frequencies, tau_branch
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


@dataclass(frozen=True)
class HopfHopfPoint:
    """Critical gain and delay where two Hopf curves intersect.

    omega1 < omega2 are the slow/fast frequencies at k0; j_plus and j_minus
    are the ladder indices of the intersecting curves.
    """

    k0: float
    tau0: float
    omega1: float
    omega2: float
    j_plus: int
    j_minus: int


@dataclass(frozen=True)
class CurveRow:
    branch_sign: str
    j: int
    k: float
    tau: float
    omega: float


@dataclass(frozen=True)
class HopfCurveTable:
    rows: Tuple[CurveRow, ...]
    skipped_k: Tuple[float, ...]


def _gap(epsilon: float, mu: float, k: float, j_plus: int, j_minus: int) -> float:
    return tau_branch(epsilon, mu, k, "plus", j_plus) - tau_branch(
        epsilon, mu, k, "minus", j_minus
    )


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
    points for a sign change of the delay gap and bisected until
    |gap| < 1e-10.  Raises NoSignChange when the gap has constant sign on
    the bracket, HypothesisViolated when the clipped bracket is empty or a
    scanned gain still fails h2.
    """
    if not k_lo < k_hi:
        raise ValueError("need k_lo < k_hi")
    k_max = math.nextafter(gain_bound(epsilon, mu), -math.inf)
    k_hi = min(k_hi, k_max)
    if not k_lo < k_hi:
        raise HypothesisViolated(
            f"gain bracket starts at {k_lo}, beyond the h1 bound {k_max!r}"
        )

    # the min only touches a point that would round onto the bound itself
    ks = [
        min(k_lo + (k_hi - k_lo) * i / (_SCAN_POINTS - 1), k_max)
        for i in range(_SCAN_POINTS)
    ]
    gaps = [_gap(epsilon, mu, k, j_plus, j_minus) for k in ks]

    lo = hi = None
    for i in range(len(ks) - 1):
        if gaps[i] == 0.0:
            lo = hi = ks[i]
            break
        if gaps[i] * gaps[i + 1] < 0.0:
            lo, hi = ks[i], ks[i + 1]
            break
    if lo is None:
        raise NoSignChange(
            f"delay gap has no sign change on [{k_lo}, {k_hi}] for "
            f"branches (+,{j_plus}) / (-,{j_minus})"
        )

    g_lo = _gap(epsilon, mu, lo, j_plus, j_minus)
    k0 = 0.5 * (lo + hi)
    for _ in range(200):
        k0 = 0.5 * (lo + hi)
        g_mid = _gap(epsilon, mu, k0, j_plus, j_minus)
        if abs(g_mid) < _GAP_TOL:
            break
        if g_lo * g_mid <= 0.0:
            hi = k0
        else:
            lo, g_lo = k0, g_mid

    freqs = hopf_frequencies(epsilon, mu, k0)
    tau0 = tau_branch(epsilon, mu, k0, "plus", j_plus)
    return HopfHopfPoint(k0, tau0, freqs.omega_minus, freqs.omega_plus, j_plus, j_minus)


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

    Gains failing the admissibility conditions are skipped and reported in
    ``skipped_k``.  Rows are ordered by (j, branch sign, k); each gain's two
    ladders are built once and hold no state beyond their rows.  Raises
    ValueError, before any gain is examined, for an instance SystemParams
    forbids or j_max < 0.
    """
    _check_instance(epsilon, mu)
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    skipped: List[float] = []
    # buckets[j][i]: rows of rung j on branch ("minus", "plus")[i], by k
    buckets = [([], []) for _ in range(j_max + 1)]
    for k in k_values:
        try:
            pair = [hopf_branch(epsilon, mu, k, sign) for sign in ("minus", "plus")]
        except HypothesisViolated:
            skipped.append(k)
            continue
        for j, per_sign in enumerate(buckets):
            for branch, rows in zip(pair, per_sign):
                rows.append(CurveRow(branch.sign, j, k, branch.tau(j), branch.omega))
    return HopfCurveTable(
        tuple(row for per_sign in buckets for rows in per_sign for row in rows),
        tuple(skipped),
    )
