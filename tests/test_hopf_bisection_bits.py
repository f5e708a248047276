"""``find_hopf_hopf`` against the 50-digit root of the closed-form gap.

The oracle takes the bracket the search takes -- the same validation and
the same 400-point scan -- and solves the delay gap of ``mp_ladders``
(conftest) on the first scan interval with a sign change at 50 digits.
The search must raise where and how the scan raises, and otherwise give
the root to 1e-14 relative, or to the error of the float gap over its
slope where the curves cross at a shallow angle, with tau0 and the
frequencies read from the ladders at its k0.  At the four CI points k0 is
within 8 ulp of the root, and an interval evaluation of the gap changes
sign between 8 ulp below and 8 ulp above k0, which certifies a root there.
"""

import math

import mpmath
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import doublehopf as dh  # noqa: E402
from doublehopf import hopf_hopf  # noqa: E402
from doublehopf.chareq import (  # noqa: E402
    gain_bound,
    hopf_frequencies,
    hopf_ladders,
    tau_branch,
)
from doublehopf.errors import HypothesisViolated, NoSignChange  # noqa: E402

from conftest import EPS, MU, mp_gap, mp_ladders  # noqa: E402

# (epsilon, j_plus, j_minus, k_lo, k_hi) of the analyze points pinned in CI
CI_POINTS = {
    (1, 1): (EPS, 4.5, 5.2),
    (2, 1): (0.2, 2.46, 4.98),
    (3, 1): (EPS, 2.72, 9.99),
    (3, 2): (EPS, 2.72, 9.99),
}


def oracle_bracket(epsilon, mu, j_plus, j_minus, k_lo, k_hi):
    """The first scan interval of the search with a zero at its left end
    or a sign change of the gap; raises as the search raises."""
    if not k_lo < k_hi:
        raise ValueError("need k_lo < k_hi")
    k_max = math.nextafter(gain_bound(epsilon, mu), -math.inf)
    k_hi = min(k_hi, k_max)
    if not k_lo < k_hi:
        raise HypothesisViolated(
            f"gain bracket starts at {k_lo}, beyond the h1 bound {k_max!r}"
        )
    ks = np.minimum(k_lo + (k_hi - k_lo) * np.arange(400) / 399, k_max)
    lad = hopf_ladders(epsilon, mu, ks)
    lad.require_admissible()
    gaps = lad.tau("plus", j_plus) - lad.tau("minus", j_minus)
    hits = np.flatnonzero((gaps[:-1] == 0.0) | (gaps[:-1] * gaps[1:] < 0.0))
    if not len(hits):
        raise NoSignChange(
            f"delay gap has no sign change on [{k_lo}, {k_hi}] for "
            f"branches (+,{j_plus}) / (-,{j_minus})"
        )
    i = hits[0]
    return float(ks[i]), float(ks[i] if gaps[i] == 0.0 else ks[i + 1])


def mp_root(epsilon, mu, j_plus, j_minus, lo, hi):
    """(k*, tau*, g', tau') at 50 digits: the root of the gap on [lo, hi],
    the delay of the fast ladder there, and the slopes of the gap and of
    that delay in k there."""
    with mpmath.workdps(50):
        def gap(k):
            return mp_gap(epsilon, mu, k, j_plus, j_minus)

        def tau(k):
            w, t = mp_ladders(epsilon, mu, k)["plus"]
            return t + j_plus * 2 * mpmath.pi / w

        if lo < hi:
            k = mpmath.findroot(gap, (mpmath.mpf(lo), mpmath.mpf(hi)),
                                solver="anderson")
        else:
            k = mpmath.findroot(gap, mpmath.mpf(lo), solver="secant")
        return k, tau(k), mpmath.diff(gap, k), mpmath.diff(tau, k)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, HypothesisViolated, NoSignChange) as exc:
        return type(exc), str(exc)


@st.composite
def _searches(draw):
    """An admissible instance, a ladder pair and a gain bracket.

    Three draws in four aim at the root search: a pair of ladders whose
    gap changes sign between two admissible gains of a 256-point grid, and
    a bracket around those two gains, within the admissible grid gains.
    The rest pair any ladders on any bracket, where the search may raise,
    clip or find no sign change.
    """
    eps = draw(st.floats(0.05, 0.6))
    mu = draw(st.floats(0.1, 0.9))
    bound = gain_bound(eps, mu)
    grid = np.linspace(-2.0, bound, 256, endpoint=False)
    lad = hopf_ladders(eps, mu, grid)
    ks = grid[lad.admissible]
    crossings = [
        (jp, jm, i) for jp in range(5) for jm in range(4)
        for i in np.flatnonzero(np.diff(np.sign(
            lad.tau("plus", jp) - lad.tau("minus", jm))[lad.admissible]) != 0)[:1]
    ]
    if crossings and draw(st.integers(0, 3)):
        j_plus, j_minus, i = draw(st.sampled_from(crossings))
        k_lo = draw(st.floats(ks[0], ks[i]))
        k_hi = draw(st.floats(ks[i + 1], ks[-1]))
    else:
        j_plus, j_minus = draw(st.integers(0, 4)), draw(st.integers(0, 3))
        k_lo = draw(st.floats(-2.0, bound))
        k_hi = draw(st.floats(k_lo, bound + 1.0).filter(lambda k: k > k_lo))
    return eps, mu, j_plus, j_minus, k_lo, k_hi


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_searches())
@example((EPS, MU, 1, 1, 4.5, 5.2))
@example((EPS, MU, 3, 1, 2.72, 9.99))
@example((EPS, MU, 3, 2, 2.72, 9.99))
@example((0.2, MU, 2, 1, 2.46, 4.98))
@example((EPS, MU, 1, 1, 3.0, 3.5))
@example((EPS, MU, 1, 1, 10.0, 12.0))
@example((0.05, MU, 3, 3, 3.0, 5.0))
def test_search_matches_mpmath_root(search):
    eps, mu, j_plus, j_minus = search[:4]
    got = _outcome(dh.find_hopf_hopf, *search)
    bracket = _outcome(oracle_bracket, *search)
    if isinstance(got, tuple):
        assert got == bracket
        return
    assert not isinstance(bracket[0], type), bracket
    k_star, tau_star, slope, tau_slope = mp_root(eps, mu, j_plus, j_minus, *bracket)
    assert (got.epsilon, got.mu, got.j_plus, got.j_minus) == search[:4]
    # the float gap is off by a few ulp of tau, which moves its own root by
    # that over the slope: 124 ulp of k at (0.05, 0.5, 3, 3), slope -0.146
    k_err = abs(got.k0 - k_star)
    assert k_err <= 1e-14 * abs(k_star) + 4 * math.ulp(tau_star) / abs(slope)
    assert abs(got.tau0 - tau_star) <= 1e-14 * tau_star + abs(tau_slope) * k_err
    # the point is read from the ladders at k0
    assert got.tau0 == tau_branch(eps, mu, got.k0, "plus", j_plus)
    freqs = hopf_frequencies(eps, mu, got.k0)
    assert (got.omega1, got.omega2) == (freqs.omega_minus, freqs.omega_plus)


def _ulps(x, n):
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@pytest.mark.parametrize("j_plus,j_minus", list(CI_POINTS))
def test_ci_points_to_8_ulp_with_an_interval_certificate(j_plus, j_minus):
    eps, k_lo, k_hi = CI_POINTS[j_plus, j_minus]
    pt = dh.find_hopf_hopf(eps, MU, j_plus, j_minus, k_lo, k_hi)
    k_star = mp_root(eps, MU, j_plus, j_minus, *oracle_bracket(
        eps, MU, j_plus, j_minus, k_lo, k_hi))[0]
    assert abs(pt.k0 - k_star) <= 8 * math.ulp(pt.k0)
    dps = mpmath.iv.dps
    mpmath.iv.dps = 50
    try:
        left, right = (mp_gap(eps, MU, _ulps(pt.k0, n), j_plus, j_minus, mpmath.iv)
                       for n in (-8, 8))
    finally:
        mpmath.iv.dps = dps
    assert {left < 0, right < 0} == {True, False}
    assert {left > 0, right > 0} == {True, False}


@pytest.mark.parametrize("j_plus,j_minus", list(CI_POINTS))
def test_one_ladder_call_per_bisection_gain(monkeypatch, j_plus, j_minus):
    # the scan is one call of 400 gains and each later step one call of a
    # single gain, at most 12 of them; k0 is one of those gains, read from
    # its call
    eps, k_lo, k_hi = CI_POINTS[j_plus, j_minus]
    calls = []

    def counted(epsilon, mu, ks):
        calls.append(np.array(ks, dtype=float, ndmin=1).tolist())
        return hopf_ladders(epsilon, mu, ks)

    monkeypatch.setattr(hopf_hopf, "hopf_ladders", counted)
    pt = dh.find_hopf_hopf(eps, MU, j_plus, j_minus, k_lo, k_hi)
    assert len(calls[0]) == 400
    assert all(len(c) == 1 for c in calls[1:])
    assert len(calls) <= 13
    assert any(pt.k0 in c for c in calls)


def test_search_halves_its_bracket_at_least_every_three_steps(monkeypatch):
    # a gap as flat as (k - r)^9 near its root stalls the Illinois steps;
    # the bisection steps still take the bracket to adjacent floats
    r = 4.8345852536875
    gaps = hopf_hopf._gaps
    steps = []

    def flat_gaps(epsilon, mu, ks, j_plus, j_minus):
        steps.append(ks.tolist())
        return gaps(epsilon, mu, ks, j_plus, j_minus)[0], (ks - r) ** 9

    monkeypatch.setattr(hopf_hopf, "_gaps", flat_gaps)
    pt = dh.find_hopf_hopf(EPS, MU, 1, 1, 4.5, 5.2)
    halvings = math.ceil(math.log2((5.2 - 4.5) / 399 / math.ulp(r)))
    assert len(steps) - 1 <= 3 * halvings
    assert abs(pt.k0 - r) <= math.ulp(r)


@pytest.mark.parametrize("j_plus,j_minus", [(-1, 1), (1, -1), (1.5, 1)])
def test_bad_ladder_index_raises_before_the_scan(monkeypatch, j_plus, j_minus):
    monkeypatch.setattr(hopf_hopf, "hopf_ladders", None)
    with pytest.raises(ValueError, match="^branch index j must be"):
        dh.find_hopf_hopf(EPS, MU, j_plus, j_minus, 4.5, 5.2)
