"""``find_hopf_hopf`` against a frozen copy of the scalar bisection.

The oracle below is the search as it was written before each bisection
gain became one ``hopf_ladders`` call, kept verbatim: the 400-point scan
as one array evaluation, then a gap of two scalar ``tau_branch`` calls per
bisection gain, then ``hopf_frequencies`` and ``tau_branch`` at k0.  The
double-Hopf point must reproduce it field for field, bit for bit, and
raise where and how it raised.
"""

import math

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

from conftest import EPS, MU  # noqa: E402


def oracle_gap(epsilon, mu, k, j_plus, j_minus):
    return tau_branch(epsilon, mu, k, "plus", j_plus) - tau_branch(
        epsilon, mu, k, "minus", j_minus
    )


def oracle_gaps(epsilon, mu, ks, j_plus, j_minus):
    lad = hopf_ladders(epsilon, mu, ks)
    lad.require_admissible()
    return lad.tau("plus", j_plus) - lad.tau("minus", j_minus)


def oracle_find_hopf_hopf(epsilon, mu, j_plus, j_minus, k_lo, k_hi, gap=oracle_gap):
    if not k_lo < k_hi:
        raise ValueError("need k_lo < k_hi")
    k_max = math.nextafter(gain_bound(epsilon, mu), -math.inf)
    k_hi = min(k_hi, k_max)
    if not k_lo < k_hi:
        raise HypothesisViolated(
            f"gain bracket starts at {k_lo}, beyond the h1 bound {k_max!r}"
        )

    ks = np.minimum(k_lo + (k_hi - k_lo) * np.arange(400) / 399, k_max)
    gaps = oracle_gaps(epsilon, mu, ks, j_plus, j_minus)
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
        g_mid = gap(epsilon, mu, k0, j_plus, j_minus)
        if abs(g_mid) < 1e-10:
            break
        if g_lo * g_mid <= 0.0:
            hi = k0
        else:
            lo, g_lo = k0, g_mid

    freqs = hopf_frequencies(epsilon, mu, k0)
    tau0 = tau_branch(epsilon, mu, k0, "plus", j_plus)
    return dh.HopfHopfPoint(
        epsilon, mu, k0, tau0, freqs.omega_minus, freqs.omega_plus, j_plus, j_minus
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, HypothesisViolated, NoSignChange) as exc:
        return type(exc), str(exc)


@st.composite
def _searches(draw):
    """An admissible instance, a ladder pair and a gain bracket.

    Three draws in four aim at the bisection: a pair of ladders whose gap
    changes sign between two admissible gains of a 256-point grid, and a
    bracket around those two gains, within the admissible grid gains.  The
    rest pair any ladders on any bracket, where the search may raise, clip
    or find no sign change.  Of the 80 derandomized draws, 60 bisect to a
    point.
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
def test_bisection_matches_scalar_oracle(search):
    got = _outcome(dh.find_hopf_hopf, *search)
    want = _outcome(oracle_find_hopf_hopf, *search)
    assert got == want


@pytest.mark.parametrize("j_plus,j_minus", [(1, 1), (2, 1), (3, 1), (3, 2)])
def test_one_ladder_call_per_bisection_gain(monkeypatch, j_plus, j_minus):
    # the scan is one call of 400 gains, each bisection gain one call of a
    # single gain, and the point one more call at k0
    calls = []

    def counted(epsilon, mu, ks):
        calls.append(np.array(ks, dtype=float, ndmin=1).tolist())
        return hopf_ladders(epsilon, mu, ks)

    steps = []

    def counted_gap(*args):
        steps.append(args[2])
        return oracle_gap(*args)

    monkeypatch.setattr(hopf_hopf, "hopf_ladders", counted)
    pt = dh.find_hopf_hopf(EPS, MU, j_plus, j_minus, 2.72, 9.99)
    oracle_find_hopf_hopf(EPS, MU, j_plus, j_minus, 2.72, 9.99, gap=counted_gap)
    assert len(calls[0]) == 400
    assert calls[1:-1] == [[k] for k in steps]
    assert calls[-1] == [pt.k0] == [steps[-1]]
    if (j_plus, j_minus) == (3, 1):
        assert len(calls) == 31


@pytest.mark.parametrize("j_plus,j_minus", [(-1, 1), (1, -1), (1.5, 1)])
def test_bad_ladder_index_raises_before_the_scan(monkeypatch, j_plus, j_minus):
    monkeypatch.setattr(hopf_hopf, "hopf_ladders", None)
    with pytest.raises(ValueError, match="^branch index j must be"):
        dh.find_hopf_hopf(EPS, MU, j_plus, j_minus, 4.5, 5.2)
