"""Property tests of the Hopf-curve scan against the scalar ladders (need hypothesis)."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import doublehopf as dh  # noqa: E402
from doublehopf.chareq import gain_bound  # noqa: E402
from doublehopf.errors import HypothesisViolated  # noqa: E402

from conftest import EPS, MU  # noqa: E402


@st.composite
def _grids(draw):
    """An admissible instance, a gain list and j_max.

    The gains are an even grid from a drawn gain up to the gain bound,
    where the admissible ones lie, plus drawn gains on both sides of the h2
    boundary, repeats of grid gains, NaN, +-inf, the gain bound and the
    largest float below it; all in a drawn order.
    """
    eps = draw(st.floats(0.05, 0.6))
    mu = draw(st.floats(0.1, 0.9))
    bound = gain_bound(eps, mu)
    lo = draw(st.floats(-2.0, bound))
    grid = [lo + (bound - lo) * i / 16 for i in range(16)]
    special = [math.nan, math.inf, -math.inf, bound, math.nextafter(bound, -math.inf)]
    gain = st.one_of(st.floats(-2.0, bound), st.sampled_from(special + grid))
    ks = draw(st.permutations(grid + draw(st.lists(gain, max_size=12))))
    return eps, mu, ks, draw(st.integers(0, 3))


def _scalar_outcome(eps, mu, k):
    """True when tau_branch accepts k on both branches, False when both
    raise HypothesisViolated."""
    ok = []
    for sign in ("minus", "plus"):
        try:
            dh.tau_branch(eps, mu, k, sign)
            ok.append(True)
        except HypothesisViolated:
            ok.append(False)
    assert ok[0] == ok[1]
    return ok[0]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_grids())
@example((EPS, MU, [5.0, 2.5, math.nan, 4.6, 5.0, math.inf, -math.inf,
                    math.nextafter(gain_bound(EPS, MU), -math.inf), 2.71, 4.6], 2))
def test_scan_rows_are_scalar_ladder_bits(grid):
    eps, mu, ks, j_max = grid
    table = dh.scan_hopf_curves(eps, mu, ks, j_max)

    accepted = [_scalar_outcome(eps, mu, k) for k in ks]
    skipped = [k for k, ok in zip(ks, accepted) if not ok]
    kept = [k for k, ok in zip(ks, accepted) if ok]
    # bit for bit, NaN included, in input order
    assert (np.array(table.skipped_k, dtype=float).tobytes()
            == np.array(skipped, dtype=float).tobytes())

    rows = table.rows
    assert len(rows) == 2 * (j_max + 1) * len(kept)
    order = [(j, sign) for j in range(j_max + 1) for sign in ("minus", "plus")]
    for c, (j, sign) in enumerate(order):
        curve = rows[c * len(kept):(c + 1) * len(kept)]
        assert [(r.j, r.branch_sign) for r in curve] == [(j, sign)] * len(kept)
        assert [r.k for r in curve] == kept
        for r in curve:
            assert r.tau == dh.tau_branch(eps, mu, r.k, sign, j)
            freqs = dh.hopf_frequencies(eps, mu, r.k)
            assert r.omega == getattr(freqs, f"omega_{sign}")
