"""Property tests of the integration grid h = tau/h_div (need hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import doublehopf as dh  # noqa: E402
from doublehopf import nfde_sim  # noqa: E402
from doublehopf.chareq import SystemParams  # noqa: E402

from conftest import EPS, MU  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(tau=st.floats(0.1, 100.0), h_div=st.integers(4, 10**5))
def test_the_grid_is_tau_over_an_integer_divisor(tau, h_div):
    p = SystemParams(EPS, MU, 4.8, tau)
    cfg = dh.SimConfig(p, 0.1, 0.0, h_div, 10.0)
    assert cfg.h.hex() == (p.tau / h_div).hex()
    assert dh.SimConfig.from_divisor(p, 0.1, 0.0, h_div, 10.0) == cfg
    # the steppers take the divisor itself: the delay is h_div steps of
    # cfg.h's bits, with no rounding of tau/h
    st = nfde_sim._ThetaStepper(p, 0.1, 0.0, cfg.h_div)
    assert st.N == h_div and st.h.hex() == cfg.h.hex()
    # a call written for the step h, not the divisor, is refused
    with pytest.raises(ValueError, match="h_div"):
        dh.SimConfig(p, 0.1, 0.0, p.tau / 2000, 10.0)
