"""Property test of the case-VIa rays against the covector oracle (needs hypothesis)."""

import numpy as np
import pytest

import doublehopf as dh
from doublehopf.normalform import UnfoldingParams

from conftest import covector_via_lines

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def _unfoldings(draw, orientation):
    # case VIa: d0 = -1, b0 > 0 and c0 < -1/b0, so det = -1 - b0*c0 > 0.
    # The map entries are nonzero, over eight decades, with det of the
    # given sign and condition number at most about 1e6: a zero entry can
    # flip the sign of a zero (an angle of pi for -pi), and past that
    # conditioning the oracle's half-plane test loses its sign to
    # cancellation (test_via_lines_orient_an_ill_conditioned_map)
    eps1 = draw(st.sampled_from([1, -1]))
    b0 = draw(st.floats(1e-3, 1e3))
    c0 = -draw(st.floats(1e-3, 1e3)) - 1.0 / b0
    entry = st.builds(lambda m, sign: sign * m, st.floats(1e-4, 1e4),
                      st.sampled_from([1.0, -1.0]))
    p, q, r, s = (draw(entry) for _ in range(4))
    det = p * s - q * r
    hypothesis.assume(orientation * det >= 1e-6 * (p * p + q * q + r * r + s * s))
    return UnfoldingParams(eps1, -eps1, b0, c0, np.array([p, q]), np.array([r, s]))


@pytest.mark.parametrize("orientation", [1, -1], ids=["det>0", "det<0"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_via_lines_equal_the_covector_oracle(orientation, data):
    # the adjugate image of each c-plane direction, normalized after the
    # map, has the bits of the covector pullback in every field
    u = data.draw(_unfoldings(orientation))
    assert dh.classify_unfolding(u) == "VIa"
    assert dh.via_lines(u) == covector_via_lines(u)
