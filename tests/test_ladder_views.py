"""The scalar ladder views read one ``hopf_ladders`` call, bit for bit.

``hopf_frequencies``, ``tau_branch``, ``transversality_sign`` and
``stability_windows`` are 1-element views of the one ladder evaluator.  Each
value they return must be hex-equal to the element of one ``hopf_ladders``
call at the same gain, and each must raise where, and with the message
with which, the ladder raises.
"""

import hashlib
import math
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import doublehopf as dh  # noqa: E402
from doublehopf import chareq  # noqa: E402
from doublehopf.chareq import gain_bound  # noqa: E402
from doublehopf.errors import DegenerateRoot, HypothesisViolated  # noqa: E402

from conftest import EPS, MU, draw_admissible  # noqa: E402

SIGNS = ("minus", "plus")


def transversality_omega(eps, mu, k, sign):
    """The omega transversality_sign evaluates W' at, read back from the
    DegenerateRoot an infinite tolerance forces (a float repr round-trips)."""
    with pytest.MonkeyPatch.context() as mp, pytest.raises(DegenerateRoot) as info:
        mp.setattr(chareq, "_TRANSVERSALITY_TOL", math.inf)
        dh.transversality_sign(eps, mu, k, sign)
    return float(re.match(r"^\|W'\((.*)\^2\)\|", str(info.value)).group(1))


def view_record(eps, mu, k):
    """Every value of the four views at (eps, mu, k), as hex text."""
    freqs = dh.hopf_frequencies(eps, mu, k)
    out = [freqs.omega_minus.hex(), freqs.omega_plus.hex()]
    for sign in SIGNS:
        out += [dh.tau_branch(eps, mu, k, sign, j).hex() for j in range(4)]
        out.append(str(dh.transversality_sign(eps, mu, k, sign)))
        out.append(transversality_omega(eps, mu, k, sign).hex())
    sw = dh.stability_windows(eps, mu, k)
    out.append(repr(sw.m))
    out += [f"{lo.hex()}:{hi.hex()}" for lo, hi in sw.windows]
    return " ".join(out)


@st.composite
def _gains(draw):
    """An instance and a gain: below the bound, or a few ulps under it."""
    eps = draw(st.floats(0.05, 0.6))
    mu = draw(st.floats(0.1, 0.9))
    bound = gain_bound(eps, mu)
    if draw(st.booleans()):
        k = draw(st.floats(-2.0, bound, exclude_max=True))
    else:
        k = bound
        for _ in range(draw(st.integers(1, 16))):
            k = math.nextafter(k, -math.inf)
    return eps, mu, k


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_gains())
@example((EPS, MU, 4.6))
@example((0.5, 0.5, math.nextafter(2.0, -math.inf)))
@example((0.5, 0.5, math.nextafter(math.nextafter(2.0, -math.inf), -math.inf)))
@example((0.05, 0.9, -3.0))
def test_views_are_one_ladder_call(gain):
    eps, mu, k = gain
    lad = dh.hopf_ladders(eps, mu, k)
    if not lad.admissible[0]:
        with pytest.raises(HypothesisViolated) as want:
            lad.require_admissible()
        for view in (
            lambda: dh.hopf_frequencies(eps, mu, k),
            lambda: dh.tau_branch(eps, mu, k, "plus", 1),
            lambda: dh.transversality_sign(eps, mu, k, "minus"),
            lambda: dh.stability_windows(eps, mu, k),
        ):
            with pytest.raises(HypothesisViolated) as got:
                view()
            assert str(got.value) == str(want.value)
        return

    def ladder(sign, j):
        return lad.tau(sign, j).item().hex()

    freqs = dh.hopf_frequencies(eps, mu, k)
    assert freqs.omega_minus.hex() == lad.omega["minus"].item().hex()
    assert freqs.omega_plus.hex() == lad.omega["plus"].item().hex()
    for sign in SIGNS:
        for j in range(4):
            assert dh.tau_branch(eps, mu, k, sign, j).hex() == ladder(sign, j)
        omega = transversality_omega(eps, mu, k, sign)
        assert omega.hex() == lad.omega[sign].item().hex()
    windows = dh.stability_windows(eps, mu, k).windows
    for j, (lo, hi) in enumerate(windows):
        assert (lo.hex(), hi.hex()) == (ladder("minus", j), ladder("plus", j))
    # the windows stop at the first rung where the ladders stop interlacing
    j = len(windows)
    lo, hi = lad.tau("minus", j).item(), lad.tau("plus", j).item()
    assert lo >= hi or (j > 0 and lo <= windows[-1][1])


def test_views_keep_their_bits_on_the_admissible_draws():
    # sha256 of view_record over the draws, pinned when c became a product
    # of two positive factors and rho_minus 2c/(sqrt(disc) - b); the views
    # moved by at most 1.5e-13 relative then
    text = "\n".join(
        view_record(*d) for d in draw_admissible(np.random.default_rng(5), 2000)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f1ecbf1312d1a497898aa818388bad0c9df225cc12481843f3f4f9f4c29eb1ae"
    )


BAD_ARGUMENTS = [
    (dh.tau_branch, (EPS, MU, 4.6, "up", 0), ValueError,
     "sign must be 'plus' or 'minus', got 'up'"),
    (dh.tau_branch, (EPS, MU, 4.6, "plus", -1), ValueError,
     "branch index j must be a nonnegative integer, got -1"),
    (dh.tau_branch, (EPS, MU, 4.6, "plus", 1.5), ValueError,
     "branch index j must be a nonnegative integer, got 1.5"),
    # the ladder index is checked before the sign, both before the gain
    (dh.tau_branch, (EPS, MU, 50.0, "up", -1), ValueError,
     "branch index j must be a nonnegative integer, got -1"),
    (dh.tau_branch, (EPS, MU, 50.0, "up", 0), ValueError,
     "sign must be 'plus' or 'minus', got 'up'"),
    (dh.tau_branch, (0.0, MU, 4.6, "up", 0), ValueError,
     "sign must be 'plus' or 'minus', got 'up'"),
    (dh.tau_branch, (0.0, MU, 4.6, "plus", 0), ValueError,
     "epsilon must be positive, got 0.0"),
    (dh.tau_branch, (EPS, MU, 50.0, "plus", 0), HypothesisViolated,
     "(epsilon=0.1, mu=0.5, k=50.0) fails h1=False, h2=True"),
    (dh.tau_branch, (EPS, MU, 2.0, "minus", 0), HypothesisViolated,
     "(epsilon=0.1, mu=0.5, k=2.0) fails h1=True, h2=False"),
    (dh.tau_branch, (EPS, MU, math.nan, "plus", 0), HypothesisViolated,
     "(epsilon=0.1, mu=0.5, k=nan) fails h1=False, h2=False"),
    (dh.transversality_sign, (EPS, MU, 50.0, "up"), ValueError,
     "sign must be 'plus' or 'minus', got 'up'"),
    (dh.transversality_sign, (EPS, MU, 50.0, "plus"), HypothesisViolated,
     "(epsilon=0.1, mu=0.5, k=50.0) fails h1=False, h2=True"),
    (dh.hopf_frequencies, (EPS, MU, 2.0), HypothesisViolated,
     "(epsilon=0.1, mu=0.5, k=2.0) fails h1=True, h2=False"),
    (dh.hopf_frequencies, (EPS, 1.5, 4.6), ValueError,
     "mu must lie in (0, 1), got 1.5"),
    (dh.stability_windows, (EPS, MU, 50.0), HypothesisViolated,
     "(epsilon=0.1, mu=0.5, k=50.0) fails h1=False, h2=True"),
    (dh.stability_windows, (EPS, MU, math.nan), HypothesisViolated,
     "(epsilon=0.1, mu=0.5, k=nan) fails h1=False, h2=False"),
]


@pytest.mark.parametrize(
    "view,args,error,message", BAD_ARGUMENTS,
    ids=[f"{v.__name__}{a}" for v, a, _, _ in BAD_ARGUMENTS],
)
def test_views_reject_bad_arguments_as_before(view, args, error, message):
    with pytest.raises(error) as info:
        view(*args)
    assert type(info.value) is error
    assert str(info.value) == message
