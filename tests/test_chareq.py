import math

import mpmath
import numpy as np
import pytest

import doublehopf as dh
from doublehopf import chareq
from doublehopf.chareq import SystemParams, gain_bound
from doublehopf.errors import DegenerateRoot, HypothesisViolated

from conftest import (
    EPS, MU, REF_K0, REF_TAU0, REF_OM1, REF_OM2, draw_admissible, mp_ladders,
    rightmost_roots,
)


def mp_char(lam, eps, mu, k, tau):
    """Independent extended-precision evaluation of the characteristic function."""
    with mpmath.workdps(50):
        lam = mpmath.mpc(lam)
        e = mpmath.exp(-lam * tau)
        val = (
            lam**2
            - mu * lam**2 * e
            - eps * lam
            + eps * mu * lam * e
            - mu * e
            + 1
            - eps * k * (1 - mu)
        )
        return complex(val)


def magnitude_identity_residual(omega, eps, mu, k):
    """Both sides of the squared-modulus condition for a pure-imaginary root."""
    lhs = (mu * omega**2 - mu) ** 2 + (eps * mu * omega) ** 2
    rhs = (omega**2 - 1 + eps * k * (1 - mu)) ** 2 + (eps * omega) ** 2
    return abs(lhs - rhs) / max(abs(lhs), 1.0)


def test_eval_char_lambda_zero():
    # all lambda terms vanish; the exponential factors reduce to 1
    p = SystemParams(EPS, MU, 2.0, 3.0)
    assert dh.eval_char(0.0, p) == 1.0 - MU - EPS * 2.0 * (1.0 - MU)


def test_eval_char_reference_hopf_point():
    p = SystemParams(EPS, MU, REF_K0, REF_TAU0)
    assert abs(dh.eval_char(1j * REF_OM1, p)) < 1e-8


def test_eval_char_matches_extended_precision():
    p = SystemParams(0.1, 0.5, 1.0, 1.0)
    ours = dh.eval_char(1.0 + 0.0j, p)
    ref = mp_char(1.0, 0.1, 0.5, 1.0, 1.0)
    assert abs(ours - ref) < 1e-14

    rng = np.random.default_rng(7)
    for _ in range(20):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-5, 5))
        ours = dh.eval_char(lam, p)
        ref = mp_char(lam, 0.1, 0.5, 1.0, 1.0)
        assert abs(ours - ref) < 1e-12 * max(1.0, abs(ref))


def test_char_deriv_matches_finite_difference():
    p = SystemParams(0.1, 0.5, 1.5, 2.0)
    h = 1e-6
    for lam in (0.3 + 0.8j, -0.2 + 2.0j, 1.0 + 0.0j):
        fd = (dh.eval_char(lam + h, p) - dh.eval_char(lam - h, p)) / (2 * h)
        assert abs(dh.chareq.char_deriv(lam, p) - fd) < 1e-6


def test_w_poly_zero_gain():
    w = dh.w_poly(0.1, 0.5, 0.0)
    assert w.a == pytest.approx(1.5)
    assert w.b == pytest.approx(-2.985)
    assert w.c == pytest.approx(1.5)


def test_w_poly_roots_are_squared_frequencies():
    freqs = dh.hopf_frequencies(EPS, MU, REF_K0)
    assert freqs.omega_minus**2 == pytest.approx(REF_OM1**2, abs=1e-8)
    assert freqs.omega_plus**2 == pytest.approx(REF_OM2**2, abs=1e-8)


def test_w_poly_magnitude_identity_random():
    rng = np.random.default_rng(11)
    for eps, mu, k in draw_admissible(rng, 25):
        freqs = dh.hopf_frequencies(eps, mu, k)
        for om in (freqs.omega_minus, freqs.omega_plus):
            assert magnitude_identity_residual(om, eps, mu, k) < 1e-10


@pytest.mark.parametrize(
    "eps,mu", [(0.1, 0.5), (0.5, 0.5), (0.3, 0.7), (0.05, 0.2)])
@pytest.mark.parametrize("below", [1e-9, 1e-12, "ulp"])
def test_frequencies_keep_their_precision_at_the_gain_bound(eps, mu, below):
    # the 1/eps term sets the bound here, and c vanishes there: both
    # frequencies stay within 1e-15 relative of their 50-digit values up
    # to the largest float under the bound
    bound = gain_bound(eps, mu)
    assert bound == 1.0 / eps
    k = math.nextafter(bound, -math.inf) if below == "ulp" else bound - below
    freqs = dh.hopf_frequencies(eps, mu, k)
    with mpmath.workdps(50):
        lad = mp_ladders(eps, mu, k)
        for sign in ("minus", "plus"):
            want = lad[sign][0]
            got = getattr(freqs, f"omega_{sign}")
            assert abs((got - want) / want) <= 1e-15


def _hypotheses(eps, mu, k):
    lad = dh.hopf_ladders(eps, mu, k)
    return {"h1": lad.h1.item(), "h2": lad.h2.item()}


def test_hypotheses_reference_point():
    hyp = _hypotheses(EPS, MU, REF_K0)
    assert hyp == {"h1": True, "h2": True}


def test_hypotheses_gain_too_large():
    assert _hypotheses(0.1, 0.5, 100.0)["h1"] is False


def test_h2_flips_at_discriminant_zero():
    # bisect the discriminant in k and check the flag flips exactly there
    lo, hi = 2.0, 3.0  # disc < 0 at 2.0, > 0 at 3.0 for (0.1, 0.5)
    assert dh.w_poly(0.1, 0.5, lo).discriminant < 0 < dh.w_poly(0.1, 0.5, hi).discriminant
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dh.w_poly(0.1, 0.5, mid).discriminant > 0:
            hi = mid
        else:
            lo = mid
    assert _hypotheses(0.1, 0.5, lo)["h2"] is False
    assert _hypotheses(0.1, 0.5, hi)["h2"] is True


def test_hopf_frequencies_reference_values():
    freqs = dh.hopf_frequencies(EPS, MU, REF_K0)
    assert freqs.omega_minus == pytest.approx(REF_OM1, abs=1e-9)
    assert freqs.omega_plus == pytest.approx(REF_OM2, abs=1e-9)
    assert freqs.omega_minus < freqs.omega_plus


def test_hopf_frequencies_requires_hypotheses():
    with pytest.raises(HypothesisViolated):
        dh.hopf_frequencies(0.1, 0.5, 2.0)  # negative discriminant


def test_hopf_frequencies_residual():
    rng = np.random.default_rng(13)
    for eps, mu, k in draw_admissible(rng, 20):
        w = dh.w_poly(eps, mu, k)
        freqs = dh.hopf_frequencies(eps, mu, k)
        scale = max(abs(w.a), abs(w.b), abs(w.c))
        assert abs(w(freqs.omega_minus**2)) < 1e-12 * scale
        assert abs(w(freqs.omega_plus**2)) < 1e-12 * scale


def test_eval_char_and_deriv_arrays_match_scalar_calls():
    # one implementation: an array argument gives, element by element, the
    # bits of the scalar calls, including strided and 2-D arrays
    rng = np.random.default_rng(3)
    z = rng.normal(size=300) + 5j * rng.normal(size=300)
    for tau in (0.0, 5.0, REF_TAU0):
        p = SystemParams(EPS, MU, 4.6, tau)
        for f in (dh.eval_char, dh.chareq.char_deriv):
            vals = f(z, p)
            assert vals.shape == z.shape
            assert np.array_equal(vals, [f(complex(v), p) for v in z])
            assert np.array_equal(vals[::3], f(z[::3], p))
            assert np.array_equal(vals.reshape(20, 15), f(z.reshape(20, 15), p))


def test_tau_branch_reference_value():
    assert dh.tau_branch(EPS, MU, REF_K0, "plus", 1) == pytest.approx(
        REF_TAU0, abs=1e-7
    )
    assert dh.tau_branch(EPS, MU, REF_K0, "minus", 1) == pytest.approx(
        REF_TAU0, abs=1e-7
    )


def test_tau_branch_residual_oracle():
    rng = np.random.default_rng(17)
    for eps, mu, k in draw_admissible(rng, 15):
        freqs = dh.hopf_frequencies(eps, mu, k)
        for sign, om in (("minus", freqs.omega_minus), ("plus", freqs.omega_plus)):
            for j in (0, 1, 2):
                tau = dh.tau_branch(eps, mu, k, sign, j)
                p = SystemParams(eps, mu, k, tau)
                assert abs(dh.eval_char(1j * om, p)) < 1e-9


def test_tau_branch_residual_at_rounding_level():
    # atan2 keeps every digit of the base angle; |Delta(i*omega)| stays at
    # the rounding level of its terms on all three rungs
    for eps, mu, k in draw_admissible(np.random.default_rng(5), 2000):
        freqs = dh.hopf_frequencies(eps, mu, k)
        for sign, om in (("minus", freqs.omega_minus), ("plus", freqs.omega_plus)):
            for j in (0, 1, 2):
                p = SystemParams(eps, mu, k, dh.tau_branch(eps, mu, k, sign, j))
                assert abs(dh.eval_char(1j * om, p)) <= 1e-14


def test_hopf_ladders_are_the_ladder():
    freqs = dh.hopf_frequencies(EPS, MU, 4.6)
    lad = dh.hopf_ladders(EPS, MU, 4.6)
    for sign, om in (("minus", freqs.omega_minus), ("plus", freqs.omega_plus)):
        tau0 = lad.tau0[sign].item()
        assert lad.omega[sign].item() == om
        assert 0.0 <= om * tau0 < 2 * math.pi
        for j in range(4):
            assert lad.tau(sign, j).item() == tau0 + j * (2 * math.pi / om)
            assert lad.tau(sign, j).item() == dh.tau_branch(EPS, MU, 4.6, sign, j)
    with pytest.raises(ValueError):
        dh.tau_branch(EPS, MU, 4.6, "up")
    with pytest.raises(HypothesisViolated):
        dh.tau_branch(EPS, MU, 50.0, "plus")


def test_tau_branch_rung_spacing():
    freqs = dh.hopf_frequencies(EPS, MU, 4.6)
    for sign, om in (("minus", freqs.omega_minus), ("plus", freqs.omega_plus)):
        t0 = dh.tau_branch(EPS, MU, 4.6, sign, 0)
        for j in (1, 2, 5):
            got = dh.tau_branch(EPS, MU, 4.6, sign, j)
            assert got == pytest.approx(t0 + 2 * math.pi * j / om, rel=1e-14)
        assert om * t0 < 2 * math.pi


def test_tau_branch_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dh.tau_branch(EPS, MU, 4.6, "up", 0)
    with pytest.raises(ValueError):
        dh.tau_branch(EPS, MU, 4.6, "plus", -1)
    # from 2**53 on, floats no longer hold every integer
    with pytest.raises(ValueError, match=r"< 2\*\*53"):
        dh.tau_branch(EPS, MU, 4.6, "plus", 2**53)
    assert dh.tau_branch(EPS, MU, 4.6, "plus", 2**53 - 1) > 0


def test_transversality_signs():
    rng = np.random.default_rng(19)
    for eps, mu, k in draw_admissible(rng, 20):
        assert dh.transversality_sign(eps, mu, k, "plus") == 1
        assert dh.transversality_sign(eps, mu, k, "minus") == -1


def test_transversality_degenerate_tolerance(monkeypatch):
    # an inflated tolerance triggers the double-root guard
    monkeypatch.setattr(chareq, "_TRANSVERSALITY_TOL", 10.0)
    with pytest.raises(DegenerateRoot):
        dh.transversality_sign(EPS, MU, 4.6, "plus")


def test_stability_windows_boundaries_are_branch_delays():
    sw = dh.stability_windows(EPS, MU, 4.6)
    assert sw.m == len(sw.windows) > 0
    for j, (lo, hi) in enumerate(sw.windows):
        assert lo == dh.tau_branch(EPS, MU, 4.6, "minus", j)
        assert hi == dh.tau_branch(EPS, MU, 4.6, "plus", j)
    # disjoint and increasing
    flat = [v for w in sw.windows for v in w]
    assert flat == sorted(flat)


def test_stability_windows_empty_case():
    # slow branch already crosses after the fast one: unstable for all delays
    assert dh.tau_branch(0.05, 0.9, -3.0, "minus") > dh.tau_branch(0.05, 0.9, -3.0, "plus")
    sw = dh.stability_windows(0.05, 0.9, -3.0)
    assert sw.windows == () and sw.m is None


def test_stability_windows_spectral_oracle():
    # sign of the rightmost root flips across each window boundary
    k = 4.6
    sw = dh.stability_windows(EPS, MU, k)
    for lo, hi in sw.windows:
        for tau, expect_stable in (
            (lo - 0.1, False),
            (lo + 0.1, hi - lo > 0.2),
            (hi + 0.1, False),
        ):
            if tau <= 0:
                continue
            p = SystemParams(EPS, MU, k, tau)
            roots = rightmost_roots(p, -0.5, 0.5, 12.0, grid_n=28)
            assert roots, f"no roots found at tau={tau}"
            max_re = max(r.real for r in roots)
            if expect_stable:
                assert max_re < 0
            else:
                assert max_re > 0


def test_rightmost_roots_at_critical_point(hh):
    p = SystemParams(EPS, MU, hh.k0, hh.tau0)
    roots = rightmost_roots(p, -0.05, 0.05, 10.0, grid_n=24)
    oscillatory = sorted((r for r in roots if r.imag > 0.1), key=lambda z: z.imag)
    assert len(oscillatory) == 2
    assert abs(oscillatory[0] - 1j * hh.omega1) < 1e-9
    assert abs(oscillatory[1] - 1j * hh.omega2) < 1e-9
    # anything else in the strip is a strictly stable real root
    for r in roots:
        if r.imag <= 0.1:
            assert r.imag == 0.0 and r.real < 0


def test_rightmost_roots_zero_delay_quadratic():
    # at tau = 0 the equation reduces to lam^2 - eps*lam + 1 - eps*k
    p = SystemParams(0.1, 0.5, 0.0, 0.0)
    roots = rightmost_roots(p, -1.0, 1.0, 2.0, grid_n=16)
    disc = 0.1**2 - 4.0 * (1.0 - 0.0)
    expect = 0.05 + 0.5j * math.sqrt(-disc)
    assert len(roots) == 1
    assert abs(roots[0] - expect) < 1e-10


def test_rightmost_roots_deterministic_and_deduplicated():
    p = SystemParams(EPS, MU, 4.6, 5.0)
    a = rightmost_roots(p, -0.5, 0.3, 8.0, grid_n=20)
    b = rightmost_roots(p, -0.5, 0.3, 8.0, grid_n=20)
    assert a == b
    for i, r in enumerate(a):
        for s in a[i + 1 :]:
            assert abs(r - s) > 1e-7


def test_rightmost_roots_conjugate_symmetry():
    p = SystemParams(EPS, MU, 4.6, 5.0)
    for r in rightmost_roots(p, -0.5, 0.3, 8.0, grid_n=20):
        assert abs(dh.eval_char(r.conjugate(), p)) < 1e-10


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(0.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        SystemParams(0.1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SystemParams(0.1, 0.5, 1.0, -1.0)
    with pytest.raises(ValueError, match="^epsilon must be finite, got inf$"):
        SystemParams(math.inf, 0.5, 4.8, 8.8)
    # a non-finite offset is the input's fault, not the integrator's, and so
    # are a bool and an int beyond float range
    for bad in (math.nan, math.inf, -math.inf, True, 2**1100):
        with pytest.raises(ValueError, match="^k must be finite"):
            SystemParams(0.1, 0.5, bad, 1.0)
        with pytest.raises(ValueError, match="^tau must be finite"):
            SystemParams(0.1, 0.5, 1.0, bad)
