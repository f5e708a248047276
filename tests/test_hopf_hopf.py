import math

import numpy as np
import pytest

import doublehopf as dh
from doublehopf.chareq import SystemParams
from doublehopf.errors import NoSignChange

from conftest import EPS, MU, REF_K0, REF_TAU0, REF_OM1, REF_OM2


def test_reference_point(hh):
    assert hh.k0 == pytest.approx(REF_K0, abs=1e-8)
    assert hh.tau0 == pytest.approx(REF_TAU0, abs=1e-8)
    assert hh.omega1 == pytest.approx(REF_OM1, abs=1e-9)
    assert hh.omega2 == pytest.approx(REF_OM2, abs=1e-9)
    assert hh.j_plus == hh.j_minus == 1


def test_bracket_refinement_invariance(hh):
    halved = dh.find_hopf_hopf(EPS, MU, 1, 1, 4.75, 4.95)
    assert halved.k0 == pytest.approx(hh.k0, abs=1e-9)
    assert halved.tau0 == pytest.approx(hh.tau0, abs=1e-9)


def test_point_carries_its_instance():
    # the instance is part of the point, with no default; params() is the
    # offset convention k = k0 + alpha1, tau = tau0 + alpha2 at that instance
    pt = dh.find_hopf_hopf(0.2, MU, 2, 1, 2.46, 4.98)
    assert (pt.epsilon, pt.mu) == (0.2, MU)
    assert pt.params() == SystemParams(0.2, MU, pt.k0, pt.tau0)
    assert pt.params(0.1, 0.081) == SystemParams(
        0.2, MU, pt.k0 + 0.1, pt.tau0 + 0.081)
    with pytest.raises(TypeError):
        dh.HopfHopfPoint(pt.k0, pt.tau0, pt.omega1, pt.omega2, 2, 1)


def test_both_branches_meet(hh):
    tp = dh.tau_branch(EPS, MU, hh.k0, "plus", 1)
    tm = dh.tau_branch(EPS, MU, hh.k0, "minus", 1)
    assert abs(tp - tm) < 1e-8
    assert tp == pytest.approx(hh.tau0, abs=1e-12)


def test_characteristic_residuals_at_point(hh):
    p = SystemParams(EPS, MU, hh.k0, hh.tau0)
    assert abs(dh.eval_char(1j * hh.omega1, p)) < 1e-9
    assert abs(dh.eval_char(1j * hh.omega2, p)) < 1e-9


def test_opposite_transversality_at_point(hh):
    assert dh.transversality_sign(EPS, MU, hh.k0, "plus") == 1
    assert dh.transversality_sign(EPS, MU, hh.k0, "minus") == -1


def test_no_sign_change():
    with pytest.raises(NoSignChange):
        dh.find_hopf_hopf(EPS, MU, 1, 1, 3.0, 3.5)


@pytest.mark.parametrize("k_hi", [5.2, math.inf])
def test_non_finite_lower_bracket_end_is_a_value_error(k_hi):
    # rejected before the scan, whose grid would be -inf and nan (numpy
    # warns on both) and end in a HypothesisViolated about k = nan
    with pytest.raises(ValueError, match="^k_lo must be finite, got -inf$"):
        dh.find_hopf_hopf(EPS, MU, 1, 1, -math.inf, k_hi)


def test_bracket_outside_admissible_region():
    from doublehopf.errors import HypothesisViolated

    with pytest.raises(HypothesisViolated):
        dh.find_hopf_hopf(EPS, MU, 1, 1, 2.5, 3.1)


@pytest.mark.parametrize("k_hi", [12.0, 10.0, math.inf])
def test_bracket_clipped_to_gain_bound(k_hi):
    # h1 caps the gain at 1/eps = 10 here; the bracket is clipped below it
    pt = dh.find_hopf_hopf(EPS, MU, 1, 1, 4.5, k_hi)
    assert pt.k0 == pytest.approx(REF_K0, abs=1e-8)
    assert pt.tau0 == pytest.approx(REF_TAU0, abs=1e-8)


def test_bracket_reaching_a_rounded_gain_bound(monkeypatch):
    # at (0.5, 0.5) the 1/eps term sets the gain bound 2, where c = 0; the
    # ladders exist up to the largest float below it, so a bracket that
    # reaches the bound is scanned up to that float
    k_max = math.nextafter(2.0, -math.inf)
    assert math.isfinite(dh.tau_branch(0.5, 0.5, k_max, "minus"))
    inside = dh.find_hopf_hopf(0.5, 0.5, 2, 1, 1.77, 1.99)
    scanned = []
    gaps = dh.hopf_hopf._gaps

    def recording_gaps(epsilon, mu, ks, j_plus, j_minus):
        scanned.append(ks.tolist())
        return gaps(epsilon, mu, ks, j_plus, j_minus)

    monkeypatch.setattr(dh.hopf_hopf, "_gaps", recording_gaps)
    pt = dh.find_hopf_hopf(0.5, 0.5, 2, 1, 1.77, 5.0)
    assert scanned[0][-1] == k_max
    assert pt.k0 == pytest.approx(inside.k0, abs=1e-12)


def test_no_bracket_ends_where_the_smaller_root_rounds_to_zero():
    # on a 40 x 17 instance grid, every one of the 64 floats under the gain
    # bound where h1 and h2 hold has both ladders, with omega_minus > 0
    # (104 instances had none at the largest of them while rho_minus was
    # formed as (-b - sqrt(disc))/(2a)); a bracket reaching the bound finds
    # no sign change, fails h1/h2 by name, or finds a point
    from doublehopf.chareq import gain_bound
    from doublehopf.errors import HypothesisViolated

    rounded = 0
    for eps in np.linspace(0.05, 0.8, 40).tolist():
        for mu in np.linspace(0.1, 0.9, 17).tolist():
            bound = gain_bound(eps, mu)
            ks = [math.nextafter(bound, -math.inf)]
            while len(ks) < 64:
                ks.append(math.nextafter(ks[-1], -math.inf))
            lad = dh.hopf_ladders(eps, mu, ks)
            hold = lad.h1 & lad.h2
            assert (lad.admissible == hold).all()
            rounded += int((~(lad.omega["minus"][hold] > 0.0)).sum())
            for sign in ("minus", "plus"):
                assert np.isfinite(lad.tau0[sign][hold]).all()
            try:
                dh.find_hopf_hopf(eps, mu, 0, 0, bound - 0.01, bound + 1.0)
            except NoSignChange:
                pass
            except HypothesisViolated as exc:
                assert "fails h1=" in str(exc)
    assert rounded == 0


def test_bracket_beyond_gain_bound():
    from doublehopf.errors import HypothesisViolated

    with pytest.raises(HypothesisViolated):
        dh.find_hopf_hopf(EPS, MU, 1, 1, 10.0, 12.0)


def test_admissible_bracket_scan_points_unchanged(monkeypatch):
    # the scan is one call of the array gap; record the gains it is given
    seen = []
    gaps = dh.hopf_hopf._gaps

    def recording_gaps(epsilon, mu, ks, j_plus, j_minus):
        seen.extend(ks.tolist())
        return gaps(epsilon, mu, ks, j_plus, j_minus)

    monkeypatch.setattr(dh.hopf_hopf, "_gaps", recording_gaps)
    dh.find_hopf_hopf(EPS, MU, 1, 1, 4.5, 5.2)
    assert seen[:400] == [4.5 + (5.2 - 4.5) * i / 399 for i in range(400)]


def test_resonance_reference_point(hh):
    res = dh.resonance_check(hh.omega1, hh.omega2)
    assert res["nonresonant"] is True
    assert res["ratio"] == pytest.approx(0.811334, abs=1e-6)


def test_resonance_exact_and_near():
    res = dh.resonance_check(1.0, 2.0, 1e-3)
    assert res["nonresonant"] is False and res["nearest_ratio"] == (1, 2)
    res = dh.resonance_check(1.0, 3.0005, 1e-3)
    assert res["nonresonant"] is False and res["nearest_ratio"] == (1, 3)
    with pytest.raises(ValueError):
        dh.resonance_check(2.0, 1.0)
    for tol in (math.nan, -1e-3):
        with pytest.raises(ValueError, match="^tol must be nonnegative"):
            dh.resonance_check(1.0, 1.4, tol)


def test_resonance_flip_is_monotone():
    omega, tol = 1.0, 1e-3
    flags = []
    deltas = np.linspace(0.0, 0.01, 200)
    for d in deltas:
        res = dh.resonance_check(omega, 2.0 * omega - d, tol)
        manual = abs(omega / (2.0 * omega - d) - 0.5) > tol
        assert res["nonresonant"] == manual
        flags.append(res["nonresonant"])
    assert flags[0] is False and flags[-1] is True
    assert sum(1 for a, b in zip(flags, flags[1:]) if a != b) == 1


def test_scan_curves_bracket_intersection(hh):
    ks = np.arange(4.5, 5.2, 0.01)
    table = dh.scan_hopf_curves(EPS, MU, ks, j_max=1)
    assert not table.skipped_k
    plus = {r.k: r.tau for r in table.rows if r.branch_sign == "plus" and r.j == 1}
    minus = {r.k: r.tau for r in table.rows if r.branch_sign == "minus" and r.j == 1}
    gaps = np.array([plus[k] - minus[k] for k in sorted(plus)])
    flips = np.nonzero(gaps[:-1] * gaps[1:] < 0)[0]
    assert len(flips) == 1
    k_cross = sorted(plus)[flips[0]]
    assert abs(k_cross - hh.k0) < 0.011


def test_scan_curves_rows_satisfy_residual_oracle():
    ks = np.arange(4.6, 4.8, 0.05)
    table = dh.scan_hopf_curves(EPS, MU, ks, j_max=2)
    for row in table.rows:
        p = SystemParams(EPS, MU, row.k, row.tau)
        assert abs(dh.eval_char(1j * row.omega, p)) < 1e-9


def test_scan_curves_empty_and_skipped():
    assert dh.scan_hopf_curves(EPS, MU, [], 2).rows == ()
    table = dh.scan_hopf_curves(EPS, MU, [4.6, 50.0], 0)
    assert table.skipped_k == (50.0,)
    assert {r.k for r in table.rows} == {4.6}


def test_scan_curves_ordering():
    ks = [4.7, 4.6]
    table = dh.scan_hopf_curves(EPS, MU, ks, j_max=1)
    keys = [(r.j, r.branch_sign, r.k) for r in table.rows]
    # ordered by (j, sign, input order); deterministic for a fixed grid
    assert keys == sorted(keys, key=lambda t: (t[0], t[1]))


def test_scan_curves_rows_are_branch_rungs():
    table = dh.scan_hopf_curves(EPS, MU, [4.6, 4.65, 4.7], j_max=2)
    for row in table.rows:
        assert row.tau == dh.tau_branch(EPS, MU, row.k, row.branch_sign, row.j)
        freqs = dh.hopf_frequencies(EPS, MU, row.k)
        assert row.omega == getattr(freqs, f"omega_{row.branch_sign}")
