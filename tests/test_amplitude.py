import math
import warnings

import numpy as np
import pytest

import doublehopf as dh
from doublehopf import amplitude
from doublehopf.amplitude import AmplitudeState
from doublehopf.errors import DegenerateDet, OnBoundary, WrongCase

from conftest import (
    EPS, MU, amplitude_rhs, draw_amplitude_params, find_attractor, grid_scan_oracle,
)

# (j_plus, j_minus) of the four case-VIa double-Hopf points of the worked
# instance inside the admissible gain interval 2.72 < k < 9.99
LADDER_POINTS = ((1, 1), (2, 1), (3, 1), (3, 2))

# (epsilon, mu, j_plus, j_minus) -> gain bracket of case-VIa double-Hopf
# points at negative gain whose parameter map reverses orientation, so
# their alpha-plane rays run clockwise
REVERSING_POINTS = {(EPS, MU, 1, 1): (-8.0, -7.5), (0.1, 0.3, 2, 2): (-8.5, -8.0),
                    (0.6, 0.9, 1, 0): (-13.0, -12.5)}

# case-VIa attractor table: region -> (kind, mode)
VIA_TABLE = {1: ("none_stable", None), 2: ("none_stable", None),
             3: ("none_stable", None), 4: ("none_stable", None),
             5: ("torus3", None), 6: ("torus2", None),
             7: ("periodic", 2), 8: ("trivial_eq", None)}


# The earlier probe, frozen as an oracle: it found a region's direction in
# the alpha plane from the bisected ray angles of via_lines and mapped it
# to (c1, c2).  Where the parameter map preserves orientation it lies in
# the region's c-plane sector, as the c-plane probe does.
def _representative_alpha(region: int, lines) -> np.ndarray:
    """Unit direction of a region's representative parameter point.

    Ordinary regions use the angular bisector of their bounding rays; the
    linear-order D5 sector is degenerate (the connection ray L4 is tangent
    to L5), so its probe sits exactly on the shared ray.
    """
    angles = [ln.angle for ln in lines.lines]
    two_pi = 2.0 * math.pi
    if region == 5:
        # the D5 sliver collapses onto the shared L4/L5 ray at linear
        # order; the probe sits exactly on it (see predict_attractor)
        theta = angles[4]
    else:
        lo = angles[(region - 2) % 8]
        hi = angles[region - 1]
        theta = lo + 0.5 * ((hi - lo) % two_pi)
    return np.array([math.cos(theta), math.sin(theta)])


def _alpha_plane_probe(region: int, u):
    """Amplitude parameters (c1, c2, b0, c0, d0) at a region's representative point.

    The truncated system is self-similar under (r, t) -> (s*r, t/s^2),
    c -> s^2*c, so only the point's direction matters: (c1, c2) is
    normalized to unit length, and all rates are O(1) for find_attractor.
    """
    alpha = _representative_alpha(region, dh.via_lines(u))
    c1 = float(u.c1_map @ alpha)
    c2 = float(u.c2_map @ alpha)
    scale = math.hypot(c1, c2)
    if scale == 0.0:
        raise ValueError("representative point maps to the origin")
    return (c1 / scale, c2 / scale, u.b0, u.c0, float(u.d0))


@pytest.fixture(scope="module")
def ladder_unfoldings():
    """The unfoldings of LADDER_POINTS and of REVERSING_POINTS, by key."""
    out = {}
    for jp, jm in LADDER_POINTS:
        hh = dh.find_hopf_hopf(EPS, MU, jp, jm, 2.72, 9.99)
        out[jp, jm] = dh.unfolding_params(dh.nf_coefficients(hh, EPS, MU))
    for (eps, mu, jp, jm), bracket in REVERSING_POINTS.items():
        hh = dh.find_hopf_hopf(eps, mu, jp, jm, *bracket)
        out[eps, mu, jp, jm] = dh.unfolding_params(dh.nf_coefficients(hh, eps, mu))
    return out


def test_rhs_origin_fixed():
    assert np.all(amplitude_rhs(AmplitudeState(0.0, 0.0), 1.0, -2.0, 3.0, 4.0, -1.0) == 0.0)


def test_rhs_axis_equilibrium():
    c1 = -0.8
    out = amplitude_rhs((math.sqrt(-c1), 0.0), c1, 0.3, 1.0, 2.0, -1.0)
    assert out[1] == 0.0
    assert abs(out[0]) < 1e-15


def test_rhs_matches_term_by_term():
    rng = np.random.default_rng(3)
    for _ in range(30):
        r1, r2 = rng.uniform(0, 2, 2)
        c1, c2, b0, c0, d0 = rng.uniform(-3, 3, 5)
        got = amplitude_rhs((r1, r2), c1, c2, b0, c0, d0)
        expect = np.array(
            [c1 * r1 + r1**3 + b0 * r1 * r2**2, c2 * r2 + c0 * r1**2 * r2 + d0 * r2**3]
        )
        assert np.allclose(got, expect, rtol=0, atol=1e-14)


def test_equilibria_trivial_case():
    eqs = dh.equilibria(0.0, 0.0, 1.0, 2.0, -1.0)
    assert len(eqs) == 1
    assert eqs[0].kind == "origin"
    assert eqs[0].eigenvalues == (0.0 + 0.0j, 0.0 + 0.0j)


def test_equilibria_degenerate_determinant():
    with pytest.raises(DegenerateDet):
        dh.equilibria(1.0, 1.0, 1.0, 1.0, 1.0)


def test_equilibria_reside_on_vector_field_zeros():
    rng = np.random.default_rng(5)
    for _ in range(25):
        params = draw_amplitude_params(rng)
        for eq in dh.equilibria(*params):
            res = amplitude_rhs(eq.state, *params)
            assert np.max(np.abs(res)) < 1e-10
            jac_re = [ev.real for ev in eq.eigenvalues]
            assert eq.stable == (max(jac_re) < 0)


@pytest.mark.parametrize("eigs", [
    (-1.0 + 0j, -2.0 + 0j), (-1.0 + 2j, -1.0 - 2j), (-1.0 + 0j, 0.5 + 0j),
    (-1.0 + 0j, 0.0 + 1j), (-1.0 + 0j, -0.0 + 0j), (0.0 + 0j, -1.0 + 0j),
    (-1.0 + 0j, complex(math.nan, 0.0)), (complex(math.nan, 0.0), -1.0 + 0j),
    (-1.0 + 0j, complex(-math.inf, 0.0)),
])
def test_stable_matches_numpy_max(eigs):
    # a zero real part is not stable, and neither is a NaN in either slot
    eq = amplitude.AmplitudeEquilibrium(AmplitudeState(0.0, 0.0), "origin", eigs)
    assert eq.stable is bool(np.max(np.real(eigs)) < 0.0)


def _jacobian(r1, r2, c1, c2, b0, c0, d0):
    """Jacobian of the amplitude vector field in (r1, r2)."""
    return np.array([
        [c1 + 3.0 * r1 * r1 + b0 * r2 * r2, 2.0 * b0 * r1 * r2],
        [2.0 * c0 * r1 * r2, c2 + c0 * r1 * r1 + 3.0 * d0 * r2 * r2],
    ])


def test_closed_form_eigenvalues_match_eigen_solve():
    # the Jacobian at each equilibrium, solved by LAPACK, is the oracle of
    # the closed forms; the comparison is relative to the largest modulus
    rng = np.random.default_rng(23)
    kinds = dict.fromkeys(("origin", "r1_axis", "r2_axis", "interior", "focus"), 0)
    for _ in range(2000):
        params = draw_amplitude_params(rng)
        for eq in dh.equilibria(*params):
            want = np.sort_complex(
                np.linalg.eigvals(_jacobian(eq.state.r1, eq.state.r2, *params)))
            got = np.sort_complex(np.array(eq.eigenvalues))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (
                eq.kind, params)
            assert eq.stable == bool(np.max(want.real) < 0.0), (eq.kind, params)
            kinds[eq.kind] += 1
            kinds["focus"] += eq.eigenvalues[0].imag != 0.0
    # every closed form is exercised, complex interior pairs included
    assert min(kinds.values()) > 100, kinds


def test_equilibria_match_grid_oracle_sample():
    rng = np.random.default_rng(9)
    for _ in range(8):
        params = draw_amplitude_params(rng)
        closed = sorted(
            ([e.state.r1, e.state.r2] for e in dh.equilibria(*params)),
            key=lambda q: (q[0], q[1]),
        )
        box = math.sqrt(500.0) + 1.0
        brute = grid_scan_oracle(*params, box=box)
        assert len(brute) == len(closed)
        for a, b in zip(brute, closed):
            assert np.linalg.norm(np.array(a) - np.array(b)) < 1e-6


def test_region7_prediction_equilibria(unfolding):
    # one stable non-origin equilibrium, sitting on an axis
    c1 = float(unfolding.c1_map @ [-0.1, 0.1])
    c2 = float(unfolding.c2_map @ [-0.1, 0.1])
    eqs = dh.equilibria(c1, c2, unfolding.b0, unfolding.c0, unfolding.d0)
    stable = [e for e in eqs if e.stable]
    assert len(stable) == 1
    assert stable[0].kind == "r2_axis"


def test_axes_invariant_exactly():
    params = (0.5, -0.25, 1.2, -2.0, -1.0)
    _, path = dh.simulate_amplitude((0.7, 0.0), params, 50.0, 0.01)
    assert np.all(path[:, 1] == 0.0)
    _, path = dh.simulate_amplitude((0.0, 0.4), params, 50.0, 0.01)
    assert np.all(path[:, 0] == 0.0)


def test_integrator_order():
    params = (-0.4, -0.3, 0.8, -1.5, -1.0)
    s0 = (0.5, 0.6)
    ends = []
    for h in (0.08, 0.04, 0.02):
        _, path = dh.simulate_amplitude(s0, params, 8.0, h)
        ends.append(path[-1])
    e1 = np.linalg.norm(ends[0] - ends[2])
    e2 = np.linalg.norm(ends[1] - ends[2])
    assert e1 / e2 > 12.0  # fourth order: ~16x per halving


def test_convergence_to_stable_equilibrium(unfolding):
    # generic start converges to the stable axis point by t = 1e4
    c1 = float(unfolding.c1_map @ [-0.1, 0.1])
    c2 = float(unfolding.c2_map @ [-0.1, 0.1])
    params = (c1, c2, unfolding.b0, unfolding.c0, float(unfolding.d0))
    stable = [e for e in dh.equilibria(*params) if e.stable][0]
    _, path = dh.simulate_amplitude((0.05, 0.05), params, 1e4, 0.05)
    end = path[-1]
    assert math.hypot(end[0] - stable.state.r1, end[1] - stable.state.r2) < 1e-6


def test_find_attractor_cycle_on_degenerate_ray(unfolding, lines):
    # on the shared L4/L5 ray the interior point is surrounded by a
    # bounded recurrent orbit (center family of the truncated system)
    ang = lines["L5"].angle
    alpha = 0.1 * np.array([math.cos(ang), math.sin(ang)])
    c1 = float(unfolding.c1_map @ alpha)
    c2 = float(unfolding.c2_map @ alpha)
    s = math.hypot(c1, c2)
    params = (c1 / s, c2 / s, unfolding.b0, unfolding.c0, float(unfolding.d0))
    interior = [e for e in dh.equilibria(*params) if e.kind == "interior"][0]
    label, tail = find_attractor(
        params, (interior.state.r1 * 0.995, interior.state.r2 * 0.995),
        t_end=4000.0, h=0.01,
    )
    assert label == "cycle"
    assert np.all(np.isfinite(tail))


@pytest.mark.parametrize(
    "region,kind,mode",
    [
        (1, "none_stable", None),
        (2, "none_stable", None),
        (3, "none_stable", None),
        (4, "none_stable", None),
        (5, "torus3", None),
        (6, "torus2", None),
        (7, "periodic", 2),
        (8, "trivial_eq", None),
        # an integral float or numpy integer is probed, and returned, as int
        (1.0, "none_stable", None),
        (np.int64(6), "torus2", None),
    ],
)
def test_predict_attractor_by_region(unfolding, region, kind, mode):
    pred = dh.predict_attractor(region, unfolding)
    assert pred.kind == kind
    assert pred.mode == mode
    assert type(pred.region) is int and pred.region == region


def test_predict_attractor_closed_form_at_ladder_points(
    ladder_unfoldings, monkeypatch
):
    def no_simulation(*args, **kwargs):
        raise AssertionError("predict_attractor integrated the amplitude system")

    monkeypatch.setattr(amplitude, "simulate_amplitude", no_simulation)
    # the reversing points included: a label never sees the map's orientation
    got, want = {}, {}
    for point, u in ladder_unfoldings.items():
        for region, kind_mode in VIA_TABLE.items():
            pred = dh.predict_attractor(region, u)
            got[point, region] = (pred.kind, pred.mode)
            want[point, region] = kind_mode
    assert got == want


@pytest.mark.parametrize("point", LADDER_POINTS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_center_rule_matches_simulation_oracle(ladder_unfoldings, point):
    # D5's probe sits on the center family (torus3), D4's beside it: an
    # orbit started next to the interior point recurs only in D5
    u = ladder_unfoldings[point]
    for region, is_cycle in ((5, True), (4, False)):
        params = amplitude._probe_params(region, u)
        interior = [e for e in dh.equilibria(*params) if e.kind == "interior"][0]
        s0 = (interior.state.r1 * 0.995, interior.state.r2 * 0.995)
        label, _ = find_attractor(params, s0, t_end=4000.0, h=0.01)
        assert (label == "cycle") == is_cycle, (region, label)


def _probe_alpha(region, u):
    """The c-plane probe of a region solved back to the alpha plane."""
    c1, c2 = amplitude._probe_params(region, u)[:2]
    return np.linalg.solve(np.vstack([u.c1_map, u.c2_map]), [c1, c2])


@pytest.mark.parametrize("point", [*LADDER_POINTS, *REVERSING_POINTS],
                         ids=lambda p: "-".join(map(str, p)))
def test_every_probe_lies_in_its_region(ladder_unfoldings, point):
    # _probe_params finds the sector in the c plane and region_of in the
    # alpha plane, in the mirror image where the map reverses orientation;
    # D5 is probed on the shared L4/L5 ray, which region_of calls a boundary
    u = ladder_unfoldings[point]
    det = np.linalg.det(np.vstack([u.c1_map, u.c2_map]))
    assert (det < 0) == (point in REVERSING_POINTS)
    lines = dh.via_lines(u)
    for region in range(1, 9):
        probe = _probe_alpha(region, u)
        if region == 5:
            with pytest.raises(OnBoundary):
                dh.region_of(*probe, lines)
        else:
            assert dh.region_of(*probe, lines) == region


def test_escaping_oracle_run_raises_no_warning(ladder_unfoldings):
    # the (3,2) D4 point of the alpha-plane probe escapes; its last stages
    # overflow to inf in Python floats, which warn nowhere, and the label
    # stays "none"
    params = _alpha_plane_probe(4, ladder_unfoldings[3, 2])
    interior = [e for e in dh.equilibria(*params) if e.kind == "interior"][0]
    s0 = (interior.state.r1 * 0.995, interior.state.r2 * 0.995)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        label, _ = find_attractor(params, s0, t_end=4000.0, h=0.01)
    assert label == "none"
    assert not np.all(np.isfinite(dh.simulate_amplitude(s0, params, 4000.0, 0.01)[1]))


def test_center_residue_on_the_d5_probe(ladder_unfoldings):
    # the c-plane L5 direction puts the interior point on the center family
    # to rounding, whichever way the map turns: the trace residue is far
    # below _CENTER_TOL
    for u in ladder_unfoldings.values():
        r1_sq, r2_sq, _ = amplitude._interior(*amplitude._probe_params(5, u))
        assert abs(r1_sq + u.d0 * r2_sq) <= 1e-14 * (r1_sq + r2_sq)


def _draw_via(rng):
    """A random case-VIa unfolding; its parameter map has either orientation."""
    b0 = math.exp(rng.uniform(-3.0, 3.0))
    c0 = -(1.0 + math.exp(rng.uniform(-5.0, 4.0))) / b0  # b0*c0 < -1: det > 0
    eps1 = int(rng.choice([-1, 1]))
    m = rng.standard_normal((2, 2))
    return dh.normalform.UnfoldingParams(eps1, -eps1, b0, c0, m[0], m[1])


def test_c_plane_labels_match_the_table_and_the_alpha_plane_oracle(monkeypatch):
    # every draw gets the case-VIa table, whichever way its map turns; where
    # the map keeps orientation the frozen alpha-plane probe agrees
    rng = np.random.default_rng(28)
    draws = [_draw_via(rng) for _ in range(10_000)]
    kept = [u for u in draws if np.linalg.det(np.vstack([u.c1_map, u.c2_map])) > 0]
    assert 4000 < len(kept) < 6000

    def labels(u):
        return [(p.kind, p.mode) for p in
                (dh.predict_attractor(region, u) for region in range(1, 9))]

    table = [VIA_TABLE[region] for region in range(1, 9)]
    got = {id(u): labels(u) for u in draws}
    assert all(v == table for v in got.values())
    # the oracle maps each draw's rays once, not once per region
    lines_of = {id(u): dh.via_lines(u) for u in kept}
    monkeypatch.setattr(dh, "via_lines", lambda u: lines_of[id(u)])
    monkeypatch.setattr(amplitude, "_probe_params", _alpha_plane_probe)
    assert all(labels(u) == got[id(u)] for u in kept)


def test_predict_attractor_wrong_case():
    u = dh.normalform.UnfoldingParams(
        eps1=1, eps2=1, b0=0.5, c0=1.0,
        c1_map=np.array([1.0, 0.0]), c2_map=np.array([0.0, 1.0]),
    )
    assert u.det == 0.5
    with pytest.raises(WrongCase):
        dh.predict_attractor(8, u)


@pytest.mark.parametrize(
    "probe",
    [
        ("alpha", (math.nan, 0.1)), ("alpha", (0.1, math.nan)),
        ("alpha", (math.inf, 0.1)), ("alpha", (0.1, -math.inf)),
    ],
    ids=str,
)
def test_bad_probe_input_raises_value_error(unfolding, lines, probe):
    # a non-finite point has no sector at all
    _, value = probe
    with pytest.raises(ValueError, match="must be finite"):
        dh.region_of(*value, lines)


def test_amplitude_state_validation():
    with pytest.raises(ValueError):
        AmplitudeState(-0.1, 0.0)


_PARAMS_D8 = (-0.6, -0.8, 0.5, -2.0, -1.0)


def _d8_with(name, value):
    """The D8 amplitude parameters with one replaced."""
    names = ("c1", "c2", "b0", "c0", "d0")
    return [value if n == name else v for n, v in zip(names, _PARAMS_D8)]


@pytest.mark.parametrize("call,match", [
    (lambda: AmplitudeState(math.nan, 0.0), "finite"),
    (lambda: AmplitudeState(0.1, math.inf), "finite"),
    (lambda: dh.simulate_amplitude((-0.3, 0.1), _PARAMS_D8, 1.0, 0.01), "finite"),
    (lambda: dh.simulate_amplitude((math.nan, 0.1), _PARAMS_D8, 1.0, 0.01), "finite"),
    (lambda: dh.simulate_amplitude((0.3, 0.1), _PARAMS_D8, math.inf, 0.01), "finite"),
    (lambda: dh.simulate_amplitude((0.3, 0.1), _PARAMS_D8, math.nan, 0.01), "finite"),
    (lambda: dh.simulate_amplitude((0.3, 0.1), _PARAMS_D8, 1.0, math.inf), "finite"),
    (lambda: dh.simulate_amplitude((0.3, 0.1), _PARAMS_D8, 1.0, math.nan), "finite"),
    (lambda: dh.equilibria(*_d8_with("c1", math.nan)), "^c1 must be finite"),
    (lambda: dh.equilibria(*_d8_with("c1", -math.inf)), "^c1 must be finite"),
    (lambda: dh.equilibria(*_d8_with("c2", math.inf)), "^c2 must be finite"),
    (lambda: dh.equilibria(*_d8_with("b0", math.nan)), "^b0 must be finite"),
    (lambda: dh.equilibria(*_d8_with("c0", -math.inf)), "^c0 must be finite"),
    (lambda: dh.equilibria(*_d8_with("d0", math.nan)), "^d0 must be finite"),
], ids=["state-nan", "state-inf", "start-negative", "start-nan", "t_end-inf",
        "t_end-nan", "h-inf", "h-nan", "c1-nan", "c1-neg-inf", "c2-inf", "b0-nan",
        "c0-neg-inf", "d0-nan"])
def test_bad_amplitude_input_raises_value_error(call, match):
    # a start is a state, checked as one, and the run a finite horizon at a
    # finite step: each is refused before a step, not integrated as given;
    # an equilibrium parameter is refused by name before any equilibrium
    with pytest.raises(ValueError, match=match):
        call()


def test_origin_stability_flips_simply_across_rays(unfolding, lines):
    # the origin's eigenvalues are (c1, c2): stable in D8 only, and the
    # c2 = 0 ray (L1/L7) carries a simple sign change of one eigenvalue
    def origin_eigs(theta, r=0.1):
        a = np.array([r * math.cos(theta), r * math.sin(theta)])
        return float(unfolding.c1_map @ a), float(unfolding.c2_map @ a)

    mid_d8 = 0.5 * (lines["L7"].angle + lines["L8"].angle)
    c1, c2 = origin_eigs(mid_d8)
    assert c1 < 0 and c2 < 0

    ang = lines["L1"].angle
    lo = origin_eigs(ang - 1e-4)
    hi = origin_eigs(ang + 1e-4)
    assert lo[1] < 0 < hi[1]  # c2 crosses zero
    assert lo[0] > 0 and hi[0] > 0  # c1 keeps its sign
