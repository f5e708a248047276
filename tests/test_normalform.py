import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import doublehopf as dh
from doublehopf import normalform
from doublehopf.errors import BoundaryCase, DegenerateCubic, OnBoundary, WrongCase
from doublehopf.normalform import (
    NormalFormCoeffs,
    UnfoldingParams,
    UNFOLDING_TABLE,
    ViaLines,
    bilinear_form,
)

from conftest import (
    EPS,
    MU,
    REF_B0,
    REF_C0,
    REF_C1_MAP,
    REF_C2_MAP,
    REF_SLOPES,
    REF_TAU0,
    loop_bilinear_form,
)


@pytest.fixture(scope="module")
def basis(hh):
    return dh.eigenbasis(hh, EPS, MU)


def test_critical_eigenvalue_matrix(hh, basis):
    diag = np.diag(basis.B)
    expect = np.array(
        [
            1j * hh.omega1 * hh.tau0,
            -1j * hh.omega1 * hh.tau0,
            1j * hh.omega2 * hh.tau0,
            -1j * hh.omega2 * hh.tau0,
        ]
    )
    assert np.allclose(diag, expect, atol=1e-12)
    assert hh.tau0 == pytest.approx(REF_TAU0, abs=1e-8)
    assert np.count_nonzero(basis.B - np.diag(diag)) == 0


def test_basis_columns_at_zero(hh, basis):
    col = basis.phi(0.0)[:, 0]
    assert col[0] == 1.0
    assert col[1] == 1j * hh.omega1


def test_basis_solves_delay_eigenproblem(hh, basis):
    # d/dtheta phi = phi * B on [-1, 0], and the boundary condition
    # lam*D(phi) = B1*phi(0) + B2*phi(-1) column by column
    p = basis.pieces
    for th in (-1.0, -0.63, -0.2, 0.0):
        num = (basis.phi(th + 1e-6) - basis.phi(th - 1e-6)) / 2e-6
        assert np.allclose(num, basis.phi(th) @ basis.B, atol=1e-4)
    lams = np.diag(basis.B)
    d_op = basis.phi(0.0) - p.M @ basis.phi(-1.0)
    rhs = p.B1 @ basis.phi(0.0) + p.B2 @ basis.phi(-1.0)
    assert np.allclose(d_op * lams[None, :], rhs, atol=1e-8)


def test_duality_residual_small(basis):
    assert dh.duality_residual(basis) < 1e-8


def test_quadrature_refinement_agrees(basis, monkeypatch):
    row = lambda s: basis.psi(s)[0]
    drow = lambda s: basis.psi_deriv(s)[0]
    col = lambda th: basis.phi(th)[:, 0]
    v64 = bilinear_form(row, col, basis.pieces, drow)
    monkeypatch.setattr(normalform, "_N_NODES", 128)
    v128 = bilinear_form(row, col, basis.pieces, drow)
    assert abs(v64 - v128) < 1e-12


def test_bilinear_form_linearity(basis):
    zero = lambda s: np.zeros((2,) + np.shape(s), dtype=complex)
    col = lambda th: basis.phi(th)[:, 0]
    assert bilinear_form(zero, col, basis.pieces, zero) == 0.0

    row = lambda s: basis.psi(s)[0]
    drow = lambda s: basis.psi_deriv(s)[0]
    c = 0.7 - 1.3j
    scaled = bilinear_form(
        lambda s: c * row(s), col, basis.pieces, lambda s: c * drow(s)
    )
    base = bilinear_form(row, col, basis.pieces, drow)
    assert abs(scaled - c * base) < 1e-13 * max(1.0, abs(base))


@pytest.mark.parametrize("j_plus,j_minus", [(1, 1), (2, 1), (3, 1), (3, 2)])
def test_block_pairing_matches_entrywise(j_plus, j_minus):
    hh = dh.find_hopf_hopf(EPS, MU, j_plus, j_minus, 2.72, 9.99)
    b = dh.eigenbasis(hh, EPS, MU)
    ref = np.empty((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            ref[i, j] = bilinear_form(
                lambda s: b.psi(s)[i], lambda th: b.phi(th)[:, j], b.pieces,
                lambda s: b.psi_deriv(s)[i],
            )
    gram = bilinear_form(b.psi, b.phi, b.pieces, b.psi_deriv)
    assert gram.shape == (4, 4)
    assert np.max(np.abs(gram - ref)) <= 1e-15
    assert dh.duality_residual(b) == float(np.max(np.abs(gram - np.eye(4))))


# the four worked points, the (2,1) point at epsilon = 0.2 and the (1,1)
# point at negative gain, as (epsilon, j_plus, j_minus, bracket)
_PAIRING_POINTS = [
    (EPS, 1, 1, (2.72, 9.99)),
    (EPS, 2, 1, (2.72, 9.99)),
    (EPS, 3, 1, (2.72, 9.99)),
    (EPS, 3, 2, (2.72, 9.99)),
    (0.2, 2, 1, (2.46, 4.98)),
    (EPS, 1, 1, (-8.0, -7.5)),
]


@pytest.mark.parametrize("epsilon,j_plus,j_minus,bracket", _PAIRING_POINTS)
def test_pairing_matches_node_loop(epsilon, j_plus, j_minus, bracket):
    # one pass over all nodes gives the per-node loop's bits: the 4 x 4
    # Gram, one row with one column, and the same pair as a 1 x 1 block
    hh = dh.find_hopf_hopf(epsilon, MU, j_plus, j_minus, *bracket)
    b = dh.eigenbasis(hh, epsilon, MU)
    row = lambda s: b.psi(s)[2]
    drow = lambda s: b.psi_deriv(s)[2]
    col = lambda th: b.phi(th)[:, 1]
    cases = [
        (b.psi, b.phi, b.psi_deriv),
        (row, col, drow),
        (lambda s: row(s)[None, :], lambda th: col(th)[:, None],
         lambda s: drow(s)[None, :]),
    ]
    for psi_row, phi_col, psi_row_deriv in cases:
        got = bilinear_form(psi_row, phi_col, b.pieces, psi_row_deriv)
        want = loop_bilinear_form(psi_row, phi_col, b.pieces, psi_row_deriv)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
    assert isinstance(bilinear_form(row, col, b.pieces, drow), complex)


def test_basis_functions_broadcast_over_nodes(basis):
    # an array argument puts the points on a trailing axis, and each point
    # has the bits of a scalar call
    pts = np.linspace(-1.0, 0.0, 7)
    for fn, arg, shape in ((basis.phi, pts, (2, 4)), (basis.psi, pts + 1.0, (4, 2)),
                           (basis.psi_deriv, pts + 1.0, (4, 2))):
        block = fn(arg)
        assert block.shape == shape + (len(pts),)
        for i, x in enumerate(arg):
            assert fn(float(x)).shape == shape
            assert np.array_equal(block[..., i], fn(float(x)))


def test_gauss_nodes_are_shared_and_read_only():
    nodes, weights = normalform._gauss_nodes(normalform._N_NODES)
    again = normalform._gauss_nodes(normalform._N_NODES)
    assert again[0] is nodes and again[1] is weights
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_one_row_block_matches_vector_call(basis):
    row = lambda s: basis.psi(s)[2]
    drow = lambda s: basis.psi_deriv(s)[2]
    col = lambda th: basis.phi(th)[:, 1]
    vec = bilinear_form(row, col, basis.pieces, drow)
    block = bilinear_form(
        lambda s: row(s)[None, :], lambda th: col(th)[:, None], basis.pieces,
        lambda s: drow(s)[None, :],
    )
    assert isinstance(vec, complex)
    assert block.shape == (1, 1)
    assert abs(block[0, 0] - vec) <= 1e-15


def test_duality_detects_wrong_normalizer(basis):
    row = lambda s: 2.0 * basis.psi(s)[0]
    drow = lambda s: 2.0 * basis.psi_deriv(s)[0]
    col = lambda th: basis.phi(th)[:, 0]
    val = bilinear_form(row, col, basis.pieces, drow)
    assert abs(val - 2.0) < 1e-8  # doubling D1 doubles the diagonal entry


def test_duality_detects_swapped_roles(basis):
    # feeding basis columns as adjoint rows is far from the identity
    row = lambda s: basis.phi(-s)[:, 0]
    drow = lambda s: -basis.B[0, 0] * basis.phi(-s)[:, 0]
    col = lambda th: basis.psi(-th)[0]
    val = bilinear_form(row, col, basis.pieces, drow)
    assert abs(val - 1.0) >= 0.1


def test_array_holders_compare_without_raising(hh, basis):
    # a generated __eq__ asks an array field for its truth value, which
    # raises ValueError; the eigenbasis and its point masses compare by
    # identity instead
    again = dh.eigenbasis(hh, EPS, MU)
    for a, b in ((basis.pieces, again.pieces), (basis, again)):
        assert a == a and not a != a
        assert a != b and not a == b


def test_coefficient_shared_factors(coeffs):
    assert coeffs.c12 == 2.0 * coeffs.c11
    assert coeffs.c21 == 2.0 * coeffs.c22


def test_parameter_maps_match_reference(unfolding):
    assert unfolding.c1_map[0] == pytest.approx(REF_C1_MAP[0], abs=1e-7)
    assert unfolding.c1_map[1] == pytest.approx(REF_C1_MAP[1], abs=1e-7)
    assert unfolding.c2_map[0] == pytest.approx(REF_C2_MAP[0], abs=1e-7)
    assert unfolding.c2_map[1] == pytest.approx(REF_C2_MAP[1], abs=1e-7)


def test_coefficients_small_memory_limit(hh):
    # continuity as the memory weight vanishes: closed forms at mu = 1e-8
    # against the analytic mu = 0 reduction
    eps = EPS
    t0, om1, om2, k0 = hh.tau0, hh.omega1, hh.omega2, hh.k0
    got = dh.nf_coefficients(replace(hh, mu=1e-8), eps, 1e-8)
    d1 = 1.0 / (eps - 2j * om1)
    d2 = 1.0 / (eps - 2j * om2)
    expect = {
        "a11": -d1 * eps * t0,
        "a12": d1 * (-k0 * eps + om1**2 + 1.0),
        "c11": 1j * d1 * eps * t0 * om1,
        "a21": -d2 * eps * t0,
        "a22": d2 * (-k0 * eps + om2**2 + 1.0),
        "c22": 1j * d2 * eps * t0 * om2,
    }
    for name, val in expect.items():
        assert getattr(got, name) == pytest.approx(val, abs=1e-6)


def test_unfolding_reference_values(unfolding):
    assert unfolding.eps1 == 1 and unfolding.eps2 == -1
    assert unfolding.d0 == -1
    assert unfolding.b0 == pytest.approx(REF_B0, rel=1e-5)
    assert unfolding.c0 == pytest.approx(REF_C0, rel=1e-5)
    assert unfolding.det == pytest.approx(3.0, abs=1e-9)
    # structural identity: b0*c0 = -4 because c12 = 2c11 and c21 = 2c22
    assert unfolding.b0 * unfolding.c0 == pytest.approx(-4.0, abs=1e-9)
    assert dh.classify_unfolding(unfolding) == "VIa"


def test_unfolding_sign_product():
    coeffs = NormalFormCoeffs(
        a11=1 + 0j, a12=1 + 0j, c11=2.0 + 0j,
        a21=1 + 0j, a22=1 + 0j, c22=3.0 + 0j,
    )
    u = dh.unfolding_params(coeffs)
    assert u.eps1 == u.eps2 == 1
    assert u.d0 == 1


def test_unfolding_degenerate_cubic():
    coeffs = NormalFormCoeffs(
        a11=1 + 0j, a12=1 + 0j, c11=1e-14 + 1j,
        a21=1 + 0j, a22=1 + 0j, c22=1 + 0j,
    )
    with pytest.raises(DegenerateCubic):
        dh.unfolding_params(coeffs)


def test_maps_vanish_at_origin(unfolding):
    alpha = np.zeros(2)
    assert float(unfolding.c1_map @ alpha) == 0.0
    assert float(unfolding.c2_map @ alpha) == 0.0


def test_unfolding_equality_compares_maps_by_value(coeffs):
    # the maps are arrays: equality compares them entry by entry instead
    # of asking an array for its truth value
    u, again = dh.unfolding_params(coeffs), dh.unfolding_params(coeffs)
    assert u == again and not u != again
    assert u.c1_map is not again.c1_map
    bumped = u.c2_map.copy()
    bumped[1] = math.nextafter(bumped[1], math.inf)
    for other in (replace(u, b0=math.nextafter(u.b0, 0.0)), replace(u, c2_map=bumped),
                  replace(u, c1_map=u.c1_map[::-1].copy())):
        assert u != other and not u == other
    assert u != "VIa"
    # the maps stay arrays: c = map @ alpha
    alpha = np.array([0.1, -0.2])
    assert float(u.c1_map @ alpha) == pytest.approx(u.c1_map[0] * 0.1 - u.c1_map[1] * 0.2)


def _mk_unfolding(d0, b0, c0):
    u = UnfoldingParams(
        eps1=1, eps2=d0, b0=b0, c0=c0,
        c1_map=np.array([1.0, 0.0]), c2_map=np.array([0.0, 1.0]),
    )
    np.testing.assert_equal(u.det, d0 - b0 * c0)  # NaN equals NaN here
    return u


def test_unfolding_stores_no_derived_value():
    # d0 = eps1*eps2, det and the case follow from eps1, eps2, b0 and c0:
    # none is a field, and neither d0 nor det can be set apart from them;
    # the cross couplings c12 = 2*c11 and c21 = 2*c22 are not fields either
    names = [f.name for f in fields(UnfoldingParams)]
    assert names == ["eps1", "eps2", "b0", "c0", "c1_map", "c2_map"]
    names = [f.name for f in fields(NormalFormCoeffs)]
    assert names == ["a11", "a12", "c11", "a21", "a22", "c22"]
    u = _mk_unfolding(-1, 1.0, -2.0)
    for name in ("d0", "det"):
        with pytest.raises(AttributeError):
            setattr(u, name, 0.0)
    u.b0 = 2.0
    assert u.det == -1 - 2.0 * -2.0
    u.eps1 = -1
    assert (u.d0, u.det) == (1, 1 - 2.0 * -2.0)


@pytest.mark.parametrize(
    "d0,b0,c0,label",
    [
        (-1, 1.0, -2.0, "VIa"),
        (1, 1.0, 1.0, None),  # det = 1 - b0*c0 = 0 -> boundary
        (1, 2.0, 1.0, "Ib"),
        (1, 0.5, 1.0, "Ia"),
        (-1, -1.0, -1.0, "VIII"),
        (1, 2.0, -1.0, "II"),
        (-1, -0.5, 1.0, "VIIb"),
        # a non-finite coupling has no sign: not VIIb, VIII, VIb, IVb or VIa
        (-1, math.nan, 1.0, None),
        (-1, math.nan, -1.0, None),
        (-1, 1.0, math.nan, None),
        (1, math.nan, math.nan, None),
        (-1, math.inf, -1.0, None),
    ],
)
def test_classification_table(d0, b0, c0, label):
    u = _mk_unfolding(d0, b0, c0)
    if label is None:
        for call in (dh.classify_unfolding, dh.via_lines,
                     lambda u: dh.predict_attractor(1, u)):
            with pytest.raises(BoundaryCase):
                call(u)
    else:
        assert dh.classify_unfolding(u) == label


def test_classification_scale_invariance(coeffs):
    for scale in (0.01, 1.0, 250.0):
        scaled = NormalFormCoeffs(
            coeffs.a11, coeffs.a12, scale * coeffs.c11,
            coeffs.a21, coeffs.a22, scale * coeffs.c22,
        )
        u = dh.unfolding_params(scaled)
        assert dh.classify_unfolding(u) == "VIa"
        assert u.det == pytest.approx(3.0, abs=1e-9)


def test_classification_table_is_consistent():
    assert len(UNFOLDING_TABLE) == 12
    assert len(set(UNFOLDING_TABLE.values())) == 12
    # the four sign patterns ruled out by det = d0 - b0*c0 are absent:
    # b0*c0 < 0 with d0 = +1 forces det > 0, and b0*c0 > 0 with d0 = -1
    # forces det < 0
    for key in ((1, 1, -1, -1), (1, -1, 1, -1), (-1, 1, 1, 1), (-1, -1, -1, 1)):
        assert key not in UNFOLDING_TABLE


def test_via_lines_reference_slopes(lines):
    for name, slope in REF_SLOPES.items():
        assert lines[name].slope == pytest.approx(slope, abs=1e-4), name


def test_via_lines_half_planes(lines):
    for name in ("L1", "L2", "L3", "L4", "L5", "L6"):
        assert lines[name].half_plane == "alpha1>0"
    assert lines["L7"].half_plane == "alpha1<0"
    assert lines["L8"].half_plane == "alpha1<0"
    assert lines["L7"].slope == pytest.approx(lines["L1"].slope, abs=1e-12)
    assert lines["L8"].slope == pytest.approx(lines["L2"].slope, abs=1e-12)
    assert lines["L4"].tangent_correction_omitted
    assert not lines["L5"].tangent_correction_omitted


def test_L3_slope_against_nullspace_oracle(unfolding, lines):
    # independent solve: direction of the kernel of the mapped row
    row = np.array(
        [
            unfolding.c0 * unfolding.c1_map[0] - unfolding.c2_map[0],
            unfolding.c0 * unfolding.c1_map[1] - unfolding.c2_map[1],
        ]
    )
    _, _, vt = np.linalg.svd(row.reshape(1, 2))
    d = vt[-1]
    slope = d[1] / d[0]
    assert lines["L3"].slope == pytest.approx(slope, abs=1e-10)
    assert slope == pytest.approx(0.828102, abs=1e-4)


def test_via_lines_wrong_case():
    u = _mk_unfolding(1, 0.5, 1.0)  # case Ia
    with pytest.raises(WrongCase):
        dh.via_lines(u)


def test_via_lines_refuse_a_singular_parameter_map():
    # det(c-map) = 1*4 - 2*2 = 0: every ray would have slope -0.5
    u = UnfoldingParams(eps1=1, eps2=-1, b0=2.0, c0=-1.5,
                        c1_map=np.array([1.0, 2.0]), c2_map=np.array([2.0, 4.0]))
    assert dh.classify_unfolding(u) == "VIa"
    with pytest.raises(DegenerateCubic, match="singular"):
        dh.via_lines(u)


def test_via_lines_orient_an_ill_conditioned_map():
    # c1_map (1e-17, 0), c2_map (1, 1): the mapped L3..L5 directions map
    # back to c vectors whose c2 cancels to zero in floating point, so a
    # half-plane test cannot orient them; the sign of det can.  Each angle
    # is that of the exact A^-1 d, computed in rationals
    t = 1e-17
    u = UnfoldingParams(eps1=1, eps2=-1, b0=1.0, c0=-2.0,
                        c1_map=np.array([t, 0.0]), c2_map=np.array([1.0, 1.0]))
    (p, q), (r, s) = (map(Fraction, u.c1_map), map(Fraction, u.c2_map))
    det = p * s - q * r
    for ln, (d1, d2) in zip(dh.via_lines(u).lines,
                            normalform._c_rays(u.b0, u.c0)):
        a1 = (s * Fraction(d1) - q * Fraction(d2)) / det
        a2 = (p * Fraction(d2) - r * Fraction(d1)) / det
        assert ln.angle == pytest.approx(math.atan2(a2, a1), abs=1e-12), ln.name


def test_region_reference_points(lines):
    assert dh.region_of(-0.1, -0.08, lines) == 8
    assert dh.region_of(-0.1, 0.1, lines) == 7
    assert dh.region_of(0.1, 0.085, lines) == 6


def test_region_boundary_and_origin(lines):
    ang = lines["L1"].angle
    with pytest.raises(OnBoundary):
        dh.region_of(0.2 * math.cos(ang), 0.2 * math.sin(ang), lines)
    with pytest.raises(ValueError):
        dh.region_of(0.0, 0.0, lines)


@pytest.mark.parametrize("bracket", [(4.5, 5.2), (-8.0, -7.5)], ids=str)
def test_alpha_rays_map_onto_the_c_plane_rays(bracket):
    # one ray table: each alpha-plane ray direction maps to a positive
    # multiple of its c-plane direction, whichever way the map turns
    hh = dh.find_hopf_hopf(EPS, MU, 1, 1, *bracket)
    u = dh.unfolding_params(dh.nf_coefficients(hh, EPS, MU))
    cmap = np.vstack([u.c1_map, u.c2_map])
    for ln, ray in zip(dh.via_lines(u).lines, normalform._c_rays(u.b0, u.c0)):
        c = cmap @ [math.cos(ln.angle), math.sin(ln.angle)]
        assert c @ ray > 0.0, ln.name
        assert abs(c[0] * ray[1] - c[1] * ray[0]) <= 1e-12 * np.hypot(*c), ln.name


def test_region_of_reads_a_clockwise_diagram_in_its_mirror(lines):
    # a reversing parameter map turns the rays clockwise: the mirror image
    # of the worked diagram puts every mirrored point in its own region
    mirror = ViaLines(tuple(replace(ln, angle=-ln.angle) for ln in lines.lines))
    for name in ("L1", "L2", "L3", "L6", "L7", "L8"):
        for rot in (-1e-4, 1e-4):
            ang = lines[name].angle + rot
            want = dh.region_of(math.cos(ang), math.sin(ang), lines)
            assert dh.region_of(math.cos(ang), -math.sin(ang), mirror) == want


def test_region_of_refuses_rays_in_neither_cyclic_order(lines):
    # swapping L2 and L6 breaks the order in both senses of rotation
    rays = list(lines.lines)
    rays[1], rays[5] = replace(rays[1], angle=rays[5].angle), replace(
        rays[5], angle=rays[1].angle)
    with pytest.raises(ValueError, match="neither cyclic order"):
        dh.region_of(-0.1, -0.08, ViaLines(tuple(rays)))


def test_region_adjacency_across_lines(lines):
    # rotating a hair to each side of a ray lands in the two flanking
    # sectors; the tangent L4/L5 pair bounds an empty D5, so its
    # neighbors are D4 and D6.  The rotation must stay inside D4, whose
    # width (L3 to L4) is only ~5e-4 rad here.
    eps_rot = 1e-4
    expected = {
        "L1": {1, 2}, "L2": {2, 3}, "L3": {3, 4}, "L4": {4, 6},
        "L5": {4, 6}, "L6": {6, 7}, "L7": {7, 8}, "L8": {8, 1},
    }
    for name, want in expected.items():
        ang = lines[name].angle
        got = {
            dh.region_of(math.cos(ang - eps_rot), math.sin(ang - eps_rot), lines),
            dh.region_of(math.cos(ang + eps_rot), math.sin(ang + eps_rot), lines),
        }
        assert got == want, name


def test_parameter_coefficients_match_root_tracking(hh, coeffs):
    # independent route: the critical root's motion under parameter offsets.
    # In rescaled time lam_resc(alpha) = lam(alpha)*(tau0 + alpha2), so
    # a_i1 = tau0*d lam/dk and a_i2 = tau0*d lam/dtau + i*omega_i.
    from doublehopf.chareq import SystemParams, char_deriv, eval_char

    def track_root(k, tau, guess):
        lam = guess
        p = SystemParams(EPS, MU, k, tau)
        for _ in range(80):
            f = eval_char(lam, p)
            lam = lam - f / char_deriv(lam, p)
            if abs(f) < 1e-14:
                break
        return lam

    d = 1e-6
    for om, a_k, a_tau in (
        (hh.omega1, coeffs.a11, coeffs.a12),
        (hh.omega2, coeffs.a21, coeffs.a22),
    ):
        g = 1j * om
        dk = (
            track_root(hh.k0 + d, hh.tau0, g) - track_root(hh.k0 - d, hh.tau0, g)
        ) / (2 * d)
        dt = (
            track_root(hh.k0, hh.tau0 + d, g) - track_root(hh.k0, hh.tau0 - d, g)
        ) / (2 * d)
        assert abs(a_k - hh.tau0 * dk) < 1e-7
        assert abs(a_tau - (hh.tau0 * dt + 1j * om)) < 1e-7


def test_duality_holds_at_second_crossing():
    # the pairing is the identity at other double-Hopf points too
    hh2 = dh.find_hopf_hopf(EPS, MU, 2, 1, 8.4, 9.1)
    assert hh2.tau0 > REF_TAU0
    basis2 = dh.eigenbasis(hh2, EPS, MU)
    assert dh.duality_residual(basis2) < 1e-8


def test_normalizers_invert_char_deriv(hh, basis):
    # D_i = -1/Delta'(i*omega_i) in original time at (k0, tau0), shared by
    # the eigenbasis and the normal-form coefficients
    from doublehopf.chareq import SystemParams, char_deriv

    p = SystemParams(EPS, MU, hh.k0, hh.tau0)
    d1, d2 = (complex(-1.0 / char_deriv(1j * om, p)) for om in (hh.omega1, hh.omega2))
    # the second component of the slow and fast adjoint rows at s = 0
    assert (-basis.psi(0.0)[[0, 2], 1]).tolist() == [d1, d2]
    c = dh.nf_coefficients(hh, EPS, MU)
    assert c.a11 == -d1 * EPS * (1.0 - MU) * hh.tau0
    assert c.a21 == -d2 * EPS * (1.0 - MU) * hh.tau0
    assert (c.c12, c.c21) == (2.0 * c.c11, 2.0 * c.c22)


@pytest.mark.parametrize("fn", [dh.eigenbasis, dh.nf_coefficients])
@pytest.mark.parametrize("eps,mu", [(0.2, MU), (EPS, 0.3)])
def test_mismatched_instance_is_rejected(hh, fn, eps, mu):
    # the point carries its instance; a different (epsilon, mu) is an error
    # that names both pairs, never a silent mix of two instances
    with pytest.raises(ValueError) as exc:
        fn(hh, eps, mu)
    assert f"({eps!r}, {mu!r})" in str(exc.value)
    assert f"({EPS!r}, {MU!r})" in str(exc.value)
