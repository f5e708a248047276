import math

import numpy as np
import pytest

import doublehopf as dh
from doublehopf import nfde_sim
from doublehopf.chareq import SystemParams
from doublehopf.errors import InsufficientData, NonFiniteState
from doublehopf.nfde_sim import PoincareSection, Trajectory

from conftest import EPS, MU


def cfg_at(hh, a1, a2, x0=0.1, y0=0.0, h_div=500, t_end=100.0, transient=0.0,
           formulation="theta_form"):
    params = SystemParams(EPS, MU, hh.k0 + a1, hh.tau0 + a2)
    return dh.SimConfig.from_divisor(params, x0, y0, h_div, t_end, transient,
                                     formulation)


def test_from_divisor_rejects_small_divisor(hh):
    # the same h_div >= 4 rule SimConfig applies to tau/h, before dividing
    params = SystemParams(EPS, MU, hh.k0, hh.tau0)
    for h_div in (0, 3):
        with pytest.raises(ValueError, match="h_div"):
            dh.SimConfig.from_divisor(params, 0.1, 0.0, h_div, 10.0)


def test_config_validation(hh):
    params = SystemParams(EPS, MU, hh.k0, hh.tau0)
    with pytest.raises(ValueError):
        dh.SimConfig(params, 0.1, 0.0, params.tau / 2000 * 1.01, 10.0)
    with pytest.raises(ValueError):
        dh.SimConfig(params, 0.1, 0.0, params.tau / 2000, 10.0, transient=20.0)
    with pytest.raises(ValueError):
        dh.SimConfig(params, 0.1, 0.0, params.tau / 2000, 10.0,
                     formulation="implicit")
    cfg = dh.SimConfig.from_divisor(params, 0.1, 0.0, 2000, 10.0)
    assert cfg.n_delay == 2000


def test_zero_data_stays_zero(hh):
    for form, runner in (("theta_form", dh.simulate_theta),
                         ("neutral_form", dh.simulate_neutral)):
        cfg = cfg_at(hh, -0.1, 0.1, x0=0.0, y0=0.0, h_div=100, t_end=50.0,
                     formulation=form)
        traj = runner(cfg)
        assert np.all(traj.x == 0.0)
        assert np.all(traj.y == 0.0)
        assert np.all(traj.dy == 0.0)


def test_feedback_memory_continuous_at_start(hh):
    # constant history puts the memory at its recursion fixed point
    cfg = cfg_at(hh, -0.1, 0.1, x0=0.3, y0=0.0, h_div=200, t_end=30.0)
    traj = dh.simulate_theta(cfg)
    assert traj.theta[0] == 0.3
    mu = MU
    for j in (1, 5, 50):
        assert traj.theta[j] == pytest.approx(
            (1 - mu) * traj.x[j] + mu * 0.3, abs=1e-15
        )


def test_neutral_memory_reconstruction_matches_theta(hh):
    cfg_t = cfg_at(hh, -0.1, 0.1, h_div=400, t_end=60.0)
    cfg_n = cfg_at(hh, -0.1, 0.1, h_div=400, t_end=60.0,
                   formulation="neutral_form")
    tr_t = dh.simulate_theta(cfg_t)
    tr_n = dh.simulate_neutral(cfg_n)
    assert np.max(np.abs(tr_t.theta - tr_n.theta)) < 1e-8


def test_neutral_memory_rebuilds_each_array_on_first_read(hh):
    cfg = cfg_at(hh, -0.1, 0.1, h_div=50, t_end=30.0, formulation="neutral_form")
    traj = dh.simulate_neutral(cfg)
    theta = traj.theta
    assert traj._dtheta is None  # reading theta leaves dtheta unbuilt
    # node-by-node recursion m[n] = (1-mu)*src[n] + mu*m[n-N], history hist
    nd = cfg.n_delay
    for got, src, hist in ((theta, traj.x, cfg.x0), (traj.dtheta, traj.y, 0.0)):
        ref = []
        for n, v in enumerate(src):
            ref.append((1.0 - MU) * float(v) + MU * (hist if n < nd else ref[n - nd]))
        assert np.array_equal(got, ref)


def test_decay_toward_stable_equilibrium(hh):
    # inside the stable region the amplitude envelope shrinks
    cfg = cfg_at(hh, -0.1, -0.08, h_div=500, t_end=500.0)
    traj = dh.simulate_theta(cfg)
    n = len(traj.x)
    early = np.abs(traj.x[: n // 5]).max()
    late = np.abs(traj.x[-n // 5 :]).max()
    assert late < early


def test_formulation_agreement(hh):
    cfg_t = cfg_at(hh, -0.1, 0.1, h_div=500, t_end=150.0)
    cfg_n = cfg_at(hh, -0.1, 0.1, h_div=500, t_end=150.0,
                   formulation="neutral_form")
    tr_t = dh.simulate_theta(cfg_t)
    tr_n = dh.simulate_neutral(cfg_n)
    gap = max(np.max(np.abs(tr_t.x - tr_n.x)), np.max(np.abs(tr_t.y - tr_n.y)))
    assert gap < 1e-6


def test_formulation_gap_fourth_order(hh):
    gaps = []
    for h_div in (250, 500):
        cfg_t = cfg_at(hh, -0.1, 0.1, h_div=h_div, t_end=60.0)
        cfg_n = cfg_at(hh, -0.1, 0.1, h_div=h_div, t_end=60.0,
                       formulation="neutral_form")
        tr_t = dh.simulate_theta(cfg_t)
        tr_n = dh.simulate_neutral(cfg_n)
        gaps.append(
            max(np.max(np.abs(tr_t.x - tr_n.x)), np.max(np.abs(tr_t.y - tr_n.y)))
        )
    assert gaps[0] / gaps[1] > 8.0


def test_determinism_bitwise(hh):
    cfg = cfg_at(hh, 0.1, 0.085, h_div=300, t_end=60.0)
    a = dh.simulate_theta(cfg)
    b = dh.simulate_theta(cfg)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_delayed_samples_are_exact_buffer_reads(hh):
    cfg = cfg_at(hh, -0.1, 0.1, h_div=300, t_end=80.0)
    traj = dh.simulate_theta(cfg)
    ydel = traj.y_delayed()
    nd = traj.n_delay
    assert np.array_equal(ydel[nd:], traj.y[:-nd])
    assert np.all(ydel[:nd] == cfg.y0)


def test_blowup_raises_with_time():
    params = SystemParams(0.1, 0.5, 500.0, 1.0)
    cfg = dh.SimConfig.from_divisor(params, 1.0, 0.0, 50, 100.0)
    with pytest.raises(NonFiniteState) as exc:
        dh.simulate_theta(cfg)
    assert 0.0 < exc.value.time < 100.0
    cfg_n = dh.SimConfig.from_divisor(params, 1.0, 0.0, 50, 100.0,
                                      formulation="neutral_form")
    with pytest.raises(NonFiniteState):
        dh.simulate_neutral(cfg_n)


def test_poincare_synthetic_circle():
    # x = cos t, y = -sin t injected through the dense-output machinery
    h = 0.01
    t = np.arange(0.0, 20.0 + h / 2, h)
    traj = Trajectory.from_samples(
        h, 100, np.cos(t), -np.sin(t), -np.cos(t), x0=1.0, y0=0.0
    )
    sec = dh.poincare(traj, "both", 0.0)
    expect = np.arange(1, 7) * math.pi
    assert len(sec) == len(expect)
    assert np.allclose(sec.t, expect, atol=1e-6)
    assert np.allclose(np.abs(sec.x), 1.0, atol=1e-6)
    assert np.all(sec.direction[::2] == sec.direction[0])
    assert np.all(sec.direction[1::2] == -sec.direction[0])
    for ts in sec.t:
        assert abs(traj.eval_y(ts)) < 1e-9
    ups = dh.poincare(traj, "up", 0.0)
    downs = dh.poincare(traj, "down", 0.0)
    assert len(ups) + len(downs) == len(sec)
    assert np.all(ups.direction == 1) and np.all(downs.direction == -1)


def test_poincare_refinement_on_real_run(hh):
    cfg = cfg_at(hh, -0.1, 0.1, h_div=500, t_end=300.0, transient=100.0)
    traj = dh.simulate_theta(cfg)
    sec = dh.poincare(traj, "both", 100.0)
    assert len(sec) > 20
    for ts in sec.t:
        assert abs(traj.eval_y(ts)) < 1e-9
    assert np.all(np.diff(sec.t) > 0)
    # delayed coordinate agrees with the interpolant
    for ts, yd in zip(sec.t[:10], sec.y_delayed[:10]):
        assert yd == pytest.approx(traj.eval_y(ts - cfg.params.tau), abs=1e-12)


def _section(pts, state_first=1.0, state_last=1.0):
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    return PoincareSection(
        t=np.arange(n, dtype=float),
        x=pts[:, 0],
        y_delayed=pts[:, 1],
        direction=np.ones(n, dtype=int),
        state_norm_first=state_first,
        state_norm_last=state_last,
    )


def test_classify_few_crossings_decaying():
    sec = _section(np.zeros((2, 2)), state_first=0.5, state_last=1e-6)
    assert dh.classify_section(sec) == "equilibrium_like"
    sec = _section(np.zeros((2, 2)), state_first=0.5, state_last=0.9)
    with pytest.raises(InsufficientData):
        dh.classify_section(sec)


def test_classify_decaying_spiral():
    i = np.arange(300)
    r = 0.05 * 0.995**i
    ang = 0.7 * i
    pts = np.column_stack([-r * (1 + 0.01 * np.cos(ang)), r * np.sin(ang) * 0.1])
    assert dh.classify_section(_section(pts)) == "equilibrium_like"


def test_classify_fixed_point():
    rng = np.random.default_rng(2)
    pts = np.array([-0.7, -0.65]) + 1e-8 * rng.standard_normal((300, 2))
    assert dh.classify_section(_section(pts)) == "fixed_point"


def test_classify_closed_curve():
    i = np.arange(400)
    ang = 2 * math.pi * ((i * 0.381966) % 1.0)  # golden-ratio filling
    pts = np.column_stack(
        [-0.4 + 0.05 * np.cos(ang), -0.35 + 0.04 * np.sin(ang)]
    )
    assert dh.classify_section(_section(pts)) == "closed_curve"


def test_classify_curve_family_and_scattered():
    i = np.arange(400)
    ang = 2 * math.pi * ((i * 0.381966) % 1.0)
    left = np.column_stack([-2 + 0.5 * np.cos(ang), 0.5 * np.sin(ang)])
    pts = left.copy()
    pts[::2, 0] += 4.0  # two separated loops
    assert dh.classify_section(_section(pts)) == "curve_family"

    rng = np.random.default_rng(4)
    cloud = rng.uniform(-1, 1, size=(400, 2))
    assert dh.classify_section(_section(cloud)) == "scattered"


def test_classify_exponent_overrides_geometry():
    rng = np.random.default_rng(4)
    cloud = rng.uniform(-1, 1, size=(400, 2))
    sec = _section(cloud)
    assert dh.classify_section(sec, divergence_exponent=0.05) == "scattered"
    assert dh.classify_section(sec, divergence_exponent=-0.001) == "curve_family"


def test_classify_insufficient():
    pts = np.tile([[1.0, 1.0], [1.1, 0.9]], (30, 1))
    with pytest.raises(InsufficientData):
        dh.classify_section(_section(pts, state_first=1.0, state_last=1.0))


def test_divergence_exponent_validation(hh):
    cfg = cfg_at(hh, -0.1, -0.08, h_div=500, t_end=100.0)
    with pytest.raises(ValueError):
        dh.divergence_exponent(cfg, 1e-4, 10.0, 50)
    with pytest.raises(ValueError):
        dh.divergence_exponent(cfg, 1e-8, 10.0, 10)


def test_divergence_exponent_unstable_origin_rate(hh):
    # reference pinned at the unstable origin: the twin's separation grows
    # at the rightmost characteristic root's rate
    k, tau = hh.k0 + 0.3, hh.tau0
    params = SystemParams(EPS, MU, k, tau)
    roots = dh.rightmost_roots(params, -0.1, 0.3, 4.0, grid_n=24)
    growth = max(r.real for r in roots)
    assert growth > 0
    cfg = dh.SimConfig.from_divisor(params, 0.0, 0.0, 400, 600.0)
    lam = dh.divergence_exponent(cfg, 1e-8, 10.0, 50)
    assert lam == pytest.approx(growth, abs=0.1 * growth + 0.002)


def test_divergence_exponent_contracting(hh):
    cfg = cfg_at(hh, -0.1, -0.08, h_div=500, t_end=100.0, transient=50.0)
    lam = dh.divergence_exponent(cfg, 1e-8, 10.0, 50)
    assert lam < 0


def test_divergence_exponent_near_zero_on_cycle(hh):
    cfg = cfg_at(hh, -0.1, 0.1, h_div=500, t_end=2000.0, transient=1500.0)
    lam = dh.divergence_exponent(cfg, 1e-8, 10.0, 50)
    assert abs(lam) <= 0.02


def test_cycle_amplitude_matches_normal_form_scale(hh, unfolding):
    # the bifurcated orbit's size pins the absolute scale of the cubic
    # coefficients (the ratio-based quantities cannot): on the stable
    # fast-mode branch x oscillates with amplitude ~ 2*sqrt(c2/|Re c22|)
    coeffs = dh.nf_coefficients(hh, EPS, MU)
    c2 = float(unfolding.c2_map @ [-0.1, 0.1])
    predicted = 2.0 * math.sqrt(c2 / abs(coeffs.c22.real))
    cfg = cfg_at(hh, -0.1, 0.1, h_div=500, t_end=2500.0, transient=1500.0)
    traj = dh.simulate_theta(cfg)
    j0 = int(1500.0 / cfg.h)
    measured = float(np.abs(traj.x[j0:]).max())
    assert abs(measured - predicted) < 0.15 * predicted


def test_line_t_scan_origin_skipped(hh):
    rows = dh.line_T_scan([0.0], hh=hh)
    assert rows[0].label == "skipped_origin"
    assert rows[0].k == hh.k0 and rows[0].tau == hh.tau0
    assert rows[0].divergence_exponent is None


def test_line_t_scan_insufficient_data_propagates(hh):
    with pytest.raises(InsufficientData):
        dh.line_T_scan(
            [2.0], hh=hh, h_div=100, t_end=40.0, transient=10.0,
            compute_exponent=False,
        )


@pytest.fixture
def windows(monkeypatch):
    """An empty post-transient window store for the duration of one test."""
    store = {}
    monkeypatch.setattr(nfde_sim, "_windows", store)
    return store


def test_theta_run_matches_one_unsplit_stepper_run(hh, windows):
    cfg = cfg_at(hh, 0.2, 0.164, h_div=50, t_end=200.0, transient=60.0)
    traj = dh.simulate_theta(cfg)
    assert len(windows) == 1  # the run stopped at the transient once
    st = nfde_sim._ThetaStepper(cfg.params, cfg.x0, cfg.y0, cfg.h)
    st.step(int(round(cfg.t_end / cfg.h)))
    for got, buf in ((traj.x, st.xs), (traj.y, st.ys), (traj.dy, st.dys),
                     (traj.theta, st.ths), (traj.dtheta, st.dths)):
        assert got.flags.writeable
        assert np.array_equal(got, np.frombuffer(buf, np.float64))


def test_divergence_exponent_reuses_window_bitwise(hh, windows):
    cfg = cfg_at(hh, 0.2, 0.164, h_div=100, t_end=400.0, transient=200.0)
    cold = []
    for d0 in (1e-8, 1e-10):
        windows.clear()
        cold.append(dh.divergence_exponent(cfg, d0, 10.0, 50))
        assert len(windows) == 1
    windows.clear()
    dh.simulate_theta(cfg)
    assert len(windows) == 1
    warm = [dh.divergence_exponent(cfg, d0, 10.0, 50) for d0 in (1e-8, 1e-10)]
    assert [v.hex() for v in warm] == [v.hex() for v in cold]
    assert len(windows) == 1


def test_neutral_run_leaves_window_store_empty(hh, windows):
    cfg = cfg_at(hh, -0.1, 0.1, h_div=50, t_end=100.0, transient=50.0,
                 formulation="neutral_form")
    nfde_sim.simulate(cfg)
    dh.simulate_neutral(cfg)
    assert windows == {}


def test_window_store_is_bounded_fifo(hh, windows):
    cap = nfde_sim._WINDOW_CACHE_SIZE
    cfgs = [cfg_at(hh, -0.1, 0.1, x0=0.1 + 0.01 * i, h_div=20, t_end=30.0,
                   transient=10.0) for i in range(cap + 3)]
    for i, cfg in enumerate(cfgs):
        dh.simulate_theta(cfg)
        assert len(windows) == min(i + 1, cap)
    assert list(windows) == [nfde_sim._window_key(c) for c in cfgs[-cap:]]


@pytest.mark.parametrize("block", [1, 7, 1 << 20])
def test_nn_stats_blocks_match_whole_matrix(monkeypatch, block):
    monkeypatch.setattr(nfde_sim, "_NN_BLOCK_ELEMS", block)
    rng = np.random.default_rng(11)
    for n in (3, 40, 257):
        pts = rng.uniform(-1, 1, size=(n, 2))
        pts[n // 2] = pts[0]  # duplicate points tie at distance zero
        pts[-1] = pts[1]
        pts[-2] = pts[1]
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        nn, order = nfde_sim._nn_stats(pts)
        assert np.array_equal(nn, np.sqrt(np.min(d2, axis=1)))
        assert np.array_equal(order, np.argsort(d2, axis=1)[:, :2])
