import importlib.util
import math
import tracemalloc
import weakref
from pathlib import Path

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


def _shifted(y, nd, y0):
    return np.concatenate([np.full(nd, y0), y])[: len(y)]


def test_delayed_samples_of_a_run_shorter_than_one_delay(hh):
    # more than half a delay, so y[:len - nd] is a nonempty slice from the end
    syn = Trajectory.from_samples(0.1, 10, [0.0] * 7, [1.0] * 7, [0.0] * 7)
    assert np.array_equal(syn.y_delayed(), np.ones(7))  # y0 = y[0]
    syn = Trajectory.from_samples(0.1, 4, [0.0] * 7, np.arange(7.0), [0.0] * 7, y0=-1.0)
    assert np.array_equal(syn.y_delayed(), [-1.0] * 4 + [0.0, 1.0, 2.0])
    cfg = cfg_at(hh, -0.1, 0.1, y0=0.25, h_div=50, t_end=0.6 * (hh.tau0 + 0.1))
    traj = dh.simulate_theta(cfg)
    assert cfg.n_delay / 2 < len(traj) < cfg.n_delay
    assert np.array_equal(traj.y_delayed(), _shifted(traj.y, cfg.n_delay, 0.25))


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


def test_line_t_scan_records_label_error(hh):
    # too short a run to label: the scale is kept, with the classifier's
    # error, and the scan goes on to the next scale
    rows = dh.line_T_scan(
        [2.0, 0.0], hh=hh, h_div=100, t_end=40.0, transient=10.0,
        compute_exponent=False,
    )
    assert [r.iota for r in rows] == [2.0, 0.0]
    assert rows[0].label is None and rows[0].divergence_exponent is None
    assert rows[1].label == "skipped_origin" and rows[1].label_error is None
    cfg = cfg_at(hh, 0.2, 0.162, h_div=100, t_end=40.0, transient=10.0)
    with pytest.raises(InsufficientData) as exc:
        dh.classify_section(nfde_sim.stream_section(cfg))
    assert rows[0].label_error == f"InsufficientData: {exc.value}"


@pytest.fixture
def runs(monkeypatch):
    """An empty run table for the duration of one test."""
    table = weakref.WeakKeyDictionary()
    monkeypatch.setattr(nfde_sim, "_runs", table)
    return table


def test_theta_run_matches_one_unsplit_stepper_run(hh, runs):
    cfg = cfg_at(hh, 0.2, 0.164, h_div=50, t_end=200.0, transient=60.0)
    traj = dh.simulate_theta(cfg)
    # (test_stored_run_matches_one_unsplit_stepper_run pins the columns)
    # the run's entry holds its post-transient window alone, a copy of the
    # state a run stopped at the transient reaches
    n_tr = nfde_sim._transient_steps(cfg)
    assert list(runs[cfg]) == [n_tr]
    split = nfde_sim._ThetaStepper(cfg.params, cfg.x0, cfg.y0, cfg.h)
    split.step(n_tr)
    for got, want, col in zip(runs[cfg][n_tr], split.window(),
                              (traj.x, traj.y, traj.theta, traj.dtheta)):
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, col)


def test_divergence_exponent_reuses_window_bitwise(hh, runs, step_calls):
    kw = dict(h_div=100, t_end=800.0, transient=200.0)
    for d0 in (1e-8, 1e-10):
        cold = dh.divergence_exponent(cfg_at(hh, 0.2, 0.164, **kw), d0, 10.0, 50)
        assert len(runs) == 0  # the entry went with the temporary cfg
        cfg = cfg_at(hh, 0.2, 0.164, **kw)
        dh.simulate_theta(cfg)
        del step_calls[:]
        window = dh.divergence_exponent(cfg, d0, 10.0, 50)
        assert len(step_calls) == 2 * 50  # reference and clone, from the window
        del step_calls[:]
        legs = dh.divergence_exponent(cfg, d0, 10.0, 50)
        assert len(step_calls) == 50  # the clone; the legs were recorded
        assert window.hex() == legs.hex() == cold.hex()
        # the entry of one configuration serves no other
        for other in (cfg_at(hh, 0.2, 0.165, **kw),
                      cfg_at(hh, 0.2, 0.164, **dict(kw, transient=300.0))):
            del step_calls[:]
            dh.divergence_exponent(other, d0, 10.0, 50)
            assert len(step_calls) == 1 + 2 * 50  # transient, reference, clone
        del cfg, other


def test_neutral_run_leaves_window_store_empty(hh, runs):
    cfg = cfg_at(hh, -0.1, 0.1, h_div=50, t_end=100.0, transient=50.0,
                 formulation="neutral_form")
    nfde_sim.simulate(cfg)
    dh.simulate_neutral(cfg)
    assert len(runs) == 0


def test_window_entry_goes_with_its_cfg(hh, runs):
    cfgs = [cfg_at(hh, -0.1, 0.1, x0=0.1 + 0.01 * i, h_div=20, t_end=30.0,
                   transient=10.0) for i in range(3)]
    trajs = [dh.simulate_theta(cfg) for cfg in cfgs]
    assert len(runs) == 3
    # the table holds its cfg weakly and no run, so it keeps the windows of
    # live configurations only, whether their runs are held or not
    n_tr = nfde_sim._transient_steps(cfgs[0])
    first = weakref.ref(cfgs.pop(0))
    assert first() is None and len(runs) == 2
    trajs.clear()
    assert [list(runs[cfg]) for cfg in cfgs] == [[n_tr], [n_tr]]
    cfgs.clear()
    assert len(runs) == 0


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


@pytest.fixture
def step_calls(monkeypatch):
    """Counts _ThetaStepper.step calls (reference and clone legs alike)."""
    calls = []
    step = nfde_sim._ThetaStepper.step

    def counted(self, n):
        calls.append(n)
        return step(self, n)

    monkeypatch.setattr(nfde_sim._ThetaStepper, "step", counted)
    return calls


def _n_steps(cfg):
    return int(round(cfg.t_end / cfg.h))


def test_line_t_scan_shares_and_releases_the_reference(hh, runs, step_calls,
                                                       monkeypatch):
    # the scan streams its runs: no Trajectory, no separate section pass
    for name in ("simulate", "simulate_theta", "poincare"):
        monkeypatch.setattr(nfde_sim, name, None)
    streamed = []
    stream_section = nfde_sim.stream_section

    def tracked(cfg, *args):
        # each scale's _runs entry is gone before the next scale's run starts
        assert len(runs) == 0
        streamed.append((_n_steps(cfg), int(round(5.0 / cfg.h))))
        return stream_section(cfg, *args)

    monkeypatch.setattr(nfde_sim, "stream_section", tracked)
    kw = dict(hh=hh, h_div=100, t_end=2200.0, transient=400.0, renorm_T=5.0)
    rows = dh.line_T_scan([2.0, 2.6], **kw)
    # each run is stepped once; the exponent then steps only its 50 clone
    # legs, reading the reference legs that the run recorded
    assert len(streamed) == 2
    assert sum(step_calls) == sum(n_run + 50 * n_seg for n_run, n_seg in streamed)
    assert len(runs) == 0  # the scan's configurations are gone
    for row in rows:
        cfg = dh.SimConfig.from_divisor(SystemParams(EPS, MU, row.k, row.tau),
                                        0.1, 0.0, 100, 2200.0, 400.0)
        alone = dh.divergence_exponent(cfg, 1e-9, 5.0, 50)
        assert row.divergence_exponent.hex() == alone.hex()


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_line_t_scan_matches_untraced():
    # perfbench's tracer binds every parameter of divergence_exponent
    # and the other traced functions; a traced scan must run unchanged
    kw = dict(h_div=100, t_end=2200.0, transient=400.0, renorm_T=5.0)
    plain = dh.line_T_scan([2.0, 2.6], **kw)
    with _load_tracing().Tracer() as tracer:
        traced = dh.line_T_scan([2.0, 2.6], **kw)
    groups = {s["name"] for s in tracer.spans}
    # the streamed runs call neither simulate_theta nor poincare
    assert "nfde_sim.theta" not in groups and "nfde_sim.poincare" not in groups
    for group in ("divergence_exponent", "classify_section"):
        spans = [s for s in tracer.spans if s["name"] == f"nfde_sim.{group}"]
        assert len(spans) == 2, group
        assert all(s["error"] is None for s in spans), group
    assert [r.divergence_exponent.hex() for r in traced] == [
        r.divergence_exponent.hex() for r in plain]


@pytest.mark.parametrize("kw", [
    dict(delta0=1e-4), dict(delta0=math.nan), dict(n_renorm=10),
    dict(renorm_T=0.01), dict(renorm_T=math.inf), dict(renorm_T=math.nan),
])
def test_line_t_scan_checks_exponent_arguments_before_any_run(hh, step_calls, kw):
    with pytest.raises(ValueError):
        dh.line_T_scan([2.0, 2.6], hh=hh, h_div=100, t_end=2200.0,
                       transient=400.0, **kw)
    assert step_calls == []


def test_second_exponent_steps_only_its_clone(hh, runs, step_calls):
    kw = dict(h_div=100, t_end=800.0, transient=200.0)
    cold = {d0: dh.divergence_exponent(cfg_at(hh, 0.2, 0.164, **kw), d0, 10.0, 50)
            for d0 in (1e-8, 1e-9)}
    cfg = cfg_at(hh, 0.2, 0.164, **kw)
    del step_calls[:]
    first = dh.divergence_exponent(cfg, 1e-8, 10.0, 50)
    assert len(step_calls) == 1 + 2 * 50  # transient, reference, clone
    for d0 in (1e-9, 1e-8):
        del step_calls[:]
        again = dh.divergence_exponent(cfg, d0, 10.0, 50)
        assert len(step_calls) == 50  # the clone; the legs were recorded
        assert again.hex() == cold[d0].hex()
    assert first.hex() == cold[1e-8].hex()
    # other legs need their own reference, from the recorded windows
    del step_calls[:]
    dh.divergence_exponent(cfg, 1e-8, 5.0, 50)
    assert len(step_calls) == 2 * 50


def _section_hex(sec):
    cols = [[v.hex() for v in col.tolist()] for col in (sec.t, sec.x, sec.y_delayed)]
    return (cols, sec.direction.tolist(), sec.state_norm_first.hex(),
            sec.state_norm_last.hex())


@pytest.mark.parametrize("chunk", [7, 64, 1 << 16])
@pytest.mark.parametrize("transient", [0.0, 60.0])
def test_streamed_section_matches_stored_run(hh, monkeypatch, chunk, transient):
    monkeypatch.setattr(nfde_sim, "_CHUNK", chunk)
    # transient 60 ends at step 335: inside the first chunk, or past it
    cfg = cfg_at(hh, 0.2, 0.164, h_div=50, t_end=200.0, transient=transient)
    traj = dh.simulate_theta(cfg)
    for d in ("both", "up", "down"):
        want = dh.poincare(traj, d, transient)
        assert len(want) > 10
        assert _section_hex(nfde_sim.stream_section(cfg, d)) == _section_hex(want)


def test_streamed_section_shorter_than_one_delay(hh, monkeypatch):
    monkeypatch.setattr(nfde_sim, "_CHUNK", 7)
    cfg = cfg_at(hh, -0.1, 0.1, h_div=200, t_end=6.0)
    assert cfg.t_end < cfg.params.tau
    want = dh.poincare(dh.simulate_theta(cfg), "both", 0.0)
    assert len(want) >= 1  # its delayed value is the history's
    assert _section_hex(nfde_sim.stream_section(cfg)) == _section_hex(want)


@pytest.mark.parametrize("chunk", [7, 64, 1 << 16])
@pytest.mark.parametrize("transient", [0.0, 60.0])
def test_streamed_neutral_section_matches_stored_run(hh, monkeypatch, chunk, transient):
    monkeypatch.setattr(nfde_sim, "_CHUNK", chunk)
    cfg = cfg_at(hh, 0.2, 0.164, h_div=50, t_end=200.0, transient=transient,
                 formulation="neutral_form")
    traj = dh.simulate_neutral(cfg)
    for d in ("both", "up", "down"):
        want = dh.poincare(traj, d, transient)
        assert len(want) > 10
        assert _section_hex(nfde_sim.stream_section(cfg, d)) == _section_hex(want)


def test_streamed_neutral_section_shorter_than_one_delay(hh, monkeypatch):
    monkeypatch.setattr(nfde_sim, "_CHUNK", 7)
    cfg = cfg_at(hh, -0.1, 0.1, h_div=200, t_end=6.0, formulation="neutral_form")
    assert cfg.t_end < cfg.params.tau
    want = dh.poincare(dh.simulate_neutral(cfg), "both", 0.0)
    assert len(want) >= 1
    assert _section_hex(nfde_sim.stream_section(cfg)) == _section_hex(want)


def _replay(run):
    """A stepper class whose steps append the samples of a stored run."""

    class Replay(nfde_sim._ThetaStepper):
        def step(self, n):
            g = self.base + self.j  # run index of the last sample
            bufs = (self.xs, self.ys, self.dys, self.ths, self.dths)
            cols = (run.x, run.y, run.dy, run.theta, run.dtheta)
            for buf, col in zip(bufs, cols):
                buf.extend(col[g + 1 : g + n + 1].tolist())
            self.j += n

    return Replay


def test_streamed_section_across_chunk_boundaries(hh, monkeypatch):
    cfg = cfg_at(hh, 0.2, 0.164, h_div=50, t_end=800.0, transient=10.0)
    traj = dh.simulate_theta(cfg)
    y, h = traj.y, cfg.h
    cross = np.nonzero(y[:-1] * y[1:] < 0.0)[0]
    c, z = cross[cross > 4000][:2]
    # a crossing next to node c + 1: past step 4096 its time rounds onto
    # the node, so its dense output reads sample c + 2
    y[c + 1] = math.copysign(1e-300, y[c + 1])
    y[z + 1] = 0.0  # an exact-zero node: interval z's crossing moves onto it
    assert y[z] * y[z + 2] < 0.0
    want = dh.poincare(traj, "both", cfg.transient)
    assert [int(t / h) for t in want.t.tolist() if c * h <= t < z * h] == [c + 1]
    assert (z + 1) * h in want.t.tolist()
    monkeypatch.setattr(nfde_sim, "_ThetaStepper", _replay(traj))
    # a chunk boundary on and next to the crossing and the zero node
    for chunk in [int(i) + d for i in (c, z + 1) for d in range(-2, 3)]:
        monkeypatch.setattr(nfde_sim, "_CHUNK", chunk)
        got = nfde_sim.stream_section(cfg)
        assert _section_hex(got) == _section_hex(want), chunk


def _raised(fn, *args):
    with pytest.raises(NonFiniteState) as exc:
        fn(*args)
    return exc.value.time, str(exc.value)


def test_streamed_blowup_matches_stored_run(monkeypatch):
    monkeypatch.setattr(nfde_sim, "_CHUNK", 7)
    params = SystemParams(0.1, 0.5, 500.0, 1.0)
    cfg = dh.SimConfig.from_divisor(params, 1.0, 0.0, 50, 100.0)
    st = nfde_sim._ThetaStepper(params, cfg.x0, cfg.y0, cfg.h)
    want = _raised(st.step, _n_steps(cfg))  # one unsplit run
    assert want[0] > 10 * 7 * cfg.h  # many chunks in
    assert _raised(dh.simulate_theta, cfg) == want
    assert _raised(nfde_sim.stream_section, cfg) == want


def test_line_t_scan_memory_flat_in_the_transient(hh, monkeypatch):
    # the same 1800 time units measured after a transient of 400 and 7000:
    # a stored run would add 5 arrays of 8 bytes per step
    monkeypatch.setattr(nfde_sim, "_CHUNK", 1024)
    peaks = []
    for t_end, transient in ((2200.0, 400.0), (8800.0, 7000.0)):
        tracemalloc.start()
        try:
            dh.line_T_scan([2.0], hh=hh, h_div=50, t_end=t_end,
                           transient=transient, renorm_T=5.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    stored = 5 * 8 * _n_steps(cfg_at(hh, 0.2, 0.162, h_div=50, t_end=8800.0))
    assert peaks[1] < 0.25 * stored
    assert peaks[1] < 1.2 * peaks[0]


_STEPPERS = {"theta_form": "_ThetaStepper", "neutral_form": "_NeutralStepper"}


@pytest.mark.parametrize("formulation", sorted(_STEPPERS))
@pytest.mark.parametrize("chunk", [7, 49, 51, 1 << 16])  # 7, N - 1, N + 1, 2^16
def test_stored_run_matches_one_unsplit_stepper_run(hh, monkeypatch, runs,
                                                    formulation, chunk):
    monkeypatch.setattr(nfde_sim, "_CHUNK", chunk)
    cfg = cfg_at(hh, 0.2, 0.164, h_div=50, t_end=200.0, transient=60.0,
                 formulation=formulation)
    assert cfg.n_delay == 50
    traj = nfde_sim.simulate(cfg)
    st = getattr(nfde_sim, _STEPPERS[formulation])(cfg.params, cfg.x0, cfg.y0, cfg.h)
    st.step(_n_steps(cfg))
    cols = [traj.x, traj.y, traj.dy]
    if formulation == "theta_form":
        cols += [traj.theta, traj.dtheta]
    else:
        assert traj._theta is None and traj._dtheta is None  # rebuilt on read
    assert len(cols) == len(st._BUFFERS)
    for got, name in zip(cols, st._BUFFERS):
        assert got.tobytes() == getattr(st, name).tobytes(), name


@pytest.mark.parametrize("formulation", sorted(_STEPPERS))
def test_stored_run_memory_is_its_columns_plus_a_chunk(hh, monkeypatch, formulation):
    # 16704 steps in chunks of 512: an unsplit stepper run would add at
    # least one more column of 8 bytes per step (130 KiB)
    monkeypatch.setattr(nfde_sim, "_CHUNK", 512)
    cfg = cfg_at(hh, 0.2, 0.164, h_div=50, t_end=3000.0, transient=100.0,
                 formulation=formulation)
    tracemalloc.start()
    try:
        traj = nfde_sim.simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cols = [traj.x, traj.y, traj.dy, traj._theta, traj._dtheta]
    stored = sum(c.nbytes for c in cols if c is not None)
    assert stored == (5 if formulation == "theta_form" else 3) * 8 * (_n_steps(cfg) + 1)
    # the stepper's chunk of at most five columns, twice over, plus 64 KiB
    # for the interpreter's free lists and the recorded window
    assert peak < stored + 2 * 5 * 8 * 512 + (1 << 16)
