import concurrent.futures
import importlib.util
import inspect
import math
import pickle
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import doublehopf as dh
from doublehopf import nfde_sim
from doublehopf.chareq import SystemParams
from doublehopf.errors import DoubleHopfError, InsufficientData, NonFiniteState
from doublehopf.nfde_sim import PoincareSection, Trajectory

from conftest import EPS, MU, delayed_y, memory_recursion, rightmost_roots


def cfg_at(hh, a1, a2, x0=0.1, y0=0.0, h_div=500, t_end=100.0, transient=0.0,
           formulation="theta_form"):
    params = SystemParams(EPS, MU, hh.k0 + a1, hh.tau0 + a2)
    return dh.SimConfig(params, x0, y0, h_div, t_end, transient, formulation)


def test_from_divisor_rejects_small_divisor(hh):
    # h_div >= 4, checked before dividing
    params = SystemParams(EPS, MU, hh.k0, hh.tau0)
    for h_div in (0, 3):
        with pytest.raises(ValueError, match="h_div"):
            dh.SimConfig(params, 0.1, 0.0, h_div, 10.0)


def test_config_validation(hh):
    params = SystemParams(EPS, MU, hh.k0, hh.tau0)
    # the grid is an integer divisor of tau: a float, even a whole one, is
    # a call written for the step h and is refused, and so is one numpy's
    # 64-bit indices cannot reach
    for bad in (params.tau / 2000, 2000.5, 2000.0, math.nan, math.inf,
                2**63, 10**30):
        with pytest.raises(ValueError, match="^h_div must be an integer >= 4"):
            dh.SimConfig(params, 0.1, 0.0, bad, 10.0)
    with pytest.raises(ValueError):
        dh.SimConfig(params, 0.1, 0.0, 2000, 10.0, transient=20.0)
    with pytest.raises(ValueError):
        dh.SimConfig(params, 0.1, 0.0, 2000, 10.0, formulation="implicit")
    for name in ("x0", "y0"):
        for bad in (math.nan, math.inf, -math.inf, True, 2**1100):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
                dh.SimConfig(params, **{"x0": 0.1, "y0": 0.0, name: bad},
                             h_div=2000, t_end=10.0)
    with pytest.raises(ValueError, match="^h = tau/h_div must be positive"):
        dh.SimConfig(replace(params, tau=0.0), 0.1, 0.0, 2000, 10.0)
    assert dh.SimConfig(params, 0.1, 0.0, 2000, 10.0).h == params.tau / 2000


def test_config_takes_any_integer_type(hh):
    # numpy integers index like ints and are stored as one; a numpy float
    # is still a float
    params = SystemParams(EPS, MU, hh.k0, hh.tau0)
    want = dh.SimConfig(params, 0.1, 0.0, 2000, 10.0)
    for h_div in (np.int64(2000), np.int32(2000), np.uint16(2000)):
        cfg = dh.SimConfig(params, 0.1, 0.0, h_div, 10.0)
        assert type(cfg.h_div) is int and cfg == want
        assert cfg.h.hex() == want.h.hex()
    with pytest.raises(ValueError, match="^h_div must be an integer >= 4"):
        dh.SimConfig(params, 0.1, 0.0, np.float64(2000.0), 10.0)


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


@pytest.mark.parametrize("y0", [0.0, -0.0])
@pytest.mark.parametrize("formulation", ["theta_form", "neutral_form"])
def test_stored_theta_is_the_memory_recursion(hh, formulation, y0):
    # node 0 is x0 in theta form and (1-mu)*x0 + mu*x0 in neutral form, the
    # same float at mu = 1/2
    cfg = cfg_at(hh, -0.1, 0.1, y0=y0, h_div=50, t_end=30.0, formulation=formulation)
    traj = nfde_sim.simulate(cfg)
    want = memory_recursion(traj.x, cfg.x0, cfg.h_div)
    assert traj.theta.tobytes() == want.tobytes()


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
    ydel = delayed_y(traj)
    nd = traj.h_div
    assert np.array_equal(ydel[nd:], traj.y[:-nd])
    assert np.all(ydel[:nd] == cfg.y0)


def _shifted(y, nd, y0):
    return np.concatenate([np.full(nd, y0), y])[: len(y)]


def _y_at(traj, t):
    """y(t) by the Hermite interpolant that refines the section crossings."""
    return nfde_sim._dense(traj.y, traj.dy, traj.y[0], t, traj.h, len(traj.y))


def test_delayed_samples_of_a_run_shorter_than_one_delay(hh):
    # samples of systems with delay h_div * h; more than half a delay, so
    # y[:len - nd] is a nonempty slice from the end; the history is y[0]
    syn = Trajectory(SystemParams(EPS, MU, 0.0, 1.0), 10,
                     np.zeros(7), np.ones(7), np.zeros(7), np.zeros(7))
    assert np.array_equal(delayed_y(syn), np.ones(7))
    syn = Trajectory(SystemParams(EPS, MU, 0.0, 0.4), 4,
                     np.zeros(7), np.arange(-1.0, 6.0), np.zeros(7), np.zeros(7))
    assert np.array_equal(delayed_y(syn), [-1.0] * 4 + [-1.0, 0.0, 1.0])
    cfg = cfg_at(hh, -0.1, 0.1, y0=0.25, h_div=50, t_end=0.6 * (hh.tau0 + 0.1))
    traj = dh.simulate_theta(cfg)
    assert cfg.h_div / 2 < len(traj) < cfg.h_div
    assert np.array_equal(delayed_y(traj), _shifted(traj.y, cfg.h_div, 0.25))


def test_blowup_raises_with_time():
    params = SystemParams(0.1, 0.5, 500.0, 1.0)
    cfg = dh.SimConfig(params, 1.0, 0.0, 50, 100.0)
    with pytest.raises(NonFiniteState) as exc:
        dh.simulate_theta(cfg)
    assert 0.0 < exc.value.time < 100.0
    cfg_n = dh.SimConfig(params, 1.0, 0.0, 50, 100.0, formulation="neutral_form")
    with pytest.raises(NonFiniteState):
        dh.simulate_neutral(cfg_n)


def _error_types(cls=DoubleHopfError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_types(sub)


@pytest.mark.parametrize("cls", list(_error_types()), ids=lambda c: c.__name__)
def test_errors_survive_pickling(cls):
    # a run in a worker process raises its error in the caller by pickle
    args = ("state overflow at t = 1.5", 1.5) if cls is NonFiniteState else ("m",)
    exc = cls(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert (back.args, str(back), vars(back)) == (exc.args, str(exc), vars(exc))


def test_poincare_synthetic_circle():
    # x = cos t, y = -sin t injected through the dense-output machinery
    h = 0.01  # tau/100 at tau = 1
    t = np.arange(0.0, 20.0 + h / 2, h)
    traj = Trajectory(SystemParams(EPS, MU, 0.0, 1.0), 100,
                      np.cos(t), -np.sin(t), -np.cos(t), np.cos(t))
    sec = dh.poincare(traj, "both", 0.0)
    expect = np.arange(1, 7) * math.pi
    assert len(sec) == len(expect)
    assert np.allclose(sec.t, expect, atol=1e-6)
    assert np.allclose(np.abs(sec.x), 1.0, atol=1e-6)
    assert np.all(sec.direction[::2] == sec.direction[0])
    assert np.all(sec.direction[1::2] == -sec.direction[0])
    for ts in sec.t:
        assert abs(_y_at(traj, ts)) < 1e-9
    ups = dh.poincare(traj, "up", 0.0)
    downs = dh.poincare(traj, "down", 0.0)
    assert len(ups) + len(downs) == len(sec)
    assert np.all(ups.direction == 1) and np.all(downs.direction == -1)


def test_sections_compare_by_value(hh):
    # the arrays compare entry by entry: asking an array for its truth
    # value, as a generated __eq__ does, raises ValueError
    pts = [[0.1, 0.2], [0.3, -0.1], [-0.2, 0.05]]
    a, b = _section(pts), _section(pts)
    assert a == b and not a != b
    assert a.x is not b.x
    bumped = a.x.copy()
    bumped[2] = math.nextafter(bumped[2], math.inf)
    for other in (replace(a, x=bumped), replace(a, direction=-a.direction),
                  replace(a, state_norm_last=2.0), a.subset(-1)):
        assert a != other and not a == other
    assert a != (a.t, a.x, a.y_delayed, a.direction)
    # a one-direction streamed section is the subset of the whole one
    cfg = cfg_at(hh, -0.1, 0.1, h_div=50, t_end=100.0, transient=20.0)
    both = nfde_sim.stream_section(cfg, "both")
    assert len(both.subset(1)) and len(both.subset(-1))
    assert nfde_sim.stream_section(cfg, "up") == both.subset(1)
    assert nfde_sim.stream_section(cfg, "down") == both.subset(-1)


def test_poincare_refinement_on_real_run(hh):
    cfg = cfg_at(hh, -0.1, 0.1, h_div=500, t_end=300.0, transient=100.0)
    traj = dh.simulate_theta(cfg)
    sec = dh.poincare(traj, "both", 100.0)
    assert len(sec) > 20
    for ts in sec.t:
        assert abs(_y_at(traj, ts)) < 1e-9
    assert np.all(np.diff(sec.t) > 0)
    # delayed coordinate agrees with the interpolant
    for ts, yd in zip(sec.t[:10], sec.y_delayed[:10]):
        assert yd == pytest.approx(_y_at(traj, ts - cfg.params.tau), abs=1e-12)


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
    roots = rightmost_roots(params, -0.1, 0.3, 4.0, grid_n=24)
    growth = max(r.real for r in roots)
    assert growth > 0
    cfg = dh.SimConfig(params, 0.0, 0.0, 400, 600.0)
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


# the default splits the rows at n = 257, 1 << 20 does not
@pytest.mark.parametrize("block", [1, 7, nfde_sim._NN_BLOCK_ELEMS, 1 << 20])
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
        assert np.array_equal(nfde_sim._nn_stats(pts), np.argsort(d2, axis=1)[:, :2])


def test_nn_stats_memory_is_a_block_not_the_matrix():
    # 4000 points: the whole matrix of squared distances is 128 MB, a block
    # of the default size two (rows, n) arrays of about 0.5 MB
    pts = np.random.default_rng(3).uniform(-1, 1, size=(4000, 2))
    tracemalloc.start()
    try:
        nfde_sim._nn_stats(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.fixture
def step_calls(monkeypatch):
    """Counts _ThetaStepper.step calls in this process (reference and clone
    legs alike)."""
    calls = []
    step = nfde_sim._ThetaStepper.step

    def counted(self, n):
        calls.append(n)
        return step(self, n)

    monkeypatch.setattr(nfde_sim._ThetaStepper, "step", counted)
    return calls


def _n_steps(cfg):
    return int(round(cfg.t_end / cfg.h))


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the process pools created (each still runs)."""
    made = []
    executor = concurrent.futures.ProcessPoolExecutor

    def counted(workers):
        made.append(workers)
        return executor(workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    return made


def _labelled(sec, lam):
    """(label, label_error) of a scale's section, as line_T_scan gives them."""
    try:
        return dh.classify_section(sec, divergence_exponent=lam), None
    except InsufficientData as exc:
        return None, f"InsufficientData: {exc}"


# 7, N - 1, N + 1, the default, 2^16
@pytest.mark.parametrize("chunk", [7, 99, 101, nfde_sim._CHUNK, 1 << 16])
@pytest.mark.parametrize("t_end", [2200.0, 600.0])
def test_line_t_scan_steps_its_run_and_the_clone(hh, step_calls, monkeypatch,
                                                 chunk, t_end):
    # the scan streams its runs: no Trajectory, no separate section pass
    for name in ("simulate", "simulate_theta", "poincare"):
        monkeypatch.setattr(nfde_sim, name, None)
    monkeypatch.setattr(nfde_sim, "_CHUNK", chunk)
    kw = dict(h_div=100, t_end=t_end, transient=400.0)
    cfgs = [cfg_at(hh, 0.1 * iota, 0.081 * iota, **kw) for iota in (2.0, 2.6)]
    assert {c.h_div for c in cfgs} == {100}
    runs = []
    for cfg in cfgs:
        ex = nfde_sim._Exponent(cfg, 1e-9, 5.0, 50)
        # the run is the reference, stepped once: the exponent steps only
        # its twin, 50 legs beside the run; at t_end 600 < 400 + 50 * 5 the
        # run ends before the last leg and streams on to it
        want = max(_n_steps(cfg), ex.end) + 50 * ex.n_seg
        step_calls.clear()
        runs.append(nfde_sim._scale_run(cfg, 1e-9, 5.0, 50, True))
        assert sum(step_calls) == want
    # the scan's rows, wherever its runs ran, are those scale runs' results
    rows = dh.line_T_scan([2.0, 2.6], hh=hh, renorm_T=5.0, **kw)
    for row, cfg, (sec, lam) in zip(rows, cfgs, runs):
        assert (row.k, row.tau) == (cfg.params.k, cfg.params.tau)
        assert row.divergence_exponent.hex() == lam.hex()
        assert (row.label, row.label_error) == _labelled(sec, lam)
        alone = dh.divergence_exponent(cfg, 1e-9, 5.0, 50)
        assert lam.hex() == alone.hex()


def test_line_t_scan_runs_the_point_instance():
    # an epsilon = 0.2 point is integrated at epsilon = 0.2: the scan has no
    # instance parameters, and its row is that of a direct run at the offset
    assert {"epsilon", "mu"}.isdisjoint(inspect.signature(dh.line_T_scan).parameters)
    pt = dh.find_hopf_hopf(0.2, MU, 2, 1, 2.46, 4.98)
    kw = dict(h_div=100, t_end=300.0, transient=100.0)
    [row] = dh.line_T_scan([1.0], hh=pt, renorm_T=2.0, **kw)
    cfg = dh.SimConfig(pt.params(0.1, 0.081), 0.1, 0.0, **kw)
    assert cfg.params.epsilon == 0.2
    lam = dh.divergence_exponent(cfg, 1e-9, 2.0, 50)
    assert (row.k.hex(), row.tau.hex()) == (cfg.params.k.hex(), cfg.params.tau.hex())
    assert row.divergence_exponent.hex() == lam.hex()
    assert (row.label, row.label_error) == _labelled(nfde_sim.stream_section(cfg), lam)


def _row_bits(rows):
    return [(r.iota.hex(), r.k.hex(), r.tau.hex(), r.label, r.label_error,
             None if r.divergence_exponent is None else r.divergence_exponent.hex())
            for r in rows]


def test_line_t_scan_rows_same_bits_at_one_and_two_cpus(hh, monkeypatch, pools):
    # three runs on two workers, and the skipped origin between them
    kw = dict(hh=hh, h_div=100, t_end=2200.0, transient=400.0, renorm_T=5.0)
    bits = []
    for cpus in (1, 2):
        monkeypatch.setattr(nfde_sim, "_usable_cpus", lambda n=cpus: n)
        bits.append(_row_bits(dh.line_T_scan([2.6, 0.0, 2.0, 2.3], **kw)))
    assert pools == [2]
    assert bits[0] == bits[1]
    assert [b[0] for b in bits[1]] == [i.hex() for i in (2.6, 0.0, 2.0, 2.3)]


def test_one_scale_line_t_scan_runs_in_process(hh, monkeypatch, pools, step_calls):
    # the origin needs no run, so one scale is left: no pool, and its steps
    # are taken here
    monkeypatch.setattr(nfde_sim, "_usable_cpus", lambda: 2)
    rows = dh.line_T_scan([0.0, 2.0], hh=hh, h_div=100, t_end=40.0,
                          transient=10.0, compute_exponent=False)
    assert [r.iota for r in rows] == [0.0, 2.0]
    assert pools == []
    cfg = cfg_at(hh, 0.2, 0.162, h_div=100, t_end=40.0, transient=10.0)
    assert sum(step_calls) == _n_steps(cfg)


def test_divergence_exponent_memory_flat_in_the_transient(hh, monkeypatch):
    # the same 50 legs after a transient of 400 and 7000: a reference
    # stepped unsplit through the transient would hold 5 arrays of 8 bytes
    # per step
    monkeypatch.setattr(nfde_sim, "_CHUNK", 1024)
    peaks = []
    for transient in (400.0, 7000.0):
        cfg = cfg_at(hh, 0.25, 0.2025, h_div=50, t_end=transient + 1.0,
                     transient=transient)
        tracemalloc.start()
        try:
            dh.divergence_exponent(cfg, 1e-9, 5.0, 50)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    transient_cols = 5 * 8 * nfde_sim._transient_steps(cfg)
    assert peaks[1] < 0.25 * transient_cols
    assert peaks[1] < 1.2 * peaks[0]


def test_divergence_exponent_memory_flat_in_the_leg(hh, monkeypatch):
    # 50 legs of 5 and of 200 time units: a twin stepped one leg at a time
    # would grow its 5 buffers by 8 bytes per step of a leg, 80 kB at 200
    monkeypatch.setattr(nfde_sim, "_CHUNK", 64)
    cfg = cfg_at(hh, 0.25, 0.2025, h_div=50, t_end=101.0, transient=100.0)
    peaks = []
    for renorm_T in (5.0, 200.0):
        tracemalloc.start()
        try:
            lam = dh.divergence_exponent(cfg, 1e-9, renorm_T, 50)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]
    # the legs split into 64-step pieces have the bits of unsplit ones
    assert nfde_sim._leg_steps(cfg, 1e-9, 200.0, 50) > 64
    monkeypatch.setattr(nfde_sim, "_CHUNK", 1 << 16)
    assert dh.divergence_exponent(cfg, 1e-9, 200.0, 50).hex() == lam.hex()


def test_exponent_reader_keeps_no_list_of_leg_ends(hh):
    # a million legs: the reader holds the next leg end, not every one of
    # them as an int (38 MiB)
    cfg = cfg_at(hh, 0.25, 0.2025, h_div=50, t_end=101.0, transient=100.0)
    tracemalloc.start()
    try:
        nfde_sim._Exponent(cfg, 1e-9, 1.0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_line_t_scan_matches_untraced():
    # perfbench's tracer binds every parameter of divergence_exponent
    # and the other traced functions; a traced scan must run unchanged
    hh = dh.find_hopf_hopf(EPS, MU, 1, 1, 4.5, 5.2)
    kw = dict(hh=hh, h_div=100, t_end=2200.0, transient=400.0, renorm_T=5.0)
    plain = dh.line_T_scan([2.0, 2.6], **kw)
    with _load_tracing().Tracer() as tracer:
        traced = dh.line_T_scan([2.0, 2.6], **kw)
    groups = {s["name"] for s in tracer.spans}
    # the streamed runs call neither simulate_theta nor poincare
    assert "nfde_sim.theta" not in groups and "nfde_sim.poincare" not in groups
    # each scale's exponent reads its run: no divergence_exponent call
    for group, count in (("divergence_exponent", 0), ("classify_section", 2)):
        spans = [s for s in tracer.spans if s["name"] == f"nfde_sim.{group}"]
        assert len(spans) == count, group
        assert all(s["error"] is None for s in spans), group
    assert [r.divergence_exponent.hex() for r in traced] == [
        r.divergence_exponent.hex() for r in plain]
    # a standalone exponent is one span (the tracer wraps the module's name)
    cfg = dh.SimConfig(SystemParams(EPS, MU, plain[0].k, plain[0].tau),
                       0.1, 0.0, 100, 2200.0, 400.0)
    with _load_tracing().Tracer() as tracer:
        alone = nfde_sim.divergence_exponent(cfg, 1e-9, 5.0, 50)
    spans = [s for s in tracer.spans if s["name"] == "nfde_sim.divergence_exponent"]
    assert len(spans) == 1 and spans[0]["error"] is None
    assert alone.hex() == plain[0].divergence_exponent.hex()


@pytest.mark.parametrize("kw", [
    dict(delta0=1e-4), dict(delta0=math.nan), dict(n_renorm=10), dict(n_renorm=10**30),
    dict(renorm_T=0.01), dict(renorm_T=math.inf), dict(renorm_T=math.nan),
    dict(iota_list=[2.0, math.nan]), dict(iota_list=[2.0, math.inf]),
    dict(iota_list=[2.0, -math.inf]),
])
def test_line_t_scan_checks_exponent_arguments_before_any_run(hh, step_calls, kw,
                                                            monkeypatch, pools):
    monkeypatch.setattr(nfde_sim, "_usable_cpus", lambda: 2)
    kw = {"iota_list": [2.0, 2.6], **kw}
    with pytest.raises(ValueError):
        dh.line_T_scan(hh=hh, h_div=100, t_end=2200.0, transient=400.0, **kw)
    assert step_calls == [] and pools == []


# Every index argument: the call with the index v, and a valid index.  The
# calls of a run use h_div 100 and run in this process once the bad
# indices are refused.
_NON_INTEGER_INDEX_CALLS = {
    "predict_attractor": (lambda hh, u, v: dh.predict_attractor(v, u), 6),
    # the table is formed lazily, so the check must come at the call
    "scan_hopf_curves": (
        lambda hh, u, v: dh.scan_hopf_curves(EPS, MU, [4.6, 4.7], v).rows, 1),
    "divergence_exponent": (lambda hh, u, v: dh.divergence_exponent(
        cfg_at(hh, 0.2, 0.162, h_div=100, t_end=2200.0, transient=400.0),
        1e-9, 1.0, v), 50),
    "line_T_scan": (lambda hh, u, v: dh.line_T_scan(
        [2.0, 2.6], hh, h_div=100, t_end=2200.0, transient=400.0, n_renorm=v), 50),
    "tau_branch": (lambda hh, u, v: dh.tau_branch(EPS, MU, 4.6, "plus", v), 2),
    "find_hopf_hopf_j_plus": (
        lambda hh, u, v: dh.find_hopf_hopf(EPS, MU, v, 1, 4.5, 5.2), 1),
    "find_hopf_hopf_j_minus": (
        lambda hh, u, v: dh.find_hopf_hopf(EPS, MU, 1, v, 4.5, 5.2), 1),
    "SimConfig": (lambda hh, u, v: cfg_at(hh, 0.2, 0.162, h_div=v), 100),
}


@pytest.mark.parametrize("name", list(_NON_INTEGER_INDEX_CALLS))
def test_non_integer_index_raises_value_error_at_the_call(
        hh, unfolding, step_calls, pools, monkeypatch, name):
    # one integer rule for every index (errors.index): a bool, a float, even
    # an integral one, and an index past its bounds fail as an argument,
    # before any step or pool, not as a TypeError deep inside or a
    # truncated index; a numpy integer is the plain int, bit for bit
    call, valid = _NON_INTEGER_INDEX_CALLS[name]
    monkeypatch.setattr(nfde_sim, "_usable_cpus", lambda: 2)
    for bad in (True, 2.0, 1.5, -1, 2**63, float(valid)):
        with pytest.raises(ValueError, match=r"^[\w ]+ must be an integer >= "):
            call(hh, unfolding, bad)
    assert step_calls == [] and pools == []
    monkeypatch.setattr(nfde_sim, "_usable_cpus", lambda: 1)
    want = repr(call(hh, unfolding, valid))
    assert repr(call(hh, unfolding, np.int64(valid))) == want


def _section_hex(sec):
    cols = [[v.hex() for v in col.tolist()] for col in (sec.t, sec.x, sec.y_delayed)]
    return (cols, sec.direction.tolist(), sec.state_norm_first.hex(),
            sec.state_norm_last.hex())


@pytest.mark.parametrize("chunk", [7, 64, nfde_sim._CHUNK, 1 << 16])
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
    # the stored run's history is its first sample, the stream's is y0
    for y0 in (0.0, -0.0, 0.25):
        cfg = cfg_at(hh, -0.1, 0.1, y0=y0, h_div=200, t_end=6.0)
        assert cfg.t_end < cfg.params.tau
        want = dh.poincare(dh.simulate_theta(cfg), "both", 0.0)
        assert len(want) >= 1  # its delayed value is the history's
        assert _section_hex(nfde_sim.stream_section(cfg)) == _section_hex(want)


def test_streamed_reader_may_keep_views(hh):
    # a grid finer than one chunk: the first trim keeps every sample, and a
    # view a reader keeps neither blocks the next chunk nor changes
    cfg = cfg_at(hh, 0.2, 0.164, h_div=20000, t_end=30.0, transient=10.0)
    assert cfg.h_div > nfde_sim._CHUNK
    kept = []

    def keep(base, x, y, dy, theta, dtheta):
        kept.append((base + len(x), x[-5:]))

    got = nfde_sim.stream_section(cfg, "both", [keep])
    traj = dh.simulate_theta(cfg)
    want = dh.poincare(traj, "both", cfg.transient)
    assert len(want) > 2 and len(kept) > 2
    assert _section_hex(got) == _section_hex(want)
    for end, tail in kept:
        assert tail.tobytes() == traj.x[end - 5 : end].tobytes()


@pytest.mark.parametrize("chunk", [7, 64, nfde_sim._CHUNK, 1 << 16])
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
    for y0 in (0.0, -0.0, 0.25):
        cfg = cfg_at(hh, -0.1, 0.1, y0=y0, h_div=200, t_end=6.0,
                     formulation="neutral_form")
        assert cfg.t_end < cfg.params.tau
        want = dh.poincare(dh.simulate_neutral(cfg), "both", 0.0)
        assert len(want) >= 1
        assert _section_hex(nfde_sim.stream_section(cfg)) == _section_hex(want)


def _replay(run):
    """A stepper class whose steps append the samples of a stored run, with
    theta' the memory of its y."""
    cols = (run.x, run.y, run.dy, run.theta,
            memory_recursion(run.y, 0.0, run.h_div, run.params.mu))

    class Replay(nfde_sim._ThetaStepper):
        def step(self, n):
            g = self.base + self.j  # run index of the last sample
            bufs = (self.xs, self.ys, self.dys, self.ths, self.dths)
            for buf, col in zip(bufs, cols):
                buf.extend(col[g + 1 : g + n + 1].tolist())
            self.j += n

    return Replay


def test_streamed_section_across_chunk_boundaries(hh, monkeypatch):
    cfg = cfg_at(hh, 0.2, 0.164, h_div=50, t_end=800.0, transient=10.0)
    traj = dh.simulate_theta(cfg)
    y, h = traj.y, cfg.h
    cross = np.nonzero(y[:-1] * y[1:] < 0.0)[0]
    cross = cross[cross > 4000]
    # a crossing next to node c + 1: past step 4096 its time can round onto
    # the node, so that its dense output reads sample c + 2; c is the first
    # crossing after step 4000 where it does, which depends on the bits of h
    for c, z in zip(cross, cross[1:]):
        y_c = y[c + 1]
        y[c + 1] = math.copysign(1e-300, y_c)
        times = dh.poincare(traj, "both", cfg.transient).t.tolist()
        if [int(t / h) for t in times if c * h <= t < z * h] == [c + 1]:
            break
        y[c + 1] = y_c
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
    cfg = dh.SimConfig(params, 1.0, 0.0, 50, 100.0)
    st = nfde_sim._ThetaStepper(params, cfg.x0, cfg.y0, cfg.h_div)
    want = _raised(st.step, _n_steps(cfg))  # one unsplit run
    assert want[0] > 10 * 7 * cfg.h  # many chunks in
    assert _raised(dh.simulate_theta, cfg) == want
    assert _raised(nfde_sim.stream_section, cfg) == want


def test_line_t_scan_memory_flat_in_the_transient(hh, monkeypatch):
    # the same 1800 time units measured after a transient of 400 and 7000:
    # a stored run would add 4 arrays of 8 bytes per step
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
    stored = 4 * 8 * _n_steps(cfg_at(hh, 0.2, 0.162, h_div=50, t_end=8800.0))
    assert peaks[1] < 0.25 * stored
    assert peaks[1] < 1.2 * peaks[0]


_STEPPERS = {"theta_form": "_ThetaStepper", "neutral_form": "_NeutralStepper"}


@pytest.mark.parametrize("formulation", sorted(_STEPPERS))
# 7, N - 1, N + 1, the default, 2^16
@pytest.mark.parametrize("chunk", [7, 49, 51, nfde_sim._CHUNK, 1 << 16])
def test_stored_run_matches_one_unsplit_stepper_run(hh, monkeypatch, formulation,
                                                    chunk):
    monkeypatch.setattr(nfde_sim, "_CHUNK", chunk)
    cfg = cfg_at(hh, 0.2, 0.164, h_div=50, t_end=200.0, transient=60.0,
                 formulation=formulation)
    assert cfg.h_div == 50
    traj = nfde_sim.simulate(cfg)
    st = getattr(nfde_sim, _STEPPERS[formulation])(cfg.params, cfg.x0, cfg.y0, cfg.h_div)
    st.step(_n_steps(cfg))
    # the first four buffers of either stepper are x, y, y' and theta
    for got, name in zip((traj.x, traj.y, traj.dy, traj.theta), st._BUFFERS[:4]):
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
    cols = {k: v for k, v in vars(traj).items() if isinstance(v, np.ndarray)}
    assert sorted(cols) == ["dy", "theta", "x", "y"]
    stored = sum(c.nbytes for c in cols.values())
    assert stored == 4 * 8 * (_n_steps(cfg) + 1)
    # the stepper's chunk of at most five columns, twice over, plus 64 KiB
    # for the interpreter's free lists and the recorded window
    assert peak < stored + 2 * 5 * 8 * 512 + (1 << 16)


@pytest.mark.parametrize("transient", [-1.0, -1e9, math.inf, math.nan])
def test_poincare_rejects_a_transient_not_finite_and_nonnegative(hh, transient):
    # a negative transient would read the section past the end of the run
    # and before its start, as SimConfig refuses it for a streamed run
    traj = dh.simulate_theta(dh.SimConfig(hh.params(-0.1, 0.1), 0.1, 0.0, 100, 300.0))
    with pytest.raises(ValueError, match="^transient must be finite"):
        dh.poincare(traj, "both", transient)
