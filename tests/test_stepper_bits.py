"""The streamlined RK4 loops against frozen copies of the plain loops.

The oracles below are the straightforward versions of
``_ThetaStepper.step``, ``_ThetaStepper.set_window`` and a whole
neutral-form run (``_NeutralStepper.step``), kept verbatim: one ``g(...)``
call per stage, every delayed node read from the buffers, the modulo
stencil choice and an element loop.  The integrators must reproduce them
bit for bit, including where and how they raise.
"""

import gc
import json
import math
import tracemalloc
from array import array

import numpy as np
import pytest

from doublehopf import nfde_sim
from doublehopf.chareq import SystemParams
from doublehopf.cli import main
from doublehopf.errors import NonFiniteState
from doublehopf.nfde_sim import _BLOWUP_SQ, SimConfig, Trajectory

from conftest import EPS, MU


def oracle_step(self, n: int) -> None:
    p = self.p
    eps, mu, ek = p.epsilon, p.mu, p.epsilon * p.k
    one_mu = 1.0 - mu
    N, h = self.N, self.h
    h2, h6 = 0.5 * h, h / 6.0
    xs, ys, ths, dys, dths = self.xs, self.ys, self.ths, self.dys, self.dths
    x0 = self.x0
    x, y = xs[self.j], ys[self.j]
    for j in range(self.j, self.j + n):
        jd = j - N
        if jd < 0:
            th_a = x0
            th_b = x0 if jd + 1 < 0 else ths[0]
            th_m = x0
        else:
            th_a = ths[jd]
            th_b = ths[jd + 1]
            th_m = 0.5 * (th_a + th_b) + 0.125 * h * (dths[jd] - dths[jd + 1])
        t1 = one_mu * x + mu * th_a
        k1x = y
        k1y = -eps * (x * x - 1.0) * y - x + ek * t1
        xa = x + h2 * k1x
        ya = y + h2 * k1y
        t2 = one_mu * xa + mu * th_m
        k2x = ya
        k2y = -eps * (xa * xa - 1.0) * ya - xa + ek * t2
        xb = x + h2 * k2x
        yb = y + h2 * k2y
        t3 = one_mu * xb + mu * th_m
        k3x = yb
        k3y = -eps * (xb * xb - 1.0) * yb - xb + ek * t3
        xc = x + h * k3x
        yc = y + h * k3y
        t4 = one_mu * xc + mu * th_b
        k4x = yc
        k4y = -eps * (xc * xc - 1.0) * yc - xc + ek * t4
        x = x + h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
        y = y + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
        if x * x + y * y > _BLOWUP_SQ or x != x or y != y:
            raise NonFiniteState(
                f"state overflow at t = {(j + 1) * h:.6g}", (j + 1) * h
            )
        th = one_mu * x + mu * th_b
        dy = -eps * (x * x - 1.0) * y - x + ek * th
        dth = one_mu * y + (mu * dths[jd + 1] if jd + 1 >= 0 else 0.0)
        xs.append(x)
        ys.append(y)
        ths.append(th)
        dys.append(dy)
        dths.append(dth)
    self.j += n


def oracle_set_window(self, xw, yw, thw, dthw) -> None:
    p = self.p
    a = self.j - self.N
    for i in range(self.N + 1):
        xi, yi, ti = float(xw[i]), float(yw[i]), float(thw[i])
        self.xs[a + i] = xi
        self.ys[a + i] = yi
        self.ths[a + i] = ti
        self.dths[a + i] = float(dthw[i])
        self.dys[a + i] = (
            -p.epsilon * (xi * xi - 1.0) * yi - xi + p.epsilon * p.k * ti
        )


def oracle_run_neutral(cfg: SimConfig) -> Trajectory:
    p = cfg.params
    eps, mu = p.epsilon, p.mu
    c_x = -1.0 + eps * p.k * (1.0 - mu)
    N = cfg.n_delay
    h = cfg.h
    n_steps = int(round(cfg.t_end / h))
    x0, y0 = cfg.x0, cfg.y0

    def g(x, y, xt, yt):
        return (
            c_x * x + eps * y + mu * xt - eps * mu * yt
            - eps * x * x * y + eps * mu * xt * xt * yt
        )

    # fixed point of the derivative recursion: keeps y' continuous at t = 0
    # and matches the theta formulation's initial-value problem
    dy_h = g(x0, y0, x0, y0) / (1.0 - mu)

    xs = array("d", [x0])
    ys = array("d", [y0])
    dys = array("d", [dy_h])

    def dyv(i: int) -> float:
        return dys[i] if i >= 0 else dy_h

    x, y = x0, y0
    h2 = 0.5 * h
    h6 = h / 6.0
    for j in range(n_steps):
        jd = j - N
        if jd < 0:
            x_a, y_a, dy_a = x0, y0, dy_h
        else:
            x_a, y_a, dy_a = xs[jd], ys[jd], dys[jd]
        if jd + 1 < 0:
            x_b, y_b, dy_b = x0, y0, dy_h
        else:
            x_b, y_b, dy_b = xs[jd + 1], ys[jd + 1], dys[jd + 1]
        if jd + 1 <= 0:
            x_m, y_m, dy_m = x0, y0, dy_h
        else:
            x_m = 0.5 * (x_a + x_b) + 0.125 * h * (y_a - y_b)
            y_m = 0.5 * (y_a + y_b) + 0.125 * h * (dy_a - dy_b)
            # y'' jumps at every multiple of tau; choose a 4-point stencil
            # that stays on one smooth piece
            m = jd
            if (m + 1) % N == 0:
                dy_m = (dyv(m - 2) - 5.0 * dyv(m - 1) + 15.0 * dyv(m) + 5.0 * dyv(m + 1)) / 16.0
            elif m % N == 0:
                dy_m = (5.0 * dyv(m) + 15.0 * dyv(m + 1) - 5.0 * dyv(m + 2) + dyv(m + 3)) / 16.0
            else:
                dy_m = (-dyv(m - 1) + 9.0 * dyv(m) + 9.0 * dyv(m + 1) - dyv(m + 2)) / 16.0

        k1x = y
        k1y = g(x, y, x_a, y_a) + mu * dy_a
        xa = x + h2 * k1x
        ya = y + h2 * k1y
        k2x = ya
        k2y = g(xa, ya, x_m, y_m) + mu * dy_m
        xb = x + h2 * k2x
        yb = y + h2 * k2y
        k3x = yb
        k3y = g(xb, yb, x_m, y_m) + mu * dy_m
        xc = x + h * k3x
        yc = y + h * k3y
        k4x = yc
        k4y = g(xc, yc, x_b, y_b) + mu * dy_b

        x = x + h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
        y = y + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
        if x * x + y * y > _BLOWUP_SQ or x != x or y != y:
            raise NonFiniteState(f"state overflow at t = {(j + 1) * h:.6g}", (j + 1) * h)
        dy = g(x, y, x_b, y_b) + mu * dy_b
        xs.append(x)
        ys.append(y)
        dys.append(dy)

    return Trajectory(
        p, h, N,
        np.frombuffer(xs, np.float64),
        np.frombuffer(ys, np.float64),
        np.frombuffer(dys, np.float64),
        x0, y0,
    )


def _params(hh, a1, a2):
    return SystemParams(EPS, MU, hh.k0 + a1, hh.tau0 + a2)


def _stepper_pair(p, h, x0=0.1, y0=0.0):
    return (nfde_sim._ThetaStepper(p, x0, y0, h),
            nfde_sim._ThetaStepper(p, x0, y0, h))


def _bits(col):
    return np.asarray(col, np.float64).tobytes()


def _assert_same_buffers(st, ref):
    assert st.j == ref.j
    for name in ("xs", "ys", "ths", "dys", "dths"):
        assert _bits(getattr(st, name)) == _bits(getattr(ref, name)), name


def _raised(fn, *args):
    with pytest.raises(NonFiniteState) as exc:
        fn(*args)
    return exc.value.time, str(exc.value)


@pytest.mark.parametrize("h_div", [4, 5, 20])
def test_split_steps_cross_the_prefix_boundary(hh, h_div):
    p = _params(hh, 0.2, 0.164)
    st, ref = _stepper_pair(p, p.tau / h_div)
    N = st.N
    for n in (3, N, 7, 0, 1, N - 1, 2 * N + 3, 1):
        st.step(n)
        oracle_step(ref, n)
        _assert_same_buffers(st, ref)
    st.trim()
    ref.trim()
    st.step(5 * N + 2)
    oracle_step(ref, 5 * N + 2)
    _assert_same_buffers(st, ref)


def test_one_call_equals_oracle_over_a_long_run(hh):
    p = _params(hh, 0.1, 0.085)
    st, ref = _stepper_pair(p, p.tau / 50)
    st.step(6000)
    oracle_step(ref, 6000)
    _assert_same_buffers(st, ref)


def test_random_window_overwrites(hh):
    # overwritten windows break the theta recursion and leave y' stale, so
    # k1y must come from the state on entry, not from a carried value
    p = _params(hh, 0.2, 0.164)
    st, ref = _stepper_pair(p, p.tau / 20)
    N = st.N
    st.step(N + 3)
    oracle_step(ref, N + 3)
    rng = np.random.default_rng(20)
    for _ in range(20):
        win = [rng.standard_normal(N + 1) * s for s in (1.0, 1.0, 1.0, 0.5)]
        st.set_window(*win)
        oracle_set_window(ref, *win)
        _assert_same_buffers(st, ref)
        n = int(rng.integers(1, 3 * N))
        st.step(n)
        oracle_step(ref, n)
        _assert_same_buffers(st, ref)
        if rng.random() < 0.5:
            st.trim()
            ref.trim()


def test_window_copy_round_trip_is_exact(hh):
    p = _params(hh, 0.2, 0.164)
    st = nfde_sim._ThetaStepper(p, 0.1, 0.0, p.tau / 20)
    st.step(45)
    twin = nfde_sim._ThetaStepper.at_window(p, 0.1, 0.0, st.h, *st.window())
    assert twin.j == twin.N and len(twin.xs) == twin.N + 1
    st.trim()
    # at_window recomputes y' the way set_window does; the rest is copied
    _assert_same_buffers(twin, st)
    st.step(30)
    twin.step(30)
    _assert_same_buffers(twin, st)


@pytest.mark.parametrize("h_div,t_end", [(4, 300.0), (5, 300.0), (50, 400.0)])
def test_neutral_matches_oracle(hh, h_div, t_end):
    # h_div 4 and 5 put most midpoints next to a breaking node, so the
    # r == 0 (including m = 0) and r == N - 1 stencils fire often
    for a1, a2 in ((-0.1, 0.1), (0.2, 0.164)):
        cfg = SimConfig.from_divisor(_params(hh, a1, a2), 0.1, 0.0, h_div, t_end,
                                     0.0, "neutral_form")
        got = nfde_sim.simulate_neutral(cfg)
        want = oracle_run_neutral(cfg)
        for a, b in ((got.x, want.x), (got.y, want.y), (got.dy, want.dy)):
            assert np.array_equal(a, b)


def test_neutral_shorter_than_one_delay(hh):
    cfg = SimConfig.from_divisor(_params(hh, -0.1, 0.1), 0.1, 0.0, 2000, 3.0,
                                 0.0, "neutral_form")
    got = nfde_sim.simulate_neutral(cfg)
    assert len(got) - 1 < cfg.n_delay
    assert np.array_equal(got.dy, oracle_run_neutral(cfg).dy)


@pytest.mark.parametrize("tau", [1.0, 50.0])  # past the first delay, inside it
def test_blowup_raises_like_oracle(tau):
    p = SystemParams(0.1, 0.5, 500.0, tau)
    st, ref = _stepper_pair(p, tau / 50, x0=1.0)
    got = _raised(st.step, 5000)
    assert got == _raised(oracle_step, ref, 5000)
    assert (got[0] > tau) == (tau == 1.0)
    cfg = SimConfig.from_divisor(p, 1.0, 0.0, 50, 200.0, 0.0, "neutral_form")
    assert _raised(nfde_sim.simulate_neutral, cfg) == _raised(oracle_run_neutral, cfg)


def test_nan_raises_like_oracle(hh):
    p = _params(hh, -0.1, 0.1)
    st, ref = _stepper_pair(p, p.tau / 20, x0=math.nan)
    assert _raised(st.step, 10) == _raised(oracle_step, ref, 10)
    cfg = SimConfig.from_divisor(p, math.nan, 0.0, 20, 50.0, 0.0, "neutral_form")
    assert _raised(nfde_sim.simulate_neutral, cfg) == _raised(oracle_run_neutral, cfg)
    # a NaN planted in the delay window, past the prefix loop
    st, ref = _stepper_pair(p, p.tau / 20)
    for s in (st, ref):
        oracle_step(s, 30)
        xw, yw, thw, dthw = s.window()
        thw[5] = math.nan
        oracle_set_window(s, xw, yw, thw, dthw)
    got = _raised(st.step, 40)
    assert got == _raised(oracle_step, ref, 40)
    assert got[0] > p.tau


def _assert_neutral_run(st, want):
    # the buffers hold run samples base .. base + j
    lo, hi = st.base, st.base + st.j + 1
    for name, col in (("xs", want.x), ("ys", want.y), ("dys", want.dy)):
        assert _bits(getattr(st, name)) == _bits(col[lo:hi]), name


@pytest.mark.parametrize("h_div", [4, 5, 20, 50])
def test_neutral_split_steps_with_trims_match_oracle(hh, h_div):
    p = _params(hh, 0.2, 0.164)
    cfg = SimConfig.from_divisor(p, 0.1, 0.0, h_div, 40 * p.tau, 0.0, "neutral_form")
    want = oracle_run_neutral(cfg)
    N, n = cfg.n_delay, len(want) - 1
    # calls that cross the first delay's end, then calls whose first step
    # has r = 0 and r = N - 1, each right after a trim, so the stencil reads
    # the oldest kept sample; then random splits and trims
    fixed = [3, N - 1, N + 1, 2 * N, 3 * N - 1, 3 * N, 5 * N - 1, 5 * N + 1]
    rng = np.random.default_rng(h_div)
    cuts = fixed + sorted(rng.integers(6 * N, n, 12).tolist()) + [n]
    st = nfde_sim._NeutralStepper(p, 0.1, 0.0, cfg.h)
    for a, b in zip([0] + cuts, cuts):
        st.step(b - a)
        _assert_neutral_run(st, want)
        if (b in fixed and b > N) or rng.random() < 0.5:
            st.trim(2)
            assert len(st.xs) == min(b + 1, N + 3)
    assert st.base > 0
    st.trim()  # keeps the two samples the stencil reads all the same
    assert len(st.xs) == N + 3


@pytest.mark.parametrize("tau", [1.0, 50.0])  # past the first delay, inside it
def test_streamed_neutral_blowup_raises_like_oracle(monkeypatch, tau):
    monkeypatch.setattr(nfde_sim, "_CHUNK", 1)
    p = SystemParams(0.1, 0.5, 500.0, tau)
    cfg = SimConfig.from_divisor(p, 1.0, 0.0, 50, 200.0, 0.0, "neutral_form")
    got = _raised(nfde_sim.stream_section, cfg)
    assert got == _raised(oracle_run_neutral, cfg)
    assert (got[0] > tau) == (tau == 1.0)
    assert got[0] > cfg.h  # a later chunk


def test_failed_streamed_neutral_simulate_leaves_no_file(tmp_path, capsys, monkeypatch):
    for chunk in (7, 1 << 16):
        monkeypatch.setattr(nfde_sim, "_CHUNK", chunk)
        assert main([
            "simulate", "--alpha1", "495", "--alpha2", "0", "--x0", "1.0",
            "--h-div", "50", "--t-end", "50", "--transient", "10",
            "--formulation", "neutral_form", "--out", str(tmp_path / "b"),
        ]) == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "NonFiniteState"
        assert 0.0 < err["time"] < 50.0
        assert list(tmp_path.glob("b.*")) == []  # no partial export


def test_streamed_neutral_simulate_memory_flat_in_t_end(hh, tmp_path, monkeypatch):
    # the same last 100 time units sectioned after runs of 200 and 800: a
    # stored run would add x, y, y' and theta, 4 arrays of 8 bytes per step
    monkeypatch.setattr(nfde_sim, "_CHUNK", 256)
    peaks = []
    for t_end in (200.0, 800.0):
        gc.collect()  # no garbage of earlier tests is freed while tracing
        tracemalloc.start()
        try:
            assert main([
                "simulate", "--alpha1", "-0.1", "--alpha2", "0.1",
                "--h-div", "50", "--t-end", str(t_end),
                "--transient", str(t_end - 100.0), "--stride", "20",
                "--formulation", "neutral_form", "--out", str(tmp_path / "m"),
            ]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    stored_growth = 4 * 8 * round(600.0 / ((hh.tau0 + 0.1) / 50))
    assert peaks[1] - peaks[0] < 0.1 * stored_growth
    assert peaks[1] < 1.2 * peaks[0]


# Steps go in blocks that end on the delay grid (run indices that are
# multiples of N).  The cases below start and end calls on the grid and next
# to it, fail inside a block, and check the columns written per block.

def _oracle_at_window(p, h, win):
    ref = nfde_sim._ThetaStepper(p, 0.1, 0.0, h)
    ref.xs, ref.ys, ref.ths, ref.dys, ref.dths = (
        array("d", bytes(8 * (ref.N + 1))) for _ in range(5))
    ref.j = ref.N
    oracle_set_window(ref, *win)
    return ref


def _edge_calls(N):
    # from residue N - 1 these start at residues N-1, 0, N-1, N-1, 0 and end
    # at 0, N-1, N-1, 0, 3; from residue 0 they start at 0, 1, 0, 0, 1
    return (1, N - 1, N, N + 1, 2 * N + 3)


@pytest.mark.parametrize("h_div", [4, 5, 20])
@pytest.mark.parametrize("start", ["trim", "set_window", "at_window"])
def test_theta_calls_on_and_next_to_the_delay_grid(hh, h_div, start):
    p = _params(hh, 0.2, 0.164)
    st, ref = _stepper_pair(p, p.tau / h_div)
    N = st.N
    for s in (st, ref):
        oracle_step(s, 3 * N - 1)
    if start == "trim":
        st.trim()
        ref.trim()
        assert st.base > 0
    elif start == "set_window":
        win = [w + 1e-3 for w in ref.window()]
        st.set_window(*win)
        oracle_set_window(ref, *win)
    else:  # at j = N, residue 0
        win = ref.window()
        st = nfde_sim._ThetaStepper.at_window(p, 0.1, 0.0, st.h, *win)
        ref = _oracle_at_window(p, st.h, win)
    _assert_same_buffers(st, ref)
    for n in _edge_calls(N):
        st.step(n)
        oracle_step(ref, n)
        _assert_same_buffers(st, ref)


@pytest.mark.parametrize("h_div", [4, 5, 20])
def test_neutral_calls_on_and_next_to_the_delay_grid(hh, h_div):
    p = _params(hh, 0.2, 0.164)
    cfg = SimConfig.from_divisor(p, 0.1, 0.0, h_div, 20 * p.tau, 0.0, "neutral_form")
    want = oracle_run_neutral(cfg)
    st = nfde_sim._NeutralStepper(p, 0.1, 0.0, cfg.h)
    N = st.N
    for n in _edge_calls(N):  # from the run's start
        st.step(n)
        _assert_neutral_run(st, want)
    st.step(2 * N - 1 - st.j % N)  # to residue N - 1
    st.trim(2)
    for n in _edge_calls(N):
        st.step(n)
        _assert_neutral_run(st, want)


def _failing_step(j, N, where):
    """The first step after j at the first, a middle or the last residue."""
    r = {"first": 0, "middle": N // 2, "last": N - 1}[where]
    return j + 1 + (r - j - 1) % N


@pytest.mark.parametrize("value", [math.nan, 1e30])  # NaN, overflow
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_planted_delayed_node_raises_inside_a_block(hh, value, where):
    p = _params(hh, -0.1, 0.1)
    h = p.tau / 20
    # theta form: theta at node b of the failing step f, planted in both
    st, ref = _stepper_pair(p, h)
    N = st.N
    for s in (st, ref):
        oracle_step(s, 3 * N + 5)
    f = _failing_step(st.j, N, where)
    for s in (st, ref):
        s.ths[f + 1 - N] = value
    got = _raised(st.step, 2 * N + 3)
    assert got == _raised(oracle_step, ref, 2 * N + 3)
    assert got[0] == (f + 1) * h
    assert _bits(st.xs[: f + 1]) == _bits(ref.xs)  # the steps before it
    # neutral form: x at node b of the failing step; the run is the
    # oracle's up to that step
    cfg = SimConfig.from_divisor(p, 0.1, 0.0, 20, 10 * p.tau, 0.0, "neutral_form")
    want = oracle_run_neutral(cfg)
    st = nfde_sim._NeutralStepper(p, 0.1, 0.0, h)
    st.step(3 * N + 5)
    st.trim(2)
    f = _failing_step(st.j, N, where)
    st.xs[f + 1 - N] = value
    t = (st.base + f + 1) * h
    assert _raised(st.step, 2 * N + 3) == (t, f"state overflow at t = {t:.6g}")
    assert _bits(st.ys[: f + 1]) == _bits(want.y[st.base : st.base + f + 1])


@pytest.mark.parametrize("h_div", [5, 20])
@pytest.mark.parametrize("off", [-1, 1])
def test_streamed_neutral_chunks_off_the_delay_grid(hh, monkeypatch, h_div, off):
    # chunks of N - 1 and N + 1 steps start calls at every residue, so the
    # first block of a call starts at r = N - 1 and at r = 1
    p = _params(hh, 0.2, 0.164)
    cfg = SimConfig.from_divisor(p, 0.1, 0.0, h_div, 30 * p.tau, 0.0, "neutral_form")
    monkeypatch.setattr(nfde_sim, "_CHUNK", cfg.n_delay + off)
    got = {"x": [], "y": [], "dy": []}
    seen = [0]  # samples read so far

    def read(base, x, y, dy, theta, dtheta, final):
        k = seen[0] - base
        for col, v in zip(got.values(), (x, y, dy)):
            col.append(v[k:].copy())
        seen[0] = base + len(x)

    nfde_sim.stream_section(cfg, "both", [read])
    want = oracle_run_neutral(cfg)
    for name, col in (("x", want.x), ("y", want.y), ("dy", want.dy)):
        assert _bits(np.concatenate(got[name])) == _bits(col), name


def test_theta_memory_columns_are_the_memory_recursion(hh):
    p = _params(hh, 0.2, 0.164)
    st = nfde_sim._ThetaStepper(p, 0.1, 0.0, p.tau / 20)
    for n in (7, 20, 33, 1, 45):
        st.step(n)
    for name, src, hist in (("ths", "xs", 0.1), ("dths", "ys", 0.0)):
        col = np.frombuffer(getattr(st, name), np.float64)
        m = np.empty(len(col))
        m[0] = col[0]  # the history's fixed point, set at the start
        nfde_sim._fill_memory(m, np.frombuffer(getattr(st, src), np.float64), 1,
                              p.mu, st.N, hist)
        assert _bits(m) == _bits(col), name
    xs, ys, ths = (np.frombuffer(getattr(st, c), np.float64) for c in ("xs", "ys", "ths"))
    assert _bits(st._dy(xs, ys, ths)) == _bits(st.dys)
