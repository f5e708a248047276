"""Fixed-step integration of the delayed van der Pol system, Poincare
sections on y = 0, and attractor diagnostics.

Two interchangeable formulations are integrated with a classical
fourth-order one-step method on a grid commensurate with the delay
(tau/h is an integer, so delayed node lookups are exact buffer reads and
interpolation is only needed at half-step stage times):

* theta form      x' = y,  y' = -eps*(x^2-1)*y - x + eps*k*theta(t), with
                  the feedback memory theta(t) = (1-mu)*x(t) + mu*theta(t-tau)
                  carried as an algebraic recursion on the grid;
* neutral form    y'(t) = g(x, y, x(t-tau), y(t-tau)) + mu*y'(t-tau)
                  integrating the eliminated equation directly, with the
                  derivative history stored alongside the state.

Initial data are constant histories x = x0, y = y0 on [-tau, 0].  The two
auxiliary histories are started at the fixed points of their recursions
(theta = x0, and y'-history = g(x0,y0,x0,y0)/(1-mu)), which makes the two
formulations the same initial-value problem and keeps y' continuous at
t = 0.  Second derivatives still jump at every multiple of tau (neutral
systems do not smooth), so the derivative history is interpolated with
one-sided stencils next to those breaking nodes; both formulations then
converge at fourth order and agree to ~1e-10 at desk step sizes.

Trajectories carry cubic Hermite dense output used to refine section
crossings to |y| < 1e-9 by bisection.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import hopf_hopf as _hh_mod
from .chareq import SystemParams, check_hypotheses
from .errors import HypothesisViolated, InsufficientData, NonFiniteState
from .hopf_hopf import HopfHopfPoint

__all__ = [
    "SimConfig",
    "Trajectory",
    "PoincareSection",
    "LineTRow",
    "simulate",
    "simulate_theta",
    "simulate_neutral",
    "poincare",
    "classify_section",
    "divergence_exponent",
    "line_T_scan",
]

_BLOWUP_SQ = 1e16  # |state|^2 guard; ~1e8 per component


@dataclass(frozen=True)
class SimConfig:
    """Integration protocol: parameters, constant initial data, grid, horizon."""

    params: SystemParams
    x0: float
    y0: float
    h: float
    t_end: float
    transient: float = 0.0
    formulation: str = "theta_form"

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("h must be positive")
        ratio = self.params.tau / self.h
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio) or round(ratio) < 4:
            raise ValueError(
                f"tau/h must be an integer >= 4, got {ratio!r}"
            )
        if not 0 <= self.transient < self.t_end:
            raise ValueError("need 0 <= transient < t_end")
        if self.formulation not in ("theta_form", "neutral_form"):
            raise ValueError(f"unknown formulation {self.formulation!r}")

    @property
    def n_delay(self) -> int:
        return int(round(self.params.tau / self.h))

    @classmethod
    def from_divisor(
        cls,
        params: SystemParams,
        x0: float,
        y0: float,
        h_div: int,
        t_end: float,
        transient: float = 0.0,
        formulation: str = "theta_form",
    ) -> "SimConfig":
        """Grid defined by the delay divisor: h = tau/h_div, h_div >= 4."""
        if h_div < 4:
            raise ValueError(f"h_div must be an integer >= 4, got {h_div!r}")
        return cls(params, x0, y0, params.tau / h_div, t_end, transient, formulation)


def _hermite(off: float, h: float, v0: float, v1: float, d0: float, d1: float) -> float:
    """Cubic Hermite value at offset ``off`` into a step of width h."""
    s = off / h
    s2 = s * s
    return (
        (1.0 + 2.0 * s) * (1.0 - s) * (1.0 - s) * v0
        + s * (1.0 - s) * (1.0 - s) * h * d0
        + s2 * (3.0 - 2.0 * s) * v1
        + s2 * (s - 1.0) * h * d1
    )


class Trajectory:
    """Uniform-grid solution samples with cubic Hermite dense output.

    Arrays x, y, dy (= y') live on t = 0, h, 2h, ...; theta and dtheta are
    stored for theta-form runs and otherwise each reconstructed on its own
    first read.  The constant initial history extends every evaluation to
    t <= 0.

    Simulated trajectories own the integrator's sample buffers: the arrays
    are writable views of them, not copies.
    """

    def __init__(
        self,
        params: Optional[SystemParams],
        h: float,
        n_delay: int,
        x: np.ndarray,
        y: np.ndarray,
        dy: np.ndarray,
        x0: float,
        y0: float,
        theta: Optional[np.ndarray] = None,
        dtheta: Optional[np.ndarray] = None,
    ):
        self.params = params
        self.h = h
        self.n_delay = n_delay
        self.x = x
        self.y = y
        self.dy = dy
        self.x0 = x0
        self.y0 = y0
        self._theta = theta
        self._dtheta = dtheta

    @classmethod
    def from_samples(
        cls,
        h: float,
        n_delay: int,
        x: Sequence[float],
        y: Sequence[float],
        dy: Sequence[float],
        x0: Optional[float] = None,
        y0: Optional[float] = None,
    ) -> "Trajectory":
        """Synthetic trajectory from raw samples (testing and analysis)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dy = np.asarray(dy, dtype=float)
        return cls(
            None, h, n_delay, x, y, dy,
            float(x[0]) if x0 is None else x0,
            float(y[0]) if y0 is None else y0,
        )

    def __len__(self) -> int:
        return len(self.x)

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self.x)) * self.h

    @property
    def t_end(self) -> float:
        return (len(self.x) - 1) * self.h

    @property
    def theta(self) -> np.ndarray:
        if self._theta is None:
            self._theta = self._rebuild_memory(self.x, self.x0)
        return self._theta

    @property
    def dtheta(self) -> np.ndarray:
        if self._dtheta is None:
            self._dtheta = self._rebuild_memory(self.y, 0.0)
        return self._dtheta

    def _rebuild_memory(self, src: np.ndarray, hist: float) -> np.ndarray:
        """m = (1-mu)*src + mu*m(t - tau) on the grid, with history m = hist.

        theta is the memory of x (history x0), dtheta that of y (history 0).
        """
        if self.params is None:
            raise ValueError("synthetic trajectory carries no feedback memory")
        mu = self.params.mu
        n = len(src)
        nd = self.n_delay
        m = np.empty(n)
        for lo in range(0, n, nd):
            hi = min(lo + nd, n)
            # node 0 uses the history fixed point directly
            delayed = np.full(hi - lo, hist) if lo == 0 else m[lo - nd : hi - nd]
            m[lo:hi] = (1.0 - mu) * src[lo:hi] + mu * delayed
        return m

    def y_delayed(self) -> np.ndarray:
        """Grid samples of y(t - tau); exact buffer reads plus history fill."""
        nd = self.n_delay
        out = np.empty_like(self.y)
        out[:nd] = self.y0
        out[nd:] = self.y[: len(self.y) - nd]
        return out

    def _eval(self, vals: np.ndarray, derivs: np.ndarray, hist: float, t: float) -> float:
        if t <= 0.0:
            return hist
        n = len(vals)
        ti = t / self.h
        i = int(ti)
        if i >= n - 1:
            return float(vals[-1])
        return _hermite(
            t - i * self.h, self.h, vals[i], vals[i + 1], derivs[i], derivs[i + 1]
        )

    def eval_x(self, t: float) -> float:
        return self._eval(self.x, self.y, self.x0, t)

    def eval_y(self, t: float) -> float:
        return self._eval(self.y, self.dy, self.y0, t)

    def eval_y_delayed(self, t: float) -> float:
        if self.params is None:
            tau = self.n_delay * self.h
        else:
            tau = self.params.tau
        return self.eval_y(t - tau)


class _ThetaStepper:
    """Incremental theta-form integrator.

    Backs simulate_theta and the divergence estimator; the latter perturbs
    and rescales whole history windows between integration legs, so the
    trailing window is exposed for read/overwrite and the prefix can be
    trimmed to cap memory.
    """

    def __init__(self, p: SystemParams, x0: float, y0: float, h: float):
        self.p = p
        self.h = h
        self.N = int(round(p.tau / h))
        self.x0, self.y0 = x0, y0
        self.xs = array("d", [x0])
        self.ys = array("d", [y0])
        self.ths = array("d", [x0])
        self.dys = array(
            "d", [-p.epsilon * (x0 * x0 - 1.0) * y0 - x0 + p.epsilon * p.k * x0]
        )
        self.dths = array("d", [(1.0 - p.mu) * y0])
        self.j = 0

    def step(self, n: int) -> None:
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

    def window(self) -> Tuple[np.ndarray, ...]:
        """Copies of (x, y, theta, dtheta) on the trailing delay window."""
        a = self.j - self.N
        if a < 0:
            raise ValueError("window not yet filled")
        sl = slice(a, self.j + 1)
        return tuple(
            np.frombuffer(arr, np.float64)[sl].copy()
            for arr in (self.xs, self.ys, self.ths, self.dths)
        )

    def set_window(self, xw, yw, thw, dthw) -> None:
        """Overwrite the trailing window; dy is recomputed pointwise."""
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

    def trim(self) -> None:
        """Drop samples before the trailing window to cap memory."""
        a = self.j - self.N
        if a <= 0:
            return
        for name in ("xs", "ys", "ths", "dys", "dths"):
            setattr(self, name, array("d", getattr(self, name)[a:]))
        self.j = self.N



# Post-transient delay windows of theta-form runs, shared with
# divergence_exponent so that a simulate-then-exponent pair at one protocol
# point integrates the transient once.  Key: (params, x0, y0, h, transient);
# value: the five stepper buffers (x, y, theta, y', theta') over the N + 1
# samples ending at step max(ceil(transient/h), N).  FIFO, at most
# _WINDOW_CACHE_SIZE entries of 5*(N + 1) doubles each.
_WINDOW_CACHE_SIZE = 8
_windows: Dict[tuple, Tuple[array, ...]] = {}


def _window_key(cfg: SimConfig) -> tuple:
    return (cfg.params, cfg.x0, cfg.y0, cfg.h, cfg.transient)


def _transient_steps(cfg: SimConfig) -> int:
    return max(int(math.ceil(cfg.transient / cfg.h)), cfg.n_delay)


def _store_window(cfg: SimConfig, st: _ThetaStepper) -> None:
    a = st.j - st.N
    _windows[_window_key(cfg)] = tuple(
        buf[a : st.j + 1] for buf in (st.xs, st.ys, st.ths, st.dys, st.dths)
    )
    while len(_windows) > _WINDOW_CACHE_SIZE:
        del _windows[next(iter(_windows))]


def _run_theta(cfg: SimConfig) -> Trajectory:
    stepper = _ThetaStepper(cfg.params, cfg.x0, cfg.y0, cfg.h)
    n_steps = int(round(cfg.t_end / cfg.h))
    n_tr = _transient_steps(cfg)
    if n_tr <= n_steps:
        stepper.step(n_tr)
        _store_window(cfg, stepper)
        n_steps -= n_tr
    stepper.step(n_steps)
    # the stepper is dropped here, so its buffers are never resized again
    # and the trajectory can view them without a copy
    return Trajectory(
        cfg.params, cfg.h, cfg.n_delay,
        np.frombuffer(stepper.xs, np.float64),
        np.frombuffer(stepper.ys, np.float64),
        np.frombuffer(stepper.dys, np.float64),
        cfg.x0, cfg.y0,
        np.frombuffer(stepper.ths, np.float64),
        np.frombuffer(stepper.dths, np.float64),
    )


def _run_neutral(cfg: SimConfig) -> Trajectory:
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


def simulate_theta(cfg: SimConfig) -> Trajectory:
    """Integrate the feedback-memory formulation of ``cfg``."""
    if cfg.formulation != "theta_form":
        raise ValueError("cfg.formulation must be 'theta_form'")
    return _run_theta(cfg)


def simulate_neutral(cfg: SimConfig) -> Trajectory:
    """Integrate the explicit neutral formulation of ``cfg``."""
    if cfg.formulation != "neutral_form":
        raise ValueError("cfg.formulation must be 'neutral_form'")
    return _run_neutral(cfg)


def simulate(cfg: SimConfig) -> Trajectory:
    """Dispatch on cfg.formulation."""
    return _run_theta(cfg) if cfg.formulation == "theta_form" else _run_neutral(cfg)


@dataclass(frozen=True)
class PoincareSection:
    """Ordered crossings of y(t) = 0 with refined states.

    direction holds +1 for upward (y increasing) and -1 for downward
    crossings.  state_norm_first/last record |(x, y)| at the start and end
    of the analyzed window (used by the equilibrium classification).
    """

    t: np.ndarray
    x: np.ndarray
    y_delayed: np.ndarray
    direction: np.ndarray
    state_norm_first: float = 0.0
    state_norm_last: float = 0.0

    def __len__(self) -> int:
        return len(self.t)

    def subset(self, direction: int) -> "PoincareSection":
        m = self.direction == direction
        return PoincareSection(
            self.t[m], self.x[m], self.y_delayed[m], self.direction[m],
            self.state_norm_first, self.state_norm_last,
        )


def poincare(
    traj: Trajectory, direction: str = "both", transient: float = 0.0
) -> PoincareSection:
    """Crossings of the section y = 0 after ``transient``.

    Sign changes on the grid are refined by bisection (at most 40 halvings)
    on the Hermite interpolant, giving |y| < 1e-9 at every reported time.
    ``direction`` selects upward, downward, or all crossings ("whole
    section").
    """
    if direction not in ("up", "down", "both"):
        raise ValueError(f"direction must be up/down/both, got {direction!r}")
    h = traj.h
    y = traj.y
    j0 = min(int(math.ceil(transient / h)), len(y) - 1)
    seg = y[j0:]
    prod = seg[:-1] * seg[1:]
    idx = np.nonzero(prod < 0.0)[0] + j0
    # node-exact zeros count once, by the sign change across the node
    zeros = np.nonzero(seg[1:-1] == 0.0)[0] + j0 + 1
    zeros = zeros[y[zeros - 1] * y[zeros + 1] < 0.0]

    rec: List[Tuple[float, float, float, int]] = []
    for i in idx:
        a, b = 0.0, h
        va, vb = y[i], y[i + 1]
        for _ in range(40):
            mid = 0.5 * (a + b)
            vm = _hermite(mid, h, y[i], y[i + 1], traj.dy[i], traj.dy[i + 1])
            if va * vm <= 0.0:
                b, vb = mid, vm
            else:
                a, va = mid, vm
        off = 0.5 * (a + b)
        t_star = i * h + off
        rec.append(
            (
                t_star,
                traj.eval_x(t_star),
                traj.eval_y_delayed(t_star),
                1 if y[i + 1] > y[i] else -1,
            )
        )
    for i in zeros:
        t_star = i * h
        rec.append(
            (t_star, float(traj.x[i]), traj.eval_y_delayed(t_star),
             1 if y[i + 1] > y[i - 1] else -1)
        )
    rec.sort(key=lambda r: r[0])
    if direction != "both":
        want = 1 if direction == "up" else -1
        rec = [r for r in rec if r[3] == want]

    arr = np.array(rec, dtype=float).reshape(-1, 4)
    return PoincareSection(
        arr[:, 0],
        arr[:, 1],
        arr[:, 2],
        arr[:, 3].astype(int),
        state_norm_first=math.hypot(traj.x[j0], traj.y[j0]),
        state_norm_last=math.hypot(traj.x[-1], traj.y[-1]),
    )


_NN_BLOCK_ELEMS = 1 << 20  # pairwise distances held at once by _nn_stats


def _nn_stats(pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbor distances and indices of the two nearest points.

    Squared distances are formed for a block of rows at a time, so memory
    stays at O(_NN_BLOCK_ELEMS) instead of O(n^2); each row's values and
    argsort are those of the whole-matrix formula.
    """
    n = len(pts)
    rows = max(1, _NN_BLOCK_ELEMS // max(n, 1))
    nn2 = np.empty(n)
    order = np.empty((n, 2), dtype=np.intp)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d2 = np.sum((pts[lo:hi, None, :] - pts[None, :, :]) ** 2, axis=-1)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        order[lo:hi] = np.argsort(d2, axis=1)[:, :2]
        nn2[lo:hi] = np.min(d2, axis=1)
    return np.sqrt(nn2), order


def classify_section(
    sec: PoincareSection,
    tol_point: float = 1e-4,
    tol_curve: float = 0.25,
    divergence_exponent: Optional[float] = None,
    min_crossings: int = 200,
) -> str:
    """Label the attractor type from the geometry of the section points.

    Decision ladder, applied to the upward crossings (downward if the
    section was collected downward-only):

    * equilibrium_like -- fewer than 5 crossings with the state norm
      decaying, or a crossing-amplitude envelope (decile maxima of |x|)
      that decreases strictly through the window: a trajectory still
      spiralling into the equilibrium.
    * fixed_point      -- the last 50 crossings sit within ``tol_point``
      of their mean: a periodic orbit.
    * closed_curve     -- non-convergent points forming one closed loop:
      the largest gap of the angle-ordered polygon is below ``tol_curve``
      of the diameter (a quasi-periodic torus section).
    * curve_family / scattered -- multi-loop or space-filling sections,
      split by the divergence exponent when one is supplied (positive
      means scattered/chaotic), otherwise by local collinearity of
      nearest-neighbor triples (curve families remain locally 1-D).

    Raises InsufficientData between 5 and ``min_crossings`` crossings.
    """
    sel = sec.direction > 0
    if not np.any(sel):
        sel = sec.direction < 0
    pts = np.column_stack([sec.x[sel], sec.y_delayed[sel]])
    n = len(pts)

    if n < 5:
        if sec.state_norm_last < sec.state_norm_first:
            return "equilibrium_like"
        raise InsufficientData(f"only {n} crossings and no state decay")

    if n >= 20:
        absx = np.abs(pts[:, 0])
        bins = np.array_split(absx, 10)
        dec = np.array([b.max() for b in bins])
        if np.all(dec > 0.0):
            ratios = dec[1:] / dec[:-1]
            if np.all(ratios <= 0.9999) and dec[-1] < 0.999 * dec[0]:
                return "equilibrium_like"

    if n < min_crossings:
        raise InsufficientData(f"{n} crossings < {min_crossings} required")

    last = pts[-50:]
    spread = float(np.max(np.linalg.norm(last - last.mean(axis=0), axis=1)))
    if spread < tol_point:
        return "fixed_point"

    center = pts.mean(axis=0)
    rel = pts - center
    order = np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))
    poly = pts[order]
    edges = np.linalg.norm(np.diff(np.vstack([poly, poly[:1]]), axis=0), axis=1)
    diam = float(np.ptp(pts, axis=0).max())
    if diam > 0.0 and float(edges.max()) / diam < tol_curve:
        return "closed_curve"

    if divergence_exponent is not None:
        return "scattered" if divergence_exponent > 1e-3 else "curve_family"

    nn, nbrs = _nn_stats(pts)
    v1 = pts[nbrs[:, 0]] - pts
    v2 = pts[nbrs[:, 1]] - pts
    denom = np.linalg.norm(v1, axis=1) * np.linalg.norm(v2, axis=1)
    denom[denom == 0.0] = np.inf
    collinearity = float(np.mean(np.abs(np.sum(v1 * v2, axis=1)) / denom))
    return "curve_family" if collinearity >= 0.8 else "scattered"


def divergence_exponent(
    cfg: SimConfig,
    delta0: float,
    renorm_T: float,
    n_renorm: int = 50,
) -> float:
    """Average exponential separation rate of a perturbed twin trajectory.

    A clone of the reference is offset by ``delta0`` (uniformly in the x
    and feedback-memory histories), both are integrated in lockstep for
    ``n_renorm`` legs of length ``renorm_T``, and after each leg the
    history-window separation (sup norm over the window, max of the x and
    y components) is logged and the clone is pulled back to distance
    delta0 along the difference.  The mean of log(sep/delta0)/renorm_T
    estimates the leading exponent: negative on a stable equilibrium,
    near zero on a limit cycle or torus, positive on a chaotic set.

    The theta formulation is used regardless of cfg.formulation (the two
    formulations integrate the same initial-value problem).  cfg.transient
    positions the reference before measurement begins.  The reference
    starts from the post-transient delay window of an earlier theta-form
    run with the same parameters, initial data, step and transient (a
    simulate_theta call or a previous estimate) when one is still held in
    a small module-level store, and integrates the transient otherwise;
    the result is bit-identical either way.
    """
    if not 1e-10 <= delta0 <= 1e-6:
        raise ValueError(f"delta0 must lie in [1e-10, 1e-6], got {delta0}")
    if n_renorm < 50:
        raise ValueError(f"n_renorm must be >= 50, got {n_renorm}")
    p = cfg.params
    h = cfg.h
    if renorm_T < h:
        raise ValueError("renorm_T must cover at least one step")

    ref = _ThetaStepper(p, cfg.x0, cfg.y0, h)
    stored = _windows.get(_window_key(cfg))
    if stored is None:
        ref.step(_transient_steps(cfg))
        ref.trim()
        _store_window(cfg, ref)
    else:
        # the state step(n_tr); trim() reaches: the window at j = N
        ref.xs, ref.ys, ref.ths, ref.dys, ref.dths = (array("d", b) for b in stored)
        ref.j = ref.N

    clone = _ThetaStepper(p, cfg.x0, cfg.y0, h)
    clone.xs = array("d", ref.xs)
    clone.ys = array("d", ref.ys)
    clone.ths = array("d", ref.ths)
    clone.dys = array("d", ref.dys)
    clone.dths = array("d", ref.dths)
    clone.j = ref.j
    xw, yw, thw, dthw = ref.window()
    # uniform x-offset; the memory recursion's fixed point shifts identically
    clone.set_window(xw + delta0, yw, thw + delta0, dthw)

    n_seg = max(1, int(round(renorm_T / h)))
    leg_t = n_seg * h
    rates = []
    for _ in range(n_renorm):
        ref.step(n_seg)
        clone.step(n_seg)
        xr, yr, thr, dthr = ref.window()
        xc, yc, thc, dthc = clone.window()
        sep = max(float(np.max(np.abs(xc - xr))), float(np.max(np.abs(yc - yr))))
        if sep == 0.0:
            sep = 5e-324  # denormal floor; identical twins mean total collapse
        rates.append(math.log(sep / delta0) / leg_t)
        s = delta0 / sep
        clone.set_window(
            xr + s * (xc - xr), yr + s * (yc - yr),
            thr + s * (thc - thr), dthr + s * (dthc - dthr),
        )
        ref.trim()
        clone.trim()
    return float(np.mean(rates))


@dataclass(frozen=True)
class LineTRow:
    iota: float
    k: float
    tau: float
    label: str
    divergence_exponent: Optional[float]


def line_T_scan(
    iota_list: Iterable[float],
    hh: Optional[HopfHopfPoint] = None,
    epsilon: float = 0.1,
    mu: float = 0.5,
    x0: float = 0.1,
    y0: float = 0.0,
    h_div: int = 2000,
    t_end: float = 12000.0,
    transient: float = 8000.0,
    delta0: float = 1e-9,
    renorm_T: float = 20.0,
    n_renorm: int = 50,
    compute_exponent: bool = True,
) -> List[LineTRow]:
    """Classify the attractor along the ray (alpha1, alpha2) = iota*(0.1, 0.081).

    Each admissible scale factor is simulated with the fixed protocol,
    sectioned on y = 0, and labeled; the divergence exponent is estimated
    with the same transient and feeds the curve-family/scattered split.
    iota = 0 is the codimension-two point itself and is skipped.
    """
    if hh is None:
        hh = _hh_mod.find_hopf_hopf(epsilon, mu, 1, 1, 4.5, 5.2)
    rows: List[LineTRow] = []
    for iota in iota_list:
        if iota == 0.0:
            rows.append(LineTRow(0.0, hh.k0, hh.tau0, "skipped_origin", None))
            continue
        k = hh.k0 + 0.1 * iota
        tau = hh.tau0 + 0.081 * iota
        hyp = check_hypotheses(epsilon, mu, k)
        if not (hyp["h1"] and hyp["h2"]):
            raise HypothesisViolated(f"iota={iota} leaves the admissible gain region")
        params = SystemParams(epsilon, mu, k, tau)
        cfg = SimConfig.from_divisor(params, x0, y0, h_div, t_end, transient)
        traj = simulate_theta(cfg)
        sec = poincare(traj, "both", transient)
        del traj
        lam = (
            divergence_exponent(cfg, delta0, renorm_T, n_renorm)
            if compute_exponent
            else None
        )
        label = classify_section(sec, divergence_exponent=lam)
        rows.append(LineTRow(iota, k, tau, label, lam))
    return rows
