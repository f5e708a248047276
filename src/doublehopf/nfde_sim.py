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

Both integrators step one delay interval at a time (the method of steps):
within a block that ends on the delay grid every delayed term is data
already computed.  So numpy forms the block's delayed terms, the scalar
RK4 loop carries only x, y and the stage-1 slope, and numpy then writes
the block's other columns -- theta and theta' by the memory recursion,
y' by the loop's own expression -- with the bits of a step-by-step loop.

Trajectories carry cubic Hermite dense output used to refine section
crossings to |y| < 1e-9 by bisection.

One engine, _stream, integrates every run of either formulation: its
stepper runs in chunks of _CHUNK steps, and after each chunk its readers
-- the section's crossing collector, the exponent's reference windows,
trajectory CSV rows, the columns of a stored run -- read that chunk plus
the trailing delay window (a neutral run's theta is rebuilt per chunk by
the memory recursion).  A streamed run (stream_section; line_T_scan and
the CLI's simulate) needs O(N + _CHUNK) memory however long it is; a
stored run (simulate_theta, simulate_neutral) is the stream plus a store,
so it needs its own columns plus that.  Either way the samples are those
of one unsplit stepper run, bit for bit.
"""

from __future__ import annotations

import math
import weakref
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    "stream_section",
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
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end!r}")
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


def _dense(vals, derivs, hist: float, t: float, h: float, n: int, base: int = 0) -> float:
    """Dense output at time t of an n-sample run on the grid 0, h, 2h, ...

    vals and derivs hold the samples base, base + 1, ... of the run; hist is
    the constant history value for t <= 0.  Past the last grid interval the
    last sample is returned (vals must then end with it).
    """
    if t <= 0.0:
        return hist
    i = int(t / h)
    if i >= n - 1:
        return float(vals[-1])
    a = i - base
    return _hermite(t - i * h, h, vals[a], vals[a + 1], derivs[a], derivs[a + 1])


def _fill_memory(m: np.ndarray, src: np.ndarray, lo: int, mu: float, nd: int,
                 hist: float, base: int = 0) -> None:
    """m[i] = (1-mu)*src[i] + mu*m[i - nd] for i >= lo, the feedback memory
    of src on the samples base, base + 1, ... of a run.

    Before run sample nd the delayed memory is the history value hist (node
    0 uses the history fixed point directly).  Elementwise in blocks of at
    most nd samples, so a run split anywhere gets the bits of a whole one.
    """
    n = len(src)
    while lo < n:
        if base + lo < nd:
            hi = min(nd - base, n)
            delayed = hist
        else:
            hi = min(lo + nd, n)
            delayed = m[lo - nd : hi - nd]
        m[lo:hi] = (1.0 - mu) * src[lo:hi] + mu * delayed
        lo = hi


class Trajectory:
    """Uniform-grid solution samples with cubic Hermite dense output.

    Arrays x, y, dy (= y') live on t = 0, h, 2h, ...; theta and dtheta are
    stored for theta-form runs and otherwise each reconstructed on its own
    first read.  The constant initial history extends every evaluation to
    t <= 0.
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
        m = np.empty(len(src))
        _fill_memory(m, src, 0, self.params.mu, self.n_delay, hist)
        return m

    def y_delayed(self) -> np.ndarray:
        """Grid samples of y(t - tau); exact buffer reads plus history fill."""
        nd = self.n_delay
        out = np.empty_like(self.y)
        out[:nd] = self.y0
        if len(out) > nd:
            out[nd:] = self.y[: len(out) - nd]
        return out

    @property
    def tau(self) -> float:
        """The delay: params.tau, or n_delay * h for a synthetic trajectory."""
        return self.n_delay * self.h if self.params is None else self.params.tau

    def eval_x(self, t: float) -> float:
        return _dense(self.x, self.y, self.x0, t, self.h, len(self.x))

    def eval_y(self, t: float) -> float:
        return _dense(self.y, self.dy, self.y0, t, self.h, len(self.y))

    def eval_y_delayed(self, t: float) -> float:
        return self.eval_y(t - self.tau)


class _Stepper:
    """Sample buffers of an incremental integrator on the grid t = 0, h, ...

    ``step(n)`` appends n steps to the buffers named in _BUFFERS, in the
    order (x, y, y', ...) that a run reader takes them, and continues from
    where the previous call stopped.  ``j`` is the buffer index of the last
    sample and ``base`` the run step index of buffer sample 0, so a blow-up
    reports the run time whatever was trimmed.

    A call grows every buffer by n samples at once, then steps in blocks
    that end on the delay grid (run indices that are multiples of N), so a
    block has at most N steps and every delayed node it reads is already
    computed.  Per block, numpy forms the delayed terms of every step, the
    scalar RK4 loop carries (x, y, k1y) and stores x and y, and numpy then
    writes the block's other columns, each elementwise in the scalar
    operation order.  A blow-up raises inside the loop and leaves the
    stepper spent: the rest of its buffers is unwritten.
    """

    _BUFFERS: Tuple[str, ...] = ()
    _LEAD = 0  # samples before the trailing delay window that step reads

    def step(self, n: int) -> None:
        N, j, j1 = self.N, self.j, self.j + n
        x, y = self.xs[j], self.ys[j]
        k1y = self._k1y(j, x, y)
        for name in self._BUFFERS:
            getattr(self, name).frombytes(bytes(8 * n))
        while j < j1:
            e = min(j1, j + N - (self.base + j) % N)
            x, y, k1y = self._block(j, e, x, y, k1y)
            j = e
        self.j = j1

    def _overflow(self, i: int) -> NonFiniteState:
        """The error of the step to buffer sample i."""
        t = (self.base + i) * self.h
        return NonFiniteState(f"state overflow at t = {t:.6g}", t)

    def _columns(self) -> Tuple[np.ndarray, ...]:
        """Views of the buffers, in _BUFFERS order."""
        return tuple(np.frombuffer(getattr(self, name), np.float64)
                     for name in self._BUFFERS)

    def trim(self, lead: int = 0) -> None:
        """Drop samples before the trailing window and the ``lead`` (at least
        _LEAD) before it."""
        a = self.j - self.N - max(lead, self._LEAD)
        if a <= 0:
            return
        for name in self._BUFFERS:
            setattr(self, name, array("d", getattr(self, name)[a:]))
        self.j -= a
        self.base += a


class _ThetaStepper(_Stepper):
    """Incremental theta-form integrator.

    Steps every theta-form run (see _stream) and the divergence estimator's
    own legs.  The estimator perturbs and rescales whole history windows
    between integration legs, so the trailing window is exposed for
    read/overwrite and the prefix can be trimmed to cap memory.
    """

    _BUFFERS = ("xs", "ys", "dys", "ths", "dths")

    def __init__(self, p: SystemParams, x0: float, y0: float, h: float):
        self.p = p
        self.h = h
        self.N = int(round(p.tau / h))
        self.x0, self.y0 = x0, y0
        self.xs = array("d", [x0])
        self.ys = array("d", [y0])
        self.ths = array("d", [x0])
        self.dys = array("d", [self._dy(x0, y0, x0)])
        self.dths = array("d", [(1.0 - p.mu) * y0])
        self.j = 0
        self.base = 0  # run step index of buffer sample 0; trim advances it

    def _dy(self, x, y, th):
        """Theta-form y' in the scalar operation order, on floats or arrays."""
        p = self.p
        return -p.epsilon * (x * x - 1.0) * y - x + p.epsilon * p.k * th

    def _k1y(self, j: int, x: float, y: float) -> float:
        # recomputed from the state and node a, not read from dys: set_window
        # may have left dys inconsistent with the theta recursion
        th_a = self.x0 if j < self.N else self.ths[j - self.N]
        return self._dy(x, y, (1.0 - self.p.mu) * x + self.p.mu * th_a)

    def _delayed(self, j: int, e: int) -> Tuple[Sequence[float], Sequence[float]]:
        """mu*theta at the midpoint and at node b of the steps j .. e - 1."""
        N, mu = self.N, self.p.mu
        if j < N:
            # nodes a and the midpoints lie in the constant history (theta =
            # x0, theta' = 0); node b is node 0 at j = N - 1
            mth_m = [mu * self.x0] * (e - j)
            mth_b = mth_m[:]
            if e == N:
                mth_b[-1] = mu * self.ths[0]
            return mth_m, mth_b
        th = np.frombuffer(self.ths, np.float64)[j - N : e - N + 1]
        dth = np.frombuffer(self.dths, np.float64)[j - N : e - N + 1]
        th_a, th_b = th[:-1], th[1:]
        mth_m = mu * (0.5 * (th_a + th_b) + 0.125 * self.h * (dth[:-1] - dth[1:]))
        return memoryview(mth_m), memoryview(mu * th_b)

    def _block(self, j: int, e: int, x: float, y: float, k1y: float):
        p = self.p
        mu = p.mu
        neps, ek, one_mu = -p.epsilon, p.epsilon * p.k, 1.0 - mu
        h = self.h
        h2, h6 = 0.5 * h, h / 6.0
        xs, ys = self.xs, self.ys
        # the end-of-step y' is the next step's k1y (the same expression on
        # the same operands), and mu*theta_m serves stages 2 and 3
        for i, mth_m, mth_b in zip(range(j + 1, e + 1), *self._delayed(j, e)):
            xa = x + h2 * y
            ya = y + h2 * k1y
            k2y = neps * (xa * xa - 1.0) * ya - xa + ek * (one_mu * xa + mth_m)
            xb = x + h2 * ya
            yb = y + h2 * k2y
            k3y = neps * (xb * xb - 1.0) * yb - xb + ek * (one_mu * xb + mth_m)
            xc = x + h * yb
            yc = y + h * k3y
            k4y = neps * (xc * xc - 1.0) * yc - xc + ek * (one_mu * xc + mth_b)
            x = x + h6 * (y + 2.0 * (ya + yb) + yc)
            y = y + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
            if not (x * x + y * y <= _BLOWUP_SQ):  # also true for NaN
                raise self._overflow(i)
            k1y = neps * (x * x - 1.0) * y - x + ek * (one_mu * x + mth_b)
            xs[i] = x
            ys[i] = y
        xv, yv, dy, th, dth = (c[: e + 1] for c in self._columns())
        lo = j + 1
        _fill_memory(th, xv, lo, mu, self.N, self.x0, self.base)
        _fill_memory(dth, yv, lo, mu, self.N, 0.0, self.base)
        dy[lo:] = self._dy(xv[lo:], yv[lo:], th[lo:])
        return x, y, k1y

    @classmethod
    def at_window(cls, p: SystemParams, x0: float, y0: float, h: float,
                  xw, yw, thw, dthw) -> "_ThetaStepper":
        """A stepper at j = N whose buffers hold just the given delay window."""
        st = cls(p, x0, y0, h)
        st.xs, st.ys, st.ths, st.dys, st.dths = (
            array("d", bytes(8 * (st.N + 1))) for _ in range(5)
        )
        st.j = st.N
        st.set_window(xw, yw, thw, dthw)
        return st

    def _window_slice(self) -> slice:
        a = self.j - self.N
        if a < 0:
            raise ValueError("window not yet filled")
        return slice(a, self.j + 1)

    def window(self) -> Tuple[np.ndarray, ...]:
        """Copies of (x, y, theta, dtheta) on the trailing delay window."""
        sl = self._window_slice()
        return tuple(
            np.frombuffer(arr, np.float64)[sl].copy()
            for arr in (self.xs, self.ys, self.ths, self.dths)
        )

    def set_window(self, xw, yw, thw, dthw) -> None:
        """Overwrite the trailing window; dy is recomputed pointwise."""
        sl = self._window_slice()
        x, y, th, dth = (np.asarray(v, dtype=np.float64) for v in (xw, yw, thw, dthw))
        dy = self._dy(x, y, th)
        for buf, vals in ((self.xs, x), (self.ys, y), (self.ths, th),
                          (self.dths, dth), (self.dys, dy)):
            np.frombuffer(buf, np.float64)[sl] = vals


class _NeutralStepper(_Stepper):
    """Incremental neutral-form integrator of x, y and y'.

    Steps every neutral-form run (see _stream).  The midpoint's
    y' stencil reads back to two samples before the delayed node, so trim
    keeps those (_LEAD).
    """

    _BUFFERS = ("xs", "ys", "dys")
    _LEAD = 2

    def __init__(self, p: SystemParams, x0: float, y0: float, h: float):
        eps, mu = p.epsilon, p.mu
        self.p = p
        self.h = h
        self.N = int(round(p.tau / h))
        self.x0, self.y0 = x0, y0
        self.c_x = c_x = -1.0 + eps * p.k * (1.0 - mu)
        # g(x0, y0, x0, y0)/(1 - mu), in g's term order (see _block): the fixed
        # point of the derivative recursion keeps y' continuous at t = 0 and
        # matches the theta formulation's initial-value problem
        self.dy_h = (
            c_x * x0 + eps * y0 + mu * x0 - eps * mu * y0
            - eps * x0 * x0 * y0 + eps * mu * x0 * x0 * y0
        ) / (1.0 - mu)
        self.xs = array("d", [x0])
        self.ys = array("d", [y0])
        self.dys = array("d", [self.dy_h])
        self.j = 0
        self.base = 0

    def _k1y(self, j: int, x: float, y: float) -> float:
        # the end-of-step y' is the next step's k1y, so it is read back from
        # dys, except at the run's first step, where dys holds the fixed point
        # dy_h rather than that sum
        if self.base + j:
            return self.dys[j]
        hA, hB, hC, hD = self._history_terms()
        eps = self.p.epsilon
        return self.c_x * x + eps * y + hA - hB - eps * x * x * y + hC + hD

    def _history_terms(self) -> Tuple[float, float, float, float]:
        """(A, B, C, D) of a node in the constant history (see _block)."""
        mu, em = self.p.mu, self.p.epsilon * self.p.mu
        x0, y0 = self.x0, self.y0
        return mu * x0, em * y0, em * x0 * x0 * y0, mu * self.dy_h

    def _delayed(self, j: int, e: int) -> Tuple[np.ndarray, ...]:
        """(A, B, C, D) at the midpoint, then at node b, of the steps j .. e - 1,
        for j >= N."""
        N, mu, em = self.N, self.p.mu, self.p.epsilon * self.p.mu
        h8 = 0.125 * self.h
        m, a = e - j, j - self.N  # a: buffer index of the first node a
        X, Y, D = (np.frombuffer(b, np.float64) for b in (self.xs, self.ys, self.dys))
        x_a, x_b = X[a : a + m], X[a + 1 : a + m + 1]
        y_a, y_b = Y[a : a + m], Y[a + 1 : a + m + 1]
        dy_a, dy_b = D[a : a + m], D[a + 1 : a + m + 1]
        x_m = 0.5 * (x_a + x_b) + h8 * (y_a - y_b)
        y_m = 0.5 * (y_a + y_b) + h8 * (dy_a - dy_b)
        # y'' jumps at every multiple of tau; choose a 4-point stencil that
        # stays on one smooth piece.  The block starts at residue r0 and ends
        # at N - 1 at the latest, so only its first node a can have r = 0
        # and only its last r = N - 1 (all indices are >= 0 here).
        r0 = (self.base + a) % N
        k0 = 1 if r0 == 0 else 0
        k1 = m - 1 if r0 + m == N else m
        i, i1 = a + k0, a + k1
        dy_m = np.empty(m)
        dy_m[k0:k1] = (-D[i - 1 : i1 - 1] + 9.0 * D[i:i1] + 9.0 * D[i + 1 : i1 + 1]
                       - D[i + 2 : i1 + 2]) / 16.0
        if k0:
            dy_m[0] = (5.0 * D[a] + 15.0 * D[a + 1] - 5.0 * D[a + 2] + D[a + 3]) / 16.0
        if k1 < m:
            i = a + k1
            dy_m[k1] = (D[i - 2] - 5.0 * D[i - 1] + 15.0 * D[i] + 5.0 * D[i + 1]) / 16.0
        return (mu * x_m, em * y_m, em * x_m * x_m * y_m, mu * dy_m,
                mu * x_b, em * y_b, em * x_b * x_b * y_b, mu * dy_b)

    def _block(self, j: int, e: int, x: float, y: float, k1y: float):
        eps = self.p.epsilon
        c_x, h = self.c_x, self.h
        h2, h6 = 0.5 * h, h / 6.0
        xs, ys = self.xs, self.ys
        # g(x, y, xt, yt) + mu*yt' is inlined below in g's left-to-right term
        # order, c_x*x + eps*y + A - B - eps*x*x*y + C + D, where a delayed
        # node contributes A = mu*xt, B = (eps*mu)*yt, C = (eps*mu)*xt*xt*yt
        # and D = mu*yt'.  Before step N every delayed node and midpoint lie
        # in the constant history (node 0, read at j = N - 1, holds the
        # history values).
        if j < self.N:
            terms = self._history_terms() * 2
            cols = [repeat(v, e - j) for v in terms]
        else:
            terms = self._delayed(j, e)
            cols = [memoryview(v) for v in terms]
        for i, mA, mB, mC, mD, bA, bB, bC, bD in zip(range(j + 1, e + 1), *cols):
            xa = x + h2 * y
            ya = y + h2 * k1y
            k2y = c_x * xa + eps * ya + mA - mB - eps * xa * xa * ya + mC + mD
            xb = x + h2 * ya
            yb = y + h2 * k2y
            k3y = c_x * xb + eps * yb + mA - mB - eps * xb * xb * yb + mC + mD
            xc = x + h * yb
            yc = y + h * k3y
            k4y = c_x * xc + eps * yc + bA - bB - eps * xc * xc * yc + bC + bD
            x = x + h6 * (y + 2.0 * (ya + yb) + yc)
            y = y + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
            if not (x * x + y * y <= _BLOWUP_SQ):  # also true for NaN
                raise self._overflow(i)
            k1y = c_x * x + eps * y + bA - bB - eps * x * x * y + bC + bD
            xs[i] = x
            ys[i] = y
        xv, yv, dy = self._columns()
        bA, bB, bC, bD = terms[4:]
        xn, yn = xv[j + 1 : e + 1], yv[j + 1 : e + 1]
        dy[j + 1 : e + 1] = c_x * xn + eps * yn + bA - bB - eps * xn * xn * yn + bC + bD
        return x, y, k1y


def _transient_steps(cfg: SimConfig) -> int:
    return max(int(math.ceil(cfg.transient / cfg.h)), cfg.n_delay)


# The reference windows of divergence_exponent(cfg, ...), one {step: window}
# dict per live SimConfig: the (x, y, theta, theta') delay window ending at
# step _transient_steps(cfg), then each leg window that a run recorded or an
# exponent integrated.  Equal configurations share one entry, which goes
# with the cfg object that made it.  The windows are looked up here, not
# passed, because perfbench/tracing.py binds divergence_exponent's four
# parameters.  They are copies: a numpy view of a stepper buffer blocks its
# next growth (BufferError) and pins the whole run.
_runs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _Windows:
    """Run reader that records cfg's reference windows in _runs.

    It copies the (x, y, theta, theta') delay windows ending at step
    _transient_steps(cfg) and after each of ``n_legs`` legs of ``n_seg``
    steps as the run passes them (see _stream), and enters them as cfg's
    _runs entry at the end of a run that reached the first.
    """

    def __init__(self, cfg: SimConfig, n_seg: int = 0, n_legs: int = 0):
        n_tr = _transient_steps(cfg)
        self.cfg = cfg
        self.pending = [n_tr + m * n_seg for m in range(n_legs, -1, -1)]
        self.windows: Dict[int, Tuple[np.ndarray, ...]] = {}

    def __call__(self, base, x, y, dy, theta, dtheta, final) -> None:
        last = base + len(x) - 1
        while self.pending and self.pending[-1] <= last:
            j = self.pending.pop()
            a = j - self.cfg.n_delay - base
            self.windows[j] = tuple(
                c[a : j + 1 - base].copy() for c in (x, y, theta, dtheta))
        if final and self.windows:
            _runs[self.cfg] = self.windows


class _Store:
    """Run reader that copies every chunk into whole-run columns, preallocated
    for n samples: (x, y, y') of a neutral run, (x, y, y', theta, theta') of
    a theta-form one (see _stream)."""

    def __init__(self, n: int, n_cols: int):
        self.cols = [np.empty(n) for _ in range(n_cols)]
        self.next = 0  # first run sample not yet copied

    def __call__(self, base, x, y, dy, theta, dtheta, final) -> None:
        lo, hi = self.next, base + len(x)
        for dst, src in zip(self.cols, (x, y, dy, theta, dtheta)):
            dst[lo:hi] = src[lo - base :]
        self.next = hi


_CHUNK = 1 << 16  # steps per chunk of a run (~2.6 MB of theta-form samples)


def _stream(cfg: SimConfig, readers: Sequence[Callable]) -> None:
    """Integrate cfg in chunks of _CHUNK steps, keeping only the last one.

    The stepper is cfg.formulation's.  After each chunk every reader is
    called as ``reader(base, x, y, dy, theta, dtheta, final)``: numpy views
    of the samples base, base + 1, ... up to the last step so far, with
    final true after the last chunk.  A neutral run has no dtheta (None);
    its theta is rebuilt per chunk by the memory recursion, with the bits of
    Trajectory.theta.  A reader must copy what it keeps, because the stepper
    then drops all but the trailing N + 3 samples (the delay window and the
    two before it), which every later block starts with, and grows its
    buffers again.  The steps are those of one unsplit stepper run, bit for
    bit, and a blow-up raises at the same time with the same message.
    """
    neutral = cfg.formulation == "neutral_form"
    stepper = _NeutralStepper if neutral else _ThetaStepper
    st = stepper(cfg.params, cfg.x0, cfg.y0, cfg.h)
    theta, theta_base = np.empty(0), 0  # neutral theta of the last block
    left = int(round(cfg.t_end / cfg.h))
    while True:
        n = min(_CHUNK, left)
        st.step(n)
        left -= n
        cols = [np.frombuffer(getattr(st, name), np.float64) for name in st._BUFFERS]
        if neutral:
            kept = theta[st.base - theta_base :]
            theta, theta_base = np.empty(len(cols[0])), st.base
            theta[: len(kept)] = kept
            _fill_memory(theta, cols[0], len(kept), cfg.params.mu, st.N, cfg.x0,
                         st.base)
            cols += [theta, None]
        for read in readers:
            read(st.base, *cols, left == 0)
        del cols  # views block the buffers' next growth
        if left == 0:
            return
        st.trim(2)


def _stored(cfg: SimConfig) -> Trajectory:
    """cfg's whole run: _stream with a _Store reader.  A theta-form run also
    records its post-transient window for divergence_exponent (_Windows)."""
    n = int(round(cfg.t_end / cfg.h)) + 1
    if cfg.formulation == "neutral_form":
        store = _Store(n, 3)
        _stream(cfg, [store])
    else:
        store = _Store(n, 5)
        _stream(cfg, [store, _Windows(cfg)])
    x, y, dy, *memory = store.cols
    return Trajectory(cfg.params, cfg.h, cfg.n_delay, x, y, dy, cfg.x0, cfg.y0,
                      *memory)


def simulate_theta(cfg: SimConfig) -> Trajectory:
    """Integrate the feedback-memory formulation of ``cfg``."""
    if cfg.formulation != "theta_form":
        raise ValueError("cfg.formulation must be 'theta_form'")
    return _stored(cfg)


def simulate_neutral(cfg: SimConfig) -> Trajectory:
    """Integrate the explicit neutral formulation of ``cfg``."""
    if cfg.formulation != "neutral_form":
        raise ValueError("cfg.formulation must be 'neutral_form'")
    return _stored(cfg)


def simulate(cfg: SimConfig) -> Trajectory:
    """Dispatch on cfg.formulation."""
    return _stored(cfg)


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


class _Crossings:
    """Crossings of the section y = 0 after ``transient``, collected from
    consecutive blocks of an n-sample run.

    Called as a run reader (see _stream).  Sign changes on the grid
    are refined by bisection (at most 40 halvings) on the Hermite
    interpolant; a grid node where y is exactly zero counts once, by the
    sign change across it.  A grid interval or node i is examined once
    sample i + 2 is in (its crossing's dense output may read it), or at the
    end of the run; its delayed value reads back to sample i - N - 1.
    """

    def __init__(self, h: float, tau: float, n: int, transient: float,
                 x0: float, y0: float):
        self.h, self.tau, self.n = h, tau, n
        self.x0, self.y0 = x0, y0
        self.j0 = min(int(math.ceil(transient / h)), n - 1)
        self.next = self.j0  # first interval and node not yet examined
        self.cross: List[Tuple[float, float, float, int]] = []
        self.zeros: List[Tuple[float, float, float, int]] = []
        self.norm_first = self.norm_last = 0.0

    def __call__(self, base, x, y, dy, theta, dtheta, final) -> None:
        h, n, j0 = self.h, self.n, self.j0
        last = base + len(y) - 1
        if base <= j0 <= last:
            self.norm_first = math.hypot(x[j0 - base], y[j0 - base])
        if final:
            self.norm_last = math.hypot(x[-1], y[-1])
        stop = n - 1 if final else last - 1
        lo = self.next
        if stop <= lo:
            return
        self.next = stop
        seg = y[lo - base : stop + 1 - base]
        idx = np.nonzero(seg[:-1] * seg[1:] < 0.0)[0] + lo
        z0 = max(lo, j0 + 1)
        zeros = np.nonzero(y[z0 - base : stop - base] == 0.0)[0] + z0
        zeros = zeros[y[zeros - 1 - base] * y[zeros + 1 - base] < 0.0]
        for i in idx:
            a = i - base
            ya, yb, da, db = y[a], y[a + 1], dy[a], dy[a + 1]
            left, right, va = 0.0, h, ya
            for _ in range(40):
                mid = 0.5 * (left + right)
                vm = _hermite(mid, h, ya, yb, da, db)
                if va * vm <= 0.0:
                    right = mid
                else:
                    left, va = mid, vm
            t_star = i * h + 0.5 * (left + right)
            self.cross.append((
                t_star,
                _dense(x, y, self.x0, t_star, h, n, base),
                _dense(y, dy, self.y0, t_star - self.tau, h, n, base),
                1 if yb > ya else -1,
            ))
        for i in zeros:
            t_star = i * h
            self.zeros.append((
                t_star, float(x[i - base]),
                _dense(y, dy, self.y0, t_star - self.tau, h, n, base),
                1 if y[i + 1 - base] > y[i - 1 - base] else -1,
            ))

    def section(self, direction: str) -> PoincareSection:
        rec = self.cross + self.zeros
        rec.sort(key=lambda r: r[0])
        if direction != "both":
            want = 1 if direction == "up" else -1
            rec = [r for r in rec if r[3] == want]
        arr = np.array(rec, dtype=float).reshape(-1, 4)
        return PoincareSection(
            arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3].astype(int),
            state_norm_first=self.norm_first, state_norm_last=self.norm_last,
        )


def _check_direction(direction: str) -> None:
    if direction not in ("up", "down", "both"):
        raise ValueError(f"direction must be up/down/both, got {direction!r}")


def poincare(
    traj: Trajectory, direction: str = "both", transient: float = 0.0
) -> PoincareSection:
    """Crossings of the section y = 0 after ``transient``.

    Sign changes on the grid are refined by bisection (at most 40 halvings)
    on the Hermite interpolant, giving |y| < 1e-9 at every reported time.
    ``direction`` selects upward, downward, or all crossings ("whole
    section").
    """
    _check_direction(direction)
    sec = _Crossings(traj.h, traj.tau, len(traj), transient, traj.x0, traj.y0)
    sec(0, traj.x, traj.y, traj.dy, None, None, True)
    return sec.section(direction)


def stream_section(
    cfg: SimConfig, direction: str = "both", readers: Sequence[Callable] = ()
) -> PoincareSection:
    """poincare(simulate(cfg), direction, cfg.transient), streamed.

    The run, in either formulation, is integrated in chunks and never
    stored (see _stream); each of ``readers`` also reads every chunk.  The
    section is the same, bit for bit.
    """
    _check_direction(direction)
    n = int(round(cfg.t_end / cfg.h)) + 1
    sec = _Crossings(cfg.h, cfg.params.tau, n, cfg.transient, cfg.x0, cfg.y0)
    _stream(cfg, (sec, *readers))
    return sec.section(direction)


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


def _reference_windows(
    cfg: SimConfig, n_seg: int, n_renorm: int
) -> Iterator[Tuple[np.ndarray, ...]]:
    """(x, y, theta, theta') delay windows of the exponent's reference run.

    Yields the window at the end of the transient, then the window after
    each of ``n_renorm`` legs of ``n_seg`` steps.  They are read from cfg's
    recorded windows in _runs, and a leg that is not recorded is integrated
    from the window before it and recorded.  Without an entry the transient
    is integrated first.  The values are the same either way.
    """
    n_tr = _transient_steps(cfg)
    windows = _runs.get(cfg)
    if windows is None:
        ref = _ThetaStepper(cfg.params, cfg.x0, cfg.y0, cfg.h)
        ref.step(n_tr)
        ref.trim()
        windows = _runs[cfg] = {n_tr: ref.window()}
    ref = None
    for j in range(n_tr, n_tr + (n_renorm + 1) * n_seg, n_seg):
        if j in windows:
            ref = None
        else:
            if ref is None:
                # the state step(j - n_seg); trim() reaches
                ref = _ThetaStepper.at_window(
                    cfg.params, cfg.x0, cfg.y0, cfg.h, *windows[j - n_seg])
            ref.step(n_seg)
            ref.trim()
            windows[j] = ref.window()
        yield windows[j]


def _leg_steps(cfg: SimConfig, delta0: float, renorm_T: float, n_renorm: int) -> int:
    """Steps per leg of divergence_exponent(cfg, ...), after checking its
    arguments."""
    if not 1e-10 <= delta0 <= 1e-6:
        raise ValueError(f"delta0 must lie in [1e-10, 1e-6], got {delta0}")
    if n_renorm < 50:
        raise ValueError(f"n_renorm must be >= 50, got {n_renorm}")
    if not cfg.h <= renorm_T < math.inf:
        raise ValueError(f"renorm_T must be finite and >= h, got {renorm_T!r}")
    return max(1, int(round(renorm_T / cfg.h)))


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
    positions the reference before measurement begins.  The reference legs
    are read from the windows recorded for cfg (by line_T_scan's run or an
    earlier exponent on cfg), else integrated from the window before them
    (simulate_theta(cfg) records the post-transient one), else from the
    start; the result is bit-identical either way.
    """
    n_seg = _leg_steps(cfg, delta0, renorm_T, n_renorm)
    p = cfg.params
    h = cfg.h
    leg_t = n_seg * h
    ref_windows = _reference_windows(cfg, n_seg, n_renorm)
    xw, yw, thw, dthw = next(ref_windows)
    # uniform x-offset; the memory recursion's fixed point shifts identically
    clone = _ThetaStepper.at_window(
        p, cfg.x0, cfg.y0, h, xw + delta0, yw, thw + delta0, dthw
    )
    rates = []
    for xr, yr, thr, dthr in ref_windows:
        clone.step(n_seg)
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
        clone.trim()
    return float(np.mean(rates))


@dataclass(frozen=True)
class LineTRow:
    """One scale of line_T_scan; label is None when label_error says why."""

    iota: float
    k: float
    tau: float
    label: Optional[str]
    divergence_exponent: Optional[float]
    label_error: Optional[str] = None


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
    with the same transient, with that run as its reference, and feeds the
    curve-family/scattered split.  iota = 0 is the codimension-two point
    itself and is skipped.  A scale whose section is too short to label gets
    no label and a ``label_error``; the scan goes on.

    Every scale, and the exponent's arguments, are checked before any scale
    is integrated.  Each run is streamed (stream_section): its section and
    the exponent's reference windows are read while it runs, so memory does
    not grow with t_end, and the transient and the reference legs are
    integrated once per scale.
    """
    if hh is None:
        hh = _hh_mod.find_hopf_hopf(epsilon, mu, 1, 1, 4.5, 5.2)
    todo = []
    for iota in iota_list:
        if iota == 0.0:
            todo.append((iota, None, 0))
            continue
        k = hh.k0 + 0.1 * iota
        tau = hh.tau0 + 0.081 * iota
        hyp = check_hypotheses(epsilon, mu, k)
        if not (hyp["h1"] and hyp["h2"]):
            raise HypothesisViolated(f"iota={iota} leaves the admissible gain region")
        params = SystemParams(epsilon, mu, k, tau)
        cfg = SimConfig.from_divisor(params, x0, y0, h_div, t_end, transient)
        n_seg = _leg_steps(cfg, delta0, renorm_T, n_renorm) if compute_exponent else 0
        todo.append((iota, cfg, n_seg))
    todo.reverse()
    rows: List[LineTRow] = []
    while todo:
        # popped, so a scale's cfg, and with it its _runs entry, is gone
        # before the next scale runs
        iota, cfg, n_seg = todo.pop()
        if cfg is None:
            rows.append(LineTRow(0.0, hh.k0, hh.tau0, "skipped_origin", None))
            continue
        lam = None
        if compute_exponent:
            sec = stream_section(cfg, "both", [_Windows(cfg, n_seg, n_renorm)])
            lam = divergence_exponent(cfg, delta0, renorm_T, n_renorm)
        else:
            sec = stream_section(cfg)
        label = error = None
        try:
            label = classify_section(sec, divergence_exponent=lam)
        except InsufficientData as exc:
            error = f"{type(exc).__name__}: {exc}"
        rows.append(LineTRow(iota, cfg.params.k, cfg.params.tau, label, lam, error))
    return rows

