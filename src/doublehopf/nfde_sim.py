"""Fixed-step integration of the delayed van der Pol system, Poincare
sections on y = 0, and attractor diagnostics.

Two interchangeable formulations are integrated with a classical
fourth-order one-step method on the grid h = tau/h_div, h_div an integer
(SimConfig), so delayed node lookups are exact buffer reads and
interpolation is only needed at half-step stage times:

* theta form      x' = y,  y' = -eps*(x^2-1)*y - x + eps*k*theta(t), with
                  the feedback memory theta(t) = (1-mu)*x(t) + mu*theta(t-tau)
                  carried as an algebraic recursion on the grid;
* neutral form    y'(t) = g(x, y, x(t-tau), y(t-tau)) + mu*y'(t-tau)
                  integrating the eliminated equation directly, with the
                  derivative history stored alongside the state.

Initial data are constant histories x = x0, y = y0 on [-tau, 0], so a
run's first sample (x0, y0) is its history (Trajectory).  The two
auxiliary histories are the fixed points of their recursions (theta = x0,
and y'-history = g(x0,y0,x0,y0)/(1-mu)), which makes the two formulations
the same initial-value problem and keeps y' continuous at t = 0.  Both
formulations start theta at t = 0 by the recursion itself, (1-mu)*x0 +
mu*x0, and the theta form theta' at (1-mu)*y0 + mu*0.0, so both are the
memory recursions of x and y (history 0) node by node from node 0.
Second derivatives still jump at every multiple of tau (neutral systems
do not smooth), so the derivative history is interpolated with one-sided
stencils next to those breaking nodes; both formulations then converge at
fourth order and agree to ~1e-10 at desk step sizes.

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
-- the section's crossing collector, the divergence exponent (which
restarts a perturbed twin from the run's window at every leg end and steps
it beside the run), trajectory CSV rows, the columns of a stored run --
read that chunk plus the trailing delay window.  Both steppers write theta
per block, so every reader gets it from either formulation.  A streamed run
(stream_section, divergence_exponent; line_T_scan and the CLI's simulate)
holds at most N + 3 + _CHUNK samples of each stepper buffer however long
it is: 8 bytes each in five buffers for the theta form (0.74 MB at N =
2000) and four for the neutral form; a stored run (simulate_theta,
simulate_neutral) is the stream plus a store of the four columns x, y, y'
and theta in either formulation, so it needs 32 bytes per step plus that.
Either way the samples are those of one unsplit stepper run, bit for bit.

The scales of a line_T_scan are independent runs, so _map_runs runs them
one per usable CPU in worker processes, each with the bits it has alone;
the labels are assigned in the calling process.
"""

from __future__ import annotations

import math
import operator
import os
from array import array
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .chareq import SystemParams, _ValueEq, hopf_ladders
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
    """Integration protocol: parameters, constant initial data, grid, horizon.

    The grid is h = tau/h_div with ``h_div`` an integer in [4, 2**63), numpy's
    index range, of any integer type, stored as an int (a float, even
    2000.0, is rejected), so the delay is exactly h_div steps.
    """

    params: SystemParams
    x0: float
    y0: float
    h_div: int
    t_end: float
    transient: float = 0.0
    formulation: str = "theta_form"

    def __post_init__(self):
        is_int = hasattr(type(self.h_div), "__index__")
        h_div = operator.index(self.h_div) if is_int else 0
        if not 4 <= h_div < 2**63:
            raise ValueError(
                f"h_div must be an integer >= 4 and < 2**63, got {self.h_div!r}")
        object.__setattr__(self, "h_div", h_div)
        if not self.h > 0:
            raise ValueError(f"h = tau/h_div must be positive, got {self.h!r}")
        for name in ("x0", "y0", "t_end"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if not 0 <= self.transient < self.t_end:
            raise ValueError("need 0 <= transient < t_end")
        if self.formulation not in ("theta_form", "neutral_form"):
            raise ValueError(f"unknown formulation {self.formulation!r}")

    @property
    def h(self) -> float:
        """The step, tau/h_div."""
        return self.params.tau / self.h_div

    # the constructor's earlier name, which tests/test_acceptance.py calls
    from_divisor = classmethod(lambda cls, *args, **kwargs: cls(*args, **kwargs))


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

    vals and derivs hold the samples base, base + 1, ... of the run, and
    possibly samples past its end; hist is the constant history value for
    t <= 0.  Past the last grid interval sample n - 1 is returned.
    """
    if t <= 0.0:
        return hist
    i = int(t / h)
    if i >= n - 1:
        return float(vals[n - 1 - base])
    a = i - base
    return _hermite(t - i * h, h, vals[a], vals[a + 1], derivs[a], derivs[a + 1])


def _fill_memory(m: np.ndarray, src: np.ndarray, lo: int, mu: float, nd: int,
                 hist: float, base: int = 0) -> None:
    """m[i] = (1-mu)*src[i] + mu*m[i - nd] for i >= lo, the feedback memory
    of src on the samples base, base + 1, ... of a run.

    Before run sample nd the delayed memory is the history value hist.
    Elementwise in blocks of at most nd samples, so a run split anywhere
    gets the bits of a whole one.
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniform-grid solution samples with cubic Hermite dense output.

    ``params`` is the system the samples solve.  Arrays x, y, dy (= y') and
    theta (the feedback memory) live on t = 0, h, 2h, ... (h = tau/h_div),
    the same four columns in either formulation.  The history before t = 0
    is constant and equal to the first sample: y[0] is the run's y0, bit
    for bit.
    """

    params: SystemParams
    h_div: int
    x: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    theta: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    @property
    def h(self) -> float:
        """The step, tau/h_div: SimConfig.h's bits."""
        return self.params.tau / self.h_div

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self.x)) * self.h

    def y_delayed(self) -> np.ndarray:
        """Grid samples of y(t - tau); exact buffer reads plus history fill."""
        nd = self.h_div
        out = np.empty_like(self.y)
        out[:nd] = self.y[0]
        if len(out) > nd:
            out[nd:] = self.y[: len(out) - nd]
        return out


class _Stepper:
    """Sample buffers of an incremental integrator on the grid t = 0, h, ...

    ``step(n)`` appends n steps to the buffers named in _BUFFERS, in the
    order (x, y, y', theta, ...) that a run reader takes them, and
    continues from where the previous call stopped.  ``j`` is the buffer
    index of the last sample and ``base`` the run step index of buffer
    sample 0, so a blow-up reports the run time whatever was trimmed.

    A run starts from sample 0 of the constant history: x0, y0 and theta
    by the memory recursion, (1-mu)*x0 + mu*x0.  A call grows every buffer
    by n samples at once, then steps in blocks that end on the delay grid
    (run indices that are multiples of N), so a block has at most N steps
    and every delayed node it reads is already computed.  Per block, numpy
    forms the delayed terms of every step, the scalar RK4 loop carries
    (x, y, k1y) and stores x and y (_block), and numpy then writes the
    block's other columns, theta first, each elementwise in the scalar
    operation order.  A blow-up raises inside the loop and leaves the
    stepper spent: the rest of its buffers is unwritten.
    """

    _BUFFERS: Tuple[str, ...] = ()

    def __init__(self, p: SystemParams, x0: float, y0: float, h_div: int):
        self.p = p
        self.h = p.tau / h_div
        self.N = h_div
        self.x0, self.y0 = x0, y0
        self.xs = array("d", [x0])
        self.ys = array("d", [y0])
        self.ths = array("d", [(1.0 - p.mu) * x0 + p.mu * x0])
        self.j = 0
        self.base = 0  # run step index of buffer sample 0; trim advances it

    def step(self, n: int) -> None:
        N, mu, j, j1 = self.N, self.p.mu, self.j, self.j + n
        x, y = self.xs[j], self.ys[j]
        k1y = self._k1y(j, x, y)
        for name in self._BUFFERS:
            getattr(self, name).frombytes(bytes(8 * n))
        while j < j1:
            e = min(j1, j + N - (self.base + j) % N)
            x, y, k1y = self._block(j, e, x, y, k1y)
            cols = [c[: e + 1] for c in self._columns()]
            _fill_memory(cols[3], cols[0], j + 1, mu, N, self.x0, self.base)
            self._after_theta(j + 1, *cols)
            j = e
        self.j = j1

    def _after_theta(self, lo: int, *cols: np.ndarray) -> None:
        """Write the block's columns that follow theta, from buffer sample
        lo on; ``cols`` are the buffers in _BUFFERS order, up to the block's
        end.  The neutral form has none: its y' reads no theta, and its
        _block writes it."""

    def _overflow(self, i: int) -> NonFiniteState:
        """The error of the step to buffer sample i."""
        t = (self.base + i) * self.h
        return NonFiniteState(f"state overflow at t = {t:.6g}", t)

    def _columns(self) -> List[np.ndarray]:
        """Views of the buffers, in _BUFFERS order.  (A list: tuple() of a
        generator shrinks a larger tuple, so each block would leave one more
        tuple on CPython's free list, up to 2000 of them.)"""
        return [np.frombuffer(getattr(self, name), np.float64)
                for name in self._BUFFERS]

    def trim(self) -> None:
        """Replace each buffer by a copy of its trailing N + 3 samples (all,
        if fewer): the delay window, and the two before it that the neutral
        y' stencil and a section's delayed values read."""
        a = max(self.j - self.N - 2, 0)
        for name in self._BUFFERS:
            setattr(self, name, getattr(self, name)[a:])
        self.j -= a
        self.base += a


class _ThetaStepper(_Stepper):
    """Incremental theta-form integrator.

    Steps every theta-form run (see _stream) and the divergence exponent's
    twin (see _Exponent), which starts each leg from a perturbed or rescaled
    delay window (at_window) and is read back through window().
    """

    _BUFFERS = ("xs", "ys", "dys", "ths", "dths")

    def __init__(self, p: SystemParams, x0: float, y0: float, h_div: int):
        super().__init__(p, x0, y0, h_div)
        self.dys = array("d", [self._dy(x0, y0, self.ths[0])])
        self.dths = array("d", [(1.0 - p.mu) * y0 + p.mu * 0.0])

    def _dy(self, x, y, th):
        """Theta-form y' in the scalar operation order, on floats or arrays."""
        p = self.p
        return -p.epsilon * (x * x - 1.0) * y - x + p.epsilon * p.k * th

    def _k1y(self, j: int, x: float, y: float) -> float:
        # recomputed from the state and node a, not read from dys: a window
        # given to at_window need not satisfy the theta recursion, so its
        # last y' need not be this slope
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
        return x, y, k1y

    def _after_theta(self, lo, xv, yv, dy, th, dth) -> None:
        _fill_memory(dth, yv, lo, self.p.mu, self.N, 0.0, self.base)
        dy[lo:] = self._dy(xv[lo:], yv[lo:], th[lo:])

    @classmethod
    def at_window(cls, p: SystemParams, h_div: int,
                  xw, yw, thw, dthw) -> "_ThetaStepper":
        """A stepper at j = N whose buffers hold just the given delay window
        of x, y, theta and theta'; y' is recomputed pointwise.  No step from
        j = N reads x0 or y0; the window's first sample stands in."""
        x, y, th, dth = (np.asarray(v, dtype=np.float64) for v in (xw, yw, thw, dthw))
        st = cls(p, float(x[0]), float(y[0]), h_div)
        st.xs, st.ys, st.ths, st.dths, st.dys = (
            array("d", v.tobytes()) for v in (x, y, th, dth, st._dy(x, y, th)))
        st.j = st.N
        return st

    def window(self) -> Tuple[np.ndarray, ...]:
        """Copies of (x, y, theta, dtheta) on the trailing delay window."""
        a = self.j - self.N
        return tuple(
            np.frombuffer(arr, np.float64)[a : self.j + 1].copy()
            for arr in (self.xs, self.ys, self.ths, self.dths)
        )


class _NeutralStepper(_Stepper):
    """Incremental neutral-form integrator of x, y and y'.

    Steps every neutral-form run (see _stream).  The midpoint's y' stencil
    reads back to two samples before the delayed node (trim keeps them).
    theta is not part of the state; _Stepper.step writes it per block by
    the memory recursion, as for the theta form, so the stream's readers
    get the same column from either formulation.
    """

    _BUFFERS = ("xs", "ys", "dys", "ths")

    def __init__(self, p: SystemParams, x0: float, y0: float, h_div: int):
        super().__init__(p, x0, y0, h_div)
        eps, mu = p.epsilon, p.mu
        self.c_x = c_x = -1.0 + eps * p.k * (1.0 - mu)
        # g(x0, y0, x0, y0)/(1 - mu), in g's term order (see _block): the fixed
        # point of the derivative recursion keeps y' continuous at t = 0 and
        # matches the theta formulation's initial-value problem
        self.dy_h = (
            c_x * x0 + eps * y0 + mu * x0 - eps * mu * y0
            - eps * x0 * x0 * y0 + eps * mu * x0 * x0 * y0
        ) / (1.0 - mu)
        self.dys = array("d", [self.dy_h])

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
        xv, yv, dy = (c[j + 1 : e + 1] for c in self._columns()[:3])
        bA, bB, bC, bD = terms[4:]
        dy[:] = c_x * xv + eps * yv + bA - bB - eps * xv * xv * yv + bC + bD
        return x, y, k1y


def _n_steps(cfg: SimConfig) -> int:
    return int(round(cfg.t_end / cfg.h))


def _transient_steps(cfg: SimConfig) -> int:
    return max(int(math.ceil(cfg.transient / cfg.h)), cfg.h_div)


# steps per chunk of a run: a theta-form stepper then holds 5*8*(N + 3 +
# _CHUNK) bytes, 0.74 MB at N = 2000, and each reader's per-chunk
# temporaries are of the chunk's length
_CHUNK = 1 << 14


def _stream(cfg: SimConfig, readers: Sequence[Callable],
            n_steps: Optional[int] = None) -> None:
    """Integrate n_steps steps of cfg (default: to cfg.t_end) in chunks of
    _CHUNK steps, keeping only the last one.

    The stepper is cfg.formulation's.  After each chunk every reader is
    called as ``reader(base, x, y, dy, theta, dtheta)``: numpy views of the
    samples base, base + 1, ... up to the last step so far.  theta is the
    memory recursion of x from node 0 in either formulation (see _Stepper);
    a neutral run has no dtheta (None).  A reader that needs the run's end
    works it out from its own sample count.  The stepper then keeps copies
    of the trailing N + 3 samples (see _Stepper.trim), which every later
    block starts with, so a view that a reader keeps is a snapshot.  The
    steps are those of one unsplit stepper run, bit for bit, and a blow-up
    raises at the same time with the same message.
    """
    stepper = _NeutralStepper if cfg.formulation == "neutral_form" else _ThetaStepper
    st = stepper(cfg.params, cfg.x0, cfg.y0, cfg.h_div)
    left = _n_steps(cfg) if n_steps is None else n_steps
    while True:
        n = min(_CHUNK, left)
        st.step(n)
        left -= n
        cols = (st._columns() + [None])[:5]  # a neutral run has no dtheta
        for read in readers:
            read(st.base, *cols)
        if left == 0:
            return
        st.trim()


def _stored(cfg: SimConfig) -> Trajectory:
    """cfg's whole run: _stream into the columns x, y, y' and theta.  Each
    chunk rewrites the trailing window it starts with, with the same bits."""
    cols = [np.empty(_n_steps(cfg) + 1) for _ in range(4)]

    def store(base, *run) -> None:
        for dst, src in zip(cols, run):
            dst[base : base + len(src)] = src

    _stream(cfg, [store])
    return Trajectory(cfg.params, cfg.h_div, *cols)


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


# not called in the package; kept while perfbench/tracing.py spans this name
def simulate(cfg: SimConfig) -> Trajectory:
    """Dispatch on cfg.formulation."""
    return _stored(cfg)


@dataclass(frozen=True, eq=False)
class PoincareSection(_ValueEq):
    """Ordered crossings of y(t) = 0 with refined states.

    direction holds +1 for upward (y increasing) and -1 for downward
    crossings.  state_norm_first/last record |(x, y)| at the start and end
    of the analyzed window (used by the equilibrium classification).  Two
    sections are equal when every field is, the arrays compared by value.
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

    Called as a run reader (see _stream); the stream may go on past sample
    n - 1, and what follows it is ignored.  Sign changes on the grid are
    refined by bisection (at most 40 halvings) on the Hermite interpolant;
    a grid node where y is exactly zero counts once, by the sign change
    across it.  A grid interval or node i is examined once sample i + 2 is
    in (its crossing's dense output may read it), or once sample n - 1 is;
    its delayed value reads back to sample i - N - 1, or to y0 before t = 0.
    """

    def __init__(self, h: float, tau: float, n: int, transient: float, y0: float):
        self.h, self.tau, self.n = h, tau, n
        self.y0 = y0
        self.j0 = min(int(math.ceil(transient / h)), n - 1)
        self.next = self.j0  # first interval and node not yet examined
        self.cross: List[Tuple[float, float, float, int]] = []
        self.norm_first = self.norm_last = 0.0

    def __call__(self, base, x, y, dy, theta, dtheta) -> None:
        h, n, j0 = self.h, self.n, self.j0
        last = base + len(y) - 1
        if base <= j0 <= last:
            self.norm_first = math.hypot(x[j0 - base], y[j0 - base])
        if base <= n - 1 <= last:
            self.norm_last = math.hypot(x[n - 1 - base], y[n - 1 - base])
        stop = n - 1 if last >= n - 1 else last - 1
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
                _dense(x, y, None, t_star, h, n, base),  # t_star > 0
                _dense(y, dy, self.y0, t_star - self.tau, h, n, base),
                1 if yb > ya else -1,
            ))
        for i in zeros:
            t_star = i * h
            self.cross.append((
                t_star, float(x[i - base]),
                _dense(y, dy, self.y0, t_star - self.tau, h, n, base),
                1 if y[i + 1 - base] > y[i - 1 - base] else -1,
            ))

    def section(self, direction: str) -> PoincareSection:
        # a grid-node zero never shares its time with an interval's crossing
        self.cross.sort(key=lambda r: r[0])
        arr = np.array(self.cross, dtype=float).reshape(-1, 4)
        sec = PoincareSection(
            arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3].astype(int),
            state_norm_first=self.norm_first, state_norm_last=self.norm_last,
        )
        if direction == "both":
            return sec
        return sec.subset(1 if direction == "up" else -1)


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
    section").  ``transient`` must be finite and >= 0, as in SimConfig.
    """
    _check_direction(direction)
    if not 0 <= transient < math.inf:
        raise ValueError(f"transient must be finite and >= 0, got {transient!r}")
    sec = _Crossings(traj.h, traj.params.tau, len(traj), transient, traj.y[0])
    sec(0, traj.x, traj.y, traj.dy, None, None)
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
    sec = _Crossings(cfg.h, cfg.params.tau, _n_steps(cfg) + 1, cfg.transient, cfg.y0)
    _stream(cfg, (sec, *readers))
    return sec.section(direction)


_NN_BLOCK_ELEMS = 1 << 16  # pairwise distances held at once by _nn_stats
# classify_section's thresholds: the last-50 spread of a periodic orbit, the
# largest polygon gap / diameter of a closed curve, and the section size
_TOL_POINT = 1e-4
_TOL_CURVE = 0.25
_MIN_CROSSINGS = 200


def _nn_stats(pts: np.ndarray) -> np.ndarray:
    """Indices of the two nearest other points of every point, one row each.

    Squared distances are formed for a block of rows at a time, (rows, n)
    with rows*n about _NN_BLOCK_ELEMS, as dx*dx + dy*dy in place: a block
    holds two (rows, n) arrays of 8 bytes per element at once (the squared
    distances, and dy or the argsort's indices), not the whole n^2 matrix.
    The whole-matrix formula's sum of squares over the length-2 coordinate
    axis is that one addition, so each row's argsort is that formula's.
    """
    n = len(pts)
    rows = max(1, _NN_BLOCK_ELEMS // max(n, 1))
    order = np.empty((n, 2), dtype=np.intp)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d2 = pts[lo:hi, 0, None] - pts[:, 0]
        d2 *= d2
        dy = pts[lo:hi, 1, None] - pts[:, 1]
        dy *= dy
        d2 += dy
        del dy  # the argsort's indices take its place
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        order[lo:hi] = np.argsort(d2, axis=1)[:, :2]
    return order


def classify_section(
    sec: PoincareSection, divergence_exponent: Optional[float] = None
) -> str:
    """Label the attractor type from the geometry of the section points.

    Decision ladder, applied to the upward crossings (downward if the
    section was collected downward-only):

    * equilibrium_like -- fewer than 5 crossings with the state norm
      decaying, or a crossing-amplitude envelope (decile maxima of |x|)
      that decreases strictly through the window: a trajectory still
      spiralling into the equilibrium.
    * fixed_point      -- the last 50 crossings sit within ``_TOL_POINT``
      of their mean: a periodic orbit.
    * closed_curve     -- non-convergent points forming one closed loop:
      the largest gap of the angle-ordered polygon is below ``_TOL_CURVE``
      of the diameter (a quasi-periodic torus section).
    * curve_family / scattered -- multi-loop or space-filling sections,
      split by the divergence exponent when one is supplied (positive
      means scattered/chaotic), otherwise by local collinearity of
      nearest-neighbor triples (curve families remain locally 1-D).

    Raises InsufficientData between 5 and ``_MIN_CROSSINGS`` crossings.
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

    if n < _MIN_CROSSINGS:
        raise InsufficientData(f"{n} crossings < {_MIN_CROSSINGS} required")

    last = pts[-50:]
    spread = float(np.max(np.linalg.norm(last - last.mean(axis=0), axis=1)))
    if spread < _TOL_POINT:
        return "fixed_point"

    center = pts.mean(axis=0)
    rel = pts - center
    order = np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))
    poly = pts[order]
    edges = np.linalg.norm(np.diff(np.vstack([poly, poly[:1]]), axis=0), axis=1)
    diam = float(np.ptp(pts, axis=0).max())
    if diam > 0.0 and float(edges.max()) / diam < _TOL_CURVE:
        return "closed_curve"

    if divergence_exponent is not None:
        return "scattered" if divergence_exponent > 1e-3 else "curve_family"

    nbrs = _nn_stats(pts)
    v1 = pts[nbrs[:, 0]] - pts
    v2 = pts[nbrs[:, 1]] - pts
    denom = np.linalg.norm(v1, axis=1) * np.linalg.norm(v2, axis=1)
    denom[denom == 0.0] = np.inf
    collinearity = float(np.mean(np.abs(np.sum(v1 * v2, axis=1)) / denom))
    return "curve_family" if collinearity >= 0.8 else "scattered"


def _leg_steps(cfg: SimConfig, delta0: float, renorm_T: float, n_renorm: int) -> int:
    """Steps per leg of divergence_exponent(cfg, ...), after checking its
    arguments."""
    if not 1e-10 <= delta0 <= 1e-6:
        raise ValueError(f"delta0 must lie in [1e-10, 1e-6], got {delta0}")
    if not (50 <= n_renorm < 2**63 and n_renorm % 1 == 0):
        raise ValueError(
            f"n_renorm must be an integer >= 50 and < 2**63, got {n_renorm}")
    if not cfg.h <= renorm_T < math.inf:
        raise ValueError(f"renorm_T must be finite and >= h, got {renorm_T!r}")
    return max(1, int(round(renorm_T / cfg.h)))


class _Exponent:
    """Run reader that estimates the divergence exponent of the theta-form
    run it reads (see divergence_exponent and _stream).

    At step _transient_steps(cfg) and at each of the ``n_renorm`` leg ends
    after it, ``n_seg`` steps apart, it starts a twin from a window of the
    run (_ThetaStepper.at_window): the run's window offset by delta0 at the
    first, and at each later one, after stepping the last twin one leg and
    logging its rate, the run's window plus the twin's separation rescaled
    to delta0.  The run must reach step ``end``, the last leg end.
    """

    def __init__(self, cfg: SimConfig, delta0: float, renorm_T: float,
                 n_renorm: int):
        self.n_seg = n_seg = _leg_steps(cfg, delta0, renorm_T, n_renorm)
        self.cfg, self.delta0 = cfg, delta0
        n_tr = _transient_steps(cfg)
        self.end = n_tr + int(n_renorm) * n_seg
        self.next = n_tr  # the next leg end, up to self.end
        self.twin: Optional[_ThetaStepper] = None
        self.rates: List[float] = []

    def __call__(self, base, x, y, dy, theta, dtheta) -> None:
        cfg, delta0 = self.cfg, self.delta0
        last = base + len(x) - 1
        while self.next <= min(last, self.end):
            j = self.next
            self.next += self.n_seg
            a = j - cfg.h_div - base
            xr, yr, thr, dthr = (c[a : j + 1 - base] for c in (x, y, theta, dtheta))
            if self.twin is None:
                # uniform x-offset; the memory recursion's fixed point shifts
                # identically
                win = (xr + delta0, yr, thr + delta0, dthr)
            else:
                # in pieces of at most _CHUNK steps, trimmed between them,
                # so the twin's buffers do not grow with the leg
                for left in range(self.n_seg, 0, -_CHUNK):
                    self.twin.trim()
                    self.twin.step(min(_CHUNK, left))
                xc, yc, thc, dthc = self.twin.window()
                sep = max(float(np.max(np.abs(xc - xr))), float(np.max(np.abs(yc - yr))))
                if sep == 0.0:
                    sep = 5e-324  # denormal floor; identical twins mean total collapse
                self.rates.append(math.log(sep / delta0) / (self.n_seg * cfg.h))
                s = delta0 / sep
                win = (xr + s * (xc - xr), yr + s * (yc - yr),
                       thr + s * (thc - thr), dthr + s * (dthc - dthr))
            self.twin = _ThetaStepper.at_window(cfg.params, cfg.h_div, *win)

    def rate(self) -> float:
        """The mean of the leg rates."""
        return float(np.mean(self.rates))


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
    positions the reference before measurement begins.  The reference is
    cfg's run, streamed up to the last leg end with an _Exponent reader;
    line_T_scan attaches that reader to its own run instead, with the same
    result, bit for bit.
    """
    ex = _Exponent(cfg, delta0, renorm_T, n_renorm)
    _stream(replace(cfg, formulation="theta_form"), [ex], ex.end)
    return ex.rate()


@dataclass(frozen=True)
class LineTRow:
    """One scale of line_T_scan; label is None when label_error says why."""

    iota: float
    k: float
    tau: float
    label: Optional[str]
    divergence_exponent: Optional[float]
    label_error: Optional[str] = None


def _scale_run(cfg: SimConfig, delta0: float, renorm_T: float, n_renorm: int,
               compute_exponent: bool) -> Tuple[PoincareSection, Optional[float]]:
    """One scale of line_T_scan: the section of cfg's streamed run and, when
    compute_exponent, its divergence exponent (else None).

    The run is its own exponent's reference (an _Exponent reader).  A run
    that ends before the last leg (t_end < transient + n_renorm*renorm_T)
    streams on to it, and its section still ends at t_end.  Either way the
    results are those of stream_section and divergence_exponent, bit for
    bit, and the reference is stepped once.
    """
    if not compute_exponent:
        return stream_section(cfg, "both"), None
    ex = _Exponent(cfg, delta0, renorm_T, n_renorm)
    sec = _Crossings(cfg.h, cfg.params.tau, _n_steps(cfg) + 1, cfg.transient, cfg.y0)
    _stream(cfg, [sec, ex], max(_n_steps(cfg), ex.end))
    return sec.section("both"), ex.rate()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_runs(fn: Callable, items: Sequence) -> list:
    """[fn(item) for item in items], in one worker process per usable CPU.

    fn must be a module-level function (or a partial of one), and items and
    results picklable.  With one worker -- one item or one usable CPU -- the
    map runs in this process and no pool is made.  Results come in input
    order.  The first exception in input order reaches the caller, with its
    type, message and attributes, once the runs already started end; runs
    not yet started are cancelled.
    """
    workers = min(len(items), _usable_cpus())
    if workers <= 1:
        return list(map(fn, items))
    from concurrent.futures import ProcessPoolExecutor  # not paid at import

    pool = ProcessPoolExecutor(workers)
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(cancel_futures=True)


def line_T_scan(
    iota_list: Iterable[float],
    hh: HopfHopfPoint,
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

    ``hh`` is the double-Hopf point the ray starts from (find_hopf_hopf);
    its instance (hh.epsilon, hh.mu) is the one integrated, and scale iota
    runs at hh.params(0.1*iota, 0.081*iota).
    Every scale, and the exponent's arguments, are checked before any scale
    is integrated.  Each scale is one _scale_run: its run is streamed and
    is its own exponent's reference (a run shorter than the exponent's last
    leg streams on to it), so memory does not grow with t_end and the
    reference is integrated once per scale.
    The scales are independent, so they run one per usable CPU in worker
    processes (_map_runs; in this process when there is one CPU or one
    scale to run), and each gives the bits it gives alone.  Labels are
    assigned here, in scale order.
    """
    todo = []
    for iota in iota_list:
        if not math.isfinite(iota):
            raise ValueError(f"iota must be finite, got {iota!r}")
        if iota == 0.0:
            todo.append((iota, None))
            continue
        params = hh.params(0.1 * iota, 0.081 * iota)
        lad = hopf_ladders(hh.epsilon, hh.mu, params.k)
        if not lad.admissible.item():
            raise HypothesisViolated(f"iota={iota} leaves the admissible gain region")
        cfg = SimConfig(params, x0, y0, h_div, t_end, transient)
        if compute_exponent:
            _leg_steps(cfg, delta0, renorm_T, n_renorm)
        todo.append((iota, cfg))
    run = partial(_scale_run, delta0=delta0, renorm_T=renorm_T,
                  n_renorm=n_renorm, compute_exponent=compute_exponent)
    runs = iter(_map_runs(run, [cfg for _, cfg in todo if cfg is not None]))
    rows: List[LineTRow] = []
    for iota, cfg in todo:
        if cfg is None:
            rows.append(LineTRow(0.0, hh.k0, hh.tau0, "skipped_origin", None))
            continue
        sec, lam = next(runs)
        label = error = None
        try:
            label = classify_section(sec, divergence_exponent=lam)
        except InsufficientData as exc:
            error = f"{type(exc).__name__}: {exc}"
        rows.append(LineTRow(iota, cfg.params.k, cfg.params.tau, label, lam, error))
    return rows
