"""Spans around the public functions of doublehopf, installed from outside.

Each wrapper replaces a name where its caller looks it up at call time:
``cli`` calls ``nfde_sim.simulate``, ``line_T_scan`` calls the module
globals ``simulate_theta``, ``poincare``, ``divergence_exponent`` and
``classify_section``, ``hopf_hopf`` calls its imported ``tau_branch``,
``predict_attractor`` calls the globals ``simulate_amplitude`` and
``equilibria``.  A span records its group name, the wrapped function,
start, end, parent span, the exception that left it, the Python warnings
raised while it was the innermost span, and counts taken from the call's
arguments or result.  Spans stay in memory until the run writes them out.

Step counts are computed from call arguments, not counted inside the
steppers, and are labelled so by their unit (``computed_steps``).
"""

from __future__ import annotations

import collections
import functools
import inspect
import math
import time
import warnings
from typing import Callable, Dict, List, Optional

import numpy as np

from doublehopf import amplitude, cli, hopf_hopf, nfde_sim, normalform

# Span groups, in report order.  Every group reports .errors and .warnings.
GROUPS = (
    "cli.main",
    "hopf_hopf.find_hopf_hopf",
    "hopf_hopf.scan_hopf_curves",
    "normalform.duality_residual",
    "normalform.unfold",
    "amplitude.predict_attractor",
    "amplitude.simulate_amplitude",
    "amplitude.equilibria",
    "nfde_sim.theta",
    "nfde_sim.neutral",
    "nfde_sim.poincare",
    "nfde_sim.classify_section",
    "nfde_sim.divergence_exponent",
    "nfde_sim.line_T_scan",
)

# per-layer metric -> the end-to-end metrics and workloads it should move
TARGETS = {
    "hopf_hopf.find_hopf_hopf": "unfold.wall_s (small share; section and "
                                "transition make one call per command)",
    "hopf_hopf.scan_hopf_curves": "unfold.wall_s, unfold.cpu_s",
    "chareq.tau_branch.calls": "unfold.wall_s, unfold.cpu_s",
    "normalform.duality_residual": "unfold.wall_s",
    "normalform.unfold": "unfold.wall_s",
    "amplitude.predict_attractor": "unfold.wall_s",
    "amplitude.simulate_amplitude": "unfold.wall_s, unfold.cpu_s "
                                    "(no other workload runs it)",
    "amplitude.equilibria": "unfold.wall_s",
    "nfde_sim.theta": "section.wall_s, transition.wall_s",
    "nfde_sim.neutral": "section.wall_s only",
    "nfde_sim.trajectory.bytes": "section.peak_rss_mb, transition.peak_rss_mb",
    "nfde_sim.poincare": "section.wall_s, transition.wall_s",
    "nfde_sim.classify_section": "section.wall_s",
    "nfde_sim.divergence_exponent": "transition.wall_s only",
    "nfde_sim.line_T_scan.self_s": "transition.wall_s",
    "cli.main.self_s": "section.wall_s (dense export), unfold.wall_s "
                       "(curve table)",
    "cli.bytes_written": "section.wall_s (dense export), unfold.wall_s "
                         "(curve table)",
    "errors, warnings": "attempted/failed on every workload",
    "trace.overhead_s": "none: traced minus untraced wall_s of one pass",
}


def _sim_group(cfg) -> str:
    return "nfde_sim.theta" if cfg.formulation == "theta_form" else "nfde_sim.neutral"


def _sim_steps(cfg) -> dict:
    return {"steps": int(round(cfg.t_end / cfg.h))}


def _traj_bytes(traj) -> dict:
    return {"trajectory_bytes": sum(
        v.nbytes for v in vars(traj).values() if isinstance(v, np.ndarray))}


def _exponent_steps(cfg, delta0, renorm_T, n_renorm=50) -> dict:
    n_delay = int(round(cfg.params.tau / cfg.h))
    n_seg = max(1, int(round(renorm_T / cfg.h)))
    transient = max(int(math.ceil(cfg.transient / cfg.h)), n_delay)
    return {"steps": transient + 2 * n_renorm * n_seg}


def _amplitude_steps(s0, params, t_end, h, store_stride=1) -> dict:
    return {"steps": int(round(t_end / h))}


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    Spans and counts accumulate over every entry.
    """

    def __init__(self):
        self.spans: List[dict] = []
        self.calls = collections.Counter()
        self._stack: List[int] = []
        self._saved: List[tuple] = []
        self._warnings = None

    def __enter__(self) -> "Tracer":
        span = self._span
        span(cli, "main", "cli.main")
        span(hopf_hopf, "find_hopf_hopf", "hopf_hopf.find_hopf_hopf")
        span(hopf_hopf, "scan_hopf_curves", "hopf_hopf.scan_hopf_curves",
             after=lambda t: {"rows": len(t.rows)})
        self._count(hopf_hopf, "tau_branch", "chareq.tau_branch.calls")
        for name in ("eigenbasis", "duality_residual"):
            span(normalform, name, "normalform.duality_residual")
        for name in ("nf_coefficients", "unfolding_params", "via_lines"):
            span(normalform, name, "normalform.unfold")
        span(amplitude, "predict_attractor", "amplitude.predict_attractor")
        span(amplitude, "simulate_amplitude", "amplitude.simulate_amplitude",
             before=_amplitude_steps)
        span(amplitude, "equilibria", "amplitude.equilibria")
        for name in ("simulate", "simulate_theta", "simulate_neutral"):
            span(nfde_sim, name, _sim_group, before=_sim_steps, after=_traj_bytes)
        span(nfde_sim, "poincare", "nfde_sim.poincare",
             after=lambda sec: {"crossings": len(sec)})
        span(nfde_sim, "classify_section", "nfde_sim.classify_section",
             before=lambda sec, *a, **k: {"points": len(sec)})
        span(nfde_sim, "divergence_exponent", "nfde_sim.divergence_exponent",
             before=_exponent_steps)
        span(nfde_sim, "line_T_scan", "nfde_sim.line_T_scan")
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._on_warning
        return self

    def __exit__(self, *exc) -> None:
        self._warnings.__exit__(*exc)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _on_warning(self, *args, **kwargs) -> None:
        if self._stack:
            self.spans[self._stack[-1]]["warnings"] += 1
        else:
            self.calls["unattributed.warnings"] += 1

    def _count(self, owner, attr: str, key: str) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, counted)

    def _span(self, owner, attr: str, group, before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        fn = getattr(owner, attr)
        sig = inspect.signature(fn)
        func = f"{owner.__name__}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span = {"name": group(*bound.args) if callable(group) else group,
                    "func": func,
                    "parent": self._stack[-1] if self._stack else None,
                    "error": None, "warnings": 0}
            if before is not None:
                span.update(before(*bound.args, **bound.kwargs))
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                span.update(after(result))
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)


def layer_metrics(spans: List[dict], calls: Dict[str, int], n_pass: int) -> Dict[str, float]:
    """Per-pass per-layer figures from the spans of ``n_pass`` traced passes."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]
    agg = {g: collections.Counter() for g in GROUPS}
    for i, s in enumerate(spans):
        a = agg[s["name"]]
        a["s"] += dur[i]
        a["self_s"] += dur[i] - child[i]
        a["calls"] += 1
        a["errors"] += s["error"] is not None
        a["warnings"] += s["warnings"]
        for key in ("steps", "rows", "crossings", "points"):
            a[key] += s.get(key, 0)
    traj = [s["trajectory_bytes"] for s in spans if "trajectory_bytes" in s]

    def rate(g):
        return agg[g]["steps"] / agg[g]["s"] if agg[g]["s"] > 0 else 0.0

    out = {
        "hopf_hopf.find_hopf_hopf.s": agg["hopf_hopf.find_hopf_hopf"]["s"],
        "hopf_hopf.find_hopf_hopf.calls": agg["hopf_hopf.find_hopf_hopf"]["calls"],
        "hopf_hopf.scan_hopf_curves.s": agg["hopf_hopf.scan_hopf_curves"]["s"],
        "hopf_hopf.scan_hopf_curves.rows": agg["hopf_hopf.scan_hopf_curves"]["rows"],
        "chareq.tau_branch.calls": calls["chareq.tau_branch.calls"],
        "normalform.duality_residual.s": agg["normalform.duality_residual"]["s"],
        "normalform.unfold.s": agg["normalform.unfold"]["s"],
        "amplitude.predict_attractor.s": agg["amplitude.predict_attractor"]["s"],
        "amplitude.predict_attractor.calls": agg["amplitude.predict_attractor"]["calls"],
        "amplitude.simulate_amplitude.s": agg["amplitude.simulate_amplitude"]["s"],
        "amplitude.simulate_amplitude.calls": agg["amplitude.simulate_amplitude"]["calls"],
        "amplitude.simulate_amplitude.steps": agg["amplitude.simulate_amplitude"]["steps"],
        "amplitude.simulate_amplitude.steps_per_s": rate("amplitude.simulate_amplitude"),
        "amplitude.equilibria.calls": agg["amplitude.equilibria"]["calls"],
        "nfde_sim.theta.s": agg["nfde_sim.theta"]["s"],
        "nfde_sim.theta.steps": agg["nfde_sim.theta"]["steps"],
        "nfde_sim.theta.steps_per_s": rate("nfde_sim.theta"),
        "nfde_sim.neutral.s": agg["nfde_sim.neutral"]["s"],
        "nfde_sim.neutral.steps": agg["nfde_sim.neutral"]["steps"],
        "nfde_sim.neutral.steps_per_s": rate("nfde_sim.neutral"),
        "nfde_sim.trajectory.bytes": max(traj, default=0),
        "nfde_sim.poincare.s": agg["nfde_sim.poincare"]["s"],
        "nfde_sim.poincare.crossings": agg["nfde_sim.poincare"]["crossings"],
        "nfde_sim.classify_section.s": agg["nfde_sim.classify_section"]["s"],
        "nfde_sim.classify_section.points": agg["nfde_sim.classify_section"]["points"],
        "nfde_sim.divergence_exponent.s": agg["nfde_sim.divergence_exponent"]["s"],
        "nfde_sim.divergence_exponent.steps": agg["nfde_sim.divergence_exponent"]["steps"],
        "nfde_sim.divergence_exponent.steps_per_s": rate("nfde_sim.divergence_exponent"),
        "nfde_sim.line_T_scan.self_s": agg["nfde_sim.line_T_scan"]["self_s"],
        "cli.main.self_s": agg["cli.main"]["self_s"],
    }
    for g in GROUPS:
        out[f"{g}.errors"] = agg[g]["errors"]
        out[f"{g}.warnings"] = agg[g]["warnings"]
    # counts and times summed over the passes become per-pass figures;
    # rates and the largest trajectory are already per call
    keep = ("steps_per_s", "trajectory.bytes")
    return {k: v if k.endswith(keep) else v / n_pass for k, v in out.items()}
