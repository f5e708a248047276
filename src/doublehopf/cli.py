"""Command-line interface.

Subcommands expose the full pipeline with file outputs:

    doublehopf hopf-curves  --k-range 3:6:0.01 --out curves.csv
    doublehopf analyze      --out report.json
    doublehopf simulate     --alpha1 -0.1 --alpha2 0.1 --out run
    doublehopf line-t       --iota 2.0,2.5,2.6 --out linet.csv

Defaults bake in the worked example (epsilon = 0.1, mu = 0.5, ladder
indices 1/1, gain bracket 4.5:5.2); everything is overridable.  Scalar
reports are JSON, sampled data CSV (header row, comma separators, LF line
endings, '.' decimal separator), numbers with 17 significant digits.
Errors exit nonzero after printing a machine-readable JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import hopf_hopf, nfde_sim, normalform
from .chareq import SystemParams
from .errors import DoubleHopfError, NonFiniteState

__all__ = ["main", "build_parser"]

_FMT = ".17g"
_ROW_BLOCK = 16384  # trajectory CSV rows formatted per block (~6 MB of text and floats)


def _f(v: float) -> str:
    return format(float(v), _FMT)


def _json_text(obj, indent: int = 0) -> str:
    """Serialize with floats at 17 significant digits (round-trip exact)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        items = ",\n".join(f"{inner}{_json_text(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError(f"non-finite value in report: {v}")
        return _f(v)
    return json.dumps(obj)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(_json_text(payload))
        fh.write("\n")


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_f(v) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _parse_range(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(s) for s in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"range must be lo:hi:step, got {text!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"range bounds and step must be finite, got {text!r}")
    if step <= 0:
        raise ValueError("range step must be positive")
    if hi < lo:
        return np.empty(0)
    n = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


def _parse_bracket(text: str) -> tuple:
    try:
        lo, hi = (float(s) for s in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"bracket must be lo:hi, got {text!r}") from exc
    return lo, hi


def _load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment line."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _analyze_payload(args) -> dict:
    hh = hopf_hopf.find_hopf_hopf(
        args.epsilon, args.mu, args.j_plus, args.j_minus, *args.bracket
    )
    res = hopf_hopf.resonance_check(hh.omega1, hh.omega2, args.resonance_tol)
    coeffs = normalform.nf_coefficients(hh, args.epsilon, args.mu)
    basis = normalform.eigenbasis(hh, args.epsilon, args.mu)
    resid = normalform.duality_residual(basis)
    u = normalform.unfolding_params(coeffs)
    case = normalform.classify_unfolding(u)
    lines = normalform.via_lines(u) if case == "VIa" else None
    payload = {
        "epsilon": args.epsilon,
        "mu": args.mu,
        "j_plus": args.j_plus,
        "j_minus": args.j_minus,
        "k0": hh.k0,
        "tau0": hh.tau0,
        "omega1": hh.omega1,
        "omega2": hh.omega2,
        "ratio": res["ratio"],
        "nonresonant": res["nonresonant"],
        "nearest_ratio": list(res["nearest_ratio"]),
        "coefficients": {
            name: {"re": getattr(coeffs, name).real, "im": getattr(coeffs, name).imag}
            for name in ("a11", "a12", "c11", "c12", "a21", "a22", "c21", "c22")
        },
        "eps1": u.eps1,
        "eps2": u.eps2,
        "b0": u.b0,
        "c0": u.c0,
        "d0": u.d0,
        "det": u.det,
        "c1_map": list(u.c1_map),
        "c2_map": list(u.c2_map),
        "case": case,
        "duality_residual": resid,
        "lines": [
            {
                "name": ln.name,
                "slope": ln.slope,
                "half_plane": ln.half_plane,
                "angle": ln.angle,
                "tangent_correction_omitted": ln.tangent_correction_omitted,
            }
            for ln in lines.lines
        ]
        if lines is not None
        else [],
    }
    return payload


def cmd_analyze(args) -> int:
    payload = _analyze_payload(args)
    _write_json(args.out, payload)
    return 0


def cmd_hopf_curves(args) -> int:
    ks = _parse_range(args.k_range)
    table = hopf_hopf.scan_hopf_curves(args.epsilon, args.mu, ks, args.j_max)
    if args.format == "json":
        _write_json(
            args.out,
            {
                "rows": [
                    {"branch_sign": r.branch_sign, "j": r.j, "k": r.k,
                     "tau": r.tau, "omega": r.omega}
                    for r in table.rows
                ],
                "skipped_k": list(table.skipped_k),
            },
        )
    else:
        _write_csv(
            args.out,
            ["branch_sign", "j", "k", "tau", "omega"],
            ((r.branch_sign, r.j, r.k, r.tau, r.omega) for r in table.rows),
        )
    if table.skipped_k:
        print(
            f"skipped {len(table.skipped_k)} gain values outside the admissible region",
            file=sys.stderr,
        )
    return 0


def _resolve_point(args) -> tuple:
    """(k, tau) from a cached analyze report or a fresh computation."""
    if args.report:
        rep = json.loads(Path(args.report).read_text())
        k0, tau0 = float(rep["k0"]), float(rep["tau0"])
    else:
        hh = hopf_hopf.find_hopf_hopf(
            args.epsilon, args.mu, args.j_plus, args.j_minus, *args.bracket
        )
        k0, tau0 = hh.k0, hh.tau0
    return k0 + args.alpha1, tau0 + args.alpha2


class _TrajectoryRows:
    """Run reader writing (t, x, y, theta, y_delayed) at every stride-th
    sample to ``fh``, as _write_csv would write them.

    Called with consecutive blocks of a run (see nfde_sim._stream).  Each
    block of _ROW_BLOCK rows is formatted by one %-format ("%.17g" gives the
    digits of format(v, ".17g") for every float, inf and nan included), so
    a dense export holds one block of text at a time.
    """

    def __init__(self, fh, h: float, n_delay: int, y0: float, stride: int):
        self.fh, self.h, self.n_delay, self.y0, self.stride = fh, h, n_delay, y0, stride
        self.next = 0  # the next row's sample index
        fh.write("t,x,y,theta,y_delayed\n")

    def __call__(self, base, x, y, dy, theta, dtheta, final) -> None:
        idx = np.arange(self.next, base + len(x), self.stride)
        if not len(idx):
            return
        self.next = int(idx[-1]) + self.stride
        lo = idx[0] - base
        y_delayed = np.full(len(idx), self.y0)
        past = idx >= self.n_delay
        y_delayed[past] = y[idx[past] - self.n_delay - base]
        cols = (idx * self.h, x[lo :: self.stride], y[lo :: self.stride],
                theta[lo :: self.stride], y_delayed)
        row = ",".join(["%" + _FMT] * len(cols)) + "\n"
        for r in range(0, len(idx), _ROW_BLOCK):
            block = np.column_stack([c[r : r + _ROW_BLOCK] for c in cols])
            self.fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def cmd_simulate(args) -> int:
    if args.stride < 1:
        raise ValueError(f"stride must be a positive integer, got {args.stride}")
    k, tau = _resolve_point(args)
    params = SystemParams(args.epsilon, args.mu, k, tau)
    cfg = nfde_sim.SimConfig.from_divisor(
        params, args.x0, args.y0, args.h_div, args.t_end, args.transient,
        args.formulation,
    )
    path = f"{args.out}.trajectory.csv"
    with open(path, "w", newline="\n") as fh:
        try:
            rows = _TrajectoryRows(fh, cfg.h, cfg.n_delay, cfg.y0, args.stride)
            # streamed: neither the run nor the CSV text is held
            sec = nfde_sim.stream_section(cfg, args.direction, [rows])
        except BaseException:
            fh.close()
            Path(path).unlink()  # no partial export of a failed run
            raise
    label_error = None
    try:
        label = nfde_sim.classify_section(sec)
    except DoubleHopfError as exc:
        label = None
        label_error = f"{type(exc).__name__}: {exc}"

    _write_csv(
        f"{args.out}.section.csv",
        ["t", "x", "y_delayed", "direction"],
        zip(sec.t.tolist(), sec.x.tolist(), sec.y_delayed.tolist(),
            sec.direction.tolist()),
    )
    payload = {
        "k": k,
        "tau": tau,
        "alpha1": args.alpha1,
        "alpha2": args.alpha2,
        "formulation": args.formulation,
        "h": cfg.h,
        "t_end": args.t_end,
        "transient": args.transient,
        "n_crossings": len(sec),
        "label": label,
    }
    if label_error:
        payload["label_error"] = label_error
    _write_json(f"{args.out}.classification.json", payload)
    return 0


def cmd_line_t(args) -> int:
    iotas = [float(s) for s in args.iota.split(",") if s.strip() != ""]
    hh = hopf_hopf.find_hopf_hopf(
        args.epsilon, args.mu, args.j_plus, args.j_minus, *args.bracket
    )
    rows = nfde_sim.line_T_scan(
        iotas,
        hh=hh,
        epsilon=args.epsilon,
        mu=args.mu,
        x0=args.x0,
        y0=args.y0,
        h_div=args.h_div,
        t_end=args.t_end,
        transient=args.transient,
        delta0=args.delta0,
        renorm_T=args.renorm_T,
        n_renorm=args.n_renorm,
        compute_exponent=not args.no_exponent,
    )
    rows = sorted(rows, key=lambda r: r.iota)
    if args.format == "json":
        table = []
        for r in rows:
            row = {"iota": r.iota, "k": r.k, "tau": r.tau, "label": r.label,
                   "divergence_exponent": r.divergence_exponent}
            if r.label_error:
                row["label_error"] = r.label_error
            table.append(row)
        _write_json(args.out, {"rows": table})
    else:
        _write_csv(
            args.out,
            ["iota", "k", "tau", "label", "divergence_exponent"],
            (
                (r.iota, r.k, r.tau, "" if r.label is None else r.label,
                 "" if r.divergence_exponent is None else _f(r.divergence_exponent))
                for r in rows
            ),
        )
    return 0


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=0.1, help="damping scale")
    p.add_argument("--mu", type=float, default=0.5, help="memory weight")


def _add_point_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--j-plus", type=int, default=1, help="fast-branch ladder index")
    p.add_argument("--j-minus", type=int, default=1, help="slow-branch ladder index")
    p.add_argument(
        "--bracket", type=_parse_bracket, default=(4.5, 5.2),
        help="gain bracket lo:hi for the curve intersection",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublehopf",
        description="Double-Hopf analysis of the van der Pol oscillator "
        "with extended delay feedback",
    )
    parser.add_argument("--config", help="flat key=value defaults file")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="table output format for hopf-curves and line-t (scalar "
        "reports are always JSON, sampled trajectories always CSV)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hopf-curves", help="tabulate the Hopf curves in the k-tau plane")
    _add_instance_args(p)
    p.add_argument("--k-range", default="3:6:0.01", help="gain grid lo:hi:step")
    p.add_argument("--j-max", type=int, default=3, help="highest ladder index")
    p.add_argument("--out", default="hopf_curves.csv")
    p.set_defaults(func=cmd_hopf_curves)

    p = sub.add_parser("analyze", help="locate the double-Hopf point and unfold it")
    _add_instance_args(p)
    _add_point_args(p)
    p.add_argument("--resonance-tol", type=float, default=1e-3)
    p.add_argument("--out", default="analysis.json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="integrate at an offset from the critical point")
    _add_instance_args(p)
    _add_point_args(p)
    p.add_argument("--report", help="reuse k0/tau0 from an analyze JSON")
    p.add_argument("--alpha1", type=float, required=True, help="gain offset k - k0")
    p.add_argument("--alpha2", type=float, required=True, help="delay offset tau - tau0")
    p.add_argument("--x0", type=float, default=0.1)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--h-div", type=int, default=2000, help="steps per delay")
    p.add_argument("--t-end", type=float, default=6000.0)
    p.add_argument("--transient", type=float, default=3000.0)
    p.add_argument(
        "--formulation", choices=("theta_form", "neutral_form"), default="theta_form"
    )
    p.add_argument("--direction", choices=("up", "down", "both"), default="both")
    p.add_argument("--stride", type=int, default=1, help="trajectory CSV decimation")
    p.add_argument("--out", default="run", help="output file prefix")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("line-t", help="classify attractors along the transition ray")
    _add_instance_args(p)
    _add_point_args(p)
    p.add_argument("--iota", default="2.0,2.4,2.5,2.6", help="comma-separated scales")
    p.add_argument("--x0", type=float, default=0.1)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--h-div", type=int, default=2000)
    p.add_argument("--t-end", type=float, default=12000.0)
    p.add_argument("--transient", type=float, default=8000.0)
    p.add_argument("--delta0", type=float, default=1e-9)
    p.add_argument("--renorm-T", dest="renorm_T", type=float, default=20.0)
    p.add_argument("--n-renorm", type=int, default=50)
    p.add_argument("--no-exponent", action="store_true")
    p.add_argument("--out", default="line_t.csv")
    p.set_defaults(func=cmd_line_t)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: List[str]) -> None:
    """Install the values of a ``--config`` file as subcommand defaults.

    The file is named by ``--config FILE`` or ``--config=FILE``.  Explicit
    flags still win, because they are parsed after this.
    """
    for at, arg in enumerate(argv):
        if arg.startswith("--config="):
            path = arg[len("--config="):]
            break
        if arg == "--config":
            if at + 1 == len(argv):
                raise ValueError("--config needs a file path")
            path = argv[at + 1]
            break
    else:
        return
    raw = _load_config(path)
    typed = {}
    for key, val in raw.items():
        if key in ("bracket",):
            typed[key] = _parse_bracket(val)
        elif val.lower() in ("true", "false"):
            typed[key] = val.lower() == "true"
        else:
            try:
                typed[key] = int(val)
            except ValueError:
                try:
                    typed[key] = float(val)
                except ValueError:
                    typed[key] = val
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for sp in sub.choices.values():
        known = {a.dest for a in sp._actions}
        sp.set_defaults(**{k: v for k, v in typed.items() if k in known})


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()

    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except NonFiniteState as exc:
        print(
            json.dumps(
                {"error": "NonFiniteState", "message": str(exc), "time": exc.time}
            )
        )
        return 1
    except DoubleHopfError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
