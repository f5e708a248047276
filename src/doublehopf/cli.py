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
import contextlib
import json
import math
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

import numpy as np

from . import hopf_hopf, nfde_sim, normalform
from .errors import DoubleHopfError, NonFiniteState

__all__ = ["main", "build_parser"]

_FMT = ".17g"
_ROW_BLOCK = 2048  # CSV rows formatted per block (under 1 MB of text and floats)


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
        _csv_rows(fh, header, rows)


def _csv_rows(fh, header: Sequence[str], rows) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_f(v) if isinstance(v, float) else str(v) for v in row))
        fh.write("\n")


class _Text:
    """A float column formatted once, for _blocks to write as text.

    Holds format(x, ".17g") of every value, one newline-joined string per
    block of _ROW_BLOCK values; slicing a block gives the block's texts.
    """

    def __init__(self, v: np.ndarray):
        self.n = len(v)
        self.blocks = [
            "\n".join(["%" + _FMT] * len(b)) % tuple(b.tolist())
            for b in np.split(v, range(_ROW_BLOCK, len(v), _ROW_BLOCK))
        ]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> List[str]:
        # _blocks slices at multiples of _ROW_BLOCK, one block at a time
        return self.blocks[rows.start // _ROW_BLOCK].split("\n")


def _blocks(row: str, cols: Sequence) -> Iterator[str]:
    """The text of ``row`` %-formatted with each row of the columns, one
    string per block of _ROW_BLOCK rows.

    A column is a float array, whose slot in ``row`` is "%.17g" (the digits
    of format(v, ".17g") for every float, inf and nan included), or a
    ``_Text`` of already formatted values, whose slot is "%s".  Each
    block is one %-format, so a long table holds one block of text at a time.
    """
    m = len(cols)
    for r in range(0, len(cols[0]), _ROW_BLOCK):
        block = [c[r : r + _ROW_BLOCK] for c in cols]
        vals = [None] * (m * len(block[0]))
        for i, b in enumerate(block):
            vals[i::m] = b.tolist() if isinstance(b, np.ndarray) else b
        yield (row * len(block[0])) % tuple(vals)


def _csv_block_rows(fh, cols: Sequence, prefix: str = "") -> None:
    """Write rows ``prefix`` + the columns' values, as _csv_rows would.

    Each column is a float array, written "%.17g", or a ``_Text``, written
    "%s": a column that several tables share is formatted once.  Rows go
    out in blocks (``_blocks``).
    """
    row = prefix + ",".join(
        "%" + _FMT if isinstance(c, np.ndarray) else "%s" for c in cols
    ) + "\n"
    fh.writelines(_blocks(row, cols))


@contextlib.contextmanager
def _fresh_output(path: str):
    """Open path for writing before a run; remove it if the block raises,
    so a bad path fails before any step and a failed run leaves no output."""
    with open(path, "w", newline="\n") as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            Path(path).unlink()
            raise


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
    try:
        return lo + step * np.arange(n)
    except MemoryError as exc:
        raise ValueError(
            f"range {text!r} has {n} gains, too many to hold in memory"
        ) from exc


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
    coeffs = normalform.nf_coefficients(hh, hh.epsilon, hh.mu)
    basis = normalform.eigenbasis(hh, hh.epsilon, hh.mu)
    resid = normalform.duality_residual(basis)
    u = normalform.unfolding_params(coeffs)
    case = normalform.classify_unfolding(u)
    lines = normalform.via_lines(u) if case == "VIa" else None
    payload = {
        "epsilon": hh.epsilon,
        "mu": hh.mu,
        "j_plus": hh.j_plus,
        "j_minus": hh.j_minus,
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


def _curve_texts(table: hopf_hopf.HopfCurveTable) -> Iterator[tuple]:
    """(sign, j, k, tau, omega) of each curve of ``table.curves()``, with k
    and omega as ``_Text``: k is formatted once per table and omega once
    per branch sign, so only tau is formatted per curve."""
    text = {}
    for sign, j, k, tau, omega in table.curves():
        if "k" not in text:
            text["k"] = _Text(k)
        if sign not in text:
            text[sign] = _Text(omega)
        yield sign, j, text["k"], tau, text[sign]


# one row of the hopf-curves JSON, as _json_text indents it in the list
_JSON_CURVE_ROW = (
    ',\n    {\n      "branch_sign": %s,\n      "j": %d,\n      "k": %%s,\n'
    '      "tau": %%.17g,\n      "omega": %%s\n    }'
)


def _write_curves_json(fh, table: hopf_hopf.HopfCurveTable) -> None:
    """The bytes _write_json gives {"rows": [row dicts], "skipped_k": [...]},
    with each curve's rows written in blocks through one %-template.

    The rows need none of _json_text's finiteness checks: on an admissible
    gain k is finite, omega >= sqrt(5e-324) and so every rung tau finite.
    """
    fh.write('{\n  "rows": [')
    first = True
    for sign, j, k, tau, omega in _curve_texts(table):
        row = _JSON_CURVE_ROW % (json.dumps(sign), j)
        for text in _blocks(row, (k, tau, omega)):
            # every row starts ",\n"; the first row of the list must not
            fh.write(text[1:] if first else text)
            first = False
    fh.write("]" if first else "\n  ]")
    fh.write(',\n  "skipped_k": ' + _json_text(list(table.skipped_k), 1) + "\n}\n")


def cmd_hopf_curves(args) -> int:
    ks = _parse_range(args.k_range)
    table = hopf_hopf.scan_hopf_curves(args.epsilon, args.mu, ks, args.j_max)
    with _fresh_output(args.out) as fh:
        if args.format == "json":
            _write_curves_json(fh, table)
        else:
            fh.write("branch_sign,j,k,tau,omega\n")
            for sign, j, *cols in _curve_texts(table):
                _csv_block_rows(fh, cols, f"{sign},{j},")
    if table.skipped_k:
        print(
            f"skipped {len(table.skipped_k)} gain values outside the admissible region",
            file=sys.stderr,
        )
    return 0


# the analyze report keys a point is rebuilt from, read in this order
_REPORT_POINT = ("k0", "tau0", "epsilon", "mu", "omega1", "omega2", "j_plus", "j_minus")


def _resolve_point(args) -> hopf_hopf.HopfHopfPoint:
    """The double-Hopf point, instance included: rebuilt from a cached
    analyze report, or located from the instance and point options."""
    if not args.report:
        return hopf_hopf.find_hopf_hopf(
            args.epsilon, args.mu, args.j_plus, args.j_minus, *args.bracket
        )
    rep = json.loads(Path(args.report).read_text())
    try:
        fields = {
            key: (int if key.startswith("j_") else float)(rep[key])
            for key in _REPORT_POINT
        }
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"report {args.report} is not an analyze JSON object with "
            f"{', '.join(_REPORT_POINT)} ({type(exc).__name__}: {exc})"
        ) from exc
    return hopf_hopf.HopfHopfPoint(**fields)


class _TrajectoryRows:
    """Run reader writing (t, x, y, theta, y_delayed) at every stride-th
    sample to ``fh``, as _write_csv would write them.

    Called with consecutive blocks of a run (see nfde_sim._stream); the
    rows go out through _csv_block_rows, so a dense export holds one block
    of text at a time.
    """

    def __init__(self, fh, h: float, n_delay: int, y0: float, stride: int):
        self.fh, self.h, self.n_delay, self.y0, self.stride = fh, h, n_delay, y0, stride
        self.next = 0  # the next row's sample index
        fh.write("t,x,y,theta,y_delayed\n")

    def __call__(self, base, x, y, dy, theta, dtheta) -> None:
        idx = np.arange(self.next, base + len(x), self.stride)
        if not len(idx):
            return
        self.next = int(idx[-1]) + self.stride
        lo = idx[0] - base
        y_delayed = np.full(len(idx), self.y0)
        past = idx >= self.n_delay
        y_delayed[past] = y[idx[past] - self.n_delay - base]
        _csv_block_rows(self.fh, (idx * self.h, x[lo :: self.stride],
                                  y[lo :: self.stride], theta[lo :: self.stride],
                                  y_delayed))


def cmd_simulate(args) -> int:
    if args.stride < 1:
        raise ValueError(f"stride must be a positive integer, got {args.stride}")
    params = _resolve_point(args).params(args.alpha1, args.alpha2)
    cfg = nfde_sim.SimConfig.from_divisor(
        params, args.x0, args.y0, args.h_div, args.t_end, args.transient,
        args.formulation,
    )
    with _fresh_output(f"{args.out}.trajectory.csv") as fh:
        rows = _TrajectoryRows(fh, cfg.h, cfg.n_delay, cfg.y0, args.stride)
        # streamed: neither the run nor the CSV text is held
        sec = nfde_sim.stream_section(cfg, args.direction, [rows])
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
        "epsilon": params.epsilon,
        "mu": params.mu,
        "k": params.k,
        "tau": params.tau,
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
    with _fresh_output(args.out) as fh:
        hh = hopf_hopf.find_hopf_hopf(
            args.epsilon, args.mu, args.j_plus, args.j_minus, *args.bracket
        )
        rows = nfde_sim.line_T_scan(
            iotas,
            hh=hh,
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
            fh.write(_json_text({"rows": table}) + "\n")
        else:
            _csv_rows(
                fh,
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError instead of
    exiting, so main reports them as JSON.  Subparsers inherit the class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument(
        "--report",
        help="reuse the whole double-Hopf point, instance included, from an "
        "analyze JSON; --epsilon, --mu, --j-plus, --j-minus and --bracket are "
        "not read with --report",
    )
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
    """Install a ``--config FILE`` (or ``--config=FILE``) file as defaults.

    Each value stays a string, which argparse converts with the flag's own
    ``type`` as it does any string default; ``choices`` are checked here, a
    ``store_true`` flag takes true or false, and keys a parser lacks are
    ignored.  Explicit flags win, because they are parsed after this.
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
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for p in (parser, *sub.choices.values()):
        for action in p._actions:
            val = raw.get(action.dest)
            if val is None or not action.option_strings:
                continue
            where = f"{p.prog}: config {action.dest}"
            if isinstance(action, argparse._StoreTrueAction):
                if val.lower() not in ("true", "false"):
                    raise ValueError(f"{where}: expected true or false, got {val!r}")
                val = val.lower() == "true"
            elif action.choices is not None and val not in action.choices:
                raise ValueError(f"{where}: invalid choice {val!r}, choose from "
                                 + ", ".join(map(repr, action.choices)))
            p.set_defaults(**{action.dest: val})


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
