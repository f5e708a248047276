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

Every number is written as the bytes of format(v, ".17g").  Scalar
reports and short tables format value by value (_f).  The long tables --
the hopf-curves rows and the sampled trajectory -- go through _fmt17,
which gives the same bytes for a whole array at once for values written
in fixed notation (decimal exponent d in [-4, 16]) and calls _f for the
rest (0, -0, inf, nan, subnormals, |v| < 1e-4, |v| >= 1e17).  Their rows
are assembled _ROW_BLOCK at a time, so a table of any length holds one
block of formatting state (under 1 MB), plus 24 bytes per value of the
columns formatted once for a whole table (k and omega of hopf-curves).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

import numpy as np

from . import hopf_hopf, nfde_sim, normalform
from .chareq import _check_rung, _two_product
from .errors import DoubleHopfError, NonFiniteState, index, real

__all__ = ["main", "build_parser"]

_FMT = ".17g"
# Rows per block of the long tables.  A block holds one 24-byte _fmt17 row
# per value, the row matrix (24 bytes per value plus the fixed text) and its
# text, and _fmt17's temporaries of about 0.2 kB per value of one column:
# 0.75 MB at 2048 rows of five columns (tracemalloc peak).
_ROW_BLOCK = 2048


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


def _csv_rows(fh, header: Sequence[str], rows) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_f(v) if isinstance(v, float) else str(v) for v in row))
        fh.write("\n")


# _fmt17's tables; every entry is exact
_P10 = np.array([float(10**p) for p in range(21)])  # exact up to 10**22
_E8 = np.uint64(10**8)
# the ASCII digits of 0..9999, first digit in the low byte
_QUAD = sum(
    (np.arange(10000, dtype=np.uint32) // 10 ** (3 - i) % 10 + 48) << 8 * i
    for i in range(4)
).astype(np.uint32)
# the sign, "0." and the zeros before the first digit, right-aligned in the
# first 7 bytes of a word, by 5 * (v < 0) + min(d, 0) + 4
_LEAD = np.array([
    int.from_bytes((sign + ("0." + "0" * (-d - 1) if d < 0 else ""))
                   .encode().rjust(7, b"\0"), "little")
    for sign in ("", "-") for d in range(-4, 1)
], dtype=np.uint64)
# by c in 0..16: masks of the first c of the 16 digits after the first, in
# their two words, and a point as byte c of those words (none at c = 16)
_KEEP = [np.array([(1 << 8 * min(max(c - w, 0), 8)) - 1 for c in range(17)],
                  dtype=np.uint64) for w in (0, 8)]
_POINT = [np.array([46 << 8 * (c - w) if w <= c < w + 8 else 0 for c in range(17)],
                   dtype=np.uint64) for w in (0, 8)]


def _fmt17(v: np.ndarray) -> np.ndarray:
    """An (n, 24) uint8 matrix whose row i, NUL bytes dropped, is the text
    of format(v[i], ".17g"); the text is contiguous, padded with NUL.

    For 1e-4 <= |v| < 1e17 the text is fixed notation of the 17-digit
    integer q = round(|v| * 10**(16 - d)), d = floor(log10|v|), rounded
    half to even as Python's correctly rounded conversion does.  The
    product is Dekker's exact hi + lo.  hi is then an even integer above
    2**53, so q = hi + rint(lo).  log10 may miss the decade by one; such
    values are evaluated once more at the right d.  Other values go
    through _f.  A longer array than _ROW_BLOCK is formatted a block at a
    time, so the temporaries, about 0.2 kB per value, are those of a block.
    """
    v = np.asarray(v, dtype=np.float64)
    if len(v) > _ROW_BLOCK:
        return np.concatenate([_fmt17(v[r : r + _ROW_BLOCK])
                               for r in range(0, len(v), _ROW_BLOCK)])
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e17)
    a = np.where(fixed, a, 1.0)
    d = np.maximum(np.minimum(np.floor(np.log10(a)).astype(np.intp), 16), -4)
    hi, lo = _two_product(a, _P10.take(16 - d))
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    miss = low | high
    if miss.any():
        d[miss] += high[miss].astype(np.intp) - low[miss]
        hi[miss], lo[miss] = _two_product(a[miss], _P10.take(16 - d[miss]))
    # q < 10**17: rounding moves |v| by at most 5e-18 of 10**(d+1), and no
    # double lies that close below it (10**(d+1) is a double for d >= -1,
    # and for d < -1 its nearest double is above it)
    q = (hi.astype(np.int64) + np.rint(lo).astype(np.int64)).view(np.uint64)
    # q = lead * 10**16 + the 16 digits after it, two halves of 8 digits
    # and four groups of 4, read as ASCII from _QUAD
    h = q // _E8
    first = h // _E8
    halves = np.empty((2, len(v)), np.uint64)
    np.subtract(h, first * _E8, out=halves[0])
    np.subtract(q, h * _E8, out=halves[1])
    # byte i of a "<" (little-endian) word is text position i on any platform
    quads = np.empty((2, len(v), 2), "<u4")
    top = halves // np.uint64(10**4)
    quads[..., 0] = _QUAD.take(top)
    quads[..., 1] = _QUAD.take(halves - top * np.uint64(10**4))
    words = quads.view("<u8")[..., 0]  # digits 2..9 and 10..17
    # last = how many of the 16 digits there are up to the last nonzero one
    bits = np.frexp((words - np.uint64(0x3030303030303030)).astype(np.float64))[1]
    last = (np.where(bits[1] != 0, 64 + bits[1], bits[0]) + 7) >> 3
    # the first c digits stand before the point, the rest up to last after
    # it, one byte on; below 1 the point is in the lead and c = last
    c = np.where(d >= 0, d, last)
    point = np.where((d >= 0) & (last > d), d, 16)
    out = np.empty((len(v), 4), "<u8")
    out[:, 0] = (_LEAD.take(5 * (v < 0) + np.minimum(d, 0) + 4)
                 | (first + np.uint64(48)) << np.uint64(56))
    carried = np.uint64(0)
    for w, (keep, dot) in enumerate(zip(_KEEP, _POINT)):
        kc = keep.take(c)
        tail = words[w] & ~kc & keep.take(last)
        out[:, 1 + w] = (words[w] & kc) | (tail << np.uint64(8)) | carried | dot.take(point)
        carried = tail >> np.uint64(56)
    out[:, 3] = carried
    text = out.view(np.uint8)[:, 1:25]
    rest = np.flatnonzero(~fixed)
    if len(rest):
        texts = np.array([_f(x) for x in v[rest].tolist()], dtype="S24")
        text[rest] = texts.view(np.uint8).reshape(-1, 24)
    return text


def _row_blocks(parts: Sequence) -> Iterator[str]:
    """The text of rows made of ``parts``, one string per block of
    _ROW_BLOCK rows.

    A part is a str, written in every row, or a column: a float array,
    written by _fmt17 one block at a time, or an _fmt17 matrix, so a column
    that several tables share is formatted once.  Each block is one byte
    matrix, the parts side by side, with its NUL padding dropped.
    """
    n = len(next(p for p in parts if not isinstance(p, str)))
    width = sum(len(p) if isinstance(p, str) else 24 for p in parts)
    for r in range(0, n, _ROW_BLOCK):
        rows = np.empty((min(_ROW_BLOCK, n - r), width), np.uint8)
        at = 0
        for p in parts:
            if isinstance(p, str):
                p = np.frombuffer(p.encode(), np.uint8)
            else:
                p = p[r : r + _ROW_BLOCK]
                if p.ndim == 1:
                    p = _fmt17(p)
            rows[:, at : at + p.shape[-1]] = p
            at += p.shape[-1]
        yield rows.tobytes().translate(None, b"\0").decode("ascii")


def _csv_block_rows(fh, cols: Sequence, prefix: str = "") -> None:
    """Write rows ``prefix`` + the columns' values, as _csv_rows would.

    Each column is a float array or an _fmt17 matrix (see _row_blocks).
    """
    parts = [prefix]
    for c in cols:
        parts += [c, ","]
    parts[-1] = "\n"
    fh.writelines(_row_blocks(parts))


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
    count = np.floor((hi - lo) / step + 1e-9)
    if not math.isfinite(count):
        raise ValueError(
            f"range {text!r} has over 1.8e308 gains, too many to hold in memory")
    n = int(count) + 1
    try:
        return lo + step * np.arange(n)
    except (MemoryError, ValueError) as exc:
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


def cmd_analyze(args) -> int:
    hh = _resolve_point(args)
    res = hopf_hopf.resonance_check(hh.omega1, hh.omega2, args.resonance_tol)
    coeffs = normalform.nf_coefficients(hh, hh.epsilon, hh.mu)
    basis = normalform.eigenbasis(hh, hh.epsilon, hh.mu)
    resid = normalform.duality_residual(basis)
    u = normalform.unfolding_params(coeffs)
    case = normalform.classify_unfolding(u)
    lines = normalform.via_lines(u).lines if case == "VIa" else ()
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
        "lines": [asdict(ln) for ln in lines],
    }
    _write_json(args.out, payload)
    return 0


def _curve_columns(table: hopf_hopf.HopfCurveTable) -> Iterator[tuple]:
    """(sign, j, k, tau, omega) of each curve of ``table.curves()``, with k
    and omega as _fmt17 matrices: k is formatted once per table and omega
    once per branch sign, so only tau is formatted per curve."""
    text = {}
    for sign, j, k, tau, omega in table.curves():
        if "k" not in text:
            text["k"] = _fmt17(k)
        if sign not in text:
            text[sign] = _fmt17(omega)
        yield sign, j, text["k"], tau, text[sign]


# the text of one row of the hopf-curves JSON around its k, tau and omega,
# as _json_text indents the row in the list
_JSON_CURVE_ROW = (
    ',\n    {\n      "branch_sign": %s,\n      "j": %d,\n      "k": ',
    ',\n      "tau": ',
    ',\n      "omega": ',
    "\n    }",
)


def _write_curves_json(fh, table: hopf_hopf.HopfCurveTable) -> None:
    """The bytes _write_json gives {"rows": [row dicts], "skipped_k": [...]},
    with each curve's rows written in blocks (_row_blocks).

    The rows need none of _json_text's finiteness checks: on an admissible
    gain k is finite, omega >= sqrt(5e-324) and so every rung tau finite.
    """
    fh.write('{\n  "rows": [')
    first = True
    head, at_tau, at_omega, tail = _JSON_CURVE_ROW
    for sign, j, k, tau, omega in _curve_columns(table):
        parts = (head % (json.dumps(sign), j), k, at_tau, tau, at_omega, omega, tail)
        for text in _row_blocks(parts):
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
            for sign, j, *cols in _curve_columns(table):
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
    analyze report (simulate's --report), or located from the instance and
    point options."""
    if not getattr(args, "report", None):
        return hopf_hopf.find_hopf_hopf(
            args.epsilon, args.mu, args.j_plus, args.j_minus, *args.bracket
        )
    rep = json.loads(Path(args.report).read_text())
    try:
        fields = {key: _check_rung(rep[key], key) if key.startswith("j_")
                  else real(key, rep[key]) for key in _REPORT_POINT}
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"report {args.report} is not an analyze JSON object with "
            f"{', '.join(_REPORT_POINT)} ({type(exc).__name__}: {exc})"
        ) from exc
    return hopf_hopf.HopfHopfPoint(**fields)


class _TrajectoryRows:
    """Run reader writing (t, x, y, theta, y_delayed) at every stride-th
    sample to ``fh``, as _csv_rows would write them.

    Called with consecutive blocks of a run (see nfde_sim._stream); the
    rows go out through _csv_block_rows, so a dense export holds one block
    of text at a time.
    """

    def __init__(self, fh, cfg: nfde_sim.SimConfig, stride: int):
        self.fh, self.cfg, self.stride = fh, cfg, stride
        self.next = 0  # the next row's sample index
        fh.write("t,x,y,theta,y_delayed\n")

    def __call__(self, base, x, y, dy, theta, dtheta) -> None:
        idx = np.arange(self.next, base + len(x), self.stride)
        if not len(idx):
            return
        self.next = int(idx[-1]) + self.stride
        lo = idx[0] - base
        nd = self.cfg.h_div
        y_delayed = np.full(len(idx), self.cfg.y0)
        past = idx >= nd
        y_delayed[past] = y[idx[past] - nd - base]
        _csv_block_rows(self.fh, (idx * self.cfg.h, x[lo :: self.stride],
                                  y[lo :: self.stride], theta[lo :: self.stride],
                                  y_delayed))


def cmd_simulate(args) -> int:
    index("stride", args.stride, 1, 2**63)  # numpy's index range
    params = _resolve_point(args).params(args.alpha1, args.alpha2)
    cfg = nfde_sim.SimConfig(params, args.x0, args.y0, args.h_div, args.t_end,
                             args.transient, args.formulation)
    with _fresh_output(f"{args.out}.trajectory.csv") as fh:
        rows = _TrajectoryRows(fh, cfg, args.stride)
        # streamed: neither the run nor the CSV text is held
        sec = nfde_sim.stream_section(cfg, args.direction, [rows])
    label_error = None
    try:
        label = nfde_sim.classify_section(sec)
    except DoubleHopfError as exc:
        label = None
        label_error = f"{type(exc).__name__}: {exc}"

    with open(f"{args.out}.section.csv", "w", newline="\n") as fh:
        fh.write("t,x,y_delayed,direction\n")
        # direction as a float column: _fmt17 writes +-1.0 as 1 and -1
        _csv_block_rows(fh, (sec.t, sec.x, sec.y_delayed,
                             sec.direction.astype(float)))
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
        rows = nfde_sim.line_T_scan(
            iotas,
            hh=_resolve_point(args),
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


def _add_run_args(p: argparse.ArgumentParser, t_end: float, transient: float) -> None:
    p.add_argument("--x0", type=float, default=0.1)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--h-div", type=int, default=2000, help="steps per delay")
    p.add_argument("--t-end", type=float, default=t_end)
    p.add_argument("--transient", type=float, default=transient)


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
    _add_run_args(p, t_end=6000.0, transient=3000.0)
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
    _add_run_args(p, t_end=12000.0, transient=8000.0)
    p.add_argument("--delta0", type=float, default=1e-9)
    p.add_argument("--renorm-T", dest="renorm_T", type=float, default=20.0)
    p.add_argument("--n-renorm", type=int, default=50)
    p.add_argument("--no-exponent", action="store_true")
    p.add_argument("--out", default="line_t.csv")
    p.set_defaults(func=cmd_line_t)

    return parser


def _config_path(argv: List[str]) -> Optional[str]:
    """The file of a ``--config FILE`` (or ``--config=FILE``) argument."""
    for at, arg in enumerate(argv):
        if arg.startswith("--config="):
            return arg[len("--config="):]
        if arg == "--config":
            if at + 1 == len(argv):
                raise ValueError("--config needs a file path")
            return argv[at + 1]
    return None


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Install the config file at ``path`` as the parser's defaults.

    Each value stays a string, which argparse converts with the flag's own
    ``type`` as it does any string default; ``choices`` are checked here, a
    ``store_true`` flag takes true or false, and keys a parser lacks are
    ignored.  Explicit flags win, because they are parsed after this.
    """
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


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every main call without --config, built once.

    A --config call installs its file as defaults, so it parses with a
    parser of its own and leaves this one as built.
    """
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    try:
        path = _config_path(argv)
        if path is None:
            parser = _shared_parser()
        else:
            parser = build_parser()
            _apply_config(parser, path)
        args = parser.parse_args(argv)
        return args.func(args)
    except (DoubleHopfError, ValueError, OSError) as exc:
        reply = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NonFiniteState):
            reply["time"] = exc.time
        print(json.dumps(reply))
        return 1 if isinstance(exc, DoubleHopfError) else 2


if __name__ == "__main__":
    sys.exit(main())
