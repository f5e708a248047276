"""The three benchmark workloads and the oracle of every operation.

An operation is one ``doublehopf`` CLI command or one ``predict_attractor``
call.  Each workload builds the operations of one pass in an order drawn
from the workload seed; the runner times each call and then asks the
operation's check for mismatches against its oracle.  The parameter points
are the paper's protocol points (epsilon = 0.1, mu = 0.5), because their
labels are the oracle; the seed only changes the order.

Callables are looked up through module attributes at call time
(``cli.main``, ``amplitude.predict_attractor``, ...), so the traced run can
wrap them from outside.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

from doublehopf import amplitude, cli, hopf_hopf, normalform

EPS, MU = 0.1, 0.5

# Reference values of the (1,1) double-Hopf point, as pinned in
# tests/conftest.py (REF_K0, REF_TAU0, REF_OM1, REF_OM2) with the tolerances
# of acceptance criterion 1.
REF_11 = {"k0": (4.834585253, 1e-6), "tau0": (8.815987316, 1e-6),
          "omega1": (0.7307969965, 1e-7), "omega2": (0.9007354676, 1e-7)}

# (j_plus, j_minus) of the four case-VIa double-Hopf points inside the
# admissible gain interval 2.72 < k < 9.99 of the worked instance.
LADDER_POINTS = ((1, 1), (2, 1), (3, 1), (3, 2))
GAIN_BRACKET = "2.72:9.99"
CURVE_GRID = "2.72:9.99:0.001"
CURVE_ROWS = 8 * 7271  # (j_max + 1) ladders x 2 branches x 7271 gains

# Case-VIa attractor table: region -> (kind, mode).
VIA_TABLE = {1: ("none_stable", None), 2: ("none_stable", None),
             3: ("none_stable", None), 4: ("none_stable", None),
             5: ("torus3", None), 6: ("torus2", None),
             7: ("periodic", 2), 8: ("trivial_eq", None)}

# Paper regions under the pinned protocol (x0 = 0.1, h = tau/2000,
# t_end 6000, transient 3000): name -> (alpha1, alpha2, label).
SECTION_POINTS = {"6a": (-0.1, -0.08, "equilibrium_like"),
                  "6b": (-0.1, 0.1, "fixed_point"),
                  "6c": (0.1, 0.085, "closed_curve"),
                  "6d": (0.2, 0.164, "curve_family")}

TRANSITION_LABELS = {2.0: "curve_family", 2.6: "fixed_point"}

# Failures present at the parent commit that belong to an open ROADMAP item.
# They still count in ``failed``; ``correct`` turns false only on a failure
# outside this list.  D5 at (3,1): the interior eigenvalue's real part is a
# -2.1e-15 rounding residue on the shared L4/L5 ray, so predict_attractor
# returns torus2 (ROADMAP item 4 replaces that probe with a closed form).
KNOWN_FAILURES = {"predict (3,1) D5"}


@dataclass
class Op:
    """One timed call and the oracle check of its result.

    ``check`` receives the call's return value and returns the list of
    mismatches (empty when the output agrees with its oracle).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


def _exit_ok(rc) -> List[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


def _count_rows(path: Path) -> int:
    """Data rows of a CSV (lines after the header), read in chunks."""
    lines = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lines += chunk.count(b"\n")
    return lines - 1


def _near(report: dict, key: str, ref: float, tol: float) -> List[str]:
    got = report.get(key)
    if not isinstance(got, (int, float)) or abs(got - ref) > tol:
        return [f"{key} = {got!r}, want {ref} +- {tol}"]
    return []


def unfold_ops(work: Path, rng: random.Random) -> List[Op]:
    curves = work / "curves.csv"

    def check_curves(rc) -> List[str]:
        bad = _exit_ok(rc)
        if not bad:
            rows = _count_rows(curves)
            if rows != CURVE_ROWS:
                bad.append(f"{rows} curve rows, want {CURVE_ROWS}")
        return bad

    ops = [Op("hopf-curves",
              lambda: cli.main(["hopf-curves", "--k-range", CURVE_GRID,
                                "--j-max", "3", "--out", str(curves)]),
              check_curves)]

    unfoldings: Dict[tuple, normalform.UnfoldingParams] = {}

    def unfolding(jp: int, jm: int) -> normalform.UnfoldingParams:
        # library path of a user: locate, reduce, unfold; once per point
        if (jp, jm) not in unfoldings:
            lo, hi = (float(s) for s in GAIN_BRACKET.split(":"))
            hh = hopf_hopf.find_hopf_hopf(EPS, MU, jp, jm, lo, hi)
            unfoldings[jp, jm] = normalform.unfolding_params(
                normalform.nf_coefficients(hh, EPS, MU))
        return unfoldings[jp, jm]

    for jp, jm in LADDER_POINTS:
        out = work / f"analyze-{jp}-{jm}.json"

        def check_analyze(rc, out=out, point=(jp, jm)) -> List[str]:
            bad = _exit_ok(rc)
            if bad:
                return bad
            rep = json.loads(out.read_text())
            if rep.get("case") != "VIa":
                bad.append(f"case {rep.get('case')!r}, want VIa")
            if not rep.get("duality_residual", math.inf) < 1e-8:
                bad.append(f"duality_residual {rep.get('duality_residual')!r} >= 1e-8")
            if point == (1, 1):
                for key, (ref, tol) in REF_11.items():
                    bad += _near(rep, key, ref, tol)
            return bad

        ops.append(Op(f"analyze ({jp},{jm})",
                      lambda jp=jp, jm=jm, out=out: cli.main(
                          ["analyze", "--bracket", GAIN_BRACKET,
                           "--j-plus", str(jp), "--j-minus", str(jm),
                           "--out", str(out)]),
                      check_analyze))

        for region, want in VIA_TABLE.items():
            def check_pred(pred, want=want) -> List[str]:
                got = (pred.kind, pred.mode)
                return [] if got == want else [f"predicted {got}, want {want}"]

            ops.append(Op(f"predict ({jp},{jm}) D{region}",
                          lambda jp=jp, jm=jm, region=region:
                          amplitude.predict_attractor(region, unfolding(jp, jm)),
                          check_pred))
    rng.shuffle(ops)
    return ops


def _simulate_op(work: Path, name: str, alpha1: float, alpha2: float,
                 label: str, extra: List[str], dense: bool) -> Op:
    prefix = work / name.replace(" ", "_")

    def check(rc) -> List[str]:
        bad = _exit_ok(rc)
        if bad:
            return bad
        rep = json.loads(Path(f"{prefix}.classification.json").read_text())
        if rep.get("label") != label:
            bad.append(f"label {rep.get('label')!r}, want {label!r}")
        if dense:
            steps = int(round(rep["t_end"] / rep["h"]))
            rows = _count_rows(Path(f"{prefix}.trajectory.csv"))
            if rows != steps + 1:
                bad.append(f"{rows} trajectory rows, want steps + 1 = {steps + 1}")
        return bad

    argv = ["simulate", "--alpha1", repr(alpha1), "--alpha2", repr(alpha2),
            *extra, "--out", str(prefix)]
    return Op(name, lambda: cli.main(argv), check)


def section_ops(work: Path, rng: random.Random) -> List[Op]:
    ops = []
    for region in ("6a", "6b", "6d"):
        a1, a2, label = SECTION_POINTS[region]
        ops.append(_simulate_op(work, f"simulate {region}", a1, a2, label,
                                ["--stride", "20"], dense=False))
    a1, a2, label = SECTION_POINTS["6c"]
    ops.append(_simulate_op(work, "simulate 6c dense", a1, a2, label, [], dense=True))
    a1, a2, label = SECTION_POINTS["6b"]
    ops.append(_simulate_op(work, "simulate 6b neutral", a1, a2, label,
                            ["--formulation", "neutral_form", "--stride", "20"],
                            dense=False))
    rng.shuffle(ops)
    return ops


def transition_ops(work: Path, rng: random.Random) -> List[Op]:
    """One line-t command; the seed draws the scan order of the scales."""
    out = work / "line_t.csv"
    iotas = rng.sample(sorted(TRANSITION_LABELS), len(TRANSITION_LABELS))

    def check(rc) -> List[str]:
        bad = _exit_ok(rc)
        if bad:
            return bad
        lines = out.read_text().splitlines()[1:]
        got = {}
        for line in lines:
            iota, _k, _tau, label, lam = line.split(",")
            got[float(iota)] = label
            if not math.isfinite(float(lam)):
                bad.append(f"iota {iota}: divergence exponent {lam!r}")
        if got != TRANSITION_LABELS:
            bad.append(f"labels {got}, want {TRANSITION_LABELS}")
        return bad

    scales = ",".join(repr(i) for i in iotas)
    argv = ["line-t", "--iota", scales, "--out", str(out)]
    return [Op(f"line-t {scales}", lambda: cli.main(argv), check)]


# name -> builder of one pass: (work directory, seeded rng) -> ordered ops
WORKLOADS = {"unfold": unfold_ops, "section": section_ops,
             "transition": transition_ops}
