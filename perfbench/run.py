#!/usr/bin/env python3
"""Benchmark of the doublehopf pipeline: one workload per run.

    python3 perfbench/run.py --workload unfold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run is one Python process, one
client, closed loop: it calls ``doublehopf.cli.main`` and the public API
in-process, one operation at a time, for passes of the workload until
``--seconds`` is used up (at least one pass).  Every operation's output is
checked against its oracle (see workloads.py).

``--trace 0`` prints the end-to-end metrics: the median wall and CPU
seconds of one pass, the peak RSS of the process, and the median set-up
time of a fresh interpreter importing ``doublehopf`` and ``doublehopf.cli``.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced passes (see tracing.py), including the
tracing overhead.  The last line of standard output is the result JSON;
the line before it is the full record (machine, versions, seed, per-op
outcomes), which is also written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_CODE = "import doublehopf, doublehopf.cli"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith(".steps_per_s"):
        return "computed_steps/s"
    if name.endswith(".steps"):
        return "computed_steps"
    if name == "nfde_sim.trajectory.bytes":
        return "computed_bytes"
    if name == "cli.bytes_written":
        return "bytes"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def steal_ticks() -> int:
    """Aggregate steal time from /proc/stat, in clock ticks (0 if absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure_setup() -> float:
    """Median seconds from a fresh interpreter to the package imported.

    One untimed start first fills the bytecode cache, which users pay once.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def clear(work: Path) -> int:
    """Delete the files an operation wrote; return their total size."""
    written = 0
    for path in work.iterdir():
        written += path.stat().st_size
        path.unlink()
    return written


def run_pass(build, work: Path, rng: random.Random) -> dict:
    """One pass: time each operation, then check it against its oracle."""
    wall = cpu = 0.0
    written = 0
    outcomes = []
    for op in build(work, rng):
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # a failed operation, reported below
            error = f"{type(exc).__name__}: {exc}"
        op_wall = time.perf_counter() - t0
        wall += op_wall
        cpu += cpu_seconds() - c0
        try:
            problems = [error] if error else op.check(result)
        except Exception as exc:  # unreadable output counts as a mismatch
            problems = [f"check failed: {type(exc).__name__}: {exc}"]
        written += clear(work)
        outcomes.append({"op": op.name, "wall_s": op_wall, "ok": not problems,
                         "problems": problems})
    return {"wall_s": wall, "cpu_s": cpu, "bytes_written": written, "ops": outcomes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "doublehopf" / "__init__.py").is_file():
        print(f"perfbench: no doublehopf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import doublehopf
    import tracing
    import workloads

    if Path(doublehopf.__file__).resolve().parent != SRC / "doublehopf":
        print(f"perfbench: imported doublehopf from {doublehopf.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]

    steal0 = steal_ticks()
    setup_s = measure_setup() if not args.trace else None
    rng = random.Random(args.seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    plain, traced = [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            plain.append(run_pass(build, work, rng))
            if args.trace:
                with tracer:
                    traced.append(run_pass(build, work, rng))
            cycle = time.perf_counter() - t0
            if time.perf_counter() - start + cycle > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal = steal_ticks() - steal0

    passes = ([dict(p, traced=False) for p in plain]
              + [dict(p, traced=True) for p in traced])
    failures = [o for p in passes for o in p["ops"] if not o["ok"]]
    attempted = sum(len(p["ops"]) for p in passes)
    correct = all(o["op"] in workloads.KNOWN_FAILURES for o in failures)

    if args.trace:
        values = tracing.layer_metrics(tracer.spans, tracer.calls, len(traced))
        values["cli.bytes_written"] = statistics.median(p["bytes_written"] for p in traced)
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "doublehopf": doublehopf.__version__,
            "git_commit": git_commit(),
            "steal_ticks": steal,
            "steal_s": steal / os.sysconf("SC_CLK_TCK"),
        },
        "passes": passes,
        "failures": failures,
        "metrics": metrics,
    }
    if args.trace:
        record["targets"] = tracing.TARGETS
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (results / f"{name}.spans.json").write_text(json.dumps(tracer.spans) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
