"""Benchmark for the quasikernel package: one workload per invocation.

    python3 perfbench/run.py --workload random-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
With --trace 0 the workload's timed loop runs and the end-to-end metrics are
reported; with --trace 1 the workload is replayed one public call at a time
and the per-layer metrics are reported.  Every output is checked.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  Provenance, check problems and the metrics go to .bench_out/ as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # set-ups per run for setup_s, each in a fresh process
SETUP_PROBES = 2  # reference timings before and after each set-up

END_TO_END_UNITS = {
    "graphs_per_s": "1/s",
    "solves_per_s": "1/s",
    "solve_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _unit(name: str) -> str:
    suffix = name.rsplit("_", 1)[-1]
    return {
        "ns": "ns", "us": "us", "ms": "ms", "mb": "MB", "bytes": "bytes",
        "ratio": "ratio", "speedup": "ratio",
    }.get(suffix, "count")


def _import_package():
    """Put ./src first on the path; refuse to run against any other copy."""
    if not (SRC / "quasikernel" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'quasikernel'}; "
                 "run from the root of a quasikernel checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import quasikernel

    if Path(quasikernel.__file__).resolve().parent != (SRC / "quasikernel").resolve():
        sys.exit(f"error: imported quasikernel from {quasikernel.__file__}")
    return quasikernel


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _setup(workload: str, seed: int):
    """Import the package and build the workload's inputs: what setup_s times."""
    start = time.perf_counter()
    _import_package()
    import workloads

    w = workloads.build(workload, seed)
    return w, time.perf_counter() - start


def _setup_in_fresh_process(workload: str, seed: int) -> tuple[float, list[float]]:
    """The set-up time and the reference times around it."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup_s, *reference = map(float, proc.stdout.split())
    return setup_s, reference


def _run_untraced(w, args, setup_first: float) -> dict:
    probe = speed.SpeedProbe()
    result = w.measure(args.seconds, probe)
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    # the fresh set-up processes start only after the children's peak is read
    setups = [
        _setup_in_fresh_process(args.workload, args.seed)
        for _ in range(SETUP_SAMPLES)
    ]
    result["problems"] += w.self_check(args.seed, result)
    metrics = dict(result["metrics"], peak_rss_mb=rss_kb / 1024)
    # set-ups are corrected to the reference machine speed (see speed.py)
    metrics["setup_s"] = statistics.median(
        t * speed.correction(*reference) for t, reference in setups
    )
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "metrics": {
            k: {"value": metrics[k], "unit": END_TO_END_UNITS[k]}
            for k in END_TO_END_UNITS
        },
        "detail": {
            "slowdown": probe.slowdown(),
            "uncorrected": dict(
                result["uncorrected"],
                setup_s=statistics.median(t for t, _ in setups),
            ),
            "reference_samples_s": probe.samples,
            "setup_samples_s": [t for t, _ in setups],
            "setup_in_run_s": setup_first,
            **{k: v for k, v in result.items() if k == "round_walls_s"},
        },
    }


def _run_traced(w, args) -> dict:
    import tracing

    tr = tracing.Tracer(w.name)
    if w.name == "sparse-solve":
        run = tracing.trace_sparse(w, args.seed, tr, OUT)
    else:
        run = tracing.trace_sweeps(w, args.seed, tr)
    metrics, problems = tracing.layer_metrics(tr, run)
    tr.write(OUT / f"{w.name}-seed{args.seed}.spans.tsv")
    problems = run["problems"] + problems
    return {
        "attempted": run["attempted"],
        "failed": run["attempted"] if problems else 0,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
        "detail": {},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("random-sweep", "sparse-solve", "exhaustive-pool"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up in this process, print it with the reference "
                             "times around it and exit")
    args = parser.parse_args()

    if args.setup_only:
        # one set-up between reference timings taken in this same process
        probe = speed.SpeedProbe()
        for _ in range(SETUP_PROBES):
            probe.sample()
        _, setup_s = _setup(args.workload, args.seed)
        for _ in range(SETUP_PROBES):
            probe.sample()
        print(*map(repr, [setup_s, *probe.samples]))
        return 0
    w, setup_s = _setup(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    out = _run_traced(w, args) if args.trace else _run_untraced(w, args, setup_s)

    import quasikernel

    record = {
        "provenance": {
            "git_commit": _git_commit(),
            "package_version": quasikernel.__version__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "workload": args.workload,
            "params": w.params,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        **out,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": record["provenance"], "detail": out["detail"]}))
    for problem in out["problems"]:
        print(f"problem: {problem}")
    for name, m in out["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not out["problems"] and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
