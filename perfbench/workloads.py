"""The benchmark's workloads: set-up, the timed loop and the output checks.

The package is driven from outside only: the sweeps call `quasikernel.cli.main`
in-process exactly as `qk sweep` would, and `sparse-solve` calls the solver's
public functions.  Nothing inside the package is patched.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Callable

import speed
from quasikernel import cli
from quasikernel.digraph import is_q_kernel
from quasikernel.generators import (
    enumerate_all_digraphs,
    enumerate_all_tournaments,
    gen_random_digraph,
)
from quasikernel.graphio import format_graph
from quasikernel.greedy import Ordering, cl_algorithm
from quasikernel.rng import SplitMix64
from quasikernel.solver import DEFAULT_LIMITS, SolverLimits, smallest_q_kernel
from quasikernel.sweep import random_source_free_family

# random-sweep: the criterion-7 claims over the seeded random family.  Each
# call regenerates the stream, as the acceptance test does.
RANDOM_CLAIMS = ("small-qk", "kls", "large-qk-exists")
RANDOM_MAX_N = 10
RANDOM_SAMPLES = 4000

# sparse-solve: sparse source-free graphs, where the exact search is deep.
# n = 40/48 would reach harder cases, but one n = 48 solve takes 0.04 s to
# over 3 s, so a 30 s run would see about 60 distinct graphs and the seed
# alone would move solves_per_s by over 25%.  At n = 28/32 (2 to 60 ms per
# solve) a 30 s run makes about 3,300 solves over 2,400 distinct graphs.
SPARSE_SIZES = (28, 32)
SPARSE_ARC_PROB = 0.05
SPARSE_LIST = 2400
SPARSE_LIMITS = SolverLimits(max_n=64)
PROBE_EVERY_S = 0.3  # time between two reference-loop timings

POOL_JOBS = 2


@dataclass(frozen=True)
class SweepCall:
    """One `qk sweep` invocation and the library family it walks."""

    claim: str
    argv: tuple[str, ...]
    family: Callable[[], object]
    family_desc: str
    seed_info: str | None
    jobs: int
    instances: int
    expected: tuple[int, int, int, int, int] | None = None


def report_counts(report: dict) -> tuple[int, int, int, int, int]:
    """(instances, passes, skips, aborted, violations) of a report payload."""
    return (
        report["instances"],
        report["passes"],
        report["skips"],
        report["aborted"],
        len(report["violations"]),
    )


def run_cli(argv) -> tuple[int, dict | None]:
    """Run `qk` in-process; return the exit code and the JSON report, if any."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    try:
        report = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        return rc, None
    report.pop("elapsed_seconds", None)
    return rc, report


def sweep_problems(call: SweepCall, rc: int, report: dict | None) -> list[str]:
    """Output checks on one sweep report; empty when it is correct."""
    if report is None:
        return [f"{call.claim}: exit {rc} without a JSON report"]
    instances, passes, skips, aborted, violations = report_counts(report)
    problems = []
    if instances != passes + skips + aborted + violations:
        problems.append(f"{call.claim}: instance accounting does not balance")
    if aborted:
        problems.append(f"{call.claim}: {aborted} instances aborted")
    # these claims are known to hold on these families, so a violation means
    # a solver returned a wrong answer
    if violations:
        problems.append(f"{call.claim}: {violations} violations")
    if instances != call.instances:
        problems.append(f"{call.claim}: {instances} instances, not {call.instances}")
    if call.expected is not None and report_counts(report) != call.expected:
        problems.append(
            f"{call.claim}: counts {report_counts(report)}, expected {call.expected}"
        )
    if rc != 0:
        problems.append(f"{call.claim}: exit code {rc}")
    return problems


class SweepWorkload:
    """A round of `qk sweep` calls, repeated until the run time is spent."""

    def __init__(self, name, calls: tuple[SweepCall, ...], params: dict, stream=None):
        self.name = name
        self.calls = calls
        self.params = params
        # stream(seed) -> a short prefix of the graphs the calls walk
        self.stream = stream

    def measure(self, seconds: float, probe) -> dict:
        """Timed loop; `probe` times the reference loop after every call, and
        each call's time is corrected by the reference times around it."""
        rounds = []
        first: list | None = None
        attempted = failed = 0
        problems: list[str] = []
        start = time.perf_counter()
        before = probe.sample()
        while True:
            outcomes = []
            wall = raw = 0.0
            for call in self.calls:
                t0 = time.perf_counter()
                outcomes.append(self._call(call))
                dt = time.perf_counter() - t0
                after = probe.sample()
                raw += dt
                wall += dt * speed.correction(before, after)
                before = after
            if first is None:
                first = [report for _, report in outcomes]
            solves = 0
            for call, (rc, report), ref in zip(self.calls, outcomes, first):
                attempted += call.instances
                bad = sweep_problems(call, rc, report)
                if report != ref:
                    bad.append(f"{call.claim}: report differs from the first round")
                if bad:
                    # a call that fails any check counts all its instances
                    failed += call.instances
                    problems.extend(bad)
                else:
                    solves += report["passes"]
            rounds.append((wall, raw, sum(c.instances for c in self.calls), solves))
            if time.perf_counter() - start >= seconds:
                break

        def rates(k):
            # rounds repeat identical work, so each round is one sample;
            # k picks the corrected (0) or the raw (1) round time
            return {
                "graphs_per_s": statistics.median(r[2] / r[k] for r in rounds),
                "solves_per_s": statistics.median(r[3] / r[k] for r in rounds),
                "solve_p50_ms": statistics.median(
                    1e3 * r[k] / max(r[3], 1) for r in rounds
                ),
            }

        return {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "metrics": rates(0),
            "uncorrected": rates(1),
            "round_walls_s": [r[1] for r in rounds],
        }

    @staticmethod
    def _call(call: SweepCall) -> tuple[int, dict | None]:
        try:
            return run_cli(call.argv)
        except Exception:
            traceback.print_exc()
            return -1, None

    def self_check(self, seed: int, result: dict) -> list[str]:
        """Another seed must give another input stream (seeded workloads only).

        That the same seed gives identical reports is checked in measure(),
        where every round repeats the same calls.
        """
        if self.stream is None or self.stream(seed) != self.stream(seed + 1):
            return []
        return [f"seeds {seed} and {seed + 1} give the same input stream"]


def random_sweep(seed: int) -> SweepWorkload:
    calls = tuple(
        SweepCall(
            claim=claim,
            argv=(
                "sweep", "--claim", claim, "--family", "random",
                "--n", str(RANDOM_MAX_N), "--samples", str(RANDOM_SAMPLES),
                "--seed", str(seed), "--jobs", "1",
            ),
            family=lambda: random_source_free_family(
                RANDOM_SAMPLES, RANDOM_MAX_N, seed
            ),
            family_desc=f"random(samples={RANDOM_SAMPLES}, max_n={RANDOM_MAX_N})",
            seed_info=f"seed={seed}",
            jobs=1,
            instances=RANDOM_SAMPLES,
        )
        for claim in RANDOM_CLAIMS
    )
    return SweepWorkload(
        "random-sweep",
        calls,
        {
            "claims": list(RANDOM_CLAIMS),
            "family": "random",
            "max_n": RANDOM_MAX_N,
            "samples": RANDOM_SAMPLES,
            "jobs": 1,
            "limits": asdict(DEFAULT_LIMITS),
        },
        lambda s: [
            format_graph(G) for G in random_source_free_family(5, RANDOM_MAX_N, s)
        ],
    )


def exhaustive_pool(seed: int) -> SweepWorkload:
    specs = (
        ("gutin-unique", "all-tournaments", 6, enumerate_all_tournaments,
         (32768, 32768, 0, 0, 0)),
        ("croitoru-two", "all-digraphs", 4, enumerate_all_digraphs,
         (4096, 936, 3160, 0, 0)),
        ("richardson", "all-digraphs", 4, enumerate_all_digraphs,
         (4096, 1699, 2397, 0, 0)),
    )
    calls = tuple(
        SweepCall(
            claim=claim,
            argv=(
                "sweep", "--claim", claim, "--family", family, "--n", str(n),
                "--jobs", str(POOL_JOBS),
            ),
            family=lambda enum=enum, n=n: enum(n),
            family_desc=f"{family}(n={n})",
            seed_info=None,
            jobs=POOL_JOBS,
            instances=expected[0],
            expected=expected,
        )
        for claim, family, n, enum, expected in specs
    )
    return SweepWorkload(
        "exhaustive-pool",
        calls,
        {
            "calls": [
                {"claim": c, "family": f, "n": n, "expected": list(e)}
                for c, f, n, _, e in specs
            ],
            "jobs": POOL_JOBS,
            "limits": asdict(DEFAULT_LIMITS),
        },
    )


def sparse_graphs(seed: int, count: int) -> list[tuple[int, int, object]]:
    """(n, sub-seed, graph) triples; n alternates over SPARSE_SIZES."""
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        n = SPARSE_SIZES[i % len(SPARSE_SIZES)]
        sub = rng.next_u64()
        out.append((n, sub, gen_random_digraph(n, SPARSE_ARC_PROB, True, sub)))
    return out


def solve_problems(G, Q, previous) -> list[str]:
    """Output checks on one smallest-quasi-kernel answer."""
    problems = []
    if not is_q_kernel(G, Q, 2):
        problems.append(f"{sorted(Q)} is not a quasi-kernel")
    greedy = cl_algorithm(G, Ordering.natural(G.n))
    if len(Q) > len(greedy):
        problems.append(f"{sorted(Q)} is larger than the greedy {sorted(greedy)}")
    if previous is not None and Q != previous:
        problems.append(f"{sorted(Q)} differs from the earlier answer {sorted(previous)}")
    return problems


class SparseSolve:
    """smallest_q_kernel over a fixed list, cycled until the run time is spent."""

    name = "sparse-solve"

    def __init__(self, seed: int):
        self.seed = seed
        self.graphs = sparse_graphs(seed, SPARSE_LIST)
        self.params = {
            "sizes": list(SPARSE_SIZES),
            "arc_prob": SPARSE_ARC_PROB,
            "source_free": True,
            "list": SPARSE_LIST,
            "q": 2,
            "jobs": 1,
            "limits": asdict(SPARSE_LIMITS),
        }

    def measure(self, seconds: float, probe) -> dict:
        """Timed loop in blocks of PROBE_EVERY_S; `probe` times the reference
        loop between blocks, and each block's times are corrected by the
        reference times around it."""
        answers: dict[int, frozenset] = {}
        latencies, raw_latencies = [], []
        failed = 0
        problems: list[str] = []
        wall = raw_wall = 0.0
        block: list[float] = []
        before = probe.sample()
        start = block_start = time.perf_counter()
        while True:
            i = len(raw_latencies) + len(block)
            G = self.graphs[i % len(self.graphs)][2]
            t0 = time.perf_counter()
            try:
                Q = smallest_q_kernel(G, 2, SPARSE_LIMITS)
                block.append(time.perf_counter() - t0)
                bad = solve_problems(G, Q, answers.get(i % len(self.graphs)))
                answers.setdefault(i % len(self.graphs), Q)
            except Exception:
                block.append(time.perf_counter() - t0)
                bad = [f"graph {i}: " + traceback.format_exc()]
            if bad:
                failed += 1
                problems.extend(bad)
            now = time.perf_counter()
            done = now - start >= seconds
            if done or now - block_start >= PROBE_EVERY_S:
                after = probe.sample()
                f = speed.correction(before, after)
                # solves with their output checks, reference loop left out
                raw_wall += now - block_start
                wall += (now - block_start) * f
                raw_latencies += block
                latencies += [t * f for t in block]
                before, block = after, []
                block_start = time.perf_counter()
            if done:
                break
        n = len(latencies)
        return {
            "attempted": n,
            "failed": failed,
            "problems": problems,
            "metrics": {
                "graphs_per_s": n / wall,
                "solves_per_s": n / wall,
                "solve_p50_ms": 1e3 * statistics.median(latencies),
            },
            "uncorrected": {
                "graphs_per_s": n / raw_wall,
                "solves_per_s": n / raw_wall,
                "solve_p50_ms": 1e3 * statistics.median(raw_latencies),
            },
            "answers": answers,
        }

    def self_check(self, seed: int, result: dict) -> list[str]:
        """The same seed rebuilds the same graphs and answers; another seed does not."""
        answers = result["answers"]
        problems = []
        again = sparse_graphs(seed, 3)
        for i, (_, _, G) in enumerate(again):
            if G != self.graphs[i][2]:
                problems.append(f"seed {seed} rebuilt graph {i} differently")
            elif i in answers and smallest_q_kernel(G, 2, SPARSE_LIMITS) != answers[i]:
                problems.append(f"graph {i} solved differently on a fresh copy")
        other = sparse_graphs(seed + 1, 3)
        if [G for _, _, G in other] == [G for _, _, G in again]:
            problems.append(f"seeds {seed} and {seed + 1} give the same graphs")
        return problems


def build(name: str, seed: int):
    """Set up the named workload; this is what `setup_s` times."""
    if name == "random-sweep":
        return random_sweep(seed)
    if name == "sparse-solve":
        return SparseSolve(seed)
    if name == "exhaustive-pool":
        return exhaustive_pool(seed)
    raise ValueError(f"unknown workload {name!r}")
