"""The traced run: each workload replayed one public call at a time.

Spans (name, start, end, parent, workload) are recorded in memory around every
call the benchmark makes into the package, and written out when the run ends.
The replay runs twice, first without spans and then with them; the ratio of
the two wall times is the tracing overhead.  Layers that a workload's own path
never calls on its own are timed on a small sample of that workload's graphs
(the "probes" below), so that every layer reads on every workload.
"""

from __future__ import annotations

import json
import resource
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

from quasikernel.digraph import Digraph, induced, is_q_kernel
from quasikernel.errors import ResourceLimitError
from quasikernel.generators import enumerate_all_digraphs, gen_random_digraph
from quasikernel.graphio import format_graph, load_graph, parse_graph, save_graph
from quasikernel.greedy import Ordering, cl_algorithm
from quasikernel.rng import SplitMix64
from quasikernel.solver import (
    DEFAULT_LIMITS,
    enumerate_q_kernels,
    is_kernel_perfect,
    q_kernel_at_most,
    smallest_q_kernel,
)
from quasikernel.sweep import (
    CLAIMS,
    SweepReport,
    Violation,
    random_source_free_family,
    report_emit,
    run_claim,
)

from workloads import (
    POOL_JOBS,
    RANDOM_MAX_N,
    RANDOM_SAMPLES,
    SPARSE_ARC_PROB,
    SPARSE_LIMITS,
    SPARSE_SIZES,
    SweepCall,
    run_cli,
    solve_problems,
    sweep_problems,
)

LAYERS = ("rng", "generators", "digraph", "graphio", "solver", "greedy", "sweep")
QK_SIZE_BINS = ("1", "2", "3", "4", "5", "6", "7", "8", "9plus")
SPARSE_TRACE_SOLVES = 300
SPARSE_SWEEP_SAMPLE = 6
PROBE_SAMPLE = 40
CLI_PAIRS = 5
ENUM_PROBE_MAX_N = 10  # enumeration and kernel-perfectness are exponential in n


class Tracer:
    """Spans and counts kept in memory; parents come from the call nesting."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def count(self, name: str, k: int = 1):
        self.counts[name] += k

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tworkload\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{self.workload}\n")


class NullTracer:
    """The same calls with nothing recorded: the untraced side of the replay."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, k=1):
        pass


def _timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return out, perf_counter() - start


def _replay_twice(replay, tr):
    """Untraced, traced, untraced again; overhead against the untraced mean."""
    untraced, wall_before = _timed(replay, NullTracer())
    traced, wall_traced = _timed(replay, tr)
    _, wall_after = _timed(replay, NullTracer())
    return untraced, traced, 2 * wall_traced / (wall_before + wall_after)


def _payload(report: SweepReport) -> dict:
    payload = json.loads(report_emit(report, "json"))
    payload.pop("elapsed_seconds")
    return payload


def _touch_masks(G: Digraph):
    return G.closed1_masks, G.closed2_masks, G.undirected_masks


def _family_draw(rng: SplitMix64, max_n: int):
    """The draws random_source_free_family makes for one graph, in its order."""
    return 2 + rng.next_below(max_n - 1), 0.1 + 0.8 * rng.next_float(), rng.next_u64()


def _random_source(tr, seed: int, count: int):
    rng = SplitMix64(seed)
    for _ in range(count):
        n, prob, sub = tr.call("rng.draw", _family_draw, rng, RANDOM_MAX_N)
        tr.count("rng.draws", 3)
        yield tr.call("generators.random", gen_random_digraph, n, prob, True, sub)


def _enum_source(tr, graphs):
    """Enumerate, then the format/parse round trip a pool worker receives."""
    it = iter(graphs)
    while (G := tr.call("generators.enum", next, it, None)) is not None:
        text = tr.call("graphio.format", format_graph, G)
        tr.count("graphio.bytes", len(text))
        yield tr.call("graphio.parse", parse_graph, text)


def replay_sweep(tr, call: SweepCall, source, limits) -> SweepReport:
    """run_claim for one claim, one public call at a time."""
    claim = CLAIMS[call.claim]
    instances = passes = skips = aborted = 0
    violations = []
    for G in source:
        instances += 1
        H = tr.call("digraph.init", Digraph, G.n, G.arcs)
        tr.call("digraph.masks", _touch_masks, H)
        try:
            if not tr.call("sweep.applies", claim.applies, H, limits):
                skips += 1
                continue
            ok, witness = tr.call("sweep.check", claim.check, H, limits)
        except ResourceLimitError:
            aborted += 1
            continue
        if ok:
            passes += 1
        else:
            text = tr.call("graphio.format", format_graph, H)
            violations.append(Violation(text, witness))
    violations.sort(key=lambda v: (v.graph, v.witness))
    report = SweepReport(
        call.claim, call.family_desc, instances, passes, skips, aborted,
        tuple(violations), 0.0, call.seed_info,
    )
    tr.call("sweep.emit", report_emit, report, "json")
    for key, value in (
        ("instances", instances), ("skips", skips), ("aborted", aborted),
        ("violations", len(violations)),
    ):
        tr.count(f"sweep.{key}", value)
    return report


def _solve_steps(tr, G: Digraph):
    """One sparse-solve operation: the solve and the calls its checks make."""
    Q = tr.call("solver.smallest", smallest_q_kernel, G, 2, SPARSE_LIMITS)
    tr.call("digraph.verify", is_q_kernel, G, Q, 2)
    greedy = tr.call("greedy.cl", cl_algorithm, G, Ordering.natural(G.n))
    size = len(Q)
    tr.count(f"solver.qk_size_hist.{size if size < 9 else '9plus'}")
    tr.count("solver.qk_size_total", size)
    tr.count("greedy.size_total", len(greedy))
    return Q


def pool_check(calls, limits) -> tuple[float, list[str]]:
    """Serial run_claim wall over jobs=2 wall on the same list; reports must match."""
    serial = parallel = 0.0
    problems = []
    for call in calls:
        graphs = list(call.family())
        claim = CLAIMS[call.claim]
        one, t1 = _timed(run_claim, claim, graphs, limits, 1)
        two, t2 = _timed(run_claim, claim, graphs, limits, POOL_JOBS)
        serial += t1
        parallel += t2
        if one != two:
            problems.append(f"{call.claim}: jobs={POOL_JOBS} report differs from jobs=1")
    return serial / parallel, problems


# Probes: layers a workload's path does not call on its own, timed on its graphs.


def probe_exact(tr, sample):
    for G in sample:
        _solve_steps(tr, G)


def probe_enumeration(tr, sample):
    for G in sample:
        H = G if G.n <= ENUM_PROBE_MAX_N else induced(G, range(ENUM_PROBE_MAX_N))[0]
        tr.call("solver.enumerate", enumerate_q_kernels, H, 2, DEFAULT_LIMITS)
        tr.call("solver.kernel_perfect", is_kernel_perfect, H, DEFAULT_LIMITS)


def probe_graphio(tr, sample):
    for G in sample:
        text = tr.call("graphio.format", format_graph, G)
        tr.call("graphio.parse", parse_graph, text)


def probe_enumerator(tr):
    it = iter(enumerate_all_digraphs(3))
    while tr.call("generators.enum", next, it, None) is not None:
        pass


def probe_generator(tr, seed, sample):
    rng = SplitMix64(seed)
    for G in sample:
        sub = tr.call("rng.draw", rng.next_u64)
        tr.count("rng.draws")
        tr.call("generators.random", gen_random_digraph, G.n, 0.5, False, sub)


def trace_sweeps(w, seed: int, tr: Tracer) -> dict:
    problems: list[str] = []
    cli_payloads = []

    def through_library(call):
        return run_claim(
            CLAIMS[call.claim], call.family(), DEFAULT_LIMITS, call.jobs,
            call.family_desc, call.seed_info,
        )

    for call in w.calls:
        rc, report = run_cli(call.argv)
        problems += sweep_problems(call, rc, report)
        if _payload(through_library(call)) != report:
            problems.append(f"{call.claim}: library report differs from the CLI report")
        cli_payloads.append(report)
    # the CLI's own time is small against a sweep's noise: take the median
    # difference over several pairs on the cheapest call
    cheapest = min(w.calls, key=lambda c: c.instances)
    own = [
        _timed(run_cli, cheapest.argv)[1] - _timed(through_library, cheapest)[1]
        for _ in range(CLI_PAIRS)
    ]
    tr.count("cli.calls", len(w.calls) + CLI_PAIRS)

    seeded = w.name == "random-sweep"

    def replay(t):
        return [
            t.call(
                "bench.claim", replay_sweep, t, call,
                _random_source(t, seed, RANDOM_SAMPLES) if seeded
                else _enum_source(t, call.family()),
                DEFAULT_LIMITS,
            )
            for call in w.calls
        ]

    untraced, traced, overhead = _replay_twice(replay, tr)
    for call, a, b, ref in zip(w.calls, untraced, traced, cli_payloads):
        if not (_payload(a) == _payload(b) == ref):
            problems.append(f"{call.claim}: step-by-step replay differs from the CLI report")
    if seeded:
        family = list(random_source_free_family(PROBE_SAMPLE, RANDOM_MAX_N, seed))
        if list(_random_source(NullTracer(), seed, PROBE_SAMPLE)) != family:
            problems.append("replayed draws give another stream than the family")
        sample = family
        pool_calls = w.calls[:1]
    else:
        sample = [G for call in w.calls for G in list(call.family())[::256]]
        pool_calls = w.calls
    speedup, bad = pool_check(pool_calls, DEFAULT_LIMITS)
    problems += bad

    probe_exact(tr, sample)
    probe_enumeration(tr, sample)
    if seeded:
        probe_graphio(tr, sample)
        probe_enumerator(tr)
    else:
        probe_generator(tr, seed, sample)
    return {
        "problems": problems,
        "attempted": sum(c.instances for c in w.calls),
        "cli_own_ms": 1e3 * statistics.median(own),
        "pool_speedup": speedup,
        "overhead_ratio": overhead,
    }


def trace_sparse(w, seed: int, tr: Tracer, out_dir: Path) -> dict:
    problems: list[str] = []

    def step(t, rng, i):
        sub = t.call("rng.draw", rng.next_u64)
        t.count("rng.draws")
        G = t.call(
            "generators.random", gen_random_digraph,
            SPARSE_SIZES[i % len(SPARSE_SIZES)], SPARSE_ARC_PROB, True, sub,
        )
        H = t.call("digraph.init", Digraph, G.n, G.arcs)
        t.call("digraph.masks", _touch_masks, H)
        return H, _solve_steps(t, H)

    def replay(t):
        rng = SplitMix64(seed)
        return [t.call("bench.solve", step, t, rng, i) for i in range(SPARSE_TRACE_SOLVES)]

    untraced, traced, overhead = _replay_twice(replay, tr)
    for i, ((G, Q), (_, Q2)) in enumerate(zip(untraced, traced)):
        if G != w.graphs[i][2]:
            problems.append(f"graph {i}: replayed set-up built another graph")
        problems += [f"graph {i}: {p}" for p in solve_problems(G, Q2, Q)]
        # minimality: no quasi-kernel one vertex smaller exists
        if q_kernel_at_most(G, 2, len(Q) - 1, SPARSE_LIMITS) is not None:
            problems.append(f"graph {i}: {sorted(Q)} is not a smallest quasi-kernel")

    sample = [G for _, _, G in w.graphs[:SPARSE_SWEEP_SAMPLE]]
    call = SweepCall(
        claim="small-qk", argv=(), family=lambda: sample,
        family_desc=f"sparse-solve sample of {len(sample)}",
        seed_info=f"seed={seed}", jobs=1, instances=len(sample),
    )
    report = tr.call("bench.claim", replay_sweep, tr, call, iter(sample), SPARSE_LIMITS)
    if report.aborted or report.violations:
        problems.append("small-qk sweep over the sample did not pass")
    speedup, bad = pool_check([call], SPARSE_LIMITS)
    problems += bad

    own = []
    path = out_dir / "sparse-probe-graph.txt"
    for G in sample:
        save_graph(G, path)
        argv = ("solve", "--graph", str(path), "--smallest", "--max-n", "64")
        (rc, answer), cli_wall = _timed(run_cli, argv)
        Q, lib_wall = _timed(
            lambda: smallest_q_kernel(load_graph(path), 2, SPARSE_LIMITS)
        )
        own.append(cli_wall - lib_wall)
        if rc != 0 or answer is None or answer.get("smallest") != sorted(Q):
            problems.append("qk solve disagrees with smallest_q_kernel")
    path.unlink()
    tr.count("cli.calls", len(sample))

    probe_enumeration(tr, [G for _, _, G in w.graphs[:PROBE_SAMPLE]])
    probe_graphio(tr, [G for _, _, G in w.graphs[:PROBE_SAMPLE]])
    probe_enumerator(tr)
    return {
        "problems": problems,
        "attempted": SPARSE_TRACE_SOLVES,
        "cli_own_ms": 1e3 * statistics.median(own),
        "pool_speedup": speedup,
        "overhead_ratio": overhead,
    }


def layer_metrics(tr: Tracer, run: dict) -> tuple[dict, list[str]]:
    """Per-layer numbers from the spans and counts of one traced run."""
    child = [0] * len(tr.spans)
    for name, start, end, parent in tr.spans:
        if parent >= 0:
            child[parent] += end - start
    total: Counter = Counter()
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(tr.spans):
        total[name] += end - start
        calls[name] += 1
        self_ns[name.split(".")[0]] += end - start - child[i]
    problems = []

    def mean(name, scale):
        if not calls[name]:
            problems.append(f"no spans named {name}")
            return 0.0
        return total[name] / calls[name] / scale

    c = tr.counts
    instances = c["sweep.instances"]
    m = {
        "rng.draw_ns": total["rng.draw"] / max(c["rng.draws"], 1),
        "rng.draws": c["rng.draws"],
        "generators.random_us": mean("generators.random", 1e3),
        "generators.enum_us": mean("generators.enum", 1e3),
        "digraph.init_us": mean("digraph.init", 1e3),
        "digraph.masks_us": mean("digraph.masks", 1e3),
        "graphio.format_us": mean("graphio.format", 1e3),
        "graphio.parse_us": mean("graphio.parse", 1e3),
        "graphio.bytes": c["graphio.bytes"],
        "solver.smallest_ms": mean("solver.smallest", 1e6),
        "solver.enumerate_us": mean("solver.enumerate", 1e3),
        "solver.kernel_perfect_us": mean("solver.kernel_perfect", 1e3),
        **{f"solver.qk_size_hist.{b}": c[f"solver.qk_size_hist.{b}"] for b in QK_SIZE_BINS},
        "greedy.cl_us": mean("greedy.cl", 1e3),
        "greedy.excess_ratio": c["greedy.size_total"] / max(c["solver.qk_size_total"], 1),
        "sweep.applies_us": mean("sweep.applies", 1e3),
        "sweep.check_us": mean("sweep.check", 1e3),
        "sweep.applied_ratio": (instances - c["sweep.skips"]) / max(instances, 1),
        "sweep.emit_ms": mean("sweep.emit", 1e6),
        "sweep.instances": instances,
        "sweep.skips": c["sweep.skips"],
        "sweep.violations": c["sweep.violations"],
        "sweep.aborted": c["sweep.aborted"],
        "sweep.pool_speedup": run["pool_speedup"],
        "sweep.worker_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "cli.own_ms": run["cli_own_ms"],
        "cli.calls": c["cli.calls"],
        **{f"{layer}.self_ms": self_ns[layer] / 1e6 for layer in LAYERS},
        **{
            f"{layer}.calls": sum(k for name, k in calls.items() if name.startswith(layer + "."))
            for layer in LAYERS
        },
        "trace.overhead_ratio": run["overhead_ratio"],
        "trace.spans": len(tr.spans),
    }
    return m, problems
