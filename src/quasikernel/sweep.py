"""Claim registry and sweep harness for checking statements over graph families."""

from __future__ import annotations

import csv
import io
import json
import os
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

from .construct import find_king
from .digraph import (
    Digraph,
    _large_qk,
    _reach,
    has_directed_odd_cycle,
    is_kernel,
    is_tournament,
    sources,
)
from .errors import ResourceLimitError, VerificationError
from .generators import Family, random_source_free_family  # noqa: F401 (re-export)
from .graphio import format_graph
from .solver import (
    DEFAULT_LIMITS,
    SolverLimits,
    _q_kernels,
    _twice_kls_bound,
    enumerate_q_kernels,
    has_kernel,
    is_kernel_perfect,
    kls_bound,
    smallest_q_kernel,
)


@dataclass(frozen=True)
class Violation:
    """A falsifying instance: the graph in text format plus what went wrong."""

    graph: str
    witness: str


@dataclass(frozen=True)
class SweepReport:
    """Aggregated outcome of running one claim over one family.

    instances = passes + skips + len(violations) + aborted always holds.
    elapsed_seconds is excluded from equality so reruns compare stable.
    """

    claim: str
    family: str
    instances: int
    passes: int
    skips: int
    aborted: int
    violations: tuple[Violation, ...]
    elapsed_seconds: float = field(compare=False)
    seed_info: str | None = None


@dataclass(frozen=True)
class Claim:
    """A checkable statement: a hypothesis filter and a per-graph check."""

    id: str
    statement: str
    applies: Callable[[Digraph, SolverLimits], bool]
    check: Callable[[Digraph, SolverLimits], tuple[bool, str | None]]


def _applies_always(G, limits):
    return True


def _applies_source_free(G, limits):
    return not G.source_mask


def _half_n(G, shown=False):
    """Twice the bound n/2, or the bound as a witness writes it."""
    return f"{G.n}/2" if shown else G.n


def _kls(G, shown=False):
    """Twice kls_bound(G) as an int, or kls_bound(G) itself."""
    return kls_bound(G) if shown else _twice_kls_bound(G)


def _check_size(q, bound, G, limits):
    """Smallest q-kernel within a bound: bound(G) is twice it, bound(G, True) its text."""
    Q = smallest_q_kernel(G, q, limits)
    if 2 * len(Q) <= bound(G):
        return True, None
    name = "quasi-kernel" if q == 2 else f"{q}-kernel"
    return False, f"smallest {name} {sorted(Q)} has size {len(Q)}, above {bound(G, True)}"


def _applies_tournament(G, limits):
    return G.n > 0 and is_tournament(G)


def _applies_moon(G, limits):
    return _applies_tournament(G, limits) and not G.source_mask


def _check_at_least_three(G, limits):
    if len(_q_kernels(G, 2, limits, 3)) == 3:
        return True, None
    qks = enumerate_q_kernels(G, 2, limits)
    listed = [sorted(q) for q in qks]
    return False, f"only {len(qks)} quasi-kernels: {listed}"


def _applies_no_kernel(G, limits):
    return not has_kernel(G, limits)


def _check_gutin(G, limits):
    unique = len(_q_kernels(G, 2, limits, 2)) == 1
    # no arc joins two sources, so they form a kernel exactly when they cover V
    src_is_kernel = _reach(G.out_masks, G.source_mask, 1) == G.full_mask
    if unique == src_is_kernel:
        return True, None
    return False, (
        f"{len(enumerate_q_kernels(G, 2, limits))} quasi-kernels while "
        f"sources-form-a-kernel is {src_is_kernel}"
    )


def _applies_exactly_two(G, limits):
    return len(_q_kernels(G, 2, limits, 3)) == 2


def _check_croitoru(G, limits):
    q1, q2 = enumerate_q_kernels(G, 2, limits)
    if not (is_kernel(G, q1) or is_kernel(G, q2)):
        return False, (
            f"neither {sorted(q1)} nor {sorted(q2)} is a kernel"
        )
    if (q1 & q2) != sources(G):
        return False, (
            f"intersection {sorted(q1 & q2)} differs from sources "
            f"{sorted(sources(G))}"
        )
    return True, None


def _applies_no_odd_cycle(G, limits):
    return not has_directed_odd_cycle(G)


def _check_kernel_perfect(G, limits):
    ok, witness = is_kernel_perfect(G, limits)
    if ok:
        return True, None
    return False, f"induced subgraph on {sorted(witness)} has no kernel"


def _check_spiro(G, limits):
    """Smallest quasi-kernel within n - sqrt(n).

    The registered bound fails at n = 2 on the anti-parallel pair, whose
    smallest quasi-kernel has size 1 > 2 - sqrt(2).
    """
    k = len(smallest_q_kernel(G, 2, limits))
    # k <= n - sqrt(n) holds exactly when (n - k)^2 >= n
    if (G.n - k) ** 2 >= G.n:
        return True, None
    return False, (
        f"smallest quasi-kernel has size {k}, above {G.n} - sqrt({G.n})"
    )


def _check_large_exists(G, limits):
    def large(mask):
        # a lone quasi-kernel {v} is large when v's closed out-neighbourhood is
        if mask.bit_count() == 1:
            return 2 * (G.out_masks[mask.bit_length() - 1].bit_count() + 1) >= G.n
        return bool(_large_qk(G, mask))

    if _q_kernels(G, 2, limits, 1, large):
        return True, None
    return False, "no quasi-kernel reaches half the vertices within one step"


def _check_max_degree_king(G, limits):
    try:
        find_king(G)
    except VerificationError as exc:
        return False, str(exc)
    return True, None


CLAIMS: dict[str, Claim] = {
    c.id: c
    for c in (
        Claim(
            "small-qk",
            "every source-free digraph has a quasi-kernel on at most half "
            "the vertices",
            _applies_source_free,
            partial(_check_size, 2, _half_n),
        ),
        Claim(
            "kls",
            "every digraph has a quasi-kernel of size at most "
            "(n + #sources - |out-neighbourhood of sources|)/2",
            _applies_always,
            partial(_check_size, 2, _kls),
        ),
        Claim(
            "moon",
            "every source-free tournament has at least three quasi-kernels",
            _applies_moon,
            _check_at_least_three,
        ),
        Claim(
            "jacob-meyniel",
            "every kernel-free digraph has at least three quasi-kernels",
            _applies_no_kernel,
            _check_at_least_three,
        ),
        Claim(
            "gutin-unique",
            "a digraph has exactly one quasi-kernel iff its sources form "
            "a kernel",
            _applies_always,
            _check_gutin,
        ),
        Claim(
            "croitoru-two",
            "with exactly two quasi-kernels, one is a kernel and they "
            "intersect in exactly the sources",
            _applies_exactly_two,
            _check_croitoru,
        ),
        Claim(
            "richardson",
            "a digraph without directed odd cycles is kernel-perfect",
            _applies_no_odd_cycle,
            _check_kernel_perfect,
        ),
        Claim(
            "q3-half",
            "every source-free digraph has a 3-kernel on at most half "
            "the vertices",
            _applies_source_free,
            partial(_check_size, 3, _half_n),
        ),
        Claim(
            "spiro-sqrt",
            "every source-free digraph has a quasi-kernel of size at most "
            "n - sqrt(n)",
            _applies_source_free,
            _check_spiro,
        ),
        Claim(
            "large-qk-exists",
            "every source-free digraph has a quasi-kernel reaching at "
            "least half the vertices within one step",
            _applies_source_free,
            _check_large_exists,
        ),
        Claim(
            "max-degree-king",
            "the max out-degree vertex of a tournament is a singleton "
            "quasi-kernel",
            _applies_tournament,
            _check_max_degree_king,
        ),
    )
}


def _run_graphs(claim, limits, graphs):
    instances = passes = skips = aborted = 0
    violations: list[Violation] = []
    for G in graphs:
        instances += 1
        try:
            if not claim.applies(G, limits):
                skips += 1
                continue
            ok, witness = claim.check(G, limits)
        except ResourceLimitError:
            aborted += 1
            continue
        if ok:
            passes += 1
        else:
            violations.append(Violation(format_graph(G), witness))
    return instances, passes, skips, aborted, violations


def _same(G):
    return G


def run_claim(
    claim: Claim,
    family,
    limits: SolverLimits | None = None,
    jobs: int = 1,
    family_desc: str = "",
    seed_info: str | None = None,
) -> SweepReport:
    """Run one claim over a generators.Family, or any iterable of graphs.

    The report names the family by family_desc, or else by the Family's desc.

    With jobs > 1 each worker process gets a slice of the family's items (a
    one-pass stream is listed first), its make and the claim, and builds its
    own graphs, so the claim's applies and check must be picklable (module
    level).  The pool starts every worker at once, so it gets no more than
    there are slices or CPUs.  Violations are sorted by graph text then
    witness, so sharding never changes the report.
    """
    limits = limits or DEFAULT_LIMITS
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if not isinstance(family, Family):
        family = Family(family_desc, _same, family)
    run = partial(_run_graphs, claim, limits)
    start = time.perf_counter()
    if jobs == 1:
        parts = [run(family)]
    else:
        items = family.items
        if not isinstance(items, Sequence):
            items = list(items)
        step = max(1, -(-len(items) // (jobs * 4)))
        starts = range(0, len(items), step)
        chunks = [Family(family.desc, family.make, items[i : i + step]) for i in starts]
        workers = max(1, min(jobs, len(chunks), os.cpu_count() or 1))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, chunks))
    counts = [sum(p[i] for p in parts) for i in range(4)]
    violations = sorted(
        (v for p in parts for v in p[4]), key=lambda v: (v.graph, v.witness)
    )
    elapsed = time.perf_counter() - start
    return SweepReport(
        claim.id, family_desc or family.desc, *counts, tuple(violations), elapsed,
        seed_info,
    )


def report_emit(report: SweepReport, fmt: str) -> str:
    """Serialise a report as json, csv (one row per violation), or text."""
    if fmt == "json":
        return json.dumps(asdict(report), indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["claim", "family", "graph", "witness"])
        for v in report.violations:
            writer.writerow([report.claim, report.family, v.graph, v.witness])
        return buf.getvalue()
    if fmt == "text":
        lines = [
            f"claim: {report.claim}",
            f"family: {report.family}",
            f"instances: {report.instances}  passes: {report.passes}  "
            f"skips: {report.skips}  aborted: {report.aborted}",
            f"violations: {len(report.violations)}",
        ]
        if report.seed_info:
            lines.append(f"seed: {report.seed_info}")
        for i, v in enumerate(report.violations, start=1):
            lines.append(f"--- violation {i}: {v.witness}")
            lines.append(v.graph.rstrip("\n"))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")

