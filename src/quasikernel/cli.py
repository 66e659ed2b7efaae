"""Command line interface: generate, run, solve, construct, sweep, check."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .construct import (
    HairyPartition,
    hairy_small_qk,
    shrink_good_qk,
    small_qk_from_kernel_complement,
    unicyclic_small_qk,
)
from .digraph import is_q_kernel
from .errors import QkError, ResourceLimitError, VerificationError
from .generators import (
    enumerate_all_digraphs,
    enumerate_all_tournaments,
    gen_cycle,
    gen_random_digraph,
    gen_random_hairy,
    gen_random_tournament,
    gen_random_unicyclic,
    gen_three_hub,
    gen_tight_hairy,
)
from .graphio import _MAX_VERTICES, _int, format_graph, load_graph
from .greedy import Ordering, cl_algorithm, modified_cl
from .solver import (
    DEFAULT_LIMITS,
    SolverLimits,
    enumerate_kernels,
    enumerate_q_kernels,
    has_two_disjoint_qks,
    is_kernel_perfect,
    smallest_q_kernel,
)
from .sweep import (
    CLAIMS,
    _MODES,
    random_source_free_family,
    report_emit,
    run_claim,
    verify_set,
)


def _ints(text):
    """argparse type of a comma or space separated list of integers."""
    tokens = text.replace(",", " ").split()
    ints = [_int(t) for t in tokens]
    if None in ints:
        bad = tokens[ints.index(None)]
        raise argparse.ArgumentTypeError(f"{bad!r} is not an integer")
    return ints


def _req(args, name, choice):
    """The value of flag name, which the chosen family or method requires."""
    value = getattr(args, name)
    if value is None:
        flag = "--" + name.replace("_", "-")
        raise ValueError(f"{flag} is required for {choice} {getattr(args, choice)}")
    return value


def _partition_payload(part: HairyPartition) -> dict:
    return {
        "tournament_part": sorted(part.tournament_part),
        "hair_part": sorted(part.hair_part),
        "owner": {str(h): part.owner[h] for h in sorted(part.owner)},
    }


# family -> generator, the flags it takes in call order, and the sidecar key
# of each value it returns after the graph
_GEN = {
    "cycle": (gen_cycle, ("length",), ()),
    "three-hub": (gen_three_hub, ("k",), ("labels",)),
    "tight-hairy": (gen_tight_hairy, ("n", "strongly_connected"), ("partition", "labels")),
    "random": (gen_random_digraph, ("n", "arc_prob", "source_free", "seed"), ()),
    "random-tournament": (gen_random_tournament, ("n", "seed"), ()),
    "random-hairy": (gen_random_hairy, ("m", "max_hairs", "seed"), ("partition",)),
    "random-unicyclic": (gen_random_unicyclic, ("n", "seed"), ("cycle",)),
}

# sidecar key -> its JSON form, in the order the keys are written
_SIDECAR = {
    "labels": lambda labels: {str(v): s for v, s in labels.items()},
    "partition": _partition_payload,
    "cycle": list,
}


def _write(args, text, summary, meta=None) -> None:
    """Write text (and meta as FILE.meta.json) to -o and say so, else to stdout."""
    if not args.output:
        sys.stdout.write(text)
        return
    Path(args.output).write_text(text, encoding="utf-8")
    if meta:
        Path(args.output + ".meta.json").write_text(
            json.dumps(meta, indent=2) + "\n", encoding="utf-8"
        )
    print(f"wrote {args.output}{summary}")


def _cmd_gen(args) -> int:
    generate, flags, keys = _GEN[args.family]
    made = generate(*[_req(args, f, "family") for f in flags])
    G, *rest = made if keys else (made,)
    extras = dict(zip(keys, rest))
    meta = {k: form(extras[k]) for k, form in _SIDECAR.items() if k in extras}
    _write(args, format_graph(G), f" ({G.n} vertices, {G.m} arcs)", meta)
    return 0


def _cmd_cl(args) -> int:
    G = load_graph(args.graph)
    if args.order is not None:
        ordering = Ordering(tuple(args.order))
    elif args.seed is not None:
        ordering = Ordering.shuffled(G.n, args.seed)
    else:
        ordering = Ordering.natural(G.n)
    if args.modified:
        result = modified_cl(G, ordering)
    else:
        result = cl_algorithm(G, ordering)
    print("quasi-kernel:", " ".join(map(str, sorted(result))))
    print("size:", len(result))
    print("verified:", "yes" if is_q_kernel(G, result, 2) else "no")
    return 0


def _maybe(f, x):
    return None if x is None else f(x)


def _lists(sets) -> list:
    return [sorted(s) for s in sets]


def _smallest(G, q, limits) -> dict:
    Q = smallest_q_kernel(G, q, limits)
    return {"smallest": _maybe(sorted, Q), "size": _maybe(len, Q)}


def _enumerate(G, q, limits) -> dict:
    qks = enumerate_q_kernels(G, q, limits)
    return {"q_kernels": _lists(qks), "count": len(qks)}


def _kernels(G, q, limits) -> dict:
    ks = enumerate_kernels(G, limits)
    return {"kernels": _lists(ks), "count": len(ks)}


def _kernel_perfect(G, q, limits) -> dict:
    ok, witness = is_kernel_perfect(G, limits)
    return {"kernel_perfect": ok, "witness": _maybe(sorted, witness)}


def _disjoint_pair(G, q, limits) -> dict:
    return {"pair": _maybe(_lists, has_two_disjoint_qks(G, q, limits))}


# action flag -> its JSON payload on (graph, reach radius, limits)
_SOLVE = {
    "smallest": _smallest,
    "enumerate": _enumerate,
    "kernels": _kernels,
    "kernel-perfect": _kernel_perfect,
    "disjoint-pair": _disjoint_pair,
}


def _cmd_solve(args) -> int:
    if args.q < 1:
        raise ValueError("q must be at least 1")
    G = load_graph(args.graph)
    limits = SolverLimits(args.max_n, args.max_subsets)
    print(json.dumps(_SOLVE[args.action](G, args.q, limits), indent=2))
    return 0


def _load_partition(path: str) -> HairyPartition:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if isinstance(data, dict):
        data = data.get("partition", data)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    for key, kind in (("tournament_part", list), ("hair_part", list), ("owner", dict)):
        if key not in data:
            raise ValueError(f"{path}: missing key {key!r}")
        value = items = data[key]
        if isinstance(value, dict):  # hair -> owner; JSON object keys are strings
            items = [_int(k) for k in value] + list(value.values())
        if not isinstance(value, kind) or not all(type(x) is int for x in items):
            raise ValueError(f"{path}: {key!r} must be a {kind.__name__} of integers")
    return HairyPartition(
        frozenset(data["tournament_part"]),
        frozenset(data["hair_part"]),
        {_int(k): v for k, v in data["owner"].items()},
    )


def _hairy(G, args):
    if args.partition is None:
        part = HairyPartition.from_digraph(G)
    else:
        part = _load_partition(args.partition)
    return hairy_small_qk(G, part, relaxed=args.relaxed)


# method -> the flags it requires, and its runner on (graph, args)
_CONSTRUCT = {
    "good": (("qk",), lambda G, a: shrink_good_qk(G, a.qk)),
    "complement": (
        ("qk", "kernel"),
        lambda G, a: small_qk_from_kernel_complement(G, a.qk, a.kernel),
    ),
    "hairy": ((), _hairy),
    "unicyclic": ((), lambda G, a: unicyclic_small_qk(G)),
}


def _cmd_construct(args) -> int:
    G = load_graph(args.graph)
    flags, run = _CONSTRUCT[args.method]
    for f in flags:
        _req(args, f, "method")
    trace = run(G, args)
    payload = {
        "method": trace.method,
        "result": sorted(trace.result),
        "size": trace.size,
        "bound": str(trace.bound),
        "intermediates": {k: sorted(v) for k, v in trace.intermediates.items()},
    }
    print(json.dumps(payload, indent=2))
    return 0


# exhaustive sweep families: enumerator, default n and states per vertex pair;
# sizes above the default get a note on how many graphs they walk
_EXHAUSTIVE = {
    "all-digraphs": (enumerate_all_digraphs, 4, 4),
    "all-tournaments": (enumerate_all_tournaments, 6, 2),
}


def _cmd_sweep(args) -> int:
    limits = SolverLimits(args.max_n, args.max_subsets)
    seed_info = None
    if args.family == "random":
        n = args.n if args.n is not None else 8
        if args.samples < 0:
            raise ValueError(f"--samples must be non-negative, got {args.samples}")
        # a violation's graph text must parse back, so n stays within parse_graph's cap
        if not 2 <= n <= _MAX_VERTICES:
            raise ValueError(f"--n must be between 2 and {_MAX_VERTICES}, got {n}")
        family = random_source_free_family(args.samples, n, args.seed)
        family_desc = f"random(samples={args.samples}, max_n={n})"
        seed_info = f"seed={args.seed}"
    else:
        enumerate_family, default_n, states = _EXHAUSTIVE[args.family]
        n = args.n if args.n is not None else default_n
        family = enumerate_family(n)
        if n > default_n:
            print(
                f"note: enumerating {args.family.replace('-', ' ')} on {n} "
                f"vertices walks {states}^{n * (n - 1) // 2} instances",
                file=sys.stderr,
            )
        family_desc = f"{args.family}(n={n})"
    report = run_claim(
        CLAIMS[args.claim],
        family,
        limits,
        jobs=args.jobs,
        family_desc=family_desc,
        seed_info=seed_info,
    )
    _write(
        args,
        report_emit(report, args.format),
        f": {report.passes} passes, {report.skips} skips, "
        f"{len(report.violations)} violations, {report.aborted} aborted",
    )
    if report.violations:
        return 1
    if report.aborted:
        return 3
    return 0


def _cmd_check(args) -> int:
    G = load_graph(args.graph)
    S = frozenset(args.set)
    rep = verify_set(G, S, args.mode, args.q)
    if rep:
        print(f"holds: {sorted(S)} satisfies mode {args.mode}")
        return 0
    kind = "arc" if isinstance(rep.witness, tuple) else "vertex"
    print(f"fails: witness {kind} {rep.witness}")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qk",
        description="Quasi-kernel toolkit: generators, greedy scans, exact "
        "solvers, constructions, and claim sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", required=True)
    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument(
        "--max-n", type=int, default=DEFAULT_LIMITS.max_n, help="vertex count guard"
    )
    limits.add_argument(
        "--max-subsets",
        type=int,
        default=DEFAULT_LIMITS.max_subsets,
        help="vertices the search may try",
    )

    p_gen = sub.add_parser("gen", help="generate a graph and write it out")
    p_gen.add_argument("--family", required=True, choices=list(_GEN))
    p_gen.add_argument("--length", type=int, help="cycle length")
    p_gen.add_argument("--k", type=int, help="leaves per hub for three-hub")
    p_gen.add_argument("--n", type=int, help="size parameter")
    p_gen.add_argument("--m", type=int, help="base tournament size")
    p_gen.add_argument("--arc-prob", type=float, help="arc probability")
    p_gen.add_argument("--max-hairs", type=int, help="max hairs per vertex")
    p_gen.add_argument("--seed", type=int, help="generator seed")
    p_gen.add_argument("--source-free", action="store_true")
    p_gen.add_argument("--strongly-connected", action="store_true")
    p_gen.add_argument(
        "-o",
        "--output",
        help="output file; labels or partitions go to FILE.meta.json",
    )
    p_gen.set_defaults(func=_cmd_gen)

    p_cl = sub.add_parser(
        "cl", parents=[graph], help="run the greedy two-scan algorithm"
    )
    order_group = p_cl.add_mutually_exclusive_group()
    order_group.add_argument("--order", type=_ints, help="comma separated permutation")
    order_group.add_argument("--seed", type=int, help="shuffle seed")
    p_cl.add_argument(
        "--modified",
        action="store_true",
        help="single-pass variant needing the symmetric back property",
    )
    p_cl.set_defaults(func=_cmd_cl)

    p_solve = sub.add_parser(
        "solve", parents=[graph, limits], help="exact search on small graphs"
    )
    action = p_solve.add_mutually_exclusive_group(required=True)
    for name in _SOLVE:
        action.add_argument(
            "--" + name, dest="action", action="store_const", const=name
        )
    p_solve.add_argument("--q", type=int, default=2, help="reach radius")
    p_solve.set_defaults(func=_cmd_solve)

    p_con = sub.add_parser(
        "construct", parents=[graph], help="proof-driven constructions"
    )
    p_con.add_argument("--method", required=True, choices=list(_CONSTRUCT))
    p_con.add_argument("--qk", type=_ints, help="comma separated quasi-kernel")
    p_con.add_argument(
        "--kernel", type=_ints, help="comma separated kernel of the rest"
    )
    p_con.add_argument("--partition", help="hair partition json file")
    p_con.add_argument("--relaxed", action="store_true")
    p_con.set_defaults(func=_cmd_construct)

    p_sweep = sub.add_parser(
        "sweep", parents=[limits], help="run one claim over a family"
    )
    p_sweep.add_argument("--claim", required=True, choices=sorted(CLAIMS))
    p_sweep.add_argument("--family", required=True, choices=[*_EXHAUSTIVE, "random"])
    p_sweep.add_argument("--n", type=int, help="vertex count or max size")
    p_sweep.add_argument("--samples", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p_sweep.add_argument("-o", "--output", help="write the report here")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", parents=[graph], help="verify a vertex set")
    p_check.add_argument("--set", required=True, type=_ints, help="comma separated set")
    p_check.add_argument("--mode", required=True, choices=list(_MODES))
    p_check.add_argument("--q", type=int, help="radius for q-kernel mode")
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, VerificationError):
            return 1
        return 3 if isinstance(exc, ResourceLimitError) else 2


if __name__ == "__main__":
    sys.exit(main())
