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
from .graphio import _int, format_graph, load_graph
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


def _req(args, name):
    value = getattr(args, name)
    if value is None:
        flag = "--" + name.replace("_", "-")
        raise ValueError(f"{flag} is required for family {args.family}")
    return value


def _limits_from(args) -> SolverLimits:
    max_n = args.max_n if args.max_n is not None else DEFAULT_LIMITS.max_n
    return SolverLimits(max_n=max_n, max_subsets=args.max_subsets)


def _partition_payload(part: HairyPartition) -> dict:
    return {
        "tournament_part": sorted(part.tournament_part),
        "hair_part": sorted(part.hair_part),
        "owner": {str(h): part.owner[h] for h in sorted(part.owner)},
    }


def _cmd_gen(args) -> int:
    meta: dict = {}
    fam = args.family
    if fam == "cycle":
        G = gen_cycle(_req(args, "length"))
    elif fam == "three-hub":
        G, labels = gen_three_hub(_req(args, "k"))
        meta["labels"] = {str(v): s for v, s in labels.items()}
    elif fam == "tight-hairy":
        G, part, labels = gen_tight_hairy(
            _req(args, "n"), args.strongly_connected
        )
        meta["labels"] = {str(v): s for v, s in labels.items()}
        meta["partition"] = _partition_payload(part)
    elif fam == "random":
        G = gen_random_digraph(
            _req(args, "n"),
            _req(args, "arc_prob"),
            args.source_free,
            _req(args, "seed"),
        )
    elif fam == "random-tournament":
        G = gen_random_tournament(_req(args, "n"), _req(args, "seed"))
    elif fam == "random-hairy":
        G, part = gen_random_hairy(
            _req(args, "m"), _req(args, "max_hairs"), _req(args, "seed")
        )
        meta["partition"] = _partition_payload(part)
    else:
        G, cycle = gen_random_unicyclic(_req(args, "n"), _req(args, "seed"))
        meta["cycle"] = list(cycle)
    text = format_graph(G)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        if meta:
            Path(args.output + ".meta.json").write_text(
                json.dumps(meta, indent=2) + "\n", encoding="utf-8"
            )
        print(f"wrote {args.output} ({G.n} vertices, {G.m} arcs)")
    else:
        sys.stdout.write(text)
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


def _cmd_solve(args) -> int:
    G = load_graph(args.graph)
    limits = _limits_from(args)
    if args.smallest:
        Q = smallest_q_kernel(G, args.q, limits)
        payload = {
            "smallest": None if Q is None else sorted(Q),
            "size": None if Q is None else len(Q),
        }
    elif getattr(args, "enumerate"):
        qks = enumerate_q_kernels(G, args.q, limits)
        payload = {"q_kernels": [sorted(q) for q in qks], "count": len(qks)}
    elif args.kernels:
        ks = enumerate_kernels(G, limits)
        payload = {"kernels": [sorted(k) for k in ks], "count": len(ks)}
    elif args.kernel_perfect:
        ok, witness = is_kernel_perfect(G, limits)
        payload = {
            "kernel_perfect": ok,
            "witness": None if witness is None else sorted(witness),
        }
    else:
        pair = has_two_disjoint_qks(G, args.q, limits)
        payload = {
            "pair": None if pair is None else [sorted(pair[0]), sorted(pair[1])]
        }
    print(json.dumps(payload, indent=2))
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


def _cmd_construct(args) -> int:
    G = load_graph(args.graph)
    method = args.method
    if method == "good":
        if args.qk is None:
            raise ValueError("--qk is required for method good")
        trace = shrink_good_qk(G, frozenset(args.qk))
    elif method == "complement":
        if args.qk is None or args.kernel is None:
            raise ValueError(
                "--qk and --kernel are required for method complement"
            )
        trace = small_qk_from_kernel_complement(
            G,
            frozenset(args.qk),
            frozenset(args.kernel),
        )
    elif method == "hairy":
        if args.partition is not None:
            part = _load_partition(args.partition)
        else:
            part = HairyPartition.from_digraph(G)
        trace = hairy_small_qk(G, part, relaxed=args.relaxed)
    else:
        trace = unicyclic_small_qk(G)
    payload = {
        "method": trace.method,
        "result": sorted(trace.result),
        "size": trace.size,
        "bound": str(trace.bound),
        "intermediates": {
            k: sorted(v) for k, v in trace.intermediates.items()
        },
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
    limits = _limits_from(args)
    seed_info = None
    if args.family == "random":
        n = args.n if args.n is not None else 8
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
    out = report_emit(report, args.format)
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
        print(
            f"wrote {args.output}: {report.passes} passes, "
            f"{report.skips} skips, {len(report.violations)} violations, "
            f"{report.aborted} aborted"
        )
    else:
        sys.stdout.write(out)
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

    p_gen = sub.add_parser("gen", help="generate a graph and write it out")
    p_gen.add_argument(
        "--family",
        required=True,
        choices=[
            "cycle",
            "three-hub",
            "tight-hairy",
            "random",
            "random-tournament",
            "random-hairy",
            "random-unicyclic",
        ],
    )
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

    p_cl = sub.add_parser("cl", help="run the greedy two-scan algorithm")
    p_cl.add_argument("--graph", required=True)
    order_group = p_cl.add_mutually_exclusive_group()
    order_group.add_argument("--order", type=_ints, help="comma separated permutation")
    order_group.add_argument("--seed", type=int, help="shuffle seed")
    p_cl.add_argument(
        "--modified",
        action="store_true",
        help="single-pass variant needing the symmetric back property",
    )
    p_cl.set_defaults(func=_cmd_cl)

    p_solve = sub.add_parser("solve", help="exact search on small graphs")
    p_solve.add_argument("--graph", required=True)
    action = p_solve.add_mutually_exclusive_group(required=True)
    action.add_argument("--smallest", action="store_true")
    action.add_argument("--enumerate", action="store_true")
    action.add_argument("--kernels", action="store_true")
    action.add_argument("--kernel-perfect", action="store_true")
    action.add_argument("--disjoint-pair", action="store_true")
    p_solve.add_argument("--q", type=int, default=2, help="reach radius")
    p_solve.add_argument("--max-n", type=int, help="vertex count guard")
    p_solve.add_argument("--max-subsets", type=int, help="candidate budget")
    p_solve.set_defaults(func=_cmd_solve)

    p_con = sub.add_parser("construct", help="proof-driven constructions")
    p_con.add_argument("--graph", required=True)
    p_con.add_argument(
        "--method",
        required=True,
        choices=["good", "complement", "hairy", "unicyclic"],
    )
    p_con.add_argument("--qk", type=_ints, help="comma separated quasi-kernel")
    p_con.add_argument(
        "--kernel", type=_ints, help="comma separated kernel of the rest"
    )
    p_con.add_argument("--partition", help="hair partition json file")
    p_con.add_argument("--relaxed", action="store_true")
    p_con.set_defaults(func=_cmd_construct)

    p_sweep = sub.add_parser("sweep", help="run one claim over a family")
    p_sweep.add_argument("--claim", required=True, choices=sorted(CLAIMS))
    p_sweep.add_argument(
        "--family",
        required=True,
        choices=[*_EXHAUSTIVE, "random"],
    )
    p_sweep.add_argument("--n", type=int, help="vertex count or max size")
    p_sweep.add_argument("--samples", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument(
        "--format", choices=["json", "csv", "text"], default="json"
    )
    p_sweep.add_argument("--max-n", type=int, help="vertex count guard")
    p_sweep.add_argument("--max-subsets", type=int, help="candidate budget")
    p_sweep.add_argument("-o", "--output", help="write the report here")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="verify a vertex set")
    p_check.add_argument("--graph", required=True)
    p_check.add_argument("--set", required=True, type=_ints, help="comma separated set")
    p_check.add_argument(
        "--mode",
        required=True,
        choices=list(_MODES),
    )
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
