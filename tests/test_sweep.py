"""Claim registry and sweep harness tests."""

import csv
import io
import json
import os
from functools import partial
from importlib import resources

import jsonschema
import pytest

from quasikernel import cli, construct, sweep
from quasikernel.digraph import Digraph
from quasikernel.errors import ResourceLimitError, VertexRangeError
from quasikernel.generators import (
    Family,
    enumerate_all_digraphs,
    enumerate_all_tournaments,
    gen_cycle,
    gen_random_digraph,
)
from quasikernel.graphio import format_graph, save_graph
from quasikernel.solver import SolverLimits, _q_kernels, enumerate_q_kernels
from quasikernel.sweep import (
    CLAIMS,
    Claim,
    SweepReport,
    Violation,
    random_source_free_family,
    report_emit,
    run_claim,
)

from oracles import brute_q_kernels, set_reach

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
C4 = gen_cycle(4)
PAIR = Digraph(2, [(0, 1), (1, 0)])
PATH = Digraph(3, [(0, 1), (1, 2)])
ARC = Digraph(2, [(0, 1)])
TRANSITIVE = Digraph(3, [(0, 1), (0, 2), (1, 2)])


# module level, so that pool workers can unpickle them
def _applies_always(G, limits):
    return True


def _check_always_fails(G, limits):
    return False, "fails by design"


def _built_outside(parent, make, item):
    """make(item), in any process but the parent."""
    if os.getpid() == parent:
        raise AssertionError("the parent built a graph")
    return make(item)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap in a pool that maps in process, so no worker is ever started.

    Returns the list of max_workers values the sweep asked for.
    """
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
    return started


def _schema():
    ref = resources.files("quasikernel") / "schemas" / "sweep_report.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


class TestRegistry:
    def test_claim_ids(self):
        assert set(CLAIMS) == {
            "small-qk",
            "kls",
            "moon",
            "jacob-meyniel",
            "gutin-unique",
            "croitoru-two",
            "richardson",
            "q3-half",
            "spiro-sqrt",
            "large-qk-exists",
            "max-degree-king",
        }

    def test_ids_match_keys_and_statements_exist(self):
        for key, claim in CLAIMS.items():
            assert claim.id == key
            assert claim.statement


class TestRunClaim:
    def test_counts_always_balance(self):
        for claim_id in CLAIMS:
            report = run_claim(CLAIMS[claim_id], enumerate_all_digraphs(3))
            assert (
                report.passes
                + report.skips
                + len(report.violations)
                + report.aborted
                == report.instances
            )
            assert report.instances == 64

    def test_large_qk_exists_matches_brute_force(self):
        # every quasi-kernel on n <= 4 vertices is large; 48 of the random
        # graphs also have ones that are not, which the search must pass over
        graphs = [G for n in range(5) for G in enumerate_all_digraphs(n)]
        graphs += [
            gen_random_digraph(5 + s % 4, 0.1 + 0.002 * s, False, s) for s in range(300)
        ]
        check = CLAIMS["large-qk-exists"].check
        for G in graphs:
            expected = any(
                2 * len(set_reach(G, Q, 1)) >= G.n for Q in brute_q_kernels(G)
            )
            assert check(G, SolverLimits())[0] == expected

    @pytest.mark.parametrize(
        "claim_id, tournaments, n, counts",
        [("croitoru-two", False, 4, (4096, 936, 3160, 0, 0)),
         ("richardson", False, 4, (4096, 1699, 2397, 0, 0)),
         ("gutin-unique", True, 5, (1024, 1024, 0, 0, 0)),
         ("moon", True, 1, (1, 0, 1, 0, 0)),
         ("moon", True, 2, (2, 0, 2, 0, 0)),
         ("moon", True, 3, (8, 2, 6, 0, 0)),
         ("moon", True, 4, (64, 32, 32, 0, 0)),
         ("moon", True, 5, (1024, 704, 320, 0, 0)),
         ("moon", True, 6, (32768, 26624, 6144, 0, 0)),
         ("jacob-meyniel", False, 3, (64, 2, 62, 0, 0)),
         ("jacob-meyniel", False, 4, (4096, 214, 3882, 0, 0))],
    )
    def test_counting_claims_pinned(self, claim_id, tournaments, n, counts):
        # a counting claim that stops at the wrong count moves passes and
        # skips even where it finds no violation
        enum = enumerate_all_tournaments if tournaments else enumerate_all_digraphs
        report = run_claim(CLAIMS[claim_id], enum(n))
        assert (
            report.instances, report.passes, report.skips, report.aborted,
            len(report.violations),
        ) == counts

    def test_spiro_violation_on_the_two_cycle(self):
        report = run_claim(
            CLAIMS["spiro-sqrt"], [PAIR, C3], family_desc="handpicked"
        )
        assert report.instances == 2 and report.passes == 1
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.graph == "2 2\n0 1\n1 0\n"
        assert "above 2 - sqrt(2)" in v.witness

    @pytest.mark.parametrize(
        "claim_id, G, witness",
        [("small-qk", C4, "smallest quasi-kernel [0, 1, 2, 3] has size 4, above 4/2"),
         ("kls", C4, "smallest quasi-kernel [0, 1, 2, 3] has size 4, above 2"),
         ("kls", PATH, "smallest quasi-kernel [0, 1, 2] has size 3, above 3/2"),
         ("q3-half", C3, "smallest 3-kernel [0, 1, 2] has size 3, above 3/2"),
         ("moon", C3, "only 2 quasi-kernels: [[0, 2], [0]]"),
         ("jacob-meyniel", C3, "only 2 quasi-kernels: [[0, 2], [0]]"),
         ("gutin-unique", ARC, "2 quasi-kernels while sources-form-a-kernel is True"),
         ("croitoru-two", C3, "neither [0, 2] nor [0] is a kernel"),
         ("croitoru-two", C4, "intersection [0] differs from sources []"),
         ("richardson", C3, "induced subgraph on [0, 1, 2] has no kernel"),
         ("large-qk-exists", C3,
          "no quasi-kernel reaches half the vertices within one step"),
         ("max-degree-king", TRANSITIVE,
          "max out-degree vertex 2 misses vertex 0 within two steps")],
    )
    def test_size_bound_witness_text(self, monkeypatch, claim_id, G, witness):
        # force a violation: the "smallest" kernel is the whole vertex set, the
        # quasi-kernels are the even vertices and {0}, kernel-perfectness fails
        # on all of V, no quasi-kernel is large, and the king is the last vertex
        monkeypatch.setattr(sweep, "smallest_q_kernel", lambda G, q, limits: frozenset(range(G.n)))
        monkeypatch.setattr(
            sweep,
            "enumerate_q_kernels",
            lambda G, q, limits: [frozenset(range(0, G.n, 2)), frozenset({0})],
        )
        monkeypatch.setattr(
            sweep, "is_kernel_perfect", lambda G, limits: (False, frozenset(range(G.n)))
        )
        monkeypatch.setattr(sweep, "_q_kernels", lambda G, q, limits, cap, wanted=None: [])
        monkeypatch.setattr(construct, "_max_out_degree_vertex", lambda G: G.n - 1)
        assert CLAIMS[claim_id].check(G, SolverLimits()) == (False, witness)

    def test_skip_semantics(self):
        # sourced graph skipped by the source-free claims
        report = run_claim(CLAIMS["small-qk"], [PATH])
        assert report.skips == 1 and report.passes == 0
        # kls applies everywhere
        report = run_claim(CLAIMS["kls"], [PATH])
        assert report.passes == 1 and report.skips == 0
        # moon wants source-free tournaments
        report = run_claim(CLAIMS["moon"], [C4, C3])
        assert report.skips == 1 and report.passes == 1
        # jacob-meyniel skips anything with a kernel
        report = run_claim(CLAIMS["jacob-meyniel"], [C4, C3])
        assert report.skips == 1 and report.passes == 1
        # croitoru-two wants exactly two quasi-kernels
        report = run_claim(CLAIMS["croitoru-two"], [C3, C4])
        assert report.skips == 1 and report.passes == 1
        # richardson skips odd directed cycles
        report = run_claim(CLAIMS["richardson"], [C3, C4])
        assert report.skips == 1 and report.passes == 1

    def test_exhaustive_small_families_are_clean(self):
        for claim_id in ("small-qk", "kls", "gutin-unique", "q3-half"):
            report = run_claim(CLAIMS[claim_id], enumerate_all_digraphs(3))
            assert report.violations == (), claim_id
        report = run_claim(
            CLAIMS["max-degree-king"], enumerate_all_tournaments(4)
        )
        assert report.passes == 64 and report.violations == ()
        report = run_claim(CLAIMS["moon"], enumerate_all_tournaments(3))
        assert report.passes == 2 and report.skips == 6

    def test_aborted_instances_are_counted(self):
        limits = SolverLimits(max_n=3)
        report = run_claim(CLAIMS["small-qk"], enumerate_all_digraphs(4), limits)
        assert report.aborted > 0 and report.passes == 0
        assert report.aborted + report.skips == report.instances
        # a limit blowing up inside the hypothesis filter also counts
        report = run_claim(CLAIMS["jacob-meyniel"], [C4], limits)
        assert report.aborted == 1

    def test_subset_budget_aborts(self):
        limits = SolverLimits(max_subsets=1)
        report = run_claim(CLAIMS["small-qk"], [gen_cycle(6)], limits)
        assert report.aborted == 1

    def test_parallel_matches_serial(self):
        # mixed vertex counts, so workers must take n from each graph's masks
        family = [
            Digraph(0),
            Digraph(1),
            *enumerate_all_digraphs(3),
            *enumerate_all_tournaments(4),
        ]
        serial = run_claim(CLAIMS["gutin-unique"], family, family_desc="mixed")
        parallel = run_claim(
            CLAIMS["gutin-unique"], family, jobs=2, family_desc="mixed"
        )
        assert serial == parallel

    def test_parallel_collects_violations(self):
        family = list(enumerate_all_digraphs(2))
        serial = run_claim(CLAIMS["spiro-sqrt"], family, family_desc="d2")
        parallel = run_claim(CLAIMS["spiro-sqrt"], family, jobs=2, family_desc="d2")
        assert serial == parallel
        assert len(serial.violations) == 1

    @pytest.mark.parametrize("claim_id", ["kls", "unregistered"])
    def test_parallel_runs_the_given_claim(self, claim_id):
        # workers must run this claim, not a registered one with its id
        claim = Claim(claim_id, "never holds", _applies_always, _check_always_fails)
        serial = run_claim(claim, [C3, C4], family_desc="x")
        parallel = run_claim(claim, [C3, C4], jobs=2, family_desc="x")
        assert parallel == serial
        assert serial.passes == 0 and len(serial.violations) == 2

    def test_violations_are_sorted_regardless_of_family_order(self):
        a = run_claim(CLAIMS["spiro-sqrt"], [PAIR, C3], family_desc="x")
        b = run_claim(CLAIMS["spiro-sqrt"], [C3, PAIR], family_desc="x")
        assert a == b

    @pytest.mark.parametrize(
        "jobs, count, cpus, workers",
        [(64, 3, 8, 3), (64, 40, 2, 2), (3, 40, 8, 3), (5, 0, 8, 1), (4, 40, None, 1)],
    )
    def test_pool_size_is_capped(
        self, monkeypatch, pool_sizes, jobs, count, cpus, workers
    ):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
        family = list(enumerate_all_digraphs(3))[:count]
        serial = run_claim(CLAIMS["gutin-unique"], family, family_desc="d3")
        pooled = run_claim(CLAIMS["gutin-unique"], family, jobs=jobs, family_desc="d3")
        assert pool_sizes == [workers]
        assert pooled == serial

    def test_pool_formats_only_violation_graphs(self, monkeypatch, pool_sizes):
        # workers build their own graphs; graph text is made only for a violation
        formatted = []

        def counting_format(G):
            formatted.append(G)
            return format_graph(G)

        monkeypatch.setattr(sweep, "format_graph", counting_format)
        clean = run_claim(CLAIMS["gutin-unique"], enumerate_all_digraphs(3), jobs=3)
        assert pool_sizes and clean.violations == () and formatted == []
        claim = Claim("x", "never holds", _applies_always, _check_always_fails)
        failing = run_claim(claim, enumerate_all_digraphs(2), jobs=3)
        assert len(failing.violations) == 4
        assert sorted(map(format_graph, formatted)) == [
            v.graph for v in failing.violations
        ]

    def test_pool_parent_builds_no_graph(self):
        tournaments = enumerate_all_tournaments(4)
        family = Family(
            "t4", partial(_built_outside, os.getpid(), tournaments.make),
            tournaments.items,
        )
        with pytest.raises(AssertionError):
            next(iter(family))
        pooled = run_claim(CLAIMS["moon"], family, jobs=2, family_desc="t4")
        serial = run_claim(CLAIMS["moon"], tournaments, family_desc="t4")
        assert pooled == serial
        assert (pooled.instances, pooled.passes, pooled.skips) == (64, 32, 32)

    @pytest.mark.parametrize("claim_id", ["small-qk", "kls"])
    def test_pool_matches_serial_on_random_draws(self, claim_id):
        # the one-pass stream of draws is listed in the parent, and the
        # workers generate the graphs
        serial, pooled = (
            run_claim(
                CLAIMS[claim_id], random_source_free_family(3000, 9, 5), jobs=jobs,
                family_desc="r", seed_info="seed=5",
            )
            for jobs in (1, 2)
        )
        assert pooled == serial
        assert serial.instances == 3000

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_claim(CLAIMS["kls"], [C3], jobs=0)

    def test_family_desc_defaults_to_the_family(self):
        family = enumerate_all_digraphs(2)
        assert run_claim(CLAIMS["kls"], family).family == "all-digraphs(n=2)"
        assert run_claim(CLAIMS["kls"], family, family_desc="mine").family == "mine"
        assert run_claim(CLAIMS["kls"], [C3]).family == ""

    def test_report_equality_ignores_elapsed(self):
        a = SweepReport("kls", "f", 1, 1, 0, 0, (), 1.0, None)
        b = SweepReport("kls", "f", 1, 1, 0, 0, (), 2.0, None)
        assert a == b


class TestCountQKernels:
    def test_counts_up_to_the_cap(self):
        graphs = [G for n in range(5) for G in enumerate_all_digraphs(n)]
        graphs += list(enumerate_all_tournaments(5))
        for G in graphs:
            for q in (1, 2, 3):
                total = len(enumerate_q_kernels(G, q))
                for cap in (1, 2, 3, 4):
                    assert len(_q_kernels(G, q, None, cap)) == min(cap, total)

    def test_counting_checks_match_the_oracle_count(self):
        # called whether or not each hypothesis holds, so a wrong threshold
        # shows even though the registered claims are true
        limits = SolverLimits()
        for G in (G for n in range(5) for G in enumerate_all_digraphs(n)):
            qks = brute_q_kernels(G)
            listed = sorted((sorted(Q) for Q in qks), key=lambda Q: (len(Q), Q))
            at_least_three = CLAIMS["moon"].check(G, limits)
            if len(qks) >= 3:
                assert at_least_three == (True, None)
            else:
                assert at_least_three == (False, f"only {len(qks)} quasi-kernels: {listed}")
            assert CLAIMS["gutin-unique"].check(G, limits) == (True, None)
            assert CLAIMS["croitoru-two"].applies(G, limits) == (len(qks) == 2)

    def test_stops_at_the_cap(self):
        # every vertex of the regular 5-tournament is a quasi-kernel by
        # itself; the lone-vertex scan counts two of them in two nodes,
        # listing all five takes five
        T = Digraph(5, [(u, (u + d) % 5) for u in range(5) for d in (1, 2)])
        assert len(_q_kernels(T, 2, SolverLimits(max_subsets=2), 2)) == 2
        with pytest.raises(ResourceLimitError):
            _q_kernels(T, 2, SolverLimits(max_subsets=1), 2)
        with pytest.raises(ResourceLimitError):
            enumerate_q_kernels(T, 2, SolverLimits(max_subsets=2))

    def test_search_stops_at_the_cap(self):
        # C7 has no lone quasi-kernel and seven of size three: the scan
        # spends seven nodes, the search four more up to its second hit,
        # while listing all seven takes the scan and the search 22
        G = gen_cycle(7)
        assert len(_q_kernels(G, 2, SolverLimits(max_subsets=11), 2)) == 2
        with pytest.raises(ResourceLimitError):
            _q_kernels(G, 2, SolverLimits(max_subsets=10), 2)
        with pytest.raises(ResourceLimitError):
            enumerate_q_kernels(G, 2, SolverLimits(max_subsets=11))
        assert len(enumerate_q_kernels(G, 2, SolverLimits(max_subsets=22))) == 7
        with pytest.raises(ResourceLimitError):
            enumerate_q_kernels(G, 2, SolverLimits(max_subsets=21))


class TestSingletonScan:
    # every q-kernel walk meets the lone-vertex q-kernels before it
    # searches, and large-qk-exists judges those by one rule of its own;
    # these graphs must not be settled wrongly there

    def test_large_exists_passes_at_a_later_large_king(self):
        # {0} reaches all of V in two steps but only three vertices in one;
        # {1} reaches exactly half of V in one step, so the scan passes there
        G = Digraph(
            8,
            [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 0),
             (4, 2), (5, 6), (5, 7)],
        )
        assert CLAIMS["large-qk-exists"].check(G, SolverLimits()) == (True, None)
        assert "in_masks" not in G.__dict__

    def test_large_exists_searches_past_small_kings(self):
        # {1} is the only lone quasi-kernel and reaches three of the seven
        # vertices in one step; {0, 1} reaches four
        G = Digraph(
            7,
            [(1, 4), (1, 6), (2, 0), (3, 1), (4, 0), (4, 1), (5, 3), (6, 2),
             (6, 3), (6, 5)],
        )
        qks = brute_q_kernels(G)
        large = [Q for Q in qks if 2 * len(set_reach(G, Q, 1)) >= G.n]
        assert [Q for Q in qks if len(Q) == 1] == [frozenset({1})]
        assert frozenset({0, 1}) in large and all(len(Q) > 1 for Q in large)
        assert CLAIMS["large-qk-exists"].check(G, SolverLimits()) == (True, None)

    @pytest.mark.parametrize(
        "claim_id",
        ["gutin-unique", "moon", "jacob-meyniel", "croitoru-two", "large-qk-exists"],
    )
    def test_above_max_n_is_aborted(self, claim_id):
        # every vertex of the regular 5-tournament is a lone quasi-kernel,
        # so only the max_n guard keeps the scan from settling it
        T = Digraph(5, [(u, (u + d) % 5) for u in range(5) for d in (1, 2)])
        report = run_claim(CLAIMS[claim_id], [T], SolverLimits(max_n=4))
        assert (report.instances, report.aborted) == (1, 1)


class TestReportEmit:
    def _sample(self):
        return run_claim(
            CLAIMS["spiro-sqrt"],
            [PAIR, C3],
            family_desc="handpicked",
            seed_info="seed=0",
        )

    def test_json_matches_schema_and_key_order(self):
        payload = json.loads(report_emit(self._sample(), "json"))
        jsonschema.validate(payload, _schema())
        assert list(payload) == [
            "claim",
            "family",
            "instances",
            "passes",
            "skips",
            "aborted",
            "violations",
            "elapsed_seconds",
            "seed_info",
        ]
        assert payload["violations"][0]["graph"].startswith("2 2")

    def test_json_schema_accepts_clean_reports(self):
        report = run_claim(CLAIMS["kls"], [C3, C4], family_desc="clean")
        payload = json.loads(report_emit(report, "json"))
        jsonschema.validate(payload, _schema())
        assert payload["violations"] == [] and payload["seed_info"] is None

    def test_csv_shape(self):
        rows = list(csv.reader(io.StringIO(report_emit(self._sample(), "csv"))))
        assert rows[0] == ["claim", "family", "graph", "witness"]
        assert len(rows) == 2
        assert rows[1][0] == "spiro-sqrt"
        assert rows[1][2] == "2 2\n0 1\n1 0\n"

    def test_csv_header_only_when_clean(self):
        report = run_claim(CLAIMS["kls"], [C3], family_desc="clean")
        assert report_emit(report, "csv").strip() == "claim,family,graph,witness"

    def test_text_format(self):
        text = report_emit(self._sample(), "text")
        assert "claim: spiro-sqrt" in text
        assert "violations: 1" in text
        assert "seed: seed=0" in text
        assert "0 1" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            report_emit(self._sample(), "xml")


class TestVerifySet:
    """Set checks by mode name, run through qk check's mode table."""

    @pytest.fixture
    def c4_file(self, tmp_path):
        path = tmp_path / "c4.txt"
        save_graph(C4, path)
        return str(path)

    def test_q_kernel_needs_q(self, c4_file, capsys):
        assert cli.main(["check", "--graph", c4_file, "--set", "0",
                         "--mode", "q-kernel"]) == 2
        assert capsys.readouterr().err == "error: --mode q-kernel needs --q\n"

    def test_unknown_mode(self, c4_file, capsys):
        assert "clique" not in cli._CHECK
        assert cli.main(["check", "--graph", c4_file, "--set", "0",
                         "--mode", "clique"]) == 2
        assert "invalid choice: 'clique'" in capsys.readouterr().err

    def test_bad_vertices_propagate(self, c4_file, capsys):
        check, _ = cli._CHECK["qk"]
        with pytest.raises(VertexRangeError):
            check(C4, {9})
        assert cli.main(["check", "--graph", c4_file, "--set", "9",
                         "--mode", "qk"]) == 2
        assert capsys.readouterr().err == "error: vertex 9 out of range for n=4\n"


class TestRandomFamily:
    def test_deterministic_and_in_range(self):
        a = list(random_source_free_family(25, 6, 99))
        b = list(random_source_free_family(25, 6, 99))
        assert a == b
        assert len(a) == 25
        for G in a:
            assert 2 <= G.n <= 6
            assert all(G.in_masks)

    def test_validation(self):
        with pytest.raises(ValueError):
            list(random_source_free_family(-1, 6, 0))
        with pytest.raises(ValueError):
            list(random_source_free_family(5, 1, 0))

    def test_feeds_run_claim(self):
        family = random_source_free_family(40, 7, 12345)
        report = run_claim(
            CLAIMS["small-qk"],
            family,
            family_desc="random(40)",
            seed_info="seed=12345",
        )
        assert report.instances == 40
        assert report.skips == 0
        assert report.violations == ()


def test_round_trip_violation_graphs_parse():
    report = run_claim(CLAIMS["spiro-sqrt"], [PAIR])
    from quasikernel.graphio import parse_graph

    assert parse_graph(report.violations[0].graph) == PAIR
    assert format_graph(PAIR) == report.violations[0].graph


def test_exhaustive_families_are_reusable():
    family = enumerate_all_tournaments(4)
    first, second = list(family), list(family)
    assert len(first) == 64 and first == second


def test_violation_is_frozen():
    v = Violation("2 0\n", "w")
    with pytest.raises(Exception):
        v.graph = "x"
