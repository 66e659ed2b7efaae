"""End-to-end command line tests driving main() in process."""

import json

import jsonschema
import pytest

from quasikernel.cli import _build_parser, main
from quasikernel.graphio import load_graph, save_graph
from quasikernel.generators import gen_cycle
from quasikernel.digraph import Digraph
from quasikernel.solver import DEFAULT_LIMITS
from quasikernel.sweep import _MODES


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    save_graph(gen_cycle(5), path)
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.txt"
    save_graph(Digraph(2, [(0, 1), (1, 0)]), path)
    return str(path)


class TestGen:
    def test_cycle_to_file(self, tmp_path, capsys):
        out = tmp_path / "c.txt"
        code = main(["gen", "--family", "cycle", "--length", "4", "-o", str(out)])
        assert code == 0
        assert out.read_text() == "4 4\n0 1\n1 2\n2 3\n3 0\n"
        assert capsys.readouterr().out == f"wrote {out} (4 vertices, 4 arcs)\n"
        assert not (tmp_path / "c.txt.meta.json").exists()

    def test_cycle_to_stdout(self, capsys):
        assert main(["gen", "--family", "cycle", "--length", "3"]) == 0
        assert capsys.readouterr().out == "3 3\n0 1\n1 2\n2 0\n"

    def test_three_hub_sidecar(self, tmp_path):
        out = tmp_path / "hub.txt"
        assert main(["gen", "--family", "three-hub", "--k", "1", "-o", str(out)]) == 0
        meta = json.loads((tmp_path / "hub.txt.meta.json").read_text())
        assert meta["labels"]["v"] == 0 and meta["labels"]["w1"] == 5

    def test_tight_hairy_sidecar(self, tmp_path):
        out = tmp_path / "th.txt"
        assert main(["gen", "--family", "tight-hairy", "--n", "1", "-o", str(out)]) == 0
        meta = json.loads((tmp_path / "th.txt.meta.json").read_text())
        assert meta["partition"]["tournament_part"] == [0, 1, 2]
        assert len(meta["partition"]["hair_part"]) == 9
        assert meta["labels"]["a0"] == 0

    def test_tight_hairy_sidecar_bytes(self, tmp_path, capsys):
        out = tmp_path / "th.txt"
        assert main(["gen", "--family", "tight-hairy", "--n", "1",
                     "--strongly-connected", "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out} (14 vertices, 23 arcs)\n"
        hairs = range(3, 12)
        labels = {f"a{i}": i for i in range(3)}
        labels.update({f"h{i}_{j}": 3 + 3 * i + j for i in range(3) for j in range(3)})
        labels.update(w1=12, w2=13)
        meta = {
            "labels": labels,
            "partition": {
                "tournament_part": [0, 1, 2],
                "hair_part": list(hairs),
                "owner": {str(h): (h - 3) // 3 for h in hairs},
            },
        }
        text = (tmp_path / "th.txt.meta.json").read_text()
        assert text == json.dumps(meta, indent=2) + "\n"

    def test_random_families(self, tmp_path):
        out = tmp_path / "g.txt"
        args = ["gen", "--family", "random", "--n", "6", "--arc-prob", "0.4",
                "--source-free", "--seed", "3", "-o", str(out)]
        assert main(args) == 0
        G = load_graph(out)
        assert G.n == 6
        assert main(["gen", "--family", "random-tournament", "--n", "5",
                     "--seed", "1", "-o", str(out)]) == 0
        assert main(["gen", "--family", "random-unicyclic", "--n", "7",
                     "--seed", "2", "-o", str(out)]) == 0
        meta = json.loads((tmp_path / "g.txt.meta.json").read_text())
        assert meta["cycle"][0] == 0

    def test_random_hairy_sidecar(self, tmp_path):
        out = tmp_path / "h.txt"
        assert main(["gen", "--family", "random-hairy", "--m", "4",
                     "--max-hairs", "2", "--seed", "9", "-o", str(out)]) == 0
        meta = json.loads((tmp_path / "h.txt.meta.json").read_text())
        assert meta["partition"]["tournament_part"] == [0, 1, 2, 3]

    def test_missing_parameter(self, capsys):
        assert main(["gen", "--family", "cycle"]) == 2
        assert "--length is required" in capsys.readouterr().err

    def test_unknown_family(self):
        assert main(["gen", "--family", "petersen"]) == 2

    def test_invalid_parameter_value(self, capsys):
        assert main(["gen", "--family", "cycle", "--length", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCl:
    def test_natural(self, c5_file, capsys):
        assert main(["cl", "--graph", c5_file]) == 0
        out = capsys.readouterr().out
        assert "quasi-kernel: 2 4" in out
        assert "size: 2" in out
        assert "verified: yes" in out

    def test_explicit_order(self, c5_file, capsys):
        assert main(["cl", "--graph", c5_file, "--order", "4,3,2,1,0"]) == 0
        assert "verified: yes" in capsys.readouterr().out

    def test_seeded_order(self, c5_file, capsys):
        assert main(["cl", "--graph", c5_file, "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["cl", "--graph", c5_file, "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_modified_on_symmetric_graph(self, pair_file, capsys):
        assert main(["cl", "--graph", pair_file, "--modified"]) == 0
        assert "quasi-kernel: 0" in capsys.readouterr().out

    def test_modified_precondition_failure(self, c5_file, capsys):
        assert main(["cl", "--graph", c5_file, "--modified"]) == 2
        assert "symmetric back property" in capsys.readouterr().err

    def test_bad_order(self, c5_file):
        assert main(["cl", "--graph", c5_file, "--order", "0,0,1,2,3"]) == 2

    def test_order_and_seed_conflict(self, c5_file):
        assert main(["cl", "--graph", c5_file, "--order", "0,1,2,3,4",
                     "--seed", "1"]) == 2


class TestSolve:
    def test_smallest(self, c5_file, capsys):
        assert main(["solve", "--graph", c5_file, "--smallest"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"smallest": [0, 2], "size": 2}

    def test_smallest_kernel_mode_absent(self, tmp_path, capsys):
        path = tmp_path / "c3.txt"
        save_graph(Digraph(3, [(0, 1), (1, 2), (2, 0)]), path)
        assert main(["solve", "--graph", str(path), "--smallest", "--q", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"smallest": None, "size": None}

    @pytest.mark.parametrize(
        "action",
        ["--smallest", "--enumerate", "--kernels", "--kernel-perfect", "--disjoint-pair"],
    )
    def test_bad_q(self, c5_file, capsys, action):
        assert main(["solve", "--graph", c5_file, action, "--q", "0"]) == 2
        assert "q must be at least 1" in capsys.readouterr().err

    def test_enumerate(self, c5_file, capsys):
        assert main(["solve", "--graph", c5_file, "--enumerate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["q_kernels"]) == 5

    def test_kernels(self, c5_file, capsys):
        assert main(["solve", "--graph", c5_file, "--kernels"]) == 0
        assert json.loads(capsys.readouterr().out) == {"kernels": [], "count": 0}

    def test_kernel_perfect(self, c5_file, capsys):
        assert main(["solve", "--graph", c5_file, "--kernel-perfect"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"kernel_perfect": False, "witness": [0, 1, 2, 3, 4]}

    def test_disjoint_pair(self, c5_file, capsys):
        assert main(["solve", "--graph", c5_file, "--disjoint-pair"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pair"] == [[0, 2], [1, 3]]

    @pytest.mark.parametrize(
        "action,payload",
        [
            ("--kernels", {"kernels": [[0, 2], [1, 3]], "count": 2}),
            ("--disjoint-pair", {"pair": [[0, 2], [1, 3]]}),
        ],
    )
    def test_payload_with_two_kernels(self, tmp_path, capsys, action, payload):
        path = tmp_path / "c4.txt"
        save_graph(gen_cycle(4), path)
        assert main(["solve", "--graph", str(path), action]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_limit_exceeded(self, c5_file, capsys):
        assert main(["solve", "--graph", c5_file, "--smallest", "--max-n", "3"]) == 3
        assert "exceeds max_n" in capsys.readouterr().err

    def test_budget_exceeded(self, c5_file):
        assert main(["solve", "--graph", c5_file, "--smallest",
                     "--max-subsets", "1"]) == 3

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--graph", "g.txt", "--smallest"],
         ["sweep", "--claim", "small-qk", "--family", "random"]],
    )
    def test_limits_default_to_the_library_defaults(self, argv):
        args = _build_parser().parse_args(argv)
        assert (args.max_n, args.max_subsets) == (
            DEFAULT_LIMITS.max_n, DEFAULT_LIMITS.max_subsets
        )

    @pytest.mark.parametrize("flag", ["--max-n", "--max-subsets"])
    def test_negative_limit_is_a_usage_error(self, c5_file, capsys, flag):
        assert main(["solve", "--graph", c5_file, "--smallest", flag, "-1"]) == 2
        assert "must be non-negative, got -1" in capsys.readouterr().err

    def test_action_required(self, c5_file):
        assert main(["solve", "--graph", c5_file]) == 2


class TestConstruct:
    def test_good(self, tmp_path, capsys):
        path = tmp_path / "c4.txt"
        save_graph(gen_cycle(4), path)
        assert main(["construct", "--graph", str(path), "--method", "good",
                     "--qk", "0,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == [0, 2]
        assert payload["bound"] == "2"
        assert payload["intermediates"] == {"Q": [0, 2]}

    def test_complement(self, c5_file, capsys):
        assert main(["construct", "--graph", c5_file, "--method", "complement",
                     "--qk", "0,2", "--kernel", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "complement"
        assert payload["result"] == [0, 2]
        assert payload["intermediates"]["Q1"] == [2, 4]

    def test_missing_inputs(self, c5_file, capsys):
        assert main(["construct", "--graph", c5_file, "--method", "good"]) == 2
        assert "--qk is required" in capsys.readouterr().err
        assert main(["construct", "--graph", c5_file, "--method", "complement",
                     "--qk", "0,2"]) == 2
        assert capsys.readouterr().err == (
            "error: --kernel is required for method complement\n"
        )

    def test_precondition_failure(self, tmp_path, capsys):
        path = tmp_path / "c3.txt"
        save_graph(Digraph(3, [(0, 1), (1, 2), (2, 0)]), path)
        assert main(["construct", "--graph", str(path), "--method", "good",
                     "--qk", "0"]) == 2
        assert "not good" in capsys.readouterr().err

    def test_hairy_with_partition_file(self, tmp_path, capsys):
        graph = tmp_path / "th.txt"
        main(["gen", "--family", "tight-hairy", "--n", "1", "-o", str(graph)])
        capsys.readouterr()
        assert main(["construct", "--graph", str(graph), "--method", "hairy",
                     "--partition", str(graph) + ".meta.json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == [0, 9, 10, 11]
        assert payload["intermediates"]["king"] == [0]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ('{"tournament_part": [0], "owner": {}}', "missing key 'hair_part'"),
            ("[0, 1, 2]", "expected a JSON object, got list"),
            ('{"tournament_part": [0, 1, 2], "hair_part": [3], "owner": {"3": "x"}}',
             "'owner' must be a dict of integers"),
            ('{"tournament_part": [0, 1', "Expecting"),
        ],
    )
    def test_malformed_partition_file(self, tmp_path, capsys, text, fragment):
        graph = tmp_path / "th.txt"
        main(["gen", "--family", "tight-hairy", "--n", "1", "-o", str(graph)])
        part = tmp_path / "part.json"
        part.write_text(text)
        capsys.readouterr()
        assert main(["construct", "--graph", str(graph), "--method", "hairy",
                     "--partition", str(part)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {part}: ") and fragment in err

    def test_partition_key_in_non_ascii_digits(self, tmp_path, capsys):
        # an Arabic-Indic three is not hair 3
        graph = tmp_path / "th.txt"
        main(["gen", "--family", "tight-hairy", "--n", "1", "-o", str(graph)])
        meta = json.loads((tmp_path / "th.txt.meta.json").read_text())
        owner = meta["partition"]["owner"]
        owner["\u0663"] = owner.pop("3")
        part = tmp_path / "part.json"
        part.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["construct", "--graph", str(graph), "--method", "hairy",
                     "--partition", str(part)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {part}: 'owner' must be a dict of integers")

    def test_hairy_inferred_partition(self, tmp_path, capsys):
        graph = tmp_path / "ht.txt"
        save_graph(
            Digraph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]), graph
        )
        assert main(["construct", "--graph", str(graph), "--method", "hairy"]) == 0
        assert json.loads(capsys.readouterr().out)["result"] == [0, 5]

    def test_unicyclic(self, c5_file, capsys):
        assert main(["construct", "--graph", c5_file, "--method", "unicyclic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == [1, 4]
        assert payload["bound"] == "2"

    def test_structure_failure(self, tmp_path, capsys):
        path = tmp_path / "tree.txt"
        save_graph(Digraph(3, [(0, 1), (1, 2)]), path)
        assert main(["construct", "--graph", str(path), "--method",
                     "unicyclic"]) == 2
        assert "acyclic" in capsys.readouterr().err


class TestSweep:
    def test_violation_exit_code_and_schema(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["sweep", "--claim", "spiro-sqrt", "--family",
                     "all-digraphs", "--n", "2", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().out == (
            f"wrote {out}: 0 passes, 3 skips, 1 violations, 0 aborted\n"
        )
        payload = json.loads(out.read_text())
        from test_sweep import _schema

        jsonschema.validate(payload, _schema())
        assert payload["instances"] == 4

    def test_clean_run_stdout(self, capsys):
        code = main(["sweep", "--claim", "kls", "--family", "all-digraphs",
                     "--n", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instances"] == 64 and payload["violations"] == []

    def test_tournament_family_default(self, capsys):
        code = main(["sweep", "--claim", "max-degree-king", "--family",
                     "all-tournaments", "--n", "4", "--format", "text"])
        assert code == 0
        assert "passes: 64" in capsys.readouterr().out

    def test_random_family_with_seed_info(self, capsys):
        code = main(["sweep", "--claim", "small-qk", "--family", "random",
                     "--n", "6", "--samples", "15", "--seed", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed_info"] == "seed=4"
        assert payload["instances"] == 15

    def test_aborted_exit_code(self, capsys):
        code = main(["sweep", "--claim", "kls", "--family", "random",
                     "--n", "5", "--samples", "6", "--seed", "0",
                     "--max-n", "2"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["aborted"] > 0

    def test_csv_format(self, capsys):
        code = main(["sweep", "--claim", "spiro-sqrt", "--family",
                     "all-digraphs", "--n", "2", "--format", "csv"])
        assert code == 1
        assert capsys.readouterr().out.startswith("claim,family,graph,witness")

    def test_parallel_jobs(self, capsys):
        code = main(["sweep", "--claim", "gutin-unique", "--family",
                     "all-digraphs", "--n", "3", "--jobs", "2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["instances"] == 64

    def test_family_past_its_cap_fails_before_the_note(self, capsys):
        code = main(["sweep", "--claim", "small-qk", "--family", "all-digraphs",
                     "--n", "6"])
        assert code == 2
        err = capsys.readouterr().err
        assert "capped at n=5" in err and "note:" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--n", "1"], "--n must be between 2 and 65536, got 1"),
         (["--n", "10" * 10], f"--n must be between 2 and 65536, got {'10' * 10}"),
         (["--samples", "-3"], "--samples must be non-negative, got -3")],
        ids=["n-one", "n-huge", "samples-negative"],
    )
    def test_bad_random_family_input_names_its_flag(self, capsys, flags, message):
        code = main(["sweep", "--claim", "small-qk", "--family", "random", *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_claim(self):
        assert main(["sweep", "--claim", "fermat", "--family", "random"]) == 2


class TestCheck:
    def test_holds(self, c5_file, capsys):
        assert main(["check", "--graph", c5_file, "--set", "0,2",
                     "--mode", "qk"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_fails(self, c5_file, capsys):
        assert main(["check", "--graph", c5_file, "--set", "0",
                     "--mode", "kernel"]) == 1
        assert "fails: witness vertex" in capsys.readouterr().out

    def test_fails_with_arc_witness(self, tmp_path, capsys):
        path = tmp_path / "pair.txt"
        path.write_text("2 2\n0 1\n1 0\n")
        assert main(["check", "--graph", str(path), "--set", "0,1",
                     "--mode", "qk"]) == 1
        assert "fails: witness arc (0, 1)" in capsys.readouterr().out

    def test_q_kernel_mode(self, c5_file):
        assert main(["check", "--graph", c5_file, "--set", "0",
                     "--mode", "q-kernel", "--q", "4"]) == 0
        assert main(["check", "--graph", c5_file, "--set", "0",
                     "--mode", "q-kernel"]) == 2

    def test_every_sweep_mode_is_accepted(self, c5_file):
        for mode in _MODES:
            assert main(["check", "--graph", c5_file, "--set", "0,2",
                         "--mode", mode, "--q", "2"]) in (0, 1)
        assert main(["check", "--graph", c5_file, "--set", "0,2",
                     "--mode", "clique"]) == 2

    def test_large_and_quasi_sink(self, c5_file):
        assert main(["check", "--graph", c5_file, "--set", "0,2",
                     "--mode", "large"]) == 0
        assert main(["check", "--graph", c5_file, "--set", "0,2",
                     "--mode", "quasi-sink"]) == 0


class TestErrorsAndUsage:
    def test_missing_graph_file(self, tmp_path, capsys):
        assert main(["cl", "--graph", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 5\n")
        assert main(["solve", "--graph", str(bad), "--smallest"]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "--mode", "qk", "--set", "7"],
            ["construct", "--method", "good", "--qk", "9"],
            ["construct", "--method", "complement", "--qk", "0,2", "--kernel", "9"],
        ],
    )
    def test_vertex_out_of_range(self, c5_file, capsys, args):
        # exit 1 would mean violations found
        assert main([args[0], "--graph", c5_file, *args[1:]]) == 2
        err = capsys.readouterr().err
        assert err == f"error: vertex {args[-1]} out of range for n=5\n"

    @pytest.mark.parametrize("token", ["1_0", "+0", "\u0663", "x"])
    @pytest.mark.parametrize(
        "args",
        [
            ["check", "--mode", "qk", "--set"],
            ["cl", "--order"],
            ["construct", "--method", "good", "--qk"],
            ["construct", "--method", "complement", "--qk", "0,2", "--kernel"],
        ],
    )
    def test_vertex_lists_take_only_plain_integers(self, c5_file, capsys, args, token):
        assert main([args[0], "--graph", c5_file, *args[1:], f"0,{token}"]) == 2
        err = capsys.readouterr().err
        assert f"argument {args[-1]}: {token!r} is not an integer" in err

    def test_usage_errors(self):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "sweep" in capsys.readouterr().out
