"""Instance file round trips and the command line."""

import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mtk
from mtk import verify
from mtk.cli import instance_from_dict, main, parse_instance
from mtk.constructions import canned, instance_to_dict
from mtk.errors import ParseError, ValidationError
from mtk.matroid import MatroidSystem
from mtk.verify import rand_system


def test_parse_minimal_complex(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text('{"complex": {"n": 2, "maximal_faces": [[0], [1]]}}')
    inst = parse_instance(str(path))
    assert inst.complex_.n == 2
    assert inst.complex_.maximal_faces == (1, 2)


def test_parse_partition_system_round_trip(tmp_path):
    inst = canned("truncated_plane", q=2)
    payload = instance_to_dict(inst)
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(payload))
    back = parse_instance(str(path))
    assert back.system.k == 3
    assert back.hypergraph == inst.hypergraph
    assert instance_to_dict(back)["matroids"] == payload["matroids"]


def test_parse_rejects_bad_caps():
    with pytest.raises(ValidationError):
        instance_from_dict(
            {
                "matroids": [
                    {"kind": "gen_partition", "n": 2, "parts": [[0, 1]], "caps": [3]}
                ]
            }
        )


def test_parse_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_instance(str(path))
    path2 = tmp_path / "missing.json"
    path2.write_text('{"complex": {"n": 2}}')
    with pytest.raises(ParseError):
        parse_instance(str(path2))


@pytest.mark.parametrize("command", ["invariants", "ratio"])
@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda p: p.mkdir(), "Is a directory"),
        (lambda p: p.write_bytes(b'\xff{"complex": {}}'), "not UTF-8 text at byte 0"),
    ],
    ids=["directory", "not-utf8"],
)
def test_cli_refuses_an_unreadable_file_with_exit_2(command, make, reason, tmp_path, capsys):
    path = tmp_path / "inst.json"
    make(path)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and reason in err


def test_cli_gen_says_when_it_cannot_write(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "qk.json"
    assert main(["gen", "q_k", "--param", "q=2", "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"cannot write {out}: No such file or directory\n"


def test_weights_parse_as_exact_rationals():
    inst = instance_from_dict(
        {
            "complex": {"n": 2, "maximal_faces": [[0, 1]]},
            "weights": {"h": ["1/3", "2"]},
        }
    )
    assert inst.weights["h"][0] == Fraction(1, 3)


def test_cli_gen_and_invariants(tmp_path, capsys):
    out = tmp_path / "qk.json"
    rc = main(["gen", "q_k", "--param", "q=2", "-o", str(out)])
    assert rc == 0
    rc = main(["invariants", str(out), "--what", "eta_h,chi,chi_star"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "eta_h" in text and "chi" in text

    rc = main(["invariants", str(out), "--what", "eta_h", "--report", "jsonl"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert json.loads(line)["eta_h"] == "1"


def test_cli_chi_list_prints_a_bracket_past_the_search_cap(tmp_path, capsys):
    # chi = 5 on six vertices: size 5 was past a former cap p <= 4 and
    # printed [5,6]; the Hall-bounded search decides it exactly
    path = tmp_path / "c.json"
    path.write_text('{"complex": {"n": 6, "maximal_faces": [[0, 1], [2], [3], [4], [5]]}}')
    assert main(["invariants", str(path), "--what", "chi_list", "--report", "jsonl"]) == 0
    assert json.loads(capsys.readouterr().out) == {"chi_list": "5"}
    path.write_text('{"complex": {"n": 2, "maximal_faces": [[0], [1]]}}')
    assert main(["invariants", str(path), "--what", "chi_list", "--report", "jsonl"]) == 0
    assert json.loads(capsys.readouterr().out) == {"chi_list": "2"}


def test_cli_ratio(tmp_path, capsys):
    out = tmp_path / "t3.json"
    assert main(["gen", "truncated_plane", "--param", "q=2", "-o", str(out)]) == 0
    assert main(["ratio", str(out), "--pair", "R:P"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_ratio_names_the_weights_it_ignores(tmp_path, capsys):
    out = tmp_path / "t3.json"
    raw = instance_to_dict(canned("truncated_plane", q=2))
    raw["weights"] = {"w": ["1"] * 7, "h": ["2"] * 7}
    out.write_text(json.dumps(raw))
    assert main(["ratio", str(out), "--pair", "R:P"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "2"
    assert captured.err == "warning: ratio 'R:P' ignores weights h, w\n"


def test_cli_ratio_refuses_a_bad_pair_before_reading_the_file(monkeypatch, tmp_path, capsys):
    def parse(path):
        raise AssertionError("instance parsed before the pair was checked")

    monkeypatch.setattr("mtk.cli.parse_instance", parse)
    for pair in ("R:X", "RP", "R:P:Q", ":"):
        assert main(["ratio", str(tmp_path / "t3.json"), "--pair", pair]) == 2
        assert f"unknown pair {pair!r}" in capsys.readouterr().err


def test_cli_ratio_r_r_builds_no_intersection_complex(monkeypatch, tmp_path, capsys):
    out = tmp_path / "t3.json"
    assert main(["gen", "truncated_plane", "--param", "q=2", "-o", str(out)]) == 0
    capsys.readouterr()

    def sweep(self):
        raise AssertionError("intersection complex built for R:R")

    monkeypatch.setattr(MatroidSystem, "intersection_complex", sweep)
    assert main(["ratio", str(out), "--pair", "R:R"]) == 0
    assert capsys.readouterr().out.strip() == "1"


PATH3 = {"hypergraph": {"n": 3, "edges": [[0, 1], [1, 2]]}}


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"parts": [[0], [0]]}, "sides need a hypergraph"),
        ({**PATH3, "parts": [[0], [0]]}, "sides overlap"),
        ({**PATH3, "parts": [[0, 2], [1], [1]]}, "sides overlap"),
        ({**PATH3, "parts": [[0, 2]]}, "sides must cover the vertex set"),
        ({**PATH3, "parts": [[0], [1, 2]]}, "some edge is not a transversal of the sides"),
    ],
)
def test_cli_refuses_parts_that_are_not_sides_of_the_hypergraph(raw, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match=f"parts: {message}"):
        instance_from_dict(raw)
    assert main(["invariants", str(path)]) == 2
    assert f"parts: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["q_k", "--param", "q"], "'q'"),
        (["q_k", "--param", "q=x"], "'q'"),
        (["ab"], "'m'"),
        (["md_lower"], "'n'"),
        (["q_k", "--param", "zz=3"], "'zz'"),
    ],
)
def test_cli_gen_rejects_bad_params(argv, named, tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", *argv, "-o", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_exit_codes(capsys):
    rc = main(["verify", "matdim", "--seed", "1"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["verify", "nosuch"])
    assert rc == 2


def test_cli_verify_lets_a_suite_keyerror_propagate(monkeypatch):
    def broken(rng):
        return {}["x"]

    monkeypatch.setattr(verify, "SUITES", {"broken": broken})
    with pytest.raises(KeyError, match="x"):
        main(["verify", "broken"])


def test_list_bounds_violation_carries_a_replayable_system(monkeypatch):
    # a bracket above every bound makes each decided claim a violation
    drawn = []

    def spy_rand_system(rng, n, k, **kw):
        drawn.append(rand_system(rng, n, k, **kw))
        return drawn[-1]

    monkeypatch.setattr(verify, "rand_system", spy_rand_system)
    monkeypatch.setattr(verify.coloring, "chi_list_number", lambda c, budget: (99, 99))
    records = verify.suite_list_bounds(random.Random(3), count=4, max_n=4)
    violated = [r for r in records if r.verdict == "violated"]
    assert len(violated) == 8
    for r in violated:
        t = int(r.instance[1 : r.instance.index("(")])
        system = instance_from_dict(r.witness).system
        assert _rank_tables(system) == _rank_tables(drawn[t])


def _rank_tables(system):
    return [[m.rank(s) for s in range(1 << system.n)] for m in system]


def test_cli_verify_deterministic(capsys):
    assert main(["verify", "pq-witnesses", "--seed", "7", "--report", "jsonl"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "pq-witnesses", "--seed", "7", "--report", "jsonl"]) == 0
    second = capsys.readouterr().out
    assert first == second
    for line in first.strip().splitlines():
        json.loads(line)


def test_randomized_suites_byte_identical_given_seed(capsys):
    for suite in ("abm", "furedi-fks"):
        outs = []
        for _ in range(2):
            assert main(["verify", suite, "--seed", "5", "--report", "jsonl"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


def test_cli_suite_seed_changes_instances(capsys):
    assert main(["verify", "abm", "--seed", "1", "--report", "jsonl"]) == 0
    a = capsys.readouterr().out
    assert main(["verify", "abm", "--seed", "2", "--report", "jsonl"]) == 0
    b = capsys.readouterr().out
    assert a != b


def test_cli_invariants_names_the_missing_input(tmp_path, capsys):
    path = tmp_path / "complex.json"
    path.write_text('{"complex": {"n": 2, "maximal_faces": [[0], [1]]}}')
    assert main(["invariants", str(path), "--what", "numbers"]) == 2
    assert "'numbers' needs a matroid system" in capsys.readouterr().err
    assert main(["invariants", str(path), "--what", "hyper_numbers"]) == 2
    assert "'hyper_numbers' needs a hypergraph" in capsys.readouterr().err


def test_cli_hyper_numbers_do_not_build_the_independence_complex(tmp_path, capsys):
    # 2^24 vertex subsets are past the sweep cap; the numbers need only
    # the three edges
    path = tmp_path / "path.json"
    path.write_text('{"hypergraph": {"n": 24, "edges": [[0, 1], [1, 2], [2, 3]]}}')
    assert main(["invariants", str(path), "--what", "hyper_numbers", "--report", "jsonl"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "hyper_nu_w": "2",
        "hyper_nu_star_w": "2",
        "hyper_tau_star_w": "2",
        "hyper_tau_w": "2",
        "w_star": "1",
    }
    assert captured.err == ""


def test_cli_invariants_names_the_weight_keys_it_ignores(tmp_path, capsys):
    # a misspelt `h` would otherwise silently become all-ones weights
    raw = {
        "matroids": [
            {"kind": "uniform", "n": 3, "rank": 2},
            {"kind": "uniform", "n": 3, "rank": 1},
        ],
        "weights": {"H": ["5", "5", "5"]},
    }
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(raw))
    assert main(["invariants", str(path), "--what", "chi_star,numbers", "--report", "jsonl"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "chi_star": "3", "nu_w": "1", "nu_star_w": "1", "tau_star_w": "1", "tau_w": "1"
    }
    assert captured.err == "warning: invariants 'chi_star,numbers' ignore weights H\n"
    raw["weights"]["h"] = raw["weights"].pop("H")
    path.write_text(json.dumps(raw))
    assert main(["invariants", str(path), "--what", "chi_star"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["invariants", str(path), "--what", "numbers"]) == 0
    assert "ignore weights h" in capsys.readouterr().err


def test_cli_answers_a_demand_past_the_recursion_limit(tmp_path, capsys):
    # one unit pick per search level, so w = 5000 takes 5000 levels
    path = tmp_path / "deep.json"
    raw = {"hypergraph": {"n": 2, "edges": [[0, 1]]}, "weights": {"w": ["5000"]}}
    path.write_text(json.dumps(raw))
    assert main(["invariants", str(path), "--what", "hyper_numbers", "--report", "jsonl"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["hyper_tau_w"] == "5000"
    assert captured.err == ""


def test_cli_invariants_says_when_it_leaves_matdim_exact_out(tmp_path, capsys):
    path = tmp_path / "seven.json"
    path.write_text('{"complex": {"n": 7, "maximal_faces": [[0, 1, 2], [3, 4, 5], [6]]}}')
    assert main(["invariants", str(path), "--what", "matdim", "--report", "jsonl"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"matdim_upper": "6"}
    assert captured.err == "warning: matdim_exact left out: n = 7 > MATDIM_MAX_N = 6\n"
    path.write_text('{"complex": {"n": 6, "maximal_faces": [[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]]}}')
    assert main(["invariants", str(path), "--what", "matdim", "--report", "jsonl"]) == 0
    captured = capsys.readouterr()
    assert set(json.loads(captured.out)) == {"matdim_upper", "matdim_exact"}
    assert captured.err == ""


@pytest.mark.parametrize(
    "raw, named",
    [
        ({"parts": [[-1]]}, "parts"),
        ({"parts": [["a"]]}, "parts"),
        ({"matroids": 5}, "matroids"),
        ({"matroids": [3]}, "matroids[0]"),
        ({"matroids": [{"kind": "uniform", "n": 3, "rank": "x"}]}, "matroids[0]"),
        ({"weights": {"h": 5}}, "weights[h]"),
        ({"weights": [1]}, "weights"),
        ({"hypergraph": 5}, "hypergraph"),
        ({"weights": {"h": "12"}}, "weights[h]"),
    ],
)
def test_cli_invariants_rejects_malformed_fields(raw, named, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises((ParseError, ValidationError), match=named.replace("[", r"\[")):
        instance_from_dict(raw)
    assert main(["invariants", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, named",
    [
        ({"complex": {"n": 1, "maximal_faces": [[0]]}, "weights": {"h": [0.1]}}, "weights[h][0]"),
        ({"complex": {"n": 2, "maximal_faces": [[0, 1]]}, "weights": {"h": ["1", True]}},
         "weights[h][1]"),
        ({"complex": {"n": True, "maximal_faces": [[False]]}}, "complex.n"),
        ({"complex": {"n": 1, "maximal_faces": [[False]]}}, "complex.maximal_faces[0][0]"),
        ({"complex": {"n": 2.0, "maximal_faces": [[0]]}}, "complex.n"),
        ({"hypergraph": {"n": True, "edges": []}}, "hypergraph.n"),
        ({"hypergraph": {"n": 2, "edges": [[0, 1.0]]}}, "hypergraph.edges[0][1]"),
        ({"parts": [[0], [True]]}, "parts[1][0]"),
        ({"matroids": [{"kind": "uniform", "n": 3, "rank": True}]}, "matroids[0].rank"),
        ({"matroids": [{"kind": "uniform", "n": 3.0, "rank": 1}]}, "matroids[0].n"),
        ({"matroids": [{"kind": "gen_partition", "n": True, "parts": [[0]], "caps": [1]}]},
         "matroids[0].n"),
        ({"matroids": [{"kind": "gen_partition", "parts": [[0, False]], "caps": [1]}]},
         "matroids[0].parts[0][1]"),
        ({"matroids": [{"kind": "gen_partition", "parts": [[0, 1]], "caps": [1.0]}]},
         "matroids[0].caps[0]"),
        ({"matroids": [{"kind": "graphic", "vertices": 2.0, "edges": [[0, 1]]}]},
         "matroids[0].vertices"),
        ({"matroids": [{"kind": "graphic", "vertices": 2, "edges": [[0, True]]}]},
         "matroids[0].edges[0][1]"),
        ({"matroids": [{"kind": "explicit", "n": 1, "maximal": [[True]]}]},
         "matroids[0].maximal[0][0]"),
        ({"complex": {"n": 1, "maximal_faces": [[0]]}, "weights": {"h": ["1/0"]}},
         "weights[h][0]"),
        ({"complex": {"n": 1, "maximal_faces": [[0]]}, "weights": {"h": ["abc"]}},
         "weights[h][0]"),
        ({"complex": {"n": 1, "maximal_faces": [[0]]}, "weights": {"h": [None]}},
         "weights[h][0]"),
    ],
)
def test_cli_rejects_booleans_and_floats_as_numbers(raw, named, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match=re.escape(named)):
        instance_from_dict(raw)
    assert main(["invariants", str(path), "--what", "chi_star"]) == 2
    captured = capsys.readouterr()
    assert f"{named}: expected an integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"complex": {"n": -1, "maximal_faces": []}},
         "complex.n: expected a non-negative integer, got -1"),
        ({"complex": {"n": 3, "maximal_faces": [[0, -1]]}},
         "complex.maximal_faces[0][1]: expected a non-negative integer, got -1"),
        ({"hypergraph": {"n": 3, "edges": [[0, -2]]}},
         "hypergraph.edges[0][1]: expected a non-negative integer, got -2"),
    ],
)
def test_cli_rejects_negative_integers(raw, message, tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match=re.escape(message)):
        instance_from_dict(raw)
    assert main(["invariants", str(path), "--what", "chi"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_cli_chi_names_the_vertex_in_no_face(tmp_path, capsys):
    path = tmp_path / "uncovered.json"
    path.write_text('{"complex": {"n": 3, "maximal_faces": [[0, 1]]}}')
    assert main(["invariants", str(path), "--what", "chi"]) == 2
    assert "error: vertex 2 lies in no face" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [
        {"complex": {"n": 10**12, "maximal_faces": [[0, 1]]}},
        {"hypergraph": {"n": 10**12, "edges": [[0, 1]]}},
        {"matroids": [{"kind": "uniform", "rank": 1, "n": 10**12}]},
    ],
)
def test_cli_huge_ground_set_exits_2_in_one_line(raw, tmp_path):
    # the ground-set mask alone needs 125 GB; the child caps its own
    # address space first, so the allocation fails at once
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    code = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
        "from mtk.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(mtk.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, "invariants", str(path), "--what", "chi"],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (2, "error: out of memory\n", "")


def test_cli_invariants_rejects_an_unknown_name_before_any_work(tmp_path, capsys):
    # chi alone would fail on the vertex in no face; the bad name is named first
    path = tmp_path / "uncovered.json"
    path.write_text('{"complex": {"n": 3, "maximal_faces": [[0, 1]]}}')
    assert main(["invariants", str(path), "--what", "chi,bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown invariant 'bogus'; known: eta_h, chi,")
    assert captured.out == ""


def test_cli_topology_of_a_hypergraph_only_instance(tmp_path, capsys):
    # the independence complex of the path 0-1-2-3 is contractible
    path = tmp_path / "path.json"
    path.write_text('{"hypergraph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}}')
    argv = ["invariants", str(path), "--what", "eta_h,expansions,homology", "--report", "jsonl"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {
        "eta_h": "inf",
        "delta_r": "2",
        "delta": "3",
        "delta_eta": "3",
        "delta_h": "3",
        "betti": [0, 0],
        "torsion": [False, False],
    }


def test_cli_names_an_instance_without_the_input_a_command_needs(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert main(["invariants", str(path)]) == 2
    assert "error: instance holds no complex, system, or hypergraph" in capsys.readouterr().err
    path.write_text('{"hypergraph": {"n": 2, "edges": [[0, 1]]}}')
    assert main(["ratio", str(path)]) == 2
    assert "error: ratio needs a matroid system" in capsys.readouterr().err


def test_a_violation_payload_does_not_import_the_cli():
    code = (
        "import sys\n"
        "from mtk import verify\n"
        "from mtk.core import Hypergraph\n"
        "payload = verify._payload(hypergraph=Hypergraph(3, [3, 6]), extra={'edge': [0, 1]})\n"
        "assert payload['hypergraph'] == {'n': 3, 'edges': [[0, 1], [1, 2]]}, payload\n"
        "assert 'mtk.cli' not in sys.modules\n"
    )
    src = str(Path(mtk.__file__).parents[1])
    subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=60, env={"PYTHONPATH": src}
    )


def test_python_dash_m_mtk_runs_the_cli():
    src = str(Path(mtk.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "mtk", "--help"],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mtk ")


def test_cli_verify_names_ignored_overrides(capsys):
    assert main(["verify", "matdim", "--seed", "1", "--max-n", "5"]) == 0
    assert "suite 'matdim' ignores max_n" in capsys.readouterr().err


def test_run_all_names_only_overrides_no_suite_accepts(monkeypatch, capsys):
    seen = {}

    def capped(rng, max_n=9):
        seen["max_n"] = max_n
        return []

    def fixed(rng=None):
        return []

    monkeypatch.setattr(verify, "SUITES", {"capped": capped, "fixed": fixed})
    assert verify.run_suite("all", max_n=3, max_k=2) == []
    assert seen == {"max_n": 3}
    assert capsys.readouterr().err.strip() == "warning: suite 'all' ignores max_k"


SYSTEM_N3 = {
    "matroids": [
        {"kind": "uniform", "n": 3, "rank": 2},
        {"kind": "uniform", "n": 3, "rank": 1},
    ]
}


def test_cli_reads_int_and_string_weights(tmp_path, capsys):
    raw = {**SYSTEM_N3, "weights": {"h": [1, "1/3", "0.1"]}}
    assert list(instance_from_dict(raw).weights["h"]) == [1, Fraction(1, 3), Fraction(1, 10)]
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(raw))
    assert main(["invariants", str(path), "--what", "chi_star", "--report", "jsonl"]) == 0
    # the intersection is the rank-1 complex, so chi* is the total weight
    assert json.loads(capsys.readouterr().out) == {"chi_star": "43/30"}


@pytest.mark.parametrize(
    "weights, what, message",
    [
        ({"h": ["1", "1"]}, "chi_star", "weight vector length mismatch"),
        ({"h": ["1", "1"]}, "expansions", "weight vector length mismatch"),
        ({"h": ["1", "-1", "1"]}, "chi_star", "weights must be non-negative"),
        ({"h": ["1", "-1", "1"]}, "expansions", "weights must be non-negative"),
        ({"w": ["1", "1", "1", "1"]}, "numbers", "weight vector length mismatch"),
    ],
)
def test_cli_invariants_rejects_bad_weight_vectors(weights, what, message, tmp_path, capsys):
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps({**SYSTEM_N3, "weights": weights}))
    assert main(["invariants", str(path), "--what", what]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (["list-bounds", "--max-k", "1"], "--max-k"),
        (["duality-chain", "--max-k", "0"], "--max-k"),
        (["seymour", "--max-n", "1"], "--max-n"),
        (["edmonds-k2", "--max-n", "-1"], "--max-n"),
        (["williams", "--max-n", "0"], "--max-n"),
        (["all", "--max-k", "1"], "--max-k"),
    ],
)
def test_cli_verify_rejects_caps_below_two(argv, option, capsys):
    assert main(["verify", *argv, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert f"{option} must be at least 2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("suite", ["edmonds-k2", "williams", "duality-chain", "ratio-rq"])
def test_cli_verify_max_n_caps_every_instance(suite, capsys):
    assert main(["verify", suite, "--seed", "1", "--max-n", "3", "--report", "jsonl"]) == 0
    sizes = [
        int(m) for line in capsys.readouterr().out.splitlines()
        for m in re.findall(r"\(n=(\d+)", json.loads(line)["instance"])
    ]
    assert sizes and max(sizes) == 3


def test_ratio_rq_skips_past_the_vertex_cap_after_drawing(monkeypatch):
    drawn = []

    def spy_rand_system(rng, n, k, **kw):
        drawn.append(n)
        return rand_system(rng, n, k, **kw)

    monkeypatch.setattr(verify, "rand_system", spy_rand_system)
    records = verify.suite_ratio_rq(random.Random(1), max_n=9)
    assert drawn == [3, 4, 4, 5, 5, 9] * 2
    skipped = [r for r in records if r.verdict == "skipped(cap)"]
    assert [r.instance for r in skipped] == ["#5(n=9,k=3)", "#11(n=9,k=2)"]
    assert skipped[0].witness == {"note": "n > 8, the vertex enumeration's cap on n"}
    assert all(r.verdict == "holds" for r in records if r not in skipped)


def test_whitney_catalog_drops_matroids_past_max_n():
    assert all(m.n <= 3 for _, m in verify.whitney_catalog(3))
    assert len(verify.whitney_catalog(3)) < len(verify.whitney_catalog(9))
    assert max(m.n for _, m in verify.whitney_catalog(9)) == 9
