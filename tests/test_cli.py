import dataclasses
import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest

import oracles
import pulseforge
import pulseforge.cli
from pulseforge import harness
from pulseforge.cli import cli
from pulseforge.topology import TreeTopology, encode_parens

# pulseforge.cli names the function; the submodule is reached this way.
cli_module = importlib.import_module("pulseforge.cli")


def run_cli(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mc_path3_even(capsys):
    code, out, err = run_cli(capsys, "mc", "--tree", "path3", "--alg", "even")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["confluent"] is True
    assert doc["leaders"] == [1]
    assert doc["terminal_classes"][0]["total_pulses"] == 4


def test_mc_general_c5(capsys):
    code, out, err = run_cli(capsys, "mc", "--tree", "c5", "--alg", "general")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["leaders"] == [2]
    assert doc["halted_delivery_transitions"] == 0
    assert doc["nonquiescent_declarations"] == 0


def test_run_symmetric_tree_is_usage_error(tmp_path, capsys):
    f = tmp_path / "p4.edges"
    f.write_text("0 1\n1 2\n2 3\n")
    code, out, err = run_cli(capsys, "run", "--tree", str(f),
                             "--alg", "general")
    assert code == 2
    assert "SymmetricTree" in err


def test_run_even_emits_outcome_json(capsys):
    code, out, err = run_cli(capsys, "run", "--tree", "binary2",
                             "--alg", "even", "--seed", "5")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["status"] == "terminated"
    assert doc["total_pulses"] == 16
    assert doc["seed"] == 5


def test_run_writes_trace_jsonl(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, out, err = run_cli(capsys, "run", "--tree", "c5", "--alg",
                             "general", "--trace", str(trace))
    assert code == 0, err
    lines = trace.read_text().strip().splitlines()
    doc = json.loads(out)
    assert len(lines) == doc["deliveries"]
    first = json.loads(lines[0])
    assert set(first) == {"step", "edge", "receiver_state_digest",
                          "actions", "in_flight_total"}


# (tree, algorithm, --ids, --seed) -> sha256 of the whole JSONL file
# that `run --trace` writes. Beyond the receiver digests, this pins
# each delivery's actions: the sends, then any declaration and halt.
RUN_TRACE_FILES = [
    ("c5", "general", None, 0, "a5304f3a634ddce5"),
    ("c5", "general", None, 3, "c1f600213af41462"),
    ("binary2", "even", None, 0, "8f50855de07760ed"),
    ("binary2", "even", None, 3, "cb476e60dd767640"),
    ("path6", "stabilizing", "4,1,6,2,5,3", 0, "76f2fca114d6ae9e"),
    ("path6", "stabilizing", "4,1,6,2,5,3", 3, "f384a0069646afee"),
]


@pytest.mark.parametrize("tree,alg,ids,seed,want", RUN_TRACE_FILES)
def test_run_trace_files_are_pinned(tmp_path, capsys, tree, alg, ids, seed,
                                    want):
    trace = tmp_path / "trace.jsonl"
    argv = ["run", "--tree", tree, "--alg", alg, "--seed", str(seed),
            "--trace", str(trace)]
    if ids is not None:
        argv += ["--ids", ids]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(trace.read_bytes()).hexdigest()[:16] == want


def test_package_cli_stays_the_function_after_submodule_import():
    assert callable(pulseforge.cli)
    assert pulseforge.cli is cli


def test_run_stabilizing_default_budget_follows_ids(capsys):
    code, out, err = run_cli(capsys, "run", "--tree", "path2", "--alg",
                             "stabilizing", "--ids", "1000,2000")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["status"] == "stabilized"
    assert doc["leader"] == 0 and doc["total_pulses"] == 3002


def test_mc_failure_exits_1_and_names_the_check(capsys, monkeypatch):
    real = cli_module.explore_all_schedules

    def doctored(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs),
                                   nonquiescent_declarations=1)

    monkeypatch.setattr(cli_module, "explore_all_schedules", doctored)
    code, out, err = run_cli(capsys, "mc", "--tree", "c5", "--alg", "general")
    assert code == 1
    assert err == ("check failed: nonquiescent_declarations "
                   "(expected 0, observed 1)\n")


def test_run_stabilizing_requires_ids(capsys):
    code, out, err = run_cli(capsys, "run", "--tree", "path3",
                             "--alg", "stabilizing")
    assert code == 2
    assert "MissingIds" in err


def test_run_duplicate_ids_rejected(capsys):
    code, out, err = run_cli(capsys, "run", "--tree", "path3",
                             "--alg", "stabilizing", "--ids", "1,1,2")
    assert code == 2
    assert "DuplicateIds" in err


@pytest.mark.parametrize("command,alg,tree,ids", [
    ("run", "even", "path3", "1,2,3"),
    ("mc", "general", "c5", "1,2,3,4,5"),
])
def test_rule_driven_algorithms_reject_ids(capsys, command, alg, tree, ids):
    code, out, err = run_cli(capsys, command, "--tree", tree, "--alg", alg,
                             "--ids", ids)
    assert code == 2
    assert out == ""
    assert err == "error: ValueError: the %s algorithm takes no IDs\n" % alg


def test_run_tiny_budget_fails_checks(capsys):
    code, out, err = run_cli(capsys, "run", "--tree", "path7",
                             "--alg", "even", "--budget", "2")
    assert code == 1
    assert "check failed" in err


def test_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("PULSEFORGE_SEED", "77")
    code, out, err = run_cli(capsys, "run", "--tree", "path3",
                             "--alg", "even")
    assert code == 0
    assert json.loads(out)["seed"] == 77


@pytest.mark.parametrize("argv", [["run", "--tree", "path3", "--alg", "even"],
                                  ["sweep", "--gen", "path", "--n", "3",
                                   "--alg", "even"]])
def test_a_non_integer_seed_in_the_environment_exits_2(capsys, monkeypatch,
                                                        argv):
    # The subcommands that take --seed read the variable.
    monkeypatch.setenv("PULSEFORGE_SEED", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == ("error: ValueError: PULSEFORGE_SEED must be an integer, "
                   "got 'abc'\n")


@pytest.mark.parametrize("argv", [
    ["layers", "--tree", "path3"],
    ["symmetry", "--tree", "path3"],
    ["rules", "--tree", "path3", "--alg", "even"],
    ["mc", "--tree", "path3", "--alg", "even"],
    ["encode", "--tree", "path3"],
    ["decode", "(())"],
    ["run", "--tree", "path3", "--alg", "even", "--seed", "4"],
], ids=lambda argv: argv[0] + ("-seed" if "--seed" in argv else ""))
def test_commands_that_need_no_seed_ignore_a_bad_one(capsys, monkeypatch,
                                                     argv):
    monkeypatch.setenv("PULSEFORGE_SEED", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert err == ""
    assert out


def test_rules_even_and_general(capsys):
    code, out, _ = run_cli(capsys, "rules", "--tree", "path5",
                           "--alg", "even")
    assert code == 0
    assert "algorithm=even" in out
    code, out, _ = run_cli(capsys, "rules", "--tree", "c5",
                           "--alg", "general")
    assert code == 0
    assert "shapes=3" in out
    code, _, err = run_cli(capsys, "rules", "--tree", "c5", "--alg", "even")
    assert code == 2  # odd diameter


def test_layers_output(capsys):
    code, out, _ = run_cli(capsys, "layers", "--tree", "c5")
    assert code == 0
    doc = json.loads(out)
    assert doc["root"] == 2 and doc["co_root"] == 3
    assert doc["quota_of"] == [2, 2, 0, 1, 2]


def _hanging_subtree(t, layer_of, v):
    """The subtree hanging at v over its lower-layer neighbours, cut out
    as a tree of its own with v as vertex 0."""
    order = [v]
    edges = []
    for at, w in enumerate(order):
        for u in oracles.children_of(t, layer_of, w):
            edges.append((at, len(order)))
            order.append(u)
    return TreeTopology(len(order), edges)


def test_layers_prints_each_shape_as_its_hanging_subtree(tmp_path, capsys):
    f = tmp_path / "shape.edges"
    for n in range(1, 10):
        for k, edges in enumerate(oracles.nonisomorphic_trees(n)):
            perm = list(range(n))
            random.Random(1000 * n + k).shuffle(perm)
            t = TreeTopology(n, [(perm[u], perm[v]) for u, v in edges])
            f.write_text("".join("%d %d\n" % e for e in t.edges()))
            code, out, err = run_cli(capsys, "layers", "--tree", str(f))
            assert code == 0, err
            doc = json.loads(out)
            layer_of = [None] * n
            for i, block in enumerate(doc["layers"]):
                for v in block:
                    layer_of[v] = i
            assert len(doc["canonical"]) == doc["shape_count"]
            assert set(doc["class_of"]) == set(
                range(1, doc["shape_count"] + 1))
            for v, c in enumerate(doc["class_of"]):
                assert doc["canonical"][c - 1] == encode_parens(
                    _hanging_subtree(t, layer_of, v), 0), (t.edges(), v)


@pytest.mark.parametrize("argv", [
    ["layers", "--tree", "binary40"],
    ["sweep", "--gen", "path", "--n", "10000000000", "--alg", "even"]])
def test_oversized_inputs_exit_2_before_building(capsys, monkeypatch, argv):
    for name in ("path_tree", "star_tree", "complete_binary_tree",
                 "random_tree"):
        monkeypatch.setattr(harness, name, None)   # a build would raise
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "more than 1048576 vertices" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--gen", "path", "--n", "1..10000000000", "--alg", "even"],
    ["sweep", "--gen", "complete-binary", "--radius", "1..40",
     "--alg", "even"]])
def test_oversized_sweep_ranges_exit_2_before_any_row(capsys, monkeypatch,
                                                      argv):
    def generate(spec):
        raise AssertionError("generated %r" % (spec,))
    monkeypatch.setattr(harness, "generate", generate)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "more than 1048576 vertices" in err


def test_an_edge_list_past_its_pair_count_exits_2_unbuilt(tmp_path, capsys,
                                                         monkeypatch):
    f = tmp_path / "far.edges"
    f.write_text("0 100000000\n")
    monkeypatch.setattr(pulseforge.topology, "TreeTopology", None)
    code, out, err = run_cli(capsys, "layers", "--tree", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: DisconnectedError: ")
    assert len(err.splitlines()) == 1


def test_symmetry_output(capsys):
    code, out, _ = run_cli(capsys, "symmetry", "--tree", "path4")
    assert code == 0
    assert json.loads(out) == {"symmetric": True, "witness_edge": [1, 2]}
    code, out, _ = run_cli(capsys, "symmetry", "--tree", "c5")
    assert json.loads(out)["symmetric"] is False


def test_sweep_csv_to_file(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--gen", "complete-binary", "--radius", "1..3",
        "--alg", "even", "--seeds", "4", "--format", "csv",
        "--out", str(out_file))
    assert code == 0, err
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "# pulseforge sweep schema v1"
    assert len(lines) == 2 + 3 * 4
    assert all(",true," in line for line in lines[2:])


def test_sweep_failure_names_row_and_check(capsys):
    code, _, err = run_cli(capsys, "sweep", "--gen", "path", "--n", "5",
                           "--alg", "even", "--seeds", "1", "--budget", "3")
    assert code == 1
    assert ("check failed: path(n=5) seed 0: completed "
            "(expected terminated, observed budget_exhausted)") in err


def test_sweep_json_reproducible(capsys):
    argv = ["sweep", "--gen", "random-asymmetric", "--n", "4..6",
            "--alg", "general", "--seeds", "2", "--seed", "3"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    scrub = lambda text: [
        {k: v for k, v in row.items() if k != "wall_time"}
        for row in json.loads(text)["rows"]]
    assert scrub(out1) == scrub(out2)


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_sweep_rejects_an_empty_seed_range(capsys, seeds):
    code, out, err = run_cli(capsys, "sweep", "--gen", "path", "--n", "5",
                             "--alg", "even", "--seeds", seeds)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--seeds" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("form", ["json", "csv"])
def test_sweep_rejects_a_negative_budget_before_writing(capsys, tmp_path,
                                                        form):
    argv = ("sweep", "--gen", "path", "--n", "5", "--alg", "even",
            "--budget", "-1", "--format", form)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: ValueError: --budget must not be negative, got -1\n"
    target = tmp_path / "sweep.out"
    code, out, _ = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert not target.exists()


def test_sweep_hands_over_its_seeds_as_a_range(capsys, monkeypatch):
    # A range of any length costs the same to build; a list of 10^10
    # seeds does not fit in memory. harness.sweep_rows iterates it.
    got = []

    def sweep_rows(specs, algorithm, seeds, budget):
        got.append(seeds)
        return iter(())
    monkeypatch.setattr(cli_module, "sweep_rows", sweep_rows)
    for form in ("json", "csv"):
        code, _, err = run_cli(capsys, "sweep", "--gen", "path", "--n", "3",
                               "--alg", "even", "--seeds", "3", "--seed",
                               "5", "--format", form)
        assert code == 0, err
    assert got == [range(5, 8)] * 2


def test_a_csv_sweep_writes_each_row_before_the_next_runs(capsys,
                                                          monkeypatch):
    # Rows run in their sorted order, where random(n=10) comes before
    # random(n=9), and each is written when it is done, so a long CSV
    # sweep holds no rows.
    started = []

    def sweep_one(spec, algorithm, seed, budget):
        started.append((spec.label(), seed, capsys.readouterr().out))
        return {"generator": spec.label(), "n": spec.n,
                "algorithm": algorithm, "seed": seed}, []
    monkeypatch.setattr(harness, "_sweep_one", sweep_one)
    code, out, err = run_cli(capsys, "sweep", "--gen", "random", "--n",
                             "9..10", "--alg", "even", "--seeds", "2",
                             "--format", "csv")
    assert code == 0, err
    assert [(label, seed) for label, seed, _ in started] == [
        ("random(n=10)", 0), ("random(n=10)", 1),
        ("random(n=9)", 0), ("random(n=9)", 1)]
    lines = "".join(text for _, _, text in started).splitlines()
    assert lines[2:] == ["random(n=10),10,,even,0,,,,,,",
                         "random(n=10),10,,even,1,,,,,,",
                         "random(n=9),9,,even,0,,,,,,"]
    assert out.splitlines() == ["random(n=9),9,,even,1,,,,,,"]


def test_a_json_sweep_spools_each_row_before_the_next_runs(capsys,
                                                            monkeypatch,
                                                            tmp_path):
    # "passed" comes before "rows", so no row can be printed before the
    # last has run; each is spooled to a file instead of held.
    spools = []
    real = tempfile.TemporaryFile

    def spool(*args, **kwargs):
        spools.append(real(*args, **kwargs))
        return spools[-1]
    monkeypatch.setattr(tempfile, "TemporaryFile", spool)
    started = []
    made = []

    def sweep_one(spec, algorithm, seed, budget):
        f = spools[-1]
        at = f.tell()
        f.seek(0)
        started.append((f.read(), capsys.readouterr().out))
        f.seek(at)
        row = {"generator": spec.label(), "n": spec.n, "seed": seed,
               "leader_ok": seed != 1, "wall_time": 0.25}
        failed = [{"name": "%s seed %d: completed" % (spec.label(), seed),
                   "ok": False, "expected": True, "observed": False}
                  ] if seed == 1 else []
        made.append((row, failed))
        return row, failed
    monkeypatch.setattr(harness, "_sweep_one", sweep_one)
    argv = ["sweep", "--gen", "random", "--n", "9..10", "--alg", "even",
            "--seeds", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and err.count("check failed") == 2
    assert len(started) == 4
    for k, (spooled, printed) in enumerate(started):
        assert printed == ""
        assert spooled.count('"generator"') == k
        for row, _ in made[:k]:
            assert json.dumps(row["seed"]) in spooled
    document = {"passed": False, "rows": [row for row, _ in made],
                "schema": harness.SWEEP_SCHEMA}
    assert out == json.dumps(document, sort_keys=True, indent=2) + "\n"
    target = tmp_path / "sweep.json"
    code, printed, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 1 and printed == ""
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("tree", ["single", "c5"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_mc_rejects_a_state_cap_below_one(capsys, tree, cap):
    code, out, err = run_cli(capsys, "mc", "--tree", tree, "--alg",
                             "general", "--max-states", cap)
    assert code == 2
    assert out == ""
    assert err == ("error: ValueError: max_states must be at least 1, "
                   "got %s\n" % cap)


@pytest.mark.parametrize("cap", ["10", str(2 ** 70)])
def test_mc_with_an_id_past_64_bits_exits_2(capsys, cap):
    # Its election sends 2**64 pulses down one edge, and delivering
    # them passes through more than 2**64 states.
    code, out, err = run_cli(capsys, "mc", "--tree", "path2", "--alg",
                             "stabilizing", "--ids", "1,%d" % 2 ** 64,
                             "--max-states", cap)
    assert code == 2
    assert out == ""
    assert err == "error: StateCapExceededError: more than %d states\n" \
        % min(int(cap), 2 ** 64)


def test_python_m_pulseforge_runs_the_cli():
    src = os.path.dirname(os.path.dirname(pulseforge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pulseforge", "run", "--tree", "single",
         "--alg", "general"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["status"] == "terminated"


@pytest.mark.parametrize("alg,extra", [("even", []), ("general", []),
                                       ("stabilizing", ["--ids", "4"])])
def test_run_single_vertex_passes_its_judge(capsys, alg, extra):
    code, out, err = run_cli(capsys, "run", "--tree", "single", "--alg",
                             alg, *extra)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["status"] == "terminated" and doc["leader"] == 0
    # The lone vertex declares at init, before any delivery.
    assert doc["leader_step"] == 0 and doc["in_flight_at_leader"] == 0


def test_sweep_of_single_vertices_passes(capsys):
    code, out, err = run_cli(capsys, "sweep", "--gen", "random", "--n", "1",
                             "--alg", "general", "--seeds", "2")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["passed"] is True and len(doc["rows"]) == 2


def test_sweep_requires_matching_size_flag(capsys):
    code, _, err = run_cli(capsys, "sweep", "--gen", "path",
                           "--alg", "even", "--seeds", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "sweep", "--gen", "complete-binary",
                           "--alg", "even", "--seeds", "1")
    assert code == 2


def test_encode_decode_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "encode", "--tree", "c5")
    assert code == 0
    assert out.strip() == "((())()())"
    code, out, _ = run_cli(capsys, "decode", "((())()())")
    assert code == 0
    edges = [tuple(map(int, line.split())) for line in out.strip().splitlines()]
    assert len(edges) == 4
    code, _, err = run_cli(capsys, "decode", "((()")
    assert code == 2


def test_usage_errors_return_2(capsys):
    assert run_cli(capsys, "run", "--tree", "nosuch", "--alg", "even")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_mc_out_of_memory_exits_2_in_one_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli_module, "explore_all_schedules", exhausted)
    code, out, err = run_cli(capsys, "mc", "--tree", "c5", "--alg", "general")
    assert code == 2 and out == ""
    assert err == "error: MemoryError: \n"


def test_rules_refuses_the_stabilizing_algorithm(capsys):
    code, out, err = run_cli(capsys, "rules", "--tree", "c5", "--alg",
                             "stabilizing")
    assert code == 2 and out == ""
    assert "invalid choice: 'stabilizing'" in err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--gen", "path", "--alg", "even", "--n", "5..3"],
     "error: ValueError: empty range '5..3'\n"),
    (["encode", "--tree", "c5", "--root", "9"],
     "error: ValueError: root 9 out of range\n"),
])
def test_bad_arguments_exit_2_in_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == message


def test_a_cycle_with_n_minus_one_edges_exits_2(tmp_path, capsys):
    # Four edges on five vertices, but 0-1-2 is a cycle and 3-4 apart.
    f = tmp_path / "cycle.edges"
    f.write_text("0 1 1 2 2 0 3 4\n")
    code, out, err = run_cli(capsys, "layers", "--tree", str(f))
    assert code == 2 and out == ""
    assert err == ("error: DisconnectedError: vertices unreachable from 0: "
                   "[3, 4]\n")


@pytest.mark.parametrize("argv", [
    ["layers", "--tree", "c5"],
    ["encode", "--tree", "c5"],
    ["rules", "--tree", "c5", "--alg", "general"],
])
def test_out_writes_what_stdout_would_show(tmp_path, capsys, argv):
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and out == "" and err == ""
    assert target.read_text(encoding="utf-8") == printed
