import copy
import dataclasses
import gc
import hashlib
import io
import json
import random
import weakref

import pytest

import oracles
from pulseforge import harness
from pulseforge.harness import (
    GenerationError,
    GeneratorSpec,
    SWEEP_COLUMNS,
    SWEEP_SCHEMA,
    builtin_tree,
    complete_binary_tree,
    expected_total_pulses,
    generate,
    mirrored_tree,
    oracle_expected_leader,
    path_tree,
    random_asymmetric_tree,
    random_tree,
    resolve_tree,
    star_tree,
    stabilizing_pair_total,
    sweep_rows,
    verify_model_check,
    verify_outcome,
    write_csv,
    write_json,
)
from pulseforge.protocol import OddDiameterError, SymmetricTreeError
from pulseforge.simulator import (
    SeededRandom,
    explore_all_schedules,
    new_simulation,
    run,
)
from pulseforge.topology import (
    TreeTopology,
    is_edge_symmetric,
    layer_decomposition,
)


def test_structured_generators():
    assert path_tree(5).edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert star_tree(4).edges() == [(0, 1), (0, 2), (0, 3)]
    cbt = complete_binary_tree(2)
    assert cbt.n == 7
    assert layer_decomposition(cbt).diameter == 4
    assert generate(GeneratorSpec("path", n=5)).edges() == \
        path_tree(5).edges()


@pytest.fixture
def unbuilt(monkeypatch):
    """Tree builders that record their size instead of building."""
    built = []
    for name in ("path_tree", "star_tree", "complete_binary_tree",
                 "random_tree"):
        monkeypatch.setattr(harness, name,
                            lambda size, *rest: built.append(size))
    return built


def test_trees_past_the_vertex_cap_are_refused_unbuilt(unbuilt):
    cap = harness.MAX_VERTICES
    assert cap == 2 ** 20
    # binary19 has 2**20 - 1 vertices, binary20 2**21 - 1.
    for name in ("path%d" % cap, "star%d" % cap, "binary19"):
        builtin_tree(name)
    for spec in (GeneratorSpec("path", n=cap),
                 GeneratorSpec("random", n=cap, seed=1),
                 GeneratorSpec("complete-binary", radius=19)):
        generate(spec)
    assert unbuilt == [cap, cap, 19, cap, cap, 19]
    for name in ("path%d" % (cap + 1), "star%d" % (cap + 1), "binary20",
                 "binary%d" % 10 ** 12):
        with pytest.raises(ValueError, match="more than 1048576 vertices"):
            builtin_tree(name)
    for spec in (GeneratorSpec("star", n=cap + 1),
                 GeneratorSpec("random-asymmetric", n=10 ** 10, seed=1),
                 GeneratorSpec("complete_binary", radius=10 ** 12)):
        with pytest.raises(ValueError, match="more than 1048576 vertices"):
            generate(spec)
    assert len(unbuilt) == 6


def test_random_tree_is_seed_deterministic():
    a = random_tree(9, 123)
    b = random_tree(9, 123)
    c = random_tree(9, 124)
    assert a.edges() == b.edges()
    assert a.edges() != c.edges() or a.n == c.n  # same seed, same tree
    shapes = {tuple(sorted(random_tree(4, s).edges())) for s in range(30)}
    assert len(shapes) > 1


def test_random_tree_hits_every_labeled_shape():
    # uniform over Prüfer sequences: every labeled 3-vertex tree shows up
    seen = {tuple(random_tree(3, s).edges()) for s in range(60)}
    assert len(seen) == 3


def _ports(t):
    return t.neighbors, t.back_ports


def test_random_tree_equals_the_heap_decoder():
    # The linear decoder and its getrandbits draws against the textbook
    # heap decoder over randrange: same edges in the same order, so the
    # same ports.
    cases = [(n, s) for n in range(3, 61) for s in range(100)]
    cases += [(n, s) for n in (1000, 5000) for s in range(3)]
    for n, s in cases:
        edges = oracles.prufer_random_edges(n, random.Random(s))
        assert _ports(random_tree(n, s)) == oracles.ports_of(n, edges)
        # Ports do not show which end of an edge comes first; the list
        # handed to TreeTopology does.
        seq = harness._prufer_draws(random.Random(s), n)
        assert harness._prufer_decode(seq, n) == edges, (n, s)


class _FloatDraws(random.Random):
    """Overrides random() alone, so randrange draws from random()."""

    def random(self):
        return super().random()


@pytest.mark.parametrize("make", [random.Random, _FloatDraws])
def test_random_tree_draws_what_randrange_draws_from_a_given_rng(make):
    differ = 0
    for n in (3, 7, 40, 1000):
        for s in range(5):
            rng, ref = make(s), make(s)
            want = oracles.prufer_random_edges(n, ref)
            assert _ports(random_tree(n, rng)) == oracles.ports_of(n, want)
            # The next draw is the same too, as random_asymmetric_tree
            # draws its retries from one rng.
            assert rng.getstate() == ref.getstate()
            differ += want != oracles.prufer_random_edges(
                n, random.Random(s))
    # random() draws differ from getrandbits draws, so the subclass
    # case checks that they are the ones made.
    assert (differ > 0) == (make is _FloatDraws)


@pytest.mark.parametrize("make, args, digest", [
    (random_asymmetric_tree, (6, 3), "5198eb58e71a24fb"),   # six draws
    (random_asymmetric_tree, (10, 1), "910f10c81f3d6444"),
    (random_asymmetric_tree, (200, 7), "ecc57fe6180b20e1"),
    (random_asymmetric_tree, (1000, 3), "52346d8ff8d6afe5"),
    (mirrored_tree, (1, 0), "83458fcbdf2a8153"),
    (mirrored_tree, (5, 2), "d6704670b998cc30"),
    (mirrored_tree, (300, 4), "7fcd86d265f2497b"),
])
def test_derived_generators_are_pinned(make, args, digest):
    t = make(*args)
    got = hashlib.sha256(repr(_ports(t)).encode()).hexdigest()[:16]
    assert got == digest


def test_random_asymmetric_tree_always_passes_the_gate():
    for i in range(40):
        n = random.Random(i).randint(3, 12)
        t = random_asymmetric_tree(n, seed=i)
        assert not is_edge_symmetric(t).symmetric


def test_random_asymmetric_tree_impossible_for_two_vertices():
    with pytest.raises(GenerationError):
        random_asymmetric_tree(2, seed=0)


def test_mirrored_tree_is_symmetric_by_construction():
    for i in range(20):
        t = mirrored_tree(random.Random(i).randint(1, 6), seed=i)
        assert is_edge_symmetric(t).symmetric
        assert oracles.brute_force_symmetric(t) is not None


def test_oracle_expected_leader():
    assert oracle_expected_leader(path_tree(5)) == 2
    assert oracle_expected_leader(path_tree(3)) == 1
    assert oracle_expected_leader(resolve_tree("c5")) == 2
    with pytest.raises(SymmetricTreeError):
        oracle_expected_leader(path_tree(2))
    with pytest.raises(SymmetricTreeError):
        oracle_expected_leader(path_tree(4))


def test_expected_total_pulses_frozen_values():
    assert expected_total_pulses(path_tree(3), "even") == 4
    assert expected_total_pulses(path_tree(5), "even") == 10
    assert expected_total_pulses(path_tree(7), "even") == 18
    assert expected_total_pulses(complete_binary_tree(1), "even") == 4
    assert expected_total_pulses(complete_binary_tree(2), "even") == 16
    assert expected_total_pulses(complete_binary_tree(3), "even") == 48
    assert expected_total_pulses(resolve_tree("c5"), "general") == 11
    assert expected_total_pulses(path_tree(3), "general") == 4
    assert expected_total_pulses(path_tree(5), "general") == 10
    with pytest.raises(OddDiameterError):
        expected_total_pulses(resolve_tree("c5"), "even")


def test_verify_outcome_even_binary2_all_pass():
    t = complete_binary_tree(2)
    outcome = run(new_simulation(t, "even", record_trace=True),
                  SeededRandom(4), 10 ** 4)
    assert outcome.total_pulses == 16
    report = verify_outcome(outcome, t, "even")
    assert report["ok"], report
    names = {c["name"] for c in report["checks"]}
    assert {"completed", "unique_leader", "leader_matches_oracle",
            "exact_total", "direction"} <= names


def test_verify_outcome_rejects_wrong_total():
    t = resolve_tree("c5")
    outcome = run(new_simulation(t, "general"), SeededRandom(4), 500)
    doctored = copy.deepcopy(outcome)
    doctored.total_pulses = 12
    report = verify_outcome(doctored, t, "general")
    assert not report["ok"]
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert failed == {"exact_total"}
    fail = next(c for c in report["checks"] if c["name"] == "exact_total")
    assert fail["expected"] == 11 and fail["observed"] == 12


def test_verify_outcome_stabilizing_p2():
    t = path_tree(2)
    outcome = run(new_simulation(t, "stabilizing", [3, 5]),
                  SeededRandom(0), 500)
    report = verify_outcome(outcome, t, "stabilizing")
    assert report["ok"], report
    bound = next(c for c in report["checks"] if c["name"] == "total_bound")
    assert bound["expected"] == "<= 11"
    assert stabilizing_pair_total(t, (3, 5), 0, (1,)) == 10


def test_verify_outcome_flags_budget_exhaustion():
    t = path_tree(7)
    outcome = run(new_simulation(t, "even"), SeededRandom(0), 3)
    report = verify_outcome(outcome, t, "even")
    assert not report["ok"]
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert "completed" in failed


def test_verify_model_check_passes_real_reports():
    for name, alg, ids in (("path5", "even", None), ("c5", "general", None),
                           ("path4", "stabilizing", [4, 1, 3, 2])):
        t = resolve_tree(name)
        report = explore_all_schedules(t, alg, ids)
        verdict = verify_model_check(report, t, ids)
        assert verdict["ok"], verdict


def _failed_mc_checks(report, t):
    verdict = verify_model_check(report, t)
    assert not verdict["ok"]
    return {c["name"] for c in verdict["checks"] if not c["ok"]}


def test_verify_model_check_names_each_doctored_failure():
    t = resolve_tree("c5")
    report = explore_all_schedules(t, "general")
    (cls,) = report.terminal_classes
    other = dataclasses.replace(cls, per_edge_sent=cls.per_edge_sent[::-1])
    two_classes = dataclasses.replace(
        report, terminal_classes=[cls, other], confluent=False)
    assert _failed_mc_checks(two_classes, t) == {"confluent"}
    wrong_total = dataclasses.replace(
        report, terminal_classes=[dataclasses.replace(cls, total_pulses=12)])
    assert _failed_mc_checks(wrong_total, t) == {"exact_total"}
    loud = dataclasses.replace(report, nonquiescent_declarations=1)
    assert _failed_mc_checks(loud, t) == {"nonquiescent_declarations"}


def _sweep(specs, algorithm, seeds, budget=0):
    """The rows of sweep_rows and the failed checks of every row."""
    results = list(sweep_rows(specs, algorithm, seeds, budget=budget))
    return [row for row, _ in results], [c for _, fs in results for c in fs]


def test_sweep_releases_its_trees(monkeypatch):
    refs = []
    real_generate = harness.generate

    def tracked(spec):
        # A subclass without __slots__ accepts weak references.
        t = real_generate(spec)
        t = type("Tracked", (TreeTopology,), {})(t.n, t.edges())
        refs.append(weakref.ref(t))
        return t

    monkeypatch.setattr(harness, "generate", tracked)
    rows, failures = _sweep([GeneratorSpec("random-asymmetric", n=7)],
                            "general", seeds=range(5))
    assert not failures and len(rows) == len(refs) == 5
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_sweep_rows_reproducible_and_sorted():
    specs = [GeneratorSpec("random-asymmetric", n=n) for n in (5, 6, 7)]
    a, failures = _sweep(specs, "general", seeds=[0, 1, 2])
    b, _ = _sweep(specs, "general", seeds=[2, 0, 1])
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time"}
                          for r in rows]
    assert strip(a) == strip(b)
    assert not failures
    keys = [(r["generator"], r["n"], r["algorithm"], r["seed"]) for r in a]
    assert keys == sorted(keys)
    assert all(r["status"] == "terminated" for r in a)


def test_sweep_even_binary_bound_is_exact():
    rows, failures = _sweep([GeneratorSpec("complete-binary", radius=r)
                             for r in (1, 2, 3)], "even", seeds=range(5))
    assert not failures and len(rows) == 15
    for row in rows:
        assert row["bound_ok"] and row["leader_ok"]
        assert row["pulses"] == row["bound"]


def test_sweep_stabilizing_bound_is_3n_minus_1():
    rows, failures = _sweep([GeneratorSpec("random", n=6)], "stabilizing",
                            seeds=range(10))
    assert not failures and len(rows) == 10
    for row in rows:
        assert row["bound"] == 17
        assert row["pulses"] <= 17
        assert row["status"] in ("stabilized", "terminated")


def test_sweep_csv_schema():
    buf = io.StringIO()
    failures = write_csv(buf, sweep_rows([GeneratorSpec("path", n=3)],
                                         "even", seeds=[0]))
    assert failures == []
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "# pulseforge sweep schema v1"
    assert lines[1] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert cells[0] == "path(n=3)"
    assert cells[6] == "true" and cells[9] == "true"


def test_a_streamed_json_sweep_equals_the_report():
    sweeps = [list(sweep_rows([GeneratorSpec("path", n=3)], "even",
                              range(3))),
              list(sweep_rows([GeneratorSpec("path", n=5)], "even", [0, 1],
                              budget=3)),
              list(sweep_rows([GeneratorSpec("star", n=4)], "even", [7])),
              []]
    assert [len(results) for results in sweeps] == [3, 2, 1, 0]
    assert all(failed for _, failed in sweeps[1])
    for results in sweeps:
        rows = [row for row, _ in results]
        failures = [c for _, failed in results for c in failed]
        buf = io.StringIO()
        assert write_json(buf, iter(results)) == failures
        document = {"passed": not failures, "rows": rows,
                    "schema": SWEEP_SCHEMA}
        assert buf.getvalue() == json.dumps(document, sort_keys=True,
                                            indent=2) + "\n"


def test_builtin_trees():
    assert builtin_tree("single").n == 1
    assert builtin_tree("path6").n == 6
    assert builtin_tree("star5").n == 5
    assert builtin_tree("binary2").n == 7
    assert builtin_tree("c5").edges() == [(0, 2), (1, 2), (2, 3), (3, 4)]
    assert builtin_tree("widget9") is None


def test_resolve_tree_reads_files(tmp_path):
    f = tmp_path / "t.edges"
    f.write_text("0 1\n1 2\n1 3\n")
    t = resolve_tree(str(f))
    assert t.n == 4 and t.degree(1) == 3
    with pytest.raises(ValueError):
        resolve_tree("no-such-thing")
