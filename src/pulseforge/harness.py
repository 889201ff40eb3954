"""Workload generation, ground-truth oracles, the judge of runs and
model checks, and batch experiments.

The oracles here recompute expected leaders and exact pulse totals
straight from the topology, without touching the protocol engine, so a
simulation outcome is always judged against numbers derived by a
second route.
"""

from __future__ import annotations

import csv
import heapq
import json
import os
import random
import re
import shutil
import tempfile
import time
from dataclasses import dataclass
from operator import itemgetter

from .protocol import LEADER, OddDiameterError, SymmetricTreeError
from .simulator import SeededRandom, new_simulation, run
from .topology import (
    TreeTopology,
    enumerate_subtrees,
    is_edge_symmetric,
    layer_decomposition,
    parse_edge_list,
)


# The largest tree builtin_tree and generate build. Past it, a name or
# size from the command line is refused before a vertex is allocated.
MAX_VERTICES = 2 ** 20
# Random draws random_asymmetric_tree makes before giving up.
MAX_RETRIES = 64


class GenerationError(RuntimeError):
    """Raised when a rejection-sampling generator runs out of retries."""


@dataclass
class GeneratorSpec:
    kind: str
    n: int | None = None
    radius: int | None = None
    seed: int | None = None

    def label(self):
        kind = self.kind.replace("_", "-")
        if kind == "complete-binary":
            return "complete-binary(radius=%d)" % self.radius
        return "%s(n=%d)" % (kind, self.n)


def path_tree(n):
    return TreeTopology(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(n):
    return TreeTopology(n, [(0, i) for i in range(1, n)])


def complete_binary_tree(radius):
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    n = 2 ** (radius + 1) - 1
    # Heap indexing: children of i are 2i+1 and 2i+2.
    return TreeTopology(n, [((i - 1) // 2, i) for i in range(1, n)])


def _prufer_decode(seq, n):
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_tree(n, seed):
    """Uniformly random labeled tree, decoded from a Prüfer sequence."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return TreeTopology(1, [])
    if n == 2:
        return TreeTopology(2, [(0, 1)])
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return TreeTopology(n, _prufer_decode(seq, n))


def random_asymmetric_tree(n, seed):
    rng = random.Random(seed)
    for _ in range(MAX_RETRIES):
        t = random_tree(n, rng)
        if not is_edge_symmetric(t).symmetric:
            return t
    raise GenerationError(
        "no asymmetric tree on %d vertices after %d draws" % (n, MAX_RETRIES))


def mirrored_tree(half_n, seed):
    """Edge-symmetric tree: a random half and its copy joined at the roots."""
    half = random_tree(half_n, seed)
    edges = list(half.edges())
    edges += [(u + half_n, v + half_n) for u, v in half.edges()]
    edges.append((0, half_n))
    return TreeTopology(2 * half_n, edges)


def _refuse_oversized(label, n):
    if n > MAX_VERTICES:
        raise ValueError("%s would have more than %d vertices"
                         % (label, MAX_VERTICES))


def _binary_size(radius):
    """2**(radius + 1) - 1, the vertices of a complete binary tree; a
    radius past the cap counts as one just past it, so that no huge
    integer is built."""
    return 2 ** (min(radius, MAX_VERTICES.bit_length()) + 1) - 1


def refuse_oversized_spec(spec):
    """Raise ValueError, building nothing, when spec's tree would have
    more than MAX_VERTICES vertices."""
    if spec.kind.replace("-", "_") == "complete_binary":
        _refuse_oversized(spec.label(), _binary_size(spec.radius))
    elif spec.n is not None:
        _refuse_oversized(spec.label(), spec.n)


def generate(spec):
    refuse_oversized_spec(spec)
    kind = spec.kind.replace("-", "_")
    if kind == "path":
        return path_tree(spec.n)
    if kind == "star":
        return star_tree(spec.n)
    if kind == "complete_binary":
        return complete_binary_tree(spec.radius)
    if kind == "random":
        return random_tree(spec.n, spec.seed)
    if kind == "random_asymmetric":
        return random_asymmetric_tree(spec.n, spec.seed)
    raise ValueError("unknown generator kind %r" % (spec.kind,))


def oracle_expected_leader(t):
    """The one vertex allowed to win: the center, or the higher-ranked
    end of the central edge when the diameter is odd."""
    report = is_edge_symmetric(t)
    if report.symmetric:
        # comparator tie on the central halves: no canonical winner
        raise SymmetricTreeError(report.witness_edge)
    return layer_decomposition(t).root


def expected_total_pulses(t, algorithm):
    """Exact pulse count for a clean run, from the topology alone."""
    layering = layer_decomposition(t)
    if algorithm == "even":
        if layering.diameter % 2 != 0:
            raise OddDiameterError("tree has odd diameter %d"
                                   % layering.diameter)
        r = layering.radius
        upstream = sum(r - layering.layer_of[v]
                       for v in range(t.n) if v != layering.root)
        return upstream + max(t.n - 1, 0)
    if algorithm == "general":
        index = enumerate_subtrees(t, layering)
        upstream = sum(index.quota_of(v)
                       for v in range(t.n) if v != layering.root)
        return upstream + max(t.n - 1, 0)
    raise ValueError("no static total for algorithm %r" % (algorithm,))


def stabilizing_pair_total(t, ids, leader, blocked):
    """Expected total for a stabilizing run that elected on one edge."""
    if t.n == 1:
        return 0
    if leader is None or len(blocked) != 1:
        return None
    return t.n + ids[leader] + ids[blocked[0]]


def pulse_bound(t, algorithm, ids=None):
    """The paper's bound on the pulses one run sends in total.

    even: the exact total; general: (n-1)^2 + (n-1); stabilizing:
    n + 2 * ID_max - 1; 0 on a single vertex. Every delivery consumes a
    sent pulse, so a correct run never makes more deliveries than this.
    """
    if t.n == 1:
        return 0
    if algorithm == "even":
        return expected_total_pulses(t, "even")
    if algorithm == "general":
        return (t.n - 1) ** 2 + (t.n - 1)
    if algorithm == "stabilizing":
        return t.n + 2 * max(ids) - 1
    raise ValueError("no pulse bound for algorithm %r" % (algorithm,))


def _check(checks, name, ok, expected, observed):
    checks.append({"name": name, "ok": bool(ok),
                   "expected": expected, "observed": observed})


def _check_result(checks, result, t, algorithm, ids):
    """The checks every finished result must pass, whether a run Outcome
    or one TerminalClass of a model check."""
    leaders = sum(1 for o in result.outputs if o == LEADER)
    _check(checks, "unique_leader", leaders == 1, 1, leaders)
    if algorithm == "stabilizing":
        expected_total = stabilizing_pair_total(t, ids, result.leader,
                                                result.blocked)
    else:
        expected_leader = oracle_expected_leader(t)
        _check(checks, "leader_matches_oracle",
               result.leader == expected_leader, expected_leader,
               result.leader)
        expected_total = expected_total_pulses(t, algorithm)
    _check(checks, "exact_total",
           expected_total is not None
           and result.total_pulses == expected_total,
           expected_total, result.total_pulses)
    bound = pulse_bound(t, algorithm, ids)
    _check(checks, "total_bound", result.total_pulses <= bound,
           "<= %d" % bound, result.total_pulses)


def _verdict(algorithm, checks):
    return {"algorithm": algorithm, "ok": all(c["ok"] for c in checks),
            "checks": checks}


def verify_outcome(outcome, t, algorithm):
    """Judge one Outcome against the oracles; failures are rows, not
    exceptions."""
    checks = []
    wanted = ("stabilized", "terminated") if algorithm == "stabilizing" \
        else ("terminated",)
    _check(checks, "completed", outcome.status in wanted, "/".join(wanted),
           outcome.status)
    _check_result(checks, outcome, t, algorithm, outcome.ids)
    if algorithm == "general":
        quiet = (outcome.deliveries_to_halted == 0
                 and outcome.in_flight_at_leader == 0
                 and outcome.violation is None)
        _check(checks, "quiescent", quiet,
               "0 absorbed, 0 in flight at declaration",
               {"deliveries_to_halted": outcome.deliveries_to_halted,
                "in_flight_at_leader": outcome.in_flight_at_leader})
    if algorithm in ("even", "general") and outcome.trace is not None \
            and outcome.leader_step is not None:
        layering = layer_decomposition(t)
        bad = [e for e in outcome.trace
               if e["step"] <= outcome.leader_step
               and layering.parent_of[e["edge"][0]] != e["edge"][1]]
        _check(checks, "direction", not bad,
               "all pre-leader deliveries child->parent",
               "%d violations" % len(bad))
    return _verdict(algorithm, checks)


def verify_model_check(report, t, ids=None):
    """Judge a ModelCheckReport: every terminal class must pass the
    checks of a run, and the explorer's counters must show no
    violation. ids are the ones the exploration was given."""
    checks = []
    counters = ["multi_leader_states"]
    if report.algorithm != "stabilizing":
        _check(checks, "confluent", report.confluent, "1 terminal class",
               "%d terminal classes" % len(report.terminal_classes))
        counters.append("direction_violations")
    if report.algorithm == "general":
        counters += ["halted_delivery_transitions",
                     "nonquiescent_declarations"]
    for c in report.terminal_classes:
        _check_result(checks, c, t, report.algorithm, ids)
    for name in counters:
        value = getattr(report, name)
        _check(checks, name, value == 0, 0, value)
    return _verdict(report.algorithm, checks)


SWEEP_SCHEMA = "pulseforge sweep schema v1"
SWEEP_COLUMNS = ("generator", "n", "D", "algorithm", "seed", "status",
                 "leader_ok", "pulses", "bound", "bound_ok", "wall_time")


def write_csv(fh, results):
    """Write the schema line, the header and then each row of results,
    the (row, failures) pairs of sweep_rows, as it is yielded; return
    the failed checks of every row."""
    fh.write("# %s\n" % SWEEP_SCHEMA)
    writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    failures = []
    for row, failed in results:
        failures += failed
        cells = {}
        for k, v in row.items():
            if isinstance(v, bool):
                cells[k] = "true" if v else "false"
            elif isinstance(v, float):
                cells[k] = "%.6f" % v
            else:
                cells[k] = v
        writer.writerow(cells)
    return failures


def write_json(fh, results):
    """Write json.dumps({"passed": ..., "rows": ..., "schema":
    SWEEP_SCHEMA}, sort_keys=True, indent=2) and a newline for results,
    the (row, failures) pairs of sweep_rows, and return the failed
    checks of every row. "passed" precedes "rows", so each row is
    spooled to a temporary file as it is yielded, and memory does not
    grow with the row count."""
    failures = []
    with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
        sep = "\n"
        for row, failed in results:
            failures += failed
            text = json.dumps(row, sort_keys=True, indent=2)
            spool.write(sep + "    " + text.replace("\n", "\n    "))
            sep = ",\n"
        spool.seek(0)
        fh.write('{\n  "passed": %s,\n  "rows": [' % json.dumps(not failures))
        shutil.copyfileobj(spool, fh)
        fh.write('%s],\n  "schema": %s\n}\n'
                 % ("" if sep == "\n" else "\n  ", json.dumps(SWEEP_SCHEMA)))
    return failures


def _sweep_one(spec, algorithm, seed, budget):
    t = generate(GeneratorSpec(spec.kind, spec.n, spec.radius, seed))
    ids = None
    if algorithm == "stabilizing":
        # Permutation of 1..n: keeps ID_max = n, so the bound is 3n-1.
        ids = list(range(1, t.n + 1))
        random.Random(seed).shuffle(ids)
    started = time.perf_counter()
    state = new_simulation(t, algorithm, ids)
    bound = pulse_bound(t, algorithm, state.ids)
    outcome = run(state, SeededRandom(seed), budget or max(1, bound))
    elapsed = time.perf_counter() - started
    verdict = verify_outcome(outcome, t, algorithm)
    ok = {c["name"]: c["ok"] for c in verdict["checks"]}
    # A stabilizing total depends on which pair fought the election, so
    # the row's pulse column there shows the bound alone.
    exact = ok["exact_total"] or algorithm == "stabilizing"
    row = {
        "generator": spec.label(),
        "n": t.n,
        "D": layer_decomposition(t).diameter,
        "algorithm": algorithm,
        "seed": seed,
        "status": outcome.status,
        "leader_ok": (ok["completed"] and ok["unique_leader"]
                      and ok.get("leader_matches_oracle", True)),
        "pulses": outcome.total_pulses,
        "bound": bound,
        "bound_ok": exact and ok["total_bound"],
        "wall_time": round(elapsed, 6),
    }
    failures = [dict(c, name="%s seed %d: %s"
                     % (row["generator"], seed, c["name"]))
                for c in verdict["checks"] if not c["ok"]]
    return row, failures


def sweep_rows(specs, algorithm, seeds, *, budget=0):
    """Run algorithm on every spec x seed pair and yield each (row,
    failures) as soon as it is done, in row order: by generator label,
    n, algorithm and seed, equal keys in spec-then-seed order. A label
    fixes n and a sweep has one algorithm, so the pairs are put in that
    order before they run, and no row waits for a later one."""
    if not (isinstance(seeds, range) and seeds.step > 0):
        seeds = sorted(seeds)

    def pairs(spec):
        label = spec.label()
        return (((label, seed), spec, seed) for seed in seeds)
    # merge breaks ties by stream, so equal keys keep the spec order.
    for _, spec, seed in heapq.merge(*map(pairs, specs),
                                     key=itemgetter(0)):
        yield _sweep_one(spec, algorithm, seed, budget)


_BUILTIN_RE = re.compile(r"^(path|star|binary)(\d+)$")

_C5_EDGES = ((1, 2), (2, 3), (3, 4), (2, 0))


def builtin_tree(name):
    if name == "single":
        return TreeTopology(1, [])
    if name == "c5":
        return TreeTopology(5, _C5_EDGES)
    m = _BUILTIN_RE.match(name)
    if m is None:
        return None
    kind, size = m.group(1), int(m.group(2))
    _refuse_oversized(name, _binary_size(size) if kind == "binary" else size)
    if kind == "path":
        return path_tree(size)
    if kind == "star":
        return star_tree(size)
    return complete_binary_tree(size)


def resolve_tree(arg):
    """Edge-list file path, or a builtin name like path5, star4,
    binary2, c5, single."""
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    t = builtin_tree(arg)
    if t is None:
        raise ValueError("no such file or builtin tree: %r" % (arg,))
    return t
