"""The four benchmark workloads, their pulse-bound budgets, the
correctness gate and the output fingerprint.

Everything here reaches pulseforge through its public functions only,
and every instance is judged by the public oracles. Each workload is a
fixed list of instances drawn from the workload seed; a pass runs that
list once, in order, so the work of a pass never depends on how fast
the code is.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

# Instances per pass. A pass takes about 10-17 s on a 2-core 2.0 GHz
# Xeon VM, so a 30 s run measures every instance once or twice.
GENERAL_N = 200
GENERAL_TREES = 8
EVEN_RADIUS = 9
EVEN_SCHEDULES = 9
PEEL_N = 1000
PEEL_TREES = 50
MC_N = 10
# mc-explore explores the same nine unlabeled shapes under every
# workload seed; the seed only relabels them. Their state counts range
# from 1.9k to 15k, so drawing the shapes from the seed would make the
# cost of a pass a lottery.
MC_SHAPE_SEEDS = tuple(range(1, 10))


@dataclass
class Instance:
    """One input of a pass: how to build its tree and how to drive it."""

    index: int
    algorithm: str
    spec: object            # pulseforge.GeneratorSpec
    seed: int               # schedule seed, or relabel/ID seed
    explore: bool = False


def instances(pf, workload, seed):
    """The instance list of one pass, fully determined by the seed."""
    rng = random.Random("%s:%d" % (workload, seed))

    def draw():
        return rng.getrandbits(32)

    if workload == "general-asym":
        return [Instance(i, "general",
                         pf.GeneratorSpec("random_asymmetric", n=GENERAL_N,
                                          seed=draw()), draw())
                for i in range(GENERAL_TREES)]
    if workload == "even-binary":
        return [Instance(i, "even",
                         pf.GeneratorSpec("complete_binary",
                                          radius=EVEN_RADIUS), draw())
                for i in range(EVEN_SCHEDULES)]
    if workload == "stabilizing-peel":
        return [Instance(i, "stabilizing",
                         pf.GeneratorSpec("random", n=PEEL_N, seed=draw()),
                         draw())
                for i in range(PEEL_TREES)]
    if workload == "mc-explore":
        return [Instance(i, "general",
                         pf.GeneratorSpec("random_asymmetric", n=MC_N,
                                          seed=shape), draw(), explore=True)
                for i, shape in enumerate(MC_SHAPE_SEEDS)]
    raise ValueError("unknown workload %r" % (workload,))


def build_input(pf, inst):
    """The tree (and IDs) of one instance; the harness.generate span."""
    tree = pf.generate(inst.spec)
    ids = None
    if inst.algorithm == "stabilizing":
        # A seeded permutation of 1..n, so ID_max = n; the IDs and the
        # schedule share the instance seed, as in `pulseforge sweep`.
        ids = list(range(1, tree.n + 1))
        random.Random(inst.seed).shuffle(ids)
    if inst.explore:
        tree = relabel(pf, tree, random.Random(inst.seed))
    return tree, ids


def relabel(pf, tree, rng):
    """An isomorphic copy with permuted vertex labels and port order."""
    perm = list(range(tree.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
             for u, v in tree.edges()]
    rng.shuffle(edges)
    return pf.TreeTopology(tree.n, edges)


def pulse_bound(tree, algorithm, ids, diameter):
    """The paper's bound on the pulses one run sends in total.

    Every delivery consumes a sent pulse, so a correct run never makes
    more deliveries than this. even: each non-root vertex sends at most
    D/2 pulses up and relays one broadcast pulse. general: (n-1)^2 +
    (n-1). stabilizing: n + 2 * ID_max - 1.
    """
    n = tree.n
    if algorithm == "even":
        return (n - 1) * (diameter // 2 + 1)
    if algorithm == "general":
        return (n - 1) ** 2 + (n - 1)
    return n + 2 * max(ids) - 1 if n > 1 else 0


def budget_for(tree, algorithm, ids, state):
    diameter = state.layering.diameter if algorithm == "even" else None
    return max(1, pulse_bound(tree, algorithm, ids, diameter))


def run_problems(verdict):
    """Failed checks of a harness.verify_outcome verdict."""
    return ["%s: expected %s, observed %s"
            % (c["name"], c["expected"], c["observed"])
            for c in verdict["checks"] if not c["ok"]]


def explore_problems(pf, report, tree):
    """The mc-explore gate, from the public oracles only."""
    problems = []
    if not report.confluent:
        problems.append("%d terminal classes" % len(report.terminal_classes))
    expected = pf.oracle_expected_leader(tree)
    if tuple(report.leaders) != (expected,):
        problems.append("leaders %r, oracle says %d"
                        % (report.leaders, expected))
    total = pf.expected_total_pulses(tree, "general")
    for c in report.terminal_classes:
        if c.total_pulses != total:
            problems.append("class with %d pulses, oracle says %d"
                            % (c.total_pulses, total))
    for name in ("direction_violations", "halted_delivery_transitions",
                 "nonquiescent_declarations", "multi_leader_states"):
        if getattr(report, name):
            problems.append("%s = %d" % (name, getattr(report, name)))
    return problems


def run_fields(outcome):
    """Verdict fields of a run that a perf change must keep identical."""
    return {
        "status": outcome.status,
        "leader": outcome.leader,
        "outputs": list(outcome.outputs),
        "total_pulses": outcome.total_pulses,
        "pulses_by_category": dict(outcome.pulses_by_category),
        "deliveries": outcome.deliveries,
        "leader_step": outcome.leader_step,
    }


def explore_fields(report):
    """Verdict fields of a model check. State and transition counts are
    left out: a sound reduction of the explorer changes them."""
    return {
        "confluent": report.confluent,
        "leaders": list(report.leaders),
        "classes": [{"leader": c.leader, "outputs": list(c.outputs),
                     "per_edge_sent": list(c.per_edge_sent),
                     "total_pulses": c.total_pulses}
                    for c in report.terminal_classes],
    }


def digest(fields):
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pass_digest(instance_digests):
    return hashlib.sha256(
        ",".join(instance_digests).encode()).hexdigest()[:16]
