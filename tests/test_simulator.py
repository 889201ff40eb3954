import hashlib
import itertools
import json
import random
import sys
from operator import add

import pytest

import oracles
from pulseforge import protocol, simulator
from pulseforge.protocol import (
    CATEGORIES,
    CAT_BROADCAST,
    CAT_ELECTION,
    CAT_UPSTREAM,
    LEADER,
    NONLEADER,
    LeaderRule,
    NodeState,
    UNDECIDED,
    RuleSet,
    Send,
    UpstreamRule,
    compile_general_rules,
    init_node,
    init_stabilizing,
)
from pulseforge.simulator import (
    AdversaryScript,
    DuplicateIdsError,
    MissingIdsError,
    ModelCheckReport,
    NoPulseInFlightError,
    RoundRobin,
    SeededRandom,
    StateCapExceededError,
    StepTable,
    TerminalClass,
    explore_all_schedules,
    new_simulation,
    run,
    step,
)
from pulseforge.topology import (
    TreeTopology,
    decode_parens,
    encode_parens,
    is_edge_symmetric,
    layer_decomposition,
)
from pulseforge.harness import (
    random_asymmetric_tree,
    random_tree,
    resolve_tree,
    star_tree,
    verify_model_check,
)


def c5():
    return TreeTopology(5, [(1, 2), (2, 3), (3, 4), (2, 0)])


def path(n):
    return TreeTopology(n, [(i, i + 1) for i in range(n - 1)])


def binary(radius):
    n = 2 ** (radius + 1) - 1
    return TreeTopology(n, [((i - 1) // 2, i) for i in range(1, n)])


def test_init_puts_leaf_pulses_in_flight():
    s = new_simulation(path(3), "even")
    flights = {s.dir_edges[i]: c for i, c in enumerate(s.in_flight) if c}
    assert flights == {(0, 1): 1, (2, 1): 1}


def test_step_is_pure_and_conserves():
    s0 = new_simulation(path(3), "even")
    frozen = s0.key()
    s1 = step(s0, (0, 1))
    assert s0.key() == frozen
    assert s1.key() != frozen
    s0.check_conservation()
    s1.check_conservation()
    with pytest.raises(NoPulseInFlightError):
        step(s1, (0, 1))


def test_conservation_along_a_full_run():
    s = new_simulation(binary(2), "even")
    sched = RoundRobin()
    while True:
        enabled = s.enabled_edges()
        if not enabled:
            break
        s = step(s, s.dir_edges[sched.pick(s, enabled)])
        s.check_conservation()
    assert s.all_halted()
    assert s.total_pulses() == 16


def test_run_even_frozen_totals():
    for t, total in [(path(3), 4), (path(5), 10), (path(7), 18),
                     (binary(1), 4), (binary(2), 16), (binary(3), 48)]:
        outcome = run(new_simulation(t, "even"), SeededRandom(11), 10 ** 4)
        assert outcome.status == "terminated"
        assert outcome.total_pulses == total
        assert outcome.outputs.count(LEADER) == 1


def test_run_general_c5():
    outcome = run(new_simulation(c5(), "general"), SeededRandom(0), 500)
    assert outcome.status == "terminated"
    assert outcome.leader == 2
    assert outcome.total_pulses == 11
    assert outcome.deliveries_to_halted == 0
    assert outcome.in_flight_at_leader == 0
    assert outcome.pulses_by_category["broadcast"] == 4


def test_run_is_deterministic_per_seed():
    a = run(new_simulation(c5(), "general"), SeededRandom(5), 500)
    b = run(new_simulation(c5(), "general"), SeededRandom(5), 500)
    assert a.to_dict() == b.to_dict()


def test_adversary_script_drives_c5_to_the_leader():
    # feed vertex 2 its two leaves first, then wake the chain: the
    # fifth delivery completes the remaining-one profile
    script = [(1, 2), (1, 2), (0, 2), (0, 2), (4, 3), (4, 3), (3, 2)]
    s = new_simulation(c5(), "general")
    for u, v in script[:-1]:
        s = step(s, (u, v))
        assert s.leader_vertex() is None
    s = step(s, script[-1])
    assert s.leader_vertex() == 2
    assert s.in_flight_at_leader == 0
    # leader broadcast: one pulse now in flight on each of its 3 ports
    assert s.total_in_flight() == 3
    outcome = run(s, RoundRobin(), 100)
    assert outcome.status == "terminated"
    assert outcome.total_pulses == 11
    assert outcome.deliveries_to_halted == 0


def test_adversary_script_exhaustion_is_budget_exhausted():
    outcome = run(new_simulation(c5(), "general"),
                  AdversaryScript([(1, 2), (0, 2)]), 500)
    assert outcome.status == "budget_exhausted"
    assert outcome.leader is None


def test_adversary_script_rejects_empty_edge():
    with pytest.raises(NoPulseInFlightError):
        run(new_simulation(c5(), "general"), AdversaryScript([(2, 1)]), 500)


def test_a_pair_that_is_not_an_edge_is_named():
    s = new_simulation(path(3), "even")
    with pytest.raises(ValueError, match=r"\(0, 2\) is not an edge"):
        step(s, (0, 2))
    with pytest.raises(ValueError, match=r"\(0, 2\) is not an edge"):
        run(s, AdversaryScript([(0, 2)]), 10)


def test_tiny_budget_reports_exhaustion():
    outcome = run(new_simulation(path(5), "even"), SeededRandom(3), 2)
    assert outcome.status == "budget_exhausted"
    assert outcome.deliveries == 2


@pytest.mark.parametrize("budget", [0, -3])
def test_run_refuses_a_budget_below_one(budget):
    s = new_simulation(path(5), "even")
    with pytest.raises(ValueError, match="^budget must be at least 1$"):
        run(s, SeededRandom(3), budget)
    assert s.deliveries == 0


def test_delivery_to_halted_is_absorbed_and_flagged():
    s = new_simulation(c5(), "general")
    s.node_states[2] = s.node_states[2]._replace(halted=True)
    nxt = step(s, (1, 2))
    assert nxt.deliveries_to_halted == 1
    assert nxt.node_states[2].received == s.node_states[2].received
    assert nxt.violation == (2, 1)
    outcome = run(s, SeededRandom(0), 500)
    assert outcome.status == "quiescence_violated"


def test_run_trace_records_every_delivery():
    s = new_simulation(c5(), "general", record_trace=True)
    outcome = run(s, SeededRandom(2), 500)
    assert outcome.trace is not None
    assert len(outcome.trace) == outcome.deliveries
    for entry in outcome.trace:
        assert set(entry) == {"step", "edge", "receiver_state_digest",
                              "actions", "in_flight_total"}
        json.dumps(entry)
    assert [e["step"] for e in outcome.trace] == \
        list(range(1, outcome.deliveries + 1))


def test_outcome_to_dict_roundtrips_as_json():
    outcome = run(new_simulation(path(3), "even"), SeededRandom(1), 100)
    doc = json.loads(json.dumps(outcome.to_dict(), sort_keys=True))
    assert doc["status"] == "terminated"
    assert doc["leader"] == 1
    assert doc["seed"] == 1
    assert set(doc) >= {"status", "leader", "outputs", "pulses_by_category",
                        "deliveries", "deliveries_to_halted", "seed"}


def test_stabilizing_p2_win_by_smaller_id():
    outcome = run(new_simulation(path(2), "stabilizing", [3, 5]),
                  SeededRandom(8), 500)
    assert outcome.status == "stabilized"
    assert outcome.leader == 0
    assert outcome.total_pulses == 10
    assert outcome.blocked == (1,)
    assert outcome.outputs == (LEADER, NONLEADER)


def test_stabilizing_single_vertex_terminates_at_init():
    outcome = run(new_simulation(TreeTopology(1, []), "stabilizing", [4]),
                  SeededRandom(0), 10)
    assert outcome.status == "terminated"
    assert outcome.leader == 0
    assert outcome.total_pulses == 0


def test_stabilizing_id_validation():
    t = path(3)
    with pytest.raises(MissingIdsError):
        new_simulation(t, "stabilizing")
    with pytest.raises(MissingIdsError):
        new_simulation(t, "stabilizing", [1, 2])
    with pytest.raises(MissingIdsError):
        new_simulation(t, "stabilizing", [0, 1, 2])
    with pytest.raises(DuplicateIdsError):
        new_simulation(t, "stabilizing", [2, 2, 3])
    with pytest.raises(MissingIdsError):
        new_simulation(t, "stabilizing", {0: 1, 1: 2})
    s = new_simulation(t, "stabilizing", {0: 5, 1: 1, 2: 3})
    assert s.ids == (5, 1, 3)


def _assert_starts_one_vertex_at_a_time(s):
    """s equals the start built one vertex at a time: each node's
    init_node or init_stabilizing with its own ID, its sends applied
    one by one, and each state interned in vertex order."""
    t, algorithm = s.topology, s.algorithm
    states, in_flight, by_category = [], [], dict.fromkeys(CATEGORIES, 0)
    leaders, leader_step, at_leader = [], None, None
    for v in range(t.n):
        if algorithm == "stabilizing":
            ns, sends = init_stabilizing(t.degree(v), s.ids[v])
        else:
            ns, sends = init_node(t.degree(v), s.rules)
        if ns.output == LEADER:
            leaders.append(v)
            leader_step, at_leader = 0, sum(in_flight)
        counts = [0] * t.degree(v)
        for port, count, category in sends:
            counts[port] += count
            by_category[category] += count
        states.append(ns)
        in_flight += counts
    table = StepTable(algorithm, s.rules,
                      len(in_flight) if algorithm == "even" else 0)
    assert all(type(ns) is NodeState for ns in s.node_states)
    assert s.node_states == states
    assert s.node_indices == [table.intern(ns) for ns in states]
    assert s.moves.nodes == table.nodes
    assert s.in_flight == in_flight
    assert s.sent_by_category == by_category
    assert s.enabled == [i for i, c in enumerate(in_flight) if c > 0]
    assert s.in_flight_total == sum(in_flight)
    assert s.leaders == leaders
    assert s.leader_step == leader_step
    assert s.in_flight_at_leader == at_leader
    s.check_conservation()


def test_stabilizing_starts_equal_init_stabilizing():
    cases = [(t, ids) for t in _shapes(5)
             for ids in itertools.permutations(range(1, t.n + 1))]
    for seed in range(3):
        ids = list(range(1, 1001))
        random.Random(seed).shuffle(ids)
        cases.append((random_tree(1000, seed), ids))
    for t, ids in cases:
        _assert_starts_one_vertex_at_a_time(
            new_simulation(t, "stabilizing", ids))


@pytest.mark.parametrize("algorithm", ["even", "general"])
def test_rule_driven_starts_equal_init_node(algorithm):
    trees = _shapes(7) + [random_tree(1000, seed) for seed in range(3)]
    built = 0
    for t in trees:
        try:
            s = new_simulation(t, algorithm)
        except ValueError:   # odd diameter or edge-symmetric
            continue
        _assert_starts_one_vertex_at_a_time(s)
        built += 1
    # even: 15 shapes and two of the random trees; general: 21 shapes
    # and all three.
    assert built == (17 if algorithm == "even" else 24)


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        new_simulation(path(3), "quantum")


def test_explore_even_p3_single_class():
    rep = explore_all_schedules(path(3), "even")
    assert rep.confluent
    assert rep.leaders == (1,)
    (cls,) = rep.terminal_classes
    assert cls.total_pulses == 4
    assert cls.outputs == (NONLEADER, LEADER, NONLEADER)
    assert rep.direction_violations == 0
    assert rep.multi_leader_states == 0


def test_explore_even_p5_single_class():
    rep = explore_all_schedules(path(5), "even")
    assert rep.confluent
    assert rep.terminal_classes[0].total_pulses == 10
    assert rep.leaders == (2,)


def test_explore_general_c5_quiescent():
    rep = explore_all_schedules(c5(), "general")
    assert rep.confluent
    assert rep.leaders == (2,)
    (cls,) = rep.terminal_classes
    assert cls.total_pulses == 11
    assert cls.deliveries_to_halted_max == 0
    assert rep.halted_delivery_transitions == 0
    assert rep.nonquiescent_declarations == 0
    assert rep.direction_violations == 0


def test_explore_stabilizing_p3_two_outcomes():
    rep = explore_all_schedules(path(3), "stabilizing", (1, 2, 3))
    assert rep.leaders == (0, 1)
    assert {c.total_pulses for c in rep.terminal_classes} == {6, 8}
    assert rep.multi_leader_states == 0
    for cls in rep.terminal_classes:
        assert cls.outputs.count(LEADER) == 1
        assert len(cls.blocked) == 1


def test_explore_stabilizing_leader_depends_on_schedule():
    # ids chosen so each of the two possible final edges elects a
    # different vertex
    rep = explore_all_schedules(path(3), "stabilizing", (3, 2, 1))
    assert len(rep.leaders) == 2


def test_state_cap_raises():
    with pytest.raises(StateCapExceededError):
        explore_all_schedules(path(5), "even", max_states=3)


@pytest.mark.parametrize("cap", [0, -5])
def test_state_cap_below_one_is_rejected(cap):
    for t in (TreeTopology(1, []), c5()):
        with pytest.raises(ValueError, match="max_states must be at least 1"):
            explore_all_schedules(t, "general", max_states=cap)


def test_explore_matches_random_runs():
    # every class found exhaustively is reachable; random runs must land
    # in one of them
    t = random_tree(5, 99)
    rep = explore_all_schedules(t, "stabilizing", (2, 4, 1, 5, 3))
    keys = {(c.leader, c.total_pulses) for c in rep.terminal_classes}
    for seed in range(40):
        outcome = run(new_simulation(t, "stabilizing", (2, 4, 1, 5, 3)),
                      SeededRandom(seed), 10 ** 4)
        assert outcome.status in ("stabilized", "terminated")
        assert (outcome.leader, outcome.total_pulses) in keys


def test_port_star_constant_across_runs():
    t = binary(2)
    s = new_simulation(t, "even")
    committed = {}
    sched = SeededRandom(17)
    while s.enabled_edges():
        idx = sched.pick(s, s.enabled_edges())
        s = step(s, s.dir_edges[idx])
        for v, ns in enumerate(s.node_states):
            if ns.up_port is not None:
                assert committed.setdefault(v, ns.up_port) == ns.up_port


def test_stabilizing_outputs_latch_once_a_leader_exists():
    # drain every remaining pulse after the election: outputs must not
    # move again
    s = new_simulation(path(4), "stabilizing", [7, 3, 9, 1])
    sched = SeededRandom(5)
    while s.leader_vertex() is None:
        enabled = s.enabled_edges()
        assert enabled, "ran dry before electing"
        s = step(s, s.dir_edges[sched.pick(s, enabled)])
    frozen = s.outputs()
    drain = RoundRobin()
    while s.enabled_edges():
        s = step(s, s.dir_edges[drain.pick(s, s.enabled_edges())])
        assert s.outputs() == frozen


def _ids(n, seed):
    ids = list(range(1, n + 1))
    random.Random(seed).shuffle(ids)
    return ids


def _bookkeeping_instances():
    """Twenty small trees for each algorithm, with IDs for stabilizing."""
    even = []
    seed = 0
    while len(even) < 20:
        t = random_tree(5 + seed % 16, seed)
        if layer_decomposition(t).diameter % 2 == 0:
            even.append((t, "even", None))
        seed += 1
    general = [(random_asymmetric_tree(6 + k % 14, k), "general", None)
               for k in range(20)]
    stabilizing = []
    for k in range(20):
        t = random_tree(3 + k % 16, 100 + k)
        stabilizing.append((t, "stabilizing", _ids(t.n, k)))
    return even + general + stabilizing


def test_kept_fields_match_a_scan_after_every_step():
    for k, (t, algorithm, ids) in enumerate(_bookkeeping_instances()):
        s = new_simulation(t, algorithm, ids)
        s.check_conservation()
        sched = SeededRandom(k)
        while s.enabled_edges():
            s = step(s, s.dir_edges[sched.pick(s, s.enabled_edges())])
            s.check_conservation()
        assert s.leader_count() == 1


def test_check_conservation_catches_stale_fields():
    s = new_simulation(c5(), "general")
    for name, value in (("enabled", []), ("in_flight_total", 0),
                        ("leaders", [0])):
        broken = s.clone()
        setattr(broken, name, value)
        with pytest.raises(AssertionError, match=name):
            broken.check_conservation()
    # A sender whose own counter disagrees with the per-edge total.
    broken = s.clone()
    leaf = broken.node_states[1]
    broken.node_states[1] = leaf._replace(sent=(leaf.sent[0] + 1,))
    with pytest.raises(AssertionError, match="conservation"):
        broken.check_conservation()


class Recounting:
    """SeededRandom(seed) that checks, at each pick, the fields a
    scheduler may read against a recount, and keeps the state it was
    last shown: run's own state, which the last delivery then moves."""

    def __init__(self, seed):
        self.seed = seed
        self.draws = SeededRandom(seed)
        self.state = None

    def pick(self, state, enabled):
        assert enabled is state.enabled_edges()
        assert state.deliveries == sum(state.delivered_edges)
        assert state.in_flight_total == sum(state.in_flight)
        state.check_conservation()
        self.state = state
        return self.draws.pick(state, enabled)


def _stepped_run(state, scheduler, budget):
    """run's verdict loop with one step() per delivery: the status and
    the final state."""
    while True:
        if state.all_halted() and not state.total_in_flight():
            return "terminated", state
        if state.algorithm == "stabilizing" and \
                simulator._is_stabilized(state):
            return "stabilized", state
        if state.deliveries >= budget or not state.enabled_edges():
            return "budget_exhausted", state
        ei = scheduler.pick(state, state.enabled_edges())
        state = step(state, state.dir_edges[ei])
        if state.violation is not None:
            return "quiescence_violated", state


def _outcome_dict(status, state, seed):
    """Outcome.to_dict() of a run that ended in state."""
    return {
        "status": status,
        "leader": state.leader_vertex(),
        "outputs": list(state.outputs()),
        "pulses_by_category": dict(state.sent_by_category),
        "total_pulses": state.total_pulses(),
        "deliveries": state.deliveries,
        "deliveries_to_halted": state.deliveries_to_halted,
        "in_flight_at_leader": state.in_flight_at_leader,
        "leader_step": state.leader_step,
        "steps": state.deliveries,
        "seed": seed,
        "ids": None if state.ids is None else list(state.ids),
        "blocked": list(state.blocked_vertices()),
        "violation": None if state.violation is None
        else list(state.violation),
    }


def test_run_equals_stepping_one_pulse_at_a_time():
    statuses = set()
    for k, (t, algorithm, ids) in enumerate(_bookkeeping_instances()):
        for budget in (10 ** 6, 1 + k):
            s = new_simulation(t, algorithm, ids)
            fast = run(s, SeededRandom(k), budget)
            recounting = Recounting(k)
            checked = run(s, recounting, budget)
            status, final = _stepped_run(s, SeededRandom(k), budget)
            want = _outcome_dict(status, final, k)
            assert fast.to_dict() == checked.to_dict() == want, \
                (algorithm, k, budget)
            assert recounting.state.key() == final.key()
            statuses.add(status)
    assert statuses == {"terminated", "stabilized", "budget_exhausted"}


class RandrangeChecked(SeededRandom):
    """SeededRandom that checks each pick against randrange's draw."""

    def __init__(self, seed):
        super().__init__(seed)
        self.reference = random.Random(seed)
        self.picks = 0

    def pick(self, state, enabled):
        want = enabled[self.reference.randrange(len(enabled))]
        got = super().pick(state, enabled)
        assert got == want
        self.picks += 1
        return got


def test_seeded_random_draws_what_randrange_draws():
    cases = _bookkeeping_instances() + [
        (binary(6), "even", None),
        (random_asymmetric_tree(40, 2), "general", None),
        (random_tree(60, 8), "stabilizing", _ids(60, 8))]
    for k, (t, algorithm, ids) in enumerate(cases):
        sched = RandrangeChecked(k)
        outcome = run(new_simulation(t, algorithm, ids), sched, 10 ** 6)
        assert sched.picks == outcome.deliveries > 0
    with pytest.raises(NoPulseInFlightError):
        SeededRandom(0).pick(None, [])


def test_seeded_picks_equal_randrange():
    # pick repeats randrange's rejection loop over getrandbits; a list
    # is never longer than sys.maxsize, so neither is k.
    ks = [1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 255, 256, 257, 1023, 1024, 1025]
    ks += [k for e in (31, 32, 33, 53, 62) for k in (2 ** e - 1, 2 ** e,
                                                    2 ** e + 1)]
    ks.append(sys.maxsize)
    for seed in (0, 1, 7, 2024, 2 ** 40 + 3):
        mixed = ks + random.Random(seed).choices(ks, k=600)
        picker = SeededRandom(seed)
        draws = random.Random(seed)
        assert [picker.pick(None, range(k)) for k in mixed] == \
            [draws.randrange(k) for k in mixed]


class ModularScan:
    """Reference round robin: scan every directed edge cyclically from
    the one after the cursor, including the cursor itself last."""

    def __init__(self):
        self.cursor = -1

    def pick(self, state):
        m = len(state.in_flight)
        for i in range(1, m + 1):
            idx = (self.cursor + i) % m
            if state.in_flight[idx] > 0:
                self.cursor = idx
                return idx
        return None


class CheckedRoundRobin(RoundRobin):
    def __init__(self):
        super().__init__()
        self.reference = ModularScan()
        self.picks = 0

    def pick(self, state, enabled):
        want = self.reference.pick(state)
        got = super().pick(state, enabled)
        assert got == want
        self.picks += 1
        return got


def test_round_robin_matches_modular_scan_over_full_runs():
    cases = [(c5(), "general", None), (binary(3), "even", None),
             (path(9), "even", None), (TreeTopology(1, []), "even", None),
             (random_asymmetric_tree(14, 5), "general", None),
             (path(8), "stabilizing", [8, 1, 7, 2, 6, 3, 5, 4]),
             (random_tree(12, 3), "stabilizing", _ids(12, 3))]
    for t, algorithm, ids in cases:
        sched = CheckedRoundRobin()
        outcome = run(new_simulation(t, algorithm, ids), sched, 10 ** 5)
        assert outcome.status in ("terminated", "stabilized")
        assert sched.picks == outcome.deliveries


def test_round_robin_wraps_and_rejects_empty():
    s = new_simulation(path(3), "even")
    rr = RoundRobin()
    enabled = s.enabled_edges()
    assert [rr.pick(s, enabled) for _ in range(3)] == \
        [enabled[0], enabled[1], enabled[0]]
    with pytest.raises(NoPulseInFlightError):
        rr.pick(s, [])


def _golden_tree(name):
    if name.startswith("asym"):
        return random_asymmetric_tree(int(name[4:]), 1)
    if name.startswith("rand"):
        return random_tree(int(name[4:]), 2)
    return resolve_tree(name)


# (tree, algorithm, SeededRandom seed) -> (deliveries, leader_step,
# in_flight_at_leader, total_pulses, pulses_by_category, leader) and a
# digest of the delivered edge sequence. Stabilizing IDs are the seeded
# permutation _ids(n, seed). A change that moves SeededRandom's picks
# moves these.
GOLDEN = [
    ("path7", "even", 1, (18, 12, 0, 18, (12, 6, 0, 0), 3),
     "0d17ffa8f6e06898"),
    ("binary3", "even", 2, (48, 34, 0, 48, (34, 14, 0, 0), 0),
     "7ddea077124cd7fe"),
    ("star6", "even", 3, (10, 5, 0, 10, (5, 5, 0, 0), 0),
     "333b2ced4afef335"),
    ("binary4", "even", 40, (128, 98, 0, 128, (98, 30, 0, 0), 0),
     "0ab36a39da2bafa7"),
    ("c5", "general", 0, (11, 7, 0, 11, (7, 4, 0, 0), 2),
     "413dacf8d66d24fe"),
    ("binary2", "general", 4, (16, 10, 0, 16, (10, 6, 0, 0), 0),
     "9c93e18ee00c84af"),
    ("asym12", "general", 3, (45, 34, 0, 45, (34, 11, 0, 0), 7),
     "b4962598b3a02697"),
    ("asym30", "general", 5, (300, 271, 0, 300, (271, 29, 0, 0), 24),
     "1be1d24a6dd44cdd"),
    ("path5", "stabilizing", 6, (9, 9, 1, 10, (0, 0, 5, 5), 2),
     "e11f45f5898a602b"),
    ("star7", "stabilizing", 9, (9, 9, 5, 14, (0, 0, 7, 7), 0),
     "9e17a515a0437cfc"),
    ("binary2", "stabilizing", 11, (11, 11, 1, 12, (0, 0, 7, 5), 0),
     "0dd2190fe9c40114"),
    ("rand14", "stabilizing", 8, (17, 17, 7, 24, (0, 0, 14, 10), 10),
     "9570d458b17fbada"),
]


@pytest.mark.parametrize("name,algorithm,seed,want,edges_digest", GOLDEN)
def test_seeded_schedules_are_pinned(name, algorithm, seed, want,
                                     edges_digest):
    t = _golden_tree(name)
    ids = _ids(t.n, seed) if algorithm == "stabilizing" else None
    o = run(new_simulation(t, algorithm, ids, record_trace=True),
            SeededRandom(seed), 10 ** 6)
    by_category = tuple(o.pulses_by_category[c]
                        for c in ("upstream", "broadcast", "leaf", "election"))
    assert (o.deliveries, o.leader_step, o.in_flight_at_leader,
            o.total_pulses, by_category, o.leader) == want
    edges = json.dumps([e["edge"] for e in o.trace]).encode()
    assert hashlib.sha256(edges).hexdigest()[:16] == edges_digest


# (tree, algorithm, SeededRandom seed) -> sha256 of the run's
# receiver_state_digest sequence, one digest per line. A change to what
# a node state holds, or to how a trace hashes it, moves these, and a
# recorded trace then no longer replays.
TRACE_DIGESTS = [
    ("path7", "even", 1, "df21dc601b98ad47"),
    ("binary4", "even", 40, "da9577645c4ff8f2"),
    ("c5", "general", 0, "a854f70e38c92388"),
    ("asym30", "general", 5, "062455a9d3e41029"),
    ("star7", "stabilizing", 9, "29e86b8617325db0"),
    ("rand14", "stabilizing", 8, "fad14941d685768d"),
]


@pytest.mark.parametrize("name,algorithm,seed,want", TRACE_DIGESTS)
def test_trace_state_digests_are_pinned(name, algorithm, seed, want):
    t = _golden_tree(name)
    ids = _ids(t.n, seed) if algorithm == "stabilizing" else None
    o = run(new_simulation(t, algorithm, ids, record_trace=True),
            SeededRandom(seed), 10 ** 6)
    digests = "\n".join(e["receiver_state_digest"] for e in o.trace)
    assert hashlib.sha256(digests.encode()).hexdigest()[:16] == want


def _pinned_instances():
    """30 even runs on random trees of even diameter and 30 general runs
    on random asymmetric trees, each scheduled by SeededRandom(seed)."""
    even = [("even", n, seed) for seed in range(200) for n in (12, 30, 60)
            if layer_decomposition(random_tree(n, seed)).diameter % 2 == 0]
    general = [("general", n, seed) for seed in range(10)
               for n in (12, 30, 60)]
    return even[:30] + general


# (algorithm, n, seed) -> (leader, total_pulses, deliveries, leader_step)
# and a digest of the run's verdict fields together with its delivered
# edge sequence. Each run terminated.
PINNED_RUNS = [
    ("even", 60, 0, (39, 525, 525, 466), "4703ca4a643f376b"),
    ("even", 12, 1, (7, 35, 35, 24), "a2460530c686b28a"),
    ("even", 60, 1, (13, 580, 580, 521), "7854da179dfc65f2"),
    ("even", 30, 2, (21, 217, 217, 188), "b882dfb76c846024"),
    ("even", 30, 3, (20, 166, 166, 137), "7adde40caa8eb1de"),
    ("even", 30, 4, (8, 196, 196, 167), "a18382f409e261e6"),
    ("even", 60, 4, (54, 556, 556, 497), "77fcabd669fd10e6"),
    ("even", 12, 6, (10, 43, 43, 32), "4b9cfc990b336f95"),
    ("even", 60, 6, (16, 388, 388, 328), "4cf35c8b10f507a9"),
    ("even", 12, 7, (8, 42, 42, 31), "97e08606e75567a0"),
    ("even", 30, 7, (1, 145, 145, 116), "561cf3455950eb92"),
    ("even", 12, 8, (2, 35, 35, 24), "42404d09d2a42132"),
    ("even", 30, 8, (12, 161, 161, 131), "73a4b197ad5a0389"),
    ("even", 60, 8, (6, 478, 478, 419), "cea5d1ffea4b178c"),
    ("even", 12, 9, (10, 42, 42, 31), "2f0fb3c06f7f898a"),
    ("even", 60, 9, (26, 546, 546, 487), "3f9b3bd09148fbb0"),
    ("even", 12, 10, (3, 37, 37, 26), "869db62731a344d2"),
    ("even", 30, 10, (5, 208, 208, 178), "3a9261158bc5714b"),
    ("even", 12, 11, (2, 38, 38, 27), "9e5f3ea6ef410272"),
    ("even", 12, 12, (2, 42, 42, 31), "b9241b7de3031a1c"),
    ("even", 30, 12, (4, 162, 162, 133), "5268f504eddf579c"),
    ("even", 60, 12, (5, 525, 525, 466), "781ed9d4cbcdc025"),
    ("even", 60, 13, (16, 482, 482, 423), "750360457630e8b7"),
    ("even", 12, 14, (4, 36, 36, 25), "9e788fa2a05e0c09"),
    ("even", 60, 14, (38, 644, 644, 585), "75a3b24d7d69888f"),
    ("even", 30, 15, (8, 155, 155, 126), "ea92a6d0de753331"),
    ("even", 12, 16, (0, 36, 36, 25), "aaf3c62d9b9e9d69"),
    ("even", 30, 16, (19, 163, 163, 134), "954d9dddcbff85f4"),
    ("even", 60, 16, (14, 447, 447, 385), "67d387ac1e96308f"),
    ("even", 12, 17, (2, 43, 43, 32), "676ee47caa24e9b3"),
    ("general", 12, 0, (4, 47, 47, 36), "c5c4b97911422129"),
    ("general", 30, 0, (4, 352, 352, 323), "d217f9049d0c61e5"),
    ("general", 60, 0, (39, 1105, 1105, 1046), "d4a775d26bf055e4"),
    ("general", 12, 1, (7, 45, 45, 34), "f62fed30d52aaca3"),
    ("general", 30, 1, (24, 300, 300, 271), "54bbb267939c1f2e"),
    ("general", 60, 1, (13, 1111, 1111, 1052), "030f6f8ec9334f89"),
    ("general", 12, 2, (6, 54, 54, 43), "91554639579c94df"),
    ("general", 30, 2, (21, 385, 385, 356), "4c0f4db01e9cc27c"),
    ("general", 60, 2, (59, 1311, 1311, 1252), "5ac1e275564ce0e2"),
    ("general", 12, 3, (9, 44, 44, 33), "342c17f30c2db865"),
    ("general", 30, 3, (20, 302, 302, 273), "8588ee75a160d169"),
    ("general", 60, 3, (55, 1255, 1255, 1196), "d4c96dd4ba537fbc"),
    ("general", 12, 4, (1, 43, 43, 32), "fba22ef59082d555"),
    ("general", 30, 4, (8, 332, 332, 303), "3dbed564838b81b1"),
    ("general", 60, 4, (54, 1343, 1343, 1284), "2bf2001d1bb08e85"),
    ("general", 12, 5, (7, 59, 59, 48), "43d06d48453b809f"),
    ("general", 30, 5, (7, 394, 394, 365), "73fb7d91f26d0fa8"),
    ("general", 60, 5, (49, 1029, 1029, 970), "8f531dfca083b265"),
    ("general", 12, 6, (10, 53, 53, 42), "364898ad4864bea7"),
    ("general", 30, 6, (15, 297, 297, 268), "32f7ffd140de75eb"),
    ("general", 60, 6, (16, 885, 885, 826), "8d46583655535b99"),
    ("general", 12, 7, (8, 60, 60, 49), "ce525f5fe71f8c5e"),
    ("general", 30, 7, (1, 246, 246, 217), "5b3f32ccb0d09730"),
    ("general", 60, 7, (37, 1112, 1112, 1053), "1319e90ea7417ff8"),
    ("general", 12, 8, (2, 45, 45, 34), "83ac62f7a606741d"),
    ("general", 30, 8, (12, 341, 341, 312), "b3d50bced40de843"),
    ("general", 60, 8, (6, 1079, 1079, 1020), "5f1ecd03feec9cf5"),
    ("general", 12, 9, (10, 60, 60, 49), "e77fe3227a0fc00d"),
    ("general", 30, 9, (14, 295, 295, 266), "ab92e160d10e4600"),
    ("general", 60, 9, (26, 1377, 1377, 1318), "aae857fe63d4cb78"),
]


def test_seeded_runs_match_their_pinned_fields_and_edges():
    assert [pin[:3] for pin in PINNED_RUNS] == _pinned_instances()
    for algorithm, n, seed, want, digest in PINNED_RUNS:
        t = random_tree(n, seed) if algorithm == "even" \
            else random_asymmetric_tree(n, seed)
        o = run(new_simulation(t, algorithm, record_trace=True),
                SeededRandom(seed), 10 ** 6)
        fields = {"status": o.status, "leader": o.leader,
                  "outputs": list(o.outputs),
                  "total_pulses": o.total_pulses,
                  "pulses_by_category": o.pulses_by_category,
                  "deliveries": o.deliveries, "leader_step": o.leader_step}
        edges = [e["edge"] for e in o.trace]
        got = hashlib.sha256(json.dumps([fields, edges], sort_keys=True)
                             .encode()).hexdigest()[:16]
        assert (o.leader, o.total_pulses, o.deliveries, o.leader_step,
                got) == want + (digest,), (algorithm, n, seed)
        assert o.to_dict()["steps"] == o.deliveries


def test_rule_memo_is_shared_and_changes_nothing(monkeypatch):
    t = random_asymmetric_tree(30, 5)
    s = new_simulation(t, "general", record_trace=True)
    memo = s.rules._quota_memo
    assert s.clone().rules is s.rules
    nxt = step(s, s.dir_edges[s.enabled_edges()[0]])
    assert nxt.rules is s.rules
    # Runs on clones of s fill the one memo; a later run that starts
    # from the warm memo makes the same moves as one from a cold memo.
    at_init = sum(map(len, memo.values()))
    run(nxt, SeededRandom(2), 10 ** 6)
    warm_entries = sum(map(len, memo.values()))
    assert warm_entries > at_init
    warm = run(s, SeededRandom(1), 10 ** 6)
    cold = run(new_simulation(t, "general", record_trace=True),
               SeededRandom(1), 10 ** 6)
    assert warm.to_dict() == cold.to_dict()
    assert warm.trace == cold.trace

    # One exploration evaluates every transition with one RuleSet.
    small = random_asymmetric_tree(8, 3)
    cold_report = explore_all_schedules(small, "general").to_dict()
    seen = []
    real = protocol.on_deliver

    def spy(state, rules, port):
        seen.append(rules)
        return real(state, rules, port)
    monkeypatch.setattr(protocol, "on_deliver", spy)
    assert explore_all_schedules(small, "general").to_dict() == cold_report
    assert len({id(r) for r in seen}) == 1
    assert any(seen[0]._quota_memo.values())
    # An exploration handed that warm RuleSet reports the same.
    for explore in (explore_all_schedules, reference_explore):
        assert explore(small, "general",
                       rules=seen[0]).to_dict() == cold_report


def test_rules_of_one_path_run_on_the_other():
    # Nodes that know only the family {P3, P5} cannot elect: each
    # path's general rules, run on the other path, fail under some
    # schedule. Both explorers take the foreign rules as given.
    p3, p5 = path(3), path(5)
    reports = []
    for t, rules in ((p5, compile_general_rules(p3)),
                     (p3, compile_general_rules(p5))):
        rep = explore_all_schedules(t, "general", rules=rules)
        assert rep.to_dict() == \
            reference_explore(t, "general", rules=rules).to_dict()
        reports.append(rep)
    on_p5, on_p3 = reports
    [cls] = on_p5.terminal_classes
    assert cls.leader is None and cls.total_pulses == 2
    assert set(cls.outputs) == {UNDECIDED}
    assert len(on_p3.terminal_classes) == 2
    assert [c.leader for c in on_p3.terminal_classes].count(None) == 1
    assert on_p3.halted_delivery_transitions == 24
    assert on_p3.nonquiescent_declarations == 2


def test_rules_must_be_of_the_algorithms_kind():
    with pytest.raises(ValueError, match="takes no general rules"):
        new_simulation(path(3), "even", rules=compile_general_rules(path(3)))
    with pytest.raises(ValueError, match="takes no even rules"):
        explore_all_schedules(path(3), "stabilizing", (1, 2, 3),
                              rules=protocol.compile_even_rules(2))


def test_general_memo_fills_only_at_crossing_values():
    # on_deliver tries no rule unless a count reaches a crossing value,
    # so one run leaves about 12.7k memo entries instead of 30,856.
    t = random_asymmetric_tree(800, 1)
    s = new_simulation(t, "general")
    assert run(s, SeededRandom(1), 10 ** 7).status == "terminated"
    assert sum(map(len, s.rules._quota_memo.values())) == 12691


def _even_trees():
    trees = [binary(4), path(7)]
    seed = 0
    while len(trees) < 12:
        seed += 1
        t = random_tree(5 + seed % 20, seed)
        if layer_decomposition(t).diameter % 2 == 0:
            trees.append(t)
    return trees


def _schedulers(s, seed):
    """A seeded, a round-robin and a scripted scheduler; the script
    replays the first half of the seeded run's edges."""
    traced = run(s, SeededRandom(seed + 1), 10 ** 6).trace
    script = [tuple(e["edge"]) for e in traced[:len(traced) // 2]]
    return [lambda: SeededRandom(seed), RoundRobin,
            lambda: AdversaryScript(script)]


@pytest.mark.parametrize("t", _even_trees(), ids=lambda t: "n%d" % t.n)
def test_step_memo_changes_no_outcome_or_trace(t):
    s = new_simulation(t, "even", record_trace=True)
    assert s.clone().moves is s.moves
    assert step(s, s.dir_edges[s.enabled_edges()[0]]).moves is s.moves
    for make in _schedulers(new_simulation(t, "even", record_trace=True),
                            t.n):
        cold_state = new_simulation(t, "even", record_trace=True)
        cold = run(cold_state, make(), 10 ** 6)
        # A run with another seed warms the memo first.
        run(cold_state, SeededRandom(t.n + 7), 10 ** 6)
        warm = run(cold_state, make(), 10 ** 6)
        bare_state = new_simulation(t, "even", record_trace=True).clone()
        bare_state.moves = StepTable("even", bare_state.rules, 0)
        bare = run(bare_state, make(), 10 ** 6)
        assert cold.to_dict() == warm.to_dict() == bare.to_dict()
        assert cold.trace == warm.trace == bare.trace


def test_step_memo_calls_the_automaton_once_per_stored_step(monkeypatch):
    seen = []
    real = protocol.on_deliver

    def spy(state, rules, port):
        seen.append((state, port))
        return real(state, rules, port)
    monkeypatch.setattr(protocol, "on_deliver", spy)
    s = new_simulation(binary(8), "even")
    table = s.moves
    for seed in range(3):
        assert run(s, SeededRandom(seed), 10 ** 6).status == "terminated"
        assert table.room > 0
        stored = {(table.nodes[i], port): slot
                  for i, row in enumerate(table.rows)
                  for port, slot in enumerate(row) if slot is not None}
        assert len(seen) == len(set(seen)) == len(stored)
        assert set(seen) == set(stored)
    for (ns, port), (j, succ, sends, declares) in stored.items():
        assert succ is table.nodes[j] and table.index[succ] == j
        assert (succ, sends) == real(ns, s.rules, port)
        assert declares == (succ.output == LEADER != ns.output)


@pytest.mark.parametrize("algorithm,ids", [("general", None),
                                           ("stabilizing", [3, 1, 4, 5, 2])])
def test_only_the_even_automaton_is_memoised(algorithm, ids):
    s = new_simulation(c5(), algorithm, ids)
    assert s.moves.room == 0
    assert run(s, SeededRandom(0), 10 ** 4).deliveries > 0
    assert s.clone().moves is s.moves
    assert s.moves.room == 0
    assert not s.moves.nodes and not s.moves.index and not s.moves.rows
    assert s.node_indices == [None] * 5
    even = new_simulation(binary(2), "even")
    assert even.moves.room > 0 and None not in even.node_indices


@pytest.mark.parametrize("algorithm,ids", [("general", None),
                                           ("stabilizing", [3, 1, 4, 5, 2])])
def test_a_table_without_room_is_never_looked_up(monkeypatch, algorithm,
                                                  ids):
    s = new_simulation(c5(), algorithm, ids)
    # A lookup or an attempt to store would raise.
    monkeypatch.setattr(StepTable, "intern", None)
    monkeypatch.setattr(StepTable, "fill", None)
    assert run(s, SeededRandom(0), 10 ** 4).deliveries > 0
    nxt = step(s, s.dir_edges[s.enabled[0]])
    assert nxt.deliveries == 1 and nxt.node_indices == [None] * 5


def test_step_memo_keys_hold_no_more_counters_than_directed_edges():
    s = new_simulation(star_tree(3000), "even")
    edges = len(s.dir_edges)
    # Deliveries in edge order and in reverse edge order.
    for end in (0, -1):
        state = s.clone()
        while state.enabled_edges():
            ei = state.enabled_edges()[end]
            simulator._drive(state, lambda state, enabled: ei, None,
                             once=True)
            stored = sum(len(ns.received) for ns in s.moves.nodes)
            assert stored + s.moves.room == edges
            assert stored <= edges
            assert sum(map(len, s.moves.rows)) == stored
        assert state.all_halted()
        state.check_conservation()
        # The hub's later states did not fit, so it left the table.
        assert state.node_indices[0] is None
    s.check_conservation()
    # The hub's first states fill the table; the rest are not interned,
    # and no slot holds a successor the room was not charged for.
    assert len(s.moves.nodes) < 10
    assert all(slot[1] is s.moves.nodes[slot[0]]
               for row in s.moves.rows for slot in row if slot)


def _snapshot(state):
    """The state's key, and every node state it holds together with an
    equal value built apart from it."""
    return (state.key(),
            [(ns, NodeState(*ns)) for ns in state.node_states])


def _assert_unchanged(state, snap):
    key, nodes = snap
    assert state.key() == key
    assert len(state.node_states) == len(nodes)
    for ns, (held, value) in zip(state.node_states, nodes):
        assert ns is held
        assert ns == value


@pytest.mark.parametrize("t,algorithm,ids", [
    (c5(), "general", None),
    (binary(2), "even", None),
    (path(4), "stabilizing", [2, 4, 1, 3]),
])
def test_run_step_and_explore_leave_caller_state_unchanged(t, algorithm,
                                                           ids):
    s = new_simulation(t, algorithm, ids)
    snap = _snapshot(s)
    run(s, SeededRandom(3), 10 ** 4)
    _assert_unchanged(s, snap)
    for ei in list(s.enabled_edges()):
        nxt = step(s, s.dir_edges[ei])
        _assert_unchanged(s, snap)
        # A later state built on the shared node states leaves them be.
        run(nxt, RoundRobin(), 10 ** 4)
        _assert_unchanged(s, snap)
    explore_all_schedules(t, algorithm, ids)
    _assert_unchanged(s, snap)


def reference_explore(t, algorithm, ids=None, *, rules=None,
                      max_states=10 ** 6):
    """The straightforward explorer: every transition delivers through
    step, which clones the whole NetworkState, and keys the child with
    NetworkState.key(). What a delivery did is read off the child: an
    absorbed pulse raises deliveries_to_halted, and a LEADER declaration
    raises leader_count() and snapshots in_flight_at_leader. A terminal
    class's per-edge sends are the simulator's delivered plus in-flight
    counts, not the automata's own sent counters that the explorer reads.
    explore_all_schedules must report exactly what this reports."""
    root = new_simulation(t, algorithm, ids, rules=rules)
    layering = root.layering
    seen = {root.key()}
    stack = [root]
    classes = {}
    transitions = 0
    direction_violations = 0
    halted_deliveries = 0
    nonquiescent = 0
    multi_leader = 0
    while stack:
        state = stack.pop()
        enabled = state.enabled_edges()
        if not enabled:
            ck = (state.leader_vertex(), state.outputs(),
                  tuple(map(add, state.delivered_edges, state.in_flight)))
            d2h = state.deliveries_to_halted
            cls = classes.get(ck)
            if cls is None:
                classes[ck] = [1, d2h, d2h, state.blocked_vertices()]
            else:
                cls[0] += 1
                cls[1] = min(cls[1], d2h)
                cls[2] = max(cls[2], d2h)
            continue
        pre_leader = state.leader_vertex() is None
        for ei in enabled:
            child = step(state, state.dir_edges[ei])
            transitions += 1
            if pre_leader and layering is not None:
                u, v = child.dir_edges[ei]
                if layering.parent_of[u] != v:
                    direction_violations += 1
            if child.deliveries_to_halted > state.deliveries_to_halted:
                halted_deliveries += 1
            if child.leader_count() > state.leader_count() \
                    and child.in_flight_at_leader != 0:
                nonquiescent += 1
            if child.leader_count() > 1:
                multi_leader += 1
            k = child.key()
            if k not in seen:
                if len(seen) >= max_states:
                    raise StateCapExceededError(
                        "more than %d states" % max_states)
                seen.add(k)
                stack.append(child)
    terminal_classes = [
        TerminalClass(
            leader=ck[0], outputs=ck[1], per_edge_sent=ck[2],
            total_pulses=sum(ck[2]),
            deliveries_to_halted_min=rec[1],
            deliveries_to_halted_max=rec[2],
            blocked=rec[3], states=rec[0])
        for ck, rec in sorted(classes.items(),
                              key=lambda kv: (str(kv[0][0]), kv[0][1]))
    ]
    return ModelCheckReport(
        algorithm=algorithm,
        states=len(seen),
        transitions=transitions,
        terminal_classes=terminal_classes,
        confluent=len(terminal_classes) == 1,
        leaders=tuple(sorted({c.leader for c in terminal_classes
                              if c.leader is not None})),
        direction_violations=direction_violations,
        halted_delivery_transitions=halted_deliveries,
        nonquiescent_declarations=nonquiescent,
        multi_leader_states=multi_leader,
    )


def _relabelled(n, edges, seed):
    """An isomorphic tree with permuted labels, edge directions and
    port order, all drawn from the seed."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
             for u, v in edges]
    rng.shuffle(edges)
    return TreeTopology(n, edges)


def _shapes(max_n):
    """Every unlabeled tree with at most max_n vertices, relabelled."""
    return [_relabelled(n, edges, 1000 * n + k)
            for n in range(1, max_n + 1)
            for k, edges in enumerate(oracles.nonisomorphic_trees(n))]


@pytest.mark.parametrize("algorithm", ["even", "general"])
def test_explore_equals_reference_on_every_small_shape(algorithm):
    checked = 0
    for t in _shapes(7):
        if algorithm == "even" and layer_decomposition(t).diameter % 2:
            continue
        if algorithm == "general" and is_edge_symmetric(t).symmetric:
            continue
        assert explore_all_schedules(t, algorithm).to_dict() == \
            reference_explore(t, algorithm).to_dict(), t.edges()
        checked += 1
    assert checked == (15 if algorithm == "even" else 21)


# Even shapes whose report fails its judge: two terminal classes, one
# a pulse short of the exact total. Keys are canonical parenthesis
# strings, rooted at the center, so they do not depend on the order in
# which networkx lists the shapes.
_EVEN_JUDGE_FAILURES = {
    "(((()))((()))(()))",
    "(((()()))((()))(()))",
    "(((())())((()))(()))",
    "(((()))((()))(()()))",
    "(((()))((()))(())())",
}


def _canonical_parens(t):
    return encode_parens(t, layer_decomposition(t).root)


def _verdict_cases():
    cases = []
    for n in range(1, 11):
        for k, edges in enumerate(oracles.nonisomorphic_trees(n)):
            t = _relabelled(n, edges, 1000 * n + k)
            if layer_decomposition(t).diameter % 2 == 0:
                marks = ()
                if _canonical_parens(t) in _EVEN_JUDGE_FAILURES:
                    marks = pytest.mark.xfail(strict=True, reason=(
                        "ROADMAP item 1: a top-up pre-empted by the "
                        "leader's broadcast breaks confluence and the "
                        "exact total"))
                cases.append(pytest.param(t, "even", marks=marks,
                                          id="even-n%d-%d" % (n, k)))
            if n <= 9 and not is_edge_symmetric(t).symmetric:
                cases.append(pytest.param(t, "general",
                                          id="general-n%d-%d" % (n, k)))
    return cases


@pytest.mark.parametrize("t,algorithm", _verdict_cases())
def test_every_small_shape_passes_the_model_check_judge(t, algorithm):
    # 109 even shapes (n <= 10) and 87 general shapes (n <= 9).
    verdict = verify_model_check(explore_all_schedules(t, algorithm), t)
    assert verdict["ok"], [c for c in verdict["checks"] if not c["ok"]]


# One sha256 over the mc reports and verdicts of the shape corpus:
# every even-diameter shape (54) and every shape not symmetric about an
# edge (87) with n <= 9, under even and general, and every shape with
# n <= 5 under every permutation of the IDs 1..n (417), under
# stabilizing. Each tree is rebuilt from its canonical parenthesis
# string, so labels and ports are canonical too.
_CORPUS_DIGEST = \
    "36896b7e0cccbf41b6279d0332b4858a3ab135c6f1debbd450f34ba492c29fe3"


def test_the_shape_corpus_reports_hash_as_pinned():
    entries = []
    for n in range(1, 10):
        for edges in oracles.nonisomorphic_trees(n):
            parens = _canonical_parens(TreeTopology(n, edges))
            t = decode_parens(parens)
            cases = []
            if layer_decomposition(t).diameter % 2 == 0:
                cases.append(("even", None))
            if not is_edge_symmetric(t).symmetric:
                cases.append(("general", None))
            if n <= 5:
                cases += [("stabilizing", ids) for ids in
                          itertools.permutations(range(1, n + 1))]
            for algorithm, ids in cases:
                report = explore_all_schedules(t, algorithm, ids)
                entries.append(json.dumps(
                    [algorithm, parens, ids, report.to_dict(),
                     verify_model_check(report, t, ids)], sort_keys=True))
    counts = {a: sum(e.startswith('["%s"' % a) for e in entries)
              for a in ("even", "general", "stabilizing")}
    assert counts == {"even": 54, "general": 87, "stabilizing": 417}
    digest = hashlib.sha256("\n".join(sorted(entries)).encode())
    assert digest.hexdigest() == _CORPUS_DIGEST


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_explore_equals_reference_under_every_id_permutation(n):
    # With n=2 both nodes start in states with equal keys, and only
    # their IDs tell them apart.
    for edges in oracles.nonisomorphic_trees(n):
        t = _relabelled(n, edges, n)
        for ids in itertools.permutations(range(1, n + 1)):
            assert explore_all_schedules(t, "stabilizing", ids).to_dict() \
                == reference_explore(t, "stabilizing", ids).to_dict(), \
                (t.edges(), ids)


def test_explore_state_cap_matches_reference():
    states = reference_explore(binary(2), "even").states
    assert explore_all_schedules(binary(2), "even",
                                 max_states=states).states == states
    for explore in (reference_explore, explore_all_schedules):
        with pytest.raises(StateCapExceededError):
            explore(binary(2), "even", max_states=states - 1)


def _ungated_evaluate(state, rules, received):
    """protocol._evaluate without the silent-port gate: the leader rule
    and then the upstream rules are tried on every call."""
    sent = state.sent
    if state.leader_armed and rules.leader_fires(received):
        actions = [Send(p, 1, CAT_BROADCAST) for p in range(len(sent))]
        output = protocol._set_output(state.output, LEADER)
        return state._replace(received=received,
                              sent=tuple([c + 1 for c in sent]),
                              leader_armed=False, output=output,
                              halted=True), actions
    # The remaining port: the lowest silent one, or only a committed
    # up_port, and then only while it is silent.
    silent = [p for p, c in enumerate(received)
              if c == 0 and state.up_port in (None, p)]
    if silent:
        port = silent[0]
        rest = tuple(sorted(received[:port] + received[port + 1:],
                            reverse=True))
        target = rules.upstream_quota(len(received), rest)
        if target is not None and (target > sent[port]
                                   or not state.downstream_active):
            actions = []
            if target > sent[port]:
                actions.append(Send(port, target - sent[port], CAT_UPSTREAM))
                sent = list(sent)
                sent[port] = target
                sent = tuple(sent)
            return state._replace(received=received, sent=sent, up_port=port,
                                  downstream_active=True,
                                  leader_armed=False), actions
    return state._replace(received=received), []


@pytest.mark.parametrize("algorithm", ["even", "general"])
def test_silent_port_gate_changes_no_reached_step(monkeypatch, algorithm):
    reached = set()
    real = protocol.on_deliver

    def spy(state, rules, port):
        reached.add((state, rules, port))
        return real(state, rules, port)
    monkeypatch.setattr(protocol, "on_deliver", spy)
    for t in _shapes(7):
        if algorithm == "even" and layer_decomposition(t).diameter % 2:
            continue
        if algorithm == "general" and is_edge_symmetric(t).symmetric:
            continue
        reference_explore(t, algorithm)
    assert len(reached) > 500
    for state, rules, port in reached:
        received = protocol._bump(state.received, port)
        assert protocol._evaluate(state, rules, received) == \
            _ungated_evaluate(state, rules, received), (state, port)


@pytest.mark.parametrize("upstream, leader", [
    ([UpstreamRule(degree=2, trigger=(0,), threshold=None, target=1,
                   source_index=1)],
     LeaderRule(degree=3, trigger=(2, 1), variant="remaining_one")),
    ([UpstreamRule(degree=2, trigger=(1,), threshold=None, target=1,
                   source_index=1)],
     LeaderRule(degree=3, trigger=(1, 0, 0), variant="all_ports")),
])
def test_a_rule_set_with_a_trigger_entry_below_one_is_rejected(upstream,
                                                                leader):
    # _evaluate tries no rule on a node with more than one silent port,
    # which is sound only while every trigger entry is at least 1.
    with pytest.raises(protocol.RuleConsistencyError, match="below 1"):
        RuleSet("general", upstream, leader, shape_count=2)


@pytest.mark.parametrize("ids", [(1, 300), (300, 1)])
def test_explore_with_ids_past_one_byte_equals_reference(ids):
    assert explore_all_schedules(path(2), "stabilizing", ids).to_dict() \
        == reference_explore(path(2), "stabilizing", ids).to_dict()


def test_explore_holds_a_counter_past_two_bytes():
    # The election of ID 70000 puts 70000 pulses on one edge, more than
    # a 2-byte field holds. reference_explore gives the same figures.
    rep = explore_all_schedules(path(2), "stabilizing", (1, 70000))
    assert (rep.states, rep.transitions) == (140005, 210005)
    [cls] = rep.terminal_classes
    assert cls.per_edge_sent == (2, 70001)
    assert rep.leaders == (0,)
    with pytest.raises(StateCapExceededError):
        explore_all_schedules(path(2), "stabilizing", (1, 70000),
                              max_states=100000)


def _sha256(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()) \
        .hexdigest()


# The instances below have 66k-140k states, where reference_explore
# takes seconds, so each test holds the sha256 of the reference's
# report instead of running it. To recompute a pin, run the test's own
# call with reference_explore in place of explore_all_schedules, under
# the same monkeypatch, and hash its to_dict() (or _without_send_totals)
# with _sha256.
# ids -> _sha256(reference_explore(path(len(ids)), "stabilizing",
# ids).to_dict()).
_BOUNDARY_PINS = {
    (1, 32767):
    "c1c2c0164db8d23ad98124ad3d2d3b93782ece6b288b2c07a7e9a344b7565552",
    (1, 32768):
    "9c23f31451c16d387317cf592ebf057b4d280c8beb9bc57ca6f682be154b4461",
    (40000, 2):
    "a191654dc470543cec08720c4a8c9f90006033df99cd22280d029f52924f564d",
    (65535, 1):
    "fc4edd4cfcf8b793c14b5c1db3ccbeceec1bbbff9a50ba8b745ac900df62e1a6",
    (33000, 2, 1):
    "9ffa72770a1fba708974dcf09c659b7f4ba6872877e0a141c45bb6c5662cc0ce",
}


@pytest.mark.parametrize("ids", list(_BOUNDARY_PINS))
def test_explore_at_the_field_width_boundaries_equals_reference(ids):
    # Values around 2**15 and 2**16, the limits of 2-byte fields with
    # and without a headroom bit. A leaf's election goes down the edge
    # that may still hold its leaf pulse, so (1, 32767) puts 32768
    # pulses on one edge and (65535, 1) puts 65536 there. At the
    # default cap the fields are wider; the capped tests below cross a
    # field's limit.
    t = path(len(ids))
    assert _sha256(explore_all_schedules(t, "stabilizing", ids).to_dict()) \
        == _BOUNDARY_PINS[ids]


def test_explore_of_binary3_general_is_pinned():
    # 196,039 states and 1,228,760 transitions over 28 directed edges,
    # with thousands of distinct sets of nonempty edges: a walk the
    # small-shape corpus does not reach. The pin is
    # _sha256(reference_explore(resolve_tree("binary3"),
    # "general").to_dict()), which takes about 12 s.
    rep = explore_all_schedules(resolve_tree("binary3"), "general")
    assert (rep.states, rep.transitions) == (196039, 1228760)
    assert _sha256(rep.to_dict()) == \
        "e374101e4260b18e2150802bc377da52b1f0f26a9c859e2da17426ab0ad05f73"


def test_explore_checks_counters_that_grow_across_deliveries(monkeypatch):
    # Each of the three pulses into the node with ID 3 sends 22000 more
    # back. No single send reaches 2**15, yet one edge can come to hold
    # 66004 pulses, more than a 2-byte field holds. At the default cap
    # the fields hold it; the capped twin below crosses their limit.
    real = protocol.stabilizing_step

    def flooding(state, port):
        nxt, actions = real(state, port)
        if state.node_id == 3:
            nxt = nxt._replace(sent=protocol._bump(nxt.sent, 0, 22000))
            actions = list(actions) + [Send(0, 22000, CAT_ELECTION)]
        return nxt, actions
    monkeypatch.setattr(protocol, "stabilizing_step", flooding)
    # _sha256(reference_explore(path(2), "stabilizing", (2, 3)).to_dict())
    # under this monkeypatch.
    pin = "8ac8d556b1bf1c3cc99df6edf4b29dae2d4dbe743b14ae08f9268f3fa67511d1"
    assert _sha256(explore_all_schedules(path(2), "stabilizing",
                                         (2, 3)).to_dict()) == pin


def _flooding(real):
    """The stabilizing automaton, but each pulse into the node with ID
    3 sends 22000 more back."""

    def step(state, port):
        nxt, actions = real(state, port)
        if state.node_id == 3:
            nxt = nxt._replace(sent=protocol._bump(nxt.sent, 0, 22000))
            actions = list(actions) + [Send(0, 22000, CAT_ELECTION)]
        return nxt, actions
    return step


def test_a_capped_explore_checks_counters_that_grow_across_deliveries(
        monkeypatch):
    # A cap of 60000 states gives 17-bit fields, whose values stay below
    # 2**16 = 65536. Each send of 22000 fits, but three of them on one
    # edge do not. With ID 3 on vertex 0 the walk meets that edge among
    # its first ten states, and the check of each popped state ends it;
    # with IDs (2, 3) the cap comes first.
    monkeypatch.setattr(protocol, "stabilizing_step",
                        _flooding(protocol.stabilizing_step))
    with pytest.raises(StateCapExceededError) as err:
        explore_all_schedules(path(2), "stabilizing", (3, 2),
                              max_states=60000)
    assert str(err.value) == "more than 60000 states"


@pytest.mark.parametrize("cap", [1000, 60000])
def test_a_capped_explore_stops_at_a_send_past_its_fields(cap):
    # A cap of 1000 states gives 11-bit fields (values below 1024), and
    # 60000 gives 17-bit ones (below 65536): either way the election of
    # ID 70000 is one send past the limit, and its delta ends the walk.
    with pytest.raises(StateCapExceededError) as err:
        explore_all_schedules(path(2), "stabilizing", (1, 70000),
                              max_states=cap)
    assert str(err.value) == "more than %d states" % cap


def _halted_start(degree, pulses):
    """A stabilizing init in which every node starts halted; a node of
    the given degree first sends pulses on its port 0."""

    def init(d, node_id):
        sent, sends = [0] * d, []
        if d == degree:
            sent[0] = pulses
            sends.append(Send(0, pulses, CAT_ELECTION))
        return NodeState((0,) * d, tuple(sent), output=NONLEADER,
                         halted=True, live=(), node_id=node_id), sends
    return init


def test_a_capped_explore_checks_its_start(monkeypatch):
    # Each leaf of path(2) starts with 2048 pulses out, and a cap of 1000
    # states gives 11-bit fields. 2048 does not fit in 11 bits at all,
    # so the key of the start would read those counters as 0 and 1;
    # only the check of the start's fields sees it.
    monkeypatch.setattr(protocol, "init_stabilizing", _halted_start(1, 2048))
    with pytest.raises(StateCapExceededError) as err:
        explore_all_schedules(path(2), "stabilizing", (1, 2),
                              max_states=1000)
    assert str(err.value) == "more than 1000 states"


@pytest.mark.parametrize("pulses", [16, 1000, 2 ** 16])
def test_a_counter_with_no_states_to_spare_fits_its_field(monkeypatch,
                                                          pulses):
    # The middle of path(3) starts with c pulses out to a halted leaf,
    # which absorbs them one by one: c + 1 states, the fewest a counter
    # of c comes with. Under a cap of c + 1 its field must still hold
    # c below the headroom bit; for each c here, c + 1 + n has the bit
    # length of c, so a field one bit narrower would not.
    monkeypatch.setattr(protocol, "init_stabilizing",
                        _halted_start(2, pulses))
    rep = explore_all_schedules(path(3), "stabilizing", (1, 2, 3),
                                max_states=pulses + 1)
    assert (rep.states, rep.transitions) == (pulses + 1, pulses)
    with pytest.raises(StateCapExceededError) as err:
        explore_all_schedules(path(3), "stabilizing", (1, 2, 3),
                              max_states=pulses)
    assert str(err.value) == "more than %d states" % pulses


def _cap_parity_cases():
    for algorithm in ("even", "general"):
        for t in _shapes(7):
            if algorithm == "even" and layer_decomposition(t).diameter % 2:
                continue
            if algorithm == "general" and is_edge_symmetric(t).symmetric:
                continue
            yield t, algorithm, None
    for n in range(1, 5):
        for edges in oracles.nonisomorphic_trees(n):
            t = _relabelled(n, edges, n)
            for ids in itertools.permutations(range(1, n + 1)):
                yield t, "stabilizing", ids


def test_a_cap_of_exactly_the_state_count_changes_no_report():
    # The fields are sized from the cap, so a cap equal to the state
    # count gives the narrowest fields that must still hold the walk.
    checked = 0
    for t, algorithm, ids in _cap_parity_cases():
        full = explore_all_schedules(t, algorithm, ids).to_dict()
        states = full["states"]
        for cap in (states, 1e6, float("inf")):
            assert explore_all_schedules(t, algorithm, ids,
                                         max_states=cap).to_dict() == full, \
                (t.edges(), algorithm, ids, cap)
        if states > 1:
            with pytest.raises(StateCapExceededError) as err:
                explore_all_schedules(t, algorithm, ids,
                                      max_states=states - 1)
            assert str(err.value) == "more than %d states" % (states - 1)
        checked += 1
    assert checked == 15 + 21 + 57


def test_explore_rejects_a_negative_send(monkeypatch):
    # A negative field in a delta would borrow from its neighbour.
    real = protocol.stabilizing_step

    def unsend(state, port):
        nxt, actions = real(state, port)
        return nxt, list(actions) + [Send(0, -1, CAT_ELECTION)]
    monkeypatch.setattr(protocol, "stabilizing_step", unsend)
    with pytest.raises(ValueError, match="negative number of pulses"):
        explore_all_schedules(path(2), "stabilizing", (1, 2))


@pytest.mark.parametrize("t,algorithm,ids", [
    (path(3), "even", None), (c5(), "general", None),
    (path(2), "stabilizing", (1, 2))])
def test_a_run_rejects_a_negative_send(monkeypatch, t, algorithm, ids):
    def unsend(step):
        def wrapped(*args):
            nxt, actions = step(*args)
            return nxt, list(actions) + [Send(0, -1, CAT_ELECTION)]
        return wrapped
    monkeypatch.setattr(protocol, "on_deliver", unsend(protocol.on_deliver))
    monkeypatch.setattr(protocol, "stabilizing_step",
                        unsend(protocol.stabilizing_step))
    s = new_simulation(t, algorithm, ids)
    with pytest.raises(ValueError, match="negative number of pulses"):
        run(s, SeededRandom(0), 100)


def _without_send_totals(report):
    d = report.to_dict()
    for cls in d["terminal_classes"]:
        del cls["per_edge_sent"], cls["total_pulses"]
    return d


def test_explore_sizes_its_fields_without_reading_sent(monkeypatch):
    # A broken automaton sends its election but leaves its sent counts
    # as they were, so only the actions say that 70000 pulses went out.
    # The terminal classes read the stale counts, the reference reads
    # the delivered pulses, so those two fields may differ.
    real = protocol.stabilizing_step

    def stale_sent(state, port):
        nxt, actions = real(state, port)
        return nxt._replace(sent=state.sent), actions
    monkeypatch.setattr(protocol, "stabilizing_step", stale_sent)
    rep = explore_all_schedules(path(2), "stabilizing", (1, 70000))
    # _sha256(_without_send_totals(reference_explore(path(2),
    # "stabilizing", (1, 70000)))) under this monkeypatch.
    pin = "0258c03923bdd435fcbee8e3d134a4faf544d727648bbfeafee5a42af4f920c7"
    assert _sha256(_without_send_totals(rep)) == pin


def test_explore_steps_each_node_state_and_port_once(monkeypatch):
    # Through the 70000-pulse election and the 140005 states after it,
    # the walk steps no (node state, port) a second time.
    real = protocol.stabilizing_step
    calls = {}

    def spy(state, port):
        calls[state, port] = calls.get((state, port), 0) + 1
        return real(state, port)
    monkeypatch.setattr(protocol, "stabilizing_step", spy)
    explore_all_schedules(path(2), "stabilizing", (1, 70000))
    assert calls and set(calls.values()) == {1}


def _faulty_on_deliver(real):
    """A broken automaton: a node echoes a pulse back down whenever it
    sends up, and declares LEADER where it should declare NONLEADER."""

    def on_deliver(state, rules, port):
        state, actions = real(state, rules, port)
        if state.output == NONLEADER:
            state = state._replace(output=LEADER)
        if any(a.category == CAT_UPSTREAM for a in actions):
            sent = list(state.sent)
            sent[port] += 1
            state = state._replace(sent=tuple(sent))
            actions.append(Send(port, 1, CAT_UPSTREAM))
        return state, actions
    return on_deliver


@pytest.mark.parametrize("t,algorithm", [(path(5), "even"),
                                         (c5(), "general")])
def test_every_counter_fires_under_a_faulty_automaton(monkeypatch, t,
                                                      algorithm):
    monkeypatch.setattr(protocol, "on_deliver",
                        _faulty_on_deliver(protocol.on_deliver))
    rep = explore_all_schedules(t, algorithm)
    assert rep.to_dict() == reference_explore(t, algorithm).to_dict()
    assert rep.direction_violations > 0
    assert rep.halted_delivery_transitions > 0
    assert rep.nonquiescent_declarations > 0
    assert rep.multi_leader_states > 0
