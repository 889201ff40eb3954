import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pulseforge import protocol
from pulseforge.harness import random_asymmetric_tree
from pulseforge.protocol import (
    CAT_BROADCAST,
    CAT_ELECTION,
    CAT_LEAF,
    CAT_UPSTREAM,
    LEADER,
    NONLEADER,
    LeaderRule,
    UNDECIDED,
    NodeState,
    OddDiameterError,
    RuleConsistencyError,
    RuleSet,
    Send,
    SymmetricTreeError,
    UpstreamRule,
    _bump,
    _evaluate,
    compile_even_rules,
    compile_general_rules,
    init_node,
    init_stabilizing,
    on_deliver,
    stabilizing_step,
)
from pulseforge.simulator import (
    SeededRandom,
    explore_all_schedules,
    new_simulation,
    run,
)
from pulseforge.topology import (
    TreeTopology,
    enumerate_subtrees,
    is_edge_symmetric,
    layer_decomposition,
)


def c5():
    return TreeTopology(5, [(1, 2), (2, 3), (3, 4), (2, 0)])


def path(n):
    return TreeTopology(n, [(i, i + 1) for i in range(n - 1)])


def sends(actions):
    return [a for a in actions if isinstance(a, Send)]


def test_compile_even_rules_d4():
    rules = compile_even_rules(4)
    assert rules.radius == 2
    assert [(r.threshold, r.target) for r in rules.upstream] == [(2, 1),
                                                                 (3, 2)]
    assert rules.leader.variant == "every_port_once"


def test_compile_even_rules_rejects_odd():
    with pytest.raises(OddDiameterError):
        compile_even_rules(3)
    with pytest.raises(OddDiameterError):
        compile_even_rules(-2)


def test_compile_even_rules_d0_has_no_upstream():
    rules = compile_even_rules(0)
    assert rules.upstream == ()


def test_compile_general_rules_c5():
    rules = compile_general_rules(c5())
    assert rules.shape_count == 3
    by_source = {r.source_index: r for r in rules.upstream}
    assert by_source[1].degree == 1
    assert by_source[1].trigger == ()
    assert by_source[1].target == 2
    assert by_source[2].degree == 2
    assert by_source[2].trigger == (2,)
    assert by_source[2].target == 1
    assert rules.leader.variant == "remaining_one"
    assert rules.leader.degree == 3
    assert rules.leader.trigger == (2, 2)


def test_compile_general_rules_p3():
    rules = compile_general_rules(path(3))
    assert rules.shape_count == 2
    (leaf_rule,) = rules.upstream
    assert (leaf_rule.degree, leaf_rule.trigger, leaf_rule.target) == (1, (), 1)
    assert rules.leader.variant == "all_ports"
    assert rules.leader.trigger == (1, 1)


def test_compile_general_rules_rejects_symmetric():
    with pytest.raises(SymmetricTreeError) as exc:
        compile_general_rules(path(4))
    assert exc.value.witness_edge == (1, 2)
    with pytest.raises(SymmetricTreeError):
        compile_general_rules(path(2))


def _rules_by_rescanning(t):
    """The (upstream, leader, shape count) of t's general rule set,
    derived by scanning the tree: a representative vertex per shape,
    the quotas of its lower-layer neighbours sorted, and the root's
    neighbours but the co-root for the leader rule."""
    layering = layer_decomposition(t)
    idx = enumerate_subtrees(t, layering)
    rep_of = {}
    for v in range(t.n):
        rep_of.setdefault(idx.class_of[v], v)
    upstream = []
    for i in range(1, idx.count):
        v = rep_of[i]
        kids = [u for u in t.neighbors[v]
                if layering.layer_of[u] < layering.layer_of[v]]
        trigger = tuple(sorted((idx.quota_of(u) for u in kids), reverse=True))
        upstream.append(UpstreamRule(
            degree=len(kids) + 1, trigger=trigger, threshold=None,
            target=idx.quota(i), source_index=i))
    root = layering.root
    others = [u for u in t.neighbors[root] if u != layering.co_root]
    trigger = tuple(sorted((idx.quota_of(u) for u in others), reverse=True))
    variant = "all_ports" if layering.co_root is None else "remaining_one"
    leader = LeaderRule(degree=t.degree(root), trigger=trigger,
                        variant=variant)
    return tuple(upstream), leader, idx.count


def test_compiled_general_rules_equal_a_rescan_of_the_tree():
    trees = [TreeTopology(n, edges) for n in range(1, 11)
             for edges in oracles.nonisomorphic_trees(n)]
    trees = [t for t in trees if not is_edge_symmetric(t).symmetric]
    trees += [random_asymmetric_tree(n, s) for n in (12, 30, 100, 300)
              for s in range(4)]
    trees += [random_asymmetric_tree(800, s) for s in range(2)]
    for t in trees:
        rules = compile_general_rules(t)
        assert (rules.upstream, rules.leader, rules.shape_count) == \
            _rules_by_rescanning(t), t.edges()
        # The shape ranking alone orders same-degree quotas by trigger.
        assert oracles.dominance_violations(rules.upstream) == [], t.edges()


def test_check_dominance_rejects_inconsistent_rules():
    rules = (
        UpstreamRule(degree=3, trigger=(2, 1), threshold=None, target=1,
                     source_index=1),
        UpstreamRule(degree=3, trigger=(3, 2), threshold=None, target=1,
                     source_index=2),
    )
    assert oracles.dominance_violations(rules) == [(rules[1], rules[0])]


UPSTREAM_RULE_SETS = (
    [compile_even_rules(2 * r) for r in (1, 2, 4)]
    + [compile_general_rules(random_asymmetric_tree(n, seed))
       for n, seed in ((12, 1), (25, 2), (40, 3))])


def _general_degrees(rules):
    """The degrees of a general set's upstream rules, then one above
    them that has none, so that matching meets a degree without rules."""
    degrees = sorted({r.degree for r in rules.upstream})
    return degrees + [degrees[-1] + 1]


def _quota_triggers(rules, d):
    return [(r.target,
             (r.threshold,) * (d - 1) if r.degree is None else r.trigger)
            for r in rules.upstream if r.degree in (None, d)]


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_upstream_choice_matches_brute_force(data):
    rules = data.draw(st.sampled_from(UPSTREAM_RULE_SETS))
    if rules.algorithm == "even":
        d = data.draw(st.integers(1, 6))
    else:
        d = data.draw(st.sampled_from(_general_degrees(rules)))
    pairs = _quota_triggers(rules, d)
    # Counts near trigger entries, so that some rules match and some
    # just miss; 1 and 2 reach the degree without rules.
    near = sorted({0, 1, 2} | {x + e for _, trig in pairs for x in trig
                               for e in (-1, 0, 1) if x + e >= 0})
    received = data.draw(st.lists(st.sampled_from(near), min_size=d,
                                  max_size=d))
    up_port = data.draw(st.none() | st.integers(0, d - 1))
    state = NodeState(tuple(received), (0,) * d, up_port=up_port,
                      leader_armed=False)
    state, actions = _evaluate(state, rules, state.received)
    best = oracles.brute_force_upstream(received, pairs, up_port)
    if best is None:
        assert actions == []
        assert state.up_port == up_port
    else:
        quota, port = best
        assert state.up_port == port
        assert actions == [Send(port, quota, CAT_UPSTREAM)]


# Long-lived rule sets: every example below evaluates on the same
# ones, so later examples meet a memo that earlier ones filled. Even
# sets answer in closed form and keep no memo; r = 0 has no rules.
WARM_RULE_SETS = (compile_even_rules(8), compile_even_rules(0),
                  compile_general_rules(random_asymmetric_tree(60, 4)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_memoised_upstream_match_equals_brute_force_when_warm(data):
    rules = data.draw(st.sampled_from(WARM_RULE_SETS))
    if rules.algorithm == "even":
        d = data.draw(st.integers(1, 4))
    else:
        d = data.draw(st.sampled_from(_general_degrees(rules)))
    pairs = _quota_triggers(rules, d)
    near = sorted({0, 1, 2} | {x + e for _, trig in pairs for x in trig
                               for e in (-1, 0, 1) if x + e >= 0})
    received = data.draw(st.lists(st.sampled_from(near), min_size=d,
                                  max_size=d))
    up_port = data.draw(st.none() | st.integers(0, d - 1))
    best = oracles.brute_force_upstream(received, pairs, up_port)
    # The second evaluation meets what the first left in the memo.
    for _ in range(2):
        state = NodeState(tuple(received), (0,) * d, up_port=up_port,
                          leader_armed=False)
        state, actions = _evaluate(state, rules, state.received)
        if best is None:
            assert actions == []
            assert state.up_port == up_port
        else:
            quota, port = best
            assert state.up_port == port
            assert actions == [Send(port, quota, CAT_UPSTREAM)]
    if best is not None and rules.algorithm == "general":
        quota, port = best
        rest = tuple(sorted(received[:port] + received[port + 1:],
                            reverse=True))
        assert rules._quota_memo[d][rest] == quota
    # Memos exist for the rules' degrees only, from construction on.
    assert set(rules._quota_memo) == {r.degree for r in rules.upstream
                                      if r.degree is not None}


@pytest.mark.parametrize("r", [0, 1, 2, 5])
def test_even_closed_form_quota_equals_brute_force(r):
    rules = compile_even_rules(2 * r)
    # d = 1 leaves rest == (): every rule matches a leaf, so it gets r.
    assert rules.upstream_quota(1, ()) == (r or None)
    for d in range(1, 4):
        pairs = _quota_triggers(rules, d)
        for rest in itertools.product(range(r + 3), repeat=d - 1):
            rest = tuple(sorted(rest, reverse=True))
            best = oracles.brute_force_upstream((0,) + rest, pairs, 0)
            assert rules.upstream_quota(d, rest) == (best and best[0])
    assert rules._quota_memo == {}


# Leader rules of both general variants (even diameter gives all_ports,
# odd remaining_one) at degrees 1 to 4, and even sets' every_port_once.
EVEN_LEADER_SETS = [compile_even_rules(2 * r) for r in (0, 1, 3)]
LEADER_RULE_SETS = EVEN_LEADER_SETS + [
    compile_general_rules(TreeTopology(n, edges)) for n in range(3, 9)
    for edges in oracles.nonisomorphic_trees(n)
    if not is_edge_symmetric(TreeTopology(n, edges)).symmetric]


def test_leader_rule_sets_cover_both_general_variants():
    variants = {(r.leader.variant, r.leader.degree) for r in LEADER_RULE_SETS}
    for variant in ("all_ports", "remaining_one"):
        assert {d for v, d in variants if v == variant} >= {2, 3, 4}
    assert ("every_port_once", None) in variants


def _brute_force_leader(rules, received):
    leader = rules.leader
    if leader.variant == "every_port_once":
        return all(c >= 1 for c in received)
    if leader.degree != len(received):
        return False
    if leader.variant == "all_ports":
        return oracles.brute_force_all_ports(received, leader.trigger)
    return oracles.brute_force_match_trigger(received, leader.trigger,
                                             1) is not None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_leader_fires_matches_brute_force(data):
    # Even sets are few, so they are drawn as often as general ones.
    rules = data.draw(st.one_of(st.sampled_from(EVEN_LEADER_SETS),
                                st.sampled_from(LEADER_RULE_SETS)))
    trigger = rules.leader.trigger or ()
    if rules.leader.degree is None:
        d = data.draw(st.integers(0, 5))
    else:
        # The leader's degree mostly, and its neighbours, which never fire.
        d = data.draw(st.sampled_from([rules.leader.degree] * 4 + [
            rules.leader.degree - 1, rules.leader.degree + 1]))
    # The trigger's entries, padded with 1s (a remaining_one leader's
    # remaining port), shuffled and each moved by at most one, so that
    # counts sit near the entries, 0 and 1 among them, and many fire.
    base = data.draw(st.permutations((list(trigger) + [1] * d)[:d]))
    received = tuple(max(0, c + data.draw(st.sampled_from((-1, 0, 0, 1))))
                     for c in base)
    fires = _brute_force_leader(rules, received)
    assert rules.leader_fires(received) == fires
    # Every trigger entry is at least 1, so the silent-port gate in
    # front of leader_fires refuses only counts that would not fire.
    state, actions = _evaluate(NodeState(received, (0,) * d), rules,
                               received)
    assert (state.output == LEADER) == fires
    if fires:
        assert actions == [Send(p, 1, CAT_BROADCAST) for p in range(d)]


_LEAF_RULE = UpstreamRule(degree=1, trigger=(), threshold=None, target=1,
                          source_index=1)


def test_an_unsorted_upstream_trigger_matches_as_brute_force():
    rule = UpstreamRule(degree=3, trigger=(1, 2), threshold=None, target=1,
                        source_index=2)
    rules = RuleSet("general", [_LEAF_RULE, rule],
                    LeaderRule(degree=2, trigger=(1, 1), variant="all_ports"),
                    shape_count=3)
    received = (2, 1, 0)
    assert oracles.brute_force_upstream(received, [(1, (1, 2))], None) == \
        (1, 2)
    assert rules.upstream_quota(3, (2, 1)) == 1
    state, actions = _evaluate(NodeState(received, (0,) * 3,
                                         leader_armed=False),
                               rules, received)
    assert actions == [Send(2, 1, CAT_UPSTREAM)]
    assert state.up_port == 2
    # The rule keeps the trigger as it was given.
    assert rules.upstream[1].trigger == (1, 2)


@pytest.mark.parametrize("upstream, leader", [
    # An all_ports leader needs one entry per port; else the zip in
    # _dominates would let (5, 1) meet the first two entries only.
    ([_LEAF_RULE], LeaderRule(degree=2, trigger=(5, 1, 1),
                              variant="all_ports")),
    ([_LEAF_RULE], LeaderRule(degree=2, trigger=(1,), variant="all_ports")),
    # A remaining_one leader needs one entry per non-remaining port.
    ([_LEAF_RULE], LeaderRule(degree=3, trigger=(2, 2, 1),
                              variant="remaining_one")),
    ([_LEAF_RULE], LeaderRule(degree=3, trigger=(2,),
                              variant="remaining_one")),
    # So does an upstream rule.
    ([_LEAF_RULE, UpstreamRule(degree=3, trigger=(1,), threshold=None,
                               target=1, source_index=2)],
     LeaderRule(degree=2, trigger=(1, 1), variant="all_ports")),
    ([UpstreamRule(degree=1, trigger=(1,), threshold=None, target=1,
                   source_index=1)],
     LeaderRule(degree=2, trigger=(1, 1), variant="all_ports")),
])
def test_a_trigger_that_does_not_fit_its_rule_is_rejected(upstream, leader):
    with pytest.raises(RuleConsistencyError, match="does not fit degree"):
        RuleSet("general", upstream, leader, shape_count=2)


def test_init_leaf_sends_radius_even():
    rules = compile_even_rules(4)
    state, actions = init_node(1, rules)
    (s,) = sends(actions)
    assert (s.port, s.count, s.category) == (0, 2, CAT_UPSTREAM)
    assert state.up_port == 0
    assert state.output == UNDECIDED


def test_init_leaf_sends_shape_count_minus_one_general():
    rules = compile_general_rules(c5())
    state, actions = init_node(1, rules)
    (s,) = sends(actions)
    assert s.count == 2


def test_init_internal_node_is_silent():
    rules = compile_even_rules(4)
    state, actions = init_node(3, rules)
    assert actions == []
    assert state.up_port is None


def test_upstream_fires_after_threshold_even():
    rules = compile_even_rules(2)
    state, actions = init_node(2, rules)
    assert actions == []
    state, actions = on_deliver(state, rules, 0)
    assert actions == []
    state, actions = on_deliver(state, rules, 0)
    (s,) = sends(actions)
    assert (s.port, s.count) == (1, 1)
    assert state.up_port == 1


def test_upstream_tops_up_across_rules():
    # radius 3, degree 2: thresholds 2,3,4 with targets 1,2,3; each new
    # threshold adds only the shortfall through the same port
    rules = compile_even_rules(6)
    state, actions = init_node(2, rules)
    totals = []
    for _ in range(4):
        state, actions = on_deliver(state, rules, 0)
        totals.append(sum(s.count for s in sends(actions)))
    assert totals == [0, 1, 1, 1]
    assert state.sent[1] == 3
    assert state.up_port == 1


def test_port_star_never_moves():
    rules = compile_even_rules(6)
    state, _ = init_node(3, rules)
    for port in (0, 0, 1, 1, 0, 1, 0, 1):
        state, _ = on_deliver(state, rules, port)
        if state.up_port is not None:
            assert state.up_port == 2
    assert state.up_port == 2


def test_leader_fires_on_every_port_once():
    rules = compile_even_rules(2)
    state, _ = init_node(2, rules)
    state, _ = on_deliver(state, rules, 0)
    state, actions = on_deliver(state, rules, 1)
    assert [(s.port, s.count) for s in sends(actions)] == [(0, 1), (1, 1)]
    assert all(s.category == CAT_BROADCAST for s in sends(actions))
    assert state.halted and state.output == LEADER


def test_leader_remaining_one_c5_trace():
    rules = compile_general_rules(c5())
    # vertex 2: port 0 from leaf 1, port 1 from chain 3, port 2 from leaf 0
    state, _ = init_node(3, rules)
    for port in (0, 0, 2, 2):
        state, actions = on_deliver(state, rules, port)
        assert actions == []
    state, actions = on_deliver(state, rules, 1)
    assert state.output == LEADER
    assert len(sends(actions)) == 3


def test_downstream_relay_and_halt():
    rules = compile_even_rules(4)
    state, _ = init_node(3, rules)
    state, _ = on_deliver(state, rules, 0)
    state, _ = on_deliver(state, rules, 0)
    state, _ = on_deliver(state, rules, 1)
    state, _ = on_deliver(state, rules, 1)
    assert state.up_port == 2
    state, actions = on_deliver(state, rules, 2)
    assert state.output == NONLEADER
    assert sorted(s.port for s in sends(actions)) == [0, 1]
    assert state.halted


def test_no_leader_after_upstream_commitment():
    # both ports reach 1, but the node already picked an upstream port,
    # so the even leader rule must stay quiet
    rules = compile_even_rules(2)
    state, _ = init_node(2, rules)
    state, _ = on_deliver(state, rules, 0)
    state, actions = on_deliver(state, rules, 0)
    assert state.up_port == 1
    state, actions = on_deliver(state, rules, 0)
    assert not state.halted
    assert state.output == UNDECIDED


def test_stabilizing_degree0_wins_at_init():
    state, actions = init_stabilizing(0, 7)
    assert actions == [] and state.halted
    assert state.output == LEADER


def test_stabilizing_leaf_announces_at_init():
    state, actions = init_stabilizing(1, 4)
    (s,) = sends(actions)
    assert (s.port, s.count, s.category) == (0, 1, CAT_LEAF)
    assert state.is_leaf
    assert state.output == NONLEADER


def test_stabilizing_interior_removes_and_cascades():
    state, actions = init_stabilizing(3, 9)
    assert actions == []
    state, actions = stabilizing_step(state, 0)
    assert actions == [] and state.live == (1, 2)
    state, actions = stabilizing_step(state, 2)
    # down to one live neighbor: becomes a leaf toward port 1
    (s,) = sends(actions)
    assert (s.port, s.category) == (1, CAT_LEAF)
    assert state.is_leaf


def test_stabilizing_election_win_and_block():
    # a 2-path by hand: ids 3 (this node) vs 5 (the other side)
    me, actions = init_stabilizing(1, 3)
    me, actions = stabilizing_step(me, 0)
    (s,) = sends(actions)
    assert (s.count, s.category) == (3, CAT_ELECTION)
    assert me.needed == 3
    for _ in range(2):
        me, actions = stabilizing_step(me, 0)
        assert actions == []
    me, actions = stabilizing_step(me, 0)
    assert actions == [] and me.halted
    assert me.output == LEADER

    other, _ = init_stabilizing(1, 5)
    other, _ = stabilizing_step(other, 0)
    assert other.needed == 5
    for _ in range(3):
        other, actions = stabilizing_step(other, 0)
        assert actions == []
    assert other.got == 3 and not other.halted
    assert other.output == NONLEADER


def test_on_deliver_does_not_mutate_input():
    rules = compile_even_rules(2)
    state, _ = init_node(2, rules)
    frozen = NodeState(*state)
    on_deliver(state, rules, 0)
    assert state == frozen


def test_node_state_is_an_immutable_value():
    rules = compile_even_rules(4)
    start, _ = init_node(3, rules)
    a, b = start, start
    for port in (0, 1, 0):
        a, _ = on_deliver(a, rules, port)
    for port in (1, 0, 0):
        b, _ = on_deliver(b, rules, port)
    # Two delivery orders that end on the same counters give one value.
    assert a is not b
    assert a == b and hash(a) == hash(b) and len({a, b, start}) == 2
    assert a.received == (2, 1, 0)
    with pytest.raises(AttributeError):
        a.received = (0, 0, 0)
    for name in ("copy", "key", "_key"):
        assert not hasattr(a, name)


def test_describe_is_stable():
    rules = compile_general_rules(c5())
    assert rules.describe() == compile_general_rules(c5()).describe()


def test_describe_lists_an_all_ports_leader():
    assert compile_general_rules(path(3)).describe() == [
        "algorithm=general shapes=2",
        "upstream source=1 degree=1 trigger=[] quota=1",
        "leader: degree=2 all ports >= [1, 1]",
    ]


def _no_skip(state, rules, port):
    """on_deliver without its skips, by crossing value or by silent
    ports: the top-down signal, else every rule tried on the bumped
    counters."""
    if state.downstream_active and port == state.up_port:
        return on_deliver(state, rules, port)
    return _evaluate(state, rules, _bump(state.received, port))


def _check_every_delivery(monkeypatch):
    """Check each reply of protocol.on_deliver against _no_skip. The
    returned tally counts the calls and the skips, the calls that are
    not the top-down signal and reach no rule; "silent" counts the skips
    that only two or more silent ports explain, a first pulse on its
    port or a count raised to a crossing value."""
    tally = {"calls": 0, "skips": 0, "silent": 0, "evaluated": 0}

    def evaluate(state, rules, received):
        tally["evaluated"] += 1
        return _evaluate(state, rules, received)

    def deliver(state, rules, port):
        before = tally["evaluated"]
        got = on_deliver(state, rules, port)
        assert got == _no_skip(state, rules, port), (state, port)
        tally["calls"] += 1
        if tally["evaluated"] == before and not (
                state.downstream_active and port == state.up_port):
            tally["skips"] += 1
            count = state.received[port]
            if not count or count + 1 in rules.crossing[len(state.received)]:
                tally["silent"] += 1
        return got
    monkeypatch.setattr(protocol, "_evaluate", evaluate)
    monkeypatch.setattr(protocol, "on_deliver", deliver)
    return tally


def test_skipped_deliveries_equal_the_full_match_on_small_shapes(
        monkeypatch):
    tally = _check_every_delivery(monkeypatch)
    shapes = 0
    for n in range(1, 11):
        for edges in oracles.nonisomorphic_trees(n):
            t = TreeTopology(n, edges)
            if layer_decomposition(t).diameter % 2 == 0:
                explore_all_schedules(t, "even")
                shapes += 1
            if n <= 9 and not is_edge_symmetric(t).symmetric:
                explore_all_schedules(t, "general")
                shapes += 1
    assert shapes == 196
    assert tally["skips"] > 0 and tally["calls"] > tally["skips"]
    assert tally["silent"] > 0


def test_skipped_deliveries_equal_the_full_match_in_runs(monkeypatch):
    tally = _check_every_delivery(monkeypatch)
    for seed in range(4):
        state = new_simulation(random_asymmetric_tree(60, seed), "general")
        assert run(state, SeededRandom(seed), 10 ** 6).status == "terminated"
    assert tally["skips"] > 0 and tally["calls"] > tally["skips"]
    assert tally["silent"] > 0


def _triggers(size):
    return st.lists(st.integers(1, 5), min_size=size, max_size=size)


@st.composite
def _rule_sets(draw):
    """An even set with r = 0..8, or a general set with random upstream
    triggers at degrees 1..5 and an all_ports or remaining_one leader."""
    if draw(st.booleans()):
        return compile_even_rules(2 * draw(st.integers(0, 8)))
    upstream = []
    for d in draw(st.lists(st.integers(1, 5), max_size=6)):
        upstream.append(UpstreamRule(
            degree=d, trigger=tuple(draw(_triggers(d - 1))), threshold=None,
            target=draw(st.integers(1, 6)), source_index=len(upstream) + 1))
    variant = draw(st.sampled_from(["all_ports", "remaining_one"]))
    d = draw(st.integers(1, 5))
    size = d if variant == "all_ports" else d - 1
    leader = LeaderRule(degree=d, trigger=tuple(draw(_triggers(size))),
                        variant=variant)
    return RuleSet("general", upstream, leader,
                   shape_count=len(upstream) + 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_on_deliver_equals_the_full_match_on_random_rule_sets(data):
    rules = data.draw(_rule_sets())
    d = data.draw(st.integers(1, 5))
    state, _ = init_node(d, rules)
    for port in data.draw(st.lists(st.integers(0, d - 1), max_size=40)):
        # Deliveries to a halted node never reach on_deliver.
        if state.halted:
            break
        got = on_deliver(state, rules, port)
        assert got == _no_skip(state, rules, port)
        state = got[0]


@pytest.mark.parametrize("rules, want", [
    (compile_even_rules(0), {3: set()}),
    (compile_even_rules(6), {1: {2, 3, 4}, 7: {2, 3, 4}}),
    # path(3): one leaf rule and an all_ports leader of degree 2.
    (compile_general_rules(path(3)), {1: set(), 2: {1}, 3: set()}),
    # A remaining_one leader adds 2, where its remaining port's one
    # pulse may turn into two.
    (RuleSet("general", [_LEAF_RULE],
             LeaderRule(degree=2, trigger=(3,), variant="remaining_one"),
             shape_count=2), {1: set(), 2: {2, 3}}),
    (compile_general_rules(c5()), {1: set(), 2: {2}, 3: {2}}),
])
def test_crossing_values_per_degree(rules, want):
    assert {d: set(rules.crossing[d]) for d in want} == want
