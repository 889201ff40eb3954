import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
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
    Send,
    SymmetricTreeError,
    UpstreamRule,
    _evaluate,
    compile_even_rules,
    compile_general_rules,
    init_node,
    init_stabilizing,
    match_trigger,
    on_deliver,
    stabilizing_step,
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


def test_match_trigger_examples():
    assert match_trigger([2, 2, 0], (2, 2), 0) == 2
    assert match_trigger([3, 0, 0], (2, 2), 0) is None
    assert match_trigger([2, 2, 1], (2, 2), 1) == 2


def test_match_trigger_picks_lowest_port_on_ties():
    # either port could play the remaining role; lowest index wins
    assert match_trigger([0, 0], (0,), 0) == 0
    assert match_trigger([2, 2], (2,), 2) == 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_match_trigger_matches_brute_force(data):
    d = data.draw(st.integers(1, 7))
    counts = st.integers(0, 4)
    received = data.draw(st.lists(counts, min_size=d, max_size=d))
    trigger = tuple(data.draw(st.lists(counts, min_size=d - 1,
                                       max_size=d - 1)))
    required = data.draw(st.integers(0, 2))
    assert match_trigger(received, trigger, required) == \
        oracles.brute_force_match_trigger(received, trigger, required)


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
