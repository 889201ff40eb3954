"""Node automata for pulse-counting leader election on trees.

Two compiled rule forms drive the terminating algorithms. The
diameter-aware form needs only an even diameter and uses one threshold
rule family: a node that sees d-1 ports reach i+1 received pulses while
one port is silent commits that silent port as its upstream port and
raises its cumulative sends through it to i. The topology-aware form
compiles one rule per distinct rooted subtree shape; triggers are the
children's send quotas and the quota of shape i is count - i, which
makes termination quiescent on trees that are not symmetric about any
edge. A third automaton implements the self-stabilizing election for
nodes holding unique positive IDs; it needs no compiled rules and never
halts the losers.

Transitions are pure: each takes a NodeState and returns a fresh state
plus the emitted actions, so the same code drives single runs and the
exhaustive schedule exploration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import enumerate_subtrees, is_edge_symmetric, layer_decomposition

UNDECIDED = "undecided"
LEADER = "leader"
NONLEADER = "nonleader"

# Pulse accounting categories, reported per run.
CAT_UPSTREAM = "upstream"
CAT_BROADCAST = "broadcast"
CAT_LEAF = "leaf"
CAT_ELECTION = "election"
CATEGORIES = (CAT_UPSTREAM, CAT_BROADCAST, CAT_LEAF, CAT_ELECTION)


class SymmetricTreeError(ValueError):
    """The tree is symmetric about an edge; no terminating algorithm exists."""

    def __init__(self, witness_edge):
        super().__init__("tree is symmetric about edge %r" % (witness_edge,))
        self.witness_edge = witness_edge


class OddDiameterError(ValueError):
    pass


class RuleConsistencyError(ValueError):
    """A compiled rule set failed the dominance/quota ordering check."""


@dataclass(frozen=True)
class Send:
    port: int
    count: int
    category: str


@dataclass(frozen=True)
class Declare:
    output: str


@dataclass(frozen=True)
class Halt:
    pass


@dataclass(frozen=True)
class UpstreamRule:
    """One upstream firing rule.

    degree None marks the any-degree threshold form used by the
    diameter-aware algorithm: every non-silent port must hold at least
    `threshold` pulses. Fixed-degree rules carry an explicit trigger
    tuple (sorted descending). target is the cumulative send quota
    through the upstream port once the rule fires.
    """

    degree: int | None
    trigger: tuple | None
    threshold: int | None
    target: int
    source_index: int

    def trigger_for(self, d):
        if self.degree is None:
            return (self.threshold,) * (d - 1)
        return self.trigger


@dataclass(frozen=True)
class LeaderRule:
    """The single leader rule of a rule set.

    Variants: "every_port_once" fires at any degree once all ports have
    received a pulse; "all_ports" needs each of the d ports to reach its
    entry of the trigger; "remaining_one" needs d-1 ports to reach the
    trigger while the remaining port holds exactly one pulse.
    """

    degree: int | None
    trigger: tuple | None
    variant: str


_MISS = object()
_NEVER = float("inf")


class RuleSet:
    """Compiled rules for one algorithm instance."""

    def __init__(self, algorithm, upstream, leader, radius=None,
                 shape_count=None):
        self.algorithm = algorithm
        self.upstream = tuple(upstream)
        self.leader = leader
        self.radius = radius
        self.shape_count = shape_count
        self._by_degree = {}
        self._quota_memo = {}
        self._floor = {}

    def triggers_for_degree(self, d):
        """(target, trigger) of every upstream rule a degree-d node obeys.

        Triggers are sorted descending and the pairs come in order of
        falling target. Filled in once per degree: the even algorithm's
        threshold rules fit any degree, so its degrees are not known
        when the rules are compiled.
        """
        found = self._by_degree.get(d)
        if found is None:
            found = tuple(sorted(
                ((rule.target,
                  tuple(sorted(rule.trigger_for(d), reverse=True)))
                 for rule in self.upstream if rule.degree in (None, d)),
                reverse=True))
            self._by_degree[d] = found
        return found

    def upstream_quota(self, d, rest):
        """Quota of the upstream rule a degree-d node obeys when its
        non-remaining ports hold rest (a tuple sorted descending); None
        when no rule matches.

        The answer depends on the rules alone, so it is memoised in one
        dict per degree, keyed by rest, and every state that holds this
        RuleSet (clones, steps, an exploration) shares it. A rest that
        is below every trigger at its first or last entry can match no
        rule; it is answered without a scan and kept out of the memo. A
        miss scans triggers_for_degree(d): targets are distinct and
        come falling, so the first trigger rest dominates carries the
        largest quota, and a trigger whose largest entry exceeds rest's
        largest cannot be dominated.
        """
        memo = self._quota_memo.get(d)
        if memo is None:
            memo = self._quota_memo[d] = {}
            wants = [want for _, want in self.triggers_for_degree(d) if want]
            # The least tuple has the least first entry.
            self._floor[d] = ((min(wants)[0], min([w[-1] for w in wants]))
                              if wants else (_NEVER, _NEVER))
        if rest:
            first, last = self._floor[d]
            if rest[0] < first or rest[-1] < last:
                return None
        quota = memo.get(rest, _MISS)
        if quota is _MISS:
            quota = None
            for target, want in self.triggers_for_degree(d):
                if want and want[0] > rest[0]:
                    continue
                if _dominates(rest, want):
                    quota = target
                    break
            memo[rest] = quota
        return quota

    def describe(self):
        """Stable human-readable listing, one rule per line."""
        lines = []
        if self.algorithm == "even":
            lines.append("algorithm=even radius=%d" % self.radius)
            for rule in self.upstream:
                lines.append(
                    "upstream source=%d degree=any trigger=(>=%d on each of "
                    "d-1 ports, remaining port 0) quota=%d"
                    % (rule.source_index, rule.threshold, rule.target))
            lines.append("leader: every port >= 1")
        else:
            lines.append("algorithm=general shapes=%d" % self.shape_count)
            for rule in self.upstream:
                lines.append(
                    "upstream source=%d degree=%d trigger=%s quota=%d"
                    % (rule.source_index, rule.degree,
                       list(rule.trigger), rule.target))
            if self.leader.variant == "all_ports":
                lines.append("leader: degree=%d all ports >= %s"
                             % (self.leader.degree, list(self.leader.trigger)))
            else:
                lines.append(
                    "leader: degree=%d trigger=%s remaining port exactly 1"
                    % (self.leader.degree, list(self.leader.trigger)))
        return lines


def _check_dominance(rules):
    # Among same-degree rules, a componentwise greater-or-equal trigger
    # must come with a strictly larger quota, otherwise matching would
    # be ambiguous about which quota a node settles on.
    by_degree = {}
    for rule in rules:
        by_degree.setdefault(rule.degree, []).append(rule)
    for degree, group in by_degree.items():
        for a in group:
            for b in group:
                if a is b:
                    continue
                if all(x >= y for x, y in zip(a.trigger, b.trigger)):
                    if not a.target > b.target:
                        raise RuleConsistencyError(
                            "degree-%d triggers %r >= %r but quotas %d <= %d"
                            % (degree, a.trigger, b.trigger,
                               a.target, b.target))


def compile_even_rules(diameter):
    """Rule set for a tree known only by its even diameter 2r.

    One upstream rule per i in 1..r: d-1 ports at i+1 or more with the
    remaining port silent commits quota i. Degree-1 vertices match every
    rule on their initial all-zero counters and therefore send r pulses
    immediately. The leader rule fires once every port has a pulse.
    """
    if diameter < 0 or diameter % 2 != 0:
        raise OddDiameterError("diameter %r is not even" % (diameter,))
    r = diameter // 2
    upstream = [
        UpstreamRule(degree=None, trigger=None, threshold=i + 1,
                     target=i, source_index=i)
        for i in range(1, r + 1)
    ]
    leader = LeaderRule(degree=None, trigger=None, variant="every_port_once")
    return RuleSet("even", upstream, leader, radius=r)


def compile_general_rules(t):
    """Rule set for a fully known tree that is not edge-symmetric.

    One upstream rule per subtree shape except the last: its trigger is
    the sorted send quotas of the shape root's children and its quota is
    count - index. The leader rule comes from the final shape; with an
    odd diameter the co-root contributes the lone remaining-port pulse.
    """
    report = is_edge_symmetric(t)
    if report.symmetric:
        raise SymmetricTreeError(report.witness_edge)
    layering = layer_decomposition(t)
    idx = enumerate_subtrees(t, layering)
    k = idx.count
    upstream = []
    rep_of = {}
    for v in range(t.n):
        rep_of.setdefault(idx.class_of[v], v)
    for i in range(1, k):
        v = rep_of[i]
        kids = [u for u in t.neighbors[v]
                if layering.layer_of[u] < layering.layer_of[v]]
        trigger = tuple(sorted((idx.quota_of(u) for u in kids), reverse=True))
        upstream.append(UpstreamRule(
            degree=len(kids) + 1, trigger=trigger, threshold=None,
            target=idx.quota(i), source_index=i))
    _check_dominance(upstream)
    root = layering.root
    d = t.degree(root)
    if layering.co_root is None:
        trigger = tuple(sorted(
            (idx.quota_of(u) for u in t.neighbors[root]), reverse=True))
        leader = LeaderRule(degree=d, trigger=trigger, variant="all_ports")
    else:
        others = [u for u in t.neighbors[root] if u != layering.co_root]
        trigger = tuple(sorted((idx.quota_of(u) for u in others), reverse=True))
        leader = LeaderRule(degree=d, trigger=trigger, variant="remaining_one")
    return RuleSet("general", upstream, leader, shape_count=k)


class NodeState:
    """Mutable-by-copy automaton state of one node.

    Rule-driven nodes track per-port received and sent counters, the
    committed upstream port, and whether the downstream reaction or the
    leader rule is armed. Stabilizing nodes additionally hold their ID,
    the set of live ports, the leaf flag, and the election counters.
    Output is latched: once it leaves "undecided" it never changes.

    A state is changed only between its copy() and the first key() of
    the copy: network states share node states, and key() is computed
    once per object.
    """

    __slots__ = ("degree", "received", "sent", "up_port",
                 "downstream_active", "leader_armed", "output", "halted",
                 "node_id", "is_leaf", "live", "needed", "got", "_key")

    def __init__(self, degree, node_id=None):
        self.degree = degree
        self.received = [0] * degree
        self.sent = [0] * degree
        self.up_port = None
        self.downstream_active = False
        self.leader_armed = True
        self.output = UNDECIDED
        self.halted = False
        self.node_id = node_id
        self.is_leaf = False
        self.live = None
        self.needed = None
        self.got = None
        self._key = None

    def copy(self):
        c = NodeState.__new__(NodeState)
        c.degree = self.degree
        c.received = list(self.received)
        c.sent = list(self.sent)
        c.up_port = self.up_port
        c.downstream_active = self.downstream_active
        c.leader_armed = self.leader_armed
        c.output = self.output
        c.halted = self.halted
        c.node_id = self.node_id
        c.is_leaf = self.is_leaf
        c.live = None if self.live is None else set(self.live)
        c.needed = self.needed
        c.got = self.got
        c._key = None
        return c

    def key(self):
        if self._key is None:
            self._key = (
                tuple(self.received), tuple(self.sent), self.up_port,
                self.downstream_active, self.leader_armed, self.output,
                self.halted, self.is_leaf,
                None if self.live is None else tuple(sorted(self.live)),
                self.needed, self.got,
            )
        return self._key

    def _set_output(self, output):
        if self.output != UNDECIDED and self.output != output:
            raise AssertionError("output moved from %s to %s"
                                 % (self.output, output))
        self.output = output

    def __repr__(self):
        return "NodeState(d=%d, recv=%r, sent=%r, out=%s%s)" % (
            self.degree, self.received, self.sent, self.output,
            ", halted" if self.halted else "")


def _split_remaining(received, required, forced=None):
    """The remaining port and the other ports' counts as a tuple,
    sorted descending.

    The remaining port must hold exactly `required` pulses; forced
    restricts it to one port. Every admissible port holds the same
    count, so the other ports form the same multiset whichever one is
    chosen, and the lowest admissible index decides. None when no port
    is admissible.
    """
    if forced is None:
        if required not in received:
            return None
        port = received.index(required)
    elif received[forced] != required:
        return None
    else:
        port = forced
    return port, tuple(sorted(received[:port] + received[port + 1:],
                              reverse=True))


def _dominates(have, want):
    """Componentwise have >= want, both sorted descending."""
    return all(h >= w for h, w in zip(have, want))


def match_trigger(received, trigger, remaining_required=0,
                  forced_remaining=None):
    """Find the admissible remaining port for a trigger, if any.

    The d-1 non-remaining ports must cover the trigger entries by
    sorted-descending componentwise domination. The remaining port
    itself must hold exactly remaining_required pulses. Ambiguity
    between admissible remaining ports resolves to the lowest index;
    forced_remaining restricts the search to one port.
    """
    d = len(received)
    if len(trigger) != d - 1:
        raise ValueError("trigger length %d does not fit degree %d"
                         % (len(trigger), d))
    found = _split_remaining(received, remaining_required, forced_remaining)
    if found is None:
        return None
    port, rest = found
    return port if _dominates(rest, sorted(trigger, reverse=True)) else None


def _leader_matches(state, rule):
    d = state.degree
    if rule.variant == "every_port_once":
        return all(c >= 1 for c in state.received)
    if rule.degree != d:
        return False
    if rule.variant == "all_ports":
        return _dominates(sorted(state.received, reverse=True),
                          sorted(rule.trigger, reverse=True))
    # remaining_one
    return match_trigger(state.received, rule.trigger,
                         remaining_required=1) is not None


def _evaluate(state, rules):
    """Run the leader rule, then the upstream rules, on current counters.

    Mutates state and returns the emitted actions. Called after every
    delivery and once at initialization on the all-zero counters, which
    is what makes degree-1 nodes send their full quota up front.
    """
    actions = []
    if state.leader_armed and _leader_matches(state, rules.leader):
        for p in range(state.degree):
            actions.append(Send(p, 1, CAT_BROADCAST))
            state.sent[p] += 1
        state._set_output(LEADER)
        actions.append(Declare(LEADER))
        state.halted = True
        state.leader_armed = False
        actions.append(Halt())
        return actions
    found = _split_remaining(state.received, 0, state.up_port)
    if found is None:
        return actions
    port, rest = found
    target = rules.upstream_quota(state.degree, rest)
    if target is None:
        return actions
    if state.up_port is None:
        state.up_port = port
    state.downstream_active = True
    state.leader_armed = False
    shortfall = target - state.sent[port]
    if shortfall > 0:
        state.sent[port] += shortfall
        actions.append(Send(port, shortfall, CAT_UPSTREAM))
    return actions


def init_node(degree, rules):
    """Fresh rule-driven node state plus its initialization actions.

    Degree-0 nodes satisfy the leader rule vacuously and halt at once;
    degree-1 nodes fire their upstream quota through their only port.
    """
    state = NodeState(degree)
    actions = _evaluate(state, rules)
    return state, actions


def on_deliver(state, rules, port):
    """Deliver one pulse on the given port of a rule-driven node.

    Returns the successor state and actions. A pulse arriving on the
    committed upstream port while the downstream reaction is armed is
    the top-down signal: the node relays one pulse on every other port,
    declares itself a non-leader, and halts. Deliveries to halted nodes
    are the simulator's business and never reach this function.
    """
    state = state.copy()
    state.received[port] += 1
    if state.downstream_active and port == state.up_port:
        actions = []
        for p in range(state.degree):
            if p != state.up_port:
                actions.append(Send(p, 1, CAT_BROADCAST))
                state.sent[p] += 1
        state._set_output(NONLEADER)
        actions.append(Declare(NONLEADER))
        state.halted = True
        actions.append(Halt())
        return state, actions
    return state, _evaluate(state, rules)


def stabilizing_state(degree, node_id):
    """Fresh stabilizing node: all neighbors live, output non-leader."""
    state = NodeState(degree, node_id=node_id)
    state.leader_armed = False
    state.live = set(range(degree))
    state.output = NONLEADER
    return state


def _become_leaf(state, actions):
    state.is_leaf = True
    port = next(iter(state.live))
    state.sent[port] += 1
    actions.append(Send(port, 1, CAT_LEAF))


def _start_stabilizing(state):
    """Apply the init event to a stabilizing state in place; returns
    the actions. Only for a state no one else holds yet."""
    actions = []
    if state.degree == 0:
        # A stabilizing node starts with output NonLeader, so the
        # winner's switch to Leader is a revision, not a latch break.
        state.output = LEADER
        actions.append(Declare(LEADER))
        state.halted = True
        actions.append(Halt())
    elif state.degree == 1:
        _become_leaf(state, actions)
    return actions


def stabilizing_step(state, event):
    """One transition of the stabilizing automaton.

    event is ("init",) or ("deliver", port). A node sends a single
    pulse when it first becomes a leaf; a pulse received before that
    retires the sending neighbor, possibly making the node a leaf in
    turn; a pulse received as a leaf starts the election, sending one
    pulse per unit of the node's ID; the election is won, with a Leader
    declaration and halt, once ID-many pulses have come back. An
    isolated vertex has no one to beat and declares immediately.
    """
    state = state.copy()
    if event[0] == "init":
        return state, _start_stabilizing(state)
    actions = []
    port = event[1]
    state.received[port] += 1
    if state.needed is not None:
        state.got += 1
        if state.got >= state.needed:
            state.output = LEADER
            actions.append(Declare(LEADER))
            state.halted = True
            actions.append(Halt())
    elif state.is_leaf:
        state.needed = state.node_id
        state.got = 0
        out = next(iter(state.live))
        state.sent[out] += state.node_id
        actions.append(Send(out, state.node_id, CAT_ELECTION))
    else:
        state.live.discard(port)
        if len(state.live) == 1:
            _become_leaf(state, actions)
    return state, actions
