"""Node automata for pulse-counting leader election on trees.

Two compiled rule forms drive the terminating algorithms. The
diameter-aware form needs only an even diameter and uses one threshold
rule family: a node that sees d-1 ports reach i+1 received pulses while
one port is silent commits that silent port as its upstream port and
raises its cumulative sends through it to i. The topology-aware form
compiles one rule per distinct rooted subtree shape; triggers are the
children's send quotas and the quota of shape i is count - i, which
makes termination quiescent on trees that are not symmetric about any
edge. One RuleSet answers both kinds of rule a node obeys:
upstream_quota the upstream rules, leader_fires the leader rule. A
third automaton implements the self-stabilizing election for
nodes holding unique positive IDs; it needs no compiled rules and never
halts the losers.

Node states are immutable values and transitions are pure: each takes
a NodeState and returns its successor plus the pulses it sends, so the
same code drives single runs and the exhaustive schedule exploration.
A node puts nothing on the wire but pulses: its decision and whether it
has halted are fields of the successor, not messages.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import ge
from typing import NamedTuple

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
    """A rule set has a trigger entry below 1, or a trigger whose length
    does not fit its rule."""


class Send(NamedTuple):
    """count pulses out of port, booked under category."""

    port: int
    count: int
    category: str


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


@dataclass(frozen=True)
class LeaderRule:
    """The single leader rule of a rule set.

    Variants: "every_port_once" fires at any degree once all ports have
    received a pulse; "all_ports" needs each of the d ports to reach its
    entry of the trigger, which has d entries; "remaining_one" needs d-1
    ports to reach the trigger, which has d-1 entries, while the
    remaining port holds exactly one pulse. RuleSet.leader_fires matches
    it.
    """

    degree: int | None
    trigger: tuple | None
    variant: str


_MISS = object()


class RuleSet:
    """Compiled rules for one algorithm instance.

    Construction checks every trigger and builds everything matching
    reads: the fixed-degree upstream rules grouped by degree as
    (target, trigger) pairs in order of falling target, each degree's
    floor (the least first and the least last trigger entry), each
    degree's empty memo and the leader's trigger. Triggers are sorted
    descending here, once, so a rule may list its entries in any order.
    An even set has no fixed-degree rules, so it keeps no tables.

    crossing maps a degree to its crossing values, the counts at which
    a match can change: for a general set, every entry of the degree's
    upstream triggers, plus the leader trigger's entries at the
    leader's degree, plus 2 for a remaining_one leader; for an even
    set, 2..r+1 at every degree. on_deliver reads it.
    """

    def __init__(self, algorithm, upstream, leader, radius=None,
                 shape_count=None):
        self.algorithm = algorithm
        self.upstream = tuple(upstream)
        self.leader = leader
        self.radius = radius
        self.shape_count = shape_count
        # _evaluate relies on every trigger entry being at least 1: the
        # leader rule then needs every port to have heard a pulse, and
        # an upstream rule exactly one silent port, the remaining one.
        # An even set asks for i+1 >= 2 pulses and has no trigger tuples.
        # A fixed-degree trigger covers the d-1 non-remaining ports, or
        # all d for an all_ports leader.
        for rule in self.upstream + (leader,):
            if rule.trigger and min(rule.trigger) < 1:
                raise RuleConsistencyError(
                    "trigger %r has an entry below 1" % (rule.trigger,))
            if rule.degree is None:
                continue
            size = (rule.degree if rule is leader
                    and leader.variant == "all_ports" else rule.degree - 1)
            if rule.trigger is None or len(rule.trigger) != size:
                raise RuleConsistencyError(
                    "trigger %r does not fit degree %d: it needs %d entries"
                    % (rule.trigger, rule.degree, size))
        groups = {}
        for rule in self.upstream:
            if rule.degree is not None:
                groups.setdefault(rule.degree, []).append(
                    (rule.target, tuple(sorted(rule.trigger, reverse=True))))
        self._by_degree = {d: tuple(sorted(pairs, reverse=True))
                           for d, pairs in groups.items()}
        # A degree-1 trigger is empty and so is the rest it meets.
        self._floor = {d: (min(w[0] for _, w in pairs),
                           min(w[-1] for _, w in pairs))
                       for d, pairs in groups.items() if d > 1}
        self._quota_memo = {d: {} for d in groups}
        self._leader_want = (tuple(sorted(leader.trigger, reverse=True))
                             if leader.trigger is not None else None)
        # The counts at which a degree's match can change; see
        # on_deliver. A degree with no rule and no leader has none.
        if algorithm == "even":
            values = frozenset(range(2, radius + 2))
            self.crossing = defaultdict(lambda: values)
        else:
            self.crossing = defaultdict(frozenset, {
                d: frozenset(x for _, w in pairs for x in w)
                for d, pairs in self._by_degree.items()})
            if leader.degree is not None:
                values = set(leader.trigger)
                if leader.variant == "remaining_one":
                    values.add(2)
                self.crossing[leader.degree] |= values

    def leader_fires(self, received):
        """Whether the leader rule matches the counters received.

        An even rule set's leader fires once every port has heard a
        pulse. A fixed-degree leader needs its degree; an all_ports
        leader needs the counts, sorted descending, to dominate its
        trigger, and a remaining_one leader needs the counts left by the
        lowest port holding exactly one pulse to dominate it. Every port
        holding one pulse leaves the same counts, so the lowest decides.
        """
        leader = self.leader
        if leader.variant == "every_port_once":
            return 0 not in received
        if leader.degree != len(received):
            return False
        if leader.variant == "all_ports":
            return _dominates(sorted(received, reverse=True),
                              self._leader_want)
        if 1 not in received:
            return False
        port = received.index(1)
        return _dominates(sorted(received[:port] + received[port + 1:],
                                 reverse=True), self._leader_want)

    def upstream_quota(self, d, rest):
        """Quota of the upstream rule a degree-d node obeys when its
        non-remaining ports hold rest (a tuple sorted descending); None
        when no rule matches.

        An even rule set answers in closed form: rule i asks for at
        least i+1 pulses on every non-remaining port, so the largest
        quota that matches is min(r, rest[-1] - 1), or r when there is
        no other port, and none below 1.

        A general answer depends on the rules alone, so it is memoised
        in the degree's dict, keyed by rest, and every state that holds
        this RuleSet (clones, steps, an exploration) shares it. A degree
        with no rule is answered None at once. A rest that is below
        every trigger at its first or last entry can match no rule; it
        is answered without a scan and kept out of the memo. A miss
        scans the degree's rules: targets are distinct and come
        falling, so the first trigger rest dominates carries the
        largest quota, and a trigger whose largest entry exceeds rest's
        largest cannot be dominated.
        """
        if self.algorithm == "even":
            quota = min(self.radius, rest[-1] - 1) if rest else self.radius
            return quota if quota >= 1 else None
        memo = self._quota_memo.get(d)
        if memo is None:
            return None
        if rest:
            first, last = self._floor[d]
            if rest[0] < first or rest[-1] < last:
                return None
        quota = memo.get(rest, _MISS)
        if quota is _MISS:
            quota = None
            for target, want in self._by_degree[d]:
                if want and want[0] > rest[0]:
                    continue
                if all(map(ge, rest, want)):
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

    One upstream rule per subtree shape i except the last, read off the
    layering's shape index: its trigger is the send quotas of shape i's
    children (ascending shapes, so descending quotas) and its quota is
    count - i. The leader rule comes from the final shape's children;
    with an odd diameter the co-root, not among them, contributes the
    lone remaining-port pulse.

    Matching needs, among same-degree rules a != b, that a trigger
    entrywise >= b's comes with a larger quota. The ranking gives it,
    with no check: as quota = count - class, a's ascending child
    classes are entrywise <= b's. A shape's layer is one more than its
    highest child's, and classes are numbered layer by layer, so a's
    layer is at most b's. A lower layer has smaller classes; within a
    layer, equal degrees mean equal child counts, and a's child tuple
    is lexicographically smaller. Either way a's class is smaller and
    its quota larger. tests/oracles.py keeps the pairwise check.
    """
    report = is_edge_symmetric(t)
    if report.symmetric:
        raise SymmetricTreeError(report.witness_edge)
    layering = layer_decomposition(t)
    idx = enumerate_subtrees(t, layering)
    k = idx.count
    upstream = [
        UpstreamRule(degree=len(kids) + 1,
                     trigger=tuple(map(idx.quota, kids)), threshold=None,
                     target=idx.quota(i), source_index=i)
        for i, kids in enumerate(idx.children[1:k], 1)
    ]
    kids = idx.children[k]
    odd = layering.co_root is not None
    leader = LeaderRule(degree=len(kids) + odd,
                        trigger=tuple(map(idx.quota, kids)),
                        variant="remaining_one" if odd else "all_ports")
    return RuleSet("general", upstream, leader, shape_count=k)


class NodeState(NamedTuple):
    """Automaton state of one node, an immutable and hashable value.

    Rule-driven nodes track received and sent counters, one per port
    (so the degree is len(received)), the committed upstream port, and
    whether the downstream reaction or the leader rule is armed.
    Stabilizing nodes additionally hold the sorted live ports, the leaf
    flag, the election counters and their ID. output and halted are the
    node's only record of its decision: a transition declares by
    changing output and halts by setting halted. Output is latched:
    once it leaves "undecided" it never changes.

    Transitions build a successor and leave their input alone, so
    network states share node states freely and a state is its own key.
    Trace digests hash the first eleven fields, so their order is
    fixed; node_id comes last.
    """

    received: tuple
    sent: tuple
    up_port: int | None = None
    downstream_active: bool = False
    leader_armed: bool = True
    output: str = UNDECIDED
    halted: bool = False
    is_leaf: bool = False
    live: tuple | None = None
    needed: int | None = None
    got: int | None = None
    node_id: int | None = None


_new = tuple.__new__  # builds a NodeState or Send from a full field tuple


def _set_output(current, output):
    """The output that replaces current; raises if that breaks the latch."""
    if current != UNDECIDED and current != output:
        raise AssertionError("output moved from %s to %s" % (current, output))
    return output


def _bump(counts, port, by=1):
    """counts with entry port raised by by. The automata write this
    slice inline; the tests' reference steps call it."""
    return counts[:port] + (counts[port] + by,) + counts[port + 1:]


def _dominates(have, want):
    """Componentwise have >= want, both sorted descending, compared in C
    (no generator frame). leader_fires calls it; upstream_quota's scan
    writes the same all(map(ge, ...)) inline."""
    return all(map(ge, have, want))


def _evaluate(state, rules, received):
    """Run the leader rule, then the upstream rules, on the counters
    received, which replace the state's own.

    Returns the successor state, built once, and the sends.
    Called after every delivery and once at initialization on the
    all-zero counters, which is what makes degree-1 nodes send their
    full quota up front.

    The number of silent ports decides which rules may be tried at all:
    the leader rule needs none, an upstream rule exactly one, which is
    its remaining port. A committed up_port must be that port.
    """
    sent = state.sent
    silent = received.count(0)
    if state.leader_armed and not silent and rules.leader_fires(received):
        sends = [_new(Send, (p, 1, CAT_BROADCAST)) for p in range(len(sent))]
        output = _set_output(state.output, LEADER)
        return state._replace(received=received,
                              sent=tuple([c + 1 for c in sent]),
                              leader_armed=False, output=output,
                              halted=True), sends
    port = received.index(0) if silent == 1 else None
    if port is not None and state.up_port in (None, port):
        # The silent port holds the one 0, which sorts last.
        rest = tuple(sorted(received, reverse=True)[:-1])
        target = rules.upstream_quota(len(received), rest)
        # Once committed, with the upstream port set and the leader
        # rule disarmed, a matching rule changes only a short quota.
        if target is not None and (target > sent[port]
                                   or not state.downstream_active):
            sends = []
            if target > sent[port]:
                sends.append(_new(Send, (port, target - sent[port],
                                         CAT_UPSTREAM)))
                sent = sent[:port] + (target,) + sent[port + 1:]
            return _new(NodeState, (received, sent, port, True, False)
                        + state[5:]), sends
    return _new(NodeState, (received,) + state[1:]), []


def init_node(degree, rules):
    """Fresh rule-driven node state plus its initialization sends.

    Degree-0 nodes satisfy the leader rule vacuously and halt at once;
    degree-1 nodes fire their upstream quota through their only port.
    """
    zeros = (0,) * degree
    return _evaluate(NodeState(zeros, zeros), rules, zeros)


def on_deliver(state, rules, port):
    """Deliver one pulse on the given port of a rule-driven node.

    Returns the successor state and sends. A pulse arriving on the
    committed upstream port while the downstream reaction is armed is
    the top-down signal: the node relays one pulse on every other port,
    declares itself a non-leader, and halts. Deliveries to halted nodes
    are the simulator's business and never reach this function.

    Any other pulse on a port that already held c >= 1 pulses, where
    c + 1 is not among rules.crossing for the node's degree, only bumps
    that counter: no rule is tried. This is exact for a settled state,
    one that init_node or on_deliver returned under the same rules and
    that has not halted. A sorted-descending count vector dominates a
    trigger w exactly when, for every value t of w, at least as many
    counts as entries of w reach t; raising one count from c to c + 1
    changes those tallies only at t = c + 1, and as c >= 1 the silent
    ports and the ports holding exactly one pulse stay the same unless
    c + 1 = 2. A settled state is a fixed point of _evaluate on its own
    counters, so a match unchanged by the bump changes nothing either.

    A pulse that leaves two or more ports silent tries no rule either,
    on any state: the leader rule needs no silent port and an upstream
    rule exactly one, so _evaluate would return the same bumped state
    and no sends.
    """
    received = state.received
    count = received[port]
    received = received[:port] + (count + 1,) + received[port + 1:]
    up_port = state.up_port
    if state.downstream_active and port == up_port:
        sent = list(state.sent)
        sends = []
        for p in range(len(sent)):
            if p != up_port:
                sends.append(_new(Send, (p, 1, CAT_BROADCAST)))
                sent[p] += 1
        output = _set_output(state.output, NONLEADER)
        return _new(NodeState, (received, tuple(sent), up_port, True,
                                state.leader_armed, output, True)
                    + state[7:]), sends
    if (count and count + 1 not in rules.crossing[len(received)]
            or received.count(0) > 1):
        return _new(NodeState, (received,) + state[1:]), []
    return _evaluate(state, rules, received)


def init_stabilizing(degree, node_id):
    """Fresh stabilizing node state plus its initialization sends.

    Every neighbor starts live and the output non-leader. A degree-1
    node is a leaf from the start and announces itself with one pulse;
    an isolated vertex has no one to beat and wins at once. Its switch
    to Leader is a revision of the non-leader start, not a latch break.
    """
    zeros = (0,) * degree
    if degree == 0:
        return NodeState(zeros, zeros, leader_armed=False, output=LEADER,
                         halted=True, live=(), node_id=node_id), []
    if degree == 1:
        return (NodeState(zeros, (1,), leader_armed=False, output=NONLEADER,
                          is_leaf=True, live=(0,), node_id=node_id),
                [Send(0, 1, CAT_LEAF)])
    return NodeState(zeros, zeros, leader_armed=False, output=NONLEADER,
                     live=tuple(range(degree)), node_id=node_id), []


def stabilizing_step(state, port):
    """Deliver one pulse on the given port of a stabilizing node.

    Returns the successor state and sends. A node sends a single
    pulse when it first becomes a leaf; a pulse received before that
    retires the sending neighbor, possibly making the node a leaf in
    turn; a pulse received as a leaf starts the election, sending one
    pulse per unit of the node's ID; the election is won, and the node
    outputs Leader and halts, once ID-many pulses have come back.
    """
    (received, sent, up_port, downstream_active, leader_armed, output,
     halted, is_leaf, live, needed, got, node_id) = state
    received = received[:port] + (received[port] + 1,) + received[port + 1:]
    sends = []
    if needed is not None:
        got += 1
        if got >= needed:
            output = LEADER
            halted = True
    elif is_leaf:
        needed = node_id
        got = 0
        up = live[0]
        sent = sent[:up] + (sent[up] + node_id,) + sent[up + 1:]
        sends = [_new(Send, (up, node_id, CAT_ELECTION))]
    else:
        live = tuple([p for p in live if p != port])
        if len(live) == 1:
            is_leaf = True
            up = live[0]
            sent = sent[:up] + (sent[up] + 1,) + sent[up + 1:]
            sends = [_new(Send, (up, 1, CAT_LEAF))]
    return _new(NodeState, (received, sent, up_port, downstream_active,
                            leader_armed, output, halted, is_leaf, live,
                            needed, got, node_id)), sends
