"""Asynchronous network simulation over content-less pulses.

In-flight traffic is a nonnegative counter per directed edge: pulses
carry nothing and are attributed only to their arrival port, so a
multiset of them is fully described by its size. A scheduler picks
which nonempty directed edge delivers next; delivery invokes the
receiver's automaton and enqueues whatever it sends. One loop, _drive,
holds the only delivery code: run uses it until a verdict, step() for
one pulse. It finds the receiver and arrival port of an edge in a
per-edge table built once per network state, and keeps its hot fields
in locals that it writes back after each delivery. A node's reply to a
pulse depends only on its state and the arrival port, so one
StepTable per network state computes every reply: the successor and
its sends. A node's decision and halt are fields of its state, so a
declaration is read off the successor's output, and a trace lists it
after the sends. Even runs also intern node states in the table,
within a memory bound set by the tree, and keep each node's index, so
a delivery reads a stored reply by index and port without hashing a
state; a wrapper on protocol.on_deliver sees only the steps the table
misses. On top of the single-run loop sits an exhaustive explorer that
walks every reachable interleaving of small instances. It keeps each
visited state as one int key of fixed-width fields (the indices of its
node states in a StepTable of its own, then in-flight counters; wide
enough for any value the walk can meet below its state cap), takes a
transition by adding a delta computed once per (state, edge), and
finds a state's nonempty edges with one add-and-mask on its key.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate, chain
from math import ceil

from . import protocol
from .protocol import (
    CATEGORIES,
    LEADER,
    NodeState,
    compile_even_rules,
    compile_general_rules,
)
from .topology import layer_decomposition


class NoPulseInFlightError(ValueError):
    pass


class StateCapExceededError(RuntimeError):
    pass


class MissingIdsError(ValueError):
    pass


class DuplicateIdsError(ValueError):
    pass


def _normalize_ids(t, ids):
    if ids is None:
        raise MissingIdsError("stabilizing runs need one ID per vertex")
    if isinstance(ids, dict):
        try:
            ids = [ids[v] for v in range(t.n)]
        except KeyError as miss:
            raise MissingIdsError("no ID for vertex %s" % miss) from None
    ids = tuple(ids)
    if len(ids) != t.n:
        raise MissingIdsError("got %d IDs for %d vertices" % (len(ids), t.n))
    if any(not isinstance(x, int) or x < 1 for x in ids):
        raise MissingIdsError("IDs must be positive integers: %r" % (ids,))
    if len(set(ids)) != len(ids):
        raise DuplicateIdsError("IDs must be pairwise distinct: %r" % (ids,))
    return ids


class StepTable:
    """A live node's reply to one pulse, per interned node state and
    arrival port.

    Pulses carry no content, so the reply depends on nothing else. A
    reply is (successor, its Sends, whether its output turns LEADER).
    The automaton is read off the protocol module when the table is
    built, so a wrapper put there beforehand sees every step the table
    computes.

    The table interns node states: nodes[i] is the state of index i,
    index maps a state back to i, and rows[i] has one slot per port of
    nodes[i], None until that port is first stepped. A filled slot is
    (successor's index, successor, sends, declares), so a caller that
    keeps a node's index finds its reply with two list lookups and no
    hash. A slot is filled only when the successor is interned too.

    room is how many more counters (one per port) the interned states
    may hold; each state is charged once. A state that does not fit
    gets index None and is stepped without the table, so a hub's states
    neither fill memory nor cost a hash of all their counters per
    delivery.
    """

    __slots__ = ("room", "nodes", "index", "rows", "_automaton")

    def __init__(self, algorithm, rules, room):
        self.room = room
        self.nodes = []
        self.index = {}
        self.rows = []
        if algorithm == "stabilizing":
            self._automaton = protocol.stabilizing_step
        else:
            on_deliver = protocol.on_deliver
            self._automaton = lambda ns, port: on_deliver(ns, rules, port)

    def react(self, ns, port):
        """The reply of ns to a pulse on port, computed afresh; raises
        ValueError when the node sends a negative number of pulses."""
        new_state, sends = self._automaton(ns, port)
        for send in sends:
            if send.count < 0:
                raise ValueError("a node sent a negative number of "
                                 "pulses: %r" % (send,))
        return new_state, sends, new_state.output == LEADER != ns.output

    def intern(self, ns):
        """The index of ns, interned now if it fits in room; None when
        it does not."""
        i = self.index.get(ns)
        if i is None:
            size = len(ns.received)
            if not self.room or size > self.room:
                return None
            self.room -= size
            i = self.index[ns] = len(self.nodes)
            self.nodes.append(ns)
            self.rows.append([None] * size)
        return i

    def fill(self, i, port):
        """The slot of interned state i for port, computed by react and
        stored when its successor is interned."""
        ns, sends, declares = self.react(self.nodes[i], port)
        j = self.intern(ns)
        if j is None:
            return None, ns, sends, declares
        slot = self.rows[i][port] = (j, self.nodes[j], sends, declares)
        return slot


class NetworkState:
    """Full simulation state: topology, node automata, pulse counters.

    Directed edge i is dir_edges[i] = (u, v); the outgoing edges of
    vertex v occupy the contiguous index block starting at offset[v],
    in port order, so port p of v is edge offset[v] + p. arrive[i] is
    (v, the port at v that edge i arrives on), built once and shared
    by clones; dir_edges is built on first use.

    The counters per directed edge are in_flight and delivered_edges;
    the pulses sent on an edge are counted once, in the sender's `sent`.
    total_pulses() is deliveries plus in_flight_total.
    Besides the counters, a state keeps what the run loop asks about on
    every delivery, updated as pulses move: `enabled`, the ascending
    indices of the nonempty directed edges; `in_flight_total`; and
    `leaders`, the ascending vertices that declared LEADER.
    check_conservation() compares them with a full scan.
    Node states are immutable values, shared between clones, and so is
    `moves`, the StepTable every delivery steps through. Its room is the
    directed-edge count for even runs and 0 for the others, whose steps
    repeat too seldom to pay for storing them; their deliveries call
    the table's react directly. `node_indices` holds each node state's
    index in moves, or None for a state the table did not intern.
    """

    __slots__ = ("topology", "algorithm", "rules", "ids", "layering",
                 "node_states", "in_flight", "delivered_edges",
                 "sent_by_category", "deliveries", "deliveries_to_halted",
                 "leader_step", "in_flight_at_leader", "violation",
                 "trace", "offset", "_dir_edges", "arrive", "enabled",
                 "in_flight_total", "leaders", "moves", "node_indices")

    def __init__(self, topology, algorithm, rules, ids, layering,
                 record_trace=False):
        self.topology = topology
        self.algorithm = algorithm
        self.rules = rules
        self.ids = ids
        self.layering = layering
        degrees = list(map(len, topology.neighbors))
        total = sum(degrees)
        self.offset = offset = tuple(accumulate(degrees, initial=0))[:-1]
        self._dir_edges = None
        self.arrive = tuple(zip(chain.from_iterable(topology.neighbors),
                                chain.from_iterable(topology.back_ports)))
        self.node_states = []
        self.in_flight = in_flight = [0] * total
        self.delivered_edges = [0] * total
        self.sent_by_category = by_category = {cat: 0 for cat in CATEGORIES}
        self.deliveries = 0
        self.deliveries_to_halted = 0
        self.leader_step = None
        self.in_flight_at_leader = None
        self.violation = None
        self.trace = [] if record_trace else None
        self.moves = moves = StepTable(algorithm, rules,
                                       total if algorithm == "even" else 0)
        self.node_indices = []
        # A start depends on the degree alone, apart from a stabilizing
        # node's ID, so each degree's state, index and sends are built
        # once and shared; a stabilizing node gets its own ID (its
        # table has no room, so the index is None).
        starts = {}
        for v, d in enumerate(degrees):
            start = starts.get(d)
            if start is None:
                if algorithm == "stabilizing":
                    state, sends = protocol.init_stabilizing(d, None)
                else:
                    state, sends = protocol.init_node(d, rules)
                start = starts[d] = state, moves.intern(state), sends
            state, index, sends = start
            if algorithm == "stabilizing":
                state = tuple.__new__(NodeState, state[:-1] + (ids[v],))
            self.node_states.append(state)
            self.node_indices.append(index)
            if state.output == LEADER:
                # Only an isolated vertex declares at init, with
                # nothing in flight towards it.
                self.leader_step = 0
                self.in_flight_at_leader = sum(in_flight)
            for port, count, category in sends:
                ei = offset[v] + port
                in_flight[ei] += count
                by_category[category] += count
        self.enabled, self.in_flight_total, self.leaders = self._scan()

    def clone(self):
        c = NetworkState.__new__(NetworkState)
        c.topology = self.topology
        c.algorithm = self.algorithm
        c.rules = self.rules
        c.ids = self.ids
        c.layering = self.layering
        c.offset = self.offset
        c._dir_edges = self._dir_edges
        c.arrive = self.arrive
        c.node_states = self.node_states.copy()
        c.in_flight = self.in_flight.copy()
        c.delivered_edges = self.delivered_edges.copy()
        c.sent_by_category = self.sent_by_category.copy()
        c.deliveries = self.deliveries
        c.deliveries_to_halted = self.deliveries_to_halted
        c.leader_step = self.leader_step
        c.in_flight_at_leader = self.in_flight_at_leader
        c.violation = self.violation
        c.trace = None if self.trace is None else self.trace.copy()
        c.enabled = self.enabled.copy()
        c.in_flight_total = self.in_flight_total
        c.leaders = self.leaders.copy()
        c.moves = self.moves
        c.node_indices = self.node_indices.copy()
        return c

    @property
    def dir_edges(self):
        """The (u, v) pair of each directed-edge index, built on first
        use; the delivery loop reads arrive instead."""
        if self._dir_edges is None:
            self._dir_edges = tuple(self.topology.directed_edges())
        return self._dir_edges

    def key(self):
        return tuple(self.node_states), tuple(self.in_flight)

    def edge_index(self, u, v):
        """The index of directed edge (u, v); ValueError for a pair that
        is not an edge of the tree."""
        try:
            port = self.topology.port_to(u, v)
        except KeyError:
            raise ValueError("(%r, %r) is not an edge of the tree"
                             % (u, v)) from None
        return self.offset[u] + port

    def enabled_edges(self):
        """The live ascending list of nonempty edges; do not mutate it."""
        return self.enabled

    def total_in_flight(self):
        return self.in_flight_total

    def total_pulses(self):
        return self.deliveries + self.in_flight_total

    def leader_vertex(self):
        return self.leaders[0] if self.leaders else None

    def leader_count(self):
        return len(self.leaders)

    def all_halted(self):
        return all(s.halted for s in self.node_states)

    def outputs(self):
        return tuple(s.output for s in self.node_states)

    def blocked_vertices(self):
        return _blocked(self.node_states)

    def check_conservation(self):
        """Check pulse conservation per edge, a sender's own count
        against the pulses delivered and in flight there, each interned
        index against its node state, and the incrementally kept fields
        against a full scan."""
        nodes = self.moves.nodes
        if len(self.node_indices) != len(self.node_states) or any(
                i is not None and nodes[i] != s
                for i, s in zip(self.node_indices, self.node_states)):
            raise AssertionError("node_indices %r do not index node_states"
                                 % (self.node_indices,))
        for v, s in enumerate(self.node_states):
            for p, count in enumerate(s.sent):
                i = self.offset[v] + p
                if count != self.delivered_edges[i] + self.in_flight[i]:
                    raise AssertionError("conservation broken on edge %r"
                                         % (self.dir_edges[i],))
        for name, want in zip(("enabled", "in_flight_total", "leaders"),
                              self._scan()):
            if getattr(self, name) != want:
                raise AssertionError("%s is %r, a scan gives %r"
                                     % (name, getattr(self, name), want))

    def _scan(self):
        """enabled, in_flight_total and leaders, recounted."""
        return ([i for i, c in enumerate(self.in_flight) if c > 0],
                sum(self.in_flight),
                [v for v, s in enumerate(self.node_states)
                 if s.output == LEADER])


def _drive(state, pick, budget, once=False):
    """The one delivery loop; run and step share it.

    Until a verdict, asks pick(state, enabled) for a directed-edge
    index and delivers one pulse on it (mutating), and returns run's
    status. With once it skips the verdict checks, delivers the one
    picked pulse and returns None. The delivery and in-flight counts it
    keeps in locals are written back after every delivery, so every
    field of state is current at each pick.
    """
    in_flight = state.in_flight
    enabled = state.enabled
    node_states = state.node_states
    delivered_edges = state.delivered_edges
    by_category = state.sent_by_category
    arrive = state.arrive
    offset = state.offset
    trace = state.trace
    node_indices = state.node_indices
    moves = state.moves
    react = moves.react
    # Only a table that interned a state can hold a node's index.
    rows = moves.rows if moves.nodes else None
    general = state.algorithm == "general"
    stabilizing = state.algorithm == "stabilizing"
    deliveries = state.deliveries
    total = state.in_flight_total
    violated = state.violation is not None
    while True:
        if not once:
            # With nothing in flight the loop returns below, so this
            # scan runs at most once per call.
            if not total and state.all_halted():
                return "terminated"
            if stabilizing and _is_stabilized(state):
                return "stabilized"
            if deliveries >= budget or not enabled:
                # Live nodes but nothing to deliver: no rule set
                # compiled by this package gets here, but a scripted
                # misuse might.
                return "budget_exhausted"
        ei = pick(state, enabled)
        if ei is None:
            return "budget_exhausted"
        left = in_flight[ei]
        if not left:
            raise NoPulseInFlightError("no pulse in flight on %r"
                                       % (state.dir_edges[ei],))
        left -= 1
        in_flight[ei] = left
        if not left:
            del enabled[bisect_left(enabled, ei)]
        delivered_edges[ei] += 1
        deliveries += 1
        total -= 1
        v, port = arrive[ei]
        receiver = node_states[v]
        if receiver.halted:
            # Halted means the device is off; the pulse is absorbed and
            # only the books remember it. For the quiescent algorithm
            # this should be unreachable, so the first hit is recorded.
            state.deliveries_to_halted += 1
            if general and not violated:
                state.violation = (v, deliveries)
                violated = True
            sends = ()
        else:
            if rows is not None and (i := node_indices[v]) is not None:
                slot = rows[i][port]
                if slot is None:
                    slot = moves.fill(i, port)
                node_indices[v], new_state, sends, declares = slot
            else:
                new_state, sends, declares = react(receiver, port)
            node_states[v] = new_state
            if declares:
                insort(state.leaders, v)
                # Snapshot before the leader's own broadcast goes out:
                # this is the count the quiescence claim is about.
                state.leader_step = deliveries
                state.in_flight_at_leader = total
            if sends:
                base = offset[v]
                for p, count, category in sends:
                    ej = base + p
                    if not in_flight[ej]:
                        insort(enabled, ej)
                    in_flight[ej] += count
                    total += count
                    by_category[category] += count
        state.deliveries = deliveries
        state.in_flight_total = total
        if trace is not None:
            trace.append({
                "step": deliveries,
                "edge": list(state.dir_edges[ei]),
                "receiver_state_digest": _digest(node_states[v]),
                "actions": _trace_actions(receiver, node_states[v], sends),
                "in_flight_total": total,
            })
        if violated:
            return "quiescence_violated"
        if once:
            return None


def _blocked(node_states):
    """Nodes stuck waiting out an election they can no longer win."""
    return tuple(v for v, s in enumerate(node_states)
                 if s.needed is not None and not s.halted)


def _digest(node_state):
    """Short hash of a node state for traces.

    It hashes the repr of the first eleven fields. They keep the order
    of the per-node key that trace digests have always hashed, and
    node_id stays out, so recorded digests stay valid.
    """
    return hashlib.sha1(repr(node_state[:11]).encode()).hexdigest()[:12]


def _trace_actions(old, new, sends):
    """A trace entry's record of one reply: the sends, then the output
    the node declared and its halt, read off the change of state."""
    actions = [{"send": list(send)} for send in sends]
    if new.output != old.output:
        actions.append({"declare": new.output})
    if new.halted != old.halted:
        actions.append({"halt": True})
    return actions


def new_simulation(t, algorithm, ids=None, *, rules=None,
                   record_trace=False):
    """Initialized NetworkState for one algorithm on one tree.

    The even algorithm needs an even diameter, the general one an
    asymmetric tree, the stabilizing one distinct positive IDs; the
    rule-driven ones are anonymous and refuse IDs. All initialization
    pulses are already in flight on return.

    rules, a RuleSet of the algorithm's kind, replaces the rules
    compiled from t, and with them the diameter and symmetry checks:
    nodes then act on what rules says, e.g. rules compiled for another
    tree.
    """
    if algorithm in ("even", "general") and ids is not None:
        raise ValueError("the %s algorithm takes no IDs" % algorithm)
    if rules is not None and rules.algorithm != algorithm:
        raise ValueError("the %s algorithm takes no %s rules"
                         % (algorithm, rules.algorithm))
    if algorithm == "even":
        layering = layer_decomposition(t)
        if rules is None:
            rules = compile_even_rules(layering.diameter)
        return NetworkState(t, algorithm, rules, None, layering,
                            record_trace)
    if algorithm == "general":
        if rules is None:
            rules = compile_general_rules(t)
        layering = layer_decomposition(t)
        return NetworkState(t, algorithm, rules, None, layering,
                            record_trace)
    if algorithm == "stabilizing":
        ids = _normalize_ids(t, ids)
        return NetworkState(t, algorithm, None, ids, None, record_trace)
    raise ValueError("unknown algorithm %r" % (algorithm,))


def step(state, edge):
    """Deliver one pulse along the directed edge (u, v), purely.

    Returns the successor NetworkState; the input state is untouched.
    """
    ei = state.edge_index(*edge)
    nxt = state.clone()
    _drive(nxt, lambda state, enabled: ei, None, once=True)
    return nxt


class SeededRandom:
    """Uniform choice among nonempty directed edges; almost-surely fair."""

    def __init__(self, seed):
        self.seed = seed
        self._bits = random.Random(seed).getrandbits

    def pick(self, state, enabled):
        # randrange(k) draws k.bit_length() bits until they fall below
        # k on CPython 3.10 to 3.13; this loop draws the same.
        k = len(enabled)
        if not k:
            raise NoPulseInFlightError("nothing in flight")
        bits = k.bit_length()
        r = self._bits(bits)
        while r >= k:
            r = self._bits(bits)
        return enabled[r]


class RoundRobin:
    """Cyclic scan over the directed edge list; deterministic and fair."""

    seed = None

    def __init__(self):
        self._cursor = -1

    def pick(self, state, enabled):
        if not enabled:
            raise NoPulseInFlightError("nothing in flight")
        at = bisect_right(enabled, self._cursor)
        self._cursor = enabled[at] if at < len(enabled) else enabled[0]
        return self._cursor


class AdversaryScript:
    """Replays an explicit directed-edge sequence, then gives up.

    Exhausting the script ends the run as budget-exhausted; naming an
    empty edge is an error, since an adversary is expected to know what
    it is doing.
    """

    seed = None

    def __init__(self, edges):
        self._edges = list(edges)
        self._pos = 0

    def pick(self, state, enabled):
        if self._pos >= len(self._edges):
            return None
        u, v = self._edges[self._pos]
        self._pos += 1
        idx = state.edge_index(u, v)
        if state.in_flight[idx] == 0:
            raise NoPulseInFlightError("scripted edge %r has no pulse"
                                       % ((u, v),))
        return idx


@dataclass
class Outcome:
    status: str
    leader: int | None
    outputs: tuple
    pulses_by_category: dict
    total_pulses: int
    deliveries: int
    deliveries_to_halted: int
    in_flight_at_leader: int | None
    leader_step: int | None
    steps: int
    seed: int | None
    ids: tuple | None = None
    blocked: tuple = ()
    violation: tuple | None = None
    trace: list | None = None

    def to_dict(self):
        return {
            "status": self.status,
            "leader": self.leader,
            "outputs": list(self.outputs),
            "pulses_by_category": dict(self.pulses_by_category),
            "total_pulses": self.total_pulses,
            "deliveries": self.deliveries,
            "deliveries_to_halted": self.deliveries_to_halted,
            "in_flight_at_leader": self.in_flight_at_leader,
            "leader_step": self.leader_step,
            "steps": self.steps,
            "seed": self.seed,
            "ids": None if self.ids is None else list(self.ids),
            "blocked": list(self.blocked),
            "violation": None if self.violation is None else list(self.violation),
        }


def _is_stabilized(state):
    """True once outputs can no longer change under any schedule.

    Requires a leader plus the structural fact that every pulse still in
    flight is headed to a halted node or to an election loser that can
    never accumulate enough: such deliveries are absorbed or merely
    bump a counter that stays short of its target forever.
    """
    if not state.leaders:
        return False
    incoming = {}
    for i in state.enabled:
        v = state.arrive[i][0]
        incoming[v] = incoming.get(v, 0) + state.in_flight[i]
    for v, total in incoming.items():
        s = state.node_states[v]
        if s.halted:
            continue
        if s.needed is not None and s.got + total < s.needed:
            continue
        return False
    return True


def run(state, scheduler, budget):
    """Deliver pulses under the scheduler until a verdict is reached.

    The caller's state is not modified. Ends with Terminated when every
    node has halted and nothing is in flight, Stabilized when outputs
    are provably frozen (stabilizing algorithm only), QuiescenceViolated
    the moment a halted node is hit under the quiescent algorithm, and
    BudgetExhausted when the delivery budget or an adversary script runs
    out first.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    state = state.clone()
    status = _drive(state, scheduler.pick, budget)
    return Outcome(
        status=status,
        leader=state.leader_vertex(),
        outputs=state.outputs(),
        pulses_by_category=dict(state.sent_by_category),
        total_pulses=state.total_pulses(),
        deliveries=state.deliveries,
        deliveries_to_halted=state.deliveries_to_halted,
        in_flight_at_leader=state.in_flight_at_leader,
        leader_step=state.leader_step,
        steps=state.deliveries,
        seed=getattr(scheduler, "seed", None),
        ids=state.ids,
        blocked=state.blocked_vertices(),
        violation=state.violation,
        trace=state.trace,
    )


@dataclass
class TerminalClass:
    leader: int | None
    outputs: tuple
    per_edge_sent: tuple
    total_pulses: int
    deliveries_to_halted_min: int
    deliveries_to_halted_max: int
    blocked: tuple
    states: int

    def to_dict(self):
        return {
            "leader": self.leader,
            "outputs": list(self.outputs),
            "per_edge_sent": list(self.per_edge_sent),
            "total_pulses": self.total_pulses,
            "deliveries_to_halted": [self.deliveries_to_halted_min,
                                     self.deliveries_to_halted_max],
            "blocked": list(self.blocked),
            "states": self.states,
        }


@dataclass
class ModelCheckReport:
    algorithm: str
    states: int
    transitions: int
    terminal_classes: list
    confluent: bool
    leaders: tuple
    direction_violations: int
    halted_delivery_transitions: int
    nonquiescent_declarations: int
    multi_leader_states: int

    def to_dict(self):
        return {
            "algorithm": self.algorithm,
            "states": self.states,
            "transitions": self.transitions,
            "terminal_classes": [c.to_dict() for c in self.terminal_classes],
            "confluent": self.confluent,
            "leaders": list(self.leaders),
            "direction_violations": self.direction_violations,
            "halted_delivery_transitions": self.halted_delivery_transitions,
            "nonquiescent_declarations": self.nonquiescent_declarations,
            "multi_leader_states": self.multi_leader_states,
        }


def explore_all_schedules(t, algorithm, ids=None, *, rules=None,
                          max_states=10 ** 6):
    """Exhaustively walk every delivery interleaving of one instance.

    Depth-first with an explicit stack and a visited set; the branch
    point is which nonempty directed edge delivers next. Pulses carry
    no content, so a live node's reply depends only on its state and
    the arrival port; a StepTable with no room limit interns every node
    state and computes each such step once. A global state is one int
    key of fixed-width unsigned fields: the table's indices of the n
    node states, then the m in-flight counters. It partitions states
    exactly as NetworkState.key() does. From the table's slot for
    (index, arrival port) comes a delta per (state, edge): the
    receiver's index change, one pulse less on the delivered edge and
    the sends on the receiver's outgoing edges, so a transition is
    key + delta. A pulse absorbed by a halted node is key minus the
    edge's unit.
    Fields are (max_states + n).bit_length() + 1 bits wide, at most 64.
    A pulse counter of c means more than c states, since delivering
    those pulses one at a time passes through c + 1 of them, and each
    node state past the n starts is first met in a new state; so no
    field reaches max_states + n within the cap. The top bit of each
    field is headroom. Every delta's fields and every popped state are
    checked against it, so no sum carries into a neighbouring field; a
    value past it means more states than the cap, or than 2**63.
    A popped state is not decoded field by field. Adding headroom - 1
    to every counter field leaves a field's top bit set exactly when
    its counter is nonzero, so (key + fill) & busy is a mask of the
    nonempty edges; a table maps each mask to its edges in ascending
    order. A zero mask is a terminal state, and the mask's bits on
    parent-to-child edges count the direction violations. A receiver's
    index is read by a shift. Only terminal states, the headroom error
    and a LEADER declaration decode the whole key.

    Terminal states (nothing in flight) are grouped into classes by
    leader, outputs, and per-directed-edge send totals. Per-transition
    bookkeeping feeds the direction and quiescence checks. Raises
    StateCapExceededError beyond max_states, or beyond 2**63 states,
    and ValueError when max_states is below 1 or a node sends a
    negative number of pulses. rules is passed on to new_simulation.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1, got %d"
                         % max_states)
    root = new_simulation(t, algorithm, ids, rules=rules)
    offset = root.offset
    n = t.n
    m = len(root.dir_edges)
    receiver = [v for v, _ in root.arrive]
    arrival = [port for _, port in root.arrive]
    layering = root.layering
    wrong_way = None if layering is None else [
        layering.parent_of[u] != v for u, v in root.dir_edges]
    steps = StepTable(algorithm, root.rules, float("inf"))
    nodes, rows, intern = steps.nodes, steps.rows, steps.intern
    # Caps of 2**63 or more, float("inf") among them, get 64 bits.
    cap = max_states if max_states < 1 << 63 else 1 << 63
    bits = min((ceil(cap) + n).bit_length() + 1, 64)
    limit = 1 << (bits - 1)
    top = sum(limit << (bits * f) for f in range(n + m))
    unit = [1 << (bits * (n + ei)) for ei in range(m)]
    # On a key that passed the headroom check, (key + fill) & busy keeps
    # the top bit of each nonzero counter: a field below limit plus
    # limit - 1 reaches limit only when it is nonzero, and stays below
    # 2 * limit, so nothing carries.
    flag = [limit * u for u in unit]    # each counter's top bit
    busy = sum(flag)
    fill = busy - sum(unit)
    ww_mask = 0 if wrong_way is None else sum(
        f for f, w in zip(flag, wrong_way) if w)
    shift = [bits * v for v in receiver]   # to the receiver's field
    field = 2 * limit - 1
    patterns = {}    # mask -> its enabled edges, ascending
    deltas = [{} for _ in range(m)]   # per edge: index -> (delta, None,
                                      # "absorbed" or "declares")

    def past_headroom(value):
        # A value past the headroom means more states than the cap,
        # or, in 64-bit fields, more than the value (a pulse counter).
        return StateCapExceededError("more than %d states"
                                     % min(max_states, value))

    def decode(key):
        """The fields of a state key, node indices first."""
        return [(key >> (bits * f)) & field for f in range(n + m)]

    def delta(i, ei):
        if nodes[i].halted:
            # The pulse is absorbed; only the books remember it.
            found = (-unit[ei], "absorbed")
        else:
            v = receiver[ei]
            port = arrival[ei]
            nxt, _, sends, declares = rows[i][port] or steps.fill(i, port)
            totals = {}
            for p, c, _ in sends:
                totals[p] = totals.get(p, 0) + c
            d = ((nxt - i) << (bits * v)) - unit[ei]
            for p, c in totals.items():
                d += c << (bits * (n + offset[v] + p))
            big = max([nxt, *totals.values()])
            if big >= limit:
                raise past_headroom(big)
            found = (d, "declares" if declares else None)
        deltas[ei][i] = found
        return found

    fields = [intern(ns) for ns in root.node_states] + root.in_flight
    if max(fields) >= limit:
        raise past_headroom(max(fields))
    start = sum(x << (bits * f) for f, x in enumerate(fields))
    seen = {start}
    # Each entry holds a state and its books: the deliveries to halted
    # nodes on the path that found it, and its leader count.
    stack = [(start, (0, len(root.leaders)))]
    classes = {}
    transitions = 0
    direction_violations = 0
    halted_deliveries = 0
    nonquiescent = 0
    multi_leader = 0
    while stack:
        key, books = stack.pop()
        d2h, leader_count = books
        if key & top:
            raise past_headroom(max(decode(key)))
        mask = (key + fill) & busy
        if not mask:
            at = [nodes[i] for i in decode(key)[:n]]
            outputs = tuple(ns.output for ns in at)
            leader = outputs.index(LEADER) if LEADER in outputs else None
            ck = (leader, outputs, tuple(c for ns in at for c in ns.sent))
            cls = classes.get(ck)
            if cls is None:
                classes[ck] = [1, d2h, d2h, _blocked(at)]
            else:
                cls[0] += 1
                cls[1] = min(cls[1], d2h)
                cls[2] = max(cls[2], d2h)
            continue
        enabled = patterns.get(mask)
        if enabled is None:
            enabled = patterns[mask] = tuple(
                ei for ei in range(m) if mask & flag[ei])
        transitions += len(enabled)
        if leader_count > 1:
            multi_leader += len(enabled)
        elif not leader_count:
            direction_violations += (mask & ww_mask).bit_count()
        for ei in enabled:
            i = (key >> shift[ei]) & field
            try:
                d, event = deltas[ei][i]
            except KeyError:
                d, event = delta(i, ei)
            child = key + d
            child_books = books
            if event:
                if event == "absorbed":
                    halted_deliveries += 1
                    child_books = (d2h + 1, leader_count)
                else:
                    if leader_count == 1:
                        multi_leader += 1
                    if sum(decode(key)[n:]) > 1:
                        nonquiescent += 1
                    child_books = (d2h, leader_count + 1)
            if child not in seen:
                if len(seen) >= max_states:
                    raise StateCapExceededError(
                        "more than %d states" % max_states)
                seen.add(child)
                stack.append((child, child_books))
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
    leaders = tuple(sorted({c.leader for c in terminal_classes
                            if c.leader is not None}))
    return ModelCheckReport(
        algorithm=algorithm,
        states=len(seen),
        transitions=transitions,
        terminal_classes=terminal_classes,
        confluent=len(terminal_classes) == 1,
        leaders=leaders,
        direction_violations=direction_violations,
        halted_delivery_transitions=halted_deliveries,
        nonquiescent_declarations=nonquiescent,
        multi_leader_states=multi_leader,
    )
