"""Independent reference implementations the tests judge the package
against. Everything here is written from the definitions, on purpose
without reusing the package's own traversal or comparison code."""

import itertools
from functools import cmp_to_key

import networkx as nx
from networkx.algorithms.isomorphism import rooted_tree_isomorphism


def to_nx(t):
    g = nx.Graph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from(t.edges())
    return g


def peel_layers(t):
    """Layer index per vertex by repeated leaf removal, via networkx."""
    g = to_nx(t)
    layer_of = {}
    i = 0
    while g.number_of_nodes() > 0:
        if g.number_of_nodes() <= 2:
            leaves = list(g.nodes)
        else:
            leaves = [v for v in g.nodes if g.degree(v) == 1]
        for v in leaves:
            layer_of[v] = i
        g.remove_nodes_from(leaves)
        i += 1
    return [layer_of[v] for v in range(t.n)]


def children_of(t, layer_of, v):
    return sorted(u for u in t.neighbors[v] if layer_of[u] < layer_of[v])


def subtree_compare(t, layer_of, a, b):
    """The three-rule order, written as the literal recursion:
    lower layer first, then fewer children, then the first differing
    child pair with each side's children sorted by this same order."""
    if layer_of[a] != layer_of[b]:
        return -1 if layer_of[a] < layer_of[b] else 1
    ca = children_of(t, layer_of, a)
    cb = children_of(t, layer_of, b)
    if len(ca) != len(cb):
        return -1 if len(ca) < len(cb) else 1
    key = cmp_to_key(lambda x, y: subtree_compare(t, layer_of, x, y))
    for x, y in zip(sorted(ca, key=key), sorted(cb, key=key)):
        c = subtree_compare(t, layer_of, x, y)
        if c != 0:
            return c
    return 0


def ahu_subtree(t, layer_of, v):
    """Canonical bracket string of the subtree hanging below v (the
    strictly-lower-layer side), by the usual sorted-children fold."""
    kids = children_of(t, layer_of, v)
    return "(" + "".join(sorted(ahu_subtree(t, layer_of, u)
                                for u in kids)) + ")"


def component_vertices(t, start, banned):
    """Vertices reachable from start without crossing the banned edge."""
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for u in t.neighbors[v]:
            if {v, u} == set(banned) or u in seen:
                continue
            seen.add(u)
            frontier.append(u)
    return seen


def brute_force_symmetric_about(t, u, v):
    """Try every bijection between the two sides of edge {u, v} that
    maps u to v; True if some bijection preserves adjacency."""
    side_u = sorted(component_vertices(t, u, (u, v)))
    side_v = sorted(component_vertices(t, v, (u, v)))
    if len(side_u) != len(side_v):
        return False
    adj_u = {x: {y for y in t.neighbors[x] if {x, y} != {u, v}}
             for x in side_u}
    adj_v = {x: {y for y in t.neighbors[x] if {x, y} != {u, v}}
             for x in side_v}
    rest_u = [x for x in side_u if x != u]
    rest_v = [x for x in side_v if x != v]
    for perm in itertools.permutations(rest_v):
        f = dict(zip(rest_u, perm))
        f[u] = v
        if all({f[y] for y in adj_u[x]} == adj_v[f[x]] for x in side_u):
            return True
    return False


def brute_force_symmetric(t):
    for u, v in t.edges():
        if brute_force_symmetric_about(t, u, v):
            return (u, v)
    return None


def isomorphic_sides_edge(t):
    """First edge, in ascending order, whose two sides are isomorphic
    as trees rooted at its ends, judged by networkx's rooted tree
    isomorphism; None when there is none. Polynomial, so it reaches
    sizes the bijection search above cannot."""
    g = to_nx(t)
    for u, v in t.edges():
        g.remove_edge(u, v)
        side_u = g.subgraph(nx.node_connected_component(g, u))
        side_v = g.subgraph(nx.node_connected_component(g, v))
        same = (len(side_u) == len(side_v)
                and rooted_tree_isomorphism(side_u, u, side_v, v))
        g.add_edge(u, v)
        if same:
            return (u, v)
    return None


def all_labeled_trees(n):
    """Every labeled tree on n vertices, as edge lists (Prüfer walk)."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        leaves = sorted(v for v in range(n) if degree[v] == 1)
        edges = []
        for x in seq:
            leaf = leaves.pop(0)
            edges.append((leaf, x))
            degree[x] -= 1
            if degree[x] == 1:
                import bisect
                bisect.insort(leaves, x)
        edges.append((leaves[0], leaves[1]))
        yield edges


def nonisomorphic_trees(n):
    """Unlabeled tree shapes on n vertices, as vertex-labeled edge lists."""
    if n == 1:
        return [[]]
    if n == 2:
        return [[(0, 1)]]
    return [list(g.edges()) for g in nx.nonisomorphic_trees(n)]


def brute_force_match_trigger(received, trigger, remaining_required=0,
                              forced_remaining=None):
    """The remaining port a trigger admits, tried port by port: the
    lowest port holding exactly remaining_required pulses (or only the
    forced one) whose d-1 other ports, sorted descending, cover the
    trigger sorted descending entry by entry; None if no port does."""
    d = len(received)
    want = sorted(trigger, reverse=True)
    candidates = range(d) if forced_remaining is None else (forced_remaining,)
    for p in candidates:
        if received[p] != remaining_required:
            continue
        rest = sorted((received[q] for q in range(d) if q != p), reverse=True)
        if all(have >= need for have, need in zip(rest, want)):
            return p
    return None


def brute_force_all_ports(received, trigger):
    """Whether some assignment of the ports to the trigger entries, one
    port per entry, gives every entry a port holding at least as many
    pulses; tried over every permutation of the ports. The trigger must
    have one entry per port."""
    assert len(trigger) == len(received)
    return any(all(received[p] >= need for p, need in zip(perm, trigger))
               for perm in itertools.permutations(range(len(received))))


def brute_force_upstream(received, rules, up_port):
    """(quota, remaining port) of the upstream rule with the largest
    quota among those whose trigger matches with a silent remaining
    port, up_port when one is committed; None if none matches. rules
    holds (quota, trigger) pairs in any order."""
    best = None
    for quota, trigger in rules:
        port = brute_force_match_trigger(received, trigger, 0, up_port)
        if port is not None and (best is None or quota > best[0]):
            best = (quota, port)
    return best


def dominance_violations(upstream):
    """Pairs (a, b) of same-degree upstream rules, a is not b, whose
    triggers are entrywise a >= b but whose quotas are not a > b: each
    would leave matching ambiguous about which quota a node settles on.
    Compares every pair; a consistent rule set gives []."""
    by_degree = {}
    for rule in upstream:
        by_degree.setdefault(rule.degree, []).append(rule)
    found = []
    for group in by_degree.values():
        for a in group:
            for b in group:
                if a is b:
                    continue
                if all(x >= y for x, y in zip(a.trigger, b.trigger)):
                    if not a.target > b.target:
                        found.append((a, b))
    return found
