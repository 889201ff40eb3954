"""Tree structure toolkit: edge-list parsing, leaf-peeling layers, rooted
subtree shape enumeration, edge-symmetry detection, and a balanced
parentheses encoding for unlabeled rooted trees.

Vertices are dense 0-based integers and carry no identity beyond their
index. Ports are local per vertex, assigned in adjacency order, so all
protocol-visible structure is derived from the shape of the tree alone.
"""

from __future__ import annotations


LESS, EQUAL, GREATER = -1, 0, 1


class ParseError(ValueError):
    """Base class for edge-list and parenthesis parsing failures."""


class BadTokenError(ParseError):
    pass


class DuplicateEdgeError(ParseError):
    pass


class CycleError(ParseError):
    pass


class DisconnectedError(ParseError):
    pass


class ParensError(ParseError):
    pass


class TreeTopology:
    """Immutable undirected tree with per-vertex port numbering.

    neighbors[v] is the ordered tuple of v's neighbors; the position of a
    neighbor in that tuple is the local port index at v. Ports follow the
    first-appearance order of the input edge list, so identical input
    text always yields identical port assignments. back_ports[v][p] is
    the port at neighbors[v][p] of the edge back to v, so a pulse v
    sends on port p arrives there.
    """

    __slots__ = ("n", "neighbors", "back_ports", "_port_of", "_layering")

    def __init__(self, n, edges):
        if n < 1:
            raise ParseError("need at least one vertex")
        edges = list(edges)
        wired = _wire(n, edges) if len(edges) == n - 1 else None
        if wired is None:
            _refuse(n, edges)
        adj, back = wired
        self.n = n
        self.neighbors = tuple(map(tuple, adj))
        self.back_ports = tuple(map(tuple, back))
        self._port_of = None    # built by the first port_to call
        self._layering = None  # filled in by layer_decomposition

    def degree(self, v):
        return len(self.neighbors[v])

    def neighbor_on(self, v, port):
        return self.neighbors[v][port]

    def port_to(self, v, u):
        """Local port index at v of the edge leading to u."""
        if self._port_of is None:
            self._port_of = {(w, x): p for w, nbrs in enumerate(self.neighbors)
                             for p, x in enumerate(nbrs)}
        return self._port_of[(v, u)]

    def edges(self):
        """All edges as sorted (min, max) pairs, in ascending order."""
        return sorted(
            (v, u) if v < u else (u, v)
            for v in range(self.n)
            for u in self.neighbors[v]
            if v < u
        )

    def directed_edges(self):
        """Canonical directed edge list: grouped by source, port order."""
        return [(v, u) for v in range(self.n) for u in self.neighbors[v]]

    def __repr__(self):
        return "TreeTopology(n=%d, edges=%r)" % (self.n, self.edges())


def _reached(adj):
    """Per vertex, whether a search from vertex 0 reaches it."""
    reached = [False] * len(adj)
    reached[0] = True
    order = [0]
    for v in order:
        for u in adj[v]:
            if not reached[u]:
                reached[u] = True
                order.append(u)
    return reached


def _wire(n, edges):
    """The neighbor and back-port lists of n - 1 edges that form a tree
    on 0..n-1, or None when they do not.

    Each end's next port is the length of its list so far. n - 1 edges
    reach every vertex from 0 exactly when they hold no cycle, self
    loop or duplicate, so a search is the whole check once every label
    is in range: a negative one is caught here, and one past n, or an
    edge that is not a pair of labels, makes the wiring raise.
    """
    adj = [[] for _ in range(n)]
    back = [[] for _ in range(n)]
    try:
        for u, v in edges:
            if u < 0 or v < 0:
                return None
            au, av = adj[u], adj[v]
            back[u].append(len(av))
            back[v].append(len(au))
            au.append(v)
            av.append(u)
    except (TypeError, ValueError, IndexError):
        return None
    return (adj, back) if all(_reached(adj)) else None


def _refuse(n, edges):
    """Raise the first error of edges that do not form a tree on n
    vertices: per edge in input order, a label out of range, a self
    loop or a duplicate; then more than n - 1 edges; then the vertices
    unreachable from 0."""
    adj = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise BadTokenError("vertex label out of range: %r" % ((u, v),))
        if u == v:
            raise CycleError("self loop at vertex %d" % u)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError("duplicate edge %r" % (key,))
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    if len(seen) > n - 1:
        raise CycleError("%d edges on %d vertices" % (len(seen), n))
    reached = _reached(adj)
    raise DisconnectedError("vertices unreachable from 0: %s"
                            % [v for v in range(n) if not reached[v]])


def parse_edge_list(text):
    """Parse whitespace-separated "u v" pairs into a TreeTopology.

    Labels must be 0-based integers; n is inferred as max label + 1.
    Empty input denotes the single-vertex tree. Raises a distinct
    ParseError subclass for bad tokens, duplicate edges, cycles, and
    disconnected input. Labels past the pair count mean disconnected
    input, refused before anything is allocated per vertex.
    """
    tokens = text.split()
    if not tokens:
        return TreeTopology(1, [])
    if len(tokens) % 2 != 0:
        raise BadTokenError("odd token count, expected u v pairs")
    labels = []
    for tok in tokens:
        try:
            x = int(tok)
        except ValueError:
            raise BadTokenError("non-integer token %r" % tok) from None
        if x < 0:
            raise BadTokenError("negative vertex label %r" % tok)
        labels.append(x)
    n = max(labels) + 1
    edges = [(labels[i], labels[i + 1]) for i in range(0, len(labels), 2)]
    if n > len(edges) + 1:
        raise DisconnectedError("labels reach %d, but %d edge(s) connect "
                                "at most %d vertices"
                                % (n - 1, len(edges), len(edges) + 1))
    return TreeTopology(n, edges)


class Layering:
    """Leaf-peeling decomposition of a tree, the tree's one analysis.

    layers[i] holds the vertices removed in peeling round i; the last
    layer holds the one or two central vertices. Every non-root vertex
    has exactly one neighbor in a strictly higher layer, its parent; for
    an odd diameter the two central vertices are ordered by the subtree
    comparator and the loser (co_root) is parented to the winner. When
    the two central subtrees are isomorphic no canonical choice exists
    and arbitrary_root is set; the lower vertex index is used then.
    shapes is the SubtreeIndex of the tree's rooted subtree shapes; rule
    compilation, the comparator and the CLI read it instead of scanning
    the tree again. An odd diameter builds it with the layering, since
    the root choice reads it; an even one builds it on its first read
    and keeps it, so even and stabilizing runs, which never read it,
    never build it.
    """

    __slots__ = (
        "layers",
        "layer_of",
        "parent_of",
        "root",
        "co_root",
        "diameter",
        "radius",
        "arbitrary_root",
        "_shapes",
    )

    def __init__(self, layers, layer_of, parent_of, root, co_root,
                 diameter, radius, arbitrary_root, shapes):
        self.layers = layers
        self.layer_of = layer_of
        self.parent_of = parent_of
        self.root = root
        self.co_root = co_root
        self.diameter = diameter
        self.radius = radius
        self.arbitrary_root = arbitrary_root
        self._shapes = shapes   # None until the first read of shapes

    @property
    def shapes(self):
        if self._shapes is None:
            self._shapes = _shape_classes(self.layers, self.parent_of)
        return self._shapes

    def __repr__(self):
        return "Layering(radius=%d, diameter=%d, root=%d, co_root=%r)" % (
            self.radius, self.diameter, self.root, self.co_root)


class SubtreeIndex:
    """Enumeration of the distinct rooted subtree shapes of one tree.

    Shapes are numbered 1..count in comparator order (lower peel layer
    first, then fewer children, then recursively by the sorted child
    shape lists). class_of maps each vertex to the shape index of the
    subtree hanging at it; quota_of gives the derived send quota
    count - class_of(v). children[i] is the ascending tuple of shape
    i's child shapes, one entry per lower-layer neighbor of a vertex
    of that shape; children[0] is None.
    """

    __slots__ = ("count", "class_of", "children")

    def __init__(self, count, class_of, children=None):
        self.count = count
        self.class_of = class_of
        self.children = children

    def quota(self, index):
        return self.count - index

    def quota_of(self, v):
        return self.count - self.class_of[v]

    def __repr__(self):
        return "SubtreeIndex(count=%d)" % self.count


class SymmetryReport:
    __slots__ = ("symmetric", "witness_edge")

    def __init__(self, symmetric, witness_edge):
        self.symmetric = symmetric
        self.witness_edge = witness_edge

    def __repr__(self):
        return "SymmetryReport(symmetric=%r, witness_edge=%r)" % (
            self.symmetric, self.witness_edge)


def _peel(t):
    """Iterated leaf removal. Returns (layers, layer_of, parent_of).

    A vertex's parent is its one neighbor not yet peeled when it is
    peeled; the central vertices get None, and layer_decomposition
    parents the co-root afterwards. Raises AssertionError unless every
    vertex below the last layer has exactly one such neighbor.
    """
    n = t.n
    if n == 1:
        return (frozenset([0]),), (0,), [None]
    neighbors = t.neighbors
    deg = list(map(len, neighbors))
    layer_of = [-1] * n
    parent_of = [None] * n
    layers = []
    current = [v for v in range(n) if deg[v] == 1]
    i = 0
    while current:
        layers.append(frozenset(current))
        for v in current:
            layer_of[v] = i
        nxt = []
        for v in current:
            for u in neighbors[v]:
                if layer_of[u] == -1:
                    if parent_of[v] is not None:
                        raise AssertionError(
                            "vertex %d has two higher-layer neighbors" % v)
                    parent_of[v] = u
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        current = sorted(nxt)
        i += 1
    if parent_of.count(None) != len(layers[-1]):
        raise AssertionError("a vertex below the last layer has no "
                             "higher-layer neighbor")
    return tuple(layers), tuple(layer_of), parent_of


def _shape_classes(layers, parent_of):
    """The SubtreeIndex of the shapes, ranked bottom-up, one block per
    layer.

    Within a layer, shapes are ordered by (child count, sorted child
    shape tuple); across layers lower peel rounds come first. Children
    here are the vertices a vertex parents in _peel, its strictly
    lower-layer neighbors, so the two central vertices of an
    odd-diameter tree do not contain each other. Each shape keeps its
    sorted child-shape tuple as its entry of children.
    """
    kids = [[] for _ in parent_of]
    class_of = [0] * len(parent_of)
    children = [None]
    for layer in layers:
        keyed = [((len(kids[v]), tuple(sorted(kids[v]))), v) for v in layer]
        distinct = sorted(set(k for k, _ in keyed))
        rank = {k: len(children) + j for j, k in enumerate(distinct)}
        children.extend(k[1] for k in distinct)
        for key, v in keyed:
            class_of[v] = rank[key]
            if parent_of[v] is not None:
                kids[parent_of[v]].append(class_of[v])
    return SubtreeIndex(len(children) - 1, tuple(class_of), tuple(children))


def layer_decomposition(t):
    """Decompose t into peeling layers with a parent map and its shape
    index.

    The diameter is 2r when one vertex survives to the last round and
    2r+1 when two do. In the odd case the root is the central vertex
    whose subtree compares greater; ties (edge-symmetric trees) fall
    back to the lower vertex index with arbitrary_root set. Only that
    choice needs the shape index, so an even diameter leaves it to the
    first read of layering.shapes, which ranks the same peel; even and
    stabilizing runs never read it. Computed once per tree and kept on
    it, so it lives exactly as long as t.
    """
    if t._layering is not None:
        return t._layering
    layers, layer_of, parent_of = _peel(t)
    r = len(layers) - 1
    top = sorted(layers[-1])
    shapes = None
    arbitrary = False
    if len(top) == 1:
        root, co_root = top[0], None
        diameter = 2 * r
    elif len(top) == 2:
        a, b = top
        if b not in t.neighbors[a]:
            raise AssertionError("central pair %r not adjacent" % (top,))
        diameter = 2 * r + 1
        shapes = _shape_classes(layers, parent_of)
        ca, cb = shapes.class_of[a], shapes.class_of[b]
        if ca == cb:
            root, co_root, arbitrary = a, b, True
        elif ca > cb:
            root, co_root = a, b
        else:
            root, co_root = b, a
        parent_of[co_root] = root
    else:
        raise AssertionError("peeling left %d central vertices" % len(top))
    t._layering = Layering(
        layers=layers,
        layer_of=layer_of,
        parent_of=tuple(parent_of),
        root=root,
        co_root=co_root,
        diameter=diameter,
        radius=r,
        arbitrary_root=arbitrary,
        shapes=shapes,
    )
    return t._layering


def enumerate_subtrees(t, layering):
    """Index the distinct rooted subtree shapes of t: the one
    SubtreeIndex kept as layering.shapes, built with the layering for
    an odd diameter and on its first read, here or elsewhere, for an
    even one. Even and stabilizing runs never call this, so they never
    build it.

    The root's subtree is always the last shape; with an odd diameter
    and an asymmetric tree the co-root's shape is the one before it.
    """
    idx = layering.shapes
    if idx.class_of[layering.root] != idx.count:
        raise AssertionError("root subtree is not the final shape")
    return idx


def compare_subtrees(t, layering, a, b):
    """Order the subtrees hanging at vertices a and b.

    Returns LESS, EQUAL, or GREATER. Equal means the two rooted
    subtrees are isomorphic; otherwise lower peel layer wins, then
    fewer children, then the recursive comparison of the child lists.
    """
    class_of = layering.shapes.class_of
    ca, cb = class_of[a], class_of[b]
    if ca < cb:
        return LESS
    if ca > cb:
        return GREATER
    return EQUAL


def encode_parens(t, root):
    """Canonical balanced-parentheses encoding of t rooted at root.

    Child substrings are sorted lexicographically before concatenation,
    so isomorphic rooted trees encode to the identical string. Iterative
    so deep paths cannot hit the recursion limit.
    """
    parent = {root: None}
    order = [root]
    for v in order:
        for u in t.neighbors[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    enc = {}
    for v in reversed(order):
        kids = sorted(enc[u] for u in t.neighbors[v] if u != parent[v])
        enc[v] = "(" + "".join(kids) + ")"
    return enc[root]


def decode_parens(text):
    """Rebuild a tree from a parenthesis encoding.

    Vertices are numbered in preorder, the root becoming vertex 0, so
    encode_parens(decode_parens(s), 0) returns the canonicalized form
    of s. Raises ParensError on empty, unbalanced, or multi-root input.
    """
    if not text:
        raise ParensError("empty encoding")
    edges = []
    stack = []
    next_vertex = 0
    for ch in text:
        if ch == "(":
            if next_vertex > 0 and not stack:
                raise ParensError("content after the root group closed")
            v = next_vertex
            next_vertex += 1
            if stack:
                edges.append((stack[-1], v))
            stack.append(v)
        elif ch == ")":
            if not stack:
                raise ParensError("unbalanced: close without open")
            stack.pop()
        else:
            raise ParensError("unexpected character %r" % ch)
    if stack:
        raise ParensError("unbalanced: %d groups left open" % len(stack))
    return TreeTopology(next_vertex, edges)


def is_edge_symmetric(t):
    """Detect whether t is symmetric about some edge.

    An automorphism that swaps the two ends of an edge maps the center
    of t to itself, so that edge can only be the central edge of an
    odd-diameter tree, and the swap exists exactly when the two central
    halves have the same shape class. That edge is the witness.
    """
    layering = layer_decomposition(t)
    if layering.co_root is None or not layering.arbitrary_root:
        return SymmetryReport(False, None)
    a, b = layering.root, layering.co_root
    return SymmetryReport(True, (min(a, b), max(a, b)))
