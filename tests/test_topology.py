import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pulseforge.topology import (
    EQUAL,
    GREATER,
    LESS,
    BadTokenError,
    CycleError,
    DisconnectedError,
    DuplicateEdgeError,
    ParensError,
    ParseError,
    TreeTopology,
    compare_subtrees,
    decode_parens,
    encode_parens,
    enumerate_subtrees,
    is_edge_symmetric,
    layer_decomposition,
    parse_edge_list,
)
from pulseforge import topology
from pulseforge.harness import (
    GeneratorSpec,
    SymmetricTreeError,
    complete_binary_tree,
    expected_total_pulses,
    mirrored_tree,
    oracle_expected_leader,
    random_asymmetric_tree,
    random_tree,
    sweep_rows,
    verify_model_check,
    verify_outcome,
)
from pulseforge.protocol import compile_general_rules
from pulseforge.simulator import (
    SeededRandom,
    explore_all_schedules,
    new_simulation,
    run,
)


def c5():
    return TreeTopology(5, [(1, 2), (2, 3), (3, 4), (2, 0)])


def path(n):
    return TreeTopology(n, [(i, i + 1) for i in range(n - 1)])


def test_parse_edge_list_basic():
    t = parse_edge_list("0 1\n1 2\n")
    assert t.n == 3
    assert t.edges() == [(0, 1), (1, 2)]


def test_parse_edge_list_empty_is_single_vertex():
    t = parse_edge_list("")
    assert t.n == 1
    assert t.edges() == []


def test_parse_edge_list_errors():
    with pytest.raises(BadTokenError):
        parse_edge_list("0 1 2")
    with pytest.raises(BadTokenError):
        parse_edge_list("0 x")
    with pytest.raises(BadTokenError):
        parse_edge_list("0 -1")
    with pytest.raises(CycleError):
        parse_edge_list("0 0")
    with pytest.raises(DuplicateEdgeError):
        parse_edge_list("0 1 1 0")
    with pytest.raises(CycleError):
        parse_edge_list("0 1 1 2 2 0")
    with pytest.raises(DisconnectedError):
        parse_edge_list("0 1 3 4")


def _unpack(edge):
    u, v = edge
    return u, v


def _raised(make):
    try:
        make()
    except Exception as exc:
        return type(exc), str(exc)
    return None


# (n, edges, what TreeTopology raises). A list of n - 1 edges is
# accepted by a search alone; anything else is named by the first
# error of a scan in input order: per edge a label out of range, a
# self loop or a duplicate, then more than n - 1 edges, then the
# vertices unreachable from 0.
_REFUSED = [
    (0, [], ParseError, "need at least one vertex"),
    (4, [(0, 1), (1, 2), (0, 1)], DuplicateEdgeError, "duplicate edge (0, 1)"),
    (4, [(0, 1), (2, 1), (1, 2)], DuplicateEdgeError, "duplicate edge (1, 2)"),
    (4, [(0, 1), (2, 2), (1, 3)], CycleError, "self loop at vertex 2"),
    (1, [(0, 0)], CycleError, "self loop at vertex 0"),
    (4, [(0, 1), (1, 0), (1, 9)], DuplicateEdgeError, "duplicate edge (0, 1)"),
    (2, [(0, 1), (0, 1), (5, 5)], DuplicateEdgeError, "duplicate edge (0, 1)"),
    (3, [(0, 1), (1, 3)], BadTokenError, "vertex label out of range: (1, 3)"),
    (3, [(0, 1), (1, -1)], BadTokenError,
     "vertex label out of range: (1, -1)"),
    # -1 would index vertex 3 from the end and wire a tree.
    (4, [(0, 3), (1, 2), (2, -1)], BadTokenError,
     "vertex label out of range: (2, -1)"),
    (3, [(0, 1), (0, 2), (1, 2), (0, 9)], BadTokenError,
     "vertex label out of range: (0, 9)"),
    (3, [(0, 1), (1, 2), (2, 0)], CycleError, "3 edges on 3 vertices"),
    (5, [(0, 1), (1, 2), (2, 0), (3, 4)], DisconnectedError,
     "vertices unreachable from 0: [3, 4]"),
    (4, [(0, 1), (1, 2)], DisconnectedError,
     "vertices unreachable from 0: [3]"),
    (2, [], DisconnectedError, "vertices unreachable from 0: [1]"),
    (3, [(0, 1), (1, 2.0)], TypeError,
     "list indices must be integers or slices, not float"),
    (3, [(0, 1), (1, "2")], TypeError,
     "'<=' not supported between instances of 'int' and 'str'"),
    (3, [(0, 1), 5], TypeError, "cannot unpack non-iterable int object"),
]


@pytest.mark.parametrize("n, edges, cls, message", _REFUSED)
def test_refused_edge_lists_name_their_first_error(n, edges, cls, message):
    assert _raised(lambda: TreeTopology(n, edges)) == (cls, message)
    # An edge iterator is read once, also when it is refused.
    assert _raised(lambda: TreeTopology(n, iter(edges))) == (cls, message)


@pytest.mark.parametrize("edge", [(1, 2, 3), (1,)])
def test_an_edge_that_is_not_a_pair_raises_what_unpacking_raises(edge):
    # The message of a failed unpack differs between Python releases.
    assert _raised(lambda: TreeTopology(3, [(0, 1), edge])) == \
        _raised(lambda: _unpack(edge))


def test_an_edge_iterator_builds_the_tree_its_list_builds():
    edges = [(3, 1), (1, 0), (2, 1), (4, 3)]
    t = TreeTopology(5, iter(edges))
    assert (t.neighbors, t.back_ports) == oracles.ports_of(5, edges)


def test_edge_lists_are_accepted_exactly_when_they_form_a_tree():
    rng = random.Random(5)
    accepted = 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        if rng.random() < 0.5:
            # A tree, its edges shuffled and some reversed.
            edges = [e[::rng.choice((1, -1))]
                     for e in random_tree(n, rng.randrange(10 ** 6)).edges()]
            rng.shuffle(edges)
        else:
            edges = [(rng.randint(-1, n), rng.randint(-1, n))
                     for _ in range(max(n + rng.randint(-2, 1), 0))]
        in_range = all(0 <= x < n for e in edges for x in e)
        g = nx.MultiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        is_tree = in_range and nx.is_tree(g)
        try:
            t = TreeTopology(n, edges)
        except ParseError:
            assert not is_tree, edges
        else:
            assert is_tree, edges
            assert (t.neighbors, t.back_ports) == oracles.ports_of(n, edges)
            accepted += 1
    assert accepted > 1500


def test_ports_are_stable_and_invertible():
    t = c5()
    for v in range(t.n):
        for p in range(t.degree(v)):
            u = t.neighbor_on(v, p)
            assert t.port_to(v, u) == p
            assert t.back_ports[v][p] == t.port_to(u, v)
    assert t.degree(2) == 3
    assert t.edges() == [(0, 2), (1, 2), (2, 3), (3, 4)]


def test_directed_edges_grouped_by_source():
    t = path(3)
    assert t.directed_edges() == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_layering_path5():
    lay = layer_decomposition(path(5))
    assert lay.layers == (frozenset({0, 4}), frozenset({1, 3}),
                          frozenset({2}))
    assert lay.radius == 2
    assert lay.diameter == 4
    assert lay.root == 2
    assert lay.co_root is None


def test_layering_c5():
    lay = layer_decomposition(c5())
    assert lay.layers == (frozenset({0, 1, 4}), frozenset({2, 3}))
    assert (lay.diameter, lay.radius) == (3, 1)
    assert (lay.root, lay.co_root) == (2, 3)
    assert lay.parent_of[3] == 2
    assert not lay.arbitrary_root


def test_layering_single_vertex():
    lay = layer_decomposition(TreeTopology(1, []))
    assert lay.layers == (frozenset({0}),)
    assert (lay.root, lay.radius, lay.diameter) == (0, 0, 0)


def test_layering_symmetric_tree_flags_arbitrary_root():
    lay = layer_decomposition(path(4))
    assert lay.diameter == 3
    assert lay.arbitrary_root
    assert {lay.root, lay.co_root} == {1, 2}


def test_layering_matches_peeling_oracle_on_all_small_shapes():
    for n in range(1, 9):
        for edges in oracles.nonisomorphic_trees(n):
            t = TreeTopology(n, edges)
            lay = layer_decomposition(t)
            assert list(lay.layer_of) == oracles.peel_layers(t)
            g = oracles.to_nx(t)
            assert lay.diameter == (nx.diameter(g) if n > 1 else 0)
            assert lay.root in nx.center(g)
            # unique parent one layer up, for every non-root vertex
            for v in range(n):
                if v in (lay.root, lay.co_root):
                    continue
                p = lay.parent_of[v]
                assert p in t.neighbors[v]
                assert lay.layer_of[p] > lay.layer_of[v]
            top = lay.layers[-1]
            assert len(top) in (1, 2)
            assert lay.diameter % 2 == (1 if len(top) == 2 else 0)
            assert lay.diameter == 2 * lay.radius + (len(top) - 1)


def test_compare_subtrees_c5_examples():
    t = c5()
    lay = layer_decomposition(t)
    # fewer children first: the 2-chain side loses to the 2-leaf side
    assert compare_subtrees(t, lay, 3, 2) == LESS
    assert compare_subtrees(t, lay, 2, 3) == GREATER
    # lower layer first
    assert compare_subtrees(t, lay, 0, 3) == LESS
    # two leaves are the same shape
    assert compare_subtrees(t, lay, 0, 4) == EQUAL


def test_compare_subtrees_matches_recursive_oracle():
    for i in range(60):
        n = random.Random(i).randint(2, 10)
        t = random_tree(n, i)
        lay = layer_decomposition(t)
        layer_of = oracles.peel_layers(t)
        for a in range(n):
            for b in range(n):
                assert compare_subtrees(t, lay, a, b) == \
                    oracles.subtree_compare(t, layer_of, a, b)


def test_enumerate_subtrees_c5():
    t = c5()
    idx = enumerate_subtrees(t, layer_decomposition(t))
    assert idx.count == 3
    assert [idx.class_of[v] for v in range(5)] == [1, 1, 3, 2, 1]
    assert [idx.quota_of(v) for v in range(5)] == [2, 2, 0, 1, 2]


def test_enumerate_subtrees_p3_and_p5():
    t3 = path(3)
    idx3 = enumerate_subtrees(t3, layer_decomposition(t3))
    assert idx3.count == 2
    assert [idx3.class_of[v] for v in range(3)] == [1, 2, 1]
    t5 = path(5)
    idx5 = enumerate_subtrees(t5, layer_decomposition(t5))
    assert idx5.count == 3


def test_class_of_root_is_highest():
    for i in range(40):
        t = random_tree(random.Random(100 + i).randint(1, 12), 100 + i)
        lay = layer_decomposition(t)
        idx = enumerate_subtrees(t, lay)
        assert idx.class_of[lay.root] == idx.count
        assert idx.quota_of(lay.root) == 0


def test_shape_children_are_the_classes_of_lower_layer_neighbours():
    # The layering keeps each shape's child-shape tuple; every vertex of
    # the shape must have exactly those classes below it.
    for n in range(1, 11):
        for edges in oracles.nonisomorphic_trees(n):
            t = TreeTopology(n, edges)
            lay = layer_decomposition(t)
            idx = enumerate_subtrees(t, lay)
            assert idx is lay.shapes is enumerate_subtrees(t, lay)
            assert len(idx.children) == idx.count + 1
            for v in range(n):
                kids = sorted(idx.class_of[u] for u in t.neighbors[v]
                              if lay.layer_of[u] < lay.layer_of[v])
                assert idx.children[idx.class_of[v]] == tuple(kids), \
                    (edges, v)


def _partition(keys):
    blocks = {}
    for v, key in enumerate(keys):
        blocks.setdefault(key, set()).add(v)
    return sorted(map(sorted, blocks.values()))


def test_shapes_read_after_the_even_path_rank_the_peel_directly():
    # The even path reads no shapes, so an even tree's index is built on
    # the first read of layering.shapes, after everything else the path
    # asks of the layering. It must be the index of _peel's output, and
    # the read must change nothing else on the layering.
    for n in range(1, 11):
        for edges in oracles.nonisomorphic_trees(n):
            t = TreeTopology(n, edges)
            report = is_edge_symmetric(t)
            lay = layer_decomposition(t)
            if report.symmetric:
                with pytest.raises(SymmetricTreeError):
                    oracle_expected_leader(t)
            else:
                assert oracle_expected_leader(t) == lay.root
            if lay.diameter % 2 == 0:
                expected_total_pulses(t, "even")
            before = (lay.root, lay.co_root, lay.arbitrary_root,
                      lay.diameter, lay.parent_of)
            idx = lay.shapes
            layers, _, parent_of = topology._peel(t)
            direct = topology._shape_classes(layers, parent_of)
            assert (idx.count, idx.class_of, idx.children) == \
                (direct.count, direct.class_of, direct.children), edges
            assert _partition(idx.class_of) == _partition(
                [oracles.ahu_subtree(t, lay.layer_of, v) for v in range(n)])
            assert (lay.root, lay.co_root, lay.arbitrary_root,
                    lay.diameter, lay.parent_of) == before
            assert lay.shapes is idx


@pytest.fixture
def shape_builds(monkeypatch):
    """The number of _shape_classes calls made so far."""
    calls = []
    build = topology._shape_classes

    def counted(layers, parent_of):
        calls.append(len(parent_of))
        return build(layers, parent_of)
    monkeypatch.setattr(topology, "_shape_classes", counted)
    return calls


def test_even_paths_build_no_shape_index(shape_builds):
    trees = [complete_binary_tree(3), path(3), path(5)]
    trees += [t for t in (random_tree(40, s) for s in range(20))
              if layer_decomposition(t).diameter % 2 == 0][:3]
    assert len(trees) == 6
    shape_builds.clear()    # odd trees the filter dropped built theirs
    for t in trees:
        t = TreeTopology(t.n, t.edges())
        state = new_simulation(t, "even")
        outcome = run(state, SeededRandom(3), 10 ** 6)
        assert verify_outcome(outcome, t, "even")["ok"]
    small = complete_binary_tree(2)
    report = explore_all_schedules(small, "even")
    assert verify_model_check(report, small)["ok"]
    [(row, failures)] = sweep_rows([GeneratorSpec("complete-binary",
                                                  radius=4)], "even", [0])
    assert row["leader_ok"] and not failures
    assert shape_builds == []


def test_general_rules_build_the_shape_index_once(shape_builds):
    trees = [random_asymmetric_tree(n, s) for n in (9, 12, 30)
             for s in range(4)]
    parities = {layer_decomposition(TreeTopology(t.n, t.edges())).diameter
                % 2 for t in trees}
    assert parities == {0, 1}
    for t in trees:
        t = TreeTopology(t.n, t.edges())
        shape_builds.clear()
        compile_general_rules(t)
        assert shape_builds == [t.n]
        lay = layer_decomposition(t)
        idx = enumerate_subtrees(t, lay)
        assert idx is lay.shapes is enumerate_subtrees(t, lay)
        assert shape_builds == [t.n]


def test_encode_parens_examples():
    assert encode_parens(path(3), 1) == "(()())"
    assert encode_parens(TreeTopology(1, []), 0) == "()"
    assert encode_parens(c5(), 2) == "((())()())"


def test_decode_parens_roundtrip_examples():
    for text in ("()", "(()())", "((())()())", "((((()))))"):
        t = decode_parens(text)
        assert encode_parens(t, 0) == text


def test_decode_parens_errors():
    for bad in ("", "(", "(()", "())", "()()", "(a)", "() ", "(())x"):
        with pytest.raises(ParensError):
            decode_parens(bad)


def test_encoding_is_label_invariant():
    rng = random.Random(7)
    for i in range(30):
        n = rng.randint(2, 10)
        t = random_tree(n, rng.randrange(10 ** 6))
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = TreeTopology(
            n, [(perm[u], perm[v]) for u, v in t.edges()])
        for v in range(n):
            assert encode_parens(t, v) == encode_parens(relabeled, perm[v])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=14), st.randoms())
def test_encode_decode_roundtrip_random(n, rnd):
    t = random_tree(n, rnd.randrange(10 ** 9))
    root = rnd.randrange(n)
    text = encode_parens(t, root)
    back = decode_parens(text)
    assert back.n == n
    assert encode_parens(back, 0) == text


def test_is_edge_symmetric_known_cases():
    assert is_edge_symmetric(path(2)).witness_edge == (0, 1)
    assert is_edge_symmetric(path(4)).witness_edge == (1, 2)
    assert not is_edge_symmetric(path(3)).symmetric
    assert not is_edge_symmetric(path(5)).symmetric
    assert not is_edge_symmetric(c5()).symmetric
    assert not is_edge_symmetric(TreeTopology(1, [])).symmetric


def test_is_edge_symmetric_matches_bijection_oracle():
    for n in range(1, 9):
        for edges in oracles.nonisomorphic_trees(n):
            t = TreeTopology(n, edges)
            rep = is_edge_symmetric(t)
            witness = oracles.brute_force_symmetric(t)
            assert rep.symmetric == (witness is not None), (n, edges)
            if rep.symmetric:
                assert oracles.brute_force_symmetric_about(
                    t, *rep.witness_edge)


def test_mirrored_trees_are_symmetric():
    for i in range(25):
        half = random.Random(i).randint(1, 6)
        t = mirrored_tree(half, seed=i)
        rep = is_edge_symmetric(t)
        assert rep.symmetric
        assert oracles.brute_force_symmetric_about(t, *rep.witness_edge)


def test_is_edge_symmetric_matches_networkx_oracle_on_large_trees():
    # The bijection oracle stops at n = 8; these reach n = 60. A mirrored
    # tree with one extra leaf is a near miss that must read asymmetric.
    rng = random.Random(2024)
    trees = []
    for i in range(30):
        trees.append(random_tree(rng.randint(40, 60), seed=i))
        mirror = mirrored_tree(rng.randint(20, 30), seed=i)
        trees.append(mirror)
        edges = mirror.edges() + [(rng.randrange(mirror.n), mirror.n)]
        trees.append(TreeTopology(mirror.n + 1, edges))
    symmetric = 0
    for t in trees:
        rep = is_edge_symmetric(t)
        assert rep.witness_edge == oracles.isomorphic_sides_edge(t), t
        assert rep.symmetric == (rep.witness_edge is not None)
        symmetric += rep.symmetric
    assert symmetric >= 30


def test_symmetric_implies_odd_diameter():
    for i in range(25):
        t = mirrored_tree(random.Random(50 + i).randint(1, 6), seed=50 + i)
        assert layer_decomposition(t).diameter % 2 == 1
