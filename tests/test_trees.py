"""Tree structures: Newick IO, distances, Steiner weights, contraction,
generators, equidistant building and reconstruction."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedissim import (
    DistanceMatrix,
    FourPointViolation,
    NewickError,
    TreeError,
    UltrametricViolation,
    WeightedTree,
    build_equidistant,
    contract_subtree,
    distance_matrix,
    enumerate_topologies,
    four_point_check,
    parse_newick,
    random_tree,
    reconstruct_tree,
    reroot_ultrametric,
    same_tree,
    serialize_newick,
    steiner_weight,
)

F = Fraction

CANONICAL_QUARTET = "(1:1,2:1,(3:1,4:1):1);"


class TestParseNewick:
    def test_quartet_distances(self, quartet_dm):
        want = {
            (1, 2): F(2),
            (1, 3): F(3),
            (1, 4): F(3),
            (2, 3): F(3),
            (2, 4): F(3),
            (3, 4): F(2),
        }
        assert quartet_dm.entries == want

    def test_weight_formats(self):
        t = parse_newick("(1:0.5,2:1/3,(3:2e1,4:1):1);")
        d = distance_matrix(t)
        assert d.get(1, 2) == F(1, 2) + F(1, 3)
        assert d.get(3, 4) == F(21)

    def test_two_leaf_tree(self):
        t = parse_newick("(1:0,2:5);")
        assert t.n == 2
        assert distance_matrix(t).get(1, 2) == F(5)

    def test_rooted_keeps_top_degree_two_node(self):
        t = parse_newick("((1:1,2:1):3,3:2);", rooted=True)
        assert t.root is not None
        assert t.degree(t.root) == 2
        unrooted = parse_newick("((1:1,2:1):3,3:2);")
        assert unrooted.root is None
        # suppression merges the two root edges into one of weight 5
        assert distance_matrix(unrooted).get(1, 3) == F(6)
        assert distance_matrix(t).get(1, 3) == F(6)

    @pytest.mark.parametrize(
        "text",
        [
            "(1:1,2:1",  # unbalanced
            "(1:1,2:1);x",  # trailing garbage
            "(1:1,2:1)",  # missing semicolon
            "(1:1,(2:1):1);",  # single-child group
            "(1:a,2:1);",  # bad number
            "(1:1,1:1);",  # duplicate label
            "(1:1,3:1);",  # labels must be 1..n
            "(1:-1,2:1);",  # negative branch length
            "",  # empty
            "(1:0,²:5);",  # a Unicode digit that int() refuses
            "(١:1,2:1);",  # a Unicode digit that int() reads as 1
            "(1:1," + "1" * 5000 + ":1);",  # more digits than int() converts
            "(1:1e999999999,2:1);",  # exponents beyond the digit limit
            "(1:1e-999999999,2:1);",
            "(1:1e5000,2:1);",
        ],
    )
    def test_malformed_input_rejected(self, text):
        with pytest.raises(NewickError):
            parse_newick(text)

    def test_label_gap_message_is_one_short_line(self):
        labels = [*range(1, 8000), 8001]
        with pytest.raises(NewickError) as exc:
            parse_newick("(" + ",".join(f"{i}:1" for i in labels) + ");")
        assert str(exc.value) == "leaf labels must be exactly 1..8000; 8000 is missing"
        assert len(str(exc.value)) < 100

    def test_error_carries_position(self):
        with pytest.raises(NewickError) as exc:
            parse_newick("(1:1,2:x);")
        assert exc.value.position == 7
        assert "position 7" in str(exc.value)

    def test_newick_error_is_tree_error(self):
        assert issubclass(NewickError, TreeError)

    @given(data=st.data(), rooted=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_text_gives_tree_or_newick_error(self, data, rooted):
        alphabet = "(),:;0123456789./+-eE²١ \t\n"
        if data.draw(st.booleans()):
            text = data.draw(st.text(alphabet, max_size=40))
        else:
            n = data.draw(st.integers(3, 8))
            text = serialize_newick(random_tree(n, seed=data.draw(st.integers(0, 99))))
            for _ in range(data.draw(st.integers(1, 3))):
                i = data.draw(st.integers(0, len(text)))
                j = data.draw(st.integers(i, min(len(text), i + 3)))
                text = text[:i] + data.draw(st.text(alphabet, max_size=3)) + text[j:]
        try:
            tree = parse_newick(text, rooted=rooted)
        except NewickError:
            return
        canonical = serialize_newick(tree)
        assert serialize_newick(parse_newick(canonical, rooted=rooted)) == canonical


class TestSerializeNewick:
    def test_canonical_form(self, quartet):
        assert serialize_newick(quartet) == CANONICAL_QUARTET

    def test_input_ordering_is_normalized(self):
        for text in [
            "(4:1,3:1,(2:1,1:1):1);",
            "((2:1,1:1):1,4:1,3:1);",
            "(3:1,(1:1,2:1):1,4:1);",
        ]:
            assert serialize_newick(parse_newick(text)) == CANONICAL_QUARTET

    def test_roundtrip_is_identity_on_canonical_text(self):
        for text in [CANONICAL_QUARTET, "(1:0,2:5);", "(1:1/3,2:2,3:7/2);"]:
            assert serialize_newick(parse_newick(text)) == text

    def test_rooted_tree_serializes_from_root(self):
        t = parse_newick("((1:1,2:1):3,3:2);", rooted=True)
        assert serialize_newick(t) == "((1:1,2:1):3,3:2);"

    def test_deep_caterpillar(self):
        # 1500 nested groups: deeper than any recursive walk can go
        tree = random_tree(1500, seed=0, shape="caterpillar")
        text = serialize_newick(tree)
        assert text.count("(") == 1498
        back = parse_newick(text)
        assert serialize_newick(back) == text
        assert same_tree(back, tree)


class TestWeightedTreeValidation:
    def test_asymmetric_adjacency_rejected(self):
        adj = {1: {2: F(1)}, 2: {}}
        with pytest.raises(TreeError):
            WeightedTree(2, adj)

    def test_negative_weight_rejected(self):
        adj = {1: {2: F(-1)}, 2: {1: F(-1)}}
        with pytest.raises(TreeError):
            WeightedTree(2, adj)

    def test_disconnected_rejected(self):
        adj = {
            1: {2: F(1)},
            2: {1: F(1)},
            3: {4: F(1)},
            4: {3: F(1)},
        }
        with pytest.raises(TreeError):
            WeightedTree(4, adj)

    def test_leaf_with_high_degree_rejected(self):
        adj = {
            1: {2: F(1), 3: F(1)},
            2: {1: F(1)},
            3: {1: F(1)},
        }
        with pytest.raises(TreeError):
            WeightedTree(3, adj)

    def test_total_weight(self, quartet):
        assert quartet.total_weight == F(5)


class TestSteinerWeight:
    def test_pair_is_distance(self, quartet, quartet_dm):
        for i, j in combinations(range(1, 5), 2):
            assert steiner_weight(quartet, (i, j)) == quartet_dm.get(i, j)

    def test_triple_spans_cherry_and_stem(self, quartet):
        assert steiner_weight(quartet, (1, 2, 3)) == F(4)
        assert steiner_weight(quartet, (1, 3, 4)) == F(4)

    def test_full_leaf_set_is_total_weight(self, quartet):
        assert steiner_weight(quartet, (1, 2, 3, 4)) == F(5)
        deep = random_tree(1500, seed=0, shape="caterpillar")
        assert steiner_weight(deep, range(1, 1501)) == deep.total_weight

    def test_singleton_rejected(self, quartet):
        with pytest.raises(ValueError):
            steiner_weight(quartet, (1,))


class TestContractSubtree:
    def test_cherry_contraction(self, quartet):
        tree, weight = contract_subtree(quartet, [1, 2])
        assert weight == F(2)
        assert serialize_newick(tree) == "(1:1,2:1,3:1);"

    def test_label_map_covers_kept_leaves(self, quartet):
        c = contract_subtree(quartet, [1, 2])
        assert c.label_map == {3: 1, 4: 2}
        assert c.new_label == 3

    def test_singleton_contraction_keeps_metric(self, quartet):
        c = contract_subtree(quartet, [3])
        assert c.weight == F(0)
        # old leaf 3 becomes the marked leaf 4, other labels shift down
        d = distance_matrix(c.tree)
        assert d.get(1, 2) == F(2)
        assert d.get(1, 4) == F(3)

    def test_contraction_identity(self, quartet, quartet_dm):
        # steiner(R + {i,j}) = steiner'(R' + {i',j'}) + steiner(R)
        c = contract_subtree(quartet, [1, 2])
        d_contracted = distance_matrix(c.tree)
        base = steiner_weight(quartet, (1, 2))
        for i, j in [(3, 4)]:
            lhs = steiner_weight(quartet, (1, 2, i, j))
            rhs = (
                steiner_weight(c.tree, (c.new_label, c.label_map[i], c.label_map[j]))
                + base
            )
            assert lhs == rhs
        for i in (3, 4):
            lhs = steiner_weight(quartet, (1, 2, i))
            rhs = d_contracted.get(c.new_label, c.label_map[i]) + base
            assert lhs == rhs

    def test_near_full_contraction(self, quartet):
        tree, weight = contract_subtree(quartet, [1, 2, 3])
        assert weight == F(4)
        assert tree.n == 2

    def test_full_leaf_set_rejected(self, quartet):
        with pytest.raises(ValueError):
            contract_subtree(quartet, [1, 2, 3, 4])


class TestRandomTree:
    def test_binary_with_positive_weights(self):
        t = random_tree(8, seed=5)
        assert t.n == 8
        assert len(t.nodes) == 2 * 8 - 2
        assert t.has_strictly_positive_weights
        degrees = sorted(t.degree(v) for v in t.nodes)
        assert degrees == [1] * 8 + [3] * 6

    def test_deterministic_per_seed(self):
        a = random_tree(6, seed=42)
        b = random_tree(6, seed=42)
        assert serialize_newick(a) == serialize_newick(b)
        c = random_tree(6, seed=43)
        assert serialize_newick(a) != serialize_newick(c)

    def test_caterpillar_shape(self):
        t = random_tree(6, seed=4, shape="caterpillar")
        internal = [v for v in t.nodes if t.degree(v) == 3]
        # backbone: internal nodes form a path
        ends = [v for v in internal if sum(1 for u in t.adj[v] if u in internal) == 1]
        assert len(ends) == 2

    def test_custom_weight_sampler(self):
        t = random_tree(5, seed=0, weight_sampler=lambda rng: F(1))
        assert all(w == F(1) for _, _, w in t.edges())

    def test_too_small_rejected(self):
        with pytest.raises(TreeError):
            random_tree(2, seed=0)

    @pytest.mark.parametrize(
        "shape,n,seed,newick",
        [
            ("uniform-topology", 5, 1, "(1:1,(2:1,3:15/4):16,(4:21/4,5:7):13/4);"),
            (
                "uniform-topology",
                8,
                7,
                "(1:18,(((2:12,(4:2,6:3/2):1):5/2,8:2):1,(3:17/2,5:7/2):8):19/4,7:3/4);",
            ),
            ("caterpillar", 5, 1, "(1:5,2:9,(3:4,(4:4,5:7):13/4):16);"),
            (
                "caterpillar",
                8,
                7,
                "(1:11/2,2:13,(3:3,(4:12,(5:17/2,(6:2,(7:7/2,8:3/2):1):19/4):8):2):3/4);",
            ),
        ],
    )
    def test_golden_trees(self, shape, n, seed, newick):
        # every seeded corpus depends on these exact trees: topology draws
        # first, then one weight per edge in sorted edge order
        assert serialize_newick(random_tree(n, seed, shape=shape)) == newick


class TestEnumerateTopologies:
    @pytest.mark.parametrize("n,count", [(3, 1), (4, 3), (5, 15), (6, 105)])
    def test_double_factorial_counts(self, n, count):
        assert sum(1 for _ in enumerate_topologies(n)) == count

    def test_unit_weights_distinct_shapes(self):
        seen = set()
        for t in enumerate_topologies(5):
            assert all(w == F(1) for _, _, w in t.edges())
            seen.add(serialize_newick(t))
        assert len(seen) == 15

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            list(enumerate_topologies(9))
        # the cap itself is admitted: (2*8-5)!! = 10395
        assert sum(1 for _ in enumerate_topologies(8)) == 10395

    def test_golden_order(self):
        first = [serialize_newick(t) for _, t in zip(range(4), enumerate_topologies(5))]
        assert first == [
            "(1:1,((2:1,5:1):1,3:1):1,4:1);",
            "(1:1,(2:1,(3:1,5:1):1):1,4:1);",
            "(1:1,((2:1,3:1):1,4:1):1,5:1);",
            "(1:1,((2:1,3:1):1,5:1):1,4:1);",
        ]

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_topologies(2))


def _matrix(n, entry):
    return DistanceMatrix(n, {(i, j): F(entry(i, j)) for i, j in combinations(range(1, n + 1), 2)})


class TestBuildEquidistant:
    @pytest.mark.parametrize(
        "d,newick",
        [
            (_matrix(3, lambda i, j: 2 if j == 2 else 4), "((1:1,2:1):1,3:2);"),
            (_matrix(2, lambda i, j: 3), "(1:3/2,2:3/2);"),
            (_matrix(4, lambda i, j: 0), "(1:0,2:0,3:0,4:0);"),
            (_matrix(4, lambda i, j: {(1, 2): 0, (1, 3): 2, (2, 3): 2}.get((i, j), 4)),
             "(((1:0,2:0):1,3:1):1,4:2);"),
            (_matrix(5, lambda i, j: 2 if (i, j) in [(1, 2), (3, 4)] else 6),
             "((1:1,2:1):2,(3:1,4:1):2,5:3);"),
            (_matrix(5, lambda i, j: 2 * (j - 1)), "((((1:1,2:1):1,3:2):1,4:3):1,5:4);"),
        ],
        ids=["cherry", "two-leaves", "all-zero", "zero-pair", "three-way-top", "caterpillar"],
    )
    def test_cherry_example(self, d, newick):
        t = build_equidistant(d)
        assert serialize_newick(t) == newick
        assert t.root is not None
        assert distance_matrix(t) == d

    def test_star_from_equilateral(self, ones5):
        d = ones5.restrict([1, 2, 3, 4])
        t = build_equidistant(d)
        assert serialize_newick(t) == "(1:1/2,2:1/2,3:1/2,4:1/2);"

    def test_root_is_equidistant_from_leaves(self):
        d = DistanceMatrix(
            4,
            {
                (1, 2): F(2),
                (1, 3): F(6),
                (1, 4): F(6),
                (2, 3): F(6),
                (2, 4): F(6),
                (3, 4): F(4),
            },
        )
        t = build_equidistant(d)
        assert distance_matrix(t) == d
        # every leaf sits at height max/2 = 3 below the root
        dist = {t.root: F(0)}
        stack = [t.root]
        while stack:
            u = stack.pop()
            for v, w in t.adj[u].items():
                if v not in dist:
                    dist[v] = dist[u] + w
                    stack.append(v)
        assert {dist[leaf] for leaf in range(1, 5)} == {F(3)}

    def test_violation_carries_verdict(self):
        d = DistanceMatrix(3, {(1, 2): F(1), (1, 3): F(2), (2, 3): F(3)})
        with pytest.raises(UltrametricViolation) as exc:
            build_equidistant(d)
        assert exc.value.verdict.witness == (1, 2, 3)


class TestReconstructTree:
    def test_quartet_roundtrip(self, quartet, quartet_dm):
        assert same_tree(reconstruct_tree(quartet_dm), quartet)

    def test_two_points(self):
        d = DistanceMatrix(2, {(1, 2): F(7, 2)})
        t = reconstruct_tree(d)
        assert distance_matrix(t) == d

    def test_star_multifurcation(self, ones5):
        t = reconstruct_tree(ones5)
        assert serialize_newick(t) == "(1:1/2,2:1/2,3:1/2,4:1/2,5:1/2);"

    def test_zero_internal_edge_contracted(self):
        collapsed = parse_newick("(1:1,2:1,3:1,4:1);")
        spanned = parse_newick("((1:1,2:1):0,3:1,4:1);")
        assert same_tree(collapsed, spanned)
        assert same_tree(reconstruct_tree(distance_matrix(spanned)), collapsed)
        # a caterpillar whose internal edges are all zero is a star
        n = 1600
        cat = random_tree(n, seed=1, shape="caterpillar")
        zeroed = {u: {v: F(0) if min(u, v) > n else w for v, w in nbrs.items()} for u, nbrs in cat.adj.items()}
        pendant = {i: next(iter(cat.adj[i].values())) for i in range(1, n + 1)}
        star = {i: {n + 1: w} for i, w in pendant.items()}
        star[n + 1] = pendant
        assert same_tree(WeightedTree(n, zeroed), WeightedTree(n, star))

    def test_failure_carries_verdict(self, bumped5):
        with pytest.raises(FourPointViolation) as exc:
            reconstruct_tree(bumped5)
        assert exc.value.verdict.witness == (1, 2, 4, 5)

    def test_distinct_labelled_shapes_differ(self, quartet):
        other = parse_newick("((1:1,3:1):1,2:1,4:1);")
        assert not same_tree(quartet, other)


def test_tree_metrics_are_accepted_without_the_four_point_scan(monkeypatch):
    def no_scan(D, strict=False):
        raise AssertionError("four-point scan ran on a tree metric")

    monkeypatch.setattr("treedissim.trees.four_point_check", no_scan)
    two = DistanceMatrix(2, {(1, 2): F(5, 3)})
    assert distance_matrix(reconstruct_tree(two)) == two
    for n in range(3, 13):
        for shape in ("uniform-topology", "caterpillar"):
            t = random_tree(n, seed=n, shape=shape)
            assert same_tree(reconstruct_tree(distance_matrix(t)), t)
            # leaf n at distance 2E from the rest: ultrametric on 1..n-1
            D = distance_matrix(t)
            E = max(D.get(i, n) for i in range(1, n))
            U = reroot_ultrametric(D, E).restrict(range(1, n))
            assert distance_matrix(build_equidistant(U)) == U


@st.composite
def _matrices(draw):
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["tree", "bumped", "arbitrary", "negative-pendant"]))
    if kind == "arbitrary" or n == 2:
        value = st.fractions(-3, 9, max_denominator=3)
        return DistanceMatrix(n, {p: draw(value) for p in combinations(range(1, n + 1), 2)})
    shape = draw(st.sampled_from(["uniform-topology", "caterpillar"]))
    t = random_tree(n, seed=draw(st.integers(0, 10**6)), shape=shape)
    D = distance_matrix(t)
    if kind == "tree":
        return D
    entries = dict(D.entries)
    if kind == "bumped":
        pair = draw(st.sampled_from(sorted(entries)))
        entries[pair] += draw(st.sampled_from([F(-1), F(-1, 2), F(1, 2), F(3)]))
    else:  # move leaf's pendant weight from w to -w
        leaf = draw(st.integers(1, n))
        w = next(iter(t.adj[leaf].values()))
        for pair in entries:
            if leaf in pair:
                entries[pair] -= 2 * w
    return DistanceMatrix(n, entries)


@given(D=_matrices())
@settings(max_examples=150, deadline=None)
def test_reconstruct_agrees_with_the_four_point_scan(D):
    reference = four_point_check(D, strict=False)
    try:
        tree = reconstruct_tree(D)
    except FourPointViolation as exc:
        assert exc.verdict == reference
    else:
        assert reference
        assert distance_matrix(tree) == D


@given(n=st.integers(3, 8), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_reconstruct_inverts_distance_matrix(n, seed):
    t = random_tree(n, seed=seed)
    assert same_tree(reconstruct_tree(distance_matrix(t)), t)


@given(data=st.data(), n=st.integers(3, 8), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_same_tree_ignores_degree_two_dangling_and_zero_edges(data, n, seed):
    clean = random_tree(n, seed=seed)
    adj = {u: dict(nbrs) for u, nbrs in clean.adj.items()}
    for _ in range(data.draw(st.integers(1, 6))):
        kind = data.draw(st.sampled_from(["subdivide", "dangle", "split"]))
        new = max(adj) + 1
        if kind == "split":  # move some of u's neighbors to a new node joined to u by a zero edge
            u = data.draw(st.sampled_from(sorted(x for x in adj if x > n)))
            adj[new] = {}
            for x in data.draw(st.lists(st.sampled_from(sorted(adj[u])), unique=True)):
                adj[new][x] = adj[x][new] = adj[u].pop(x)
                del adj[x][u]
            adj[u][new] = adj[new][u] = F(0)
            continue
        # a degree-2 node, possibly at one end of the edge
        u, v = data.draw(st.sampled_from(sorted((u, v) for u in adj for v in adj[u] if u < v)))
        w = adj[u].pop(v)
        del adj[v][u]
        part = w * data.draw(st.sampled_from([F(0), F(1, 2), F(1)]))
        adj[new] = {u: part, v: w - part}
        adj[u][new], adj[v][new] = part, w - part
        if kind == "dangle":  # with an unlabeled leaf hanging from it
            w = data.draw(st.sampled_from([F(0), F(1, 2), F(2)]))
            adj[new][new + 1] = w
            adj[new + 1] = {new: w}
    messy = WeightedTree(n, {u: adj[u] for u in data.draw(st.permutations(list(adj)))})
    assert same_tree(messy, clean)
    assert serialize_newick(reconstruct_tree(distance_matrix(messy))) == serialize_newick(clean)


@given(n=st.integers(3, 8), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_newick_roundtrip_preserves_tree(n, seed):
    t = random_tree(n, seed=seed)
    text = serialize_newick(t)
    assert serialize_newick(parse_newick(text)) == text
    assert same_tree(parse_newick(text), t)


@given(n=st.integers(4, 8), seed=st.integers(0, 10**6), m=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_contraction_identity_random(n, seed, m):
    t = random_tree(n, seed=seed)
    r = tuple(range(1, m + 1))
    if len(r) >= n:
        return
    c = contract_subtree(t, r)
    base = steiner_weight(t, r)
    kept = [x for x in range(1, n + 1) if x not in r]
    for i, j in combinations(kept, 2):
        lhs = steiner_weight(t, r + (i, j))
        rhs = steiner_weight(c.tree, (c.new_label, c.label_map[i], c.label_map[j])) + base
        assert lhs == rhs
