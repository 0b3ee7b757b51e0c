"""Puiseux polynomials, 3x3 determinants and valuation certificates."""

import dataclasses
import hashlib
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedissim import (
    CertificateError,
    DissimTensor,
    PuiseuxPoly,
    ValuationCertificate,
    Verdict,
    WeightedTree,
    build_certificate,
    build_equidistant,
    det3,
    dissimilarity_map,
    distance_matrix,
    parse_newick,
    puiseux,
    random_tree,
    serialize_newick,
    triple_dissimilarity,
    verify_certificate,
)
from treedissim.dissim import reroot_ultrametric

F = Fraction

P = PuiseuxPoly.from_terms
MONO = PuiseuxPoly.monomial


class TestPuiseuxPoly:
    def test_from_terms_sorts_and_merges(self):
        p = P([(F(2), F(1)), (F(0), F(3)), (F(2), F(4))])
        assert p.terms == ((F(0), F(3)), (F(2), F(5)))

    def test_from_terms_drops_cancellations(self):
        assert P([(F(1), F(2)), (F(1), F(-2))]) == PuiseuxPoly.zero()

    def test_constructor_validates_order(self):
        with pytest.raises(ValueError):
            PuiseuxPoly(((F(2), F(1)), (F(1), F(1))))
        with pytest.raises(ValueError):
            PuiseuxPoly(((F(1), F(0)),))

    def test_add_and_sub(self):
        a = P([(F(0), F(1)), (F(1), F(1))])  # 1 + t
        b = P([(F(0), F(1)), (F(1), F(-1))])  # 1 - t
        assert a + b == P([(F(0), F(2))])
        assert a - a == PuiseuxPoly.zero()

    def test_mul_difference_of_squares(self):
        a = P([(F(0), F(1)), (F(1), F(1))])
        b = P([(F(0), F(1)), (F(1), F(-1))])
        assert a * b == P([(F(0), F(1)), (F(2), F(-1))])

    def test_val_and_deg(self):
        p = P([(F(-1, 2), F(3)), (F(2), F(1))])
        assert p.val() == F(-1, 2)
        assert p.deg() == F(2)

    def test_zero_conventions(self):
        z = PuiseuxPoly.zero()
        assert z.is_zero
        assert z.val() == math.inf
        assert z.deg() == -math.inf

    def test_substitute_power(self):
        p = P([(F(2), F(5)), (F(4), F(1))])
        q = p.substitute_power(F(-1, 2))
        assert q == P([(F(-2), F(1)), (F(-1), F(5))])

    def test_substitute_zero_rejected(self):
        with pytest.raises(ValueError):
            MONO(1, 1).substitute_power(0)

    def test_str_formatting(self):
        p = P([(F(-1, 2), F(-1)), (F(0), F(3)), (F(2), F(1, 2))])
        assert str(p) == "-t^(-1/2) + 3 + 1/2*t^2"
        assert str(PuiseuxPoly.zero()) == "0"

    def test_json_roundtrip(self):
        p = P([(F(-3, 2), F(2, 7)), (F(0), F(-1))])
        assert PuiseuxPoly.from_json_obj(p.to_json_obj()) == p


class TestDet3:
    def test_diagonal(self):
        rows = [
            [MONO(1, 0), PuiseuxPoly.zero(), PuiseuxPoly.zero()],
            [PuiseuxPoly.zero(), MONO(1, 1), PuiseuxPoly.zero()],
            [PuiseuxPoly.zero(), PuiseuxPoly.zero(), MONO(1, 2)],
        ]
        assert det3(rows) == MONO(1, 3)

    def test_repeated_columns_vanish(self):
        col = [MONO(1, 0), MONO(2, 1), MONO(1, 3)]
        rows = [[col[r], col[r], MONO(1, r)] for r in range(3)]
        assert det3(rows).is_zero

    def test_vandermonde_structure(self):
        # rows (1, 1, 1), (x1, x2, x3), (x1^2, x2^2, x3^2) with xi = i*t:
        # det = (x2-x1)(x3-x1)(x3-x2) = (t)(2t)(t) = 2 t^3
        xs = [MONO(i, 1) for i in (1, 2, 3)]
        one = PuiseuxPoly.constant(1)
        rows = [[one, one, one], xs, [x * x for x in xs]]
        assert det3(rows) == MONO(2, 3)

    def test_scalars_are_coerced(self):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, MONO(3, 0)]]
        assert det3(rows) == PuiseuxPoly.constant(3)


class TestBuildCertificate:
    def test_quartet_certificate_fields(self, quartet):
        cert = build_certificate(quartet)
        assert cert.n == 4
        assert cert.e_value == F(3)
        assert cert.newick == "(1:1,2:1,(3:1,4:1):1);"
        assert cert.edge_labels == (((1, 2), 1), ((1,), 2), ((2,), 3), ((3,), 4))
        assert [str(x) for x in cert.x_series] == [
            "2*t^2 + t^4",
            "3*t^2 + t^4",
            "4*t^4",
            "t^6",
        ]

    def test_quartet_degree_identity(self, quartet):
        assert_matches_equidistant_oracle(quartet)

    def test_quartet_verifies(self, quartet, quartet_dm):
        cert = build_certificate(quartet)
        assert verify_certificate(cert, triple_dissimilarity(quartet_dm))

    def test_minor_valuations_match_entries(self, quartet, quartet_dm):
        cert = build_certificate(quartet)
        w = triple_dissimilarity(quartet_dm)
        for triple in combinations(range(1, 5), 3):
            minor = cert.minor(*triple)
            assert -det3(minor).val() == w.entries[triple]

    def test_triangle_tree(self):
        t = parse_newick("(1:1,2:2,3:3);")
        cert = build_certificate(t)
        assert verify_certificate(cert, triple_dissimilarity(distance_matrix(t)))

    def test_explicit_labels_used_verbatim(self, quartet, quartet_dm):
        cert = build_certificate(quartet, label_values=[7, 5, 9, 2])
        assert cert.edge_labels == (((1, 2), 7), ((1,), 5), ((2,), 9), ((3,), 2))
        assert verify_certificate(cert, triple_dissimilarity(quartet_dm))

    def test_zero_weight_edge_rejected(self):
        t = parse_newick("((1:1,2:1):0,3:1,4:1);")
        with pytest.raises(CertificateError):
            build_certificate(t)

    def test_two_leaves_rejected(self):
        with pytest.raises(CertificateError):
            build_certificate(parse_newick("(1:0,2:5);"))


def preorder_clusters(clusters):
    """Laminar leaf clusters in preorder, children by smallest leaf: sort
    on the smallest leaves of the chain of enclosing clusters."""

    def key(c):
        chain = sorted((a for a in clusters if set(c) < set(a)), key=len, reverse=True)
        return [min(a) for a in chain] + [min(c)]

    return sorted(clusters, key=key)


def equidistant_clusters(eq):
    """The leaf cluster below every non-root node of a rooted tree."""
    parent = {eq.root: None}
    queue = [eq.root]
    for u in queue:
        for v in eq.adj[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    below = {}
    for leaf in range(1, eq.n + 1):
        v = leaf
        while v != eq.root:
            below.setdefault(v, []).append(leaf)
            v = parent[v]
    return [tuple(c) for c in below.values()]


def assert_matches_equidistant_oracle(tree):
    """The certificate agrees with the construction through the rerooted
    ultrametric: deg(x_j - x_i) is its entry, and the edge clusters are
    those of its equidistant tree, in preorder."""
    n = tree.n
    D = distance_matrix(tree)
    cert = build_certificate(tree)
    shifted = reroot_ultrametric(D, cert.e_value)
    xs = cert.x_series
    for i, j in combinations(range(1, n + 1), 2):
        assert (xs[j - 1] - xs[i - 1]).deg() == shifted.get(i, j)
    eq = build_equidistant(shifted.restrict(range(1, n)))
    assert [c for c, _ in cert.edge_labels] == preorder_clusters(equidistant_clusters(eq))
    assert verify_certificate(cert, triple_dissimilarity(D))


def subdivide(adj, edge, fraction):
    """Put a new node on ``edge``, ``fraction`` of its weight from edge[0]."""
    u, v = edge
    w = adj[u].pop(v)
    del adj[v][u]
    mid = max(adj) + 1
    adj[mid] = {u: w * fraction, v: w - w * fraction}
    adj[u][mid] = w * fraction
    adj[v][mid] = w - w * fraction
    return mid


@st.composite
def certified_trees(draw):
    """Positively weighted trees in both shapes, optionally read back as a
    rooted parse with a degree-2 root, with subdivided edges and dangling
    unlabeled nodes added."""
    n = draw(st.integers(3, 9))
    shape = draw(st.sampled_from(["uniform-topology", "caterpillar"]))
    tree = random_tree(n, seed=draw(st.integers(0, 10**6)), shape=shape)
    fractions = st.sampled_from([F(1, 3), F(1, 2), F(3, 4)])

    def edges(adj):
        return sorted((u, v) for u in adj for v in adj[u] if u < v)

    adj = {u: dict(nbrs) for u, nbrs in tree.adj.items()}
    root = None
    if draw(st.booleans()):
        root = subdivide(adj, draw(st.sampled_from(edges(adj))), draw(fractions))
        tree = parse_newick(serialize_newick(WeightedTree(n, adj, root)), rooted=True)
        adj, root = tree.adj, tree.root
    for _ in range(draw(st.integers(0, 3))):
        subdivide(adj, draw(st.sampled_from(edges(adj))), draw(fractions))
    for _ in range(draw(st.integers(0, 2))):
        u = draw(st.sampled_from(sorted(x for x in adj if x > n)))
        v = max(adj) + 1
        adj[u][v] = F(1)
        adj[v] = {u: F(1)}
    return WeightedTree(n, adj, root)


@given(tree=certified_trees())
@settings(max_examples=60, deadline=None)
def test_build_matches_equidistant_oracle(tree):
    assert_matches_equidistant_oracle(tree)


@pytest.mark.parametrize("n", range(3, 10))
def test_build_runs_no_metric_scan(monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("metric scan while building a certificate")

    monkeypatch.setattr("treedissim.dissim.four_point_check", refuse)
    monkeypatch.setattr("treedissim.trees.is_ultrametric", refuse)
    for seed in range(3):
        t = random_tree(n, seed=seed, shape="caterpillar" if seed == 2 else "uniform-topology")
        assert verify_certificate(build_certificate(t), triple_dissimilarity(distance_matrix(t)))


@pytest.mark.parametrize("shape", ["uniform-topology", "caterpillar"])
def test_build_subtracts_no_series(monkeypatch, shape):
    # the degree identity is read off the sibling labels, not checked by
    # subtracting leaf series; verification still subtracts
    real_sub = PuiseuxPoly.__sub__

    def refuse(self, other):
        raise AssertionError("series subtracted while building a certificate")

    for n in range(3, 10):
        t = random_tree(n, seed=n, shape=shape)
        monkeypatch.setattr(PuiseuxPoly, "__sub__", refuse)
        cert = build_certificate(t)
        monkeypatch.setattr(PuiseuxPoly, "__sub__", real_sub)
        assert verify_certificate(cert, triple_dissimilarity(distance_matrix(t)))


@pytest.mark.parametrize(
    "tree,digest",
    [
        (
            parse_newick("((1:1,2:2):1,(3:1,(4:2,5:1):3):2);", rooted=True),
            "849667011143fa7dd3718f0e3565adec861355820161a4ee3ebcb1e17ba29715",
        ),
        (
            parse_newick("(1:1,2:2,3:3,(4:1,5:1,6:2):1/2,7:5/3);"),
            "6214f1f84d08c7af8f89c00609e3e4da5994aea6205cd0a1a9a985edab479ea3",
        ),
        (
            # node 7 and its own leaf 8 dangle from node 6
            WeightedTree(4, {1: {5: 1}, 2: {5: 2}, 3: {6: 1}, 4: {6: F(3, 2)}, 5: {1: 1, 2: 2, 6: 1},
                             6: {5: 1, 3: 1, 4: F(3, 2), 7: 3}, 7: {6: 3, 8: F(1, 2)}, 8: {7: F(1, 2)}}),
            "5173c57b0f42d1616d6acc5006f7407ec0505a536c233dfa689443e62e43043a",
        ),
        (
            random_tree(8, seed=3, shape="caterpillar"),
            "30ad9e96451344b0982da433470f4374eb1d50bea5e5bf7aa5ecfcb27a1e7ea3",
        ),
    ],
    ids=["rooted-degree2-root", "multifurcation", "dangling-node", "caterpillar"],
)
def test_golden_certificates(tree, digest):
    assert hashlib.sha256(build_certificate(tree).to_json().encode()).hexdigest() == digest


class TestVerifyCertificate:
    def test_wrong_tensor_rejected_with_witness(self, quartet, quartet_dm):
        cert = build_certificate(quartet)
        w = triple_dissimilarity(quartet_dm)
        entries = {k: v + 1 for k, v in w.entries.items()}
        verdict = verify_certificate(cert, type(w)(4, 3, entries))
        assert not verdict
        assert verdict.witness == (1, 2, 3)
        assert verdict.values == (F(4), F(5))

    def test_dimension_mismatch_rejected(self, quartet, ones5):
        cert = build_certificate(quartet)
        with pytest.raises(ValueError):
            verify_certificate(cert, triple_dissimilarity(ones5))

    def test_colliding_sibling_labels_break_verification(self, quartet, quartet_dm):
        # colliding labels cancel leading terms and drop the rank of the
        # minors; the build rejects them, so take the extreme case by hand:
        # column 2 a copy of column 1 makes every minor through both vanish
        cert = build_certificate(quartet)
        bad = dataclasses.replace(cert, matrix=tuple(row[:1] + row[:1] + row[2:] for row in cert.matrix))
        verdict = verify_certificate(bad, triple_dissimilarity(quartet_dm))
        assert not verdict
        assert verdict.witness == (1, 2, 3)
        assert verdict.values[0] == -math.inf

    def test_collision_caught_at_build_time_for_explicit_labels(self, quartet):
        with pytest.raises(CertificateError):
            build_certificate(quartet, label_values=[1, 2, 2, 4])

    @pytest.mark.parametrize(
        "labels,message",
        [
            # equal labels on edges that are not siblings never meet in one difference
            ([1, 1, 2, 2], None),
            ([1, 2, 1, 2], None),
            ([1, 2, 2, 4], r"^edge label 2 is on two sibling edges: x_2 - x_1 drops its leading term$"),
            ([3, 1, 2, 3], r"^edge label 3 is on two sibling edges: x_3 - x_1 drops its leading term$"),
        ],
        ids=["1122", "1212", "1224", "3123"],
    )
    def test_only_sibling_labels_must_differ(self, quartet, quartet_dm, labels, message):
        if message is None:
            cert = build_certificate(quartet, label_values=labels)
            assert verify_certificate(cert, triple_dissimilarity(quartet_dm))
        else:
            with pytest.raises(CertificateError, match=message):
                build_certificate(quartet, label_values=labels)

    def test_single_zeroed_label_still_verifies(self, quartet, quartet_dm):
        # dropping one edge term entirely cannot cancel the other root
        # path's leading term, so the valuations survive
        cert = build_certificate(quartet, label_values=[1, 2, 3, 0])
        assert str(cert.x_series[2]) == "0"
        assert verify_certificate(cert, triple_dissimilarity(quartet_dm))


def reference_verdict(cert, W):
    """The generic check: one det3 expansion per triple, in lex order."""
    for triple in combinations(range(1, cert.n + 1), 3):
        got = -det3(cert.minor(*triple)).val()
        want = W.entries[triple]
        if got != want:
            return Verdict(False, witness=triple, values=(got, want))
    return Verdict(True)


def with_column(cert, col, entries):
    """``cert`` with column ``col`` (1-based) replaced by three entries."""
    return dataclasses.replace(
        cert,
        matrix=tuple(row[: col - 1] + (entries[r],) + row[col:] for r, row in enumerate(cert.matrix)),
    )


class TestFactorizedVerification:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_built_certificates_need_no_det3(self, monkeypatch, n):
        def refuse(rows):
            raise AssertionError("det3 called on a well-formed certificate")

        monkeypatch.setattr(puiseux, "det3", refuse)
        for seed in range(3):
            t = random_tree(n, seed=seed)
            assert verify_certificate(build_certificate(t), triple_dissimilarity(distance_matrix(t)))

    @pytest.mark.parametrize(
        "change",
        [
            # row 0 is not a single term
            lambda s, sy, syy: (s + MONO(1, 5), sy, syy),
            # row 2 is not s*y^2
            lambda s, sy, syy: (s, sy, syy + MONO(3, 7)),
            # an all-zero column
            lambda s, sy, syy: (PuiseuxPoly.zero(),) * 3,
        ],
        ids=["two-term-row0", "row2-not-s-y2", "zero-column"],
    )
    @pytest.mark.parametrize("col", [1, 3])
    def test_malformed_column_falls_back_to_det3(self, monkeypatch, quartet, quartet_dm, change, col):
        cert = build_certificate(quartet)
        bad = with_column(cert, col, change(*(row[col - 1] for row in cert.matrix)))
        W = triple_dissimilarity(quartet_dm)
        expected = reference_verdict(bad, W)
        calls = []
        monkeypatch.setattr(puiseux, "det3", lambda rows: calls.append(rows) or det3(rows))
        assert verify_certificate(bad, W) == expected
        assert calls


@given(data=st.data(), n=st.integers(3, 8), seed=st.integers(0, 10**6), labels=st.booleans())
@settings(max_examples=40, deadline=None)
def test_verify_matches_det3_reference(data, n, seed, labels):
    t = random_tree(n, seed=seed)
    W = triple_dissimilarity(distance_matrix(t))
    cert = build_certificate(t)
    if labels:
        # distinct labels, one of them zero, never cancel a leading term
        cert = build_certificate(t, label_values=data.draw(st.permutations(range(len(cert.edge_labels)))))
    if data.draw(st.booleans()):
        triple = data.draw(st.sampled_from(sorted(W.entries)))
        bump = data.draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
        W = DissimTensor(n, 3, {**W.entries, triple: W.entries[triple] + bump})
    assert verify_certificate(cert, W) == reference_verdict(cert, W)


class TestCertificateJson:
    def test_roundtrip_preserves_certificate(self, quartet, quartet_dm):
        cert = build_certificate(quartet)
        back = ValuationCertificate.from_json(cert.to_json())
        assert back == cert
        assert verify_certificate(back, triple_dissimilarity(quartet_dm))

    def test_hash_tracks_newick(self, quartet):
        cert = build_certificate(quartet)
        other = build_certificate(random_tree(4, seed=1))
        assert cert.tree_hash != other.tree_hash


@given(n=st.integers(3, 7), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_certificates_verify_for_random_trees(n, seed):
    t = random_tree(n, seed=seed)
    w = triple_dissimilarity(distance_matrix(t))
    assert verify_certificate(build_certificate(t), w)


@given(n=st.integers(3, 6), seed=st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_certificate_rejects_other_trees_tensor(n, seed):
    a = random_tree(n, seed=seed)
    b = random_tree(n, seed=seed + 1)
    wa = triple_dissimilarity(distance_matrix(a))
    wb = triple_dissimilarity(distance_matrix(b))
    cert = build_certificate(a)
    if wa.entries == wb.entries:
        assert verify_certificate(cert, wb)
    else:
        assert not verify_certificate(cert, wb)
