"""Dissimilarity tensors: the tour formula, inversion, membership,
rerooting and the pairing coordinates."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedissim import (
    DissimTensor,
    DistanceMatrix,
    InversionError,
    PairingPoint,
    dissimilarity_map,
    distance_matrix,
    four_point_check,
    invert_triple_dissimilarity,
    is_ultrametric,
    max_twice,
    pairing_agreement,
    pairing_map,
    project_pairings,
    random_tree,
    reroot_ultrametric,
    same_tree,
    steiner_weight,
    subset_cherries,
    subset_dissimilarity,
    three_term_plucker_check,
    tour_minimizers,
    triple_dissimilarity,
    triple_membership,
    verify_m4_characterization,
)
from treedissim.dissim import _invert3_elimination

F = Fraction


def symmetric_matrix(n, rng):
    entries = {
        p: F(rng.randint(-12, 24), rng.randint(1, 4))
        for p in combinations(range(1, n + 1), 2)
    }
    return DistanceMatrix(n, entries)


class TestDissimTensor:
    def test_repeated_indices_value_zero(self, ones5):
        w = triple_dissimilarity(ones5)
        assert w.value((1, 1, 2)) == F(0)

    def test_wrong_arity_rejected(self, ones5):
        w = triple_dissimilarity(ones5)
        with pytest.raises(ValueError):
            w.value((1, 2))

    def test_incomplete_entries_rejected(self):
        with pytest.raises(ValueError):
            DissimTensor(4, 3, {(1, 2, 3): F(1)})


class TestSubsetDissimilarity:
    def test_quartet_triples(self, quartet_dm):
        for sub in combinations(range(1, 5), 3):
            assert subset_dissimilarity(quartet_dm, sub) == F(4)

    def test_quartet_full(self, quartet_dm):
        assert subset_dissimilarity(quartet_dm, (1, 2, 3, 4)) == F(5)

    def test_pairs_reduce_to_distance(self, quartet_dm):
        assert subset_dissimilarity(quartet_dm, (1, 3)) == F(3)

    def test_matches_steiner_weight(self):
        for seed in range(6):
            t = random_tree(7, seed=seed)
            d = distance_matrix(t)
            for m in range(2, 8):
                for sub in combinations(range(1, 8), m):
                    assert subset_dissimilarity(d, sub) == steiner_weight(t, sub)

    def test_methods_agree_on_arbitrary_matrices(self):
        import random

        for seed in range(8):
            rng = random.Random(seed)
            d = symmetric_matrix(8, rng)
            for m in (3, 5, 8):
                for sub in combinations(range(1, 9), m):
                    brute = subset_dissimilarity(d, sub, method="tours")
                    dp = subset_dissimilarity(d, sub, method="dp")
                    assert brute == dp

    def test_repeated_subset_rejected(self, quartet_dm):
        with pytest.raises(ValueError):
            subset_dissimilarity(quartet_dm, (1, 1, 2))

    def test_unknown_method_rejected(self, quartet_dm):
        with pytest.raises(ValueError):
            subset_dissimilarity(quartet_dm, (1, 2, 3), method="magic")
        # m=2 reads the entry without a tour, but the method is still checked
        with pytest.raises(ValueError):
            subset_dissimilarity(quartet_dm, (1, 2), method="bogus")
        with pytest.raises(ValueError):
            dissimilarity_map(quartet_dm, 2, method="bogus")

    def test_map_bounds(self, quartet_dm):
        with pytest.raises(ValueError):
            dissimilarity_map(quartet_dm, 1)
        with pytest.raises(ValueError):
            dissimilarity_map(quartet_dm, 5)

    def test_map_m_equals_n(self, quartet_dm):
        w = dissimilarity_map(quartet_dm, 4)
        assert w.entries == {(1, 2, 3, 4): F(5)}


class TestTourMinimizers:
    def test_quartet_minimizing_tours(self, quartet_dm):
        value, tours = tour_minimizers(quartet_dm, (1, 2, 3, 4))
        # split 12|34: the two crossing tours cost 2*5, the split tour 2*(5+1)
        assert value == F(5)
        assert tours == ((1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 4, 2), (1, 4, 3, 2))

    def test_closed_under_reversal(self, quartet_dm):
        _, tours = tour_minimizers(quartet_dm, (1, 2, 3, 4))
        tour_set = set(tours)
        for t in tours:
            assert (t[0],) + tuple(reversed(t[1:])) in tour_set

    def test_closed_under_cherry_transposition(self, quartet_dm):
        # {1,2} is a cherry: swapping 1 and 2 in a minimizing tour and
        # rotating back to start at the smallest element stays minimizing
        _, tours = tour_minimizers(quartet_dm, (1, 2, 3, 4))
        tour_set = set(tours)
        swap = {1: 2, 2: 1, 3: 3, 4: 4}
        for t in tours:
            conj = tuple(swap[x] for x in t)
            start = conj.index(min(conj))
            conj = conj[start:] + conj[:start]
            assert conj in tour_set

    def test_value_matches_subset_dissimilarity(self, quartet_dm):
        value, _ = tour_minimizers(quartet_dm, (1, 2, 3))
        assert value == subset_dissimilarity(quartet_dm, (1, 2, 3))


class TestSubsetCherries:
    def test_quartet_has_two_cherries(self, quartet_dm):
        assert subset_cherries(quartet_dm, (1, 2, 3, 4)) == ((1, 2), (3, 4))

    def test_star_has_all_pairs(self, ones5):
        got = subset_cherries(ones5, (1, 2, 3, 4, 5))
        assert got == tuple(combinations(range(1, 6), 2))

    def test_triple_always_qualifies_somewhere(self, quartet_dm):
        # in a 3-element subset each pair merges at the median point
        assert len(subset_cherries(quartet_dm, (1, 2, 3))) == 3

    def test_too_small_rejected(self, quartet_dm):
        with pytest.raises(ValueError):
            subset_cherries(quartet_dm, (1, 2))


# Primes near 10**6 and 10**12, so the common denominator of a tensor is a
# product of several large primes.
LARGE_PRIMES = (999983, 1000003, 1000033, 10**12 + 39)


def coprime_weight(rng):
    return F(rng.randint(1, 10**6), rng.choice(LARGE_PRIMES))


def invert3_reference(W):
    """The closed form and its forward check on Fractions, as first
    written: X, or the first triple where X maps forward to another
    value, with (that value, W's entry)."""
    n = W.n
    labels = range(1, n + 1)
    T = {
        (i, j): sum((W.value((i, j, k)) for k in labels if k != i and k != j), F(0))
        for i, j in combinations(labels, 2)
    }
    P = 2 * sum(W.entries.values(), F(0)) / (n - 2)
    U = {i: sum((v for key, v in T.items() if i in key), F(0)) for i in labels}
    S = {i: (U[i] - P) / (n - 3) for i in labels}
    X = DistanceMatrix(n, {(i, j): (2 * T[i, j] - S[i] - S[j]) / (n - 4) for i, j in combinations(labels, 2)})
    for key, v in triple_dissimilarity(X).entries.items():
        if v != W.entries[key]:
            return key, (v, W.entries[key])
    return X


def inversion_outcome(W):
    try:
        return invert_triple_dissimilarity(W)
    except InversionError as exc:
        return exc.witness, exc.values


class TestInversion:
    def test_roundtrip_on_trees_both_methods(self):
        for n, seed in [(5, 0), (6, 1), (7, 2), (8, 3)]:
            for sampler in (None, coprime_weight):
                d = distance_matrix(random_tree(n, seed=seed, weight_sampler=sampler))
                w = triple_dissimilarity(d)
                assert invert_triple_dissimilarity(w) == d
                assert _invert3_elimination(w) == d

    def test_roundtrip_on_arbitrary_symmetric_matrices(self):
        # inversion is linear algebra; it must not assume a metric
        import random

        for seed in range(10):
            rng = random.Random(seed)
            n = rng.randint(5, 8)
            d = symmetric_matrix(n, rng)
            w = triple_dissimilarity(d)
            by_formula = invert_triple_dissimilarity(w)
            by_elimination = _invert3_elimination(w)
            assert by_formula == d
            assert by_elimination == d
        for n in range(5, 9):
            zero = DistanceMatrix(n, {p: F(0) for p in combinations(range(1, n + 1), 2)})
            w = triple_dissimilarity(zero)
            assert invert_triple_dissimilarity(w) == zero
            assert _invert3_elimination(w) == zero

    def test_small_n_rejected(self, quartet_dm):
        w = triple_dissimilarity(quartet_dm)
        with pytest.raises(ValueError):
            invert_triple_dissimilarity(w)

    def test_wrong_m_rejected(self, quartet_dm):
        w = dissimilarity_map(quartet_dm, 2)
        with pytest.raises(ValueError):
            invert_triple_dissimilarity(w)

    def test_bump_off_image_detected_for_n6(self):
        d = distance_matrix(random_tree(6, seed=3))
        w = triple_dissimilarity(d)
        entries = dict(w.entries)
        entries[(1, 2, 3)] += 1
        bad = DissimTensor(6, 3, entries)
        with pytest.raises(InversionError) as exc:
            invert_triple_dissimilarity(bad)
        assert len(exc.value.witness) == 3
        # the oracle returns its pivot solution; mapping it forward misses
        assert triple_dissimilarity(_invert3_elimination(bad)) != bad
        # witness and values of a rejection, and X of an acceptance (n=5
        # is square), are those of the closed form on Fractions; the bump
        # sits on the first or the lexicographically last triple, the
        # denominators are small or products of large primes
        for n, seed in [(5, 1), (6, 3), (7, 4), (9, 5)]:
            for sampler in (None, coprime_weight):
                d = distance_matrix(random_tree(n, seed=seed, weight_sampler=sampler))
                w = triple_dissimilarity(d)
                for key, bump in [((1, 2, 3), F(1)), ((n - 2, n - 1, n), F(-1, 999983))]:
                    entries = dict(w.entries)
                    entries[key] += bump
                    bad = DissimTensor(n, 3, entries)
                    want = invert3_reference(bad)
                    assert inversion_outcome(bad) == want
                    assert isinstance(want, DistanceMatrix) == (n == 5)

    def test_bump_preimage_at_n5_is_explicit(self, ones5):
        # n=5 the system is square: the bump direction pulls back to the
        # matrix A with A(i,j) = 2/3 inside {1,2,3} and on {4,5},
        # A(i,j) = -1/3 across; solved by hand from the row sums
        w = triple_dissimilarity(ones5)
        entries = dict(w.entries)
        entries[(1, 2, 3)] += 1
        got = invert_triple_dissimilarity(DissimTensor(5, 3, entries))
        inside = {(1, 2), (1, 3), (2, 3), (4, 5)}
        for p in combinations(range(1, 6), 2):
            shift = F(2, 3) if p in inside else F(-1, 3)
            assert got.get(*p) == F(1) + shift


class TestTripleMembership:
    def test_tree_tensor_is_member_with_tree(self):
        t = random_tree(6, seed=3)
        res = triple_membership(triple_dissimilarity(distance_matrix(t)))
        assert res
        assert res.stage == "ok"
        assert same_tree(res.tree, t)

    def test_star_membership(self, ones5):
        res = triple_membership(triple_dissimilarity(ones5))
        assert res.is_member
        assert res.matrix == ones5
        assert res.tree is not None

    def test_four_point_stage(self, bumped5):
        res = triple_membership(triple_dissimilarity(bumped5))
        assert not res
        assert res.stage == "four_point"
        assert res.witness == (1, 2, 4, 5)
        assert res.matrix == bumped5
        assert res.tree is None

    def test_inverse_stage(self):
        d = distance_matrix(random_tree(7, seed=5))
        w = triple_dissimilarity(d)
        entries = dict(w.entries)
        entries[(2, 4, 6)] += 1
        res = triple_membership(DissimTensor(7, 3, entries))
        assert not res
        assert res.stage == "inverse"
        assert res.matrix is None

    def test_member_with_negative_preimage_has_no_tree(self, ones5):
        # shift by the lineality direction c_i = -5/2: the preimage has
        # negative entries yet satisfies the distinct-quadruple condition
        shifted = DistanceMatrix(
            5, {p: v - 5 for p, v in ones5.entries.items()}
        )
        assert four_point_check(shifted, strict=True)
        assert not four_point_check(shifted, strict=False)
        res = triple_membership(triple_dissimilarity(shifted))
        assert res.is_member
        assert res.tree is None
        assert "non-negative" in res.note

    def test_small_n_rejected(self, quartet_dm):
        with pytest.raises(ValueError):
            triple_membership(triple_dissimilarity(quartet_dm))


class TestRerootUltrametric:
    def test_quartet_shift(self, quartet_dm):
        got = reroot_ultrametric(quartet_dm, F(3))
        want = {
            (1, 2): F(2),
            (1, 3): F(4),
            (1, 4): F(6),
            (2, 3): F(4),
            (2, 4): F(6),
            (3, 4): F(6),
        }
        assert got.entries == want
        assert is_ultrametric(got.restrict([1, 2, 3]))

    @given(
        n=st.integers(4, 9),
        seed=st.integers(0, 10**6),
        shape=st.sampled_from(["uniform-topology", "caterpillar"]),
        extra=st.fractions(min_value=0, max_value=10, max_denominator=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_preserves_tree_metric(self, n, seed, shape, extra):
        # reroot_ultrametric only checks the four-point condition; being
        # ultrametric away from leaf n follows from it and is checked here
        d = distance_matrix(random_tree(n, seed=seed, shape=shape))
        e = max(d.get(i, n) for i in range(1, n)) + extra
        shifted = reroot_ultrametric(d, e)
        assert four_point_check(shifted)
        assert is_ultrametric(shifted.restrict(range(1, n)))
        assert all(shifted.get(i, n) == 2 * e for i in range(1, n))

    def test_large_e_allowed(self, quartet_dm):
        got = reroot_ultrametric(quartet_dm, F(10))
        assert got.get(1, 4) == F(20)

    def test_small_e_rejected(self, quartet_dm):
        with pytest.raises(ValueError):
            reroot_ultrametric(quartet_dm, F(2))

    def test_non_tree_metric_rejected(self, bumped5):
        top = max(bumped5.get(i, 5) for i in range(1, 5))
        with pytest.raises(ValueError):
            reroot_ultrametric(bumped5, top)


class TestPairing:
    def test_hand_checked_coordinates(self, bumped5):
        p = pairing_map(bumped5)
        # X(1,2;4,5) = (1 + 2 + min(1+1, 1+1)) / 2
        assert p.get((1, 2), (4, 5)) == F(5, 2)
        # X(1,4;2,5) = (1 + 1 + min(1+1, 1+2)) / 2
        assert p.get((1, 4), (2, 5)) == F(2)

    def test_key_normalization(self, bumped5):
        p = pairing_map(bumped5)
        assert p.get((2, 1), (5, 4)) == p.get((1, 2), (4, 5))

    def test_agreement_on_tree_metric(self, ones5):
        assert pairing_agreement(pairing_map(ones5))

    def test_agreement_witness_on_violation(self, bumped5):
        verdict = pairing_agreement(pairing_map(bumped5))
        assert not verdict
        assert verdict.witness == (1, 2, 4, 5)

    def test_projection_recovers_m4_tensor(self, ones5):
        p = pairing_map(ones5)
        assert project_pairings(p).entries == dissimilarity_map(ones5, 4).entries

    def test_projection_requires_agreement(self, bumped5):
        with pytest.raises(ValueError):
            project_pairings(pairing_map(bumped5))

    def test_report_equivalence_on_violating_matrix(self, bumped5):
        report = verify_m4_characterization(bumped5)
        assert report.all_equivalent
        assert not report.all_agreeing
        # every quadruple through the bumped pair {4,5} has sums (3,2,2)
        broken = {q.quadruple for q in report.quadruples if not q.coordinates_equal}
        fp = {q.quadruple for q in report.quadruples if not q.max_attained_twice}
        assert broken == fp == {(1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5)}

    def test_report_on_tree_metric(self, quartet_dm):
        # n=4: a single quadruple, agreeing
        report = verify_m4_characterization(quartet_dm)
        assert report.all_equivalent
        assert report.all_agreeing
        assert report.quadruples[0].sums == (F(4), F(6), F(6))


@given(n=st.integers(5, 8), seed=st.integers(0, 10**6), m=st.integers(3, 5))
@settings(max_examples=40, deadline=None)
def test_tensor_entries_equal_steiner_weights(n, seed, m):
    t = random_tree(n, seed=seed)
    d = distance_matrix(t)
    w = dissimilarity_map(d, min(m, n))
    for sub, val in w.entries.items():
        assert val == steiner_weight(t, sub)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_inversion_is_identity_on_random_tensors(seed):
    # any symmetric matrix, metric or not, survives the roundtrip
    import random

    rng = random.Random(seed)
    n = rng.randint(5, 7)
    d = symmetric_matrix(n, rng)
    assert invert_triple_dissimilarity(triple_dissimilarity(d)) == d


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_pairing_equivalence_is_pointwise(seed):
    # max-twice and coordinate agreement coincide quadruple by quadruple
    # on arbitrary symmetric input
    import random

    rng = random.Random(seed)
    d = symmetric_matrix(rng.randint(4, 6), rng)
    report = verify_m4_characterization(d)
    assert report.all_equivalent


@given(n=st.integers(5, 8), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_membership_accepts_every_tree_tensor(n, seed):
    t = random_tree(n, seed=seed)
    res = triple_membership(triple_dissimilarity(distance_matrix(t)))
    assert res.is_member
    assert same_tree(res.tree, t)


def anchored_sums(W, s, quad):
    """The three sums of the three-term relation on ``quad`` anchored at s."""
    i, j, k, l = quad
    return (
        W.value((s, i, j)) + W.value((s, k, l)),
        W.value((s, i, k)) + W.value((s, j, l)),
        W.value((s, i, l)) + W.value((s, j, k)),
    )


@given(
    n=st.integers(5, 8),
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["tree", "bumped", "arbitrary"]),
)
@settings(max_examples=60, deadline=None)
def test_membership_agrees_with_three_term_relations(n, seed, kind):
    # on W = phi_3(X) the relation anchored at s is the four-point
    # condition on X plus a shift common to all three sums, so the
    # decision and the three-term check agree, and a four-point witness
    # fails the anchored relation for every anchor outside it
    import random

    rng = random.Random(seed)
    if kind == "arbitrary":
        x = symmetric_matrix(n, rng)
    else:
        x = distance_matrix(random_tree(n, seed=seed))
        if kind == "bumped":
            entries = dict(x.entries)
            bump = F(rng.choice([-1, 1]) * rng.randint(1, 8), rng.randint(1, 3))
            entries[rng.choice(sorted(entries))] += bump
            x = DistanceMatrix(n, entries)
    w = triple_dissimilarity(x)
    res = triple_membership(w)
    assert res.is_member == bool(three_term_plucker_check(w))
    if res.stage == "four_point":
        for s in range(1, n + 1):
            if s not in res.witness:
                assert not max_twice(anchored_sums(w, s, res.witness))
