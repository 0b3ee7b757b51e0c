"""Max-plus primitives and the three membership predicates."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedissim import (
    DissimTensor,
    DistanceMatrix,
    Verdict,
    dissimilarity_map,
    distance_matrix,
    four_point_check,
    is_ultrametric,
    max_twice,
    random_tree,
    three_term_plucker_check,
    triple_dissimilarity,
)
from treedissim.cli import main
from treedissim.tropical import _BUILD_MIN_LABELS

F = Fraction


def dm(n, values):
    entries = {}
    it = iter(values)
    for p in combinations(range(1, n + 1), 2):
        entries[p] = F(next(it))
    return DistanceMatrix(n, entries)


class TestMaxTwice:
    def test_attained_twice(self):
        assert max_twice([F(3), F(1), F(3)])

    def test_attained_once(self):
        assert not max_twice([F(3), F(1), F(2)])

    def test_all_equal(self):
        assert max_twice([F(0), F(0), F(0)])

    def test_single_value(self):
        assert not max_twice([F(5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_twice([])


class TestFourPoint:
    def test_tree_metric_passes(self, quartet_dm):
        assert four_point_check(quartet_dm)
        assert four_point_check(quartet_dm, strict=True)

    def test_bumped_matrix_fails(self, bumped5):
        verdict = four_point_check(bumped5)
        assert not verdict
        assert verdict.witness == (1, 2, 4, 5)
        # sums 1+2, 1+1, 1+1: maximum 3 attained once
        assert verdict.values == (F(3), F(2), F(2))

    def test_nonstrict_rejects_triangle_violation(self):
        # D(1,3) = 5 > D(1,2) + D(2,3) = 2; caught by quadruple (1,2,2,3)
        d = dm(3, [1, 5, 1])
        verdict = four_point_check(d, strict=False)
        assert not verdict
        assert verdict.witness == (1, 2, 2, 3)

    def test_nonstrict_rejects_negative_entry(self):
        d = dm(2, [-1])
        assert not four_point_check(d, strict=False)

    def test_strict_tolerates_negative_entries_below_four_points(self):
        verdict = four_point_check(dm(3, [-1, -1, -1]), strict=True)
        assert verdict
        assert "vacuous" in verdict.note

    def test_strict_checks_distinct_quadruples_only(self):
        # metric on 4 points that is not a tree metric: sums 4, 3, 3 pass,
        # but make maximum unique: D(1,2)=D(3,4)=2 others 1 gives 4,2,2
        d = dm(4, [2, 1, 1, 1, 1, 2])
        verdict = four_point_check(d, strict=True)
        assert not verdict
        assert verdict.witness == (1, 2, 3, 4)
        assert verdict.values == (F(4), F(2), F(2))

    def test_verdict_is_truthy_wrapper(self, quartet_dm):
        verdict = four_point_check(quartet_dm)
        assert isinstance(verdict, Verdict)
        assert verdict.witness is None


class TestUltrametric:
    def test_equilateral_passes(self):
        assert is_ultrametric(dm(3, [2, 2, 2]))

    def test_two_level_passes(self):
        # heights: {1,2} merge at 1, all merge at 2
        assert is_ultrametric(dm(3, [1, 2, 2]))

    def test_strict_triangle_fails(self):
        verdict = is_ultrametric(dm(3, [1, 2, 3]))
        assert not verdict
        assert verdict.witness == (1, 2, 3)
        assert verdict.values == (F(1), F(2), F(3))

    def test_negative_entry_fails(self):
        verdict = is_ultrametric(dm(3, [-1, -1, -1]))
        assert not verdict
        assert verdict.note == "negative entry"
        assert verdict.witness == (1, 2)

    def test_balanced_quartet_metric_is_ultrametric(self, quartet_dm):
        # distances 2,3,3,3,3,2: every triple has max 3 attained twice
        assert is_ultrametric(quartet_dm)

    def test_unbalanced_tree_metric_fails(self):
        d = distance_matrix(random_tree(5, seed=2))
        # random weights make root-to-leaf depths differ
        assert not is_ultrametric(d)


class TestThreeTermRelations:
    def test_vacuous_below_m_plus_2(self, quartet_dm):
        w = triple_dissimilarity(quartet_dm)
        verdict = three_term_plucker_check(w)
        assert verdict
        assert "vacuous" in verdict.note

    def test_tree_tensor_passes(self, ones5):
        assert three_term_plucker_check(triple_dissimilarity(ones5))

    def test_bumped_tensor_fails_with_hand_checked_witness(self, ones5):
        w = triple_dissimilarity(ones5)
        entries = dict(w.entries)
        entries[(1, 2, 3)] += 1
        verdict = three_term_plucker_check(DissimTensor(5, 3, entries))
        assert not verdict
        # R = {1}, quadruple (2,3,4,5): sums (5/2+3/2, 3/2+3/2, 3/2+3/2)
        assert verdict.witness == ((1,), (2, 3, 4, 5))
        assert verdict.values == (F(4), F(3), F(3))

    def test_link_that_is_no_metric_passes(self):
        # a star with pendant -3/2 at leaf 1 and 1/2 elsewhere: every
        # quadruple balances, but L(1,2) + L(1,3) + 2*max|L| < L(2,3), so
        # the tree build needs a shift above 3*max|L|; the star has
        # _BUILD_MIN_LABELS leaves, so its link is built
        n = _BUILD_MIN_LABELS
        w = DissimTensor(n, 2, {S: F(-1) if 1 in S else F(1) for S in combinations(range(1, n + 1), 2)})
        assert three_term_plucker_check(w) == Verdict(True)

    def test_matrix_tensor_reduces_to_four_point(self, bumped5):
        w = DissimTensor(5, 2, dict(bumped5.entries))
        verdict = three_term_plucker_check(w)
        assert not verdict
        assert verdict.witness == ((), (1, 2, 4, 5))
        strict = four_point_check(bumped5, strict=True)
        assert verdict.values == strict.values


@given(n=st.integers(4, 8), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_tree_metrics_always_satisfy_four_point(n, seed):
    d = distance_matrix(random_tree(n, seed=seed))
    assert four_point_check(d, strict=False)
    assert four_point_check(d, strict=True)


@given(
    n=st.integers(3, 6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_ultrametric_implies_four_point(n, data):
    # draw merge heights for a random dendrogram: successively glue the
    # first two blocks at non-decreasing heights
    blocks = [[i] for i in range(1, n + 1)]
    height = F(0)
    entries = {}
    while len(blocks) > 1:
        height += F(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3)))
        a = blocks.pop(data.draw(st.integers(0, len(blocks) - 1)))
        b = blocks.pop(data.draw(st.integers(0, len(blocks) - 1)))
        for i in a:
            for j in b:
                entries[(min(i, j), max(i, j))] = 2 * height
        blocks.append(a + b)
    d = DistanceMatrix(n, entries)
    assert is_ultrametric(d)
    assert four_point_check(d, strict=False)


def three_term_reference(W):
    """The three-term scan as first written: six tensor lookups per
    quadruple, no shared four-point helper."""
    n, m = W.n, W.m
    if n < m + 2:
        return Verdict(True, note=f"no quadruple outside an (m-2)-set for n={n}, m={m}; vacuous")
    labels = range(1, n + 1)
    for R in combinations(labels, m - 2):
        rest = [x for x in labels if x not in set(R)]
        for i, j, k, l in combinations(rest, 4):
            vals = (
                W.value(R + (i, j)) + W.value(R + (k, l)),
                W.value(R + (i, k)) + W.value(R + (j, l)),
                W.value(R + (i, l)) + W.value(R + (j, k)),
            )
            if not max_twice(vals):
                return Verdict(False, witness=(R, (i, j, k, l)), values=vals)
    return Verdict(True)


def small_rational(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 3))


@given(
    m=st.integers(2, 5),
    extra=st.integers(0, 5),
    kind=st.sampled_from(["tree", "bumped", "late-bump", "leaf-shifted", "arbitrary", "constant"]),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=120, deadline=None)
def test_three_term_matches_reference_scan(m, extra, kind, seed):
    n = m + extra
    rng = random.Random(seed)
    subsets = list(combinations(range(1, n + 1), m))
    if kind == "arbitrary":
        entries = {S: small_rational(rng) for S in subsets}
    elif kind == "constant":
        # value 0 makes every link zero, so the shift is 1
        value = rng.choice([F(0), small_rational(rng)])
        entries = {S: value for S in subsets}
    else:
        # a tree metric restricted to 1..n, so n = 2 works too
        d = distance_matrix(random_tree(max(n, 3), seed=seed)).restrict(range(1, n + 1))
        entries = dict(dissimilarity_map(d, m).entries)
        bump = rng.choice([-1, 1]) * F(rng.randint(1, 4), rng.randint(1, 2))
        if kind == "bumped":
            entries[rng.choice(subsets)] += bump
        elif kind == "late-bump":
            # only links of R inside the m largest labels see the bump,
            # so every earlier R is accepted by its tree build
            entries[subsets[-1]] += bump
        elif kind == "leaf-shifted":
            r = {i: small_rational(rng) for i in range(1, n + 1)}
            entries = {S: v + sum(r[i] for i in S) for S, v in entries.items()}
    W = DissimTensor(n, m, entries)
    assert three_term_plucker_check(W) == three_term_reference(W)


def test_three_term_builds_agree_with_reference_scan():
    # links of _BUILD_MIN_LABELS labels or more are accepted by their
    # tree build, which the hypothesis differential above never reaches
    for m in (2, 3, 4):
        n = m - 2 + _BUILD_MIN_LABELS
        subsets = list(combinations(range(1, n + 1), m))
        for kind in ("tree", "bumped", "late-bump", "leaf-shifted", "arbitrary"):
            rng = random.Random(f"{m}/{kind}")
            if kind == "arbitrary":
                entries = {S: small_rational(rng) for S in subsets}
            else:
                entries = dict(dissimilarity_map(distance_matrix(random_tree(n, seed=m)), m).entries)
            if kind == "bumped":
                entries[rng.choice(subsets)] += F(1, 2)
            elif kind == "late-bump":
                entries[subsets[-1]] -= 1
            elif kind == "leaf-shifted":
                r = {i: small_rational(rng) for i in range(1, n + 1)}
                entries = {S: v + sum(r[i] for i in S) for S, v in entries.items()}
            W = DissimTensor(n, m, entries)
            assert three_term_plucker_check(W) == three_term_reference(W), (m, kind)


def test_tree_tensors_are_accepted_without_the_quadruple_scan(monkeypatch, tmp_path):
    def no_scan(get, quads):
        raise AssertionError("quadruple scan ran on a tree tensor")

    monkeypatch.setattr("treedissim.tropical._first_unbalanced", no_scan)
    for m in range(2, 5):
        # links have n - m + 2 labels, at least _BUILD_MIN_LABELS here
        for n in (m - 2 + _BUILD_MIN_LABELS, m - 1 + _BUILD_MIN_LABELS):
            for shape in ("uniform-topology", "caterpillar"):
                W = dissimilarity_map(distance_matrix(random_tree(n, seed=n, shape=shape)), m)
                assert three_term_plucker_check(W) == Verdict(True)
    n = 1 + _BUILD_MIN_LABELS
    W = triple_dissimilarity(distance_matrix(random_tree(n, seed=2)))
    path = tmp_path / "w.json"
    path.write_text(json.dumps(W.to_json_obj()))
    assert main(["check", str(path), "--tmn", "3"]) == 0


def test_small_links_are_scanned_without_a_tree_build(monkeypatch, tmp_path):
    def no_build(D):
        raise AssertionError("tree build ran on a link below the crossover")

    monkeypatch.setattr("treedissim.trees._realized", no_build)
    for m in range(2, 6):
        # links of 4, 6 and 8 labels; the CLI tensor below has 9
        for n in range(m + 2, m - 2 + _BUILD_MIN_LABELS, 2):
            for shape in ("uniform-topology", "caterpillar"):
                W = dissimilarity_map(distance_matrix(random_tree(n, seed=n, shape=shape)), m)
                assert three_term_plucker_check(W) == Verdict(True)
                entries = dict(W.entries)
                entries[max(entries)] += 1
                bumped = DissimTensor(n, m, entries)
                assert three_term_plucker_check(bumped) == three_term_reference(bumped)
    n = _BUILD_MIN_LABELS
    W = triple_dissimilarity(distance_matrix(random_tree(n, seed=2)))
    path = tmp_path / "w.json"
    path.write_text(json.dumps(W.to_json_obj()))
    assert main(["check", str(path), "--tmn", "3"]) == 0
