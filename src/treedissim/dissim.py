"""Subset dissimilarity maps and their membership machinery.

The central operation sends a distance matrix D to the tensor whose
entry on an m-subset is half the minimum, over all cyclic orders of the
subset, of the closed-tour sum of pairwise distances.  For tree metrics
this equals the weight of the minimal subtree spanning the subset.

The module also provides the closed-form m=3 map and its exact linear
inversion, the full m=3 membership decision (invert, then four-point),
the rerooting construction that turns a tree metric into an ultrametric
away from the last leaf, and the m=4 pairing map / agreement subspace /
projection characterization.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from typing import Iterable, Sequence

from .rationals import (
    _read_subset_table,
    checked_table,
    format_index_key,
    format_rational,
    parse_index_entries,
    parse_rational,
)
from .tropical import Verdict, _pairing_sums, four_point_check, max_twice, three_term_plucker_check
from .trees import DistanceMatrix, FourPointViolation, WeightedTree, _is_cherry, reconstruct_tree


class InversionError(Exception):
    """The tensor has no preimage; carries a witness triple when known."""

    def __init__(self, message: str, witness: tuple | None = None, values: tuple | None = None):
        self.witness = witness
        self.values = values
        super().__init__(message)


@dataclass
class DissimTensor:
    """Rational map on the m-subsets of [n].

    Entries are keyed on sorted m-tuples and must cover every m-subset.
    ``value`` accepts any ordering and returns 0 for arguments with
    repeated indices, which are by convention not stored.
    """

    n: int
    m: int
    entries: dict[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        if not 2 <= self.m <= self.n:
            raise ValueError(f"need 2 <= m <= n, got m={self.m}, n={self.n}")
        what = f"{self.m}-subsets of 1..{self.n}"
        if self.m == self.n and len(self.entries) == 1:
            # C(n, n) = 1 does not bound n by the input, so the one key's
            # length is checked before the n-label key is made
            (key,) = self.entries
            if not (isinstance(key, tuple) and len(key) == self.n):
                raise ValueError(f"entries must cover exactly the {what}; got the key {reprlib.repr(key)}")
        self.entries = checked_table(
            self.entries, [(self.n, self.m)], lambda: combinations(range(1, self.n + 1), self.m), what
        )

    def value(self, subset: Iterable[int]) -> Fraction:
        key = tuple(sorted(subset))
        if len(key) != self.m:
            raise ValueError(f"expected {self.m} indices, got {len(key)}")
        if len(set(key)) < self.m:
            return Fraction(0)
        return self.entries[key]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "entries": {format_index_key(key): format_rational(v) for key, v in self.entries.items()},
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DissimTensor":
        if not isinstance(obj, dict) or not {"n", "m", "entries"} <= set(obj):
            raise ValueError("tensor JSON needs keys 'n', 'm' and 'entries'")
        n, m = obj["n"], obj["m"]
        if not (isinstance(n, int) and isinstance(m, int)):
            raise ValueError("'n' and 'm' must be integers")
        # __post_init__ checks that the keys are exactly the m-subsets.
        entries = _read_subset_table(obj["entries"], n, m)
        return cls(n, m, entries)


@dataclass
class PairingPoint:
    """Point in pairing-sum coordinates on ordered pairs of disjoint pairs.

    One coordinate per ordered pair of disjoint unordered pairs
    ({i,j}, {k,l}); swapping elements inside a pair is the identity,
    swapping the two pairs is not.  A quadruple therefore owns six
    coordinates.
    """

    n: int
    entries: dict[tuple[tuple[int, int], tuple[int, int]], Fraction]

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("pairing coordinates need n >= 4")
        self.entries = checked_table(
            self.entries,
            [(self.n, 2), (self.n - 2, 2)],
            lambda: _pair_pairs(self.n),
            f"ordered disjoint pair-pairs of 1..{self.n}",
        )

    def get(self, first: Sequence[int], second: Sequence[int]) -> Fraction:
        a = tuple(sorted(first))
        b = tuple(sorted(second))
        return self.entries[(a, b)]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "entries": {
                f"{format_index_key(p)};{format_index_key(q)}": format_rational(v)
                for (p, q), v in self.entries.items()
            },
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PairingPoint":
        if not isinstance(obj, dict) or not {"n", "entries"} <= set(obj):
            raise ValueError("pairing JSON needs keys 'n' and 'entries'")
        n = obj["n"]
        if not isinstance(n, int):
            raise ValueError("'n' must be an integer")
        # __post_init__ checks that the keys are exactly the ordered disjoint pair-pairs.
        entries = {key: parse_rational(val) for key, val in parse_index_entries(obj["entries"], groups=2)}
        return cls(n, entries)


def _pair_pairs(n: int):
    labels = range(1, n + 1)
    for p in combinations(labels, 2):
        rest = [x for x in labels if x not in p]
        for q in combinations(rest, 2):
            yield (p, q)


# ---------------------------------------------------------------------------
# The tour-minimum dissimilarity map


def _scaled_submatrix(D: DistanceMatrix, subset: Sequence[int]) -> tuple[list[list[int]], int]:
    """Integer-rescaled pairwise entries over ``subset`` plus the common
    denominator, so tour sums run on machine integers."""
    m = len(subset)
    pairs = list(combinations(range(m), 2))
    values = [D.get(subset[a], subset[b]) for a, b in pairs]
    denom = lcm(*(v.denominator for v in values))
    e = [[0] * m for _ in range(m)]
    for (a, b), v in zip(pairs, values):
        e[a][b] = e[b][a] = v.numerator * (denom // v.denominator)
    return e, denom


def _min_tour_int(e: list[list[int]]) -> int:
    m = len(e)
    row0 = e[0]
    best = None
    for p in permutations(range(1, m)):
        if p[0] > p[-1]:  # each tour once: skip the reversal
            continue
        total = row0[p[0]] + row0[p[-1]]
        prev = p[0]
        for cur in p[1:]:
            total += e[prev][cur]
            prev = cur
        if best is None or total < best:
            best = total
    return best


def _min_tour_dp_int(e: list[list[int]]) -> int:
    m = len(e)
    big = (sum(abs(x) for row in e for x in row) + 1) * (m + 2)
    size = 1 << (m - 1)
    dp = [[big] * m for _ in range(size)]
    for j in range(1, m):
        dp[1 << (j - 1)][j] = e[0][j]
    for mask in range(1, size):
        row = dp[mask]
        for j in range(1, m):
            cur = row[j]
            if cur >= big or not mask & (1 << (j - 1)):
                continue
            ej = e[j]
            for k in range(1, m):
                kb = 1 << (k - 1)
                if mask & kb:
                    continue
                cand = cur + ej[k]
                if cand < dp[mask | kb][k]:
                    dp[mask | kb][k] = cand
    full = size - 1
    return min(dp[full][j] + e[j][0] for j in range(1, m))


# Subset size above which method="auto" runs the DP instead of the tours.
_DP_THRESHOLD = 6

_MIN_TOUR = {"tours": _min_tour_int, "dp": _min_tour_dp_int}


def subset_dissimilarity(D: DistanceMatrix, subset: Iterable[int], method: str = "auto") -> Fraction:
    """Half the minimum closed-tour sum over cyclic orders of ``subset``.

    ``method`` selects the evaluator: "tours" enumerates the (m-1)!/2
    tours up to reversal, "dp" runs a bitmask dynamic program
    over sub-subsets, "auto" switches to the DP for subsets larger than
    ``_DP_THRESHOLD`` (6).  Both evaluators are exact and agree on every
    input.
    """
    subset = tuple(sorted(subset))
    m = len(subset)
    if m < 2:
        raise ValueError("subset needs at least 2 elements")
    if len(set(subset)) < m:
        raise ValueError("subset has repeated elements")
    if method != "auto" and method not in _MIN_TOUR:
        raise ValueError(f"unknown method {method!r}")
    if m == 2:
        return D.get(subset[0], subset[1])
    if method == "auto":
        method = "tours" if m <= _DP_THRESHOLD else "dp"
    e, denom = _scaled_submatrix(D, subset)
    return Fraction(_MIN_TOUR[method](e), 2 * denom)


def dissimilarity_map(D: DistanceMatrix, m: int, method: str = "auto") -> DissimTensor:
    """The m-subset dissimilarity tensor of a distance matrix."""
    n = D.n
    if not 2 <= m <= n:
        raise ValueError(f"need 2 <= m <= n, got m={m}, n={n}")
    entries = {
        subset: subset_dissimilarity(D, subset, method)
        for subset in combinations(range(1, n + 1), m)
    }
    return DissimTensor(n, m, entries)


def tour_minimizers(
    D: DistanceMatrix, subset: Iterable[int]
) -> tuple[Fraction, tuple[tuple[int, ...], ...]]:
    """Entry value plus every minimizing cyclic order of ``subset``.

    Tours are reported as element tuples starting at the smallest
    element; all (m-1)! cyclic orders are examined, so the returned set
    is literally closed under reversal whenever the minimum is.
    """
    subset = tuple(sorted(subset))
    m = len(subset)
    if m < 2 or len(set(subset)) < m:
        raise ValueError("subset must have at least 2 distinct elements")
    if m == 2:
        return D.get(subset[0], subset[1]), (subset,)
    e, denom = _scaled_submatrix(D, subset)
    row0 = e[0]
    best: int | None = None
    argmin: list[tuple[int, ...]] = []
    for p in permutations(range(1, m)):
        total = row0[p[0]] + row0[p[-1]]
        prev = p[0]
        for cur in p[1:]:
            total += e[prev][cur]
            prev = cur
        if best is None or total < best:
            best = total
            argmin = [p]
        elif total == best:
            argmin.append(p)
    tours = tuple(
        sorted((subset[0],) + tuple(subset[i] for i in p) for p in argmin)
    )
    return Fraction(best, 2 * denom), tours


@dataclass(frozen=True)
class CycleSum:
    """One closed tour of a subset together with its pairwise sum."""

    subset: tuple[int, ...]
    tour: tuple[int, ...]
    value: Fraction


def cycle_sum(D: DistanceMatrix, tour: Sequence[int]) -> CycleSum:
    """Sum of consecutive entries around the closed tour.

    Reversing the tour gives the same value, so half of all cyclic
    orders already realizes every achievable sum.
    """
    tour = tuple(tour)
    if len(tour) < 2 or len(set(tour)) < len(tour):
        raise ValueError("tour must visit at least 2 distinct elements")
    total = sum(
        (D.get(tour[i], tour[(i + 1) % len(tour)]) for i in range(len(tour))),
        Fraction(0),
    )
    return CycleSum(tuple(sorted(tour)), tour, total)


def subset_cherries(D: DistanceMatrix, subset: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Pairs of ``subset`` that form a cherry of the induced subtree.

    A pair (a, b) qualifies iff D(a,c) - D(b,c) is constant over the
    remaining elements c, i.e. all other paths enter the a-b path at one
    common point.
    """
    subset = tuple(sorted(subset))
    if len(subset) < 3:
        raise ValueError("cherry detection needs at least 3 elements")
    return tuple(
        (a, b)
        for a, b in combinations(subset, 2)
        if _is_cherry(D.get, a, b, [c for c in subset if c != a and c != b])
    )


# ---------------------------------------------------------------------------
# m = 3: closed form, inversion, membership


def triple_dissimilarity(D: DistanceMatrix) -> DissimTensor:
    """Closed-form m=3 tensor: half the perimeter of each triple."""
    n = D.n
    if n < 3:
        raise ValueError("triple dissimilarity needs n >= 3")
    entries = {
        (i, j, k): (D.get(i, j) + D.get(i, k) + D.get(j, k)) / 2
        for i, j, k in combinations(range(1, n + 1), 3)
    }
    return DissimTensor(n, 3, entries)


def _invert3_formula(W: DissimTensor) -> tuple[dict, dict, int]:
    # With S_i the row sums of the unknown matrix X, summing the closed
    # form over the free index gives T(i,j) = ((n-4)X(i,j) + S_i + S_j)/2,
    # row-summing gives U_i = (n-3)S_i + total(X), and the grand total
    # gives total(X) = 2*total(W)/(n-2); solving back yields X.  Everything
    # is multiplied through by L(n-2)(n-3)(n-4), L the common denominator
    # of W, so it runs on ints.  Returns x = L(n-2)(n-3)(n-4)*X, w = L*W
    # and that denominator.
    n = W.n
    L = lcm(*(v.denominator for v in W.entries.values()))
    w = {key: v.numerator * (L // v.denominator) for key, v in W.entries.items()}
    T = dict.fromkeys(combinations(range(1, n + 1), 2), 0)
    for (i, j, k), v in w.items():
        T[i, j] += v
        T[i, k] += v
        T[j, k] += v
    U = [0] * (n + 1)
    for (i, j), t in T.items():
        U[i] += t
        U[j] += t
    total = sum(w.values())
    s = [(n - 2) * u - 2 * total for u in U]
    c = 2 * (n - 2) * (n - 3)
    x = {(i, j): c * t - s[i] - s[j] for (i, j), t in T.items()}
    return x, w, L * (n - 2) * (n - 3) * (n - 4)


def _invert3_elimination(W: DissimTensor) -> DistanceMatrix:
    # Exact Gauss-Jordan on the (n choose 3) x (n choose 2) system whose
    # rows say half the triple perimeter equals the tensor entry.
    # Returns the solution of the pivot subsystem; for an inconsistent
    # tensor that candidate fails the caller's forward verification.
    n = W.n
    pairs = list(combinations(range(1, n + 1), 2))
    col = {p: idx for idx, p in enumerate(pairs)}
    half = Fraction(1, 2)
    rows = []
    for triple in combinations(range(1, n + 1), 3):
        coeffs = [Fraction(0)] * len(pairs)
        for p in combinations(triple, 2):
            coeffs[col[p]] = half
        rows.append(coeffs + [W.entries[triple]])
    ncols = len(pairs)
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        r += 1
    if len(pivot_of_col) < ncols:
        raise InversionError(
            f"system is rank deficient ({len(pivot_of_col)} pivots for {ncols} unknowns)"
        )
    # inconsistent surplus rows are not checked here: this solver is a
    # test oracle, and the tests map its candidate forward themselves
    entries = {p: rows[pivot_of_col[col[p]]][ncols] for p in pairs}
    return DistanceMatrix(n, entries)


def invert_triple_dissimilarity(W: DissimTensor) -> DistanceMatrix:
    """Recover the unique matrix whose triple dissimilarity is W.

    Needs n >= 5; for n <= 4 the linear system has a nontrivial kernel
    and no unique preimage exists.  The closed form is computed and
    then verified by mapping forward again, both on integers over one
    common denominator; a mismatch raises :class:`InversionError` with
    the first failing triple.  (The tests check the closed form against
    an exact Gauss-Jordan solver.)
    """
    if W.m != 3:
        raise ValueError("inversion needs an m=3 tensor")
    n = W.n
    if n <= 4:
        raise ValueError(f"inversion needs n >= 5; the n={n} system is underdetermined")
    x, w, denom = _invert3_formula(W)
    # X(i,j) + X(i,k) + X(j,k) = 2W(i,j,k), multiplied through by denom
    scale = 2 * (n - 2) * (n - 3) * (n - 4)
    for (i, j, k), v in w.items():
        lhs = x[i, j] + x[i, k] + x[j, k]
        if lhs != scale * v:
            key = (i, j, k)
            raise InversionError(
                f"tensor is not a triple dissimilarity: mismatch at {key}",
                witness=key,
                values=(Fraction(lhs, 2 * denom), W.entries[key]),
            )
    return DistanceMatrix(n, {p: Fraction(v, denom) for p, v in x.items()})


@dataclass(frozen=True)
class Membership3Result:
    """Decision for an m=3 tensor against the image of tree space.

    ``stage`` records where the decision fell: "inverse" (no linear
    preimage), "four_point" (preimage exists but violates the strict
    four-point condition), or "ok".  On membership, ``matrix`` is the
    preimage and ``tree`` its realization when the preimage is a genuine
    non-negative metric (otherwise None, see ``note``).
    """

    is_member: bool
    stage: str
    matrix: DistanceMatrix | None = None
    tree: WeightedTree | None = None
    witness: tuple | None = None
    values: tuple | None = None
    note: str | None = None

    def __bool__(self) -> bool:
        return self.is_member


def triple_membership(W: DissimTensor) -> Membership3Result:
    """Decide whether an m=3 tensor is the triple dissimilarity of a tree.

    Inverts the linear system, then applies the strict four-point check
    to the preimage.  A member is corroborated: W must also pass the
    three-term relations.
    """
    if W.m != 3:
        raise ValueError("membership needs an m=3 tensor")
    if W.n < 5:
        raise ValueError("membership decision needs n >= 5")
    try:
        X = invert_triple_dissimilarity(W)
    except InversionError as exc:
        return Membership3Result(
            False, "inverse", witness=exc.witness, values=exc.values, note=str(exc)
        )
    verdict = four_point_check(X, strict=True)
    if not verdict:
        return Membership3Result(
            False, "four_point", matrix=X, witness=verdict.witness, values=verdict.values
        )
    tree = None
    note = None
    try:
        tree = reconstruct_tree(X)
    except FourPointViolation:
        note = (
            "preimage satisfies the four-point condition on distinct quadruples "
            "but is not a non-negative metric; no tree realization emitted"
        )
    pv = three_term_plucker_check(W)
    if not pv:
        raise RuntimeError(
            f"internal inconsistency: member tensor fails three-term relations at {pv.witness}"
        )
    return Membership3Result(True, "ok", matrix=X, tree=tree, note=note)


# ---------------------------------------------------------------------------
# Rerooting a tree metric into an ultrametric


def reroot_ultrametric(D: DistanceMatrix, E: Fraction) -> DistanceMatrix:
    """Shift a tree metric so the last leaf sits at distance 2E from all.

    D'(i,j) = 2E + D(i,j) - D(i,n) - D(j,n) for i,j < n and
    D'(i,n) = 2E.  Requires E >= max_i D(i,n).  The input is accepted
    iff the result passes the non-strict four-point check, so the result
    is again a tree metric, and with that it is ultrametric away from
    leaf n.
    """
    n = D.n
    E = Fraction(E)
    top = max(D.get(i, n) for i in range(1, n))
    if E < top:
        raise ValueError(f"E must be at least max_i D(i,n) = {top}")
    entries: dict[tuple[int, int], Fraction] = {}
    for i, j in combinations(range(1, n + 1), 2):
        if j == n:
            entries[(i, j)] = 2 * E
        else:
            entries[(i, j)] = 2 * E + D.get(i, j) - D.get(i, n) - D.get(j, n)
    shifted = DistanceMatrix(n, entries)
    verdict = four_point_check(shifted, strict=False)
    if not verdict:
        raise ValueError(
            f"input is not a tree metric: shifted matrix fails at {verdict.witness}"
        )
    return shifted


# ---------------------------------------------------------------------------
# m = 4 pairing machinery


def pairing_map(D: DistanceMatrix) -> PairingPoint:
    """Map a matrix into pairing-sum coordinates.

    The coordinate on ({i,j},{k,l}) is half of D(i,j) + D(k,l) plus the
    smaller of the two crossing sums.
    """
    n = D.n
    if n < 4:
        raise ValueError("pairing map needs n >= 4")
    entries = {}
    for p, q in _pair_pairs(n):
        own, *crossing = _pairing_sums(D.get, *p, *q)
        entries[(p, q)] = (own + min(crossing)) / 2
    return PairingPoint(n, entries)


def pairing_agreement(P: PairingPoint) -> Verdict:
    """Check that all six coordinates of every quadruple coincide."""
    for i, j, k, l in combinations(range(1, P.n + 1), 4):
        keys = (
            ((i, j), (k, l)),
            ((i, k), (j, l)),
            ((i, l), (j, k)),
            ((k, l), (i, j)),
            ((j, l), (i, k)),
            ((j, k), (i, l)),
        )
        vals = tuple(P.entries[key] for key in keys)
        if any(v != vals[0] for v in vals[1:]):
            return Verdict(False, witness=(i, j, k, l), values=vals)
    return Verdict(True)


def project_pairings(P: PairingPoint) -> DissimTensor:
    """Collapse an agreeing pairing point to its m=4 tensor."""
    verdict = pairing_agreement(P)
    if not verdict:
        raise ValueError(
            f"point is not in the agreement subspace: quadruple {verdict.witness} disagrees"
        )
    entries = {
        (i, j, k, l): P.entries[((i, j), (k, l))]
        for i, j, k, l in combinations(range(1, P.n + 1), 4)
    }
    return DissimTensor(P.n, 4, entries)


@dataclass(frozen=True)
class QuadrupleReport:
    """Pairing sums of one quadruple and the two equivalent tests on them."""

    quadruple: tuple[int, int, int, int]
    sums: tuple[Fraction, Fraction, Fraction]
    max_attained_twice: bool
    coordinates_equal: bool

    @property
    def equivalence_holds(self) -> bool:
        return self.max_attained_twice == self.coordinates_equal


@dataclass(frozen=True)
class M4Report:
    """Per-quadruple comparison of max-twice versus coordinate agreement."""

    n: int
    quadruples: tuple[QuadrupleReport, ...]

    @property
    def all_equivalent(self) -> bool:
        return all(q.equivalence_holds for q in self.quadruples)

    @property
    def all_agreeing(self) -> bool:
        return all(q.coordinates_equal for q in self.quadruples)


def verify_m4_characterization(D: DistanceMatrix) -> M4Report:
    """Report, per quadruple, the pairing sums (a, b, c), whether their
    maximum is attained twice, and whether the induced pairing
    coordinates a+min(b,c), b+min(a,c), c+min(a,b) agree.  The two tests
    are equivalent pointwise; the report exposes both so the equivalence
    is checkable."""
    reports = []
    for quad in combinations(range(1, D.n + 1), 4):
        a, b, c = sums = _pairing_sums(D.get, *quad)
        coords = (a + min(b, c), b + min(a, c), c + min(a, b))
        reports.append(
            QuadrupleReport(quad, sums, max_twice(sums), coords[0] == coords[1] == coords[2])
        )
    return M4Report(D.n, tuple(reports))


# ---------------------------------------------------------------------------
# Short operator-style synonyms

PiPoint = PairingPoint
phi_m = dissimilarity_map
phi_3 = triple_dissimilarity
invert3 = invert_triple_dissimilarity
membership3 = triple_membership
pi4 = pairing_map
in_L = pairing_agreement
p_project = project_pairings


def phi_m_with_argmin(
    D: DistanceMatrix, m: int, subset: Iterable[int]
) -> tuple[Fraction, tuple[tuple[int, ...], ...]]:
    """Short name for :func:`tour_minimizers`; ``m`` must match the subset."""
    subset = tuple(sorted(subset))
    if len(subset) != m:
        raise ValueError(f"subset has {len(subset)} elements, expected m={m}")
    return tour_minimizers(D, subset)
