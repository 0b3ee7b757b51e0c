"""Min-plus / max-plus primitives and membership predicates.

Everything here reduces to one combinatorial test: a max-plus expression
"vanishes tropically" when its maximum is attained at least twice.
``four_point_check`` and ``is_ultrametric`` apply the test to distance
matrices, ``three_term_plucker_check`` to dissimilarity tensors (for
each (m-2)-set R, the strict four-point check on L_R(i,j) = W(R+ij)).
The three-term check accepts each R with a large enough link by building
the tree of the shifted link (Buneman's theorem); smaller links, and the
first R whose build fails, run the quadruple scan, which names the
witness.

All predicates return a :class:`Verdict` rather than raising, and report
the lexicographically first violation so failures are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence


@dataclass(frozen=True)
class Verdict:
    """Outcome of a membership predicate.

    ``witness`` is the first violating index tuple in lexicographic
    order and ``values`` holds the compared quantities, so every failure
    can be recomputed from the input.  Passing verdicts carry no
    witness; ``note`` marks vacuous passes.
    """

    passed: bool
    witness: tuple | None = None
    values: tuple | None = None
    note: str | None = None

    def __bool__(self) -> bool:
        return self.passed


def max_twice(values: Sequence[Fraction]) -> bool:
    """True iff the maximum of ``values`` occurs at two or more positions."""
    if len(values) == 0:
        raise ValueError("max_twice needs a non-empty sequence")
    top = max(values)
    hits = 0
    for v in values:
        if v == top:
            hits += 1
            if hits == 2:
                return True
    return False


def _pairing_sums(get, i: int, j: int, k: int, l: int) -> tuple:
    """The sums over the pairings ij|kl, ik|jl and il|jk, in that order."""
    return (
        get(i, j) + get(k, l),
        get(i, k) + get(j, l),
        get(i, l) + get(j, k),
    )


def _first_unbalanced(get, quads) -> Verdict:
    """Fail at the first quadruple whose largest pairing sum under ``get``
    is attained only once, with its three sums; pass if there is none."""
    for q in quads:
        vals = _pairing_sums(get, *q)
        if not max_twice(vals):
            return Verdict(False, witness=q, values=vals)
    return Verdict(True)


def four_point_check(D, strict: bool = False) -> Verdict:
    """Check the four-point condition on a distance matrix.

    For every quadruple the maximum of the three pairing sums
    ``D(i,j)+D(k,l), D(i,k)+D(j,l), D(i,l)+D(j,k)`` must be attained at
    least twice.  With ``strict=False`` quadruples may repeat elements,
    which folds in non-negativity and the triangle inequality (the full
    tree-metric test); ``strict=True`` restricts to distinct quadruples
    (the tropical-hypersurface reading, which tolerates negative
    entries).
    """
    if strict and D.n < 4:
        return Verdict(True, note=f"no quadruple of distinct labels for n={D.n}; vacuous")
    labels = range(1, D.n + 1)
    quads = combinations(labels, 4) if strict else combinations_with_replacement(labels, 4)
    return _first_unbalanced(D.get, quads)


def is_ultrametric(D) -> Verdict:
    """Check that D is an ultrametric.

    Entries must be non-negative and in every triple the maximum of
    ``D(i,j), D(i,k), D(j,k)`` must be attained at least twice
    (equivalently ``D(i,j) <= max(D(i,k), D(j,k))``).
    """
    labels = range(1, D.n + 1)
    for i, j in combinations(labels, 2):
        v = D.get(i, j)
        if v < 0:
            return Verdict(False, witness=(i, j), values=(v,), note="negative entry")
    for i, j, k in combinations(labels, 3):
        vals = (D.get(i, j), D.get(i, k), D.get(j, k))
        if not max_twice(vals):
            return Verdict(False, witness=(i, j, k), values=vals)
    return Verdict(True)


# Link size (labels outside R) from which three_term_plucker_check accepts
# a link by building its tree.  Below it the C(k, 4) quadruple scan is
# faster: on m=3 tree tensors the two tie at 9 labels and the build wins
# by 12-21% at 10 and by 36-43% at 11.
_BUILD_MIN_LABELS = 10


def three_term_plucker_check(W) -> Verdict:
    """Check the three-term tropical Plucker relations on a tensor.

    For every (m-2)-subset R and distinct i<j<k<l outside R, the maximum
    of ``W(R+ij)+W(R+kl), W(R+ik)+W(R+jl), W(R+il)+W(R+jk)`` must be
    attained at least twice: per R, in lexicographic order, the strict
    four-point check on the link L_R(i,j) = W(R+ij).  With n < m+2 no
    such quadruple exists and the check passes vacuously (flagged in
    the note).

    An R whose link has at least ``_BUILD_MIN_LABELS`` labels is
    accepted by building a tree: adding C = 3*max|L_R| + 1 to every link
    entry shifts all three sums of a distinct quadruple by 2C and makes
    non-negativity and the triangle inequality hold, so L_R passes the
    strict check iff L_R + C is a tree metric (Buneman), iff cherry
    picking realizes it exactly.  Smaller links are scanned, and so is
    the first link whose build fails, to name its first violating
    quadruple.
    """
    # trees imports this module, so its tree builder is imported here.
    from .trees import DistanceMatrix, _realized

    n, m = W.n, W.m
    if n < m + 2:
        return Verdict(True, note=f"no quadruple outside an (m-2)-set for n={n}, m={m}; vacuous")
    labels = range(1, n + 1)
    for R in combinations(labels, m - 2):
        rest = [x for x in labels if x not in R]
        link = {(i, j): W.value(R + (i, j)) for i, j in combinations(rest, 2)}
        built = len(rest) >= _BUILD_MIN_LABELS
        if built:
            shift = 3 * max(abs(v) for v in link.values()) + 1
            shifted = {(a, b): link[i, j] + shift for (a, i), (b, j) in combinations(enumerate(rest, 1), 2)}
            if _realized(DistanceMatrix(len(rest), shifted)) is not None:
                continue
        verdict = _first_unbalanced(lambda i, j: link[i, j], combinations(rest, 4))
        if verdict:
            if built:
                raise RuntimeError("internal error: a link passed the scan but its tree build failed")
            continue
        return Verdict(False, witness=(R, verdict.witness), values=verdict.values)
    return Verdict(True)


def in_Tmn(W, m: int, n: int) -> Verdict:
    """Short name for :func:`three_term_plucker_check` with explicit
    dimensions; ``m`` and ``n`` must match the tensor."""
    if W.m != m or W.n != n:
        raise ValueError(
            f"tensor has m={W.m}, n={W.n} but the check was asked for m={m}, n={n}"
        )
    return three_term_plucker_check(W)
