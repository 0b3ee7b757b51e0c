"""Finite Puiseux polynomials and valuation certificates.

A :class:`PuiseuxPoly` is a finite sum of terms ``c * t^q`` with
rational coefficients and rational exponents.  The valuation is the
smallest exponent, the degree the largest.  Everything the certificate
construction produces has finite support, so no infinite tails are
modeled.

``build_certificate`` realizes the triple dissimilarity of a positively
weighted tree as the 3x3-minor valuations of a 3xn matrix: leaves are
encoded as series along an equidistant realization of the rerooted
metric, arranged in Vandermonde rows, column-scaled, and finally pushed
through the exponent substitution q -> -q/2.  ``verify_certificate``
checks the resulting minor valuations against a tensor exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .rationals import format_index_key, format_rational, parse_index_entries, parse_rational
from .tropical import Verdict
from .trees import DistanceMatrix, WeightedTree, build_equidistant, distance_matrix, serialize_newick
from .dissim import DissimTensor, reroot_ultrametric


class CertificateError(Exception):
    """Certificate construction failed (bad tree or label collision)."""


@dataclass(frozen=True)
class PuiseuxPoly:
    """Finite sum of rational-exponent terms, kept sorted and reduced.

    ``terms`` is a tuple of (exponent, coefficient) pairs with strictly
    increasing exponents and nonzero coefficients; the empty tuple is
    the zero polynomial.
    """

    terms: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self) -> None:
        for idx, (q, c) in enumerate(self.terms):
            if c == 0:
                raise ValueError("zero coefficient stored")
            if idx > 0 and self.terms[idx - 1][0] >= q:
                raise ValueError("exponents must be strictly increasing")

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Fraction, Fraction]]) -> "PuiseuxPoly":
        acc: dict[Fraction, Fraction] = {}
        for q, c in pairs:
            q = Fraction(q)
            acc[q] = acc.get(q, Fraction(0)) + Fraction(c)
        return PuiseuxPoly(tuple((q, c) for q, c in sorted(acc.items()) if c != 0))

    @staticmethod
    def zero() -> "PuiseuxPoly":
        return PuiseuxPoly(())

    @staticmethod
    def constant(c) -> "PuiseuxPoly":
        return PuiseuxPoly.from_terms([(Fraction(0), Fraction(c))])

    @staticmethod
    def monomial(coeff, exponent) -> "PuiseuxPoly":
        return PuiseuxPoly.from_terms([(Fraction(exponent), Fraction(coeff))])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def val(self):
        """Smallest exponent; +inf for the zero polynomial."""
        return self.terms[0][0] if self.terms else math.inf

    def deg(self):
        """Largest exponent; -inf for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -math.inf

    def __add__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        return PuiseuxPoly.from_terms(self.terms + other.terms)

    def __neg__(self) -> "PuiseuxPoly":
        return PuiseuxPoly(tuple((q, -c) for q, c in self.terms))

    def __sub__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        return self + (-other)

    def __mul__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        return PuiseuxPoly.from_terms(
            (q1 + q2, c1 * c2) for q1, c1 in self.terms for q2, c2 in other.terms
        )

    def substitute_power(self, r) -> "PuiseuxPoly":
        """Exponent substitution t -> t^r, i.e. q -> q*r on every term."""
        r = Fraction(r)
        if r == 0:
            raise ValueError("substitution power must be nonzero")
        return PuiseuxPoly.from_terms((q * r, c) for q, c in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for q, c in self.terms:
            if q == 0:
                bits.append(format_rational(c))
            else:
                coeff = "" if c == 1 else ("-" if c == -1 else format_rational(c) + "*")
                exp = format_rational(q) if q.denominator == 1 and q >= 0 else f"({format_rational(q)})"
                bits.append(f"{coeff}t^{exp}")
        return " + ".join(bits).replace("+ -", "- ")

    def to_json_obj(self) -> list:
        return [[format_rational(q), format_rational(c)] for q, c in self.terms]

    @classmethod
    def from_json_obj(cls, obj: Sequence) -> "PuiseuxPoly":
        return cls.from_terms((parse_rational(q), parse_rational(c)) for q, c in obj)


def _as_poly(x) -> PuiseuxPoly:
    if isinstance(x, PuiseuxPoly):
        return x
    return PuiseuxPoly.constant(x)


def det3(rows: Sequence[Sequence]) -> PuiseuxPoly:
    """Determinant of a 3x3 matrix of Puiseux polynomials (Laplace
    expansion along the first row); scalars are coerced to constants."""
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("det3 needs a 3x3 matrix")
    (a, b, c), (d, e, f), (g, h, i) = ((_as_poly(x) for x in row) for row in rows)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@dataclass(frozen=True)
class ValuationCertificate:
    """A 3xn Puiseux matrix realizing a triple dissimilarity tensor.

    ``matrix`` is the post-substitution matrix whose 3x3 minors on
    columns i,j,k have valuation minus the tensor entry on {i,j,k}.
    ``x_series`` are the leaf series before scaling and substitution,
    ``edge_labels`` the integer labels keyed by the leaf cluster below
    each edge of the equidistant realization, and ``e_value`` the chosen
    root-depth parameter.  ``tree_hash`` fingerprints the source tree.
    """

    n: int
    newick: str
    tree_hash: str
    e_value: Fraction
    edge_labels: tuple[tuple[tuple[int, ...], int], ...]
    x_series: tuple[PuiseuxPoly, ...]
    matrix: tuple[tuple[PuiseuxPoly, ...], ...]

    def minor(self, i: int, j: int, k: int) -> list[list[PuiseuxPoly]]:
        if not 1 <= i < j < k <= self.n:
            raise ValueError("minor needs 1 <= i < j < k <= n")
        return [[self.matrix[r][c - 1] for c in (i, j, k)] for r in range(3)]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "newick": self.newick,
            "tree_hash": self.tree_hash,
            "E": format_rational(self.e_value),
            "edge_labels": {format_index_key(cluster): label for cluster, label in self.edge_labels},
            "x_series": [p.to_json_obj() for p in self.x_series],
            "matrix": [[p.to_json_obj() for p in row] for row in self.matrix],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ValuationCertificate":
        needed = {"n", "newick", "tree_hash", "E", "edge_labels", "x_series", "matrix"}
        if not isinstance(obj, dict) or not needed <= set(obj):
            raise ValueError(f"certificate JSON needs keys {sorted(needed)}")
        labels = tuple((cluster, int(v)) for (cluster,), v in parse_index_entries(obj["edge_labels"]))
        return cls(
            n=obj["n"],
            newick=obj["newick"],
            tree_hash=obj["tree_hash"],
            e_value=parse_rational(obj["E"]),
            edge_labels=labels,
            x_series=tuple(PuiseuxPoly.from_json_obj(p) for p in obj["x_series"]),
            matrix=tuple(
                tuple(PuiseuxPoly.from_json_obj(p) for p in row) for row in obj["matrix"]
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ValuationCertificate":
        return cls.from_json_obj(json.loads(text))


def _rooted_edges(tree: WeightedTree, root: int) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """Edges (parent, child) in depth-first order with children ordered by
    smallest descendant leaf, plus the parent map."""
    from .trees import _min_leaf_below

    memo: dict = {}
    parent: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    stack: list[tuple[int, int | None]] = [(root, None)]
    while stack:
        node, par = stack.pop()
        if par is not None:
            edges.append((par, node))
        kids = [v for v in tree.adj[node] if v != par]
        kids.sort(key=lambda v: _min_leaf_below(tree, v, node, memo), reverse=True)
        for child in kids:
            parent[child] = node
            stack.append((child, node))
    return edges, parent


def _leaves_below(tree: WeightedTree, child: int, parent: int) -> tuple[int, ...]:
    found = []
    stack = [(child, parent)]
    while stack:
        node, par = stack.pop()
        if node <= tree.n:
            found.append(node)
        for v in tree.adj[node]:
            if v != par:
                stack.append((v, node))
    return tuple(sorted(found))


def _assemble(
    tree: WeightedTree,
    D: DistanceMatrix,
    E: Fraction,
    shifted: DistanceMatrix,
    eq: WeightedTree,
    labels: Sequence[int],
    check_degrees: bool = True,
) -> ValuationCertificate:
    n = tree.n
    root = eq.root
    dist_root: dict[int, Fraction] = {root: Fraction(0)}
    stack = [root]
    while stack:
        u = stack.pop()
        for v, w in eq.adj[u].items():
            if v not in dist_root:
                dist_root[v] = dist_root[u] + w
                stack.append(v)
    F = dist_root[1]
    height = {v: F - d for v, d in dist_root.items()}
    edges, parent = _rooted_edges(eq, root)
    if len(labels) != len(edges):
        raise CertificateError(f"need {len(edges)} edge labels, got {len(labels)}")
    label_of = dict(zip(edges, labels))

    x: list[PuiseuxPoly] = []
    for leaf in range(1, n):
        terms = []
        node = leaf
        while node != root:
            par = parent[node]
            terms.append((2 * height[par], Fraction(label_of[(par, node)])))
            node = par
        x.append(PuiseuxPoly.from_terms(terms))
    x.append(PuiseuxPoly.monomial(1, 2 * E))

    if check_degrees:
        for i, j in combinations(range(1, n + 1), 2):
            got = (x[j - 1] - x[i - 1]).deg()
            want = shifted.get(i, j)
            if got != want:
                raise CertificateError(
                    f"degree check failed for pair ({i},{j}): deg {got} vs expected {want}"
                )

    sub = Fraction(-1, 2)
    cols = []
    for i in range(1, n + 1):
        scale = PuiseuxPoly.monomial(1, 2 * (D.get(i, n) - E))
        xi = x[i - 1]
        pre = (scale, xi * scale, xi * xi * scale)
        cols.append(tuple(p.substitute_power(sub) for p in pre))
    matrix = tuple(tuple(cols[c][r] for c in range(n)) for r in range(3))

    newick = serialize_newick(tree)
    tree_hash = hashlib.sha256(newick.encode("utf-8")).hexdigest()
    clusters = tuple(
        (_leaves_below(eq, child, par), label_of[(par, child)]) for par, child in edges
    )
    return ValuationCertificate(
        n=n,
        newick=newick,
        tree_hash=tree_hash,
        e_value=E,
        edge_labels=clusters,
        x_series=tuple(x),
        matrix=matrix,
    )


def build_certificate(
    tree: WeightedTree, label_values: Sequence[int] | None = None
) -> ValuationCertificate:
    """Build a valuation certificate for a positively weighted tree.

    Pipeline: pick E = max_i D(i,n); shift the metric so leaf n sits at
    distance 2E from everything and the rest is ultrametric; realize the
    ultrametric part as a rooted equidistant tree; encode each leaf as
    the sum of labeled monomials a(e) t^(2h(e)) along its root path
    (leaf n becomes t^(2E)); form the rows (1, x_i, x_i^2); scale column
    i by t^(2(D(i,n)-E)); substitute q -> -q/2.

    Edge labels default to 1, 2, 3, ... in depth-first edge order, which
    keeps sibling leading coefficients from cancelling; the degree
    identity deg(x_j - x_i) = D'(i,j) is checked before the matrix is
    assembled, with one relabeling retry against collisions.  Explicitly
    supplied ``label_values`` are used as-is and raise on failure.
    """
    n = tree.n
    if n < 3:
        raise CertificateError("certificate needs n >= 3")
    if not tree.has_strictly_positive_weights:
        raise CertificateError("certificate needs strictly positive edge weights")
    D = distance_matrix(tree)
    E = max(D.get(i, n) for i in range(1, n))
    shifted = reroot_ultrametric(D, E)
    eq = build_equidistant(shifted.restrict(range(1, n)))
    edge_count = sum(len(nbrs) for nbrs in eq.adj.values()) // 2
    if label_values is not None:
        return _assemble(tree, D, E, shifted, eq, list(label_values))
    try:
        return _assemble(tree, D, E, shifted, eq, list(range(1, edge_count + 1)))
    except CertificateError:
        base = n + 2
        fallback = [base ** (idx + 1) for idx in range(edge_count)]
        return _assemble(tree, D, E, shifted, eq, fallback)


def verify_certificate(cert: ValuationCertificate, W: DissimTensor) -> Verdict:
    """Check -val(det of columns i,j,k) = W(i,j,k) for every triple."""
    if W.m != 3 or W.n != cert.n:
        raise ValueError(
            f"dimension mismatch: certificate is for n={cert.n}, tensor has n={W.n}, m={W.m}"
        )
    for i, j, k in combinations(range(1, cert.n + 1), 3):
        minor_val = det3(cert.minor(i, j, k)).val()
        got = -minor_val
        want = W.entries[(i, j, k)]
        if got != want:
            return Verdict(False, witness=(i, j, k), values=(got, want))
    return Verdict(True)


# ---------------------------------------------------------------------------
# Free-function synonyms for the polynomial operations

Certificate3 = ValuationCertificate
val = PuiseuxPoly.val
deg = PuiseuxPoly.deg
add = PuiseuxPoly.__add__
sub = PuiseuxPoly.__sub__
mul = PuiseuxPoly.__mul__
