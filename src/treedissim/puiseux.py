"""Finite Puiseux polynomials and valuation certificates.

A :class:`PuiseuxPoly` is a finite sum of terms ``c * t^q`` with
rational coefficients and rational exponents.  The valuation is the
smallest exponent, the degree the largest.  Everything the certificate
construction produces has finite support, so no infinite tails are
modeled.

``build_certificate`` realizes the triple dissimilarity of a positively
weighted tree as the 3x3-minor valuations of a 3xn matrix: the tree is
hung from leaf n, where a node at distance d from n sits at height
E - d; leaves are encoded as series along their paths up, arranged in
Vandermonde rows, column-scaled, and finally pushed through the
exponent substitution q -> -q/2.  ``verify_certificate``
checks the resulting minor valuations against a tensor exactly.  It
takes nothing on trust: it checks that each column of the
matrix has the form (s, s*y, s*y^2) with s a single term, and then reads
every minor's valuation off the Vandermonde factorization, from n
column scales and C(n,2) pairwise differences.  A matrix of any other
form is checked with one generic ``det3`` expansion per triple.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .rationals import _load_json, format_index_key, format_rational, parse_index_entries, parse_rational
from .tropical import Verdict
from .trees import WeightedTree, _normalized_adj, _rooted, serialize_newick
from .dissim import DissimTensor


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
        if not isinstance(obj, list) or not all(isinstance(t, list) and len(t) == 2 for t in obj):
            raise ValueError("a series must be a list of [exponent, coefficient] pairs")
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
    each edge of the tree hung from leaf n, and ``e_value`` the chosen
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
        n, series, rows = obj["n"], obj["x_series"], obj["matrix"]
        if not isinstance(n, int) or n < 3:
            raise ValueError(f"'n' must be an integer >= 3, got {n!r}")
        if not (
            isinstance(series, list)
            and len(series) == n
            and isinstance(rows, list)
            and len(rows) == 3
            and all(isinstance(row, list) and len(row) == n for row in rows)
        ):
            raise ValueError(f"certificate needs {n} x_series and a 3x{n} matrix")
        labels = []
        for (cluster,), v in parse_index_entries(obj["edge_labels"]):
            if not isinstance(v, int):
                raise ValueError(f"edge label of {format_index_key(cluster)!r} must be an integer, got {v!r}")
            labels.append((cluster, v))
        return cls(
            n=n,
            newick=obj["newick"],
            tree_hash=obj["tree_hash"],
            e_value=parse_rational(obj["E"]),
            edge_labels=tuple(labels),
            x_series=tuple(PuiseuxPoly.from_json_obj(p) for p in series),
            matrix=tuple(tuple(PuiseuxPoly.from_json_obj(p) for p in row) for row in rows),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ValuationCertificate":
        return cls.from_json_obj(_load_json(text))


def build_certificate(
    tree: WeightedTree, label_values: Sequence[int] | None = None
) -> ValuationCertificate:
    """Build a valuation certificate for a positively weighted tree.

    Pipeline: hang the tree from leaf n, without unlabeled degree-2 or
    dangling nodes, so that d(n, i) = D(i,n) for every leaf i; pick
    E = max_i D(i,n).  This is the equidistant tree of the rerooted metric
    D'(i,j) = 2E + D(i,j) - D(i,n) - D(j,n), with node v at height
    h(v) = E - d(n,v).  Encode each leaf as the sum of labeled monomials
    a(e) t^(2h(e)) along its path up to leaf n's neighbor, h(e) the
    height of e's upper end (leaf n becomes t^(2E)); form the rows
    (1, x_i, x_i^2); scale column i by t^(2(D(i,n)-E)); substitute q -> -q/2.

    The minors need deg(x_j - x_i) = D'(i,j) for every pair.  The terms
    above the meet of i and j cancel, and what remains leads with
    (a(e_j) - a(e_i)) t^(2h(meet)), e_i and e_j the meet's child edges
    towards i and j; t^(2E) outranks every other x_i because leaf n's
    edge is positive.  So the identity holds exactly when sibling edges
    carry distinct labels.  Labels default to 1, 2, 3, ... in depth-first
    edge order, children ordered by smallest leaf; supplied
    ``label_values`` are used as-is and raise :class:`CertificateError`
    when two sibling edges share one.
    """
    n = tree.n
    if n < 3:
        raise CertificateError("certificate needs n >= 3")
    if not tree.has_strictly_positive_weights:
        raise CertificateError("certificate needs strictly positive edge weights")
    hung = WeightedTree(n, _normalized_adj(tree.adj, n))
    preorder, parent, kids = _rooted(hung, n)
    below = preorder[2:]  # the labeled edges are (parent[v], v)
    labels = list(range(1, len(below) + 1) if label_values is None else label_values)
    if len(labels) != len(below):
        raise CertificateError(f"need {len(below)} edge labels, got {len(labels)}")
    label_of = dict(zip(below, labels))
    leaves_below: dict[int, tuple[int, ...]] = {}
    for v in reversed(below):
        leaves_below[v] = tuple(sorted(leaf for k in kids[v] for leaf in leaves_below[k])) or (v,)
    dist = {n: Fraction(0)}  # d(n, v)
    for v in preorder[1:]:
        dist[v] = dist[parent[v]] + hung.adj[parent[v]][v]
    E = max(dist[i] for i in range(1, n))
    path = {preorder[1]: ()}  # series terms along v's path up to the root
    first_with = {}  # (node, label) -> its first child edge with that label
    for v in below:
        u, label = parent[v], label_of[v]
        if (sibling := first_with.setdefault((u, label), v)) != v:
            i, j = leaves_below[sibling][0], leaves_below[v][0]
            raise CertificateError(f"edge label {label!r} is on two sibling edges: x_{j} - x_{i} drops its leading term")
        path[v] = path[u] + ((2 * (E - dist[u]), label),)
    x = [PuiseuxPoly.from_terms(path[leaf]) for leaf in range(1, n)] + [PuiseuxPoly.monomial(1, 2 * E)]

    sub = Fraction(-1, 2)
    cols = []
    for i in range(1, n + 1):
        scale = PuiseuxPoly.monomial(1, 2 * (dist[i] - E))
        xi = x[i - 1]
        pre = (scale, xi * scale, xi * xi * scale)
        cols.append(tuple(p.substitute_power(sub) for p in pre))
    matrix = tuple(tuple(cols[c][r] for c in range(n)) for r in range(3))

    # hashlib loads OpenSSL, which only certificates need
    import hashlib

    newick = serialize_newick(tree)
    return ValuationCertificate(
        n=n,
        newick=newick,
        tree_hash=hashlib.sha256(newick.encode("utf-8")).hexdigest(),
        e_value=E,
        edge_labels=tuple((leaves_below[v], label_of[v]) for v in below),
        x_series=tuple(x),
        matrix=matrix,
    )


def _vandermonde_column(column: Sequence[PuiseuxPoly]) -> tuple[Fraction, PuiseuxPoly] | None:
    """``(val s, y)`` when ``column`` is ``(s, s*y, s*y^2)`` with ``s`` a
    single term, else None."""
    s, sy, syy = column
    if len(s.terms) != 1:
        return None
    ((q, c),) = s.terms
    y = PuiseuxPoly(tuple((e - q, a / c) for e, a in sy.terms))
    return (q, y) if y * sy == syy else None


def verify_certificate(cert: ValuationCertificate, W: DissimTensor) -> Verdict:
    """Check -val(det of columns i,j,k) = W(i,j,k) for every triple.

    Only ``cert.matrix`` is read, and its structure is checked, not
    assumed.  When every column is ``(s, s*y, s*y^2)`` with ``s`` a
    single term, the minor on columns i,j,k is the Vandermonde product
    ``s_i s_j s_k (y_j - y_i)(y_k - y_i)(y_k - y_j)``, so its valuation
    is a sum of three ``val s`` and three pairwise ``val(y_b - y_a)``,
    each computed once; a vanishing difference makes the minor zero.
    Otherwise every minor is expanded with :func:`det3`.  Both paths
    visit the triples in lexicographic order and return the same
    witness and values.
    """
    if W.m != 3 or W.n != cert.n:
        raise ValueError(
            f"dimension mismatch: certificate is for n={cert.n}, tensor has n={W.n}, m={W.m}"
        )
    columns = [_vandermonde_column(col) for col in zip(*cert.matrix)]
    half = None
    if all(col is not None for col in columns):
        # half[a, b] = val(y_b - y_a) + (val s_a + val s_b) / 2, so the
        # minor's valuation is half[i, j] + half[i, k] + half[j, k]
        half = {}
        for (a, (qa, ya)), (b, (qb, yb)) in combinations(enumerate(columns, 1), 2):
            gap = (yb - ya).val()
            half[a, b] = gap if gap == math.inf else gap + (qa + qb) / 2
    for i, j, k in combinations(range(1, cert.n + 1), 3):
        if half is None:
            got = -det3(cert.minor(i, j, k)).val()
        else:
            parts = (half[i, j], half[i, k], half[j, k])
            got = -math.inf if math.inf in parts else -sum(parts)
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
