"""Weighted-tree data model, Newick I/O, distances, and constructions.

Trees carry leaf labels 1..n (always degree-1 nodes) with exact rational
edge weights.  Internal node identifiers are arbitrary integers larger
than n.  The module provides:

- Newick parsing/serialization with exact branch lengths,
- leaf-to-leaf distance matrices and the minimal-spanning-subtree
  (Steiner) weight oracle,
- subtree contraction, random generation, topology enumeration,
- exact reconstruction of a tree from its distance matrix by cherry
  picking, the one tree builder here (equidistant realizations of
  ultrametrics use it through an outgroup leaf).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .rationals import (
    _read_subset_table,
    checked_table,
    format_index_key,
    format_rational,
    parse_rational,
)
from .tropical import Verdict, four_point_check, is_ultrametric


class TreeError(Exception):
    """Structural problem with a tree or an operation on one."""


class NewickError(TreeError):
    """Malformed Newick input; carries the offending position when known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)


class FourPointViolation(TreeError):
    """Raised when a matrix that must be a tree metric is not one."""

    def __init__(self, verdict: Verdict):
        self.verdict = verdict
        super().__init__(
            f"four-point condition fails at {verdict.witness}: values {verdict.values}"
        )


class UltrametricViolation(TreeError):
    """Raised when a matrix that must be ultrametric is not."""

    def __init__(self, verdict: Verdict):
        self.verdict = verdict
        super().__init__(
            f"ultrametric condition fails at {verdict.witness}: values {verdict.values}"
        )


@dataclass
class WeightedTree:
    """Tree on leaves 1..n with rational edge weights.

    ``adj`` is a symmetric adjacency map ``node -> {neighbor: weight}``.
    Leaves are exactly the nodes 1..n and must have degree 1; internal
    nodes may have any identifier above n and any degree (callers that
    need "no degree-2 vertices" check for themselves).  ``root`` is
    optional; when set, serialization preserves it.
    """

    n: int
    adj: dict[int, dict[int, Fraction]]
    root: int | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise TreeError("a tree needs at least 2 leaves")
        self.adj = {u: {v: Fraction(w) for v, w in nbrs.items()} for u, nbrs in self.adj.items()}
        nodes = set(self.adj)
        edge_ends = 0
        for u, nbrs in self.adj.items():
            for v, w in nbrs.items():
                if v not in self.adj or self.adj[v].get(u) != w:
                    raise TreeError(f"adjacency is not symmetric at edge {u}-{v}")
                if w < 0:
                    raise TreeError(f"negative weight on edge {u}-{v}")
                edge_ends += 1
        if edge_ends != 2 * (len(nodes) - 1):
            raise TreeError("edge count does not match a tree")
        seen = {next(iter(nodes))}
        stack = list(seen)
        while stack:
            u = stack.pop()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != nodes:
            raise TreeError("tree is not connected")
        for leaf in range(1, self.n + 1):
            if leaf not in nodes:
                raise TreeError(f"missing leaf {leaf}")
            if len(self.adj[leaf]) != 1:
                raise TreeError(f"leaf {leaf} must have degree 1")
        for u in nodes:
            if u > self.n and len(self.adj[u]) == 0:
                raise TreeError(f"isolated internal node {u}")
        if self.root is not None and self.root not in nodes:
            raise TreeError(f"root {self.root} is not a node of the tree")

    @property
    def nodes(self) -> list[int]:
        return sorted(self.adj)

    def edges(self) -> Iterator[tuple[int, int, Fraction]]:
        """Yield (u, v, weight) with u < v, in sorted order."""
        for u in sorted(self.adj):
            for v in sorted(self.adj[u]):
                if u < v:
                    yield u, v, self.adj[u][v]

    def degree(self, node: int) -> int:
        return len(self.adj[node])

    @property
    def total_weight(self) -> Fraction:
        return sum((w for _, _, w in self.edges()), Fraction(0))

    @property
    def has_strictly_positive_weights(self) -> bool:
        return all(w > 0 for _, _, w in self.edges())


@dataclass
class DistanceMatrix:
    """Symmetric rational map on pairs from [n] with zero diagonal.

    Entries are keyed on ordered pairs (i, j) with i < j; ``get``
    handles both orders and the diagonal.  Entries may be negative (raw
    dissimilarities); predicates in :mod:`treedissim.tropical` decide
    metric properties.
    """

    n: int
    entries: dict[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("a distance matrix needs n >= 2")
        self.entries = checked_table(
            self.entries,
            [(self.n, 2)],
            lambda: combinations(range(1, self.n + 1), 2),
            f"pairs i<j from 1..{self.n}",
        )

    def get(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        return self.entries[(i, j) if i < j else (j, i)]

    def restrict(self, labels: Iterable[int]) -> "DistanceMatrix":
        """Submatrix on the given labels, relabeled 1..k in sorted order."""
        labs = sorted(set(labels))
        if len(labs) < 2:
            raise ValueError("restriction needs at least 2 labels")
        if labs[0] < 1 or labs[-1] > self.n:
            raise ValueError("labels out of range")
        pos = {lab: idx + 1 for idx, lab in enumerate(labs)}
        entries = {
            (pos[a], pos[b]): self.get(a, b) for a, b in combinations(labs, 2)
        }
        return DistanceMatrix(len(labs), entries)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "entries": {format_index_key(key): format_rational(v) for key, v in self.entries.items()},
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DistanceMatrix":
        if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
            raise ValueError("distance matrix JSON needs keys 'n' and 'entries'")
        n = obj["n"]
        if not isinstance(n, int):
            raise ValueError("'n' must be an integer")
        # __post_init__ checks that the keys are exactly the pairs i<j.
        entries = _read_subset_table(obj["entries"], n, 2)
        return cls(n, entries)


@dataclass(frozen=True)
class Contraction:
    """Result of collapsing the minimal subtree over a leaf subset.

    ``tree`` is relabeled to leaves 1..n'; kept original leaves map
    through ``label_map`` and the collapsed point carries ``new_label``
    (always n').  Iterating yields (tree, weight) for convenience.
    """

    tree: WeightedTree
    weight: Fraction
    new_label: int
    label_map: dict[int, int]

    def __iter__(self):
        yield self.tree
        yield self.weight


# ---------------------------------------------------------------------------
# Newick


_SPACE_RE = re.compile(r"\s*")
_LABEL_RE = re.compile(r"[0-9]+")
_NUM_RE = re.compile(r"[+-]?(?:\d+/\d+|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)", re.ASCII)


def parse_newick(text: str, rooted: bool = False) -> WeightedTree:
    """Parse a Newick string with integer leaf labels 1..n.

    Leaf labels are ASCII decimal digits.  Branch lengths must be exact
    rationals ("p/q", or decimals with an optional exponent, as read by
    :func:`~treedissim.rationals.parse_rational`); missing lengths
    default to 0.  With ``rooted=False`` a degree-2 top node is
    suppressed (unrooted reading); with ``rooted=True`` the top node is
    kept and recorded as the root.  Malformed input raises
    :class:`NewickError`.
    """

    def skip(pos: int) -> int:
        return _SPACE_RE.match(text, pos).end()

    # One pass builds the adjacency.  The k-th '(' opens group -k; it is
    # renamed n + k once n is known, so ids follow the order of '('.
    adj: dict[int, dict[int, Fraction]] = {}
    seen: set[int] = set()
    repeated: set[int] = set()
    open_groups: list[list[int]] = []  # [group id, position of '(', children so far]
    groups = 0
    pos = skip(0)
    while True:
        if text.startswith("(", pos):
            groups += 1
            open_groups.append([-groups, pos, 0])
            adj[-groups] = {}
            pos = skip(pos + 1)
            continue
        match = _LABEL_RE.match(text, pos)
        if match is None:
            raise NewickError("expected a leaf label or '('", pos)
        try:
            node = int(match.group())
        except ValueError:  # more digits than int() converts
            raise NewickError("leaf label is too long", pos) from None
        if node < 1:
            raise NewickError("leaf labels must be positive integers", pos)
        (repeated if node in seen else seen).add(node)
        adj.setdefault(node, {})
        pos = skip(match.end())
        # node is finished: read its length, attach it, and close every
        # group that ends here
        while True:
            weight = Fraction(0)
            if text.startswith(":", pos):
                pos = skip(pos + 1)
                match = _NUM_RE.match(text, pos)
                if match is None:
                    raise NewickError("expected a branch length", pos)
                try:
                    weight = parse_rational(match.group())
                except ValueError:
                    raise NewickError("invalid branch length", pos) from None
                if weight < 0:
                    raise NewickError("negative branch length", pos)
                pos = skip(match.end())
            if not open_groups:
                break
            group = open_groups[-1]
            group[2] += 1
            adj[group[0]][node] = weight
            adj[node][group[0]] = weight
            if text.startswith(",", pos):
                pos = skip(pos + 1)
                break
            if not text.startswith(")", pos):
                raise NewickError("expected ',' or ')'", pos)
            node, start, children = open_groups.pop()
            if children < 2:
                raise NewickError("a group needs at least two children", start)
            pos = skip(pos + 1)
        if not open_groups:
            break
    if not text.startswith(";", pos):
        raise NewickError("expected ';'", pos)
    pos = skip(pos + 1)
    if pos != len(text):
        raise NewickError("unexpected trailing characters", pos)
    if node > 0:
        raise NewickError("a tree needs at least two leaves")
    if repeated:
        raise NewickError(f"duplicate leaf label {min(repeated)}")
    n = len(seen)
    if max(seen) != n:
        missing = min(set(range(1, n + 1)) - seen)
        raise NewickError(f"leaf labels must be exactly 1..{n}; {missing} is missing")

    def final(u: int) -> int:
        return u if u > 0 else n - u

    adj = {final(u): {final(v): w for v, w in nbrs.items()} for u, nbrs in adj.items()}
    root: int | None = final(node)
    if not rooted:
        if len(adj[root]) == 2:
            _splice(adj, root)
        root = None
    return WeightedTree(n, adj, root)


def _splice(adj: dict[int, dict[int, Fraction]], u: int) -> None:
    """Remove the degree-2 node ``u`` from ``adj`` in place, joining its
    two neighbors by one edge whose weight is the sum of the two."""
    (a, wa), (b, wb) = sorted(adj.pop(u).items())
    del adj[a][u]
    del adj[b][u]
    adj[a][b] = adj[b][a] = wa + wb


def _rooted(
    tree: WeightedTree, root: int
) -> tuple[list[int], dict[int, int | None], dict[int, list[int]]]:
    """Hang ``tree`` from ``root``: preorder, parent map and children.

    ``kids[u]`` lists the children of u ordered by the smallest leaf
    below each, and the preorder visits them in that order; this is the
    one place that order is decided.  Iterative, so depth is unbounded.
    """
    parent: dict[int, int | None] = {root: None}
    bfs = [root]
    for u in bfs:
        for v in tree.adj[u]:
            if v != parent[u]:
                parent[v] = u
                bfs.append(v)
    kids: dict[int, list[int]] = {u: [] for u in bfs}
    low: dict[int, int] = {}
    for u in reversed(bfs):
        below = kids[u]
        below.sort(key=low.__getitem__)
        low[u] = min(u, low[below[0]]) if below else u
        if parent[u] is not None:
            kids[parent[u]].append(u)
    preorder: list[int] = []
    stack = [root]
    while stack:
        u = stack.pop()
        preorder.append(u)
        stack.extend(reversed(kids[u]))
    return preorder, parent, kids


def serialize_newick(tree: WeightedTree) -> str:
    """Serialize a tree to Newick with exact rational branch lengths.

    A rooted tree is written from its root.  Unrooted trees get a
    canonical form: written from the internal neighbor of leaf 1 with
    children everywhere ordered by smallest descendant leaf, so equal
    trees produce identical strings.
    """
    if tree.root is not None and tree.degree(tree.root) >= 2:
        start = tree.root
    elif tree.n == 2:
        return f"(1:0,2:{format_rational(tree.adj[1][2])});"
    else:
        start = next(iter(tree.adj[1]))
    preorder, _, kids = _rooted(tree, start)
    text: dict[int, str] = {}
    for u in reversed(preorder):
        if kids[u]:
            inner = ",".join(f"{text.pop(v)}:{format_rational(tree.adj[u][v])}" for v in kids[u])
            text[u] = f"({inner})"
        else:
            text[u] = str(u)
    return text[start] + ";"


# ---------------------------------------------------------------------------
# Distances and the Steiner oracle


def distance_matrix(tree: WeightedTree) -> DistanceMatrix:
    """Leaf-to-leaf path lengths as a :class:`DistanceMatrix`."""
    entries: dict[tuple[int, int], Fraction] = {}
    for i in range(1, tree.n + 1):
        dist = {i: Fraction(0)}
        stack = [i]
        while stack:
            u = stack.pop()
            for v, w in tree.adj[u].items():
                if v not in dist:
                    dist[v] = dist[u] + w
                    stack.append(v)
        for j in range(i + 1, tree.n + 1):
            entries[(i, j)] = dist[j]
    return DistanceMatrix(tree.n, entries)


def _steiner_edges(tree: WeightedTree, V: Iterable[int]) -> list[tuple[int, int]]:
    """Edges of the minimal subtree spanning leaf set V, as (child, parent)."""
    vbit = 0
    for leaf in V:
        vbit |= 1 << (leaf - 1)
    order, parent, _ = _rooted(tree, next(iter(tree.adj)))
    below = {u: (1 << (u - 1)) if u <= tree.n else 0 for u in order}
    for u in reversed(order[1:]):
        below[parent[u]] |= below[u]
    picked = []
    for u in order[1:]:
        b = below[u] & vbit
        if b != 0 and b != vbit:
            picked.append((u, parent[u]))
    return picked


def steiner_weight(tree: WeightedTree, V: Iterable[int]) -> Fraction:
    """Weight of the minimal subtree of ``tree`` containing leaf set V.

    This edge-split computation (an edge contributes iff both of its
    sides contain elements of V) is the independent oracle for the
    tour-minimum dissimilarity formula.
    """
    V = set(V)
    if len(V) < 2:
        raise ValueError("steiner_weight needs at least two leaves")
    if not V <= set(range(1, tree.n + 1)):
        raise ValueError(f"leaf subset out of range 1..{tree.n}")
    return sum(
        (tree.adj[u][p] for u, p in _steiner_edges(tree, V)), Fraction(0)
    )


# ---------------------------------------------------------------------------
# Contraction


def contract_subtree(tree: WeightedTree, R: Iterable[int]) -> Contraction:
    """Collapse the minimal subtree over leaf set R to a single leaf.

    Returns the contracted tree (relabeled to 1..n'), the weight of the
    collapsed subtree, the label of the new leaf, and the map from kept
    original leaves to their new labels.  The defining identity, with
    W the collapsed weight, is
    ``steiner(T, R + {i,j}) = steiner(T', {R', i', j'}) + W``.
    """
    R = sorted(set(R))
    if not R:
        raise ValueError("R must be non-empty")
    if not set(R) <= set(range(1, tree.n + 1)):
        raise ValueError(f"R must be a subset of the leaves 1..{tree.n}")
    if len(R) == tree.n:
        raise ValueError("cannot contract the entire leaf set")

    if len(R) == 1:
        inside = {R[0]}
        weight = Fraction(0)
    else:
        edges = _steiner_edges(tree, R)
        inside = {u for e in edges for u in e}
        weight = sum((tree.adj[u][p] for u, p in edges), Fraction(0))

    COLLAPSED = -1
    PENDANT = -2
    adj: dict[int, dict[int, Fraction]] = {COLLAPSED: {}}
    for u in tree.adj:
        if u not in inside:
            adj.setdefault(u, {})
    for u, nbrs in tree.adj.items():
        for v, w in nbrs.items():
            if u in inside and v in inside:
                continue
            if u in inside:
                continue  # handled from the outside endpoint
            if v in inside:
                adj[u][COLLAPSED] = w
                adj[COLLAPSED][u] = w
            else:
                adj[u][v] = w

    if len(adj[COLLAPSED]) == 1:
        collapsed_leaf = COLLAPSED
    else:
        adj[PENDANT] = {COLLAPSED: Fraction(0)}
        adj[COLLAPSED][PENDANT] = Fraction(0)
        collapsed_leaf = PENDANT

    kept = [l for l in range(1, tree.n + 1) if l not in set(R)]
    new_n = len(kept) + 1
    mapping = {leaf: idx + 1 for idx, leaf in enumerate(kept)}
    rename = dict(mapping)
    rename[collapsed_leaf] = new_n
    internals = sorted(u for u in adj if u not in rename)
    for offset, u in enumerate(internals):
        rename[u] = new_n + 1 + offset
    new_adj = {
        rename[u]: {rename[v]: w for v, w in nbrs.items()} for u, nbrs in adj.items()
    }
    contracted = WeightedTree(new_n, new_adj)
    return Contraction(contracted, weight, new_n, mapping)


# ---------------------------------------------------------------------------
# Generation and enumeration


def _default_weight_sampler(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 24), rng.randint(1, 4))


def random_tree(
    n: int,
    seed: int,
    shape: str = "uniform-topology",
    weight_sampler: Callable[[random.Random], Fraction] | None = None,
) -> WeightedTree:
    """Deterministic random binary tree on leaves 1..n.

    ``uniform-topology`` draws the topology uniformly over all unrooted
    binary shapes (iterative insertion of each leaf into a uniformly
    chosen edge); ``caterpillar`` builds the path shape.  Weights come
    from ``weight_sampler(rng)`` (strictly positive rationals by
    default) and are assigned in sorted edge order.
    """
    if n < 3:
        raise TreeError("random_tree needs n >= 3")
    rng = random.Random(seed)
    if shape == "uniform-topology":
        edges: list[tuple[int, int]] = [(1, n + 1), (2, n + 1), (3, n + 1)]
        for k in range(4, n + 1):
            u, v = edges.pop(rng.randrange(len(edges)))
            mid = n + k - 2
            edges.extend([(u, mid), (v, mid), (k, mid)])
    elif shape == "caterpillar":
        edges = [(1, n + 1), (2, n + 1)]
        for i in range(2, n - 1):
            edges.extend([(n + i - 1, n + i), (i + 1, n + i)])
        edges.append((n, 2 * n - 2))
    else:
        raise ValueError(f"unknown shape {shape!r}")
    sampler = weight_sampler or _default_weight_sampler
    # one draw per edge in sorted edge order: seeded trees depend on it
    ordered = sorted(tuple(sorted(e)) for e in edges)
    return _from_edges(n, [(u, v, sampler(rng)) for u, v in ordered])


def _from_edges(n: int, weighted_edges: Iterable[tuple[int, int, Fraction]]) -> WeightedTree:
    """The tree on leaves 1..n with the given (u, v, weight) edges."""
    adj: dict[int, dict[int, Fraction]] = {}
    for u, v, w in weighted_edges:
        adj.setdefault(u, {})[v] = w
        adj.setdefault(v, {})[u] = w
    return WeightedTree(n, adj)


# Largest n that enumerate_topologies accepts: (2*8-5)!! = 10395 trees.
_TOPOLOGY_CAP = 8


class TopologyIterator:
    """Lazy enumeration of unrooted leaf-labeled binary topologies.

    Iterating yields each of the (2n-5)!! topologies on leaves 1..n
    exactly once, with unit edge weights.
    """

    def __init__(self, n: int):
        if n < 3 or n > _TOPOLOGY_CAP:
            raise ValueError(f"n must be between 3 and {_TOPOLOGY_CAP}")
        self.n = n

    def _grow(self, k: int) -> Iterator[list[tuple[int, int]]]:
        n = self.n
        if k == 3:
            yield [(1, n + 1), (2, n + 1), (3, n + 1)]
            return
        mid = n + k - 2
        for edges in self._grow(k - 1):
            for idx in range(len(edges)):
                u, v = edges[idx]
                yield edges[:idx] + edges[idx + 1 :] + [(u, mid), (v, mid), (k, mid)]

    def __iter__(self) -> Iterator[WeightedTree]:
        one = Fraction(1)
        for edges in self._grow(self.n):
            yield _from_edges(self.n, [(u, v, one) for u, v in edges])


def enumerate_topologies(n: int) -> TopologyIterator:
    """Every unrooted leaf-labeled binary topology on 1..n, once each.

    Topologies are generated by iteratively inserting leaf k into each
    edge of every topology on k-1 leaves, so the count over n leaves is
    the double factorial 1*3*5*...*(2n-5).  Edges carry unit weights.
    n must lie in 3..8; the upper cap guards against accidentally huge
    enumerations.
    """
    return TopologyIterator(n)


# ---------------------------------------------------------------------------
# Reconstruction from a tree metric


def _is_cherry(get: Callable[[int, int], Fraction], a: int, b: int, rest: Sequence[int]) -> bool:
    """True iff get(a,c) - get(b,c) is the same for every c in ``rest``:
    all other paths then enter the a-b path at one common point."""
    delta = get(a, rest[0]) - get(b, rest[0])
    return all(get(a, c) - get(b, c) == delta for c in rest[1:])


def _normalized_adj(adj: dict[int, dict[int, Fraction]], n: int) -> dict[int, dict[int, Fraction]]:
    """Contract zero-weight edges between unlabeled nodes, drop unlabeled
    degree-1 nodes and suppress unlabeled degree-2 nodes; leaves 1..n are
    never touched.  One worklist pass: a node is queued again only when
    its own neighborhood changed."""
    adj = {u: dict(nbrs) for u, nbrs in adj.items()}
    work = [u for u in adj if u > n]
    while work:
        u = work.pop()
        if u not in adj:
            continue
        nbrs = adj[u]
        if len(nbrs) <= 2:
            work.extend(v for v in nbrs if v > n)
            if len(nbrs) == 2:
                _splice(adj, u)
            else:
                (v,) = nbrs
                del adj[v][u], adj[u]
            continue
        zero = [v for v, w in nbrs.items() if v > n and w == 0]
        if zero:
            work.append(u)
        while zero:
            v = zero.pop()
            del nbrs[v]
            for x, w in adj.pop(v).items():
                if x != u:
                    del adj[x][v]
                    nbrs[x] = adj[x][u] = w
                    if x > n and w == 0:
                        zero.append(x)
    return adj


def _cherry_tree(D: DistanceMatrix) -> WeightedTree:
    """Cherry picking: at each step the lexicographically first pair
    (a, b) whose difference D(a,c) - D(b,c) is constant over all other
    active labels is merged at its meet point, and zero-length internal
    edges are contracted at the end.  Raises :class:`TreeError` when no
    pair qualifies or a weight comes out negative.
    """
    n = D.n
    dist: dict[tuple[int, int], Fraction] = dict(D.entries)

    def dget(a: int, b: int) -> Fraction:
        return dist[(a, b) if a < b else (b, a)]

    active = list(range(1, n + 1))
    adj: dict[int, dict[int, Fraction]] = {i: {} for i in range(1, n + 1)}
    next_id = n + 1
    while len(active) > 2:
        pair = None
        for a, b in combinations(sorted(active), 2):
            if _is_cherry(dget, a, b, [c for c in active if c != a and c != b]):
                pair = (a, b)
                break
        if pair is None:
            raise TreeError("no pair of labels is a cherry")
        a, b = pair
        c0 = next(c for c in active if c != a and c != b)
        wa = (dget(a, b) + dget(a, c0) - dget(b, c0)) / 2
        wb = dget(a, b) - wa
        u = next_id
        next_id += 1
        adj[u] = {a: wa, b: wb}
        adj[a][u] = wa
        adj[b][u] = wb
        for c in active:
            if c not in (a, b):
                dist[(c, u) if c < u else (u, c)] = dget(a, c) - wa
        active = [c for c in active if c not in (a, b)] + [u]
    x, y = active
    w = dget(x, y)
    adj[x][y] = w
    adj[y][x] = w
    return WeightedTree(n, _normalized_adj(adj, n))


def _realized(D: DistanceMatrix) -> WeightedTree | None:
    """The cherry-picked tree if ``distance_matrix(tree) == D``, else
    None.  The exact check is the acceptance proof."""
    try:
        tree = _cherry_tree(D)
    except TreeError:
        return None
    return tree if distance_matrix(tree) == D else None


def reconstruct_tree(D: DistanceMatrix) -> WeightedTree:
    """Recover the unique tree realizing a tree metric, by cherry picking.

    A tree metric is exactly a matrix that some non-negatively weighted
    tree realizes, so D is accepted when the cherry-picked tree passes
    the exact check ``distance_matrix(tree) == D``.  The output has no
    unlabeled degree-2 nodes.  Otherwise the (non-strict) four-point
    scan, which subsumes non-negativity and the triangle inequality,
    names the lexicographically first violating quadruple in the raised
    :class:`FourPointViolation`; it runs only on rejection.
    """
    tree = _realized(D)
    if tree is not None:
        return tree
    verdict = four_point_check(D, strict=False)
    if verdict:
        raise RuntimeError("internal error: cherry picking did not realize a tree metric")
    raise FourPointViolation(verdict)


def build_equidistant(D: DistanceMatrix) -> WeightedTree:
    """Realize an ultrametric by a rooted tree with equal root-leaf paths.

    An outgroup leaf n+1 at distance M = max D from every leaf makes D a
    tree metric (the rerooting of :func:`~treedissim.dissim.reroot_ultrametric`
    read backwards).  The tree :func:`reconstruct_tree` builds for it,
    rooted at the outgroup's neighbor once the outgroup is removed, is
    the result: simultaneous merges form one multifurcation, every leaf
    sits M/2 below the root, and its distance matrix is D.
    """
    verdict = is_ultrametric(D)
    if not verdict:
        raise UltrametricViolation(verdict)
    n = D.n
    top = max(D.entries.values())
    outgroup = {(i, n + 1): top for i in range(1, n + 1)}
    adj = reconstruct_tree(DistanceMatrix(n + 1, {**D.entries, **outgroup})).adj
    (root,) = adj.pop(n + 1)
    del adj[root][n + 1]
    return WeightedTree(n, adj, root=root)


def same_tree(a: WeightedTree, b: WeightedTree) -> bool:
    """Equality of weighted trees as unrooted leaf-labeled objects.

    Both trees are normalized (zero-weight unlabeled edges contracted,
    unlabeled degree-2 nodes suppressed) and compared via canonical
    Newick strings.
    """
    if a.n != b.n:
        return False

    def canon(t: WeightedTree) -> str:
        return serialize_newick(WeightedTree(t.n, _normalized_adj(t.adj, t.n)))

    return canon(a) == canon(b)
