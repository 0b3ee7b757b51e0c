"""Seeded inputs, items and correctness checks for the benchmark workloads.

Every workload is a closed loop with one client: the benchmark runs one
item at a time in its own process and starts the next item when the last
one returns.  Items come in decks.  A deck is a fixed list of item
classes (sizes, shapes, weight kinds, member or not), so every run holds
the same mix and p50 and p90 fall inside a class instead of on the
boundary between two.  Deck number ``d`` of seed ``s`` is made from
``random.Random(f"{s}/{workload}/{d}")`` by the generator below, which
does not call the library: the library sees only the Newick text and
JSON made here, and a change to the library cannot change the inputs.

Why each workload exists and which module it loads:

- ``tensor-forward``: Newick -> distance matrix -> ``phi_m`` for m=4..7
  -> JSON.  Loads the ``dissim`` tour/DP kernel; ``tropical`` and
  ``puiseux`` stay idle.  Shapes and denominators are mixed because the
  exact-integer kernel and the circular-order fast paths depend on them.
- ``membership-decide``: tensor JSON -> ``membership3`` with its default
  cross-check.  Members load ``tropical`` (the three-term check) and
  ``trees.reconstruct_tree`` and set p90; the cheap non-members set p50.
- ``certificate-roundtrip``: build, serialize, parse and verify a
  certificate, then verify a copy with a lex-late entry bumped.  Loads
  ``puiseux``; the failing verify keeps the reject path exact.
- ``cli-pipeline``: ``treedissim.cli.main`` on files, with ``--jobs 2``
  wherever a subcommand takes it.  The only workload that loads ``cli``
  (file and JSON I/O, process fan-out).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

# ---------------------------------------------------------------------------
# Generator: trees, distances and JSON, independent of the library

# Distinct primes near 10**6, so the common denominator of a subset grows
# with every edge on its paths.
LARGE_PRIMES = (999983, 1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117)


def small_weight(rng: random.Random) -> Fraction:
    """The library's default weight law: denominators at most 4."""
    return Fraction(rng.randint(1, 24), rng.randint(1, 4))


def coprime_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 10**6), rng.choice(LARGE_PRIMES))


def make_tree(rng: random.Random, n: int, shape: str, weight=small_weight) -> dict:
    """Adjacency ``{node: {nbr: weight}}`` of a binary tree on leaves 1..n.

    ``uniform-topology`` inserts leaf k into a uniformly chosen edge,
    which draws the unrooted topology uniformly; ``caterpillar`` is the
    path shape.  Leaf labels are shuffled so leaf order carries no hint.
    """
    if shape == "uniform-topology":
        edges = [(1, n + 1), (2, n + 1), (3, n + 1)]
        for k in range(4, n + 1):
            u, v = edges.pop(rng.randrange(len(edges)))
            mid = n + k - 2
            edges += [(u, mid), (v, mid), (k, mid)]
    elif shape == "caterpillar":
        edges = [(1, n + 1), (2, n + 1)]
        for i in range(2, n - 1):
            edges += [(n + i - 1, n + i), (i + 1, n + i)]
        edges.append((n, 2 * n - 2))
    else:
        raise ValueError(f"unknown shape {shape!r}")
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    relabel = {leaf: labels[leaf - 1] for leaf in range(1, n + 1)}
    adj: dict[int, dict[int, Fraction]] = {}
    for u, v in edges:
        u, v = relabel.get(u, u), relabel.get(v, v)
        w = weight(rng)
        adj.setdefault(u, {})[v] = w
        adj.setdefault(v, {})[u] = w
    return adj


def newick(adj: dict) -> str:
    """Newick text written from the internal neighbour of leaf 1."""
    n = sum(1 for nbrs in adj.values() if len(nbrs) == 1)

    def sub(node: int, parent: int | None) -> str:
        if node <= n:
            return str(node)
        kids = [v for v in adj[node] if v != parent]
        return "(" + ",".join(f"{sub(v, node)}:{adj[node][v]}" for v in kids) + ")"

    return sub(next(iter(adj[1])), None) + ";"


def distances(adj: dict) -> dict[tuple[int, int], Fraction]:
    """Leaf-to-leaf path lengths keyed on (i, j) with i < j."""
    n = sum(1 for nbrs in adj.values() if len(nbrs) == 1)
    D = {}
    for i in range(1, n + 1):
        dist = {i: Fraction(0)}
        stack = [i]
        while stack:
            u = stack.pop()
            for v, w in adj[u].items():
                if v not in dist:
                    dist[v] = dist[u] + w
                    stack.append(v)
        for j in range(i + 1, n + 1):
            D[(i, j)] = dist[j]
    return D


def dget(D: dict, i: int, j: int) -> Fraction:
    return Fraction(0) if i == j else D[(i, j) if i < j else (j, i)]


def matrix_json(n: int, D: dict) -> str:
    return json.dumps({"n": n, "entries": {f"{i},{j}": str(v) for (i, j), v in D.items()}})


def triple_values(n: int, D: dict) -> dict[tuple[int, int, int], Fraction]:
    """phi_3 of any symmetric matrix: half the perimeter of each triple."""
    return {
        (i, j, k): (dget(D, i, j) + dget(D, i, k) + dget(D, j, k)) / 2
        for i, j, k in combinations(range(1, n + 1), 3)
    }


def tensor_json(n: int, W: dict) -> str:
    return json.dumps(
        {"n": n, "m": 3, "entries": {",".join(map(str, key)): str(v) for key, v in W.items()}}
    )


def is_cherry(adj: dict, a: int, b: int) -> bool:
    return next(iter(adj[a])) == next(iter(adj[b]))


def perturbed_metric(rng: random.Random, n: int, adj: dict, D: dict):
    """Tree metric with one non-cherry entry lowered by 1/2.

    For a non-cherry pair (a, b) some quartet a,c | b,d has
    D(a,b)+D(c,d) tied for the maximum pairing sum; lowering D(a,b)
    leaves the other sum alone at the top, so the strict four-point
    condition fails and every failing quadruple contains a and b.
    """
    pairs = [p for p in combinations(range(1, n + 1), 2) if not is_cherry(adj, *p)]
    a, b = pairs[rng.randrange(len(pairs))]
    bad = dict(D)
    bad[(a, b)] -= Fraction(1, 2)
    return (a, b), bad


def pairing_sums(D: dict, quad) -> tuple[Fraction, Fraction, Fraction]:
    i, j, k, l = quad
    return (
        dget(D, i, j) + dget(D, k, l),
        dget(D, i, k) + dget(D, j, l),
        dget(D, i, l) + dget(D, j, k),
    )


SHAPES = ("uniform-topology", "caterpillar")


def interleave(classes: list[tuple[object, int]]) -> list:
    """Slot list holding ``count`` copies of each class, spread evenly."""
    tagged = []
    for order, (spec, count) in enumerate(classes):
        tagged += [((idx + 0.5) / count, order, spec) for idx in range(count)]
    return [spec for *_, spec in sorted(tagged, key=lambda t: t[:2])]


def _plain(x):
    """JSON form of witnesses and values, as the CLI prints them."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Item:
    kind: str
    data: dict


class Workload:
    """One workload: a deck of item classes, the item, and its check."""

    name = ""
    classes: list = []

    def __init__(self, workdir: Path | None = None):
        self.workdir = workdir
        self.slots = interleave(self.classes)

    def deck(self, seed: int, number: int) -> list[Item]:
        rng = random.Random(f"{seed}/{self.name}/{number}")
        return [
            self.make(rng, spec, SHAPES[(slot + number) % 2]) for slot, spec in enumerate(self.slots)
        ]

    def make(self, rng: random.Random, spec, shape: str) -> Item:
        raise NotImplementedError

    def run(self, lib, item: Item):
        raise NotImplementedError

    def check(self, lib, item: Item, out) -> bool:
        raise NotImplementedError


class TensorForward(Workload):
    name = "tensor-forward"
    # (m, n, big denominators) and slots per deck.  m=4..6 use tour
    # enumeration and m=7 the bitmask DP; large denominators add 20-30%.
    # Sorted by cost, p50 falls in the middle of the six (5, 12, False)
    # items (fractions 0.35-0.65 of a deck) and p90 in the middle of the
    # two (7, 11, False) items (0.85-0.95).
    classes = [
        ((4, 12, False), 3),
        ((4, 13, False), 2),
        ((4, 13, True), 2),
        ((5, 12, False), 6),
        ((5, 12, True), 1),
        ((6, 11, False), 2),
        ((6, 11, True), 1),
        ((7, 11, False), 2),
        ((7, 11, True), 1),
    ]
    SAMPLE = 6

    def make(self, rng, spec, shape):
        m, n, big = spec
        adj = make_tree(rng, n, shape, coprime_weight if big else small_weight)
        subsets = list(combinations(range(1, n + 1), m))
        sample = [subsets[rng.randrange(len(subsets))] for _ in range(self.SAMPLE)]
        return Item(f"m{m}", {"newick": newick(adj), "m": m, "n": n, "sample": sample})

    def run(self, lib, item):
        tree = lib.trees.parse_newick(item.data["newick"])
        D = lib.trees.distance_matrix(tree)
        return lib.dissim.phi_m(D, item.data["m"]).to_json_obj()

    def check(self, lib, item, out):
        n, m = item.data["n"], item.data["m"]
        if out["n"] != n or out["m"] != m or len(out["entries"]) != comb(n, m):
            return False
        tree = lib.trees.parse_newick(item.data["newick"])
        return all(
            Fraction(out["entries"][",".join(map(str, s))]) == lib.trees.steiner_weight(tree, s)
            for s in item.data["sample"]
        )


class MembershipDecide(Workload):
    name = "membership-decide"
    # One item in three is a member.  Rejections (4-12 ms) set p50, which
    # falls in the middle of the four n=15 four-point rejections; the n=16
    # members (about 0.3 s) fill the top fifth and set p90.
    classes = [
        (("member", 12), 2),
        (("member", 16), 3),
        (("inverse", 12), 1),
        (("inverse", 13), 1),
        (("inverse", 14), 2),
        (("inverse", 16), 1),
        (("four_point", 12), 1),
        (("four_point", 15), 4),
    ]

    def make(self, rng, spec, shape):
        kind, n = spec
        adj = make_tree(rng, n, shape)
        D = distances(adj)
        data = {"n": n, "newick": newick(adj)}
        if kind == "four_point":
            data["pair"], D = perturbed_metric(rng, n, adj, D)
            data["matrix"] = D
        W = triple_values(n, D)
        if kind == "inverse":
            key = list(W)[rng.randrange(len(W))]
            W[key] += Fraction(1, 3)
        data["text"] = tensor_json(n, W)
        data["W"] = W
        return Item(kind, data)

    def run(self, lib, item):
        W = lib.dissim.DissimTensor.from_json_obj(json.loads(item.data["text"]))
        return lib.dissim.membership3(W)

    def check(self, lib, item, res):
        d = item.data
        if item.kind == "member":
            return (
                res.is_member
                and res.stage == "ok"
                and res.tree is not None
                and lib.trees.same_tree(res.tree, lib.trees.parse_newick(d["newick"]))
            )
        if res.is_member or res.stage != item.kind:
            return False
        if item.kind == "inverse":
            key = res.witness
            return key in d["W"] and res.values[1] == d["W"][key] and res.values[0] != res.values[1]
        sums = pairing_sums(d["matrix"], res.witness)
        return (
            set(d["pair"]) <= set(res.witness)
            and tuple(res.values) == sums
            and sorted(sums)[1] < max(sums)
        )


class CertificateRoundtrip(Workload):
    name = "certificate-roundtrip"
    # Verify grows about 2.5x per leaf.  n=4 and n=5 have one tree shape
    # each and tight costs; n=6 and n=7 costs spread over several modes by
    # topology.  So p50 falls in the middle of the n=5 tier (fractions
    # 0.25-0.75), p90 in the dense upper part of the n=6 tier (0.75-0.95),
    # and n=6 and n=7 still take about 60% of a deck's time.
    classes = [((4,), 5), ((5,), 10), ((6,), 4), ((7,), 1)]

    def make(self, rng, spec, shape):
        (n,) = spec
        adj = make_tree(rng, n, shape)
        W = triple_values(n, distances(adj))
        keys = list(W)
        late = keys[len(keys) - 1 - rng.randrange(max(1, len(keys) // 10))]
        bumped = dict(W)
        bumped[late] += Fraction(1, 2)
        return Item(
            f"n{n}",
            {
                "n": n,
                "newick": newick(adj),
                "tensor": tensor_json(n, W),
                "bumped": tensor_json(n, bumped),
                "late": late,
                "true": W[late],
                "bad": bumped[late],
            },
        )

    def run(self, lib, item):
        cert = lib.puiseux.build_certificate(lib.trees.parse_newick(item.data["newick"]))
        back = lib.puiseux.ValuationCertificate.from_json(cert.to_json())
        good = lib.dissim.DissimTensor.from_json_obj(json.loads(item.data["tensor"]))
        bad = lib.dissim.DissimTensor.from_json_obj(json.loads(item.data["bumped"]))
        return cert, back, lib.puiseux.verify_certificate(back, good), lib.puiseux.verify_certificate(back, bad)

    def check(self, lib, item, out):
        cert, back, passed, failed = out
        d = item.data
        return (
            back == cert
            and cert.n == d["n"]
            and bool(passed)
            and not failed
            and failed.witness == d["late"]
            and tuple(failed.values) == (d["true"], d["bad"])
        )


class CliPipeline(Workload):
    name = "cli-pipeline"
    # One deck writes one n=10 tree and its files, the m=3 tensor of an
    # n=12 tree, and a 6-leaf tree for certify3.  Process fan-out (--jobs 2)
    # speed depends on whether the host's second core is free, which the
    # single-threaded reference cannot see, so fan-out calls take about a
    # fifth of a deck's time and p50 and p90 sit on in-process calls.
    # Sorted by cost, p50 falls in the middle of the four reconstruct calls
    # (fractions 0.4-0.6); the fan-out calls fill 0.6-0.85, above p50 even
    # when they are slow; p90 falls among the three n=12 membership3 calls
    # (0.85-1.0), which cost about twice the slowest fan-out call.
    classes = [
        (("matrix", "check", "{}", "--ultra", "--jobs", "2"), 2),
        (("bad_tensor", "membership3", "{}"), 4),
        (("matrix", "check", "{}", "--m4", "--jobs", "2"), 2),
        (("matrix", "reconstruct", "{}"), 4),
        (("tree", "dissim", "--tree", "{}", "--m", "4", "--jobs", "2"), 1),
        (("matrix", "check", "{}", "--metric", "--jobs", "2"), 1),
        (("bad_matrix", "check", "{}", "--metric", "--jobs", "2"), 1),
        (("tensor", "check", "{}", "--tmn", "3", "--jobs", "2"), 1),
        (("small", "certify3", "--tree", "{}", "--jobs", "2"), 1),
        (("big_tensor", "membership3", "{}"), 3),
    ]
    N = 10
    BIG_N = 12
    SMALL_N = 6

    def __init__(self, workdir=None):
        super().__init__(workdir)
        self.expected: dict = {}

    def deck(self, seed, number):
        rng = random.Random(f"{seed}/{self.name}/{number}")
        n = self.N
        adj = make_tree(rng, n, SHAPES[number % 2])
        D = distances(adj)
        _, bad = perturbed_metric(rng, n, adj, D)
        big = distances(make_tree(rng, self.BIG_N, SHAPES[(number + 1) % 2]))
        files = {
            "tree": newick(adj),
            "small": newick(make_tree(rng, self.SMALL_N, "uniform-topology")),
            "matrix": matrix_json(n, D),
            "bad_matrix": matrix_json(n, bad),
            "tensor": tensor_json(n, triple_values(n, D)),
            "bad_tensor": tensor_json(n, triple_values(n, bad)),
            "big_tensor": tensor_json(self.BIG_N, triple_values(self.BIG_N, big)),
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for key, text in files.items():
            path = self.workdir / f"{key}.{'nwk' if key in ('tree', 'small') else 'json'}"
            path.write_text(text + "\n", encoding="utf-8")
            paths[key] = str(path)
        return [
            Item(argv[0], {"argv": [a.format(paths[key]) for a in argv], "input": paths[key]})
            for key, *argv in self.slots
        ]

    def run(self, lib, item):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.main(list(item.data["argv"]))
        return code, out.getvalue()

    def check(self, lib, item, out):
        code, stdout = out
        argv = item.data["argv"]
        text = Path(item.data["input"]).read_text(encoding="utf-8")
        # A deck repeats some calls on the same file; compute each answer once.
        key = (tuple(argv), text)
        if key not in self.expected:
            if len(self.expected) >= len(self.slots):
                self.expected.clear()
            self.expected[key] = self.expect(lib, argv, text)
        want_code, kind, want = self.expected[key]
        if code != want_code:
            return False
        if kind == "text":
            return stdout == want
        got = json.loads(stdout)
        if kind == "json":
            return got == want
        return all(got[field] == value for field, value in want.items())

    def expect(self, lib, argv, text):
        """``(exit code, kind, stdout)`` the library gives for ``argv``.

        ``kind`` says how to compare: the whole ``"text"``, the whole
        ``"json"`` object, or only the JSON ``"fields"`` given.
        """
        trees, dissim, tropical = lib.trees, lib.dissim, lib.tropical
        if argv[0] == "dissim":
            tensor = dissim.phi_m(trees.distance_matrix(trees.parse_newick(text)), int(argv[4]))
            return 0, "json", tensor.to_json_obj()
        if argv[0] == "certify3":
            return 0, "text", lib.puiseux.build_certificate(trees.parse_newick(text)).to_json() + "\n"
        if argv[0] == "reconstruct":
            D = trees.DistanceMatrix.from_json_obj(json.loads(text))
            return 0, "text", trees.serialize_newick(trees.reconstruct_tree(D)) + "\n"
        if argv[0] == "membership3":
            res = dissim.triple_membership(dissim.DissimTensor.from_json_obj(json.loads(text)))
            fields = {"member": res.is_member, "stage": res.stage}
            if res.is_member:
                fields["newick"] = trees.serialize_newick(res.tree)
            else:
                fields.update(witness=_plain(res.witness), values=_plain(res.values))
            return (0 if res.is_member else 1), "fields", fields
        mode = argv[2]
        obj = json.loads(text)
        if mode == "--tmn":
            verdict = tropical.three_term_plucker_check(dissim.DissimTensor.from_json_obj(obj))
        elif mode == "--ultra":
            verdict = tropical.is_ultrametric(trees.DistanceMatrix.from_json_obj(obj))
        elif mode == "--metric":
            verdict = tropical.four_point_check(trees.DistanceMatrix.from_json_obj(obj))
        else:
            report = dissim.verify_m4_characterization(trees.DistanceMatrix.from_json_obj(obj))
            bad = [q for q in report.quadruples if not q.coordinates_equal]
            verdict = tropical.Verdict(not bad, *((bad[0].quadruple, bad[0].sums) if bad else ()))
        fields = {"pass": bool(verdict), "witness": _plain(verdict.witness), "values": _plain(verdict.values)}
        return (0 if verdict else 1), "fields", fields


WORKLOADS = {
    w.name: w for w in (TensorForward, MembershipDecide, CertificateRoundtrip, CliPipeline)
}
