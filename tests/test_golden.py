"""Golden corpus: the answers of the deciding layers, pinned byte for byte.

A seeded generator below makes matrices at n=5..11 in both tree shapes:
tree metrics, one bumped entry, leaf-shifted (r_i + r_j added), arbitrary,
partly zeroed and all-zero, each taken as is and with one entry of every
tensor raised by 1/3.  Each group of records (membership decisions,
inversion errors, three-term verdicts for m=2..5 (m=2, 3 at n=10, 11), both four-point modes,
reconstructions and JSON round trips) is hashed.  A second group pins
the certificates built for seeded trees at n=3..9 in both shapes, with
the default edge labels and with label lists drawn from {0..3}, so that
repeated and zero labels occur: each case records the certificate's
JSON or that the build raised ``CertificateError``.  A hash says only
that something changed, so one readable record per group names it.  A change
that alters these answers on purpose updates the pin and says which
records changed and why.
"""

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from treedissim import (
    CertificateError,
    DissimTensor,
    DistanceMatrix,
    FourPointViolation,
    InversionError,
    dissimilarity_map,
    distance_matrix,
    build_certificate,
    four_point_check,
    invert3,
    membership3,
    random_tree,
    reconstruct_tree,
    serialize_newick,
    three_term_plucker_check,
)

F = Fraction
KINDS = ("tree", "bumped", "leaf-shifted", "arbitrary", "zeroed", "all-zero")


def _matrix(kind, n, shape, rng):
    D = distance_matrix(random_tree(n, seed=rng.randrange(10**6), shape=shape))
    pairs = list(combinations(range(1, n + 1), 2))
    if kind == "tree":
        return D
    if kind == "bumped":
        entries = dict(D.entries)
        entries[rng.choice(pairs)] += rng.choice([F(-1), F(1, 2), F(3)])
    elif kind == "leaf-shifted":
        r = [None] + [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        entries = {(i, j): v + r[i] + r[j] for (i, j), v in D.entries.items()}
    elif kind == "arbitrary":
        entries = {p: F(rng.randint(-9, 30), rng.randint(1, 4)) for p in pairs}
    elif kind == "zeroed":
        entries = {p: F(0) if rng.random() < 0.3 else v for p, v in D.entries.items()}
    else:
        entries = {p: F(0) for p in pairs}
    return DistanceMatrix(n, entries)


def _raised(T, rng):
    """T with one entry, chosen by ``rng``, raised by 1/3."""
    entries = dict(T.entries)
    entries[rng.choice(sorted(entries))] += F(1, 3)
    return DissimTensor(T.n, T.m, entries)


def _inputs():
    """``(name, D, {m: tensor})`` for every corpus input; D is the m=2 tensor.

    m runs to 5 up to n=9 and to 3 above, where the m=4 and m=5 scans
    would cost most of the corpus's time.
    """
    for n in range(5, 12):
        for shape in ("uniform-topology", "caterpillar"):
            rng = random.Random(f"golden {n} {shape}")
            for kind in KINDS:
                D = _matrix(kind, n, shape, rng)
                tensors = {m: dissimilarity_map(D, m) for m in range(2, 6 if n <= 9 else 4)}
                yield f"n={n} {shape} {kind}", D, tensors
                tensors = {m: _raised(T, rng) for m, T in tensors.items()}
                yield f"n={n} {shape} {kind} raised", DistanceMatrix(n, tensors[2].entries), tensors


def _table(T):
    return {",".join(map(str, k)): str(v) for k, v in T.entries.items()}


def _records(name, D, tensors):
    W = tensors[3]
    out = {}
    r = membership3(W)
    out["membership3"] = [
        r.is_member, r.stage, _table(r.matrix) if r.matrix else None,
        serialize_newick(r.tree) if r.tree else None, r.witness, r.values, r.note,
    ]
    try:
        X = invert3(W)
        out["invert3"] = ["ok", _table(X)]
    except InversionError as exc:
        out["invert3"] = [str(exc), exc.witness, exc.values]
    out["three_term"] = [
        [v.passed, v.witness, v.values, v.note]
        for v in map(three_term_plucker_check, tensors.values())
    ]
    out["four_point"] = [
        [v.passed, v.witness, v.values, v.note] for v in (four_point_check(D), four_point_check(D, strict=True))
    ]
    try:
        out["reconstruct"] = serialize_newick(reconstruct_tree(D))
    except FourPointViolation as exc:
        out["reconstruct"] = [str(exc), exc.verdict.witness, exc.verdict.values]
    out["round_trip"] = [
        type(T).from_json_obj(json.loads(json.dumps(T.to_json_obj()))).to_json_obj() for T in (D, *tensors.values())
    ]
    return {group: f"{name}: {json.dumps(rec, default=str)}" for group, rec in out.items()}


@lru_cache(maxsize=None)
def _corpus():
    groups = {}
    for name, D, tensors in _inputs():
        for group, line in _records(name, D, tensors).items():
            groups.setdefault(group, []).append(line)
    return groups


DIGESTS = {
    "membership3": "94de1b3f329b89cd5942b01729e3c323179c33b3c809c06c39efbd208ec42aac",
    "invert3": "2133a56a455ff8c3f5d75b4cb35a3daf8c96c5714653516b696b82ea26f0cd6a",
    "three_term": "2e5815ddc5d7fd0e3c70f0a4e96cacdce9dcb7e7540e192354ce6e602f177741",
    "four_point": "b4e2059aa2040999c571fc6a5cf274aceb94d01cb554612354881df40a87eef1",
    "reconstruct": "4b75a5a0d8fc86aaf773797cb31ec93e9792b33a68de3eaf29fe628afcb4d4e6",
    "round_trip": "0e4acca80c937e7d5bfb3ff79936d935e1c36daa19ce81e5d10ce9bfeafec2a5",
}

# One readable record per group: the first difference shows here.
SAMPLES = {
    "membership3": 'n=5 uniform-topology tree: [true, "ok", {"1,2": "22", "1,3": "63/2", "1,4": "181/4", "1,5": "135/4", "2,3": "27/2", "2,4": "109/4", "2,5": "63/4", "3,4": "119/4", "3,5": "73/4", "4,5": "53/2"}, "(1:20,2:2,(3:8,(4:19,5:15/2):11/4):7/2);", null, null, null]',
    "invert3": 'n=6 uniform-topology tree raised: ["tensor is not a triple dissimilarity: mismatch at (1, 2, 3)", [1, 2, 3], ["2023/36", "337/6"]]',
    "three_term": 'n=5 uniform-topology tree raised: [[false, [[], [1, 3, 4, 5]], ["58", "127/2", "383/6"], null], [false, [[1], [2, 3, 4, 5]], ["345/4", "268/3", "89"], null], [true, null, null, "no quadruple outside an (m-2)-set for n=5, m=4; vacuous"], [true, null, null, "no quadruple outside an (m-2)-set for n=5, m=5; vacuous"]]',
    "four_point": 'n=6 caterpillar leaf-shifted: [[false, [1, 1, 2, 3], ["65/12", "5/12", "5/12"], null], [true, null, null, null]]',
    "reconstruct": 'n=6 uniform-topology tree: "(1:17,(((2:6,5:2):14,3:11/2):11/3,6:14/3):10,4:12);"',
    "round_trip": 'n=5 caterpillar bumped: [{"n": 5, "entries": {"1,2": "26", "1,3": "51/2", "1,4": "73/3", "1,5": "169/6", "2,3": "67/2", "2,4": "97/3", "2,5": "217/6", "3,4": "53/6", "3,5": "79/6", "4,5": "41/6"}}, {"n": 5, "m": 2, "entries": {"1,2": "26", "1,3": "51/2", "1,4": "73/3", "1,5": "169/6", "2,3": "67/2", "2,4": "97/3", "2,5": "217/6", "3,4": "53/6", "3,5": "79/6", "4,5": "41/6"}}, {"n": 5, "m": 3, "entries": {"1,2,3": "85/2", "1,2,4": "124/3", "1,2,5": "271/6", "1,3,4": "88/3", "1,3,5": "401/12", "1,4,5": "89/3", "2,3,4": "112/3", "2,3,5": "497/12", "2,4,5": "113/3", "3,4,5": "173/12"}}, {"n": 5, "m": 4, "entries": {"1,2,3,4": "139/3", "1,2,3,5": "605/12", "1,2,4,5": "140/3", "1,3,4,5": "104/3", "2,3,4,5": "128/3"}}, {"n": 5, "m": 5, "entries": {"1,2,3,4,5": "155/3"}}]',
}


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_golden_corpus(group):
    lines = _corpus()[group]
    assert len(lines) == 7 * 2 * len(KINDS) * 2
    assert SAMPLES[group] in lines
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGESTS[group]


def _certificate_records():
    """One line per (tree, labels) case: the certificate or the refusal."""
    lines = []
    for n in range(3, 10):
        for shape in ("uniform-topology", "caterpillar"):
            rng = random.Random(f"golden certificates {n} {shape}")
            for _ in range(2):
                tree = random_tree(n, seed=rng.randrange(10**6), shape=shape)
                edges = len(build_certificate(tree).edge_labels)
                for labels in [None] + [[rng.randrange(4) for _ in range(edges)] for _ in range(4)]:
                    try:
                        rec = build_certificate(tree, label_values=labels).to_json_obj()
                    except CertificateError:
                        rec = "CertificateError"
                    lines.append(f"{serialize_newick(tree)} labels={labels}: {json.dumps(rec)}")
    return lines


CERTIFICATE_DIGEST = "82ddd14a513d922eeb474ad61101ef2203dbd72ad89134474bd3bf2f0b26915b"
# a zero label drops its term and still builds
CERTIFICATE_SAMPLE = '(1:2,2:10,3:1/3); labels=[0, 2]: {"n": 3, "newick": "(1:2,2:10,3:1/3);", "tree_hash": "82a9b1a38519b1778896bc35fc27cdcdb21f632dc621a9a72a79df616170de7d", "E": "31/3", "edge_labels": {"1": 0, "2": 2}, "x_series": [[], [["20", "2"]], [["62/3", "1"]]], "matrix": [[[["8", "1"]], [["0", "1"]], [["31/3", "1"]]], [[], [["-10", "2"]], [["0", "1"]]], [[], [["-20", "4"]], [["-31/3", "1"]]]]}'


def test_golden_certificate_labels():
    lines = _certificate_records()
    assert len(lines) == 7 * 2 * 2 * 5
    assert CERTIFICATE_SAMPLE in lines
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CERTIFICATE_DIGEST
