"""Command-line surface.

Exit codes: 0 = success / predicate passed, 1 = mathematical "no" (the
witness appears on stdout as one JSON line), 2 = usage or format error.
Commands that produce a payload (tensor, tree, certificate, decision)
write it to stdout, or to a file with --out; progress and prose go to
stderr so stdout stays machine-readable.  Every verdict comes from one
library call; this module only loads, prints and maps exit codes.

``dissim --jobs K`` fans the subset entries out over up to K processes
(never more than the CPU count or the number of subsets); results keep
subset order, so the output is byte-identical to the serial run.
``check`` and ``certify3`` accept ``--jobs`` for compatibility but run
serially: on their inputs, starting worker processes cost more than the
whole serial check (``check --metric`` at n=10: 3-20 ms serial, 42-65 ms
with two workers, on a 2-core host).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb

from .dissim import (
    DissimTensor,
    subset_dissimilarity,
    triple_dissimilarity,
    triple_membership,
)
from .puiseux import CertificateError, build_certificate, verify_certificate
from .rationals import _load_json, format_rational
from .trees import (
    DistanceMatrix,
    FourPointViolation,
    NewickError,
    TreeError,
    distance_matrix,
    enumerate_topologies,
    parse_newick,
    random_tree,
    reconstruct_tree,
    serialize_newick,
    steiner_weight,
)
from .tropical import Verdict, four_point_check, is_ultrametric, three_term_plucker_check

_USAGE_ERRORS = (NewickError, TreeError, CertificateError, ValueError, KeyError, OSError)


def _jsonable(x):
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float):
        return repr(x)
    return x


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(cls, path: str):
    """Read a ``DistanceMatrix`` or ``DissimTensor`` JSON file."""
    return cls.from_json_obj(_load_json(_read(path)))


def _jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _pmap(fn, items, jobs: int) -> list:
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    # imported here, not at the top: only fan-out needs it, and it slows every start-up
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def _print_verdict(name: str, verdict: Verdict, extra: dict | None = None) -> int:
    obj = {
        "check": name,
        "pass": bool(verdict),
        "witness": _jsonable(verdict.witness),
        "values": _jsonable(verdict.values),
    }
    if verdict.note:
        obj["note"] = verdict.note
    if extra:
        obj.update(extra)
    if verdict:
        print(f"{name}: PASS" + (f" ({verdict.note})" if verdict.note else ""), file=sys.stderr)
    else:
        shown = ", ".join(str(_jsonable(v)) for v in verdict.values) if verdict.values else ""
        print(f"{name}: FAIL at {verdict.witness} with values ({shown})", file=sys.stderr)
    print(json.dumps(obj))
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_dissim(args) -> int:
    tree = parse_newick(_read(args.tree))
    D = distance_matrix(tree)
    if not 2 <= args.m <= tree.n:
        raise ValueError(f"--m must be between 2 and {tree.n}")
    subsets = list(combinations(range(1, tree.n + 1), args.m))
    values = _pmap(partial(subset_dissimilarity, D, method=args.method), subsets, args.jobs)
    tensor = DissimTensor(tree.n, args.m, dict(zip(subsets, values)))
    if args.oracle:
        for subset in subsets:
            expected = steiner_weight(tree, subset)
            if tensor.entries[subset] != expected:
                print(
                    f"oracle mismatch at {subset}: tour formula {tensor.entries[subset]}, "
                    f"subtree weight {expected}",
                    file=sys.stderr,
                )
                print(
                    json.dumps(
                        {
                            "check": "dissim-oracle",
                            "pass": False,
                            "witness": _jsonable(subset),
                            "values": _jsonable((tensor.entries[subset], expected)),
                        }
                    )
                )
                return 1
        print(f"oracle agreement on {len(subsets)} subsets", file=sys.stderr)
    _emit(json.dumps(tensor.to_json_obj(), indent=2), args.out)
    return 0


def _cmd_check(args) -> int:
    if args.tmn is not None:
        W = _load(DissimTensor, args.file)
        if W.m != args.tmn:
            raise ValueError(f"tensor file has m={W.m}, but --tmn asked for m={args.tmn}")
        return _print_verdict("three-term-relations", three_term_plucker_check(W), {"m": W.m, "n": W.n})
    D = _load(DistanceMatrix, args.file)
    if args.m4:
        # The pairing coordinates of a quadruple agree exactly when the
        # maximum pairing sum is attained twice (verify_m4_characterization
        # checks that equivalence), so the strict four-point scan decides.
        verdict = four_point_check(D, strict=True)
        return _print_verdict("pairing-agreement", verdict, {"quadruples": comb(D.n, 4)})
    if args.ultra:
        return _print_verdict("ultrametric", is_ultrametric(D))
    return _print_verdict("four-point", four_point_check(D, strict=args.strict), {"strict": args.strict})


def _cmd_membership3(args) -> int:
    W = _load(DissimTensor, args.tensor)
    result = triple_membership(W)
    obj: dict = {"member": result.is_member, "stage": result.stage}
    if result.is_member:
        obj["matrix"] = result.matrix.to_json_obj()
        obj["newick"] = serialize_newick(result.tree) if result.tree is not None else None
        if result.note:
            obj["note"] = result.note
        print("member: yes" + ("" if result.tree else " (no non-negative realization)"), file=sys.stderr)
    else:
        obj["witness"] = _jsonable(result.witness)
        obj["values"] = _jsonable(result.values)
        if result.note:
            obj["note"] = result.note
        print(f"member: no, failed at stage {result.stage!r}", file=sys.stderr)
    _emit(json.dumps(obj, indent=2), args.out)
    return 0 if result.is_member else 1


def _cmd_certify3(args) -> int:
    tree = parse_newick(_read(args.tree))
    cert = build_certificate(tree)
    verdict = verify_certificate(cert, triple_dissimilarity(distance_matrix(tree)))
    if not verdict:
        return _print_verdict("certificate", verdict)
    print(f"verified {comb(tree.n, 3)} triples: PASS", file=sys.stderr)
    _emit(cert.to_json(), args.out)
    return 0


def _cmd_random_tree(args) -> int:
    tree = random_tree(args.n, args.seed, shape=args.shape)
    _emit(serialize_newick(tree), args.out)
    return 0


def _cmd_count_topologies(args) -> int:
    count = sum(1 for _ in enumerate_topologies(args.n))
    _emit(str(count), args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    D = _load(DistanceMatrix, args.file)
    try:
        tree = reconstruct_tree(D)
    except FourPointViolation as exc:
        return _print_verdict("tree-metric", exc.verdict)
    _emit(serialize_newick(tree), args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedissim",
        description="Exact subset dissimilarity maps of weighted trees, membership checks, and valuation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dissim", help="compute the m-subset dissimilarity tensor of a tree")
    p.add_argument("--tree", required=True, help="Newick file")
    p.add_argument("--m", type=int, required=True, help="subset size (2..n)")
    p.add_argument("--method", choices=["auto", "tours", "dp"], default="auto")
    p.add_argument("--oracle", action="store_true", help="cross-check every entry against the subtree-weight oracle")
    p.add_argument("--out", help="write the tensor JSON here instead of stdout")
    p.add_argument("--jobs", type=_jobs, default=1, help="worker processes for the subset entries (at most the CPU count)")
    p.set_defaults(func=_cmd_dissim)

    p = sub.add_parser("check", help="run a membership predicate on a matrix or tensor file")
    p.add_argument("file", help="DistanceMatrix or DissimTensor JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--metric", action="store_true", help="four-point condition on a matrix")
    group.add_argument("--ultra", action="store_true", help="ultrametric condition on a matrix")
    group.add_argument("--tmn", type=int, metavar="M", help="three-term relations on an m=M tensor")
    group.add_argument("--m4", action="store_true", help="pairing-coordinate agreement on a matrix")
    p.add_argument("--strict", action="store_true", help="with --metric: distinct quadruples only")
    p.add_argument("--jobs", type=_jobs, default=1, help="accepted for compatibility; this command runs serially")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("membership3", help="decide whether an m=3 tensor comes from a tree")
    p.add_argument("tensor", help="DissimTensor JSON file with m=3, n >= 5")
    p.add_argument("--out", help="write the decision JSON here instead of stdout")
    p.set_defaults(func=_cmd_membership3)

    p = sub.add_parser("certify3", help="build and verify a valuation certificate for a tree")
    p.add_argument("--tree", required=True, help="Newick file with strictly positive weights")
    p.add_argument("--out", help="write the certificate JSON here instead of stdout")
    p.add_argument("--jobs", type=_jobs, default=1, help="accepted for compatibility; this command runs serially")
    p.set_defaults(func=_cmd_certify3)

    p = sub.add_parser("random-tree", help="generate a seeded random tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shape", choices=["uniform-topology", "caterpillar"], default="uniform-topology")
    p.add_argument("--out", help="write the Newick string here instead of stdout")
    p.set_defaults(func=_cmd_random_tree)

    p = sub.add_parser("count-topologies", help="count unrooted binary topologies by enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write the count here instead of stdout")
    p.set_defaults(func=_cmd_count_topologies)

    p = sub.add_parser("reconstruct", help="rebuild the tree realizing a tree metric")
    p.add_argument("file", help="DistanceMatrix JSON file")
    p.add_argument("--out", help="write the Newick string here instead of stdout")
    p.set_defaults(func=_cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
