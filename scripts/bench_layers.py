#!/usr/bin/env python3
"""Time each library layer on two random trees per size and write BENCH_layers.json.

For ``random_tree(n, seed=1)`` in both shapes at each size the script
times the layers of the ROADMAP baseline table: Newick parse,
``distance_matrix``, reading an m=3 tensor from JSON, ``invert3``, both
four-point modes, ``reconstruct_tree``, the three-term check,
``membership3`` on a member, and certificate build and verify.  A
uniform-topology row is named after its layer alone; a caterpillar row,
the deepest tree shape, adds `` [caterpillar]``.  Each time is the best
of three runs in process CPU time.  Every time is also divided by the host
slowdown, measured as in ``bench/run.py``: its ``reference()`` kernel is
timed (best of three) before and after each layer, and the mean over
``REFERENCE_S`` is the slowdown.

Usage:
    python scripts/bench_layers.py [--sizes 15 25 40] [--out BENCH_layers.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import treedissim as td  # noqa: E402
from run import REFERENCE_S, reference  # noqa: E402

# each layer's time is the best of this many runs
REPEATS = 3
# row-name suffix per tree shape; the uniform rows keep the bare layer names
SHAPES = {"uniform-topology": "", "caterpillar": " [caterpillar]"}


def layers(n: int, shape: str) -> dict:
    """Name -> zero-argument call, for the tree ``random_tree(n, seed=1, shape=shape)``."""
    tree = td.random_tree(n, seed=1, shape=shape)
    newick = td.serialize_newick(tree)
    D = td.distance_matrix(tree)
    W = td.triple_dissimilarity(D)
    text = json.dumps(W.to_json_obj())
    cert = td.build_certificate(tree)
    return {
        "parse_newick": lambda: td.parse_newick(newick),
        "distance_matrix": lambda: td.distance_matrix(tree),
        "json.loads + DissimTensor.from_json_obj (m=3)": lambda: td.DissimTensor.from_json_obj(json.loads(text)),
        "invert3": lambda: td.invert3(W),
        "four_point_check (strict)": lambda: td.four_point_check(D, strict=True),
        "four_point_check (non-strict)": lambda: td.four_point_check(D),
        "reconstruct_tree": lambda: td.reconstruct_tree(D),
        "three_term_plucker_check (m=3)": lambda: td.three_term_plucker_check(W),
        "membership3 (member)": lambda: td.membership3(W),
        "build_certificate": lambda: td.build_certificate(tree),
        "verify_certificate": lambda: td.verify_certificate(cert, W),
    }


def slowdown() -> float:
    return min(reference() for _ in range(3)) / REFERENCE_S


def best_cpu_s(call) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = process_time()
        call()
        best = min(best, process_time() - start)
    return best


def commit() -> str:
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[15, 25, 40])
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args(argv)
    results: dict = {}
    for n in args.sizes:
        for shape, suffix in SHAPES.items():
            for name, call in layers(n, shape).items():
                name += suffix
                before = slowdown()
                raw = best_cpu_s(call)
                slow = (before + slowdown()) / 2
                results.setdefault(name, {})[str(n)] = {
                    "raw_ms": round(raw * 1e3, 4),
                    "scaled_ms": round(raw / slow * 1e3, 4),
                    "slowdown": round(slow, 3),
                }
                print(f"n={n:<3} {name:<60} {raw * 1e3:10.3f} ms raw {raw / slow * 1e3:10.3f} ms scaled", flush=True)
    out = {
        "commit": commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "tree": "random_tree(n, seed=1), uniform-topology; [caterpillar] rows shape='caterpillar'",
        "clock": f"process CPU time, best of {REPEATS}",
        "reference_s": REFERENCE_S,
        "sizes": args.sizes,
        "layers": results,
    }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
