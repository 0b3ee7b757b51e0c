"""treedissim benchmark: seeded workloads, end-to-end and per-layer metrics.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload tensor-forward --seed 1 --seconds 20 --trace 0

or every workload, each in a fresh process, with ``--workload all``.

Set-up (import, generating and serializing the first deck, one warm-up
item) runs once in this process, untimed, to give the measured loop its
library.  Then ``setup_once.py`` repeats it ``SETUP_REPEATS`` times, each
in a fresh interpreter so every import is paid again, and ``setup_s`` is
the median.  Then decks of items run one item at a time until the items'
own time reaches ``--seconds``; the last deck is finished so every run
holds whole decks.  Each output is checked right after its item, outside the timed region,
and a wrong answer or an exception counts as failed.

Host speed.  On a shared host the same item can take twice as long for
seconds or minutes at a time while a neighbour is busy.  So right before
and right after every item (and every fresh set-up) the benchmark times
``reference()``, a fixed piece of pure-Python work that does not use the
library, and divides the item's time by the host slowdown: the mean of
the two reference times over ``REFERENCE_S``.  Every reported time is
therefore in seconds of a host on which the reference takes
``REFERENCE_S``; the raw figures and the slowdowns are printed too.  A
change to the library cannot change the reference, so the scaling
cancels host drift but not a slower library.

``--trace 0`` prints the end-to-end metrics: ``items_per_s``,
``item_p50_ms``, ``item_p90_ms``, ``setup_s`` and ``peak_rss_mb``.
``--trace 1`` runs the same loop twice, untraced and then with the span
wrappers of ``tracing.py`` installed, and prints the per-layer metrics,
each per traced item, plus the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# A fresh set-up's time spreads by up to a fifth between repeats; the
# median of 21 keeps the ten-seed spread of setup_s under a tenth.
SETUP_REPEATS = 21
# Reference time on a 2-core x86-64 host with Python 3.11 while no neighbour is busy.
REFERENCE_S = 1.5e-3

import tracing  # noqa: E402  (sibling module; the script directory is on sys.path)
import workloads  # noqa: E402
from setup_once import set_up  # noqa: E402

REFERENCE_TREE = workloads.make_tree(random.Random("reference"), 12, "uniform-topology")


def reference() -> float:
    """Seconds taken by a fixed, library-free piece of Fraction and JSON work."""
    start = perf_counter()
    workloads.tensor_json(12, workloads.triple_values(12, workloads.distances(REFERENCE_TREE)))
    return perf_counter() - start


def timed(fn, *args, tracer=None):
    """``(result, error, seconds, slowdown)`` of one call, bracketed by the reference."""
    before = reference()
    error = result = None
    if tracer is not None:
        tracer.begin_item()
    start = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # an item that raises counts as failed
        error = exc
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.end_item()
    slowdown = (before + reference()) / 2 / REFERENCE_S
    if tracer is not None:
        tracer.commit(slowdown)
    return result, error, elapsed, slowdown


def fresh_set_up(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Raw seconds and host slowdown of one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_once.py"), name, str(seed), str(workdir)]
    before = reference()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    slowdown = (before + reference()) / 2 / REFERENCE_S
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("warm-up item gave a wrong answer")
    return result["seconds"], slowdown


def measure(lib, workload, seed: int, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: whole decks until the raw item time reaches ``seconds``.

    Returns the raw item times, their host slowdowns and the failure count.
    """
    raw: list[float] = []
    slowdowns: list[float] = []
    failed = 0
    number = 0
    while sum(raw) < seconds:
        for item in workload.deck(seed, number):
            out, error, elapsed, slow = timed(workload.run, lib, item, tracer=tracer)
            raw.append(elapsed)
            slowdowns.append(slow)
            if error is not None:
                print(f"item {item.kind} raised {error!r}", file=sys.stderr)
                failed += 1
            elif not workload.check(lib, item, out):
                print(f"item {item.kind} gave a wrong answer: {item.data}", file=sys.stderr)
                failed += 1
        number += 1
    return {"raw": raw, "slowdowns": slowdowns, "failed": failed, "decks": number}


def scaled(run: dict) -> list[float]:
    """Item times of a run in seconds of the nominal host."""
    return [t / slow for t, slow in zip(run["raw"], run["slowdowns"])]


def end_to_end(times: list[float], setup_times: list[float]) -> dict:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_ms": (deciles[4] * 1e3, "ms"),
        "item_p90_ms": (deciles[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_one(args) -> int:
    if not (SRC / "treedissim" / "__init__.py").is_file():
        print(f"error: no treedissim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload, lib, first, out = set_up(args.workload, args.seed, workdir)
        if not workload.check(lib, first, out):
            raise RuntimeError(f"warm-up item {first.kind} gave a wrong answer")
        setup_raw, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            elapsed, slow = fresh_set_up(args.workload, args.seed, workdir / "setup")
            setup_raw.append(elapsed)
            setup_scaled.append(elapsed / slow)
        base = measure(lib, workload, args.seed, args.seconds)
        runs = [base]
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = measure(lib, workload, args.seed, args.seconds, tracer)
            runs.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    attempted = sum(len(r["raw"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    e2e = end_to_end(scaled(base), setup_scaled)
    raw = end_to_end(base["raw"], setup_raw)
    slowdowns = base["slowdowns"]
    print(f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}  nproc {os.cpu_count()}")
    print(f"samples {len(base['raw'])} items in {base['decks']} decks of {len(workload.slots)}")
    print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} items)")
    print(f"host slowdown median {statistics.median(slowdowns):.3f} "
          f"(range {min(slowdowns):.3f}-{max(slowdowns):.3f})")
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}  (raw {raw[name][0]:.6g})")
    if args.trace:
        untraced_rate = e2e["items_per_s"][0]
        traced_rate = len(traced["raw"]) / sum(scaled(traced))
        metrics = tracer.metrics()
        metrics["trace.untraced_items_per_s"] = (untraced_rate, "1/s")
        metrics["trace.traced_items_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1) * 100, "%")
        print(f"tracing overhead {metrics['trace.overhead_pct'][0]:.1f}% "
              f"({traced_rate:.4g} traced vs {untraced_rate:.4g} untraced items/s)")
        for name, (value, unit) in metrics.items():
            if value and not name.endswith(".calls"):
                print(f"  {name} {value:.6g} {unit}")
    else:
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints one table of all metrics."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]) + "\n")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
