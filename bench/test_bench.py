"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import setup_once  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIB = setup_once.Lib()

# Items cheap enough for a unit test, by workload.
CHEAP = {
    "tensor-forward": lambda spec: spec[0] <= 5,
    "membership-decide": lambda spec: spec != ("member", 16),
    "certificate-roundtrip": lambda spec: spec[0] <= 6,
    "cli-pipeline": lambda spec: True,
}


def cheap_items(workload, seed=3):
    keep = CHEAP[workload.name]
    return [item for spec, item in zip(workload.slots, workload.deck(seed, 0)) if keep(spec)]


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request, tmp_path):
    return workloads.WORKLOADS[request.param](tmp_path / "work")


def bindings():
    """Every attribute of every library module and class, by identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "treedissim" or name.startswith("treedissim."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if inspect.isclass(value) and value.__module__ == name:
                    for attr, raw in vars(value).items():
                        out[(name, key, attr)] = raw
    return out


def snapshot(workload, seed, number):
    """A deck's items plus the text of every file they read."""
    deck = workload.deck(seed, number)
    return deck, {p: Path(p).read_text() for item in deck for p in [item.data.get("input")] if p}


def test_fixed_seed_regenerates_identical_inputs(workload):
    first = snapshot(workload, 5, 2)
    assert snapshot(workload, 5, 2) == first
    assert snapshot(workload, 6, 2) != first
    assert snapshot(workload, 5, 3) != first


def test_wrappers_leave_outputs_identical_and_are_removed(workload):
    items = cheap_items(workload)
    plain = [repr(workload.run(LIB, item)) for item in items]
    before = bindings()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert bindings() != before
        traced = []
        for item in items:
            tracer.begin_item()
            traced.append(repr(workload.run(LIB, item)))
            tracer.end_item()
            tracer.commit()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert traced == plain
    assert all(workload.check(LIB, item, workload.run(LIB, item)) for item in items)


def traced_metrics(workload, items) -> dict:
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for item in items:
            tracer.begin_item()
            workload.run(LIB, item)
            tracer.end_item()
            tracer.commit()
    return tracer, tracer.metrics()


def test_self_times_nonnegative_and_within_wall(workload):
    tracer, metrics = traced_metrics(workload, cheap_items(workload))
    selfs = [value for name, (value, _) in metrics.items() if name.endswith(".self_ms")]
    assert min(selfs) >= -1e-6
    assert sum(selfs) <= tracer.wall / tracer.items * 1e3 + 1e-6
    called = {name.rsplit(".", 1)[0] for name, (v, _) in metrics.items() if name.endswith(".calls") and v}
    loaded = {
        "tensor-forward": {"dissim.dissimilarity_map", "trees.parse_newick", "rationals.format_rational"},
        "membership-decide": {"dissim.triple_membership", "tropical.three_term_plucker_check",
                              "trees.reconstruct_tree", "dissim.DissimTensor.from_json_obj"},
        "certificate-roundtrip": {"puiseux.build_certificate", "puiseux.verify_certificate",
                                  "puiseux.ValuationCertificate.from_json_obj"},
        "cli-pipeline": {"cli.main", "cli._pmap", "trees.DistanceMatrix.from_json_obj"},
    }[workload.name]
    assert loaded <= called


def test_fold_subtracts_direct_children_only():
    spans = [("a", None, 0.0, 10.0), ("b", 0, 1.0, 4.0), ("c", 1, 2.0, 3.0), ("b", 0, 5.0, 6.0)]
    assert tracing.fold(spans) == {"a": [1, 10.0, 6.0], "b": [2, 4.0, 3.0], "c": [1, 1.0, 1.0]}


def test_membership_counters_match_the_deck():
    workload = workloads.MembershipDecide()
    items = cheap_items(workload)
    _, metrics = traced_metrics(workload, items)
    for kind, counter in (("member", "accepted"), ("inverse", "rejected_inverse"),
                          ("four_point", "rejected_four_point")):
        expected = sum(item.kind == kind for item in items) / len(items)
        assert metrics[f"dissim.triple_membership.{counter}"][0] == pytest.approx(expected)


def test_per_layer_counts_do_not_grow_with_run_length(workload):
    items = cheap_items(workload)
    _, once = traced_metrics(workload, items)
    _, twice = traced_metrics(workload, items + items)
    for name, (value, unit) in once.items():
        assert unit.endswith("/item")
        if unit == "count/item":
            assert twice[name][0] == pytest.approx(value), name


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([0.1] * 20, [0.2])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in e2e.values()]
    per_layer = tracing.Tracer().metrics()
    names = list(per_layer) + ["trace.untraced_items_per_s", "trace.traced_items_per_s",
                               "trace.overhead_pct"]
    assert [m["name"] for m in spec["per_layer"]] == names
    units = [unit for _, unit in per_layer.values()] + ["1/s", "1/s", "%"]
    assert [m["unit"] for m in spec["per_layer"]] == units


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tensor-forward", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fresh_set_up_reports_its_time_and_fails_loudly(tmp_path):
    seconds, slowdown = run.fresh_set_up("certificate-roundtrip", 3, tmp_path)
    assert 0 < seconds < 60 and slowdown > 0
    with pytest.raises(RuntimeError):
        run.fresh_set_up("no-such-workload", 3, tmp_path)
