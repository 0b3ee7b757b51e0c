"""Smoke test: the example scripts run to completion and report the
results they exist to show (they exit 0 whatever they print), and the
per-layer timing script writes a figure for every layer in both tree
shapes."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args,lines",
    [
        (
            "demo_pipeline.py",
            [],
            [
                "  reconstructed tree matches input: True",
                "  -val(3x3 minor) recovers every m=3 entry: True",
            ],
        ),
        (
            "nonuniqueness_experiment.py",
            ["--case", "3", "4", "--case", "3", "5"],
            [
                "m=3, n=4 (n = 2m-2): 3 unit-weight topologies, 1 distinct tensors",
                "m=3, n=5 (n = 2m-1): 15 unit-weight topologies, 15 distinct tensors",
            ],
        ),
    ],
)
def test_script_runs(script, args, lines):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    for line in lines:
        assert line in out


def test_bench_layers_writes_every_layer(tmp_path):
    out = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_layers.py"), "--sizes", "5", "6", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["python"] == platform.python_version()
    assert result["commit"]
    assert len(result["layers"]) == 22
    uniform = [name for name in result["layers"] if not name.endswith(" [caterpillar]")]
    assert sorted(result["layers"]) == sorted(uniform + [f"{name} [caterpillar]" for name in uniform])
    for sizes in result["layers"].values():
        assert sorted(sizes) == ["5", "6"]
        for cell in sizes.values():
            assert cell["raw_ms"] >= 0 and cell["slowdown"] > 0
            assert cell["scaled_ms"] == pytest.approx(cell["raw_ms"] / cell["slowdown"], rel=0.01, abs=1e-3)
