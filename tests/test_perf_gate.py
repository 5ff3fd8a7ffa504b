"""scripts/perf_gate.py: a perfbench result against a committed point.

The gate runs as CI runs it, in a subprocess, on synthetic last lines.
The committed points are the ones CI gates the seed-7919 ``sweep`` and
``exp`` runs against.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GATE = ROOT / "scripts" / "perf_gate.py"
POINTS = [
    ROOT / "benchmarks" / "perfbench_sweep_7919.json",
    ROOT / "benchmarks" / "perfbench_exp_7919.json",
]


def result_line(correct=True, **metrics):
    return json.dumps(
        {
            "correct": correct,
            "attempted": 2,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
        }
    )


def run_gate(tmp_path, run_line, point_wall=2.0):
    point = tmp_path / "point.json"
    point.write_text(result_line(wall_s=point_wall) + "\n")
    output = tmp_path / "run.txt"
    output.write_text(f"# a comment line\n{run_line}\n")
    return subprocess.run(
        [sys.executable, str(GATE), str(point), str(output)],
        capture_output=True,
        text=True,
    )


def test_within_the_bound_passes(tmp_path):
    proc = run_gate(tmp_path, result_line(wall_s=7.9))
    assert proc.returncode == 0, proc.stderr
    assert "7.900" in proc.stdout and "2.000" in proc.stdout and "3.95x" in proc.stdout


def test_above_the_bound_fails(tmp_path):
    proc = run_gate(tmp_path, result_line(wall_s=8.02))
    assert proc.returncode == 1
    assert "4.01x" in proc.stdout and "4.01x" in proc.stderr


def test_incorrect_run_fails(tmp_path):
    proc = run_gate(tmp_path, result_line(correct=False, wall_s=1.0))
    assert proc.returncode == 1
    assert "correct = False" in proc.stderr


def test_traced_run_without_wall_s_fails(tmp_path):
    proc = run_gate(tmp_path, result_line(**{"exp.e1_s": 0.3, "machine.io": 1.0}))
    assert proc.returncode == 1
    assert "no wall_s" in proc.stderr


@pytest.mark.parametrize("point", POINTS, ids=[p.name for p in POINTS])
def test_committed_point_is_correct_with_a_wall_time(point):
    (line,) = point.read_text().splitlines()
    result = json.loads(line)
    assert result["correct"] is True
    assert result["metrics"]["wall_s"]["value"] > 0
