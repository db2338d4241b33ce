"""The benchmark's own contract: tail rule, metric catalogue, CLI exits."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import stats
from perfbench.layers import PER_LAYER
from perfbench.run import END_TO_END, ROOT, tail
from perfbench.workload import Phase


@pytest.mark.parametrize("n, expected", [
    (0, 0.0), (19, 0.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9), (50000, 99.9)])
def test_tail_rule_keeps_ten_samples_beyond(n, expected):
    assert stats.supported_tail(n) == expected
    if expected:
        assert n * (100 - expected) / 100 >= 10 - 1e-9


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).random(257))
    for p in (0, 12.5, 50, 75, 99, 100):
        assert stats.percentile(values, p) == pytest.approx(
            np.percentile(values, p))


def test_windowed_tail_is_the_median_of_window_percentiles():
    class Workload:
        tail_percentile = 50.0

    phase = Phase(latency_windows=[[1, 2, 3], [10, 20, 30], [4, 5, 6]])
    assert tail(Workload, phase) == 5.0
    assert tail(Workload, Phase(latencies_s=[1, 2, 3, 4])) == 2.5


def test_throughput_is_the_median_window_rate():
    phase = Phase(work=30, wall_s=3,
                  windows=[(10, 1.0), (10, 2.0), (10, 0.5)])
    assert phase.throughput == 10.0
    assert Phase(work=30, wall_s=3).throughput == 10.0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        "rps_train", "rps_serve", "accel_dse"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_refuses_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "accel_dse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not list(Path(tmp_path).glob(".perfbench/*"))
