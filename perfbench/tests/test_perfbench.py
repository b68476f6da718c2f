"""Tests of the benchmark itself: the generator and a tiny run of each workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cora_shaped  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dropgcn import connected_components  # noqa: E402


def _same_graph(a, b):
    return (a.adjacency == b.adjacency
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.labels, b.labels)
            and all(np.array_equal(a.splits[k], b.splits[k]) for k in a.splits))


def test_generator_is_deterministic_per_seed():
    first = cora_shaped.cora_shaped(5, cora_shaped.TINY)
    assert _same_graph(first, cora_shaped.cora_shaped(5, cora_shaped.TINY))
    assert not _same_graph(first, cora_shaped.cora_shaped(6, cora_shaped.TINY))
    assert cora_shaped.connected_graph(5, 60, 150) == cora_shaped.connected_graph(5, 60, 150)
    assert cora_shaped.connected_graph(5, 60, 150) != cora_shaped.connected_graph(6, 60, 150)


@pytest.mark.parametrize("seed", [0, 7])
def test_cora_shape(seed):
    g = cora_shaped.cora_shaped(seed)
    assert g.n_nodes == 2708
    assert g.n_classes == 7
    assert tuple(np.bincount(g.labels)) == cora_shaped.CORA_CLASS_SIZES
    assert g.adjacency.nnz // 2 == 5278
    assert g.n_features == 1433
    density = float(np.mean(g.features > 0))
    assert 0.011 <= density <= 0.015
    np.testing.assert_allclose(g.features.sum(axis=1), 1.0)
    assert 0.75 <= cora_shaped.homophily(g) <= 0.87
    degrees = np.diff(g.adjacency.row_offsets)
    assert degrees.min() >= 1 and degrees.max() >= 30
    _, n_components = connected_components(g.adjacency)
    assert 10 <= n_components <= 150
    assert [len(g.splits[k]) for k in ("train", "val", "test")] == [1208, 500, 1000]


def test_connected_graph_sizes():
    a = cora_shaped.connected_graph(3, 200, 588)
    assert a.shape == (200, 200)
    assert a.nnz // 2 == 588
    assert connected_components(a)[1] == 1


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    out = _run(["--workload", name, "--size", "tiny", "--seconds", "0.5", "--seed", "1",
                "--trace", str(trace)])
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    table = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {metric: unit for metric, unit, _ in table}
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for metric, unit, _ in table:
        assert printed[metric] == unit
    if trace:
        assert "uncalled_wrappers none" in lines
    else:
        kind = workloads.WORKLOADS[name].kind
        for metric, unit in workloads.DETAIL[kind]:
            assert printed[metric] == unit
    env = json.loads(lines[0][len("env "):])
    assert env["blas_threads"] == 1 and env["seed"] == 1


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == \
        list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(workloads.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectral",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
