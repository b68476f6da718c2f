"""tools/bench_record.py's parser and summary, on canned run.py output; its
pairing of HEAD's runs with its parent's; and, in temporary git
repositories, its refusal of a checkout with tracked changes and the
parent worktree it removes on every exit path. No benchmark runs."""

import contextlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_record  # noqa: E402

ENV = ('env {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "blas_threads": 1, '
       '"nproc": 2, "commit": "abc123", "seed": 0}')


def untraced(work_per_s, setup_s, failed_op=None):
    ops = ["op analyze wall=1.3500s work=1 digest=1673a160e26ef144 ok",
           "op trajectory wall=0.6000s work=588 digest=bf2db0bc6f087fca ok"]
    if failed_op:
        ops.append(failed_op)
    result = {"correct": failed_op is None, "attempted": len(ops),
              "failed": int(failed_op is not None),
              "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                          "work_per_s": {"value": work_per_s, "unit": "1/s"},
                          "peak_rss_mb": {"value": 125.5, "unit": "MB"}}}
    return "\n".join([ENV, *ops, f"metric setup_s {setup_s:.6g} s",
                      f"metric work_per_s {work_per_s:.6g} 1/s",
                      "metric peak_rss_mb 125.5 MB", "metric analyze_s 1.35 s",
                      json.dumps(result)]) + "\n"


TRACED = "\n".join([
    ENV,
    "spans 120 written to .perfbench/spans-spectral-seed0.jsonl",
    "uncalled_wrappers none",
    "op analyze wall=1.4000s work=1 digest=1673a160e26ef144 ok",
    "metric spectral.analyze.calls 1 count",
    json.dumps({"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"spectral.analyze.calls": {"value": 1, "unit": "count"}}}),
]) + "\n"

CRASHED = ENV + "\nTraceback (most recent call last):\nMemoryError\n"


def test_parse_run_reads_env_metrics_failures_and_result():
    failed = "op resistance wall=0.2000s work=0 digest=- FAILED resistance bound violated"
    got = bench_record.parse_run(untraced(0.5, 0.1, failed))
    assert got["env"]["commit"] == "abc123"
    assert got["metrics"] == {"setup_s": 0.1, "work_per_s": 0.5, "peak_rss_mb": 125.5,
                              "analyze_s": 1.35}
    assert got["failed_ops"] == [failed[3:]]
    assert got["result"]["correct"] is False
    assert bench_record.parse_run(TRACED)["uncalled_wrappers"] == ["none"]
    assert bench_record.parse_run(CRASHED)["result"] is None


def test_record_summarizes_runs_and_keeps_failures():
    failed = "op trajectory wall=0.5000s work=588 digest=0000 FAILED trajectory: disjunction"
    outputs = {
        "spectral": [(0, untraced(0.50, 0.09)), (0, untraced(0.52, 0.12, failed)),
                     (0, untraced(0.48, 0.08)), (0, TRACED)],
        "deep-nodrop": [(0, untraced(5.0, 0.1)), (1, CRASHED), (0, untraced(5.4, 0.1)),
                        (1, CRASHED)],
    }

    def run(checkout, workload, trace):
        assert checkout == bench_record.ROOT
        code, stdout = outputs[workload].pop(0)
        assert trace == (not outputs[workload])  # three untraced runs, then the traced one
        return code, stdout

    rec = bench_record.record(["spectral", "deep-nodrop"], 3, run)
    assert rec["env"]["seed"] == 0 and rec["runs"] == 3
    assert "parent" not in rec
    spectral = rec["workloads"]["spectral"]
    assert spectral["end_to_end"]["work_per_s"] == {
        "unit": "1/s", "median": 0.50, "min": 0.48, "max": 0.52, "values": [0.50, 0.52, 0.48]}
    assert spectral["end_to_end"]["setup_s"]["median"] == pytest.approx(0.09)
    assert spectral["detail"]["analyze_s"]["values"] == [1.35] * 3
    assert spectral["traced"] == {"spectral.analyze.calls": {"value": 1, "unit": "count"}}
    assert spectral["failed_ops"] == ["untraced: " + failed[3:]]
    assert spectral["failed_runs"] == []
    # A crashed run is listed with its exit code and output tail, and its
    # metrics are left out.
    nodrop = rec["workloads"]["deep-nodrop"]
    assert nodrop["end_to_end"]["work_per_s"]["values"] == [5.0, 5.4]
    assert nodrop["traced"] is None
    assert [(r["traced"], r["exit"], r["tail"][-1]) for r in nodrop["failed_runs"]] == [
        (False, 1, "MemoryError"), (True, 1, "MemoryError")]


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                   cwd=repo, check=True, capture_output=True)


def test_tracked_changes_lists_only_tracked_files(tmp_path):
    assert bench_record.tracked_changes(tmp_path) == []  # not a git checkout
    git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    git(tmp_path, "add", "a.py")
    git(tmp_path, "commit", "-q", "-m", "a")
    (tmp_path / "untracked.txt").write_text("left by a run\n")
    assert bench_record.tracked_changes(tmp_path) == []
    (tmp_path / "a.py").write_text("x = 2\n")
    assert bench_record.tracked_changes(tmp_path) == [" M a.py"]


def test_main_refuses_a_checkout_with_tracked_changes(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("started a run")

    monkeypatch.setattr(bench_record, "record", refuse)
    monkeypatch.setattr(bench_record, "tracked_changes", lambda root: [" M src/a.py"])
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--out", str(out)]) == 2
    assert " M src/a.py" in capsys.readouterr().err
    assert not out.exists()
    # A clean checkout, or none, records as before.
    monkeypatch.setattr(bench_record, "tracked_changes", lambda root: [])
    monkeypatch.setattr(bench_record, "parent_checkout",
                        lambda root: contextlib.nullcontext(None))
    monkeypatch.setattr(bench_record, "record",
                        lambda *args: {"env": None, "runs": 3, "workloads": {}})
    assert bench_record.main(["--out", str(out)]) == 0
    assert json.loads(out.read_text())["runs"] == 3


PARENT = {"commit": "f00d", "path": Path("/elsewhere/parent")}


def test_record_pairs_each_run_with_the_parent():
    canned = {
        bench_record.ROOT: [untraced(5.0, 0.10), untraced(4.0, 0.20), untraced(6.0, 0.10),
                            TRACED],
        PARENT["path"]: [untraced(4.0, 0.10), untraced(5.0, 0.10), untraced(5.0, 0.08),
                         CRASHED],
    }
    calls = []

    def run(checkout, workload, trace):
        calls.append(("head" if checkout == bench_record.ROOT else "parent", trace))
        return (0 if canned[checkout][0] is not CRASHED else 1), canned[checkout].pop(0)

    rec = bench_record.record(["deep-nodrop"], 3, run, PARENT)
    # Each untraced run and the traced one is a pair; the side that goes
    # first alternates.
    assert calls == [("head", 0), ("parent", 0), ("parent", 0), ("head", 0),
                     ("head", 0), ("parent", 0), ("parent", 1), ("head", 1)]
    # The HEAD block keeps its shape; the parent block holds the same
    # summaries of the parent's runs, its commit and the per-pair ratios.
    assert set(rec) == {"env", "runs", "workloads", "parent"}
    assert rec["workloads"]["deep-nodrop"]["end_to_end"]["work_per_s"]["values"] == [
        5.0, 4.0, 6.0]
    parent = rec["parent"]
    assert parent["commit"] == "f00d" and parent["env"]["seed"] == 0
    assert parent["workloads"]["deep-nodrop"]["end_to_end"]["work_per_s"]["values"] == [
        4.0, 5.0, 5.0]
    assert parent["workloads"]["deep-nodrop"]["failed_runs"][0]["traced"] is True
    ratios = parent["ratios"]["deep-nodrop"]
    assert ratios["work_per_s"] == pytest.approx(1.2)       # median of 1.25, 0.8, 1.2
    assert ratios["setup_s"] == pytest.approx(1.25)         # median of 1, 2, 1.25
    assert ratios["peak_rss_mb"] == pytest.approx(1.0)


def test_pair_ratios_skip_runs_without_a_result():
    head = [bench_record.parse_run(untraced(6.0, 0.1)), bench_record.parse_run(CRASHED)]
    parent = [bench_record.parse_run(untraced(3.0, 0.1)),
              bench_record.parse_run(untraced(1.0, 0.1))]
    assert bench_record.pair_ratios(head, parent)["work_per_s"] == 2.0
    assert bench_record.pair_ratios([head[1]], [parent[1]]) == {}


def worktrees(repo):
    out = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=repo,
                         check=True, capture_output=True, text=True).stdout
    return [line for line in out.splitlines() if line.startswith("worktree ")]


def test_parent_checkout_is_removed_when_a_run_raises(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / "a.py").write_text("x = 1\n")
    git(repo, "add", "a.py")
    git(repo, "commit", "-q", "-m", "first")
    with bench_record.parent_checkout(repo) as parent:
        assert parent is None  # a root commit has no parent
    first = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                           capture_output=True, text=True).stdout.strip()
    (repo / "a.py").write_text("x = 2\n")
    git(repo, "commit", "-q", "-am", "second")

    def run(checkout, workload, trace):
        if checkout != bench_record.ROOT:
            (Path(checkout) / "left-by-a-run.txt").write_text("spans\n")
            raise RuntimeError("run failed")
        return 0, untraced(1.0, 0.1)

    seen = []
    with pytest.raises(RuntimeError, match="run failed"):
        with bench_record.parent_checkout(repo) as parent:
            seen.append(parent)
            assert parent["commit"] == first
            assert (parent["path"] / "a.py").read_text() == "x = 1\n"
            assert len(worktrees(repo)) == 2
            bench_record.record(["spectral"], 1, run, parent)
    assert not seen[0]["path"].exists() and not seen[0]["path"].parent.exists()
    assert len(worktrees(repo)) == 1
    with bench_record.parent_checkout(tmp_path / "not-a-checkout") as parent:
        assert parent is None
