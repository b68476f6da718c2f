#!/usr/bin/env python3
"""Record the benchmark's results in a BENCH_<name>.json file.

For each workload, perfbench/run.py runs RUNS times untraced and once
with --trace 1, at seed SEED for SECONDS seconds, each run in its own
process, one after the other. The record holds run.py's `env` line, the
median, range and values of each untraced metric (the end-to-end ones,
which run.py's JSON line carries, and the workload's detail metrics), the
traced run's per-layer metrics, every failed operation, and every run that
ended without its JSON line.

The host's speed drifts between sessions, so the absolute numbers of two
records cannot be compared. The record therefore also runs the first
parent of HEAD in the same session, checked out in a temporary git
worktree that is removed on every exit path. Each of its runs is paired
with one of HEAD's, per workload, and which side runs first alternates
from pair to pair. The `parent` block holds the parent's commit, its
summaries in the HEAD block's shape, and `ratios`: per workload and
end-to-end metric, the median over the untraced pairs of HEAD's value over
the parent's. The series of ratios is the trajectory; the absolute numbers
are context. perfbench/ is only run, never changed. In the worktree
perfbench names the commit "unknown" (there .git is a file), so the
parent's commit comes from `git rev-parse HEAD^`.

The record names the checkout's HEAD commit, so a checkout whose tracked
files differ from HEAD is refused (exit 2, no run) and the files listed;
commit first. Outside a git checkout, or at a root commit, there is no
parent: the record is taken without a parent block.

    python3 tools/bench_record.py --out BENCH_27.json
"""

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("shallow-wide", "deep-layerwise", "deep-nodrop", "spectral")
RUNS = 3
SEED = 0
SECONDS = 20.0


def parse_run(stdout):
    """The parts of one run.py --workload output that a record keeps:
    {"env", "metrics" (each `metric` line's value), "uncalled_wrappers",
    "failed_ops" (each failed `op` line), "result" (the final JSON object,
    None when the run did not print it)}."""
    out = {"env": None, "metrics": {}, "uncalled_wrappers": None, "failed_ops": [],
           "result": None}
    lines = stdout.splitlines()
    for line in lines:
        if line.startswith("env "):
            out["env"] = json.loads(line[4:])
        elif line.startswith("metric "):
            _, name, value, _unit = line.split(" ", 3)
            out["metrics"][name] = float(value)
        elif line.startswith("uncalled_wrappers "):
            out["uncalled_wrappers"] = line.split()[1:]
        elif line.startswith("op ") and " FAILED " in line:
            out["failed_ops"].append(line[3:])
    if lines and lines[-1].startswith("{"):
        out["result"] = json.loads(lines[-1])
    return out


def spread(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "values": values}


def summarize(untraced, traced):
    """One workload's record from its parsed untraced runs and traced run.
    Runs without a JSON line are listed under failed_runs and left out of
    the metrics."""
    done = [run for run in untraced if run["result"] is not None]
    end_to_end = {}
    for run in done:
        for name, metric in run["result"]["metrics"].items():
            end_to_end.setdefault(name, {"unit": metric["unit"], "values": []})
            end_to_end[name]["values"].append(metric["value"])
    detail = {}
    for run in done:
        for name, value in run["metrics"].items():
            if name not in end_to_end:
                detail.setdefault(name, []).append(value)
    runs = [(False, run) for run in untraced] + [(True, traced)]
    return {
        "end_to_end": {name: {"unit": m["unit"], **spread(m["values"])}
                       for name, m in end_to_end.items()},
        "detail": {name: spread(values) for name, values in detail.items()},
        "traced": (traced["result"]["metrics"] if traced["result"] is not None else None),
        "uncalled_wrappers": traced["uncalled_wrappers"],
        "failed_ops": [f"{'traced' if t else 'untraced'}: {op}"
                       for t, run in runs for op in run["failed_ops"]],
        "failed_runs": [{"traced": t, "exit": run["exit"], "tail": run["tail"]}
                        for t, run in runs if run["result"] is None],
    }


def pair_ratios(head, parent):
    """Per end-to-end metric, the median over paired untraced runs of
    HEAD's value over the parent's. A pair where either run has no result,
    or the parent's value is 0, is left out."""
    values = {}
    for h, p in zip(head, parent):
        if h["result"] is None or p["result"] is None:
            continue
        for name, metric in h["result"]["metrics"].items():
            base = p["result"]["metrics"].get(name, {}).get("value")
            if base:
                values.setdefault(name, []).append(metric["value"] / base)
    return {name: statistics.median(v) for name, v in values.items()}


def run_perfbench(checkout, workload, trace):
    """(exit code, stdout) of one process of the run.py in `checkout`."""
    cmd = [sys.executable, str(Path(checkout) / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return proc.returncode, proc.stdout + proc.stderr[-2000:]
    return proc.returncode, proc.stdout


def git(root, *args):
    """git's stdout in the checkout at `root`; None when git fails or is
    missing."""
    try:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    except FileNotFoundError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def tracked_changes(root):
    """`git status --porcelain` lines of the tracked files that differ from
    HEAD in the checkout at `root`; empty when `root` is not in a git
    checkout or git is missing."""
    return (git(root, "status", "--porcelain", "--untracked-files=no") or "").splitlines()


@contextlib.contextmanager
def parent_checkout(root):
    """{"commit", "path"} of HEAD's first parent, checked out in a temporary
    git worktree that is removed on every exit path; None outside a git
    checkout or at a root commit."""
    commit = git(root, "rev-parse", "--verify", "--quiet", "HEAD^")
    if not commit:
        yield None
        return
    tmp = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    path = tmp / "parent"
    try:
        if git(root, "worktree", "add", "--detach", str(path), commit.strip()) is None:
            raise RuntimeError(f"git worktree add {path} failed")
        yield {"commit": commit.strip(), "path": path}
    finally:
        git(root, "worktree", "remove", "--force", str(path))
        shutil.rmtree(tmp, ignore_errors=True)
        git(root, "worktree", "prune")


def record(workloads, runs, run, parent=None):
    """The record: `run(checkout, workload, trace)` gives one run's (exit
    code, stdout) in `checkout`; each workload runs `runs` times untraced,
    then once traced, in ROOT. With `parent` (parent_checkout's value), each
    of those runs is paired with the same run in parent["path"], HEAD first
    in even pairs and the parent first in odd ones."""
    sides = {"head": ROOT} if parent is None else {"head": ROOT, "parent": parent["path"]}
    env = dict.fromkeys(sides)
    out = {side: {} for side in sides}
    ratios = {}
    for workload in workloads:
        parsed = {side: [] for side in sides}
        for i, trace in enumerate([0] * runs + [1]):
            for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
                code, stdout = run(sides[side], workload, trace)
                result = parse_run(stdout)
                result["exit"] = code
                result["tail"] = stdout.splitlines()[-5:]
                if code != 0:
                    result["result"] = None
                env[side] = env[side] or result["env"]
                parsed[side].append(result)
                print(f"{side} {workload} trace={trace} exit={code} "
                      f"{'ok' if result['result'] else 'no result'}", file=sys.stderr,
                      flush=True)
        for side, runs_of_side in parsed.items():
            out[side][workload] = summarize(runs_of_side[:-1], runs_of_side[-1])
        if parent is not None:
            ratios[workload] = pair_ratios(parsed["head"][:-1], parsed["parent"][:-1])
    rec = {"env": env["head"], "runs": runs, "workloads": out["head"]}
    if parent is not None:
        rec["parent"] = {"commit": parent["commit"], "env": env["parent"],
                         "workloads": out["parent"], "ratios": ratios}
    return rec


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="record file to write")
    args = parser.parse_args(argv)
    changed = tracked_changes(ROOT)
    if changed:
        print("tracked files differ from HEAD, whose commit the record would name; "
              "commit them first:", *changed, sep="\n", file=sys.stderr)
        return 2
    with parent_checkout(ROOT) as parent:
        rec = record(WORKLOADS, RUNS, run_perfbench, parent)
    rec["seconds"] = SECONDS
    Path(args.out).write_text(json.dumps(rec, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    blocks = [rec, rec["parent"]] if "parent" in rec else [rec]
    failed = any(w["failed_ops"] or w["failed_runs"]
                 for block in blocks for w in block["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
