#!/usr/bin/env python3
"""Record the benchmark's results in a BENCH_<name>.json file.

For each workload, perfbench/run.py runs RUNS times untraced and once
with --trace 1, at seed SEED for SECONDS seconds, each run in its own
process, one after the other. The record holds run.py's `env` line, the
median, range and values of each untraced metric (the end-to-end ones,
which run.py's JSON line carries, and the workload's detail metrics), the
traced run's per-layer metrics, every failed operation, and every run that
ended without its JSON line.

One record does not replace alternating runs against a parent commit:
the host's speed drifts between sessions, so compare records only as a
trajectory. perfbench/ is only run, never changed.

The record names the checkout's HEAD commit, so a checkout whose tracked
files differ from HEAD is refused (exit 2, no run) and the files listed;
commit first. Outside a git checkout there is nothing to compare, and the
record is taken.

    python3 tools/bench_record.py --out BENCH_27.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"
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


def run_perfbench(workload, trace):
    """(exit code, stdout) of one run.py process."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return proc.returncode, proc.stdout + proc.stderr[-2000:]
    return proc.returncode, proc.stdout


def tracked_changes(root):
    """`git status --porcelain` lines of the tracked files that differ from
    HEAD in the checkout at `root`; empty when `root` is not in a git
    checkout or git is missing."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                              cwd=root, capture_output=True, text=True)
    except FileNotFoundError:
        return []
    return proc.stdout.splitlines() if proc.returncode == 0 else []


def record(workloads, runs, run):
    """The record: `run(workload, trace)` gives one run's (exit code,
    stdout); each workload runs `runs` times untraced, then once traced."""
    env, out = None, {}
    for workload in workloads:
        parsed = []
        for trace in [0] * runs + [1]:
            code, stdout = run(workload, trace)
            result = parse_run(stdout)
            result["exit"] = code
            result["tail"] = stdout.splitlines()[-5:]
            if code != 0:
                result["result"] = None
            env = env or result["env"]
            parsed.append(result)
            print(f"{workload} trace={trace} exit={code} "
                  f"{'ok' if result['result'] else 'no result'}", file=sys.stderr, flush=True)
        out[workload] = summarize(parsed[:-1], parsed[-1])
    return {"env": env, "runs": runs, "workloads": out}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="record file to write")
    args = parser.parse_args(argv)
    changed = tracked_changes(ROOT)
    if changed:
        print("tracked files differ from HEAD, whose commit the record would name; "
              "commit them first:", *changed, sep="\n", file=sys.stderr)
        return 2
    rec = record(WORKLOADS, RUNS, run_perfbench)
    rec["seconds"] = SECONDS
    Path(args.out).write_text(json.dumps(rec, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    failed = any(w["failed_ops"] or w["failed_runs"] for w in rec["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
