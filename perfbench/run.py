#!/usr/bin/env python3
"""Offline benchmark of dropgcn on a generated Cora-shaped graph.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --trace 1             # every workload, traced
    python3 perfbench/run.py --workload deep-nodrop --seed 3 --seconds 20 --trace 0

Without --workload each workload runs in its own process, one after the
other. A workload process writes its dataset from --seed (untimed, in a
child process), loads it, runs its operations for about --seconds, checks
their outputs, and prints every metric by name and unit. Its last line is
one JSON object: correct, attempted, failed and metrics, the end-to-end
metrics untraced (--trace 0) or the per-layer metrics traced (--trace 1).
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# Pinned before numpy is first imported (only functions below import it),
# in this process and in every child it starts.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("shallow-wide", "deep-layerwise", "deep-nodrop", "spectral")
MIN_ROUNDS = 2


def git_commit(root):
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError):
            return "unknown"

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(ROOT), "seed": seed}


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def write_dataset(seed, size, out_dir):
    """Body of the --write-dataset child: generate and save the dataset."""
    import cora_shaped
    import workloads as W
    from dropgcn import save_graph
    save_graph(cora_shaped.cora_shaped(seed, W.SIZES[size].graph), out_dir)


def generate(seed, size, out_dir):
    """Write the dataset in a child process, so its memory stays out of this
    process's peak RSS. subprocess.run waits for the child on every path out."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
           "--size", size, "--write-dataset", str(out_dir)]
    code = subprocess.run(cmd, stdout=sys.stderr).returncode
    if code != 0:
        raise RuntimeError(f"dataset generation failed with exit code {code}")


def run_workload(args):
    import tracing
    import workloads as W

    workload = W.WORKLOADS[args.workload]
    size = W.SIZES[args.size]
    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{os.getpid()}"
    data = work / "data"
    print("env " + json.dumps(environment(args.seed)), flush=True)
    try:
        generate(args.seed, args.size, data)
        input_bytes = sum(f.stat().st_size for f in data.iterdir())
        # Half the set-up loads come before the rounds and half after, so
        # setup_s samples the machine at both ends of the run.
        times = []
        for _ in range((size.load_repeats + 1) // 2):
            graph = None  # one graph alive at a time
            graph, seconds = W.load(data)
            times.append(seconds)
        runner = W.Runner(workload, graph, args.seed, size, work)
        if not args.trace:
            ops = runner.rounds(args.seconds, MIN_ROUNDS)
            rss = peak_rss_mb()  # before the trailing loads, which it must not see
            times += [W.load(data)[1] for _ in range(size.load_repeats // 2)]
            detail = W.detail_metrics(workload.kind, ops)
            values = {"setup_s": statistics.median(times),
                      "work_per_s": W.work_per_s(workload.kind, ops), "peak_rss_mb": rss}
            units = {name: unit for name, unit, _ in W.END_TO_END}
            units.update(W.DETAIL[workload.kind])
            report = {**values, **detail}
        else:
            plain = runner.rounds(args.seconds / 2, 1)
            load_tracer = tracing.Tracer()
            with load_tracer.install():
                W.load(data)
            tracer = tracing.Tracer(W.make_hooks(runner.pending))
            with tracer.install():
                traced = runner.rounds(args.seconds / 2, 1)
            traced_rate = W.work_per_s(workload.kind, traced)
            # 0 when no traced operation succeeded; those are counted as failed.
            overhead = (W.work_per_s(workload.kind, plain) / traced_rate - 1.0
                        if traced_rate else 0.0)
            values, uncalled = W.layer_metrics(workload, tracer, load_tracer, traced,
                                               input_bytes, overhead)
            ops = plain + traced
            scratch.mkdir(exist_ok=True)
            spans = scratch / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tracer.write_spans(spans)
            print(f"spans {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
            print("uncalled_wrappers " + (" ".join(uncalled) if uncalled else "none"))
            units = {name: unit for name, unit, _ in W.PER_LAYER}
            report = values
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()

    for op in ops:
        status = "ok" if not op.problems else "FAILED " + "; ".join(op.problems)
        print(f"op {op.kind} wall={op.wall:.4f}s work={op.work} "
              f"digest={op.digest[:16] or '-'} {status}")
    for name, value in report.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    failed = sum(1 for op in ops if op.problems)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in values}}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (inputs and training)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's own tests")
    parser.add_argument("--write-dataset", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dropgcn" / "__init__.py").is_file():
        print(f"error: no dropgcn sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.write_dataset:
        write_dataset(args.seed, args.size, args.write_dataset)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
