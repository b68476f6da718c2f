#!/usr/bin/env python3
"""Print the output digests of the benchmark's four workloads.

Each training workload of perfbench/workloads.py (shallow-wide,
deep-layerwise, deep-nodrop) trains once with its benchmark config on the
Cora-shaped graph of --seed (perfbench/cora_shaped.py), with
keep_best_model=True. One line per workload:

    <workload> <metrics.csv sha256[:16]> <model.npz sha256[:16]>

The spectral workload's round (its Runner's analyze, trajectory and
resistance operations, on the same graph and the two connected graphs of
--seed) runs once and prints

    spectral <analyze> <trajectory> <resistance>

each operation's own digest[:16], as perfbench prints it on its `op`
lines.

Then the library's own reports, from one 4-layer config (dropout 0.5,
p=0.3, --epochs, seed --seed) on the fixed graph synthetic_sbm(seed=3):

    probe <sha of probe.json's layer_range, before and after>
    dropout-vs-dropedge <neither> <dropout> <dropedge> <both>
    layerwise <oneshot> <layerwise>

the probe over layers 2-3, and each ablation arm's metrics.csv. No output
path and no wall time is hashed.

A change that alters no float prints the same lines. The bytes depend on
the BLAS thread count, so BLAS is pinned to one thread before numpy loads.
perfbench/ is only read.

    python3 tools/digests.py                   # seed 11, 3 epochs, Cora size
    python3 tools/digests.py --size tiny --epochs 1
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/

import cora_shaped  # noqa: E402
import workloads  # noqa: E402
from dropgcn import DropEdgeConfig, ModelConfig, TrainConfig, synthetic_sbm  # noqa: E402
from dropgcn.training import (ablate_dropout_dropedge, ablate_layerwise,  # noqa: E402
                              oversmoothing_probe, train)


def sha16(data):
    """sha256[:16] of the bytes `data`."""
    return hashlib.sha256(data).hexdigest()[:16]


def training_digests(graph, seed, epochs):
    """(workload, metrics.csv digest, model.npz digest) per training workload."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for w in workloads.WORKLOADS.values():
            if w.kind != "train":
                continue
            run_dir = Path(tmp) / w.name
            train(w.config(seed, run_dir, epochs), graph=graph, keep_best_model=True)
            out.append((w.name, sha16((run_dir / "metrics.csv").read_bytes()),
                        sha16((run_dir / "model.npz").read_bytes())))
    return out


def report_digests(seed, epochs):
    """(name, digest, ...) per library report on synthetic_sbm(seed=3): the
    probe's measurements, then each ablation's arms' metrics.csv."""
    graph = synthetic_sbm(seed=3)
    model = ModelConfig(n_layers=4, hidden_dim=16, dropout=0.5, dropedge=DropEdgeConfig(p=0.3))
    config = TrainConfig(model=model, epochs=epochs, seed=seed)
    probe = oversmoothing_probe(config, graph, layer_range=(2, 3))
    measured = {k: probe[k] for k in ("layer_range", "before", "after")}
    out = [("probe", sha16(json.dumps(measured, indent=2).encode()))]
    for name, ablate in (("dropout-vs-dropedge", ablate_dropout_dropedge),
                         ("layerwise", ablate_layerwise)):
        out.append((name, *(sha16(r.to_csv().encode()) for r in ablate(config, graph).values())))
    return out


def spectral_digests(graph, seed, size):
    """(analyze, trajectory, resistance) digests of one round of the
    spectral workload, each its operation's own."""
    runner = workloads.Runner(workloads.WORKLOADS["spectral"], graph, seed,
                              workloads.SIZES[size], work_dir=None)
    return tuple(make_op().digest[:16] for make_op in runner.round)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11, help="graph and training seed")
    parser.add_argument("--epochs", type=int, default=3, help="epochs per run")
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="tiny: the benchmark's small graph")
    args = parser.parse_args(argv)
    graph = cora_shaped.cora_shaped(args.seed, workloads.SIZES[args.size].graph)
    for name, metrics, model in training_digests(graph, args.seed, args.epochs):
        print(f"{name} {metrics} {model}")
    print("spectral", *spectral_digests(graph, args.seed, args.size))
    for line in report_digests(args.seed, args.epochs):
        print(*line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
