#!/usr/bin/env python3
"""Print the output digests of the benchmark's four workloads.

Each training workload of perfbench/workloads.py (shallow-wide,
deep-layerwise, deep-nodrop) trains once with its benchmark config on the
Cora-shaped graph of --seed (perfbench/cora_shaped.py), with
keep_best_model=True. One line per workload:

    <workload> <metrics.csv sha256[:16]> <model.npz sha256[:16]>

The spectral workload's three calls run once, on the inputs its Runner
builds (the same graph and the two connected graphs of --seed), and print

    spectral <analyze> <trajectory> <resistance>

the sha256[:16] of analyze's eigenvalue bytes, top multiplicity and
component count (as perfbench's analyze_op hashes them), of the
trajectory's (removed_edge, n_components, top_multiplicity,
second_largest) steps and of the resistance report's (second_largest,
n_pairs, worst_margin, worst_pair).

A change that alters no float prints the same lines. The bytes depend on
the BLAS thread count, so BLAS is pinned to one thread before numpy loads.
perfbench/ is only read.

    python3 tools/digests.py                   # seed 11, 3 epochs, Cora size
    python3 tools/digests.py --size tiny --epochs 1
"""

import argparse
import hashlib
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
from dropgcn import spectral  # noqa: E402
from dropgcn.sparsemat import normalize  # noqa: E402
from dropgcn.training import train  # noqa: E402


def sha16(*parts):
    """sha256[:16] of the parts in turn: bytes as they are, anything else
    by its repr (which keeps every bit of a float)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


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


def spectral_digests(graph, seed, size):
    """(analyze, trajectory, resistance) digests of the spectral workload."""
    sizes = workloads.SIZES[size]
    rep = spectral.analyze(normalize(graph.adjacency, "AugNormAdj"))
    traj = spectral.theorem1_trajectory(cora_shaped.connected_graph(seed, *sizes.trajectory),
                                        seed)
    res = spectral.verify_resistance_bound(cora_shaped.connected_graph(seed, *sizes.resistance))
    return (sha16(rep.eigenvalues.tobytes(), rep.top_multiplicity, rep.component_count),
            sha16([(s.removed_edge, s.n_components, s.top_multiplicity, s.second_largest)
                   for s in traj.steps]),
            sha16((res.second_largest, res.n_pairs, res.worst_margin, res.worst_pair)))


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
