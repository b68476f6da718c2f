#!/usr/bin/env python3
"""Convert raw citation-network files into the dataset directory layout
(graph.edges, features.csv, labels.csv, splits.json).

Two input flavors are understood:

planetoid   The pickled ind.<name>.{x,tx,allx,y,ty,ally,graph,test.index}
            files. Node order follows the pickles: the allx block first,
            then the test block, with the shuffled test rows put back into
            their sorted positions. Splits use the full-supervised
            protocol: every non-test node except the last 500 of the allx
            block trains, those 500 validate, the test.index nodes test.
            Citeseer's gaps (test ids missing from the pickles) are filled
            with zero rows so indices stay dense.

linqs       The plain-text <name>.content / <name>.cites pair. These carry
            no canonical split, so a seeded shuffle makes one
            (train = rest, val 500, test 1000 by default); pass --seed to
            change it. Results are NOT comparable to planetoid-split
            numbers.

Features are row-normalized (each row divided by its sum, zero rows left
alone) in both paths, matching the usual preprocessing for these graphs.
Both paths build the adjacency with dropgcn.graph.adjacency_from_pairs, the
builder the dataset loader uses: citations are undirected, so repeated and
reversed pairs become one unit edge, and self-citations are dropped.

Examples:
    python3 tools/prepare_dataset.py planetoid --raw-dir raw/ --name cora --out data/cora
    python3 tools/prepare_dataset.py linqs --content cora.content --cites cora.cites --out data/cora
"""

import argparse
import pickle
import sys
from pathlib import Path

import numpy as np
import scipy.sparse

from dropgcn import Graph
from dropgcn.graph import adjacency_from_pairs, save_graph


def row_normalize(features):
    sums = features.sum(axis=1)
    scale = np.where(sums > 0, sums, 1.0)
    return features / scale[:, None]


# -- planetoid pickles --------------------------------------------------


def _load_pickle(path):
    with open(path, "rb") as fh:
        return pickle.load(fh, encoding="latin1")


def load_planetoid(raw_dir, name, n_val=500):
    raw = Path(raw_dir)
    parts = {}
    for suffix in ("x", "y", "tx", "ty", "allx", "ally", "graph"):
        parts[suffix] = _load_pickle(raw / f"ind.{name}.{suffix}")
    test_idx = np.loadtxt(raw / f"ind.{name}.test.index", dtype=np.int64)

    allx = scipy.sparse.csr_matrix(parts["allx"])
    tx = scipy.sparse.csr_matrix(parts["tx"])
    ally = np.asarray(parts["ally"])
    ty = np.asarray(parts["ty"])

    test_sorted = np.sort(test_idx)
    n_nodes = int(max(test_sorted[-1] + 1, allx.shape[0] + tx.shape[0]))

    features = np.zeros((n_nodes, allx.shape[1]))
    onehot = np.zeros((n_nodes, ally.shape[1]))
    features[: allx.shape[0]] = allx.toarray()
    onehot[: ally.shape[0]] = ally
    # The tx rows are ordered by position in the test.index file; writing
    # them at test_idx puts each row at its true node id. Ids missing from
    # the file (citeseer) simply stay zero.
    features[test_idx] = tx.toarray()
    onehot[test_idx] = ty

    labels = onehot.argmax(axis=1).astype(np.int64)
    n_all = ally.shape[0]
    if n_val >= n_all:
        raise SystemExit(f"error: {n_val} validation nodes do not fit in the "
                         f"{n_all}-node labeled block")
    splits = {
        "train": np.arange(n_all - n_val, dtype=np.int64),
        "val": np.arange(n_all - n_val, n_all, dtype=np.int64),
        "test": test_sorted,
    }

    pairs = [(u, v) for u, nbrs in parts["graph"].items() for v in nbrs]
    adjacency = adjacency_from_pairs(n_nodes, *np.reshape(pairs, (-1, 2)).T)
    return Graph(n_nodes, adjacency, row_normalize(features), labels, splits)


# -- linqs text files ---------------------------------------------------


def load_linqs(content_path, cites_path, seed, n_val, n_test):
    ids, rows, label_names = [], [], []
    with open(content_path) as fh:
        for line in fh:
            cells = line.split()
            if not cells:
                continue
            ids.append(cells[0])
            rows.append([float(c) for c in cells[1:-1]])
            label_names.append(cells[-1])
    n_nodes = len(ids)
    index = {node: i for i, node in enumerate(ids)}
    classes = {name: i for i, name in enumerate(sorted(set(label_names)))}
    labels = np.array([classes[name] for name in label_names], dtype=np.int64)
    features = np.asarray(rows)

    pairs, skipped = [], 0
    with open(cites_path) as fh:
        for line in fh:
            cells = line.split()
            if not cells:
                continue
            try:
                pairs.append((index[cells[0]], index[cells[1]]))
            except KeyError:
                skipped += 1  # citation into a paper without a content row
    if skipped:
        print(f"note: skipped {skipped} citation lines referencing unknown ids",
              file=sys.stderr)

    if n_val + n_test >= n_nodes:
        raise SystemExit(f"error: {n_val} val + {n_test} test nodes do not fit "
                         f"in a {n_nodes}-node graph")
    order = np.random.default_rng(seed).permutation(n_nodes)
    splits = {
        "train": np.sort(order[: n_nodes - n_val - n_test]),
        "val": np.sort(order[n_nodes - n_val - n_test: n_nodes - n_test]),
        "test": np.sort(order[n_nodes - n_test:]),
    }
    adjacency = adjacency_from_pairs(n_nodes, *np.reshape(pairs, (-1, 2)).T)
    return Graph(n_nodes, adjacency, row_normalize(features), labels, splits)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="flavor", required=True)

    p_plan = sub.add_parser("planetoid", help="pickled ind.<name>.* files")
    p_plan.add_argument("--raw-dir", required=True)
    p_plan.add_argument("--name", default="cora",
                        choices=["cora", "citeseer", "pubmed"])
    p_plan.add_argument("--out", required=True)
    p_plan.add_argument("--val-size", type=int, default=500)

    p_linqs = sub.add_parser("linqs", help="<name>.content and <name>.cites")
    p_linqs.add_argument("--content", required=True)
    p_linqs.add_argument("--cites", required=True)
    p_linqs.add_argument("--out", required=True)
    p_linqs.add_argument("--seed", type=int, default=0)
    p_linqs.add_argument("--val-size", type=int, default=500)
    p_linqs.add_argument("--test-size", type=int, default=1000)

    args = parser.parse_args(argv)
    if args.flavor == "planetoid":
        graph = load_planetoid(args.raw_dir, args.name, args.val_size)
    else:
        graph = load_linqs(args.content, args.cites, args.seed,
                           args.val_size, args.test_size)
    save_graph(graph, args.out)
    sizes = {k: len(v) for k, v in graph.splits.items()}
    print(f"wrote {args.out}: {graph.n_nodes} nodes, "
          f"{graph.adjacency.nnz // 2} undirected edges, "
          f"{graph.n_features} features, {graph.n_classes} classes, "
          f"splits {sizes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
