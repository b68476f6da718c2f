"""Graph container, on-disk dataset format, and a synthetic generator.

A dataset directory holds four files:

    graph.edges    whitespace-separated 0-based "u v" pairs, '#' comments allowed
    features.csv   N x C comma-separated reals, one node per row
    labels.csv     N integer class ids, one per row
    splits.json    {"train": [...], "val": [...], "test": [...]} index lists

The edge file is undirected: each line names one edge, duplicates and
reversed repeats collapse to a single edge, and self-loop lines are dropped
with a warning (schemes add their own diagonal).
"""

import json
import warnings
from pathlib import Path

import numpy as np

from .sparsemat import SparseMatrix, check_adjacency

SPLIT_NAMES = ("train", "val", "test")


class DatasetError(ValueError):
    """Raised when a dataset file is malformed; message names file (and line)."""


class Graph:
    """Node-classification instance: adjacency, features, labels, splits.

    splits maps "train"/"val"/"test" to disjoint int index arrays. Arrays are
    stored read-only; adjacency is a symmetric zero-diagonal SparseMatrix.
    """

    __slots__ = ("n_nodes", "adjacency", "features", "labels", "splits")

    def __init__(self, n_nodes, adjacency, features, labels, splits):
        n_nodes = int(n_nodes)
        if not isinstance(adjacency, SparseMatrix):
            adjacency = SparseMatrix.from_scipy(adjacency)
        if adjacency.shape != (n_nodes, n_nodes):
            raise ValueError("adjacency shape does not match n_nodes")
        check_adjacency(adjacency)
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != n_nodes:
            raise ValueError("features must be a 2-D array with one row per node")
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if labels.shape != (n_nodes,):
            raise ValueError("labels must be a length-N integer vector")
        if len(labels) and labels.min() < 0:
            raise ValueError("labels must be nonnegative class ids")
        clean = {}
        seen = np.zeros(n_nodes, dtype=bool)
        for name in SPLIT_NAMES:
            if name not in splits:
                raise ValueError(f"splits missing {name!r}")
            idx = np.ascontiguousarray(splits[name], dtype=np.int64)
            if idx.ndim != 1:
                raise ValueError(f"split {name!r} must be a flat index list")
            if len(idx) and (idx.min() < 0 or idx.max() >= n_nodes):
                raise ValueError(f"split {name!r} has out-of-range node ids")
            if len(np.unique(idx)) != len(idx):
                raise ValueError(f"split {name!r} has repeated node ids")
            if np.any(seen[idx]):
                raise ValueError("splits must be pairwise disjoint")
            seen[idx] = True
            clean[name] = idx
        self.n_nodes = n_nodes
        self.adjacency = adjacency
        self.features = features
        self.labels = labels
        self.splits = clean
        for arr in (self.features, self.labels, *self.splits.values()):
            arr.flags.writeable = False

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def n_classes(self):
        return int(self.labels.max()) + 1 if self.n_nodes else 0

    def __repr__(self):
        sizes = "/".join(str(len(self.splits[k])) for k in SPLIT_NAMES)
        return (
            f"Graph(N={self.n_nodes}, undirected_edges={self.adjacency.nnz // 2}, "
            f"C={self.n_features}, classes={self.n_classes}, splits={sizes})"
        )


def _parse_edges(path, n_nodes):
    """Unique undirected (u, v) pairs with u < v, validated against n_nodes."""
    pairs = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DatasetError(f"{path}:{lineno}: expected two node ids, got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-integer node id in {line!r}") from None
            if u < 0 or v < 0 or u >= n_nodes or v >= n_nodes:
                raise DatasetError(
                    f"{path}:{lineno}: node id out of range for {n_nodes} nodes: {line!r}"
                )
            if u == v:
                warnings.warn(f"{path}:{lineno}: dropping self-loop on node {u}")
                continue
            pairs.add((min(u, v), max(u, v)))
    if not pairs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    arr = np.array(sorted(pairs), dtype=np.int64)
    return arr[:, 0], arr[:, 1]


def _adjacency_from_pairs(n_nodes, u, v):
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    return SparseMatrix.from_coo(n_nodes, n_nodes, rows, cols, np.ones(len(rows)))


def load_graph(edge_path, feature_path, label_path, split_path):
    """Load a Graph from the four dataset files.

    Node count is defined by the feature file; every other file is validated
    against it. Malformed content raises DatasetError naming the file (and
    line where one is known).
    """
    try:
        features = np.loadtxt(feature_path, delimiter=",", dtype=np.float64, ndmin=2)
    except Exception as exc:
        raise DatasetError(f"{feature_path}: {exc}") from None
    n_nodes = features.shape[0]

    try:
        labels = np.loadtxt(label_path, dtype=np.int64, ndmin=1)
    except Exception as exc:
        raise DatasetError(f"{label_path}: {exc}") from None
    if labels.shape != (n_nodes,):
        raise DatasetError(
            f"{label_path}: expected {n_nodes} labels (one per feature row), got {labels.shape}"
        )
    # Graph rejects these too, but its errors are reported below against the split file.
    if np.any(labels < 0):
        raise DatasetError(f"{label_path}: labels must be nonnegative class ids")

    u, v = _parse_edges(edge_path, n_nodes)
    adjacency = _adjacency_from_pairs(n_nodes, u, v)

    try:
        with open(split_path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{split_path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise DatasetError(f"{split_path}: top level must be an object with train/val/test")
    for name in SPLIT_NAMES:
        if name not in raw:
            raise DatasetError(f"{split_path}: missing split {name!r}")
        if not isinstance(raw[name], list) or not all(isinstance(i, int) for i in raw[name]):
            raise DatasetError(f"{split_path}: split {name!r} must be a list of integers")
    try:
        return Graph(n_nodes, adjacency, features, labels,
                     {k: np.array(raw[k], dtype=np.int64) for k in SPLIT_NAMES})
    except ValueError as exc:
        raise DatasetError(f"{split_path}: {exc}") from None


def load_graph_dir(data_dir):
    """load_graph with the four conventional file names under one directory."""
    d = Path(data_dir)
    return load_graph(d / "graph.edges", d / "features.csv", d / "labels.csv", d / "splits.json")


def save_graph(graph, data_dir):
    """Write the four dataset files; load_graph_dir round-trips bit-identically.

    Floats are written with repr (shortest string that parses back to the
    same double), so features survive the trip exactly. graph.edges is
    unweighted: a weight other than 1 raises ValueError, and nothing is written.
    """
    if np.any(graph.adjacency.values != 1):
        raise ValueError("graph.edges stores unweighted `u v` pairs; save_graph "
                         "cannot write a graph whose edge weights are not all 1")
    d = Path(data_dir)
    d.mkdir(parents=True, exist_ok=True)
    u, v = graph.adjacency.undirected_edges()
    with open(d / "graph.edges", "w") as fh:
        for a, b in zip(u, v):
            fh.write(f"{a} {b}\n")
    with open(d / "features.csv", "w") as fh:
        for row in graph.features:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")
    with open(d / "labels.csv", "w") as fh:
        for lab in graph.labels:
            fh.write(f"{lab}\n")
    with open(d / "splits.json", "w") as fh:
        json.dump({k: [int(i) for i in graph.splits[k]] for k in SPLIT_NAMES}, fh)
        fh.write("\n")
    return d


def synthetic_sbm(n_nodes=120, n_blocks=3, p_intra=0.2, p_inter=0.02, n_features=16,
                  noise=1.0, seed=0, split_fractions=(0.6, 0.2, 0.2)):
    """Stochastic block model instance for tests and demos.

    Nodes are assigned to blocks round-robin; edges are sampled independently
    with probability p_intra inside a block and p_inter across blocks.
    Features are a per-block Gaussian center plus isotropic noise, labels are
    the block ids, and splits are a stratified shuffle in the given
    proportions. Fully determined by `seed`.
    """
    if n_blocks < 1 or n_nodes < n_blocks:
        raise ValueError("need at least one node per block")
    if not (0 <= p_inter <= 1 and 0 <= p_intra <= 1):
        raise ValueError("edge probabilities must lie in [0, 1]")
    if len(split_fractions) != 3 or abs(sum(split_fractions) - 1.0) > 1e-9:
        raise ValueError("split_fractions must be three numbers summing to 1")
    rng = np.random.default_rng(seed)
    blocks = np.arange(n_nodes) % n_blocks

    iu, iv = np.triu_indices(n_nodes, k=1)
    p_edge = np.where(blocks[iu] == blocks[iv], p_intra, p_inter)
    keep = rng.random(len(iu)) < p_edge
    adjacency = _adjacency_from_pairs(n_nodes, iu[keep], iv[keep])

    centers = rng.normal(0.0, 2.0, size=(n_blocks, n_features))
    features = centers[blocks] + noise * rng.normal(size=(n_nodes, n_features))

    order = rng.permutation(n_nodes)
    train, val, test = [], [], []
    for b in range(n_blocks):
        members = order[blocks[order] == b]
        n_tr = int(round(split_fractions[0] * len(members)))
        n_va = int(round(split_fractions[1] * len(members)))
        train.extend(members[:n_tr])
        val.extend(members[n_tr:n_tr + n_va])
        test.extend(members[n_tr + n_va:])
    splits = {
        "train": np.array(sorted(train), dtype=np.int64),
        "val": np.array(sorted(val), dtype=np.int64),
        "test": np.array(sorted(test), dtype=np.int64),
    }
    return Graph(n_nodes, adjacency, features, blocks.astype(np.int64), splits)
