"""Graph container, on-disk dataset format, and a synthetic generator;
the one home of the form in which the first layer reads the features.

A dataset directory holds four files:

    graph.edges    whitespace-separated 0-based "u v" pairs, '#' comments allowed
    features.csv   N x C comma-separated finite reals, one node per row
    labels.csv     N nonnegative integer class ids, one per row
    splits.json    {"train": [...], "val": [...], "test": [...]} lists of
                   JSON integer node ids (true/false and 1.0 are rejected)

The edge file is undirected: each line names one edge, repeated and
reversed pairs collapse to a single unit edge, and self-loop lines are
dropped with a warning (schemes add their own diagonal).

features.csv is read as np.loadtxt(path, delimiter=",") reads it: values
separated by commas, '#' comments, blank lines, whitespace around values,
CRLF line ends and an optional final newline, with loadtxt's number
grammar and error messages. Every row holds the same number of values.
The file is read in blocks of whole lines. In a block of ASCII values,
commas and newlines only, whose values are at least half the literal 0.0
(as save_graph writes a zero), each 0.0 is recognised without converting
it. When every block is such a block and the features are at most
SPARSE_INPUT_DENSITY dense, they are kept as a CSR matrix from the
file on and never become a dense N x C array. Any other file is read whole
by np.loadtxt.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .sparsemat import SparseMatrix, check_adjacency

SPLIT_NAMES = ("train", "val", "test")

# features.csv is read in blocks of whole lines of about this many bytes, so
# the reader's temporaries stay small whatever the size of the file.
FEATURE_BLOCK_BYTES = 1 << 20
_NEWLINE, _COMMA, _DOT, _ZERO = b"\n,.0"

# Input features with at most this fraction of nonzero entries go into the
# first layer as a sparse constant (bag-of-words features are about 1 % dense).
# Timed on 2708x1433 features with one BLAS thread, a first-layer epoch on the
# sparse path stops being faster than on the dense one at about 15 % density
# for hidden width 256, 17 % for 128 and 30 % for 16; at 10 % it is at least
# 1.3x faster for all three. Dense Gaussian features are 4-6x slower sparse.
SPARSE_INPUT_DENSITY = 0.10


class DatasetError(ValueError):
    """Raised when a dataset file is malformed; message names file (and line)."""


class Graph:
    """Node-classification instance: adjacency, features, labels, splits.

    splits maps "train"/"val"/"test" to disjoint int index arrays. Arrays are
    stored read-only; adjacency is a symmetric zero-diagonal SparseMatrix.
    The features, given as an array or a scipy sparse matrix, are kept once,
    as `x`, in the form the first layer reads (model_input: a CSR
    constant for sparse features, else the dense array); `features` gives
    them back dense. An array passed in that already has its stored form
    (dense features float64 and C-contiguous, labels and splits int64) is
    kept as given, not copied, so the caller's own array becomes
    read-only; sparse features are copied.
    """

    __slots__ = ("n_nodes", "adjacency", "x", "labels", "splits")

    def __init__(self, n_nodes, adjacency, features, labels, splits):
        n_nodes = int(n_nodes)
        if adjacency.shape != (n_nodes, n_nodes):
            raise ValueError("adjacency shape does not match n_nodes")
        check_adjacency(adjacency)
        if not sp.issparse(features):
            features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != n_nodes:
            raise ValueError("features must be a 2-D array with one row per node")
        labels = _check_labels(labels, n_nodes)
        clean = {}
        seen = np.zeros(n_nodes, dtype=bool)
        for name in SPLIT_NAMES:
            if name not in splits:
                raise ValueError(f"splits missing {name!r}")
            raw = np.asarray(splits[name])
            if raw.size and not np.issubdtype(raw.dtype, np.integer):
                raise ValueError(f"split {name!r} must hold integer node ids, "
                                 f"got dtype {raw.dtype}")
            idx = np.ascontiguousarray(raw, dtype=np.int64)
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
        self.x = model_input(features)
        self.labels = labels
        self.splits = clean
        x = self.x
        x_arrays = (x.data, x.indices, x.indptr) if sp.issparse(x) else (x,)
        for arr in (*x_arrays, self.labels, *self.splits.values()):
            arr.flags.writeable = False

    @property
    def features(self):
        """The N x C features as a dense read-only array, rebuilt from `x` on
        each access when `x` is sparse."""
        if not sp.issparse(self.x):
            return self.x
        dense = self.x.toarray()
        dense.flags.writeable = False
        return dense

    @property
    def n_features(self):
        return self.x.shape[1]

    @property
    def n_classes(self):
        return int(self.labels.max()) + 1 if self.n_nodes else 0

    def __repr__(self):
        sizes = "/".join(str(len(self.splits[k])) for k in SPLIT_NAMES)
        return (
            f"Graph(N={self.n_nodes}, undirected_edges={self.adjacency.nnz // 2}, "
            f"C={self.n_features}, classes={self.n_classes}, splits={sizes})"
        )


def stays_sparse(nnz, shape):
    """Whether features of this shape with nnz nonzero entries go into the
    first layer as a CSR constant: at most SPARSE_INPUT_DENSITY dense."""
    return nnz <= SPARSE_INPUT_DENSITY * shape[0] * shape[1]


def csr_from_flat(shape, flat, values):
    """The CSR matrix holding values[k] at the sorted row-major flat position
    flat[k], built as model_input builds it, index dtypes included."""
    rows, cols = np.divmod(flat, shape[1])
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_matrix((values, cols, indptr), shape=shape)


def model_input(features):
    """The features as the first layer takes them: a scipy CSR constant when
    stays_sparse, else a dense array (a dense input unchanged). `features` is
    an array or a scipy sparse matrix; either form gives the same result.
    Both results give the same logits up to rounding. Graph calls this once,
    at construction, and keeps only the result."""
    if sp.issparse(features):
        x = sp.csr_matrix(features, dtype=np.float64, copy=True)
        x.sum_duplicates()
        x.eliminate_zeros()
        return x if stays_sparse(x.nnz, x.shape) else x.toarray()
    features = np.asarray(features, dtype=np.float64)
    stored = features != 0
    if not stays_sparse(np.count_nonzero(stored), features.shape):
        return features
    # Scanning a boolean mask, not the floats, makes this about 4x faster
    # than sp.csr_matrix at Cora size.
    flat = np.flatnonzero(stored)
    return csr_from_flat(features.shape, flat, features.ravel()[flat])


def _check_labels(labels, n_nodes):
    """labels as int64; ValueError unless one nonnegative class id per node."""
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if labels.shape != (n_nodes,):
        raise ValueError(f"expected {n_nodes} labels (one per node), got shape {labels.shape}")
    if len(labels) and labels.min() < 0:
        raise ValueError("labels must be nonnegative class ids")
    return labels


def adjacency_from_pairs(n_nodes, u, v):
    """Symmetric unit-weight adjacency with an edge between u[k] and v[k], as the
    loader, synthetic_sbm and tools/prepare_dataset.py build it: repeats and
    reversed repeats collapse into one edge, and self-loops are dropped."""
    lo, hi = np.sort(np.array([u, v], dtype=np.int64).reshape(2, -1), axis=0)
    if len(lo) and (lo.min() < 0 or hi.max() >= n_nodes):
        raise ValueError(f"node id out of range for {n_nodes} nodes")
    # One key per distinct undirected edge; sorted keys give sorted rows.
    lo, hi = np.divmod(np.unique((lo * n_nodes + hi)[lo != hi]), n_nodes)
    return SparseMatrix.from_coo(n_nodes, n_nodes, np.concatenate([lo, hi]),
                                 np.concatenate([hi, lo]), np.ones(2 * len(lo)))


def _parse_edges(path, n_nodes):
    """The listed (u, v) pairs as a 2 x E array, ids checked; self-loop lines warn."""
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                u, v = map(int, line.split())
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: expected two integer node ids, got {line!r}") from None
            if u < 0 or v < 0 or u >= n_nodes or v >= n_nodes:
                raise DatasetError(
                    f"{path}:{lineno}: node id out of range for {n_nodes} nodes: {line!r}")
            if u == v:
                warnings.warn(f"{path}:{lineno}: dropping self-loop on node {u}")
            pairs.append((u, v))
    return np.reshape(pairs, (-1, 2)).T


def _line_blocks(fh):
    """The bytes of fh in blocks of whole lines, about FEATURE_BLOCK_BYTES each
    (a longer line makes a longer block); each block ends with a newline."""
    while block := fh.read(FEATURE_BLOCK_BYTES):
        block += fh.readline()
        yield block if block.endswith(b"\n") else block + b"\n"


def _plain_tokens(block, n_cols):
    """The tokens of a block other than the literal 0.0, and where they lie.

    Returns (n_rows, n_cols, index, text): text holds the tokens that are not
    0.0, each followed by its delimiter (',' or newline), and the j-th of them
    is token index[j] of the block, counted row-major. Returns None unless
    the block is plain: it holds only ',', newlines and the bytes from '-' to
    127; it has no empty field and no blank line; every row holds n_cols
    tokens (as many as the first row when n_cols is None); and at least half
    of its tokens are the literal 0.0.
    """
    buf = np.frombuffer(block, dtype=np.uint8)
    delim = buf <= _COMMA
    n_tokens = np.count_nonzero(delim)
    zero = delim[3:] & (buf[:-3] == _ZERO)  # zero[i]: a 0.0 token starts at byte i
    zero &= buf[1:-2] == _DOT
    zero &= buf[2:-1] == _ZERO
    zero[1:] &= delim[:-4]
    if 2 * np.count_nonzero(zero) < n_tokens:
        return None
    row_ends = np.flatnonzero(buf == _NEWLINE)
    if buf.max() > 127 or n_tokens != len(row_ends) + np.count_nonzero(buf == _COMMA):
        return None
    first = np.empty_like(delim)  # the first byte of each token that is not 0.0
    first[0] = not delim[0]
    np.greater(delim[:-1], delim[1:], out=first[1:])
    first[:-3] ^= zero
    last = delim.copy()  # the delimiter after each token that is not 0.0
    last[3:] ^= zero
    starts, ends = np.flatnonzero(first), np.flatnonzero(last)
    if len(starts) != len(ends):  # an empty field or a blank line
        return None
    # Each byte belongs to one token or the delimiter after it, and a 0.0
    # takes four, so the tokens ahead of a byte are the other tokens ahead
    # plus a quarter of the bytes those leave.
    ahead = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(ends + 1 - starts, out=ahead[1:])
    index = (starts - ahead[:-1]) // 4 + np.arange(len(starts))
    row_starts = np.concatenate(([0], row_ends + 1))
    others = np.searchsorted(starts, row_starts)
    per_row = np.diff((row_starts - ahead[others]) // 4 + others)
    if n_cols is None:
        n_cols = int(per_row[0])
    if np.any(per_row != n_cols):
        return None
    # The other tokens, each with the delimiter after it.
    text = buf[np.repeat(starts - ahead[:-1], ends + 1 - starts) + np.arange(ahead[-1])]
    return len(row_ends), n_cols, index, text.tobytes()


def _read_plain_features(path):
    """features.csv as _read_features gives it, read on the fast path; None
    unless every block is plain and the file holds a row."""
    n_rows, n_cols = 0, None
    flat, values = [], []  # per block: the row-major places of the other tokens, their values
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            plain = _plain_tokens(block, n_cols)
            if plain is None:
                return None
            block_rows, n_cols, index, text = plain
            flat.append(n_rows * n_cols + index)
            values.append(np.loadtxt([text[:-1].decode().replace("\n", ",")], delimiter=",",
                                     dtype=np.float64, ndmin=1) if text else np.zeros(0))
            n_rows += block_rows
    if not n_rows:
        return None
    shape, flat, values = (n_rows, n_cols), np.concatenate(flat), np.concatenate(values)
    if stays_sparse(np.count_nonzero(values), shape):
        keep = values != 0
        return csr_from_flat(shape, flat[keep], values[keep])
    features = np.zeros(shape)
    features.reshape(-1)[flat] = values  # assigned, not added, so a -0.0 keeps its sign
    return features


def _read_features(path):
    """features.csv as model_input takes it, equal bit for bit to
    what np.loadtxt(path, delimiter=",") gives: when every block is plain
    (see _plain_tokens), a CSR matrix of the nonzero entries if
    stays_sparse, else the dense array.

    The file is read in blocks of whole lines. In a plain block the literal
    0.0 is recognised without converting it, and the other tokens go through
    np.loadtxt as one row, so they follow its number grammar. A file with a
    block that is not plain, or a token np.loadtxt refuses, is read whole by
    np.loadtxt, which gives the dense array or its own error.
    """
    try:
        features = _read_plain_features(path)
    except ValueError:
        features = None
    if features is None:
        features = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return features


def _first_non_finite_row(features):
    """The 0-based row of the first non-finite feature, or None; reads only
    the stored values of a sparse matrix."""
    sparse = sp.issparse(features)
    finite = np.isfinite(features.data if sparse else features.reshape(-1))
    if finite.all():
        return None
    k = int(np.argmin(finite))
    if sparse:
        return int(np.searchsorted(features.indptr, k, side="right")) - 1
    return k // features.shape[1]


def load_graph(edge_path, feature_path, label_path, split_path):
    """Load a Graph from the four dataset files.

    Node count is defined by the feature file; every other file is validated
    against it. Malformed content raises DatasetError naming the file (and
    line or row where one is known).
    """
    try:
        features = _read_features(feature_path)
    except Exception as exc:
        raise DatasetError(f"{feature_path}: {exc}") from None
    bad_row = _first_non_finite_row(features)
    if bad_row is not None:
        raise DatasetError(f"{feature_path}: row {bad_row + 1} holds a non-finite value")
    n_nodes = features.shape[0]

    try:
        labels = _check_labels(np.loadtxt(label_path, dtype=np.int64, ndmin=1), n_nodes)
    except Exception as exc:
        raise DatasetError(f"{label_path}: {exc}") from None

    adjacency = adjacency_from_pairs(n_nodes, *_parse_edges(edge_path, n_nodes))

    try:
        with open(split_path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{split_path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise DatasetError(f"{split_path}: top level must be an object with train/val/test")
    for name in SPLIT_NAMES:
        ids = raw.get(name, [])  # type(), as true/false are ints 1/0 to isinstance
        if not isinstance(ids, list) or any(type(i) is not int for i in ids):
            raise DatasetError(f"{split_path}: split {name!r} must be a list of "
                               "JSON integers (not booleans or floats)")
    try:
        return Graph(n_nodes, adjacency, features, labels, raw)
    except ValueError as exc:
        raise DatasetError(f"{split_path}: {exc}") from None


def load_graph_dir(data_dir):
    """load_graph with the four conventional file names under one directory."""
    d = Path(data_dir)
    return load_graph(d / "graph.edges", d / "features.csv", d / "labels.csv", d / "splits.json")


def save_graph(graph, data_dir):
    """Write the four dataset files; load_graph_dir round-trips bit-identically.

    Floats are written with repr (shortest string that parses back to the
    same double), so features survive the trip exactly; an entry a sparse
    `graph.x` does not store is written as 0.0. graph.edges is
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
    x = graph.x
    with open(d / "features.csv", "w") as fh:
        for i in range(graph.n_nodes):
            if sp.issparse(x):  # 0.0 where nothing is stored
                lo, hi = x.indptr[i], x.indptr[i + 1]
                row = ["0.0"] * graph.n_features
                for j, value in zip(x.indices[lo:hi].tolist(), x.data[lo:hi].tolist()):
                    row[j] = repr(value)
            else:
                row = map(repr, x[i].tolist())
            fh.write(",".join(row) + "\n")
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
    adjacency = adjacency_from_pairs(n_nodes, iu[keep], iv[keep])

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
