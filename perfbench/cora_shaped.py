"""Offline generator of citation graphs shaped like Cora.

Real Cora cannot be fetched offline, so the benchmark builds a stand-in with
the properties the code's cost depends on:

- 2708 nodes in 7 classes with Cora's class shares;
- about 5.3k undirected edges, homophily about 0.8, degrees with a heavy
  tail, and several connected components (one giant, many small ones, no
  isolated node), as in Cora;
- 1433 binary bag-of-words features at about 1.3 % density, row-normalized
  as tools/prepare_dataset.py does;
- the full-supervised split: val 500, test 1000, the rest train.

`synthetic_sbm` is not used: it builds all n^2 candidate pairs and its dense
Gaussian features would hide any sparse-feature path.

Every output is a pure function of the seed.
"""

from dataclasses import dataclass

import numpy as np

from dropgcn import Graph, SparseMatrix

# Cora's class sizes; other node counts keep these shares.
CORA_CLASS_SIZES = (351, 217, 418, 818, 426, 298, 180)


@dataclass(frozen=True)
class Shape:
    """Size parameters of a generated graph."""

    n_nodes: int
    n_edges: int
    n_features: int
    words_per_node: float
    same_class_bias: float
    giant_fraction: float
    n_val: int
    n_test: int


CORA = Shape(n_nodes=2708, n_edges=5278, n_features=1433, words_per_node=18.2,
             same_class_bias=0.77, giant_fraction=0.918, n_val=500, n_test=1000)

# For the benchmark's own tests: every workload in seconds, same code paths.
TINY = Shape(n_nodes=240, n_edges=470, n_features=160, words_per_node=8.0,
             same_class_bias=0.77, giant_fraction=0.9, n_val=40, n_test=80)


def class_labels(n_nodes, rng):
    """Labels with Cora's class shares, in random node order."""
    shares = np.array(CORA_CLASS_SIZES, dtype=np.float64) / sum(CORA_CLASS_SIZES)
    sizes = np.floor(shares * n_nodes).astype(np.int64)
    sizes[np.argmax(sizes)] += n_nodes - sizes.sum()
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return rng.permutation(labels)


def _components(n_nodes, labels, giant_fraction, rng):
    """Partition nodes into one giant component and small ones of 2-5 nodes.

    Small components are filled from label-sorted nodes, so they are mostly
    single-class, as small citation clusters are.
    """
    order = rng.permutation(n_nodes)
    n_giant = min(n_nodes, max(2, int(round(giant_fraction * n_nodes))))
    comps = [order[:n_giant]]
    rest = order[n_giant:]
    rest = rest[np.argsort(labels[rest], kind="stable")]
    start = 0
    while start < len(rest):
        size = int(rng.integers(2, 6))
        if len(rest) - start - size < 2:
            size = len(rest) - start
        comps.append(rest[start:start + size])
        start += size
    if len(comps) > 1 and len(comps[-1]) < 2:
        comps[-2] = np.concatenate([comps[-2], comps.pop()])
    return comps


def _tree_edges(nodes, labels, same_class_bias, rng):
    """Random recursive spanning tree; each node joins an earlier node of its
    own class with probability `same_class_bias` when one exists."""
    nodes = rng.permutation(nodes)
    by_class = {}
    u, v = [], []
    for k, node in enumerate(nodes):
        own = by_class.setdefault(int(labels[node]), [])
        if k > 0:
            if own and rng.random() < same_class_bias:
                parent = own[int(rng.integers(len(own)))]
            else:
                parent = nodes[int(rng.integers(k))]
            u.append(int(node))
            v.append(int(parent))
        own.append(node)
    return u, v


def _weighted_pick(pool, cum, rng, size):
    """`size` draws from `pool` with probabilities given by cumulative `cum`."""
    return pool[np.searchsorted(cum, rng.random(size) * cum[-1], side="right")]


def _extra_edges(nodes, labels, n_extra, same_class_bias, seen, n_nodes, rng):
    """Add n_extra distinct edges inside `nodes`.

    Endpoints follow Pareto activity weights, which gives the heavy degree
    tail; the second endpoint shares the first one's class with probability
    `same_class_bias`. `seen` holds the keys of edges already present.
    """
    weights = rng.pareto(2.0, size=len(nodes)) + 1.0
    cum_all = np.cumsum(weights)
    node_labels = labels[nodes]
    per_class = {}
    for c in np.unique(node_labels):
        members = np.flatnonzero(node_labels == c)
        per_class[int(c)] = (nodes[members], np.cumsum(weights[members]))
    u_out, v_out = [], []
    while len(u_out) < n_extra:
        batch = 2 * (n_extra - len(u_out)) + 16
        u = _weighted_pick(nodes, cum_all, rng, batch)
        v = _weighted_pick(nodes, cum_all, rng, batch)
        same = rng.random(batch) < same_class_bias
        for c, (pool, cum) in per_class.items():
            want = same & (labels[u] == c)
            v[want] = _weighted_pick(pool, cum, rng, int(want.sum()))
        for a, b in zip(u.tolist(), v.tolist()):
            if a == b:
                continue
            key = min(a, b) * n_nodes + max(a, b)
            if key in seen:
                continue
            seen.add(key)
            u_out.append(a)
            v_out.append(b)
            if len(u_out) == n_extra:
                break
    return u_out, v_out


def _adjacency(n_nodes, u, v):
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    return SparseMatrix.from_coo(n_nodes, n_nodes, rows, cols, np.ones(len(rows)))


def edges(n_nodes, labels, n_edges, same_class_bias, giant_fraction, rng):
    """Undirected edge list (u, v) of a graph with the given component layout.

    Each component gets a spanning tree; the remaining edges all go into the
    giant component, so the small components stay as they are.
    """
    comps = _components(n_nodes, labels, giant_fraction, rng)
    u, v = [], []
    for comp in comps:
        cu, cv = _tree_edges(comp, labels, same_class_bias, rng)
        u += cu
        v += cv
    seen = {min(a, b) * n_nodes + max(a, b) for a, b in zip(u, v)}
    n_extra = n_edges - len(u)
    if n_extra > 0:
        eu, ev = _extra_edges(comps[0], labels, n_extra, same_class_bias, seen, n_nodes, rng)
        u += eu
        v += ev
    return u, v


def bag_of_words(labels, n_features, words_per_node, rng):
    """Row-normalized binary bag-of-words features.

    Each class has a topic vocabulary of a tenth of the words; a node draws
    its distinct words half from its class topic, half from a Zipf-shaped
    global vocabulary, so features are informative but noisy.
    """
    n_nodes = len(labels)
    n_classes = int(labels.max()) + 1
    popularity = 1.0 / np.arange(1, n_features + 1) ** 0.8
    popularity = rng.permutation(popularity / popularity.sum())
    topic_size = max(1, n_features // 10)
    probs = []
    for _ in range(n_classes):
        topic = np.zeros(n_features)
        topic[rng.choice(n_features, size=topic_size, replace=False)] = 1.0 / topic_size
        probs.append(0.5 * topic + 0.5 * popularity)
    counts = np.clip(rng.poisson(words_per_node, size=n_nodes), 1, n_features // 2)
    features = np.zeros((n_nodes, n_features))
    for i in range(n_nodes):
        words = rng.choice(n_features, size=counts[i], replace=False, p=probs[labels[i]])
        features[i, words] = 1.0
    return features / features.sum(axis=1, keepdims=True)


def full_supervised_splits(n_nodes, n_val, n_test, rng):
    """val n_val, test n_test, train the rest, each sorted."""
    order = rng.permutation(n_nodes)
    return {
        "val": np.sort(order[:n_val]),
        "test": np.sort(order[n_val:n_val + n_test]),
        "train": np.sort(order[n_val + n_test:]),
    }


def cora_shaped(seed, shape=CORA):
    """A Graph with the given shape, fully determined by `seed`."""
    rng = np.random.default_rng([seed, 0xC0A])
    n = shape.n_nodes
    labels = class_labels(n, rng)
    u, v = edges(n, labels, shape.n_edges, shape.same_class_bias, shape.giant_fraction, rng)
    features = bag_of_words(labels, shape.n_features, shape.words_per_node, rng)
    splits = full_supervised_splits(n, shape.n_val, shape.n_test, rng)
    return Graph(n, _adjacency(n, u, v), features, labels, splits)


def connected_graph(seed, n_nodes, n_edges, same_class_bias=0.77):
    """A connected Cora-like adjacency (one component) for the spectral calls
    that need one, fully determined by `seed` and the sizes."""
    rng = np.random.default_rng([seed, n_nodes, n_edges])
    labels = class_labels(n_nodes, rng)
    u, v = edges(n_nodes, labels, n_edges, same_class_bias, 1.0, rng)
    return _adjacency(n_nodes, u, v)


def homophily(graph):
    """Share of undirected edges whose endpoints share a label."""
    u, v = graph.adjacency.undirected_edges()
    return float(np.mean(graph.labels[u] == graph.labels[v]))
