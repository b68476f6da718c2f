"""A second route for the epoch loop: the gcn backbone trained in plain
numpy and scipy, to check dropgcn.training.train against.

Nothing here calls the package's training path. The forward pass, the
hand-written backward pass, textbook Adam (L2 decay added to the gradient of
weight matrices only, not biases), the edge draw and the AugNormAdj
normalization are all its own, and so are evaluation and best-epoch
selection. It reads the graph's arrays and nothing else of dropgcn.

It covers the configs the check runs: a gcn backbone with bias, dense
input features, no feature dropout, no batch norm, no self-feature filter,
one edge draw per epoch shared by every layer, and the AugNormAdj scheme.

The order of random draws is the one training documents: Glorot weights
layer by layer from the run's generator, rng.uniform(-b, b) with
b = sqrt(6 / (n_in + n_out)); then, each epoch that drops an edge,
rng.choice(V, floor(V * p), replace=False) over the undirected edges in the
CSR order of the upper triangle. Each layer multiplies in the order that
models.gcl_forward documents: A @ (H @ W) when W has fewer columns than H,
else (A @ H) @ W.
"""

import numpy as np
import scipy.sparse as sp

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def scipy_adjacency(graph):
    """graph.adjacency as a scipy CSR matrix, built from its raw arrays."""
    a = graph.adjacency
    return sp.csr_matrix((np.array(a.values), np.array(a.col_indices),
                          np.array(a.row_offsets)), shape=(a.n_rows, a.n_cols))


def aug_norm_adj(adjacency):
    """(D+I)^(-1/2) (A+I) (D+I)^(-1/2) of a scipy adjacency, as CSR."""
    augmented = adjacency + sp.identity(adjacency.shape[0], format="csr")
    degrees = np.asarray(augmented.sum(axis=1)).ravel()
    scale = sp.diags(1.0 / np.sqrt(degrees))
    return sp.csr_matrix(scale @ augmented @ scale)


def upper_edges(adjacency):
    """(u, v) with u < v for each undirected edge, in the CSR order of the
    upper triangle (columns ascending within a row)."""
    coo = sp.csr_matrix(adjacency, copy=True)
    coo.sort_indices()
    coo = coo.tocoo()
    upper = coo.row < coo.col
    return coo.row[upper], coo.col[upper]


def draw(n_nodes, edges, p, rng):
    """The adjacency left after dropping floor(V * p) of the V edges, or
    None when that count is 0 (nothing is drawn then)."""
    u, v = edges
    n_drop = int(np.floor(len(u) * p))
    if n_drop == 0:
        return None
    kept = np.ones(len(u), dtype=bool)
    kept[rng.choice(len(u), size=n_drop, replace=False)] = False
    half = sp.coo_matrix((np.ones(kept.sum()), (u[kept], v[kept])), shape=(n_nodes, n_nodes))
    return sp.csr_matrix(half + half.T)


def forward(weights, biases, a_hat, x):
    """(logits, saved): saved holds, per layer, its input, the propagated
    input where that is formed first (else None), and its ReLU mask."""
    h, saved = x, []
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape[1] < h.shape[1]:
            ah, z = None, a_hat @ (h @ w)
        else:
            ah = a_hat @ h
            z = ah @ w
        z = z + b
        last = i == len(weights) - 1
        saved.append((h, ah, None if last else z > 0))
        h = z if last else np.where(z > 0, z, 0.0)
    return h, saved


def backward(weights, a_hat, saved, g):
    """Gradients (of each weight, of each bias) from g, the loss gradient
    with respect to the logits. a_hat is symmetric, so A^T is A."""
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    for i in reversed(range(len(weights))):
        h, ah, mask = saved[i]
        if mask is not None:
            g = g * mask
        grad_b[i] = g.sum(axis=0, keepdims=True)
        if ah is None:                      # z = A (H W)
            ag = a_hat @ g
            grad_w[i] = h.T @ ag
            g = ag @ weights[i].T
        else:                               # z = (A H) W
            grad_w[i] = ah.T @ g
            g = a_hat @ (g @ weights[i].T)
    return grad_w, grad_b


def cross_entropy(logits, labels, rows):
    """(mean cross-entropy of the softmax over `rows`, its gradient with
    respect to the logits)."""
    z = logits[rows]
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    picked = np.arange(len(rows)), labels[rows]
    loss = -log_probs[picked].sum() / len(rows)
    delta = np.exp(log_probs)
    delta[picked] -= 1.0
    grad = np.zeros_like(logits)
    grad[rows] = delta / len(rows)
    return float(loss), grad


def accuracy(logits, labels, rows):
    return float(np.mean(np.argmax(logits[rows], axis=1) == labels[rows]))


class Adam:
    """Bias-corrected Adam with L2 decay added to the decayed parameters'
    gradients."""

    def __init__(self, params, lr, weight_decay, decay):
        self.lr, self.weight_decay, self.decay = lr, weight_decay, decay
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        """The updated parameters, as new arrays."""
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            if self.decay[i]:
                g = g + self.weight_decay * p
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * g * g
            m_hat = self.m[i] / (1.0 - BETA1 ** self.t)
            v_hat = self.v[i] / (1.0 - BETA2 ** self.t)
            out.append(p - self.lr * m_hat / (np.sqrt(v_hat) + EPS))
        return out


def train(graph, n_layers, hidden, p, lr, weight_decay, epochs, seed):
    """Train a gcn of n_layers GCLs on `graph`.

    Returns (rows, best_epoch, best): rows are dicts keyed like
    metrics.csv's columns, best_epoch the earliest epoch of highest
    validation accuracy, and best maps checkpoint array names
    ("gcl{i}.weight", "gcl{i}.bias") to the parameters after that epoch.
    """
    rng = np.random.default_rng(seed)
    dims = [graph.n_features] + [hidden] * (n_layers - 1) + [graph.n_classes]
    weights = []
    for n_in, n_out in zip(dims, dims[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
    biases = [np.zeros((1, n_out)) for n_out in dims[1:]]
    adam = Adam(weights + biases, lr, weight_decay, [True] * n_layers + [False] * n_layers)

    adjacency = scipy_adjacency(graph)
    full = aug_norm_adj(adjacency)
    edges = upper_edges(adjacency)
    x = np.array(graph.features)
    labels = np.array(graph.labels)
    train_rows, val_rows, test_rows = (np.array(graph.splits[k])
                                       for k in ("train", "val", "test"))

    rows, best_epoch, best_val, best = [], -1, -1.0, None
    for epoch in range(1, epochs + 1):
        dropped = draw(graph.n_nodes, edges, p, rng)
        a_hat = full if dropped is None else aug_norm_adj(dropped)
        logits, saved = forward(weights, biases, a_hat, x)
        train_loss, g = cross_entropy(logits, labels, train_rows)
        train_acc = accuracy(logits, labels, train_rows)
        grad_w, grad_b = backward(weights, a_hat, saved, g)
        params = adam.step(weights + biases, grad_w + grad_b)
        weights, biases = params[:n_layers], params[n_layers:]

        logits, _ = forward(weights, biases, full, x)
        val_loss, _ = cross_entropy(logits, labels, val_rows)
        val_acc = accuracy(logits, labels, val_rows)
        rows.append({"epoch": epoch, "train_loss": train_loss, "train_acc": train_acc,
                     "val_loss": val_loss, "val_acc": val_acc,
                     "test_acc": accuracy(logits, labels, test_rows)})
        if val_acc > best_val:
            best_epoch, best_val = epoch, val_acc
            best = {}
            for i in range(n_layers):
                best[f"gcl{i}.weight"], best[f"gcl{i}.bias"] = weights[i], biases[i]
    return rows, best_epoch, best
