"""Shared fixtures and the independent oracles the suite checks against."""

import os
from pathlib import Path

import numpy as np
import pytest

from dropgcn import SparseMatrix, connected_components


def random_adjacency(rng, n, p):
    """Erdos-Renyi unweighted adjacency as a SparseMatrix."""
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    u, v = iu[keep], iv[keep]
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    if len(rows) == 0:
        return SparseMatrix(n, n, np.zeros(n + 1, dtype=np.int64),
                            np.empty(0, dtype=np.int64), np.empty(0))
    return SparseMatrix.from_coo(n, n, rows, cols, np.ones(len(rows)))


def random_connected_adjacency(rng, n, p):
    """Rejection-sample ER graphs until one is connected."""
    while True:
        a = random_adjacency(rng, n, p)
        if connected_components(a)[1] == 1:
            return a


def bag_of_words(rng, n, c, density=0.06):
    """Row-normalized binary features at about `density`, every row nonempty."""
    words = rng.random((n, c)) < density
    words[np.arange(n), rng.integers(0, c, size=n)] = True
    return words / words.sum(axis=1, keepdims=True)


def finite_difference_grad(f, arr, eps=1e-6):
    """Central finite differences of scalar f() with respect to arr in place."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f()
        flat[i] = old - eps
        fm = f()
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def relative_error(got, want):
    """Frobenius relative error, safe near zero."""
    denom = max(float(np.linalg.norm(want)), 1e-12)
    return float(np.linalg.norm(np.asarray(got) - np.asarray(want))) / denom


def cora_data_dir():
    """Directory with the Cora files, or None when absent.

    DROPGCN_DATA_DIR (pointing at the directory holding graph.edges and
    friends) wins; otherwise data/cora next to the repository root.
    """
    env = os.environ.get("DROPGCN_DATA_DIR")
    candidates = []
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "cora")
    for cand in candidates:
        if (cand / "graph.edges").is_file() and (cand / "features.csv").is_file():
            return cand
    return None


@pytest.fixture(scope="session")
def rng_factory():
    """Fresh, independently seeded generators so tests stay order-independent."""

    def make(seed):
        return np.random.default_rng(seed)

    return make


# The acceptance tests push one verdict line apiece; echoing them from a
# terminal-summary hook keeps them visible even when capture is on.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
