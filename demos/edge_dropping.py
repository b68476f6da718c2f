"""What the edge sampler actually does.

Three observations on a small random graph:
  1. the dropped count is deterministic: always floor(V * p) edges gone;
  2. over many draws each edge is removed equally often (uniformity);
  3. the layer-wise variant hands different layers different graphs.
"""

import numpy as np

from dropgcn import (DropEdgeConfig, ModelConfig, propagation_matrices, sample,
                     synthetic_sbm)

g = synthetic_sbm(n_nodes=30, n_blocks=2, p_intra=0.35, p_inter=0.05,
                  n_features=4, seed=2)
a = g.adjacency
u, v = a.undirected_edges()
n_edges = len(u)
print(f"graph: {g.n_nodes} nodes, {n_edges} undirected edges")

rng = np.random.default_rng(0)
for p in (0.1, 0.5, 0.9):
    dropped = sample(a, p, rng)
    kept = len(dropped.undirected_edges()[0])
    print(f"p={p}: kept {kept} of {n_edges} "
          f"(removed exactly floor({n_edges} * {p}) = {int(n_edges * p)})")

# Uniformity: count, per edge, how often it vanishes over 2000 draws.
p = 0.3
n_draws = 2000
survivor_counts = np.zeros(n_edges)
edge_pos = {(int(x), int(y)): i for i, (x, y) in enumerate(zip(u, v))}
for _ in range(n_draws):
    du, dv = sample(a, p, rng).undirected_edges()
    for edge in zip(map(int, du), map(int, dv)):
        survivor_counts[edge_pos[edge]] += 1
removal_freq = 1.0 - survivor_counts / n_draws
expected = np.floor(n_edges * p) / n_edges
print(f"\nper-edge removal frequency over {n_draws} draws at p={p}:")
print(f"  expected {expected:.3f}, observed "
      f"min {removal_freq.min():.3f} / mean {removal_freq.mean():.3f} / "
      f"max {removal_freq.max():.3f}")

# One-shot vs layer-wise. propagation_matrices returns one matrix per
# layer; identical objects mean a shared draw. The model's scheme
# normalizes every matrix.
cfg = ModelConfig(scheme="AugNormAdj", dropedge=DropEdgeConfig(p=0.4))
mats = propagation_matrices(a, cfg, 4, rng, training=True)
print(f"\none-shot: all four layers share one draw -> "
      f"{all(m is mats[0] for m in mats)}")

cfg = ModelConfig(scheme="AugNormAdj", dropedge=DropEdgeConfig(p=0.4, layer_wise=True))
mats = propagation_matrices(a, cfg, 4, rng, training=True)
edge_sets = [frozenset(zip(*map(tuple, m.undirected_edges()))) for m in mats]
print(f"layer-wise: every layer keeps {len(edge_sets[0])} edges, but "
      f"{len(set(edge_sets))} of 4 draws are distinct")

# Evaluation never samples: identical full-graph matrix regardless of p.
mats = propagation_matrices(a, cfg, 4, rng, training=False)
print(f"eval mode: zero edges removed -> nnz {mats[0].nnz} per layer, "
      f"diagonal included")
