"""The over-smoothing theory, checked numerically on small graphs.

Four stories:
  1. the per-layer contraction d_M(H^l) <= s_l * lambda * d_M(H^(l-1));
  2. the closed-form layer bound l_hat versus the measured crossing l*;
  3. effective resistance lower-bounding lambda;
  4. what removing edges does to lambda and to dim(M).
"""

import numpy as np

from dropgcn import (ModelConfig, analyze, build_model, effective_resistance,
                     empirical_smoothing_layer, forward, normalize,
                     relaxed_smoothing_layer, rescale_filters,
                     subspace_distance, sup_singular_value,
                     theorem1_trajectory, top_eigenspace, verify_resistance_bound)
from dropgcn.sparsemat import SparseMatrix

rng = np.random.default_rng(4)


def random_connected(n, p):
    while True:
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(len(iu)) < p
        rows = np.concatenate([iu[keep], iv[keep]])
        cols = np.concatenate([iv[keep], iu[keep]])
        a = SparseMatrix.from_coo(n, n, rows, cols, np.ones(len(rows)))
        from dropgcn import connected_components
        if connected_components(a)[1] == 1:
            return a


# 1. Contraction, layer by layer. Filters are rescaled so s <= 0.9; with
# ReLU activations the distance to the top eigenspace must shrink at least
# as fast as s * lambda per layer.
a = random_connected(10, 0.5)
a_hat = normalize(a, "AugNormAdj")
rep = analyze(a_hat)
basis = top_eigenspace(a, "AugNormAdj")
model = build_model(ModelConfig(backbone="gcn", n_layers=8, hidden_dim=8,
                                bias=False), 6, 3, rng)
rescale_filters(model, target=0.9)
s = sup_singular_value(model)
x = rng.normal(size=(10, 6))
_, hidden = forward(model, [a_hat] * 8, x, training=False)
dists = [subspace_distance(x, basis)]
dists += [subspace_distance(h, basis) for h in hidden]
print(f"lambda = {rep.second_largest:.4f}, s = {s:.4f}")
print(f"{'layer':>5} {'d_M':>10} {'bound':>10}")
for l in range(1, len(dists)):
    bound = s * rep.second_largest * dists[l - 1]
    flag = "ok" if dists[l] <= bound + 1e-9 else "VIOLATED"
    print(f"{l:>5} {dists[l]:>10.6f} {bound:>10.6f}  {flag}")

# 2. The layer bound. l_hat = ceil(log(eps / d0) / log(s * lambda)) caps
# the first layer whose output is eps-close to the subspace.
d0 = dists[0]
eps = 1e-3 * d0
l_hat = relaxed_smoothing_layer(eps, d0, s, rep.second_largest)
l_star = empirical_smoothing_layer(hidden, basis, eps)
print(f"\neps = {eps:.2e}: predicted crossing at l_hat = {l_hat}, "
      f"measured l* = {l_star}")

# 3. Resistance. Tight connections (small R_st, small degrees) force the
# second eigenvalue up; the bound holds pairwise.
bound_rep = verify_resistance_bound(a)
print(f"\nresistance bound over {bound_rep.n_pairs} pairs: "
      f"holds = {bound_rep.holds}, worst margin {bound_rep.worst_margin:.4f}")
print(f"sample resistances: R(0,1) = {effective_resistance(a, 0, 1):.4f}, "
      f"R(0,{a.n_rows - 1}) = {effective_resistance(a, 0, a.n_rows - 1):.4f}")

# 4. Removing edges one at a time. lambda mostly climbs toward 1 (slower
# smoothing); whenever a removal disconnects the graph, the top eigenspace
# gains a dimension instead.
traj = theorem1_trajectory(a, seed=0)
print(f"\ntrajectory over {len(traj.steps) - 1} removals:")
print(f"{'step':>4} {'lambda':>8} {'dim(M)':>7} {'l_hat':>6}")
marks = set(traj.disconnect_steps)
for step in traj.steps[:: max(1, len(traj.steps) // 12)]:
    note = "  <- disconnected" if step.step in marks else ""
    print(f"{step.step:>4} {step.second_largest:>8.4f} "
          f"{step.n_components:>7} {str(step.l_hat):>6}{note}")
last = traj.steps[-1]
print(f"final: dim(M) = {last.n_components} (one per isolated node), "
      f"disjunction held = {traj.disjunction_holds}")
