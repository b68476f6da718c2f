"""Watching a deep model smooth its representations, with and without
edge dropping.

The probe measures consecutive-layer distances ||H^(l) - H^(l-1)|| on a
fixed forward pass, once on the freshly initialized model and once after
training it. Like the ablations, it takes every setting from the config:
it trains config.epochs epochs, and with config.out_dir set it writes
probe.json there. Small distances mean the later layers have stopped changing
anything: the representations are collapsing toward the propagation
matrix's top eigenspace. Dropping edges thins that matrix out and keeps the
distances up.

At this demo's scale (150 nodes, 10 layers, 200 epochs) the collapse shows
up as an order-of-magnitude gap rather than machine zeros; the full effect
needs a real citation graph and more depth, which is what the
probe-oversmoothing subcommand is for.
"""

from dropgcn import (DropEdgeConfig, ModelConfig, TrainConfig,
                     oversmoothing_probe, synthetic_sbm)

graph = synthetic_sbm(n_nodes=150, n_blocks=3, p_intra=0.12, p_inter=0.04,
                      n_features=16, noise=3.0, seed=7)

results = {}
for p in (0.0, 0.6):
    cfg = TrainConfig(
        model=ModelConfig(backbone="gcn", n_layers=10, hidden_dim=16,
                          dropout=0.0, dropedge=DropEdgeConfig(p=p)),
        lr=0.002, weight_decay=5e-3, epochs=200, seed=1)
    report = oversmoothing_probe(cfg, graph=graph, layer_range=(2, 6))
    results[p] = report
    print(f"=== drop rate p = {p} ===")
    for tag, block in (("fresh", report["before"]), ("trained", report["after"])):
        dist = "  ".join(f"l{l}:{v:8.3f}"
                         for l, v in sorted(block["layer_distance"].items()))
        print(f"  {tag:>7}: {dist}")
        print(f"           s = {block['s']:.3f}, l_hat = {block['l_hat']}, "
              f"l* = {block['l_star']}")
    print()

plain = results[0.0]["after"]["layer_distance"]
dropped = results[0.6]["after"]["layer_distance"]
ratios = "  ".join(f"l{l}:{dropped[l] / plain[l]:5.1f}x" for l in sorted(plain))
print("trained distance ratio, p=0.6 over p=0:")
print(f"  {ratios}")
print()
print("Weight decay pulls the trained filters' singular values under 1, so")
print("the p=0 model sits in the contraction regime and its layer-to-layer")
print("distances sink. The p=0.6 model trains against thinned graphs whose")
print("propagation mixes less per layer, and its distances stay an order of")
print("magnitude higher.")
