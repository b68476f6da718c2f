"""Command-line front end.

Subcommands: train, probe-oversmoothing, analyze-spectral, theorem-check,
ablate. Every run checks its flags, then reads a dataset directory once
(graph.edges, features.csv, labels.csv, splits.json), and writes its
reports under --out-dir. Exit codes: 0 on success, 2 on usage errors
(argparse), 1 on runtime failures, with the message on stderr.
"""

import argparse
import math
import sys
from dataclasses import asdict
from decimal import Decimal
from pathlib import Path

from .dropedge import DropEdgeConfig
from .graph import load_graph_dir
from .models import BACKBONES, ModelConfig
from .sparsemat import SCHEMES, SYMMETRIC_SCHEMES, normalize
from .spectral import SMOOTHING_EPSILON, analyze, theorem1_trajectory
from .training import (PROBE_LAYERS, TrainConfig, TrainingDiverged, ablate_dropout_dropedge,
                       ablate_layerwise, oversmoothing_probe, train, write_json)


def _add_data_flags(p):
    p.add_argument("--data-dir", required=True, help="dataset directory")
    p.add_argument("--out-dir", default="dropgcn-out", help="where reports are written")


def _complement(x):
    """1 - x, taken in decimal on the shortest repr of x. In binary floating
    point 1.0 - 0.8 is 0.19999999999999996, which drops one edge fewer than
    p=0.2 whenever 5 divides V."""
    return float(1 - Decimal(repr(x)))


def _add_model_flags(p, schemes):
    model, run = ModelConfig(), TrainConfig()
    p.add_argument("--backbone", default=model.backbone, choices=BACKBONES)
    p.add_argument("--nlayers", type=int, default=model.n_layers,
                   help="depth knob (GCL count for gcn)")
    p.add_argument("--hidden", type=int, default=model.hidden_dim)
    p.add_argument("--lr", type=float, default=run.lr)
    p.add_argument("--weight-decay", type=float, default=run.weight_decay)
    p.add_argument("--sampling-percent", type=float, default=_complement(model.dropedge.p),
                   help="fraction of edges KEPT per draw; drop rate p is 1 minus this, "
                        "taken in decimal (0.8 gives p=0.2)")
    p.add_argument("--dropout", type=float, default=model.dropout)
    p.add_argument("--normalization", default=model.scheme, choices=schemes)
    p.add_argument("--withloop", action="store_true",
                   help="add a separate self-feature filter per layer")
    p.add_argument("--withbn", action="store_true",
                   help="batch normalization before each activation")
    p.add_argument("--no-bias", action="store_true", help="drop the additive bias terms")
    p.add_argument("--layerwise-dropedge", action="store_true",
                   help="independent edge draw per layer instead of one shared draw")
    p.add_argument("--epochs", type=int, default=run.epochs)
    p.add_argument("--seed", type=int, default=run.seed)


def _train_config(args, parser):
    keep = args.sampling_percent
    if not 0.0 <= keep <= 1.0:
        parser.error(f"--sampling-percent must lie in [0, 1], got {keep}")
    try:
        dropedge = DropEdgeConfig(p=_complement(keep), layer_wise=args.layerwise_dropedge)
        model = ModelConfig(backbone=args.backbone, n_layers=args.nlayers,
                            hidden_dim=args.hidden, dropout=args.dropout,
                            withloop=args.withloop, withbn=args.withbn,
                            bias=not args.no_bias, scheme=args.normalization,
                            dropedge=dropedge)
        return TrainConfig(model=model, lr=args.lr, weight_decay=args.weight_decay,
                           epochs=args.epochs, seed=args.seed, out_dir=args.out_dir)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_train(args, parser):
    config = _train_config(args, parser)
    report = train(config, load_graph_dir(args.data_dir), keep_best_model=True)
    print(f"best epoch {report.best_epoch}: val_acc={report.val_acc:.4f} "
          f"test_acc={report.test_acc:.4f} ({report.wall_seconds:.1f}s)")
    print(f"wrote {Path(config.out_dir) / 'metrics.csv'}")
    return 0


def _cmd_probe(args, parser):
    config = _train_config(args, parser)
    report = oversmoothing_probe(config, load_graph_dir(args.data_dir),
                                 layer_range=tuple(args.probe_layers))
    for tag in ("before", "after"):
        dist = " ".join(f"l={l}:{v:.4g}" for l, v in report[tag]["layer_distance"].items())
        print(f"{tag:>6}: {dist}")
    print(f"wrote {Path(config.out_dir) / 'probe.json'}")
    return 0


def _cmd_spectral(args, parser):
    graph = load_graph_dir(args.data_dir)
    report = analyze(normalize(graph.adjacency, args.normalization))
    payload = {"normalization": args.normalization, "n_nodes": graph.n_nodes,
               **asdict(report), "eigenvalues": report.eigenvalues.tolist()}
    out = Path(args.out_dir)
    write_json(out / "spectral.json", payload)
    print(f"components={report.component_count} top_multiplicity={report.top_multiplicity} "
          f"second_largest={report.second_largest:.6f}")
    print(f"wrote {out / 'spectral.json'}")
    return 0


def _cmd_theorem(args, parser):
    if args.seed < 0:
        parser.error(f"seed must be nonnegative, got {args.seed}")
    graph = load_graph_dir(args.data_dir)
    report = theorem1_trajectory(graph.adjacency, seed=args.seed)
    payload = {"seed": args.seed, "epsilon": SMOOTHING_EPSILON, **asdict(report)}
    for step in payload["steps"]:
        if step["l_hat"] == math.inf:
            step["l_hat"] = None
    out = Path(args.out_dir)
    write_json(out / "theorem_check.json", payload)
    ok = report.multiplicity_tracks_components and report.disjunction_holds
    print(f"removals={len(report.steps) - 1} disconnections={len(report.disconnect_steps)} "
          f"multiplicity_tracks_components={report.multiplicity_tracks_components} "
          f"disjunction_holds={report.disjunction_holds}")
    print(f"wrote {out / 'theorem_check.json'}")
    if not ok:
        print("theorem check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_ablate(args, parser):
    config = _train_config(args, parser)
    ablate = ablate_dropout_dropedge if args.mode == "dropout-vs-dropedge" else ablate_layerwise
    for name, rep in ablate(config, load_graph_dir(args.data_dir)).items():
        print(f"{name:>10}: val_acc={rep.val_acc:.4f} test_acc={rep.test_acc:.4f} "
              f"(best epoch {rep.best_epoch})")
    print(f"wrote {Path(config.out_dir) / 'summary.json'}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dropgcn",
        description="Deep GCN training with random edge dropping, plus spectral "
                    "over-smoothing analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model and write metrics")
    _add_data_flags(p_train)
    _add_model_flags(p_train, SCHEMES)

    p_probe = sub.add_parser("probe-oversmoothing",
                             help="layer-distance probe before and after training")
    _add_data_flags(p_probe)
    _add_model_flags(p_probe, SYMMETRIC_SCHEMES)
    p_probe.set_defaults(epochs=150)
    p_probe.add_argument("--probe-layers", type=int, nargs=2, default=PROBE_LAYERS,
                         metavar=("LO", "HI"))

    p_spec = sub.add_parser("analyze-spectral",
                            help="eigenstructure of the normalized adjacency")
    _add_data_flags(p_spec)
    p_spec.add_argument("--normalization", default=ModelConfig().scheme, choices=SYMMETRIC_SCHEMES)

    p_thm = sub.add_parser("theorem-check",
                           help="random edge-removal trajectory of the spectral gap")
    _add_data_flags(p_thm)
    p_thm.add_argument("--seed", type=int, default=0)

    p_abl = sub.add_parser("ablate", help="dropout/edge-drop ablation grids")
    _add_data_flags(p_abl)
    _add_model_flags(p_abl, SCHEMES)
    p_abl.add_argument("--mode", default="dropout-vs-dropedge",
                       choices=["dropout-vs-dropedge", "layerwise"],
                       help="both modes need a --sampling-percent that drops an edge, and "
                            "dropout-vs-dropedge a nonzero --dropout; the defaults (--dropout "
                            "0, --sampling-percent 1) are refused, exit 1, after the data is read")

    return parser


_COMMANDS = {
    "train": _cmd_train,
    "probe-oversmoothing": _cmd_probe,
    "analyze-spectral": _cmd_spectral,
    "theorem-check": _cmd_theorem,
    "ablate": _cmd_ablate,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except (TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
