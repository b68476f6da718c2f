"""Command-line front end.

Subcommands: train, probe-oversmoothing, analyze-spectral, theorem-check,
ablate. Every run reads a dataset directory (graph.edges, features.csv,
labels.csv, splits.json) and writes its reports under --out-dir. Exit codes:
0 on success, 2 on usage errors (argparse), 1 on runtime failures, with the
message on stderr.
"""

import argparse
import math
import sys
from pathlib import Path

from .dropedge import DropEdgeConfig
from .graph import DatasetError, load_graph_dir
from .models import ModelConfig
from .sparsemat import SCHEMES, SYMMETRIC_SCHEMES, normalize
from .spectral import analyze, theorem1_trajectory
from .training import (TrainConfig, TrainingDiverged, ablate_dropout_dropedge,
                       ablate_layerwise, oversmoothing_probe, train, write_json,
                       write_report)


def _add_data_flags(p):
    p.add_argument("--data-dir", required=True, help="dataset directory")
    p.add_argument("--out-dir", default="dropgcn-out", help="where reports are written")


def _add_model_flags(p):
    p.add_argument("--backbone", default="gcn",
                   choices=["gcn", "resgcn", "jknet", "incepgcn"])
    p.add_argument("--nlayers", type=int, default=2, help="depth knob (GCL count for gcn)")
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--sampling-percent", type=float, default=1.0,
                   help="fraction of edges KEPT per draw; drop rate p is 1 minus this")
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--normalization", default="AugNormAdj", choices=list(SCHEMES))
    p.add_argument("--withloop", action="store_true",
                   help="add a separate self-feature filter per layer")
    p.add_argument("--withbn", action="store_true",
                   help="batch normalization before each activation")
    p.add_argument("--no-bias", action="store_true", help="drop the additive bias terms")
    p.add_argument("--layerwise-dropedge", action="store_true",
                   help="independent edge draw per layer instead of one shared draw")
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)


def _train_config(args, parser):
    keep = args.sampling_percent
    if not 0.0 <= keep <= 1.0:
        parser.error(f"--sampling-percent must lie in [0, 1], got {keep}")
    try:
        dropedge = DropEdgeConfig(p=1.0 - keep, layer_wise=args.layerwise_dropedge)
        model = ModelConfig(backbone=args.backbone, n_layers=args.nlayers,
                            hidden_dim=args.hidden, dropout=args.dropout,
                            withloop=args.withloop, withbn=args.withbn,
                            bias=not args.no_bias, scheme=args.normalization,
                            dropedge=dropedge)
        return TrainConfig(model=model, lr=args.lr, weight_decay=args.weight_decay,
                           epochs=args.epochs, seed=args.seed,
                           data_dir=args.data_dir, out_dir=args.out_dir)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_train(args, parser):
    config = _train_config(args, parser)
    report = train(config, keep_best_model=True)
    print(f"best epoch {report.best_epoch}: val_acc={report.val_acc:.4f} "
          f"test_acc={report.test_acc:.4f} ({report.wall_seconds:.1f}s)")
    print(f"wrote {Path(config.out_dir) / 'metrics.csv'}")
    return 0


def _cmd_probe(args, parser):
    config = _train_config(args, parser)
    lo, hi = args.probe_layers
    report = oversmoothing_probe(config, layer_range=(lo, hi),
                                 probe_epochs=args.probe_epochs)
    out = Path(config.out_dir)
    write_json(out / "probe.json", report.summary())
    for tag, block in (("before", report.before), ("after", report.after)):
        dist = " ".join(f"l={l}:{v:.4g}" for l, v in block["layer_distance"].items())
        print(f"{tag:>6}: {dist}")
    print(f"wrote {out / 'probe.json'}")
    return 0


def _cmd_spectral(args, parser):
    if args.normalization not in SYMMETRIC_SCHEMES:
        parser.error(f"--normalization {args.normalization} is not symmetric; "
                     f"spectral analysis needs one of {', '.join(SYMMETRIC_SCHEMES)}")
    graph = load_graph_dir(args.data_dir)
    report = analyze(normalize(graph.adjacency, args.normalization), tol=args.tol)
    payload = {
        "normalization": args.normalization,
        "n_nodes": graph.n_nodes,
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "top_multiplicity": report.top_multiplicity,
        "second_largest": report.second_largest,
        "component_count": report.component_count,
        "basis_shape": list(report.basis.shape),
    }
    out = Path(args.out_dir)
    write_json(out / "spectral.json", payload)
    print(f"components={report.component_count} top_multiplicity={report.top_multiplicity} "
          f"second_largest={report.second_largest:.6f}")
    print(f"wrote {out / 'spectral.json'}")
    return 0


def _cmd_theorem(args, parser):
    graph = load_graph_dir(args.data_dir)
    report = theorem1_trajectory(graph.adjacency, seed=args.seed, epsilon=args.epsilon)
    payload = {
        "seed": args.seed,
        "epsilon": args.epsilon,
        "steps": [
            {
                "step": s.step,
                "removed_edge": None if s.removed_edge is None else list(s.removed_edge),
                "n_components": s.n_components,
                "top_multiplicity": s.top_multiplicity,
                "second_largest": s.second_largest,
                "l_hat": None if s.l_hat == math.inf else s.l_hat,
            }
            for s in report.steps
        ],
        "disconnect_steps": report.disconnect_steps,
        "lambda_decrease_steps": report.lambda_decrease_steps,
        "multiplicity_tracks_components": report.multiplicity_tracks_components,
        "disjunction_holds": report.disjunction_holds,
    }
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
    out = Path(config.out_dir)
    if args.mode == "dropout-vs-dropedge":
        dropout = args.dropout if args.dropout > 0 else 0.5
        p = 1.0 - args.sampling_percent
        if p == 0.0:
            p = 0.5
        reports = ablate_dropout_dropedge(config, dropout=dropout, p=p)
    else:
        if config.model.dropedge.p == 0.0:
            parser.error("--mode layerwise needs --sampling-percent below 1")
        reports = ablate_layerwise(config)
    combined = {}
    for name, rep in reports.items():
        write_report(rep, out / name)
        combined[name] = rep.summary()
        print(f"{name:>10}: val_acc={rep.val_acc:.4f} test_acc={rep.test_acc:.4f} "
              f"(best epoch {rep.best_epoch})")
    write_json(out / "summary.json", combined)
    print(f"wrote {out / 'summary.json'}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dropgcn",
        description="Deep GCN training with random edge dropping, plus spectral "
                    "over-smoothing analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model and write metrics")
    _add_data_flags(p_train)
    _add_model_flags(p_train)

    p_probe = sub.add_parser("probe-oversmoothing",
                             help="layer-distance probe before and after training")
    _add_data_flags(p_probe)
    _add_model_flags(p_probe)
    p_probe.add_argument("--probe-epochs", type=int, default=150)
    p_probe.add_argument("--probe-layers", type=int, nargs=2, default=(2, 6),
                         metavar=("LO", "HI"))

    p_spec = sub.add_parser("analyze-spectral",
                            help="eigenstructure of the normalized adjacency")
    _add_data_flags(p_spec)
    p_spec.add_argument("--normalization", default="AugNormAdj", choices=list(SCHEMES))
    p_spec.add_argument("--tol", type=float, default=1e-8)

    p_thm = sub.add_parser("theorem-check",
                           help="random edge-removal trajectory of the spectral gap")
    _add_data_flags(p_thm)
    p_thm.add_argument("--seed", type=int, default=0)
    p_thm.add_argument("--epsilon", type=float, default=1e-3)

    p_abl = sub.add_parser("ablate", help="dropout/edge-drop ablation grids")
    _add_data_flags(p_abl)
    _add_model_flags(p_abl)
    p_abl.add_argument("--mode", default="dropout-vs-dropedge",
                       choices=["dropout-vs-dropedge", "layerwise"])

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
    except (DatasetError, TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
