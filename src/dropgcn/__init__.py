"""Deep graph convolutional networks with random edge dropping, and the
spectral machinery for studying why depth over-smooths.

The pieces, bottom up: sparsemat (CSR storage and the propagation
normalizations), graph (datasets on disk and synthetic), dropedge (the
sampler), autodiff/optim (a small reverse-mode tape and Adam), models (the
four backbones), spectral (subspace distances, smoothing-layer bounds,
resistance, removal trajectories), training (runs, probes, ablations), cli.
"""

from .autodiff import (BatchNormState, Tape, Tensor, add, add_bias, backward,
                       batch_norm, clear_grads, concat_cols, dropout, matmul,
                       no_grad, relu, softmax_cross_entropy, sparse_matmul, spmm,
                       sum_all)
from .dropedge import DropEdgeConfig, propagation_matrices, sample, sample_layerwise
from .graph import DatasetError, Graph, load_graph, load_graph_dir, save_graph, synthetic_sbm
from .models import (BACKBONES, GCLParams, Model, ModelConfig, accuracy,
                     build_model, copy_model, forward, gcl_forward, load_model,
                     model_input, predictions, rescale_filters, save_model,
                     sup_singular_value)
from .optim import AdamState, adam_step, glorot_init
from .sparsemat import (SCHEMES, SYMMETRIC_SCHEMES, SparseMatrix,
                        connected_components, degrees, normalize)
from .spectral import (SmoothingProbe, SpectralReport, analyze,
                       effective_resistance, empirical_smoothing_layer,
                       relaxed_smoothing_layer, resistance_matrix,
                       smoothing_probe, subspace_distance, theorem1_trajectory,
                       verify_resistance_bound)
from .training import (ProbeReport, RunReport, TrainConfig, TrainingDiverged,
                       ablate_dropout_dropedge, ablate_layerwise,
                       oversmoothing_probe, train, write_report)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
