"""Sparse approximations of kernel means.

Selects a small support set by farthest-first traversal, fits optimal
weights incrementally with an automatic sparsity stopping rule, and
applies the result to distribution distance matrices, class proportion
estimation, and mean-shift clustering.
"""

from ._backend import BACKEND
from .cpe import (
    ProportionEstimate,
    dirichlet_sample,
    estimate_proportions,
    l1_error,
)
from .dataio import DataSet, load_csv, load_model, save_csv, save_model
from .divergences import (
    DistanceMatrix,
    distance_matrix,
    kl_divergence,
    mean_inner,
    rkhs_distance,
    sample_gaussian_mean,
    symmetrized_kl,
)
from .errors import (
    DataFormatError,
    DegenerateDataError,
    KernelSpecError,
    SkmError,
)
from .kcenter import Selection, kcenter_greedy
from .kernels import (
    RadialKernelSpec,
    bandwidth_iqr,
    bandwidth_jaakkola,
    g_zero,
    parse_kernel_spec,
)
from .meanshift import (
    Clustering,
    ShiftResult,
    cluster_modes,
    discrepancy_index,
    hausdorff_clustering_distance,
    mean_shift_all,
)
from .sparse_mean import (
    SparseKernelMean,
    bound_value,
    evaluate,
    evaluate_full,
    fit,
    full_mean,
    incoherence,
    project_simplex,
    random_selection_fit,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Clustering",
    "DataFormatError",
    "DataSet",
    "DegenerateDataError",
    "DistanceMatrix",
    "KernelSpecError",
    "ProportionEstimate",
    "RadialKernelSpec",
    "Selection",
    "ShiftResult",
    "SkmError",
    "SparseKernelMean",
    "bandwidth_iqr",
    "bandwidth_jaakkola",
    "bound_value",
    "cluster_modes",
    "dirichlet_sample",
    "discrepancy_index",
    "distance_matrix",
    "estimate_proportions",
    "evaluate",
    "evaluate_full",
    "fit",
    "full_mean",
    "g_zero",
    "hausdorff_clustering_distance",
    "incoherence",
    "kcenter_greedy",
    "kl_divergence",
    "l1_error",
    "load_csv",
    "load_model",
    "mean_inner",
    "mean_shift_all",
    "parse_kernel_spec",
    "project_simplex",
    "random_selection_fit",
    "rkhs_distance",
    "sample_gaussian_mean",
    "save_csv",
    "save_model",
    "symmetrized_kl",
]
