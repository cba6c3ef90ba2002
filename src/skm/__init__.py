"""Sparse approximations of kernel means.

Selects a small support set by farthest-first traversal, fits optimal
weights incrementally with an automatic sparsity stopping rule, and
applies the result to distribution distance matrices, class proportion
estimation, and mean-shift clustering.
"""

from ._backend import BACKEND
from .coefficients import project_simplex, solve_direct, stop_rule
from .cpe import (
    ProportionEstimate,
    dirichlet_sample,
    estimate_proportions,
    l1_error,
    mean_inner,
)
from .dataio import DataSet, ModelRecord, load_csv, load_model, save_csv, save_model
from .divergences import (
    DistanceMatrix,
    distance_matrix,
    kl_divergence,
    rkhs_distance,
    sample_gaussian_mean,
    symmetrized_kl,
)
from .errors import (
    ConvergenceError,
    DataFormatError,
    DegenerateDataError,
    KernelSpecError,
    NearSingularError,
    SkmError,
)
from .kcenter import Selection, kcenter_brute, kcenter_greedy
from .kernels import (
    RadialKernelSpec,
    bandwidth_iqr,
    bandwidth_jaakkola,
    g_zero,
    gram_inner,
    kernel_eval,
    parse_kernel_spec,
)
from .meanshift import (
    Clustering,
    ShiftResult,
    cluster_modes,
    discrepancy_index,
    hausdorff_clustering_distance,
    mean_shift_all,
    shift_point,
)
from .sparse_mean import (
    SparseKernelMean,
    bound_value,
    evaluate,
    evaluate_full,
    fit,
    fit_with_support,
    full_mean,
    incoherence,
    random_selection_fit,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Clustering",
    "ConvergenceError",
    "DataFormatError",
    "DataSet",
    "DegenerateDataError",
    "DistanceMatrix",
    "KernelSpecError",
    "ModelRecord",
    "NearSingularError",
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
    "fit_with_support",
    "full_mean",
    "g_zero",
    "gram_inner",
    "hausdorff_clustering_distance",
    "incoherence",
    "kcenter_brute",
    "kcenter_greedy",
    "kernel_eval",
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
    "shift_point",
    "solve_direct",
    "stop_rule",
    "symmetrized_kl",
]
