"""Star kernels with neighborhood expansion for attributed graphs.

The package computes a similarity between graphs whose nodes and edges
carry mixed categorical and numerical attributes: each node contributes a
star (later expanded to deeper neighborhoods), stars are compared through
exponentially transformed per-dimension similarities, and the resulting
Gram matrices feed a dual SVM with stratified cross-validation.
"""

from .datasets import (
    Dataset,
    canonical_digest,
    compute_ranges,
    load_tu_dataset,
    save_tu_dataset,
    validate_dataset,
)
from .errors import (
    ConfigError,
    DatasetError,
    DegenerateClassError,
    GramComputeError,
    GramFormatError,
    InvalidGramError,
    NaskError,
    SchemaError,
    SvmError,
)
from .evaluate import CvConfig, CvReport, cross_validate, stratified_folds
from .expansion import ExpansionPlan, nask_kernel
from .gram import (
    GramMatrix,
    GramMeta,
    PsdVerdict,
    check_psd,
    compute_gram,
    export_gram,
    import_gram,
    normalize_gram,
)
from .graph import (
    AttributedGraph,
    AttributeSchema,
    AttributeVector,
    DimensionSpec,
    canonical_edge,
    neighbors,
    permute_graph,
)
from .similarity import SimilarityParams
from .stars import KernelContext, graph_kernel_KS
from .svm import (
    BinarySvm,
    SvmModel,
    decision_function,
    load_model,
    predict,
    save_model,
    train_binary,
    train_ovr,
)
from .version import __version__

__all__ = [
    "AttributeSchema",
    "AttributeVector",
    "AttributedGraph",
    "BinarySvm",
    "ConfigError",
    "CvConfig",
    "CvReport",
    "Dataset",
    "DatasetError",
    "DegenerateClassError",
    "DimensionSpec",
    "ExpansionPlan",
    "GramComputeError",
    "GramFormatError",
    "GramMatrix",
    "GramMeta",
    "InvalidGramError",
    "KernelContext",
    "NaskError",
    "PsdVerdict",
    "SchemaError",
    "SimilarityParams",
    "SvmError",
    "SvmModel",
    "__version__",
    "canonical_digest",
    "canonical_edge",
    "check_psd",
    "compute_gram",
    "compute_ranges",
    "cross_validate",
    "decision_function",
    "export_gram",
    "graph_kernel_KS",
    "import_gram",
    "load_model",
    "load_tu_dataset",
    "nask_kernel",
    "neighbors",
    "normalize_gram",
    "permute_graph",
    "predict",
    "save_model",
    "save_tu_dataset",
    "stratified_folds",
    "train_binary",
    "train_ovr",
    "validate_dataset",
]
