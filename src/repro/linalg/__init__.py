"""Implicit linear algebra substrate for HDMM (paper Section 4).

Every workload and strategy in this library is a :class:`Matrix` — an
implicit linear operator supporting mat-vec products, Gram matrices,
sensitivity (max L1 column norm), and structured pseudo-inverses.
"""

from .base import Dense, Matrix
from .identity import Diagonal, Identity, Ones, Total
from .kron import Kronecker, kmatmat, kmatvec
from .serialize import (
    flatten_arrays,
    matrix_from_config,
    matrix_to_config,
    registered_types,
    restore_arrays,
)
from .marginals import (
    MarginalsAlgebra,
    MarginalsGram,
    MarginalsStrategy,
    get_algebra,
    index_to_subset,
    marginal_c_matrix,
    marginal_query_matrix,
    subset_to_index,
)
from .stack import Sum, VStack, Weighted
from .structured import (
    AllRange,
    Permuted,
    Prefix,
    Selection,
    SparseMatrix,
    WidthRange,
    haar_wavelet,
    hierarchical,
)

__all__ = [
    "AllRange",
    "Dense",
    "Diagonal",
    "Identity",
    "Kronecker",
    "MarginalsAlgebra",
    "MarginalsGram",
    "MarginalsStrategy",
    "Matrix",
    "Ones",
    "Permuted",
    "Prefix",
    "Selection",
    "SparseMatrix",
    "Sum",
    "Total",
    "VStack",
    "Weighted",
    "WidthRange",
    "flatten_arrays",
    "get_algebra",
    "haar_wavelet",
    "hierarchical",
    "index_to_subset",
    "kmatmat",
    "kmatvec",
    "marginal_c_matrix",
    "marginal_query_matrix",
    "matrix_from_config",
    "matrix_to_config",
    "registered_types",
    "restore_arrays",
    "subset_to_index",
]
