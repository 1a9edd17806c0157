"""Power-series + low-rank Schur complement preconditioning for sparse linear systems.

The package builds a domain-decomposition preconditioner in four stages:
graph partitioning into an interior/interface block form, threshold ILU of
the diagonal blocks, a truncated power-series approximation of the inverse
Schur complement, and an Arnoldi-based low-rank correction that deflates the
eigenvalues the series cannot handle.  GMRES and CG accelerators plus a
dense diagnostics oracle round out the library.

Importing the package loads no submodule, and so no numpy or scipy: the
public names below are resolved on first access.  That keeps
``python -m pslr`` and the ``pslr`` console script able to export the BLAS
thread-count variables (see ``_main``) before the BLAS runtime loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "sparse": ("Permutation", "permute_symmetric", "extract_submatrix",
               "read_matrix_market", "write_matrix_market", "MatrixMarketError"),
    "partition": ("PartitionedSystem", "partition_graph", "classify_and_reorder"),
    "ilu": ("IluFactor", "BlockILU", "ilut", "factor_blocks", "block_solve"),
    "schur": ("SchurContext", "build_schur_context", "apply_S", "apply_Es",
              "apply_neumann", "apply_Err"),
    "lowrank": ("LowRankCorrection", "CorrectionSingularError", "arnoldi",
                "build_correction", "apply_correction"),
    "preconditioner": ("PslrConfig", "PslrPreconditioner", "FillStats", "build"),
    "krylov": ("SolveReport", "NotSpdError", "gmres", "cg"),
    "problems": ("ProblemSpec", "laplacian3d", "convdiff3d",
                 "count_negative_eigs_analytic"),
    "diagnostics": ("DenseOracle", "SpectrumReport", "dense_schur", "spectrum",
                    "delta_bound", "verify_bound"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SOURCE) | set(_EXPORTS))
