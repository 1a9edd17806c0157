"""Dense brute-force oracle for desk-scale validation.

Forms the Schur complement and every derived operator explicitly with exact
dense inverses, so the algebraic identities behind the preconditioner (the
series residual power form, the Woodbury correction, the preconditioned
spectrum, the approximation bound) can be checked number by number on small
instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .partition import PartitionedSystem
from .sparse import as_real, check_count, check_square

DENSE_GUARD = 4000


def check_dense(n: int) -> None:
    """Reject a dimension n above DENSE_GUARD, the largest formed densely."""
    if n > DENSE_GUARD:
        raise ValueError(f"dimension {n} exceeds the dense guard {DENSE_GUARD}; "
                         "use a smaller matrix")


@dataclass
class DenseOracle:
    """Explicit dense blocks and splitting operators of a partitioned system."""

    B: np.ndarray
    E: np.ndarray
    F: np.ndarray
    C: np.ndarray
    S: np.ndarray          # C - F B^{-1} E
    C0: np.ndarray         # block-diagonal part of C
    Es: np.ndarray         # C0 - S
    Cg: np.ndarray         # C - C0
    C0inv: np.ndarray

    @property
    def q(self) -> int:
        return self.S.shape[0]

    def series_matrix(self, m: int) -> np.ndarray:
        """sum_{i=0}^{m} (C0^{-1} Es)^i C0^{-1} formed explicitly."""
        check_count(m, "series degree m")
        T = self.C0inv @ self.Es
        acc = self.C0inv.copy()
        term = self.C0inv.copy()
        for _ in range(m):
            term = T @ term
            acc += term
        return acc

    def err_matrix(self, m: int) -> np.ndarray:
        """(Es C0^{-1})^{m+1}."""
        check_count(m, "series degree m")
        T = self.Es @ self.C0inv
        return np.linalg.matrix_power(T, m + 1)

    def sapp_inv(self, m: int, V: np.ndarray, G: np.ndarray) -> np.ndarray:
        """[series] (I + V G V^T), the approximate inverse Schur complement."""
        q = self.q
        return self.series_matrix(m) @ (np.eye(q) + V @ G @ V.T)


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray       # complex, sorted by modulus descending
    spectral_radius: float
    num_modulus_gt_one: int
    num_negative_real: int


def dense_schur(ps: PartitionedSystem) -> DenseOracle:
    """Exact dense assembly of S, C0, Es for a partitioned system."""
    check_dense(ps.n)
    B = ps.B.toarray()
    E = ps.E.toarray()
    F = ps.F.toarray()
    C = ps.C.toarray()
    try:
        S = C - F @ np.linalg.solve(B, E)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("interior block B is singular") from exc

    Cg = ps.Cg.toarray()
    C0 = C - Cg
    return DenseOracle(B=B, E=E, F=F, C=C, S=S, C0=C0, Es=C0 - S, Cg=Cg,
                       C0inv=np.linalg.inv(C0))


def spectrum(M) -> SpectrumReport:
    """All eigenvalues of a square real matrix, dense or sparse, sorted by
    modulus descending."""
    check_square(M)
    check_dense(np.shape(M)[0])   # before a sparse M is made dense
    M = as_real(M.toarray() if sp.issparse(M) else np.asarray(M))
    eigs = np.linalg.eigvals(M)
    order = np.argsort(-np.abs(eigs), kind="stable")
    eigs = eigs[order]
    return SpectrumReport(
        eigenvalues=eigs,
        spectral_radius=float(np.max(np.abs(eigs), initial=0.0)),
        num_modulus_gt_one=int(np.count_nonzero(np.abs(eigs) > 1.0)),
        num_negative_real=int(np.count_nonzero(eigs.real < 0.0)),
    )


def _bound(oracle: DenseOracle, m: int, V, H):
    """X = Err - V H V^T, Z^{-1} = (I - V H V^T)^{-1} and the bound ||X||_F ||Z^{-1}||_F."""
    VHVt = V @ H @ V.T
    X = oracle.err_matrix(m) - VHVt
    Zinv = np.linalg.inv(np.eye(oracle.q) - VHVt)
    return X, Zinv, float(np.linalg.norm(X, "fro") * np.linalg.norm(Zinv, "fro"))


def delta_bound(oracle: DenseOracle, m: int, V, H) -> float:
    """Frobenius-norm bound ||X|| * ||Z^{-1}|| on the relative approximation error."""
    return _bound(oracle, m, V, H)[2]


def verify_bound(oracle: DenseOracle, m: int, V, H, G,
                 tol: float = 1e-9) -> dict:
    """Check the exact residual identity and the error bound on the oracle.

    Verifies  S^{-1} - S_app^{-1} = S^{-1} X Z^{-1}  and
    ||S^{-1} - S_app^{-1}||_F / ||S^{-1}||_F <= ||X||_F ||Z^{-1}||_F.
    Failures are reported in the returned dict, not raised.
    """
    Sinv = np.linalg.inv(oracle.S)
    Sapp = oracle.sapp_inv(m, V, G)
    X, Zinv, bound = _bound(oracle, m, V, H)
    diff = Sinv - Sapp
    rhs = Sinv @ X @ Zinv
    sinv_norm = np.linalg.norm(Sinv, "fro")
    lhs = float(np.linalg.norm(diff, "fro") / sinv_norm)
    rhs_norm = np.linalg.norm(rhs, "fro")
    identity_residual = float(np.linalg.norm(diff - rhs, "fro") / (rhs_norm if rhs_norm > 0 else sinv_norm))
    return {
        "relative_error": lhs,
        "bound": bound,
        "identity_residual": identity_residual,
        "bound_holds": lhs <= bound + tol,
        "identity_holds": identity_residual <= tol,
    }


def spectrum_csv(report: SpectrumReport) -> str:
    """Eigenvalues as two-column re,im CSV text, header included."""
    rows = [f"{float(lam.real)!r},{float(lam.imag)!r}" for lam in report.eigenvalues]
    return "\n".join(["re,im", *rows]) + "\n"
