"""Dense symmetric and symmetric-tridiagonal eigensolvers.

Thin, contract-enforcing wrappers around LAPACK (via scipy/numpy): the
spectral work in this package never needs more than a few thousand rows, and
the value added here is the ordering, sign and residual conventions that the
rest of the package relies on:

* ``symtri_eigen``  -- eigenvalues ascending (Sturm-Liouville convention),
* ``dense_sym_eigen`` -- eigenvalues by descending magnitude (integral-operator
  convention),
* deterministic eigenvector sign: the component of largest magnitude is made
  positive,
* per-pair residual ||T v - lambda v|| <= 1e-11 ||T||, eigenvectors mutually
  orthogonal to 1e-10 (checked by the test suite, not at runtime).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = ["SymTridiagonal", "EigenPair", "symtri_eigen", "dense_sym_eigen",
           "ConvergenceError", "AsymmetryError"]


class ConvergenceError(RuntimeError):
    """Eigensolver failed to converge, or its result broke a physical bound."""


class AsymmetryError(ValueError):
    """Input matrix is not symmetric to the required tolerance."""


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix: main diagonal and one off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or len(e) != max(len(d) - 1, 0):
            raise ValueError("SymTridiagonal needs diag (K) and offdiag (K-1)")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("SymTridiagonal entries must be finite")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def dim(self):
        return len(self.diag)

    def matvec(self, v):
        out = self.diag * v
        if self.dim > 1:
            out[:-1] += self.offdiag * v[1:]
            out[1:] += self.offdiag * v[:-1]
        return out

    def norm_bound(self):
        """Infinity-norm upper bound for ||T||_2."""
        d, e = np.abs(self.diag), np.abs(self.offdiag)
        row = d.copy()
        if self.dim > 1:
            row[:-1] += e
            row[1:] += e
        return float(np.max(row)) if self.dim else 0.0


@dataclass(frozen=True)
class EigenPair:
    """One (value, unit-norm vector) pair."""

    value: float
    vector: np.ndarray


def _fix_sign(v):
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def symtri_eigen(T, count):
    """Lowest ``count`` eigenpairs of a SymTridiagonal, values ascending."""
    if count < 1 or count > T.dim:
        raise ValueError(f"count must be in [1, {T.dim}], got {count}")
    try:
        if T.dim == 1:
            vals = np.array([T.diag[0]])
            vecs = np.array([[1.0]])
        else:
            vals, vecs = scipy.linalg.eigh_tridiagonal(
                T.diag, T.offdiag, select="i", select_range=(0, count - 1))
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    pairs = []
    for j in range(count):
        v = _fix_sign(vecs[:, j].copy())
        v /= np.linalg.norm(v)
        pairs.append(EigenPair(float(vals[j]), v))
    return pairs


def dense_sym_eigen(A, count, sym_tol=1e-12):
    """Top ``count`` eigenpairs of a symmetric matrix by descending |value|."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("dense_sym_eigen expects a square matrix")
    scale = np.max(np.abs(A))
    if scale > 0 and np.max(np.abs(A - A.T)) > sym_tol * scale:
        raise AsymmetryError("matrix is not symmetric to relative 1e-12")
    if count < 1 or count > A.shape[0]:
        raise ValueError(f"count must be in [1, {A.shape[0]}], got {count}")
    try:
        vals, vecs = np.linalg.eigh(0.5 * (A + A.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver failed: {exc}") from exc
    order = np.argsort(-np.abs(vals), kind="stable")[:count]
    pairs = []
    for j in order:
        v = _fix_sign(vecs[:, j].copy())
        v /= np.linalg.norm(v)
        pairs.append(EigenPair(float(vals[j]), v))
    return pairs
