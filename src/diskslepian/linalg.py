"""Symmetric-tridiagonal eigensolver.

A thin, contract-enforcing wrapper around numpy's LAPACK: the tridiagonal
matrix is passed densely to one ``numpy.linalg.eigh`` call.  With one BLAS
thread on a 2-vCPU Xeon that took 1.3-1.6 times as long as LAPACK's
tridiagonal ``dstevd`` at K = 52 and 1.6-2.0 times at K = 80 (three runs
of each).
``eigh`` is kept because numpy exposes no tridiagonal solver and ``dstevd``
would bring scipy into the runtime, which stays numpy-only.  The value
added here is the ordering, sign and residual conventions that the rest of
the package relies on:

* eigenvalues ascending (Sturm-Liouville convention), returned as
  read-only arrays: an ``Eigenpairs`` of the (count,) values, the
  (count, K) eigenvectors as rows, each row's ``peak`` index and ``top``,
  the magnitude of the entry there, read in the sign pass,
* deterministic eigenvector sign: each vector is LAPACK's column times +-1,
  found in one pass, so that its component of largest magnitude (at
  ``peak``) is positive.  LAPACK's vectors are unit to roundoff (within
  2e-15 on the solver's test grid) and are not rescaled,
* per-pair residual ||T v - lambda v|| <= 1e-11 ||T||, eigenvectors mutually
  orthogonal to 1e-10 (checked by the test suite, not at runtime).
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["SymTridiagonal", "EigenPair", "Eigenpairs", "symtri_eigen",
           "ConvergenceError"]


class ConvergenceError(RuntimeError):
    """Eigensolver failed to converge, its input overflowed, or its result
    broke a physical bound."""


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
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
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

    def to_dense(self):
        """The matrix as a dense (K, K) array, written as three strided
        diagonals of the flat buffer."""
        K = self.dim
        A = np.zeros((K, K))
        A.flat[::K + 1] = self.diag
        A.flat[1::K + 1] = self.offdiag
        A.flat[K::K + 1] = self.offdiag
        return A


@dataclass(frozen=True)
class EigenPair:
    """One (value, vector) pair, as ``operators.nystrom_hankel_eigs``
    returns them."""

    value: float
    vector: np.ndarray


@dataclass(frozen=True)
class Eigenpairs:
    """``count`` eigenpairs as arrays: values (count,), the unit
    eigenvectors as the rows of vectors (count, K), peak (count,), the
    index of each row's largest |entry|, where the entry is positive, and
    top (count,), that entry, so that callers need not index it again.
    len() is count."""

    values: np.ndarray
    vectors: np.ndarray
    peak: np.ndarray
    top: np.ndarray

    def __len__(self):
        return len(self.values)


def symtri_eigen(T, count):
    """Lowest ``count`` eigenpairs of a SymTridiagonal, values ascending."""
    if count < 1 or count > T.dim:
        raise ValueError(f"count must be in [1, {T.dim}], got {count}")
    try:
        vals, vecs = np.linalg.eigh(T.to_dense())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    vals, rows = vals[:count], vecs[:, :count].T.copy()
    peak = np.abs(rows).argmax(axis=1)
    at_peak = rows[np.arange(count), peak]
    rows *= np.copysign(1.0, at_peak)[:, None]
    top = np.abs(at_peak)
    for arr in (vals, rows, peak, top):
        arr.setflags(write=False)
    return Eigenpairs(vals, rows, peak, top)
