"""Dense symmetric and symmetric-tridiagonal eigensolvers.

Thin, contract-enforcing wrappers around numpy's LAPACK: both solvers go
through one ``numpy.linalg.eigh`` call (a tridiagonal matrix is passed
densely).  The dense solve is the slower one: with one BLAS thread on a
2-vCPU Xeon it took 1.3-1.6 times as long as LAPACK's tridiagonal
``dstevd`` at K = 52 and 1.6-2.0 times at K = 80 (three runs of each).
``eigh`` is kept because numpy exposes no tridiagonal solver and ``dstevd``
would bring scipy into the runtime, which stays numpy-only.  The value
added here is the ordering, sign and residual conventions that the rest of
the package relies on:

* ``symtri_eigen``  -- eigenvalues ascending (Sturm-Liouville convention),
  returned as read-only arrays: an ``Eigenpairs`` of the (count,) values,
  the (count, K) eigenvectors as rows, each row's ``peak`` index and
  ``top``, the magnitude of the entry there, read in the sign pass,
* ``dense_sym_eigen`` -- eigenvalues by descending magnitude (integral-operator
  convention), returned as a list of ``EigenPair`` with read-only vectors,
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
           "dense_sym_eigen", "ConvergenceError", "AsymmetryError"]


class ConvergenceError(RuntimeError):
    """Eigensolver failed to converge, its input overflowed, or its result
    broke a physical bound."""


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
    """One (value, unit-norm vector) pair."""

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


def _eigen_rows(A, count, by_magnitude=False):
    """First ``count`` eigenpairs of symmetric A, values ascending or by
    descending magnitude: (values, read-only C-contiguous rows of
    sign-fixed unit vectors, peak index of each row, |entry| at the peak)."""
    if count < 1 or count > len(A):
        raise ValueError(f"count must be in [1, {len(A)}], got {count}")
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(-np.abs(vals), kind="stable")[:count] if by_magnitude else slice(count)
    vals, rows = vals[order], vecs[:, order].T.copy()
    peak = np.abs(rows).argmax(axis=1)
    at_peak = rows[np.arange(count), peak]
    rows *= np.copysign(1.0, at_peak)[:, None]
    top = np.abs(at_peak)
    for arr in (vals, rows, peak, top):
        arr.setflags(write=False)
    return vals, rows, peak, top


def symtri_eigen(T, count):
    """Lowest ``count`` eigenpairs of a SymTridiagonal, values ascending."""
    return Eigenpairs(*_eigen_rows(T.to_dense(), count))


def dense_sym_eigen(A, count, sym_tol=1e-12):
    """Top ``count`` eigenpairs of a symmetric matrix by descending |value|."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("dense_sym_eigen expects a square matrix")
    scale = np.max(np.abs(A))
    if scale > 0 and np.max(np.abs(A - A.T)) > sym_tol * scale:
        raise AsymmetryError("matrix is not symmetric to relative 1e-12")
    vals, rows, _, _ = _eigen_rows(0.5 * (A + A.T), count, by_magnitude=True)
    return [EigenPair(float(v), row) for v, row in zip(vals, rows)]
