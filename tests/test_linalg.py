import numpy as np
import pytest

from diskslepian.linalg import Eigenpairs, SymTridiagonal, symtri_eigen

import oracles


def norm_bound(T):
    """Infinity-norm upper bound for ||T||_2 of a SymTridiagonal."""
    row = np.abs(T.diag)
    if T.dim > 1:
        e = np.abs(T.offdiag)
        row[:-1] += e
        row[1:] += e
    return float(np.max(row)) if T.dim else 0.0


def test_symtri_2x2_analytic():
    T = SymTridiagonal([2.0, 2.0], [-1.0])
    assert symtri_eigen(T, 2).values == pytest.approx([1.0, 3.0], abs=1e-14)


def test_symtri_diagonal():
    T = SymTridiagonal([5.0, 5.0, 5.0], [0.0, 0.0])
    assert symtri_eigen(T, 3).values == pytest.approx([5.0, 5.0, 5.0], abs=1e-14)


def test_symtri_vs_sturm_bisection_oracle():
    diag = [float(k * k) for k in range(1, 7)]
    off = [1.0] * 5
    vals = symtri_eigen(SymTridiagonal(diag, off), 6).values
    ref = oracles.tridiag_eigs_bisect(diag, off, 6)
    for val, r in zip(vals, ref):
        assert abs(val - float(r)) <= 1e-12 * max(1.0, abs(float(r)))


def test_symtri_residual_and_orthogonality():
    rng = np.random.default_rng(3)
    T = SymTridiagonal(rng.normal(size=40), rng.normal(size=39))
    eig = symtri_eigen(T, 40)
    vals = eig.values
    assert np.all(np.diff(vals) >= 0)
    V = eig.vectors.T
    norm = norm_bound(T)
    for val, vec in zip(vals, eig.vectors):
        assert np.linalg.norm(T.matvec(vec) - val * vec) <= 1e-11 * norm
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    assert np.max(np.abs(V.T @ V - np.eye(40))) <= 1e-10
    # trace preservation
    assert np.sum(vals) == pytest.approx(np.sum(T.diag), rel=1e-10)


def test_offdiag_sign_flip_similarity():
    rng = np.random.default_rng(11)
    d = rng.normal(size=12)
    e = rng.normal(size=11)
    base = symtri_eigen(SymTridiagonal(d, e), 12)
    flipped = symtri_eigen(SymTridiagonal(d, -e), 12)
    signs = (-1.0) ** np.arange(12)
    assert flipped.values == pytest.approx(base.values, rel=1e-12, abs=1e-12)
    for p_vec, q_vec in zip(base.vectors, flipped.vectors):
        # D T D^-1 with D = diag(+-1) flips component signs predictably
        flipped_vec = signs * p_vec
        if np.dot(flipped_vec, q_vec) < 0:
            flipped_vec = -flipped_vec
        assert np.max(np.abs(flipped_vec - q_vec)) <= 1e-9


@pytest.mark.parametrize("K,count", [(2, 1), (7, 7), (60, 12)])
def test_symtri_array_contract(K, count):
    # ascending values, a read-only (count, K) array of unit rows whose
    # largest component is positive, each row an eigenvector to 1e-11 ||T||
    rng = np.random.default_rng(K)
    T = SymTridiagonal(rng.normal(size=K), rng.normal(size=K - 1))
    eig = symtri_eigen(T, count)
    assert isinstance(eig, Eigenpairs) and len(eig) == count
    assert eig.values.shape == (count,) and eig.vectors.shape == (count, K)
    assert eig.vectors.flags.c_contiguous
    assert not eig.values.flags.writeable and not eig.vectors.flags.writeable
    assert np.all(np.diff(eig.values) >= 0)
    ref = np.linalg.eigvalsh(T.to_dense())[:count]
    assert np.max(np.abs(eig.values - ref)) <= 1e-12 * norm_bound(T)
    rows = np.arange(count)
    peak = np.argmax(np.abs(eig.vectors), axis=1)
    assert np.all(eig.vectors[rows, peak] > 0)
    assert np.max(np.abs(np.linalg.norm(eig.vectors, axis=1) - 1.0)) <= 1e-14
    for val, vec in zip(eig.values, eig.vectors):
        assert np.linalg.norm(T.matvec(vec) - val * vec) <= 1e-11 * norm_bound(T)


def test_symtri_count_validation():
    T = SymTridiagonal([1.0, 2.0], [0.5])
    with pytest.raises(ValueError):
        symtri_eigen(T, 3)
    with pytest.raises(ValueError):
        symtri_eigen(T, 0)


def _flip_then_divide(A, count):
    # the two-step recipe of earlier releases: negate rows whose largest
    # component is negative, then divide each by sqrt(v . v)
    rows = np.linalg.eigh(A)[1][:, :count].T.copy()
    peak = np.argmax(np.abs(rows), axis=1)
    flip = rows[np.arange(count), peak] < 0
    rows[flip] *= -1.0
    rows /= np.sqrt([v.dot(v) for v in rows])[:, None]
    return rows, int(np.sum(flip))


def _assert_signed_lapack_rows(rows, peak, cols):
    # each row is exactly +-1 times LAPACK's column and its largest |entry|,
    # at peak, is positive; returns the number of rows negated
    count = len(rows)
    assert np.array_equal(peak, np.argmax(np.abs(rows), axis=1))
    assert np.all(rows[np.arange(count), peak] > 0)
    flipped = 0
    for row, col in zip(rows, cols.T):
        assert np.array_equal(row, col) or np.array_equal(row, -col)
        flipped += not np.array_equal(row, col)
    return flipped


@pytest.mark.parametrize("K,count", [(2, 1), (9, 9), (60, 12), (80, 40)])
def test_rows_are_sign_fixed_lapack_columns(K, count):
    rng = np.random.default_rng(100 + K)
    T = SymTridiagonal(rng.normal(size=K), rng.normal(size=K - 1))
    dense = np.diag(T.diag) + np.diag(T.offdiag, 1) + np.diag(T.offdiag, -1)
    assert np.array_equal(T.to_dense(), dense)
    vals, vecs = np.linalg.eigh(dense)
    eig = symtri_eigen(T, count)
    assert np.array_equal(eig.values, vals[:count])
    assert eig.vectors.flags.c_contiguous and not eig.vectors.flags.writeable
    assert eig.peak.shape == (count,) and not eig.peak.flags.writeable
    _assert_signed_lapack_rows(eig.vectors, eig.peak, vecs[:, :count])


@pytest.mark.parametrize("K,count", [(2, 1), (9, 9), (60, 12), (80, 40)])
def test_top_is_the_positive_peak_entry_bitwise(K, count):
    rng = np.random.default_rng(200 + K)
    eig = symtri_eigen(SymTridiagonal(rng.normal(size=K), rng.normal(size=K - 1)), count)
    assert eig.top.shape == (count,) and not eig.top.flags.writeable
    with pytest.raises(ValueError):
        eig.top[0] = 1.0
    at_peak = eig.vectors[np.arange(count), eig.peak]
    assert np.all(eig.top > 0)
    assert eig.top.tobytes() == np.abs(at_peak).tobytes() == at_peak.tobytes()


def test_sign_rule_acts_on_a_spectral_matrix():
    from diskslepian.slepian import SlepianParams, build_spectral_matrix
    T = build_spectral_matrix(SlepianParams(nu=0.7, c=23.0, N=3), 52)
    eig = symtri_eigen(T, 20)
    flipped = _assert_signed_lapack_rows(eig.vectors, eig.peak,
                                         np.linalg.eigh(T.to_dense())[1][:, :20])
    assert flipped > 0  # the sign rule acts on this case
    ref, ref_flipped = _flip_then_divide(T.to_dense(), 20)
    assert flipped == ref_flipped
    # LAPACK's rows are unit to roundoff, so renormalising them moves no
    # entry by more than the unit-norm tolerance
    assert np.max(np.abs(eig.vectors - ref)) <= 1e-14


@pytest.mark.parametrize("nu", [0.0, 1.5, 2.9])
@pytest.mark.parametrize("c", [0.5, 5.0, 40.0, 80.0])
def test_mu_does_not_need_renormalised_vectors(nu, c):
    # mu from the sign-fixed LAPACK rows against mu from the same matrix's
    # flipped and renormalised rows: A_0 and sum_k A_k h_k^(-1/2) both
    # scale with the vector, so they agree to a few roundoffs
    from diskslepian import slepian as sl
    for N in range(5):
        for num_modes in (10, 30):
            p = sl.SlepianParams(nu=nu, c=c, N=N)
            K = sl.solve_modes(p, num_modes)[0].truncation
            T = sl.build_spectral_matrix(p, K)
            eig = symtri_eigen(T, num_modes)
            ref, _ = _flip_then_divide(T.to_dense(), num_modes)
            ref_peak = np.argmax(np.abs(ref), axis=1)
            ref_eig = Eigenpairs(eig.values, ref, ref_peak, ref[np.arange(num_modes), ref_peak])
            mu = sl._mu_values(p, T, eig)
            mu_ref = sl._mu_values(p, T, ref_eig)
            assert np.all(np.abs(mu - mu_ref) <= 4e-15 * np.abs(mu_ref))
