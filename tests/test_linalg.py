import numpy as np
import pytest
import scipy.linalg

from diskslepian.linalg import (AsymmetryError, Eigenpairs, SymTridiagonal,
                                dense_sym_eigen, symtri_eigen)

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


def test_dense_identity_and_rank_one():
    pairs = dense_sym_eigen(np.eye(4), 4)
    assert [p.value for p in pairs] == pytest.approx([1.0] * 4, abs=1e-14)
    v = np.array([0.5, -0.5, 0.5, 0.5])
    pairs = dense_sym_eigen(np.outer(v, v), 4)
    assert pairs[0].value == pytest.approx(1.0, abs=1e-13)
    assert [abs(p.value) for p in pairs[1:]] == pytest.approx([0.0] * 3, abs=1e-13)
    # dominant eigenvector reproduces v up to the deterministic sign rule
    assert np.max(np.abs(np.abs(pairs[0].vector) - np.abs(v))) <= 1e-12
    assert pairs[0].vector[np.argmax(np.abs(pairs[0].vector))] > 0


def test_dense_vs_tridiagonalized_path():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(8, 8))
    A = 0.5 * (A + A.T)
    dense = sorted(p.value for p in dense_sym_eigen(A, 8))
    H, q = scipy.linalg.hessenberg(A, calc_q=True)
    T = SymTridiagonal(np.diag(H), np.diag(H, 1))
    tri = symtri_eigen(T, 8).values
    assert np.max(np.abs(np.array(dense) - np.array(tri))) <= 1e-10


def test_dense_ordering_by_magnitude():
    A = np.diag([0.1, -3.0, 2.0, -0.5])
    pairs = dense_sym_eigen(A, 4)
    assert [p.value for p in pairs] == pytest.approx([-3.0, 2.0, -0.5, 0.1])


def test_dense_asymmetry_error():
    A = np.array([[1.0, 2.0], [2.1, 1.0]])
    with pytest.raises(AsymmetryError):
        dense_sym_eigen(A, 1)


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
    A = rng.normal(size=(K, K))
    A = 0.5 * (A + A.T)
    vals, vecs = np.linalg.eigh(A)
    order = np.argsort(-np.abs(vals), kind="stable")[:count]
    pairs = dense_sym_eigen(A, count)
    mags = [abs(p.value) for p in pairs]
    assert mags == sorted(mags, reverse=True)
    assert [p.value for p in pairs] == vals[order].tolist()
    assert all(p.vector.flags.c_contiguous and not p.vector.flags.writeable for p in pairs)
    rows = np.array([p.vector for p in pairs])
    _assert_signed_lapack_rows(rows, np.argmax(np.abs(rows), axis=1), vecs[:, order])


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


@pytest.mark.parametrize("K,count", [(2, 2), (9, 4), (60, 12), (80, 80)])
def test_dense_pairs_are_the_sign_fixed_lapack_columns_bitwise(K, count):
    # the recipe of the sign pass written out: LAPACK's values ordered by
    # descending magnitude, each column negated where its largest |entry|
    # is negative
    rng = np.random.default_rng(300 + K)
    A = rng.normal(size=(K, K))
    A = 0.5 * (A + A.T)
    vals, vecs = np.linalg.eigh(0.5 * (A + A.T))
    order = np.argsort(-np.abs(vals), kind="stable")[:count]
    pairs = dense_sym_eigen(A, count)
    assert [p.value for p in pairs] == vals[order].tolist()
    for p, col in zip(pairs, vecs[:, order].T):
        ref = col if col[np.argmax(np.abs(col))] > 0 else -col
        assert p.vector.tobytes() == ref.tobytes()
        assert not p.vector.flags.writeable


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
