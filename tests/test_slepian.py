import importlib.util
import itertools
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from diskslepian import operators as ops
from diskslepian import slepian as sl
from diskslepian import transforms as tr
from diskslepian.orthopoly import jacobi_recurrence
from diskslepian.quadrature import disk_rule, radial_rule
from diskslepian.slepian import RadialMode, SlepianParams, TruncationError

import oracles
from oracles import TBasisIndex, t_norm_sq, x2_recurrence_coeffs

_BENCH_ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("bench_oracle", _BENCH_ORACLE)
bench_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_oracle)


class TestChi0:
    def test_paper_display_values(self):
        assert sl.chi0(0, 0, 0.0) == pytest.approx(0.75)
        assert sl.chi0(1, 0, 0.0) == pytest.approx(15 / 4)
        assert sl.chi0(0, 1, 0.0) == pytest.approx(35 / 4)
        assert sl.chi0(0, 0, 1.0) == pytest.approx(7 / 4)


class TestSpectralMatrix:
    def test_zero_bandwidth_is_diagonal(self):
        p = SlepianParams(nu=0.7, c=0.0, N=2)
        T = sl.build_spectral_matrix(p, 6)
        assert np.all(T.offdiag == 0)
        assert T.diag == pytest.approx([sl.chi0(2, k, 0.7) for k in range(6)])

    def test_hand_computed_entries(self):
        p = SlepianParams(nu=0.0, c=1.0, N=0)
        T = sl.build_spectral_matrix(p, 2)
        assert T.diag[0] == pytest.approx(0.75 + 0.5, abs=1e-15)
        assert T.offdiag[0] == pytest.approx(-0.5 * math.sqrt(1 / 3), rel=1e-14)

    @pytest.mark.parametrize("nu,c,N", [(0.0, 1.0, 0), (1.0, 3.0, 2), (2.5, 0.5, 1)])
    def test_offdiagonal_symmetry_both_ways(self, nu, c, N):
        # e_k must equal c^2 c_{k+1} sqrt(h_k/h_{k+1}), the other side of
        # the scalar recipe's self-adjointness identity
        p = SlepianParams(nu=nu, c=c, N=N)
        T = sl.build_spectral_matrix(p, 10)
        for k in range(9):
            h_k = t_norm_sq(TBasisIndex(N, k, nu))
            h_k1 = t_norm_sq(TBasisIndex(N, k + 1, nu))
            _, _, c_next = x2_recurrence_coeffs(TBasisIndex(N, k + 1, nu))
            other = c * c * c_next * math.sqrt(h_k / h_k1)
            assert abs(T.offdiag[k] - other) <= 1e-12 * max(1.0, abs(other))

    @pytest.mark.parametrize("nu", [0.0, 2.9])
    @pytest.mark.parametrize("N", [0, 4, 60, 90])
    def test_matrix_matches_jacobi_recurrence_in_mpmath(self, nu, N):
        # Lambda = diag(chi0) + c^2 (I - J)/2, J the Jacobi matrix of
        # (1-u)^N (1+u)^nu, every entry to 1e-15 relative; (0, 0) is the 0/0
        # case of alpha_0
        c, K = 7.3, 80
        alpha, beta = oracles.jacobi_recurrence_mp(K, N, nu)
        c2 = mp.mpf(c) ** 2
        diag = [(N + 2 * k + mp.mpf(0.5)) * (N + 2 * mp.mpf(nu) + 2 * k + mp.mpf(1.5))
                + c2 * (1 - alpha_k) / 2 for k, alpha_k in enumerate(alpha)]
        off = [-c2 * mp.sqrt(beta_k) / 2 for beta_k in beta[1:]]
        T = sl.build_spectral_matrix(SlepianParams(nu=nu, c=c, N=N), K)
        for got, ref in [*zip(T.diag.tolist(), diag), *zip(T.offdiag.tolist(), off)]:
            assert abs(got - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("nu,N", [(0.0, 0), (-0.9, 3), (2.5, 2)])
    @pytest.mark.parametrize("K", [2, 3, 57])
    def test_matrix_agrees_with_the_scalar_recipe(self, nu, N, K):
        # the independent recipe of the oracles, entry by entry: d_k from the
        # x^2 recurrence and e_k = c^2 a_k sqrt(h_{k+1}/h_k) from the norms
        c = 7.3
        diag, off = [], []
        for k in range(K):
            a, b, _ = x2_recurrence_coeffs(TBasisIndex(N, k, nu))
            diag.append(sl.chi0(N, k, nu) + c * c * b)
            if k < K - 1:
                ratio = t_norm_sq(TBasisIndex(N, k + 1, nu)) / t_norm_sq(TBasisIndex(N, k, nu))
                off.append(c * c * a * math.sqrt(ratio))
        T = sl.build_spectral_matrix(SlepianParams(nu=nu, c=c, N=N), K)
        assert np.allclose(T.diag, diag, rtol=5e-13, atol=0)
        assert np.allclose(T.offdiag, off, rtol=5e-13, atol=0)

    @pytest.mark.parametrize("nu,N", [(0.0, 0), (-0.9, 3), (2.5, 2)])
    @pytest.mark.parametrize("K", [2, 3, 57])
    def test_mu_weights_and_evaluation_constants_match_scalar_recipe_bitwise(self, nu, N, K):
        # the mu weights h_k^(-1/2) are 1 / sqrt(h_k), two correctly rounded
        # operations, so they do not depend on numpy's power kernel; the
        # first is also r_0, where the eigenfunction recurrence starts
        h = [t_norm_sq(TBasisIndex(N, k, nu)) for k in range(K)]
        terms = sl._basis_terms(N, nu, K)
        assert terms.inv_sqrt_h.tolist() == [1 / math.sqrt(h_k) for h_k in h]


class TestSolveModes:
    def test_zero_bandwidth_modes(self):
        p = SlepianParams(nu=0.5, c=0.0, N=2)
        modes = sl.solve_modes(p, 4)
        for m in modes:
            assert m.chi == pytest.approx(sl.chi0(2, m.n, 0.5), rel=1e-14)
            assert m.mu == 0.0
            e = np.zeros(m.truncation)
            e[m.n] = 1.0
            assert np.max(np.abs(m.coeffs - e)) <= 1e-12

    def test_chi_strictly_increasing_and_coeffs_unit(self):
        p = SlepianParams(nu=1.0, c=3.0, N=1)
        modes = sl.solve_modes(p, 6)
        chis = [m.chi for m in modes]
        assert np.all(np.diff(chis) > 0)
        for m in modes:
            assert np.linalg.norm(m.coeffs) == pytest.approx(1.0, abs=1e-12)
            tail = np.abs(m.coeffs[-1])
            assert tail <= sl.TAIL_TOLERANCE * np.max(np.abs(m.coeffs))

    def test_cross_method_single_case(self):
        p = SlepianParams(nu=0.0, c=1.0, N=0)
        modes = sl.solve_modes(p, 3)
        oracle = ops.nystrom_hankel_eigs(0.0, 1.0, 0, 200, 3)
        for m, q in zip(modes, oracle):
            assert math.sqrt(1.0) * m.mu == pytest.approx(q.value, rel=1e-8)

    def test_lambda_limit_small_bandwidth(self):
        p = SlepianParams(nu=0.7, c=1e-3, N=0)
        lam = sl.solve_modes(p, 1)[0].lam
        assert abs(lam - 1.0) <= 1e-4

    def test_lambda_phase_factor(self):
        for N in range(5):
            p = SlepianParams(nu=0.5, c=0.8, N=N)
            m = sl.solve_modes(p, 1)[0]
            expect = 2 * 1.5 * (1j ** (N % 4)) * m.mu
            assert m.lam == expect

    def test_truncation_cap(self, monkeypatch):
        # the ceiling is checked before any work: no bound walk, no build
        def fail(*args):
            raise AssertionError("called above the cap")
        monkeypatch.setattr(sl, "_certified_truncation", fail)
        monkeypatch.setattr(sl, "build_spectral_matrix", fail)
        with pytest.raises(TruncationError):
            sl.solve_modes(SlepianParams(nu=0.0, c=1e9, N=0), 1)

    def test_failing_tail_is_refused_after_one_build(self, monkeypatch):
        # K = num_modes + 2 is far too short at c = 40: the solve builds and
        # eigensolves once at the bound's K and refuses the tail there, with
        # no retry at a larger K
        builds = []
        real_build = sl.build_spectral_matrix
        monkeypatch.setattr(sl, "build_spectral_matrix",
                            lambda params, K: builds.append(K) or real_build(params, K))
        monkeypatch.setattr(sl, "_certified_truncation",
                            lambda params, num_modes, ceiling: num_modes + 2)
        with pytest.raises(sl.ConvergenceError) as info:
            sl.solve_modes(SlepianParams(nu=0.0, c=40.0, N=0), 10)
        assert builds == [12]
        assert not isinstance(info.value, TruncationError)
        msg = str(info.value)
        assert "\n" not in msg
        for part in ("K=12", "10 modes", "c=40", "1e-12"):
            assert part in msg

    def test_weyl_style_perturbation_bound(self):
        # Lambda = diag(chi0) + c^2 (I - J)/2 with 0 < (I - J)/2 < I, so by
        # Weyl chi0_n <= chi_n <= chi0_n + c^2 in every truncation
        for nu, c, N in itertools.product((-0.5, 0.0, 2.9), (0.5, 40.0, 80.0), (0, 4, 60)):
            for m in sl.solve_modes(SlepianParams(nu=nu, c=c, N=N), 6):
                lo = sl.chi0(N, m.n, nu)
                assert lo * (1 - 1e-12) <= m.chi <= (lo + c * c) * (1 + 1e-12)

    def test_tail_decay_monotone_above_noise_floor(self):
        # |A_k| decays monotonically over the last quarter of the window once
        # entries below the eigensolver noise floor (~1e-13 relative) are
        # clipped to the floor
        p = SlepianParams(nu=1.0, c=4.0, N=1)
        for m in sl.solve_modes(p, 4):
            a = np.abs(m.coeffs)
            floor = 1e-13 * np.max(a)
            tail = np.maximum(a[3 * len(a) // 4:], floor)
            assert np.all(np.diff(tail) <= 1e-30 + 0 * tail[1:])

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("c", [0.5, 5.0, 40.0, 80.0])
    def test_mu_independent_of_num_modes(self, nu, c):
        # asking for more modes changes the truncation, not the leading modes
        for N in range(5):
            p = SlepianParams(nu=nu, c=c, N=N)
            few = sl.solve_modes(p, 10)[:4]
            many = sl.solve_modes(p, 30)[:4]
            assert few[0].truncation != many[0].truncation
            for a, b in zip(few, many):
                assert abs(a.mu - b.mu) <= 1e-12 * abs(b.mu)

    @pytest.mark.parametrize("nu", [0.0, 1.5, 2.9])
    @pytest.mark.parametrize("c", [0.5, 5.0, 40.0, 80.0])
    def test_default_start_is_converged_and_not_doubled(self, nu, c, monkeypatch):
        # K starts where the tail bound certifies it, never above the old
        # start num_modes + ceil(c/4) + 30; one matrix build per solve at that
        # K, and a solve at 2K agrees to 1e-12 (mu), 1e-13 (chi)
        builds = []
        real_build = sl.build_spectral_matrix
        monkeypatch.setattr(sl, "build_spectral_matrix",
                            lambda params, K: builds.append(K) or real_build(params, K))
        for N in range(5):
            for num_modes in (10, 30):
                p = SlepianParams(nu=nu, c=c, N=N)
                builds.clear()
                modes = sl.solve_modes(p, num_modes)
                K = modes[0].truncation
                assert builds == [K] and K <= num_modes + math.ceil(c / 4) + 30
                eig, mus = oracles.solve_at_truncation(p, num_modes, 2 * K)
                for a, chi, mu in zip(modes, eig.values, mus):
                    assert abs(a.mu - mu) <= 1e-12 * abs(mu)
                    assert abs(a.chi - chi) <= 1e-13 * abs(chi)

    @pytest.mark.parametrize("nu", [0.0, 1.5, 2.9])
    @pytest.mark.parametrize("c", [0.5, 5.0, 40.0, 80.0])
    def test_certified_start_is_close_to_the_smallest_passing_truncation(self, nu, c):
        # brute force: the smallest K whose eigenvectors pass the tail
        # check.  The solve starts at the bound's K, never below it and never
        # doubling.  Where the bound certifies a K below the old start it is
        # at most 10 rows above the smallest.  Only at c = 80 with 10 modes
        # may it certify nothing (chi_ub = chi0_9 + c^2 is about 2.4 times
        # chi_9 there), and then K is the old start
        for N in range(5):
            for num_modes in (10, 30):
                p = SlepianParams(nu=nu, c=c, N=N)
                ceiling = num_modes + math.ceil(c / 4) + 30
                K = sl._certified_truncation(p, num_modes, ceiling)
                assert sl.solve_modes(p, num_modes)[0].truncation == K
                smallest = next(
                    k for k in range(num_modes + 2, ceiling + 1)
                    if sl._tails_ok(sl.symtri_eigen(sl.build_spectral_matrix(p, k),
                                                    num_modes)))
                assert smallest <= K
                if K < ceiling:
                    assert K <= smallest + 10
                else:
                    assert c == 80.0 and num_modes == 10

    @pytest.mark.parametrize("nu", [0.0, 1.5, 2.9])
    @pytest.mark.parametrize("c", [0.5, 5.0, 40.0, 80.0, 200.0, 1000.0])
    def test_bracket_bound_against_the_gershgorin_bound(self, nu, c):
        # the bracket chi0 + c^2 and the Gershgorin chi_ub differ by about
        # 1e-3 of their value, and the last disc is wider by one row: K is
        # at most one row above the Gershgorin oracle's, and a K below the
        # ceiling passes the tail check
        for N, num_modes in itertools.product((0, 4, 60), (10, 30, 60)):
            p = SlepianParams(nu=nu, c=c, N=N)
            ceiling = num_modes + math.ceil(c / 4) + 30
            K = sl._certified_truncation(p, num_modes, ceiling)
            assert num_modes + 2 <= K <= oracles.gershgorin_truncation(p, num_modes, ceiling) + 1
            if K < ceiling:
                eig = sl.symtri_eigen(sl.build_spectral_matrix(p, K), num_modes)
                assert sl._tails_ok(eig)

    def test_zero_bandwidth_start_is_the_floor(self):
        # the off-diagonal vanishes: every factor of the tail bound is 0
        for N, nu, num_modes in [(0, 0.0, 3), (4, 2.5, 12), (1, -0.5, 1)]:
            p = SlepianParams(nu=nu, c=0.0, N=N)
            assert sl._certified_truncation(p, num_modes, num_modes + 30) == num_modes + 2
            assert sl.solve_modes(p, num_modes)[0].truncation == num_modes + 2

    def test_uncertified_start_is_the_old_start(self):
        # at c = 1000 the bracket chi0 + c^2 certifies nothing below the old
        # start; the solve is the one made at that start
        p = SlepianParams(nu=0.0, c=1000.0, N=3)
        assert sl._certified_truncation(p, 10, 10 + 250 + 30) == 290
        modes = sl.solve_modes(p, 10)
        _, mus = oracles.solve_at_truncation(p, 10, 290)
        assert modes[0].truncation == 290
        assert [m.mu for m in modes] == mus.tolist()

    def test_steep_weights_keep_the_old_start(self):
        # at N = 20 and 60 the weights h_k^(-1/2) grow past 1e7 over the rows
        # the bound certifies: the solve is the one made at the old start
        for nu, c, N, num_modes in [(0.0, 40.0, 60, 4), (2.5, 40.0, 20, 10),
                                    (-0.5, 5.0, 60, 40)]:
            p = SlepianParams(nu=nu, c=c, N=N)
            ceiling = num_modes + math.ceil(c / 4) + 30
            assert sl._certified_truncation(p, num_modes, ceiling) == ceiling
            modes = sl.solve_modes(p, num_modes)
            _, mus = oracles.solve_at_truncation(p, num_modes, ceiling)
            assert modes[0].truncation == ceiling
            assert [m.mu for m in modes] == mus.tolist()

    def test_high_order_mu_against_double_double_nystrom(self):
        # eigs --nu 0 --c 40 --N 60 --modes 4.  At the old start K = 44 mu_0
        # is 1.4037728354e-9, 1.0e-9 above the oracle's 1.4037728339e-9 (the
        # h_k^(-1/2)-weighted sum at high N); the certified K = 32 would give
        # 1.4038212598e-9, off by 3.4e-5
        modes = sl.solve_modes(SlepianParams(nu=0.0, c=40.0, N=60), 4)
        ref = ops.nystrom_hankel_eigs(0.0, 40.0, 60, 300, 1)[0].value
        assert modes[0].truncation == 44
        assert abs(math.sqrt(40.0) * modes[0].mu - ref) <= 2e-9 * abs(ref)

    def test_mu_against_extended_precision_solve(self):
        # the spectrum_sweep op (seeds 1-3, 201-210) whose mu moves most with
        # the last digits of the off-diagonal: every mode to 6e-14 of the
        # extended-precision eigensolve at the same K.  An off-diagonal formed
        # as a_k sqrt(h_{k+1}/h_k) from lgamma norms is 1.5e-13 off here
        nu, c, N, count = 2.1041, 44.8702, 2, 28
        modes = sl.solve_modes(SlepianParams(nu=nu, c=c, N=N), count)
        assert modes[0].truncation == 52
        ref = oracles.slepian_mu_mp(nu, c, N, 52, count)
        for m, r in zip(modes, ref):
            assert abs(m.mu - r) <= 6e-14 * abs(r)

    def test_leading_coeffs_refuse_an_exact_zero_pivot(self):
        # d_0 - chi = 0 exactly: the continued fraction has no finite ratio
        T = sl.SpectralMatrix(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5]))
        vecs = np.array([[0.1, 0.2, 0.9], [0.1, 0.9, 0.2]])
        eig = sl.Eigenpairs(np.array([1.0, 2.5]), vecs, np.array([2, 1]), np.array([0.9, 0.9]))
        a0 = sl._leading_coeffs(T, eig)
        assert math.isnan(a0[0])
        assert a0[1] == 0.9 * (-0.5 / (1.0 - 2.5))

    def test_coeffs_are_read_only_unit_rows(self):
        modes = sl.solve_modes(SlepianParams(nu=1.0, c=6.0, N=2), 5)
        for m in modes:
            assert m.coeffs.shape == (m.truncation,)
            assert not m.coeffs.flags.writeable
            with pytest.raises(ValueError):
                m.coeffs[0] = 0.0
            assert m.coeffs[np.argmax(np.abs(m.coeffs))] > 0

    def test_radial_mode_is_an_immutable_record_of_python_scalars(self):
        m = sl.solve_modes(SlepianParams(nu=0.5, c=3.0, N=1), 3)[1]
        assert isinstance(m, RadialMode)
        with pytest.raises(AttributeError):
            m.chi = 0.0
        with pytest.raises(AttributeError):
            m.coeffs = None
        assert type(m.n) is int and type(m.truncation) is int
        assert type(m.chi) is float and type(m.mu) is float
        assert type(m.lam) is complex
        assert repr(m) == (f"RadialMode(n=1, chi={m.chi!r}, mu={m.mu!r}, "
                           f"lam={m.lam!r}, truncation={m.truncation!r})")


class TestBasisTerms:
    def test_cached_terms_are_read_only(self):
        terms = sl._basis_terms(2, 1.0, 30)
        assert terms is sl._basis_terms(2, 1.0, 30)
        for arr in terms:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_a_shorter_truncation_is_a_prefix_bitwise(self):
        # every term depends on its own k alone, so the tail bound, which
        # reads the ceiling's terms, sees the rows of the K it certifies
        whole = sl._basis_terms(3, 0.7123, 90)
        for K in (2, 17, 45, 89):
            for arr, full in zip(sl._basis_terms(3, 0.7123, K), whole):
                assert arr.tobytes() == full[:len(arr)].tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("N,nu,K", [(0, 0.0, 2), (0, -0.9, 57), (3, 0.7123, 90),
                                        (60, 2.9, 120), (400, 3.0, 285)])
    def test_bound_row_terms_match_a_float_by_float_recomputation(self, N, nu, K):
        # gap_k = x2_kk - |x2_{k,k+1}|, disc_lo_k = gap_k - |x2_{k-1,k}| and
        # step_k = |x2_{k-1,k}| w_k / w_{k-1}, w = h^(-1/2), in Python floats;
        # row K-1 reads |x2_{K-1,K}| from the next truncation.  At N = 400
        # h_k underflows from k = 190: step is NaN (inf / inf) there, and
        # nothing warns
        terms = sl._basis_terms(N, nu, K)
        diag, w = terms.x2_diag.tolist(), terms.inv_sqrt_h.tolist()
        off = [-x for x in sl._basis_terms(N, nu, K + 1).x2_off.tolist()]
        gap = [diag[k] - off[k] for k in range(K)]
        disc_lo = [gap[0]] + [gap[k] - off[k - 1] for k in range(1, K)]
        step = [0.0] + [off[k - 1] * w[k] / w[k - 1] for k in range(1, K)]
        assert terms.gap.tolist() == gap
        assert terms.disc_lo.tolist() == disc_lo
        assert terms.step.tobytes() == np.array(step).tobytes()
        if N == 400:
            assert np.all(np.isnan(terms.step[191:]))
            assert np.all(np.isfinite(terms.step[:190]))

    @pytest.mark.parametrize("c", [0.0, 6.0])
    def test_writing_a_returned_matrix_leaves_later_solves_unchanged(self, c):
        p = SlepianParams(nu=1.0, c=c, N=2)
        before = oracles.solve_at_truncation(p, 5, 40)
        T = sl.build_spectral_matrix(p, 40)
        T.diag[:] = 1.0
        T.offdiag[:] = 0.5
        after = oracles.solve_at_truncation(p, 5, 40)
        (eig_a, mu_a), (eig_b, mu_b) = before, after
        assert np.array_equal(eig_a.values, eig_b.values)
        assert np.array_equal(eig_a.vectors, eig_b.vectors)
        assert np.array_equal(mu_a, mu_b)

    @pytest.mark.filterwarnings("error")
    def test_underflowed_norms_are_refused_without_warnings(self):
        # h_k underflows to 0 from k = 190 at N = 400.  The matrix does not
        # read h_k and stays finite; the mu weights are inf there, the mu
        # step refuses them, and nothing warns
        p = SlepianParams(nu=3.0, c=1000.0, N=400)
        T = sl.build_spectral_matrix(p, 285)
        assert np.all(np.isfinite(T.diag)) and np.all(np.isfinite(T.offdiag))
        terms = sl._basis_terms(400, 3.0, 285)
        assert np.all(np.isposinf(terms.inv_sqrt_h[190:]))
        assert np.all(np.isfinite(terms.inv_sqrt_h[:190]))
        with pytest.raises(sl.ConvergenceError, match="overflow"):
            sl.solve_modes(p, 5)

    def test_warm_sweep_pass_misses_no_cache(self):
        # 48 ops as in the spectrum_sweep benchmark: 3 nu x 16 c, N = j % 5,
        # 10 to 30 modes.  After a cold pass the solves find every
        # (N, nu, K) in the cache: nothing is built
        ops = []
        for j, c in enumerate(np.geomspace(0.5, 80.0, 48).tolist()):
            modes = round(10 + 20 * math.log(c / 0.5) / math.log(160))
            ops.append(((0.4131, 1.3127, 2.6173)[j % 3], c, j % 5, modes))
        params = [(SlepianParams(nu=nu, c=c, N=N), m) for nu, c, N, m in ops]
        cold = [sl.solve_modes(p, m) for p, m in params]
        misses = sl._basis_terms.cache_info().misses
        warm = [sl.solve_modes(p, m) for p, m in params]
        assert sl._basis_terms.cache_info().misses == misses
        for a, b in zip(cold, warm):
            assert [m.mu for m in a] == [m.mu for m in b]

    def test_evaluation_reads_the_solve_slice(self, monkeypatch):
        p = SlepianParams(nu=0.9127, c=12.0, N=3)
        modes = sl.solve_modes(p, 6)
        K = modes[0].truncation
        assert K < 6 + 3 + 30
        seen = []
        real = sl._basis_terms
        monkeypatch.setattr(sl, "_basis_terms",
                            lambda N, nu, K: seen.append(real(N, nu, K)) or seen[-1])
        xs = np.linspace(0.05, 1.0, 7)
        got = sl.eval_phi(modes[2], p, xs)
        assert len(seen) == 1 and seen[0] is real(3, 0.9127, K)
        # the same recurrence with a fresh build's terms, in the same order
        fresh = real.__wrapped__(3, 0.9127, K)
        d, e = fresh.x2_diag, fresh.x2_off
        s = xs * xs
        r = [np.full_like(s, fresh.inv_sqrt_h[0]), (s - d[0]) * fresh.inv_sqrt_h[0] / e[0]]
        for k in range(2, K):
            r.append(((s - d[k - 1]) * r[k - 1] - e[k - 2] * r[k - 2]) / e[k - 1])
        acc = modes[2].coeffs[0] * r[0]
        for k in range(1, K):
            acc = acc + modes[2].coeffs[k] * r[k]
        assert np.array_equal(got, xs ** 3.5 * acc)


class TestEvaluation:
    def test_phi_reproduces_basis_at_zero_bandwidth(self):
        p = SlepianParams(nu=0.5, c=0.0, N=1)
        modes = sl.solve_modes(p, 3)
        xs = np.linspace(0.05, 1.0, 9)
        for m in modes:
            idx = TBasisIndex(1, m.n, 0.5)
            that = oracles.t_basis(idx, xs) / math.sqrt(t_norm_sq(idx))
            assert np.max(np.abs(sl.eval_phi(m, p, xs) - that)) <= 1e-12

    def test_phi_matches_stacked_jacobi_sum_bitwise(self):
        # eval_phi accumulates the basis terms one at a time; the reference
        # stacks the same x^2 recurrence, taken from the Jacobi coefficients
        # (alpha, beta) of (1-u)^2 (1+u)^(-1/2) and the oracle's h_0, and
        # sums it in the same order
        p = SlepianParams(nu=-0.5, c=7.0, N=2)
        m = sl.solve_modes(p, 3)[2]
        xs = np.linspace(0.05, 1.0, 7)
        K = len(m.coeffs)
        alpha, beta = jacobi_recurrence(K, 2, -0.5)
        d = [0.5 * (1.0 - a) for a in alpha.tolist()]
        e = [-(0.5 * math.sqrt(b)) for b in beta[1:].tolist()]
        s = xs * xs
        r0 = 1 / math.sqrt(t_norm_sq(TBasisIndex(2, 0, -0.5)))
        R = np.empty((K, len(xs)))
        R[0], R[1] = r0, (s - d[0]) * r0 / e[0]
        for k in range(2, K):
            R[k] = ((s - d[k - 1]) * R[k - 1] - e[k - 2] * R[k - 2]) / e[k - 1]
        acc = None
        for k in range(K):
            term = m.coeffs[k] * R[k]
            acc = term if acc is None else acc + term
        assert np.array_equal(sl.eval_phi(m, p, xs), xs ** 2.5 * acc)

    @pytest.mark.parametrize("N", [0, 4])
    def test_phi_against_extended_precision_eigenfunctions(self, N):
        # all 30 modes at (nu, c) = (2.9, 80), on 40 points up to x = 1,
        # where the basis grows like k^(nu+1/2); the error is relative to
        # max|phi| of each mode.  The recurrence of the x^2 matrix gives
        # about 2e-12; Jacobi values times separate lgamma constants gave
        # 1.5e-11 (N = 0) and 9.8e-12 (N = 4)
        p = SlepianParams(nu=2.9, c=80.0, N=N)
        modes = sl.solve_modes(p, 30)
        xs = np.linspace(0.0, 1.0, 41)[1:]
        ref = oracles.slepian_phi_mp(2.9, 80.0, N, modes[0].truncation, 30, xs.tolist())
        got = np.array([sl.eval_phi(m, p, xs) for m in modes])
        err = np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert err.max() <= 3e-12

    def test_phi_normalized(self):
        p = SlepianParams(nu=1.0, c=2.0, N=1)
        rule = radial_rule(200, 1.0)
        for m in sl.solve_modes(p, 3):
            val = rule.integrate(sl.eval_phi(m, p, rule.nodes) ** 2)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_hankel_eigenrelation(self):
        p = SlepianParams(nu=0.0, c=1.0, N=0)
        rule = radial_rule(240, 0.0)
        modes = sl.solve_modes(p, 3)
        xs = np.linspace(0.05, 0.95, 10)
        for m in modes:
            resid = [ops.apply_finite_hankel(0.0, 1.0, 0,
                                             lambda t: sl.eval_phi(m, p, t), x, rule)
                     - math.sqrt(1.0) * m.mu * sl.eval_phi(m, p, x) for x in xs]
            scale = max(abs(math.sqrt(1.0) * m.mu * sl.eval_phi(m, p, x)) for x in xs)
            assert max(abs(r) for r in resid) <= 1e-7 * scale

    def test_R_and_psi_shapes(self):
        p = SlepianParams(nu=0.0, c=0.0, N=0)
        m = sl.solve_modes(p, 1)[0]
        # T-hat_{0,0} = sqrt(x)/sqrt(1/2): R = sqrt(2)
        assert sl.eval_R(m, p, 0.3) == pytest.approx(math.sqrt(2), rel=1e-13)
        assert sl.eval_R(m, p, 1.0) == pytest.approx(math.sqrt(2), rel=1e-13)
        pN = SlepianParams(nu=0.5, c=1.0, N=3)
        mN = sl.solve_modes(pN, 1)[0]
        rs = np.array([1e-3, 2e-3])
        ratio = sl.eval_R(mN, pN, rs[1]) / sl.eval_R(mN, pN, rs[0])
        assert ratio == pytest.approx(2.0 ** 3, rel=1e-4)  # R ~ r^N
        assert sl.eval_R(mN, pN, 0.0) == 0.0
        assert np.isfinite(sl.eval_R(mN, pN, 1.0))

    def test_psi_angular_structure(self):
        p = SlepianParams(nu=1.0, c=1.0, N=0)
        m = sl.solve_modes(p, 1)[0]
        v = sl.eval_psi(m, p, 0.5, 1.234)
        assert v.imag == 0.0
        p2 = SlepianParams(nu=1.0, c=1.0, N=2)
        m2 = sl.solve_modes(p2, 1)[0]
        mags = [abs(sl.eval_psi(m2, p2, 0.5, th)) for th in (0.0, 0.9, 2.2, 5.5)]
        assert np.ptp(mags) <= 1e-14

    def test_radial_orthonormality_matrix(self):
        p = SlepianParams(nu=1.0, c=2.0, N=0)
        modes = sl.solve_modes(p, 11)
        rule = radial_rule(300, 1.0)
        vals = np.array([sl.eval_phi(m, p, rule.nodes) for m in modes])
        gram = (vals * rule.weights) @ vals.T
        assert np.max(np.abs(gram - np.eye(11))) <= 1e-9

    def test_disk_double_orthogonality(self):
        nu, c = 0.5, 1.0
        rule = disk_rule(100, 96, nu)
        fam = []
        for N in (0, 1, 3):
            p = SlepianParams(nu=nu, c=c, N=N)
            fam.extend((m, p) for m in sl.solve_modes(p, 2))
        vals = np.array([sl.eval_psi(m, p, rule.rs, rule.angles) for (m, p) in fam])
        gram = (vals * rule.weights) @ vals.conj().T
        assert np.max(np.abs(gram - np.eye(len(fam)))) <= 1e-8

    def test_iterated_transform_squared_modulus(self):
        # F* F psi = |lambda|^2 psi (the printed unsquared right side is
        # inconsistent with iterating the eigenrelation and is not asserted)
        nu, c = 1.0, 1.0
        p = SlepianParams(nu=nu, c=c, N=1)
        m = sl.solve_modes(p, 1)[0]
        rule = disk_rule(60, 64, nu)
        psi_vals = sl.eval_psi(m, p, rule.rs, rule.angles)
        # F psi on every rule node, chunked matrix-vector products
        src = rule.weights * psi_vals
        f_nodes = np.empty(len(rule.xs), dtype=complex)
        for j0 in range(0, len(rule.xs), 512):
            j1 = min(j0 + 512, len(rule.xs))
            phase = np.exp(1j * c * (np.outer(rule.xs[j0:j1], rule.xs)
                                     + np.outer(rule.ys[j0:j1], rule.ys)))
            f_nodes[j0:j1] = phase @ src
        worst = 0.0
        for y0 in [(0.3, 0.2), (0.5, -0.4), (-0.6, 0.1)]:
            val = np.sum(rule.weights * np.exp(-1j * c * (rule.xs * y0[0] + rule.ys * y0[1]))
                         * f_nodes)
            ref = abs(m.lam) ** 2 * sl.eval_psi(m, p, math.hypot(*y0), math.atan2(y0[1], y0[0]))
            worst = max(worst, abs(val - ref))
        assert worst <= 1e-6

    def test_lambda_magnitude_ordering_merged(self):
        # |lambda_{N,n}| does not increase in n or in N and never exceeds 1,
        # on merged families up to the large-c plateau of nearly equal |lambda|
        nu = 1.0
        for c in (2.0, 80.0):
            mags = np.array([[abs(m.lam) for m in sl.solve_modes(SlepianParams(nu, c, N), 6)]
                             for N in range(4)])
            assert np.all(mags <= 1 + 1e-12)
            assert np.all(mags[:, 1:] <= mags[:, :-1] * (1 + 1e-9))
            assert np.all(mags[1:, :] <= mags[:-1, :] * (1 + 1e-9))


class TestContractionBound:
    """For nu >= 0, |mu| <= 1/c (|lambda| <= 2 (nu+1)/c), from Plancherel and
    w_nu <= (nu+1)/pi on the disk."""

    @pytest.mark.parametrize("nu,c,N,modes", [(0.0, 200.0, 90, 3), (0.0, 1000.0, 60, 3),
                                              (0.0, 4000.0, 50, 3), (0.0, 1000.0, 30, 8)])
    def test_high_order_solves_above_the_bound_are_refused(self, nu, c, N, modes):
        # wrong mu at high N, with |mu| c - 1 from +4.9e-10 to +3.5e-2
        with pytest.raises(sl.ConvergenceError, match="exceeds its bound"):
            sl.solve_modes(SlepianParams(nu, c, N), modes)

    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.3, 2.9])
    def test_solves_up_to_c_80_are_not_refused(self, nu):
        for c in (0.5, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0):
            for N in (0, 1, 4, 10):
                modes = sl.solve_modes(SlepianParams(nu, c, N), 30)
                assert max(abs(m.mu) for m in modes) * c <= 1 + 1e-12


class TestLargeBandwidth:
    """Spectra at c well past the small-argument Bessel regime, against
    Nystrom oracles.  Magnitudes are compared sorted: on the large-c plateau
    the two methods may order nearly equal magnitudes differently."""

    @pytest.mark.parametrize("nu,c,N", [(0.0, 20.0, 0), (2.5, 20.0, 3),
                                        (1.0, 40.0, 1), (0.0, 40.0, 2),
                                        (-0.5, 20.0, 0), (-0.9, 20.0, 1)])
    def test_against_double_double_nystrom(self, nu, c, N):
        modes = sl.solve_modes(SlepianParams(nu, c, N), 12)
        ref = np.sort([abs(q.value) for q in ops.nystrom_hankel_eigs(nu, c, N, 300, 12)])
        got = np.sort([abs(math.sqrt(c) * m.mu) for m in modes])
        assert np.max(np.abs(got - ref) / ref) <= 1e-10

    @pytest.mark.parametrize("nu,c,N", [(0.0, 80.0, 0), (1.0, 80.0, 1), (2.5, 80.0, 4),
                                        (0.0, 200.0, 0), (2.5, 200.0, 4),
                                        (1.0, 1000.0, 1), (2.5, 1000.0, 4)])
    def test_against_plain_double_nystrom(self, nu, c, N):
        # the benchmark's gate oracle: scipy Gauss-Jacobi nodes and jv at 400
        # and 600 nodes, compared only at the ranks where the two sizes agree
        count = 40
        ref = bench_oracle.MuOracle(nu, c, N)
        resolved = ref.resolved[:count]
        assert np.count_nonzero(resolved) >= 25
        modes = sl.solve_modes(SlepianParams(nu, c, N), count)
        got = np.sort([abs(math.sqrt(c) * m.mu) for m in modes])[::-1]
        err = np.abs(got - ref.values[:count]) / ref.values[:count]
        assert np.max(err[resolved]) <= 1e-9

    @pytest.mark.parametrize("N", [0, 3, 10])
    def test_unweighted_plateau(self, N):
        # at nu = 0 the concentration c (sqrt(c) mu)^2 of the leading modes
        # tends to 1 exponentially fast in c, so c |mu| = 1 and |lambda| = 2/c,
        # far inside the |lambda| <= 1 guard
        c = 1000.0
        modes = sl.solve_modes(SlepianParams(0.0, c, N), 5)
        assert all(abs(c * abs(m.mu) - 1) <= 1e-12 for m in modes)

    def test_deep_modes_keep_relative_accuracy(self):
        # mu spans 0.5 down to 4e-47 here; A_0 of the high modes lies far
        # below the roundoff of a double-precision eigenvector
        ref = oracles.slepian_mu_mp(0.0, 0.5, 0, 30, 13)
        modes = sl.solve_modes(SlepianParams(0.0, 0.5, 0), 13)
        assert abs(ref[-1]) < 1e-46
        assert all(abs(m.mu - r) <= 1e-12 * abs(r) for m, r in zip(modes, ref))


def _lemma1_images(params, K, r):
    """h_k^(-1/2) H T_{N,k}(r) for k < K, by the paper's Lemma 1:
    H T_{N,k}(r) = N! k!/(k+N)! lemma1_rhs(N, nu, k, c r).  So H phi(r) is
    their dot product with the coefficients of phi, without quadrature."""
    nu, c, N = params.nu, params.c, params.N
    return np.array([tr.lemma1_rhs(N, nu, k, c * r)
                     / (math.comb(k + N, N) * math.sqrt(t_norm_sq(TBasisIndex(N, k, nu))))
                     for k in range(K)])


def _rayleigh_mu(mode, params):
    """H phi(1) / (sqrt(c) phi(1)) of ``mode``, summed by Lemma 1."""
    hphi = mode.coeffs @ _lemma1_images(params, len(mode.coeffs), 1.0)
    return hphi / (math.sqrt(params.c) * sl.eval_phi(mode, params, 1.0))


class TestLemma1EigenEquation:
    """H phi = sqrt(c) mu phi with H applied by Lemma 1, term by term: an
    oracle with no quadrature and no Nystrom matrix, at any c r up to 60."""

    @pytest.mark.parametrize("nu,c,N,tol", [
        (0.0, 1.0, 0, 1e-14), (1.3, 10.0, 2, 1e-14), (2.5, 20.0, 4, 1e-14),
        (-0.5, 30.0, 1, 1e-14), (0.0, 5.0, 3, 1e-14), (0.0, 40.0, 0, 1e-14),
        # c r = 60 and Bessel orders up to 105
        (2.9, 60.0, 3, 1e-12)])
    def test_eigen_equation(self, nu, c, N, tol):
        p = SlepianParams(nu, c, N)
        rs = (0.2, 0.5, 0.8, 1.0)
        modes = sl.solve_modes(p, 5)
        images = [_lemma1_images(p, modes[0].truncation, r) for r in rs]
        grid = np.linspace(0.0, 1.0, 201)[1:]
        for m in modes:
            scale = np.abs(sl.eval_phi(m, p, grid)).max()
            for r, image in zip(rs, images):
                resid = m.coeffs @ image - math.sqrt(c) * m.mu * sl.eval_phi(m, p, r)
                assert abs(resid) <= tol * scale

    @pytest.mark.parametrize("nu", [0.0, 1.3, -0.5])
    def test_rayleigh_ratio_against_double_double_nystrom(self, nu):
        # the ratio does not move with the mode count, though mu does there
        ref = ops.nystrom_hankel_eigs(nu, 40.0, 60, 300, 1)[0].value / math.sqrt(40.0)
        p = SlepianParams(nu, 40.0, 60)
        for count in (4, 10, 30, 60):
            ratio = _rayleigh_mu(sl.solve_modes(p, count)[0], p)
            assert abs(ratio - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("N,count", [
        pytest.param(N, count, marks=pytest.mark.xfail(
            strict=True, reason=f"ROADMAP item 1: mu at high N is {err} off"))
        for N, count, err in [(60, 30, "7.4e-6"), (40, 4, "6.3e-8")]])
    def test_mu_against_the_rayleigh_ratio(self, N, count):
        p = SlepianParams(0.0, 40.0, N)
        mode = sl.solve_modes(p, count)[0]
        ratio = _rayleigh_mu(mode, p)
        assert abs(mode.mu - ratio) <= 1e-10 * abs(ratio)


class TestTrace:
    """The radial operator is trace class with a smooth kernel (Brislawn,
    Proc. AMS 104, 1988), so its eigenvalues sqrt(c) mu_{N,n} sum to the
    integral of the kernel's diagonal:

        sum_n sqrt(c) mu_{N,n} = (sqrt(c)/2) integral_0^1 J_N(c s) (1-s)^nu ds.

    The whole spectrum is checked at once, against a quadrature that shares
    nothing with the solver.  N stays at 10 or below, where mu is right.
    The 2D form, sum_N (2 - delta_N0) sum_n |lambda_{N,n}|^2 = 1, needs no
    quadrature at all."""

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 1.3, 2.9])
    @pytest.mark.parametrize("c", [1.0, 20.0, 80.0])
    def test_mu_sum_is_the_kernel_trace(self, nu, c):
        # Gauss-Jacobi in u = 2s - 1: (1-s)^nu ds = 2^(-nu-1) (1-u)^nu du.
        # 64 nodes resolve J_N(c s) at c = 80.  scipy's 200-node rule is
        # worse: at nu = -0.5 its own error is 3e-12 of sum_n |sqrt(c) mu|
        u, w = scipy.special.roots_jacobi(64, nu, 0.0)
        for N in (0, 3, 10):
            modes = sl.solve_modes(SlepianParams(nu, c, N), int(c / 2) + 40)
            terms = np.array([math.sqrt(c) * m.mu for m in modes])
            integral = 2.0 ** (-nu - 1) * np.dot(w, scipy.special.jv(N, c * (1 + u) / 2))
            trace = math.sqrt(c) / 2 * integral
            assert abs(terms.sum() - trace) <= 1e-11 * np.abs(terms).sum()

    @pytest.mark.parametrize("nu, c", [
        *itertools.product([-0.5, 0.0, 1.3, 2.9], [1.0, 5.0]),
        *(pytest.param(nu, 15.0, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: mu at N around c/2 and above is "
            "too large, and the sum reads 1.2e-10 (nu = -0.5) and 1.3e-11 (nu = 0) "
            "above 1")) for nu in (-0.5, 0.0))])
    def test_lambda_squares_sum_to_one(self, nu, c):
        # F_{nu,c} is normal (it commutes with its adjoint, the transform at
        # -c) and its kernel has modulus 1 under a probability weight, so its
        # Hilbert-Schmidt norm is 1: sum_N (2 - delta_N0) sum_n |lambda_{N,n}|^2
        # = 1, N and -N sharing the radial modes.  The first term left out,
        # at N = c + 16 or n = c/2 + 15, is below 1e-16
        n_max, modes = int(c) + 15, int(c / 2) + 15
        total = math.fsum(
            (2 - (N == 0)) * abs(m.lam) ** 2
            for N in range(n_max + 1)
            for m in sl.solve_modes(SlepianParams(nu, c, N), modes))
        assert abs(total - 1) <= 1e-13


class TestParamsValidation:
    @pytest.mark.parametrize("N", [2.0, 1.5, "2", None])
    def test_non_integer_order_is_refused_at_construction(self, N):
        with pytest.raises(ValueError, match="N must be an integer"):
            SlepianParams(nu=0.0, c=1.0, N=N)

    @pytest.mark.parametrize("num_modes", [2.5, 3.0, "3"])
    def test_non_integer_mode_count_is_refused_at_entry(self, num_modes):
        with pytest.raises(ValueError, match="num_modes must be an integer"):
            sl.solve_modes(SlepianParams(nu=0.0, c=1.0, N=0), num_modes)

    def test_numpy_integers_are_taken_as_python_ints(self):
        p = SlepianParams(nu=1.0, c=3.0, N=np.int64(2))
        assert type(p.N) is int
        got = sl.solve_modes(p, np.int64(3))
        want = sl.solve_modes(SlepianParams(nu=1.0, c=3.0, N=2), 3)
        assert len(got) == 3 and type(got[0].truncation) is int
        assert [m.mu for m in got] == [m.mu for m in want]
        assert [m.lam for m in got] == [m.lam for m in want]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SlepianParams(nu=-1.0, c=1.0, N=0)
        with pytest.raises(ValueError):
            SlepianParams(nu=0.0, c=-0.1, N=0)
        with pytest.raises(ValueError):
            SlepianParams(nu=0.0, c=1.0, N=-1)
        with pytest.raises(ValueError):
            sl.solve_modes(SlepianParams(nu=0.0, c=1.0, N=0), 0)
