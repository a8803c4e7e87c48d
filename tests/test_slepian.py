import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from diskslepian import operators as ops
from diskslepian import slepian as sl
from diskslepian.orthopoly import TBasisIndex, jacobi_sequence, t_norm_sq
from diskslepian.quadrature import disk_rule, radial_rule
from diskslepian.slepian import RadialMode, SlepianParams, TruncationError

import oracles

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
        # e_k via a_k sqrt(h_{k+1}/h_k) must equal c_{k+1} sqrt(h_k/h_{k+1})
        from diskslepian.orthopoly import x2_recurrence_coeffs
        p = SlepianParams(nu=nu, c=c, N=N)
        T = sl.build_spectral_matrix(p, 10)
        for k in range(9):
            h_k = t_norm_sq(TBasisIndex(N, k, nu))
            h_k1 = t_norm_sq(TBasisIndex(N, k + 1, nu))
            _, _, c_next = x2_recurrence_coeffs(TBasisIndex(N, k + 1, nu))
            other = c * c * c_next * math.sqrt(h_k / h_k1)
            assert abs(T.offdiag[k] - other) <= 1e-12 * max(1.0, abs(other))

    @pytest.mark.parametrize("nu,N", [(0.0, 0), (-0.9, 3), (2.5, 2)])
    @pytest.mark.parametrize("K", [2, 3, 57])
    def test_array_build_matches_scalar_reference_bitwise(self, nu, N, K):
        # the scalar recipe, entry by entry; (0, 0) is the 0/0 case of b_0
        from diskslepian.orthopoly import x2_recurrence_coeffs
        c = 7.3
        diag, off = [], []
        for k in range(K):
            a, b, _ = x2_recurrence_coeffs(TBasisIndex(N, k, nu))
            diag.append(sl.chi0(N, k, nu) + c * c * b)
            if k < K - 1:
                ratio = t_norm_sq(TBasisIndex(N, k + 1, nu)) / t_norm_sq(TBasisIndex(N, k, nu))
                off.append(c * c * a * math.sqrt(ratio))
        T = sl.build_spectral_matrix(SlepianParams(nu=nu, c=c, N=N), K)
        assert np.array_equal(T.diag, diag)
        assert np.array_equal(T.offdiag, off)


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
            assert tail <= p.tolerance * np.max(np.abs(m.coeffs))

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

    def test_truncation_cap(self):
        with pytest.raises(TruncationError):
            sl.solve_modes(SlepianParams(nu=0.0, c=1e9, N=0), 1)

    def test_weyl_style_perturbation_bound(self):
        # |chi(c) - chi(0)| <= c^2 * (inf-norm bound of the x^2 block)
        from diskslepian.orthopoly import x2_recurrence_coeffs
        for (nu, c, N) in [(0.0, 1.0, 0), (1.0, 2.0, 1), (2.5, 0.5, 3)]:
            p = SlepianParams(nu=nu, c=c, N=N)
            modes = sl.solve_modes(p, 6)
            T = sl.build_spectral_matrix(p, modes[0].truncation)
            T0 = sl.build_spectral_matrix(SlepianParams(nu=nu, c=0.0, N=N),
                                          modes[0].truncation)
            bound = np.max(np.abs(T.diag - T0.diag)) + 2 * np.max(np.abs(T.offdiag))
            for m in modes:
                assert abs(m.chi - sl.chi0(N, m.n, nu)) <= bound + 1e-12

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
        # K starts at num_modes + ceil(c/4) + 30; one matrix build per solve
        # at that K, and a solve pinned at 2K agrees to 1e-12 (mu), 1e-13 (chi)
        builds = []
        real_build = sl.build_spectral_matrix
        monkeypatch.setattr(sl, "build_spectral_matrix",
                            lambda params, K: builds.append(K) or real_build(params, K))
        for N in range(5):
            for num_modes in (10, 30):
                p = SlepianParams(nu=nu, c=c, N=N)
                builds.clear()
                modes = sl.solve_modes(p, num_modes)
                K = num_modes + math.ceil(c / 4) + 30
                assert builds == [K] and modes[0].truncation == K
                wide = sl.solve_modes(SlepianParams(nu=nu, c=c, N=N, truncation=2 * K),
                                      num_modes)
                for a, b in zip(modes, wide):
                    assert abs(a.mu - b.mu) <= 1e-12 * abs(b.mu)
                    assert abs(a.chi - b.chi) <= 1e-13 * abs(b.chi)

    def test_leading_coeffs_refuse_an_exact_zero_pivot(self):
        # d_0 - chi = 0 exactly: the continued fraction has no finite ratio
        from diskslepian.linalg import SymTridiagonal
        T = SymTridiagonal([1.0, 2.0, 3.0], [0.5, 0.5])
        vecs = np.array([[0.1, 0.2, 0.9], [0.1, 0.9, 0.2]])
        a0 = sl._leading_coeffs(T, np.array([1.0, 2.5]), vecs)
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

    @pytest.mark.parametrize("c", [0.0, 6.0])
    def test_writing_a_returned_matrix_leaves_later_solves_unchanged(self, c):
        p = SlepianParams(nu=1.0, c=c, N=2, truncation=40)
        before = sl.solve_modes(p, 5)
        T = sl.build_spectral_matrix(p, 40)
        T.diag[:] = 1.0
        T.offdiag[:] = 0.5
        after = sl.solve_modes(p, 5)
        for a, b in zip(before, after):
            assert (a.chi, a.mu, a.lam) == (b.chi, b.mu, b.lam)
            assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.filterwarnings("error")
    def test_underflowed_norms_are_refused_without_warnings(self):
        # h_k underflows to 0 from k = 190 at N = 400: the record keeps NaN
        # ratios and c-hat_k, the build refuses them, and nothing warns
        p = SlepianParams(nu=3.0, c=1000.0, N=400)
        with pytest.raises(sl.ConvergenceError, match="overflow"):
            sl.solve_modes(p, 5)
        terms = sl._basis_terms(400, 3.0, 285)
        assert np.all(terms.h[190:] == 0) and np.all(terms.h[:190] > 0)
        assert np.all(np.isnan(terms.scale[190:]))
        assert np.all(np.isfinite(terms.scale[:190]))


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
        # eval_phi accumulates the Jacobi terms one at a time; the same sum
        # over the stacked recurrence, in the same order, is the reference
        p = SlepianParams(nu=-0.5, c=7.0, N=2)
        m = sl.solve_modes(p, 3)[2]
        xs = np.linspace(0.05, 1.0, 7)
        K = len(m.coeffs)
        P = jacobi_sequence(K - 1, 2, -0.5, 1 - 2 * xs * xs)
        acc = None
        for k in range(K):
            idx = TBasisIndex(2, k, -0.5)
            log_c = math.lgamma(3) + math.lgamma(k + 1) - math.lgamma(k + 3)
            term = m.coeffs[k] * math.exp(log_c - 0.5 * math.log(t_norm_sq(idx))) * P[k]
            acc = term if acc is None else acc + term
        assert np.array_equal(sl.eval_phi(m, p, xs), xs ** 2.5 * acc)

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


class TestParamsValidation:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SlepianParams(nu=-1.0, c=1.0, N=0)
        with pytest.raises(ValueError):
            SlepianParams(nu=0.0, c=-0.1, N=0)
        with pytest.raises(ValueError):
            SlepianParams(nu=0.0, c=1.0, N=-1)
        with pytest.raises(ValueError):
            SlepianParams(nu=0.0, c=1.0, N=0, truncation=1)
        with pytest.raises(ValueError):
            sl.solve_modes(SlepianParams(nu=0.0, c=1.0, N=0), 0)
