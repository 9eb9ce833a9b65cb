import dataclasses
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mqoc import belavkin as bel
from mqoc import moments as mom
from mqoc import operators as ops
from mqoc.errors import DimensionMismatchError, NumericalBlowupError, RejectedInputError
from reference import adjoint_generator, damped_oscillator_model, oscillator


def oscillator_R(omega, hbar=1.0):
    # H_sys = hbar*omega*(a^dag a + 1/2) written as (1/2) X^T (R x I) X.
    return np.array([[0.0, hbar * omega], [hbar * omega, 0.0]])


# Two modes: squeezing (R11 = R22) and beam-splitter (R12 = R21) cross terms.
TWO_MODE_R = np.array([[0.2, 0.1, 1.0, 0.3],
                       [0.1, -0.15, 0.3, 1.4],
                       [1.0, 0.3, 0.2, 0.1],
                       [0.3, 1.4, 0.1, -0.15]])


def fock_drift(R, gamma, hbar=1.0, dim=8, low=3):
    """Oracle for A: the Heisenberg generator on a truncated Fock space.

    Builds H = (1/2) X^T R X and L_l = gamma_l . (x; p) from truncated ladder
    operators, applies `adjoint_generator` to each X_k, and projects the
    result onto span{X_j} on the states with every occupation <= low, where
    the cutoff at dim cannot be reached.
    """
    m = R.shape[0] // 2
    a1 = ops.annihilation(dim)

    def on_mode(op, k):
        out = np.eye(1)
        for j in range(m):
            out = np.kron(out, op if j == k else np.eye(dim))
        return out

    a = [on_mode(a1, k) for k in range(m)]
    X = a + [ak.conj().T for ak in a]
    quad = ([(ak + ak.conj().T) / np.sqrt(2) for ak in a]
            + [1j * (ak.conj().T - ak) / np.sqrt(2) for ak in a])
    H = 0.5 * sum(R[i, j] * X[i] @ X[j] for i in range(2 * m) for j in range(2 * m))
    Ls = [sum(g * q for g, q in zip(row, quad)) for row in np.atleast_2d(gamma)]
    model = ops.QuantumModel(H0=H, L=Ls[0], L_extra=tuple(Ls[1:]), hbar=hbar)

    occ = np.indices((dim,) * m).reshape(m, -1).T
    inside = np.all(occ <= low, axis=1)
    keep = np.ix_(inside, inside)
    basis = np.stack([x[keep].ravel() for x in X], axis=1)
    A = np.empty((2 * m, 2 * m), dtype=complex)
    for k in range(2 * m):
        gen = adjoint_generator(model, np.zeros(0), X[k])[keep].ravel()
        A[k], *_ = np.linalg.lstsq(basis, gen, rcond=None)
        assert np.max(np.abs(basis @ A[k] - gen)) < 1e-10, "generator not linear in X"
    return A


def fock_hermiticity_defect(R, dim=6, low=3):
    """max |H - H^dag| for H = (1/2) X^T R X on a truncated Fock space.

    Only states with every occupation <= low are compared: H moves an
    occupation by at most 2, so there the cutoff at dim cannot be reached.
    """
    m = R.shape[0] // 2
    a1 = ops.annihilation(dim)
    a = [np.kron(np.kron(np.eye(dim ** k), a1), np.eye(dim ** (m - 1 - k))) for k in range(m)]
    X = a + [ak.conj().T for ak in a]
    H = 0.5 * sum(R[i, j] * X[i] @ X[j] for i in range(2 * m) for j in range(2 * m))
    keep = np.all(np.indices((dim,) * m).reshape(m, -1) <= low, axis=0)
    return np.max(np.abs((H - H.conj().T)[np.ix_(keep, keep)]))


class TestBuildAB:
    def test_real_gamma_correction_vanishes(self):
        R = oscillator_R(1.0)
        K = np.zeros((2, 1))
        gamma = np.array([[0.7, 0.2]])
        a_with, _ = mom.build_AB(R, K, gamma)
        a_without, _ = mom.build_AB(R, K, None)
        assert np.allclose(a_with, a_without)

    @pytest.mark.parametrize("R, gamma, hbar", [
        (oscillator_R(1.0), [[0.7, 0.2]], 1.0),
        (oscillator_R(1.0), [[0.7 + 0.3j, 0.2 - 0.1j]], 1.0),
        (oscillator_R(1.0), [[0.7 + 0.3j, 0.2 - 0.1j]], 2.0),
        (TWO_MODE_R, [[0.5 + 0.2j, -0.3 + 0.4j, 0.1 - 0.2j, 0.6 + 0.1j]], 1.0),
        (TWO_MODE_R, [[0.5 + 0.2j, -0.3 + 0.4j, 0.1 - 0.2j, 0.6 + 0.1j],
                      [0.2 - 0.6j, 0.4, -0.1 + 0.3j, 0.3j]], 2.0),
    ], ids=["1mode-real", "1mode-complex", "1mode-complex-hbar2",
            "2mode-complex", "2mode-2channels-hbar2"])
    def test_matches_fock_generator(self, R, gamma, hbar):
        A, _ = mom.build_AB(R, np.zeros((R.shape[0], 1)), np.array(gamma), hbar)
        assert np.max(np.abs(A - fock_drift(R, gamma, hbar))) < 1e-10

    def test_complex_r11_matches_fock_generator(self):
        # R11 = R22* complex: a phased squeezing term a^2 + a^dag^2 with a
        # Hermitian H, so the construction check must accept it.
        R = np.array([[0.3 + 0.2j, 1.0], [1.0, 0.3 - 0.2j]])
        gamma = [[0.7 + 0.3j, 0.2 - 0.1j]]
        assert fock_hermiticity_defect(R) < 1e-12
        assert mom.check_construction(R, np.zeros((2, 1)), np.array(gamma)) is None
        A, _ = mom.build_AB(R, np.zeros((2, 1)), np.array(gamma))
        assert np.max(np.abs(A - fock_drift(R, gamma))) < 1e-10

    def test_complex_gamma_correction_survives(self):
        R = oscillator_R(1.0)
        K = np.zeros((2, 1))
        gamma = np.array([[0.7 + 0.3j, 0.2 - 0.1j]])
        shifts = []
        for hbar in (1.0, 2.0):
            a_with, _ = mom.build_AB(R, K, gamma, hbar)
            a_without, _ = mom.build_AB(R, K, None, hbar)
            shifts.append(a_with - a_without)
        # -Im(Gamma^dag Gamma)_12 = 0.13: a real growth rate, not a frequency shift.
        assert np.allclose(shifts[0], 0.13 * np.eye(2), atol=1e-12)
        # The dissipator carries no 1/hbar.
        assert np.allclose(shifts[1], shifts[0], atol=1e-15)

    def test_damped_oscillator_matches_quadrature_model(self):
        # Gamma = sqrt(kappa/2) [1, i] is L = sqrt(kappa/2) (x + i p) = sqrt(kappa) a.
        omega, kappa = 1.0, 0.5
        gamma = np.sqrt(kappa / 2) * np.array([[1.0, 1j]])
        A, _ = mom.build_AB(oscillator_R(omega), np.zeros((2, 1)), gamma)
        Aq = mom.to_quadrature(A, 1)
        assert np.max(np.abs(Aq.imag)) < 1e-12
        assert np.allclose(Aq.real, damped_oscillator_model(omega, kappa).A, atol=1e-12)

    def test_rejects_r_block_violation(self):
        R = np.array([[0.3, 1.0], [1.0, 0.7]])  # R11^T != R22
        with pytest.raises(RejectedInputError, match="R11"):
            mom.build_AB(R, np.zeros((2, 1)))

    def test_rejects_r12_asymmetric(self):
        # Two modes so the off-diagonal blocks are 2x2.
        R = np.zeros((4, 4))
        R[0:2, 2:4] = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(RejectedInputError, match="R12"):
            mom.build_AB(R, np.zeros((4, 1)))

    def test_rejects_complex_gain_imbalance(self):
        R = oscillator_R(1.0)
        K = np.array([[1.0 + 0j], [2.0 + 0j]])  # Re(K-) != Re(K+)
        with pytest.raises(RejectedInputError, match=r"K"):
            mom.build_AB(R, K)

    def test_oscillator_eigenvalues(self):
        # Single mode at frequency omega: annihilator picture gives -/+ i omega.
        omega = 1.3
        A, _ = mom.build_AB(oscillator_R(omega), np.zeros((2, 1)))
        eigs = np.sort_complex(np.linalg.eigvals(A))
        assert np.allclose(eigs, [-1j * omega, 1j * omega], atol=1e-12)

    def test_random_violations_rejected(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            R = oscillator_R(1.0)
            K = np.zeros((2, 1), dtype=complex)
            which = rng.integers(0, 2)
            if which == 0:
                R = R + rng.normal(0.1, 0.05) * np.array([[1.0, 0], [0, 0]])
                name = "R11"
            else:
                K = K + np.array([[rng.normal(1, 0.1)], [0.0]])
                name = "K"
            with pytest.raises(RejectedInputError, match=name):
                mom.build_AB(R, K)

    def test_quadrature_transform_is_real_for_oscillator(self):
        omega = 0.9
        A, _ = mom.build_AB(oscillator_R(omega), np.zeros((2, 1)))
        Aq = mom.to_quadrature(A, 1)
        assert np.max(np.abs(Aq.imag)) < 1e-12
        assert np.allclose(Aq.real, [[0.0, omega], [-omega, 0.0]], atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    def test_construction_check_matches_fock_hermiticity(self, m):
        # Random complex R: with symmetric off-diagonal blocks as drawn, then
        # projected onto a Hermitian H, and with a real or imaginary
        # antisymmetric a-a^dag term (an imaginary one leaves H - H^dag = const);
        # with asymmetric off-diagonal blocks as drawn, and plus a real
        # antisymmetric part, which keeps H Hermitian.  Before, every accepted
        # R needed symmetric R12 and R21, so the beam splitter was refused.
        rng = np.random.default_rng(m)
        n = 2 * m
        swap = np.r_[m:n, :m]

        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        antisym = np.zeros((n, n))
        antisym[0, m], antisym[m, 0] = 1.0, -1.0
        beam_splitter = np.zeros((n, n))
        if m == 2:
            # H = (a1 a2^dag + a1^dag a2) / 2: R12 and R21 are not symmetric.
            beam_splitter[0, 3] = beam_splitter[2, 1] = 1.0
        cases = [np.array([[0.3j, 1.0], [1.0, 0.3j]])] if m == 1 else [beam_splitter]
        for _ in range(6):
            r11, r12, r21 = cplx(m, m), cplx(m, m), cplx(m, m)
            R = np.block([[r11, r12 + r12.T], [r21 + r21.T, r11.T]])
            sym = (R + R.T) / 2
            herm = (sym + np.conj(sym[np.ix_(swap, swap)])) / 2
            z = rng.normal()
            g = rng.normal(size=(n, n))
            cases += [R, herm, herm + z * antisym, herm + 1j * z * antisym,
                      np.block([[r11, r12], [r21, np.conj(r11)]]), herm + g - g.T]
        verdicts = set()
        for R in cases:
            hermitian = fock_hermiticity_defect(R) < 1e-9
            accepted = mom.check_construction(R, np.zeros((2 * m, 1)), None) is None
            assert accepted == hermitian
            verdicts.add(hermitian)
        assert verdicts == {True, False}
        if m == 2:
            assert fock_hermiticity_defect(beam_splitter) == 0.0
            A, _ = mom.build_AB(beam_splitter, np.zeros((4, 1)))
            assert np.array_equal(A, mom.build_AB((beam_splitter + beam_splitter.T) / 2,
                                                  np.zeros((4, 1)))[0])


def sigma_path(sigma0, A, C, M_cov=None, F=None, dt=0.1, n_steps=1):
    """`covariance_path` of a model with B = 0 from sigma0."""
    n = len(sigma0)
    model = mom.LinearModel(A=A, B=np.zeros((n, 1)), C=C, M_cov=M_cov, F=F)
    return mom.covariance_path(model, sigma0, dt, n_steps)


class TestKalmanGain:
    """Ktilde_0 = Sigma_0 C^T + M, the first gain of `covariance_path`."""

    def test_zero(self):
        assert np.allclose(sigma_path(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))[1][0], 0)

    def test_identity(self):
        assert np.allclose(sigma_path(np.eye(2), np.zeros((2, 2)), np.eye(2))[1][0], np.eye(2))

    def test_offset(self):
        out = sigma_path(np.eye(2), np.zeros((2, 2)), np.eye(2), M_cov=0.1 * np.eye(2))[1][0]
        assert np.allclose(out, 1.1 * np.eye(2))

    def test_shape_mismatch(self):
        model = mom.LinearModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.eye(2))
        with pytest.raises(DimensionMismatchError, match="sigma0"):
            mom.covariance_path(model, np.eye(3), 0.1, 1)


class TestCovarianceStep:
    """The Riccati step Sigma_0 -> Sigma_1 of `covariance_path`, and its whole path."""

    def test_static(self):
        sigma = np.diag([0.5, 0.25])
        sigmas, _ = sigma_path(sigma, np.zeros((2, 2)), np.zeros((1, 2)))
        assert np.allclose(sigmas[1], sigma)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = rng.normal(size=(3, 3))
            # A skew part in Sigma_0, so only the symmetrization makes Sigma_1 symmetric.
            sigma0 = g @ g.T + np.eye(3) + 0.1 * (g - g.T)
            sigmas, _ = sigma_path(sigma0, rng.normal(size=(3, 3)), rng.normal(size=(1, 3)),
                                   M_cov=rng.normal(size=(3, 1)), dt=1e-3)
            assert np.array_equal(sigmas[1], sigmas[1].T)

    def test_fixed_point_unchanged(self):
        # Oracle: find Sigma* with G(Sigma*) = 0 by damped iteration, then the
        # path must stay in place.
        A = np.array([[-0.5, 0.2], [-0.2, -0.5]])
        C = np.array([[1.0, 0.0]])
        sigma = np.eye(2)
        for _ in range(20000):
            kt = sigma @ C.T
            g = A @ sigma + sigma @ A.T - kt @ kt.T
            sigma = sigma + 0.05 * g
            sigma = (sigma + sigma.T) / 2
        kt = sigma @ C.T
        assert np.max(np.abs(A @ sigma + sigma @ A.T - kt @ kt.T)) < 1e-12
        sigmas, _ = sigma_path(sigma, A, C, dt=0.01, n_steps=10)
        assert np.allclose(sigmas, sigma, atol=1e-13)

    def test_preserves_psd_below_threshold(self):
        A = np.array([[-1.0, 0.0], [0.0, -1.0]])
        C = np.array([[1.0, 0.0]])
        # F F^T = 0.5 I.
        sigmas, _ = sigma_path(0.5 * np.eye(2), A, C, F=np.sqrt(0.5) * np.eye(2), dt=0.01,
                               n_steps=200)
        assert np.min(np.linalg.eigvalsh(sigmas)) >= 0.0


class TestRiccatiOrder:
    def test_euler_path_is_first_order_against_dop853(self):
        # The benchmark's fock_moment model (kappa = 0.5, omega = 1) from
        # Sigma_0 = I to T = 1.  Measured: max|dSigma_T| 7.59e-4 at dt = 1e-2 and
        # 7.53e-5 at dt = 1e-3, order 1.003; a path without FF^T stays 0.19 off at both.
        model = damped_oscillator_model()
        FFt = model.F @ model.F.T

        def riccati(t, y):
            sigma = y.reshape(2, 2)
            kt = sigma @ model.C.T + model.M_cov
            return (model.A @ sigma + sigma @ model.A.T - kt @ kt.T + FFt).ravel()

        exact = solve_ivp(riccati, (0.0, 1.0), np.eye(2).ravel(), method="DOP853", rtol=1e-12,
                          atol=1e-14).y[:, -1].reshape(2, 2)
        errors = [np.max(np.abs(mom.covariance_path(model, np.eye(2), dt, n)[0][-1] - exact))
                  for dt, n in ((1e-2, 100), (1e-3, 1000))]
        assert 0.9 <= np.log10(errors[0] / errors[1]) <= 1.1
        assert errors[1] <= 1e-4


class TestMomentFilterStep:
    def test_static(self):
        model = mom.LinearModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                                C=np.zeros((1, 2)))
        state = mom.MomentState(xhat=[0.3, -0.1], sigma=0.5 * np.eye(2))
        filt = mom.MomentFilter(state, model, 0.1, 1)
        assert np.allclose(filt.step([0.0], [0.0]), state.xhat)
        assert np.allclose(filt.sigmas[1], state.sigma)

    def test_control_shift(self):
        model = mom.LinearModel(A=np.zeros((2, 2)), B=np.eye(2),
                                C=np.zeros((1, 2)))
        state = mom.MomentState(xhat=[0.0, 0.0], sigma=np.zeros((2, 2)))
        out = mom.MomentFilter(state, model, 0.1, 1).step(dy=[0.0], u=[1.0, 0.0])
        assert np.allclose(out, [0.1, 0.0])

    def test_default_path_keeps_heisenberg_bound(self):
        # Sigma + (i/2) S >= 0 from the vacuum Sigma_0 = I/2 on.  Before, F F^T
        # entered only on request: by default the bound fell to -0.20 by step
        # 1,000, and by 3,000 Sigma left the PSD cone.
        state = mom.MomentState(xhat=[0.0, 0.0], sigma=0.5 * np.eye(2))
        filt = mom.MomentFilter(state, damped_oscillator_model(), 1e-3, 1000)
        assert np.min(np.linalg.eigvalsh(filt.sigmas + 0.5j * mom.symplectic(1))) >= -1e-12

    def test_step_past_the_path_is_rejected(self):
        model, state, dys, _ = filter_inputs(10, (2, 2), 1e-2)
        filt = mom.MomentFilter(state, model, 1e-2, 2)
        filt.step(dys[0])
        filt.step(dys[1])
        with pytest.raises(RejectedInputError, match="all its 2 steps"):
            filt.step(dys[1])

    @pytest.mark.parametrize("first, dy, u", [
        (None, np.zeros(3), None),
        (None, np.zeros((3, 1)), None),
        (None, None, np.zeros(1)),
        (None, np.zeros((4, 2)), np.zeros((3, 2))),
        (np.zeros((3, 2)), None, np.zeros((2, 2))),
    ], ids=["dy_width", "dy_column", "u_width", "batches_disagree", "batch_changes"])
    def test_misshapen_input_is_a_dimension_mismatch(self, first, dy, u):
        # Without the checks: bare numpy ValueErrors from matmul or broadcasting.
        model, state, _, _ = filter_inputs(11, (1, 2), 1e-2)
        filt = mom.MomentFilter(state, model, 1e-2, 3)
        filt.step(first)
        x = filt.x
        with pytest.raises(DimensionMismatchError, match="dy|u|batch"):
            filt.step(dy, u)
        assert filt.x is x and filt.k == 1

    def test_filter_is_affine(self):
        model = damped_oscillator_model()
        rng = np.random.default_rng(3)
        dt, n = 1e-2, 50
        dy1 = rng.normal(0, np.sqrt(dt), size=(n, 1))
        dy2 = rng.normal(0, np.sqrt(dt), size=(n, 1))
        u1 = rng.normal(size=(n, 1))
        u2 = rng.normal(size=(n, 1))
        x1 = np.array([0.5, -0.2])
        x2 = np.array([-0.3, 0.8])

        def final(x0, us, dys):
            state = mom.MomentState(xhat=x0, sigma=np.eye(2))
            xs, _ = mom.run_moment_filter(state, model, dt, n, controls=us, innovations=dys)
            return xs[-1]

        lam = 0.37
        mix = final(lam * x1 + (1 - lam) * x2, lam * u1 + (1 - lam) * u2,
                    lam * dy1 + (1 - lam) * dy2)
        split = lam * final(x1, u1, dy1) + (1 - lam) * final(x2, u2, dy2)
        assert np.max(np.abs(mix - split)) < 1e-10


def filter_inputs(seed, shape, dt):
    """Damped oscillator with two outputs and two controls, random inputs of `shape`."""
    rng = np.random.default_rng(seed)
    # Non-dyadic entries and sums over two terms, so a change in the order
    # of the arithmetic shows in the bits.
    model = mom.LinearModel(A=damped_oscillator_model(1.3, 0.7).A,
                            B=np.array([[0.3, -0.7], [0.9, 0.1]]),
                            C=np.array([[1.1, 0.2], [-0.3, 0.7]]), F=0.6 * np.eye(2),
                            M_cov=np.array([[-0.3, 0.1], [0.2, 0.05]]))
    state = mom.MomentState(xhat=[0.5, -0.2], sigma=np.eye(2))
    return model, state, rng.normal(0, np.sqrt(dt), size=shape), rng.normal(size=shape)


class TestRunMomentFilter:
    def test_batch_equals_stacked_records(self):
        dt, n = 1e-2, 40
        model, state, dys, us = filter_inputs(5, (2, 3, n, 2), dt)
        us = us[0]  # controls (3, n, 2) broadcast against innovations (2, 3, n, 2)
        xs, sigmas = mom.run_moment_filter(state, model, dt, n, controls=us, innovations=dys)
        assert xs.shape == (2, 3, n + 1, 2)
        for i in range(2):
            for j in range(3):
                x1, s1 = mom.run_moment_filter(state, model, dt, n, controls=us[j],
                                               innovations=dys[i, j])
                assert np.array_equal(xs[i, j], x1)
                assert np.array_equal(sigmas, s1)

    def test_steps_reproduce_run(self):
        dt, n = 1e-2, 30
        for controls in (False, True):
            model, state, dys, us = filter_inputs(6, (2, 3, n, 2), dt)
            us = us[0] if controls else None  # (3, n, 2), broadcast over the batch
            xs, sigmas = mom.run_moment_filter(state, model, dt, n, controls=us, innovations=dys)
            filt = mom.MomentFilter(state, model, dt, n)
            assert filt.sigmas is sigmas
            for k in range(n):
                x = filt.step(dys[..., k, :], None if us is None else us[:, k])
                assert np.array_equal(x, xs[..., k + 1, :])

    @pytest.mark.parametrize("value", [False, None, 1, "yes"])
    def test_include_diffusion_accepts_only_true(self, value):
        # F F^T always enters; the keyword stays for callers that pass True.
        dt, n = 1e-2, 10
        model, state, dys, _ = filter_inputs(7, (n, 2), dt)
        with pytest.raises(RejectedInputError, match="include_diffusion"):
            mom.run_moment_filter(state, model, dt, n, innovations=dys, include_diffusion=value)
        xs, _ = mom.run_moment_filter(state, model, dt, n, innovations=dys, include_diffusion=True)
        assert np.array_equal(xs, mom.run_moment_filter(state, model, dt, n, innovations=dys)[0])

    def test_path_and_filter_have_no_diffusion_switch(self):
        model, state, _, _ = filter_inputs(7, (1, 2), 1e-2)
        with pytest.raises(TypeError, match="include_diffusion"):
            mom.covariance_path(model, state.sigma, 1e-2, 10, include_diffusion=True)
        with pytest.raises(TypeError, match="include_diffusion"):
            mom.MomentFilter(state, model, 1e-2, 10, include_diffusion=True)

    def test_rejects_misshapen_inputs(self):
        dt, n = 1e-2, 10
        model, state, dys, us = filter_inputs(7, (n, 2), dt)
        with pytest.raises(DimensionMismatchError, match="innovations"):
            mom.run_moment_filter(state, model, dt, n, innovations=dys[1:])
        with pytest.raises(DimensionMismatchError, match="controls"):
            mom.run_moment_filter(state, model, dt, n, controls=np.hstack([us, us]))

    def test_rejects_batches_that_do_not_broadcast(self):
        # Before: a bare ValueError from np.broadcast_shapes.
        dt, n = 1e-2, 10
        model, state, dys, us = filter_inputs(7, (2, n, 2), dt)
        with pytest.raises(DimensionMismatchError, match="broadcast"):
            mom.run_moment_filter(state, model, dt, n, controls=np.concatenate([us, us[:1]]),
                                  innovations=dys)

    def test_rejects_covariance_path_leaving_psd(self):
        # A = 0, C = I, no M: Sigma = I/2 steps to (1/2 - dt/4) I, negative at dt = 3.
        model = mom.LinearModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.eye(2))
        state = mom.MomentState(xhat=[0.0, 0.0], sigma=0.5 * np.eye(2))
        with pytest.raises(RejectedInputError, match="PSD"):
            mom.run_moment_filter(state, model, 3.0, 4)

    def test_rejects_non_finite_covariance_path(self):
        # A = 10 I, C = 0: Sigma grows by 21x per unit step until it overflows.
        model = mom.LinearModel(A=10.0 * np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
        state = mom.MomentState(xhat=[0.0, 0.0], sigma=np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalBlowupError, match="covariance"):
            mom.run_moment_filter(state, model, 1.0, 300)

    def test_rejects_non_finite_mean(self):
        model, state, _, _ = filter_inputs(8, (1, 2), 1e-2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalBlowupError, match="mean"):
            mom.run_moment_filter(state, model, 1e-2, 5, innovations=np.full((5, 2), 1e308))

    @pytest.mark.parametrize("dt, n_steps", [(-0.01, 5), (0.0, 5), (0.01, -1), (0.01, 2.5),
                                             (0.01, True)],
                             ids=["negative_dt", "zero_dt", "negative_steps", "float_steps",
                                  "bool_steps"])
    def test_rejects_bad_step(self, dt, n_steps):
        # Before: both dt returned a path, -1 raised a bare numpy ValueError and
        # 2.5 a bare TypeError.
        model = mom.LinearModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.eye(2))
        state = mom.MomentState(xhat=[0.0, 0.0], sigma=0.5 * np.eye(2))
        with pytest.raises(RejectedInputError, match="n_steps"):
            mom.covariance_path(model, state.sigma, dt, n_steps)
        with pytest.raises(RejectedInputError, match="n_steps"):
            mom.run_moment_filter(state, model, dt, n_steps)
        assert getattr(model, "_covariance_path", None) is None

    def test_step_rejects_bad_dt(self):
        model = mom.LinearModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.eye(2))
        state = mom.MomentState(xhat=[0.0, 0.0], sigma=0.5 * np.eye(2))
        with pytest.raises(RejectedInputError, match="dt > 0"):
            mom.MomentFilter(state, model, 0.0, 1)


class TestMomentState:
    @pytest.mark.parametrize("xhat, sigma", [
        ([0.1j, 0.0], np.eye(2)),
        ([0.0, 0.0], np.eye(2) + 0.1j * np.eye(2)[::-1]),
        ([np.nan, 0.0], np.eye(2)),
        ([0.0, 0.0], np.diag([1.0, np.inf])),
    ], ids=["complex_xhat", "complex_sigma", "nan_xhat", "inf_sigma"])
    def test_rejects_complex_or_non_finite(self, xhat, sigma):
        # Before: a complex entry lost its imaginary part with a ComplexWarning,
        # and a non-finite one was kept.
        with pytest.raises(RejectedInputError, match="real and finite"):
            mom.MomentState(xhat=xhat, sigma=sigma)


class TestCovariancePathCache:
    ARGS = {"sigma0": np.eye(2), "dt": 1e-2, "n_steps": 25}

    @staticmethod
    def count_updates(monkeypatch):
        calls = []
        update = mom._covariance_update

        def counted(*args):
            calls.append(1)
            return update(*args)

        monkeypatch.setattr(mom, "_covariance_update", counted)
        return calls

    def test_repeat_call_takes_no_riccati_step(self, monkeypatch):
        model = filter_inputs(9, (1, 2), 1e-2)[0]
        calls = self.count_updates(monkeypatch)
        first = mom.covariance_path(model, **self.ARGS)
        assert len(calls) == 25
        # The key is the content of the inputs, not their identity.
        second = mom.covariance_path(model, **dict(self.ARGS, sigma0=np.eye(2)))
        assert len(calls) == 25
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("change", [
        "A_in_place", "F_in_place", "sigma0", "dt", "n_steps"])
    def test_changed_input_recomputes(self, monkeypatch, change):
        model = filter_inputs(9, (1, 2), 1e-2)[0]
        args = dict(self.ARGS)
        mom.covariance_path(model, **args)
        if change in ("A_in_place", "F_in_place"):
            # The model's matrices are read-only, so an edit goes through a new
            # model, which carries no cached path.
            name = change[0]
            with pytest.raises(ValueError, match="read-only"):
                getattr(model, name)[0, 1] += 0.1
            edited = np.array(getattr(model, name))
            edited[0, 1] += 0.1
            model = dataclasses.replace(model, **{name: edited})
        elif change == "sigma0":
            args["sigma0"] = 2.0 * np.eye(2)
        elif change == "dt":
            args["dt"] = 2e-2
        else:
            args["n_steps"] = 24
        calls = self.count_updates(monkeypatch)
        got = mom.covariance_path(model, **args)
        assert len(calls) == args["n_steps"]
        fresh = mom.LinearModel(A=model.A.copy(), B=model.B, C=model.C, F=model.F.copy(),
                                M_cov=model.M_cov)
        for g, w in zip(got, mom.covariance_path(fresh, **args)):
            assert np.array_equal(g, w)

    def test_model_matrices_are_read_only_copies(self):
        # Before: the model aliased the caller's arrays, and the cache keyed on
        # the bytes of A, C, M_cov and F to see them edited in place.
        given = {k: np.array(getattr(filter_inputs(9, (1, 2), 1e-2)[0], k))
                 for k in mom.MODEL_MATRICES}
        model = mom.LinearModel(**given)
        first = mom.covariance_path(model, **self.ARGS)
        for name, arr in given.items():
            kept = getattr(model, name)
            assert not kept.flags.writeable and not np.shares_memory(kept, arr)
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 1.0
            before = arr.copy()
            arr += 1.0
            assert np.array_equal(kept, before)
        again = mom.covariance_path(model, **self.ARGS)
        assert all(a is b for a, b in zip(first, again))

    def test_returned_paths_are_read_only(self):
        model, state, dys, _ = filter_inputs(9, (25, 2), 1e-2)
        sigmas, gains = mom.covariance_path(model, state.sigma, 1e-2, 25)
        _, sigma_path = mom.run_moment_filter(state, model, 1e-2, 25, innovations=dys)
        for arr in (sigmas, gains, sigma_path):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    @pytest.mark.parametrize("A, C, dt, n_steps, error", [
        (np.zeros((2, 2)), np.eye(2), 3.0, 4, RejectedInputError),
        (10.0 * np.eye(2), np.zeros((1, 2)), 1.0, 300, NumericalBlowupError),
    ], ids=["leaves_psd", "non_finite"])
    def test_failing_path_raises_on_every_call(self, A, C, dt, n_steps, error):
        model = mom.LinearModel(A=A, B=np.zeros((2, 1)), C=C)
        for _ in range(3):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error):
                mom.covariance_path(model, 0.5 * np.eye(2), dt, n_steps)


class TestBelavkinAgreement:
    def test_first_moments_track_fock_filter(self):
        # Ground truth: dense filter on a cutoff-20 Fock space, fed to the
        # Gaussian moment filter through the shared innovation sequence.
        fock = oscillator(21)
        cfg = bel.SmeConfig(dt=1e-3, T=1.0)
        _, states, _, _, w = bel.simulate_ensemble(fock.model, None, cfg, fock.rho0, [7])
        ref = np.real(np.einsum("tij,qji->tq", states[0], fock.quadratures))
        xs, _ = mom.run_moment_filter(
            fock.state0, fock.linear, cfg.dt, cfg.n_steps,
            innovations=np.diff(w[0])[:, None])
        rel = np.max(np.abs(ref - xs)) / np.max(np.abs(ref))
        assert rel <= 0.05


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        model = damped_oscillator_model()
        path = tmp_path / "model.yaml"
        mom.save_linear_model(model, path)
        loaded = mom.load_linear_model(path)
        for name in mom.MODEL_MATRICES:
            assert np.array_equal(getattr(loaded, name), getattr(model, name))

    @pytest.mark.parametrize("key, edit", [
        ("B.shape", lambda lines: [ln for ln in lines if not ln.startswith("B.shape")]),
        ("C", lambda lines: [("C = [1.0]" if ln.startswith("C = ") else ln) for ln in lines]),
        ("A", lambda lines: lines + ["A = [0.0, 0.0, 0.0, 0.0]"]),
        ("A", lambda lines: [("A.shape = [-1, 2]" if ln.startswith("A.shape") else ln)
                             for ln in lines]),
        ("Z.shape", lambda lines: lines + ["Z.shape = [1]", "Z = [0.0]"]),
        ("D.shape", lambda lines: lines + ["D.shape = [1, 1]", "D = [1.0]"]),
        ("G.shape", lambda lines: lines + ["G.shape = [1, 1]", "G = [5.0]"]),
        ("construction.omega", lambda lines: lines + ["construction.omega = [1.0]"]),
        ("M_cov", lambda lines: [("M_cov = [0.0, x]" if ln.startswith("M_cov = ") else ln)
                                 for ln in lines]),
    ], ids=["missing-shape", "length-mismatch", "duplicate", "negative-shape", "unknown",
            "stray-D", "stray-G", "unknown-construction", "not-a-number"])
    def test_reader_names_offending_key(self, tmp_path, key, edit):
        path = tmp_path / "model.txt"
        mom.save_linear_model(damped_oscillator_model(), path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(RejectedInputError, match=re.escape(repr(key))):
            mom.load_linear_model(path)


@pytest.mark.parametrize("field", ["D", "G", "construction"])
def test_linear_model_has_no_unused_fields(field):
    with pytest.raises(TypeError):
        mom.LinearModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)),
                        **{field: np.eye(1)})


def test_linear_model_hashes_keys_a_dict_and_compares_by_identity():
    # Before: hash raised TypeError, and == raised numpy's ambiguous-truth ValueError.
    model, twin = (mom.LinearModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
                   for _ in range(2))
    assert hash(model) == hash(model)
    assert {model: 1, twin: 2}[model] == 1
    assert model == model and model != twin


BAD_HBAR = pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf],
                                   ids=["zero", "negative", "nan", "inf"])


@BAD_HBAR
def test_build_ab_rejects_hbar_that_is_not_finite_positive(hbar):
    # Before: 0 raised a bare ZeroDivisionError, -1 flipped A's sign, nan gave
    # an all-NaN A and inf dropped the Hamiltonian part.
    with pytest.raises(RejectedInputError, match="hbar"):
        mom.build_AB(oscillator_R(1.0), np.zeros((2, 1)), hbar=hbar)


@pytest.mark.parametrize("name", mom.MODEL_MATRICES)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_linear_model_rejects_non_finite_matrices_in_code_and_file(name, bad, tmp_path):
    # Before: each was accepted, and the filter later raised NumericalBlowupError.
    model = damped_oscillator_model()
    mats = {k: getattr(model, k).copy() for k in mom.MODEL_MATRICES}
    mats[name][0, 0] = bad
    with pytest.raises(RejectedInputError, match=f"{name} has non-finite"):
        mom.LinearModel(**mats)
    path = tmp_path / "model.txt"
    mom.save_linear_model(model, path)
    path.write_text(re.sub(rf"^{name} = \[[^,]+", f"{name} = [{bad!r}", path.read_text(),
                           flags=re.M))
    with pytest.raises(RejectedInputError, match=f"{name} has non-finite"):
        mom.load_linear_model(path)


@pytest.mark.parametrize("name", mom.MODEL_MATRICES)
def test_linear_model_rejects_complex_matrices_in_code_and_file(name, tmp_path):
    # Before: accepted; `MomentFilter` refused a complex A, B, C or M_cov but
    # not F, and `covariance_path` dropped the imaginary part with a warning.
    model = damped_oscillator_model()
    mats = {k: np.array(getattr(model, k), dtype=complex) if k == name else getattr(model, k)
            for k in mom.MODEL_MATRICES}
    mats[name][0, 0] += 0.5j
    with pytest.raises(RejectedInputError, match=f"{name} must be real"):
        mom.LinearModel(**mats)
    path = tmp_path / "model.txt"
    mom.save_linear_model(model, path)
    path.write_text(re.sub(rf"^{name} = \[([^,\]]+)", rf"{name} = [\1+0.5j", path.read_text(),
                           flags=re.M))
    with pytest.raises(RejectedInputError, match=f"{name} must be real"):
        mom.load_linear_model(path)


@pytest.mark.parametrize("name, shape", [("A", (2, 3)), ("B", (3, 1)), ("C", (1, 3)),
                                         ("F", (3, 2)), ("M_cov", (2, 2))],
                         ids=["A", "B", "C", "F", "M_cov"])
def test_linear_model_rejects_misshapen_matrices_by_name(name, shape):
    model = damped_oscillator_model()
    mats = {k: getattr(model, k) for k in mom.MODEL_MATRICES}
    mats[name] = np.zeros(shape)
    with pytest.raises(DimensionMismatchError, match=f"^{name} must have shape"):
        mom.LinearModel(**mats)
