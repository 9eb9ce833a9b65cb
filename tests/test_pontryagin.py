import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mqoc import belavkin as bel
from mqoc import hjb_bloch as hjb
from mqoc import operators as ops
from mqoc import pontryagin as pmp
from mqoc.errors import DimensionMismatchError, RejectedInputError
from reference import density_from_bloch, record

KAPPA = 0.5
EXCITED = np.diag([0.0, 1.0]).astype(complex)
CONTROLLED = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.sqrt(KAPPA) * ops.SIGMA_Z,
                              Hc=(ops.SIGMA_Y,))


def plain_cost(weight=0.0, state_scale=0.5):
    return bel.quadratic_control_cost(state_scale * EXCITED, EXCITED, weight)


class TestGeneralizedHamiltonian:
    def test_reduces_to_running_cost(self):
        rho = density_from_bloch([0.2, 0.1, -0.3])
        cost = plain_cost()
        h = pmp.minimize_hamiltonian(0.0, rho, np.zeros(3), np.zeros((3, 3)), CONTROLLED, cost,
                                     [[0.4]])[1]
        assert h == pytest.approx(np.real(ops.expectation(rho, cost.running(0.0, [0.4]))))

    def test_paper_convention_is_minus_drift_pairing(self):
        model = ops.QuantumModel(H0=0.3 * ops.SIGMA_Z, L=np.zeros((2, 2)))
        cost = bel.CostSpec(running_op=lambda t, u: np.zeros((2, 2)),
                            terminal_op=np.zeros((2, 2)))
        r = np.array([0.4, 0.0, 0.1])
        rho = density_from_bloch(r)
        p = np.array([0.3, -0.2, 0.5])
        b = model.bloch.drift([], r)
        h = pmp.minimize_hamiltonian(0.0, rho, p, np.zeros((3, 3)), model, cost, [[]])[1]
        assert h == pytest.approx(float(b @ p), abs=1e-12)

    def test_gradient_in_p_is_signed_drift(self):
        # Finite differences in p recover the drift.
        rng = np.random.default_rng(3)
        cost = plain_cost(weight=0.1)
        eps = 1e-6
        for _ in range(50):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 0.95) / np.linalg.norm(r)
            rho = density_from_bloch(r)
            p = rng.normal(size=3)
            P = rng.normal(size=(3, 3))
            P = (P + P.T) / 2
            u = rng.normal(size=1)
            b = CONTROLLED.bloch.drift(u, r)
            grad = np.zeros(3)
            for i in range(3):
                dp = np.zeros(3)
                dp[i] = eps
                grad[i] = (
                    pmp.minimize_hamiltonian(0.0, rho, p + dp, P, CONTROLLED, cost, [u])[1]
                    - pmp.minimize_hamiltonian(0.0, rho, p - dp, P, CONTROLLED, cost, [u])[1]
                ) / (2 * eps)
            assert np.max(np.abs(grad - b)) < 1e-6


class TestMinimizeHamiltonian:
    def test_singleton(self):
        rho = density_from_bloch([0.1, 0.0, 0.2])
        u, _ = pmp.minimize_hamiltonian(0.0, rho, np.zeros(3), np.zeros((3, 3)),
                                        CONTROLLED, plain_cost(0.3), [[0.7]])
        assert np.allclose(u, [0.7])

    def test_misshapen_running_operator_is_a_dimension_mismatch(self):
        # Before: numpy's bare "operands could not be broadcast" ValueError,
        # from here and so from GridPolicy.
        cost = bel.CostSpec(running_op=lambda t, u: np.eye(3), terminal_op=EXCITED)
        rho = density_from_bloch([0.1, 0.0, 0.2])
        with pytest.raises(DimensionMismatchError, match="2 x 2"):
            pmp.minimize_hamiltonian(0.0, rho, np.zeros(3), np.zeros((3, 3)), CONTROLLED, cost,
                                     [[0.7]])

    def test_quadratic_argmin_near_analytic(self):
        # H(u) = (1/2) w u^2 + u * (b_c . p): analytic minimizer -(b_c.p)/w.
        weight = 0.5
        cost = plain_cost(weight=weight, state_scale=0.0)
        r = np.array([0.0, 0.0, 0.5])
        rho = density_from_bloch(r)
        p = np.array([0.4, 0.0, 0.0])
        b0 = CONTROLLED.bloch.drift([0.0], r)
        b1 = CONTROLLED.bloch.drift([1.0], r)
        slope = (b1 - b0) @ p
        u_star = -slope / weight
        spacing = 0.25
        u_grid = [[u] for u in np.arange(-2.0, 2.0 + spacing, spacing)]
        u_best, _ = pmp.minimize_hamiltonian(0.0, rho, p, np.zeros((3, 3)),
                                             CONTROLLED, cost, u_grid)
        assert abs(u_best[0] - u_star) <= spacing

    def test_tie_break_lexicographic(self):
        rho = density_from_bloch([0.0, 0.0, 0.3])
        cost = plain_cost(weight=0.0, state_scale=0.5)
        u_grid = [[0.5], [-0.5], [0.0]]  # H independent of u here (p = 0)
        u, _ = pmp.minimize_hamiltonian(0.0, rho, np.zeros(3), np.zeros((3, 3)),
                                        CONTROLLED, cost, u_grid)
        assert np.allclose(u, [-0.5])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        rho = density_from_bloch([0.2, -0.1, 0.4])
        p = rng.normal(size=3)
        P = np.eye(3)
        cost = plain_cost(weight=0.2)
        u_grid = [[u] for u in np.linspace(-1, 1, 9)]
        ref, _ = pmp.minimize_hamiltonian(0.0, rho, p, P, CONTROLLED, cost, u_grid)
        for seed in range(5):
            shuffled = list(u_grid)
            np.random.default_rng(seed).shuffle(shuffled)
            u, _ = pmp.minimize_hamiltonian(0.0, rho, p, P, CONTROLLED, cost, shuffled)
            assert np.allclose(u, ref)

    def test_empty_grid_rejected(self):
        rho = density_from_bloch([0.0, 0.0, 0.0])
        with pytest.raises(RejectedInputError):
            pmp.minimize_hamiltonian(0.0, rho, np.zeros(3), np.zeros((3, 3)),
                                     CONTROLLED, plain_cost(), [])


    def test_zero_control_grid(self):
        # A model without controls has the one-point grid [()], which the HJB
        # solver and fbsde_residual accept; the argmin and the policy must too.
        model = ops.QuantumModel(H0=0.3 * ops.SIGMA_X, L=np.sqrt(KAPPA) * ops.SIGMA_Z)
        cost = bel.CostSpec(running_op=lambda t, u: EXCITED, terminal_op=EXCITED)
        rho = density_from_bloch([0.1, 0.2, 0.3])
        u, h = pmp.minimize_hamiltonian(0.0, rho, np.zeros(3), np.zeros((3, 3)),
                                        model, cost, [np.zeros(0)])
        assert u.shape == (0,)
        assert h == pytest.approx(np.real(ops.expectation(rho, cost.running(0.0, u))))
        grid = hjb.solve_hjb_grid(model, cost, [np.zeros(0)],
                                  hjb.GridSpec(T=0.05, n_space=11, n_time=20))
        policy = pmp.GridPolicy(grid, model, cost, [np.zeros(0)])
        assert policy(0.0, np.stack([rho, rho]), None).shape == (2, 0)

    def test_batch_matches_single_states(self):
        rng = np.random.default_rng(11)
        r = rng.normal(size=(6, 3))
        r *= rng.uniform(0, 0.95, size=(6, 1)) / np.linalg.norm(r, axis=1, keepdims=True)
        rho = density_from_bloch(r)
        p = rng.normal(size=(6, 3))
        P = rng.normal(size=(6, 3, 3))
        cost = plain_cost(weight=0.2)
        u_grid = [[u] for u in np.linspace(-1, 1, 7)]
        u, h = pmp.minimize_hamiltonian(0.0, rho, p, P, CONTROLLED, cost, u_grid)
        for i in range(6):
            ui, hi = pmp.minimize_hamiltonian(0.0, rho[i], p[i], P[i], CONTROLLED, cost, u_grid)
            assert np.array_equal(u[i], ui)
            assert h[i] == pytest.approx(hi, abs=1e-14)
            assert hi == pytest.approx(pmp.minimize_hamiltonian(0.0, rho[i], p[i], P[i],
                                                                CONTROLLED, cost, [ui])[1],
                                       abs=1e-14)


class TestCostateValidation:
    RHO = density_from_bloch([0.1, 0.0, 0.2])

    @pytest.mark.parametrize("p, P", [
        (np.array([np.nan, 0.0, 0.0]), np.zeros((3, 3))),
        (np.zeros(3), np.full((3, 3), np.inf)),
        (np.zeros(2), np.zeros((3, 3))),
        (np.zeros(3), np.zeros((2, 2))),
        (np.zeros((2, 3)), np.zeros((2, 3, 3))),  # a batch for a single state
    ])
    def test_rejected_everywhere(self, p, P):
        args = (p, P, CONTROLLED, plain_cost())
        with pytest.raises(RejectedInputError):
            pmp.minimize_hamiltonian(0.0, self.RHO, *args, [[0.0], [1.0]])
        with pytest.raises(RejectedInputError):
            pmp.minimize_hamiltonian(0.0, self.RHO, *args, [[0.0]])
        with pytest.raises(RejectedInputError):
            pmp.hamiltonian_gradient_r(0.0, [0.0], np.array([0.1, 0.0, 0.2]), *args)

    def test_batch_must_match_states(self):
        with pytest.raises(RejectedInputError):
            pmp.minimize_hamiltonian(0.0, np.stack([self.RHO] * 3), np.zeros((2, 3)),
                                     np.zeros((2, 3, 3)), CONTROLLED, plain_cost(), [[0.0]])

    @pytest.mark.parametrize("r", [[2.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    def test_gradient_rejects_point_off_ball(self, r):
        with pytest.raises(RejectedInputError):
            pmp.hamiltonian_gradient_r(0.0, [0.0], np.array(r), np.zeros(3), np.zeros((3, 3)),
                                       CONTROLLED, plain_cost())


class TestNonFiniteControl:
    U_GRID = [[0.0], [np.nan]]

    def test_hjb_solve_refuses_before_sweeping(self):
        spec = hjb.GridSpec(T=0.1, n_space=11, n_time=100)
        with pytest.raises(RejectedInputError, match="control"):
            hjb.solve_hjb_grid(CONTROLLED, plain_cost(), self.U_GRID, spec)

    def test_argmin_refuses(self):
        rho = density_from_bloch([0.1, 0.0, 0.2])
        with pytest.raises(RejectedInputError, match="control"):
            pmp.minimize_hamiltonian(0.0, rho, np.zeros(3), np.zeros((3, 3)), CONTROLLED,
                                     plain_cost(), self.U_GRID)


class TestGridPolicyControlGrid:
    @pytest.mark.parametrize("u_grid, match", [([[np.nan]], "non-finite"), ([], "nonempty"),
                                               ([[1.0, 2.0]], "components")])
    def test_refuses_bad_grid_at_construction(self, u_grid, match):
        # Accepted before: each failed only at the first step of an ensemble.
        grid = hjb.solve_hjb_grid(CONTROLLED, plain_cost(), [[0.0]],
                                  hjb.GridSpec(T=0.05, n_space=11, n_time=20))
        with pytest.raises(RejectedInputError, match=match):
            pmp.GridPolicy(grid, CONTROLLED, plain_cost(), u_grid)


class TestGridPolicyHorizon:
    def test_refuses_time_past_grid_horizon(self):
        # Before: t was clamped to grid.T, so a T = 0.2 ensemble ran on a
        # T = 0.05 grid with no error.
        grid = hjb.solve_hjb_grid(CONTROLLED, plain_cost(), [[0.0]],
                                  hjb.GridSpec(T=0.05, n_space=11, n_time=20))
        policy = pmp.GridPolicy(grid, CONTROLLED, plain_cost(), [[0.0]])
        rho = density_from_bloch([0.1, 0.0, 0.2])
        assert np.array_equal(policy(0.05 + 5e-10, rho, None), policy(0.05, rho, None))
        with pytest.raises(RejectedInputError, match="horizon"):
            policy(0.05 + 1e-8, rho, None)
        with pytest.raises(RejectedInputError, match="horizon"):
            bel.simulate_ensemble(CONTROLLED, policy, bel.SmeConfig(dt=0.01, T=0.2), rho, [0])


NON_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@pytest.mark.parametrize("reader", [
    lambda cost: hjb.solve_hjb_grid(CONTROLLED, cost, [[0.0]],
                                    hjb.GridSpec(T=0.05, n_space=11, n_time=20)),
    lambda cost: pmp.minimize_hamiltonian(0.0, density_from_bloch([0.1, 0.0, 0.2]),
                                          np.zeros(3), np.zeros((3, 3)), CONTROLLED, cost,
                                          [[0.0]]),
    lambda cost: pmp.hamiltonian_gradient_r(0.0, [0.0], np.array([0.1, 0.0, 0.2]), np.zeros(3),
                                            np.zeros((3, 3)), CONTROLLED, cost),
], ids=["solve_hjb_grid", "minimize_hamiltonian", "hamiltonian_gradient_r"])
def test_non_hermitian_running_operator_is_refused(reader):
    # Before: each read the Hermitian part of C = [[0, 1], [0, 0]] without a
    # word, where trajectory_cost refused it.
    cost = bel.CostSpec(running_op=lambda t, u: NON_HERMITIAN, terminal_op=EXCITED)
    with pytest.raises(RejectedInputError, match="running_op is not Hermitian"):
        reader(cost)
    # A Hermitian cost that is not PSD stays allowed in these readers.
    reader(bel.CostSpec(running_op=lambda t, u: 0.3 * ops.SIGMA_X, terminal_op=EXCITED))


def test_misshapen_running_operator_in_gradient_is_a_dimension_mismatch():
    # Before: numpy's bare "operands could not be broadcast" ValueError.
    cost = bel.CostSpec(running_op=lambda t, u: np.eye(3), terminal_op=EXCITED)
    with pytest.raises(DimensionMismatchError, match="running_op must be 2 x 2"):
        pmp.hamiltonian_gradient_r(0.0, [0.0], np.array([0.1, 0.0, 0.2]), np.zeros(3),
                                   np.zeros((3, 3)), CONTROLLED, cost)


class TestGridPolicyBoundary:
    def test_sphere_states_need_no_clamp(self):
        # check_density accepts |r| up to 1 + 2 PSD_EIG_TOL, inside check_bloch's
        # 1 + BLOCH_NORM_TOL: just past the sphere the policy acts as on it, and
        # further out the costate lookup refuses the state.
        cost = plain_cost(weight=0.2)
        u_grid = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
        spec = hjb.GridSpec(T=0.05, n_space=11, n_time=100)
        policy = pmp.GridPolicy(hjb.solve_hjb_grid(CONTROLLED, cost, u_grid, spec),
                                CONTROLLED, cost, u_grid)
        unit = np.random.default_rng(4).normal(size=(6, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)

        def states(scale):
            r = scale * unit
            return 0.5 * (ops.IDENTITY2 + np.einsum("nk,kij->nij", r, np.stack(ops.PAULI)))

        on_sphere = policy(0.02, states(1.0), None)
        assert np.array_equal(policy(0.02, states(1.0 + 1.5e-10), None), on_sphere)
        with pytest.raises(RejectedInputError):
            policy(0.02, states(1.0 + 1e-6), None)


class TestGridPolicyBatch:
    def test_batch_matches_single_states(self):
        cost = plain_cost(weight=0.2)
        u_grid = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
        spec = hjb.GridSpec(T=0.05, n_space=21, n_time=100)
        policy = pmp.GridPolicy(hjb.solve_hjb_grid(CONTROLLED, cost, u_grid, spec),
                                CONTROLLED, cost, u_grid)
        rng = np.random.default_rng(8)
        r = rng.normal(size=(40, 3))
        r *= rng.uniform(0, 1, size=(40, 1)) ** (1 / 3) / np.linalg.norm(r, axis=1, keepdims=True)
        rho = density_from_bloch(r)
        for t in (0.0, 0.0123, 0.05):
            batch = policy(t, rho, None)
            assert batch.shape == (40, 1)
            assert len(np.unique(batch)) > 1
            assert np.array_equal(batch, np.stack([policy(t, x, None) for x in rho]))


def random_hermitian(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return (g + g.conj().T) / 2


def random_operator(rng):
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


def random_ball_points(rng, n, radius):
    r = rng.normal(size=(n, 3))
    return r * rng.uniform(0, radius, size=(n, 1)) / np.linalg.norm(r, axis=1, keepdims=True)


class TestBlochGeneratorProperties:
    @given(n_controls=st.integers(0, 2), n_extra=st.integers(0, 1),
           hbar=st.sampled_from([1.0, 0.5, 2.0]), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_kernel_and_central_difference(self, n_controls, n_extra, hbar, seed):
        rng = np.random.default_rng(seed)
        # Non-normal channels: random complex L, so L^dag L != L L^dag.
        model = ops.QuantumModel(
            H0=random_hermitian(rng), L=random_operator(rng),
            Hc=tuple(random_hermitian(rng) for _ in range(n_controls)),
            L_extra=tuple(random_operator(rng) for _ in range(n_extra)), hbar=hbar)
        r = random_ball_points(rng, 5, 1.0)
        u = rng.normal(size=(5, n_controls))
        b, s = model.bloch.drift(u, r), model.bloch.diffusion(r)
        w, sig, _ = ops.drift_and_fluctuation(model, u, density_from_bloch(r))
        assert np.max(np.abs(b - hjb.bloch_from_density(w))) <= 1e-12
        assert np.max(np.abs(s - hjb.bloch_from_density(sig))) <= 1e-12

        c_ops = [random_hermitian(rng) for _ in range(1 + n_controls)]
        cost = bel.CostSpec(running_op=lambda t, v: c_ops[0] + sum(
            vi * ci for vi, ci in zip(v, c_ops[1:])), terminal_op=np.zeros((2, 2)))
        p = rng.normal(size=3)
        P = rng.normal(size=(3, 3))
        step = 1e-3
        for x, ux in zip(random_ball_points(rng, 3, 0.99 - 2 * step), u):
            def H(y):
                return pmp.minimize_hamiltonian(0.0, density_from_bloch(y), p, P, model, cost,
                                                [ux])[1]
            # H is quartic in r, so the five-point central difference is exact
            # up to rounding.
            fd = np.array([(H(x - 2 * e) - 8 * H(x - e) + 8 * H(x + e) - H(x + 2 * e))
                           / (12 * step) for e in step * np.eye(3)])
            grad = pmp.hamiltonian_gradient_r(0.0, ux, x, p, P, model, cost)
            assert np.max(np.abs(grad - fd)) <= 1e-8


def _qubit_scenario(n_space=21, n_time=200, seed=17, T=0.1):
    cost = plain_cost(weight=0.2, state_scale=0.5)
    u_grid = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
    spec = hjb.GridSpec(T=T, n_space=n_space, n_time=n_time)
    grid = hjb.solve_hjb_grid(CONTROLLED, cost, u_grid, spec)
    policy = pmp.GridPolicy(grid, CONTROLLED, cost, u_grid)
    cfg = bel.SmeConfig(dt=T / n_time, T=T)
    rho0 = density_from_bloch([0.3, 0.0, 0.2])
    traj = record(CONTROLLED, policy, cfg, rho0, seed)
    return traj, grid, cost, u_grid


def _costate_recursion_report(path, g, model, c, ug):
    """Checks `fbsde_residual`'s backward leg against the recursion written out
    here: from the grid gradient at T, p_k = p_{k+1} + grad_r H dt - q_{k+1} dW_k
    with q = P s and grad_r H taken at step k + 1.  Returns (report, p_0, p_T)."""
    r = hjb.bloch_from_density(path.states)
    p_ref, P_ref = hjb.extract_costate(g, path.times, r)
    s = model.bloch.diffusion(r)
    dW = np.diff(path.innovations_W)
    p = p_ref[-1]
    residuals = np.zeros(path.n_steps + 1)
    for k in range(path.n_steps - 1, -1, -1):
        grad = pmp.hamiltonian_gradient_r(path.times[k + 1], path.controls[k + 1], r[k + 1],
                                          p, P_ref[k + 1], model, c)
        p = p + grad * path.dt - (P_ref[k + 1] @ s[k + 1]) * dW[k]
        residuals[k] = np.linalg.norm(p - p_ref[k])
    rep = pmp.fbsde_residual(path, g, model, c, ug)
    assert rep.max_backward_residual == pytest.approx(np.max(residuals), rel=1e-12)
    assert rep.mean_backward_residual == pytest.approx(np.mean(residuals[:-1]), rel=1e-12)
    return rep, p, p_ref[-1]


class TestCostateBackwardStep:
    """The costate step inside `fbsde_residual`'s backward loop."""

    def test_frozen(self):
        # Without dynamics or running cost, grad_r H = 0 and q = 0, so p stays
        # exactly at the terminal gradient of <rho, |1><1|>.
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.zeros((2, 2)))
        cost = bel.CostSpec(running_op=lambda t, u: np.zeros((2, 2)), terminal_op=EXCITED)
        grid = hjb.solve_hjb_grid(model, cost, [np.zeros(0)],
                                  hjb.GridSpec(T=0.05, n_space=11, n_time=50))
        traj = record(model, None, bel.SmeConfig(dt=0.001, T=0.05),
                      density_from_bloch([0.3, 0.0, 0.2]), 3)
        _, p0, p_terminal = _costate_recursion_report(traj, grid, model, cost, [np.zeros(0)])
        assert np.array_equal(p0, p_terminal)
        assert np.allclose(p_terminal, [0.0, 0.0, -0.5], atol=1e-12)

    def test_deterministic_euler(self):
        # Zeroed innovations leave the drift alone: p_k = p_{k+1} + grad_r H dt.
        traj, grid, cost, u_grid = _qubit_scenario(n_space=11, n_time=100, T=0.05)
        quiet = dataclasses.replace(traj, innovations_W=0.0 * traj.innovations_W)
        _, p0, p_terminal = _costate_recursion_report(quiet, grid, CONTROLLED, cost, u_grid)
        assert not np.allclose(p0, p_terminal, atol=1e-6)

    def test_noise_term_uses_q(self):
        # The recorded innovations enter through q dW, so the residuals differ
        # from those of the same path with zeroed innovations.
        traj, grid, cost, u_grid = _qubit_scenario(n_space=11, n_time=100, T=0.05)
        noisy, _, _ = _costate_recursion_report(traj, grid, CONTROLLED, cost, u_grid)
        quiet = pmp.fbsde_residual(
            dataclasses.replace(traj, innovations_W=0.0 * traj.innovations_W), grid,
            CONTROLLED, cost, u_grid)
        assert noisy.max_backward_residual != pytest.approx(quiet.max_backward_residual,
                                                            rel=1e-3)


class TestFbsdeResidual:
    def test_zero_scenario_residuals_vanish(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.zeros((2, 2)))
        cost = bel.CostSpec(running_op=lambda t, u: np.zeros((2, 2)),
                            terminal_op=np.zeros((2, 2)))
        spec = hjb.GridSpec(T=0.1, n_space=11, n_time=50)
        grid = hjb.solve_hjb_grid(model, cost, [np.zeros(0)], spec)
        traj = record(model, None, bel.SmeConfig(dt=0.002, T=0.1), np.eye(2) / 2, 1)
        rep = pmp.fbsde_residual(traj, grid, model, cost, [np.zeros(0)])
        assert rep.terminal_residual <= 1e-9
        assert rep.max_backward_residual <= 1e-9

    def test_terminal_gradient_matches_analytic(self):
        traj, grid, cost, u_grid = _qubit_scenario()
        rep = pmp.fbsde_residual(traj, grid, CONTROLLED, cost, u_grid)
        # <rho(r), |1><1|> = (1 - r_z)/2 has exact Bloch gradient (0, 0, -1/2);
        # the terminal slice is linear in r so the stencil reproduces it.
        assert rep.terminal_residual <= grid.h ** 2

    def test_backward_leg_tracks_grid_gradient(self):
        traj, grid, cost, u_grid = _qubit_scenario()
        rep = pmp.fbsde_residual(traj, grid, CONTROLLED, cost, u_grid)
        assert rep.mean_relative_residual <= 0.10

    def test_report_roundtrip(self, tmp_path):
        traj, grid, cost, u_grid = _qubit_scenario(n_space=11, n_time=100, T=0.05)
        rep = pmp.fbsde_residual(traj, grid, CONTROLLED, cost, u_grid)
        path = tmp_path / "residuals.txt"
        rep.write(path)
        text = path.read_text()
        for key in ("terminal_residual", "max_backward_residual",
                    "mean_backward_residual", "grid_h", "dt"):
            assert key in text


class TestFbsdeInputRules:
    """`fbsde_residual` reads its record through the rules of `hjb_bloch`."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return _qubit_scenario(n_space=11, n_time=100, T=0.05)

    def test_reads_times_within_horizon_tolerance(self, scenario):
        # Before: fbsde_residual allowed T + 1e-9, then extract_costate refused
        # "t=0.0500000005 outside grid time range" at 1e-12.
        traj, grid, cost, u_grid = scenario
        late = dataclasses.replace(traj, times=traj.times * (1 + 1e-8))
        assert grid.T < late.times[-1] <= grid.T + hjb.HORIZON_TOL
        rep = pmp.fbsde_residual(late, grid, CONTROLLED, cost, u_grid)
        assert rep.terminal_residual == pmp.fbsde_residual(traj, grid, CONTROLLED, cost,
                                                           u_grid).terminal_residual

    def test_reads_record_of_lists(self, scenario):
        # Before: AttributeError ('list' object has no attribute 'shape').
        traj, grid, cost, u_grid = scenario
        fields = ("times", "states", "controls", "record_y", "innovations_W")
        listed = bel.TrajectoryRecord(*(getattr(traj, f).tolist() for f in fields), traj.seed)
        assert (pmp.fbsde_residual(listed, grid, CONTROLLED, cost, u_grid)
                == pmp.fbsde_residual(traj, grid, CONTROLLED, cost, u_grid))

    def test_refuses_times_past_horizon_tolerance(self, scenario):
        traj, grid, cost, u_grid = scenario
        late = dataclasses.replace(traj, times=traj.times * (1 + 4 * hjb.HORIZON_TOL / grid.T))
        with pytest.raises(RejectedInputError, match="outside grid time range"):
            pmp.fbsde_residual(late, grid, CONTROLLED, cost, u_grid)

    def test_refuses_record_leaving_the_ball_at_its_step(self, scenario):
        traj, grid, cost, u_grid = scenario
        states = traj.states.copy()
        states[7] = 0.5 * (ops.IDENTITY2 + 1.01 * ops.SIGMA_Z)
        with pytest.raises(RejectedInputError, match=r"at index \(7,\) lies outside the unit"):
            pmp.fbsde_residual(dataclasses.replace(traj, states=states), grid, CONTROLLED, cost,
                               u_grid)

    def test_refuses_non_qubit_record(self, scenario):
        traj, grid, cost, u_grid = scenario
        states = np.broadcast_to(np.eye(3) / 3, (len(traj.times), 3, 3))
        with pytest.raises(DimensionMismatchError, match="bloch_from_density needs a qubit state"):
            pmp.fbsde_residual(dataclasses.replace(traj, states=states), grid, CONTROLLED, cost,
                               u_grid)
