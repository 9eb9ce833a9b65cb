import tracemalloc

import numpy as np
import pytest

from mqoc import belavkin as bel
from mqoc import operators as ops
from mqoc.errors import DimensionMismatchError, RejectedInputError
from reference import adjoint_generator

QUBIT_Z = ops.QuantumModel(H0=np.zeros((2, 2)), L=ops.SIGMA_Z)
MIXED = np.eye(2, dtype=complex) / 2
GROUND = np.diag([1.0, 0.0]).astype(complex)


def zero_cost(dim=2):
    return bel.CostSpec(running_op=lambda t, u: np.zeros((dim, dim)),
                        terminal_op=np.zeros((dim, dim)))


class TestSmeConfig:
    def test_rejects_bad_step(self):
        with pytest.raises(RejectedInputError):
            bel.SmeConfig(dt=0.3, T=1.0)

    def test_rejects_dt_above_horizon(self):
        with pytest.raises(RejectedInputError):
            bel.SmeConfig(dt=2.0, T=1.0)

    def test_step_count(self):
        assert bel.SmeConfig(dt=1e-3, T=1.0).n_steps == 1000

    def test_default_scheme_is_kraus(self):
        # The filter's one step is the Strang split of the module docstring,
        # written out here on a driven qubit with a non-Hermitian measured
        # channel and an extra unmeasured one.
        L = ops.SIGMA_Z + 0.4j * ops.SIGMA_Y
        K = 0.5 * np.array([[0.0, 1.0], [0.0, 0.0]])
        model = ops.QuantumModel(H0=0.3 * ops.SIGMA_X, L=L, Hc=(ops.SIGMA_Y,), L_extra=(K,))
        cfg = bel.SmeConfig(dt=1e-2, T=1.0)
        assert not hasattr(cfg, "scheme")
        rho = 0.5 * (np.eye(2) + 0.3 * ops.SIGMA_X - 0.4 * ops.SIGMA_Z)
        u, dW, dt = 0.7, 0.05, cfg.dt
        eye = np.eye(2)
        s = 1j * dt / (4.0 * model.hbar) * model.hamiltonian([u])
        U = np.linalg.solve(eye + s, eye - s)
        r = U @ rho @ ops.dagger(U)
        dy = np.real(np.trace(r @ (L + ops.dagger(L)))) * dt + dW
        Ld = ops.dagger(L)
        M = eye - 0.5 * (Ld @ L + ops.dagger(K) @ K) * dt + L * dy + 0.5 * (L @ L) * (dy ** 2 - dt)
        r = M @ r @ ops.dagger(M) + K @ r @ ops.dagger(K) * dt
        r = U @ (r / np.trace(r)) @ ops.dagger(U)
        want = (r + ops.dagger(r)) / 2.0
        assert np.allclose(bel.step_sme(rho, [u], dW, model, cfg), want, atol=1e-14)

    def test_rejects_unknown_scheme(self):
        # With one step there is no scheme to choose: every former or unknown
        # name is an unknown keyword.
        for scheme in ("kraus", "euler", "euler_raw", "bogus"):
            with pytest.raises(TypeError, match="scheme"):
                bel.SmeConfig(dt=1e-3, T=1.0, scheme=scheme)

    @pytest.mark.parametrize("name", ["normalize_each_step"])
    def test_removed_fields_are_unknown_keywords(self, name):
        # The filter has one step, so no repair flag is settable.
        with pytest.raises(TypeError, match=name):
            bel.SmeConfig(dt=1e-3, T=1.0, **{name: False})

    @pytest.mark.parametrize("dt, T", [(1e-3, np.inf), (np.inf, np.inf), (np.nan, 1.0),
                                       (1e-3, np.nan)])
    def test_rejects_non_finite_step_or_horizon(self, dt, T):
        with pytest.raises(RejectedInputError, match="dt"):
            bel.SmeConfig(dt=dt, T=T)


class TestSeeds:
    CFG = bel.SmeConfig(dt=0.1, T=0.2)

    @pytest.mark.parametrize("make", [
        lambda cfg: bel.simulate_ensemble(QUBIT_Z, None, cfg, MIXED, []),
        lambda cfg: bel.simulate_ensemble(QUBIT_Z, None, cfg, MIXED, [-1]),
        lambda cfg: bel.simulate_ensemble(QUBIT_Z, None, cfg, MIXED, [2**64]),
        lambda cfg: bel.simulate_ensemble(QUBIT_Z, None, cfg, MIXED, [1.7]),
        lambda cfg: bel.simulate_ensemble(QUBIT_Z, None, cfg, MIXED, [[1, 2], [3, 4]]),
        lambda cfg: bel.SmeConfig(dt=cfg.dt, T=cfg.T, seed=1.7),
    ], ids=["empty", "negative", "2**64", "float", "2-D", "config_float"])
    def test_rejected_before_any_step(self, make, monkeypatch):
        def step(*args):
            raise AssertionError("the filter step ran")

        monkeypatch.setattr(bel._KrausStep, "__call__", step)
        with pytest.raises(RejectedInputError, match="seed"):
            make(self.CFG)

    def test_accepts_range_and_numpy_integers(self):
        top = np.uint64(2**64 - 1)
        want = bel.simulate_ensemble(QUBIT_Z, None, self.CFG, MIXED, [0])[4][0]
        for seeds in (range(2), np.array([0, 1]), [np.int32(0), top]):
            w = bel.simulate_ensemble(QUBIT_Z, None, self.CFG, MIXED, seeds)[4]
            assert np.array_equal(w[0], want)
        assert bel.SmeConfig(dt=0.1, T=0.2, seed=top).seed == top


class TestNoiseIncrements:
    @pytest.mark.parametrize("n_steps, dt", [(5, -0.01), (5, 0.0), (5, np.nan), (-1, 0.01),
                                             (2.5, 0.01)],
                             ids=["negative_dt", "zero_dt", "nan_dt", "negative_steps",
                                  "float_steps"])
    def test_rejects_bad_step(self, n_steps, dt):
        # Before: dt < 0 gave NaN increments with only a RuntimeWarning, and
        # n_steps < 0 raised a bare numpy ValueError.
        with pytest.raises(RejectedInputError, match="n_steps"):
            bel.noise_increments(1, n_steps, dt)

    @pytest.mark.parametrize("seed", [1.5, True, "3", -1, 2**64])
    def test_rejects_bad_seed(self, seed):
        # Before: 1.5 gave seed 1's increments, True and "3" were accepted,
        # and -1 and 2**64 raised a bare OverflowError.
        with pytest.raises(RejectedInputError, match="seed"):
            bel.noise_increments(seed, 5, 0.01)


class TestStepSme:
    def test_frozen_model(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.zeros((2, 2)))
        cfg = bel.SmeConfig(dt=1e-3, T=1.0)
        out = bel.step_sme(MIXED, [], 0.3, model, cfg)
        assert np.allclose(out, MIXED, atol=1e-14)

    def test_pointer_state_stationary(self):
        cfg = bel.SmeConfig(dt=1e-3, T=1.0)
        for dW in (-0.2, 0.0, 0.7):
            out = bel.step_sme(GROUND, [], dW, QUBIT_Z, cfg)
            assert np.allclose(out, GROUND, atol=1e-14)

    def test_mixed_state_kick(self):
        # H = 0 makes U = I.  At I/2, <L + L^dag> = 0, so dy = dW; with
        # L = L^dag = sigma_z and L^dag L = L^2 = I the Kraus operator is
        # M = (1 - dt/2 + (dy^2 - dt)/2) I + dy sigma_z = a I + dy sigma_z,
        # a = 1 - dt + dy^2/2.  M (I/2) M^dag = ((a^2 + dy^2) I + 2 a dy sigma_z) / 2
        # has trace a^2 + dy^2, so the step is I/2 + c sigma_z, c = a dy / (a^2 + dy^2).
        cfg = bel.SmeConfig(dt=1e-3, T=1.0)
        dy = 0.05
        a = 1.0 - cfg.dt + 0.5 * dy ** 2
        c = a * dy / (a ** 2 + dy ** 2)
        out = bel.step_sme(MIXED, [], dy, QUBIT_Z, cfg)
        assert np.allclose(out, np.diag([0.5 + c, 0.5 - c]), atol=1e-12)

    def test_blowup_reported(self):
        cfg = bel.SmeConfig(dt=1e-3, T=1.0)
        with pytest.raises(RejectedInputError):
            bel.step_sme(MIXED, [], np.inf, QUBIT_Z, cfg)

    def test_step_index_is_an_unknown_keyword(self):
        # It only labelled the error message, and no caller passed it.
        with pytest.raises(TypeError, match="step_index"):
            bel.step_sme(MIXED, [], 0.0, QUBIT_Z, bel.SmeConfig(dt=1e-3, T=1.0), step_index=3)

    def test_repeat_calls_reuse_one_step_bit_identically(self, monkeypatch):
        # The model keeps the step of its last dt: a step is built only when
        # dt changes, and the states are those of a fresh model per call.
        def qubit():
            return ops.QuantumModel(H0=0.4 * ops.SIGMA_X, L=ops.SIGMA_Z + 0.4j * ops.SIGMA_Y,
                                    Hc=(ops.SIGMA_Y,))

        calls = [(dt, u) for dt in (1e-3, 1e-2, 1e-3) for u in (0.3, 0.3, -0.5)]
        fresh = [MIXED]
        for dt, u in calls:
            fresh.append(bel.step_sme(fresh[-1], [u], 0.05, qubit(), bel.SmeConfig(dt=dt, T=dt)))
        built = []
        init = bel._KrausStep.__init__

        def counted(self, model, dt, n):
            built.append(dt)
            init(self, model, dt, n)

        monkeypatch.setattr(bel._KrausStep, "__init__", counted)
        model, rho = qubit(), MIXED
        for (dt, u), want in zip(calls, fresh[1:]):
            rho = bel.step_sme(rho, [u], 0.05, model, bel.SmeConfig(dt=dt, T=dt))
            assert np.array_equal(rho, want)
        assert built == [1e-3, 1e-2, 1e-3]


class TestGenerateRecord:
    def test_deterministic_from_seed(self):
        cfg = bel.SmeConfig(dt=1e-3, T=0.05, seed=42)
        a = bel.generate_record(QUBIT_Z, None, zero_cost(), cfg, MIXED)
        b = bel.generate_record(QUBIT_Z, None, zero_cost(), cfg, MIXED)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.record_y, b.record_y)
        assert np.array_equal(a.innovations_W, b.innovations_W)

    def test_free_record_is_random_walk(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.zeros((2, 2)))
        cfg = bel.SmeConfig(dt=1e-3, T=0.2, seed=3)
        traj = bel.generate_record(model, None, zero_cost(), cfg, MIXED)
        assert np.allclose(traj.states, MIXED, atol=1e-14)
        # y has pure Normal(0, dt) increments: y == W.
        assert np.allclose(traj.record_y, traj.innovations_W)
        incr = np.diff(traj.record_y)
        assert abs(np.var(incr) / cfg.dt - 1.0) < 0.5

    def test_ensemble_matches_single_runs(self):
        cfg = bel.SmeConfig(dt=1e-3, T=0.05, seed=11)
        times, states, controls, y, w = bel.simulate_ensemble(
            QUBIT_Z, None, cfg, MIXED, [11, 12])
        solo = bel.generate_record(QUBIT_Z, None, zero_cost(),
                                   bel.SmeConfig(dt=1e-3, T=0.05, seed=12), MIXED)
        assert np.allclose(states[1], solo.states, atol=1e-14)
        assert np.array_equal(w[1], solo.innovations_W)

    def test_measurement_collapse(self):
        # Monte Carlo regression: z-measurement purifies the maximally mixed
        # state; by T = 5 most trajectories sit near a pointer state.
        cfg = bel.SmeConfig(dt=1e-3, T=5.0)
        _, states, _, _, _ = bel.simulate_ensemble(
            QUBIT_Z, None, cfg, MIXED, list(range(500)), keep_states=False)
        z = np.real(np.einsum("sij,ji->s", states[:, -1], ops.SIGMA_Z))
        assert np.mean(np.abs(z) > 0.9) > 0.8

    def test_policy_sees_only_past(self):
        seen = []

        def probe(t, rho, past):
            seen.append((t, len(past.times), len(past.y)))
            return np.zeros(0)

        cfg = bel.SmeConfig(dt=0.25, T=1.0, seed=0)
        bel.generate_record(QUBIT_Z, probe, zero_cost(), cfg, MIXED)
        # At step k the policy sees exactly k+1 past record entries.
        assert [n for (_, n, _) in seen] == [1, 2, 3, 4, 5]


class TestPolicyControls:
    MODEL = ops.QuantumModel(H0=np.zeros((2, 2)), L=ops.SIGMA_Z, Hc=(ops.SIGMA_X,))
    CFG = bel.SmeConfig(dt=0.1, T=0.3)

    @pytest.mark.parametrize("policy", [
        lambda t, rho, past: [0.1, 0.2],
        lambda t, rho, past: np.zeros((len(rho), 2)),
    ], ids=["per_trajectory", "batched"])
    def test_wrong_control_count_is_a_dimension_mismatch(self, policy):
        with pytest.raises(DimensionMismatchError, match="2 components"):
            bel.simulate_ensemble(self.MODEL, policy, self.CFG, MIXED, [0, 1])

    def test_plain_function_is_called_once_per_step_on_the_batch(self):
        # Any callable is a policy of the whole batch: n_steps + 1 calls, each
        # with the (n_traj, d, d) states and y and W of shape (n_traj, k+1).
        calls = []

        def policy(t, rho, past):
            calls.append((rho.shape, past.y.shape, past.W.shape))
            return [0.0]

        bel.simulate_ensemble(self.MODEL, policy, self.CFG, MIXED, [0, 1, 2])
        assert calls == [((3, 2, 2), (3, k + 1), (3, k + 1))
                         for k in range(self.CFG.n_steps + 1)]

    def test_non_finite_control_refused_before_the_step(self, monkeypatch):
        def step(*args):
            raise AssertionError("the filter step ran")

        monkeypatch.setattr(bel._KrausStep, "__call__", step)
        with pytest.raises(RejectedInputError, match="non-finite"):
            bel.simulate_ensemble(self.MODEL, lambda t, rho, past: [np.nan], self.CFG, MIXED,
                                  [0])


class TestTrajectoryInvariants:
    def test_trace_and_positivity(self):
        cfg = bel.SmeConfig(dt=1e-3, T=1.0, seed=5)
        traj = bel.generate_record(QUBIT_Z, None, zero_cost(), cfg, MIXED)
        traces = np.einsum("tij->t", traj.states * np.eye(2))
        assert np.max(np.abs(traces - 1.0)) <= 1e-12
        eigs = np.linalg.eigvalsh(traj.states)
        assert eigs.min() >= -1e-10

    def test_purity_preserved_for_pure_start(self):
        # Measurement-dominated regime: a driven qubit pinned near a pointer
        # state, where Euler positivity overshoot stays O(dt).
        model = ops.QuantumModel(H0=0.06 * ops.SIGMA_X, L=np.sqrt(0.5) * ops.SIGMA_Z)
        cfg = bel.SmeConfig(dt=1e-4, T=1.0, seed=9)
        traj = bel.generate_record(model, None, zero_cost(), cfg, GROUND)
        purity = np.real(np.einsum("tij,tji->t", traj.states, traj.states))
        assert np.max(1.0 - purity) <= 1e-3

    def test_innovation_martingale(self):
        cfg = bel.SmeConfig(dt=1e-3, T=1.0)
        _, _, _, _, w = bel.simulate_ensemble(
            QUBIT_Z, None, cfg, MIXED, list(range(2000)), keep_states=False)
        wt = w[:, -1]
        stderr = np.std(wt, ddof=1) / np.sqrt(len(wt))
        assert abs(np.mean(wt)) <= 3 * stderr
        assert 0.9 * cfg.T <= np.var(wt, ddof=1) <= 1.1 * cfg.T


class TestKrausQndOracle:
    """QND measurement, L = sqrt(kappa) sigma_z and H = 0: on the filter's own
    record, z_t = tanh(artanh z_0 + 2 sqrt(kappa) y_t) exactly."""

    KAPPA = 0.5
    R0 = (0.3, 0.0, 0.2)

    def sup_error(self, dt):
        """Mean over seeds 0-199 of sup_t |z_t - z_exact(y_t)|."""
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.sqrt(self.KAPPA) * ops.SIGMA_Z)
        rho0 = 0.5 * (np.eye(2) + sum(c * s for c, s in zip(self.R0, ops.PAULI)))
        _, states, _, y, _ = bel.simulate_ensemble(
            model, None, bel.SmeConfig(dt=dt, T=1.0), rho0, list(range(200)))
        z = np.real(states[..., 0, 0] - states[..., 1, 1])
        exact = np.tanh(np.arctanh(self.R0[2]) + 2.0 * np.sqrt(self.KAPPA) * y)
        return float(np.mean(np.max(np.abs(z - exact), axis=1)))

    def test_error_bound_and_strong_order(self):
        # Measured: 0.0022 at dt = 1e-2 and 0.00025 at dt = 1e-3, an order of 0.95.
        coarse, fine = self.sup_error(1e-2), self.sup_error(1e-3)
        assert fine <= 1e-3
        assert 0.8 <= np.log10(coarse / fine) <= 1.2


def oscillator(dim=21):
    """Damped oscillator, L = sqrt(0.5) a, from a displaced thermal state."""
    a = ops.annihilation(dim)
    ad = ops.dagger(a)
    model = ops.QuantumModel(H0=ad @ a, L=np.sqrt(0.5) * a)
    alpha = 0.8 + 0.4j
    w, v = np.linalg.eigh(-1j * (alpha * ad - np.conj(alpha) * a))
    disp = (v * np.exp(1j * w)[None, :]) @ ops.dagger(v)
    pn = np.array([0.5 ** k / 1.5 ** (k + 1) for k in range(dim)])
    rho0 = ops.project_physical(disp @ np.diag(pn / pn.sum()) @ ops.dagger(disp))
    quadratures = np.stack([(a + ad) / np.sqrt(2), 1j * (ad - a) / np.sqrt(2)])
    return model, rho0, quadratures


def euler_step(rho, dw, model, dt):
    """Euler-Maruyama plus projection, the repaired step the Kraus step must beat."""
    return ops.project_physical(rho + ops.lindblad_drift(model, [], rho) * dt
                                + ops.fluctuation(model.L, rho) * dw)


def kraus_step(rho, dw, model, dt):
    return bel.step_sme(rho, [], dw, model, bel.SmeConfig(dt=dt, T=dt))


class TestKrausOscillator:
    def quadrature_path(self, model, rho0, quadratures, step, dW, dt):
        states = [rho0]
        for dw in dW:
            states.append(step(states[-1], dw, model, dt))
        return np.real(np.einsum("tij,qji->tq", np.array(states), quadratures))

    def test_matches_fine_reference_at_d21(self):
        # Coarse dt = 1e-3 against dt = 1e-4 on one Brownian path: measured
        # 1.2e-4 to 2.1e-4 relative for the split Kraus step, 6e-4 to 6.5e-3
        # for Euler-Maruyama plus projection.
        model, rho0, quads = oscillator()
        T, fine, ratio = 0.3, 1e-4, 10
        for seed in range(3):
            dW = np.random.default_rng(seed).normal(0.0, np.sqrt(fine), int(round(T / fine)))
            ref = self.quadrature_path(model, rho0, quads, kraus_step, dW, fine)[::ratio]
            coarse_dW = dW.reshape(-1, ratio).sum(axis=1)
            err = {step: np.max(np.abs(self.quadrature_path(
                model, rho0, quads, step, coarse_dW, fine * ratio) - ref))
                / np.max(np.abs(ref)) for step in (kraus_step, euler_step)}
            assert err[kraus_step] <= 5e-4
            assert err[kraus_step] < err[euler_step]


class TestKrausPhysicality:
    MODELS = {
        "qubit": (ops.QuantumModel(H0=0.3 * ops.SIGMA_X, L=ops.SIGMA_Z + 0.4j * ops.SIGMA_Y,
                                   Hc=(ops.SIGMA_Y,),
                                   L_extra=(0.5 * np.array([[0.0, 1.0], [0.0, 0.0]]),)),
                  GROUND),
        "oscillator": oscillator(12)[:2],
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_never_projects(self, name, monkeypatch):
        model, rho0 = self.MODELS[name]

        def refuse(m):
            raise AssertionError("project_physical called by the default scheme")

        monkeypatch.setattr(ops, "project_physical", refuse)
        policy = (lambda t, rho, past: [np.cos(9 * t)]) if model.n_controls else None
        cfg = bel.SmeConfig(dt=1e-2, T=1.0)
        _, states, _, _, _ = bel.simulate_ensemble(model, policy, cfg, rho0, range(20),
                                                   keep_states=False)
        final = states[:, -1]
        assert np.max(np.abs(np.einsum("sii->s", final) - 1.0)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(final)) >= -1e-12
        assert np.max(ops.herm_defect(final)) == 0.0

    @pytest.mark.parametrize("dim", [2, 5, 21])
    def test_cayley_is_unitary(self, dim):
        rng = np.random.default_rng(dim)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + ops.dagger(g)) / 2.0
        for s in (1e-4, 1e-2, 1.0):
            u = ops.cayley(h, s)
            assert np.max(np.abs(u @ ops.dagger(u) - np.eye(dim))) <= 1e-14

    def test_zero_hamiltonian_skip_is_exact(self):
        # With H(u) = 0 the Cayley factor is exactly I, and the step is the
        # Hermitian part of the Kraus map alone.
        assert np.array_equal(ops.cayley(np.zeros((3, 3)), 0.7), np.eye(3))
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=ops.SIGMA_Z + 0.3 * ops.SIGMA_X,
                                 Hc=(ops.SIGMA_Y,))
        cfg = bel.SmeConfig(dt=1e-2, T=1.0)
        rho = 0.5 * (np.eye(2) + 0.3 * ops.SIGMA_X - 0.4 * ops.SIGMA_Z)
        out = bel.step_sme(rho, [0.0], 0.05, model, cfg)
        kraus, _ = ops.kraus_map(model.kraus, rho[None], np.array([0.05]), cfg.dt)
        assert np.array_equal(out, ((kraus + ops.dagger(kraus)) / 2.0)[0])

    @pytest.mark.parametrize("name, feedback", [
        ("oscillator", "record"), ("qubit", "record"), ("qubit", "state")],
        ids=["oscillator", "qubit", "qubit_state_feedback"])
    def test_batch_equals_single_runs_bitwise(self, name, feedback):
        model, rho0 = self.MODELS[name]
        seeds = [3, 4, 5, 6]
        # Record feedback gives two distinct controls across the batch, state
        # feedback u = -0.5 <sigma_x> one per trajectory.
        policy, n_distinct = {
            "record": (lambda t, rho, past: np.where(past.y[:, -1] > 0.0, 0.5, -1.0)[:, None], 2),
            "state": (lambda t, rho, past: -0.5 * ops.pauli_components(rho)[:, :1], len(seeds)),
        }[feedback]
        if not model.n_controls:
            policy = None
        cfg = bel.SmeConfig(dt=1e-2, T=0.5)
        batch = bel.simulate_ensemble(model, policy, cfg, rho0, seeds)
        for i, seed in enumerate(seeds):
            solo = bel.simulate_ensemble(model, policy, cfg, rho0, [seed])
            for got, want in zip(batch[1:], solo[1:]):
                assert np.array_equal(got[i], want[0])
        if policy is not None:
            assert max(len(np.unique(u)) for u in np.swapaxes(batch[2], 0, 1)) == n_distinct

    def test_feedback_memory_flat_in_step_count(self):
        # Continuous feedback gives every trajectory a new control at every
        # step; the filter may keep no per-control state beyond the last step.
        # What grows is the y, W and control records: 24 B per trajectory-step.
        model = ops.QuantumModel(H0=0.3 * ops.SIGMA_X, L=ops.SIGMA_Z, Hc=(ops.SIGMA_Y,))
        rho0 = 0.5 * (np.eye(2) + 0.6 * ops.SIGMA_X + 0.3 * ops.SIGMA_Z)

        def policy(t, rho, past):
            return -0.5 * rho[:, 0, 1:].real

        n_traj = 20

        def peak(n_steps):
            cfg = bel.SmeConfig(dt=1e-3, T=n_steps * 1e-3)
            tracemalloc.start()
            try:
                bel.simulate_ensemble(model, policy, cfg, rho0, range(n_traj), keep_states=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200)
        growth = (peak(800) - peak(200)) / (n_traj * 600)
        assert growth <= 64

    def test_diagonal_feedback_memory_flat_in_step_count(self, monkeypatch):
        # Hc = sigma_z with state feedback: a new diagonal H(u) per state at
        # every step, whose phases may not accumulate either.
        model = ops.QuantumModel(H0=0.3 * ops.SIGMA_Z, L=ops.SIGMA_Z + 0.3 * ops.SIGMA_X,
                                 Hc=(ops.SIGMA_Z,))
        rho0 = 0.5 * (np.eye(2) + 0.6 * ops.SIGMA_X + 0.3 * ops.SIGMA_Z)

        def policy(t, rho, past):
            return -0.5 * rho[:, 0, 1:].real

        monkeypatch.setattr(ops, "cayley", refuse_cayley)
        n_traj = 20

        def peak(n_steps):
            cfg = bel.SmeConfig(dt=1e-3, T=n_steps * 1e-3)
            tracemalloc.start()
            try:
                bel.simulate_ensemble(model, policy, cfg, rho0, range(n_traj), keep_states=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200)
        growth = (peak(800) - peak(200)) / (n_traj * 600)
        assert growth <= 64


def refuse_cayley(h, s):
    raise AssertionError("dense Cayley solve for a diagonal H(u)")


def dense_split_step(model, u, rho, dW, dt):
    """The split Kraus step with U from the dense `ops.cayley` solve."""
    U = ops.cayley(model.hamiltonian(u), dt / (4.0 * model.hbar))
    r, dy = ops.kraus_map(model.kraus, U @ rho @ ops.dagger(U), dW, dt)
    r = U @ r @ ops.dagger(U)
    return (r + ops.dagger(r)) / 2.0, dy


class TestDiagonalHalfStep:
    QUBIT_Z_CONTROL = ops.QuantumModel(H0=0.3 * ops.SIGMA_Z, L=ops.SIGMA_Z + 0.4 * ops.SIGMA_X,
                                       Hc=(ops.SIGMA_Z,))

    @staticmethod
    def states(dim, n, seed):
        x = np.random.default_rng(seed).normal(size=(2, n, dim, dim))
        rho = (x[0] + 1j * x[1]) @ ops.dagger(x[0] + 1j * x[1])
        return rho / np.einsum("nii->n", rho)[:, None, None]

    @pytest.mark.parametrize("case", ["oscillator_shared", "qubit_per_state"])
    def test_matches_dense_cayley(self, case, monkeypatch):
        if case == "oscillator_shared":
            model, rho0, _ = oscillator()
            u = np.zeros((4, 0))
            rho = np.concatenate([rho0[None], self.states(21, 3, 1)])
        else:
            model = self.QUBIT_Z_CONTROL
            u = np.array([[0.7], [-0.2], [1.3], [0.0]])
            rho = self.states(2, 4, 2)
        dW, dt = np.array([0.03, -0.05, 0.01, 0.0]), 1e-2
        want, want_dy = dense_split_step(model, u, rho, dW, dt)
        monkeypatch.setattr(ops, "cayley", refuse_cayley)
        got, dy = bel._KrausStep(model, dt, len(rho))(u, rho, dW)
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.max(np.abs(dy - want_dy)) <= 1e-15

    def test_off_diagonal_hamiltonian_takes_dense_solve(self, monkeypatch):
        model = ops.QuantumModel(H0=0.3 * ops.SIGMA_Z, L=ops.SIGMA_Z, Hc=(ops.SIGMA_Y,))
        u, rho, dW, dt = np.array([[0.7], [-0.2]]), self.states(2, 2, 3), np.zeros(2), 1e-2
        want, _ = dense_split_step(model, u, rho, dW, dt)
        calls = []
        cayley = ops.cayley

        def counted(h, s):
            calls.append(h.shape)
            return cayley(h, s)

        monkeypatch.setattr(ops, "cayley", counted)
        got, _ = bel._KrausStep(model, dt, 2)(u, rho, dW)
        assert calls == [(2, 2, 2)]
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_zero_hamiltonian_is_skipped(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=ops.SIGMA_Z, Hc=(ops.SIGMA_Z,))
        step = bel._KrausStep(model, 1e-2, 3)
        assert step.half_step(np.zeros((3, 1))) is None
        assert step.half_step(np.array([[0.0], [0.5], [0.0]])) is not None


class TestTrajectoryCost:
    def _traj(self, T=1.0, dt=1e-2, seed=1):
        cfg = bel.SmeConfig(dt=dt, T=T, seed=seed)
        return bel.generate_record(QUBIT_Z, None, zero_cost(), cfg, MIXED)

    def test_terminal_identity_is_one(self):
        traj = self._traj()
        cost = bel.CostSpec(running_op=lambda t, u: np.zeros((2, 2)), terminal_op=np.eye(2))
        assert bel.trajectory_cost(traj, cost) == pytest.approx(1.0)

    def test_orthogonal_terminal_state(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.zeros((2, 2)))
        cfg = bel.SmeConfig(dt=1e-2, T=0.1, seed=2)
        traj = bel.generate_record(model, None, zero_cost(), cfg, GROUND)
        excited = np.diag([0.0, 1.0]).astype(complex)
        cost = bel.CostSpec(running_op=lambda t, u: np.zeros((2, 2)), terminal_op=excited)
        assert bel.trajectory_cost(traj, cost) == pytest.approx(0.0, abs=1e-12)

    def test_unit_running_cost_integrates_to_horizon(self):
        traj = self._traj(T=1.0, dt=1e-3)
        cost = bel.CostSpec(running_op=lambda t, u: np.eye(2), terminal_op=np.zeros((2, 2)))
        assert abs(bel.trajectory_cost(traj, cost) - 1.0) < 1e-9

    def test_monotone_in_running_operator(self):
        traj = self._traj()
        low = bel.CostSpec(running_op=lambda t, u: np.eye(2), terminal_op=np.zeros((2, 2)))
        high = bel.CostSpec(running_op=lambda t, u: np.eye(2) + 0.5 * ops.SIGMA_X,
                            terminal_op=np.zeros((2, 2)))
        assert bel.trajectory_cost(traj, low) <= bel.trajectory_cost(traj, high)


class TestQuadraticControlCost:
    EXCITED = np.diag([0.0, 1.0])

    @pytest.mark.parametrize("weight", [0.0, 0.2, [0.1, 0.0], [[1.0, 0.5], [0.5, 1.0]]],
                             ids=["zero", "scalar", "vector", "matrix"])
    def test_accepts_psd_weight(self, weight):
        cost = bel.quadratic_control_cost(0.5 * self.EXCITED, self.EXCITED, weight)
        u = np.array([1.0, -2.0])
        w = np.asarray(weight, dtype=float)
        penalty = 0.5 * (u @ w @ u if w.ndim == 2 else np.sum(w * u * u))
        assert np.allclose(cost.running(0.0, u), 0.5 * self.EXCITED + penalty * np.eye(2))

    # Before: each was accepted at construction, and a weight of -1.0 gave
    # solve_hjb_grid a negative cost-to-go.
    @pytest.mark.parametrize("weight", [
        -1.0, np.nan, np.inf, [0.1, -0.1], [[1.0, 2.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
        np.ones((1, 2)), np.ones((1, 1, 1)),
    ], ids=["negative", "nan", "inf", "negative_entry", "non_symmetric", "indefinite",
            "non_square", "three_axes"])
    def test_rejects_weight_that_is_not_psd(self, weight):
        with pytest.raises(RejectedInputError, match="control_weight"):
            bel.quadratic_control_cost(0.5 * self.EXCITED, self.EXCITED, weight)

    @pytest.mark.parametrize("state_op, match", [
        (-2.0 * ops.SIGMA_X, "state_op is not positive semidefinite"),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), "state_op is not Hermitian"),
        (np.diag([np.nan, 1.0]), "state_op has non-finite"),
    ], ids=["not_psd", "not_hermitian", "nan"])
    def test_rejects_state_op_that_is_not_hermitian_psd(self, state_op, match):
        with pytest.raises(RejectedInputError, match=match):
            bel.quadratic_control_cost(state_op, self.EXCITED, 0.1)


class TestFilterObservableCheck:
    def test_identity_observable(self):
        cfg = bel.SmeConfig(dt=1e-3, T=0.2, seed=3)
        traj = bel.generate_record(QUBIT_Z, None, zero_cost(), cfg, MIXED)
        assert bel.filter_observable_check(traj, np.eye(2), QUBIT_Z) < 1e-10

    def test_static_model(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.zeros((2, 2)))
        cfg = bel.SmeConfig(dt=1e-3, T=0.2, seed=3)
        traj = bel.generate_record(model, None, zero_cost(), cfg, MIXED)
        assert bel.filter_observable_check(traj, ops.SIGMA_Z, model) < 1e-10

    def test_qubit_discrepancy_small(self):
        # Nonzero because the split Kraus step differs from the raw
        # Euler-Maruyama recursion by higher-order terms and its normalisation
        # (0.0091 at most over these seeds); well under the coarse tolerance.
        model = ops.QuantumModel(H0=0.25 * ops.SIGMA_X, L=np.sqrt(0.5) * ops.SIGMA_Z)
        for seed in range(10):
            cfg = bel.SmeConfig(dt=1e-3, T=1.0, seed=seed)
            traj = bel.generate_record(model, None, zero_cost(), cfg, GROUND)
            assert bel.filter_observable_check(traj, ops.SIGMA_Z, model) <= 5e-2


    def test_matches_heisenberg_reference(self):
        # The recursion's coefficients along the stored states, taken from the
        # Heisenberg-picture generator one step at a time.
        model = ops.QuantumModel(
            H0=0.3 * ops.SIGMA_X, L=0.4 * ops.SIGMA_Z + 0.2j * ops.SIGMA_Y + 0.1 * ops.SIGMA_X,
            Hc=(ops.SIGMA_Y,), L_extra=(0.3 * np.array([[0.0, 1.0], [0.0, 0.0]]),))
        cfg = bel.SmeConfig(dt=1e-3, T=0.3, seed=5)
        traj = bel.generate_record(model, lambda t, rho, past: [np.sin(7 * t)], None, cfg,
                                   GROUND)
        L = model.L
        for X in (ops.SIGMA_X, ops.SIGMA_Y, ops.SIGMA_Z):
            worst = 0.0
            m = np.real(np.trace(traj.states[0] @ X))
            for k in range(traj.n_steps):
                rho = traj.states[k]
                gen = np.real(np.trace(rho @ adjoint_generator(model, traj.controls[k], X)))
                xl = np.real(np.trace(rho @ (X @ L + ops.dagger(L) @ X)))
                lsum = np.real(np.trace(rho @ (L + ops.dagger(L))))
                dW = traj.innovations_W[k + 1] - traj.innovations_W[k]
                m = m + gen * cfg.dt + (xl - lsum * m) * dW
                worst = max(worst, abs(m - np.real(np.trace(traj.states[k + 1] @ X))))
            assert abs(bel.filter_observable_check(traj, X, model) - worst) <= 1e-12
            assert worst > 1e-4


class TestCsvExport:
    def test_roundtrip_columns(self, tmp_path):
        cfg = bel.SmeConfig(dt=0.05, T=0.2, seed=4)
        traj = bel.generate_record(QUBIT_Z, None, zero_cost(), cfg, MIXED)
        path = tmp_path / "traj.csv"
        bel.write_trajectory_csv(traj, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:3] == ["t", "y", "W"]
        assert "rho_re_0_0" in header and "rho_im_1_1" in header
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (5, len(header))
        assert np.allclose(data[:, 0], traj.times)
