import tracemalloc

import numpy as np
import pytest

from mqoc import belavkin as bel
from mqoc import hjb_bloch as hjb
from mqoc import operators as ops
from mqoc import pontryagin as pmp
from mqoc.errors import DimensionMismatchError, NumericalBlowupError, RejectedInputError
from reference import (adjoint_generator, coherent_oracle_error, kraus_map_reference, oscillator,
                       qnd_filter_exact, qnd_oracle_error, record, tanh_oracle_error,
                       trajectory_cost_loop)

QUBIT_Z = ops.QuantumModel(H0=np.zeros((2, 2)), L=ops.SIGMA_Z)
MIXED = np.eye(2, dtype=complex) / 2
GROUND = np.diag([1.0, 0.0]).astype(complex)
EXCITED = np.diag([0.0, 1.0]).astype(complex)


def refuse_step(*args):
    raise AssertionError("the filter step ran")


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

    @pytest.mark.parametrize("name", ["normalize_each_step", "seed"])
    def test_removed_fields_are_unknown_keywords(self, name):
        # The filter has one step, so no repair flag is settable, and seeds go
        # to simulate_ensemble, the one generator, not to the config.
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
    ], ids=["empty", "negative", "2**64", "float", "2-D"])
    def test_rejected_before_any_step(self, make, monkeypatch):
        monkeypatch.setattr(bel._KrausStep, "advance", refuse_step)
        with pytest.raises(RejectedInputError, match="seed"):
            make(self.CFG)

    def test_accepts_range_and_numpy_integers(self):
        top = np.uint64(2**64 - 1)
        want = bel.simulate_ensemble(QUBIT_Z, None, self.CFG, MIXED, [0])[4][0]
        for seeds in (range(2), np.array([0, 1]), [np.int32(0), top]):
            w = bel.simulate_ensemble(QUBIT_Z, None, self.CFG, MIXED, seeds)[4]
            assert np.array_equal(w[0], want)


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

    def test_ensemble_rows_are_each_seeds_stream(self):
        # The ensemble draws every seed's noise from one generator whose Philox
        # state it resets per seed: each row of W is still that seed's own
        # stream, accumulated in step order, whatever seeds came before it.
        cfg, seeds = bel.SmeConfig(dt=1e-2, T=0.5), [11, 0, 2**64 - 1]
        w = bel.simulate_ensemble(QUBIT_Z, None, cfg, MIXED, seeds)[4]
        for row, seed in zip(w, seeds):
            want = np.zeros(cfg.n_steps + 1)
            for k, dw in enumerate(bel.noise_increments(seed, cfg.n_steps, cfg.dt)):
                want[k + 1] = want[k] + dw
            assert np.array_equal(row, want)


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

    def test_repeat_calls_on_one_model_match_fresh_models(self):
        # The model carries no filter state: repeated calls on one model, with
        # dt and the control changing, give the states of a fresh model per
        # call bit for bit, and leave the model's attributes as they were.
        def qubit():
            return ops.QuantumModel(H0=0.4 * ops.SIGMA_X, L=ops.SIGMA_Z + 0.4j * ops.SIGMA_Y,
                                    Hc=(ops.SIGMA_Y,))

        calls = [(dt, u) for dt in (1e-3, 1e-2, 1e-3) for u in (0.3, 0.3, -0.5)]
        fresh = [MIXED]
        for dt, u in calls:
            fresh.append(bel.step_sme(fresh[-1], [u], 0.05, qubit(), bel.SmeConfig(dt=dt, T=dt)))
        model, rho = qubit(), MIXED
        attributes = set(vars(model))
        for (dt, u), want in zip(calls, fresh[1:]):
            rho = bel.step_sme(rho, [u], 0.05, model, bel.SmeConfig(dt=dt, T=dt))
            assert np.array_equal(rho, want)
        assert set(vars(model)) == attributes

    def test_stack_of_states_is_a_dimension_mismatch(self, monkeypatch):
        # Before: numpy's bare "operands could not be broadcast" ValueError.
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=ops.SIGMA_Z, Hc=(ops.SIGMA_Y,))
        monkeypatch.setattr(bel._KrausStep, "advance", refuse_step)
        with pytest.raises(DimensionMismatchError, match="rho"):
            bel.step_sme(np.stack([GROUND, MIXED]), [0.0], 0.1, model,
                         bel.SmeConfig(dt=0.1, T=0.2))

    @pytest.mark.parametrize("dW", [np.array([0.1, 0.2]), np.array([0.1]), 0.1j, np.nan,
                                    "0.1", None],
                             ids=["vector", "1-vector", "complex", "nan", "string", "none"])
    def test_rejects_dw_that_is_not_one_finite_real(self, dW):
        # Before: the vector raised numpy's bare "truth value ... ambiguous"
        # ValueError, and the string and None a bare TypeError.
        with pytest.raises(RejectedInputError, match="dW"):
            bel.step_sme(MIXED, [], dW, QUBIT_Z, bel.SmeConfig(dt=1e-3, T=1.0))

    @pytest.mark.parametrize("name", ["driven_qubit", "oscillator"])
    def test_matches_one_trajectory_ensemble_bitwise(self, name):
        # Both entry points run one step.  The driven qubit, with an extra
        # channel and a constant control, takes the dense half step; the
        # d = 21 oscillator the diagonal one.
        if name == "driven_qubit":
            model = TestKrausPhysicality.MODELS["qubit"][0]
            rho0, u, n = 0.5 * (np.eye(2) + 0.3 * ops.SIGMA_X - 0.4 * ops.SIGMA_Z), [0.7], 200
        else:
            (model, rho0), u, n = oscillator()[:2], [], 50
        cfg, seed = bel.SmeConfig(dt=1e-2, T=n * 1e-2), 7
        _, states, _, _, _ = bel.simulate_ensemble(model, lambda t, rho, past: u, cfg, rho0,
                                                   [seed])
        rho = rho0
        for k, dW in enumerate(bel.noise_increments(seed, n, cfg.dt)):
            rho = bel.step_sme(rho, u, dW, model, cfg)
            assert np.array_equal(rho, states[0, k + 1])


class TestGenerateRecord:
    """Records packed from `simulate_ensemble`, the one trajectory generator."""

    def test_deterministic_from_seed(self):
        cfg = bel.SmeConfig(dt=1e-3, T=0.05)
        a = record(QUBIT_Z, None, cfg, MIXED, 42)
        b = record(QUBIT_Z, None, cfg, MIXED, 42)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.record_y, b.record_y)
        assert np.array_equal(a.innovations_W, b.innovations_W)

    def test_free_record_is_random_walk(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.zeros((2, 2)))
        cfg = bel.SmeConfig(dt=1e-3, T=0.2)
        traj = record(model, None, cfg, MIXED, 3)
        assert np.allclose(traj.states, MIXED, atol=1e-14)
        # y has pure Normal(0, dt) increments: y == W.
        assert np.allclose(traj.record_y, traj.innovations_W)
        incr = np.diff(traj.record_y)
        assert abs(np.var(incr) / cfg.dt - 1.0) < 0.5

    def test_ensemble_matches_single_runs(self):
        cfg = bel.SmeConfig(dt=1e-3, T=0.05)
        times, states, controls, y, w = bel.simulate_ensemble(
            QUBIT_Z, None, cfg, MIXED, [11, 12])
        solo = record(QUBIT_Z, None, cfg, MIXED, 12)
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

        cfg = bel.SmeConfig(dt=0.25, T=1.0)
        bel.simulate_ensemble(QUBIT_Z, probe, cfg, MIXED, [0])
        # At step k the policy sees exactly k+1 past record entries.
        assert [n for (_, n, _) in seen] == [1, 2, 3, 4, 5]


    def test_misshapen_start_state_is_a_dimension_mismatch(self):
        # Before: the bare RejectedInputError base class.
        with pytest.raises(DimensionMismatchError, match="rho0"):
            bel.simulate_ensemble(QUBIT_Z, None, bel.SmeConfig(dt=0.1, T=0.2),
                                  np.eye(3) / 3, [0])

    def test_stack_of_start_states_is_a_dimension_mismatch(self, monkeypatch):
        # Before: numpy's bare "could not broadcast" ValueError.  Every trajectory
        # starts from the one state rho0.
        monkeypatch.setattr(bel._KrausStep, "advance", refuse_step)
        with pytest.raises(DimensionMismatchError, match="rho0"):
            bel.simulate_ensemble(QUBIT_Z, None, bel.SmeConfig(dt=0.1, T=0.2),
                                  np.stack([GROUND, MIXED]), [0])


class TestTrajectoryRecordTimes:
    @staticmethod
    def pack(times):
        n = len(times)
        return bel.TrajectoryRecord(np.asarray(times, dtype=float),
                                    np.broadcast_to(MIXED, (n, 2, 2)), np.zeros((n, 0)),
                                    np.zeros(n), np.zeros(n), 0)

    @pytest.mark.parametrize("times", [
        [0.0], [], [0.0, 0.1, 0.2, 0.3, 1.0], [0.0, 0.2, 0.1, 0.3], [0.0, 0.1, 0.1, 0.2],
        [0.0, -0.1, -0.2], [0.0, 0.1, np.nan, 0.3], [0.0, 0.1, 0.2, np.inf],
    ], ids=["one_time", "no_time", "uneven", "unsorted", "repeated", "decreasing", "nan",
            "inf"])
    def test_refuses_bad_time_grid(self, times):
        # Before: a constant cost of 1 on [0, 1] summed to 0.4 for the uneven
        # times and to 2.0 for unsorted ones.
        with pytest.raises(RejectedInputError, match="times"):
            self.pack(times)

    def test_accepts_simulated_grids(self):
        for T, n in ((1.0, 1), (0.1, 100), (5.0, 5000)):
            traj = self.pack(np.linspace(0.0, T, n + 1))
            assert traj.n_steps == n


class TestTrajectoryRecordShapes:
    @pytest.mark.parametrize("states, controls", [
        ((3, 3), (3, 0)), ((3, 2, 3), (3, 0)), ((3, 2, 2, 1), (3, 0)), ((3, 2, 2), (3,)),
        ((3, 2, 2), (3, 1, 1)),
    ], ids=["flat_states", "non_square_states", "4d_states", "flat_controls", "3d_controls"])
    def test_refuses_misshapen_states_and_controls(self, states, controls):
        # Before: only the first axis was checked, and (3, 3) states were accepted
        # and written as 9 values a row under a 21-column CSV header.
        with pytest.raises(DimensionMismatchError, match=r"\(n, d, d\) and controls \(n, k\)"):
            bel.TrajectoryRecord(np.linspace(0.0, 0.1, 3), np.zeros(states), np.zeros(controls),
                                 np.zeros(3), np.zeros(3), 0)

    def test_accepts_any_dimension_and_control_count(self):
        for d, k in ((2, 0), (3, 2), (21, 1)):
            traj = bel.TrajectoryRecord(np.linspace(0.0, 0.1, 3), np.zeros((3, d, d)),
                                        np.zeros((3, k)), np.zeros(3), np.zeros(3), 0)
            assert traj.states.shape == (3, d, d) and traj.controls.shape == (3, k)


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

        monkeypatch.setattr(bel._KrausStep, "advance", step)
        with pytest.raises(RejectedInputError, match="non-finite"):
            bel.simulate_ensemble(self.MODEL, lambda t, rho, past: [np.nan], self.CFG, MIXED,
                                  [0])


class TestTrajectoryInvariants:
    def test_trace_and_positivity(self):
        cfg = bel.SmeConfig(dt=1e-3, T=1.0)
        traj = record(QUBIT_Z, None, cfg, MIXED, 5)
        traces = np.einsum("tij->t", traj.states * np.eye(2))
        assert np.max(np.abs(traces - 1.0)) <= 1e-12
        eigs = np.linalg.eigvalsh(traj.states)
        assert eigs.min() >= -1e-10

    def test_purity_preserved_for_pure_start(self):
        # Measurement-dominated regime: a driven qubit pinned near a pointer
        # state, where Euler positivity overshoot stays O(dt).
        model = ops.QuantumModel(H0=0.06 * ops.SIGMA_X, L=np.sqrt(0.5) * ops.SIGMA_Z)
        cfg = bel.SmeConfig(dt=1e-4, T=1.0)
        traj = record(model, None, cfg, GROUND, 9)
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
    """QND measurement of the qubit against the tanh oracle (`tanh_oracle_error`)."""

    def test_error_bound_and_strong_order(self):
        # Measured: 0.0022 at dt = 1e-2 and 0.00025 at dt = 1e-3, an order of 0.95.
        coarse, fine = tanh_oracle_error(1e-2), tanh_oracle_error(1e-3)
        assert fine <= 1e-3
        assert 0.8 <= np.log10(coarse / fine) <= 1.2


def product_kernels(monkeypatch):
    """The kernel of every product of the filter step from here on: "diagonal" for each
    `bel._hermitian_outer` call (a diagonal M's map makes one per call of `measure`, and
    a diagonal half step one per new phase matrix), else for each `np.matmul` call (a
    dense M's map makes two per call of `measure`) "matmul", or "real matmul" when both
    factors are real (a real M on float views; `bel._KrausStep`)."""
    kernels, matmul, outer = [], np.matmul, bel._hermitian_outer

    def counted(a, b, **kw):
        kernels.append("matmul" if np.iscomplexobj(a) or np.iscomplexobj(b) else "real matmul")
        return matmul(a, b, **kw)

    def counted_outer(m, out=None):
        kernels.append("diagonal")
        return outer(m, out)

    monkeypatch.setattr(np, "matmul", counted)
    monkeypatch.setattr(bel, "_hermitian_outer", counted_outer)
    return kernels


class TestKrausQndOracleAnyDim:
    """H = n^ and L = sqrt(kappa) n^ from a mixed state with coherences: the filter on
    its own record against `qnd_filter_exact` (`qnd_oracle_error`).  Diagonal, M is
    diagonal and the map is one elementwise product with `bel._hermitian_outer`; rotated
    by a fixed random unitary, M is dense and complex, and both d run the batched matmul."""

    KERNELS = {(3, False): "diagonal", (8, False): "diagonal", (3, True): "matmul",
               (8, True): "matmul"}

    @pytest.mark.parametrize("dim, rotated", sorted(KERNELS))
    def test_error_bound_and_strong_order(self, dim, rotated, monkeypatch):
        # Measured, 200 seeds, dt = 1e-2 and 1e-3 (order):
        #   d = 3: 1.2e-4 and 1.1e-5 (1.02); rotated 8.7e-5 and 8.2e-6 (1.03).
        #   d = 8: 2.1e-3 and 2.1e-4 (1.01); rotated 8.8e-4 and 8.9e-5 (1.00).
        # Without the (1/2) L^2 (dy^2 - dt) term of M, d = 8: 1.4e-2 and 4.1e-3, order 0.53.
        kernels = product_kernels(monkeypatch)
        coarse = qnd_oracle_error(dim, 0.05, 1e-2, 200, rotated)
        fine = qnd_oracle_error(dim, 0.05, 1e-3, 200, rotated)
        assert set(kernels) == {self.KERNELS[dim, rotated]}
        assert fine <= 5e-4
        assert 0.8 <= np.log10(coarse / fine) <= 1.2

    def test_ten_thousand_amplitude_steps(self, monkeypatch):
        # H = n^ and L = sqrt(0.05) n^ at d = 8, dt = 1e-4, T = 1, 16 seeds: 10^4 steps
        # on the amplitudes, formed once, at the end.  Measured: trace error at most
        # 3.3e-16 and oracle error 1.9e-5, against the any-d bound of 5e-4 above.
        kernels = product_kernels(monkeypatch)
        h = np.arange(8.0)
        l = np.sqrt(0.05) * h
        rho0 = TestDiagonalHalfStep.states(8, 1, 8)[0]
        model = ops.QuantumModel(H0=np.diag(h), L=np.diag(l))
        _, states, _, y, _ = bel.simulate_ensemble(model, None, bel.SmeConfig(dt=1e-4, T=1.0),
                                                   rho0, range(16), keep_states=False)
        final = states[:, -1]
        assert kernels == ["diagonal"]
        assert np.max(np.abs(np.einsum("sii->s", final) - 1.0)) <= 1e-14
        assert np.array_equal(final, ops.dagger(final))
        exact = qnd_filter_exact(rho0, h, l, 1.0, y[:, -1])
        assert np.mean(np.max(np.abs(final - exact), axis=(1, 2))) <= 5e-4

    def test_photon_number_at_d21(self):
        # L = sqrt(0.005) n^, 64 seeds: measured 9.7e-4 at dt = 1e-2 and 1.1e-4 at
        # dt = 1e-3, an order of 0.95; the bound is 2.3 times the measured fine error.
        # Without the (1/2) L^2 (dy^2 - dt) term of M: 5.5e-3 and 1.9e-3, order 0.47.
        coarse = qnd_oracle_error(21, 0.005, 1e-2, 64)
        fine = qnd_oracle_error(21, 0.005, 1e-3, 64)
        assert fine <= 2.5e-4
        assert 0.8 <= np.log10(coarse / fine) <= 1.2


class TestBlowup:
    """`simulate_ensemble` raises NumericalBlowupError at the first step whose trace
    before normalisation is not finite and positive, naming that step, its time and the
    first seed whose state failed.  numpy's overflow warnings on the way are silenced."""

    @pytest.mark.parametrize("L", [1e100 * ops.SIGMA_Z, 1e100 * ops.SIGMA_X],
                             ids=["diagonal", "dense"])
    def test_overflowing_coupling_fails_at_the_first_step(self, L):
        # M is finite, about 1e198, so the first step's trace overflows to +inf, where
        # 1 / tr = 0 is finite: the check reads tr itself.
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=L)
        cfg = bel.SmeConfig(dt=1e-2, T=0.1)
        with np.errstate(all="ignore"), pytest.raises(NumericalBlowupError,
                                                      match=r"step 0 \(seed 11\)") as err:
            bel.simulate_ensemble(model, None, cfg, MIXED, [11, 12], keep_states=False)
        assert err.value.step_index == 0 and err.value.t == cfg.dt

    @pytest.mark.parametrize("Hc, L", [(ops.SIGMA_Z, ops.SIGMA_Z), (ops.SIGMA_X, ops.SIGMA_Z),
                                       (ops.SIGMA_X, ops.SIGMA_X)],
                             ids=["diagonal_phases", "dense_half_step", "dense"])
    def test_one_trajectory_failing_mid_run(self, Hc, L):
        # From t = 0.03, trajectory 1's control 1e308 makes H(u) = 2e308 Hc = inf, so its
        # half step is NaN: as phases on the amplitudes, as a dense U on the stack of a
        # diagonal M, and with a dense M.  The first half step of step 3 already carries
        # it into that step's trace.
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=L, Hc=(2.0 * Hc,))
        cfg = bel.SmeConfig(dt=1e-2, T=0.1)

        def policy(t, rho, past):
            return np.where((np.arange(len(rho)) == 1) & (t > 0.025), 1e308, 0.0)[:, None]

        with np.errstate(all="ignore"), pytest.raises(NumericalBlowupError,
                                                      match=r"step 3 \(seed 12\)") as err:
            bel.simulate_ensemble(model, policy, cfg, MIXED, [11, 12, 13], keep_states=False)
        assert err.value.step_index == 3 and err.value.t == pytest.approx(0.04, abs=1e-15)


def euler_step(rho, dw, model, dt):
    """Euler-Maruyama plus projection, the repaired step the Kraus step must beat."""
    return ops.project_physical(rho + ops.lindblad_drift(model, [], rho) * dt
                                + ops.fluctuation(model.L, rho) * dw)


def kraus_step(rho, dw, model, dt):
    return bel.step_sme(rho, [], dw, model, bel.SmeConfig(dt=dt, T=dt))


def held_kraus_step(model, dt):
    """`kraus_step` through one `_KrausStep` held for every call, which carries the
    state from each call to the next: the same step, without building a new one per
    call.  Each call's rho is the state the previous call returned."""
    held, u = [], np.zeros((1, 0))

    def step(rho, dw, model, dt):
        if not held:
            held.append(bel._KrausStep(model, dt, rho[None]))
        held[0].advance(u, np.array([dw]))
        return held[0].state()[0]

    return step


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
        model, rho0, quads = oscillator()[:3]
        T, fine, ratio = 0.3, 1e-4, 10
        for seed in range(3):
            dW = np.random.default_rng(seed).normal(0.0, np.sqrt(fine), int(round(T / fine)))
            ref = self.quadrature_path(model, rho0, quads, held_kraus_step(model, fine), dW,
                                       fine)[::ratio]
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
        # L = -i sqrt(0.5) a: a complex M, by the batched matmul at d = 8 and d = 3.
        "complex_8": (ops.QuantumModel(H0=oscillator(8).model.H0,
                                       L=-1j * oscillator(8).model.L), oscillator(8).rho0),
        "complex_3": (ops.QuantumModel(H0=oscillator(3).model.H0,
                                       L=-1j * oscillator(3).model.L), oscillator(3).rho0),
        # The closed-loop workload's filter: QND measurement, so a diagonal M.
        "closed_loop_qubit": (ops.QuantumModel(H0=np.zeros((2, 2)),
                                               L=np.sqrt(0.5) * ops.SIGMA_Z, Hc=(ops.SIGMA_Y,)),
                              0.5 * (np.eye(2) + 0.3 * ops.SIGMA_X + 0.2 * ops.SIGMA_Z)),
        # The ensemble workload's filter: QND measurement with H = 0 and no
        # control, so a diagonal M and no control rows to compare.
        "qnd_qubit": (ops.QuantumModel(H0=np.zeros((2, 2)), L=np.sqrt(0.5) * ops.SIGMA_Z),
                      0.5 * (np.eye(2) + 0.3 * ops.SIGMA_X + 0.2 * ops.SIGMA_Z)),
        # Fully diagonal with a control: M and every U(u) are diagonal, so the batch
        # stays amplitudes between reads, the half steps acting as phases on them.
        "diagonal_qubit": (ops.QuantumModel(H0=0.3 * ops.SIGMA_Z, L=np.sqrt(0.5) * ops.SIGMA_Z,
                                            Hc=(ops.SIGMA_Z,)),
                           0.5 * (np.eye(2) + 0.3 * ops.SIGMA_X + 0.2 * ops.SIGMA_Z)),
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
        step = bel._KrausStep(model, cfg.dt, rho[None])
        step.measure(np.array([0.05]))
        kraus = step.state()
        assert np.array_equal(out, ((kraus + ops.dagger(kraus)) / 2.0)[0])

    @pytest.mark.parametrize("name, feedback, keep_states", [
        ("oscillator", "record", True), ("complex_8", "record", True),
        ("complex_3", "record", True), ("qubit", "record", True), ("qubit", "state", True),
        ("closed_loop_qubit", "record", True), ("closed_loop_qubit", "state", True),
        ("qnd_qubit", "record", True), ("qnd_qubit", "record", False),
        ("diagonal_qubit", "state", True), ("diagonal_qubit", "state", False)],
        ids=["oscillator", "complex_8", "complex_3", "qubit", "qubit_state_feedback",
             "closed_loop_qubit", "closed_loop_qubit_state_feedback", "qnd_qubit",
             "qnd_qubit_final_only", "diagonal_qubit_state_feedback",
             "diagonal_qubit_state_feedback_final_only"])
    def test_batch_equals_single_runs_bitwise(self, name, feedback, keep_states):
        # With keep_states False and no policy, nothing reads the states before the end.
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
        batch = bel.simulate_ensemble(model, policy, cfg, rho0, seeds, keep_states)
        for i, seed in enumerate(seeds):
            solo = bel.simulate_ensemble(model, policy, cfg, rho0, [seed], keep_states)
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


def matmul_calls(monkeypatch):
    """The shapes of the first operand of every `np.matmul` call from here on."""
    calls = []
    matmul = np.matmul

    def counted(a, b, **kw):
        calls.append(a.shape)
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "matmul", counted)
    return calls


class TestMeasureFormulations:
    """`_KrausStep.measure` is one map, M rho M^dag: for a diagonal M one elementwise
    product rho * P (`bel._hermitian_outer`), else two batched matmuls, real when L is
    real and complex for complex_3 and complex_8 alone (the qubit's L = sigma_z +
    0.4 i sigma_y is a real matrix); under each kernel it is `kraus_map_reference`.
    diagonal_8's extra channel K = 0.4 a has a diagonal K^dag K, so M stays diagonal;
    dense_loss_8's L is diagonal too, but K = 0.3 (a + a^dag) makes I + dt loss dense,
    and so M.  complex_diagonal_3's L is diagonal but not Hermitian, so M rho M^dag
    differs from M^dag rho M there."""

    MODELS = {
        "qubit": TestKrausPhysicality.MODELS["qubit"][0],
        "oscillator_12": oscillator(12)[0],
        "oscillator_21": oscillator(21)[0],
        "complex_8": TestKrausPhysicality.MODELS["complex_8"][0],
        "complex_3": TestKrausPhysicality.MODELS["complex_3"][0],
        "non_normal_8": ops.QuantumModel(
            H0=np.zeros((8, 8)), L=np.sqrt(0.3) * (ops.annihilation(8) + 0.2 * ops.annihilation(8)
                                                   @ ops.annihilation(8)),
            L_extra=(0.4 * ops.dagger(ops.annihilation(8)),)),
        "closed_loop_qubit": TestKrausPhysicality.MODELS["closed_loop_qubit"][0],
        "diagonal_8": ops.QuantumModel(H0=np.diag(np.arange(8.0)),
                                       L=np.sqrt(0.05) * np.diag(np.arange(8.0)),
                                       L_extra=(0.4 * ops.annihilation(8),)),
        "dense_loss_8": ops.QuantumModel(
            H0=np.diag(np.arange(8.0)), L=np.sqrt(0.05) * np.diag(np.arange(8.0)),
            L_extra=(0.3 * (ops.annihilation(8) + ops.dagger(ops.annihilation(8))),)),
        "complex_diagonal_3": ops.QuantumModel(H0=np.zeros((3, 3)),
                                               L=np.diag([0.5, 0.3j, -0.2 + 0.4j])),
    }
    DIAGONAL = {"closed_loop_qubit", "diagonal_8", "complex_diagonal_3"}
    COMPLEX = {"complex_3", "complex_8"}

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_formulations_agree(self, name, monkeypatch):
        model = self.MODELS[name]
        rho = TestDiagonalHalfStep.states(model.dim, 5, 7)
        dW = np.random.default_rng(5).normal(0.0, 0.1, 5)
        want, want_dy = kraus_map_reference(model, 1e-2, rho, dW)
        kernels = product_kernels(monkeypatch)
        step = bel._KrausStep(model, 1e-2, rho)
        dy, _ = step.measure(dW)
        got = step.state()
        kernel = "matmul" if name in self.COMPLEX else "real matmul"
        assert kernels == (["diagonal"] if name in self.DIAGONAL else [kernel] * 2)
        assert np.max(np.abs(got - want)) <= 1e-13
        assert np.max(np.abs(dy - want_dy)) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 21])
    def test_size_rule(self, dim, monkeypatch):
        # A dense M takes the batched matmul at every d, and the step holds its stack and
        # two (n, d, d) work arrays, m and work.  L = a gives a real M from the (3, d^2)
        # table of L, L^2 and a0, and two real products; L = -i a gives a complex M from
        # the (3, 2 d^2) float table, and two complex products.  A diagonal
        # M (L = n^, QND as in the d = 2 workloads) takes neither at any d: a measurement
        # leaves the stack as it was and holds the amplitudes a and populations q (d, n),
        # and reading the state forms it once, rho * a a^dag, into the batch-last work
        # array p (d, d, n).
        calls, n = matmul_calls(monkeypatch), 5
        kernels = product_kernels(monkeypatch)
        stack, dense = {"rho": (n, dim, dim)}, {"m": (n, dim, dim), "work": (n, dim, dim)}
        for L, work_shapes, measured, kernel, table in (
                (ops.annihilation(dim), dense, {}, "real matmul", (3, dim * dim)),
                (-1j * ops.annihilation(dim), dense, {}, "matmul", (3, 2 * dim * dim)),
                (np.diag(np.arange(dim, dtype=float)), {"p": (dim, dim, n)},
                 {"a": (dim, n), "q": (dim, n)}, "diagonal", None)):
            rho0 = np.broadcast_to(np.eye(dim) / dim, (n, dim, dim)).copy()
            step = bel._KrausStep(ops.QuantumModel(H0=np.zeros((dim, dim)), L=L), 1e-2, rho0)

            def work():
                return {k: v.shape for k, v in vars(step).items()
                        if isinstance(v, np.ndarray) and n in v.shape}

            assert work() == stack | work_shapes
            assert getattr(step.table, "shape", None) == table
            if table is not None:
                assert step.table.flags.c_contiguous and step.table.dtype == float
                assert np.iscomplexobj(step.m) == (kernel == "matmul")
            calls.clear()
            kernels.clear()
            step.measure(np.ones(n))
            assert work() == stack | work_shapes | measured
            assert (step.rho is rho0) == (kernel == "diagonal")
            assert kernels == [kernel] * (0 if kernel == "diagonal" else 2)
            rho = step.state()
            assert work() == stack | work_shapes
            assert calls == [(n, dim, dim)] * (2 * kernel.endswith("matmul"))
            assert kernels == [kernel] * (1 if kernel == "diagonal" else 2)
            assert np.allclose(np.einsum("nii->n", rho), 1.0)
            assert step.state() is rho


# (model, product kernels, dense Cayley solve) for `TestExactlyHermitian::test_every_kernel_path`
KERNEL_PATHS = [("qnd_qubit", {"diagonal"}, False), ("closed_loop_qubit", {"diagonal"}, True),
                ("qubit", {"real matmul"}, True),
                ("oscillator", {"diagonal", "real matmul"}, False),
                ("diagonal_qubit", {"diagonal"}, False),
                ("complex_8", {"diagonal", "matmul"}, False),
                ("complex_3", {"diagonal", "matmul"}, False)]


class TestExactlyHermitian:
    """Every state the filter returns is exactly Hermitian, `array_equal(rho, rho^dag)`:
    elementwise steps by construction (`bel._hermitian_outer`), a step with a dense product
    as its Hermitian part, and the start state made so once at entry."""

    QND_8 = ops.QuantumModel(H0=np.diag(np.arange(8.0)), L=np.sqrt(0.05) * np.diag(np.arange(8.0)))

    @staticmethod
    def skewed(rho):
        """rho plus an anti-Hermitian, trace-free defect: herm_defect 5e-13, which
        `ops.check_density` accepts (HERMITIAN_TOL = 1e-12)."""
        g = np.random.default_rng(len(rho)).normal(size=rho.shape)
        s = g + g.T - 2.0 * np.diag(np.diag(g))
        return rho + 2.5e-13j * s / np.max(np.abs(s))

    @pytest.mark.parametrize("name", ["qnd_qubit", "qnd_8", "complex_diagonal_3"])
    def test_exact_from_a_skewed_start(self, name):
        # Before: the start state was stored as given, 5e-13 from Hermitian, and
        # carried into the first step.
        model, rho0 = {
            "qnd_qubit": TestKrausPhysicality.MODELS["qnd_qubit"],
            "qnd_8": (self.QND_8, TestDiagonalHalfStep.states(8, 1, 8)[0]),
            "complex_diagonal_3": (TestMeasureFormulations.MODELS["complex_diagonal_3"],
                                   TestDiagonalHalfStep.states(3, 1, 3)[0]),
        }[name]
        start = self.skewed(rho0)
        assert np.max(ops.herm_defect(start)) == pytest.approx(5e-13, rel=1e-3)
        cfg = bel.SmeConfig(dt=1e-2, T=0.5)
        _, states, _, _, _ = bel.simulate_ensemble(model, None, cfg, start, range(4))
        assert np.array_equal(states, ops.dagger(states))
        one = bel.step_sme(start, [], 0.1, model, cfg)
        assert np.array_equal(one, ops.dagger(one))

    @pytest.mark.parametrize(
        "name, kernels, cayley, keep_states",
        [case + (keep,) for keep in (True, False) for case in KERNEL_PATHS],
        ids=[f"{name}-kernels{i}-{cayley}" + ("" if keep else "-final_only")
             for keep in (True, False) for i, (name, _, cayley) in enumerate(KERNEL_PATHS)])
    def test_every_kernel_path(self, name, kernels, cayley, keep_states, monkeypatch):
        # The diagonal M alone; a diagonal M with per-state dense half steps; a
        # diagonal M with per-state diagonal half steps under state feedback (phases
        # on the amplitudes); a real dense M at d = 2, with an extra channel; a real dense
        # M at d = 12, with the diagonal half step of H0 = a^dag a; and a complex one,
        # L = -i sqrt(0.5) a at d = 8 and d = 3.
        model, rho0 = TestKrausPhysicality.MODELS[name]
        seen, solves = product_kernels(monkeypatch), []
        solve = ops.cayley
        monkeypatch.setattr(ops, "cayley", lambda h, s: solves.append(h.shape) or solve(h, s))
        policy = None
        if name == "diagonal_qubit":
            def policy(t, rho, past):
                return -0.5 * ops.pauli_components(rho)[:, :1]
        elif model.n_controls:
            def policy(t, rho, past):
                return np.where(past.y[:, -1] > 0.0, 0.5, -1.0)[:, None]
        _, states, _, _, _ = bel.simulate_ensemble(model, policy, bel.SmeConfig(dt=1e-2, T=0.5),
                                                   rho0, range(6), keep_states)
        assert set(seen) == kernels and bool(solves) == cayley
        assert states.shape[1] == (51 if keep_states else 1)
        assert np.array_equal(states, ops.dagger(states))
        assert states.flags.c_contiguous


class TestCoherentOracle:
    """The damped, driven oscillator from a coherent state against its exact coherent
    path (`coherent_oracle_error`): the dense M's products with the diagonal half step
    (no drive) or the dense Cayley solve (u = 0.7).  It cannot see the dy terms of M."""

    @pytest.mark.parametrize("drive", [0.0, 0.7])
    def test_error_bound_and_strong_order(self, drive):
        # Measured, d = 12, 16 seeds, dt = 1e-2 and 1e-3 (order): no drive 6.4e-4 and
        # 6.2e-5 (1.01); u = 0.7: 5.8e-4 and 6.3e-5 (0.97).  The bound is 2.4 times the
        # measured fine error.
        coarse = coherent_oracle_error(12, 1e-2, drive)
        fine = coherent_oracle_error(12, 1e-3, drive)
        assert fine <= 1.5e-4
        assert 0.8 <= np.log10(coarse / fine) <= 1.2


def refuse_cayley(h, s):
    raise AssertionError("dense Cayley solve for a diagonal H(u)")


def dense_split_step(model, u, rho, dW, dt):
    """The split Kraus step with U from the dense `ops.cayley` solve."""
    U = ops.cayley(model.hamiltonian(u), dt / (4.0 * model.hbar))
    step = bel._KrausStep(model, dt, U @ rho @ ops.dagger(U))
    dy, _ = step.measure(dW)
    r = U @ step.state() @ ops.dagger(U)
    return (r + ops.dagger(r)) / 2.0, dy


class TestDiagonalHalfStep:
    QUBIT_Z_CONTROL = ops.QuantumModel(H0=0.3 * ops.SIGMA_Z, L=ops.SIGMA_Z + 0.4 * ops.SIGMA_X,
                                       Hc=(ops.SIGMA_Z,))

    @staticmethod
    def states(dim, n, seed):
        x = np.random.default_rng(seed).normal(size=(2, n, dim, dim))
        rho = (x[0] + 1j * x[1]) @ ops.dagger(x[0] + 1j * x[1])
        return rho / np.einsum("nii->n", rho)[:, None, None]

    @pytest.mark.parametrize("case", ["oscillator_shared", "qubit_per_state",
                                      "diagonal_8_extra_channel", "fully_diagonal_per_state"])
    def test_matches_dense_cayley(self, case, monkeypatch):
        # diagonal_8 has a diagonal M and an extra channel: its shared phases reach the
        # amplitudes, which are formed before the channel.  The fully diagonal qubit
        # keeps per-state phases and M on the amplitudes throughout.
        if case == "oscillator_shared":
            model, rho0 = oscillator()[:2]
            u = np.zeros((4, 0))
            rho = np.concatenate([rho0[None], self.states(21, 3, 1)])
        elif case == "diagonal_8_extra_channel":
            model, u = TestMeasureFormulations.MODELS["diagonal_8"], np.zeros((4, 0))
            rho = self.states(8, 4, 5)
        elif case == "fully_diagonal_per_state":
            model = TestKrausPhysicality.MODELS["diagonal_qubit"][0]
            u = np.array([[0.7], [-0.2], [1.3], [0.0]])
            rho = self.states(2, 4, 6)
        else:
            model = self.QUBIT_Z_CONTROL
            u = np.array([[0.7], [-0.2], [1.3], [0.0]])
            rho = self.states(2, 4, 2)
        dW, dt = np.array([0.03, -0.05, 0.01, 0.0]), 1e-2
        want, want_dy = dense_split_step(model, u, rho, dW, dt)
        monkeypatch.setattr(ops, "cayley", refuse_cayley)
        step = bel._KrausStep(model, dt, rho)
        dy, _ = step.advance(u, dW)
        got = step.state()
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
        step = bel._KrausStep(model, dt, rho)
        step.advance(u, dW)
        got = step.state()
        assert calls == [(2, 2, 2)]
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_zero_hamiltonian_is_skipped(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=ops.SIGMA_Z, Hc=(ops.SIGMA_Z,))
        step = bel._KrausStep(model, 1e-2, self.states(2, 3, 4))
        assert step.half_step(np.zeros((3, 1))) is None
        assert step.half_step(np.array([[0.0], [0.5], [0.0]])) is not None

    def test_no_policy_makes_the_zero_turn_once(self, monkeypatch):
        # u None (a run without a policy) means every control 0: its turn is made at the
        # first step and reused, made again after nonzero rows, and the run equals one
        # whose policy returns 0, whose rows are compared at every step.
        model, rho0 = TestKrausPhysicality.MODELS["qubit"]
        built, hamiltonian = [], ops.QuantumModel.hamiltonian
        monkeypatch.setattr(ops.QuantumModel, "hamiltonian",
                            lambda self, u: built.append(u) or hamiltonian(self, u))
        step = bel._KrausStep(model, 1e-2, self.states(2, 3, 4))
        zero = step.half_step(None)
        assert step.half_step(None) is zero and len(built) == 1
        assert step.half_step(np.full((3, 1), 0.5)) is not zero
        assert step.half_step(None) is not zero and len(built) == 3
        cfg = bel.SmeConfig(dt=1e-2, T=0.5)
        runs = [bel.simulate_ensemble(model, policy, cfg, rho0, range(4))
                for policy in (None, lambda t, rho, past: [0.0])]
        for got, want in zip(*runs):
            assert np.array_equal(got, want)


def cost_case(name):
    """(record, cost) for the stacked-against-loop cost comparison."""
    if name == "grid_policy":
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.sqrt(0.5) * ops.SIGMA_Z,
                                 Hc=(ops.SIGMA_Y,))
        cost = bel.quadratic_control_cost(0.5 * EXCITED, EXCITED, 0.2)
        u_grid = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
        spec = hjb.GridSpec(T=0.05, n_space=11, n_time=100)
        grid = hjb.solve_hjb_grid(model, cost, u_grid, spec)
        policy = pmp.GridPolicy(grid, model, cost, u_grid)
        rho0 = hjb.density_from_bloch([0.3, 0.0, 0.2])
        return record(model, policy, bel.SmeConfig(dt=5e-4, T=0.05), rho0, 17), cost
    if name == "t_dependent":
        cost = bel.CostSpec(running_op=lambda t, u: (1.0 + t) * EXCITED + t * t * np.eye(2),
                            terminal_op=EXCITED)
        return record(QUBIT_Z, None, bel.SmeConfig(dt=1e-2, T=1.0), MIXED, 1), cost
    if name == "two_controls":
        model = ops.QuantumModel(H0=0.3 * ops.SIGMA_Z, L=ops.SIGMA_Z,
                                 Hc=(ops.SIGMA_X, ops.SIGMA_Y))
        cost = bel.CostSpec(running_op=lambda t, u: u[0] ** 2 * GROUND + u[1] ** 2 * EXCITED,
                            terminal_op=GROUND)
        return record(model, lambda t, rho, past: [np.sin(5 * t), np.cos(3 * t)],
                      bel.SmeConfig(dt=1e-2, T=0.5), MIXED, 2), cost
    a = ops.annihilation(3)
    model = ops.QuantumModel(H0=ops.dagger(a) @ a, L=0.7 * a, Hc=(a + ops.dagger(a),))
    cost = bel.quadratic_control_cost(np.diag([0.0, 1.0, 2.0]), np.diag([0.0, 0.0, 1.0]), 0.1)
    return record(model, lambda t, rho, past: [np.cos(4 * t)], bel.SmeConfig(dt=1e-2, T=0.5),
                  np.eye(3) / 3, 3), cost


class TestTrajectoryCost:
    def _traj(self, T=1.0, dt=1e-2, seed=1):
        return record(QUBIT_Z, None, bel.SmeConfig(dt=dt, T=T), MIXED, seed)

    def test_terminal_identity_is_one(self):
        traj = self._traj()
        cost = bel.CostSpec(running_op=lambda t, u: np.zeros((2, 2)), terminal_op=np.eye(2))
        assert bel.trajectory_cost(traj, cost) == pytest.approx(1.0)

    def test_orthogonal_terminal_state(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.zeros((2, 2)))
        traj = record(model, None, bel.SmeConfig(dt=1e-2, T=0.1), GROUND, 2)
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

    @pytest.mark.parametrize("case", ["grid_policy", "t_dependent", "two_controls", "qutrit"])
    def test_matches_per_step_loop(self, case):
        traj, cost = cost_case(case)
        assert bel.trajectory_cost(traj, cost) == trajectory_cost_loop(traj, cost)

    def test_running_operator_checked_at_every_step(self):
        # PSD up to T/2 and -|1><1| after: the check at t = 0 alone passes it.
        traj = self._traj(T=1.0, dt=1e-2)
        cost = bel.CostSpec(running_op=lambda t, u: EXCITED if t < 0.5 else -EXCITED,
                            terminal_op=np.zeros((2, 2)))
        with pytest.raises(RejectedInputError, match="running_op is not positive semidefinite"):
            bel.trajectory_cost(traj, cost)

    @pytest.mark.parametrize("late", [np.eye(3), np.eye(1)], ids=["qutrit", "scalar"])
    def test_wrong_sized_running_operator_is_a_dimension_mismatch(self, late):
        # Every operator or only those after T/2: the step-by-step sum refused
        # both with this type, which stacking must keep.
        traj = self._traj(T=1.0, dt=1e-2)
        for switch in (0.0, 0.5):
            cost = bel.CostSpec(running_op=lambda t, u: EXCITED if t < switch else late,
                                terminal_op=np.zeros((2, 2)))
            with pytest.raises(DimensionMismatchError):
                bel.trajectory_cost(traj, cost)


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

    # Before: [0.2, 0.3] with one control charged (1/2)(0.2 + 0.3) u^2, and
    # eye(2) with one control raised numpy's bare matmul ValueError.
    @pytest.mark.parametrize("weight, u", [
        ([0.2, 0.3], [1.0]), (np.eye(2), [1.0]), ([0.2, 0.3], [1.0, 1.0, 1.0]),
        (np.eye(3), [1.0, 2.0]),
    ], ids=["vector_two_for_one", "matrix_two_for_one", "vector_two_for_three",
            "matrix_three_for_two"])
    def test_weight_must_fit_the_control_count(self, weight, u):
        cost = bel.quadratic_control_cost(0.5 * self.EXCITED, self.EXCITED, weight)
        with pytest.raises(DimensionMismatchError, match="control_weight"):
            cost.running(0.0, u)

    @pytest.mark.parametrize("u", [[], [1.0], [1.0, -2.0, 0.5]], ids=["k0", "k1", "k3"])
    def test_scalar_weight_serves_any_control_count(self, u):
        cost = bel.quadratic_control_cost(0.5 * self.EXCITED, self.EXCITED, 0.2)
        penalty = 0.1 * float(np.sum(np.square(u)))
        assert np.allclose(cost.running(0.0, u), 0.5 * self.EXCITED + penalty * np.eye(2))


class TestFilterObservableCheck:
    def test_identity_observable(self):
        traj = record(QUBIT_Z, None, bel.SmeConfig(dt=1e-3, T=0.2), MIXED, 3)
        assert bel.filter_observable_check(traj, np.eye(2), QUBIT_Z) < 1e-10

    def test_static_model(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.zeros((2, 2)))
        traj = record(model, None, bel.SmeConfig(dt=1e-3, T=0.2), MIXED, 3)
        assert bel.filter_observable_check(traj, ops.SIGMA_Z, model) < 1e-10

    @pytest.mark.parametrize("X", [np.eye(3), np.eye(2)[None], np.ones((2, 3)), 1.0],
                             ids=["3x3", "stacked", "2x3", "scalar"])
    def test_refuses_x_not_d_by_d(self, X):
        traj = record(QUBIT_Z, None, bel.SmeConfig(dt=1e-2, T=0.1), MIXED, 3)
        with pytest.raises(DimensionMismatchError):
            bel.filter_observable_check(traj, X, QUBIT_Z)

    def test_qubit_discrepancy_small(self):
        # Nonzero because the split Kraus step differs from the raw
        # Euler-Maruyama recursion by higher-order terms and its normalisation
        # (0.0091 at most over these seeds); well under the coarse tolerance.
        model = ops.QuantumModel(H0=0.25 * ops.SIGMA_X, L=np.sqrt(0.5) * ops.SIGMA_Z)
        for seed in range(10):
            traj = record(model, None, bel.SmeConfig(dt=1e-3, T=1.0), GROUND, seed)
            assert bel.filter_observable_check(traj, ops.SIGMA_Z, model) <= 5e-2


    def test_matches_heisenberg_reference(self):
        # The recursion's coefficients along the stored states, taken from the
        # Heisenberg-picture generator one step at a time.
        model = ops.QuantumModel(
            H0=0.3 * ops.SIGMA_X, L=0.4 * ops.SIGMA_Z + 0.2j * ops.SIGMA_Y + 0.1 * ops.SIGMA_X,
            Hc=(ops.SIGMA_Y,), L_extra=(0.3 * np.array([[0.0, 1.0], [0.0, 0.0]]),))
        cfg = bel.SmeConfig(dt=1e-3, T=0.3)
        traj = record(model, lambda t, rho, past: [np.sin(7 * t)], cfg, GROUND, 5)
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
        traj = record(QUBIT_Z, None, bel.SmeConfig(dt=0.05, T=0.2), MIXED, 4)
        path = tmp_path / "traj.csv"
        bel.write_trajectory_csv(traj, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:3] == ["t", "y", "W"]
        assert "rho_re_0_0" in header and "rho_im_1_1" in header
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (5, len(header))
        assert np.allclose(data[:, 0], traj.times)

    def test_record_of_lists_is_kept_as_arrays(self, tmp_path):
        # Before: the lists were kept as given, and writing raised
        # AttributeError ('list' object has no attribute 'shape').
        traj = record(QUBIT_Z, None, bel.SmeConfig(dt=0.05, T=0.2), MIXED, 4)
        fields = ("times", "states", "controls", "record_y", "innovations_W")
        listed = bel.TrajectoryRecord(*(getattr(traj, f).tolist() for f in fields), traj.seed)
        for f in fields:
            assert np.array_equal(getattr(listed, f), getattr(traj, f))
        bel.write_trajectory_csv(traj, tmp_path / "arrays.csv")
        bel.write_trajectory_csv(listed, tmp_path / "lists.csv")
        assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()
