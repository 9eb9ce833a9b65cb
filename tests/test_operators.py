import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mqoc import operators as ops
from mqoc.errors import DegenerateStateError, DimensionMismatchError, RejectedInputError


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


class TestCommutator:
    def test_pauli_algebra(self):
        comm = ops.SIGMA_X @ ops.SIGMA_Y - ops.SIGMA_Y @ ops.SIGMA_X
        assert np.allclose(comm, 2j * ops.SIGMA_Z)

    def test_ladder_pair_truncated_fock(self):
        # Oracle: build the cutoff-20 ladder matrices and multiply.
        dim = 21
        a = ops.annihilation(dim)
        comm = a @ ops.dagger(a) - ops.dagger(a) @ a
        # Identity away from the truncation edge; the corner absorbs -(dim-1).
        assert np.allclose(comm[:-1, :-1], np.eye(dim - 1), atol=1e-12)
        assert np.isclose(comm[-1, -1].real, -(dim - 1))


class TestLindbladDrift:
    def test_all_zero_model(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.zeros((2, 2)))
        w = ops.lindblad_drift(model, [], np.eye(2) / 2)
        assert np.allclose(w, 0)

    def test_trace_free_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dim = rng.integers(2, 5)
            model = ops.QuantumModel(
                H0=random_hermitian(rng, dim),
                L=rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
                Hc=(random_hermitian(rng, dim),),
                L_extra=(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),),
            )
            rho = random_density(rng, dim)
            w = ops.lindblad_drift(model, rng.normal(size=1), rho)
            assert abs(np.trace(w)) < 1e-12
            assert np.max(np.abs(w - w.conj().T)) < 1e-12

    def test_maximally_mixed_commuting_channel(self):
        # rho = I/2 commutes with L = sigma_z, so the drift vanishes entirely.
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=ops.SIGMA_Z)
        w = ops.lindblad_drift(model, [], np.eye(2) / 2)
        assert np.allclose(w, 0, atol=1e-14)


class TestFluctuation:
    def test_pointer_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(ops.fluctuation(ops.SIGMA_Z, rho), 0, atol=1e-14)

    def test_maximally_mixed(self):
        sig = ops.fluctuation(ops.SIGMA_Z, np.eye(2, dtype=complex) / 2)
        assert np.allclose(sig, ops.SIGMA_Z)

    def test_trace_free_and_hermitian_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = rng.integers(2, 6)
            L = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = random_density(rng, dim)
            sig = ops.fluctuation(L, rho)
            assert abs(np.trace(sig)) < 1e-12
            assert np.max(np.abs(sig - sig.conj().T)) < 1e-12


class TestExpectation:
    def test_identity_gives_trace(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 4)
        assert np.isclose(ops.expectation(rho, np.eye(4)), 1.0)

    def test_pauli_values(self):
        ground = np.diag([1.0, 0.0]).astype(complex)
        assert np.isclose(ops.expectation(ground, ops.SIGMA_Z).real, 1.0)
        assert np.isclose(ops.expectation(np.eye(2) / 2, ops.SIGMA_X), 0.0)

    def test_linear_in_both_arguments(self):
        rng = np.random.default_rng(3)
        rho1, rho2 = random_density(rng, 3), random_density(rng, 3)
        x1, x2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        a, b = 0.3, 0.7
        lhs = ops.expectation(rho1, a * x1 + b * x2)
        rhs = a * ops.expectation(rho1, x1) + b * ops.expectation(rho1, x2)
        assert abs(lhs - rhs) < 1e-10
        mix = a * rho1 + (1 - a) * rho2
        lhs = ops.expectation(mix, x1)
        rhs = a * ops.expectation(rho1, x1) + (1 - a) * ops.expectation(rho2, x1)
        assert abs(lhs - rhs) < 1e-10

    def test_real_for_hermitian(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 5)
        x = random_hermitian(rng, 5)
        assert abs(ops.expectation(rho, x).imag) < 1e-12


class TestProjectPhysical:
    def test_fixed_point(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 4)
        assert np.allclose(ops.project_physical(rho), rho, atol=1e-12)

    def test_clips_then_renormalizes(self):
        out = ops.project_physical(np.diag([1.1, -0.1]).astype(complex))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_renormalizes(self):
        out = ops.project_physical(np.diag([0.6, 0.6]).astype(complex))
        assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(rng, 4) * 0.01 + np.eye(4) / 4
        once = ops.project_physical(m)
        twice = ops.project_physical(once)
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_rejects_severely_nonhermitian(self):
        m = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
        with pytest.raises(RejectedInputError):
            ops.project_physical(m)

    def test_degenerate_trace(self):
        with pytest.raises(DegenerateStateError):
            ops.project_physical(np.diag([-1.0e-3, 0.0]).astype(complex) * 0.01)

    def test_batched(self):
        rng = np.random.default_rng(7)
        stack = np.stack([random_density(rng, 2) for _ in range(5)])
        stack[0] = np.diag([1.1, -0.1])
        out = ops.project_physical(stack)
        assert out.shape == (5, 2, 2)
        assert np.allclose(out[0], np.diag([1.0, 0.0]), atol=1e-12)


class TestQuantumModel:
    def test_rejects_nonhermitian_h0(self):
        with pytest.raises(RejectedInputError):
            ops.QuantumModel(H0=np.array([[0, 1], [0, 0]], dtype=complex), L=np.zeros((2, 2)))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ops.QuantumModel(H0=np.zeros((2, 2)), L=np.zeros((3, 3)))

    def test_rejects_oversize(self):
        n = ops.MAX_DIM + 1
        with pytest.raises(RejectedInputError):
            ops.QuantumModel(H0=np.zeros((n, n)), L=np.zeros((n, n)))

    def test_hamiltonian_assembly(self):
        model = ops.QuantumModel(H0=ops.SIGMA_Z, L=np.zeros((2, 2)), Hc=(ops.SIGMA_X,))
        h = model.hamiltonian([0.5])
        assert np.allclose(h, ops.SIGMA_Z + 0.5 * ops.SIGMA_X)

    def test_hamiltonian_rows_equal_row_by_row(self):
        model = ops.QuantumModel(H0=ops.SIGMA_Z, L=np.zeros((2, 2)),
                                 Hc=(ops.SIGMA_X, ops.SIGMA_Y))
        u = np.random.default_rng(0).normal(size=(5, 2))
        h = model.hamiltonian(u)
        assert h.shape == (5, 2, 2)
        for row, hi in zip(u, h):
            assert np.array_equal(hi, model.hamiltonian(row))
        with pytest.raises(DimensionMismatchError):
            model.hamiltonian(np.zeros((5, 3)))
        with pytest.raises(RejectedInputError, match="non-finite"):
            model.hamiltonian([[0.1, 0.2], [np.nan, 0.0]])


    @pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf, 1j, [1.0, 2.0]],
                             ids=["zero", "negative", "nan", "inf", "complex", "vector"])
    def test_rejects_hbar_that_is_not_one_finite_positive_number(self, hbar):
        # Before: nan was accepted and the step then blew up, inf was accepted
        # and silently dropped H, and complex and vector values raised bare
        # TypeErrors.
        with pytest.raises(RejectedInputError, match="hbar"):
            ops.QuantumModel(H0=ops.SIGMA_X, L=ops.SIGMA_Z, hbar=hbar)

    @pytest.mark.parametrize("hbar", [1, 0.5, np.float64(2.0), np.array(1.0)],
                             ids=["int", "float", "numpy-float", "0d-array"])
    def test_accepts_hbar_that_is_one_finite_positive_number(self, hbar):
        # The dtype rule that refuses strings, None and bools keeps every real number.
        model = ops.QuantumModel(H0=ops.SIGMA_X, L=ops.SIGMA_Z, hbar=hbar)
        assert model.hbar == hbar

    def test_hashes_keys_a_dict_and_compares_by_identity(self):
        # Before: the generated field-wise __hash__ raised TypeError on the arrays.
        model = ops.QuantumModel(H0=ops.SIGMA_X, L=ops.SIGMA_Z)
        twin = ops.QuantumModel(H0=ops.SIGMA_X, L=ops.SIGMA_Z)
        assert hash(model) == hash(model)
        assert {model: 1, twin: 2}[model] == 1
        assert model == model and model != twin


class TestCheckControlGrid:
    def test_rows_come_back_sorted(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=ops.SIGMA_Z, Hc=(ops.SIGMA_X, ops.SIGMA_Y))
        grid = ops.check_control_grid(model, [[0.5, 0.0], [-1.0, 2.0], (-1, 1)])
        assert grid.dtype == float
        assert np.array_equal(grid, [[-1.0, 1.0], [-1.0, 2.0], [0.5, 0.0]])

    def test_model_without_controls_has_empty_rows(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=ops.SIGMA_Z)
        assert ops.check_control_grid(model, [np.zeros(0)] * 2).shape == (2, 0)


class TestNonFiniteRejected:
    def test_check_hermitian(self):
        with pytest.raises(RejectedInputError, match="non-finite"):
            ops.check_hermitian(np.array([[np.nan, 0.0], [0.0, 0.5]]))

    def test_check_density(self):
        with pytest.raises(RejectedInputError, match="non-finite"):
            ops.check_density(np.array([[np.nan, 0.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_project_physical(self, dim, bad):
        m = np.eye(dim, dtype=complex) / dim
        m[0, 0] = bad
        with pytest.raises(RejectedInputError, match="non-finite"):
            ops.project_physical(m)


def reference_dynamics(H0, Hc, Ls, u, rho, hbar):
    """Drift, fluctuation and <L + L^dag> of one state, product by product."""
    h = H0 + sum(ui * hi for ui, hi in zip(u, Hc))
    w = (-1j / hbar) * (h @ rho - rho @ h)
    for L in Ls:
        Ld = L.conj().T
        w = w + L @ rho @ Ld - 0.5 * (Ld @ L @ rho + rho @ Ld @ L)
    L = Ls[0]
    mean = np.real(np.trace(rho @ (L + L.conj().T)))
    return w, L @ rho + rho @ L.conj().T - mean * rho, mean


def random_operator(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestDriftKernelProperties:
    @given(dim=st.integers(2, 5), n_controls=st.integers(0, 2), n_extra=st.integers(0, 1),
           n_states=st.integers(1, 6), per_state=st.booleans(),
           hbar=st.sampled_from([1.0, 0.5, 2.0]), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_matrix_reference(self, dim, n_controls, n_extra, n_states,
                                          per_state, hbar, seed):
        rng = np.random.default_rng(seed)
        # Non-normal channels: random complex L, so L^dag L != L L^dag.
        model = ops.QuantumModel(
            H0=random_hermitian(rng, dim), L=random_operator(rng, dim),
            Hc=tuple(random_hermitian(rng, dim) for _ in range(n_controls)),
            L_extra=tuple(random_operator(rng, dim) for _ in range(n_extra)), hbar=hbar)
        rho = np.stack([random_density(rng, dim) for _ in range(n_states)])
        shape = (n_states, n_controls) if per_state else (n_controls,)
        u = rng.normal(size=shape)
        w, sig, mean = ops.drift_and_fluctuation(model, u, rho)
        for i in range(n_states):
            ref = reference_dynamics(model.H0, model.Hc, model.channels(),
                                     u[i] if per_state else u, rho[i], hbar)
            assert np.max(np.abs(w[i] - ref[0])) <= 1e-12
            assert np.max(np.abs(sig[i] - ref[1])) <= 1e-12
            assert abs(mean[i] - ref[2]) <= 1e-12
        assert np.array_equal(ops.lindblad_drift(model, u, rho), w)
        assert np.max(np.abs(ops.fluctuation(model.L, rho) - sig)) <= 1e-12

    def test_per_state_controls_must_match_states(self):
        model = ops.QuantumModel(H0=ops.SIGMA_Z, L=ops.SIGMA_X, Hc=(ops.SIGMA_Y,))
        rho = np.stack([np.eye(2) / 2] * 3)
        with pytest.raises(DimensionMismatchError):
            ops.lindblad_drift(model, np.zeros((2, 1)), rho)

    def test_rejects_nonhermitian_state(self):
        # A state from outside the program is validated before it reaches the kernel.
        model = ops.QuantumModel(H0=ops.SIGMA_Z, L=ops.SIGMA_X)
        with pytest.raises(RejectedInputError, match="not Hermitian"):
            ops.lindblad_drift(model, [], np.array([[0.5, 0.1], [0.0, 0.5]]))


def eigh_projection(m):
    """project_physical's rule through eigh, for every dim."""
    if np.max(np.abs(m - m.conj().T)) > ops.PROJECTION_HERM_TOL:
        raise RejectedInputError("too far from Hermitian")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    if w.sum() <= ops.DEGENERATE_TRACE_FLOOR:
        raise DegenerateStateError("trace vanished")
    return (v * (w / w.sum())) @ v.conj().T


def outcome(fn, m):
    try:
        return fn(m)
    except RejectedInputError as exc:  # DegenerateStateError is a subclass
        return type(exc)


class TestQubitProjectionProperties:
    @given(low=st.floats(-0.5, 1.5), high=st.floats(-0.5, 1.5),
           angles=st.tuples(st.floats(0, np.pi), st.floats(0, 2 * np.pi)),
           skew=st.sampled_from([0.0, 1e-9, 0.05, 0.099, 0.2]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(low=0.3, high=0.7, angles=(0.4, 1.0), skew=0.0, seed=0)      # PSD
    @example(low=-0.1, high=1.1, angles=(0.0, 0.0), skew=0.0, seed=0)     # clipped
    @example(low=0.0, high=1.0, angles=(1.2, 2.5), skew=0.0, seed=0)      # pure
    @example(low=0.5, high=0.5, angles=(0.0, 0.0), skew=0.0, seed=0)      # maximally mixed
    @example(low=-1e-5, high=0.0, angles=(0.7, 0.3), skew=0.0, seed=0)    # degenerate
    @example(low=0.0, high=0.0, angles=(0.0, 0.0), skew=0.0, seed=0)      # zero
    @example(low=0.3, high=0.7, angles=(0.4, 1.0), skew=0.2, seed=0)      # too skew
    def test_matches_eigh_reference(self, low, high, angles, skew, seed):
        theta, phi = angles
        top = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        bottom = np.array([-np.conj(top[1]), np.conj(top[0])])
        m = high * np.outer(top, top.conj()) + low * np.outer(bottom, bottom.conj())
        # A perturbation whose largest entrywise Hermiticity defect is `skew`.
        e = random_operator(np.random.default_rng(seed), 2)
        m = m + skew * e / np.max(np.abs(e - e.conj().T))
        got, want = outcome(ops.project_physical, m), outcome(eigh_projection, m)
        if isinstance(want, type):
            assert got is want
        else:
            assert not isinstance(got, type), got
            assert np.max(np.abs(got - want)) <= 1e-12
