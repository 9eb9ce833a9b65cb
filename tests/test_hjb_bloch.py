import dataclasses
import functools

import numpy as np
import pytest

from scipy.linalg import expm

from mqoc import belavkin as bel
from mqoc import hjb_bloch as hjb
from mqoc import operators as ops
from mqoc.errors import DimensionMismatchError, RejectedInputError, StabilityError
from reference import StackedSweep, grid_csv_reference, hjb_grid_values

KAPPA = 0.5
DEPHASING = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.sqrt(KAPPA) * ops.SIGMA_Z)


def full_stencil(stencil):
    """Mask of inside nodes whose 18 neighbour taps are all inside the ball."""
    return np.all(stencil.taps[1:] != np.arange(stencil.taps.shape[1]), axis=0)


def random_quadratic(seed):
    """q(r) = c + g.r + r.A.r/2 with its gradient and (constant) Hessian."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    A = a + a.T
    g = rng.normal(size=3)

    def q(pts):
        return 0.3 + pts @ g + 0.5 * np.einsum("ni,ij,nj->n", pts, A, pts)

    return q, (lambda pts: g + pts @ A), A


def analytic_grid(fn, n=21, T=1.0):
    """ValueGrid holding a time-independent analytic field, for stencil tests."""
    stencil = hjb._BallStencil(n)
    pts = stencil.points
    vals = fn(pts).reshape(n, n, n)
    return hjb.ValueGrid(
        time_points=np.array([0.0, T]),
        axes=stencil.axes,
        values=np.stack([vals, vals]),
        h=stencil.h,
        convention=hjb.SIGN_STANDARD,
        inside=stencil.inside,
    )


@functools.cache
def solved_grid(n):
    """A controlled qubit's value grid on n^3 nodes over T = 0.01.

    n_time grows as 1/h^2, so dt stays inside the explicit stability limit.
    """
    model = ops.QuantumModel(H0=0.4 * ops.SIGMA_X, L=np.sqrt(KAPPA) * ops.SIGMA_Z,
                             Hc=(ops.SIGMA_Y,))
    excited = np.diag([0.0, 1.0]).astype(complex)
    cost = bel.quadratic_control_cost(0.5 * excited, excited, 0.2)
    spec = hjb.GridSpec(T=0.01, n_space=n, n_time=(n - 1) ** 2 // 20)
    return hjb.solve_hjb_grid(model, cost, [[-1.0], [0.0], [1.0]], spec)


def lookup_points(grid, shape, seed):
    """Points of the given batch shape, each within h of the sphere or deeper inside at even odds."""
    rng = np.random.default_rng(seed)
    r = rng.normal(size=shape + (3,))
    radius = np.where(rng.uniform(size=shape) < 0.5, rng.uniform(1.0 - grid.h, 1.0, size=shape),
                      rng.uniform(0.0, 1.0 - grid.h, size=shape))
    return r * (radius / np.linalg.norm(r, axis=-1))[..., None]


class TestBlochMaps:
    def test_ground_state(self):
        assert np.allclose(hjb.bloch_from_density(np.diag([1.0, 0.0])), [0, 0, 1])

    def test_maximally_mixed(self):
        assert np.allclose(hjb.bloch_from_density(np.eye(2) / 2), [0, 0, 0])

    def test_x_tilt(self):
        rho = (np.eye(2) + 0.3 * ops.SIGMA_X) / 2
        assert np.allclose(hjb.bloch_from_density(rho), [0.3, 0, 0])

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            rho = hjb.density_from_bloch(r)
            assert np.max(np.abs(hjb.bloch_from_density(rho) - r)) < 1e-12

    def test_rejects_outside_ball(self):
        with pytest.raises(RejectedInputError):
            hjb.density_from_bloch([1.0, 1.0, 1.0])

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (4, 2, 3)])
    def test_bloch_from_density_refuses_non_qubit_shapes(self, shape):
        # Before: (2,) raised a bare IndexError.
        with pytest.raises(DimensionMismatchError, match="qubit state"):
            hjb.bloch_from_density(np.zeros(shape))

    def test_check_bloch_names_first_point_outside(self):
        r = np.zeros((4, 3))
        r[2, 0] = r[3, 1] = 1.01
        with pytest.raises(RejectedInputError, match=r"at index \(2,\) lies outside the unit"):
            hjb.check_bloch(r)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_check_bloch_rejects_non_finite(self, bad):
        with pytest.raises(RejectedInputError, match="non-finite"):
            hjb.check_bloch([bad, 0.0, 0.0])


class TestBlochDynamics:
    def test_pure_precession(self):
        omega = 0.7
        model = ops.QuantumModel(H0=0.5 * omega * ops.SIGMA_Z, L=np.zeros((2, 2)))
        r = np.array([0.3, -0.2, 0.5])
        b, s = hjb.bloch_dynamics(model, [], r)
        assert np.allclose(b, omega * np.array([-r[1], r[0], 0.0]), atol=1e-12)
        assert np.allclose(s, 0.0, atol=1e-12)

    def test_dephasing_channel(self):
        r = np.array([0.4, 0.1, -0.3])
        b, s = hjb.bloch_dynamics(DEPHASING, [], r)
        assert np.allclose(b, [-2 * KAPPA * r[0], -2 * KAPPA * r[1], 0.0], atol=1e-12)
        root = 2 * np.sqrt(KAPPA)
        expect_s = root * np.array([-r[0] * r[2], -r[1] * r[2], 1 - r[2] ** 2])
        assert np.allclose(s, expect_s, atol=1e-12)

    def test_matches_matrix_step(self):
        # One Euler step through the Bloch map must equal the matrix-side step.
        rng = np.random.default_rng(1)
        model = ops.QuantumModel(H0=0.3 * ops.SIGMA_X, L=np.sqrt(KAPPA) * ops.SIGMA_Z,
                                 Hc=(ops.SIGMA_Y,))
        dt = 1e-3
        for _ in range(100):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 0.99) / np.linalg.norm(r)
            u = rng.normal(size=1)
            dW = rng.normal(0, np.sqrt(dt))
            b, s = hjb.bloch_dynamics(model, u, r)
            r_next = r + b * dt + s * dW
            rho = hjb.density_from_bloch(r)
            rho_next = (rho + ops.lindblad_drift(model, u, rho) * dt
                        + ops.fluctuation(model.L, rho) * dW)
            assert np.max(np.abs(hjb.bloch_from_density(rho_next) - r_next)) \
                <= 1e-8 * (dt + abs(dW))


class TestSolveHjbGrid:
    def _cost(self, state_op, weight=0.0):
        return bel.quadratic_control_cost(state_op, np.zeros((2, 2)), weight)

    def test_zero_cost_gives_zero(self):
        cost = bel.CostSpec(running_op=lambda t, u: np.zeros((2, 2)),
                            terminal_op=np.zeros((2, 2)))
        spec = hjb.GridSpec(T=0.05, n_space=11, n_time=20)
        grid = hjb.solve_hjb_grid(DEPHASING, cost, [np.zeros(0)], spec)
        assert np.max(np.abs(grid.values)) < 1e-14

    def test_frozen_dynamics_keeps_terminal_cost(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.zeros((2, 2)))
        excited = np.diag([0.0, 1.0]).astype(complex)
        cost = bel.CostSpec(running_op=lambda t, u: np.zeros((2, 2)), terminal_op=excited)
        spec = hjb.GridSpec(T=0.05, n_space=11, n_time=20)
        grid = hjb.solve_hjb_grid(model, cost, [np.zeros(0)], spec)
        assert np.allclose(grid.values[0], grid.values[-1], atol=1e-12)

    # Before: numpy's bare "operands could not be broadcast" ValueError.
    @pytest.mark.parametrize("running, terminal", [
        (np.eye(3), np.eye(2)), (np.eye(2), np.eye(3)),
    ], ids=["running", "terminal"])
    def test_misshapen_cost_operator_is_a_dimension_mismatch(self, running, terminal):
        cost = bel.CostSpec(running_op=lambda t, u: running, terminal_op=terminal)
        spec = hjb.GridSpec(T=0.05, n_space=11, n_time=20)
        with pytest.raises(DimensionMismatchError, match="2 x 2"):
            hjb.solve_hjb_grid(DEPHASING, cost, [np.zeros(0)], spec)

    def test_stability_guard(self):
        cost = self._cost(np.eye(2))
        spec = hjb.GridSpec(T=1.0, n_space=21, n_time=50)
        with pytest.raises(StabilityError, match="n_time"):
            hjb.solve_hjb_grid(DEPHASING, cost, [np.zeros(0)], spec)

    def test_monotone_in_control_grid(self):
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.sqrt(KAPPA) * ops.SIGMA_Z,
                                 Hc=(ops.SIGMA_Y,))
        excited_pop = np.diag([0.0, 1.0]).astype(complex)
        cost = self._cost(excited_pop, weight=0.1)
        spec = hjb.GridSpec(T=0.1, n_space=11, n_time=100)
        small = hjb.solve_hjb_grid(model, cost, [[0.0]], spec)
        large = hjb.solve_hjb_grid(model, cost, [[0.0], [1.0], [-1.0]], spec)
        # Central differences are not strictly monotone, so allow scheme noise
        # well below the value scale.
        assert np.all(large.values <= small.values + 1e-5)

    def test_one_step_exact_on_quadratic(self):
        # Central differences are exact on a quadratic q, so wherever all 19
        # taps are inside, one step is q + dt (b.grad q + s.Hess q.s / 2).
        model = ops.QuantumModel(H0=0.4 * ops.SIGMA_X, L=np.sqrt(KAPPA) * ops.SIGMA_Z,
                                 Hc=(ops.SIGMA_Y,))
        q, grad, A = random_quadratic(3)
        stencil = hjb._BallStencil(21)
        r = stencil.points_in
        b, s = hjb.bloch_dynamics(model, [0.7], r)
        dt = 1e-2
        stepped = hjb._Sweep(stencil, model.bloch, [[0.7]], s)(q(r), np.zeros((1, len(r))), dt)
        exact = q(r) + dt * (np.sum(b * grad(r), axis=1)
                             + 0.5 * np.einsum("ni,ij,nj->n", s, A, s))
        full = full_stencil(stencil)
        assert np.count_nonzero(full) > len(r) // 2
        assert np.max(np.abs(stepped - exact)[full]) < 1e-12

    def test_matches_exact_value_function(self):
        # One control, zero running cost, terminal cost M: the cost-to-go is
        # S(t, r) = a + g.r with -da/dt = c.g and -dg/dt = A0^T g, so
        # [a; g](0) = expm(T [[0, c^T], [0, A0^T]]) [tr M / 2; tr(M sigma) / 2].
        # A non-unital channel gives c != 0, and H0 tilts the flow off the z axis.
        sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        model = ops.QuantumModel(H0=0.4 * ops.SIGMA_X, L=np.sqrt(KAPPA) * ops.SIGMA_Z,
                                 L_extra=(np.sqrt(2.0) * sigma_minus,))
        M = np.diag([1.0, 0.0]).astype(complex)
        cost = bel.CostSpec(running_op=lambda t, u: np.zeros((2, 2)), terminal_op=M)
        T = 0.5
        grid = hjb.solve_hjb_grid(model, cost, [np.zeros(0)],
                                  hjb.GridSpec(T=T, n_space=21, n_time=800))
        gen = model.bloch
        flow = np.zeros((4, 4))
        flow[0, 1:] = gen.c
        flow[1:, 1:] = gen.A[0].T
        a, *g = expm(T * flow) @ np.concatenate([[np.trace(M).real], ops.pauli_components(M)]) / 2
        stencil = hjb._stencil(21)
        # Every difference rule is exact on an affine S except at the nodes
        # that lack an inside neighbour on both sides of an axis, which drop
        # that axis's drift term; the error they make spreads inward.
        central = np.all(stencil.scale[:3] == 0.5 / stencil.h, axis=0)
        assert np.count_nonzero(central) == 3191
        err = np.abs(grid.values[0] - (a + stencil.points_in @ np.array(g)))
        assert np.max(err[central]) <= 0.01

    def test_grid_refinement_contracts(self):
        # The control minimum bends S away from linearity, so resolution matters.
        model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.sqrt(KAPPA) * ops.SIGMA_Z,
                                 Hc=(ops.SIGMA_Y,))
        cost = self._cost(np.diag([0.0, 1.0]).astype(complex), weight=0.2)
        u_grid = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
        r0 = np.array([0.2, 0.0, 0.4])  # a shared node of all three grids
        values = {}
        for n_space, n_time in ((11, 40), (21, 160), (41, 640)):
            spec = hjb.GridSpec(T=0.1, n_space=n_space, n_time=n_time)
            grid = hjb.solve_hjb_grid(model, cost, u_grid, spec)
            stencil = hjb._stencil(n_space)
            idx = tuple(int(round((c + 1.0) / stencil.h)) for c in r0)
            values[n_space] = grid.values[0][
                stencil.pos_of_flat[np.ravel_multi_index(idx, stencil.inside.shape)]]
        change1 = abs(values[21] - values[11])
        change2 = abs(values[41] - values[21])
        assert change2 < change1

    @pytest.mark.parametrize("T, n_time", [(0.05, 20), (0.1, 640)])
    def test_stored_times_are_exact(self, T, n_time):
        # Stored times were T - step dt - dt, whose rounding put t = 0 at +-3e-18.
        cost = self._cost(np.eye(2))
        spec = hjb.GridSpec(T=T, n_space=5, n_time=n_time)
        grid = hjb.solve_hjb_grid(DEPHASING, cost, [np.zeros(0)], spec)
        assert grid.time_points[0] == 0.0
        assert np.array_equal(grid.time_points,
                              np.linspace(0.0, T, n_time + 1))


SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
EXCITED = np.diag([0.0, 1.0]).astype(complex)
SWEEP_T = 0.02


def switching_running_op(t, u):
    """Weighs |1><1| before SWEEP_T / 2 and |0><0| from then on."""
    state = EXCITED if t < SWEEP_T / 2 else np.eye(2) - EXCITED
    return state + 0.1 * float(np.dot(u, u)) * np.eye(2)


SWEEP_SETUPS = {
    "sigma_y_5_controls": (
        ops.QuantumModel(H0=np.zeros((2, 2)), L=np.sqrt(KAPPA) * ops.SIGMA_Z, Hc=(ops.SIGMA_Y,)),
        bel.quadratic_control_cost(0.5 * EXCITED, EXCITED, 0.2),
        [[-1.0], [-0.5], [0.0], [0.5], [1.0]]),
    "two_controls_non_unital": (
        ops.QuantumModel(H0=0.3 * ops.SIGMA_Z, L=np.sqrt(KAPPA) * ops.SIGMA_Z,
                         Hc=(ops.SIGMA_X, ops.SIGMA_Y), L_extra=(0.8 * SIGMA_MINUS,)),
        bel.quadratic_control_cost(0.5 * EXCITED, EXCITED, [0.2, 0.3]),
        [[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [0.5, -0.5]]),
    "cost_switching_at_half_time": (
        ops.QuantumModel(H0=0.4 * ops.SIGMA_X, L=np.sqrt(KAPPA) * ops.SIGMA_Z,
                         Hc=(ops.SIGMA_Y,)),
        bel.CostSpec(running_op=switching_running_op, terminal_op=EXCITED),
        [[-1.0], [0.0], [1.0]]),
}


class TestSweepMatchesReference:
    """The face-tap sweep against the 19-tap reference scheme of `reference.py`."""

    @pytest.mark.parametrize("n", [11, 20, 21])
    @pytest.mark.parametrize("setup", sorted(SWEEP_SETUPS))
    def test_every_stored_slice(self, setup, n):
        model, cost, u_grid = SWEEP_SETUPS[setup]
        spec = hjb.GridSpec(T=SWEEP_T, n_space=n, n_time=30)
        grid = hjb.solve_hjb_grid(model, cost, u_grid, spec)
        ref = hjb_grid_values(model, cost, u_grid, spec)
        assert grid.values.shape == ref.shape
        scale = np.max(np.abs(ref), axis=1)
        assert np.all(np.max(np.abs(grid.values - ref), axis=1) <= 1e-12 * scale)

    def test_switching_cost_changes_the_value(self):
        # Guards the setup above: with the cost held at its t = T value the
        # grid differs far beyond 1e-12, so a stale running field would fail.
        model, cost, u_grid = SWEEP_SETUPS["cost_switching_at_half_time"]
        late = bel.CostSpec(running_op=lambda t, u: cost.running(SWEEP_T, u),
                            terminal_op=cost.terminal_op)
        spec = hjb.GridSpec(T=SWEEP_T, n_space=11, n_time=30)
        switched = hjb.solve_hjb_grid(model, cost, u_grid, spec).values[0]
        held = hjb.solve_hjb_grid(model, late, u_grid, spec).values[0]
        assert np.max(np.abs(switched - held)) > 1e-4

    @pytest.mark.parametrize("n", [5, 6, 11, 20, 21])
    def test_differences_match_the_19_tap_pattern(self, n):
        stencil = hjb._stencil(n)
        gen = DEPHASING.bloch
        sweep = hjb._Sweep(stencil, gen, [np.zeros(0)], gen.diffusion(stencil.points_in))
        v = np.random.default_rng(n).normal(size=len(stencil.points_in))
        expect = stencil.scale * (hjb._PATTERN @ v[stencil.taps])
        got = stencil.scale * sweep.differences(v)
        assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(expect))


class TestSweepMatchesStackedPasses:
    """The row-by-row sweep against `reference.StackedSweep`, bit for bit."""

    @staticmethod
    def assert_bitwise(model, u_grid, n):
        stencil, gen = hjb._stencil(n), model.bloch
        s = gen.diffusion(stencil.points_in)
        sweep, ref = hjb._Sweep(stencil, gen, u_grid, s), StackedSweep(stencil, gen, u_grid, s)
        rng = np.random.default_rng(n)
        v = w = rng.normal(size=len(s))
        running = rng.normal(size=(len(u_grid), len(s)))
        assert np.array_equal(sweep.differences(v), ref.differences(v))
        for _ in range(30):
            v, w = sweep(v, running, 1e-4), ref(w, running, 1e-4)
            assert np.array_equal(v, w)

    @pytest.mark.parametrize("n", [5, 6, 11, 20, 21])
    @pytest.mark.parametrize("rows", [None, 1], ids=["u_grid", "one_row"])
    @pytest.mark.parametrize("setup", sorted(SWEEP_SETUPS))
    def test_differences_and_a_30_step_chain(self, setup, rows, n):
        model, _, u_grid = SWEEP_SETUPS[setup]
        self.assert_bitwise(model, u_grid[:rows], n)

    @pytest.mark.parametrize("n", [5, 6, 11, 20, 21])
    def test_without_controls(self, n):
        self.assert_bitwise(DEPHASING, [np.zeros(0)], n)


class TestBallStencil:
    @pytest.mark.parametrize("n", [5, 6, 11, 20, 21, 41])
    def test_z_taps_are_the_next_and_previous_node(self, n):
        stencil = hjb._stencil(n)
        i = np.arange(len(stencil.points_in))
        nodes = np.unravel_index(stencil.inside_idx, stencil.inside.shape)
        padded = np.pad(stencil.inside, 1)  # beyond the cube is outside the ball
        for t, step, ends in zip((5, 6), (1, -1), stencil.z_ends):
            tap = stencil.taps[t]
            assert np.all((tap == i) | (tap == i + step))
            assert np.array_equal(ends, np.flatnonzero(tap == i))
            outside = ~padded[nodes[0] + 1, nodes[1] + 1, nodes[2] + 1 + step]
            assert np.array_equal(ends, np.flatnonzero(outside))


class TestExtractCostate:
    def test_zero_field(self):
        grid = analytic_grid(lambda pts: np.zeros(len(pts)))
        p, P = hjb.extract_costate(grid, 0.5, np.array([0.2, 0.0, 0.1]))
        assert np.allclose(p, 0) and np.allclose(P, 0)

    def test_linear_field(self):
        grid = analytic_grid(lambda pts: pts[:, 2])
        p, P = hjb.extract_costate(grid, 0.3, np.array([0.1, -0.2, 0.3]))
        assert np.allclose(p, [0, 0, 1], atol=1e-9)
        assert np.allclose(P, 0, atol=1e-9)

    def test_quadratic_field(self):
        grid = analytic_grid(lambda pts: 0.5 * np.sum(pts ** 2, axis=1))
        r = np.array([0.2, 0.1, -0.3])  # on grid nodes (h = 0.1)
        p, P = hjb.extract_costate(grid, 0.0, r)
        assert np.allclose(p, r, atol=1e-9)
        assert np.allclose(P, np.eye(3), atol=1e-7)

    def test_quadratic_field_off_node(self):
        # Where all eight corners have full stencils, p is the trilinear
        # interpolation of the linear gradient (so exact) and P is the Hessian.
        q, grad, A = random_quadratic(4)
        grid = analytic_grid(q)
        stencil = hjb._BallStencil(grid.n_space)
        full = full_stencil(stencil)
        rng = np.random.default_rng(5)
        checked = 0
        for r in rng.uniform(-0.7, 0.7, size=(100, 3)):
            ix = ((r + 1.0) / grid.h).astype(int)
            corners = ix + np.array([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])
            pos = stencil.pos_of_flat[np.ravel_multi_index(corners.T, grid.inside.shape)]
            if np.any(pos < 0) or not np.all(full[pos]):
                continue
            p, P = hjb.extract_costate(grid, rng.uniform(0.0, 1.0), r)
            assert np.max(np.abs(p - grad(r[None])[0])) < 1e-12
            assert np.max(np.abs(P - A)) < 1e-10
            checked += 1
        assert checked >= 50

    def test_rejects_point_without_inside_corner(self):
        # At even n no node lies on the axes: the corners weighted at the pole
        # (1, 0, 0) are (1, +-h/2, +-h/2), all outside the ball.
        grid = analytic_grid(lambda pts: np.zeros(len(pts)), n=6)
        with pytest.raises(RejectedInputError, match="no inside nodes"):
            hjb.extract_costate(grid, 0.5, np.array([1.0, 0.0, 0.0]))

    def test_rejects_outside_ball(self):
        grid = analytic_grid(lambda pts: np.zeros(len(pts)))
        with pytest.raises(RejectedInputError):
            hjb.extract_costate(grid, 0.5, np.array([0.9, 0.9, 0.9]))

    def test_rejects_non_finite_point(self):
        grid = analytic_grid(lambda pts: np.zeros(len(pts)))
        with pytest.raises(RejectedInputError, match="non-finite"):
            hjb.extract_costate(grid, 0.5, np.array([np.nan, 0.0, 0.0]))

    def test_rejects_time_outside_range(self):
        grid = analytic_grid(lambda pts: np.zeros(len(pts)), T=1.0)
        with pytest.raises(RejectedInputError):
            hjb.extract_costate(grid, 2.0, np.zeros(3))


class TestBatchedCostate:
    GRIDS = [("analytic", 21), ("analytic", 41), ("solved", 21), ("solved", 41)]

    @staticmethod
    def grid(kind, n):
        return solved_grid(n) if kind == "solved" else analytic_grid(random_quadratic(6)[0], n=n)

    @staticmethod
    def assert_matches_single_calls(grid, t, r):
        p, P = hjb.extract_costate(grid, t, r)
        assert p.shape == r.shape and P.shape == r.shape + (3,)
        t = np.broadcast_to(t, r.shape[:-1])
        for idx in np.ndindex(r.shape[:-1]):
            p1, P1 = hjb.extract_costate(grid, t[idx], r[idx])
            assert p1.shape == (3,) and P1.shape == (3, 3)
            assert np.max(np.abs(p[idx] - p1)) <= 1e-12
            assert np.max(np.abs(P[idx] - P1)) <= 1e-12

    @pytest.mark.parametrize("kind, n", GRIDS)
    def test_per_point_times_on_and_between_slices(self, kind, n):
        grid = self.grid(kind, n)
        r = lookup_points(grid, (2, 5), seed=n)
        tp = grid.time_points
        rng = np.random.default_rng(n)
        on_slice = tp[rng.integers(len(tp), size=5)]
        between = rng.uniform(tp[0], tp[-1], size=5)
        self.assert_matches_single_calls(grid, np.stack([on_slice, between]), r)

    @pytest.mark.parametrize("kind, n", GRIDS)
    def test_scalar_time(self, kind, n):
        grid = self.grid(kind, n)
        tp = grid.time_points
        for t in (tp[0], tp[1], 0.5 * (tp[-2] + tp[-1]), tp[-1]):
            self.assert_matches_single_calls(grid, t, lookup_points(grid, (2, 5), seed=1))

    def test_outside_nodes_are_never_read(self, tmp_path):
        # The solved grid holds inside nodes only; a cube built from it with
        # 1e300 at every outside node must give the same lookups and CSV.
        grid = solved_grid(21)
        cube = np.full((len(grid.time_points),) + grid.inside.shape, 1e300)
        cube[:, grid.inside] = grid.values
        poisoned = dataclasses.replace(grid, values=cube)
        r = lookup_points(grid, (200,), seed=2)
        t = np.random.default_rng(2).uniform(0.0, grid.T, size=200)
        for a, b in zip(hjb.extract_costate(grid, t, r), hjb.extract_costate(poisoned, t, r)):
            assert np.array_equal(a, b)
        for g, name in ((grid, "clean.csv"), (poisoned, "poisoned.csv")):
            hjb.write_grid_csv(g, tmp_path / name, times=grid.time_points)
        assert (tmp_path / "clean.csv").read_bytes() == (tmp_path / "poisoned.csv").read_bytes()

    def test_solved_grid_holds_inside_nodes_only(self):
        grid = solved_grid(21)  # 20 steps
        assert grid.values.shape == (21, len(hjb._stencil(21).points_in))

    def test_rejects_batch_with_point_without_inside_corner(self):
        grid = analytic_grid(lambda pts: np.zeros(len(pts)), n=6)
        r = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        with pytest.raises(RejectedInputError, match=r"no inside nodes around \[1\. 0\. 0\.\]"):
            hjb.extract_costate(grid, 0.5, r)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 2.0])
    def test_rejects_batch_with_bad_time(self, bad):
        grid = analytic_grid(lambda pts: np.zeros(len(pts)), T=1.0)
        with pytest.raises(RejectedInputError, match=f"t={bad} outside grid time range"):
            hjb.extract_costate(grid, np.array([0.5, bad, 0.2]), np.zeros((3, 3)))

    def test_reads_end_slices_within_horizon_tolerance(self):
        # Before: refused past 1e-12, where fbsde_residual allowed 1e-9.
        grid = solved_grid(21)
        r = np.array([0.2, -0.1, 0.3])
        for end, past in ((grid.T, 0.5), (0.0, -0.5)):
            near = hjb.extract_costate(grid, end + past * hjb.HORIZON_TOL, r)
            assert all(map(np.array_equal, near, hjb.extract_costate(grid, end, r)))
            with pytest.raises(RejectedInputError, match="outside grid time range"):
                hjb.extract_costate(grid, end + 4 * past * hjb.HORIZON_TOL, r)

    @pytest.mark.parametrize("t_shape", [(3,), (2, 1, 1), (4, 2)])
    def test_rejects_time_shape_not_broadcasting(self, t_shape):
        grid = analytic_grid(lambda pts: np.zeros(len(pts)))
        with pytest.raises(RejectedInputError, match="broadcast"):
            hjb.extract_costate(grid, np.full(t_shape, 0.5), np.zeros((4, 3)))


class TestValueGridShape:
    @staticmethod
    def make(n=20, n_slices=2, time_points=(0.0, 1.0), inside_n=None, **geometry):
        axis = np.linspace(-1.0, 1.0, n)
        inside_n = n if inside_n is None else inside_n
        fields = dict(axes=(axis, axis, axis), h=float(axis[1] - axis[0]),
                      convention=hjb.SIGN_STANDARD, inside=hjb._stencil(inside_n).inside)
        fields.update(geometry)
        fields.setdefault("values", np.zeros((n_slices, n, n, n)))
        return hjb.ValueGrid(time_points=np.array(time_points), **fields)

    def test_accepts_matching_shapes(self):
        assert self.make().n_space == 20

    def test_rejects_compact_values_of_wrong_width(self):
        stencil = hjb._stencil(20)
        with pytest.raises(RejectedInputError, match="shapes"):
            hjb.ValueGrid(time_points=np.array([0.0, 1.0]), axes=stencil.axes,
                          values=np.zeros((2, len(stencil.points_in) + 1)), h=stencil.h,
                          convention=hjb.SIGN_STANDARD, inside=stencil.inside)

    @pytest.mark.parametrize("geometry", [
        {"h": 0.2},
        {"axes": (np.linspace(-2.0, 2.0, 20),) * 3},
        {"axes": (np.linspace(-1.0, 1.0, 20),) * 2 + (np.linspace(-1.0, 1.0, 19),)},
        {"h": np.nan},
    ], ids=["h", "axes", "ragged-axes", "nan-h"])
    def test_rejects_geometry_differing_from_stencil(self, geometry):
        # Accepted before: with h = 0.2, p_x on S = x^2 at x = 0.1 read -0.9, not 0.2.
        with pytest.raises(RejectedInputError, match="linspace"):
            self.make(**geometry)

    def test_rejects_mask_other_than_ball(self):
        with pytest.raises(RejectedInputError, match="ball mask"):
            self.make(inside=np.ones((20,) * 3, dtype=bool))

    @pytest.mark.parametrize("n", [2, 4])
    def test_rejects_fewer_than_five_nodes(self, n):
        with pytest.raises(RejectedInputError, match="n >= 5"):
            self.make(n=n, inside=np.ones((n,) * 3, dtype=bool))

    def test_rejects_unknown_convention(self):
        for convention in ("bogus", "paper"):
            with pytest.raises(RejectedInputError, match=convention):
                dataclasses.replace(solved_grid(21), convention=convention)

    def test_rejects_slice_count_differing_from_time_points(self):
        # Accepted before, a lookup then read the slices at the wrong stride.
        with pytest.raises(RejectedInputError, match="shapes"):
            self.make(n_slices=3)

    def test_rejects_misshapen_mask(self):
        with pytest.raises(RejectedInputError, match="shapes"):
            self.make(inside_n=19)

    def test_keeps_list_time_points_as_array(self):
        # Before: the list was kept, and extract_costate raised a bare TypeError.
        grid = dataclasses.replace(analytic_grid(lambda pts: pts[:, 0] ** 2),
                                   time_points=[0.0, 1.0])
        assert isinstance(grid.time_points, np.ndarray)
        p, _ = hjb.extract_costate(grid, 0.5, [0.1, 0.0, 0.0])
        assert np.allclose(p, [0.2, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cube", [False, True], ids=["compact", "cube"])
    def test_rejects_non_finite_values(self, cube, bad):
        stencil = hjb._stencil(20)
        values = np.zeros((2,) + (stencil.inside.shape if cube else (len(stencil.points_in),)))
        values[(1, 10, 10, 10) if cube else (1, 7)] = bad
        with pytest.raises(RejectedInputError, match="value grid contains non-finite entries"):
            self.make(values=values)

    def test_rejects_nan_outside_the_ball_in_a_cube(self):
        values = np.zeros((2, 20, 20, 20))
        values[0, 0, 0, 0] = np.nan
        assert not hjb._stencil(20).inside[0, 0, 0]
        with pytest.raises(RejectedInputError, match="value grid contains non-finite entries"):
            self.make(values=values)

    @pytest.mark.parametrize("time_points", [(0.0,), (0.0, np.nan), (0.0, np.inf),
                                             (1.0, 0.0), (0.0, 0.0)])
    def test_rejects_bad_time_points(self, time_points):
        with pytest.raises(RejectedInputError, match="time_points"):
            self.make(n_slices=len(time_points), time_points=time_points)


class TestCostChart:
    def test_chart_gives_each_expectation(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        c = g + np.conj(np.swapaxes(g, 1, 2))
        r = rng.normal(size=(5, 3))
        r *= rng.uniform(0, 1, size=(5, 1)) / np.linalg.norm(r, axis=1, keepdims=True)
        want = np.real(np.einsum("nij,uji->un", hjb.density_from_bloch(r), c))
        got = hjb.expectation_fields(hjb.cost_chart(c, "C"), r)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("c, error, match", [
        (np.zeros((1, 2, 3)), DimensionMismatchError, "C must be 2 x 2"),
        (np.eye(2), DimensionMismatchError, "C must be 2 x 2"),
        ([[[0.0, 1.0], [0.0, 0.0]]], RejectedInputError, "C is not Hermitian"),
        ([[[np.nan, 0.0], [0.0, 0.0]]], RejectedInputError, "C has non-finite"),
    ], ids=["not_square", "not_a_stack", "not_hermitian", "nan"])
    def test_refusals(self, c, error, match):
        with pytest.raises(error, match=match):
            hjb.cost_chart(c, "C")


class TestGridSpec:
    @pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf, 0.0])
    def test_rejects_non_finite_or_non_positive_horizon(self, T):
        with pytest.raises(RejectedInputError, match="finite T > 0"):
            hjb.GridSpec(T=T)


    @pytest.mark.parametrize("sizes", [{"n_time": 10.0}, {"n_space": 5.5}, {"n_time": True}],
                             ids=["float_n_time", "float_n_space", "bool_n_time"])
    def test_rejects_non_integer_sizes(self, sizes):
        # Before: accepted, and solve_hjb_grid then failed with a bare TypeError.
        with pytest.raises(RejectedInputError, match="integers"):
            hjb.GridSpec(T=0.1, **sizes)


class TestGridCsv:
    def test_export_default_slice(self, tmp_path):
        cost = bel.CostSpec(running_op=lambda t, u: np.zeros((2, 2)),
                            terminal_op=np.diag([0.0, 1.0]).astype(complex))
        spec = hjb.GridSpec(T=0.05, n_space=11, n_time=20)
        grid = hjb.solve_hjb_grid(DEPHASING, cost, [np.zeros(0)], spec)
        path = tmp_path / "grid.csv"
        hjb.write_grid_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,rx,ry,rz,S"
        assert len(lines) - 1 == int(np.sum(grid.inside))

    def test_rows_are_inside_nodes_in_c_order(self, tmp_path):
        cost = bel.CostSpec(running_op=lambda t, u: 0.3 * ops.SIGMA_X,
                            terminal_op=np.diag([0.0, 1.0]).astype(complex))
        spec = hjb.GridSpec(T=0.05, n_space=11, n_time=20)
        grid = hjb.solve_hjb_grid(DEPHASING, cost, [np.zeros(0)], spec)
        path = tmp_path / "grid.csv"
        hjb.write_grid_csv(grid, path, times=[0.0, 0.05])
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        pts = np.stack(np.meshgrid(*grid.axes, indexing="ij"), axis=-1)[grid.inside]
        n_in = len(pts)
        assert rows.shape == (2 * n_in, 5)
        for half, k in zip((rows[:n_in], rows[n_in:]), (0, -1)):
            assert np.all(half[:, 0] == grid.time_points[k])
            assert np.array_equal(half[:, 1:4], pts)
            assert np.array_equal(half[:, 4], grid.values[k])

    @pytest.mark.parametrize("n", [5, 6, 11])
    def test_bytes_match_the_value_by_value_writer(self, tmp_path, n):
        # n = 6 has no 0.0 node; the times repeat a slice and fall between slices.
        cost = bel.CostSpec(running_op=lambda t, u: 0.3 * ops.SIGMA_X,
                            terminal_op=np.diag([0.0, 1.0]).astype(complex))
        grid = hjb.solve_hjb_grid(DEPHASING, cost, [np.zeros(0)],
                                  hjb.GridSpec(T=0.05, n_space=n, n_time=20))
        times = [0.05, 0.0, 0.0126, 0.05, 0.031]
        hjb.write_grid_csv(grid, tmp_path / "grid.csv", times=times)
        grid_csv_reference(grid, tmp_path / "ref.csv", times)
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_bytes_match_on_signed_zero_subnormal_and_large_values(self, tmp_path):
        stencil = hjb._stencil(6)
        values = np.random.default_rng(6).normal(size=(3, len(stencil.points_in))) * 1e3
        values[1, :5] = [-0.0, 5e-324, 1e16, -2.5, -1e-300]
        grid = hjb.ValueGrid(time_points=[0.0, 0.1, 0.3], axes=stencil.axes, values=values,
                             h=stencil.h, convention=hjb.SIGN_STANDARD, inside=stencil.inside)
        times = [0.1, 0.0, 0.3]
        hjb.write_grid_csv(grid, tmp_path / "grid.csv", times=times)
        grid_csv_reference(grid, tmp_path / "ref.csv", times)
        text = (tmp_path / "grid.csv").read_text()
        assert text == (tmp_path / "ref.csv").read_text()
        assert ",-0.0\n" in text and ",5e-324\n" in text and ",1e+16\n" in text

    def test_rejects_empty_times(self, tmp_path):
        # Before: a bare ValueError from np.concatenate.
        cost = bel.CostSpec(running_op=lambda t, u: np.zeros((2, 2)),
                            terminal_op=np.diag([0.0, 1.0]).astype(complex))
        grid = hjb.solve_hjb_grid(DEPHASING, cost, [np.zeros(0)],
                                  hjb.GridSpec(T=0.05, n_space=11, n_time=20))
        with pytest.raises(RejectedInputError, match="at least one time"):
            hjb.write_grid_csv(grid, tmp_path / "grid.csv", times=[])
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("bad", [np.nan, -3.0, 5.0])
    def test_rejects_time_outside_range(self, tmp_path, bad):
        # Accepted before: nan and -3.0 wrote the t = 0 slice, 5.0 the last one.
        cost = bel.CostSpec(running_op=lambda t, u: np.zeros((2, 2)),
                            terminal_op=np.diag([0.0, 1.0]).astype(complex))
        grid = hjb.solve_hjb_grid(DEPHASING, cost, [np.zeros(0)],
                                  hjb.GridSpec(T=0.05, n_space=11, n_time=20))
        with pytest.raises(RejectedInputError, match=f"t={bad} outside grid time range"):
            hjb.write_grid_csv(grid, tmp_path / "grid.csv", times=[0.0, bad])
        assert not (tmp_path / "grid.csv").exists()
